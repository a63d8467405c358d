"""Nonlocal isoperimetric lower bound on small-volume shapes.

For kernels sandwiched between power laws (condition on the lambda
constant) every shape F with |F| <= omega_N (1 + eps)^N satisfies

    P_K(F) >= C |F|^((N - s) / N),    C = omega_{N-1} omega_N^(s/N) / (lambda s).

The check reports the slack P_K(F) - bound rather than a verdict; the
expected behavior is slack >= -3 error on admissible shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import energy as energy_mod
from . import geometry
from .errors import PreconditionError
from .geometry import Shape
from .kernels import KernelSpec
from .quadrature import QuadratureSpec


def bound_constant(kernel: KernelSpec) -> float:
    """C = omega_{N-1} omega_N^(s/N) / (lambda s)."""
    N, s = kernel.dimension, kernel.s
    return (
        geometry.unit_sphere_area(N)
        * geometry.unit_ball_volume(N) ** (s / N)
        / (kernel.lam * s)
    )


def volume_cap(kernel: KernelSpec) -> float:
    """Largest admissible volume, omega_N (1 + eps)^N."""
    N = kernel.dimension
    return geometry.unit_ball_volume(N) * (1.0 + kernel.epsilon) ** N


@dataclass(frozen=True)
class IsoperimetryCheck:
    shape_id: str
    volume: float
    bound: float
    perimeter: float
    slack: float
    error: float
    constant: float

    def as_record(self) -> dict:
        return {
            "shape_id": self.shape_id,
            "volume": self.volume,
            "bound": self.bound,
            "perimeter": self.perimeter,
            "slack": self.slack,
            "error": self.error,
            "constant": self.constant,
        }


def isoperimetric_check(
    F: Shape, kernel: KernelSpec, spec: QuadratureSpec, shape_id: str = ""
) -> IsoperimetryCheck:
    """Evaluate P_K(F) against C |F|^((N-s)/N) for one shape."""
    N = kernel.dimension
    cap = volume_cap(kernel)
    vol = geometry.volume(F)
    if vol > cap:
        raise PreconditionError(
            f"volume {vol} exceeds the admissible cap {cap} for this kernel"
        )
    C = bound_constant(kernel)
    bound = C * vol ** ((N - kernel.s) / N)
    if vol == 0.0:
        return IsoperimetryCheck(shape_id, 0.0, 0.0, 0.0, 0.0, 0.0, C)
    est = energy_mod.perimeter(F, kernel, spec)
    return IsoperimetryCheck(
        shape_id=shape_id,
        volume=vol,
        bound=bound,
        perimeter=est.value,
        slack=est.value - bound,
        error=est.error,
        constant=C,
    )


def run_suite(
    kernel: KernelSpec,
    spec: QuadratureSpec,
    count: int = 100,
    seed: int = 0,
    grid_n: int = 48,
) -> List[IsoperimetryCheck]:
    """Seeded random small-volume blobs checked against the bound."""
    cap = volume_cap(kernel)
    rng = np.random.default_rng(seed)
    checks = []
    for i in range(count):
        blob = geometry.random_blob(
            kernel.dimension, rng, grid_n=grid_n, volume_cap=cap
        )
        checks.append(isoperimetric_check(blob, kernel, spec, shape_id=f"blob-{i:03d}"))
    return checks
