"""Critical masses above which the energy admits no minimizer.

Two routes are provided.  The closed form

    m_c = (1/2 - (1+eps)^-(N+s-1))^-1 * (omega_{N-1} (1+eps)^(1-s) / (1-s) + A)

covers the Coulomb background (beta = 1).  The generalized threshold for
beta in [0, N+1) is the unique positive root m_p of

    phi(x) = C1 x^(1+p) - C2 x^p - A C3,      p = (beta - 1) / N,

found by bisection in double precision on a bracket proved to hold it.
Two exponent conventions are in circulation for the prefactor, N+s-1 and
N+1-s; they differ for every s in (0, 1), so both are exposed through a
flag and never silently mixed.

``epsilon_min`` is the epsilon at which the prefactor degenerates.  It
lives here because it needs only ``math``; ``kernels`` imports it to
validate a ``KernelSpec``.  Nothing here imports numpy, so a
``critical-mass`` run never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple, Optional, Tuple

from .errors import DomainError, ParameterError

_CONVENTIONS = ("theorem", "appendix")


def epsilon_min(N: int, s: float) -> float:
    """Smallest admissible epsilon for dimension N and order s.

    The prefactor 1/2 - (1+eps)^(-(N+s-1)) appearing in the critical-mass
    formula degenerates when (1+eps)^(N+s-1) = 2; admissibility requires
    eps > 2^(1/(N+s-1)) - 1.
    """
    if not (isinstance(N, Integral) and N >= 2):
        raise ParameterError(f"dimension must be an integer >= 2, got {N!r}")
    if not (0.0 < s < 1.0):
        raise ParameterError(f"s must lie in (0, 1), got {s!r}")
    return 2.0 ** (1.0 / (N + s - 1.0)) - 1.0


class GeneralConstants(NamedTuple):
    C1: float
    C2: float
    C3: float
    p: float


@dataclass(frozen=True)
class ThresholdRecord:
    """Inputs, constants, the critical mass, and root-finder diagnostics."""

    dimension: int
    s: float
    epsilon: float
    A: float
    beta: float
    convention: str
    mass: float
    constants: GeneralConstants
    bracket: Optional[Tuple[float, float]] = None
    iterations: int = 0
    residual: float = 0.0

    def as_record(self) -> dict:
        return {
            "dimension": self.dimension,
            "s": self.s,
            "epsilon": self.epsilon,
            "A": self.A,
            "beta": self.beta,
            "convention": self.convention,
            "mass": self.mass,
            "C1": self.constants.C1,
            "C2": self.constants.C2,
            "C3": self.constants.C3,
            "p": self.constants.p,
            "bracket_lo": self.bracket[0] if self.bracket else float("nan"),
            "bracket_hi": self.bracket[1] if self.bracket else float("nan"),
            "iterations": self.iterations,
            "residual": self.residual,
        }


def _validate_inputs(N: int, s: float, epsilon: float, A: float):
    if N < 2:
        raise ParameterError(f"dimension must be at least 2, got {N}")
    if not (0.0 < s < 1.0):
        raise ParameterError(f"s must lie in (0, 1), got {s}")
    if not (0.0 <= A < math.inf):
        raise ParameterError(f"A must be finite and nonnegative, got {A}")
    if epsilon <= epsilon_min(N, s):
        raise ParameterError(
            f"degenerate prefactor: epsilon = {epsilon} must exceed "
            f"epsilon_min(N={N}, s={s}) = {epsilon_min(N, s)!r}"
        )


def _prefactor_exponent(N: int, s: float, convention: str) -> float:
    if convention not in _CONVENTIONS:
        raise ParameterError(
            f"convention must be one of {_CONVENTIONS}, got {convention!r}"
        )
    return N + s - 1.0 if convention == "theorem" else N + 1.0 - s


def general_constants(
    N: int, s: float, epsilon: float, beta: float, convention: str = "theorem"
) -> GeneralConstants:
    """Constants (C1, C2, C3, p) of the generalized threshold equation."""
    if not (0.0 < s < 1.0):
        raise ParameterError(f"s must lie in (0, 1), got {s}")
    if not (0.0 <= beta < N + 1):
        raise ParameterError(f"beta must lie in [0, {N + 1}), got {beta}")
    expo = _prefactor_exponent(N, s, convention)
    omega = 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)  # unit-sphere area
    C1 = 0.5 - (1.0 + epsilon) ** (-expo)
    C2 = omega * (1.0 + epsilon) ** (1.0 - s) / (1.0 - s)
    p = (beta - 1.0) / N
    C3 = omega * (omega / N) ** (-1.0 + p) / (N + 1.0 - beta)
    if C1 <= 0:
        raise ParameterError(
            f"degenerate prefactor: C1 = {C1} <= 0 for epsilon = "
            f"{epsilon} under the {convention!r} exponent convention"
        )
    return GeneralConstants(C1=C1, C2=C2, C3=C3, p=p)


def phi(x: float, constants: GeneralConstants, A: float) -> float:
    """phi(x) = C1 x^(1+p) - C2 x^p - A C3 for x > 0."""
    if x <= 0:
        raise DomainError(f"phi is defined for x > 0, got {x}")
    C1, C2, C3, p = constants
    return C1 * x ** (1.0 + p) - C2 * x ** p - A * C3


def critical_mass(N: int, s: float, epsilon: float, A: float) -> ThresholdRecord:
    """Closed-form critical mass (C2 + A)/C1 for the Coulomb background
    (beta = 1)."""
    _validate_inputs(N, s, epsilon, A)
    consts = general_constants(N, s, epsilon, 1.0, "theorem")
    mass = (consts.C2 + A) / consts.C1
    return ThresholdRecord(
        dimension=N,
        s=s,
        epsilon=epsilon,
        A=A,
        beta=1.0,
        convention="theorem",
        mass=mass,
        constants=consts,
        bracket=None,
        iterations=0,
        residual=abs(phi(mass, consts, A)),
    )


def _bisect(f, lo: float, hi: float) -> Tuple[float, int]:
    """(root, iterations) of an increasing f with f(lo) <= 0 <= f(hi): halve
    [lo, hi] until no double lies strictly inside, then return the end
    where |f| is smaller."""
    iterations = 0
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return (lo if abs(f(lo)) <= abs(f(hi)) else hi), iterations


def general_critical_mass(
    N: int,
    s: float,
    epsilon: float,
    A: float,
    beta: float,
    convention: str = "theorem",
) -> ThresholdRecord:
    """Root m_p of phi, by bisection on a bracket proved to hold it.

    Write phi(x) = x^p (C1 x - C2) - A C3 with C1, C2 > 0, C3 > 0, A >= 0
    and p = (beta - 1)/N in [-1/N, 1).  At lo = C2/C1, phi(lo) = -A C3 <= 0.
    For p < 0, phi'(x) = x^(p-1) (C1 (1+p) x - C2 p) > 0 on x > 0.  For
    p >= 0, phi <= -A C3 on (0, C2/C1], where x^p >= 0 and C1 x - C2 <= 0,
    and beyond it x^p and C1 x - C2 are both positive and increasing, so
    phi increases there.  Either way phi has exactly one positive root, it
    lies at or above lo, and it is lo itself when A = 0.  At
    hi = max(1, ((C2 + A C3)/C1)^(1/(1 + min(p, 0)))), phi(hi) >= 0: for
    p >= 0, hi^p >= 1 and C1 hi - C2 >= A C3 >= 0; for p < 0,
    C1 hi^(1+p) >= C2 + A C3 and C2 hi^p <= C2.  So [lo, hi] brackets the
    root, and bisection in double precision narrows it to adjacent doubles.
    """
    _validate_inputs(N, s, epsilon, A)
    consts = general_constants(N, s, epsilon, beta, convention)
    C1, C2, C3, p = consts
    lo = C2 / C1
    try:
        hi = max(1.0, ((C2 + A * C3) / C1) ** (1.0 / (1.0 + min(p, 0.0))))
    except OverflowError:
        hi = math.inf
    if hi == math.inf:
        raise ParameterError(f"A = {A} is too large: the root bracket overflows a double")
    root, iterations = _bisect(lambda x: phi(x, consts, A), lo, hi)
    return ThresholdRecord(
        dimension=N,
        s=s,
        epsilon=epsilon,
        A=A,
        beta=beta,
        convention=convention,
        mass=root,
        constants=consts,
        bracket=(lo, hi),
        iterations=iterations,
        residual=abs(phi(root, consts, A)),
    )
