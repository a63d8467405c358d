"""Parametric competitor search against the single ball.

The single-ball energy is compared with split configurations: two (or a
chain of k) disjoint balls assembled through the exact decomposition
identities, so every term reduces to single-ball values plus pairwise
interactions.  The translated components drop their background attraction
(the A-term is carried by the component at the origin), mirroring how the
splitting argument treats the far piece; this only raises the reported
split energy, so positive margins are conservative evidence.

Also provided: a weak-subadditivity probe (the far-apart union of two
family minimizers is itself a family competitor).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import energy as energy_mod
from . import geometry
from .energy import EnergyParams, EnergyReport
from .errors import ParameterError, PreconditionError
from .geometry import BallConfig
from .quadrature import QuadratureSpec

_DEFAULT_FRACTIONS = (0.25, 0.375, 0.5, 0.625, 0.75)
_DEFAULT_D_COUNT = 12
_D_MAX_FACTOR = 1e3
_FAR_FACTOR = 1e6


def _ball_radius(N: int, m: float) -> float:
    return (m / geometry.unit_ball_volume(N)) ** (1.0 / N)


@dataclass(frozen=True)
class TwoBallConfig:
    """Two disjoint balls of masses m1 (at the origin) and m2 (at distance
    d along the first axis)."""

    dimension: int
    m1: float
    m2: float
    d: float

    def __post_init__(self):
        if self.m1 <= 0 or self.m2 <= 0:
            raise ParameterError("masses must be positive")
        if self.d <= 0:
            raise ParameterError("separation must be positive")
        r1 = _ball_radius(self.dimension, self.m1)
        r2 = _ball_radius(self.dimension, self.m2)
        if self.d <= r1 + r2:
            raise PreconditionError(
                f"balls overlap: d = {self.d} <= r1 + r2 = {r1 + r2}"
            )

    @property
    def radii(self) -> Tuple[float, float]:
        return (
            _ball_radius(self.dimension, self.m1),
            _ball_radius(self.dimension, self.m2),
        )

    def shape(self) -> BallConfig:
        N = self.dimension
        r1, r2 = self.radii
        centers = np.zeros((2, N))
        centers[1, 0] = self.d
        return BallConfig(dimension=N, centers=centers, radii=np.array([r1, r2]))


def single_ball_energy(m: float, params: EnergyParams, spec: QuadratureSpec) -> EnergyReport:
    """Energy of the origin-centered ball of volume m."""
    if m <= 0:
        raise ParameterError(f"mass must be positive, got {m}")
    N = params.kernel.dimension
    return energy_mod.total_energy(geometry.ball_of_volume(N, m), params, spec)


def two_ball_energy(cfg: TwoBallConfig, params: EnergyParams, spec: QuadratureSpec) -> EnergyReport:
    """Energy of the two-ball configuration; the origin ball carries the
    background term.  When the set distance is at least d/2 the cross
    riesz term is checked against the far-separation bound
    m1 m2 (2 / d)^alpha."""
    report, cross_r = energy_mod._balls_energy(cfg.shape(), params, spec, charged=1)
    r1, r2 = cfg.radii
    if cfg.d - r1 - r2 >= 0.5 * cfg.d:
        bound = cfg.m1 * cfg.m2 * (2.0 / cfg.d) ** params.alpha
        if not cross_r <= bound * (1.0 + 1e-9) + 3.0 * report.error:
            raise PreconditionError(
                f"cross riesz {cross_r} exceeds the far-separation bound {bound}"
            )
    return report


@dataclass(frozen=True)
class FamilySearchResult:
    """Best split found, the single-ball reference, and the search trace.

    ``best_balls`` is the layout of the best split: two balls, or a chain
    of equal balls (``best_m1`` one link, ``best_m2`` the rest)."""

    best_m1: float
    best_m2: float
    best_d: float
    best_balls: BallConfig
    best_energy: float
    reference_energy: float
    family_min: float
    margin: float
    error: float
    trace: List[dict]

    def as_record(self) -> dict:
        return {
            "best_m1": self.best_m1,
            "best_m2": self.best_m2,
            "best_d": self.best_d,
            "best_energy": self.best_energy,
            "reference_energy": self.reference_energy,
            "family_min": self.family_min,
            "margin": self.margin,
            "error": self.error,
        }


def split_advantage(
    m: float,
    params: EnergyParams,
    spec: QuadratureSpec,
    fractions: Optional[Sequence[float]] = None,
    d_count: int = _DEFAULT_D_COUNT,
    d_max_factor: float = _D_MAX_FACTOR,
    k: int = 2,
) -> FamilySearchResult:
    """Minimize the split-family energy over (m1, d) and compare with the
    single ball.  ``margin`` = reference - best split; a positive margin
    beyond error bars means splitting beats the ball.  Chains of k > 2
    equal balls join the family when requested."""
    if m <= 0:
        raise ParameterError(f"mass must be positive, got {m}")
    if k < 2:
        raise ParameterError(f"family needs at least 2 balls, got k = {k}")
    if d_count < 1:
        raise ParameterError(f"family needs at least 1 separation, got d_count = {d_count}")
    fractions = tuple(fractions) if fractions is not None else _DEFAULT_FRACTIONS
    if k == 2 and not any(0.0 < f < 1.0 for f in fractions):
        raise ParameterError(f"family needs a split fraction in (0, 1), got {fractions}")
    N = params.kernel.dimension
    ref = single_ball_energy(m, params, spec)
    diam = 2.0 * _ball_radius(N, m)
    trace: List[dict] = []
    best = best_balls = None

    def d_grid(touching):
        near, far = 1.02 * touching, d_max_factor * diam
        if not far >= near:
            raise ParameterError(
                f"d_max_factor = {d_max_factor} puts the largest separation {far:.6g} "
                f"below the smallest, 1.02 x touching = {near:.6g}"
            )
        return np.geomspace(near, far, d_count)

    def consider(m1, m2, d, balls, total, err):
        nonlocal best, best_balls
        entry = {"m1": m1, "m2": m2, "d": d, "total": total, "error": err}
        if best is None or total < best["total"]:
            best, best_balls = entry, balls
        entry["best_so_far"] = best["total"]
        trace.append(entry)

    for f in fractions:
        m1 = f * m
        m2 = (1.0 - f) * m
        if m1 <= 0 or m2 <= 0:
            continue
        for d in d_grid(_ball_radius(N, m1) + _ball_radius(N, m2)):
            cfg = TwoBallConfig(dimension=N, m1=m1, m2=m2, d=float(d))
            rep = two_ball_energy(cfg, params, spec)
            consider(m1, m2, float(d), cfg.shape(), rep.total, rep.error)
    for kk in range(3, k + 1):
        mk = m / kk
        for d in d_grid(2.0 * _ball_radius(N, mk)):
            centers = np.zeros((kk, N))
            centers[:, 0] = np.arange(kk) * float(d)
            chain = BallConfig(N, centers, np.full(kk, _ball_radius(N, mk)))
            rep, _ = energy_mod._balls_energy(chain, params, spec, charged=1)
            consider(mk, m - mk, float(d), chain, rep.total, rep.error)
    family_min = min(ref.total, best["total"])
    return FamilySearchResult(
        best_m1=best["m1"],
        best_m2=best["m2"],
        best_d=best["d"],
        best_balls=best_balls,
        best_energy=best["total"],
        reference_energy=ref.total,
        family_min=family_min,
        margin=ref.total - best["total"],
        error=ref.error + best["error"],
        trace=trace,
    )


@dataclass(frozen=True)
class SubadditivityProbe:
    """familyMin(m1+m2) compared against familyMin_A(m1) + familyMin_0(m2).

    Floats coerce to the residual; nonpositive residual (within error)
    reproduces the weak subadditivity of the infimum."""

    residual: float
    combined_error: float
    family_min_sum: float
    family_min_1: float
    family_min_2: float

    def __float__(self) -> float:
        return self.residual


def _best_balls(m: float, N: int, result: FamilySearchResult) -> BallConfig:
    """Ball layout realizing a family minimum."""
    if result.family_min >= result.reference_energy:
        return geometry.ball_of_volume(N, m)
    return result.best_balls


def weak_subadditivity_probe(
    m1: float,
    m2: float,
    params: EnergyParams,
    spec: QuadratureSpec,
    d_count: int = _DEFAULT_D_COUNT,
    d_max_factor: float = _D_MAX_FACTOR,
    k: int = 2,
) -> SubadditivityProbe:
    """Probe familyMin(m1+m2) <= familyMin_A(m1) + familyMin_0(m2).

    ``d_count``, ``d_max_factor`` and ``k`` set the separation grid and
    the longest chain of the three family searches, as in
    ``split_advantage``.

    The combined family explicitly contains the far-apart union of the two
    component minimizers (translated by 10^6 diameters), mirroring the
    construction that proves the inequality, so the residual can only be
    positive by the cross terms of that union.  Those inter-group cross
    terms quantify the distance to the infinite-separation limit and are
    computed exactly, so they are charged to ``combined_error`` alongside
    the quadrature errors.
    """
    if m1 <= 0 or m2 <= 0:
        raise ParameterError("masses must be positive")
    N = params.kernel.dimension
    params0 = replace(params, A=0.0)
    grid = dict(d_count=d_count, d_max_factor=d_max_factor, k=k)
    res1 = split_advantage(m1, params, spec, **grid)
    res2 = split_advantage(m2, params0, spec, **grid)

    extra = m1 / (m1 + m2)
    fractions = tuple(sorted(set(_DEFAULT_FRACTIONS) | {extra, 1.0 - extra}))
    fractions = tuple(f for f in fractions if 0.0 < f < 1.0)
    res_sum = split_advantage(m1 + m2, params, spec, fractions=fractions, **grid)

    balls1 = _best_balls(m1, N, res1)
    balls2 = _best_balls(m2, N, res2)
    extent = float(np.max(balls1.centers[:, 0] + balls1.radii)) + float(
        np.max(balls2.centers[:, 0] + balls2.radii)
    )
    D = _FAR_FACTOR * max(extent, 2.0 * _ball_radius(N, m1 + m2))
    shift = np.zeros(N)
    shift[0] = D
    shifted2 = BallConfig(N, balls2.centers + shift, balls2.radii)
    composite = BallConfig(
        N,
        np.vstack([balls1.centers, shifted2.centers]),
        np.concatenate([balls1.radii, shifted2.radii]),
    )
    comp_report, _ = energy_mod._balls_energy(composite, params, spec, charged=balls1.count)

    (cross_r, cross_k), _ = energy_mod._balls_cross((params.alpha, params.kernel), balls1, shifted2)
    inter_gap = float(cross_r + 2.0 * cross_k)

    family_min_sum = min(res_sum.family_min, comp_report.total)
    lhs = family_min_sum
    rhs = res1.family_min + res2.family_min
    err = res_sum.error + comp_report.error + res1.error + res2.error + inter_gap
    return SubadditivityProbe(
        residual=lhs - rhs,
        combined_error=err,
        family_min_sum=family_min_sum,
        family_min_1=res1.family_min,
        family_min_2=res2.family_min,
    )
