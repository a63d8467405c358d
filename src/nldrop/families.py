"""Parametric competitor search against the single ball.

The single-ball energy is compared with split configurations: two (or a
chain of k) disjoint balls assembled through the exact decomposition
identities, so every term reduces to single-ball values plus pairwise
interactions.  The translated components drop their background attraction
(the A-term is carried by the component at the origin), mirroring how the
splitting argument treats the far piece; this only raises the reported
split energy, so positive margins are conservative evidence.

Also provided: a weak-subadditivity probe (the far-apart union of two
family minimizers is itself a family competitor) and a volume-preserving
annealing search on voxel grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import energy as energy_mod
from . import geometry, quadrature
from .energy import EnergyParams, EnergyReport
from .errors import ParameterError, PreconditionError
from .geometry import BallConfig, VoxelShape
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


# ---------------------------------------------------------------------------
# Voxel annealing


def _stencil_window(T: np.ndarray, cell) -> np.ndarray:
    """View of stencil T over the grid: entry i is T[(i - cell) + dims - 1],
    the pair-sum contribution of ``cell`` to cell i.  Its entry at ``cell``
    is the zero-offset (same-cell) value."""
    return T[tuple(slice(n // 2 - c, n - c) for n, c in zip(T.shape, cell))]


def _neighbor_masks(occ: np.ndarray):
    """Boundary masks: occupied cells touching empties, empty cells
    touching occupied (4-neighborhood)."""
    empty = ~occ
    touch_empty = np.zeros_like(occ)
    touch_occ = np.zeros_like(occ)
    for ax in range(occ.ndim):
        for shift in (1, -1):
            rolled = np.roll(occ, shift, axis=ax)
            edge = [slice(None)] * occ.ndim
            edge[ax] = 0 if shift == 1 else -1
            rolled[tuple(edge)] = False
            touch_occ |= rolled
            rolled_e = np.roll(empty, shift, axis=ax)
            rolled_e[tuple(edge)] = False
            touch_empty |= rolled_e
    return occ & touch_empty, empty & touch_occ


def voxel_local_search(
    E0: VoxelShape,
    params: EnergyParams,
    steps: int,
    t0: Optional[float] = None,
    ratio: float = 0.95,
    seed: int = 0,
) -> Tuple[VoxelShape, List[dict]]:
    """Volume-preserving annealing on a voxel grid (N = 2).

    Each move removes one occupied boundary cell and adds one empty
    boundary cell (the occupied count never changes); acceptance follows
    the Metropolis rule with a geometric temperature schedule (ratio per
    epoch).  The energy is the grid engines' ``total_energy``: the
    perimeter count(E) a(h) - S(E, E) with the shared cell kernel mass
    a(h), pair sums with the near-refined stencils, and exact origin-cell
    background.
    Returns the best shape seen and a per-epoch trace; deterministic for
    a fixed seed.
    """
    if E0.dimension != 2:
        raise ParameterError("the local search supports N = 2 voxel shapes")
    if steps <= 0:
        return E0, []
    N = 2
    occ = E0.occupancy.copy()
    count = int(np.count_nonzero(occ))
    if count == 0 or count == occ.size:
        return E0, []
    dims = occ.shape
    h = E0.spacing
    igd_k = quadrature.kernel_integrand(params.kernel)
    igd_r = quadrature.riesz_integrand(N, params.alpha)
    T_k = quadrature._stencil(dims, h, igd_k)
    T_r = quadrature._stencil(dims, h, igd_r)

    _, a = quadrature._cell_kernel_mass(dims, h, igd_k)
    all_idx = np.indices(dims).reshape(N, -1).T
    all_centers = E0.origin + (all_idx + 0.5) * h
    b_means, _ = quadrature._singular_cell_means(
        all_centers, h, quadrature.PointSingularity(np.zeros(N), params.beta)
    )
    lin = a - params.A * b_means.reshape(dims) * h ** N

    (phi_k, _), (phi_r, _) = quadrature._pair_fields(occ, (T_k, T_r))[1]
    s_k = float(np.sum(phi_k[occ]))
    s_r = float(np.sum(phi_r[occ]))

    def current_energy():
        return float(np.sum(lin[occ])) - s_k + 0.5 * s_r

    rng = np.random.default_rng(seed)
    energy_now = current_energy()
    best_energy = energy_now
    best_occ = occ.copy()

    def propose():
        occ_b, emp_b = _neighbor_masks(occ)
        occ_list = np.argwhere(occ_b if np.any(occ_b) else occ)
        emp_list = np.argwhere(emp_b if np.any(emp_b) else ~occ)
        u = tuple(occ_list[rng.integers(len(occ_list))])
        v = tuple(emp_list[rng.integers(len(emp_list))])
        # moving a cell removes u's pair terms (including its diagonal T0)
        # and adds v's against E - {u}: dS = 2 phi(v) - 2 phi(u) - 2 T[v-u] + 2 T0,
        # where u's stencil window holds T[v-u] at v and T0 at u
        w_k = _stencil_window(T_k, u)
        w_r = _stencil_window(T_r, u)
        d_sk = 2.0 * (float(phi_k[v]) - float(phi_k[u]) - float(w_k[v]) + float(w_k[u]))
        d_sr = 2.0 * (float(phi_r[v]) - float(phi_r[u]) - float(w_r[v]) + float(w_r[u]))
        delta = float(lin[v]) - float(lin[u]) - d_sk + 0.5 * d_sr
        return u, v, d_sk, d_sr, delta

    if t0 is None:
        probes = [abs(propose()[4]) for _ in range(16)]
        t0 = float(np.median(probes)) or 1e-6
    temperature = float(t0)
    epoch = max(64, count)
    trace: List[dict] = []
    accepted = 0
    for step in range(steps):
        u, v, d_sk, d_sr, delta = propose()
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-300)):
            occ[u] = False
            occ[v] = True
            phi_k += _stencil_window(T_k, v)
            phi_k -= _stencil_window(T_k, u)
            phi_r += _stencil_window(T_r, v)
            phi_r -= _stencil_window(T_r, u)
            s_k += d_sk
            s_r += d_sr
            energy_now += delta
            accepted += 1
            if energy_now < best_energy:
                best_energy = energy_now
                best_occ = occ.copy()
        if (step + 1) % epoch == 0:
            trace.append(
                {
                    "step": step + 1,
                    "temperature": temperature,
                    "energy": energy_now,
                    "best_energy": best_energy,
                    "accept_rate": accepted / (step + 1),
                }
            )
            temperature *= ratio
    if not trace or trace[-1]["step"] != steps:
        trace.append(
            {
                "step": steps,
                "temperature": temperature,
                "energy": energy_now,
                "best_energy": best_energy,
                "accept_rate": accepted / steps,
            }
        )
    # guard against drift in the incrementally tracked pair sums
    s_fresh = quadrature._fft_pair_sum(occ, occ, T_r)
    if not abs(s_fresh - s_r) <= 1e-6 * (1.0 + abs(s_fresh)):
        raise PreconditionError(f"pair-sum drift: tracked {s_r}, recomputed {s_fresh}")
    if int(np.count_nonzero(occ)) != count:
        raise PreconditionError("volume constraint violated")
    best = VoxelShape(
        dimension=2, origin=E0.origin, spacing=E0.spacing, occupancy=best_occ
    )
    return best, trace
