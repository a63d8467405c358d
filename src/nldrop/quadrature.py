"""Integration engines for singular power-law integrands on shapes.

Two engine families are provided behind one interface:

* ``tensor-midpoint``: shapes are voxelized (or already voxel grids); a
  pair integral is a pair sum of a translation-invariant stencil over the
  occupied cells, taken by Parseval's identity on a 5-smooth FFT grid of
  at least twice the occupied box per axis.  Cell pairs near the singular
  diagonal use exact cell-pair integrals (difference-variable form with a
  triangular weight and dyadic Gauss-Legendre refinement toward the
  singularity).  Every integrand carries its core: below a radius r0 it
  is homogeneous of degree -p0; for a kernel that is the first power-law
  piece of ``kernels._pieces``.  The refinement runs until the boxes at
  the origin lie inside r0, and the rest of the corner series is summed
  in closed form from at most N + 2 more levels; a kernel's knots near
  the origin are integrated exactly beforehand.  So the corner series of
  every kernel kind is exact to rounding; only a knot farther out, which
  Gauss-Legendre boxes straddle (a truncated kernel's r_cap just above
  h), still costs accuracy.  Near values are kept in near tables, one
  integral per symmetry orbit of cell offsets, shared by every grid of
  one spacing; power-law integrands (r0 infinite) keep one table at unit
  spacing for all spacings.  Stencils are evaluated in slabs of offsets,
  a radial one on one orthant and mirrored.  A complement integral is
  count(E) a(h) - S(E, E): S is the pair sum over E x E and a(h) is the
  kernel mass of one cell against all of space, the stencil sum plus the
  exact directional tail beyond the stencil box (the closed-form radial
  tail from the ray-box exit distance, summed over a midpoint direction
  grid).
* ``monte-carlo``: uniform rejection sampling in bounding boxes with fixed
  batch structure; per-batch seeds derive from one SeedSequence so results
  are bit-reproducible for a fixed spec.  It serves sphere integrals,
  regular integrands, and singular ones whose variance is finite: riesz
  pairs with 2 alpha < N (the 3-D alpha = 1 self term), kernels with a
  bounded core (the truncated kind) and any pair of shapes whose bounding
  boxes are apart.  A |z|^-p singularity with 2 p >= N inside the sampled
  region has infinite variance, and the engine refuses it
  (``_refuse_infinite_variance``): every pair integral whose boxes meet
  and whose integrand's core has 2 p0 >= N, and every point singularity
  with 2 exponent >= N inside the shape's box.  It has no complement
  integral (the perimeter) and no slice scan; both run on tensor grids
  only (``_refuse_monte_carlo``).

Every estimate an engine returns is built by one of two helpers.
``_tensor_estimate`` evaluates on the fine grid and on the half-resolution
grid and reports |fine - coarse| as the error.  ``_mc_estimate`` splits
the budget over 32 seeded batches and reports the standard error of the
batch means.  Both errors are proxies, not bounds.  Sphere integrals and
directional tails stream the midpoint direction grid in blocks built from
per-axis factors (``_direction_blocks``); no cache holds more than those
factors.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import geometry, kernels
from .errors import ParameterError
from .geometry import Shape, VoxelShape
from .kernels import KernelSpec

_NB_BATCHES = 32
_TAIL_DIRECTIONS = {2: 256, 3: 512}
_SPHERE_BLOCK = 1 << 14  # sphere integrals take their directions in blocks this large
_MAX_CONV_CELLS = 3.3e7
_GL_ORDER = 6
# Complement integrals pad a shape's grid with empty cells to at least this
# many cells per axis: the stencil then holds every near offset, and the
# directional tail starts well away from the centre cell.
_MIN_STENCIL_CELLS = 32


@dataclass(frozen=True)
class QuadratureSpec:
    """Engine selection and budgets.

    ``budget`` is the Monte Carlo sample (pair) count, or the target number
    of cells covering the shape's bounding box for tensor grids; ``None``
    resolves to 10^5 samples or 64^N cells.
    """

    method: str = "tensor-midpoint"
    budget: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("tensor-midpoint", "monte-carlo"):
            raise ParameterError(f"unknown quadrature method {self.method!r}")
        if self.budget is not None and self.budget < 1000:
            raise ParameterError(f"budget must be >= 1000, got {self.budget}")

    def resolved_budget(self, N: int) -> int:
        if self.budget is not None:
            return int(self.budget)
        return 100_000 if self.method == "monte-carlo" else 64 ** N


@dataclass(frozen=True)
class IntegralEstimate:
    value: float
    error: float
    samples: int
    method: str
    seed: Optional[int] = None


@dataclass(frozen=True, eq=False)
class PointSingularity:
    """Marker integrand f(x) = |x - center|^(-exponent).

    Exponents below N are integrable; the cell containing the center is
    integrated by dyadic refinement instead of the midpoint rule.  Negative
    exponents are allowed (positive powers of the distance).
    """

    center: np.ndarray
    exponent: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "center", c)

    def vec(self, pts: np.ndarray) -> np.ndarray:
        r = np.sqrt(np.sum((pts - self.center) ** 2, axis=-1))
        if self.exponent > 0:
            out = np.zeros_like(r)
            pos = r > 0
            out[pos] = r[pos] ** (-self.exponent)
            out[~pos] = np.inf
            return out
        return r ** (-self.exponent)


# ---------------------------------------------------------------------------
# Offset integrands (functions of y - x) used by the pair-sum engines


@dataclass(frozen=True, eq=False)
class OffsetIntegrand:
    """A stationary pair integrand g evaluated at the offset z = y - x.

    ``sigma`` is the strength of the |z|^-sigma behavior at z = 0 (0 for
    bounded integrands); it sets how many near-diagonal stencil offsets get
    exact cell-pair integrals.  ``core`` = (r0, p0): g(t z) = t^(-p0) g(z)
    for 0 < t <= 1 and |z| <= r0, which closes the corner series of every
    exact cell-pair integral (see ``cell_pair_integral``).  Radial
    integrands set ``ray_tail`` (per-steradian tail integral of
    g(r) r^(N-1) from rho to infinity) to enable complement tails.  A
    radial g made of power-law pieces sets ``pieces`` = (knots, c, p,
    bound) as in ``kernels._pieces``: its core is the first piece, and the
    cell-pair integrals take its knots near the origin exactly.  Any other
    g gives its core as ``explicit_core``.

    Two properties let the stencils share those exact integrals (see
    ``_near_values``).  ``radial``: g depends on |z| alone, so a cell
    offset's integral depends only on its sorted absolute components.  An
    infinite r0: g is homogeneous, so the integral at spacing h is the
    spacing-1 value times h^(2N - p0).  Otherwise there is one exact
    integral per offset (per orbit when radial) and per spacing.
    """

    dimension: int
    sigma: float
    vec: Callable[[np.ndarray], np.ndarray]
    cache_token: object
    ray_tail: Optional[Callable[[np.ndarray], np.ndarray]] = None
    radial: bool = False
    pieces: Optional[tuple] = None
    explicit_core: Optional[Tuple[float, float]] = None

    @property
    def core(self) -> Tuple[float, float]:
        """(r0, p0); for pieces, the first one's upper knot (infinite for a
        single piece) and the exponent of its first monomial.  For a kernel
        that is the fractional kind's r^-(N+s) everywhere, the truncated
        kind's cap (p0 = 0) below cap^(-1/sigma), and a table's power law
        through its first two samples below its first radius."""
        if self.pieces is None:
            return self.explicit_core
        knots, _, p, _ = self.pieces
        return (float(knots[0]) if knots.size else math.inf), float(p[0, 0])


def kernel_integrand(kernel: KernelSpec) -> OffsetIntegrand:
    N, s = kernel.dimension, kernel.s

    def vec(z):
        return kernels.eval_kernel(kernel, z)

    return OffsetIntegrand(
        dimension=N,
        sigma=N + s,
        vec=vec,
        cache_token=kernel.cache_token,
        ray_tail=functools.partial(kernels.radial_tail_integral, kernel),
        radial=True,
        pieces=kernels._pieces(kernel),
    )


def riesz_integrand(N: int, alpha: float) -> OffsetIntegrand:
    if not (0.0 < alpha < N):
        raise ParameterError(f"riesz exponent must lie in (0, {N}), got {alpha}")

    def vec(z):
        r = np.sqrt(np.sum(np.asarray(z, dtype=float) ** 2, axis=-1))
        return r ** (-alpha)

    return OffsetIntegrand(
        dimension=N,
        sigma=alpha,
        vec=vec,
        cache_token=("riesz", N, alpha),
        radial=True,
        explicit_core=(math.inf, alpha),
    )


def kernel_moment_integrand(kernel: KernelSpec) -> OffsetIntegrand:
    """g(z) = K(z) |z|: the first radial moment of the kernel."""
    N = kernel.dimension
    knots, c, p, bound = kernels._pieces(kernel)

    def vec(z):
        z = np.asarray(z, dtype=float)
        r = np.sqrt(np.sum(z ** 2, axis=-1))
        return kernels.eval_kernel_radial(kernel, r) * r

    return OffsetIntegrand(
        dimension=N,
        sigma=kernel.sigma - 1.0,
        vec=vec,
        cache_token=("moment1",) + (kernel.cache_token,),
        radial=True,
        pieces=(knots, c, p - 1.0, bound),
    )


def directional_positive_integrand(nu: np.ndarray) -> OffsetIntegrand:
    """g(z) = (z . nu)_+ / |z|, bounded, used by the layer-cake identity."""
    nu = np.asarray(nu, dtype=float)
    N = nu.size

    def vec(z):
        z = np.asarray(z, dtype=float)
        r = np.sqrt(np.sum(z ** 2, axis=-1))
        proj = np.clip(z @ nu, 0.0, None)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(r > 0, proj / np.where(r > 0, r, 1.0), 0.0)
        return out

    return OffsetIntegrand(
        dimension=N,
        sigma=0.0,
        vec=vec,
        cache_token=("dirpos", N) + tuple(float(v) for v in nu),
        explicit_core=(math.inf, 0.0),
    )


def _coerce_integrand(g, N: int) -> OffsetIntegrand:
    if isinstance(g, OffsetIntegrand):
        return g
    if isinstance(g, KernelSpec):
        if g.dimension != N:
            raise ParameterError("kernel dimension does not match the shapes")
        return kernel_integrand(g)
    if isinstance(g, (int, float)) and not isinstance(g, bool):
        return riesz_integrand(N, float(g))
    raise ParameterError(
        "pair integrand must be a KernelSpec, a riesz exponent or an OffsetIntegrand, "
        f"got {type(g).__name__}"
    )


# ---------------------------------------------------------------------------
# Exact cell-pair and point-singularity integrals (dyadic Gauss-Legendre)

_GL_NODES, _GL_WEIGHTS = leggauss(_GL_ORDER)


def _box_nodes(lo: np.ndarray, hi: np.ndarray):
    """Gauss-Legendre tensor nodes and weights of the boxes [lo_k, hi_k]
    (rows of the (k, N) arrays), flattened to (k G^N, N) and (k G^N,)."""
    k, N = lo.shape
    G = _GL_ORDER
    half = 0.5 * (hi - lo)
    ax = (0.5 * (hi + lo))[:, :, None] + half[:, :, None] * _GL_NODES
    aw = half[:, :, None] * _GL_WEIGHTS
    pts = np.empty((k,) + (G,) * N + (N,))
    w = np.ones((k,) + (G,) * N)
    for i in range(N):
        shape = (k,) + (1,) * i + (G,) + (1,) * (N - 1 - i)
        pts[..., i] = ax[:, i].reshape(shape)
        w = w * aw[:, i].reshape(shape)
    return pts.reshape(-1, N), w.ravel()


def _dyadic_integral(lo: np.ndarray, hi: np.ndarray, fvec, sigma: float, degrees=(0, 0), head: int = 0) -> float:
    """Sum of integrals of fvec over the boxes [lo_k, hi_k], level by level.

    At each level one Gauss-Legendre call integrates every box clear of
    the origin, and every box touching it (at a corner: 0 is a breakpoint
    of every axis) is split into its 2^N halves for the next level.  The
    boxes of level k + 1 are the ones of level k scaled by 1/2.

    From level ``head`` on, the boxes touching the origin must lie where
    fvec is a g homogeneous of degree -``sigma`` times a polynomial weight
    whose monomials on those boxes have degrees in ``degrees`` =
    (m_min, m_max).  The Gauss-Legendre sums then scale exactly too: level
    head + k, k >= 1, contributes sum_m A_m r_m^(k-1) with
    r_m = 2^-(N - sigma + m).  Levels 0..head + L, for the L ratios, fix
    that series: levels 0..head are summed as they are, and the rest is
    P(1)/Q(1) with Q(x) = prod_m (1 - r_m x) and P the first L
    coefficients of Q(x) sum_{k>=1} c_{head+k} x^(k-1).  Every r_m must be
    below 1.
    """
    N = lo.shape[1]
    ratios = 2.0 ** -(N - sigma + np.arange(degrees[0], degrees[1] + 1))
    depth = head + ratios.size
    # upper[c, ax]: child c of a split box takes the upper half along ax
    upper = ((np.arange(2 ** N)[:, None] >> np.arange(N)) & 1).astype(bool)
    contrib = np.zeros(depth + 1)
    keep = np.all(hi > lo, axis=1)
    lo, hi = lo[keep], hi[keep]
    for dep in range(depth + 1):
        away = np.any((lo > 0.0) | (hi < 0.0), axis=1)
        if np.any(away):
            pts, w = _box_nodes(lo[away], hi[away])
            contrib[dep] = float(np.sum(fvec(pts) * w))
        lo, hi = lo[~away], hi[~away]
        if dep == depth or lo.shape[0] == 0:
            break
        mid = 0.5 * (lo + hi)
        lo, hi = (
            np.where(upper, mid[:, None], lo[:, None]).reshape(-1, N),
            np.where(upper, hi[:, None], mid[:, None]).reshape(-1, N),
        )
    if lo.shape[0] == 0:  # no box touches the origin: the sum is complete
        return float(contrib.sum())
    q = np.poly(ratios)  # Q's coefficients, lowest power first
    p = np.convolve(contrib[head + 1 :], q)[: ratios.size]
    return float(contrib[: head + 1].sum()) + float(p.sum()) / float(q.sum())


def _grid_boxes(axis_edges):
    """Boxes of the tensor grid with per-axis breakpoints ``axis_edges``,
    as (lo, hi) arrays of shape (k, N) with the first axis varying
    fastest."""
    def corners(edges):
        grids = np.meshgrid(*edges, indexing="ij")
        return np.stack([g.ravel(order="F") for g in grids], axis=-1)

    edges = [np.asarray(e, dtype=float) for e in axis_edges]
    return corners([e[:-1] for e in edges]), corners([e[1:] for e in edges])


def _axis_breaks(d: float, h: float) -> list:
    """Breakpoints of [d-h, d+h] at the weight apex d and at 0 if interior."""
    pts = [d - h, d, d + h]
    if d - h < 0.0 < d + h:
        pts.append(0.0)
    return sorted(set(pts))


def _peel_knots(d: np.ndarray, h: float, m_min: int, igd: OffsetIntegrand):
    """Take the knots of a piecewise g near the origin out of a cell pair.

    The support d + [-h, h]^N of the pair holds the origin.  Within the
    radius rho of the origin it is a union of whole orthants, and on each
    the triangular weight is prod_i (a_i + b_i |z_i|).  Let k_J be the
    last knot of ``igd.pieces`` up to rho and g_J the next piece continued
    inward to 0.  Then g - g_J is radial and lives in the ball of radius
    k_J, so its integral against the weight is exact: with S0_i and S1_i
    the sums of a_i and b_i over the sides of axis i that the support
    enters, the weight's degree-m coefficient summed over the orthants is
    that of prod_i (S0_i + S1_i x); a degree-m product of distinct
    |theta_i| integrates over one orthant of the unit sphere to a Gamma
    ratio; and the integral of g - g_J against r^(N-1+m) is exact on
    every piece.  Returns (g with g_J below k_J, as an integrand whose
    pieces start with g_J, and the integral of g - g_J).  With no knot up
    to rho, or a g_J that is not one monomial with a convergent integral at
    this pair, it returns (igd, 0).
    """
    N = d.size
    knots, c, p, bound = igd.pieces
    ad = np.abs(d)
    side = ad == h  # the support ends at the origin on one side of this axis
    rho = float(np.min(np.where((d == 0.0) | side, h, np.minimum(ad, h - ad))))
    J = int(np.searchsorted(knots, rho, side="right"))
    used = c[J] != 0.0
    if J == 0 or np.count_nonzero(used) != 1 or N - p[J][used][0] + m_min <= 0:
        return igd, 0.0
    kJ, cJ, pJ = float(knots[J - 1]), float(c[J][used][0]), float(p[J][used][0])
    S = [[0.0, 1.0] if at_side else [2.0 * (h - a), -2.0 if a == 0.0 else 0.0]
         for a, at_side in zip(ad, side)]
    coef = functools.reduce(np.convolve, S)
    m = np.arange(m_min, N + 1)
    orthant = np.array([2.0 ** (1 - N) * math.pi ** ((N - k) / 2) / math.gamma((N + k) / 2) for k in m])
    # pieces 0..J-1 on their intervals, minus g_J on [0, k_J]
    e = N + m[:, None, None] - p[None, : J + 1]
    radial = (
        kernels._monomial_integrals(c[:J], e[:, :J], knots[:J])
        - kernels._monomial_integrals(c[:J], e[:, :J], np.r_[0.0, knots[: J - 1]])
    ).sum(axis=-1) - kernels._monomial_integrals(c[J], e[:, J], np.array(kJ))

    def vec(z):
        out = igd.vec(z)
        r = np.sqrt(np.sum(z ** 2, axis=-1))
        inner = r < kJ
        out[inner] = cJ * r[inner] ** -pJ
        return out

    peeled = dataclasses.replace(igd, vec=vec, pieces=(knots[J:], c[J:], p[J:], bound))
    return peeled, float(np.sum(coef[m] * orthant * radial))


def cell_pair_integral(dvec, h: float, igd: OffsetIntegrand) -> float:
    """Exact integral of g = ``igd.vec`` (y - x) over a pair of cubic cells.

    The cells have side h and center offset dvec = center(y-cell) minus
    center(x-cell).  In the difference variable z = y - x the integral is
    g(z) times the separable triangular weight prod_i (h - |z_i - d_i|)_+
    over d + [-h, h]^N.  The weight's apex hyperplanes and the origin are
    pre-split so every quadrature box sees a smooth integrand.  An offset
    component within rounding (1e-12 h) of +-h counts as +-h.

    The boxes at the origin lie within h sqrt(N) of it.  They are refined
    L0 = max(0, ceil(log2(h sqrt(N) / r0))) levels, until they lie inside
    the core (r0, p0) of g, and the rest of the corner series is summed in
    closed form with sigma = p0 from at most N + 1 more levels (see
    ``_dyadic_integral``).  On the origin boxes the weight's monomials
    have degrees from the number of axes with |d_i| = h up to N; a pair
    whose lowest degree m_min has N - p0 + m_min <= 0 diverges and is
    rejected.  A g given by power-law pieces first has its knots near the
    origin taken out exactly (``_peel_knots``), so no quadrature box
    straddles a kink of g there; the core is then that of the continued
    piece.
    """
    N = igd.dimension
    d = np.asarray(dvec, dtype=float)
    edge = np.abs(np.abs(d) - h) <= 1e-12 * h
    d = np.where(edge, np.copysign(h, d), d)
    m_min = int(np.count_nonzero(edge))
    origin = bool(np.all(np.abs(d) <= h))
    r0, p0 = igd.core
    if origin and N - p0 + m_min <= 0:
        raise ParameterError(
            f"cell pair at offset {d.tolist()} with |z|^-{p0} singularity in "
            f"dimension {N}: the integral diverges"
        )
    ball = 0.0
    if origin and r0 < math.inf and igd.pieces is not None:  # a homogeneous g has no knot
        igd, ball = _peel_knots(d, h, m_min, igd)
        r0, p0 = igd.core

    def fvec(pts):
        w = np.prod(np.clip(h - np.abs(pts - d), 0.0, None), axis=-1)
        return igd.vec(pts) * w

    boxes = _grid_boxes([_axis_breaks(d[i], h) for i in range(N)])
    reach = h * math.sqrt(N)
    head = math.ceil(math.log2(reach / r0)) if reach > r0 else 0
    return _dyadic_integral(*boxes, fvec, p0, (m_min, N), head) + ball


def point_singularity_cell_integral(lo, hi, center, exponent: float, N: int) -> float:
    """Integral of |x - center|^(-exponent) over the box [lo, hi].

    Handles the singular point inside the box by summing the dyadic corner
    series in closed form (see ``_dyadic_integral``); the exponent must be
    below N for convergence.  A singular point within rounding (1e-12 of
    the box side) of a face counts as on that face.
    """
    if exponent >= N:
        raise ParameterError(
            f"exponent {exponent} >= N = {N}: integral over a cell containing "
            "the singular point diverges"
        )
    lo = np.asarray(lo, dtype=float) - np.asarray(center, dtype=float)
    hi = np.asarray(hi, dtype=float) - np.asarray(center, dtype=float)
    tol = 1e-12 * (hi - lo)
    lo = np.where(np.abs(lo) <= tol, 0.0, lo)
    hi = np.where(np.abs(hi) <= tol, 0.0, hi)

    def fvec(pts):
        r = np.sqrt(np.sum(pts ** 2, axis=-1))
        return r ** (-exponent)

    axis_edges = []
    for i in range(N):
        pts = [lo[i], hi[i]]
        if lo[i] < 0.0 < hi[i]:
            pts.insert(1, 0.0)
        axis_edges.append(pts)
    return _dyadic_integral(*_grid_boxes(axis_edges), fvec, exponent)


def _singular_cell_means(centers: np.ndarray, h: float, sing: PointSingularity):
    """Per-cell mean of |x - center|^(-exponent) over the cubic cells of
    side h centered at ``centers`` (shape (k, N)).

    Ordinary cells take the midpoint value.  Every cell touching the
    singular point (a point on a face or corner belongs to each touching
    cell, so the per-cell integrals add up consistently across any
    partition of a shape) is integrated by dyadic refinement, which
    raises ``ParameterError`` when the exponent is at least N: that
    integral diverges.
    """
    N = centers.shape[-1]
    vals = sing.vec(centers)
    if sing.exponent == 0:  # constant integrand: the midpoint value is exact
        return vals
    d_inf = np.max(np.abs(centers - sing.center), axis=-1)
    for i in np.nonzero(d_inf <= 0.5 * h + 1e-12 * h)[0]:
        vals[i] = point_singularity_cell_integral(
            centers[i] - 0.5 * h, centers[i] + 0.5 * h, sing.center, sing.exponent, N
        ) / h ** N
    return vals


# ---------------------------------------------------------------------------
# Stencils and FFT pair sums

# Least recently used tables are evicted once the cache holds more bytes
# than this; the largest table (_MAX_CONV_CELLS doubles) always fits.
_STENCIL_CACHE_BYTES = 512 << 20
_STENCIL_CACHE: OrderedDict = OrderedDict()
_STENCIL_SLAB = 1 << 18  # offsets per slab of a stencil's offset table
# Near tables (at most 5^N exact cell-pair integrals each, keyed by
# integrand and spacing); least recently used ones are evicted beyond this
# many tables.
_NEAR_CACHE_TABLES = 64
_NEAR_CACHE: OrderedDict = OrderedDict()


def _near_values(offsets: np.ndarray, h: float, igd: OffsetIntegrand) -> np.ndarray:
    """Exact cell-pair integrals of g for cells of side h at the integer
    cell offsets ``offsets`` (shape (k, N)).

    Each value comes from a near table that holds one integral per orbit:
    the sorted absolute offset for a radial g, the offset itself otherwise.
    A g whose core (r0, p0) has r0 infinite is homogeneous: it keeps its
    table at spacing 1 and rescales it by h^(2N - p0), so one table serves
    every spacing and grid; any other g keeps one table per spacing.
    Integrals are computed on first use by ``cell_pair_integral``, whose
    corner series is exact to rounding for every kernel kind.
    """
    N = igd.dimension
    r0, p0 = igd.core
    base = 1.0 if r0 == math.inf else float(h)
    key = (igd.cache_token, base)
    table = _NEAR_CACHE.get(key)
    if table is None:
        table = _NEAR_CACHE[key] = {}
        while len(_NEAR_CACHE) > _NEAR_CACHE_TABLES:
            _NEAR_CACHE.popitem(last=False)
    else:
        _NEAR_CACHE.move_to_end(key)
    orbits = np.rint(offsets).astype(int)
    if igd.radial:
        orbits = np.sort(np.abs(orbits), axis=1)
    out = np.empty(orbits.shape[0])
    for i, orbit in enumerate(map(tuple, orbits)):
        if orbit not in table:
            table[orbit] = cell_pair_integral(np.array(orbit) * base, base, igd)
        out[i] = table[orbit]
    return out * (h / base) ** (2 * N - p0)


def _stencil(dims, h: float, igd: OffsetIntegrand) -> np.ndarray:
    """Pair-sum table T indexed by cell offset (shifted by dims - 1):
    T[off] = integral of g(y - x) over an ordered pair of cells with center
    offset off * h.  Far offsets use the midpoint value g(off*h) h^(2N);
    near offsets (inf-norm <= 2 for strongly singular g, <= 1 otherwise)
    and, for sigma < N, the zero offset use exact cell-pair integrals from
    the near tables of ``_near_values``: one integral per symmetry orbit
    when g is radial, computed once at spacing 1 for every h when g is
    homogeneous (r0 infinite), with its corner series summed in closed
    form.  A cold 3-D fractional kernel stencil thus costs 9 integrals of
    at most N + 2 levels each, and its fine and coarse grids share them.
    A radial g is even in every axis: its offsets 0 .. d - 1 per axis are
    evaluated and one index of |off| mirrors them, bit for bit, into the
    full table."""
    N = igd.dimension
    key = (igd.cache_token, tuple(dims), float(h))
    hit = _STENCIL_CACHE.get(key)
    if hit is not None:
        _STENCIL_CACHE.move_to_end(key)
        return hit
    shape = tuple(2 * d - 1 for d in dims)
    if np.prod(shape) > _MAX_CONV_CELLS:
        raise ParameterError(
            "tensor grid too large for the FFT pair sum; reduce the quadrature "
            "budget"
        )
    axes = [np.arange(0 if igd.radial else 1 - d, d) for d in dims]
    near_width = 2 if igd.sigma >= N - 0.5 else 1
    rows = max(1, _STENCIL_SLAB * len(axes[0]) // math.prod(len(a) for a in axes))
    slabs = []
    for i in range(0, len(axes[0]), rows):  # slabs of about _STENCIL_SLAB offsets
        grids = np.meshgrid(axes[0][i : i + rows], *axes[1:], indexing="ij")
        offsets = np.stack([g.ravel() for g in grids], axis=-1).astype(float)
        r0 = np.max(np.abs(offsets), axis=-1)  # inf-norm in cell units
        far = r0 > 0
        slab = np.zeros(offsets.shape[0])
        slab[far] = igd.vec(offsets[far] * h) * h ** (2 * N)
        near = (r0 <= near_width) & (far | (igd.sigma < N))
        slab[near] = _near_values(offsets[near], h, igd)
        slabs.append(slab)
    T = np.concatenate(slabs).reshape([len(a) for a in axes])
    if igd.radial:
        T = T[np.ix_(*(np.abs(np.arange(1 - d, d)) for d in dims))]
    T.setflags(write=False)
    _STENCIL_CACHE[key] = T
    while sum(t.nbytes for t in _STENCIL_CACHE.values()) > _STENCIL_CACHE_BYTES:
        _STENCIL_CACHE.popitem(last=False)
    return T


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: a length the real FFT transforms fast
    (scipy.fft.next_fast_len(n, True))."""
    best = 1 << max(n - 1, 0).bit_length()
    p35 = 1
    while p35 < best:
        p3 = p35
        while p3 < best:
            best = min(best, p3 << (-(-n // p3) - 1).bit_length())
            p3 *= 3
        p35 *= 5
    return best


def _pair_sum_weights(T: np.ndarray, box) -> Tuple[tuple, np.ndarray, np.ndarray]:
    """(fshape, W, C) for stencil T on sets in a box of ``box`` cells per
    axis.  C is the real FFT of T at offsets -(b - 1) .. b - 1 placed mod G
    on a fast grid fshape of at least 2 box - 1 per axis (real when T is
    even), so no wrap pairs two cells of the box: irfftn(A-hat conj(C)) at
    i is S_T({i}, A), and S_T(A, B) is the sum of Re(A-hat conj(B-hat) W)
    over the half grid (Parseval), W being C / G, doubled where a
    frequency stands for itself and its conjugate."""
    fshape = tuple(_fast_len(2 * b - 1) for b in box)
    centre = T[tuple(slice(n // 2 + 1 - b, n // 2 + b) for n, b in zip(T.shape, box))]
    circ = np.zeros(fshape)
    circ[np.ix_(*((np.arange(2 * b - 1) + 1 - b) % g for g, b in zip(fshape, box)))] = centre
    C = np.fft.rfftn(circ)
    if np.array_equal(centre, centre[(slice(None, None, -1),) * T.ndim]):
        C = C.real
    W = C / circ.size
    W[..., 1 : (fshape[-1] + 1) // 2] *= 2.0
    return fshape, W, C


def _pair_fields(occ: np.ndarray, stencils) -> tuple:
    """(fshape, [(field, W) per stencil T]) for the stencils, taken one at
    a time, on the grid of ``occ``: field[i] = S_T({i}, occ) at every cell
    i, irfftn(E-hat conj(C)) on the grid of ``_pair_sum_weights(T,
    occ.shape)`` with one FFT of ``occ`` for all the stencils, and W the
    Parseval weights of T there."""
    axes, fields, E_hat = tuple(range(occ.ndim)), [], None
    for T in stencils:
        fshape, W, C = _pair_sum_weights(T, occ.shape)
        if E_hat is None:
            E_hat = np.fft.rfftn(occ.astype(float), fshape, axes=axes)
        field = np.fft.irfftn(E_hat * C.conj(), fshape, axes=axes)[tuple(map(slice, occ.shape))]
        # a copy, so the padded output is not kept alive by a view
        fields.append((field.copy(), W))
    return fshape, fields


def _fft_pair_sum(occ_a: np.ndarray, occ_b: np.ndarray, T: np.ndarray) -> float:
    """S_T(a, b), the sum over occupied cells i of ``occ_a`` and j of
    ``occ_b`` of T at offset j - i, by Parseval on the bounding box of
    a | b (``_pair_sum_weights``): one FFT per side, one in all when both
    sides are the same set.  An empty side gives 0."""
    if not (np.any(occ_a) and np.any(occ_b)):
        return 0.0
    same = occ_a is occ_b or np.array_equal(occ_a, occ_b)
    cells = np.argwhere(occ_a if same else np.logical_or(occ_a, occ_b))
    lo, hi = cells.min(axis=0), cells.max(axis=0) + 1
    fshape, W = _pair_sum_weights(T, (hi - lo).tolist())[:2]  # C is not held
    box, axes = tuple(map(slice, lo, hi)), tuple(range(T.ndim))
    A = np.fft.rfftn(occ_a[box].astype(float), fshape, axes=axes)
    if same:
        P = np.square(A.real) + np.square(A.imag)
    else:
        P = A * np.fft.rfftn(occ_b[box].astype(float), fshape, axes=axes).conj()
    return float(np.sum((P * W).real))


# ---------------------------------------------------------------------------
# Sphere directions and directional tails for complement integrals


@functools.lru_cache(maxsize=8)
def _direction_factors(N: int, count: int):
    """(w, factors) of the exact-measure midpoint direction grid of about
    ``count`` directions of weight w each: for N = 3 the polar rows u and
    sqrt(1 - u^2) and the azimuths' cosines and sines, for N = 2 the
    cosines and sines of one block's angles and of the block offsets.
    Read-only, O(sqrt(count)) or one block long."""
    if N == 2:
        w = 2.0 * math.pi / count
        ang, off = (np.arange(min(count, _SPHERE_BLOCK)) + 0.5) * w, np.arange(0, count, _SPHERE_BLOCK) * w
        factors = (np.cos(ang), np.sin(ang), np.cos(off), np.sin(off))
    else:
        nu = max(4, int(round(math.sqrt(count / 2.0))))
        u = -1.0 + (np.arange(nu) + 0.5) * (2.0 / nu)
        phi = (np.arange(2 * nu) + 0.5) * (2.0 * math.pi / (2 * nu))
        w = (2.0 / nu) * (2.0 * math.pi / (2 * nu))
        factors = (u, np.sqrt(1.0 - u ** 2), np.cos(phi), np.sin(phi))
    for f in factors:
        f.setflags(write=False)
    return w, factors


def _direction_blocks(N: int, count: int):
    """(dirs, w) for consecutive (k, N) blocks, k <= ``_SPHERE_BLOCK``, of
    the grid of ``_direction_factors(N, count)``, each a view of a fresh
    (N, k) buffer: whole polar rows for N = 3, runs of angles for N = 2
    (block offset plus in-block angle, by the angle-addition formula)."""
    w, (a, b, c, d) = _direction_factors(N, count)
    if N == 2:
        for i, (co, so) in enumerate(zip(c, d)):
            ca, sa = a[: count - i * a.size], b[: count - i * a.size]
            out = np.empty((2, ca.size))
            np.subtract(np.multiply(co, ca, out=out[0]), so * sa, out=out[0])
            np.add(np.multiply(so, ca, out=out[1]), co * sa, out=out[1])
            yield out.T, w
        return
    rows = max(1, _SPHERE_BLOCK // c.size)
    for i in range(0, a.size, rows):
        out = np.empty((3, a[i : i + rows].size, c.size))
        np.multiply(b[i : i + rows, None], c, out=out[0])
        np.multiply(b[i : i + rows, None], d, out=out[1])
        out[2] = a[i : i + rows, None]
        yield out.reshape(3, -1).T, w


def _ray_exit(pts: np.ndarray, lo, hi, dirs: np.ndarray) -> np.ndarray:
    """Distance from each interior point to the box boundary along each
    direction; shape (len(pts), len(dirs))."""
    x = pts[:, None, :]
    u = dirs[None, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_hi = (hi - x) / u
        t_lo = (lo - x) / u
    t = np.where(u > 0, t_hi, np.where(u < 0, t_lo, np.inf))
    return t.min(axis=-1)


def _cell_kernel_mass(dims, h: float, igd: OffsetIntegrand):
    """Stencil T of the grid ``dims`` padded with empty cells to at least
    ``_MIN_STENCIL_CELLS`` per axis, and a(h), the pair integral of g over
    one cell times all of space: the sum of T plus h^N times the
    directional tail beyond T's box, seen from the centre cell (the radial
    tail from the ray-box exit distance, over the midpoint direction
    grid).  For a shape E on the grid, the complement integral is count(E)
    a(h) minus the pair sum of T over E x E.  Returns (T, a)."""
    N = igd.dimension
    dims = np.maximum(dims, _MIN_STENCIL_CELLS)
    T = _stencil(tuple(int(d) for d in dims), h, igd)
    half = (dims - 0.5) * h
    ((dirs, w),) = _direction_blocks(N, _TAIL_DIRECTIONS[N])
    tail = igd.ray_tail(_ray_exit(np.zeros((1, N)), -half, half, dirs)) @ np.full(dirs.shape[0], w)
    return T, float(np.sum(T)) + float(tail[0]) * h ** N


# ---------------------------------------------------------------------------
# Voxelization and grid utilities


def _cells_per_axis(budget: int, N: int, coarse: bool = False) -> int:
    """Cells per axis of a tensor grid of about ``budget`` cells (at least
    4), halved on the coarse grid."""
    n = max(4, int(round(budget ** (1.0 / N))))
    return max(4, n // 2) if coarse else n


def voxelize(shape: Shape, cells_per_axis: Optional[int] = None, box=None) -> VoxelShape:
    """Sample a shape onto a cubic-cell grid covering ``box`` (default: the
    shape's bounding box), 64 cells across its longest side unless
    ``cells_per_axis`` says otherwise.  Cells are classified by their
    centers."""
    if isinstance(shape, VoxelShape) and box is None and cells_per_axis is None:
        return shape
    N = shape.dimension
    lo, hi = shape.bounding_box() if box is None else (np.asarray(box[0], float), np.asarray(box[1], float))
    extent = hi - lo
    if np.any(extent <= 0):
        return VoxelShape(
            dimension=N, origin=lo, spacing=1.0, occupancy=np.zeros((1,) * N, dtype=bool)
        )
    if cells_per_axis is None:
        cells_per_axis = _cells_per_axis(64 ** N, N)
    h = float(np.max(extent)) / cells_per_axis
    dims = tuple(max(1, int(math.ceil(extent[i] / h - 1e-9))) for i in range(N))
    if np.prod(dims) > 1.0e8:
        raise ParameterError("voxelization grid too large; reduce the budget")
    axes = [lo[i] + (np.arange(dims[i]) + 0.5) * h for i in range(N)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    occ = geometry.indicator(shape, pts).reshape(dims)
    return VoxelShape(dimension=N, origin=lo, spacing=h, occupancy=occ)


def _embed(vox: VoxelShape, origin, dims) -> np.ndarray:
    """Occupancy of ``vox`` re-indexed into a larger aligned grid."""
    off = np.rint((vox.origin - origin) / vox.spacing).astype(int)
    if np.max(np.abs((vox.origin - origin) / vox.spacing - off)) > 1e-6:
        raise ParameterError("grids are not aligned; cannot embed exactly")
    occ = np.zeros(dims, dtype=bool)
    sl = tuple(slice(off[i], off[i] + vox.occupancy.shape[i]) for i in range(vox.dimension))
    occ[sl] = vox.occupancy
    return occ


def _common_grid(a: VoxelShape, b: VoxelShape):
    """Embed two same-spacing aligned voxel shapes into one shared grid."""
    h = a.spacing
    if abs(a.spacing - b.spacing) > 1e-12 * h:
        raise ParameterError("voxel shapes have different spacings")
    origin = np.minimum(a.origin, b.origin)
    hi = np.maximum(
        a.origin + np.array(a.occupancy.shape) * h,
        b.origin + np.array(b.occupancy.shape) * h,
    )
    dims = tuple(int(round(v)) for v in (hi - origin) / h)
    return _embed(a, origin, dims), _embed(b, origin, dims), origin, h


def _coarsen(occ: np.ndarray) -> np.ndarray:
    """Halve the grid resolution: a coarse cell is occupied when at least
    half of its fine subcells are."""
    N = occ.ndim
    padded = occ
    for ax in range(N):
        if padded.shape[ax] % 2:
            pad = [(0, 0)] * N
            pad[ax] = (0, 1)
            padded = np.pad(padded, pad)
    view_shape = []
    for d in padded.shape:
        view_shape.extend([d // 2, 2])
    counts = padded.astype(np.int8).reshape(view_shape)
    for ax in range(N - 1, -1, -1):
        counts = counts.sum(axis=2 * ax + 1)
    return counts >= 2 ** (N - 1)


def _coarse_voxel(vox: VoxelShape) -> VoxelShape:
    return VoxelShape(
        dimension=vox.dimension,
        origin=vox.origin,
        spacing=2.0 * vox.spacing,
        occupancy=_coarsen(vox.occupancy),
    )


def _as_grid(shape: Shape, budget: int, coarse: bool = False) -> VoxelShape:
    """Voxel view of any shape for the tensor engines."""
    if isinstance(shape, VoxelShape):
        return _coarse_voxel(shape) if coarse else shape
    return voxelize(shape, cells_per_axis=_cells_per_axis(budget, shape.dimension, coarse))


# ---------------------------------------------------------------------------
# Estimates (see the module docstring)


def _tensor_estimate(spec: QuadratureSpec, value_at) -> IntegralEstimate:
    """Tensor estimate from ``value_at(coarse)`` -> (value, samples): the
    value and samples of the fine grid, and as error the change from the
    coarse (half-resolution) grid."""
    value, samples = value_at(False)
    coarse, _ = value_at(True)
    return IntegralEstimate(value, abs(value - coarse), samples, "tensor-midpoint", spec.seed)


def _batch_rngs(seed: int):
    seqs = np.random.SeedSequence(seed).spawn(_NB_BATCHES)
    return [np.random.default_rng(s) for s in seqs]


def _refuse_monte_carlo(what: str) -> None:
    """Raise the ``ParameterError`` of an integral that Monte Carlo does not
    estimate; ``what`` says which and why."""
    raise ParameterError(f"Monte Carlo {what}; use method = 'tensor-midpoint'")


def _refuse_infinite_variance(N: int, sigma: float) -> None:
    """Refuse a |z|^-sigma singularity in the sampled region that gives the
    Monte Carlo integrand infinite variance (2 sigma >= N): its batch means
    then have no standard error to report, and their spread does not cover
    the actual error."""
    if 2.0 * sigma >= N:
        _refuse_monte_carlo(
            f"cannot integrate a |z|^-{sigma:g} singularity in dimension {N}: its variance is infinite"
        )


def _mc_estimate(spec: QuadratureSpec, N: int, batch_mean, sigma: float = 0.0) -> IntegralEstimate:
    """Monte Carlo estimate from ``_NB_BATCHES`` seeded batches that share
    the budget: ``batch_mean(rng, count)`` returns one batch's estimate of
    the integral.  The value is the mean of the batch estimates and the
    error their standard error.  ``sigma`` is the strength of a |z|^-sigma
    singularity that the sampled region reaches (0 when it reaches none);
    one with infinite variance is refused (``_refuse_infinite_variance``)."""
    _refuse_infinite_variance(N, sigma)
    per = max(1, spec.resolved_budget(N) // _NB_BATCHES)
    means = np.array([batch_mean(rng, per) for rng in _batch_rngs(spec.seed)])
    err = float(np.std(means, ddof=1) / math.sqrt(_NB_BATCHES))
    return IntegralEstimate(float(np.mean(means)), err, per * _NB_BATCHES, "monte-carlo", spec.seed)


# ---------------------------------------------------------------------------
# Public operations


def integral_over(E: Shape, f, spec: QuadratureSpec) -> IntegralEstimate:
    """Estimate the integral of f over the shape E.

    ``f`` is either a vectorized callable mapping an array of points with
    shape (k, N) to (k,) values, or a ``PointSingularity`` marker whose
    singular cell is integrated by dyadic refinement on tensor grids.
    Monte Carlo refuses a marker with 2 exponent >= N whose center lies in
    E's closed bounding box.
    """
    N = E.dimension
    if geometry.is_empty(E):
        return IntegralEstimate(0.0, 0.0, 0, spec.method, spec.seed)
    sing = f if isinstance(f, PointSingularity) else None
    fvec = sing.vec if sing is not None else f

    if spec.method == "monte-carlo":
        lo, hi = E.bounding_box()
        box_vol = float(np.prod(hi - lo))
        reached = sing is not None and bool(np.all((lo <= sing.center) & (sing.center <= hi)))

        def batch_mean(rng, count):
            pts = rng.uniform(lo, hi, size=(count, N))
            vals = np.where(geometry.indicator(E, pts), fvec(pts), 0.0)
            return float(np.mean(vals)) * box_vol

        return _mc_estimate(spec, N, batch_mean, sing.exponent if reached else 0.0)

    budget = spec.resolved_budget(N)

    def value_at(coarse: bool):
        grid = _as_grid(E, budget, coarse)
        if grid.count == 0:
            return 0.0, 0
        h = grid.spacing
        centers = grid.cell_centers()
        vals = _singular_cell_means(centers, h, sing) if sing is not None else fvec(centers)
        return float(np.sum(vals)) * h ** N, grid.count

    return _tensor_estimate(spec, value_at)


def double_integral(E: Shape, F: Shape, g, spec: QuadratureSpec) -> IntegralEstimate:
    """Estimate the pair integral of g over E x F.

    ``g`` is a KernelSpec, a riesz exponent (float) or an
    ``OffsetIntegrand`` (stationary, evaluated at z = y - x).  The tensor
    engine takes FFT pair sums on a common grid with near-diagonal
    cell-pair integrals.  Monte Carlo samples the two bounding boxes, and
    its offsets reach z = 0 when they meet; it refuses a g whose core
    exponent p0 has 2 p0 >= N there.
    """
    N = E.dimension
    if geometry.is_empty(E) or geometry.is_empty(F):
        return IntegralEstimate(0.0, 0.0, 0, spec.method, spec.seed)
    igd = _coerce_integrand(g, N)

    if spec.method == "monte-carlo":
        loE, hiE = E.bounding_box()
        loF, hiF = F.bounding_box()
        vol = float(np.prod(hiE - loE)) * float(np.prod(hiF - loF))
        meet = bool(np.all((loE <= hiF) & (loF <= hiE)))

        def batch_mean(rng, count):
            x = rng.uniform(loE, hiE, size=(count, N))
            y = rng.uniform(loF, hiF, size=(count, N))
            keep = geometry.indicator(E, x) & geometry.indicator(F, y)
            vals = _safe_offset_eval(igd, y - x)
            return float(np.mean(np.where(keep, vals, 0.0))) * vol

        return _mc_estimate(spec, N, batch_mean, igd.core[1] if meet else 0.0)

    budget = spec.resolved_budget(N)

    def value_at(coarse: bool):
        gE, gF, _, h = _pair_grids(E, F, budget, coarse)
        cells = int(np.count_nonzero(gE)) + int(np.count_nonzero(gF))
        return _fft_pair_sum(gE, gF, _stencil(gE.shape, h, igd)), cells

    return _tensor_estimate(spec, value_at)


def _safe_offset_eval(igd: OffsetIntegrand, z: np.ndarray) -> np.ndarray:
    r2 = np.sum(z ** 2, axis=-1)
    ok = r2 > 0
    out = np.zeros(z.shape[0])
    if np.any(ok):
        out[ok] = igd.vec(z[ok])
    out[~ok] = np.inf
    return out


def _pair_grids(E: Shape, F: Shape, budget: int, coarse: bool):
    """Occupancies of E and F on one common grid, with its origin and
    spacing: same-spacing voxel shapes keep their cells, anything else is
    voxelized on the union of the bounding boxes."""
    if (
        isinstance(E, VoxelShape)
        and isinstance(F, VoxelShape)
        and abs(E.spacing - F.spacing) <= 1e-12 * E.spacing
    ):
        vE = _coarse_voxel(E) if coarse else E
        vF = _coarse_voxel(F) if coarse else F
        return _common_grid(vE, vF)
    loE, hiE = E.bounding_box()
    loF, hiF = F.bounding_box()
    lo = np.minimum(loE, loF)
    hi = np.maximum(hiE, hiF)
    n = _cells_per_axis(budget, E.dimension, coarse)
    gE = voxelize(E, cells_per_axis=n, box=(lo, hi))
    gF = voxelize(F, cells_per_axis=n, box=(lo, hi))
    return gE.occupancy, gF.occupancy, gE.origin, gE.spacing


def complement_double_integral(E: Shape, kernel: KernelSpec, spec: QuadratureSpec) -> IntegralEstimate:
    """Estimate the pair integral of K(x - y) over E x (complement of E).

    On tensor grids this is count(E) a(h) - S(E, E) (see
    ``_cell_kernel_mass``).  Monte Carlo does not estimate it: E^c is
    unbounded and touches E, where a singular kernel's variance is
    infinite.
    """
    N = E.dimension
    if geometry.is_empty(E):
        return IntegralEstimate(0.0, 0.0, 0, spec.method, spec.seed)
    igd = kernel_integrand(kernel)
    if igd.dimension != N:
        raise ParameterError("kernel dimension does not match the shape")
    if spec.method == "monte-carlo":
        _refuse_monte_carlo("does not estimate complement integrals (kernel perimeters)")

    budget = spec.resolved_budget(N)

    def value_at(coarse: bool):
        grid = _as_grid(E, budget, coarse=coarse)
        T, a = _cell_kernel_mass(grid.occupancy.shape, grid.spacing, igd)
        return grid.count * a - _fft_pair_sum(grid.occupancy, grid.occupancy, T), grid.count

    return _tensor_estimate(spec, value_at)


def sphere_average(f, N: int, spec: QuadratureSpec) -> IntegralEstimate:
    """Integral of f over the unit sphere (surface measure, not the mean).

    ``f`` is vectorized over direction arrays of shape (k, N); the tensor
    engine passes it blocks of at most ``_SPHERE_BLOCK`` directions of a
    midpoint grid of up to 2^20 (``_direction_blocks``).
    """
    if N not in (2, 3):
        raise ParameterError(f"sphere integrals support N in {{2, 3}}, got {N}")
    area = geometry.unit_sphere_area(N)
    if spec.method == "monte-carlo":

        def batch_mean(rng, count):
            v = rng.standard_normal((count, N))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            return float(np.mean(f(v))) * area

        return _mc_estimate(spec, N, batch_mean)
    count = max(16, min(spec.resolved_budget(N), 1 << 20))

    def value_at(coarse: bool):
        blocks = _direction_blocks(N, max(8, count // 2) if coarse else count)
        return sum(float(np.sum(f(dirs) * w)) for dirs, w in blocks), count

    return _tensor_estimate(spec, value_at)
