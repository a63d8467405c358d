"""The tensor-grid quadrature engine for singular power-law integrands on
shapes.

Shapes are voxelized (or already voxel grids); a pair integral is a pair
sum of a translation-invariant stencil over the occupied cells, taken by
Parseval's identity on a 5-smooth FFT grid of at least twice the occupied
box per axis.  Cell pairs near the singular diagonal use exact cell-pair
integrals (difference-variable form with a triangular weight and dyadic
Gauss-Legendre refinement toward the singularity).  Every integrand
carries its core: below a radius r0 it is homogeneous of degree -p0; for
a kernel that is the first power-law piece of ``kernels._pieces``.  The
refinement runs until the boxes at the origin lie inside r0, and the rest
of the corner series is summed in closed form from at most N + 2 more
levels; a kernel's knots near the origin are integrated exactly
beforehand.  So the corner series of every kernel kind is exact to
rounding; only a knot farther out, which Gauss-Legendre boxes straddle (a
truncated kernel's r_cap just above h), still costs accuracy.  Near values
are kept in near tables, one integral per symmetry orbit of cell offsets,
shared by every grid of one spacing; power-law integrands (r0 infinite)
keep one table at unit spacing for all spacings.  Stencils are evaluated
in slabs of offsets, a radial one on one orthant and mirrored.  A
complement integral is count(E) a(h) - S(E, E): S is the pair sum over
E x E and a(h) is the kernel mass of one cell against all of space, the
stencil sum plus the exact directional tail beyond the stencil box (the
closed-form radial tail from the ray-box exit distance, summed over a
midpoint direction grid).  A grid whose stencil table (2 n - 1 cells per
axis) would exceed ``_MAX_CONV_CELLS`` cells is refused.  The one
single-point integrand is the background's |x|^-beta (``integral_over``):
each cell that touches the origin is integrated exactly by dyadic
refinement, the others take their midpoint value.

Every estimate is built by ``_tensor_estimate``: it evaluates on a fine
and a coarse level and reports |fine - coarse| as the error, a proxy, not
a bound.  ``_grids`` (one shape) and ``_pair_grids`` (two shapes on one
grid) are the only builders of the two levels.  A voxel grid's coarse
level is its coarsening (``_coarsen``: a cell of twice the spacing is
occupied when at least half of its 2^N cells are); two voxel shapes of
one spacing are embedded in their common grid first.  A ball is
voxelized at the budget's cells per axis and, for its coarse level, again
at half as many; a pair with a ball, or of two spacings, is voxelized on
its union box the same way.  The directional tail of a complement integral
sums over one fixed midpoint direction grid per dimension
(``_tail_directions``).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from . import geometry, kernels
from .errors import ParameterError
from .geometry import Shape, VoxelShape
from .kernels import KernelSpec

_TAIL_DIRECTIONS = {2: 256, 3: 512}
_MAX_CONV_CELLS = 3.3e7
_GL_ORDER = 6
# Newton sweeps a Gauss rule may take; four suffice for n <= 1024 and
# s <= 0.999
_GAUSS_SWEEPS = 16
# The kernel mass a(h) of a complement integral sums the stencil of a grid
# padded with empty cells to at least this many cells per axis: the sum
# then holds every near offset, and the directional tail starts well away
# from the centre cell.  The padding is summed, not stored.
_MIN_STENCIL_CELLS = 32


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-grid budget: ``budget`` is the target number of cells covering
    the shape's bounding box; ``None`` resolves to 64^N.
    """

    budget: Optional[int] = None

    def __post_init__(self):
        if self.budget is not None and self.budget < 1000:
            raise ParameterError(f"budget must be >= 1000, got {self.budget}")

    def resolved_budget(self, N: int) -> int:
        return 64 ** N if self.budget is None else int(self.budget)


@dataclass(frozen=True)
class IntegralEstimate:
    """A value, its error proxy and the cells it took;
    ``method`` names the route: tensor-midpoint, radial-reduction or
    closed-form."""

    value: float
    error: float
    samples: int
    method: str


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
    cell-pair integrals take its knots near the origin exactly.

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
    core: Tuple[float, float]
    ray_tail: Optional[Callable[[np.ndarray], np.ndarray]] = None
    radial: bool = False
    pieces: Optional[tuple] = None


def _pieces_core(pieces) -> Tuple[float, float]:
    """The core (r0, p0) of power-law ``pieces``: the first piece's upper
    knot (infinite for a single piece) and the exponent of its first
    monomial.  For a kernel that is the fractional kind's r^-(N+s)
    everywhere, the truncated kind's cap (p0 = 0) below cap^(-1/sigma),
    and a table's power law through its first two samples below its first
    radius."""
    knots, _, p, _ = pieces
    return (float(knots[0]) if knots.size else math.inf), float(p[0, 0])


def kernel_integrand(kernel: KernelSpec) -> OffsetIntegrand:
    N, s = kernel.dimension, kernel.s
    pieces = kernels._pieces(kernel)

    def vec(z):
        return kernels.eval_kernel(kernel, z)

    return OffsetIntegrand(
        dimension=N,
        sigma=N + s,
        vec=vec,
        cache_token=kernel.cache_token,
        core=_pieces_core(pieces),
        ray_tail=functools.partial(kernels.radial_tail_integral, kernel),
        radial=True,
        pieces=pieces,
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
        core=(math.inf, alpha),
        radial=True,
    )


def kernel_moment_integrand(kernel: KernelSpec) -> OffsetIntegrand:
    """g(z) = K(z) |z|: the first radial moment of the kernel."""
    N = kernel.dimension
    knots, c, p, bound = kernels._pieces(kernel)
    pieces = (knots, c, p - 1.0, bound)

    def vec(z):
        z = np.asarray(z, dtype=float)
        r = np.sqrt(np.sum(z ** 2, axis=-1))
        return kernels.eval_kernel_radial(kernel, r) * r

    return OffsetIntegrand(
        dimension=N,
        sigma=kernel.sigma - 1.0,
        vec=vec,
        cache_token=("moment1",) + (kernel.cache_token,),
        core=_pieces_core(pieces),
        radial=True,
        pieces=pieces,
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
        core=(math.inf, 0.0),
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
# Gauss rules


@functools.lru_cache(maxsize=64)
def _gauss_rule(n: int, s: float = 0.0):
    """Read-only n-point Gauss nodes (increasing) and weights for the weight
    (1 + x)^-s on [-1, 1], 0 <= s < 1; s = 0 is Gauss-Legendre.

    The nodes are the roots of the Jacobi polynomial P_n^(0, -s), found by
    Newton's method from x_k = cos(theta_k), theta_k = phi_k + (cot(phi_k/2)
    / 4 - (1/4 - s^2) tan(phi_k/2)) / (2n + 1 - s)^2 with phi_k = (k - 1/4)
    pi / (n + (1 - s) / 2), Gatteschi and Pittaluga's estimate.  One pass
    of the three-term recurrence of the orthonormal polynomials (from
    p_0 = 1, so up to one constant factor) gives p_n and p_{n-1} at every
    node; the derivative is

        (2n - s)(1 - x^2) P_n' = n (s - (2n - s) x) P_n + 2n (n - s) P_{n-1}

    with P_{n-1} / P_n = sqrt(h_{n-1} / h_n) p_{n-1} / p_n, h_n = 2^(1-s) /
    (2n + 1 - s).  The weights are the Christoffel numbers 1 / sum_{j<n}
    p_j^2 at the converged nodes, scaled to the mass 2^(1-s) / (1 - s).  A
    Legendre rule is built on its nonnegative half and mirrored, so
    x == -x[::-1] and w == w[::-1] hold exactly.  O(n^2) operations and no
    matrix (Hale and Townsend, SIAM J. Sci. Comput. 35, 2013).  A rule
    whose Newton steps have not fallen below 1e-13 after ``_GAUSS_SWEEPS``
    sweeps, or whose nodes are not strictly increasing inside (-1, 1),
    raises ParameterError."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ParameterError(f"Gauss rule order must be a positive integer, got {n!r}")
    if not (0.0 <= s < 1.0):
        raise ParameterError(f"Gauss rule exponent must lie in [0, 1), got {s!r}")
    b = -s
    c = 2.0 * np.arange(n + 1) + b
    k = np.arange(1.0, n + 1)
    # x p_j = off[j] p_{j+1} + diag[j] p_j + off[j-1] p_{j-1}
    diag = [b / (b + 2.0)] + (b * b / (c[1:n] * (c[1:n] + 2.0))).tolist()
    off = (2.0 * k * (k + b) / (c[1:] * np.sqrt(c[1:] ** 2 - 1.0))).tolist()

    def recurrence(x, christoffel=False):
        """(p_n, p_{n-1}, sum_{j<n} p_j^2 or 0) at x, from p_0 = 1."""
        p_prev, p, nxt = np.zeros_like(x), np.ones_like(x), np.empty_like(x)
        norm2 = np.zeros_like(x)
        for j in range(n):
            if christoffel:
                norm2 += p * p
            np.subtract(x, diag[j], out=nxt)
            nxt *= p
            if j:
                nxt -= off[j - 1] * p_prev
            nxt /= off[j]
            p_prev, p, nxt = p, nxt, p_prev
        return p, p_prev, norm2

    legendre = s == 0.0
    # increasing; a Legendre rule holds its nonnegative nodes only
    phi = k[: n // 2 if legendre else n][::-1] - 0.25
    phi *= math.pi / (n + 0.5 * (1.0 - s))
    phi += (0.25 / np.tan(0.5 * phi) - (0.25 - s * s) * np.tan(0.5 * phi)) / (c[n] + 1.0) ** 2
    x = np.cos(phi)
    if legendre and n % 2:
        x = np.concatenate([[0.0], x])
    # 2n (n - s) sqrt(h_{n-1} / h_n), so that P_n' / P_n above is in p
    ratio = 2.0 * n * (n + b) * math.sqrt((c[n] + 1.0) / (c[n] - 1.0))
    for _ in range(_GAUSS_SWEEPS):
        p, p_prev, _ = recurrence(x)
        step = c[n] * (1.0 - x) * (1.0 + x) * p / (n * (-b - c[n] * x) * p + ratio * p_prev)
        x = x - step
        if not np.max(np.abs(step), initial=0.0) > 1e-13:
            break
    else:
        raise ParameterError(
            f"the {n}-point Gauss rule for (1 + x)^-{s} did not converge in "
            f"{_GAUSS_SWEEPS} Newton sweeps"
        )
    w = 1.0 / recurrence(x, christoffel=True)[2]
    if legendre:
        x = np.concatenate([-x[::-1][: n // 2], x])
        w = np.concatenate([w[::-1][: n // 2], w])
    if not (x[0] > -1.0 and x[-1] < 1.0 and np.all(np.diff(x) > 0.0)):
        raise ParameterError(
            f"the {n}-point Gauss rule for (1 + x)^-{s} has nodes that are not "
            "strictly increasing inside (-1, 1)"
        )
    w = w * (2.0 ** (1.0 - s) / (1.0 - s) / w.sum())
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# ---------------------------------------------------------------------------
# Exact cell-pair and point-singularity integrals (dyadic Gauss-Legendre)

_GL_NODES, _GL_WEIGHTS = _gauss_rule(_GL_ORDER)


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


def _axis_breaks(lo: float, hi: float, *inner: float) -> list:
    """Sorted breakpoints of the axis interval [lo, hi]: its ends, the
    points ``inner`` (a weight apex) and 0 when it is interior, so no box
    of the dyadic integrators straddles a kink or the singular point."""
    pts = [lo, hi, *inner]
    if lo < 0.0 < hi:
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

    pieces = (knots[J:], c[J:], p[J:], bound)
    peeled = dataclasses.replace(igd, vec=vec, core=_pieces_core(pieces), pieces=pieces)
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

    boxes = _grid_boxes([_axis_breaks(d[i] - h, d[i] + h, d[i]) for i in range(N)])
    reach = h * math.sqrt(N)
    head = math.ceil(math.log2(reach / r0)) if reach > r0 else 0
    return _dyadic_integral(*boxes, fvec, p0, (m_min, N), head) + ball


def point_singularity_cell_integral(lo, hi, exponent: float, N: int) -> float:
    """Integral of |x|^(-exponent) over the box [lo, hi].

    Handles the origin inside the box by summing the dyadic corner series
    in closed form (see ``_dyadic_integral``); the exponent must be below
    N for convergence.  An origin within rounding (1e-12 of the box side)
    of a face counts as on that face.
    """
    if exponent >= N:
        raise ParameterError(
            f"exponent {exponent} >= N = {N}: integral over a cell containing "
            "the singular point diverges"
        )
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    tol = 1e-12 * (hi - lo)
    lo = np.where(np.abs(lo) <= tol, 0.0, lo)
    hi = np.where(np.abs(hi) <= tol, 0.0, hi)

    def fvec(pts):
        r = np.sqrt(np.sum(pts ** 2, axis=-1))
        return r ** (-exponent)

    boxes = _grid_boxes([_axis_breaks(lo[i], hi[i]) for i in range(N)])
    return _dyadic_integral(*boxes, fvec, exponent)


def _singular_cell_means(centers: np.ndarray, h: float, exponent: float):
    """Per-cell mean of |x|^(-exponent) over the cubic cells of side h
    centered at ``centers`` (shape (k, N)).

    Ordinary cells take the midpoint value.  Every cell touching the
    origin (a point on a face or corner belongs to each touching cell, so
    the per-cell integrals add up consistently across any partition of a
    shape) is integrated by dyadic refinement, which raises
    ``ParameterError`` when the exponent is at least N: that integral
    diverges.  A negative exponent is a positive power of the distance.
    """
    N = centers.shape[-1]
    with np.errstate(divide="ignore"):  # a cell centred at 0 is replaced below
        vals = np.sqrt(np.sum(centers ** 2, axis=-1)) ** (-exponent)
    if exponent == 0:  # constant integrand: the midpoint value is exact
        return vals
    d_inf = np.max(np.abs(centers), axis=-1)
    for i in np.nonzero(d_inf <= 0.5 * h + 1e-12 * h)[0]:
        vals[i] = point_singularity_cell_integral(
            centers[i] - 0.5 * h, centers[i] + 0.5 * h, exponent, N
        ) / h ** N
    return vals


# ---------------------------------------------------------------------------
# Stencils and FFT pair sums

# Stencils, and the cell kernel masses a(h) as 8-byte np.float64 values
# under the stencil's key plus "mass"; least recently used entries are
# evicted once the cache holds more bytes than this; the largest table
# (_MAX_CONV_CELLS doubles) always fits.
_STENCIL_CACHE_BYTES = 512 << 20
_STENCIL_CACHE: OrderedDict = OrderedDict()
_STENCIL_SLAB = 1 << 12  # offsets per slab of a stencil's offset table
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


def _stencil_slabs(axes, h: float, igd: OffsetIntegrand):
    """Yield (i, v): g's stencil values at the offsets (cell units) of the
    product of ``axes``, in slabs of whole rows of ``axes[0]`` of about
    ``_STENCIL_SLAB`` offsets; row j of v, in C order, holds the offsets
    whose first component is ``axes[0][i + j]``.  Far offsets take the
    midpoint value g(off*h) h^(2N); near offsets (inf-norm <= 2 for
    strongly singular g, <= 1 otherwise) and, for sigma < N, the zero
    offset take exact cell-pair integrals from the near tables of
    ``_near_values``: one integral per symmetry orbit when g is radial,
    computed once at spacing 1 for every h when g is homogeneous (r0
    infinite), with its corner series summed in closed form.  A cold 3-D
    fractional kernel stencil thus costs 9 integrals of at most N + 2
    levels each, and its fine and coarse grids share them.  Each value
    depends on its offset alone, not on the slab it falls in."""
    N = igd.dimension
    near_width = 2 if igd.sigma >= N - 0.5 else 1
    rest = math.prod(len(a) for a in axes[1:])
    rows = max(1, _STENCIL_SLAB // rest)
    for i in range(0, len(axes[0]), rows):
        grids = np.meshgrid(axes[0][i : i + rows], *axes[1:], indexing="ij")
        offsets = np.stack([g.ravel() for g in grids], axis=-1).astype(float)
        r0 = np.max(np.abs(offsets), axis=-1)  # inf-norm in cell units
        far = r0 > 0
        slab = np.zeros(offsets.shape[0])
        slab[far] = igd.vec(offsets[far] * h) * h ** (2 * N)
        near = (r0 <= near_width) & (far | (igd.sigma < N))
        slab[near] = _near_values(offsets[near], h, igd)
        yield i, slab.reshape(-1, rest)


def _orthant(dims, h: float, igd: OffsetIntegrand, pad=None):
    """(O, m) for a radial g from one slab pass over the offsets 0 .. p - 1
    per axis of ``pad`` >= ``dims`` (default ``dims``): O, g's stencil
    values at the offsets 0 .. d - 1 per axis, and m, the sum of the full
    stencil of the grid ``pad`` (offsets -(p - 1) .. p - 1 per axis), each
    orthant offset standing for its 2^(number of nonzero components) mirror
    images; m is None, and not summed, when no ``pad`` is given."""
    walk = dims if pad is None else pad
    O = np.empty(dims)
    inner = tuple(map(slice, dims[1:]))
    m = None
    if pad is not None:
        row_w = np.r_[1.0, np.full(pad[0] - 1, 2.0)]
        rest_w = np.ones(1)
        for p in pad[1:]:
            rest_w = np.multiply.outer(rest_w, np.r_[1.0, np.full(p - 1, 2.0)]).ravel()
        m = 0.0
    for i, v in _stencil_slabs([np.arange(p) for p in walk], h, igd):
        if pad is not None:
            m += float(np.sum((v * rest_w) * row_w[i : i + len(v), None]))
        if i < dims[0]:
            O[i : i + len(v)] = v[: dims[0] - i].reshape((-1,) + tuple(walk[1:]))[(slice(None),) + inner]
    return O, m


def _table_shape(dims) -> tuple:
    """The stencil shape 2 d - 1 per axis of the grid ``dims``, refused
    beyond ``_MAX_CONV_CELLS`` cells."""
    shape = tuple(2 * d - 1 for d in dims)
    if math.prod(shape) > _MAX_CONV_CELLS:
        raise ParameterError(
            "tensor grid too large for the FFT pair sum; reduce the quadrature "
            "budget"
        )
    return shape


def _stencil(dims, h: float, igd: OffsetIntegrand, orthant=None) -> np.ndarray:
    """Pair-sum table T indexed by cell offset (shifted by dims - 1):
    T[off] = integral of g(y - x) over an ordered pair of cells with center
    offset off * h, with the far and near rules of ``_stencil_slabs``.
    A radial g is even in every axis: its offsets 0 .. d - 1 per axis
    (``_orthant``, or ``orthant`` when the caller has them) are evaluated
    and one index of |off| mirrors them, bit for bit, into the full
    table."""
    key = (igd.cache_token, tuple(dims), float(h))
    hit = _STENCIL_CACHE.get(key)
    if hit is not None:
        _STENCIL_CACHE.move_to_end(key)
        return hit
    shape = _table_shape(dims)
    if igd.radial:
        if orthant is None:
            orthant = _orthant(tuple(dims), h, igd)[0]
        T = orthant[np.ix_(*(np.abs(np.arange(1 - d, d)) for d in dims))]
    else:
        T = np.empty(shape)
        rows = T.reshape(shape[0], -1)
        for i, v in _stencil_slabs([np.arange(1 - d, d) for d in dims], h, igd):
            rows[i : i + len(v)] = v
    T.setflags(write=False)
    return _cache_stencil(key, T)


def _cache_stencil(key, value):
    """Store ``value`` in ``_STENCIL_CACHE`` under ``key``, evicting the
    least recently used entries beyond ``_STENCIL_CACHE_BYTES``."""
    _STENCIL_CACHE[key] = value
    while sum(t.nbytes for t in _STENCIL_CACHE.values()) > _STENCIL_CACHE_BYTES:
        _STENCIL_CACHE.popitem(last=False)
    return value


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
# Directional tails for complement integrals


@functools.lru_cache(maxsize=2)
def _tail_directions(N: int):
    """(dirs, w): the exact-measure midpoint grid of ``_TAIL_DIRECTIONS[N]``
    unit directions, shape (k, N), and their weights, read-only.  N = 2
    takes equal angles; N = 3 takes nu polar rows equally spaced in
    u = cos(polar angle) times 2 nu azimuths, every cell of one area."""
    count = _TAIL_DIRECTIONS[N]
    if N == 2:
        w = 2.0 * math.pi / count
        ang = (np.arange(count) + 0.5) * w
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    else:
        nu = int(round(math.sqrt(count / 2.0)))
        u = -1.0 + (np.arange(nu) + 0.5) * (2.0 / nu)
        phi = (np.arange(2 * nu) + 0.5) * (2.0 * math.pi / (2 * nu))
        w = (2.0 / nu) * (2.0 * math.pi / (2 * nu))
        su = np.sqrt(1.0 - u ** 2)[:, None]
        rows = np.broadcast_arrays(su * np.cos(phi), su * np.sin(phi), u[:, None])
        dirs = np.stack(rows, axis=-1).reshape(-1, 3)
    w = np.full(dirs.shape[0], w)
    dirs.setflags(write=False)
    w.setflags(write=False)
    return dirs, w


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
    """Stencil T of the grid ``dims`` and a(h), the pair integral of a
    radial g over one cell times all of space: the sum of the stencil of
    the grid padded with empty cells to at least ``_MIN_STENCIL_CELLS``
    per axis, plus h^N times the directional tail beyond that stencil's
    box, seen from the centre cell (the radial tail from the ray-box exit
    distance, over the midpoint direction grid).  The padded sum comes
    from one ``_orthant`` pass that also yields T's orthant, so nothing
    padded is stored; a(h) is cached next to T, under T's key plus
    "mass".  For a shape E on the grid, the complement integral is
    count(E) a(h) minus the pair sum of T over E x E.  Returns (T, a)."""
    N = igd.dimension
    dims = tuple(int(d) for d in dims)
    key = (igd.cache_token, dims, float(h), "mass")
    a = _STENCIL_CACHE.get(key)
    if a is not None:
        _STENCIL_CACHE.move_to_end(key)
        return _stencil(dims, h, igd), float(a)
    _table_shape(dims)
    pad = tuple(max(d, _MIN_STENCIL_CELLS) for d in dims)
    O, m = _orthant(dims, h, igd, pad)
    half = (np.array(pad) - 0.5) * h
    dirs, w = _tail_directions(N)
    tail = igd.ray_tail(_ray_exit(np.zeros((1, N)), -half, half, dirs)) @ w
    a = _cache_stencil(key, np.float64(m + float(tail[0]) * h ** N))
    return _stencil(dims, h, igd, orthant=O), float(a)


# ---------------------------------------------------------------------------
# Voxelization and grid utilities


def _cells_per_axis(budget: int, N: int) -> Tuple[int, int]:
    """Cells per axis of the fine and the coarse level of a tensor grid of
    about ``budget`` cells: n = budget^(1/N) and n / 2, each at least 4."""
    n = max(4, int(round(budget ** (1.0 / N))))
    return n, max(4, n // 2)


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
        cells_per_axis = 64
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


def _as_grid(E: Shape, budget: int) -> VoxelShape:
    """The fine level of a shape: a voxel shape itself, a ball voxelized at
    the budget's cells per axis."""
    if isinstance(E, VoxelShape):
        return E
    return voxelize(E, _cells_per_axis(budget, E.dimension)[0])


def _grids(E: Shape, budget: int) -> Tuple[VoxelShape, VoxelShape]:
    """The (fine, coarse) levels of a shape: the fine level of ``_as_grid``
    and, for a voxel shape, its coarsening, for a ball its own voxelization
    at half the cells per axis."""
    if isinstance(E, VoxelShape):
        return E, VoxelShape(E.dimension, E.origin, 2.0 * E.spacing, _coarsen(E.occupancy))
    return tuple(voxelize(E, n) for n in _cells_per_axis(budget, E.dimension))


def _pair_grids(E: Shape, F: Shape, budget: int) -> tuple:
    """The (fine, coarse) levels of a pair, each a pair of voxel shapes on
    one grid.  A shape paired with itself takes each level of ``_grids``
    twice, the grids its embedding or voxelization below would rebuild.
    Same-spacing voxel shapes are embedded in their common fine grid,
    whose levels are those of ``_grids``; any other pair is voxelized on
    the union of the bounding boxes at the cells per axis of both
    levels."""
    if F is E:
        return tuple((g, g) for g in _grids(E, budget))
    N = E.dimension
    (loE, hiE), (loF, hiF) = E.bounding_box(), F.bounding_box()
    lo, hi = np.minimum(loE, loF), np.maximum(hiE, hiF)
    if (
        isinstance(E, VoxelShape)
        and isinstance(F, VoxelShape)
        and abs(E.spacing - F.spacing) <= 1e-12 * E.spacing
    ):
        h = E.spacing
        dims = tuple(int(round(v)) for v in (hi - lo) / h)
        fine = [VoxelShape(N, lo, h, _embed(v, lo, dims)) for v in (E, F)]
        return tuple(zip(*(_grids(v, budget) for v in fine)))
    return tuple(
        (voxelize(E, n, (lo, hi)), voxelize(F, n, (lo, hi))) for n in _cells_per_axis(budget, N)
    )


# ---------------------------------------------------------------------------
# Estimates (see the module docstring)


def _tensor_estimate(levels, body) -> IntegralEstimate:
    """Tensor estimate from the (fine, coarse) ``levels`` and ``body(level)``
    -> (value, samples): the value and samples of the fine level, and as
    error the change from the coarse one."""
    value, samples = body(levels[0])
    coarse, _ = body(levels[1])
    return IntegralEstimate(value, abs(value - coarse), samples, "tensor-midpoint")


# ---------------------------------------------------------------------------
# Public operations


def integral_over(E: Shape, beta: float, spec: QuadratureSpec) -> IntegralEstimate:
    """Estimate the integral of |x|^(-beta) over the shape E: the cells
    touching the origin are integrated by dyadic refinement, the others
    take the midpoint value (``_singular_cell_means``).  beta = 0 gives
    the volume of the grid.
    """
    N = E.dimension
    if geometry.is_empty(E):
        return IntegralEstimate(0.0, 0.0, 0, "tensor-midpoint")

    def body(grid):
        if grid.count == 0:
            return 0.0, 0
        h = grid.spacing
        vals = _singular_cell_means(grid.cell_centers(), h, beta)
        return float(np.sum(vals)) * h ** N, grid.count

    return _tensor_estimate(_grids(E, spec.resolved_budget(N)), body)


def double_integral(E: Shape, F: Shape, g, spec: QuadratureSpec) -> IntegralEstimate:
    """Estimate the pair integral of g over E x F.

    ``g`` is a KernelSpec, a riesz exponent (float) or an
    ``OffsetIntegrand`` (stationary, evaluated at z = y - x).  It is an
    FFT pair sum on a common grid with near-diagonal cell-pair integrals.
    """
    if geometry.is_empty(E) or geometry.is_empty(F):
        return IntegralEstimate(0.0, 0.0, 0, "tensor-midpoint")
    return _pair_estimate(_pair_grids(E, F, spec.resolved_budget(E.dimension)), g)


def _pair_estimate(levels, g) -> IntegralEstimate:
    """The pair integral of g (as in ``double_integral``) over the levels
    of ``_pair_grids``."""
    igd = _coerce_integrand(g, levels[0][0].dimension)

    def body(pair):
        vE, vF = pair
        T = _stencil(vE.occupancy.shape, vE.spacing, igd)
        return _fft_pair_sum(vE.occupancy, vF.occupancy, T), vE.count + vF.count

    return _tensor_estimate(levels, body)


def complement_double_integral(E: Shape, kernel: KernelSpec, spec: QuadratureSpec) -> IntegralEstimate:
    """Estimate the pair integral of K(x - y) over E x (complement of E).

    This is count(E) a(h) - S(E, E) (see ``_cell_kernel_mass``).
    """
    N = E.dimension
    if geometry.is_empty(E):
        return IntegralEstimate(0.0, 0.0, 0, "tensor-midpoint")
    igd = kernel_integrand(kernel)
    if igd.dimension != N:
        raise ParameterError("kernel dimension does not match the shape")

    def body(grid):
        T, a = _cell_kernel_mass(grid.occupancy.shape, grid.spacing, igd)
        return grid.count * a - _fft_pair_sum(grid.occupancy, grid.occupancy, T), grid.count

    return _tensor_estimate(_grids(E, spec.resolved_budget(N)), body)
