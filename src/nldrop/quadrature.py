"""Integration engines for singular power-law integrands on shapes.

Two engine families are provided behind one interface:

* ``tensor-midpoint``: shapes are voxelized (or already voxel grids); a
  pair integral is a pair sum of a translation-invariant stencil over the
  occupied cells, taken by Parseval's identity on a 5-smooth FFT grid of
  at least twice the occupied box per axis.  Cell pairs near the singular
  diagonal use exact cell-pair integrals (difference-variable form with a
  triangular weight and dyadic Gauss-Legendre refinement toward the
  singularity; the corner series of a homogeneous integrand is summed in
  closed form from at most N + 2 levels, any other one is refined 40
  levels and extrapolated geometrically).  They are kept in near tables,
  one integral per symmetry orbit of cell offsets, shared by every grid of
  one spacing; power-law integrands keep one table at unit spacing for all
  spacings.  Stencils are evaluated in slabs of offsets, a radial one on
  one orthant and mirrored.  A complement integral is count(E) a(h) -
  S(E, E): S is the pair sum over E x E and a(h) is the kernel mass of one
  cell against all of space, the stencil sum plus the exact directional
  tail beyond the stencil box (the closed-form radial tail from the
  ray-box exit distance, summed over a midpoint direction grid).
* ``monte-carlo``: uniform rejection sampling in bounding boxes with fixed
  batch structure; per-batch seeds derive from one SeedSequence so results
  are bit-reproducible for a fixed spec.  Complement integrals sample the
  bounding box padded by ``_MC_PADDING`` diameters and add the directional
  tail outside it.

Every estimate an engine returns is built by one of two helpers.
``_tensor_estimate`` evaluates on the fine grid and on the half-resolution
grid and reports |fine - coarse| as the error.  ``_mc_estimate`` splits
the budget over 32 seeded batches and reports the standard error of the
batch means, with a warning when the integrand's |z|^-sigma singularity
makes the variance infinite (2 sigma >= N).  Both errors are proxies, not
bounds.  Sphere integrals and directional tails stream the midpoint
direction grid in blocks built from per-axis factors
(``_direction_blocks``); no cache holds more than those factors.
"""

from __future__ import annotations

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
_PAIR_DEPTH = 40
# Complement integrals pad a shape's grid with empty cells to at least this
# many cells per axis: the stencil then holds every near offset, and the
# directional tail starts well away from the centre cell.
_MIN_STENCIL_CELLS = 32
# Monte Carlo complement integrals sample the bounding box padded by this
# many diameters on each side.
_MC_PADDING = 2.0


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
    warning: Optional[str] = None

    def as_record(self) -> dict:
        return {
            "value": self.value,
            "error": self.error,
            "samples": self.samples,
            "method": self.method,
            "seed": self.seed,
            "warning": self.warning or "",
        }


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
    exact cell-pair integrals.  Radial integrands set ``ray_tail``
    (per-steradian tail integral of g(r) r^(N-1) from rho to infinity) to
    enable complement tails.

    Two properties, set by the constructors below, let the stencils share
    those exact integrals (see ``_near_values``).  ``radial``: g depends on
    |z| alone, so a cell offset's integral depends only on its sorted
    absolute components.  ``homogeneous``: g(t z) = t^(-sigma) g(z) for
    t > 0, so the integral at spacing h is the spacing-1 value times
    h^(2N - sigma).  An integrand built directly leaves both False and
    gets one exact integral per offset and per spacing.
    """

    dimension: int
    sigma: float
    vec: Callable[[np.ndarray], np.ndarray]
    cache_token: object
    ray_tail: Optional[Callable[[np.ndarray], np.ndarray]] = None
    radial: bool = False
    homogeneous: bool = False


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
        homogeneous=kernel.kind == "fractional",
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
        homogeneous=True,
    )


def kernel_moment_integrand(kernel: KernelSpec) -> OffsetIntegrand:
    """g(z) = K(z) |z|: the first radial moment of the kernel."""
    N = kernel.dimension

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
        homogeneous=kernel.kind == "fractional",
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
        homogeneous=True,
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


def _dyadic_integral(lo: np.ndarray, hi: np.ndarray, fvec, sigma=None, degrees=(0, 0)) -> float:
    """Sum of integrals of fvec over the boxes [lo_k, hi_k], level by level.

    At each level one Gauss-Legendre call integrates every box clear of
    the origin, and every box touching it (at a corner: 0 is a breakpoint
    of every axis) is split into its 2^N halves for the next level.  The
    boxes of level k + 1 are the ones of level k scaled by 1/2.

    When fvec is a g homogeneous of degree -``sigma`` times a polynomial
    weight whose monomials on the origin boxes have degrees in
    ``degrees`` = (m_min, m_max), the Gauss-Legendre sums scale exactly
    too: level k >= 1 contributes sum_m A_m r_m^(k-1) with
    r_m = 2^-(N - sigma + m).  Levels 0..L, for the L ratios, fix that
    series, and its sum is c_0 + P(1)/Q(1) with Q(x) = prod_m (1 - r_m x)
    and P the first L coefficients of Q(x) sum_{k>=1} c_k x^(k-1).  Every
    r_m must be below 1.  With ``sigma`` None the levels run to
    ``_PAIR_DEPTH`` and the truncated series is completed by geometric
    extrapolation of its last ratio.
    """
    N = lo.shape[1]
    if sigma is None:
        depth = _PAIR_DEPTH
    else:
        ratios = 2.0 ** -(N - sigma + np.arange(degrees[0], degrees[1] + 1))
        depth = ratios.size
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
    total = float(contrib.sum())
    if lo.shape[0] == 0:  # no box touches the origin: the sum is complete
        return total
    if sigma is not None:
        q = np.poly(ratios)  # Q's coefficients, lowest power first
        p = np.convolve(contrib[1:], q)[:depth]
        return float(contrib[0]) + float(p.sum()) / float(q.sum())
    if contrib[depth] > 0.0 and contrib[depth - 1] > 0.0:
        ratio = min(contrib[depth] / contrib[depth - 1], 0.95)
        total += contrib[depth] * ratio / (1.0 - ratio)
    return total


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


def cell_pair_integral(dvec, h: float, gvec: Callable, N: int, sigma=None) -> float:
    """Exact integral of g(y - x) over a pair of cubic cells.

    The cells have side h and center offset dvec = center(y-cell) minus
    center(x-cell).  In the difference variable z = y - x the integral is
    g(z) times the separable triangular weight prod_i (h - |z_i - d_i|)_+
    over d + [-h, h]^N.  The weight's apex hyperplanes and the origin are
    pre-split so every quadrature box sees a smooth integrand.  An offset
    component within rounding (1e-12 h) of +-h counts as +-h.

    Pass ``sigma`` when g is homogeneous of degree -sigma: the corner
    series at the origin is then summed in closed form from at most N + 2
    levels (see ``_dyadic_integral``).  On the origin boxes the weight's
    monomials have degrees from the number of axes with |d_i| = h up to
    N; a pair whose lowest degree m_min has N - sigma + m_min <= 0
    diverges and is rejected.  Without ``sigma`` the series is refined 40
    levels deep and extrapolated.
    """
    d = np.asarray(dvec, dtype=float)
    edge = np.abs(np.abs(d) - h) <= 1e-12 * h
    d = np.where(edge, np.copysign(h, d), d)

    def fvec(pts):
        w = np.prod(np.clip(h - np.abs(pts - d), 0.0, None), axis=-1)
        return gvec(pts) * w

    boxes = _grid_boxes([_axis_breaks(d[i], h) for i in range(N)])
    if sigma is None:
        return _dyadic_integral(*boxes, fvec)
    m_min = int(np.count_nonzero(edge))
    if np.all(np.abs(d) <= h) and N - sigma + m_min <= 0:
        raise ParameterError(
            f"cell pair at offset {d.tolist()} with |z|^-{sigma} singularity in "
            f"dimension {N}: the integral diverges"
        )
    return _dyadic_integral(*boxes, fvec, sigma, (m_min, N))


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
    partition of a shape) is integrated by dyadic refinement; when the
    exponent is at least N that integral diverges, the cell is excluded
    (mean 0) and a warning is returned.  Returns (means, warning).
    """
    N = centers.shape[-1]
    vals = sing.vec(centers)
    if sing.exponent == 0:  # constant integrand: the midpoint value is exact
        return vals, None
    d_inf = np.max(np.abs(centers - sing.center), axis=-1)
    warn = None
    for i in np.nonzero(d_inf <= 0.5 * h + 1e-12 * h)[0]:
        if sing.exponent >= N:
            vals[i] = 0.0
            warn = (
                "singular cell excluded: exponent >= dimension makes the "
                "cell integral divergent"
            )
        else:
            vals[i] = point_singularity_cell_integral(
                centers[i] - 0.5 * h, centers[i] + 0.5 * h, sing.center, sing.exponent, N
            ) / h ** N
    return vals, warn


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
    A homogeneous g keeps its table at spacing 1 and rescales it by
    h^(2N - sigma), so one table serves every spacing and grid; any other
    g keeps one table per spacing.  Integrals are computed on first use,
    a homogeneous g's with its corner series in closed form.
    """
    N = igd.dimension
    base = 1.0 if igd.homogeneous else float(h)
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
            table[orbit] = cell_pair_integral(
                np.array(orbit) * base, base, igd.vec, N, igd.sigma if igd.homogeneous else None
            )
        out[i] = table[orbit]
    return out * (h / base) ** (2 * N - igd.sigma)


def _stencil(dims, h: float, igd: OffsetIntegrand) -> np.ndarray:
    """Pair-sum table T indexed by cell offset (shifted by dims - 1):
    T[off] = integral of g(y - x) over an ordered pair of cells with center
    offset off * h.  Far offsets use the midpoint value g(off*h) h^(2N);
    near offsets (inf-norm <= 2 for strongly singular g, <= 1 otherwise)
    and, for sigma < N, the zero offset use exact cell-pair integrals from
    the near tables of ``_near_values``: one integral per symmetry orbit
    when g is radial, computed once at spacing 1 for every h when g is
    homogeneous, with its corner series summed in closed form.  A cold 3-D
    fractional kernel stencil thus costs 9 integrals of at most N + 2
    levels each, and its fine and coarse grids share them.  A radial g is
    even in every axis: its offsets 0 .. d - 1 per axis are evaluated and
    one index of |off| mirrors them, bit for bit, into the full table."""
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


def _tail_per_cell(pts: np.ndarray, lo, hi, igd: OffsetIntegrand) -> np.ndarray:
    """Per-point integral of g over the complement of the box [lo, hi]."""
    ((dirs, w),) = _direction_blocks(igd.dimension, _TAIL_DIRECTIONS[igd.dimension])
    out = np.empty(pts.shape[0])
    chunk = 2048
    for start in range(0, pts.shape[0], chunk):
        sl = slice(start, min(start + chunk, pts.shape[0]))
        rho = _ray_exit(pts[sl], lo, hi, dirs)
        out[sl] = igd.ray_tail(rho) @ np.full(dirs.shape[0], w)
    return out


def _cell_kernel_mass(dims, h: float, igd: OffsetIntegrand):
    """Stencil T of the grid ``dims`` padded with empty cells to at least
    ``_MIN_STENCIL_CELLS`` per axis, and a(h), the pair integral of g over
    one cell times all of space: the sum of T plus h^N times the
    directional tail beyond T's box, seen from the centre cell.  For a
    shape E on the grid, the complement integral is count(E) a(h) minus
    the pair sum of T over E x E.  Returns (T, a)."""
    N = igd.dimension
    dims = np.maximum(dims, _MIN_STENCIL_CELLS)
    T = _stencil(tuple(int(d) for d in dims), h, igd)
    half = (dims - 0.5) * h
    tail = _tail_per_cell(np.zeros((1, N)), -half, half, igd)
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
    """Tensor estimate from ``value_at(coarse)`` -> (value, samples,
    warning): the value, samples and warning of the fine grid, and as
    error the change from the coarse (half-resolution) grid."""
    value, samples, warn = value_at(False)
    coarse, _, _ = value_at(True)
    return IntegralEstimate(value, abs(value - coarse), samples, "tensor-midpoint", spec.seed, warn)


def _batch_rngs(seed: int):
    seqs = np.random.SeedSequence(seed).spawn(_NB_BATCHES)
    return [np.random.default_rng(s) for s in seqs]


def _mc_estimate(spec: QuadratureSpec, N: int, batch_mean, sigma=None) -> IntegralEstimate:
    """Monte Carlo estimate from ``_NB_BATCHES`` seeded batches that share
    the budget: ``batch_mean(rng, count)`` returns one batch's estimate of
    the integral.  The value is the mean of the batch estimates and the
    error their standard error.  An integrand with a |z|^-sigma
    singularity has infinite variance when 2 sigma >= N, and the estimate
    then carries a warning that names the remedy, the tensor engine."""
    per = max(1, spec.resolved_budget(N) // _NB_BATCHES)
    means = np.array([batch_mean(rng, per) for rng in _batch_rngs(spec.seed)])
    err = float(np.std(means, ddof=1) / math.sqrt(_NB_BATCHES))
    warn = None
    if sigma is not None and 2.0 * sigma >= N:
        warn = (
            "heavy-tailed integrand; Monte Carlo stderr unreliable; "
            "set quad.method = tensor-midpoint"
        )
    return IntegralEstimate(
        float(np.mean(means)), err, per * _NB_BATCHES, "monte-carlo", spec.seed, warn
    )


# ---------------------------------------------------------------------------
# Public operations


def integral_over(E: Shape, f, spec: QuadratureSpec) -> IntegralEstimate:
    """Estimate the integral of f over the shape E.

    ``f`` is either a vectorized callable mapping an array of points with
    shape (k, N) to (k,) values, or a ``PointSingularity`` marker whose
    singular cell is integrated by dyadic refinement on tensor grids.
    """
    N = E.dimension
    if geometry.is_empty(E):
        return IntegralEstimate(0.0, 0.0, 0, spec.method, spec.seed)
    sing = f if isinstance(f, PointSingularity) else None
    fvec = sing.vec if sing is not None else f

    if spec.method == "monte-carlo":
        lo, hi = E.bounding_box()
        box_vol = float(np.prod(hi - lo))

        def batch_mean(rng, count):
            pts = rng.uniform(lo, hi, size=(count, N))
            vals = np.where(geometry.indicator(E, pts), fvec(pts), 0.0)
            return float(np.mean(vals)) * box_vol

        return _mc_estimate(spec, N, batch_mean, sing.exponent if sing is not None else None)

    budget = spec.resolved_budget(N)

    def value_at(coarse: bool):
        grid = _as_grid(E, budget, coarse)
        if grid.count == 0:
            return 0.0, 0, None
        h = grid.spacing
        if sing is not None:
            vals, warn = _singular_cell_means(grid.cell_centers(), h, sing)
        else:
            vals, warn = fvec(grid.cell_centers()), None
        return float(np.sum(vals)) * h ** N, grid.count, warn

    return _tensor_estimate(spec, value_at)


def double_integral(E: Shape, F: Shape, g, spec: QuadratureSpec) -> IntegralEstimate:
    """Estimate the pair integral of g over E x F.

    ``g`` is a KernelSpec, a riesz exponent (float) or an
    ``OffsetIntegrand`` (stationary, evaluated at z = y - x).  The tensor
    engine takes FFT pair sums on a common grid with near-diagonal
    cell-pair integrals.
    """
    N = E.dimension
    if geometry.is_empty(E) or geometry.is_empty(F):
        return IntegralEstimate(0.0, 0.0, 0, spec.method, spec.seed)
    igd = _coerce_integrand(g, N)

    if spec.method == "monte-carlo":
        loE, hiE = E.bounding_box()
        loF, hiF = F.bounding_box()
        vol = float(np.prod(hiE - loE)) * float(np.prod(hiF - loF))

        def batch_mean(rng, count):
            x = rng.uniform(loE, hiE, size=(count, N))
            y = rng.uniform(loF, hiF, size=(count, N))
            keep = geometry.indicator(E, x) & geometry.indicator(F, y)
            vals = _safe_offset_eval(igd, y - x)
            return float(np.mean(np.where(keep, vals, 0.0))) * vol

        return _mc_estimate(spec, N, batch_mean, igd.sigma)

    budget = spec.resolved_budget(N)

    def value_at(coarse: bool):
        gE, gF, _, h = _pair_grids(E, F, budget, coarse)
        cells = int(np.count_nonzero(gE)) + int(np.count_nonzero(gF))
        return _fft_pair_sum(gE, gF, _stencil(gE.shape, h, igd)), cells, None

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
    ``_cell_kernel_mass``).  Monte Carlo samples E x (box minus E) for the
    bounding box padded by ``_MC_PADDING`` diameters and adds, for each
    sample point, the exact directional tail outside that box.
    """
    N = E.dimension
    if geometry.is_empty(E):
        return IntegralEstimate(0.0, 0.0, 0, spec.method, spec.seed)
    igd = kernel_integrand(kernel)
    if igd.dimension != N:
        raise ParameterError("kernel dimension does not match the shape")

    if spec.method == "monte-carlo":
        lo, hi = E.bounding_box()
        pad = _MC_PADDING * float(np.linalg.norm(hi - lo))
        box_lo, box_hi = lo - pad, hi + pad
        volE_box = float(np.prod(hi - lo))
        vol_box = float(np.prod(box_hi - box_lo))

        def batch_mean(rng, count):
            x = rng.uniform(lo, hi, size=(count, N))
            y = rng.uniform(box_lo, box_hi, size=(count, N))
            in_e = geometry.indicator(E, x)
            keep = in_e & ~geometry.indicator(E, y)
            vals = np.where(keep, _safe_offset_eval(igd, y - x), 0.0)
            near = float(np.mean(vals)) * volE_box * vol_box
            tails = np.zeros(count)
            if np.any(in_e):
                tails[in_e] = _tail_per_cell(x[in_e], box_lo, box_hi, igd)
            return near + float(np.mean(tails)) * volE_box

        return _mc_estimate(spec, N, batch_mean, igd.sigma)

    budget = spec.resolved_budget(N)

    def value_at(coarse: bool):
        grid = _as_grid(E, budget, coarse=coarse)
        T, a = _cell_kernel_mass(grid.occupancy.shape, grid.spacing, igd)
        return grid.count * a - _fft_pair_sum(grid.occupancy, grid.occupancy, T), grid.count, None

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
        return sum(float(np.sum(f(dirs) * w)) for dirs, w in blocks), count, None

    return _tensor_estimate(spec, value_at)
