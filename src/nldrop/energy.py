"""Energy functionals: nonlocal perimeter, riesz self-interaction, and the
attractive background term, plus exact decomposition identities.

The driving functional for a shape E is

    F(E) = perimeter(E) + riesz(E) - A * background(E)

with a nonlocal perimeter P_K(E) = int_E int_{E^c} K(x-y), a repulsive
self-interaction V_alpha(E) = (1/2) int_E int_E |x-y|^{-alpha}, and an
attractive background R_beta(E) = int_E |x|^{-beta}.

Ball configurations get dedicated radial reductions (single-ball perimeter
through the ray-exit tail, self-interaction through pair-distance
densities, pairwise interactions through chord moments) that are much
faster and more accurate than the generic grid engines; voxel and sliced
shapes go through the quadrature module.  The ball evaluator is one
function per term (``_balls_perimeter``, ``_balls_riesz``,
``_balls_background``, and ``_balls_cross`` for the pairwise
interactions), shared with the families and slicing modules;
``_balls_energy`` assembles a ball system's energy from them with one
cross-term pass for the kernel and the riesz exponent.  Its error
is the sum over parts (single balls and ball pairs) of |v(n) - v(n/2)|,
the change from halving that part's node count, plus 1e-12 |V| on the
single-ball riesz terms, which have no node count; the 3-D Coulomb pair
term is exact.  A voxel perimeter is count(E) a(h) - S(E, E), the kernel
mass of one cell against all of space per occupied cell minus the kernel
pair sum over E x E.  Decomposition checks evaluate every term on one
shared grid so the identities cancel at machine precision instead of
quadrature accuracy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import geometry, kernels, quadrature
from .errors import ParameterError, PreconditionError
from .geometry import BallConfig, Shape, VoxelShape
from .kernels import KernelSpec
from .quadrature import IntegralEstimate, QuadratureSpec


@dataclass(frozen=True)
class EnergyParams:
    """Functional parameters: kernel, background strength A, riesz exponent
    alpha (default 1), background exponent beta (default 1)."""

    kernel: KernelSpec
    A: float = 0.0
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        N = self.kernel.dimension
        if self.A < 0:
            raise ParameterError(f"A must be nonnegative, got {self.A}")
        if not (0.0 < self.alpha < N):
            raise ParameterError(f"alpha must lie in (0, {N}), got {self.alpha}")
        if not (0.0 <= self.beta < N + 1):
            raise ParameterError(f"beta must lie in [0, {N + 1}), got {self.beta}")


@dataclass(frozen=True)
class EnergyReport:
    perimeter: IntegralEstimate
    riesz: IntegralEstimate
    background: IntegralEstimate
    total: float
    error: float
    params: EnergyParams

    def as_record(self) -> dict:
        rec = {
            "perimeter": self.perimeter.value,
            "perimeter_error": self.perimeter.error,
            "riesz": self.riesz.value,
            "riesz_error": self.riesz.error,
            "background": self.background.value,
            "background_error": self.background.error,
            "total": self.total,
            "total_error": self.error,
            "A": self.params.A,
            "alpha": self.params.alpha,
            "beta": self.params.beta,
        }
        return rec

    @classmethod
    def assemble(
        cls, p: IntegralEstimate, v: IntegralEstimate, r: IntegralEstimate, params: EnergyParams
    ) -> EnergyReport:
        """F = P + V - A R from the three terms, with error
        P_err + V_err + A R_err."""
        return cls(
            perimeter=p,
            riesz=v,
            background=r,
            total=p.value + v.value - params.A * r.value,
            error=p.error + v.error + params.A * r.error,
            params=params,
        )


def _params_kernel(params_or_kernel) -> KernelSpec:
    if isinstance(params_or_kernel, EnergyParams):
        return params_or_kernel.kernel
    if isinstance(params_or_kernel, KernelSpec):
        return params_or_kernel
    raise ParameterError("expected EnergyParams or KernelSpec")


# ---------------------------------------------------------------------------
# Radial reductions for ball configurations


@functools.lru_cache(maxsize=64)
def _legendre_rule(n: int):
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_jacobi(n: int, s: float):
    """n-point Gauss-Jacobi nodes and weights for the weight (1 + x)^{-s} on
    [-1, 1], 0 < s < 1, by Golub-Welsch: the eigenvalues of the symmetric
    tridiagonal Jacobi matrix (a = 0, b = -s), one Newton step on the
    orthonormal three-term recurrence, and Christoffel weights
    1 / sum_j p_j(x)^2 rescaled to the weight's mass 2^{1-s} / (1 - s)."""
    b = -s
    c = 2.0 * np.arange(n + 1) + b
    k = np.arange(1, n + 1)
    # x p_j = off[j] p_{j+1} + diag[j] p_j + off[j-1] p_{j-1}
    diag = b * b / (c[:-1] * (c[:-1] + 2.0))
    off = 2.0 * k * (k + b) / (c[1:] * np.sqrt(c[1:] ** 2 - 1.0))

    def recurrence(x):
        """(p_n, p_n', sum_{j<n} p_j^2) at x, from p_0 = 1."""
        p_prev, p, dp_prev, dp, norm2 = 0.0, np.ones_like(x), 0.0, 0.0, 0.0
        for j in range(n):
            norm2 += p * p
            back = off[j - 1] if j else 0.0
            p_prev, p, dp_prev, dp = (
                p, ((x - diag[j]) * p - back * p_prev) / off[j],
                dp, (p + (x - diag[j]) * dp - back * dp_prev) / off[j],
            )
        return p, dp, norm2

    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], 1), UPLO="U")
    p, dp, _ = recurrence(x)
    x -= p / dp
    w = 1.0 / recurrence(x)[2]
    return x, w * (2.0 ** (1.0 - s) / (1.0 - s) / w.sum())


@functools.lru_cache(maxsize=64)
def _jacobi_rule(n: int, s: float):
    """Read-only n-point Gauss-Jacobi rule with weight (1 + x)^{-s} on [-1, 1]."""
    x, w = _gauss_jacobi(n, s)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gl(n: int, lo: float, hi: float):
    x, w = _legendre_rule(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def _deficit_pair_measure(N: int, tau: np.ndarray) -> np.ndarray:
    """D(tau) = |B1| omega_{N-1} tau^{N-1} - gamma(tau) for the unit ball,
    where gamma(tau) dtau is the measure of point pairs in B1 at distance
    tau.  Written so the leading terms cancel analytically (no float
    cancellation near tau = 0); vanishes like tau^N there.
    """
    tau = np.asarray(tau, dtype=float)
    if N == 3:
        vol = geometry.unit_ball_volume(3)
        return vol ** 2 * ((9.0 / 4.0) * tau ** 3 - (3.0 / 16.0) * tau ** 5)
    half = 0.5 * tau
    # pi - overlap_area(tau) = 2 arcsin(tau/2) + (tau/2) sqrt(4 - tau^2)
    gap = 2.0 * np.arcsin(np.clip(half, -1.0, 1.0)) + half * np.sqrt(
        np.clip(4.0 - tau ** 2, 0.0, None)
    )
    return 2.0 * math.pi * tau * gap


def _single_ball_perimeter(kernel: KernelSpec, R: float, n: int = 192) -> float:
    """P_K of one ball of radius R through the pair-distance reduction

        P = int_0^{2R} K(t) D_R(t) dt + |B_R| omega_{N-1} tail(2R)

    with D_R(t) = |B_R| omega_{N-1} t^{N-1} - gamma_R(t): pairs (x in B,
    y outside) at distance t are all sphere pairs minus the inside pairs.
    The integrand behaves like t^{-s} at zero, so the nodes come from a
    Gauss-Jacobi rule with that endpoint weight.
    """
    N = kernel.dimension
    omega = geometry.unit_sphere_area(N)
    vol_r = geometry.unit_ball_volume(N) * R ** N
    s = kernel.s
    x, w = _jacobi_rule(n, s)
    t = R * (1.0 + x)
    deficit = R ** (2 * N - 1) * _deficit_pair_measure(N, t / R)
    f = kernels.eval_kernel_radial(kernel, t) * t ** s * deficit
    main = R ** (1.0 - s) * float(w @ f)
    tail = vol_r * omega * kernels.radial_tail_integral(kernel, 2.0 * R)
    return main + tail


def _ball_self_riesz(N: int, alpha: float, R: float) -> float:
    """(1/2) of the pair integral of |x-y|^{-alpha} over one ball: the
    t^{-alpha} moment of the pair-distance density of two uniform points,
    in closed form."""
    if N == 3:
        # density p(t) = 3 t^2 - (9/4) t^3 + (3/16) t^5 on [0, 2] (unit ball)
        moment = (
            3.0 * 2.0 ** (3 - alpha) / (3 - alpha)
            - (9.0 / 4.0) * 2.0 ** (4 - alpha) / (4 - alpha)
            + (3.0 / 16.0) * 2.0 ** (6 - alpha) / (6 - alpha)
        )
        vol = geometry.unit_ball_volume(3)
    else:
        # density 2 t A_ov(t) / pi with the two-disk overlap area A_ov
        moment = (
            2.0 ** (4.0 - alpha) * math.gamma((3.0 - alpha) / 2.0) * math.gamma(1.5)
            / (math.pi * (2.0 - alpha) * math.gamma(3.0 - 0.5 * alpha))
        )
        vol = geometry.unit_ball_volume(2)
    return 0.5 * vol ** 2 * moment * R ** (2 * N - alpha)


def _radial_moment1(g):
    """Vectorized antiderivative M(T) = int g(t) t dt for a radial pair
    integrand g, pinned so only differences are used: for a kernel,
    ``kernels.radial_antiderivative`` at q = 1, exact on each of its
    power-law pieces; for a riesz exponent, the power law."""
    if isinstance(g, KernelSpec):
        return functools.partial(kernels.radial_antiderivative, g, 1)
    sig = float(g)
    if abs(sig - 2.0) < 1e-12:
        return lambda T: np.log(np.asarray(T, dtype=float))
    return lambda T: np.asarray(T, dtype=float) ** (2.0 - sig) / (2.0 - sig)


def _radial_eval(g):
    if isinstance(g, KernelSpec):
        return lambda t: kernels.eval_kernel_radial(g, t)
    alpha = float(g)
    return lambda t: np.asarray(t, dtype=float) ** (-alpha)


# Rows of r_grid per block of the 2-D pair table: a (rows, n, 128) distance
# block stays in cache where the whole (512, n, 128) tensor took 50 MB.  The
# result does not depend on it: each row's phi sums are the same products.
_PAIR_ROW_BLOCK = 8


def _ball_pair_interaction(gs, N: int, c1, R1: float, c2, R2: float, n: int = 96) -> np.ndarray:
    """int_{B1} int_{B2} g(|x-y|) for disjoint balls, one value per radial
    integrand g in ``gs``.

    The inner potential u(r) = int_{B2} g(|x - y|) dy, with r = |x - c2|,
    is tabulated on a 512-point linear grid over [d - R1, d + R1] (an
    n-point Gauss rule in the B2 radius; in 2-D also 128 Gauss angles) and
    read back with ``np.interp`` at the nodes of the outer n x n Gauss rule
    over B1.  In 3-D the shell of radius P about c2 contributes
    (2 pi P / r) (M(r + P) - M(r - P)), with M the antiderivative of
    ``_radial_moment1``, exact for every kernel kind.  The integrands
    share the grid, the distance tables and the outer nodes.  The callers'
    n against n/2 error does not see the interpolation error of the fixed
    512-point table."""
    d = float(np.linalg.norm(np.asarray(c2, float) - np.asarray(c1, float)))
    if d <= R1 + R2:
        raise PreconditionError("balls overlap; interaction requires disjoint sets")
    r_lo, r_hi = d - R1, d + R1
    r_grid = np.linspace(r_lo * (1 - 1e-12), r_hi * (1 + 1e-12), 512)
    rho, wrho = _gl(n, 0.0, R2)
    if N == 3:
        RR = r_grid[:, None]
        PP = rho[None, :]
        u_grids = []
        for g in gs:
            Mfn = _radial_moment1(g)
            vals = (Mfn(RR + PP) - Mfn(RR - PP)) * PP
            u_grids.append((2.0 * math.pi / r_grid) * (vals @ wrho))
    else:
        gfns = [_radial_eval(g) for g in gs]
        phi, wphi = _gl(128, 0.0, 2.0 * math.pi)
        PP = rho[None, :, None]
        CC = np.cos(phi)[None, None, :]
        phi_sums = np.empty((len(gs), r_grid.size, n))
        for i in range(0, r_grid.size, _PAIR_ROW_BLOCK):
            rows = slice(i, i + _PAIR_ROW_BLOCK)
            RR = r_grid[rows, None, None]
            # |x - y| on the (r, rho, phi) block, built in one buffer.
            t = 2.0 * RR * PP * CC
            np.subtract(RR ** 2 + PP ** 2, t, out=t)
            np.maximum(t, 1e-300, out=t)
            np.sqrt(t, out=t)
            for k, gfn in enumerate(gfns):
                phi_sums[k, rows] = gfn(t) @ wphi
        u_grids = [(sums * rho[None, :]) @ wrho for sums in phi_sums]

    a, wa = _gl(n, 0.0, R1)
    if N == 3:
        u, wu = _gl(n, -1.0, 1.0)
        ang_w = 2.0 * math.pi * wu
    else:
        th, wth = _gl(n, 0.0, math.pi)
        u, ang_w = np.cos(th), 2.0 * wth
    AA = a[:, None]
    UU = u[None, :]
    r = np.sqrt(np.clip(AA ** 2 + d ** 2 - 2.0 * AA * d * UU, 0.0, None))
    wr = wa * a ** (N - 1)
    return np.array([float(np.sum(wr * (np.interp(r, r_grid, ug) @ ang_w))) for ug in u_grids])


def _ball_background(N: int, beta: float, center, R: float, n: int = 512) -> float:
    """int over one ball of |x|^{-beta}: radial shells about the origin
    weighted by the in-ball cap area."""
    d = float(np.linalg.norm(np.asarray(center, dtype=float)))
    if d < 1e-14:
        if beta >= N:
            raise ParameterError(
                f"background exponent {beta} >= N with the singular point inside "
                "the shape: integral diverges"
            )
        return geometry.unit_sphere_area(N) * R ** (N - beta) / (N - beta)
    if d <= R and beta >= N:
        raise ParameterError(
            f"background exponent {beta} >= N with the singular point inside "
            "the shape: integral diverges"
        )
    lo = max(0.0, d - R)
    hi = d + R
    r, w = _gl(n, lo, hi)
    cosg = np.clip((r ** 2 + d ** 2 - R ** 2) / (2.0 * r * d), -1.0, 1.0)
    if N == 3:
        area = 2.0 * math.pi * r ** 2 * (1.0 - cosg)
    else:
        area = 2.0 * r * np.arccos(cosg)
    return float(np.sum(w * r ** (-beta) * area))


def _refined_sum(f, n: int, calls) -> tuple:
    """(sum of f(*args, n=n), sum of |f(*args, n=n) - f(*args, n=n/2)|) over
    the argument tuples in ``calls``: each part is charged the change from
    halving its node count.  An f that returns an array is summed element by
    element."""
    total = err = 0.0
    for args in calls:
        val = f(*args, n=n)
        total += val
        err += abs(val - f(*args, n=n // 2))
    return total, err


def _balls_cross(gs, U: BallConfig, W: BallConfig | None = None) -> tuple:
    """(values, errors) arrays, in the order of the radial integrands ``gs``,
    of the cross terms int_{B_i} int_{B_j} g(|x-y|) summed over the ball
    pairs i < j of U, or over every pair (i in U, j in W).  The integrands
    that need quadrature share one ``_ball_pair_interaction`` pass per pair
    and node count."""
    N = U.dimension
    if W is None:
        W = U
        pairs = [(i, j) for i in range(U.count) for j in range(i + 1, U.count)]
    else:
        pairs = [(i, j) for i in range(U.count) for j in range(W.count)]
    args = [
        (U.centers[i], float(U.radii[i]), W.centers[j], float(W.radii[j]))
        for i, j in pairs
    ]
    values, errors = np.zeros(len(gs)), np.zeros(len(gs))
    quad = []
    for k, g in enumerate(gs):
        if isinstance(g, KernelSpec) or N != 3 or abs(float(g) - 1.0) >= 1e-12:
            quad.append(k)
            continue
        # two disjoint balls with a 1/|x-y| interaction behave as point
        # masses at their centers (harmonic exterior value)
        for c1, r1, c2, r2 in args:
            d = float(np.linalg.norm(c2 - c1))
            values[k] += geometry.unit_ball_volume(3) ** 2 * (r1 * r2) ** 3 / d
    if quad:
        values[quad], errors[quad] = _refined_sum(
            _ball_pair_interaction, 96, [(tuple(gs[k] for k in quad), N) + a for a in args]
        )
    return values, errors


def _balls_perimeter(kernel: KernelSpec, E: BallConfig, cross: tuple | None = None) -> tuple:
    """(value, error) of P_K over disjoint balls: single-ball perimeters
    minus twice the pairwise kernel interactions.  ``cross`` passes in the
    pair part when the caller has already evaluated it with
    ``_balls_cross``."""
    total, err = _refined_sum(
        _single_ball_perimeter, 192, [(kernel, float(r)) for r in E.radii]
    )
    if cross is None:
        cross = [float(a[0]) for a in _balls_cross((kernel,), E)]
    cross_val, cross_err = cross
    return total - 2.0 * cross_val, err + 2.0 * cross_err


def _balls_riesz(alpha: float, E: BallConfig, cross: tuple | None = None) -> tuple:
    """(value, error) of V_alpha over disjoint balls: single-ball terms plus
    pairwise interactions.  ``cross`` passes in the pair part when the
    caller has already evaluated it with ``_balls_cross``."""
    total = 0.0
    for r in E.radii:
        total += _ball_self_riesz(E.dimension, alpha, float(r))
    if cross is None:
        cross = [float(a[0]) for a in _balls_cross((alpha,), E)]
    cross_val, cross_err = cross
    return total + cross_val, 1e-12 * abs(total) + cross_err


def _balls_background(beta: float, E: BallConfig) -> tuple:
    """(value, error) of int_E |x|^{-beta} over a union of balls."""
    calls = [(E.dimension, beta, c, float(r)) for c, r in zip(E.centers, E.radii)]
    return _refined_sum(_ball_background, 512, calls)


def _balls_energy(
    E: BallConfig, params: EnergyParams, spec: QuadratureSpec, charged: int | None = None
) -> tuple:
    """(report, cross riesz value) of a disjoint union of balls from the
    radial reductions, under any ``spec.method``.  The riesz and kernel
    cross terms come from one ``_balls_cross`` call.  Only the first
    ``charged`` balls (all by default) feel the background."""
    if E.dimension != params.kernel.dimension:
        raise ParameterError("ball dimension does not match the kernel")
    n = E.count if charged is None else charged
    charged_balls = BallConfig(E.dimension, E.centers[:n], E.radii[:n])
    values, errors = _balls_cross((params.alpha, params.kernel), E)
    (cross_r, cross_k), (err_r, err_k) = values.tolist(), errors.tolist()
    p, v, r = (
        IntegralEstimate(value, err, 0, "radial-reduction", spec.seed)
        for value, err in (
            _balls_perimeter(params.kernel, E, (cross_k, err_k)),
            _balls_riesz(params.alpha, E, (cross_r, err_r)),
            _balls_background(params.beta, charged_balls),
        )
    )
    return EnergyReport.assemble(p, v, r, params), cross_r


# ---------------------------------------------------------------------------
# Public energy terms


def perimeter(E: Shape, params_or_kernel, spec: QuadratureSpec) -> IntegralEstimate:
    """Nonlocal perimeter P_K(E) = int_E int_{E^c} K(x-y)."""
    kernel = _params_kernel(params_or_kernel)
    if geometry.is_empty(E):
        return IntegralEstimate(0.0, 0.0, 0, spec.method, spec.seed)
    if isinstance(E, BallConfig) and spec.method == "tensor-midpoint":
        total, err = _balls_perimeter(kernel, E)
        return IntegralEstimate(total, err, 0, "radial-reduction", spec.seed)
    return quadrature.complement_double_integral(E, kernel, spec)


def riesz(E: Shape, alpha: float, spec: QuadratureSpec) -> IntegralEstimate:
    """Self-interaction V_alpha(E) = (1/2) int_E int_E |x-y|^{-alpha}."""
    N = E.dimension
    if not (0.0 < alpha < N):
        raise ParameterError(f"riesz exponent must lie in (0, {N}), got {alpha}")
    if geometry.is_empty(E):
        return IntegralEstimate(0.0, 0.0, 0, spec.method, spec.seed)
    if isinstance(E, BallConfig) and spec.method == "tensor-midpoint":
        total, err = _balls_riesz(alpha, E)
        return IntegralEstimate(total, err, 0, "radial-reduction", spec.seed)
    est = quadrature.double_integral(E, E, alpha, spec)
    return IntegralEstimate(0.5 * est.value, 0.5 * est.error, est.samples, est.method, est.seed)


def background(E: Shape, beta: float, spec: QuadratureSpec) -> IntegralEstimate:
    """Attractive term R_beta(E) = int_E |x|^{-beta}."""
    N = E.dimension
    if not (0.0 <= beta < N + 1):
        raise ParameterError(f"background exponent must lie in [0, {N + 1}), got {beta}")
    if geometry.is_empty(E):
        return IntegralEstimate(0.0, 0.0, 0, spec.method, spec.seed)
    if isinstance(E, BallConfig) and spec.method == "tensor-midpoint":
        total, err = _balls_background(beta, E)
        return IntegralEstimate(total, err, 0, "radial-reduction", spec.seed)
    sing = quadrature.PointSingularity(np.zeros(N), beta)
    return quadrature.integral_over(E, sing, spec)


def total_energy(E: Shape, params: EnergyParams, spec: QuadratureSpec) -> EnergyReport:
    """Assemble F(E) = P_K(E) + V_alpha(E) - A * R_beta(E)."""
    if isinstance(E, BallConfig) and spec.method == "tensor-midpoint" and not geometry.is_empty(E):
        return _balls_energy(E, params, spec)[0]
    p = perimeter(E, params.kernel, spec)
    v = riesz(E, params.alpha, spec)
    r = background(E, params.beta, spec)
    return EnergyReport.assemble(p, v, r, params)


# ---------------------------------------------------------------------------
# Interactions and decomposition identities


def _overlap_volume(U: Shape, W: Shape) -> float:
    if isinstance(U, VoxelShape) and isinstance(W, VoxelShape) and U.same_grid(W):
        both = np.logical_and(U.occupancy, W.occupancy)
        return float(np.count_nonzero(both)) * U.spacing ** U.dimension
    loU, hiU = U.bounding_box()
    loW, hiW = W.bounding_box()
    lo, hi = np.maximum(loU, loW), np.minimum(hiU, hiW)
    if np.any(hi <= lo):
        return 0.0
    n = 48
    axes = [lo[i] + (np.arange(n) + 0.5) * (hi[i] - lo[i]) / n for i in range(U.dimension)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    inside = geometry.indicator(U, pts) & geometry.indicator(W, pts)
    cell = float(np.prod((hi - lo) / n))
    return float(np.count_nonzero(inside)) * cell


def interaction(U: Shape, W: Shape, g, spec: QuadratureSpec) -> IntegralEstimate:
    """Cross term int_U int_W g(x-y) for essentially disjoint shapes."""
    if geometry.is_empty(U) or geometry.is_empty(W):
        return IntegralEstimate(0.0, 0.0, 0, spec.method, spec.seed)
    if isinstance(U, BallConfig) and isinstance(W, BallConfig):
        d = np.linalg.norm(U.centers[:, None, :] - W.centers[None, :, :], axis=-1)
        rs = U.radii[:, None] + W.radii[None, :]
        if np.any(d <= rs):
            i, j = np.argwhere(d <= rs)[0]
            raise PreconditionError(
                f"ball {i} of the first shape and ball {j} of the second are not "
                f"disjoint (center distance {d[i, j]:.6g} <= radius sum {rs[i, j]:.6g})"
            )
    else:
        vol = _overlap_volume(U, W)
        tol = 1e-9 * max(1.0, geometry.volume(U), geometry.volume(W))
        if vol > tol:
            raise PreconditionError(
                f"shapes overlap (intersection volume ~ {vol:.3e}); interaction "
                "requires essentially disjoint sets"
            )
    if (
        isinstance(U, BallConfig)
        and isinstance(W, BallConfig)
        and spec.method == "tensor-midpoint"
        and (isinstance(g, KernelSpec) or isinstance(g, (int, float)))
    ):
        values, errors = _balls_cross((g,), U, W)
        return IntegralEstimate(float(values[0]), float(errors[0]), 0, "radial-reduction", spec.seed)
    return quadrature.double_integral(U, W, g, spec)


@dataclass(frozen=True)
class DecompositionCheck:
    """Residual of an exact splitting identity, with the term values used.

    Floats coerce to the residual so the record can be asserted directly.
    """

    residual: float
    combined_error: float
    terms: dict

    def __float__(self) -> float:
        return self.residual


def _decomposition_parts(U: Shape, W: Shape, spec: QuadratureSpec):
    """(U, W, U u W) for the decomposition checks.  The tensor engine gets
    all three on the grid shared by U and W, so the three perimeters share
    one stencil and one cell kernel mass and the identities cancel at
    machine precision; Monte Carlo samples the shapes themselves."""
    if spec.method == "monte-carlo" and isinstance(U, BallConfig) and isinstance(W, BallConfig):
        union = BallConfig(
            dimension=U.dimension,
            centers=np.vstack([U.centers, W.centers]),
            radii=np.concatenate([U.radii, W.radii]),
        )
        return U, W, union
    N = U.dimension
    occU, occW, origin, h = quadrature._pair_grids(U, W, spec.resolved_budget(N), False)
    union = VoxelShape(N, origin, h, occU | occW)
    if spec.method == "monte-carlo":
        return U, W, union
    if np.any(occU & occW):
        raise PreconditionError("shapes overlap on the shared grid")
    return VoxelShape(N, origin, h, occU), VoxelShape(N, origin, h, occW), union


def check_perimeter_decomposition(U: Shape, W: Shape, kernel: KernelSpec, spec: QuadratureSpec) -> DecompositionCheck:
    """Residual of P_K(U) + P_K(W) - P_K(U u W) - 2 I_K(U, W) for disjoint
    U, W, with the parts of ``_decomposition_parts``."""
    if geometry.is_empty(U) or geometry.is_empty(W):
        return DecompositionCheck(0.0, 0.0, {"note": "one part empty; identity trivial"})
    U, W, union = _decomposition_parts(U, W, spec)
    pU = perimeter(U, kernel, spec)
    pW = perimeter(W, kernel, spec)
    pUW = perimeter(union, kernel, spec)
    cross = interaction(U, W, kernel, spec)
    residual = pU.value + pW.value - pUW.value - 2.0 * cross.value
    err = pU.error + pW.error + pUW.error + 2.0 * cross.error
    return DecompositionCheck(residual, err, {
        "P_U": pU.value, "P_W": pW.value, "P_union": pUW.value, "cross": cross.value,
    })


def check_riesz_decomposition(U: Shape, W: Shape, spec: QuadratureSpec, alpha: float = 1.0) -> DecompositionCheck:
    """Residual of V(U u W) - V(U) - V(W) - I(U, W) with the riesz pair
    integrand, with the parts of ``_decomposition_parts``."""
    if geometry.is_empty(U) or geometry.is_empty(W):
        return DecompositionCheck(0.0, 0.0, {"note": "one part empty; identity trivial"})
    U, W, union = _decomposition_parts(U, W, spec)
    vU = riesz(U, alpha, spec)
    vW = riesz(W, alpha, spec)
    vUW = riesz(union, alpha, spec)
    cross = interaction(U, W, alpha, spec)
    residual = vUW.value - vU.value - vW.value - cross.value
    err = vU.error + vW.error + vUW.error + cross.error
    return DecompositionCheck(residual, err, {
        "V_U": vU.value, "V_W": vW.value, "V_union": vUW.value, "cross": cross.value,
    })


@dataclass(frozen=True)
class ScalingReport:
    lam: float
    values_base: dict
    values_scaled: dict
    ratios: dict
    exponents: dict
    expected: dict
    exact: dict

    def as_record(self) -> dict:
        rec = {"lambda": self.lam}
        for name in ("perimeter", "riesz", "background"):
            rec[f"{name}_base"] = self.values_base[name]
            rec[f"{name}_scaled"] = self.values_scaled[name]
            rec[f"{name}_ratio"] = self.ratios[name]
            rec[f"{name}_exponent"] = self.exponents[name]
            rec[f"{name}_expected"] = self.expected[name]
            rec[f"{name}_exact"] = self.exact[name]
        return rec


def scaling_report(E: Shape, lam: float, params: EnergyParams, spec: QuadratureSpec) -> ScalingReport:
    """Fitted per-term scaling exponents log(term(lam*E)/term(E))/log(lam).

    Expected exponents are N - s (perimeter, exact only for the homogeneous
    fractional kernel), 2N - alpha (riesz), and N - beta (background).
    """
    if lam <= 0:
        raise ParameterError(f"scale factor must be positive, got {lam}")
    N = E.dimension
    kernel = params.kernel
    scaled = geometry.scale(E, lam)
    base = {
        "perimeter": perimeter(E, kernel, spec).value,
        "riesz": riesz(E, params.alpha, spec).value,
        "background": background(E, params.beta, spec).value,
    }
    big = {
        "perimeter": perimeter(scaled, kernel, spec).value,
        "riesz": riesz(scaled, params.alpha, spec).value,
        "background": background(scaled, params.beta, spec).value,
    }
    ratios = {k: (big[k] / base[k] if base[k] != 0 else float("nan")) for k in base}
    if lam == 1.0:
        exponents = {k: float("nan") for k in base}
    else:
        exponents = {
            k: (math.log(ratios[k]) / math.log(lam) if ratios[k] > 0 else float("nan"))
            for k in base
        }
    expected = {
        "perimeter": N - kernel.s,
        "riesz": 2 * N - params.alpha,
        "background": N - params.beta,
    }
    exact = {
        "perimeter": kernel.kind == "fractional",
        "riesz": True,
        "background": True,
    }
    return ScalingReport(
        lam=lam,
        values_base=base,
        values_scaled=big,
        ratios=ratios,
        exponents=exponents,
        expected=expected,
        exact=exact,
    )
