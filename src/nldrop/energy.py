"""Energy functionals: nonlocal perimeter, riesz self-interaction, the
attractive background term, and the cross term of two disjoint shapes.

The driving functional for a shape E is

    F(E) = perimeter(E) + riesz(E) - A * background(E)

with a nonlocal perimeter P_K(E) = int_E int_{E^c} K(x-y), a repulsive
self-interaction V_alpha(E) = (1/2) int_E int_E |x-y|^{-alpha}, and an
attractive background R_beta(E) = int_E |x|^{-beta}.

Ball configurations get dedicated radial reductions (single-ball perimeter
through the ray-exit tail, self-interaction through pair-distance
densities, pairwise interactions through the pair-distance density of two
balls in 3-D and in 2-D an inner-potential table whose rows are ray
integrals, ``_disk_ray_integral``, which also gives the 2-D background)
that are much faster and more accurate than the generic tensor grid; voxel
shapes go through the quadrature module.  The ball evaluator is one
function per term (``_balls_perimeter``, ``_balls_riesz``,
``_balls_background``, and ``_balls_cross`` for the pairwise
interactions), shared with the families and slicing modules;
``_balls_energy`` assembles a ball system's energy from them with one
cross-term pass for the kernel and the riesz exponent.  Its error
is the sum over parts (single balls and ball pairs) of |v(n) - v(n/2)|,
the change from halving that part's node count, plus 1e-12 |V| on the
single-ball riesz terms, which have no node count, and 1e-13 of each 3-D
pair term for rounding.  A voxel perimeter is count(E) a(h) - S(E, E),
the kernel mass of one cell against all of space per occupied cell minus
the kernel pair sum over E x E.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry, kernels, quadrature
from .errors import ParameterError, PreconditionError
from .geometry import BallConfig, Shape
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
        if not (0.0 <= self.A < math.inf):
            raise ParameterError(f"A must be finite and nonnegative, got {self.A}")
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


def _gl(n: int, lo: float, hi: float):
    x, w = quadrature._gauss_rule(n)
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


@functools.lru_cache(maxsize=256)
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
    x, w = quadrature._gauss_rule(n, s)
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


def _radial_eval(g):
    if isinstance(g, KernelSpec):
        return lambda t: kernels.eval_kernel_radial(g, t)
    alpha = float(g)
    return lambda t: np.asarray(t, dtype=float) ** (-alpha)


def _ball_pair_density(gs, d: float, R1: float, R2: float, n: int = 64) -> np.ndarray:
    """int_{B1} int_{B2} g(|x-y|) for 3-D balls at center distance
    d > R1 + R2, one value per radial integrand g in ``gs``: g(t) against
    the pair-distance density (pi^2 t / d) q(t - d), with q(tau) the
    integral of (R1^2 - delta^2) (R2^2 - (delta - tau)^2) over delta in
    [max(-R1, tau - R2), min(R1, tau + R2)] (a point at distance d + delta
    from c2 sees B2 across its sphere of radius t in area
    pi t (R2^2 - (delta - tau)^2) / (d + delta)).  q is a quintic between
    its breaks tau = +-|R1 - R2|, +-(R1 + R2): an n-point Gauss rule in tau
    on each piece, split at the kernel's knots in the support.  q at a node
    is the 3-point Gauss rule in delta, exact for its quartic integrand of
    nonnegative factors, so nothing cancels at any separation."""
    S = R1 + R2
    # Off the support the integrand is singular only at t = 0, a gap d - S
    # below it: cut where t grows 16-fold from the gap, so no piece is
    # longer than 15 times its distance to t = 0 however near touching.
    gap = d - S
    grades = gap * 16.0 ** np.arange(1, 1 + int(math.log((d + S) / gap, 16.0)))
    x3, w3 = quadrature._gauss_rule(3)
    rules, out = {}, []
    for g in gs:
        knots = kernels._pieces(g)[0] if isinstance(g, KernelSpec) else ()
        inner = (np.concatenate([grades, knots]) - d).tolist()
        cuts = tuple(sorted({-S, -abs(R1 - R2), abs(R1 - R2), S, *(x for x in inner if abs(x) < S)}))
        if cuts not in rules:
            tau, w = map(np.concatenate, zip(*(_gl(n, a, b) for a, b in zip(cuts, cuts[1:]))))
            lo, hi = np.maximum(-R1, tau - R2), np.minimum(R1, tau + R2)
            delta = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * x3
            u = delta - tau[:, None]
            q = 0.5 * (hi - lo) * (((R1 - delta) * (R1 + delta) * (R2 - u) * (R2 + u)) @ w3)
            t = d + tau
            rules[cuts] = t, (math.pi ** 2 / d) * w * t * q
        t, wt = rules[cuts]
        out.append(wt @ _radial_eval(g)(t))
    return np.array(out)


def _radial_primitive(g):
    """G with G'(t) = g(t) t for a radial integrand g: the kernel's
    ``kernels.radial_antiderivative`` at q = 1, exact on every power-law
    piece, or t^e / e (log t at e = 0) for the exponent g = 2 - e."""
    if isinstance(g, KernelSpec):
        return functools.partial(kernels.radial_antiderivative, g, 1)
    e = 2.0 - float(g)
    return np.log if e == 0.0 else lambda t: t ** e / e


# Rows per block of ``_disk_ray_integral``: the (rows, n) ray arrays stay
# small, where whole (512, n) temporaries raised a 2-D split's peak memory
# by about 2 MB.  The result does not depend on it.
_RAY_ROWS = 32


def _disk_ray_integral(prims, r, R: float, n: int) -> np.ndarray:
    """int_{B(c, R)} g(|x - y|) dy over a 2-D disk, at the points x at the
    distances r >= R from c, one row per antiderivative G in ``prims``
    (G'(t) = g(t) t, ``_radial_primitive``).

    The ray from x at angle theta off the direction of c meets the disk for
    |theta| < theta_max = arcsin(R / r), between the distances rho_-+ =
    r cos(theta) -+ sqrt(R^2 - r^2 sin(theta)^2), so the integral is

        2 int_0^theta_max [G(rho_+) - G(rho_-)] dtheta.

    theta = theta_max sin(phi) removes the square-root end at theta_max;
    the smooth integrand in phi takes an n-point Gauss rule on [0, pi/2].
    rho_- is (r - R)(r + R) / rho_+, which does not cancel near touching."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    x, w = _gl(n, 0.0, 0.5 * math.pi)
    sx, wx = np.sin(x), w * np.cos(x)
    out = np.empty((len(prims), r.size))
    for i in range(0, r.size, _RAY_ROWS):
        rr = r[i:i + _RAY_ROWS, None]
        tmax = np.arcsin(np.minimum(R / rr, 1.0))
        theta = tmax * sx
        rs = rr * np.sin(theta)
        rho_p = rr * np.cos(theta) + np.sqrt(np.maximum((R - rs) * (R + rs), 0.0))
        rho_m = np.maximum((rr - R) * (rr + R), 0.0) / rho_p
        for k, G in enumerate(prims):
            out[k, i:i + _RAY_ROWS] = 2.0 * tmax[:, 0] * ((G(rho_p) - G(rho_m)) @ wx)
    return out


def _ball_pair_interaction(gs, d: float, R1: float, R2: float, n: int = 96) -> np.ndarray:
    """int_{B1} int_{B2} g(|x-y|) for 2-D balls at center distance
    d > R1 + R2, one value per radial integrand g in ``gs``.

    The inner potential u(r) = int_{B2} g(|x - y|) dy, with r = |x - c2|,
    is tabulated on a 512-point linear grid over [d - R1, d + R1], each row
    by the ray formula of ``_disk_ray_integral`` on an n-point angle rule,
    and read back with ``np.interp`` at the nodes of the outer n x n Gauss
    rule over B1.  The integrands share the grid, the rays and the outer
    nodes.  The callers' n against n/2 error does not see the
    interpolation error of the fixed 512-point table."""
    r_grid = np.linspace((d - R1) * (1 - 1e-12), (d + R1) * (1 + 1e-12), 512)
    u_grids = _disk_ray_integral([_radial_primitive(g) for g in gs], r_grid, R2, n)

    a, wa = _gl(n, 0.0, R1)
    th, wth = _gl(n, 0.0, math.pi)
    AA = a[:, None]
    UU = np.cos(th)[None, :]
    r = np.sqrt(np.clip(AA ** 2 + d ** 2 - 2.0 * AA * d * UU, 0.0, None))
    return np.array([float(np.sum(wa * a * (np.interp(r, r_grid, ug) @ (2.0 * wth)))) for ug in u_grids])


def _ball_background(N: int, beta: float, center, R: float, n: int = 512) -> float:
    """int over one ball of |x|^{-beta}.  In 2-D by rays from the origin:
    ``_disk_ray_integral`` with the origin outside the disk, and with it
    inside the periodic int_0^{2 pi} G(rho(theta)) dtheta, rho(theta) =
    d cos(theta) + sqrt(R^2 - d^2 sin(theta)^2) the exit distance and
    G(t) = t^(2 - beta) / (2 - beta), by the n-point trapezoid rule, which
    converges geometrically on a smooth periodic integrand.  In 3-D by
    radial shells about the origin weighted by the in-ball cap area."""
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
    if N == 2:
        G = _radial_primitive(beta)
        if d >= R:
            return float(_disk_ray_integral([G], d, R, n)[0, 0])
        theta = np.arange(n) * (2.0 * math.pi / n)
        ds = d * np.sin(theta)
        rho = d * np.cos(theta) + np.sqrt((R - ds) * (R + ds))
        return float(np.sum(G(rho))) * (2.0 * math.pi / n)
    lo = max(0.0, d - R)
    hi = d + R
    r, w = _gl(n, lo, hi)
    cosg = np.clip((r ** 2 + d ** 2 - R ** 2) / (2.0 * r * d), -1.0, 1.0)
    area = 2.0 * math.pi * r ** 2 * (1.0 - cosg)
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
    pairs i < j of U, or over every pair (i in U, j in W), which the
    callers have checked disjoint.  The integrands share one pass per pair
    and node count: ``_ball_pair_density`` in 3-D, and in 2-D
    ``_ball_pair_interaction``, whose table rows evaluate each integrand's
    antiderivative at two distances per node of an n-point angle rule."""
    if W is None:
        W = U
        pairs = [(i, j) for i in range(U.count) for j in range(i + 1, U.count)]
    else:
        pairs = [(i, j) for i in range(U.count) for j in range(W.count)]
    calls = [
        (gs, float(np.linalg.norm(W.centers[j] - U.centers[i])), float(U.radii[i]), float(W.radii[j]))
        for i, j in pairs
    ]
    f, n = (_ball_pair_density, 64) if U.dimension == 3 else (_ball_pair_interaction, 96)
    values, errors = _refined_sum(f, n, calls)
    if U.dimension == 3:
        # both node counts can be exact to rounding; each value is a dot
        # product of a few thousand positive terms good to a few ulps
        errors = errors + 1e-13 * np.abs(values)
    return np.zeros(len(gs)) + values, np.zeros(len(gs)) + errors


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


def _balls_energy(E: BallConfig, params: EnergyParams, charged: int | None = None) -> tuple:
    """(report, cross riesz value) of a disjoint union of balls from the
    radial reductions.  The riesz and kernel cross terms come from one
    ``_balls_cross`` call.  Only the first ``charged`` balls (all by
    default) feel the background."""
    if E.dimension != params.kernel.dimension:
        raise ParameterError("ball dimension does not match the kernel")
    n = E.count if charged is None else charged
    charged_balls = BallConfig(E.dimension, E.centers[:n], E.radii[:n])
    values, errors = _balls_cross((params.alpha, params.kernel), E)
    (cross_r, cross_k), (err_r, err_k) = values.tolist(), errors.tolist()
    p, v, r = (
        IntegralEstimate(value, err, 0, "radial-reduction")
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
        return IntegralEstimate(0.0, 0.0, 0, "tensor-midpoint")
    if isinstance(E, BallConfig):
        total, err = _balls_perimeter(kernel, E)
        return IntegralEstimate(total, err, 0, "radial-reduction")
    return quadrature.complement_double_integral(E, kernel, spec)


def riesz(E: Shape, alpha: float, spec: QuadratureSpec) -> IntegralEstimate:
    """Self-interaction V_alpha(E) = (1/2) int_E int_E |x-y|^{-alpha}."""
    N = E.dimension
    if not (0.0 < alpha < N):
        raise ParameterError(f"riesz exponent must lie in (0, {N}), got {alpha}")
    if geometry.is_empty(E):
        return IntegralEstimate(0.0, 0.0, 0, "tensor-midpoint")
    if isinstance(E, BallConfig):
        total, err = _balls_riesz(alpha, E)
        return IntegralEstimate(total, err, 0, "radial-reduction")
    est = quadrature.double_integral(E, E, alpha, spec)
    return IntegralEstimate(0.5 * est.value, 0.5 * est.error, est.samples, est.method)


def background(E: Shape, beta: float, spec: QuadratureSpec) -> IntegralEstimate:
    """Attractive term R_beta(E) = int_E |x|^{-beta}."""
    N = E.dimension
    if not (0.0 <= beta < N + 1):
        raise ParameterError(f"background exponent must lie in [0, {N + 1}), got {beta}")
    if geometry.is_empty(E):
        return IntegralEstimate(0.0, 0.0, 0, "tensor-midpoint")
    if isinstance(E, BallConfig):
        total, err = _balls_background(beta, E)
        return IntegralEstimate(total, err, 0, "radial-reduction")
    return quadrature.integral_over(E, beta, spec)


def total_energy(E: Shape, params: EnergyParams, spec: QuadratureSpec) -> EnergyReport:
    """Assemble F(E) = P_K(E) + V_alpha(E) - A * R_beta(E)."""
    if isinstance(E, BallConfig) and not geometry.is_empty(E):
        return _balls_energy(E, params)[0]
    p = perimeter(E, params.kernel, spec)
    v = riesz(E, params.alpha, spec)
    r = background(E, params.beta, spec)
    return EnergyReport.assemble(p, v, r, params)


# ---------------------------------------------------------------------------
# Interactions


def _disjoint_levels(U: Shape, W: Shape, spec: QuadratureSpec) -> tuple:
    """The levels of ``quadrature._pair_grids`` for U and W, the grids their
    pair integral runs on.  A cell of the fine level in both shapes is
    refused."""
    levels = quadrature._pair_grids(U, W, spec.resolved_budget(U.dimension))
    gU, gW = levels[0]
    if np.any(gU.occupancy & gW.occupancy):
        raise PreconditionError(
            "shapes overlap on the shared grid; interaction requires disjoint sets"
        )
    return levels


def interaction(U: Shape, W: Shape, g, spec: QuadratureSpec) -> IntegralEstimate:
    """Cross term int_U int_W g(x-y) for disjoint shapes: two ball
    configurations have no pair of balls that meet, other shapes have no
    cell in common on the fine level the integral runs on
    (``_disjoint_levels``)."""
    if geometry.is_empty(U) or geometry.is_empty(W):
        return IntegralEstimate(0.0, 0.0, 0, "tensor-midpoint")
    if isinstance(U, BallConfig) and isinstance(W, BallConfig):
        meet = geometry._first_meeting((U.centers, U.radii), (W.centers, W.radii))
        if meet is not None:
            i, j, d, rs = meet
            raise PreconditionError(
                f"ball {i} of the first shape and ball {j} of the second are not "
                f"disjoint (center distance {d:.6g} <= radius sum {rs:.6g})"
            )
        if isinstance(g, (KernelSpec, int, float)):
            values, errors = _balls_cross((g,), U, W)
            return IntegralEstimate(float(values[0]), float(errors[0]), 0, "radial-reduction")
    return quadrature._pair_estimate(_disjoint_levels(U, W, spec), g)
