"""Hyperplane-splitting experiments: the cut inequality, its layer-cake
reductions, the sphere integral of clipped projections, and the averaged
mass bound.

For a unit direction nu and level l the shape splits into an upper part
E+ = E intersect {x.nu >= l} and a lower part E-.  The cut inequality
compares the riesz interaction across the cut (LHS) against twice the
kernel interaction plus the background mass of the lower part (RHS); a
negative defect RHS - LHS means separating the two parts strictly lowers
the energy, the signature used by the nonexistence experiments.

Every cut is taken on two grids: the shape's fine grid (a voxel shape
itself, a ball voxelized at the budget's cells per axis) and that grid's
coarsening, from ``quadrature._grids`` of the fine grid.  Each grid is
cut by its own cell centers, so the two sides of a cut tile each grid and
no cell is on both sides; a record's values come from the fine grid and
its errors are the changes from the coarse one.  ``splitting_defect`` is
one level of ``scan``.

On a tensor grid one sweep serves every level of a direction.  The
occupied cells are sorted by descending projection on nu
(``_sweep_order``, which also counts the cells above each level), so the
upper side of every cut is a prefix U of that order and the upper sides
are nested.  ``_level_cross`` gives the cross pair sum S_T(U, E - U) of a
stencil T as S_T(U, E), a prefix sum of the pair field, minus S_T(U, U),
which Parseval's identity turns into (1/G) sum_k Re T-hat_k |U-hat_k|^2.
Both live on one FFT grid of at least twice the occupied box: the field
is one inverse FFT per stencil there, computed once per grid with the
weights Re T-hat (``_sweep_grid``), and each distinct level takes one FFT
of U, whose spectrum serves both stencils.  Per-cell fields such as the
background become prefix sums, and the scan on both grids and the
layer-cake checks read their cuts from these arrays.

The closed form used for the sphere integral of (x.nu)_+ is
omega_{N-2} |x| / (N-1); the variant without the 1/(N-1) polar Jacobian
factor is also exposed because it circulates in derivations.  The factor
multiplies both sides of the averaged inequality identically, so averaged
conclusions are unaffected by the choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import energy as energy_mod
from . import geometry, quadrature
from .errors import ParameterError
from .energy import EnergyParams
from .geometry import Shape, VoxelShape
from .quadrature import IntegralEstimate, QuadratureSpec

_DEFAULT_L_COUNT = 64
_DEFAULT_NU_COUNT = {2: 16, 3: 64}


@dataclass(frozen=True)
class SliceDefectRecord:
    """One cut: direction, level, the three inequality terms, the defect."""

    nu: np.ndarray
    l: float
    lhs: float
    cross_kernel: float
    background_minus: float
    rhs: float
    defect: float
    lhs_error: float
    rhs_error: float

    @property
    def combined_error(self) -> float:
        return self.lhs_error + self.rhs_error

    def as_record(self) -> dict:
        rec = {}
        for i, c in enumerate(np.asarray(self.nu, dtype=float)):
            rec[f"nu{i}"] = float(c)
        rec.update(
            {
                "l": self.l,
                "lhs": self.lhs,
                "cross_kernel": self.cross_kernel,
                "background_minus": self.background_minus,
                "rhs": self.rhs,
                "defect": self.defect,
                "lhs_error": self.lhs_error,
                "rhs_error": self.rhs_error,
            }
        )
        return rec


def _unit(nu) -> np.ndarray:
    nu = np.asarray(nu, dtype=float)
    n = float(np.linalg.norm(nu))
    if n == 0:
        raise ParameterError("direction must be nonzero")
    return nu / n


# ---------------------------------------------------------------------------
# Level sweep (tensor grids)

# The level sweep transforms its nested sets in blocks of about this many
# bytes of spectra and FFT temporaries.
_SWEEP_BLOCK_BYTES = 16 << 20


def _sweep_order(vox: VoxelShape, nu: np.ndarray, levels) -> Tuple[np.ndarray, np.ndarray]:
    """Occupied cells of ``vox`` by descending projection on ``nu``, and per
    level the number of those cells with projection >= level: the cut at
    ``levels[i]`` puts the first ``counts[i]`` swept cells on the upper side."""
    idx = np.argwhere(vox.occupancy)
    proj = (vox.origin + (idx + 0.5) * vox.spacing) @ nu
    order = np.argsort(-proj, kind="stable")
    ascending = proj[order][::-1]
    counts = len(order) - np.searchsorted(ascending, levels, side="left")
    return idx[order], counts


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    """[0, v0, v0 + v1, ...]: the running sums over the first k swept cells."""
    return np.concatenate(([0.0], np.cumsum(values)))


def _sweep_grid(vox: VoxelShape, integrands) -> tuple:
    """What the level sweep of ``vox`` needs, computed once per grid and
    shared by every direction: the first index and the size of the occupied
    cells' bounding box, the FFT shape of ``quadrature._pair_sum_weights``
    on it, and per integrand the pair field S_T(i, E) at its cells i and
    Re W of T's Parseval weights, once per real and imaginary part."""
    occ = vox.occupancy
    idx = np.argwhere(occ) if vox.count else np.zeros((1, vox.dimension), dtype=int)
    lo = idx.min(axis=0)
    box = tuple(int(b) for b in idx.max(axis=0) - lo + 1)
    fshape, fields = quadrature._pair_fields(
        occ[tuple(map(slice, lo, lo + box))],
        (quadrature._stencil(occ.shape, vox.spacing, igd) for igd in integrands),
    )
    terms = [(field, np.repeat(W.real.ravel(), 2)) for field, W in fields]
    return lo, box, fshape, terms


def _level_cross(grid: tuple, cells: np.ndarray, counts: np.ndarray) -> List[np.ndarray]:
    """Per integrand of ``grid`` (``_sweep_grid``), cross[i] = S_T(U, E - U)
    for U the first counts[i] of ``cells``, the occupied cells of E in
    sweep order (``_sweep_order``).

    S_T(U, E) is a prefix sum of the pair field.  S_T(U, U) is a Parseval
    sum over the spectrum of U, computed once per distinct count: the
    indicators of the nested sets U are running sums of the slabs of cells
    between consecutive counts, built and transformed a block of levels at
    a time, each block starting from the last indicator of the one before.
    One spectrum serves every integrand.  A count that leaves a side empty
    gives exactly 0.
    """
    lo, box, fshape, terms = grid
    n = len(cells)
    splits = (counts > 0) & (counts < n)
    # the distinct splitting counts (np.unique would import numpy.ma)
    inner = np.flatnonzero(np.bincount(counts[splits]))
    out = [np.zeros(len(counts)) for _ in terms]
    if not len(inner):
        return out
    # the cell at sweep position p joins U at the first count above p
    slab = np.searchsorted(inner, np.arange(inner[-1]), side="right")
    local = cells - lo
    self_sums = np.empty((len(terms), len(inner)))
    # bytes per level: the spectrum and the FFT's zero-padded intermediates
    # (W holds 2 weights per complex entry)
    block = max(1, int(_SWEEP_BLOCK_BYTES // (24 * terms[0][1].size)))
    axes = tuple(range(1, len(box) + 1))
    upper = np.zeros(box)
    for j0 in range(0, len(inner), block):
        j1 = min(j0 + block, len(inner))
        new = slice(inner[j0 - 1] if j0 else 0, inner[j1 - 1])
        stack = np.zeros((j1 - j0,) + box)
        stack[(slab[new] - j0,) + tuple(local[new].T)] = 1.0
        stack[0] += upper
        np.cumsum(stack, axis=0, out=stack)
        upper = stack[-1].copy()
        # W against |U^|^2: the squares of the spectrum's real and
        # imaginary parts, taken in place
        parts = np.fft.rfftn(stack, fshape, axes=axes).view(float).reshape(j1 - j0, -1)
        np.square(parts, out=parts)
        for t, (_, W) in enumerate(terms):
            self_sums[t, j0:j1] = parts @ W
    at = np.searchsorted(inner, counts[splits])
    for t, (field, _) in enumerate(terms):
        with_all = _prefix_sums(field[tuple(local.T)])[inner]
        out[t][splits] = (with_all - self_sums[t])[at]
    return out


def _background_cell_field(vox: VoxelShape, beta: float) -> np.ndarray:
    """Per-cell integrals of |x|^{-beta} over the occupied cells of ``vox``
    (zero elsewhere)."""
    fld = np.zeros(vox.occupancy.shape)
    if vox.count:
        means = quadrature._singular_cell_means(vox.cell_centers(), vox.spacing, beta)
        fld[vox.occupancy] = means * vox.spacing ** vox.dimension
    return fld


def default_direction_grid(N: int, count: Optional[int] = None) -> np.ndarray:
    """Scan directions: uniform half-circle angles (N=2) or a Fibonacci
    sphere (N=3)."""
    count = count or _DEFAULT_NU_COUNT[N]
    if N == 2:
        ang = np.arange(count) * math.pi / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    if N == 3:
        i = np.arange(count)
        z = 1.0 - 2.0 * (i + 0.5) / count
        golden = math.pi * (3.0 - math.sqrt(5.0))
        phi = i * golden
        su = np.sqrt(np.clip(1.0 - z ** 2, 0.0, None))
        return np.stack([su * np.cos(phi), su * np.sin(phi), z], axis=-1)
    raise ParameterError(f"direction grids support N in {{2, 3}}, got {N}")


def default_level_grid(vox_or_shape: Shape, nu: np.ndarray, count: int = _DEFAULT_L_COUNT) -> np.ndarray:
    """Uniform levels spanning the shape's extent along nu, padded 10%."""
    lo, hi = vox_or_shape.bounding_box()
    corners = np.array(
        [[lo[i] if (k >> i) & 1 == 0 else hi[i] for i in range(len(lo))] for k in range(2 ** len(lo))]
    )
    proj = corners @ nu
    pmin, pmax = float(proj.min()), float(proj.max())
    pad = 0.1 * (pmax - pmin)
    return np.linspace(pmin - pad, pmax + pad, count)


def _cut_grids(E: Shape, params: EnergyParams, spec: QuadratureSpec) -> list:
    """The cut grids of E, fine then coarse (see the module docstring),
    each with its sweep grid (riesz, then kernel) and its background cell
    field."""
    N = E.dimension
    budget = spec.resolved_budget(N)
    integrands = (
        quadrature.riesz_integrand(N, params.alpha),
        quadrature.kernel_integrand(params.kernel),
    )
    return [
        (v, _sweep_grid(v, integrands), _background_cell_field(v, params.beta))
        for v in quadrature._grids(quadrature._as_grid(E, budget), budget)
    ]


def _cut_records(grids: list, nu: np.ndarray, levels, A: float) -> tuple:
    """The records of the cuts (nu, l), l in ``levels``, on the fine grid of
    ``_cut_grids`` with the change from the coarse grid as their errors,
    and per cut whether it leaves cells of the fine grid on both sides.
    A cut that leaves a side empty has zero interactions."""
    terms = []
    for v, sweep, bfield in grids:
        cells, k = _sweep_order(v, nu, levels)
        lhs, ck = _level_cross(sweep, cells, k)
        bkg = _prefix_sums(bfield[tuple(cells.T)])
        bm = bkg[-1] - bkg[k]
        terms.append((lhs, ck, bm, 2.0 * ck + A * bm, (k > 0) & (k < len(cells))))
    (lhs, ck, bm, rhs, splits), (lhs_c, _, _, rhs_c, _) = terms
    records = [
        SliceDefectRecord(
            nu=nu,
            l=float(l),
            lhs=float(a),
            cross_kernel=float(b),
            background_minus=float(c),
            rhs=float(d),
            defect=float(d - a),
            lhs_error=float(ea),
            rhs_error=float(ed),
        )
        for l, a, b, c, d, ea, ed in zip(
            levels, lhs, ck, bm, rhs, np.abs(lhs - lhs_c), np.abs(rhs - rhs_c)
        )
    ]
    return records, splits


def splitting_defect(
    E: Shape, nu, l: float, params: EnergyParams, spec: QuadratureSpec
) -> SliceDefectRecord:
    """Evaluate the cut inequality for one (nu, l).

    LHS is the riesz interaction between the two sides, RHS is twice the
    kernel interaction plus A times the background mass of the lower side.
    A negative defect (RHS - LHS) is the nonexistence signature: moving
    the upper part to infinity lowers the energy.  A cut that leaves a side
    empty has zero interactions.  This is one level of ``scan``: the same
    grids, values and errors.
    """
    nu = _unit(nu)
    (rec,), _ = _cut_records(_cut_grids(E, params, spec), nu, [float(l)], params.A)
    return rec


@dataclass(frozen=True)
class ScanResult:
    records: List[SliceDefectRecord]
    integrated_defect: List[Tuple[np.ndarray, float]]
    min_defect: float
    min_record: SliceDefectRecord


def scan(
    E: Shape,
    params: EnergyParams,
    spec: QuadratureSpec,
    nu_grid: Optional[Sequence] = None,
    l_grid: Optional[Sequence[float]] = None,
    nu_count: Optional[int] = None,
    l_count: int = _DEFAULT_L_COUNT,
) -> ScanResult:
    """Defect table over the cuts of a grid that split the shape, with the
    l-integrated defect per direction (trapezoid over the whole level grid,
    where a cut that leaves a side empty has zero interactions).  Every
    cut is read off one level sweep per direction of each cut grid (see
    the module docstring).  A cut is kept when both sides hold cells of
    the fine grid; ``min_defect`` is the least kept defect."""
    N = E.dimension
    if nu_grid is None:
        if nu_count is not None and nu_count < 0:
            raise ParameterError(f"nu_count must be >= 0 (0: the default), got {nu_count}")
        nu_grid = default_direction_grid(N, nu_count)
    if l_grid is None and l_count < 1:
        raise ParameterError(f"l_count must be >= 1, got {l_count}")
    nu_grid = [np.asarray(_unit(nu)) for nu in nu_grid]
    if not nu_grid or (l_grid is not None and len(l_grid) == 0):
        raise ParameterError("scan needs a nonempty nu_grid and l_grid")
    grids = _cut_grids(E, params, spec)
    records: List[SliceDefectRecord] = []
    integrated: List[Tuple[np.ndarray, float]] = []
    for nu in nu_grid:
        levels = (
            np.asarray(l_grid, dtype=float)
            if l_grid is not None
            else default_level_grid(grids[0][0], nu, l_count)
        )
        row, splits = _cut_records(grids, nu, levels, params.A)
        records.extend(r for r, keep in zip(row, splits) if keep)
        integrated.append((nu, float(np.trapezoid([r.defect for r in row], levels))))
    if not records:
        raise ParameterError("no level of the scan splits the shape")
    best = min(records, key=lambda r: r.defect)
    return ScanResult(records, integrated, best.defect, best)


# ---------------------------------------------------------------------------
# Sphere integral and layer-cake identities


def sphere_positive_integral(x) -> float:
    """Closed form of the sphere integral of (x . nu)_+ over directions nu:
    omega_{N-2} |x| / (N - 1) (the polar Jacobian sin^{N-2} integrates to
    1/(N-1) against the clipped cosine).
    """
    x = np.asarray(x, dtype=float)
    N = x.shape[-1]
    if N not in (2, 3):
        raise ParameterError(f"sphere integral supports N in {{2, 3}}, got {N}")
    omega_sub = geometry.unit_sphere_area(N - 1)
    r = float(np.linalg.norm(x))
    return omega_sub * r / (N - 1)


@dataclass(frozen=True)
class LayerCakeChecks:
    """Residuals of the two layer-cake identities for one direction."""

    residual_background: float
    residual_riesz: float
    lhs_background: float
    rhs_background: float
    lhs_riesz: float
    rhs_riesz: float
    error_background: float
    error_riesz: float


def layer_cake_checks(
    E: Shape,
    nu,
    spec: QuadratureSpec,
    l_count: int = _DEFAULT_L_COUNT,
    beta: float = 1.0,
) -> LayerCakeChecks:
    """Check the two Fubini reductions behind the averaged bound.

    First identity: the integral over l < 0 of the lower-side background
    mass equals the direct integral of (-x.nu)_+ |x|^{-beta} over E.
    Second identity: the integral over all l of the cross riesz term
    equals the pair integral of ((y-x).nu)_+ / |x-y| over E x E.  Both
    left sides use an l-grid trapezoid.

    Refinement behavior differs between the two residuals.  The first
    integrand is cut off at l = 0, so its trapezoid error genuinely
    decreases as the l-grid refines.  The second integrand is smooth with
    compact support on a voxel shape, where the trapezoid rule converges
    spectrally; its residual drops to the step-aliasing floor of the
    prefix classification almost immediately, after which further l
    refinement moves it only through the sampling of the cell-count
    steps, not through a systematic error term.
    """
    nu = _unit(nu)
    N = E.dimension
    vox = quadrature._as_grid(E, spec.resolved_budget(N))
    if not vox.count:
        return LayerCakeChecks(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    h = vox.spacing
    centers = vox.cell_centers()
    p = centers @ nu
    pmin, pmax = float(p.min()), float(p.max())
    span = h + pmax - pmin
    # identity 1 integrates over l in (-inf, 0], identity 2 over all l
    levels1 = np.linspace(min(pmin, 0.0) - 0.05 * span - h, 0.0, l_count)
    levels2 = np.linspace(pmin - 0.05 * span - h, pmax + 0.05 * span + h, 2 * l_count)
    cells, k = _sweep_order(vox, nu, np.concatenate((levels1, levels2)))
    bkg = _prefix_sums(_background_cell_field(vox, beta)[tuple(cells.T)])
    lower_background = bkg[-1] - bkg[k[:l_count]]
    sweep = _sweep_grid(vox, [quadrature.riesz_integrand(N, 1.0)])
    (cross_riesz,) = _level_cross(sweep, cells, k[l_count:])

    lhs1 = float(np.trapezoid(lower_background, levels1))
    lhs1_half = float(np.trapezoid(lower_background[::2], levels1[::2]))
    r = np.linalg.norm(centers, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(r > 0, np.clip(-p, 0.0, None) * r ** (-beta), 0.0)
    rhs1 = float(np.sum(integrand)) * h ** N
    res1 = abs(lhs1 - rhs1)
    err1 = abs(lhs1 - lhs1_half)

    lhs2 = float(np.trapezoid(cross_riesz, levels2))
    lhs2_half = float(np.trapezoid(cross_riesz[::2], levels2[::2]))
    rhs2_est = quadrature.double_integral(
        vox, vox, quadrature.directional_positive_integrand(nu), spec
    )
    res2 = abs(lhs2 - rhs2_est.value)
    err2 = abs(lhs2 - lhs2_half) + rhs2_est.error
    return LayerCakeChecks(
        residual_background=res1,
        residual_riesz=res2,
        lhs_background=lhs1,
        rhs_background=rhs1,
        lhs_riesz=lhs2,
        rhs_riesz=float(rhs2_est.value),
        error_background=err1,
        error_riesz=err2,
    )


# ---------------------------------------------------------------------------
# Averaged mass bound


@dataclass(frozen=True)
class AveragedBoundReport:
    """Cut inequality averaged over directions and levels.

    After dividing out the sphere constant the inequality a minimizer must
    satisfy reads  m^2 <= 2 Q + A B  with Q the kernel first-moment pair
    sum and B the background first moment; ``signature`` is set when the
    shape violates it beyond three combined errors.
    """

    mass: float
    q_value: float
    q_error: float
    b_value: float
    b_error: float
    lhs: float
    rhs: float
    defect: float
    combined_error: float
    signature: bool
    sphere_constant: float
    sphere_constant_variant: float
    note: str = ""

    def as_record(self) -> dict:
        return {
            "mass": self.mass,
            "q_value": self.q_value,
            "q_error": self.q_error,
            "b_value": self.b_value,
            "b_error": self.b_error,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "defect": self.defect,
            "combined_error": self.combined_error,
            "signature": self.signature,
            "sphere_constant": self.sphere_constant,
            "sphere_constant_variant": self.sphere_constant_variant,
            "note": self.note,
        }


def averaged_mass_bound(E: Shape, params: EnergyParams, spec: QuadratureSpec) -> AveragedBoundReport:
    """Average the cut inequality over (nu, l) in closed form.

    Integrating the cut inequality over levels and directions turns the
    cross riesz term into the squared mass, the kernel term into the
    first-moment pair sum Q = pair integral of K(x-y) |x-y|, and the
    background term into B = integral of |x|^{1-beta}; the shared sphere
    constant divides out.  A minimizer satisfies m^2 <= 2 Q + A B, so a
    violation beyond error bars is a nonexistence signature.  For one
    ball and the fractional kernel, Q is the closed-form riesz pair
    integral of exponent N + s - 1, wherever the ball sits.
    """
    N = E.dimension
    c_corr = geometry.unit_sphere_area(N - 1) / (N - 1)
    c_var = geometry.unit_sphere_area(N - 1)
    if geometry.is_empty(E):
        return AveragedBoundReport(
            mass=0.0, q_value=0.0, q_error=0.0, b_value=0.0, b_error=0.0,
            lhs=0.0, rhs=0.0, defect=0.0, combined_error=0.0, signature=False,
            sphere_constant=c_corr, sphere_constant_variant=c_var,
            note="empty shape; averaged inequality is vacuous",
        )
    m = geometry.volume(E)
    kernel = params.kernel
    moment_sigma = kernel.sigma - 1.0

    q_est: IntegralEstimate
    if (
        isinstance(E, geometry.BallConfig)
        and E.count == 1
        and kernel.kind == "fractional"
        and 0.0 < moment_sigma < N
    ):
        R = float(E.radii[0])
        q = 2.0 * energy_mod._ball_self_riesz(N, moment_sigma, R)
        q_est = IntegralEstimate(q, 1e-10 * abs(q), 0, "closed-form")
    else:
        q_est = quadrature.double_integral(
            E, E, quadrature.kernel_moment_integrand(kernel), spec
        )

    b_exp = params.beta - 1.0
    if isinstance(E, geometry.BallConfig):
        total, err = energy_mod._balls_background(b_exp, E)
        b_est = IntegralEstimate(total, err, 0, "radial-reduction")
    else:
        b_est = quadrature.integral_over(E, b_exp, spec)

    lhs = m * m
    rhs = 2.0 * q_est.value + params.A * b_est.value
    err = 2.0 * q_est.error + params.A * b_est.error
    defect = rhs - lhs
    signature = defect < -3.0 * err
    return AveragedBoundReport(
        mass=m,
        q_value=q_est.value,
        q_error=q_est.error,
        b_value=b_est.value,
        b_error=b_est.error,
        lhs=lhs,
        rhs=rhs,
        defect=defect,
        combined_error=err,
        signature=signature,
        sphere_constant=c_corr,
        sphere_constant_variant=c_var,
        note="sphere constant divides out of both sides",
    )
