"""Tests for the integration engines.

Reference values were computed independently with scipy.integrate
(dblquad/nquad with explicit breakpoint lists) and with closed forms, then
frozen here; the engine must reproduce them without sharing code paths.
"""

import dataclasses
import itertools
import math
import tracemalloc
from collections import OrderedDict

import mpmath
import numpy as np
import pytest
from scipy import signal

from nldrop.errors import ParameterError
from nldrop import geometry, quadrature, slicing
from nldrop.energy import EnergyParams
from nldrop.kernels import KernelSpec
from nldrop.quadrature import (
    PointSingularity,
    QuadratureSpec,
    OffsetIntegrand,
    cell_pair_integral,
    complement_double_integral,
    directional_positive_integrand,
    double_integral,
    integral_over,
    kernel_integrand,
    kernel_moment_integrand,
    point_singularity_cell_integral,
    riesz_integrand,
    sphere_average,
    voxelize,
    _fft_pair_sum,
    _pair_fields,
    _stencil,
)

# independently computed with scipy.integrate.quad/dblquad on the
# difference-variable form (triangular cell weight, breakpoints at the
# weight apex and the origin)
SAME_CELL_N2_SIGMA1_UNIT = 2.973209598247377
ADJACENT_N2_SIGMA1_H025 = 0.01737701077889105
DIAGONAL_N2_FRAC_HALF_H025 = 0.08450104983574339
POINTSING_BOX_N2 = 4.744602115449199
POINTSING_SMOOTH_N2 = 0.29887985952395063
# |x|^-1 over [-0.7, 0.3] x [-1, 0], the singular point on the top face
POINTSING_FACE_N2 = 2.3321427312412855

# 3-D values frozen from the engine's earlier box-by-box dyadic recursion
# (no independent reference): the level-batched recursion must keep them
SAME_CELL_N3_RIESZ1_UNIT = 1.8823126437327702
FACE_N3_FRAC_HALF_UNIT = 4.985085792845331
POINTSING_BOX_N3 = 3.4472763690597166

# high-accuracy radial reduction value for the fractional boundary energy
# of the unit disk at s = 1/2 (checked against two independent quadratures)
DISK_BOUNDARY_HALF = 62.13063877777980


def frac_kernel(N=2, s=0.5, eps=0.7, lam=1.0):
    return KernelSpec(dimension=N, s=s, epsilon=eps, lam=lam, kind="fractional")


class TestSpecValidation:
    def test_unknown_method(self):
        with pytest.raises(ParameterError):
            QuadratureSpec(method="simpson")

    def test_small_budget(self):
        with pytest.raises(ParameterError):
            QuadratureSpec(budget=10)

    def test_riesz_exponent_range(self):
        with pytest.raises(ParameterError):
            riesz_integrand(2, 2.0)
        with pytest.raises(ParameterError):
            riesz_integrand(2, 0.0)


class TestCellPairIntegral:
    def test_same_cell_riesz_scaled(self):
        # the unit-cell value scales by h^(2N - sigma)
        rz = riesz_integrand(2, 1.0)
        h = 0.25
        got = cell_pair_integral(np.zeros(2), h, rz)
        assert got == pytest.approx(h ** 3 * SAME_CELL_N2_SIGMA1_UNIT, rel=1e-8)

    def test_adjacent_cell_riesz(self):
        rz = riesz_integrand(2, 1.0)
        got = cell_pair_integral(np.array([0.25, 0.0]), 0.25, rz)
        assert got == pytest.approx(ADJACENT_N2_SIGMA1_H025, rel=1e-8)

    def test_diagonal_cell_boundary_kernel(self):
        ki = kernel_integrand(frac_kernel())
        got = cell_pair_integral(np.array([0.25, 0.25]), 0.25, ki)
        assert got == pytest.approx(DIAGONAL_N2_FRAC_HALF_H025, rel=1e-7)

    def test_same_cell_riesz_3d(self):
        rz = riesz_integrand(3, 1.0)
        got = cell_pair_integral(np.zeros(3), 1.0, rz)
        assert got == pytest.approx(SAME_CELL_N3_RIESZ1_UNIT, rel=1e-9)

    def test_face_adjacent_kernel_3d(self):
        ki = kernel_integrand(frac_kernel(N=3))
        got = cell_pair_integral(np.array([0.0, 0.0, 1.0]), 1.0, ki)
        assert got == pytest.approx(FACE_N3_FRAC_HALF_UNIT, rel=1e-9)

    def test_far_pair_matches_midpoint(self):
        # smooth regime: the exact pair integral approaches the midpoint value
        rz = riesz_integrand(2, 1.0)
        h = 0.1
        d = np.array([3.0, 1.0])
        got = cell_pair_integral(d, h, rz)
        mid = float(rz.vec(d[None, :])[0]) * h ** 4
        assert got == pytest.approx(mid, rel=1e-3)

    @pytest.mark.parametrize("s", [0.5, 0.95, 0.99])
    @pytest.mark.parametrize("cap", [1e3, 1e6])
    @pytest.mark.parametrize("h", [0.1, 1.0])
    def test_truncated_face_pair_is_fractional_minus_the_cap_deficit(self, s, cap, h):
        # the truncated kernel differs from r^-sigma only inside r_cap < h,
        # where the face pair's weight is (h - |z_1|) z_2 on the upper half
        # disk: the deficit is 2h int (r^-sigma - cap) r^2 - int (r^-sigma - cap) r^3
        # over [0, r_cap].  The kink at r_cap cost about 1e-4 of the value
        # when Gauss-Legendre boxes straddled it.
        sigma = 2.0 + s
        rc = cap ** (-1.0 / sigma)
        assert rc < h
        deficit = 2.0 * h * (rc ** (3.0 - sigma) / (3.0 - sigma) - cap * rc ** 3 / 3.0) - (
            rc ** (4.0 - sigma) / (4.0 - sigma) - cap * rc ** 4 / 4.0
        )
        d = np.array([0.0, h])
        frac = cell_pair_integral(d, h, kernel_integrand(frac_kernel(s=s)))
        trunc = KernelSpec(dimension=2, s=s, epsilon=0.7, kind="truncated-fractional", cap=cap)
        got = cell_pair_integral(d, h, kernel_integrand(trunc))
        assert got == pytest.approx(frac - deficit, rel=1e-12)

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("face", [False, True])
    def test_refinement_reaches_the_core_before_the_series_closes(self, N, face):
        # g = |z|^-1 (1 + |z|^8) is |z|^-1 to rounding below 1e-2, and it is
        # the sum of two power laws whose pair integrals close from level 0
        def norm(z):
            return np.sqrt(np.sum(z ** 2, axis=-1))

        def direct(vec, core):
            return OffsetIntegrand(dimension=N, sigma=1.0, vec=vec, cache_token=None, explicit_core=core)

        g = direct(lambda z: (1.0 + norm(z) ** 8) / norm(z), (1e-2, 1.0))
        d = np.eye(N)[-1] if face else np.zeros(N)
        parts = cell_pair_integral(d, 1.0, riesz_integrand(N, 1.0)) + cell_pair_integral(
            d, 1.0, direct(lambda z: norm(z) ** 7, (math.inf, -7.0))
        )
        assert cell_pair_integral(d, 1.0, g) == pytest.approx(parts, rel=1e-13)


class TestPointSingularityCell:
    def test_interior_singularity(self):
        got = point_singularity_cell_integral([0, 0], [1, 1], [0.3, 0.4], 1.2, 2)
        assert got == pytest.approx(POINTSING_BOX_N2, rel=1e-7)

    def test_interior_singularity_3d(self):
        got = point_singularity_cell_integral([0, 0, 0], [1, 1, 1], [0.3, 0.4, 0.2], 1.5, 3)
        assert got == pytest.approx(POINTSING_BOX_N3, rel=1e-9)

    def test_negative_exponent_smooth(self):
        got = point_singularity_cell_integral([0, 0], [1, 1], [0.3, 0.4], -1.5, 2)
        assert got == pytest.approx(POINTSING_SMOOTH_N2, rel=1e-9)

    def test_singular_point_within_rounding_of_a_face(self):
        # a face computed as (-h/2) + h/2 can land 1e-17 beside the singular
        # point; the box must still be refined as if the point were on it
        got = point_singularity_cell_integral([-0.7, -1.0], [0.3, -1e-17], [0, 0], 1.0, 2)
        assert got == pytest.approx(POINTSING_FACE_N2, rel=1e-5)

    def test_divergent_exponent_rejected(self):
        with pytest.raises(ParameterError):
            point_singularity_cell_integral([0, 0], [1, 1], [0.3, 0.4], 2.0, 2)


def _deep_pair_reference(g, d, h, p0, levels=80):
    """Cell pair at offset d, cells of side h, integrand g that is
    homogeneous of degree -p0 near 0: the dyadic recursion written out
    level by level with the triangular weight taken as
    (h - |d_i|) + sign(d_i) z_i on the origin side of d_i, which loses no
    digits near the origin, and the tail past the last level closed at the
    exact leading ratio 2^-(N - p0 + m), m the number of axes with
    |d_i| = h.  It refines every level as it is, with no core and no
    closed-form series."""
    d = np.asarray(d, dtype=float)
    N = d.size

    def weight(z):
        w = np.ones(z.shape[0])
        for i, di in enumerate(d):
            if di == 0.0:
                w = w * (h - np.abs(z[:, i]))
            else:
                near_side = (z[:, i] - di) * np.sign(di) <= 0.0
                w = w * np.where(
                    near_side, (h - abs(di)) + np.sign(di) * z[:, i], h - np.abs(z[:, i] - di)
                )
        return w

    lo, hi = quadrature._grid_boxes([quadrature._axis_breaks(di, h) for di in d])
    total = last = 0.0
    for _ in range(levels + 1):
        touch = np.all((lo <= 0.0) & (hi >= 0.0), axis=1)
        pts, w = quadrature._box_nodes(lo[~touch], hi[~touch])
        last = float(np.sum(g(pts) * weight(pts) * w))
        total += last
        lo, hi = lo[touch], hi[touch]
        if lo.shape[0] == 0:
            return total
        halves = []
        for corner in itertools.product((0, 1), repeat=N):
            up = np.array(corner, dtype=bool)
            mid = 0.5 * (lo + hi)
            halves.append((np.where(up, mid, lo), np.where(up, hi, mid)))
        lo = np.concatenate([a for a, _ in halves])
        hi = np.concatenate([b for _, b in halves])
    ratio = 2.0 ** -(N - p0 + np.count_nonzero(np.abs(d) == h))
    return total + last * ratio / (1.0 - ratio)


def _face_pair_reference(N, s, levels=250):
    """Cell pair at offset (0, ..., 0, 1), unit cells, fractional kernel."""
    return _deep_pair_reference(
        kernel_integrand(frac_kernel(N=N, s=s)).vec, np.eye(N)[-1], 1.0, N + s, levels
    )


def _cap_deficit(d, h, cap, sigma):
    """Integral of (|z|^-sigma - cap)_+ against the pair weight at offset d
    when r_cap = cap^(-1/sigma) < h and each |d_i| is 0 or h: on the ball
    of radius r_cap the weight is prod (h - |z_i|) over the axes with
    d_i = 0 times prod (z_i sign d_i)_+ over the others.  Expanding the
    first product over subsets S, each term is a radial integral times the
    sphere integral 2 pi^((N - k) / 2) / Gamma((N + k) / 2) of a product
    of k distinct |theta_i|, halved for each one-sided axis."""
    N, rc = len(d), cap ** (-1.0 / sigma)
    sides = [i for i in range(N) if d[i] != 0.0]
    free = N - len(sides)
    total = 0.0
    for n in range(free + 1):
        k = len(sides) + n
        radial = rc ** (N + k - sigma) / (N + k - sigma) - cap * rc ** (N + k) / (N + k)
        sphere = 2.0 * math.pi ** ((N - k) / 2.0) / math.gamma((N + k) / 2.0)
        total += math.comb(free, n) * h ** (free - n) * (-1.0) ** n * 0.5 ** len(sides) * radial * sphere
    return total


def _same_cell_riesz_2d(alpha):
    """Same-cell riesz integral of the unit square: in polar coordinates
    over the eighth 0 <= theta <= pi/4 of [0, 1]^2 (R = 1 / cos theta),
    8 int [R^(2-a)/(2-a) - (c+s) R^(3-a)/(3-a) + cs R^(4-a)/(4-a)]."""
    a = mpmath.mpf(alpha)

    def f(t):
        c, s = mpmath.cos(t), mpmath.sin(t)
        R = 1 / c
        return (
            R ** (2 - a) / (2 - a)
            - (c + s) * R ** (3 - a) / (3 - a)
            + c * s * R ** (4 - a) / (4 - a)
        )

    with mpmath.workdps(30):
        return float(8 * mpmath.quad(f, [0, mpmath.pi / 4]))


class TestClosedFormCornerSeries:
    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("s", [0.5, 0.93, 0.95, 0.99])
    def test_face_near_values_match_a_deep_reference(self, monkeypatch, N, s):
        # the 40-level recursion with a ratio capped at 0.95 missed these by
        # 7e-11 (s = 1/2) up to 0.66 (s = 0.99)
        _fresh_caches(monkeypatch)
        off = np.zeros((1, N))
        off[0, -1] = 1.0
        got = quadrature._near_values(off, 1.0, kernel_integrand(frac_kernel(N=N, s=s)))[0]
        assert got == pytest.approx(_face_pair_reference(N, s), rel=1e-13)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 1.9, 1.99])
    def test_same_cell_riesz_2d(self, alpha):
        # the 6-point Gauss-Legendre rule of the level boxes sets a floor
        # near 3e-9; the capped extrapolation gave 207.71 for 621.41 at 1.99
        got = cell_pair_integral(np.zeros(2), 1.0, riesz_integrand(2, alpha))
        assert got == pytest.approx(_same_cell_riesz_2d(alpha), rel=1e-8)

    @pytest.mark.parametrize("N", [2, 3])
    def test_homogeneous_pairs_evaluate_at_most_n_plus_two_levels(self, N):
        calls = []
        cases = [
            (riesz_integrand(N, 1.0), np.zeros(N)),
            (kernel_integrand(frac_kernel(N=N)), np.eye(N)[-1]),
            (kernel_integrand(frac_kernel(N=N)), np.ones(N)),
            (kernel_moment_integrand(frac_kernel(N=N)), np.r_[0.5, np.zeros(N - 1)]),
        ]
        for igd, d in cases:
            del calls[:]

            def gvec(z, vec=igd.vec):
                calls.append(z.shape[0])
                return vec(z)

            cell_pair_integral(d, 1.0, dataclasses.replace(igd, vec=gvec))
            assert 1 <= len(calls) <= N + 2

    @pytest.mark.parametrize("N", [2, 3])
    def test_point_singularity_evaluates_at_most_two_levels(self, monkeypatch, N):
        calls = []
        box_nodes = quadrature._box_nodes

        def counted(lo, hi):
            calls.append(lo.shape[0])
            return box_nodes(lo, hi)

        monkeypatch.setattr(quadrature, "_box_nodes", counted)
        for center in (np.full(N, 0.3), np.zeros(N), np.r_[0.0, np.full(N - 1, 0.4)]):
            del calls[:]
            point_singularity_cell_integral(np.zeros(N), np.ones(N), center, N - 0.5, N)
            assert 1 <= len(calls) <= 2

    def test_divergent_pairs_are_rejected(self):
        # a 2 + s singularity interior to the support diverges: the zero
        # offset and (1/2, 0)
        ki = kernel_integrand(frac_kernel())
        for d in ([0.0, 0.0], [0.5, 0.0]):
            with pytest.raises(ParameterError):
                cell_pair_integral(np.array(d), 1.0, ki)
        # on the support's face it converges; an offset within rounding of
        # the face counts as on it
        face = cell_pair_integral(np.array([0.0, 1.0]), 1.0, ki)
        assert cell_pair_integral(np.array([0.0, 1.0 + 1e-15]), 1.0, ki) == face
        # outside the support there is no corner series and nothing diverges:
        # a kernel truncated at r = 1 agrees with r^-sigma on the whole
        # support |z| >= 1.5, whatever its core
        d = np.array([2.5, 0.0])
        far = cell_pair_integral(d, 1.0, ki)
        capped = KernelSpec(dimension=2, s=0.5, epsilon=0.7, kind="truncated-fractional", cap=1.0)
        assert kernel_integrand(capped).core == (1.0, 0.0)
        assert far == pytest.approx(cell_pair_integral(d, 1.0, kernel_integrand(capped)), rel=1e-14)

class TestStencilAndPairSum:
    def test_stencil_is_symmetric(self):
        rz = riesz_integrand(2, 1.0)
        T = _stencil((6, 5), 0.2, rz)
        assert np.allclose(T, T[::-1, ::-1], rtol=1e-12, atol=0)

    def test_cache_is_bounded_by_bytes(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_STENCIL_CACHE", OrderedDict())
        # room for two 7 x 7 tables of doubles
        monkeypatch.setattr(quadrature, "_STENCIL_CACHE_BYTES", 2 * 49 * 8)
        igd = quadrature.directional_positive_integrand(np.array([1.0, 0.0]))
        keys = [(igd.cache_token, (4, 4), h) for h in (0.1, 0.2, 0.3)]
        tables = [_stencil((4, 4), h, igd) for _, _, h in keys]
        cache = quadrature._STENCIL_CACHE
        assert sum(t.nbytes for t in cache.values()) <= quadrature._STENCIL_CACHE_BYTES
        assert keys[0] not in cache
        assert list(cache) == keys[1:]
        assert _stencil((4, 4), 0.3, igd) is tables[-1]
        # a hit makes its table the most recently used one
        _stencil((4, 4), 0.2, igd)
        _stencil((4, 4), 0.4, igd)
        assert list(cache) == [keys[1], (igd.cache_token, (4, 4), 0.4)]

    # (N, grid dims, case, stencil)
    PAIR_SUM_CASES = [
        (2, (6, 5), "cross", "riesz"),
        (2, (6, 5), "self", "riesz"),
        (3, (4, 5, 3), "cross", "riesz"),
        (3, (4, 5, 3), "self", "riesz"),
        (2, (6, 5), "cross", "dirpos"),
        (2, (6, 5), "self", "dirpos"),
        (3, (4, 5, 3), "cross", "dirpos"),
        (2, (9, 8), "subbox", "riesz"),  # occupied box smaller than the grid
        (3, (7, 6, 5), "subbox", "dirpos"),
        (2, (6, 5), "big-stencil", "riesz"),  # T of a larger grid
        (2, (6, 5), "one-cell", "riesz"),
        (3, (3, 4, 2), "one-cell-pair", "dirpos"),
        (2, (1, 6), "cross", "riesz"),  # length-1 axes
        (3, (5, 1, 4), "cross", "dirpos"),
        (2, (1, 1), "self", "riesz"),
    ]

    def test_fft_pair_sum_matches_direct_loop(self):
        # the reference is the definition: the sum over cells i of a and j
        # of b of T at offset j - i, within 1e-12 of the largest term
        for N, dims, case, igd_kind in self.PAIR_SUM_CASES:
            rng = np.random.default_rng(sum(dims) + len(case))
            nu = np.arange(1.0, N + 1) / np.linalg.norm(np.arange(1.0, N + 1))
            igd = riesz_integrand(N, 1.0) if igd_kind == "riesz" else directional_positive_integrand(nu)
            T = _stencil(tuple(d + 3 for d in dims) if case == "big-stencil" else dims, 0.3, igd)
            a = rng.random(dims) < 0.5
            b = rng.random(dims) < 0.5
            a[(0,) * N] = b[(-1,) * N] = True
            if case == "self":
                b = a
            elif case == "subbox":
                inner = tuple(slice(1, d - 2) for d in dims)
                a, b = np.zeros(dims, bool), np.zeros(dims, bool)
                a[inner] = rng.random(a[inner].shape) < 0.5
                b[inner] = rng.random(b[inner].shape) < 0.5
            elif case.startswith("one-cell"):
                a = np.zeros(dims, bool)
                a[tuple(d // 2 for d in dims)] = True
                b = a.copy() if case == "one-cell" else np.roll(a, 1, axis=0)
            centre = np.array(T.shape) // 2
            terms = [T[tuple(j - i + centre)] for i in np.argwhere(a) for j in np.argwhere(b)]
            got = _fft_pair_sum(a, b, T)
            assert abs(got - math.fsum(terms)) <= 1e-12 * max(abs(t) for t in terms), (dims, case, igd_kind)
            # an empty side gives exactly zero
            empty = np.zeros(dims, bool)
            assert _fft_pair_sum(empty, b, T) == 0.0
            assert _fft_pair_sum(a, empty, T) == 0.0
            assert _fft_pair_sum(empty, empty, T) == 0.0

    def test_pair_sums_take_no_pair_field(self):
        # every pair sum goes through the Parseval sum on the occupied box;
        # _pair_fields serves fields only
        assert not hasattr(quadrature, "_pair_field")
        ball = geometry.ball_of_volume(2, math.pi)
        other = geometry.translate(ball, np.array([2.5, 0.0]))
        spec = QuadratureSpec(budget=1024)
        assert complement_double_integral(ball, frac_kernel(), spec).value > 0
        assert double_integral(ball, other, 1.0, spec).value > 0
        assert double_integral(ball, ball, 1.0, spec).value > 0

    @pytest.mark.parametrize(
        "occ_shape, T_shape",
        [
            ((7, 5), (13, 9)),  # 2-D, the grid's own stencil
            ((4, 5, 3), (7, 9, 5)),  # 3-D
            ((1, 6), (1, 11)),  # a length-1 axis in both
            ((1, 6), (3, 11)),  # a length-1 occupancy axis under a longer stencil
            ((5, 1, 4), (9, 1, 7)),
            ((5, 6), (21, 17)),  # a stencil larger than the grid
            ((3, 4, 2), (9, 9, 9)),
            ((1, 1), (3, 5)),  # one cell: a one-point FFT grid
        ],
    )
    def test_pair_field_matches_fftconvolve(self, occ_shape, T_shape):
        # The reference is the definition, a direct sum over occupied j of
        # T at offset j - i; the FFT route agrees with scipy's fftconvolve
        # to rounding, not bit for bit.  Both stencils share one FFT of occ.
        rng = np.random.default_rng(sum(occ_shape) + sum(T_shape))
        occ = rng.random(occ_shape) < 0.6
        centre = np.array(T_shape) // 2
        occupied = np.argwhere(occ)
        stencils = [rng.random(T_shape), rng.random(T_shape)]
        fshape, fields = _pair_fields(occ, iter(stencils))
        assert fshape == tuple(quadrature._fast_len(2 * d - 1) for d in occ_shape)
        for T, (field, W) in zip(stencils, fields):
            direct = np.zeros(occ_shape)
            for i in np.ndindex(*occ_shape):
                direct[i] = np.sum(T[tuple((occupied - i + centre).T)])
            assert field.shape == occ_shape
            assert np.allclose(field, direct, rtol=1e-12, atol=0)
            ref = signal.fftconvolve(occ.astype(float), T[(slice(None, None, -1),) * T.ndim], mode="full")
            crop = tuple(slice(n // 2, n // 2 + d) for n, d in zip(T_shape, occ_shape))
            assert np.allclose(field, ref[crop], rtol=1e-12, atol=0)
            # W is the Parseval weight of the same stencil on the same grid
            assert np.allclose(W, quadrature._pair_sum_weights(T, occ_shape)[1], rtol=0, atol=0)

    def test_fast_len_matches_scipy(self):
        from scipy import fft

        for n in range(1, 4097):
            assert quadrature._fast_len(n) == fft.next_fast_len(n, True), n


def _fresh_caches(monkeypatch):
    monkeypatch.setattr(quadrature, "_STENCIL_CACHE", OrderedDict())
    monkeypatch.setattr(quadrature, "_NEAR_CACHE", OrderedDict())


def trunc_kernel(N=2, cap=50.0):
    # truncated inside the near field at h = 0.2 (|x| < cap^(-1/(N+s)))
    return KernelSpec(dimension=N, s=0.5, epsilon=0.7, kind="truncated-fractional", cap=cap)


def power_table(N, s):
    # a table sampled from r^-(N+s): r^-(N+s) again between and beyond its samples
    r = np.geomspace(1e-3, 1e3, 200)
    return KernelSpec(
        dimension=N, s=s, epsilon=0.7, kind="tabulated",
        radii=r, values=r ** -(N + s), tail=("power", N + s),
    )


# truncated inside the near field at h = 0.2, by less than h in N = 2, 3
NEAR_CAP = 1e3


def _near_reference(igd, case, off, h):
    """Independent value of the exact cell pair integral at offset off * h:
    the deep recursion of g itself, or for the truncated kernel that of
    r^-sigma less the cap region's closed-form deficit."""
    N, d = igd.dimension, off * h
    if case != "truncated":
        return _deep_pair_reference(igd.vec, d, h, igd.core[1])
    sigma = N + 0.5
    frac = _deep_pair_reference(kernel_integrand(frac_kernel(N=N)).vec, d, h, sigma)
    if np.any(np.abs(off) > 1):  # the support misses the ball of radius r_cap < h
        return frac
    return frac - _cap_deficit(d, h, NEAR_CAP, sigma)


# (integrand, radial, core) for each constructor, in dimension N; the core
# (r0, p0) is where g is homogeneous of degree -p0
NEAR_CASES = {
    "fractional": lambda N: (kernel_integrand(frac_kernel(N=N)), True, (math.inf, N + 0.5)),
    "truncated": lambda N: (
        kernel_integrand(trunc_kernel(N, NEAR_CAP)), True, (NEAR_CAP ** (-1.0 / (N + 0.5)), 0.0)
    ),
    "tabulated": lambda N: (kernel_integrand(power_table(N, 0.5)), True, (1e-3, pytest.approx(N + 0.5))),
    "moment": lambda N: (kernel_moment_integrand(frac_kernel(N=N)), True, (math.inf, N - 0.5)),
    "riesz": lambda N: (riesz_integrand(N, 1.0), True, (math.inf, 1.0)),
    "dirpos": lambda N: (
        directional_positive_integrand(np.arange(1.0, N + 1) / np.linalg.norm(np.arange(1.0, N + 1))),
        False,
        (math.inf, 0.0),
    ),
    # 1 / (1 + |z|^2) is 1 to rounding below 1e-8
    "direct": lambda N: (
        OffsetIntegrand(
            dimension=N,
            sigma=0.0,
            vec=lambda z: 1.0 / (1.0 + np.sum(z ** 2, axis=-1)),
            cache_token=("test-lorentz", N),
            explicit_core=(1e-8, 0.0),
        ),
        False,
        (1e-8, 0.0),
    ),
}


class TestNearTables:
    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("case", sorted(NEAR_CASES))
    def test_near_entries_match_direct_integrals(self, monkeypatch, N, case):
        _fresh_caches(monkeypatch)
        igd, radial, core = NEAR_CASES[case](N)
        assert (igd.radial, igd.core) == (radial, core)
        h = 0.2
        T = _stencil((3,) * N, h, igd)
        width = 2 if igd.sigma >= N - 0.5 else 1
        near = [
            np.array(off) - width
            for off in np.ndindex(*(2 * width + 1,) * N)
            if igd.sigma < N or any(o != width for o in off)
        ]
        refs = {}
        for off in near:
            orbit = tuple(sorted(np.abs(off))) if radial else tuple(off)
            if orbit not in refs:
                refs[orbit] = _near_reference(igd, case, np.array(orbit, dtype=float), h)
            assert T[tuple(off + 2)] == pytest.approx(refs[orbit], rel=1e-12), off
        # a homogeneous g (r0 infinite) keeps one table at unit spacing,
        # any other one table per spacing; one integral per signed offset
        # when g is not radial
        base = 1.0 if core[0] == math.inf else h
        assert list(quadrature._NEAR_CACHE) == [(igd.cache_token, base)]
        table = quadrature._NEAR_CACHE[(igd.cache_token, base)]
        orbits = {tuple(sorted(np.abs(off))) for off in near}
        assert len(table) == (len(orbits) if radial else len(near))

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("s", [0.5, 0.95, 0.99])
    def test_power_law_table_matches_the_fractional_kernel(self, monkeypatch, N, s):
        # the 40-level recursion with a ratio capped at 0.95 gave the face
        # value 8.4% low at s = 0.95 and 66% low at s = 0.99 (N = 2)
        _fresh_caches(monkeypatch)
        h = 0.1
        offsets = np.array(list(itertools.product(range(3), repeat=N)), dtype=float)[1:]
        frac = quadrature._near_values(offsets, h, kernel_integrand(frac_kernel(N=N, s=s)))
        table = quadrature._near_values(offsets, h, kernel_integrand(power_table(N, s)))
        np.testing.assert_allclose(table, frac, rtol=1e-12, atol=0.0)

    def test_cold_stencils_cost_one_integral_per_orbit(self, monkeypatch):
        _fresh_caches(monkeypatch)
        calls = []
        exact = quadrature.cell_pair_integral

        def counted(*args, **kwargs):
            calls.append(args[0])
            return exact(*args, **kwargs)

        monkeypatch.setattr(quadrature, "cell_pair_integral", counted)
        ki = kernel_integrand(frac_kernel(N=3))
        _stencil((3, 3, 3), 0.5, ki)
        _stencil((5, 4, 3), 0.3, ki)
        assert len(calls) == 9
        del calls[:]
        _stencil((4, 4, 4), 0.25, riesz_integrand(3, 1.0))
        assert len(calls) == 4

    def test_near_cache_is_bounded(self, monkeypatch):
        _fresh_caches(monkeypatch)
        monkeypatch.setattr(quadrature, "_NEAR_CACHE_TABLES", 2)
        igd = kernel_integrand(trunc_kernel())
        tok = igd.cache_token
        for h in (0.1, 0.2, 0.3):
            _stencil((4, 4), h, igd)
        cache = quadrature._NEAR_CACHE
        assert list(cache) == [(tok, 0.2), (tok, 0.3)]
        # a hit makes its table the most recently used one
        _stencil((5, 5), 0.2, igd)
        _stencil((4, 4), 0.4, igd)
        assert list(cache) == [(tok, 0.2), (tok, 0.4)]
        # a homogeneous integrand keeps one table for every spacing
        ki = kernel_integrand(frac_kernel())
        for h in (0.1, 0.2, 0.3):
            _stencil((4, 4), h, ki)
        assert list(cache) == [(tok, 0.4), (ki.cache_token, 1.0)]


def tab_kernel(N=2):
    r = np.geomspace(0.05, 20.0, 200)
    return KernelSpec(
        dimension=N, s=0.5, epsilon=0.7, kind="tabulated",
        radii=r, values=r ** -(N + 0.5), tail=("power", N + 0.5),
    )


# every radial integrand constructor: the kernel of each kind, riesz and
# the kernel moment
RADIAL_CASES = {
    "fractional": lambda N: kernel_integrand(frac_kernel(N=N)),
    "truncated": lambda N: kernel_integrand(trunc_kernel(N)),
    "tabulated": lambda N: kernel_integrand(tab_kernel(N)),
    "riesz": lambda N: riesz_integrand(N, 1.0),
    "moment": lambda N: kernel_moment_integrand(frac_kernel(N=N)),
}


def _full_offset_table(dims, h, igd):
    """The stencil evaluated at every offset of the full table, with the
    far and near rules of ``_stencil``, mirrored from nothing."""
    N = igd.dimension
    grids = np.meshgrid(*[np.arange(1 - d, d) for d in dims], indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=-1).astype(float)
    r0 = np.max(np.abs(offsets), axis=-1)
    T = np.zeros(len(offsets))
    far = r0 > 0
    T[far] = igd.vec(offsets[far] * h) * h ** (2 * N)
    width = 2 if igd.sigma >= N - 0.5 else 1
    near = (r0 <= width) & (far | (igd.sigma < N))
    T[near] = quadrature._near_values(offsets[near], h, igd)
    return T.reshape([2 * d - 1 for d in dims])


class TestOrthantStencil:
    @pytest.mark.parametrize(
        "dims", [(5, 4), (1, 6), (1, 1), (3, 4, 1), (4, 2, 3), (1, 1, 5)], ids=str
    )
    @pytest.mark.parametrize("case", sorted(RADIAL_CASES))
    def test_mirrored_table_equals_the_full_evaluation(self, monkeypatch, dims, case):
        _fresh_caches(monkeypatch)
        igd = RADIAL_CASES[case](len(dims))
        assert igd.radial
        T = _stencil(dims, 0.2, igd)
        assert T.shape == tuple(2 * d - 1 for d in dims)
        assert np.array_equal(T, _full_offset_table(dims, 0.2, igd))

    @pytest.mark.parametrize("dims", [(5, 4), (4, 2, 3)], ids=str)
    def test_directional_integrand_takes_the_general_path(self, monkeypatch, dims):
        _fresh_caches(monkeypatch)
        nu = np.arange(1.0, len(dims) + 1) / np.linalg.norm(np.arange(1.0, len(dims) + 1))
        igd = directional_positive_integrand(nu)
        assert not igd.radial
        T = _stencil(dims, 0.2, igd)
        assert np.array_equal(T, _full_offset_table(dims, 0.2, igd))
        # (z . nu)_+ / |z| is not even, which a mirrored table would be
        assert not np.array_equal(T, T[(slice(None, None, -1),) * len(dims)])

    @pytest.mark.parametrize("slab", [1, 7, 40])
    @pytest.mark.parametrize("case", ["directional", "riesz"])
    def test_slabs_equal_the_whole_table(self, monkeypatch, slab, case):
        # slabs of a few offsets, cut inside rows and planes, leave every
        # entry bit for bit as one whole evaluation gives it
        _fresh_caches(monkeypatch)
        monkeypatch.setattr(quadrature, "_STENCIL_SLAB", slab)
        dims = (5, 4, 3)
        if case == "directional":
            igd = directional_positive_integrand(np.array([0.6, 0.0, 0.8]))
        else:
            igd = riesz_integrand(3, 1.0)
        assert np.array_equal(_stencil(dims, 0.2, igd), _full_offset_table(dims, 0.2, igd))

    def test_cold_directional_stencil_memory_is_bounded(self, monkeypatch):
        # the 127^3 table of the 3-D layer-cake check on a 64^3 grid; built
        # in one piece it peaked at 250 MB traced
        _fresh_caches(monkeypatch)
        igd = directional_positive_integrand(np.array([1.0, 0.0, 0.0]))
        tracemalloc.start()
        try:
            T = _stencil((64,) * 3, 1.0 / 64, igd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert T.shape == (127,) * 3
        assert peak < 64e6

    def test_cold_3d_stencil_memory_is_bounded(self, monkeypatch):
        # the 127^3 table of a 64^3 grid is 16.4 MB; evaluating every
        # offset as a float (k, 3) table peaked near 300 MB
        _fresh_caches(monkeypatch)
        igd = kernel_integrand(frac_kernel(N=3))
        tracemalloc.start()
        try:
            T = _stencil((64,) * 3, 1.0 / 64, igd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert T.shape == (127,) * 3
        assert peak < 64e6

    def test_voxel_ball_perimeter_memory_is_bounded(self, monkeypatch):
        # cold caches: both stencils, the near tables and the pair sums of
        # the 8^3 ball (grids padded to 32^3) fit in 16 MB
        _fresh_caches(monkeypatch)
        ball = voxelize(geometry.ball_of_volume(3, 4.0 * math.pi / 3.0), cells_per_axis=8)
        tracemalloc.start()
        try:
            est = complement_double_integral(ball, frac_kernel(N=3), QuadratureSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.value > 0
        assert peak < 16e6


class TestIntegralOver:
    def test_singular_integrand_on_disk(self):
        # int over B_R of |x|^-beta = area(S^{N-1}) R^(N-beta) / (N-beta)
        ball = geometry.ball_of_volume(2, math.pi)
        ps = PointSingularity(center=np.zeros(2), exponent=1.2)
        est = integral_over(ball, ps, QuadratureSpec(budget=40_000))
        oracle = 2.0 * math.pi / 0.8
        assert abs(est.value - oracle) <= 4.0 * est.error
        assert abs(est.value - oracle) <= 0.02 * oracle

    def test_volume_via_constant(self):
        v = voxelize(geometry.ball_of_volume(2, 2.0), cells_per_axis=64)
        est = integral_over(v, lambda p: np.ones(p.shape[0]), QuadratureSpec())
        assert est.value == pytest.approx(geometry.volume(v), rel=1e-12)

    def test_empty_shape(self):
        est = integral_over(
            geometry.empty_ball_config(2), lambda p: np.ones(p.shape[0]), QuadratureSpec()
        )
        assert est.value == 0.0 and est.error == 0.0


class TestDoubleIntegral:
    def test_tensor_swap_symmetry(self):
        rng = np.random.default_rng(2)
        a = geometry.random_blob(2, rng, grid_n=24)
        b = geometry.translate(a, np.array([96 * a.spacing, 8 * a.spacing]))
        d1 = double_integral(a, b, 0.6, QuadratureSpec())
        d2 = double_integral(b, a, 0.6, QuadratureSpec())
        assert d1.value == pytest.approx(d2.value, rel=1e-12)

    @pytest.mark.parametrize("method", ["tensor-midpoint", "monte-carlo"])
    def test_unsupported_integrand_is_rejected(self, method):
        a = geometry.ball_of_volume(2, 1.0)
        b = geometry.translate(a, np.array([3.0, 0.0]))
        with pytest.raises(ParameterError, match="KernelSpec, a riesz exponent or an OffsetIntegrand"):
            double_integral(a, b, lambda x, y: np.ones(x.shape[0]), QuadratureSpec(method=method))

    def test_mc_repeat_is_bit_identical(self):
        ball = geometry.ball_of_volume(2, math.pi)
        spec = QuadratureSpec(method="monte-carlo", budget=40_000, seed=5)
        m1 = double_integral(ball, ball, 0.6, spec)
        m2 = double_integral(ball, ball, 0.6, spec)
        assert m1.value == m2.value and m1.error == m2.error

    def test_mc_seed_changes_value(self):
        ball = geometry.ball_of_volume(2, math.pi)
        m1 = double_integral(ball, ball, 0.6, QuadratureSpec(method="monte-carlo", budget=40_000, seed=5))
        m2 = double_integral(ball, ball, 0.6, QuadratureSpec(method="monte-carlo", budget=40_000, seed=6))
        assert m1.value != m2.value

    def test_mc_stderr_shrinks_with_budget(self):
        ball = geometry.ball_of_volume(2, math.pi)
        m1 = double_integral(ball, ball, 0.6, QuadratureSpec(method="monte-carlo", budget=40_000, seed=5))
        m2 = double_integral(ball, ball, 0.6, QuadratureSpec(method="monte-carlo", budget=160_000, seed=5))
        # 4x the samples should halve the standard error, up to estimator noise
        assert 1.3 < m1.error / m2.error < 3.2

    def test_kernel_dimension_mismatch(self):
        ball = geometry.ball_of_volume(2, math.pi)
        with pytest.raises(ParameterError):
            double_integral(ball, ball, frac_kernel(N=3, eps=0.7), QuadratureSpec())


class TestComplementIntegral:
    def test_disk_boundary_energy(self):
        ball = geometry.ball_of_volume(2, math.pi)
        est = complement_double_integral(ball, frac_kernel(), QuadratureSpec(budget=40_000))
        dev = abs(est.value - DISK_BOUNDARY_HALF)
        assert dev <= 4.0 * est.error
        assert dev <= 0.02 * DISK_BOUNDARY_HALF

    def test_small_grids_use_the_minimum_stencil(self):
        # a 6x6 square and a 2x16 strip at h = 0.1 against (value, error)
        # from the route with 2 diameters of empty cells around the shape;
        # below quadrature._MIN_STENCIL_CELLS the stencil misses near offsets
        for dims, (ref, ref_err) in (
            ((6, 6), (12.56489006035165, 7.836784542245567e-4)),
            ((2, 16), (14.499642691430534, 1.86964545802919e-2)),
        ):
            vox = geometry.VoxelShape(
                dimension=2, origin=np.zeros(2), spacing=0.1, occupancy=np.ones(dims, dtype=bool)
            )
            est = complement_double_integral(vox, frac_kernel(), QuadratureSpec())
            assert abs(est.value - ref) <= ref_err


class TestSphereIntegrals:
    def test_constant_gives_sphere_area(self):
        spec = QuadratureSpec(budget=20_000)
        for N, area in ((2, 2.0 * math.pi), (3, 4.0 * math.pi)):
            est = sphere_average(lambda v: np.ones(v.shape[0]), N, spec)
            assert est.value == pytest.approx(area, rel=1e-12)

    def test_positive_part_projection(self):
        # int over the sphere of (e1 . nu)_+ is 2 in the plane and pi in space
        spec = QuadratureSpec(budget=20_000)
        est2 = sphere_average(lambda v: np.clip(v[:, 0], 0.0, None), 2, spec)
        assert est2.value == pytest.approx(2.0, rel=1e-6)
        est3 = sphere_average(lambda v: np.clip(v[:, 0], 0.0, None), 3, spec)
        assert est3.value == pytest.approx(math.pi, rel=1e-3)

    def test_unsupported_dimension(self):
        with pytest.raises(ParameterError):
            sphere_average(lambda v: np.ones(v.shape[0]), 4, QuadratureSpec())


def _whole_direction_grid(N, count):
    """The midpoint direction grid and its weights written out whole, as
    they were built before the directions were streamed in blocks."""
    if N == 2:
        ang = (np.arange(count) + 0.5) * (2.0 * math.pi / count)
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1), np.full(count, 2.0 * math.pi / count)
    nu = max(4, int(round(math.sqrt(count / 2.0))))
    nphi = 2 * nu
    u = -1.0 + (np.arange(nu) + 0.5) * (2.0 / nu)
    phi = (np.arange(nphi) + 0.5) * (2.0 * math.pi / nphi)
    uu, pp = np.meshgrid(u, phi, indexing="ij")
    su = np.sqrt(1.0 - uu ** 2)
    dirs = np.stack([su * np.cos(pp), su * np.sin(pp), uu], axis=-1).reshape(-1, 3)
    return dirs, np.full(dirs.shape[0], (2.0 / nu) * (2.0 * math.pi / nphi))


class TestDirectionBlocks:
    @pytest.mark.parametrize(
        "N, count",
        [(3, c) for c in (64, 512, 1024, 100_000, 200_000)]
        + [(2, c) for c in (64, 256, 1 << 14, (1 << 14) + 5, 100_000, 200_000)],
    )
    def test_blocks_match_the_whole_grid(self, N, count):
        dirs, w = _whole_direction_grid(N, count)
        blocks, weights = zip(*quadrature._direction_blocks(N, count))
        assert all(0 < len(b) <= quadrature._SPHERE_BLOCK for b in blocks)
        assert set(weights) == {w[0]}
        got = np.concatenate(blocks)
        assert got.shape == dirs.shape
        if N == 3 or count <= 1 << 14:
            # N = 3 and one N = 2 block (every tail direction set) bit for bit
            assert np.array_equal(got, dirs)
        else:
            assert np.max(np.abs(got - dirs)) <= 2e-15

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("count", [8, 1000, 1 << 20])
    def test_weights_sum_to_the_sphere_area(self, N, count):
        total = sum(w * len(b) for b, w in quadrature._direction_blocks(N, count))
        assert total == pytest.approx(geometry.unit_sphere_area(N), rel=1e-14)

    def test_sphere_average_memory_is_bounded(self):
        # the whole 2^20-direction grid and weights took 67 MB at peak and
        # stayed cached (50 MB) after the call
        quadrature._direction_factors.cache_clear()
        tracemalloc.start()
        try:
            est = sphere_average(
                lambda v: np.clip(v[:, 0], 0.0, None), 3, QuadratureSpec(budget=1 << 20)
            )
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.value == pytest.approx(math.pi, rel=1e-4)
        assert peak < 8e6
        assert held < 1e6


class TestDirectionGridCache:
    def test_cache_is_bounded(self):
        maxsize = quadrature._direction_factors.cache_info().maxsize
        assert maxsize is not None and maxsize > 0

    def test_grids_are_read_only(self):
        for N in (2, 3):
            for arr in quadrature._direction_factors(N, 64)[1]:
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_hit_returns_the_same_arrays(self):
        quadrature._direction_factors.cache_clear()
        first = quadrature._direction_factors(3, 200)
        assert quadrature._direction_factors(3, 200) is first
        assert quadrature._direction_factors.cache_info().hits == 1


class TestVoxelize:
    def test_disk_volume_converges(self):
        ball = geometry.ball_of_volume(2, math.pi)
        v = voxelize(ball, cells_per_axis=128)
        assert geometry.volume(v) == pytest.approx(math.pi, rel=5e-3)

    def test_voxel_passthrough(self):
        rng = np.random.default_rng(1)
        blob = geometry.random_blob(2, rng, grid_n=16)
        assert voxelize(blob) is blob

    def test_grid_size_guard(self):
        ball = geometry.ball_of_volume(2, math.pi)
        with pytest.raises(ParameterError):
            voxelize(ball, cells_per_axis=20_000)


# (value, error, samples) of each public operation on small fixed shapes,
# frozen from the engines before their fine/coarse refinement and their
# Monte Carlo batch loops were shared: a swapped coarse grid or a changed
# batch layout moves one of them.  The complement tensor entry was
# re-frozen when near values began summing their corner series in closed
# form (it moved by 8e-12 relative).  Monte Carlo refuses the integral_over
# and complement operations (``TestMonteCarloRefusal``); double_stationary
# samples two boxes that are apart, so it keeps its value.
_PIN_DISK = geometry.BallConfig(dimension=2, centers=np.array([[0.1, 0.05]]), radii=np.array([0.9]))
_PIN_U = geometry.BallConfig(dimension=2, centers=np.array([[-1.0, 0.0]]), radii=np.array([0.6]))
_PIN_W = geometry.BallConfig(dimension=2, centers=np.array([[1.1, 0.2]]), radii=np.array([0.7]))
_PIN_OPS = {
    "integral_over": lambda spec: integral_over(
        _PIN_DISK, PointSingularity(center=np.zeros(2), exponent=1.0), spec
    ),
    "double_stationary": lambda spec: double_integral(_PIN_U, _PIN_W, 1.0, spec),
    "complement": lambda spec: complement_double_integral(_PIN_DISK, frac_kernel(), spec),
    "sphere_average": lambda spec: sphere_average(
        lambda v: np.clip(v[:, 0], 0.0, None) + v[:, 2] ** 2, 3, spec
    ),
}
_PIN_SPECS = {
    "tensor-midpoint": QuadratureSpec(budget=1024),
    "monte-carlo": QuadratureSpec(method="monte-carlo", budget=2048, seed=5),
}
PINNED_ESTIMATES = {
    ("integral_over", "tensor-midpoint"): (5.626504759797939, 0.049407088708621316, 812),
    ("double_stationary", "tensor-midpoint"): (0.8444047113279975, 0.0904679684829155, 237),
    ("double_stationary", "monte-carlo"): (0.8285492003465506, 0.016684154380760978, 2048),
    ("complement", "tensor-midpoint"): (54.45873405990247, 1.3196129303446469, 812),
    ("sphere_average", "tensor-midpoint"): (7.326345326665783, 0.00784589714590922, 1024),
    ("sphere_average", "monte-carlo"): (7.31550578383898, 0.11921999578048444, 2048),
}


@pytest.mark.parametrize("op, method", sorted(PINNED_ESTIMATES))
def test_engine_outputs_are_pinned(op, method):
    est = _PIN_OPS[op](_PIN_SPECS[method])
    value, error, samples = PINNED_ESTIMATES[(op, method)]
    assert est.method == method
    assert est.value == pytest.approx(value, rel=1e-12)
    assert est.error == pytest.approx(error, rel=1e-12)
    assert est.samples == samples


_MC_PARAMS = EnergyParams(kernel=frac_kernel(), A=1.0, alpha=1.0, beta=1.0)
_TOUCHING = (
    geometry.BallConfig(dimension=2, centers=np.array([[-1.0, 0.0]]), radii=np.array([1.0])),
    geometry.BallConfig(dimension=2, centers=np.array([[1.0, 0.5]]), radii=np.array([1.0])),
)


class TestMonteCarloRefusal:
    """Monte Carlo raises exactly where the boxes it samples reach a
    |z|^-p singularity with 2 p >= N: the variance is infinite there, and
    the batch standard error does not cover the error.  It has no
    complement integral and no slice scan, so it refuses those for every
    kernel."""

    @pytest.mark.parametrize(
        "op",
        [
            _PIN_OPS["complement"],
            lambda spec: complement_double_integral(_PIN_DISK, trunc_kernel(cap=2.0), spec),
            _PIN_OPS["integral_over"],
            lambda spec: double_integral(_PIN_DISK, _PIN_DISK, riesz_integrand(2, 1.5), spec),
            # closed bounding boxes that share one edge reach z = 0
            lambda spec: double_integral(*_TOUCHING, 1.0, spec),
            lambda spec: slicing.scan(_PIN_DISK, _MC_PARAMS, spec, nu_grid=[[1.0, 0.0]], l_grid=[0.0]),
            lambda spec: slicing.splitting_defect(_PIN_DISK, [1.0, 0.0], 0.0, _MC_PARAMS, spec),
        ],
        ids=[
            "complement", "complement-truncated", "integral_over", "riesz-1.5-self",
            "touching-boxes", "scan", "splitting_defect",
        ],
    )
    def test_refused(self, op):
        with pytest.raises(ParameterError, match="method = 'tensor-midpoint'"):
            op(_PIN_SPECS["monte-carlo"])

    @pytest.mark.parametrize(
        "op",
        [
            lambda spec: double_integral(_PIN_U, _PIN_W, frac_kernel(), spec),
            lambda spec: integral_over(_PIN_W, PointSingularity(center=np.zeros(2), exponent=2.5), spec),
            lambda spec: double_integral(_PIN_DISK, _PIN_DISK, riesz_integrand(2, 0.9), spec),
            # the truncated kernel's core is the bounded cap (p0 = 0)
            lambda spec: double_integral(_PIN_DISK, _PIN_DISK, trunc_kernel(cap=2.0), spec),
        ],
        ids=["kernel-separated-boxes", "point-outside-box", "riesz-0.9-self", "truncated-kernel-self"],
    )
    def test_finite_variance_runs(self, op):
        mc = op(_PIN_SPECS["monte-carlo"])
        tensor = op(QuadratureSpec(budget=64 ** 2))
        assert mc.method == "monte-carlo" and mc.samples == 2048
        assert abs(mc.value - tensor.value) <= 4.0 * (mc.error + tensor.error)
