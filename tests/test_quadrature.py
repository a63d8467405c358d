"""Tests for the tensor quadrature engine.

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
from nldrop import energy, geometry, quadrature, slicing
from nldrop.kernels import KernelSpec
from nldrop.quadrature import (
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
    def test_budget_is_the_only_field(self):
        # one engine: there is no method or seed to choose
        assert [f.name for f in dataclasses.fields(QuadratureSpec)] == ["budget"]
        for removed in ("method", "seed"):
            with pytest.raises(TypeError):
                QuadratureSpec(**{removed: 0})
        fields = [f.name for f in dataclasses.fields(quadrature.IntegralEstimate)]
        assert fields == ["value", "error", "samples", "method"]

    def test_small_budget(self):
        with pytest.raises(ParameterError):
            QuadratureSpec(budget=10)

    def test_riesz_exponent_range(self):
        with pytest.raises(ParameterError):
            riesz_integrand(2, 2.0)
        with pytest.raises(ParameterError):
            riesz_integrand(2, 0.0)


class TestGaussRule:
    """``quadrature._gauss_rule``, the one builder of every Gauss rule:
    Newton's method on the three-term recurrence of P_n^(0, -s).  Its nodes
    against scipy, its mass, moments, cache and read-only arrays are
    checked in test_energy.py beside the rules' callers."""

    def test_legendre_rules_are_mirror_symmetric(self):
        for n in (1, 2, 3, 6, 8, 32, 48, 64, 96, 128, 192, 256, 512):
            x, w = quadrature._gauss_rule(n)
            assert np.array_equal(x, -x[::-1]), n
            assert np.array_equal(w, w[::-1]), n
            if n % 2:
                assert x[n // 2] == 0.0

    def test_weights_match_the_closed_form_at_40_digits(self):
        # w_k = 2 / ((1 - x_k^2) P_n'(x_k)^2) at the mpmath root nearest each node
        n = 64
        x, w = quadrature._gauss_rule(n)
        with mpmath.workdps(40):
            for k in (0, 1, 7, 31):
                root = mpmath.findroot(lambda t: mpmath.legendre(n, t), mpmath.mpf(x[k]))
                slope = mpmath.diff(lambda t: mpmath.legendre(n, t), root)
                exact = 2 / ((1 - root ** 2) * slope ** 2)
                assert abs(x[k] - float(root)) <= 2e-16
                assert float(abs(w[k] - exact) / exact) <= 1e-13

    @pytest.mark.parametrize("n, s", [(0, 0.0), (-3, 0.5), (2.5, 0.0), (8, -0.1), (8, 1.0), (8, math.nan)])
    def test_bad_orders_and_exponents_are_refused(self, n, s):
        with pytest.raises(ParameterError):
            quadrature._gauss_rule.__wrapped__(n, s)

    def test_a_rule_that_does_not_converge_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_GAUSS_SWEEPS", 1)
        with pytest.raises(ParameterError, match="did not converge"):
            quadrature._gauss_rule.__wrapped__(64, 0.5)

    def test_nodes_that_reach_the_endpoint_raise(self):
        # at s = 1 - 1e-12 the first node of 512 rounds to -1
        with pytest.raises(ParameterError, match="strictly increasing inside"):
            quadrature._gauss_rule.__wrapped__(512, 1.0 - 1e-12)


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
            return OffsetIntegrand(dimension=N, sigma=1.0, vec=vec, cache_token=None, core=core)

        g = direct(lambda z: (1.0 + norm(z) ** 8) / norm(z), (1e-2, 1.0))
        d = np.eye(N)[-1] if face else np.zeros(N)
        parts = cell_pair_integral(d, 1.0, riesz_integrand(N, 1.0)) + cell_pair_integral(
            d, 1.0, direct(lambda z: norm(z) ** 7, (math.inf, -7.0))
        )
        assert cell_pair_integral(d, 1.0, g) == pytest.approx(parts, rel=1e-13)


def _unit_box_about(center):
    """The unit box [0, 1]^N seen from ``center``: its corners minus it."""
    return -np.asarray(center, dtype=float), 1.0 - np.asarray(center, dtype=float)


class TestPointSingularityCell:
    # the frozen values integrate |x - c|^-p over [0, 1]^N; the integrand
    # is |x|^-p over the box shifted by -c
    def test_interior_singularity(self):
        got = point_singularity_cell_integral(*_unit_box_about([0.3, 0.4]), 1.2, 2)
        assert got == pytest.approx(POINTSING_BOX_N2, rel=1e-7)

    def test_interior_singularity_3d(self):
        got = point_singularity_cell_integral(*_unit_box_about([0.3, 0.4, 0.2]), 1.5, 3)
        assert got == pytest.approx(POINTSING_BOX_N3, rel=1e-9)

    def test_negative_exponent_smooth(self):
        got = point_singularity_cell_integral(*_unit_box_about([0.3, 0.4]), -1.5, 2)
        assert got == pytest.approx(POINTSING_SMOOTH_N2, rel=1e-9)

    def test_singular_point_within_rounding_of_a_face(self):
        # a face computed as (-h/2) + h/2 can land 1e-17 beside the singular
        # point; the box must still be refined as if the point were on it
        got = point_singularity_cell_integral([-0.7, -1.0], [0.3, -1e-17], 1.0, 2)
        assert got == pytest.approx(POINTSING_FACE_N2, rel=1e-5)

    def test_divergent_exponent_rejected(self):
        with pytest.raises(ParameterError):
            point_singularity_cell_integral(*_unit_box_about([0.3, 0.4]), 2.0, 2)


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

    lo, hi = quadrature._grid_boxes([quadrature._axis_breaks(di - h, di + h, di) for di in d])
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
            point_singularity_cell_integral(*_unit_box_about(center), N - 0.5, N)
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
            core=(1e-8, 0.0),
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



KERNEL_CASES = {"fractional": frac_kernel, "truncated": trunc_kernel, "tabulated": tab_kernel}


class TestCellKernelMass:
    """a(h) is summed over the orthant of the padded grid in slabs; only
    the grid's own stencil is stored."""

    @staticmethod
    def _padded_mass(dims, h, igd):
        """np.sum of the explicit stencil of the grid padded to
        _MIN_STENCIL_CELLS per axis, plus h^N times the directional tail
        beyond its box."""
        N = igd.dimension
        pad = np.maximum(dims, quadrature._MIN_STENCIL_CELLS)
        half = (pad - 0.5) * h
        dirs, w = quadrature._tail_directions(N)
        tail = igd.ray_tail(quadrature._ray_exit(np.zeros((1, N)), -half, half, dirs)) @ w
        return float(np.sum(_full_offset_table(tuple(pad), h, igd))) + float(tail[0]) * h ** N

    @pytest.mark.parametrize(
        "dims", [(6, 6), (2, 16), (33, 40), (6, 6, 6), (40, 8, 8), (32, 32, 32)], ids=str
    )
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_streamed_mass_equals_the_padded_table(self, monkeypatch, dims, case):
        # cubic and non-cubic grids, padded on every axis, on some or on none
        _fresh_caches(monkeypatch)
        igd = kernel_integrand(KERNEL_CASES[case](len(dims)))
        T, a = quadrature._cell_kernel_mass(dims, 0.2, igd)
        assert a == pytest.approx(self._padded_mass(dims, 0.2, igd), rel=1e-14)
        assert np.array_equal(T, _full_offset_table(dims, 0.2, igd))

    @pytest.mark.parametrize("slab", [1, 7, 40])
    def test_mass_does_not_depend_on_the_slabs(self, monkeypatch, slab):
        _fresh_caches(monkeypatch)
        igd = kernel_integrand(frac_kernel(N=3))
        T, a = quadrature._cell_kernel_mass((5, 3, 4), 0.2, igd)
        _fresh_caches(monkeypatch)
        monkeypatch.setattr(quadrature, "_STENCIL_SLAB", slab)
        T_slab, a_slab = quadrature._cell_kernel_mass((5, 3, 4), 0.2, igd)
        assert np.array_equal(T_slab, T)
        assert a_slab == pytest.approx(a, rel=1e-14)

    def test_hits_and_the_byte_bound(self, monkeypatch):
        _fresh_caches(monkeypatch)
        igd = kernel_integrand(frac_kernel())
        key = (igd.cache_token, (4, 4), 0.1)
        first = quadrature._cell_kernel_mass((4, 4), 0.1, igd)
        assert list(quadrature._STENCIL_CACHE) == [key + ("mass",), key]
        assert quadrature._STENCIL_CACHE[key + ("mass",)].nbytes == 8
        again = quadrature._cell_kernel_mass((4, 4), 0.1, igd)
        assert again[0] is first[0] and again[1] == first[1]
        # a stencil evicted on its own is rebuilt, bit for bit
        del quadrature._STENCIL_CACHE[key]
        rebuilt = quadrature._cell_kernel_mass((4, 4), 0.1, igd)
        assert np.array_equal(rebuilt[0], first[0]) and rebuilt[1] == first[1]
        # a mass evicted on its own is summed again, bit for bit
        del quadrature._STENCIL_CACHE[key + ("mass",)]
        resummed = quadrature._cell_kernel_mass((4, 4), 0.1, igd)
        assert resummed[0] is rebuilt[0] and resummed[1] == first[1]
        # room for one 7^2 table and its mass
        monkeypatch.setattr(quadrature, "_STENCIL_CACHE_BYTES", 7 * 7 * 8 + 8)
        for h in (0.2, 0.3):
            quadrature._cell_kernel_mass((4, 4), h, igd)
        key = (igd.cache_token, (4, 4), 0.3)
        assert list(quadrature._STENCIL_CACHE) == [key + ("mass",), key]

    def test_nothing_padded_is_stored(self, monkeypatch):
        # the 8^3 voxel ball at h = 1/4: each level cached a padded 63^3
        # table of 1.9 MB and the call peaked at 6.65 MB traced
        _fresh_caches(monkeypatch)
        vox = voxelize(geometry.ball_of_volume(3, 4.0 * math.pi / 3.0), cells_per_axis=8)
        tracemalloc.start()
        try:
            complement_double_integral(vox, frac_kernel(N=3), QuadratureSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        shapes = [T.shape for T in quadrature._STENCIL_CACHE.values()]
        assert sorted(shapes) == [(), (), (7, 7, 7), (15, 15, 15)]  # two a(h), two tables
        assert peak < 1.5e6

class TestIntegralOver:
    def test_singular_integrand_on_disk(self):
        # int over B_R of |x|^-beta = area(S^{N-1}) R^(N-beta) / (N-beta)
        ball = geometry.ball_of_volume(2, math.pi)
        est = integral_over(ball, 1.2, QuadratureSpec(budget=40_000))
        oracle = 2.0 * math.pi / 0.8
        assert abs(est.value - oracle) <= 4.0 * est.error
        assert abs(est.value - oracle) <= 0.02 * oracle

    def test_volume_at_exponent_zero(self):
        v = voxelize(geometry.ball_of_volume(2, 2.0), cells_per_axis=64)
        est = integral_over(v, 0.0, QuadratureSpec())
        assert est.value == pytest.approx(geometry.volume(v), rel=1e-12)

    def test_empty_shape(self):
        est = integral_over(geometry.empty_ball_config(2), 1.0, QuadratureSpec())
        assert est.value == 0.0 and est.error == 0.0


class TestDoubleIntegral:
    def test_tensor_swap_symmetry(self):
        rng = np.random.default_rng(2)
        a = geometry.random_blob(2, rng, grid_n=24)
        b = geometry.translate(a, np.array([96 * a.spacing, 8 * a.spacing]))
        d1 = double_integral(a, b, 0.6, QuadratureSpec())
        d2 = double_integral(b, a, 0.6, QuadratureSpec())
        assert d1.value == pytest.approx(d2.value, rel=1e-12)

    # energy.interaction hands a callable on to the tensor pair sum
    @pytest.mark.parametrize("pair_integral", [double_integral, energy.interaction])
    def test_unsupported_integrand_is_rejected(self, pair_integral):
        a = geometry.ball_of_volume(2, 1.0)
        b = geometry.translate(a, np.array([3.0, 0.0]))
        with pytest.raises(ParameterError, match="KernelSpec, a riesz exponent or an OffsetIntegrand"):
            pair_integral(a, b, lambda x, y: np.ones(x.shape[0]), QuadratureSpec())

    @pytest.mark.parametrize("shape", ["blob", "ball"])
    def test_self_pair_takes_the_shape_levels_unchanged(self, shape):
        # a shape paired with itself reuses its own two levels, which are
        # the grids the embedding or union-box route builds for a copy
        if shape == "blob":
            E = geometry.random_blob(3, np.random.default_rng(0), grid_n=16)
            twin = dataclasses.replace(E, occupancy=E.occupancy.copy())
        else:
            E = geometry.ball_of_volume(3, 2.0)
            twin = geometry.BallConfig(3, E.centers.copy(), E.radii.copy())
        budget = QuadratureSpec().resolved_budget(3)
        for (a, b), (c, d) in zip(
            quadrature._pair_grids(E, E, budget), quadrature._pair_grids(E, twin, budget)
        ):
            assert a is b
            for g in (c, d):
                assert np.array_equal(g.origin, a.origin) and g.spacing == a.spacing
                assert np.array_equal(g.occupancy, a.occupancy)

    def test_warm_caches_repeat_the_cold_run_bit_for_bit(self, monkeypatch):
        _fresh_caches(monkeypatch)
        cold = double_integral(_PIN_DISK, _PIN_DISK, 0.6, QuadratureSpec())
        warm = double_integral(_PIN_DISK, _PIN_DISK, 0.6, QuadratureSpec())
        assert (warm.value, warm.error, warm.samples) == (cold.value, cold.error, cold.samples)

    def test_budget_refinement_approaches_the_closed_form(self):
        # V_0.6 of a disk against its closed form: the gap shrinks with
        # every 4x budget, and the reported error with it
        exact = 2.0 * energy.riesz(_PIN_DISK, 0.6, QuadratureSpec()).value
        ests = [
            double_integral(_PIN_DISK, _PIN_DISK, 0.6, QuadratureSpec(budget=b))
            for b in (10_000, 40_000, 160_000)
        ]
        gaps = [abs(e.value - exact) for e in ests]
        assert gaps[0] > gaps[1] > gaps[2]
        assert ests[2].error < ests[0].error

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


def _whole_direction_grid(N, count):
    """The midpoint direction grid of about ``count`` directions and its
    weights, written out whole from the angles."""
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


class TestTailDirections:
    """The fixed midpoint direction grid of the directional tail of a(h)."""

    @pytest.mark.parametrize("N", [2, 3])
    def test_tail_directions_are_the_midpoint_grid(self, N):
        dirs, w = quadrature._tail_directions(N)
        whole_dirs, whole_w = _whole_direction_grid(N, quadrature._TAIL_DIRECTIONS[N])
        assert np.array_equal(dirs, whole_dirs)
        assert np.array_equal(w, whole_w)

    @pytest.mark.parametrize("N", [2, 3])
    def test_directions_are_unit_vectors(self, N):
        dirs, _ = quadrature._tail_directions(N)
        assert dirs.shape == (quadrature._TAIL_DIRECTIONS[N], N)
        assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) <= 1e-15

    @pytest.mark.parametrize("N", [2, 3])
    def test_weights_sum_to_the_sphere_area(self, N):
        _, w = quadrature._tail_directions(N)
        assert np.sum(w) == pytest.approx(geometry.unit_sphere_area(N), rel=1e-14)

    @pytest.mark.parametrize("N", [2, 3])
    def test_grids_are_read_only(self, N):
        for arr in quadrature._tail_directions(N):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("N", [2, 3])
    def test_hit_returns_the_same_arrays(self, N):
        first = quadrature._tail_directions(N)
        again = quadrature._tail_directions(N)
        assert again[0] is first[0] and again[1] is first[1]

    def test_cache_is_bounded(self):
        maxsize = quadrature._tail_directions.cache_info().maxsize
        assert maxsize is not None and maxsize > 0

    @pytest.mark.parametrize("N, exact, rel", [(2, 2.0, 1e-4), (3, math.pi, 1e-2)])
    def test_positive_part_projection(self, N, exact, rel):
        # the sphere integral of (e1 . nu)_+ is 2 in the plane and pi in
        # space; the 16 x 32 grid of N = 3 misses it by 6.4e-3 relative
        dirs, w = quadrature._tail_directions(N)
        assert np.clip(dirs[:, 0], 0.0, None) @ w == pytest.approx(exact, rel=rel)

    @pytest.mark.parametrize("N, rel", [(2, 1e-4), (3, 1e-2)])
    @pytest.mark.parametrize("k", range(5))
    def test_random_points_match_the_closed_form(self, N, rel, k):
        # the sphere integral of (x . nu)_+ over the grid against the
        # closed form of slicing.sphere_positive_integral
        x = np.random.default_rng(17 + k).standard_normal(N)
        dirs, w = quadrature._tail_directions(N)
        closed = slicing.sphere_positive_integral(x)
        assert abs(np.clip(dirs @ x, 0.0, None) @ w - closed) <= rel * closed

    # a(h) of a 6^N grid at h = 0.1, frozen from the block-streamed
    # direction grid that preceded the fixed tail grid
    PINNED_CELL_MASS = {
        "fractional-2": (KernelSpec(dimension=2, s=0.5, epsilon=0.7, lam=1.0), 0.8572789968508534),
        "fractional-3": (KernelSpec(dimension=3, s=0.5, epsilon=0.7, lam=1.0), 0.18213030907484584),
        "truncated-2": (
            KernelSpec(dimension=2, s=0.5, epsilon=0.7, lam=1.0, kind="truncated-fractional", cap=50.0),
            0.3352337122928948,
        ),
        "truncated-3": (
            KernelSpec(dimension=3, s=0.3, epsilon=0.7, lam=1.0, kind="truncated-fractional", cap=50.0),
            0.06552420221295205,
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_CELL_MASS))
    def test_cell_kernel_mass_is_pinned(self, name):
        kernel, a = self.PINNED_CELL_MASS[name]
        dims = np.full(kernel.dimension, 6)
        _, got = quadrature._cell_kernel_mass(dims, 0.1, quadrature.kernel_integrand(kernel))
        assert got == pytest.approx(a, rel=1e-13)


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
# frozen from the engine before its fine/coarse refinement was shared: a
# swapped coarse grid moves one of them.  The complement entry was
# re-frozen when near values began summing their corner series in closed
# form (it moved by 8e-12 relative).
_PIN_DISK = geometry.BallConfig(dimension=2, centers=np.array([[0.1, 0.05]]), radii=np.array([0.9]))
_PIN_U = geometry.BallConfig(dimension=2, centers=np.array([[-1.0, 0.0]]), radii=np.array([0.6]))
_PIN_W = geometry.BallConfig(dimension=2, centers=np.array([[1.1, 0.2]]), radii=np.array([0.7]))
_PIN_BALL_3D = geometry.BallConfig(dimension=3, centers=np.array([[0.1, 0.05, 0.0]]), radii=np.array([0.9]))
_TOUCHING = (
    geometry.BallConfig(dimension=2, centers=np.array([[-1.0, 0.0]]), radii=np.array([1.0])),
    geometry.BallConfig(dimension=2, centers=np.array([[1.0, 0.5]]), radii=np.array([1.0])),
)
_PIN_OPS = {
    "integral_over": lambda spec: integral_over(_PIN_DISK, 1.0, spec),
    "double_stationary": lambda spec: double_integral(_PIN_U, _PIN_W, 1.0, spec),
    "complement": lambda spec: complement_double_integral(_PIN_DISK, frac_kernel(), spec),
}
_PIN_SPECS = {
    "tensor-midpoint": QuadratureSpec(budget=1024),
}
PINNED_ESTIMATES = {
    ("integral_over", "tensor-midpoint"): (5.626504759797939, 0.049407088708621316, 812),
    ("double_stationary", "tensor-midpoint"): (0.8444047113279975, 0.0904679684829155, 237),
    ("complement", "tensor-midpoint"): (54.45873405990247, 1.3196129303446469, 812),
}


@pytest.mark.parametrize("op, method", sorted(PINNED_ESTIMATES))
def test_engine_outputs_are_pinned(op, method):
    est = _PIN_OPS[op](_PIN_SPECS[method])
    value, error, samples = PINNED_ESTIMATES[(op, method)]
    assert est.method == method
    assert est.value == pytest.approx(value, rel=1e-12)
    assert est.error == pytest.approx(error, rel=1e-12)
    assert est.samples == samples


class TestTensorAgainstRadial:
    """Tensor integrals over disks and balls at the default budget against
    the radial reductions and closed forms of ``energy``, independent
    routes exact to about 1e-8: the gap lies within the tensor's reported
    error."""

    @pytest.mark.parametrize("g", [frac_kernel(), 1.0, 0.6], ids=["kernel", "riesz-1", "riesz-0.6"])
    def test_separated_disks(self, g):
        tensor = double_integral(_PIN_U, _PIN_W, g, QuadratureSpec())
        radial = energy.interaction(_PIN_U, _PIN_W, g, QuadratureSpec())
        assert (tensor.method, radial.method) == ("tensor-midpoint", "radial-reduction")
        assert abs(tensor.value - radial.value) <= tensor.error

    @pytest.mark.parametrize("g", [frac_kernel(), 1.0], ids=["kernel", "riesz-1"])
    def test_disks_whose_bounding_boxes_touch(self, g):
        # the closed boxes share the edge x = 0, so the grid has cells of
        # both disks side by side
        tensor = double_integral(*_TOUCHING, g, QuadratureSpec())
        radial = energy.interaction(*_TOUCHING, g, QuadratureSpec())
        assert abs(tensor.value - radial.value) <= tensor.error

    @pytest.mark.parametrize(
        "ball, alpha",
        [(_PIN_DISK, 0.6), (_PIN_DISK, 0.9), (_PIN_DISK, 1.5), (_PIN_BALL_3D, 1.0)],
        ids=["disk-0.6", "disk-0.9", "disk-1.5", "ball-3d-1"],
    )
    def test_self_riesz(self, ball, alpha):
        tensor = double_integral(ball, ball, alpha, QuadratureSpec())
        closed = 2.0 * energy.riesz(ball, alpha, QuadratureSpec()).value
        assert abs(tensor.value - closed) <= tensor.error

    @pytest.mark.parametrize(
        "ball, kernel",
        [(_PIN_DISK, trunc_kernel(cap=2.0)), (_PIN_DISK, trunc_kernel()), (_PIN_BALL_3D, trunc_kernel(N=3))],
        ids=["disk-cap-2", "disk-cap-50", "ball-3d-cap-50"],
    )
    def test_complement_of_a_ball(self, ball, kernel):
        tensor = complement_double_integral(ball, kernel, QuadratureSpec())
        radial = energy.perimeter(ball, kernel, QuadratureSpec())
        assert radial.method == "radial-reduction"
        assert abs(tensor.value - radial.value) <= tensor.error

    @pytest.mark.parametrize(
        "ball, exponent",
        [(_PIN_DISK, 1.0), (_PIN_W, 2.5), (_PIN_BALL_3D, 2.0)],
        ids=["inside-disk", "outside-disk", "inside-ball-3d"],
    )
    def test_point_singularity_at_the_origin(self, ball, exponent):
        tensor = integral_over(ball, exponent, QuadratureSpec())
        radial = energy.background(ball, exponent, QuadratureSpec())
        assert abs(tensor.value - radial.value) <= tensor.error
