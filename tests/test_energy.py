"""Tests for the energy terms and their splitting identities.

Ball values are checked against closed forms (Newton's point-mass rule,
harmonic averages, sphere-area formulas) and against high-accuracy
reference numbers computed independently with scipy.integrate on the
radial/polar reductions.
"""

import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from nldrop import energy as energy_mod
from nldrop import geometry, kernels, quadrature
from nldrop.energy import (
    EnergyParams,
    EnergyReport,
    background,
    interaction,
    perimeter,
    riesz,
    total_energy,
)
from nldrop.errors import ParameterError, PreconditionError
from nldrop.families import split_advantage
from nldrop.kernels import KernelSpec
from nldrop.quadrature import QuadratureSpec, voxelize

# fractional boundary energies of the unit ball at s = 1/2, computed with
# two independent quadratures of the pair-distance reduction
UNIT_DISK_PERIM_HALF = 62.13063877777980
UNIT_BALL_PERIM_HALF_N3 = 178.65892351075532

# polar-coordinate nquad value for two disks (radii 0.6 and 0.8, centers
# 2.0 apart) interacting through 1/|x-y|
DISK_PAIR_COULOMB = 1.1775672396381625


def frac(N=2, s=0.5, eps=0.7, lam=1.0):
    return KernelSpec(dimension=N, s=s, epsilon=eps, lam=lam, kind="fractional")


def disk(m=math.pi, N=2):
    return geometry.ball_of_volume(N, m)


class TestParams:
    def test_negative_background_strength(self):
        with pytest.raises(ParameterError):
            EnergyParams(kernel=frac(), A=-1.0)

    @pytest.mark.parametrize("A", [math.nan, math.inf])
    def test_non_finite_background_strength(self, A):
        with pytest.raises(ParameterError, match="A must be finite"):
            EnergyParams(kernel=frac(), A=A)

    def test_alpha_range(self):
        with pytest.raises(ParameterError):
            EnergyParams(kernel=frac(), alpha=2.0)

    def test_beta_range(self):
        with pytest.raises(ParameterError):
            EnergyParams(kernel=frac(), beta=3.0)


class TestGaussRuleCaches:
    def test_caches_are_bounded(self):
        maxsize = quadrature._gauss_rule.cache_info().maxsize
        assert maxsize is not None and maxsize > 0

    def test_rules_are_read_only(self):
        for x, w in (quadrature._gauss_rule(8), quadrature._gauss_rule(8, 0.5)):
            for arr in (x, w):
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_each_rule_is_built_once_per_search(self, monkeypatch):
        # every cache miss is a build; a call that spells one (n, s) two
        # ways, such as (n,) and (n, 0.0), would build it twice
        real = quadrature._gauss_rule
        asked = set()

        def gauss_rule(*args, **kwargs):
            n, s = (list(args) + [kwargs.get("s", 0.0)])[:2]
            asked.add((n, float(s)))
            return real(*args, **kwargs)

        monkeypatch.setattr(quadrature, "_gauss_rule", gauss_rule)
        real.cache_clear()
        params = EnergyParams(kernel=frac(N=3), A=1.0, alpha=0.5, beta=1.0)
        split_advantage(2.0, params, d_count=3)
        assert any(s == 0.0 for _, s in asked)
        assert any(s > 0.0 for _, s in asked)
        assert real.cache_info().misses == len(asked)


def test_gauss_jacobi_rule_matches_scipy_and_is_exact():
    # the Newton rule for (1 + x)^{-s} against scipy's, and exact on
    # x^k, k <= 2n - 1, against the Beta-function moments at 30 digits
    for n in (1, 2, 3, 6, 8, 32, 48, 64, 96, 128, 192, 256, 512):
        for s in (0.0, 0.1, 0.5, 0.9, 0.99):
            x, w = quadrature._gauss_rule(n, s)
            x_ref, _ = scipy.special.roots_jacobi(n, 0.0, -s)
            assert x.shape == w.shape == (n,)
            assert np.max(np.abs(x - x_ref)) <= 1e-14
            assert w.sum() == pytest.approx(2.0 ** (1.0 - s) / (1.0 - s), rel=1e-14)
            assert -1.0 < x[0] and x[-1] < 1.0 and np.all(np.diff(x) > 0.0)
            assert np.all(w > 0.0)
    for s in (0.0, 0.1, 0.5, 0.9):
        x, w = quadrature._gauss_rule(8, s)
        for k in range(16):
            # int (1 + x)^{-s} x^k = sum_j C(k, j) (-1)^{k-j} 2^{j+1-s} B(j+1-s, 1)
            with mpmath.workdps(30):
                b = 1 - mpmath.mpf(s)
                exact = float(mpmath.fsum(
                    mpmath.binomial(k, j) * (-1) ** (k - j) * 2 ** (j + b) * mpmath.beta(j + b, 1)
                    for j in range(k + 1)
                ))
            assert float(w @ x ** k) == pytest.approx(exact, rel=1e-14)


class TestBallPerimeter:
    def test_unit_disk_value(self):
        est = perimeter(disk(), frac(), QuadratureSpec())
        assert est.value == pytest.approx(UNIT_DISK_PERIM_HALF, rel=1e-10)

    def test_unit_ball_value_three_dim(self):
        est = perimeter(disk(4.0 * math.pi / 3.0, N=3), frac(N=3), QuadratureSpec())
        assert est.value == pytest.approx(UNIT_BALL_PERIM_HALF_N3, rel=1e-10)

    def test_exact_homogeneous_scaling(self):
        b = geometry.ball_of_volume(2, 1.3)
        k = frac()
        spec = QuadratureSpec()
        p1 = perimeter(b, k, spec).value
        p2 = perimeter(geometry.scale(b, 2.0), k, spec).value
        assert p2 == pytest.approx(2.0 ** 1.5 * p1, rel=1e-13)

    def test_two_balls_below_sum_of_singles(self):
        # the union's boundary energy loses twice the cross interaction
        spec = QuadratureSpec()
        k = frac()
        b1 = geometry.BallConfig(dimension=2, centers=np.zeros((1, 2)), radii=np.array([0.7]))
        b2 = geometry.BallConfig(dimension=2, centers=np.array([[2.0, 0.0]]), radii=np.array([0.8]))
        pair = geometry.BallConfig(
            dimension=2,
            centers=np.vstack([b1.centers, b2.centers]),
            radii=np.concatenate([b1.radii, b2.radii]),
        )
        p_pair = perimeter(pair, k, spec).value
        p_sum = perimeter(b1, k, spec).value + perimeter(b2, k, spec).value
        cross = interaction(b1, b2, k, spec).value
        assert p_pair == pytest.approx(p_sum - 2.0 * cross, rel=1e-9)
        assert p_pair < p_sum

    def test_voxel_route_agrees_with_radial_route(self):
        b = disk()
        radial = perimeter(b, frac(), QuadratureSpec())
        grid = perimeter(voxelize(b, cells_per_axis=96), frac(), QuadratureSpec())
        dev = abs(radial.value - grid.value)
        assert dev <= 4.0 * (radial.error + grid.error)

    def test_fine_voxel_disk_runs_at_default_settings(self):
        # the pair sum runs on the shape's own grid, so 512^2 cells fit
        # the FFT size limit
        est = perimeter(voxelize(disk(), cells_per_axis=512), frac(), QuadratureSpec())
        assert est.value == pytest.approx(UNIT_DISK_PERIM_HALF, rel=0.01)

    def test_grid_route_residual_shrinks_with_refinement(self):
        b = disk()
        spec = QuadratureSpec()
        p_true = perimeter(b, frac(), spec).value
        v_true = riesz(b, 1.0, spec).value
        p_dev = [
            abs(perimeter(voxelize(b, cells_per_axis=n), frac(), spec).value - p_true)
            for n in (48, 96)
        ]
        v_dev = [
            abs(riesz(voxelize(b, cells_per_axis=n), 1.0, spec).value - v_true)
            for n in (48, 96)
        ]
        assert p_dev[1] < p_dev[0]
        assert v_dev[1] < v_dev[0]


class TestBallRiesz:
    def test_unit_ball_coulomb_three_dim(self):
        est = riesz(disk(4.0 * math.pi / 3.0, N=3), 1.0, QuadratureSpec())
        assert est.value == pytest.approx(16.0 * math.pi ** 2 / 15.0, rel=1e-12)

    def test_unit_disk_inverse_distance(self):
        est = riesz(disk(), 1.0, QuadratureSpec())
        assert est.value == pytest.approx(8.0 * math.pi / 3.0, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5, 1.9])
    def test_disk_self_energy_closed_form(self, alpha):
        # (1/2) |B|^2 int_0^2 t^{-alpha} p(t) dt with the pair-distance
        # density p(t) = 2 t A_ov(t) / pi, by mpmath at 30 digits after
        # u = t^{2 - alpha}, which removes the t^{1 - alpha} endpoint
        with mpmath.workdps(30):
            a = mpmath.mpf(alpha)

            def density(u):
                t = min(u ** (1 / (2 - a)), mpmath.mpf(2))
                overlap = 2 * mpmath.acos(t / 2) - (t / 2) * mpmath.sqrt(4 - t * t)
                return 2 * overlap / (mpmath.pi * (2 - a))

            exact = float(mpmath.pi ** 2 * mpmath.quad(density, [0, 2 ** (2 - a)]) / 2)
        assert riesz(disk(), alpha, QuadratureSpec()).value == pytest.approx(exact, rel=1e-14)

    def test_exact_scaling(self):
        b = geometry.ball_of_volume(2, 1.3)
        spec = QuadratureSpec()
        v1 = riesz(b, 0.7, spec).value
        v2 = riesz(geometry.scale(b, 2.0), 0.7, spec).value
        assert v2 == pytest.approx(2.0 ** 3.3 * v1, rel=1e-13)

    def test_newton_point_mass_cross_term(self):
        # disjoint balls with the 1/r interaction see each other as points
        pair = geometry.BallConfig(
            dimension=3,
            centers=np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]),
            radii=np.array([1.0, 0.5]),
        )
        est = riesz(pair, 1.0, QuadratureSpec())
        vol = geometry.unit_ball_volume(3)
        expected = (
            16.0 * math.pi ** 2 / 15.0 * (1.0 + 0.5 ** 5)
            + vol ** 2 * 0.5 ** 3 / 3.0
        )
        assert est.value == pytest.approx(expected, rel=1e-12)

    def test_disk_pair_against_independent_quadrature(self):
        U = geometry.BallConfig(dimension=2, centers=np.zeros((1, 2)), radii=np.array([0.6]))
        W = geometry.BallConfig(dimension=2, centers=np.array([[2.0, 0.0]]), radii=np.array([0.8]))
        est = interaction(U, W, 1.0, QuadratureSpec())
        assert est.value == pytest.approx(DISK_PAIR_COULOMB, rel=1e-5)

    def test_alpha_out_of_range(self):
        with pytest.raises(ParameterError):
            riesz(disk(), 2.5, QuadratureSpec())


class TestBackground:
    def test_centered_ball_closed_form(self):
        # int over B_R of |x|^-beta = area(S^{N-1}) R^(N-beta)/(N-beta)
        R = 1.3
        b = geometry.BallConfig(dimension=2, centers=np.zeros((1, 2)), radii=np.array([R]))
        est = background(b, 0.5, QuadratureSpec())
        assert est.value == pytest.approx(2.0 * math.pi * R ** 1.5 / 1.5, rel=1e-12)

    def test_harmonic_average_off_center(self):
        # a ball away from the origin weighs vol/d under the 1/|x| weight
        b = geometry.BallConfig(dimension=3, centers=np.array([[0.0, 0.0, 3.0]]), radii=np.array([1.2]))
        est = background(b, 1.0, QuadratureSpec())
        expected = geometry.unit_ball_volume(3) * 1.2 ** 3 / 3.0
        assert est.value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("d, R", [(0.5, 1.0), (0.999, 1.0), (3.0, 1.2)])
    def test_beta_zero_is_volume(self, d, R):
        # origin inside (trapezoid rule) and outside (ray rule) alike
        b = geometry.BallConfig(dimension=2, centers=np.array([[d, 0.0]]), radii=np.array([R]))
        est = background(b, 0.0, QuadratureSpec())
        assert est.value == pytest.approx(math.pi * R ** 2, rel=1e-14)
        assert est.error <= 1e-14 * est.value

    @pytest.mark.parametrize("d, truth", [(0.5, 5.8698488), (0.999, 4.0159776)])
    def test_off_center_disk_is_elliptic(self, d, truth):
        # the unit disk with the origin inside at distance d weighs
        # 4 E(d^2) under 1/|x| (E the complete elliptic integral of the
        # second kind); at d = 0.999 the shell rule was 8.8 bars off
        exact = 4.0 * scipy.special.ellipe(d * d)
        assert exact == pytest.approx(truth, abs=1e-7)
        b = geometry.BallConfig(dimension=2, centers=np.array([[d, 0.0]]), radii=np.array([1.0]))
        est = background(b, 1.0, QuadratureSpec())
        assert abs(est.value - exact) <= est.error + 1e-14 * exact
        assert est.value == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 2.5])
    def test_origin_outside_matches_polar_quadrature(self, beta):
        # rays from the origin against scipy's polar integral about it
        d, R = 1.5, 1.0
        b = geometry.BallConfig(dimension=2, centers=np.array([[d, 0.0]]), radii=np.array([R]))
        est = background(b, beta, QuadratureSpec())
        tmax = math.asin(R / d)

        def ray(theta):
            c, root = d * math.cos(theta), math.sqrt(max(R * R - (d * math.sin(theta)) ** 2, 0.0))
            return scipy.integrate.quad(lambda t: t ** (1.0 - beta), c - root, c + root, epsrel=1e-13)[0]

        truth = 2.0 * scipy.integrate.quad(ray, 0.0, tmax, epsrel=1e-12)[0]
        assert est.value == pytest.approx(truth, rel=1e-11)

    @staticmethod
    def ball_truth(beta, d, R=1.0):
        """int over the 3-D ball B((d, 0, 0), R) of |x|^-beta at 40 digits,
        as monomials r^(k - beta): the sphere of radius r about the origin
        lies in the ball, area 4 pi r^2, up to R - d, and meets it in the cap
        (pi r / d)(R^2 - (r - d)^2) on [|R - d|, R + d]."""
        with mpmath.workdps(40):
            b, d, R = (mpmath.mpf(v) for v in (beta, d, R))
            lo, hi = abs(R - d), R + d

            def moment(e):  # int_lo^hi r^(e - 1) dr
                return mpmath.log(hi / lo) if e == 0 else (hi ** e - lo ** e) / e

            inner = 4 * mpmath.pi * lo ** (3 - b) / (3 - b) if d < R else 0
            shell = 2 * d * moment(3 - b) - moment(4 - b)
            if lo > 0:
                shell += (R - d) * (R + d) * moment(2 - b)
            return float(inner + mpmath.pi / d * shell)

    @pytest.mark.parametrize(
        "beta, d, truth",
        [
            (0.0, 0.5, 4.0 * math.pi / 3.0),
            (0.0, 1.5, 4.0 * math.pi / 3.0),
            (1.0, 0.5, 5.759586531581287),  # Newton: 2 pi (R^2 - d^2 / 3)
            (2.9, 0.5, 123.93382369256052),
            (2.99, 0.5, 1254.837358343915),
        ],
    )
    def test_ball_truth_pins(self, beta, d, truth):
        # the monomial sum against Newton's shell rule, the volume and the
        # boundary identity int_E |x|^-beta = (1/(3 - beta)) int_dE |x|^-beta x.nu
        assert self.ball_truth(beta, d) == pytest.approx(truth, rel=1e-15)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0, 2.9, 2.99])
    def test_off_center_ball_is_exact(self, beta):
        # the origin inside, on the sphere and outside: the one 512-point
        # rule over [max(0, d - R), d + R] was 33 bars low at beta = 2.9,
        # d = 1/2, and 1/8 of the value at beta = 2.99
        for d in (0.5, 0.999, 0.999999, 1.0 - 1e-10, 1.0, 1.000001, 1.5, 10.0):
            b = geometry.BallConfig(dimension=3, centers=np.array([[0.0, d, 0.0]]), radii=np.array([1.0]))
            est = background(b, beta, QuadratureSpec())
            truth = self.ball_truth(beta, d)
            assert est.value == pytest.approx(truth, rel=2e-15), d
            assert abs(est.value - truth) <= est.error + 2e-15 * truth, d
            assert est.error <= 1e-13 * truth, d

    def test_off_center_ball_builds_small_rules(self, monkeypatch):
        sizes = set()

        def spy(n, s=0.0):
            sizes.add(n)
            return gauss_rule(n, s)

        gauss_rule = quadrature._gauss_rule
        monkeypatch.setattr(quadrature, "_gauss_rule", spy)
        b = geometry.BallConfig(dimension=3, centers=np.array([[0.3, 0.4, 0.0]]), radii=np.array([1.0]))
        background(b, 2.5, QuadratureSpec())
        assert sizes == {64, 32}

    def test_radial_and_grid_routes_agree(self):
        b = geometry.BallConfig(dimension=2, centers=np.array([[0.5, 0.0]]), radii=np.array([1.0]))
        r1 = background(b, 0.7, QuadratureSpec())
        r2 = background(voxelize(b, cells_per_axis=192), 0.7, QuadratureSpec())
        assert abs(r1.value - r2.value) <= 4.0 * (r1.error + r2.error)

    def test_shift_away_from_origin_decreases_weight(self):
        rng = np.random.default_rng(9)
        blob = geometry.random_blob(2, rng, grid_n=24)
        est0 = background(blob, 1.0, QuadratureSpec())
        shifted = geometry.translate(blob, np.array([40 * blob.spacing, 0.0]))
        est1 = background(shifted, 1.0, QuadratureSpec())
        assert est1.value < est0.value

    def test_beta_out_of_range(self):
        with pytest.raises(ParameterError):
            background(disk(), 3.5, QuadratureSpec())

    def test_divergent_voxel_background_is_refused(self):
        # beta >= N diverges on the cell holding the origin, as on the ball
        vox = voxelize(disk(), cells_per_axis=33)
        with pytest.raises(ParameterError, match="diverges"):
            background(vox, 2.5, QuadratureSpec())
        with pytest.raises(ParameterError, match="diverges"):
            background(disk(), 2.5, QuadratureSpec())


class TestTotalEnergy:
    def test_assembly_arithmetic(self):
        params = EnergyParams(kernel=frac(), A=2.0, alpha=0.7, beta=1.0)
        spec = QuadratureSpec()
        b = disk()
        rep = total_energy(b, params, spec)
        p = perimeter(b, params.kernel, spec)
        v = riesz(b, 0.7, spec)
        r = background(b, 1.0, spec)
        assert rep.total == p.value + v.value - 2.0 * r.value
        assert rep.error == p.error + v.error + 2.0 * r.error

    def test_record_keys(self):
        params = EnergyParams(kernel=frac(), A=0.5)
        rep = total_energy(disk(), params, QuadratureSpec())
        rec = rep.as_record()
        for key in (
            "perimeter", "perimeter_error", "riesz", "riesz_error",
            "background", "background_error", "total", "total_error",
            "A", "alpha", "beta",
        ):
            assert key in rec


class TestInteraction:
    def test_overlap_rejected(self):
        U = geometry.BallConfig(dimension=2, centers=np.zeros((1, 2)), radii=np.array([1.0]))
        W = geometry.BallConfig(dimension=2, centers=np.array([[0.5, 0.0]]), radii=np.array([1.0]))
        with pytest.raises(
            PreconditionError,
            match=r"ball 0 of the first shape and ball 0 of the second are not "
            r"disjoint \(center distance 0\.5 <= radius sum 2\)",
        ):
            interaction(U, W, 1.0, QuadratureSpec())

    def test_ball_overlapping_voxel_shape_rejected(self):
        blob = geometry.random_blob(2, np.random.default_rng(3), grid_n=24)
        ball = geometry.BallConfig(dimension=2, centers=np.zeros((1, 2)), radii=np.array([0.3]))
        with pytest.raises(PreconditionError, match="overlap on the shared grid"):
            interaction(ball, blob, 1.0, QuadratureSpec())

    def test_voxel_shapes_of_different_spacing_overlapping_rejected(self):
        U = voxelize(disk(), 24)
        W = voxelize(geometry.translate(disk(), np.array([0.5, 0.0])), 20)
        assert U.spacing != W.spacing
        with pytest.raises(PreconditionError, match="overlap on the shared grid"):
            interaction(U, W, frac(), QuadratureSpec())

    @pytest.mark.parametrize("N", [2, 3])
    def test_slice_halves_pass_the_overlap_check(self, N):
        vox = voxelize(disk(N=N), 16)
        nu = np.ones(N) / math.sqrt(N)
        cells = np.argwhere(np.ones_like(vox.occupancy))
        upper = ((vox.origin + (cells + 0.5) * vox.spacing) @ nu >= 0.1).reshape(vox.occupancy.shape)
        halves = [dataclasses.replace(vox, occupancy=vox.occupancy & m) for m in (upper, ~upper)]
        est = interaction(*halves, 1.0, QuadratureSpec())
        assert est.value > 0.0

    def test_same_spacing_shapes_at_an_odd_cell_offset(self):
        # W starts 5 cells after U: coarsened one at a time, the two shapes
        # fall on coarse grids half a cell apart; the pair's coarse level is
        # the coarsening of their common grid, as for the same pair given on
        # that grid
        block = np.ones((4, 4), dtype=bool)
        U = geometry.VoxelShape(2, np.zeros(2), 0.1, block)
        W = geometry.VoxelShape(2, np.array([0.5, 0.0]), 0.1, block)
        on_common = []
        for rows in (slice(0, 4), slice(5, 9)):
            occ = np.zeros((9, 4), dtype=bool)
            occ[rows] = True
            on_common.append(geometry.VoxelShape(2, np.zeros(2), 0.1, occ))
        spec = QuadratureSpec()
        for pair_integral, g in ((quadrature.double_integral, 1.0), (interaction, frac())):
            got = pair_integral(U, W, g, spec)
            want = pair_integral(*on_common, g, spec)
            assert got.value > 0.0
            assert (got.value, got.error) == (want.value, want.error)

    def test_ball_and_blob_are_voxelized_once_per_level(self, monkeypatch):
        # the overlap check and the pair integral share the pair's levels:
        # each shape is voxelized once on the fine and once on the coarse one
        calls = []
        real = quadrature.voxelize

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(quadrature, "voxelize", counted)
        blob = geometry.random_blob(2, np.random.default_rng(3), grid_n=24)
        ball = geometry.BallConfig(dimension=2, centers=np.array([[1.0, 0.0]]), radii=np.array([0.3]))
        est = interaction(ball, blob, 1.0, QuadratureSpec())
        assert est.value > 0.0
        assert len(calls) == 4

    def test_empty_factor_gives_zero(self):
        U = geometry.empty_ball_config(2)
        W = disk()
        est = interaction(U, W, 1.0, QuadratureSpec())
        assert est.value == 0.0


def _table_pair_value(u_grid, d, R1, n):
    """The outer n x n Gauss rule over B1 of the inner-potential table
    ``u_grid`` on the 512-point grid of ``energy._ball_pair_interaction``."""
    r_grid = np.linspace((d - R1) * (1 - 1e-12), (d + R1) * (1 + 1e-12), 512)
    a, wa = energy_mod._gl(n, 0.0, R1)
    th, wth = energy_mod._gl(n, 0.0, math.pi)
    AA, UU = a[:, None], np.cos(th)[None, :]
    r = np.sqrt(np.clip(AA ** 2 + d ** 2 - 2.0 * AA * d * UU, 0.0, None))
    inner = np.interp(r, r_grid, u_grid) @ (2.0 * wth)
    return float(np.sum(wa * a * inner))


def _unblocked_pair_interaction(g, d, R1, R2, n):
    """The 2-D pair term with each table row summed over the whole
    (512, n, 64) distance tensor: an n-point rule in the B2 radius and the
    symmetric half of a 128-point angle rule, g evaluated at every distance.
    An independent route to the rows the ray formula gives."""
    gfn = energy_mod._radial_eval(g)
    r_grid = np.linspace((d - R1) * (1 - 1e-12), (d + R1) * (1 + 1e-12), 512)
    rho, wrho = energy_mod._gl(n, 0.0, R2)
    phi, wphi = energy_mod._gl(128, 0.0, 2.0 * math.pi)
    phi, wphi = phi[:64], 2.0 * wphi[:64]
    RR = r_grid[:, None, None]
    PP = rho[None, :, None]
    CC = np.cos(phi)[None, None, :]
    t = 2.0 * RR * PP * CC
    np.subtract(RR ** 2 + PP ** 2, t, out=t)
    np.maximum(t, 1e-300, out=t)
    np.sqrt(t, out=t)
    u_grid = ((gfn(t) @ wphi) * rho[None, :]) @ wrho
    return _table_pair_value(u_grid, d, R1, n)


def _ray_row_reference(kernel, r, R2, order=64):
    """u(r) = int_{B2} K(|x - y|) dy at |x - c2| = r by the ray formula
    on an order-point Gauss-Legendre rule (numpy's) per piece of
    phi in [0, pi/2], split where rho_- or rho_+ crosses a knot of K, so
    every piece is smooth."""
    knots = kernels._pieces(kernel)[0]
    x, w = np.polynomial.legendre.leggauss(order)
    tmax = math.asin(R2 / r)
    cuts = {0.0, 0.5 * math.pi}
    for rc in knots:
        # the ray at angle theta meets the circle |y - c2| = R2 at distance
        # rc where cos(theta) = (rc^2 + r^2 - R2^2) / (2 r rc)
        c = (rc * rc + r * r - R2 * R2) / (2.0 * r * rc)
        if -1.0 < c < 1.0 and math.acos(c) < tmax:
            cuts.add(math.asin(math.acos(c) / tmax))
    cuts = sorted(cuts)
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        phi = 0.5 * (a + b) + 0.5 * (b - a) * x
        th = tmax * np.sin(phi)
        root = np.sqrt(np.maximum(R2 ** 2 - (r * np.sin(th)) ** 2, 0.0))
        G = kernels.radial_antiderivative(kernel, 1, np.concatenate([r * np.cos(th) + root, r * np.cos(th) - root]))
        total += 0.5 * (b - a) * float((w * np.cos(phi)) @ (G[:order] - G[order:]))
    return 2.0 * tmax * total


class TestBallPairPass:
    """The riesz and kernel cross terms of a ball pair share one pass; the
    numbers must be those of one pass per integrand, bit for bit.  Each
    row of the 2-D inner-potential table comes from the ray formula."""

    R1, R2 = 0.8, 1.2

    @staticmethod
    def balls(N):
        centers = np.zeros((3, N))
        centers[1, 0], centers[2, 1] = 2.3, -2.9
        return geometry.BallConfig(N, centers, np.array([1.0, 0.8, 1.2]))

    @pytest.mark.parametrize("N, alpha", [(2, 1.0), (2, 0.5), (3, 0.5), (3, 1.0)])
    def test_shared_call_matches_single_calls(self, N, alpha):
        E, kernel = self.balls(N), frac(N=N)
        values, errors = energy_mod._balls_cross((alpha, kernel), E)
        singles = [energy_mod._balls_cross((g,), E) for g in (alpha, kernel)]
        assert np.array_equal(values, [v[0] for v, _ in singles])
        assert np.array_equal(errors, [e[0] for _, e in singles])

    @pytest.mark.parametrize("n", [96, 48])
    def test_blocked_table_matches_full_tensor(self, n):
        # the ray rows, in blocks, against rows summed over the whole
        # (r, rho, phi) distance tensor, through the same interpolation
        # and outer rule
        kernel = frac()
        args = (float(np.hypot(1.3, 1.6)), self.R1, self.R2)
        got = energy_mod._ball_pair_interaction((0.6, kernel), *args, n=n)
        want = [_unblocked_pair_interaction(g, *args, n) for g in (0.6, kernel)]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("d", [2.05, 5.0])
    def test_coulomb_rows_are_elliptic(self, d):
        # the potential of the unit-density disk of radius R under 1/|x - y|
        # at distance r > R: 4 r [E(k^2) - (1 - k^2) K(k^2)], k = R / r
        r = np.linspace(d - self.R1, d + self.R1, 512)
        u = energy_mod._disk_ray_integral([energy_mod._radial_primitive(1.0)], r, self.R2, 96)[0]
        k2 = (self.R2 / r) ** 2
        exact = 4.0 * r * (scipy.special.ellipe(k2) - (1.0 - k2) * scipy.special.ellipk(k2))
        np.testing.assert_allclose(u, exact, rtol=5e-14, atol=0.0)

    def test_truncated_near_touching_within_the_bar(self):
        # cap 50 at 1.02 times touching: the truncation radius r_cap lies
        # inside the gap's range of distances, so rho_-+ cross the kink.
        # The reference takes the same 512-point table and outer rule with
        # rows split at the kink; the (r, rho, phi) table was 2.3 bars off
        # it (3.05847154144 +- 1.9e-7 against 3.05847109746).  The fixed
        # table's interpolation error is not in the bar: an adaptive
        # integral of the rows without the table gives 3.0584464546
        cap, n = 50.0, 96
        kernel = KernelSpec(dimension=2, s=0.5, epsilon=0.7, kind="truncated-fractional", cap=cap)
        d = 1.02 * (self.R1 + self.R2)
        r_grid = np.linspace((d - self.R1) * (1 - 1e-12), (d + self.R1) * (1 + 1e-12), 512)
        u_ref = np.array([_ray_row_reference(kernel, r, self.R2) for r in r_grid])
        u = energy_mod._disk_ray_integral([energy_mod._radial_primitive(kernel)], r_grid, self.R2, n)[0]
        assert np.max(np.abs(u / u_ref - 1.0)) < 1e-6
        truth = _table_pair_value(u_ref, d, self.R1, n)
        assert truth == pytest.approx(3.05847109746, rel=1e-11)
        U = geometry.BallConfig(2, np.zeros((1, 2)), np.array([self.R1]))
        W = geometry.BallConfig(2, np.array([[d, 0.0]]), np.array([self.R2]))
        est = interaction(U, W, kernel, QuadratureSpec())
        assert abs(est.value - truth) <= est.error

    def test_coulomb_closed_form_beside_quadrature(self):
        # 3-D alpha = 1 takes the same pair-distance route as the kernel and
        # reproduces Newton's point-mass value m_i m_j / d_ij within its bar
        E, kernel = self.balls(3), frac(N=3)
        values, errors = energy_mod._balls_cross((1.0, kernel), E)
        vol = geometry.unit_ball_volume(3) * E.radii ** 3
        d = np.linalg.norm(E.centers[:, None] - E.centers[None], axis=-1)
        newton = sum(vol[i] * vol[j] / d[i, j] for i in range(3) for j in range(i + 1, 3))
        assert values[0] == pytest.approx(newton, rel=1e-14)
        assert abs(values[0] - newton) <= errors[0] <= 1e-12 * newton
        assert values[1] == energy_mod._balls_cross((kernel,), E)[0][0]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_power(a, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = _poly_mul(out, a)
    return out


def _poly_sum(*ps):
    out = [Fraction(0)] * max(map(len, ps))
    for p in ps:
        for i, c in enumerate(p):
            out[i] += c
    return out


def _ball_pair_closed_form(pieces, R1, R2, d):
    """int_{B1} int_{B2} K(|x - y|) for 3-D balls at center distance d, with
    K = c r^-p on each (lo, hi, c, p) of ``pieces``: the pair-distance
    density (pi^2 / d) t q(t - d) expanded in monomials of t with exact
    rational coefficients and integrated term by term at 60 digits, so the
    cancellation of its large terms far from touching costs nothing."""
    R1, R2, d = Fraction(R1), Fraction(R2), Fraction(d)
    # (R1^2 - delta^2)(R2^2 - (delta - tau)^2) = sum_k c_k(tau) delta^k
    coef = [
        [R1 * R1 * R2 * R2, 0, -R1 * R1], [0, 2 * R1 * R1],
        [-(R1 * R1 + R2 * R2), 0, 1], [0, -2], [1],
    ]

    def primitive(limit):  # the delta-antiderivative at delta = limit(tau)
        return _poly_sum(*(
            [x / (k + 1) for x in _poly_mul(c, _poly_power(limit, k + 1))]
            for k, c in enumerate(coef)
        ))

    def mp(x):
        return mpmath.mpf(x.numerator) / x.denominator

    S, D = R1 + R2, abs(R1 - R2)
    cuts = sorted({-S, -D, D, S})
    total = mpmath.mpf(0)
    with mpmath.workdps(60):
        for a, b in zip(cuts, cuts[1:]):
            lower = [-R1, 0] if a + b <= 2 * (R2 - R1) else [-R2, 1]
            upper = [R1, 0] if a + b >= 2 * (R1 - R2) else [R2, 1]
            q = _poly_sum(primitive(upper), [-x for x in primitive(lower)])
            # t q(t - d) in monomials of t
            tq = [Fraction(0)] + _poly_sum(*(
                [c * x for x in _poly_power([-d, 1], k)] for k, c in enumerate(q)
            ))
            for lo, hi, c, p in pieces:
                x0, x1 = max(mp(d + a), mpmath.mpf(lo)), min(mp(d + b), mpmath.mpf(hi))
                if x0 >= x1:
                    continue
                for k, ck in enumerate(tq):
                    e = k + 1 - mpmath.mpf(p)
                    total += c * mp(ck) * (x1 ** e - x0 ** e) / e
        return float(total * mpmath.pi ** 2 / mp(d))


class TestBallPairDensity:
    """3-D ball pair terms against ground truth: Newton's m1 m2 / d for
    1/|x - y|, and the monomial closed form of the pair-distance density
    for power-law pieces.  Every bar covers its error and stays below
    1e-9 of the value, from 1.02 times touching to 10^6 diameters."""

    R1, R2 = 0.8, 1.2

    def pair(self, g, d):
        U = geometry.BallConfig(3, np.zeros((1, 3)), np.array([self.R1]))
        W = geometry.BallConfig(3, np.array([[d, 0.0, 0.0]]), np.array([self.R2]))
        return interaction(U, W, g, QuadratureSpec())

    def assert_covered(self, est, truth):
        assert abs(est.value - truth) <= est.error <= 1e-9 * abs(est.value)

    @pytest.mark.parametrize("ratio", [1.02, 4.0, 1e3, 1e6])
    def test_coulomb_is_newton(self, ratio):
        d = ratio * (self.R1 + self.R2)
        vol = geometry.unit_ball_volume(3)
        newton = vol ** 2 * (self.R1 * self.R2) ** 3 / d
        est = self.pair(1.0, d)
        assert est.value == pytest.approx(newton, rel=1e-14)
        self.assert_covered(est, newton)

    @pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("ratio", [1.02, 1.1])
    def test_fractional_near_touching(self, s, ratio):
        d = ratio * (self.R1 + self.R2)
        truth = _ball_pair_closed_form([(0.0, math.inf, 1.0, 3 + s)], self.R1, self.R2, d)
        self.assert_covered(self.pair(frac(N=3, s=s), d), truth)

    def test_far_value_the_table_missed(self):
        # the 512-point inner-potential table gave 4.35881213967e-4 +- 3.5e-15
        truth = _ball_pair_closed_form([(0.0, math.inf, 1.0, 3.5)], self.R1, self.R2, 20.0)
        assert truth == pytest.approx(4.358811998742e-4, rel=1e-12)
        self.assert_covered(self.pair(frac(N=3), 20.0), truth)

    @pytest.mark.parametrize("d", [2.05, 2.2])
    def test_truncated_cap_inside_the_support(self, d):
        cap = 50.0
        r_cap = cap ** (-1.0 / 3.5)
        assert d - self.R1 - self.R2 < r_cap < d + self.R1 + self.R2
        kernel = KernelSpec(
            dimension=3, s=0.5, epsilon=0.7, kind="truncated-fractional", cap=cap
        )
        truth = _ball_pair_closed_form(
            [(0.0, r_cap, cap, 0.0), (r_cap, math.inf, 1.0, 3.5)], self.R1, self.R2, d
        )
        self.assert_covered(self.pair(kernel, d), truth)


class TestTabulatedBallTerms:
    """A table sampled from r^-(N+s) must give the fractional ball terms
    within their reported bars.  The 3-D pair moment of a table once came
    from a trapezoid whose anchor moved with the range of T, so
    M(T + P) - M(T - P) mixed two antiderivatives: -784.95 +- 12.9 where
    the fractional kernel gives 2.6176."""

    @staticmethod
    def table(N):
        r = np.geomspace(1e-3, 1e3, 200)
        return KernelSpec(
            dimension=N, s=0.5, epsilon=0.7, kind="tabulated",
            radii=r, values=r ** -(N + 0.5), tail=("power", N + 0.5),
        )

    @pytest.mark.parametrize("N", [2, 3])
    def test_pair_interaction_matches_fractional(self, N):
        c2 = np.zeros((1, N))
        c2[0, 0] = 2.05
        U = geometry.BallConfig(N, np.zeros((1, N)), np.array([0.8]))
        W = geometry.BallConfig(N, c2, np.array([1.2]))
        tab = interaction(U, W, self.table(N), QuadratureSpec())
        ref = interaction(U, W, frac(N=N), QuadratureSpec())
        assert abs(tab.value - ref.value) <= tab.error
        # both take the exact antiderivative of K's power-law pieces
        assert tab.value == pytest.approx(ref.value, rel=1e-13)

    @pytest.mark.parametrize("N", [2, 3])
    def test_single_ball_perimeter_matches_fractional(self, N):
        ball = geometry.BallConfig(N, np.zeros((1, N)), np.array([0.9]))
        tab = perimeter(ball, self.table(N), QuadratureSpec())
        ref = perimeter(ball, frac(N=N), QuadratureSpec())
        assert abs(tab.value - ref.value) <= tab.error
        assert energy_mod._single_ball_perimeter(self.table(N), 0.9) == pytest.approx(
            energy_mod._single_ball_perimeter(frac(N=N), 0.9), rel=1e-12
        )


def split_terms(U, W, g):
    """The public terms of a disjoint pair on the fine level of
    ``energy._disjoint_levels``, where U, W and U u W share one grid: with
    a kernel g, (P(U), P(W), P(U u W), I_K(U, W)); with a riesz exponent,
    (V(U), V(W), V(U u W), I_alpha(U, W))."""
    spec = QuadratureSpec()
    (U, W), _ = energy_mod._disjoint_levels(U, W, spec)
    union = dataclasses.replace(U, occupancy=U.occupancy | W.occupancy)
    if isinstance(g, KernelSpec):
        parts = [perimeter(E, g, spec) for E in (U, W, union)]
    else:
        parts = [riesz(E, g, spec) for E in (U, W, union)]
    return (*parts, interaction(U, W, g, spec))


class TestDecompositions:
    """P(U) + P(W) - P(U u W) = 2 I_K(U, W) and V(U u W) - V(U) - V(W) =
    I_alpha(U, W) for disjoint U, W: on one shared grid both cancel at
    machine precision."""

    def test_perimeter_identity_cancels_on_shared_grid(self):
        rng = np.random.default_rng(12)
        U, W = geometry.random_disjoint_pair(2, rng, grid_n=48)
        pU, pW, pUW, cross = split_terms(U, W, frac())
        residual = pU.value + pW.value - pUW.value - 2.0 * cross.value
        assert abs(residual) <= 1e-10 * (abs(pU.value) + abs(pW.value))

    def test_riesz_identity_cancels_on_shared_grid(self):
        rng = np.random.default_rng(12)
        U, W = geometry.random_disjoint_pair(2, rng, grid_n=48)
        vU, vW, vUW, cross = split_terms(U, W, 0.8)
        residual = vUW.value - vU.value - vW.value - cross.value
        assert abs(residual) <= 1e-8 * (abs(vUW.value) + 1e-30)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5])
    def test_riesz_identity_across_exponents(self, alpha):
        rng = np.random.default_rng(12)
        U, W = geometry.random_disjoint_pair(2, rng, grid_n=48)
        vU, vW, vUW, cross = split_terms(U, W, alpha)
        residual = vUW.value - vU.value - vW.value - cross.value
        assert abs(residual) <= 1e-8 * abs(vUW.value)

    def test_perimeter_identity_with_a_truncated_kernel(self):
        rng = np.random.default_rng(12)
        U, W = geometry.random_disjoint_pair(2, rng, grid_n=48)
        k = KernelSpec(dimension=2, s=0.5, epsilon=0.75, lam=1.0, kind="truncated-fractional", cap=0.3)
        pU, pW, pUW, cross = split_terms(U, W, k)
        residual = pU.value + pW.value - pUW.value - 2.0 * cross.value
        assert abs(residual) <= 1e-10 * (abs(pU.value) + abs(pW.value))

    def test_ball_pair_identities_cancel_on_shared_grid(self):
        # ball inputs are voxelized onto the grid shared by the pair
        U = geometry.BallConfig(dimension=2, centers=np.array([[-1.0, 0.0]]), radii=np.array([0.7]))
        W = geometry.BallConfig(dimension=2, centers=np.array([[1.2, 0.1]]), radii=np.array([0.8]))
        pU, pW, pUW, cross = split_terms(U, W, frac())
        residual = pU.value + pW.value - pUW.value - 2.0 * cross.value
        assert abs(residual) <= 1e-10 * (abs(pU.value) + abs(pW.value))
        vU, vW, vUW, cross = split_terms(U, W, 0.6)
        assert abs(vUW.value - vU.value - vW.value - cross.value) <= 1e-8 * abs(vUW.value)


class TestTranslationInvariance:
    def test_pair_terms_unmoved_by_grid_shifts(self):
        rng = np.random.default_rng(21)
        blob = geometry.random_blob(2, rng, grid_n=24)
        shift = np.array([32 * blob.spacing, -16 * blob.spacing])
        moved = geometry.translate(blob, shift)
        spec = QuadratureSpec()
        assert riesz(moved, 0.8, spec).value == pytest.approx(
            riesz(blob, 0.8, spec).value, rel=1e-12
        )
        assert perimeter(moved, frac(), spec).value == pytest.approx(
            perimeter(blob, frac(), spec).value, rel=1e-9
        )


class TestScaling:
    def test_fractional_exponents_are_exact_on_voxels(self):
        # P_K(lam E) = lam^(N - s) P_K(E) for the fractional kernel,
        # V_alpha(lam E) = lam^(2N - alpha) V_alpha(E) and R_beta(lam E) =
        # lam^(N - beta) R_beta(E); a voxel grid scales with no resampling
        rng = np.random.default_rng(7)
        blob = geometry.random_blob(2, rng, grid_n=32)
        spec = QuadratureSpec()
        big = geometry.scale(blob, 2.0)
        for term, arg, expected in (
            (perimeter, frac(), 1.5), (riesz, 1.0, 3.0), (background, 1.0, 1.0),
        ):
            ratio = term(big, arg, spec).value / term(blob, arg, spec).value
            assert math.log(ratio) / math.log(2.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "term, arg, expected",
        [
            (perimeter, KernelSpec(dimension=2, s=0.2, epsilon=0.9, lam=1.0, kind="fractional"), 1.8),
            (riesz, 0.5, 3.5),
            (riesz, 1.5, 2.5),
            (background, 0.5, 1.5),
            (background, 1.7, 0.3),
        ],
        ids=["perimeter-s0.2", "riesz-0.5", "riesz-1.5", "background-0.5", "background-1.7"],
    )
    def test_exponents_follow_the_orders(self, term, arg, expected):
        rng = np.random.default_rng(7)
        blob = geometry.random_blob(2, rng, grid_n=32)
        spec = QuadratureSpec()
        ratio = term(geometry.scale(blob, 2.0), arg, spec).value / term(blob, arg, spec).value
        assert math.log(ratio) / math.log(2.0) == pytest.approx(expected, rel=1e-12)

    def test_truncated_kernel_is_not_scale_exact(self):
        # the cap sets a length, so P_K(2 E) / P_K(E) is not 2^(N - s)
        k = KernelSpec(dimension=2, s=0.5, epsilon=0.75, lam=1.0, kind="truncated-fractional", cap=0.3)
        spec = QuadratureSpec()
        ratio = perimeter(geometry.scale(disk(), 2.0), k, spec).value / perimeter(disk(), k, spec).value
        assert abs(math.log(ratio) / math.log(2.0) - 1.5) > 0.1
