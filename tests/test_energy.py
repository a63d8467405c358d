"""Tests for the energy terms and their splitting identities.

Ball values are checked against closed forms (Newton's point-mass rule,
harmonic averages, sphere-area formulas) and against high-accuracy
reference numbers computed independently with scipy.integrate on the
radial/polar reductions.
"""

import collections
import math

import mpmath
import numpy as np
import pytest
import scipy.special

from nldrop import energy as energy_mod
from nldrop import geometry
from nldrop.energy import (
    EnergyParams,
    EnergyReport,
    background,
    check_perimeter_decomposition,
    check_riesz_decomposition,
    interaction,
    perimeter,
    riesz,
    scaling_report,
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

    def test_alpha_range(self):
        with pytest.raises(ParameterError):
            EnergyParams(kernel=frac(), alpha=2.0)

    def test_beta_range(self):
        with pytest.raises(ParameterError):
            EnergyParams(kernel=frac(), beta=3.0)


class TestGaussRuleCaches:
    def test_caches_are_bounded(self):
        for rule in (energy_mod._legendre_rule, energy_mod._jacobi_rule):
            maxsize = rule.cache_info().maxsize
            assert maxsize is not None and maxsize > 0

    def test_rules_are_read_only(self):
        for x, w in (energy_mod._legendre_rule(8), energy_mod._jacobi_rule(8, 0.5)):
            for arr in (x, w):
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_each_rule_is_built_once_per_search(self, monkeypatch):
        built = collections.Counter()
        real_leggauss = energy_mod.leggauss
        real_jacobi = energy_mod._gauss_jacobi

        def leggauss(n):
            built["legendre", n] += 1
            return real_leggauss(n)

        def gauss_jacobi(n, s):
            built["jacobi", n, s] += 1
            return real_jacobi(n, s)

        monkeypatch.setattr(energy_mod, "leggauss", leggauss)
        monkeypatch.setattr(energy_mod, "_gauss_jacobi", gauss_jacobi)
        energy_mod._legendre_rule.cache_clear()
        energy_mod._jacobi_rule.cache_clear()
        try:
            params = EnergyParams(kernel=frac(N=3), A=1.0, alpha=0.5, beta=1.0)
            split_advantage(2.0, params, QuadratureSpec(), d_count=3)
        finally:
            energy_mod._legendre_rule.cache_clear()
            energy_mod._jacobi_rule.cache_clear()
        assert any(key[0] == "legendre" for key in built)
        assert any(key[0] == "jacobi" for key in built)
        assert set(built.values()) == {1}


def test_gauss_jacobi_rule_matches_scipy_and_is_exact():
    # the Golub-Welsch rule for (1 + x)^{-s} against scipy's, and exact on
    # x^k, k <= 2n - 1, against the Beta-function moments at 30 digits
    for n in (8, 96, 192):
        for s in (0.1, 0.5, 0.9):
            x, w = energy_mod._jacobi_rule(n, s)
            x_ref, _ = scipy.special.roots_jacobi(n, 0.0, -s)
            assert np.max(np.abs(x - x_ref)) <= 1e-14
            assert w.sum() == pytest.approx(2.0 ** (1.0 - s) / (1.0 - s), rel=1e-14)
    for s in (0.1, 0.5, 0.9):
        x, w = energy_mod._jacobi_rule(8, s)
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

    def test_beta_zero_is_volume(self):
        b = geometry.BallConfig(dimension=2, centers=np.array([[0.5, 0.0]]), radii=np.array([1.0]))
        est = background(b, 0.0, QuadratureSpec())
        assert est.value == pytest.approx(math.pi, rel=1e-3)

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

    def test_empty_factor_gives_zero(self):
        U = geometry.empty_ball_config(2)
        W = disk()
        est = interaction(U, W, 1.0, QuadratureSpec())
        assert est.value == 0.0


def _unblocked_pair_interaction(g, c1, R1, c2, R2, n):
    """The 2-D pair term with the whole (512, n, 128) distance tensor built
    at once: the reference the row-blocked pass must match bit for bit."""
    gfn = energy_mod._radial_eval(g)
    d = float(np.linalg.norm(np.asarray(c2, float) - np.asarray(c1, float)))
    r_grid = np.linspace((d - R1) * (1 - 1e-12), (d + R1) * (1 + 1e-12), 512)
    rho, wrho = energy_mod._gl(n, 0.0, R2)
    phi, wphi = energy_mod._gl(128, 0.0, 2.0 * math.pi)
    RR = r_grid[:, None, None]
    PP = rho[None, :, None]
    CC = np.cos(phi)[None, None, :]
    t = 2.0 * RR * PP * CC
    np.subtract(RR ** 2 + PP ** 2, t, out=t)
    np.maximum(t, 1e-300, out=t)
    np.sqrt(t, out=t)
    u_grid = ((gfn(t) @ wphi) * rho[None, :]) @ wrho
    a, wa = energy_mod._gl(n, 0.0, R1)
    th, wth = energy_mod._gl(n, 0.0, math.pi)
    AA, UU = a[:, None], np.cos(th)[None, :]
    r = np.sqrt(np.clip(AA ** 2 + d ** 2 - 2.0 * AA * d * UU, 0.0, None))
    inner = np.interp(r, r_grid, u_grid) @ (2.0 * wth)
    return float(np.sum(wa * a * inner))


class TestBallPairPass:
    """The riesz and kernel cross terms of a ball pair share one pass; the
    numbers must be those of one pass per integrand, bit for bit."""

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
        kernel = frac()
        args = (np.zeros(2), 0.8, np.array([1.3, 1.6]), 1.2)
        got = energy_mod._ball_pair_interaction((0.6, kernel), 2, *args, n=n)
        want = [_unblocked_pair_interaction(g, *args, n) for g in (0.6, kernel)]
        assert np.array_equal(got, want)

    def test_coulomb_closed_form_beside_quadrature(self):
        # 3-D alpha = 1: the riesz part is the point-mass closed form with no
        # error, the kernel part still comes from quadrature
        E, kernel = self.balls(3), frac(N=3)
        values, errors = energy_mod._balls_cross((1.0, kernel), E)
        vol = geometry.unit_ball_volume(3) * E.radii ** 3
        d = np.linalg.norm(E.centers[:, None] - E.centers[None], axis=-1)
        newton = sum(vol[i] * vol[j] / d[i, j] for i in range(3) for j in range(i + 1, 3))
        assert values[0] == pytest.approx(newton, rel=1e-14)
        assert errors[0] == 0.0
        assert errors[1] > 0.0
        assert values[1] == energy_mod._balls_cross((kernel,), E)[0][0]


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
        assert tab.value == pytest.approx(ref.value, rel=1e-12)

    @pytest.mark.parametrize("N", [2, 3])
    def test_single_ball_perimeter_matches_fractional(self, N):
        ball = geometry.BallConfig(N, np.zeros((1, N)), np.array([0.9]))
        tab = perimeter(ball, self.table(N), QuadratureSpec())
        ref = perimeter(ball, frac(N=N), QuadratureSpec())
        assert abs(tab.value - ref.value) <= tab.error
        assert energy_mod._single_ball_perimeter(self.table(N), 0.9) == pytest.approx(
            energy_mod._single_ball_perimeter(frac(N=N), 0.9), rel=1e-12
        )


class TestDecompositions:
    def test_perimeter_identity_cancels_on_shared_grid(self):
        rng = np.random.default_rng(12)
        U, W = geometry.random_disjoint_pair(2, rng, grid_n=48)
        check = check_perimeter_decomposition(U, W, frac(), QuadratureSpec())
        scale = abs(check.terms["P_U"]) + abs(check.terms["P_W"])
        assert abs(check.residual) <= 1e-10 * scale

    def test_riesz_identity_cancels_on_shared_grid(self):
        rng = np.random.default_rng(12)
        U, W = geometry.random_disjoint_pair(2, rng, grid_n=48)
        check = check_riesz_decomposition(U, W, QuadratureSpec(), alpha=0.8)
        scale = abs(check.terms["V_union"]) + 1e-30
        assert abs(check.residual) <= 1e-8 * scale

    def test_monte_carlo_routes_agree_within_error(self):
        U = geometry.BallConfig(dimension=2, centers=np.array([[-1.0, 0.0]]), radii=np.array([0.7]))
        W = geometry.BallConfig(dimension=2, centers=np.array([[1.2, 0.1]]), radii=np.array([0.8]))
        spec = QuadratureSpec(method="monte-carlo", budget=40_000, seed=3)
        cr = check_riesz_decomposition(U, W, spec, alpha=0.6)
        assert abs(cr.residual) <= 4.0 * cr.combined_error
        # a perimeter has infinite Monte Carlo variance
        with pytest.raises(ParameterError, match="tensor-midpoint"):
            check_perimeter_decomposition(U, W, frac(), spec)

    # Monte Carlo (residual, combined error, terms) of the riesz identity,
    # frozen before the two checks shared one body
    MC_PINNED = {
        "balls": (-0.08793532386586045, 0.22371869273220682, {
            "V_U": 1.1049852598122754, "V_W": 1.8662747035015403,
            "V_union": 4.028659836151531, "cross": 1.145335196703576,
        }),
        "voxels": (0.00017807601938328197, 0.007101712777178743, {
            "V_U": 0.005371772321594419, "V_W": 0.00043745333042118496,
            "V_union": 0.007403157478967222, "cross": 0.0014158558075683364,
        }),
    }

    @pytest.mark.parametrize("inputs", sorted(MC_PINNED))
    def test_monte_carlo_checks_are_pinned(self, inputs):
        if inputs == "balls":
            U = geometry.BallConfig(dimension=2, centers=np.array([[-1.0, 0.0]]), radii=np.array([0.6]))
            W = geometry.BallConfig(dimension=2, centers=np.array([[1.1, 0.2]]), radii=np.array([0.7]))
        else:
            U, W = geometry.random_disjoint_pair(2, np.random.default_rng(12), grid_n=24)
        spec = QuadratureSpec(method="monte-carlo", budget=4000, seed=3)
        check = check_riesz_decomposition(U, W, spec, alpha=0.6)
        residual, error, terms = self.MC_PINNED[inputs]
        assert check.residual == pytest.approx(residual, rel=1e-12)
        assert check.combined_error == pytest.approx(error, rel=1e-12)
        assert check.terms == pytest.approx(terms, rel=1e-12)
        with pytest.raises(ParameterError, match="tensor-midpoint"):
            check_perimeter_decomposition(U, W, frac(), spec)

    def test_residual_coerces_to_float(self):
        rng = np.random.default_rng(5)
        U, W = geometry.random_disjoint_pair(2, rng, grid_n=32)
        check = check_riesz_decomposition(U, W, QuadratureSpec(), alpha=0.8)
        assert float(check) == check.residual


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


class TestScalingReport:
    def test_fractional_exponents_are_exact_on_voxels(self):
        rng = np.random.default_rng(7)
        blob = geometry.random_blob(2, rng, grid_n=32)
        params = EnergyParams(kernel=frac(), A=1.0, alpha=1.0, beta=1.0)
        rep = scaling_report(blob, 2.0, params, QuadratureSpec())
        assert rep.exponents["perimeter"] == pytest.approx(1.5, rel=1e-12)
        assert rep.exponents["riesz"] == pytest.approx(3.0, rel=1e-12)
        assert rep.exponents["background"] == pytest.approx(1.0, rel=1e-12)
        assert rep.exact == {"perimeter": True, "riesz": True, "background": True}

    def test_truncated_kernel_not_flagged_exact(self):
        k = KernelSpec(
            dimension=2, s=0.5, epsilon=0.75, lam=1.0,
            kind="truncated-fractional", cap=0.3,
        )
        params = EnergyParams(kernel=k)
        rep = scaling_report(disk(), 2.0, params, QuadratureSpec())
        assert rep.exact["perimeter"] is False

    def test_bad_scale_factor(self):
        params = EnergyParams(kernel=frac())
        with pytest.raises(ParameterError):
            scaling_report(disk(), -1.0, params, QuadratureSpec())

    def test_record_keys(self):
        params = EnergyParams(kernel=frac())
        rep = scaling_report(disk(), 2.0, params, QuadratureSpec())
        rec = rep.as_record()
        assert rec["lambda"] == 2.0
        for name in ("perimeter", "riesz", "background"):
            for suffix in ("base", "scaled", "ratio", "exponent", "expected", "exact"):
                assert f"{name}_{suffix}" in rec
