"""Tests for competitor families: two-ball splits, chains and the
subadditivity probe."""

import math
import tracemalloc

import numpy as np
import pytest

from nldrop import energy as energy_mod
from nldrop import geometry
from nldrop.energy import EnergyParams, background, perimeter, riesz
from nldrop.errors import ParameterError, PreconditionError
from nldrop.families import (
    FamilySearchResult,
    TwoBallConfig,
    single_ball_energy,
    split_advantage,
    two_ball_energy,
    weak_subadditivity_probe,
)
from nldrop.kernels import KernelSpec
from nldrop.quadrature import QuadratureSpec


def kernel3(s=0.5, eps=0.5):
    return KernelSpec(dimension=3, s=s, epsilon=eps, lam=1.0, kind="fractional")


def make_params(A=1.0):
    return EnergyParams(kernel=kernel3(), A=A, alpha=1.0, beta=1.0)


class TestTwoBallConfig:
    def test_overlap_rejected(self):
        r = (1.0 / geometry.unit_ball_volume(3)) ** (1.0 / 3.0)
        with pytest.raises(PreconditionError):
            TwoBallConfig(dimension=3, m1=1.0, m2=1.0, d=1.5 * r)

    def test_bad_masses_and_distance(self):
        with pytest.raises(ParameterError):
            TwoBallConfig(dimension=3, m1=0.0, m2=1.0, d=3.0)
        with pytest.raises(ParameterError):
            TwoBallConfig(dimension=3, m1=1.0, m2=1.0, d=-1.0)

    def test_shape_and_radii(self):
        cfg = TwoBallConfig(dimension=3, m1=2.0, m2=1.0, d=3.0)
        r1, r2 = cfg.radii
        vol = geometry.unit_ball_volume(3)
        assert vol * r1 ** 3 == pytest.approx(2.0, rel=1e-13)
        assert vol * r2 ** 3 == pytest.approx(1.0, rel=1e-13)
        shape = cfg.shape()
        assert shape.count == 2
        assert geometry.volume(shape) == pytest.approx(3.0, rel=1e-13)


class TestTwoBallEnergy:
    def test_matches_directly_assembled_terms(self):
        # background attraction acts on the origin ball only
        cfg = TwoBallConfig(dimension=3, m1=2.0, m2=1.0, d=3.0)
        params = make_params()
        spec = QuadratureSpec()
        rep = two_ball_energy(cfg, params, spec)
        pair = cfg.shape()
        origin_ball = geometry.BallConfig(
            dimension=3, centers=np.zeros((1, 3)), radii=np.array([cfg.radii[0]])
        )
        direct = (
            perimeter(pair, params.kernel, spec).value
            + riesz(pair, 1.0, spec).value
            - params.A * background(origin_ball, 1.0, spec).value
        )
        assert rep.total == pytest.approx(direct, rel=1e-12)

    def test_energy_decreases_with_separation(self):
        params = make_params(A=0.0)
        spec = QuadratureSpec()
        totals = [
            two_ball_energy(
                TwoBallConfig(dimension=3, m1=1.5, m2=1.5, d=d), params, spec
            ).total
            for d in (2.0, 4.0, 8.0, 16.0)
        ]
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_newton_cross_term_equals_point_masses(self):
        # with the 1/r interaction the cross term is exactly m1 m2 / d,
        # so it sits well inside the far-separation bound 2 m1 m2 / d
        cfg = TwoBallConfig(dimension=3, m1=2.0, m2=1.0, d=10.0)
        params = make_params(A=0.0)
        spec = QuadratureSpec()
        rep = two_ball_energy(cfg, params, spec)
        singles = (
            single_ball_energy(2.0, params, spec).riesz.value
            + single_ball_energy(1.0, params, spec).riesz.value
        )
        assert rep.riesz.value - singles == pytest.approx(2.0 / 10.0, rel=1e-12)

    def test_dimension_mismatch(self):
        cfg = TwoBallConfig(dimension=2, m1=1.0, m2=1.0, d=3.0)
        with pytest.raises(ParameterError):
            two_ball_energy(cfg, make_params(), QuadratureSpec())

    def test_far_separation_bound_violation_raises(self, monkeypatch):
        # an explicit error, not an assert that python -O strips
        real_cross = energy_mod._balls_cross

        def inflated_cross(gs, U, W=None):
            values, errs = real_cross(gs, U, W)
            return np.where([isinstance(g, KernelSpec) for g in gs], values, 1e6), errs

        monkeypatch.setattr(energy_mod, "_balls_cross", inflated_cross)
        cfg = TwoBallConfig(dimension=3, m1=2.0, m2=1.0, d=10.0)
        with pytest.raises(PreconditionError, match="far-separation bound"):
            two_ball_energy(cfg, make_params(A=0.0), QuadratureSpec())

    def test_far_separation_bound_holds_for_alpha_below_one(self):
        # for |x - y| >= d/2 the cross riesz term is at most m1 m2 (2/d)^alpha;
        # the alpha = 1 bound 2 m1 m2 / d is too small when alpha < 1
        params = EnergyParams(kernel=kernel3(), A=1.0, alpha=0.5, beta=1.0)
        result = split_advantage(2.0, params, QuadratureSpec(), d_count=3)
        assert math.isfinite(result.margin)

    @pytest.mark.parametrize("N, expected", [(2, 2), (3, 2)])
    def test_pair_integral_evaluations(self, monkeypatch, N, expected):
        # one pass at n and one at n/2 serve the kernel and the riesz cross
        # terms; in 3-D the alpha = 1 riesz term is the point-mass closed form
        calls = []
        real_pair = energy_mod._ball_pair_interaction

        def counted(*args, **kwargs):
            calls.append(args)
            return real_pair(*args, **kwargs)

        monkeypatch.setattr(energy_mod, "_ball_pair_interaction", counted)
        kernel = KernelSpec(dimension=N, s=0.5, epsilon=0.75, lam=1.0, kind="fractional")
        params = EnergyParams(kernel=kernel, A=1.0, alpha=1.0, beta=1.0)
        two_ball_energy(TwoBallConfig(dimension=N, m1=2.0, m2=1.0, d=4.0), params, QuadratureSpec())
        assert len(calls) == expected

    # values and errors at m1 = 2, m2 = 1, d = 4 (s = 1/2, epsilon = 3/4,
    # A = 1, beta = 1), pinned bit for bit: perimeter, riesz and background
    # (value, error) each, then total and error
    @pytest.mark.parametrize(
        "N, alpha, expected",
        [
            (2, 1.0, [
                "0x1.19eaae11b238dp+6", "0x1.e486ac0000000p-33",
                "0x1.90e0e61d62966p+2", "0x1.457f6f3a110f4p-34",
                "0x1.40d931ff62706p+2", "0x0.0p+0",
                "0x1.1eeb2953923b3p+6", "0x1.43a331ce8443dp-32",
            ]),
            (3, 0.5, [
                "0x1.2d373b8efba26p+7", "0x1.d9f5ce0000000p-33",
                "0x1.040c4c1d72d04p+2", "0x1.dbfdfbb5f9d3ap-32",
                "0x1.eb4df536e5a97p+1", "0x0.0p+0",
                "0x1.2daa661b0ba24p+7", "0x1.647c715afce9dp-31",
            ]),
        ],
    )
    def test_values_are_pinned(self, N, alpha, expected):
        kernel = KernelSpec(dimension=N, s=0.5, epsilon=0.75, lam=1.0, kind="fractional")
        params = EnergyParams(kernel=kernel, A=1.0, alpha=alpha, beta=1.0)
        rep = two_ball_energy(TwoBallConfig(dimension=N, m1=2.0, m2=1.0, d=4.0), params, QuadratureSpec())
        got = [
            rep.perimeter.value, rep.perimeter.error,
            rep.riesz.value, rep.riesz.error,
            rep.background.value, rep.background.error,
            rep.total, rep.error,
        ]
        assert got == [float.fromhex(v) for v in expected]

    def test_pair_table_memory_is_bounded(self):
        # the 2-D distance table is built in row blocks, not as one
        # (512, 96, 128) tensor of 50 MB
        kernel = KernelSpec(dimension=2, s=0.5, epsilon=0.75, lam=1.0, kind="fractional")
        params = EnergyParams(kernel=kernel, A=1.0, alpha=1.0, beta=1.0)
        cfg = TwoBallConfig(dimension=2, m1=2.0, m2=1.0, d=4.0)
        two_ball_energy(cfg, params, QuadratureSpec())
        tracemalloc.start()
        try:
            two_ball_energy(cfg, params, QuadratureSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_radial_reduction_under_any_spec(self):
        cfg = TwoBallConfig(dimension=3, m1=2.0, m2=1.0, d=3.0)
        params = make_params()
        default = two_ball_energy(cfg, params, QuadratureSpec())
        mc = two_ball_energy(cfg, params, QuadratureSpec(method="monte-carlo", seed=4))
        for est in (mc.perimeter, mc.riesz, mc.background):
            assert est.method == "radial-reduction"
        assert mc.total == default.total


class TestSplitAdvantage:
    def test_margin_changes_sign_with_mass(self):
        params = make_params(A=1.0)
        spec = QuadratureSpec()
        small = split_advantage(2.0, params, spec)
        mid = split_advantage(60.0, params, spec)
        large = split_advantage(400.0, params, spec)
        assert small.margin < 0.0
        assert mid.margin > 0.0
        assert large.margin > mid.margin

    def test_family_min_is_the_lower_envelope(self):
        res = split_advantage(60.0, make_params(), QuadratureSpec())
        assert res.family_min == min(res.reference_energy, res.best_energy)
        assert res.margin == res.reference_energy - res.best_energy

    def test_chains_can_only_lower_the_minimum(self):
        params = make_params()
        spec = QuadratureSpec()
        pairs_only = split_advantage(400.0, params, spec)
        with_chains = split_advantage(400.0, params, spec, k=3)
        assert with_chains.family_min <= pairs_only.family_min + 1e-12
        assert len(with_chains.trace) > len(pairs_only.trace)

    def test_bad_inputs(self):
        with pytest.raises(ParameterError):
            split_advantage(-1.0, make_params(), QuadratureSpec())
        with pytest.raises(ParameterError):
            split_advantage(1.0, make_params(), QuadratureSpec(), k=1)

    def test_empty_search_grids(self):
        with pytest.raises(ParameterError, match="d_count"):
            split_advantage(2.0, make_params(), QuadratureSpec(), d_count=0)
        with pytest.raises(ParameterError, match="d_count"):
            split_advantage(2.0, make_params(), QuadratureSpec(), d_count=0, k=3)
        with pytest.raises(ParameterError, match="d_max_factor"):
            split_advantage(2.0, make_params(), QuadratureSpec(), d_max_factor=0.5)
        with pytest.raises(ParameterError, match="fraction"):
            split_advantage(2.0, make_params(), QuadratureSpec(), fractions=(0.0, 1.0))

    def test_record_keys(self):
        rec = split_advantage(2.0, make_params(), QuadratureSpec()).as_record()
        for key in (
            "best_m1", "best_m2", "best_d", "best_energy",
            "reference_energy", "family_min", "margin", "error",
        ):
            assert key in rec


class TestSubadditivityProbe:
    def test_residual_not_positive_beyond_errors(self):
        probe = weak_subadditivity_probe(30.0, 20.0, make_params(), QuadratureSpec())
        assert probe.residual <= 3.0 * probe.combined_error

    def test_residual_without_background(self):
        probe = weak_subadditivity_probe(
            5.0, 3.0, make_params(A=0.0), QuadratureSpec()
        )
        assert probe.residual <= 3.0 * probe.combined_error

    def test_chain_minimizers_enter_the_composite(self):
        # at these masses a 3-ball chain beats every two-ball split, so the
        # far-apart union must be built from the chains themselves
        params = make_params(A=0.0)
        best = split_advantage(200.0, params, QuadratureSpec(), d_count=3, k=3)
        assert best.best_balls.count == 3
        probe = weak_subadditivity_probe(
            200.0, 100.0, params, QuadratureSpec(), d_count=3, k=3
        )
        assert probe.residual <= 3.0 * probe.combined_error

    def test_float_coercion(self):
        probe = weak_subadditivity_probe(5.0, 3.0, make_params(), QuadratureSpec())
        assert float(probe) == probe.residual

    def test_bad_masses(self):
        with pytest.raises(ParameterError):
            weak_subadditivity_probe(0.0, 1.0, make_params(), QuadratureSpec())
