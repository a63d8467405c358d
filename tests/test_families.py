"""Tests for competitor families: two-ball splits, chains and the
subadditivity probe."""

import math
import tracemalloc

import numpy as np
import pytest

from nldrop import energy as energy_mod
from nldrop import geometry, kernels
from nldrop.energy import EnergyParams, background, perimeter, riesz
from nldrop.errors import ParameterError, PreconditionError
from nldrop.families import (
    FamilySearchResult,
    _layout,
    layout_energy,
    single_ball_energy,
    split_advantage,
    weak_subadditivity_probe,
)
from nldrop.kernels import KernelSpec
from nldrop.quadrature import QuadratureSpec


def kernel3(s=0.5, eps=0.5):
    return KernelSpec(dimension=3, s=s, epsilon=eps, lam=1.0, kind="fractional")


def make_params(A=1.0):
    return EnergyParams(kernel=kernel3(), A=A, alpha=1.0, beta=1.0)


def pair(N, m1, m2, d):
    """Balls of masses m1 at the origin and m2 at distance d on the first
    axis."""
    return _layout(N, (m1, m2), d)


class TestLayout:
    def test_overlap_rejected(self):
        r = (1.0 / geometry.unit_ball_volume(3)) ** (1.0 / 3.0)
        with pytest.raises(PreconditionError, match="not disjoint"):
            pair(3, 1.0, 1.0, 1.5 * r)
        with pytest.raises(PreconditionError, match="not disjoint"):
            _layout(3, (1.0, 1.0, 1.0), 1.5 * r)

    @pytest.mark.parametrize("m1", [0.0, math.inf, math.nan])
    def test_bad_masses_rejected(self, m1):
        with pytest.raises(ParameterError, match="radii"):
            pair(3, m1, 1.0, 3.0)

    def test_shape_and_radii(self):
        balls = pair(3, 2.0, 1.0, 3.0)
        r1, r2 = balls.radii
        vol = geometry.unit_ball_volume(3)
        assert vol * r1 ** 3 == pytest.approx(2.0, rel=1e-13)
        assert vol * r2 ** 3 == pytest.approx(1.0, rel=1e-13)
        assert balls.count == 2
        assert balls.centers.tolist() == [[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]
        assert geometry.volume(balls) == pytest.approx(3.0, rel=1e-13)

    def test_chain_of_equal_balls(self):
        chain = _layout(2, (1.0,) * 3, 2.5)
        assert chain.centers.tolist() == [[0.0, 0.0], [2.5, 0.0], [5.0, 0.0]]
        assert np.all(chain.radii == chain.radii[0])
        assert geometry.volume(chain) == pytest.approx(3.0, rel=1e-13)


class TestLayoutEnergy:
    def test_matches_directly_assembled_terms(self):
        # background attraction acts on the origin ball only
        balls = pair(3, 2.0, 1.0, 3.0)
        params = make_params()
        spec = QuadratureSpec()
        rep = layout_energy(balls, params)
        origin_ball = geometry.BallConfig(
            dimension=3, centers=np.zeros((1, 3)), radii=np.array([balls.radii[0]])
        )
        direct = (
            perimeter(balls, params.kernel, spec).value
            + riesz(balls, 1.0, spec).value
            - params.A * background(origin_ball, 1.0, spec).value
        )
        assert rep.total == pytest.approx(direct, rel=1e-12)

    def test_energy_decreases_with_separation(self):
        params = make_params(A=0.0)
        totals = [
            layout_energy(pair(3, 1.5, 1.5, d), params).total
            for d in (2.0, 4.0, 8.0, 16.0)
        ]
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_newton_cross_term_equals_point_masses(self):
        # with the 1/r interaction the cross term is exactly m1 m2 / d,
        # so it sits well inside the far-separation bound 2 m1 m2 / d
        params = make_params(A=0.0)
        rep = layout_energy(pair(3, 2.0, 1.0, 10.0), params)
        singles = (
            single_ball_energy(2.0, params).riesz.value
            + single_ball_energy(1.0, params).riesz.value
        )
        assert rep.riesz.value - singles == pytest.approx(2.0 / 10.0, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            layout_energy(pair(2, 1.0, 1.0, 3.0), make_params())

    def test_far_separation_bound_violation_raises(self, monkeypatch):
        # an explicit error, not an assert that python -O strips
        real_cross = energy_mod._balls_cross

        def inflated_cross(gs, U, W=None):
            values, errs = real_cross(gs, U, W)
            return np.where([isinstance(g, KernelSpec) for g in gs], values, 1e6), errs

        monkeypatch.setattr(energy_mod, "_balls_cross", inflated_cross)
        with pytest.raises(PreconditionError, match="far-separation bound"):
            layout_energy(pair(3, 2.0, 1.0, 10.0), make_params(A=0.0))

    def test_far_separation_guard_checks_two_ball_layouts_only(self, monkeypatch):
        # a chain's cross term sums several pairs, which one pair's bound
        # does not cover
        real_cross = energy_mod._balls_cross

        def inflated_cross(gs, U, W=None):
            values, errs = real_cross(gs, U, W)
            return np.where([isinstance(g, KernelSpec) for g in gs], values, 1e6), errs

        monkeypatch.setattr(energy_mod, "_balls_cross", inflated_cross)
        rep = layout_energy(_layout(3, (1.0, 1.0, 1.0), 10.0), make_params(A=0.0))
        assert math.isfinite(rep.total)

    def test_far_separation_bound_holds_for_alpha_below_one(self):
        # for |x - y| >= d/2 the cross riesz term is at most m1 m2 (2/d)^alpha;
        # the alpha = 1 bound 2 m1 m2 / d is too small when alpha < 1
        params = EnergyParams(kernel=kernel3(), A=1.0, alpha=0.5, beta=1.0)
        result = split_advantage(2.0, params, d_count=3)
        assert math.isfinite(result.margin)

    @pytest.mark.parametrize("N, expected", [(2, 2), (3, 2)])
    def test_pair_integral_evaluations(self, monkeypatch, N, expected):
        # one pass at n and one at n/2 serve the kernel and the riesz cross
        # terms: the 2-D table or the 3-D pair-distance density, never both
        calls = {}
        for name in ("_ball_pair_interaction", "_ball_pair_density"):
            real = getattr(energy_mod, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(energy_mod, name, counted)
        kernel = KernelSpec(dimension=N, s=0.5, epsilon=0.75, lam=1.0, kind="fractional")
        params = EnergyParams(kernel=kernel, A=1.0, alpha=1.0, beta=1.0)
        layout_energy(pair(N, 2.0, 1.0, 4.0), params)
        used = "_ball_pair_density" if N == 3 else "_ball_pair_interaction"
        assert calls == {used: expected}

    def test_kernel_radii_of_a_2d_pair(self, monkeypatch):
        # each row of the 512-point inner-potential table takes the kernel's
        # antiderivative at rho_- and rho_+ on an n-point angle rule, n = 96
        # and 48: at most 2 * 512 * (96 + 48) radii for the pair, plus the
        # two single-ball perimeters (192 + 96 nodes and a tail at each).  The
        # (r, rho, phi) table evaluated K at 64 times as many per pass.
        seen = []
        for name in ("eval_kernel_radial", "radial_antiderivative"):
            real = getattr(kernels, name)

            def counted(kernel, *args, _real=real):
                seen.append(np.size(args[-1]))
                return _real(kernel, *args)

            monkeypatch.setattr(kernels, name, counted)
        energy_mod._single_ball_perimeter.cache_clear()
        kernel = KernelSpec(dimension=2, s=0.5, epsilon=0.75, lam=1.0, kind="fractional")
        params = EnergyParams(kernel=kernel, A=1.0, alpha=1.0, beta=1.0)
        layout_energy(pair(2, 2.0, 1.0, 4.0), params)
        assert 0 < sum(seen) <= 2 * 512 * (96 + 48) + 2 * (192 + 96 + 2)

    # values and errors at m1 = 2, m2 = 1, d = 4 (s = 1/2, epsilon = 3/4,
    # A = 1, beta = 1), pinned bit for bit: perimeter, riesz and background
    # (value, error) each, then total and error
    @pytest.mark.parametrize(
        "N, alpha, expected",
        [
            (2, 1.0, [
                "0x1.19eaae11b238bp+6", "0x1.e496a00000000p-33",
                "0x1.90e0e61d62966p+2", "0x1.457f4f3a110f4p-34",
                "0x1.40d931ff62706p+2", "0x0.0p+0",
                "0x1.1eeb2953923b1p+6", "0x1.43ab23ce8443dp-32",
            ]),
            (3, 0.5, [
                "0x1.2d373b8feb99dp+7", "0x1.5dc9e34fa1d78p-45",
                "0x1.040c4bf5e22cbp+2", "0x1.bd67129f79c2cp-39",
                "0x1.eb4df536e5a97p+1", "0x0.0p+0",
                "0x1.2daa661abf149p+7", "0x1.c2de3a2cb84a2p-39",
            ]),
        ],
    )
    def test_values_are_pinned(self, N, alpha, expected):
        kernel = KernelSpec(dimension=N, s=0.5, epsilon=0.75, lam=1.0, kind="fractional")
        params = EnergyParams(kernel=kernel, A=1.0, alpha=alpha, beta=1.0)
        rep = layout_energy(pair(N, 2.0, 1.0, 4.0), params)
        got = [
            rep.perimeter.value, rep.perimeter.error,
            rep.riesz.value, rep.riesz.error,
            rep.background.value, rep.background.error,
            rep.total, rep.error,
        ]
        assert got == [float.fromhex(v) for v in expected]

    def test_pair_table_memory_is_bounded(self):
        # the 2-D table's rays are built in row blocks, not as whole
        # (512, 96) arrays per integrand
        kernel = KernelSpec(dimension=2, s=0.5, epsilon=0.75, lam=1.0, kind="fractional")
        params = EnergyParams(kernel=kernel, A=1.0, alpha=1.0, beta=1.0)
        balls = pair(2, 2.0, 1.0, 4.0)
        layout_energy(balls, params)
        tracemalloc.start()
        try:
            layout_energy(balls, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_terms_take_the_radial_reduction(self):
        rep = layout_energy(pair(3, 2.0, 1.0, 3.0), make_params())
        for est in (rep.perimeter, rep.riesz, rep.background):
            assert est.method == "radial-reduction"


class TestSplitAdvantage:
    def test_margin_changes_sign_with_mass(self):
        params = make_params(A=1.0)
        small = split_advantage(2.0, params)
        mid = split_advantage(60.0, params)
        large = split_advantage(400.0, params)
        assert small.margin < 0.0
        assert mid.margin > 0.0
        assert large.margin > mid.margin

    def test_family_min_is_the_lower_envelope(self):
        res = split_advantage(60.0, make_params())
        assert res.family_min == min(res.reference_energy, res.best_energy)
        assert res.margin == res.reference_energy - res.best_energy

    def test_chains_can_only_lower_the_minimum(self):
        params = make_params()
        pairs_only = split_advantage(400.0, params)
        with_chains = split_advantage(400.0, params, k=3)
        assert with_chains.family_min <= pairs_only.family_min + 1e-12
        assert len(with_chains.trace) > len(pairs_only.trace)

    def test_bad_inputs(self):
        with pytest.raises(ParameterError):
            split_advantage(-1.0, make_params())
        with pytest.raises(ParameterError):
            split_advantage(1.0, make_params(), k=1)

    def test_empty_search_grids(self):
        with pytest.raises(ParameterError, match="d_count"):
            split_advantage(2.0, make_params(), d_count=0)
        with pytest.raises(ParameterError, match="d_count"):
            split_advantage(2.0, make_params(), d_count=0, k=3)
        with pytest.raises(ParameterError, match="d_max_factor"):
            split_advantage(2.0, make_params(), d_max_factor=0.5)
        with pytest.raises(ParameterError, match="fraction"):
            split_advantage(2.0, make_params(), fractions=(0.0, 1.0))

    def test_record_keys(self):
        rec = split_advantage(2.0, make_params()).as_record()
        for key in (
            "best_m1", "best_m2", "best_d", "best_energy",
            "reference_energy", "family_min", "margin", "error",
        ):
            assert key in rec


class TestSubadditivityProbe:
    def test_residual_not_positive_beyond_errors(self):
        probe = weak_subadditivity_probe(30.0, 20.0, make_params())
        assert probe.residual <= 3.0 * probe.combined_error

    def test_residual_without_background(self):
        probe = weak_subadditivity_probe(
            5.0, 3.0, make_params(A=0.0)
        )
        assert probe.residual <= 3.0 * probe.combined_error

    def test_chain_minimizers_enter_the_composite(self):
        # at these masses a 3-ball chain beats every two-ball split, so the
        # far-apart union must be built from the chains themselves
        params = make_params(A=0.0)
        best = split_advantage(200.0, params, d_count=3, k=3)
        assert best.best_balls.count == 3
        probe = weak_subadditivity_probe(
            200.0, 100.0, params, d_count=3, k=3
        )
        assert probe.residual <= 3.0 * probe.combined_error

    def test_float_coercion(self):
        probe = weak_subadditivity_probe(5.0, 3.0, make_params())
        assert float(probe) == probe.residual

    def test_bad_masses(self):
        with pytest.raises(ParameterError):
            weak_subadditivity_probe(0.0, 1.0, make_params())
