"""Tests for cut-defect scans, layer-cake identities, and the averaged
mass bound."""

import math
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from nldrop import families, geometry, quadrature, slicing
from nldrop.energy import EnergyParams, background
from nldrop.errors import ParameterError
from nldrop.kernels import KernelSpec
from nldrop.quadrature import QuadratureSpec, voxelize
from nldrop.slicing import (
    averaged_mass_bound,
    default_direction_grid,
    default_level_grid,
    layer_cake_checks,
    scan,
    splitting_defect,
    sphere_positive_integral,
)


def frac(N=2, s=0.5, eps=0.7, lam=1.0):
    return KernelSpec(dimension=N, s=s, epsilon=eps, lam=lam, kind="fractional")


def make_params(N=2, A=1.0):
    return EnergyParams(kernel=frac(N=N), A=A, alpha=1.0, beta=1.0)


def seeded_blob(seed=8, grid_n=32):
    return geometry.random_blob(2, np.random.default_rng(seed), grid_n=grid_n)


class TestSphereIntegral:
    def test_plane_value(self):
        x = np.array([3.0, 4.0])
        assert sphere_positive_integral(x) == pytest.approx(10.0, rel=1e-14)

    def test_space_value(self):
        x = np.array([0.0, 0.0, 2.0])
        assert sphere_positive_integral(x) == pytest.approx(2.0 * math.pi, rel=1e-14)

    def test_uncorrected_variant(self):
        x = np.array([1.0, 0.0, 0.0])
        assert sphere_positive_integral(x, corrected=False) == pytest.approx(
            2.0 * math.pi, rel=1e-14
        )
        assert sphere_positive_integral(x, corrected=True) == pytest.approx(
            math.pi, rel=1e-14
        )

    def test_unsupported_dimension(self):
        with pytest.raises(ParameterError):
            sphere_positive_integral(np.ones(4))


class TestSplittingDefect:
    def test_terms_are_nonnegative(self):
        rec = splitting_defect(
            seeded_blob(), np.array([0.6, 0.8]), 0.013, make_params(), QuadratureSpec()
        )
        assert rec.lhs >= 0.0
        assert rec.cross_kernel >= 0.0
        assert rec.background_minus >= 0.0
        assert rec.defect == pytest.approx(rec.rhs - rec.lhs, abs=0.0)

    def test_relabeling_swaps_sides(self):
        # (nu, l) -> (-nu, -l) exchanges the two sides: the pair terms are
        # invariant and the two lower-side backgrounds partition the total
        blob = seeded_blob()
        params = make_params()
        spec = QuadratureSpec()
        nu = np.array([0.6, 0.8])
        r1 = splitting_defect(blob, nu, 0.013, params, spec)
        r2 = splitting_defect(blob, -nu, -0.013, params, spec)
        assert r1.lhs == pytest.approx(r2.lhs, rel=1e-12)
        assert r1.cross_kernel == pytest.approx(r2.cross_kernel, rel=1e-12)
        total = background(blob, 1.0, spec).value
        assert r1.background_minus + r2.background_minus == pytest.approx(
            total, rel=1e-12
        )

    def test_cut_outside_shape_is_trivial(self):
        blob = seeded_blob()
        rec = splitting_defect(
            blob, np.array([1.0, 0.0]), 100.0, make_params(), QuadratureSpec()
        )
        assert rec.lhs == 0.0 and rec.cross_kernel == 0.0

    def test_record_keys(self):
        rec = splitting_defect(
            seeded_blob(), np.array([1.0, 0.0]), 0.0, make_params(), QuadratureSpec()
        ).as_record()
        for key in (
            "nu0", "nu1", "l", "lhs", "cross_kernel", "background_minus",
            "rhs", "defect", "lhs_error", "rhs_error",
        ):
            assert key in rec


class TestScan:
    def test_grid_shape_and_minimum(self):
        blob = seeded_blob()
        nus = default_direction_grid(2, 4)
        levels = np.linspace(-0.3, 0.3, 5)
        res = scan(blob, make_params(), QuadratureSpec(), nu_grid=nus, l_grid=levels)
        # two of the 4 x 5 cuts leave a side empty and are not listed
        assert len(res.records) == 4 * 5 - 2
        assert len(res.integrated_defect) == 4
        assert res.min_defect == min(r.defect for r in res.records)
        assert res.min_record.defect == res.min_defect

    def test_sweep_matches_direct_evaluation(self):
        blob = seeded_blob()
        params = make_params()
        spec = QuadratureSpec()
        nu = np.array([0.6, 0.8])
        direct = splitting_defect(blob, nu, 0.013, params, spec)
        res = scan(blob, params, spec, nu_grid=[nu], l_grid=[0.013])
        rec = res.records[0]
        assert rec.lhs == pytest.approx(direct.lhs, rel=1e-10)
        assert rec.cross_kernel == pytest.approx(direct.cross_kernel, rel=1e-10)
        assert rec.background_minus == pytest.approx(direct.background_minus, rel=1e-10)

    # (lhs, cross_kernel, background_minus, rhs, lhs_error, rhs_error) of
    # the tensor scan of the seed-8 test blob with A = 1 over 2 directions
    # x 5 levels, frozen so a rewrite of the sweep cannot move them.  The
    # first cut leaves the lower side empty and is not listed.  The
    # cross_kernel, rhs and rhs_error columns were re-frozen when near values
    # began summing their corner series in closed form (moves below 2.6e-11).
    PINNED_SCAN = [
        (0.0067800750718604585, 0.32164003156894694, 0.03610557202314335, 0.6793856351610372, 0.013463591190484347, 0.6821064503968),
        (0.034536443460750355, 0.6547500565085045, 0.6241882752231215, 1.9336883882401303, 0.010669882814655446, 0.27756794744699054),
        (0.039063931477674244, 0.719718352808437, 1.0385338777831763, 2.47797058340005, 0.009945907753893868, 0.13175700725820993),
        (0.01854034651314241, 0.4809328420875021, 1.3078969572339731, 2.2697626414089775, 0.005464963022682637, 0.2960747308039604),
        (0.00323113101550776, 0.15549108768542652, 0.011637818881313544, 0.3226199942521666, 0.0034034256900243864, 0.10271203269485585),
        (0.03501238674179982, 0.8358421328327665, 0.22212615399712288, 1.893810419662656, 0.014258263033618435, 0.5109474560038594),
        (0.037415822401680496, 0.7834867081468717, 0.8305318921435002, 2.3975053084372435, 0.012262147748903718, 0.24206254750397704),
        (0.022384239364521167, 0.3955897419298182, 1.234447675497103, 2.0256271593567394, 0.00923380156962485, 0.20060365616021336),
        (0.0023408648455726373, 0.11652919868236972, 1.3690668133880661, 1.6021252107528055, 0.0008702633509557636, 0.12186835848082156),
    ]

    def test_pinned_values(self):
        res = scan(
            seeded_blob(),
            make_params(A=1.0),
            QuadratureSpec(),
            nu_grid=default_direction_grid(2, 2),
            l_grid=np.linspace(-0.3, 0.3, 5),
        )
        assert len(res.records) == len(self.PINNED_SCAN)
        for rec, want in zip(res.records, self.PINNED_SCAN):
            got = (
                rec.lhs, rec.cross_kernel, rec.background_minus,
                rec.rhs, rec.lhs_error, rec.rhs_error,
            )
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize(
        "kwargs",
        [{"nu_grid": []}, {"l_grid": []}, {"nu_count": -2}, {"l_count": 0}, {"l_count": -3}],
    )
    def test_empty_grids_are_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            scan(seeded_blob(), make_params(), QuadratureSpec(), **kwargs)

    def test_cuts_that_leave_a_side_empty_are_not_listed(self):
        spec = QuadratureSpec()
        b = geometry.ball_of_volume(2, 1.0)
        levels = [-5.0, 0.0, 5.0]
        nu = np.array([1.0, 0.0])
        res = scan(b, make_params(), spec, nu_grid=[nu], l_grid=levels)
        assert [r.l for r in res.records] == [0.0]
        assert res.min_record is res.records[0]
        # the integrated defect still runs over the whole level grid
        row = [splitting_defect(b, nu, l, make_params(), spec).defect for l in levels]
        assert res.integrated_defect[0][1] == pytest.approx(np.trapezoid(row, levels), rel=1e-9)

    def test_scan_with_no_splitting_level_is_rejected(self):
        with pytest.raises(ParameterError, match="splits the shape"):
            scan(seeded_blob(), make_params(), QuadratureSpec(), l_grid=[-5.0, 5.0])


def _random_voxels(N, dims, seed):
    """A random voxel shape whose occupied cells leave a margin of empty
    cells, so the occupied box is smaller than the grid."""
    occ = np.random.default_rng(seed).random(dims) < 0.55
    occ[0] = False
    occ[..., -1] = False
    return geometry.VoxelShape(
        dimension=N, origin=-0.5 * np.array(dims) * 0.1, spacing=0.1, occupancy=occ
    )


def _direct_cross(T, vox, cells, count):
    """S_T(U, E - U) for U the first ``count`` of ``cells``: the explicit
    sum of T over every (upper, lower) cell pair."""
    upper, lower = cells[:count], cells[count:]
    off = lower[None, :, :] - upper[:, None, :] + np.array(vox.occupancy.shape) - 1
    return float(np.sum(T[tuple(off.reshape(-1, vox.dimension).T)]))


class TestLevelSweep:
    @pytest.mark.parametrize("block_bytes", [None, 1], ids=["one-block", "level-blocks"])
    @pytest.mark.parametrize(
        "N, dims, nu", [(2, (14, 11), (0.6, 0.8)), (3, (7, 6, 8), (0.48, 0.6, 0.64))]
    )
    def test_matches_direct_pair_sum(self, N, dims, nu, block_bytes, monkeypatch):
        if block_bytes is not None:
            monkeypatch.setattr(slicing, "_SWEEP_BLOCK_BYTES", block_bytes)
        vox = _random_voxels(N, dims, seed=N)
        nu = np.array(nu)
        integrands = (
            quadrature.riesz_integrand(N, 1.0),
            quadrature.kernel_integrand(frac(N=N)),
        )
        p = vox.cell_centers() @ nu
        # two levels outside the shape, repeated levels and a level at a cell
        levels = np.concatenate(
            (
                [p.min() - 1.0, p.max() + 1.0],
                np.linspace(p.min(), p.max(), 9),
                [0.0, 0.0, p[3], p[3]],
            )
        )
        cells, counts = slicing._sweep_order(vox, nu, levels)
        got = slicing._level_cross(slicing._sweep_grid(vox, integrands), cells, counts)
        n = len(cells)
        for igd, cross in zip(integrands, got):
            T = quadrature._stencil(vox.occupancy.shape, vox.spacing, igd)
            want = np.array([_direct_cross(T, vox, cells, c) for c in counts])
            assert np.all(cross[(counts == 0) | (counts == n)] == 0.0)
            assert np.max(np.abs(cross - want)) <= 1e-12 * np.max(np.abs(want))
        assert counts[0] == n and counts[1] == 0
        assert len(np.unique(counts)) < len(counts)

    def test_3d_direction_memory_is_bounded(self, monkeypatch):
        # cold caches, so the stencil builds count too
        monkeypatch.setattr(quadrature, "_STENCIL_CACHE", OrderedDict())
        monkeypatch.setattr(quadrature, "_NEAR_CACHE", OrderedDict())
        ball = geometry.ball_of_volume(3, geometry.unit_ball_volume(3))
        params = EnergyParams(kernel=frac(N=3), A=1.0, alpha=1.0, beta=1.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            scan(ball, params, QuadratureSpec(budget=32768), nu_grid=[np.array([0.0, 0.6, 0.8])])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 48e6

    def test_sweep_uses_no_per_cell_stencil_window(self, monkeypatch):
        # no per-cell stencil window exists for the sweep to take
        assert not hasattr(quadrature, "_stencil_window")
        assert not hasattr(families, "_stencil_window")
        # nor a pair field over the grid plus the whole stencil: the sweep's
        # field is an inverse FFT on the occupied box's grid
        assert not hasattr(quadrature, "_pair_field")
        calls = []
        pair_fields = quadrature._pair_fields

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return pair_fields(*args, **kwargs)

        monkeypatch.setattr(quadrature, "_pair_fields", counted)
        res = scan(
            seeded_blob(), make_params(), QuadratureSpec(),
            nu_grid=default_direction_grid(2, 2), l_grid=np.linspace(-0.3, 0.3, 5),
        )
        assert len(res.records) == 9
        checks = layer_cake_checks(seeded_blob(), np.array([0.6, 0.8]), QuadratureSpec(), l_count=16)
        assert checks.lhs_riesz > 0.0
        assert calls

    def test_3d_sweep_grid_memory_is_bounded(self):
        # warm stencils; the whole-stencil pair fields took 23 MB traced
        blob = geometry.random_blob(3, np.random.default_rng(3), grid_n=32)
        integrands = (quadrature.riesz_integrand(3, 1.0), quadrature.kernel_integrand(frac(N=3)))
        slicing._sweep_grid(blob, integrands)
        tracemalloc.start()
        try:
            grid = slicing._sweep_grid(blob, integrands)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [field.shape for field, _ in grid[3]] == [grid[1]] * 2
        assert peak < 12e6


class TestDirectionAndLevelGrids:
    def test_directions_are_unit(self):
        for N in (2, 3):
            grid = default_direction_grid(N, 16)
            assert grid.shape == (16, N)
            assert np.allclose(np.linalg.norm(grid, axis=1), 1.0, rtol=1e-12)

    def test_unsupported_dimension(self):
        with pytest.raises(ParameterError):
            default_direction_grid(4, 8)

    def test_levels_span_the_shape(self):
        blob = seeded_blob()
        nu = np.array([1.0, 0.0])
        levels = default_level_grid(blob, nu, count=17)
        assert len(levels) == 17
        lo, hi = blob.bounding_box()
        assert levels[0] < lo[0] and levels[-1] > hi[0]


class TestLayerCake:
    def test_residuals_within_errors(self):
        blob = geometry.random_blob(2, np.random.default_rng(3), grid_n=64)
        nu = np.array([1.0, 0.3])
        checks = layer_cake_checks(blob, nu / np.linalg.norm(nu), QuadratureSpec(), l_count=32)
        assert checks.residual_background <= 3.0 * checks.error_background
        assert checks.residual_riesz <= 3.0 * checks.error_riesz

    def test_level_refinement_shrinks_background_residual(self):
        for seed in (3, 4, 5):
            blob = geometry.random_blob(2, np.random.default_rng(seed), grid_n=48)
            nu = np.array([1.0, 0.3])
            nu = nu / np.linalg.norm(nu)
            c1 = layer_cake_checks(blob, nu, QuadratureSpec(), l_count=24)
            c2 = layer_cake_checks(blob, nu, QuadratureSpec(), l_count=48)
            assert c2.residual_background < c1.residual_background

    def test_grid_refinement_shrinks_background_residual(self):
        ball = geometry.ball_of_volume(2, 0.5)
        nu = np.array([1.0, 0.3])
        nu = nu / np.linalg.norm(nu)
        spec = QuadratureSpec()
        c32 = layer_cake_checks(voxelize(ball, cells_per_axis=32), nu, spec, l_count=32)
        c64 = layer_cake_checks(voxelize(ball, cells_per_axis=64), nu, spec, l_count=32)
        assert c64.residual_background < c32.residual_background
        assert c64.residual_riesz <= 3.0 * c64.error_riesz

    def test_shape_above_origin_gives_exact_zero(self):
        # when E lies in {x . nu >= 0} the one-sided background identity
        # is 0 = 0 with no quadrature error at all
        blob = seeded_blob()
        shifted = geometry.translate(blob, np.array([96 * blob.spacing, 0.0]))
        checks = layer_cake_checks(shifted, np.array([1.0, 0.0]), QuadratureSpec(), l_count=16)
        assert checks.residual_background == 0.0
        assert checks.lhs_background == 0.0 and checks.rhs_background == 0.0


    def test_pinned_values(self):
        checks = layer_cake_checks(
            seeded_blob(), np.array([0.6, 0.8]), QuadratureSpec(), l_count=16
        )
        # residual_riesz, a 2.1e-5 difference of two 0.0167 values, was
        # re-frozen when the level sweep began taking its self pair sums by
        # Parseval (lhs_riesz moved by 3e-15 relative, this entry by 2.5e-12),
        # and again when the sweep's pair field moved onto the occupied box's
        # FFT grid (2.0895554875752925e-05 before, 3.2e-12 relative)
        want = dict(
            residual_background=0.0010611902379150107,
            residual_riesz=2.0895554875687006e-05,
            lhs_background=0.0684169042295868,
            rhs_background=0.06735571399167178,
            lhs_riesz=0.016689830313759722,
            rhs_riesz=0.016710725868635423,
            error_background=0.015951377377761727,
            error_riesz=0.005381299527446096,
        )
        for key, value in want.items():
            assert getattr(checks, key) == pytest.approx(value, rel=1e-12, abs=0.0), key


class TestAveragedBound:
    def test_small_disk_satisfies_the_bound(self):
        rep = averaged_mass_bound(
            geometry.ball_of_volume(2, 0.3), make_params(), QuadratureSpec()
        )
        assert rep.lhs == pytest.approx(0.3 ** 2, rel=1e-12)
        assert rep.defect == rep.rhs - rep.lhs
        assert rep.defect > 0.0
        assert rep.signature is False

    def test_empty_shape_is_vacuous(self):
        rep = averaged_mass_bound(
            geometry.empty_ball_config(2), make_params(), QuadratureSpec()
        )
        assert rep.signature is False
        assert "vacuous" in rep.note

    def test_record_keys(self):
        rep = averaged_mass_bound(
            geometry.ball_of_volume(2, 0.3), make_params(), QuadratureSpec()
        ).as_record()
        for key in (
            "mass", "q_value", "q_error", "b_value", "b_error", "lhs", "rhs",
            "defect", "combined_error", "signature", "sphere_constant",
            "sphere_constant_variant", "note",
        ):
            assert key in rep
