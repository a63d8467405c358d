"""End-to-end acceptance checks.

Each test pins a user-facing guarantee: golden closed-form values, route
agreement between independent evaluation paths, identity residuals on
seeded random shapes, the splitting signature on both sides of the
threshold, and byte-level CLI reproducibility.  Runtime ceilings are
asserted alongside the numerics.
"""

import dataclasses
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from nldrop import (
    energy,
    families,
    geometry,
    isoperimetry,
    quadrature,
    slicing,
    thresholds,
)
from nldrop.energy import EnergyParams
from nldrop.kernels import KernelSpec
from nldrop.quadrature import QuadratureSpec

# independent high-precision evaluation of the threshold closed form
# (40-digit arithmetic, gamma-function constants), frozen
CLOSED_FORM_N3_HALF = 224.49569938968963

RIESZ_UNIT_BALL_N3 = 16.0 * math.pi ** 2 / 15.0


def kernel_n2(eps=0.75):
    return KernelSpec(dimension=2, s=0.5, epsilon=eps, lam=1.0, kind="fractional")


def kernel_n3():
    return KernelSpec(dimension=3, s=0.5, epsilon=0.5, lam=1.0, kind="fractional")


def unit_ball(N):
    return geometry.BallConfig(
        dimension=N, centers=np.zeros((1, N)), radii=np.array([1.0])
    )


class TestClosedFormCriticalMass:
    def test_value_and_runtime(self):
        t0 = time.monotonic()
        rec = thresholds.critical_mass(3, 0.5, 0.5, 0.0)
        elapsed = time.monotonic() - t0
        assert abs(rec.mass - 224.49) <= 0.01
        assert rec.mass == pytest.approx(CLOSED_FORM_N3_HALF, rel=1e-12)
        assert elapsed < 1.0


class TestGeneralThresholdConsistency:
    def test_beta_one_matches_closed_form(self):
        t0 = time.monotonic()
        closed = thresholds.critical_mass(3, 0.5, 0.5, 0.0)
        general = thresholds.general_critical_mass(
            3, 0.5, 0.5, 0.0, beta=1.0, convention="theorem"
        )
        elapsed = time.monotonic() - t0
        assert general.mass == pytest.approx(closed.mass, rel=1e-12)
        scale = general.constants.C1 * general.mass ** (1.0 + general.constants.p)
        assert general.residual <= 1e-10 * scale
        assert elapsed < 1.0

    def test_beta_one_matches_with_background(self):
        closed = thresholds.critical_mass(3, 0.5, 0.5, 2.0)
        general = thresholds.general_critical_mass(
            3, 0.5, 0.5, 2.0, beta=1.0, convention="theorem"
        )
        assert general.mass == pytest.approx(closed.mass, rel=1e-12)


class TestRieszGoldenValue:
    def test_voxel_unit_ball(self):
        t0 = time.monotonic()
        vox = quadrature.voxelize(unit_ball(3), cells_per_axis=48)
        est = energy.riesz(vox, 1.0, QuadratureSpec())
        elapsed = time.monotonic() - t0
        assert est.method == "tensor-midpoint"
        assert abs(est.value - RIESZ_UNIT_BALL_N3) <= 0.01 * RIESZ_UNIT_BALL_N3
        assert abs(est.value - RIESZ_UNIT_BALL_N3) <= est.error
        assert elapsed < 10.0


class TestBackgroundGoldenValues:
    def test_unit_ball_both_dimensions(self):
        t0 = time.monotonic()
        for N, grid_n in ((2, 128), (3, 96)):
            vox = quadrature.voxelize(unit_ball(N), cells_per_axis=grid_n)
            est = energy.background(vox, 1.0, QuadratureSpec())
            assert abs(est.value - 2.0 * math.pi) <= 0.005 * 2.0 * math.pi
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0


class TestDecompositionIdentities:
    def test_fifty_seeded_disjoint_pairs(self):
        t0 = time.monotonic()
        kernel = kernel_n2()
        spec = QuadratureSpec()
        rng = np.random.default_rng(42)
        checked = 0
        failures = []
        while checked < 50:
            left, right = geometry.random_disjoint_pair(2, rng, grid_n=64)
            if left.count == 0 or right.count == 0:
                continue
            checked += 1
            # U, W and U u W on the one grid of the pair's fine level
            (left, right), _ = energy._disjoint_levels(left, right, spec)
            union = dataclasses.replace(left, occupancy=left.occupancy | right.occupancy)
            p = [energy.perimeter(E, kernel, spec) for E in (left, right, union)]
            v = [energy.riesz(E, 1.0, spec) for E in (left, right, union)]
            ip = energy.interaction(left, right, kernel, spec)
            iv = energy.interaction(left, right, 1.0, spec)
            # P(U) + P(W) - P(U u W) = 2 I_K(U, W), V(U u W) - V(U) - V(W) = I_1(U, W)
            res_p = p[0].value + p[1].value - p[2].value - 2.0 * ip.value
            res_r = v[2].value - v[0].value - v[1].value - iv.value
            if abs(res_p) > 3.0 * (sum(e.error for e in p) + 2.0 * ip.error):
                failures.append(("perimeter", checked, res_p))
            if abs(res_r) > 3.0 * (sum(e.error for e in v) + iv.error):
                failures.append(("riesz", checked, res_r))
        elapsed = time.monotonic() - t0
        assert failures == []
        assert elapsed < 120.0


class TestScalingLaw:
    def test_exponents_at_two_grids(self):
        # log(term(2 E) / term(E)) / log 2 for the voxel unit disk
        t0 = time.monotonic()
        spec = QuadratureSpec()
        for grid_n in (64, 128):
            disk = quadrature.voxelize(unit_ball(2), cells_per_axis=grid_n)
            big = geometry.scale(disk, 2.0)
            for term, arg, target in (
                (energy.perimeter, kernel_n2(), 1.5),
                (energy.riesz, 1.0, 3.0),
                (energy.background, 1.0, 1.0),
            ):
                got = math.log(term(big, arg, spec).value / term(disk, arg, spec).value) / math.log(2.0)
                assert abs(got - target) <= 0.02 * abs(target)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0


class TestSphereIntegral:
    def test_unit_point_values(self):
        assert slicing.sphere_positive_integral(np.array([1.0, 0.0])) == (
            pytest.approx(2.0, rel=1e-13)
        )
        assert slicing.sphere_positive_integral(np.array([0.0, 0.0, 1.0])) == (
            pytest.approx(math.pi, rel=1e-13)
        )


class TestLayerCakeIdentities:
    def test_residuals_shrink_under_level_refinement(self):
        t0 = time.monotonic()
        blob = geometry.random_blob(2, np.random.default_rng(3), grid_n=64)
        nu = np.array([1.0, 0.3])
        nu = nu / np.linalg.norm(nu)
        coarse = slicing.layer_cake_checks(blob, nu, QuadratureSpec(), l_count=24)
        fine = slicing.layer_cake_checks(blob, nu, QuadratureSpec(), l_count=48)
        elapsed = time.monotonic() - t0
        for chk in (coarse, fine):
            assert chk.residual_background <= 3.0 * chk.error_background
            assert chk.residual_riesz <= 3.0 * chk.error_riesz
        assert fine.residual_background < coarse.residual_background
        assert fine.residual_riesz < coarse.residual_riesz
        assert elapsed < 60.0


class TestIsoperimetricSuite:
    def test_hundred_seeded_shapes(self):
        t0 = time.monotonic()
        kernel = KernelSpec(dimension=2, s=0.5, epsilon=0.7, lam=1.0, kind="fractional")
        checks = isoperimetry.run_suite(
            kernel, QuadratureSpec(), count=100, seed=0, grid_n=48
        )
        elapsed = time.monotonic() - t0
        assert len(checks) == 100
        bad = [c.shape_id for c in checks if c.slack < -3.0 * c.error]
        assert bad == []
        assert elapsed < 180.0


class TestNonexistenceSignature:
    def test_split_family_and_central_cut_on_both_sides(self):
        t0 = time.monotonic()
        m_c = thresholds.critical_mass(3, 0.5, 0.5, 0.0).mass
        params = EnergyParams(kernel=kernel_n3(), A=0.0, alpha=1.0, beta=1.0)

        large = families.split_advantage(2.0 * m_c, params)
        assert large.margin > 3.0 * large.error
        small = families.split_advantage(m_c / 100.0, params)
        assert not (small.margin > 3.0 * small.error)

        cut_spec = QuadratureSpec(budget=48 ** 3)
        for mass, expect_negative in ((2.0 * m_c, True), (m_c / 100.0, False)):
            radius = (mass / geometry.unit_ball_volume(3)) ** (1.0 / 3.0)
            ball = geometry.BallConfig(
                dimension=3, centers=np.zeros((1, 3)), radii=np.array([radius])
            )
            rec = slicing.splitting_defect(
                ball, np.array([1.0, 0.0, 0.0]), 0.0, params, cut_spec
            )
            if expect_negative:
                assert rec.defect < -3.0 * rec.combined_error
            else:
                assert rec.defect > 3.0 * rec.combined_error
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0


class TestWeakSubadditivity:
    def test_ten_seeded_mass_pairs(self):
        t0 = time.monotonic()
        params = EnergyParams(kernel=kernel_n3(), A=1.0, alpha=1.0, beta=1.0)
        rng = np.random.default_rng(7)
        for _ in range(10):
            m1, m2 = rng.uniform(0.5, 40.0, size=2)
            probe = families.weak_subadditivity_probe(float(m1), float(m2), params)
            assert probe.residual <= 3.0 * probe.combined_error
        elapsed = time.monotonic() - t0
        assert elapsed < 180.0


class TestCliReproducibility:
    CASES = {
        "energy": ["--set", "shape.radius=0.8", "--set", "energy.A=0.5"],
        "critical-mass": [
            "--set", "kernel.dimension=3", "--set", "kernel.epsilon=0.5",
        ],
        "slice-scan": [
            "--set", "shape.kind=blob", "--set", "shape.grid=24",
            "--set", "shape.seed=3", "--set", "scan.nu_count=2",
            "--set", "scan.l_count=4", "--set", "energy.A=1.0",
        ],
        "family": ["--set", "family.mass=2.0", "--set", "family.d_count=3"],
        "verify": [
            "--set", "verify.blobs=1", "--set", "verify.grid=24",
        ],
        "kernel-check": [],
    }

    @pytest.mark.parametrize("sub", sorted(CASES))
    def test_repeat_runs_are_byte_identical(self, sub, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            outdir = tmp_path / tag
            cmd = [
                sys.executable, "-m", "nldrop", sub,
                "--output-dir", str(outdir), "--set", "seed=1",
            ] + self.CASES[sub]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            with open(outdir / f"{sub}.csv", "rb") as fh:
                outputs.append(fh.read())
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith(b"# schema_version = 1\n")
