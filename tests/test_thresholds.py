"""Tests for the critical-mass thresholds.

Reference roots were computed independently with mpmath.findroot at 50
digits on the defining equation and frozen here; the closed form in the
Coulomb case was cross-checked symbolically.
"""

import math

import numpy as np
import pytest

from nldrop.errors import BracketError, DomainError, ParameterError
from nldrop.kernels import epsilon_min
from nldrop.thresholds import (
    GeneralConstants,
    ThresholdRecord,
    critical_mass,
    general_constants,
    general_critical_mass,
    phi,
)

# independent mpmath.findroot references (50 digits, rounded to double)
CLOSED_N3_HALF = 224.49569938968963
SLOPE_N3_HALF = 7.2932741127024143  # d(mass)/dA = 1/C1
C1_N3_HALF = 0.13711263069878843
C2_N3_HALF = 30.781195923884738
APPENDIX_N3_HALF = 119.27224849905063
BETA0_A1_N3_HALF = 245.75026642357664


class TestClosedForm:
    def test_reference_value(self):
        rec = critical_mass(3, 0.5, 0.5, 0.0)
        assert rec.mass == pytest.approx(CLOSED_N3_HALF, rel=1e-12)

    def test_affine_in_background_strength(self):
        # the Coulomb-case mass is (C2 + A)/C1, so the A-slope is 1/C1
        m0 = critical_mass(3, 0.5, 0.5, 0.0)
        m1 = critical_mass(3, 0.5, 0.5, 1.0)
        assert m1.mass - m0.mass == pytest.approx(SLOPE_N3_HALF, rel=1e-12)
        m4 = critical_mass(3, 0.5, 0.5, 4.0)
        assert m4.mass - m0.mass == pytest.approx(4.0 * SLOPE_N3_HALF, rel=1e-12)

    def test_constants(self):
        rec = critical_mass(3, 0.5, 0.5, 0.0)
        assert rec.constants.C1 == pytest.approx(C1_N3_HALF, rel=1e-13)
        assert rec.constants.C2 == pytest.approx(C2_N3_HALF, rel=1e-13)

    def test_mass_decreases_with_epsilon(self):
        masses = [critical_mass(3, 0.5, e, 0.0).mass for e in (0.4, 0.6, 0.9, 1.5)]
        assert all(a > b for a, b in zip(masses, masses[1:]))

    def test_degenerate_epsilon_rejected(self):
        e_min = epsilon_min(3, 0.5)
        with pytest.raises(ParameterError):
            critical_mass(3, 0.5, 0.9 * e_min, 0.0)
        with pytest.raises(ParameterError):
            critical_mass(3, 0.5, e_min, 0.0)

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            critical_mass(1, 0.5, 0.5, 0.0)
        with pytest.raises(ParameterError):
            critical_mass(3, 1.5, 0.5, 0.0)
        with pytest.raises(ParameterError):
            critical_mass(3, 0.5, 0.5, -1.0)


class TestGeneralRoot:
    def test_matches_closed_form_at_coulomb_exponent(self):
        closed = critical_mass(3, 0.5, 0.5, 0.0)
        gen = general_critical_mass(3, 0.5, 0.5, 0.0, beta=1.0)
        assert gen.mass == pytest.approx(closed.mass, rel=1e-12)

    def test_residual_is_tiny(self):
        gen = general_critical_mass(3, 0.5, 0.5, 2.0, beta=1.0)
        scale = gen.constants.C1 * gen.mass ** (1.0 + gen.constants.p)
        assert gen.residual <= 1e-10 * scale

    def test_bracket_choice_does_not_move_the_root(self):
        a = general_critical_mass(3, 0.5, 0.5, 0.0, beta=1.0)
        b = general_critical_mass(
            3, 0.5, 0.5, 0.0, beta=1.0, lower_start=1e-3, upper_start=500.0
        )
        assert b.mass == pytest.approx(a.mass, rel=1e-10)

    def test_conventions_give_different_roots(self):
        thm = general_critical_mass(3, 0.5, 0.5, 0.0, beta=1.0, convention="theorem")
        app = general_critical_mass(3, 0.5, 0.5, 0.0, beta=1.0, convention="appendix")
        assert app.mass == pytest.approx(APPENDIX_N3_HALF, rel=1e-11)
        assert abs(thm.mass - app.mass) > 1.0

    def test_uniform_background_reference(self):
        rec = general_critical_mass(3, 0.5, 0.5, 1.0, beta=0.0)
        assert rec.mass == pytest.approx(BETA0_A1_N3_HALF, rel=1e-11)

    def test_mass_grows_with_background_strength(self):
        m0 = general_critical_mass(3, 0.5, 0.5, 0.0, beta=2.0)
        m1 = general_critical_mass(3, 0.5, 0.5, 1.0, beta=2.0)
        assert m1.mass > m0.mass

    def test_sign_checks_recorded(self):
        rec = general_critical_mass(3, 0.5, 0.5, 0.0, beta=1.0)
        assert rec.sign_check_2x and rec.sign_check_10x

    def test_unknown_convention(self):
        with pytest.raises(ParameterError):
            general_critical_mass(3, 0.5, 0.5, 0.0, beta=1.0, convention="midpoint")

    def test_beta_range(self):
        with pytest.raises(ParameterError):
            general_critical_mass(3, 0.5, 0.5, 0.0, beta=4.5)


class TestPhi:
    def test_root_bracketing_signs(self):
        consts = general_constants(3, 0.5, 0.5, 1.0)
        rec = general_critical_mass(3, 0.5, 0.5, 0.0, beta=1.0)
        assert phi(0.5 * rec.mass, consts, 0.0) < 0
        assert phi(2.0 * rec.mass, consts, 0.0) > 0

    def test_domain(self):
        consts = general_constants(3, 0.5, 0.5, 1.0)
        with pytest.raises(DomainError):
            phi(0.0, consts, 0.0)
        with pytest.raises(DomainError):
            phi(-1.0, consts, 0.0)


class TestRecord:
    def test_as_record_keys(self):
        rec = general_critical_mass(3, 0.5, 0.5, 0.0, beta=1.0).as_record()
        for key in (
            "dimension", "s", "epsilon", "A", "beta", "convention", "mass",
            "C1", "C2", "C3", "p", "bracket_lo", "bracket_hi", "iterations",
            "residual", "sign_check_2x", "sign_check_10x",
        ):
            assert key in rec

    def test_closed_form_has_no_bracket(self):
        rec = critical_mass(3, 0.5, 0.5, 0.0).as_record()
        assert math.isnan(rec["bracket_lo"]) and math.isnan(rec["bracket_hi"])
        assert rec["iterations"] == 0
