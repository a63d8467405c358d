"""Tests for the critical-mass thresholds.

Reference roots were computed independently with mpmath.findroot at 50
digits on the defining equation and frozen here; the closed form in the
Coulomb case was cross-checked symbolically.
"""

import itertools
import math

import numpy as np
import pytest

from nldrop.errors import DomainError, ParameterError
from nldrop.thresholds import (
    GeneralConstants,
    ThresholdRecord,
    critical_mass,
    epsilon_min,
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

    def test_unknown_convention(self):
        with pytest.raises(ParameterError):
            general_critical_mass(3, 0.5, 0.5, 0.0, beta=1.0, convention="midpoint")

    def test_beta_range(self):
        with pytest.raises(ParameterError):
            general_critical_mass(3, 0.5, 0.5, 0.0, beta=4.5)

    @pytest.mark.parametrize("A", [1e300, math.inf, math.nan])
    def test_background_strength_without_a_double_root_refused(self, A):
        with pytest.raises(ParameterError):
            general_critical_mass(2, 0.5, 0.75, A, beta=0.0)


# (N, s, epsilon, beta index, A, convention) in itertools.product order;
# beta runs over (0, 0.5, 1, 2, N + 0.9)
PROOF_GRID = list(itertools.product(
    (2, 3, 4), (0.25, 0.75), (0.75, 2.0), range(5), (0.0, 1.0), ("theorem", "appendix")
))
# reference roots from a 40-digit mpmath bisection of phi on the same float
# constants, stopped at a 1e-12 relative bracket width; PROOF_GRID order
BISECTION_ROOTS = [
    4013.2538972047078, 44.66372487102006, 21293.96214757858, 54.38273722581591,
    4013.2538972047078, 44.66372487102006, 5653.794641355693, 50.270174374211464,
    4013.2538972047078, 44.66372487102006, 4328.100850161583, 48.167674046342015,
    4013.2538972047078, 44.66372487102006, 4030.833416747938, 46.485537883956724,
    4013.2538972047078, 44.66372487102006, 4020.29073080965, 49.744951993099555,
    77.40208475452599, 42.31906443550146, 92.0266777590591, 48.0997836934945,
    77.40208475452599, 42.31906443550146, 84.79278095623448, 45.78288039546872,
    77.40208475452599, 42.31906443550146, 81.45523882026505, 44.53509890819665,
    77.40208475452599, 42.31906443550146, 79.01842895311393, 43.50999631479461,
    77.40208475452599, 42.31906443550146, 81.09664492523075, 45.79537335623273,
    232.30133006788037, 133.76524475030809, 283.16477134244263, 155.46710577977638,
    232.30133006788037, 133.76524475030809, 251.53239457785477, 143.38744108275864,
    232.30133006788037, 133.76524475030809, 240.33755945024828, 138.3927179975139,
    232.30133006788037, 133.76524475030809, 234.162980510356, 135.17615311158303,
    232.30133006788037, 133.76524475030809, 234.9676789747001, 136.34022257111687,
    93.49743984606788, 79.59247333234224, 104.35863310538643, 88.08704844533499,
    93.49743984606788, 79.59247333234224, 98.85330786203866, 83.96955662559287,
    93.49743984606788, 79.59247333234224, 96.32413871929528, 81.99878472501172,
    93.49743984606788, 79.59247333234224, 94.52807292097866, 80.54295333510248,
    93.49743984606788, 79.59247333234224, 95.69904630764275, 81.7687602893305,
    117.96985722433443, 67.55588790571616, 128.8440518469021, 72.70164411779957,
    117.96985722433443, 67.55588790571616, 124.95498935736799, 71.19799297147759,
    117.96985722433443, 67.55588790571616, 122.59733047162497, 70.2058280797502,
    117.96985722433443, 67.55588790571616, 120.236860613394, 69.11721818181763,
    117.96985722433443, 67.55588790571616, 123.25090831974593, 72.60021241871488,
    91.9054718078129, 78.9526321217142, 97.05044035680356, 83.15051626490289,
    91.9054718078129, 78.9526321217142, 95.37788623216132, 81.86063410005421,
    91.9054718078129, 78.9526321217142, 94.31178320042416, 81.01980629988684,
    91.9054718078129, 78.9526321217142, 93.18884014575596, 80.11211711092054,
    91.9054718078129, 78.9526321217142, 95.4223993138871, 82.43295709884289,
    202.57561480208824, 171.16145733315605, 212.30100136515628, 178.92328427531353,
    202.57561480208824, 171.16145733315605, 208.3351841320826, 175.89249349728482,
    202.57561480208824, 171.16145733315605, 206.0795639773775, 174.1220360181607,
    202.57561480208824, 171.16145733315605, 204.01482651054778, 172.4475681142712,
    202.57561480208824, 171.16145733315605, 205.0206977201255, 173.5879625694115,
    146.59753946220007, 140.19705920738656, 152.10121043361315, 145.38176085488314,
    146.59753946220007, 140.19705920738656, 150.0462159970448, 143.47062450721387,
    146.59753946220007, 140.19705920738656, 148.81357393484558, 142.31634113601066,
    146.59753946220007, 140.19705920738656, 147.61142900998436, 141.1811849439028,
    146.59753946220007, 140.19705920738656, 148.7068002919739, 142.30192891410252,
    118.55602297190048, 93.14409312656969, 123.85728840221566, 97.0628116605116,
    118.55602297190048, 93.14409312656969, 122.48769174521146, 96.14091267800858,
    118.55602297190048, 93.14409312656969, 121.5166016568655, 95.47008559681657,
    118.55602297190048, 93.14409312656969, 120.33240810619473, 94.62613917688512,
    118.55602297190048, 93.14409312656969, 123.67745404639062, 98.1833821016724,
    127.1446684289142, 121.30237540148315, 130.99300734571165, 124.93064611154618,
    127.1446684289142, 121.30237540148315, 129.98005372425865, 123.99157270259468,
    127.1446684289142, 121.30237540148315, 129.2639503575694, 123.32427640029724,
    127.1446684289142, 121.30237540148315, 128.39581213136972, 122.51011435663328,
    127.1446684289142, 121.30237540148315, 130.62063223153044, 124.77014295107826,
    240.64969401737568, 222.96504496596395, 246.28435544029378, 228.08640060610196,
    240.64969401737568, 222.96504496596395, 244.48638359822016, 226.48596741210514,
    240.64969401737568, 222.96504496596395, 243.2996341915747, 225.42024871120068,
    240.64969401737568, 222.96504496596395, 241.98489050418942, 224.22592061672606,
    240.64969401737568, 222.96504496596395, 243.02231878815903, 225.33142404928415,
    214.80635092043428, 211.79973211577337, 219.07507282035598, 215.99382693610207,
    214.80635092043428, 211.79973211577337, 217.75628402325628, 214.70324625740633,
    214.80635092043428, 211.79973211577337, 216.87352509870738, 213.83797230422763,
    214.80635092043428, 211.79973211577337, 215.87807037306118, 212.8601765815439,
    214.80635092043428, 211.79973211577337, 216.87445257805933, 213.8668416411679,
]


class TestProvenBracket:
    """phi is negative below the returned bracket and positive above it, so
    the bracket holds the root, and the root matches the extended precision
    reference."""

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_bracket_and_root(self, N):
        for (n, s, eps, b, A, conv), want in zip(PROOF_GRID, BISECTION_ROOTS):
            if n != N:
                continue
            case = (N, s, eps, b, A, conv)
            rec = general_critical_mass(N, s, eps, A, (0.0, 0.5, 1.0, 2.0, N + 0.9)[b], conv)
            lo, hi = rec.bracket
            assert lo <= rec.mass <= hi, case
            for x in lo * np.geomspace(1e-6, 1.0 - 1e-9, 7):
                assert phi(float(x), rec.constants, A) < 0.0, case
            for x in hi * np.geomspace(1.0 + 1e-9, 1e6, 7):
                assert phi(float(x), rec.constants, A) > 0.0, case
            assert rec.mass == pytest.approx(want, rel=1e-12), case
            if A == 0.0:  # the root is C2/C1, up to the rounding of phi
                assert lo == rec.constants.C2 / rec.constants.C1, case
                assert rec.mass == pytest.approx(lo, rel=1e-15), case


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
            "residual",
        ):
            assert key in rec

    def test_closed_form_has_no_bracket(self):
        rec = critical_mass(3, 0.5, 0.5, 0.0).as_record()
        assert math.isnan(rec["bracket_lo"]) and math.isnan(rec["bracket_hi"])
        assert rec["iterations"] == 0
