import math
import os
import subprocess
import sys

import numpy as np
import pytest

import nldrop
from nldrop import thresholds
from nldrop.errors import DomainError, ParameterError
from nldrop.kernels import (
    KernelSpec,
    epsilon_min,
    eval_kernel,
    eval_kernel_radial,
    radial_antiderivative,
    radial_tail_integral,
    validate_conditions,
)


def frac(N=2, s=0.5, eps=0.75, **kw):
    return KernelSpec(dimension=N, s=s, epsilon=eps, **kw)


def table(**kw):
    """An r^-2.5 sample table on [0.1, 10] with its power tail; ``kw``
    replaces any field."""
    r = np.geomspace(0.1, 10.0, 8)
    return frac(**{"kind": "tabulated", "radii": r, "values": r ** -2.5, "tail": ("power", 2.5), **kw})


class TestEpsilonMin:
    def test_values(self):
        # 2^{1/(N+s-1)} - 1
        assert epsilon_min(2, 0.5) == pytest.approx(2.0 ** (1.0 / 1.5) - 1.0, rel=1e-14)
        assert epsilon_min(3, 0.5) == pytest.approx(2.0 ** (1.0 / 2.5) - 1.0, rel=1e-14)
        assert epsilon_min(3, 0.5) == pytest.approx(0.31950791077289744, rel=1e-12)

    def test_decreasing_in_dimension(self):
        assert epsilon_min(3, 0.5) < epsilon_min(2, 0.5)

    def test_invalid_s(self):
        with pytest.raises(ParameterError):
            epsilon_min(2, 0.0)
        with pytest.raises(ParameterError):
            epsilon_min(2, 1.0)

    def test_invalid_dimension(self):
        with pytest.raises(ParameterError):
            epsilon_min(1, 0.5)

    def test_dimension_of_any_integral_type(self):
        assert epsilon_min(np.int64(3), 0.5) == epsilon_min(3, 0.5)
        with pytest.raises(ParameterError):
            epsilon_min(3.0, 0.5)

    def test_one_function_in_thresholds_kernels_and_the_package(self):
        # thresholds defines it without numpy; kernels and nldrop re-export it
        assert epsilon_min is thresholds.epsilon_min is nldrop.epsilon_min


class TestKernelSpecValidation:
    def test_epsilon_must_exceed_minimum(self):
        with pytest.raises(ParameterError):
            KernelSpec(dimension=2, s=0.5, epsilon=epsilon_min(2, 0.5))

    def test_lambda_below_one(self):
        with pytest.raises(ParameterError):
            frac(lam=0.5)

    def test_truncated_needs_cap(self):
        with pytest.raises(ParameterError):
            frac(kind="truncated-fractional")

    def test_truncated_cap_floor(self):
        floor = (1.75) ** (-2.5)
        with pytest.raises(ParameterError):
            frac(kind="truncated-fractional", cap=0.5 * floor)
        frac(kind="truncated-fractional", cap=2.0 * floor)

    def test_tabulated_needs_table(self):
        with pytest.raises(ParameterError):
            frac(kind="tabulated")

    def test_tabulated_monotone_radii(self):
        r = np.array([1.0, 0.5, 2.0])
        with pytest.raises(ParameterError):
            frac(kind="tabulated", radii=r, values=np.ones(3))

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            frac(kind="gaussian")

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: frac(eps=math.inf), "epsilon"),
            (lambda: frac(lam=math.inf), "lam"),
            (lambda: frac(kind="truncated-fractional", cap=math.inf), "cap"),
            (lambda: table(radii=np.r_[np.geomspace(0.1, 10.0, 7), math.inf]), "radii"),
            (lambda: table(values=np.r_[math.inf, np.ones(7)]), "values"),
            (lambda: table(tail=("power", math.inf)), "power tail"),
        ],
        ids=["epsilon", "lam", "cap", "radii", "values", "tail"],
    )
    def test_non_finite_parameters_are_refused(self, make, field):
        # each was accepted and the fractional kinds' energies do not read
        # epsilon or lam, so an infinite one went unseen
        with pytest.raises(ParameterError, match=field):
            make()

    def test_finite_table_is_accepted(self):
        assert table().kind == "tabulated"

    def test_sigma(self):
        assert frac(N=3, s=0.25).sigma == 3.25


class TestEvaluation:
    def test_fractional_power_law(self):
        k = frac()
        r = np.array([0.1, 1.0, 3.0])
        assert eval_kernel_radial(k, r) == pytest.approx(r ** -2.5, rel=1e-14)

    def test_vector_evaluation_radial(self):
        k = frac(N=3)
        x = np.array([0.3, -0.4, 1.2])
        assert eval_kernel(k, x) == pytest.approx(np.linalg.norm(x) ** -3.5, rel=1e-13)

    def test_truncation_caps_small_radii(self):
        k = frac(kind="truncated-fractional", cap=2.0)
        r_cap = 2.0 ** (-1.0 / 2.5)
        r = np.array([0.01, 0.5 * r_cap, 2.0 * r_cap, 5.0])
        v = eval_kernel_radial(k, r)
        assert v[0] == 2.0 and v[1] == 2.0
        assert v[2] == pytest.approx((2.0 * r_cap) ** -2.5, rel=1e-13)

    def test_tabulated_reproduces_power_law(self):
        r = np.geomspace(1e-3, 1e2, 300)
        k = frac(kind="tabulated", radii=r, values=r ** -2.5, tail=("power", 2.5))
        probe = np.array([5e-4, 0.0123, 0.87, 31.0, 500.0])
        assert eval_kernel_radial(k, probe) == pytest.approx(probe ** -2.5, rel=1e-6)

    def test_tabulated_zero_tail(self):
        r = np.geomspace(0.1, 2.0, 50)
        k = frac(kind="tabulated", radii=r, values=r ** -2.5, tail=("zero",))
        assert eval_kernel_radial(k, np.array([5.0]))[0] == 0.0

    def test_tabulated_undefined_tail_raises(self):
        r = np.geomspace(0.1, 2.0, 50)
        k = frac(kind="tabulated", radii=r, values=r ** -2.5)
        with pytest.raises(DomainError):
            eval_kernel_radial(k, np.array([3.0]))


class TestTailIntegral:
    def test_fractional_closed_form(self):
        # per-steradian: int_rho^inf r^{-(N+s)} r^{N-1} dr = rho^{-s}/s
        k = frac()
        for rho in (0.25, 1.0, 4.0):
            assert radial_tail_integral(k, rho) == pytest.approx(
                rho ** -0.5 / 0.5, rel=1e-12
            )

    def test_truncated_matches_fractional_beyond_cap(self):
        k = frac(kind="truncated-fractional", cap=2.0)
        kf = frac()
        r_cap = 2.0 ** (-1.0 / 2.5)
        assert radial_tail_integral(k, 2.0 * r_cap) == pytest.approx(
            radial_tail_integral(kf, 2.0 * r_cap), rel=1e-12
        )

    def test_truncated_inside_cap_smaller(self):
        k = frac(kind="truncated-fractional", cap=2.0)
        kf = frac()
        assert radial_tail_integral(k, 0.01) < radial_tail_integral(kf, 0.01)

    def test_divergent_power_tail_raises(self):
        r = np.geomspace(1e-2, 10.0, 100)
        k = frac(kind="tabulated", radii=r, values=r ** -2.5, tail=("power", 1.0))
        with pytest.raises(DomainError):
            radial_tail_integral(k, 1.0)

    def test_tabulated_matches_fractional(self):
        r = np.geomspace(1e-3, 1e3, 600)
        k = frac(kind="tabulated", radii=r, values=r ** -2.5, tail=("power", 2.5))
        kf = frac()
        for rho in (0.05, 0.7, 12.0):
            assert radial_tail_integral(k, rho) == pytest.approx(
                radial_tail_integral(kf, rho), rel=1e-5
            )


class TestConditionAudit:
    def test_fractional_all_pass(self):
        rep = validate_conditions(frac())
        assert rep.all_pass
        assert set(rep.conditions) == {"K1", "K2", "K3", "K4", "K4'"}
        # exact tail integral for N=2, s=0.5: int_1^inf r^{-1.5} dr = 2
        assert rep.tail_integral == pytest.approx(2.0, rel=1e-3)

    def test_fractional_n3_all_pass(self):
        assert validate_conditions(frac(N=3, eps=0.5)).all_pass

    def test_scaled_kernel_fails_upper_sandwich(self):
        r = np.geomspace(1e-3, 1e3, 500)
        k = frac(kind="tabulated", radii=r, values=2.0 * r ** -2.5, tail=("power", 2.5))
        rep = validate_conditions(k)
        v = rep.conditions["K4'"]
        assert v.status == "fail"
        assert v.witness is not None and v.margin > 0

    def test_divergent_tail_fails_k2(self):
        r = np.geomspace(1e-3, 1e3, 500)
        k = frac(kind="tabulated", radii=r, values=r ** -2.5, tail=("power", 1.0))
        rep = validate_conditions(k)
        assert rep.conditions["K2"].status == "fail"
        assert rep.tail_integral == np.inf

    def test_truncated_passes_k1_to_k4(self):
        k = frac(kind="truncated-fractional", cap=2.0)
        rep = validate_conditions(k)
        for name in ("K1", "K2", "K3", "K4"):
            assert rep.conditions[name].status == "pass"
        # a capped kernel cannot dominate the power law near the origin
        assert rep.conditions["K4'"].status == "fail"

    def test_undefined_tail_not_checked(self):
        r = np.geomspace(1e-3, 10.0, 200)
        k = frac(kind="tabulated", radii=r, values=r ** -2.5)
        rep = validate_conditions(k)
        assert rep.conditions["K2"].status == "not-checked"

    @staticmethod
    def motivating(tail, lam=1.0):
        # r^-2.5 sampled on [0.01, 10], N = 2, s = 1/2: K r^(N+s) is flat on
        # the table and r^(2.5 - p) beyond it
        r = np.geomspace(0.01, 10.0, 40)
        return frac(lam=lam, kind="tabulated", radii=r, values=r ** -2.5, tail=tail)

    def test_unbounded_sandwich_beyond_the_table_fails(self):
        # K r^2.5 ~ r^0.47 stays below lam = 50 out to r = 1e3, but is unbounded
        v = validate_conditions(self.motivating(("power", 2.03), lam=50.0)).conditions["K4'"]
        assert (v.status, v.witness, v.margin) == ("fail", math.inf, math.inf)

    def test_slow_integrable_tail_passes_k2_exactly(self):
        rep = validate_conditions(self.motivating(("power", 2.03), lam=50.0))
        assert rep.conditions["K2"].status == "pass"
        assert rep.conditions["K2"].margin == pytest.approx(-0.03, rel=1e-12)
        assert rep.tail_integral == pytest.approx(11.908470001860993, rel=1e-12)

    def test_slow_divergent_tail_fails_k2(self):
        rep = validate_conditions(self.motivating(("power", 1.97), lam=50.0))
        assert rep.conditions["K2"].status == "fail"
        assert rep.conditions["K2"].margin == pytest.approx(0.03, rel=1e-12)
        assert rep.tail_integral == math.inf

    def test_zero_tail_jump_fails_k3_at_last_sample(self):
        rep = validate_conditions(self.motivating(("zero",)))
        v = rep.conditions["K3"]
        assert v.status == "fail"
        assert v.witness == pytest.approx(10.0, rel=1e-11)
        assert v.margin == pytest.approx(10.0 ** -2.5, rel=1e-12)
        assert rep.conditions["K2"].status == "pass"
        # the zero tail breaks the lower sandwich
        assert rep.conditions["K4'"].status == "fail"
        assert rep.conditions["K4'"].margin == pytest.approx(1.0)

    def test_tail_below_one_fails_k4_at_infinity(self):
        v = validate_conditions(self.motivating(("power", 0.5))).conditions["K4"]
        assert (v.status, v.witness, v.margin) == ("fail", math.inf, math.inf)

    def test_continuous_table_passes_k3_to_k4(self):
        rep = validate_conditions(self.motivating(("power", 2.5)))
        assert rep.all_pass
        assert rep.conditions["K4"].witness == 1.75

    def test_sandwich_extreme_inside_a_linear_piece(self):
        # a zero sample at 1: on [0.5, 1] K = a + b r and K r^2.5 peaks at
        # r* = 2.5/3.5, inside the piece
        r = np.array([0.1, 0.25, 0.5, 1.0, 2.0, 4.0])
        v = 3.0 * r ** -2.5
        v[3] = 0.0
        k = frac(lam=3.0, kind="tabulated", radii=r, values=v, tail=("power", 2.5))
        got = validate_conditions(k).conditions["K4'"]
        assert got.status == "fail" and got.note == "upper sandwich violated"
        assert got.witness == pytest.approx(2.5 / 3.5, rel=1e-14)
        x = np.linspace(0.5, 1.0, 200_001)
        dense = eval_kernel_radial(k, x) * x ** 2.5
        assert got.margin + 3.0 == pytest.approx(dense.max(), rel=1e-9)
        assert got.margin + 3.0 >= dense.max()
        assert got.witness == pytest.approx(x[np.argmax(dense)], abs=5e-6)

    def test_audit_deterministic(self):
        k = frac()
        r1 = validate_conditions(k)
        r2 = validate_conditions(k)
        assert {n: v.status for n, v in r1.conditions.items()} == {
            n: v.status for n, v in r2.conditions.items()
        }
        assert r1.tail_integral == r2.tail_integral

    def test_audit_loads_no_numpy_ma(self):
        # np.unique imports numpy.ma, 12 to 18 ms of import time in every
        # run that audits a kernel; the knot lists are deduplicated without it
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = (
            "import sys, numpy as np; from nldrop.kernels import KernelSpec, validate_conditions; "
            "r = np.geomspace(1e-3, 1e3, 50); "
            "validate_conditions(KernelSpec(dimension=2, s=0.5, epsilon=0.75)); "
            "validate_conditions(KernelSpec(dimension=3, s=0.5, epsilon=0.5, "
            "kind='truncated-fractional', cap=2.0)); "
            "validate_conditions(KernelSpec(dimension=2, s=0.5, epsilon=0.75, kind='tabulated', "
            "radii=r, values=r ** -2.5, tail=('power', 2.5))); "
            "print('numpy.ma' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]


def kinked_table():
    # r^-2.5 up to r = 10, r^-3.5 (continued) beyond: a kink inside [1, 1e3]
    r = np.geomspace(1e-2, 1e2, 17)
    v = np.where(r <= 10.0, r ** -2.5, 10.0 ** -2.5 * (r / 10.0) ** -3.5)
    return frac(kind="tabulated", radii=r, values=v, tail=("power", 3.5))


class TestRadialIntegralPins:
    """Values of the (K2) tail integral from 1 and the tabulated tail integral
    computed with adaptive scipy quadrature, frozen here: the exact
    antiderivative of the piece table must reproduce them.  The kinked table's exact tail integral is
    2 (1 - 10^-1/2) + 10^-1/2 / 1.5 = 1.5783629786442...; the adaptive
    value is 1e-11 low, the panel rule hits it."""

    AUDITS = {
        "fractional-2d": (lambda: frac(), 2.0000000000000036, "pass"),
        "fractional-3d": (lambda: frac(N=3, eps=0.5), 2.0000000000000036, "pass"),
        "truncated": (lambda: frac(kind="truncated-fractional", cap=2.0), 2.0000000000000036, "fail"),
        # cap < 1 puts the cap radius 0.5^(-1/2.5) = 1.32 inside [1, 1e3]
        "truncated-break": (
            lambda: frac(kind="truncated-fractional", cap=0.5), 1.9263764082403103, "fail"
        ),
        "tabulated-kink": (kinked_table, 1.5783629786273519, "fail"),
    }

    @pytest.mark.parametrize("case", sorted(AUDITS))
    def test_audit_tail_integral(self, case):
        make, tail, k4p = self.AUDITS[case]
        rep = validate_conditions(make())
        assert rep.tail_integral == pytest.approx(tail, rel=1e-10)
        assert {n: v.status for n, v in rep.conditions.items()} == {
            "K1": "pass", "K2": "pass", "K3": "pass", "K4": "pass", "K4'": k4p,
        }

    def test_kinked_table_is_exact(self):
        exact = 2.0 * (1.0 - 10.0 ** -0.5) + 10.0 ** -0.5 / 1.5
        assert validate_conditions(kinked_table()).tail_integral == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize(
        "make, pinned",
        [
            (kinked_table, (8.522634888643374, 1.968820197313003, 0.16037507477489601)),
            (
                lambda: frac(
                    kind="tabulated",
                    radii=np.geomspace(1e-3, 1e3, 600),
                    values=np.geomspace(1e-3, 1e3, 600) ** -2.5,
                    tail=("power", 2.5),
                ),
                (8.944271909999173, 2.390457218668789, 0.577350269189626),
            ),
        ],
    )
    def test_tabulated_tail_integral(self, make, pinned):
        k = make()
        for rho, value in zip((0.05, 0.7, 12.0), pinned):
            assert radial_tail_integral(k, rho) == pytest.approx(value, rel=1e-10)


def old_table_formula(rt, vt, tail, r):
    """Tabulated evaluation written out as the interpolation rule: the power
    law through the first two samples below the table (v0 if one of them is
    0), log-log between samples (linear next to a zero value), the last
    value up to r_last (1 + 1e-12), then the tail rule."""
    out = []
    for x in r:
        if x < rt[0]:
            if vt[0] > 0 and vt[1] > 0:
                out.append(vt[0] * (x / rt[0]) ** (math.log(vt[1] / vt[0]) / math.log(rt[1] / rt[0])))
            else:
                out.append(vt[0])
        elif x <= rt[-1] * (1.0 + 1e-12):
            x = min(x, rt[-1])
            i = min(int(np.searchsorted(rt, x, side="right")) - 1, len(rt) - 2)
            r0, r1, v0, v1 = rt[i], rt[i + 1], vt[i], vt[i + 1]
            if v0 > 0 and v1 > 0:
                t = math.log(x / r0) / math.log(r1 / r0)
                out.append(math.exp(math.log(v0) + t * (math.log(v1) - math.log(v0))))
            else:
                out.append(v0 + (x - r0) / (r1 - r0) * (v1 - v0))
        elif tail == ("zero",):
            out.append(0.0)
        else:
            out.append(vt[-1] * (x / rt[-1]) ** -tail[1])
    return np.array(out)


class TestPieceTable:
    """Every radial integral of K comes from one exact antiderivative of its
    power-law pieces."""

    RT = np.geomspace(1e-2, 1e2, 17)

    def zero_valued(self):
        v = self.RT ** -2.5
        v[[0, 5, 6, 12]] = 0.0  # a zero first sample, a zero pair, a lone zero
        return v

    @pytest.mark.parametrize("N", [2, 3])
    def test_fractional_is_bit_identical_at_half(self, N):
        k = frac(N=N, eps=0.75 if N == 2 else 0.5)
        sig = k.sigma
        r = np.geomspace(1e-3, 1e3, 997)
        assert np.array_equal(eval_kernel_radial(k, r), r ** (-sig))
        assert np.array_equal(radial_antiderivative(k, 1, r), r ** (2 - sig) / (2 - sig))
        assert np.array_equal(radial_tail_integral(k, r), r ** -0.5 / 0.5)
        for rho in (0.013, 0.7, 2.0, 51.3):
            got = radial_tail_integral(k, rho)
            assert type(got) is float and got == rho ** -0.5 / 0.5

    @pytest.mark.parametrize("N", [2, 3])
    def test_vectorized_tail_matches_scalars_and_closed_forms(self, N):
        eps = 0.75 if N == 2 else 0.5
        rho = np.geomspace(1e-3, 1e2, 60).reshape(3, 20)
        trunc = frac(N=N, eps=eps, kind="truncated-fractional", cap=0.5)
        r_cap = 0.5 ** (-1.0 / (N + 0.5))
        closed = np.where(
            rho >= r_cap, rho ** -0.5 / 0.5, 0.5 * (r_cap ** N - rho ** N) / N + r_cap ** -0.5 / 0.5
        )
        kinds = {"fractional": (frac(N=N, eps=eps), rho ** -0.5 / 0.5), "truncated": (trunc, closed)}
        v = self.zero_valued()
        kinds["tabulated"] = (frac(N=N, eps=eps, kind="tabulated", radii=self.RT, values=v, tail=("power", 4.0)), None)
        for name, (k, want) in kinds.items():
            got = radial_tail_integral(k, rho)
            assert got.shape == rho.shape
            # a scalar takes the scalar power, an array numpy's: equal to rounding
            scalars = [[radial_tail_integral(k, x) for x in row] for row in rho]
            assert np.allclose(got, scalars, rtol=1e-15, atol=0), name
            if want is not None:
                assert np.allclose(got, want, rtol=1e-13, atol=0), name

    @pytest.mark.parametrize("N", [2, 3])
    def test_power_law_table_tail_equals_fractional(self, N):
        eps = 0.75 if N == 2 else 0.5
        r = np.geomspace(1e-3, 1e3, 200)
        k = frac(N=N, eps=eps, kind="tabulated", radii=r, values=r ** -(N + 0.5), tail=("power", N + 0.5))
        rho = np.concatenate((np.geomspace(1e-4, 1e4, 97), r[::7], np.linspace(1.0, 1.5, 50)))
        assert np.allclose(radial_tail_integral(k, rho), rho ** -0.5 / 0.5, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("tail", [("power", 3.5), ("zero",), None])
    def test_tabulated_evaluation_is_the_interpolation_rule(self, tail):
        rt, vt = self.RT, self.zero_valued()
        k = frac(kind="tabulated", radii=rt, values=vt, tail=tail)
        top = rt[-1] * (1.0 + 1e-12)  # the endpoint slack reads the last sample
        probe = np.concatenate(
            (
                [1e-4, 3e-3, rt[0] * 0.999],  # below the first sample
                np.geomspace(rt[0], rt[-1], 301),
                rt, rt * (1 + 1e-9), rt * (1 - 1e-9),
                [rt[-1] * (1.0 + 5e-13), top],
            )
        )
        if tail is None:
            probe = probe[probe <= top]
        else:
            probe = np.concatenate((probe, [top * (1 + 1e-15), 150.0, 1e4]))
        got = eval_kernel_radial(k, probe)
        want = old_table_formula(rt, vt, tail, probe)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-15 * vt.max()), tail
        assert eval_kernel_radial(k, top) == vt[-1] and eval_kernel_radial(k, rt[-1] * (1.0 + 5e-13)) == vt[-1]
        # two positive first samples give the power law through them below
        pos = frac(kind="tabulated", radii=rt, values=rt ** -2.5, tail=tail)
        below = np.array([1e-4, 3e-3])
        assert np.allclose(eval_kernel_radial(pos, below), below ** -2.5, rtol=1e-12, atol=0)
        if tail is None:
            with pytest.raises(DomainError):
                eval_kernel_radial(k, top * (1 + 1e-15))

    @pytest.mark.parametrize("N, q", [(2, 1), (3, 1), (3, 2)])
    def test_antiderivative_is_exact_across_knots(self, N, q):
        import mpmath

        rt, vt = self.RT, self.zero_valued()
        k = frac(N=N, eps=0.75 if N == 2 else 0.5, kind="tabulated", radii=rt, values=vt, tail=("power", 4.5))
        f = lambda t: float(eval_kernel_radial(k, float(t))) * float(t) ** q
        for a, b in [(2e-3, 5e-3), (0.02, 0.9), (0.3, 31.0), (9.0, 11.0), (60.0, 400.0)]:
            pts = [a] + [x for x in rt if a < x < b] + [b]
            want = float(mpmath.fsum(mpmath.quad(f, [lo, hi]) for lo, hi in zip(pts[:-1], pts[1:])))
            got = float(np.diff(radial_antiderivative(k, q, [a, b]))[0])
            assert got == pytest.approx(want, rel=1e-12), (a, b)

    def test_domain_errors_still_raise(self):
        r = np.geomspace(1e-2, 10.0, 100)
        no_tail = frac(kind="tabulated", radii=r, values=r ** -2.5)
        slow = frac(N=3, eps=0.5, kind="tabulated", radii=r, values=r ** -3.5, tail=("power", 3.0))
        for k in (no_tail, slow):
            for rho in (1.0, 50.0, np.array([0.5, 2.0])):
                with pytest.raises(DomainError):
                    radial_tail_integral(k, rho)
        with pytest.raises(DomainError):
            radial_antiderivative(no_tail, 1, [1.0, 20.0])
        with pytest.raises(ParameterError):
            radial_tail_integral(frac(), np.array([1.0, 0.0]))
