"""Critical masses above which the energy admits no minimizer.

Two routes are provided.  The closed form

    m_c = (1/2 - (1+eps)^-(N+s-1))^-1 * (omega_{N-1} (1+eps)^(1-s) / (1-s) + A)

covers the Coulomb background (beta = 1).  The generalized threshold for
beta in [0, N+1) is the unique positive root m_p of

    phi(x) = C1 x^(1+p) - C2 x^p - A C3,      p = (beta - 1) / N,

found by bracketed bisection in extended precision.  Two exponent
conventions are in circulation for the prefactor, N+s-1 and N+1-s; they
differ for every s in (0, 1), so both are exposed through a flag and never
silently mixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from .errors import BracketError, DomainError, ParameterError
from .kernels import epsilon_min

_CONVENTIONS = ("theorem", "appendix")
_DPS = 40


class GeneralConstants(NamedTuple):
    C1: float
    C2: float
    C3: float
    p: float


@dataclass(frozen=True)
class ThresholdRecord:
    """Inputs, constants, the critical mass, and root-finder diagnostics."""

    dimension: int
    s: float
    epsilon: float
    A: float
    beta: float
    convention: str
    mass: float
    constants: GeneralConstants
    bracket: Optional[Tuple[float, float]] = None
    iterations: int = 0
    residual: float = 0.0
    sign_check_2x: bool = True
    sign_check_10x: bool = True

    def as_record(self) -> dict:
        return {
            "dimension": self.dimension,
            "s": self.s,
            "epsilon": self.epsilon,
            "A": self.A,
            "beta": self.beta,
            "convention": self.convention,
            "mass": self.mass,
            "C1": self.constants.C1,
            "C2": self.constants.C2,
            "C3": self.constants.C3,
            "p": self.constants.p,
            "bracket_lo": self.bracket[0] if self.bracket else float("nan"),
            "bracket_hi": self.bracket[1] if self.bracket else float("nan"),
            "iterations": self.iterations,
            "residual": self.residual,
            "sign_check_2x": self.sign_check_2x,
            "sign_check_10x": self.sign_check_10x,
        }


def _validate_inputs(N: int, s: float, epsilon: float, A: float):
    if N < 2:
        raise ParameterError(f"dimension must be at least 2, got {N}")
    if not (0.0 < s < 1.0):
        raise ParameterError(f"s must lie in (0, 1), got {s}")
    if A < 0:
        raise ParameterError(f"A must be nonnegative, got {A}")
    if epsilon <= epsilon_min(N, s):
        raise ParameterError(
            f"degenerate prefactor: epsilon = {epsilon} must exceed "
            f"epsilon_min(N={N}, s={s}) = {epsilon_min(N, s)!r}"
        )


def _prefactor_exponent(N: int, s: float, convention: str) -> float:
    if convention not in _CONVENTIONS:
        raise ParameterError(
            f"convention must be one of {_CONVENTIONS}, got {convention!r}"
        )
    return N + s - 1.0 if convention == "theorem" else N + 1.0 - s


def general_constants(
    N: int, s: float, epsilon: float, beta: float, convention: str = "theorem"
) -> GeneralConstants:
    """Constants (C1, C2, C3, p) of the generalized threshold equation."""
    import mpmath as mp

    if not (0.0 < s < 1.0):
        raise ParameterError(f"s must lie in (0, 1), got {s}")
    if not (0.0 <= beta < N + 1):
        raise ParameterError(f"beta must lie in [0, {N + 1}), got {beta}")
    expo = _prefactor_exponent(N, s, convention)
    with mp.workdps(_DPS):
        eps = mp.mpf(epsilon)
        omega = 2 * mp.pi ** (mp.mpf(N) / 2) / mp.gamma(mp.mpf(N) / 2)
        ball = omega / N
        C1 = mp.mpf(1) / 2 - (1 + eps) ** (-mp.mpf(expo))
        C2 = omega * (1 + eps) ** (1 - mp.mpf(s)) / (1 - mp.mpf(s))
        p = (mp.mpf(beta) - 1) / N
        C3 = omega * ball ** (-1 + p) / (N + 1 - mp.mpf(beta))
        if C1 <= 0:
            raise ParameterError(
                f"degenerate prefactor: C1 = {float(C1)} <= 0 for epsilon = "
                f"{epsilon} under the {convention!r} exponent convention"
            )
        return GeneralConstants(C1=float(C1), C2=float(C2), C3=float(C3), p=float(p))


def phi(x: float, constants: GeneralConstants, A: float) -> float:
    """phi(x) = C1 x^(1+p) - C2 x^p - A C3 for x > 0."""
    if x <= 0:
        raise DomainError(f"phi is defined for x > 0, got {x}")
    C1, C2, C3, p = constants
    return C1 * x ** (1.0 + p) - C2 * x ** p - A * C3


def critical_mass(N: int, s: float, epsilon: float, A: float) -> ThresholdRecord:
    """Closed-form critical mass for the Coulomb background (beta = 1)."""
    import mpmath as mp

    _validate_inputs(N, s, epsilon, A)
    consts = general_constants(N, s, epsilon, 1.0, "theorem")
    with mp.workdps(_DPS):
        eps = mp.mpf(epsilon)
        omega = 2 * mp.pi ** (mp.mpf(N) / 2) / mp.gamma(mp.mpf(N) / 2)
        pref = mp.mpf(1) / 2 - (1 + eps) ** (-(mp.mpf(N) + mp.mpf(s) - 1))
        mass = (omega * (1 + eps) ** (1 - mp.mpf(s)) / (1 - mp.mpf(s)) + mp.mpf(A)) / pref
        mass_f = float(mass)
    residual = abs(phi(mass_f, consts, A))
    return ThresholdRecord(
        dimension=N,
        s=s,
        epsilon=epsilon,
        A=A,
        beta=1.0,
        convention="theorem",
        mass=mass_f,
        constants=consts,
        bracket=None,
        iterations=0,
        residual=residual,
    )


def general_critical_mass(
    N: int,
    s: float,
    epsilon: float,
    A: float,
    beta: float,
    convention: str = "theorem",
    lower_start: float = 1e-6,
    upper_start: float = 1.0,
) -> ThresholdRecord:
    """Root m_p of phi by bracketed bisection in extended precision.

    The lower bracket shrinks from ``lower_start`` until phi < 0 and the
    upper doubles from ``upper_start`` until phi > 0 (at most 200 steps
    each); bisection then narrows the bracket to 1e-12 relative width.
    The sign of phi is re-checked at 2 m_p and 10 m_p as a cheap
    uniqueness falsification.
    """
    import mpmath as mp

    _validate_inputs(N, s, epsilon, A)
    consts = general_constants(N, s, epsilon, beta, convention)
    with mp.workdps(_DPS):
        C1, C2, C3 = mp.mpf(consts.C1), mp.mpf(consts.C2), mp.mpf(consts.C3)
        p = (mp.mpf(beta) - 1) / N
        A_mp = mp.mpf(A)

        def phi_mp(x):
            return C1 * x ** (1 + p) - C2 * x ** p - A_mp * C3

        lo = mp.mpf(lower_start)
        steps = 0
        while phi_mp(lo) >= 0:
            lo /= 10
            steps += 1
            if steps > 200:
                raise BracketError(
                    "no negative value of phi found while shrinking the lower bracket",
                    diagnostics={"lower": float(lo), "steps": steps},
                )
        hi = mp.mpf(upper_start)
        steps = 0
        while phi_mp(hi) <= 0:
            hi *= 2
            steps += 1
            if steps > 200:
                raise BracketError(
                    "no positive value of phi found after 200 doublings of the upper bracket",
                    diagnostics={"upper": float(hi), "steps": steps},
                )
        if hi <= lo:
            hi = 2 * lo if phi_mp(2 * lo) > 0 else hi
        bracket0 = (float(lo), float(hi))
        iterations = 0
        while (hi - lo) > mp.mpf("1e-12") * (0.5 * (hi + lo)):
            mid = 0.5 * (lo + hi)
            if phi_mp(mid) < 0:
                lo = mid
            else:
                hi = mid
            iterations += 1
            if iterations > 500:
                break
        root = 0.5 * (lo + hi)
        residual = abs(phi_mp(root))
        check2 = phi_mp(2 * root) > 0
        check10 = phi_mp(10 * root) > 0
        root_f = float(root)
        residual_f = float(residual)
    if not (check2 and check10):
        raise DomainError(
            "phi is not positive beyond the computed root; the uniqueness "
            "assumption failed the sign sampling at 2x and 10x"
        )
    return ThresholdRecord(
        dimension=N,
        s=s,
        epsilon=epsilon,
        A=A,
        beta=beta,
        convention=convention,
        mass=root_f,
        constants=consts,
        bracket=bracket0,
        iterations=iterations,
        residual=residual_f,
        sign_check_2x=bool(check2),
        sign_check_10x=bool(check10),
    )
