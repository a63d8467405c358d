"""Radial interaction kernels and exact readings of their admissibility.

Kernels here are radial, nonnegative, and singular (or at least peaked) at
the origin.  Three kinds are supported:

* ``fractional``        K(x) = |x|^(-(N+s))
* ``truncated-fractional``  K(x) = min(|x|^(-(N+s)), cap)
* ``tabulated``         log-log interpolation of a radial sample table,
                        with an explicit tail rule beyond the last sample.

Each kernel carries the parameters (N, s, epsilon, lam) of the admissibility
conditions it claims:

(K1)  nonnegativity and radial symmetry,
(K2)  integrability away from the origin, K in L1 of the complement of B_1,
(K3)  local Lipschitz continuity off the origin,
(K4)  tail bound  |x| K(x) <= (1+epsilon)^(-(N+s-1))  for |x| >= 1+epsilon,
(K4') sandwich    lam^-1 |x|^(-(N+s)) <= K(x) <= lam |x|^(-(N+s)).

Every kernel is also a table of power-law pieces (``_pieces``): knots and,
between them, at most two monomials c r^-p.  Every radial integral of
K(r) r^q derives from one exact antiderivative of that table
(``radial_antiderivative``): the tail mass ``radial_tail_integral``,
also the (K2) tail integral.  Tabulated
kernels also evaluate through the pieces; the two fractional kinds
evaluate their closed forms.

``validate_conditions`` reads each condition off the same table.  On a
piece K is c r^-p, or a + b r next to a zero sample, so every bound on
K(r) r^q is decided at the knots, in the limits r -> 0 and r -> infinity,
or at the one critical point of a linear piece.  A "pass" certifies the
condition for the kernel as evaluated, up to a relative rounding slack of
1e-9: (K1) holds by construction, (K2) by the exponent of the last piece,
(K3) by continuity at every knot, and (K4) and (K4') by the exact sup and
inf.  A "fail" names the worst radius as its witness; "not-checked" means
the kernel is undefined where the condition looks (no tail rule).

Note on (K4) versus (K2): as stated, (K4) alone permits tails as heavy as
c/|x|, which is not integrable over the complement of the unit ball for
N >= 2.  The two conditions are therefore read independently and both
are reported; neither implies the other here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, ParameterError
from .thresholds import epsilon_min

_EPS_REL = 1e-9  # relative rounding slack of the condition bounds
# |log r| < 745 for every positive double, so r^e with |e| below this moves
# by less than _EPS_REL: such an exponent (a log-log slope's rounding) is 0
_EPS_EXP = _EPS_REL / 745.0


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """A radial kernel with its claimed admissibility parameters.

    Parameters
    ----------
    dimension : int
        Ambient dimension N >= 2.
    s : float
        Order in (0, 1); the fractional kinds evaluate to |x|^(-(N+s)).
    epsilon : float
        Tail parameter; must exceed ``epsilon_min(N, s)``.
    lam : float, optional
        Sandwich constant for (K4'), >= 1.  Default 1 (exact power law).
    kind : str
        "fractional", "truncated-fractional", or "tabulated".
    cap : float, optional
        Truncation level for the truncated kind; must be at least
        (1+epsilon)^(-(N+s)) so the truncation happens inside radius
        1+epsilon and the (K4) tail is untouched.
    radii, values : arrays, optional
        Sample table for the tabulated kind; radii strictly increasing
        and positive, values nonnegative.
    tail : tuple, optional
        Tail rule for tabulated kernels beyond the last sample:
        ("power", p) extends by value * (r/r_last)^(-p); ("zero",) sets
        the kernel to zero.  None leaves the tail undefined (evaluation
        there raises DomainError and (K2) reports not-checked).

    A tabulated kernel is interpolated by the power-law pieces of
    ``_pieces`` (every admissible kernel is power-like at the origin).
    """

    dimension: int
    s: float
    epsilon: float
    lam: float = 1.0
    kind: str = "fractional"
    cap: Optional[float] = None
    radii: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    tail: Optional[tuple] = None

    def __post_init__(self):
        N = self.dimension
        emin = epsilon_min(N, self.s)  # also validates N and s
        for name in ("epsilon", "lam") + (("cap",) if self.cap is not None else ()):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (self.epsilon > emin):
            raise ParameterError(
                f"epsilon must exceed {emin:.6g} for N={N}, s={self.s}; "
                f"got {self.epsilon!r}"
            )
        if not (self.lam >= 1.0):
            raise ParameterError(f"lam must be >= 1, got {self.lam!r}")
        if self.kind not in ("fractional", "truncated-fractional", "tabulated"):
            raise ParameterError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "truncated-fractional":
            floor = (1.0 + self.epsilon) ** (-(N + self.s))
            if self.cap is None or not (self.cap >= floor):
                raise ParameterError(
                    f"truncated kernel needs cap >= {floor:.6g}, got {self.cap!r}"
                )
        if self.kind == "tabulated":
            if self.radii is None or self.values is None:
                raise ParameterError("tabulated kernel needs radii and values")
            r = np.asarray(self.radii, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if r.ndim != 1 or r.shape != v.shape or r.size < 2:
                raise ParameterError("sample table must be two 1-d arrays, length >= 2")
            for name, arr in (("radii", r), ("values", v)):
                if not np.all(np.isfinite(arr)):
                    raise ParameterError(f"sample {name} must be finite")
            if not (np.all(r > 0) and np.all(np.diff(r) > 0)):
                raise ParameterError("sample radii must be positive and strictly increasing")
            if not np.all(v >= 0):
                raise ParameterError("sample values must be nonnegative")
            if self.tail is not None:
                if self.tail[0] == "power":
                    if len(self.tail) != 2 or not (0 < self.tail[1] < math.inf):
                        raise ParameterError("power tail rule is ('power', p) with finite p > 0")
                elif self.tail != ("zero",):
                    raise ParameterError(f"unknown tail rule {self.tail!r}")
            r.setflags(write=False)
            v.setflags(write=False)
            object.__setattr__(self, "radii", r)
            object.__setattr__(self, "values", v)

    @property
    def sigma(self) -> float:
        """Nominal singularity exponent N + s of the claimed power law."""
        return self.dimension + self.s

    @property
    def cache_token(self):
        """Stable hashable identity for quadrature-table caching."""
        if self.kind == "fractional":
            return ("frac", self.dimension, self.s)
        if self.kind == "truncated-fractional":
            return ("trunc", self.dimension, self.s, self.cap)
        return (
            "tab",
            self.dimension,
            hash(self.radii.tobytes()),
            hash(self.values.tobytes()),
            self.tail,
        )


def eval_kernel_radial(kernel: KernelSpec, r) -> np.ndarray:
    """Evaluate K at radii r (scalar or array).  Radii must be positive."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("kernel is singular at the origin; radii must be positive")
    sig = kernel.sigma
    if kernel.kind == "fractional":
        return r ** (-sig)
    if kernel.kind == "truncated-fractional":
        return np.minimum(r ** (-sig), kernel.cap)
    knots, c, p, bound = _pieces(kernel)
    _check_defined(r, bound)
    i = np.searchsorted(knots, r)
    return np.sum(c[i] * r[..., None] ** -p[i], axis=-1)


def eval_kernel(kernel: KernelSpec, x) -> np.ndarray:
    """Evaluate K(x) for a point or an array of points (last axis = N).

    Raises DomainError when any point is the origin.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != kernel.dimension:
        raise ParameterError(
            f"points have dimension {x.shape[-1]}, kernel has {kernel.dimension}"
        )
    r = np.sqrt(np.sum(x * x, axis=-1))
    return eval_kernel_radial(kernel, r)


@functools.lru_cache(maxsize=32)
def _pieces(kernel: KernelSpec) -> tuple:
    """K as a table of power-law pieces: (knots, c, p, bound), read-only.

    Piece i runs from knots[i - 1] to knots[i] (0 and infinity at the
    ends), and there K(r) = sum_j c[i, j] r^-p[i, j] over one or two
    monomials j; K is undefined beyond ``bound``.  A tabulated kernel has
    one piece below its first sample, the power law through the first two
    samples (v0 when one of them is 0), one per sample interval (log-log,
    or linear next to a zero value), the last value on [r_last,
    r_last (1 + 1e-12)], a rounding slack so radii computed as |r u| with
    |u| = 1 still read the last sample, and the tail rule beyond (no tail
    rule: undefined there).
    """
    sig, nil = kernel.sigma, (0.0, 0.0)
    if kernel.kind == "fractional":
        knots, terms = [], [[(1.0, sig), nil]]
    elif kernel.kind == "truncated-fractional":
        knots, terms = [kernel.cap ** (-1.0 / sig)], [[(kernel.cap, 0.0), nil], [(1.0, sig), nil]]
    else:
        rt, vt, tail = kernel.radii, kernel.values, kernel.tail
        knots, terms = np.append(rt, rt[-1] * (1.0 + 1e-12)), []
        for r0, r1, v0, v1 in zip(rt[:-1], rt[1:], vt[:-1], vt[1:]):
            if v0 > 0 and v1 > 0:
                slope = math.log(v1 / v0) / math.log(r1 / r0)
                terms.append([(v0 * r0 ** -slope, -slope), nil])
            else:
                b = (v1 - v0) / (r1 - r0)
                terms.append([(v0 - b * r0, 0.0), (b, -1.0)])
        below = terms[0] if vt[0] > 0 and vt[1] > 0 else [(vt[0], 0.0), nil]
        beyond = (vt[-1] * rt[-1] ** tail[1], tail[1]) if tail and tail[0] == "power" else nil
        terms = [below] + terms + [[(vt[-1], 0.0), nil], [beyond, nil]]
    bound = knots[-1] if kernel.kind == "tabulated" and kernel.tail is None else math.inf
    knots = np.array(knots, dtype=float)
    c, p = np.moveaxis(np.array(terms, dtype=float), -1, 0)
    used = c.any(axis=0)  # the second monomial serves only zero table values
    c, p = c[:, used], p[:, used]
    for a in (knots, c, p):
        a.setflags(write=False)
    return knots, c, p, bound


def _check_defined(r: np.ndarray, bound: float) -> None:
    if np.any(r > bound):
        raise DomainError(
            f"tabulated kernel has no tail rule; cannot evaluate beyond r = {bound:.6g}"
        )


def _monomial_integrals(c: np.ndarray, e: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Sum over the last axis of c r^e / e (c log r where e = 0)."""
    r = r[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        f = c * r ** e / e
        logs = e == 0.0
        if logs.any():
            f = np.where(logs, c * np.log(r), f)
    return f.sum(axis=-1)


@functools.lru_cache(maxsize=32)
def _primitive(kernel: KernelSpec, q: float) -> tuple:
    """(knots, c, e, offsets, bound) of ``radial_antiderivative``: on piece
    i of ``_pieces``, G(r) = offsets[i] + sum_j c[i, j] F(r, e[i, j]) with
    e = q + 1 - p and F(r, e) = r^e / e (log r at e = 0).  The offsets are
    summed back from the last piece, whose offset is 0, so G is continuous
    and G(infinity) = 0 where K(r) r^q is integrable there."""
    knots, c, p, bound = _pieces(kernel)
    e = q + 1.0 - p
    jumps = _monomial_integrals(c[1:], e[1:], knots) - _monomial_integrals(c[:-1], e[:-1], knots)
    offsets = np.append(np.cumsum(jumps[::-1])[::-1], 0.0)
    return knots, c, e, offsets, bound


def radial_antiderivative(kernel: KernelSpec, q: float, r) -> np.ndarray:
    """G(r) with G'(r) = K(r) r^q, vectorized over r > 0: exact on every
    power-law piece of K (``_pieces``), continuous across the knots, and 0
    at infinity where K(r) r^q is integrable there, so only differences of
    G, and -G(rho) for a tail, carry meaning.  A kernel of one piece c r^-p
    (the fractional one, so e != 0) takes c r^e / e directly, e = q + 1 - p."""
    knots, c, e, offsets, bound = _primitive(kernel, q)
    r = np.asarray(r, dtype=float)
    if not knots.size:
        # Python floats, so numpy reuses the temporaries; a scalar r takes
        # the scalar power
        c, e = float(c[0, 0]), float(e[0, 0])
        r = float(r) if r.ndim == 0 else r
        return c * r ** e / e
    _check_defined(r, bound)
    i = np.searchsorted(knots, r)
    return offsets[i] + _monomial_integrals(c[i], e[i], r)


def radial_tail_integral(kernel: KernelSpec, rho):
    """Per-steradian tail mass: integral of K(r) r^(N-1) dr from rho to
    infinity, -G(rho) for the antiderivative G of ``radial_antiderivative``
    at q = N - 1.  A float for a scalar rho, an array for an array.

    Used by the complement-integral engines; the full tail mass outside a
    ball of radius rho is this times the unit-sphere area.
    """
    rho_arr = np.asarray(rho, dtype=float)
    if not np.all(rho_arr > 0):
        raise ParameterError(f"rho must be positive, got {rho!r}")
    N = kernel.dimension
    _, c, p, bound = _pieces(kernel)
    if bound < math.inf:
        raise DomainError("tabulated kernel has no tail rule; tail integral undefined")
    slow = p[-1][(c[-1] != 0.0) & (p[-1] <= N)]
    if slow.size:
        raise DomainError(f"power tail with p = {slow[0]} <= N = {N} has a divergent integral")
    out = -radial_antiderivative(kernel, N - 1, rho_arr)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class ConditionVerdict:
    status: str  # "pass" | "fail" | "not-checked" (K undefined where the condition looks)
    witness: Optional[float] = None  # worst radius; 0.0 or inf for a limit
    margin: Optional[float] = None  # how far past the threshold (positive = bad)
    note: str = ""


@dataclass(frozen=True)
class KernelConditionReport:
    conditions: dict = field(default_factory=dict)
    tail_integral: float = float("nan")

    @property
    def all_pass(self) -> bool:
        return all(v.status == "pass" for v in self.conditions.values())


def _extremes(kernel: KernelSpec, q: float, lo: float = 0.0) -> tuple:
    """(r, f), both of shape (pieces, 3): the radii r >= lo where K(r) r^q
    can take its sup or inf over [lo, infinity), and its values there.

    Row i is piece i of ``_pieces``, clipped to [lo, infinity) and to where
    K is defined: its left end, its right end and, on a linear piece
    a + b r, the critical point r* = -a q / (b (q + 1)) when it lies
    inside (else the left end again).  f is read from piece i's own
    formula, so a jump at a knot shows as f[i, 1] != f[i + 1, 0], and
    the ends 0 and infinity carry the limits, with exponents below
    ``_EPS_EXP`` read as 0.  On a piece c r^-p, K(r) r^q is monotone, so
    no other radius can be an extreme.
    """
    knots, c, p, bound = _pieces(kernel)
    left = np.maximum(np.append(0.0, knots), lo)
    right = np.append(knots, math.inf)
    keep = (right > lo) & (left < bound)
    left, right, c, p = left[keep], right[keep], c[keep], p[keep]
    star = left
    if c.shape[1] == 2:  # column 0 is a r^0, column 1 is b r^1 (0 off linear pieces)
        with np.errstate(divide="ignore", invalid="ignore"):
            crit = -c[:, 0] * q / (c[:, 1] * (q + 1.0))
        star = np.where((crit > left) & (crit < right), crit, left)
    r = np.stack([left, right, star], axis=1)
    e = np.where(np.abs(q - p) < _EPS_EXP, 0.0, q - p)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        terms = c[:, None, :] * r[..., None] ** e[:, None, :]
    f = np.where(c[:, None, :] != 0.0, terms, 0.0).sum(axis=-1)
    return r, f


def validate_conditions(kernel: KernelSpec) -> KernelConditionReport:
    """Read conditions (K1)-(K4') off the piece table ``_pieces``.

    (K1) holds by construction.  (K2) reads the exponent p of the last
    piece: K r^(N-1) is integrable at infinity iff the tail is zero or
    p > N, and the tail integral from 1 is ``radial_tail_integral``.
    (K3) fails only where K jumps at a knot.  (K4) is the sup of r K(r)
    over r >= 1 + epsilon and (K4') the sup and inf of K(r) r^(N+s) over
    r > 0, each taken over the candidate radii of ``_extremes``.  Every
    verdict is exact up to a relative rounding slack ``_EPS_REL``; a
    witness is the worst radius, 0.0 or inf for a limit.  A kernel
    without a tail rule is read where it is defined.
    """
    N, eps, lam = kernel.dimension, kernel.epsilon, kernel.lam
    _, c, p, bound = _pieces(kernel)
    conditions = {
        "K1": ConditionVerdict(
            "pass", note="by construction: samples are nonnegative and K depends on |x| only"
        )
    }

    # (K2): the last piece is zero or one monomial c r^-p.
    tail_integral = math.nan
    if bound < math.inf:
        conditions["K2"] = ConditionVerdict(
            "not-checked", None, None, "tabulated kernel without a tail rule"
        )
    elif not c[-1].any():
        tail_integral = radial_tail_integral(kernel, 1.0)
        conditions["K2"] = ConditionVerdict("pass", note="tail identically zero")
    else:
        decay = float(p[-1, 0])
        ok = decay > N
        tail_integral = radial_tail_integral(kernel, 1.0) if ok else math.inf
        conditions["K2"] = ConditionVerdict(
            "pass" if ok else "fail",
            math.inf,
            N - decay,
            f"tail falls like r^-{decay:g}; integrable iff the power exceeds N = {N}",
        )

    # (K3): each piece is smooth off the origin, so only a jump at a knot
    # breaks local Lipschitz continuity.
    r, f = _extremes(kernel, 0.0)
    jump = np.abs(f[1:, 0] - f[:-1, 1])
    bad = jump > _EPS_REL * np.maximum(f[1:, 0], f[:-1, 1])
    if bad.any():
        i = int(np.argmax(np.where(bad, jump, -1.0)))
        conditions["K3"] = ConditionVerdict(
            "fail", float(r[i + 1, 0]), float(jump[i]), "K jumps at a knot"
        )
    else:
        conditions["K3"] = ConditionVerdict("pass", note="continuous at every knot")

    def bounded(margin, tol, witness, what):
        bad = margin > tol
        return ConditionVerdict(
            "fail" if bad else "pass", witness, margin, f"{what} violated" if bad else ""
        )

    # (K4): tail bound r K(r) <= (1+eps)^-(N+s-1) for r >= 1+eps.
    bound4 = (1.0 + eps) ** (-(N + kernel.s - 1.0))
    r, f = (a.ravel().tolist() for a in _extremes(kernel, 1.0, 1.0 + eps))
    if r:
        k = int(np.argmax(f))
        conditions["K4"] = bounded(f[k] - bound4, _EPS_REL * bound4, r[k], "tail bound")
    else:
        conditions["K4"] = ConditionVerdict(
            "not-checked", None, None, "kernel undefined beyond 1+epsilon"
        )

    # (K4'): sandwich lam^-1 <= K(r) r^(N+s) <= lam; the worse side is reported.
    r, f = (a.ravel().tolist() for a in _extremes(kernel, kernel.sigma))
    iu, il = int(np.argmax(f)), int(np.argmin(f))
    margin, side, k = max((f[iu] - lam, "upper", iu), (1.0 / lam - f[il], "lower", il))
    conditions["K4'"] = bounded(margin, _EPS_REL * lam, r[k], f"{side} sandwich")

    return KernelConditionReport(conditions=conditions, tail_integral=tail_integral)
