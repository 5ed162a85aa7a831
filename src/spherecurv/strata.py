"""Classification of extension classes by the maximal-subbundle degree.

The coordinate vector b = (b_1, ..., b_{k-1}) of a class determines the
largest degree of a line subbundle of the associated rank-2 extension.  That
degree is found by a Pade-type search: over pole budgets s, find the longest
prefix of b realizable as the Taylor coefficients at w=0 of a rational
h(w) = y(w)/(1 - v(w)) with y(0) = v(0) = 0 and at most s poles away from
the north pole; the subbundle degree is

    div = deg_L1 + max_s (longest_prefix(s) + 1 - s).

The prefix condition is a linear recurrence of order s on b: a prefix of
length t has such an h exactly when its linear complexity L(t) is at most s.
One Berlekamp-Massey profile gives L(t) and a connection polynomial (the
witness's 1 - v) for every t at once, so longest_prefix(s) + 1 is the first
t > s with L(t) > s.  The same profile decides whether a candidate y/(1 - v)
is in generic position: its series has linear complexity s_minus exactly
when y and 1 - v share no zero.

One profile loop serves both arithmetics; ``_coords`` supplies its zero
test on a discrepancy d, its update factors and its reduction step.  Exact
inputs (Gaussian rationals) run fraction-free over the Gaussian integers and
test d == 0; floating-point inputs must be finite and test |d| <= tol*||b||.
Floating-point reports also carry a margin: the smallest ||b||-normalized
least-squares residual of the Hankel systems that would certify the
next-lower stratum.  The stratum index m = deg_L2 - div drives the solvable
coupling range (0, 4*pi*m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rational import GaussInt, QQi, primitive, to_qqi
from .bundles import BundleSpec
from .errors import ZeroClass

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class RationalCandidate:
    """h = y / (1 - v) with y(0) = v(0) = 0; coefficients low-order-first.

    Entries are complex numbers or QQi, index 0 is the constant term and must
    be zero in both y and v.
    """

    y: tuple
    v: tuple

    def __post_init__(self):
        if len(self.y) and self.y[0] or len(self.v) and self.v[0]:
            raise ValueError("candidate requires y(0) = v(0) = 0")

    @property
    def deg_y(self) -> int:
        return _degree(self.y)

    @property
    def deg_denominator(self) -> int:
        return max(_degree(self.v), 0)

    @property
    def s_minus(self) -> int:
        """Pole count of h away from the north pole: max(deg y, deg(1 - v))."""
        return max(self.deg_y, self.deg_denominator, 0)

    def is_zero(self) -> bool:
        return self.deg_y < 0

    def in_generic_position(self) -> bool:
        """No common zero of y and 1 - v.

        With y = w*y' and 1 - v(0) = 1, the Taylor series of h has linear
        complexity max(deg y, deg(1 - v)) = s_minus exactly when y' and 1 - v
        are coprime; a common factor lowers it, and a zero y has complexity 0.
        Berlekamp-Massey reads the complexity off 2*s_minus terms, exactly for
        exact entries and at the classifier's tolerance for floating-point ones.
        """
        series = series_of_rational(self, 2 * self.s_minus)
        exact = not isinstance(_zero(self.y + self.v), (float, complex, np.inexact))
        lengths, _ = _profile(*_coords(series, exact, DEFAULT_TOL))
        return lengths[-1] == self.s_minus


def _zero(coeffs):
    """The zero of the coefficients' own arithmetic."""
    return sum((0 * c for c in coeffs), 0)


def _degree(coeffs) -> int:
    return max((i for i, c in enumerate(coeffs) if c), default=-1)


@dataclass(frozen=True)
class DivisorReport:
    div_eta: int
    j_star: int
    s_minus: int
    witness: object  # RationalCandidate or the string "zero-h"
    stratum_m: int
    margin: float | None = None


# ----------------------------------------------------------------------
# forward generator
# ----------------------------------------------------------------------


def series_of_rational(cand: RationalCandidate, order: int) -> list:
    """Taylor coefficients c_1..c_order of y/(1-v) at w = 0, as a list.

    Uses h = y + v*h, i.e. c_j = y_j + sum_{m>=1} v_m c_{j-m}, in the
    candidate's own arithmetic (complex or QQi entries).
    """
    y, v = cand.y, cand.v
    zero = _zero(y + v)
    c = [zero] * (order + 1)
    for j in range(1, order + 1):
        acc = y[j] if j < len(y) else zero
        for m in range(1, min(j, len(v))):
            if v[m]:
                acc = acc + v[m] * c[j - m]
        c[j] = acc
    return c[1:]


# ----------------------------------------------------------------------
# matching orders
# ----------------------------------------------------------------------


def _coords(b, exact: bool, tol: float) -> tuple:
    """(b, D, zero test, update factors, reduction) for the profile; exact b becomes D*b, D its lcm denominator."""
    if exact:
        q, den = [QQi.of(x) for x in b], 1
        for x in q:
            den = math.lcm(den, x.re.denominator, x.im.denominator)
        return [GaussInt(int(x.re * den), int(x.im * den)) for x in q], den, lambda d: not d, _fraction_free, primitive
    b = [complex(x) for x in b]
    if not np.all(np.isfinite(b)):
        raise ValueError("coordinates must be finite numbers")
    tol_abs = tol * float(np.linalg.norm(b))
    return b, 1, lambda d: abs(d) <= tol_abs, lambda c, d, prev_d: (c, d / prev_d), lambda c: c


def _fraction_free(c, d, p):
    """(|p|^2*c, d*conj p): the conjugate keeps new[0] = |p|^2*c[0] a positive integer."""
    norm = p.real * p.real + p.imag * p.imag
    return [norm * x for x in c], d * GaussInt(p.real, -p.imag)


def _profile(b, den, negligible, factors, reduce):
    """Berlekamp-Massey over b_1..b_n (Massey 1969) for every prefix t = 0..n.

    Returns (L, C): L[t] is the linear complexity of b_1..b_t and C[t] a connection polynomial for it,
    low-order-first with C[t][0] a positive integer (1 in floating point) and degree <= L[t], so that
    sum_i C[t][i] b_{j-i} = 0 for L[t] < j <= t.  Each update is reduce(a*c - f*w^shift*prev) with
    (a*c, f) = factors(c, d, prev_d); prev_d starts at den.
    """
    c, prev = [1], [1]  # current polynomial, and the one before the last length change
    length, shift, prev_d = 0, 1, den
    lengths, polys = [0], [c]
    for n in range(len(b)):
        d = c[0] * b[n]
        for i in range(1, len(c)):
            d = d + c[i] * b[n - i]
        if negligible(d):
            shift += 1
        else:
            new, f = factors(c, d, prev_d)
            new = new + [0 * f] * (shift + len(prev) - len(c))
            for i, p in enumerate(prev):
                new[i + shift] = new[i + shift] - f * p
            if 2 * length <= n:
                length, prev, prev_d, shift = n + 1 - length, c, d, 1
            else:
                shift += 1
            c = reduce(new)
        lengths.append(length)
        polys.append(c)
    return lengths, polys


def _matching_orders(lengths) -> list:
    """j*(s) for s = 0..k-1: the first t in s+1..k-1 with L(t) > s, else k."""
    k = len(lengths)
    return [next((t for t in range(s + 1, k) if lengths[t] > s), k) for s in range(k)]


def _witness(b, s: int, c, den: int | None):
    """(y, v) with 1 - v = c/c[0] and y = (c*b mod w^{s+1})/(c[0]*den), as QQi; as is when den is None."""
    zero = b[0] * 0
    c = (list(c) + [zero] * s)[: s + 1]
    y = [zero] + [sum((c[i] * b[j - i - 1] for i in range(j)), zero) for j in range(1, s + 1)]
    v = [zero] + [-x for x in c[1:]]
    if den is not None:
        y, v = [to_qqi(x, c[0].real * den) for x in y], [to_qqi(x, c[0].real) for x in v]
    cand = RationalCandidate(tuple(y), tuple(v))
    return "zero-h" if cand.is_zero() else cand


def _margin(b, score: int) -> float:
    """Smallest ||b||-normalized least-squares residual among the Hankel
    systems that would certify score + 1: rows j = s+1..score+s of
    b_j + sum_{m=1..s} q_m b_{j-m} = 0, over every budget s with score+s < k.
    """
    b = np.asarray(b, dtype=complex)
    resid = math.inf
    for s in range(len(b) + 1 - score):
        t = score + s
        a = np.array([b[j - s - 1 : j - 1][::-1] for j in range(s + 1, t + 1)]).reshape(t - s, s)
        x = np.linalg.lstsq(a, -b[s:t], rcond=None)[0]
        resid = min(resid, float(np.linalg.norm(a @ x + b[s:t])))
    return resid / float(np.linalg.norm(b))


def div_classifier(b, spec: BundleSpec, *, tol: float = DEFAULT_TOL, exact: bool = False) -> DivisorReport:
    """Maximal line-subbundle degree of the extension with coordinates b.

    One Berlekamp-Massey profile of b gives j*(s) for every pole budget
    s = 0..k-1; each budget scores j*(s) - s, the first best budget is kept,
    and the result is floored at deg_L1 (the budget-free subbundle).  Exact
    inputs (QQi) test discrepancies against zero, floating-point inputs
    against tol*||b||.  Floating-point inputs also get a margin: the smallest
    ||b||-normalized least-squares residual among the Hankel systems that
    would certify one score higher, i.e. the next-lower stratum.
    """
    b_seq = list(b)
    k = spec.k
    if len(b_seq) != k - 1:
        raise ValueError(f"coordinate vector has length {len(b_seq)}, expected {k - 1}")
    coords, den, *steps = _coords(b_seq, exact, tol)
    if not any(coords):
        raise ZeroClass("zero coordinate vector")

    lengths, polys = _profile(coords, den, *steps)
    orders = _matching_orders(lengths)
    s = max(range(k), key=lambda budget: orders[budget] - budget)  # the first best budget
    j_star = orders[s]
    score = j_star - s
    div_eta = max(spec.deg_L1 + score, spec.deg_L1)
    return DivisorReport(
        div_eta=div_eta,
        j_star=j_star,
        s_minus=s,
        witness=_witness(coords, s, polys[j_star - 1], den if exact else None),
        stratum_m=spec.deg_L2 - div_eta,
        margin=None if exact else _margin(coords, score),
    )


# ----------------------------------------------------------------------
# coupling ranges
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExistenceRange:
    """Open solvable interval (0, 4*pi*m) plus the certified empty band.

    The interval concerns the extension class the coordinates were
    classified from, and it is open at 4*pi*m.  It does not bound the
    branch of a fixed holomorphic class: along such a branch the dual
    coordinates move, and may drift onto a lower stratum whose range ends
    before the target coupling.
    """

    m: int
    lo: float
    hi: float
    no_solution_band: tuple

    def __contains__(self, lam: float) -> bool:
        return self.lo < lam < self.hi

    @classmethod
    def of_report(cls, report: DivisorReport, spec: BundleSpec) -> "ExistenceRange":
        """The range of a classified class: (0, 4*pi*m), m its stratum index."""
        hi = 4.0 * np.pi * report.stratum_m
        return cls(m=report.stratum_m, lo=0.0, hi=hi, no_solution_band=(hi, 2.0 * np.pi * spec.k))


def existence_range(b, spec: BundleSpec, *, tol: float = DEFAULT_TOL, exact: bool = False) -> ExistenceRange:
    """Solvable couplings (0, 4*pi*m) for the extension class with coordinates b.

    m is the classifier's stratum index.  The range belongs to the extension
    class, is open at 4*pi*m, and promises nothing for a fixed holomorphic
    class continued in lambda (see ExistenceRange).
    """
    return ExistenceRange.of_report(div_classifier(b, spec, tol=tol, exact=exact), spec)
