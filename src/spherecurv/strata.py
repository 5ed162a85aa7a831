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
t > s with L(t) > s.  The profile runs exactly over Gaussian rationals
(a discrepancy d is zero when d == 0) or in floating point (when
|d| <= tol*||b||).  Floating-point reports carry a margin: the smallest
||b||-normalized least-squares residual of the Hankel systems that would
certify the next-lower stratum.  The stratum index m = deg_L2 - div drives
the solvable coupling range (0, 4*pi*m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._rational import QQI_ONE, QQI_ZERO, QQi, determinant_exact
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
        if len(self.y) and _is_nonzero(self.y[0]) or len(self.v) and _is_nonzero(self.v[0]):
            raise ValueError("candidate requires y(0) = v(0) = 0")

    @property
    def deg_y(self) -> int:
        return _degree(self.y)

    @property
    def deg_denominator(self) -> int:
        dv = _degree(self.v)
        return dv if dv > 0 else 0

    @property
    def s_minus(self) -> int:
        """Pole count of h away from the north pole: max(deg y, deg(1 - v))."""
        return max(self.deg_y, self.deg_denominator, 0)

    def is_zero(self) -> bool:
        return self.deg_y < 0

    def in_generic_position(self, tol: float = 1e-12) -> bool:
        """No common zeros of y and 1 - v (resultant bounded away from zero)."""
        if self.is_zero():
            return _degree(self.v) < 0
        exact = _is_exact(self.y) and _is_exact(self.v)
        conv = QQi.of if exact else complex
        y = [conv(c) for c in self.y]
        q = [conv(c) for c in _one_minus(self.v)]
        res = _resultant(y, q)
        if exact:
            return bool(res)
        scale = max(map(abs, y + q)) ** (len(y) + len(q))
        return abs(res) > tol * max(scale, 1e-300)


def _is_exact(coeffs) -> bool:
    return all(isinstance(c, (QQi, Fraction, int)) for c in coeffs)


def _is_nonzero(c) -> bool:
    if isinstance(c, QQi):
        return bool(c)
    return c != 0


def _degree(coeffs) -> int:
    deg = -1
    for i, c in enumerate(coeffs):
        if _is_nonzero(c):
            deg = i
    return deg


def _one_minus(v) -> list:
    if _is_exact(v):
        out = [QQI_ONE] + [-QQi.of(c) for c in v[1:]]
    else:
        out = [1.0 + 0j] + [-complex(c) for c in v[1:]]
    return out


def _resultant(p, q):
    """Resultant of two low-order-first polynomials: the Sylvester determinant.

    Exact (``determinant_exact``) for QQi coefficients, ``np.linalg.det``
    for complex ones.
    """
    dp, dq = _degree(p), _degree(q)
    if dp < 0 or dq < 0:
        return 0
    zero = p[0] * 0
    n = dp + dq
    rows = [[zero] * i + p[dp::-1] + [zero] * (dq - 1 - i) for i in range(dq)]
    rows += [[zero] * i + q[dq::-1] + [zero] * (dp - 1 - i) for i in range(dp)]
    if isinstance(zero, QQi):
        return determinant_exact(rows)
    return np.linalg.det(np.array(rows, dtype=complex).reshape(n, n))


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


def series_of_rational(cand: RationalCandidate, order: int):
    """Taylor coefficients c_1..c_order of y/(1-v) at w = 0.

    Uses h = y + v*h, i.e. c_j = y_j + sum_{m>=1} v_m c_{j-m}; works for both
    complex and exact coefficients.
    """
    exact = _is_exact(cand.y) and _is_exact(cand.v)
    zero = QQI_ZERO if exact else 0j
    y = [QQi.of(c) if exact else complex(c) for c in cand.y]
    v = [QQi.of(c) if exact else complex(c) for c in cand.v]
    c = [zero] * (order + 1)
    for j in range(1, order + 1):
        acc = y[j] if j < len(y) else zero
        for m in range(1, min(j, len(v))):
            if _is_nonzero(v[m]):
                acc = acc + v[m] * c[j - m]
        c[j] = acc
    out = c[1:]
    return out if exact else np.asarray(out, dtype=complex)


# ----------------------------------------------------------------------
# matching orders
# ----------------------------------------------------------------------


def _coords(b, exact: bool, tol: float):
    """b as QQi or complex entries, and the zero test on a discrepancy."""
    if exact:
        return [QQi.of(x) for x in b], lambda d: not d
    b = [complex(x) for x in b]
    tol_abs = tol * float(np.linalg.norm(b))
    return b, lambda d: abs(d) <= tol_abs


def _profile(b, negligible):
    """Berlekamp-Massey over b_1..b_n (Massey 1969) for every prefix t = 0..n.

    Returns (L, C): L[t] is the linear complexity of b_1..b_t and C[t] a
    connection polynomial for it, low-order-first with C[t][0] = 1 and
    degree <= L[t], so that b_j + sum_i C[t][i] b_{j-i} = 0 for L[t] < j <= t.
    Only ``negligible``, the zero test on the discrepancy, depends on the
    arithmetic.
    """
    c, prev = [1], [1]  # current polynomial, and the one before the last length change
    length, shift, prev_d = 0, 1, 1
    lengths, polys = [0], [c]
    for n in range(len(b)):
        d = b[n]
        for i in range(1, len(c)):
            d = d + c[i] * b[n - i]
        if negligible(d):
            shift += 1
        else:
            f = d / prev_d
            new = c + [0 * f] * (shift + len(prev) - len(c))
            for i, p in enumerate(prev):
                new[i + shift] = new[i + shift] - f * p
            if 2 * length <= n:
                length, prev, prev_d, shift = n + 1 - length, c, d, 1
            else:
                shift += 1
            c = new
        lengths.append(length)
        polys.append(c)
    return lengths, polys


def _matching_orders(lengths) -> list:
    """j*(s) for s = 0..k-1: the first t in s+1..k-1 with L(t) > s, else k."""
    k = len(lengths)
    return [next((t for t in range(s + 1, k) if lengths[t] > s), k) for s in range(k)]


def max_matching_order(b, s: int, *, tol: float = DEFAULT_TOL, exact: bool = False) -> int:
    """Largest j* achievable over candidates with at most s poles.

    The first j*-1 coordinates of b are matched; j* = k means the whole
    vector is the Taylor prefix of an admissible rational function.
    """
    k = len(b) + 1
    if not 0 <= s <= k - 1:
        raise ValueError(f"pole budget s={s} outside [0, {k - 1}]")
    lengths, _ = _profile(*_coords(b, exact, tol))
    return _matching_orders(lengths)[s]


def _witness(b, s: int, c):
    """(y, v) from a connection polynomial c: 1 - v = c, y = c*B mod w^{s+1}."""
    zero = b[0] * 0
    c = (list(c) + [zero] * s)[: s + 1]
    y = [zero] + [sum((c[i] * b[j - i - 1] for i in range(j)), zero) for j in range(1, s + 1)]
    v = [zero] + [-x for x in c[1:]]
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
    coords, negligible = _coords(b_seq, exact, tol)
    if not any(coords):
        raise ZeroClass("zero coordinate vector")

    lengths, polys = _profile(coords, negligible)
    orders = _matching_orders(lengths)
    s = max(range(k), key=lambda budget: orders[budget] - budget)  # the first best budget
    j_star = orders[s]
    score = j_star - s
    div_eta = max(spec.deg_L1 + score, spec.deg_L1)
    return DivisorReport(
        div_eta=div_eta,
        j_star=j_star,
        s_minus=s,
        witness=_witness(coords, s, polys[j_star - 1]),
        stratum_m=spec.deg_L2 - div_eta,
        margin=None if exact else _margin(coords, score),
    )


# ----------------------------------------------------------------------
# stability and coupling ranges
# ----------------------------------------------------------------------


def alpha_stable(spec: BundleSpec, div_eta: int, alpha: float) -> bool:
    """Stability of the extension at slope parameter alpha.

    Equivalent chain: deg_L1 - deg_L2 < alpha < deg_L1 + deg_L2 - 2*div, with
    alpha < 0 required on top (necessary for the metric problem).
    """
    lower = spec.deg_L1 - spec.deg_L2
    upper = spec.deg_L1 + spec.deg_L2 - 2 * div_eta
    return (lower < alpha < upper) and alpha < 0


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


def existence_range(b, spec: BundleSpec, *, tol: float = DEFAULT_TOL, exact: bool = False) -> ExistenceRange:
    """Solvable couplings (0, 4*pi*m) for the extension class with coordinates b.

    m is the classifier's stratum index.  The range belongs to the extension
    class, is open at 4*pi*m, and promises nothing for a fixed holomorphic
    class continued in lambda (see ExistenceRange).
    """
    report = div_classifier(b, spec, tol=tol, exact=exact)
    m = report.stratum_m
    hi = 4.0 * np.pi * m
    return ExistenceRange(m=m, lo=0.0, hi=hi, no_solution_band=(hi, 2.0 * np.pi * spec.k))
