"""Exact arithmetic for the divisor classifier.

Exact inputs and witnesses are ``QQi``, pairs of ``fractions.Fraction``; the
Berlekamp-Massey profile runs over ``GaussInt``, pairs of ints, and so runs
no gcd per operation.  ``solve_exact`` is the tests' reference oracle, which
checks the profile against one Hankel elimination per pole budget s and
prefix length t, and the benchmark tracer times it by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class QQi:
    """Gaussian rational re + im*i."""

    re: Fraction
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, value) -> "QQi":
        if isinstance(value, QQi):
            return value
        if isinstance(value, tuple):
            return cls(Fraction(value[0]), Fraction(value[1]))
        if isinstance(value, complex):
            return cls(Fraction(value.real), Fraction(value.imag))
        return cls(Fraction(value))

    def __add__(self, o):
        o = QQi.of(o)
        return QQi(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        o = QQi.of(o)
        return QQi(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __mul__(self, o):
        o = QQi.of(o)
        return QQi(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        o = QQi.of(o)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero QQi")
        return QQi((self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d)

    __radd__ = __add__
    __rmul__ = __mul__

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"{self.re}+{self.im}i" if self.im else f"{self.re}"


QQI_ZERO = QQi(Fraction(0))
QQI_ONE = QQi(Fraction(1))


class GaussInt:
    """Gaussian integer real + imag*i; ints have the same attributes, so they mix in."""

    __slots__ = ("real", "imag")

    def __init__(self, real: int, imag: int = 0):
        self.real, self.imag = real, imag

    def __add__(self, o):
        return GaussInt(self.real + o.real, self.imag + o.imag)

    def __sub__(self, o):
        return GaussInt(self.real - o.real, self.imag - o.imag)

    def __neg__(self):
        return GaussInt(-self.real, -self.imag)

    def __mul__(self, o):
        return GaussInt(self.real * o.real - self.imag * o.imag, self.real * o.imag + self.imag * o.real)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.real or self.imag)


def primitive(poly: list) -> list:
    """poly over the gcd of its entries' parts; with poly[0] > 0, the least integer multiple of poly/poly[0]."""
    g = 0
    for x in poly:  # pairwise: faster than one call on every part, and it builds no argument tuple
        g = math.gcd(g, x.real, x.imag)
    return [GaussInt(x.real // g, x.imag // g) for x in poly] if g > 1 else poly


def to_qqi(x, den: int) -> QQi:
    """The GaussInt or int x over the nonzero integer den."""
    return QQi(Fraction(x.real, den), Fraction(x.imag, den))


def solve_exact(rows, rhs):
    """Consistency and one solution of A x = rhs over QQi.

    Returns ``(consistent, x or None)`` with free variables set to zero.
    ``rows`` is a list of lists; empty systems are consistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    pivots = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, m) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = QQI_ONE / aug[row][col]
        aug[row] = [inv * v for v in aug[row]]
        for r in range(m):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if aug[r][n]:
            return False, None
    x = [QQI_ZERO] * n
    for r, col in enumerate(pivots):
        x[col] = aug[r][n]
    return True, x

