"""Exact complex-rational arithmetic and the little linear algebra it needs.

The divisor classifier has an exact backend for rational inputs; numbers are
pairs of ``fractions.Fraction`` (real and imaginary part), which keeps its
Berlekamp-Massey profile and the Sylvester resultant of a candidate exact
without pulling in a symbolic engine.  ``solve_exact`` is not used by the
classifier: it is the tests' reference oracle, which checks the profile
against one Hankel elimination per pole budget s and prefix length t.
"""

from __future__ import annotations

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

    def conj(self) -> "QQi":
        return QQi(self.re, -self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"{self.re}+{self.im}i" if self.im else f"{self.re}"


QQI_ZERO = QQi(Fraction(0))
QQI_ONE = QQi(Fraction(1))


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


def determinant_exact(rows):
    """Determinant over QQi by fraction elimination (small matrices only)."""
    n = len(rows)
    a = [list(r) for r in rows]
    det = QQI_ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return QQI_ZERO
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det = det * a[col][col]
        inv = QQI_ONE / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det
