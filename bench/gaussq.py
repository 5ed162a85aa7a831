"""Gaussian-rational test vectors for the classifier, built without spherecurv.

A number is a pair ``(re, im)`` of ``fractions.Fraction``; a polynomial is a
low-order-first list of such pairs.  The vectors are Taylor prefixes of
random rational functions h = y / (1 - v) with y(0) = v(0) = 0 and exactly
``s`` poles away from the north pole, the construction of acceptance
criterion 04.  For s <= k//2 the exact classifier must return
div_eta = deg_L1 + k - s.  Everything here is independent of the program's
own series and resultant code, so a fault there cannot hide in the inputs.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def is_zero(a) -> bool:
    return a[0] == 0 and a[1] == 0


def _trim(p):
    p = list(p)
    while p and is_zero(p[-1]):
        p.pop()
    return p


def _poly_rem(a, b):
    """Remainder of a by b (b trimmed and nonzero)."""
    a = _trim(a)
    lead = b[-1]
    while len(a) >= len(b):
        f = div(a[-1], lead)
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = sub(a[shift + i], mul(f, c))
        a = _trim(a)
    return a


def coprime(p, q) -> bool:
    """True when the polynomials share no root (their gcd is a constant)."""
    a, b = _trim(p), _trim(q)
    if not a or not b:
        return False
    while b:
        a, b = b, _poly_rem(a, b)
    return len(a) == 1


def taylor_prefix(y, v, n: int):
    """Coefficients c_1..c_n of y / (1 - v) at 0, from h = y + v*h."""
    c = [ZERO] * (n + 1)
    for j in range(1, n + 1):
        acc = y[j] if j < len(y) else ZERO
        for m in range(1, min(j, len(v))):
            acc = add(acc, mul(v[m], c[j - m]))
        c[j] = acc
    return c[1:]


def _rand_fraction(rng):
    return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))


def _rand_q(rng, nonzero=False):
    while True:
        q = (_rand_fraction(rng), _rand_fraction(rng))
        if not nonzero or not is_zero(q):
            return q


def random_prefix(rng, k: int, s: int):
    """Taylor prefix b_1..b_{k-1} of a random h with exactly s poles off N."""
    while True:
        y = [ZERO] + [_rand_q(rng) for _ in range(s)]
        v = [ZERO] + [_rand_q(rng) for _ in range(s)]
        if rng.random() < 0.5:
            y[s] = _rand_q(rng, nonzero=True)
        else:
            v[s] = _rand_q(rng, nonzero=True)
        one_minus_v = [ONE] + [(-c[0], -c[1]) for c in v[1:]]
        if coprime(y, one_minus_v):
            return taylor_prefix(y, v, k - 1)


def to_complex(b):
    return [complex(float(re), float(im)) for re, im in b]
