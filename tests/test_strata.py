import math
import re

import numpy as np
import pytest
from fractions import Fraction
from math import comb
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spherecurv import strata
from spherecurv._rational import QQi, solve_exact, to_qqi
from spherecurv.bundles import BundleSpec, HoloClass
from spherecurv.cohomology import dual_map_H0
from spherecurv.errors import ZeroClass
from spherecurv.strata import (
    DEFAULT_TOL,
    RationalCandidate,
    div_classifier,
    existence_range,
    series_of_rational,
)

from oracles import (
    alpha_stable,
    alpha_stable_slope_form,
    coords_fraction_product,
    div_classifier_field,
    field_coords,
    field_profile,
    in_generic_position,
    margin_lstsq,
    matching_orders_scan,
    max_matching_order,
)


def spec_k(k, deg_L1=0):
    return BundleSpec(deg_L1, deg_L1 + k)


def rand_fraction(rng):
    num = int(rng.integers(-9, 10))
    den = int(rng.integers(1, 10))
    return Fraction(num, den)


def rand_qqi(rng, nonzero=False):
    while True:
        q = QQi(rand_fraction(rng), rand_fraction(rng))
        if not nonzero or q:
            return q


def random_exact_candidate(rng, s, max_len):
    """Random candidate with s_minus exactly s, in generic position."""
    zero = QQi(Fraction(0))
    while True:
        y = [zero] + [rand_qqi(rng) for _ in range(s)]
        v = [zero] + [rand_qqi(rng) for _ in range(s)]
        # force the pole count: make one of the top coefficients nonzero
        if rng.random() < 0.5:
            y[s] = rand_qqi(rng, nonzero=True)
        else:
            v[s] = rand_qqi(rng, nonzero=True)
        cand = RationalCandidate(tuple(y), tuple(v))
        if cand.s_minus == s and not cand.is_zero() and in_generic_position(cand):
            return cand


def hankel_matching_order(b, s):
    """Oracle for j*(s): one exact elimination per prefix length t of the
    order-s recurrence b_j + sum_{m=1..s} q_m b_{j-m} = 0, j = s+1..t."""
    k = len(b) + 1
    for t in range(s + 1, k):
        js = range(s + 1, t + 1)
        consistent, _ = solve_exact([[b[j - m - 1] for m in range(1, s + 1)] for j in js], [-b[j - 1] for j in js])
        if not consistent:
            return t
    return k


QQI_ZERO = QQi(Fraction(0))
_unit = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1)])
_small = st.fractions(min_value=-9, max_value=9, max_denominator=9)
_entries = st.one_of(st.just(QQI_ZERO), st.builds(QQi, _unit, _unit), st.builds(QQi, _small, _small))


@st.composite
def gaussian_rational_vectors(draw):
    """b_1..b_{k-1}, k = 3..12: free entries, or the Taylor prefix of a
    y/(1-v) with at most k//2 poles; entries are often 0 or in {-1, 0, 1}."""
    k = draw(st.integers(3, 12))
    if draw(st.booleans()):
        b = draw(st.lists(_entries, min_size=k - 1, max_size=k - 1))
    else:
        s = draw(st.integers(1, k // 2))
        y, v = (tuple([QQI_ZERO] + draw(st.lists(_entries, min_size=s, max_size=s))) for _ in range(2))
        b = series_of_rational(RationalCandidate(y, v), k - 1)
    assume(any(b))
    return b


class TestSeries:
    def test_geometric(self):
        rho = 0.37 + 0.4j
        cand = RationalCandidate((0j, 1.0 + 0j), (0j, rho))
        c = series_of_rational(cand, 6)
        assert isinstance(c, list)
        assert np.allclose(c, [rho ** j for j in range(6)])

    def test_zero_numerator(self):
        cand = RationalCandidate((0j,), (0j, 0.5 + 0j))
        assert not np.any(series_of_rational(cand, 5))

    def test_long_division_oracle(self):
        # w^2/(1-w) = w^2 + w^3 + ...
        cand = RationalCandidate((0j, 0j, 1.0 + 0j), (0j, 1.0 + 0j))
        c = series_of_rational(cand, 5)
        assert np.allclose(c, [0, 1, 1, 1, 1])

    @pytest.mark.parametrize(
        "build,error,message",
        [
            (lambda: QQi(Fraction(1)) / QQi(Fraction(0)), ZeroDivisionError, "division by zero"),
            (lambda: RationalCandidate((1.0 + 0j, 1.0 + 0j), (0j, 0.5 + 0j)), ValueError, "y(0) = v(0) = 0"),
        ],
        ids=["qqi_division_by_zero", "candidate_y0"],
    )
    def test_rejects_invalid_input(self, build, error, message):
        with pytest.raises(error, match=re.escape(message)):
            build()

    def test_exact_mode(self):
        half = QQi(Fraction(1, 2))
        one = QQi(Fraction(1))
        zero = QQi(Fraction(0))
        cand = RationalCandidate((zero, one), (zero, half))
        c = series_of_rational(cand, 4)
        assert [x.re for x in c] == [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]


def _times_factor(cand, r):
    """(1 - r*w)*y and (1 - r*w)*(1 - v) as a candidate: a planted common zero at w = 1/r."""
    one = 0 * r + 1

    def times(p):
        p = list(p) + [0 * r]
        return [p[0]] + [p[i] - r * p[i - 1] for i in range(1, len(p))]

    q = times([one] + [-c for c in cand.v[1:]])
    return RationalCandidate(tuple(times(cand.y)), tuple([0 * r] + [-c for c in q[1:]]))


class TestGenericPosition:
    def test_exact_planted_factor(self):
        rng = np.random.default_rng(41)
        for s in (1, 2, 3, 4):
            for _ in range(5):
                cand = random_exact_candidate(rng, s, 2 * s + 1)
                assert in_generic_position(cand)
                planted = _times_factor(cand, rand_qqi(rng, nonzero=True))
                assert planted.s_minus == s + 1
                assert not in_generic_position(planted)

    def test_float_planted_factor(self):
        rng = np.random.default_rng(42)
        for s in (1, 2, 3, 4, 5):
            for _ in range(5):
                y, v = ([0j] + list(rng.normal(size=s) + 1j * rng.normal(size=s)) for _ in range(2))
                cand = RationalCandidate(tuple(y), tuple(v))
                assert in_generic_position(cand)
                r = complex(rng.normal(), rng.normal())
                assert not in_generic_position(_times_factor(cand, r))

    def test_zero_numerator(self):
        # h = 0 has linear complexity 0: generic only when 1 - v is constant
        zero, half = QQi(Fraction(0)), QQi(Fraction(1, 2))
        assert in_generic_position(RationalCandidate((zero,), (zero,)))
        assert in_generic_position(RationalCandidate((0j, 0j), (0j, 0j)))
        assert not in_generic_position(RationalCandidate((zero,), (zero, half)))
        assert not in_generic_position(RationalCandidate((0j,), (0j, 0.5 + 0j)))


class TestMatchingOrder:
    def test_geometric_reaches_k(self):
        k = 6
        rho = 0.8 - 0.3j
        b = np.array([rho ** j for j in range(k - 1)])
        assert max_matching_order(b, 1) == k

    def test_top_basis_vector(self):
        k = 5
        b = np.zeros(k - 1, dtype=complex)
        b[-1] = 1.0
        assert max_matching_order(b, 0) == k - 1

    def test_forward_generator_roundtrip(self):
        rng = np.random.default_rng(21)
        k = 7
        cand = random_exact_candidate(rng, 2, k)
        b = series_of_rational(
            RationalCandidate(
                tuple(complex(c) for c in cand.y), tuple(complex(c) for c in cand.v)
            ),
            k - 1,
        )
        assert max_matching_order(b, 2) == k

    def test_budget_bounds(self):
        with pytest.raises(ValueError):
            max_matching_order(np.ones(3), 5)


class TestClassifier:
    def test_geometric_is_bottom_stratum(self):
        k = 4
        rho = 0.25 + 0.6j
        b = np.array([2.0 * rho ** j for j in range(k - 1)])
        rep = div_classifier(b, spec_k(k))
        assert rep.div_eta == 3 == spec_k(k).deg_L2 - 1
        assert rep.stratum_m == 1
        assert rep.j_star == k and rep.s_minus == 1

    def test_first_basis_vector_in_p1(self):
        k = 4
        b = np.zeros(k - 1, dtype=complex)
        b[0] = 1.0
        rep = div_classifier(b, spec_k(k))
        assert rep.stratum_m == 1

    def test_top_basis_vector_in_p1(self):
        # s=0, j*=k-1 branch of the bottom stratum
        k = 5
        b = np.zeros(k - 1, dtype=complex)
        b[-1] = 1.0
        rep = div_classifier(b, spec_k(k))
        assert rep.stratum_m == 1
        assert rep.witness == "zero-h"

    def test_exact_random_bounds(self):
        rng = np.random.default_rng(22)
        k = 6
        spec = spec_k(k)
        for _ in range(25):
            b = [rand_qqi(rng) for _ in range(k - 1)]
            if not any(bool(x) for x in b):
                continue
            rep = div_classifier(b, spec, exact=True)
            assert spec.deg_L2 - 3 <= rep.div_eta <= spec.deg_L2 - 1

    def test_exact_roundtrip(self):
        rng = np.random.default_rng(23)
        for k in (3, 4, 5, 6):
            spec = spec_k(k, deg_L1=1)
            for _ in range(20):
                s = int(rng.integers(1, k // 2 + 1))
                cand = random_exact_candidate(rng, s, k)
                b = series_of_rational(cand, k - 1)
                if not any(bool(x) for x in b):
                    continue
                rep = div_classifier(b, spec, exact=True)
                assert rep.div_eta == spec.deg_L1 + k - s, (k, s, b)

    def test_scale_invariance(self):
        rng = np.random.default_rng(24)
        k = 5
        spec = spec_k(k)
        b = rng.normal(size=k - 1) + 1j * rng.normal(size=k - 1)
        base = div_classifier(b, spec)
        for c in (1e-7, 3.0 - 4.0j, 1e9j):
            rep = div_classifier(c * b, spec)
            assert rep.div_eta == base.div_eta

    @pytest.mark.parametrize("kind", ["random", "geometric"])
    def test_same_report_at_every_power_of_two(self, kind):
        # b is projective, but the profile's first step is in b's own units:
        # far from |b| ~ 1 it used to misread strata, or divide by an underflowed ||b||
        rng = np.random.default_rng(30)
        fields = ("div_eta", "j_star", "s_minus", "stratum_m", "margin")
        for k in range(3, 13):
            spec = spec_k(k)
            for _ in range(4):
                b = rng.normal(size=k - 1) + 1j * rng.normal(size=k - 1)
                if kind == "geometric":  # linear complexity 1: the bottom stratum
                    b = b[0] * (rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())) ** np.arange(k - 1)
                base = div_classifier(b, spec)
                assert kind == "random" or base.stratum_m == 1
                for j in (-1000, -500, 500, 1000):
                    rep = div_classifier(np.ldexp(b.real, j) + 1j * np.ldexp(b.imag, j), spec)
                    assert [getattr(rep, f) for f in fields] == [getattr(base, f) for f in fields], (k, j)

    def test_stratum_bounds_random(self):
        rng = np.random.default_rng(25)
        for k in (2, 3, 4, 5, 6, 7, 8):
            spec = spec_k(k)
            for _ in range(50):
                b = rng.normal(size=k - 1) + 1j * rng.normal(size=k - 1)
                rep = div_classifier(b, spec)
                assert 1 <= rep.stratum_m <= k // 2, (k, b)

    def test_generic_stratum_is_top(self):
        rng = np.random.default_rng(26)
        for k in (3, 4, 5, 6):
            spec = spec_k(k)
            hits = [div_classifier(rng.normal(size=k - 1) + 1j * rng.normal(size=k - 1), spec).stratum_m for _ in range(40)]
            assert all(m == k // 2 for m in hits), k

    def test_monotone_strata_guard(self):
        # membership div >= L2 - m is monotone in m by construction
        rng = np.random.default_rng(27)
        k = 6
        spec = spec_k(k)
        b = rng.normal(size=k - 1) + 1j * rng.normal(size=k - 1)
        rep = div_classifier(b, spec)
        for m in range(rep.stratum_m, k // 2 + 1):
            assert rep.div_eta >= spec.deg_L2 - m

    def test_zero_class(self):
        with pytest.raises(ZeroClass):
            div_classifier(np.zeros(3, dtype=complex), spec_k(4))

    def test_exact_reads_complex_floats(self):
        # dyadic complex floats are exact rationals: the same report as their QQi
        b = [0.5 + 0.25j, -1.0 + 0.125j, 0.75j, 2.0 + 0j]
        qqi = [QQi(Fraction(x.real), Fraction(x.imag)) for x in b]
        assert repr(div_classifier(b, spec_k(5), exact=True)) == repr(div_classifier(qqi, spec_k(5), exact=True))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_rejected(self, bad):
        # a non-finite coordinate is refused by name before it reaches the witness
        with pytest.raises(ValueError, match="coordinates must be finite"):
            div_classifier([bad, 1.0, 0.5], spec_k(4))

    def test_margin_reported(self):
        rng = np.random.default_rng(28)
        k = 5
        b = rng.normal(size=k - 1) + 1j * rng.normal(size=k - 1)
        rep = div_classifier(b, spec_k(k))
        assert rep.margin is not None and rep.margin > 0

    def test_float_and_exact_backends_agree(self):
        # two independent arithmetic paths must classify rational inputs alike
        rng = np.random.default_rng(29)
        for k in (3, 4, 5, 6):
            spec = spec_k(k, deg_L1=2)
            for _ in range(10):
                b_exact = [rand_qqi(rng) for _ in range(k - 1)]
                if not any(bool(x) for x in b_exact):
                    continue
                b_float = np.array([complex(x) for x in b_exact])
                rep_e = div_classifier(b_exact, spec, exact=True)
                rep_f = div_classifier(b_float, spec)
                assert rep_e.div_eta == rep_f.div_eta, (k, b_float)

    def test_witness_regenerates_prefix(self):
        k = 6
        rho = 0.3 - 0.2j
        b = np.array([1.5 * rho ** j for j in range(k - 1)])
        rep = div_classifier(b, spec_k(k))
        assert rep.witness != "zero-h"
        again = series_of_rational(rep.witness, k - 1)
        assert np.allclose(again, b, atol=1e-10)


class TestBerlekampMasseyProfile:
    @settings(max_examples=200)
    @given(b=gaussian_rational_vectors())
    def test_exact_matches_hankel_eliminations(self, b):
        k = len(b) + 1
        orders = [hankel_matching_order(b, s) for s in range(k)]
        scores = [j - s for s, j in enumerate(orders)]
        s = scores.index(max(scores))
        rep = div_classifier(b, spec_k(k, deg_L1=1), exact=True)
        assert (rep.div_eta, rep.j_star, rep.s_minus) == (1 + scores[s], orders[s], s)
        assert [max_matching_order(b, s2, exact=True) for s2 in range(k)] == orders
        # the witness has at most s poles and reproduces the matched prefix
        matched = b[: rep.j_star - 1]
        if rep.witness == "zero-h":
            assert not any(matched)
        else:
            assert rep.witness.s_minus <= s
            assert series_of_rational(rep.witness, rep.j_star - 1) == matched

    @settings(max_examples=200)
    @given(b=gaussian_rational_vectors())
    def test_matches_field_profile(self, b):
        # the Gaussian-integer profile and the field one agree in lengths, in
        # every monic connection polynomial and in the report, exact and float
        spec = spec_k(len(b) + 1, deg_L1=1)
        for exact, coords in ((True, b), (False, [complex(x) for x in b])):
            lengths, polys = strata._profile(*strata._coords(coords, exact))
            ref_lengths, ref_polys = field_profile(*field_coords(coords, exact))
            assert lengths == ref_lengths
            for c, ref in zip(polys, ref_polys, strict=True):
                if exact:
                    assert [to_qqi(x, c[0].real) for x in c] == [QQi.of(x) for x in ref]
                else:
                    assert c == ref
            assert div_classifier(coords, spec, exact=exact) == div_classifier_field(coords, spec, exact=exact)

    def test_integer_profile_stays_small(self):
        # the content division keeps each polynomial the smallest integer
        # multiple of its monic form; without it the update's factors compound
        rng = np.random.default_rng(32)
        k = 32
        units = [QQi(Fraction(1)), QQi(Fraction(-1)), QQi(Fraction(0), Fraction(1)), QQi(Fraction(0), Fraction(-1))]
        sparse = [units[i] if i < 4 else QQI_ZERO for i in rng.integers(0, 7, size=k - 1)]
        for j in rng.choice(k - 1, size=4, replace=False):
            sparse[j] = QQi(rand_fraction(rng), rand_fraction(rng))
        prefix = series_of_rational(random_exact_candidate(rng, k // 2, k), k - 1)
        for b in (sparse, prefix):
            lengths, polys = strata._profile(*strata._coords(b, True))
            assert lengths == field_profile(*field_coords(b, True))[0]
            bits = max(abs(part).bit_length() for c in polys for x in c for part in (x.real, x.imag))
            assert bits < 4096, bits

    def test_float_never_confidently_wrong(self):
        # acceptance 04's construction at the lengths where the float path is
        # most fragile: a report with margin > 10*DEFAULT_TOL must agree with exact
        rng = np.random.default_rng(2015)
        wrong = []
        for k in (10, 11, 12):
            spec = spec_k(k)
            for _ in range(100):
                s = int(rng.integers(1, k // 2 + 1))
                b = series_of_rational(random_exact_candidate(rng, s, k), k - 1)
                exact = div_classifier(b, spec, exact=True)
                flt = div_classifier([complex(x) for x in b], spec)
                if flt.margin > 10 * DEFAULT_TOL and flt.div_eta != exact.div_eta:
                    wrong.append((k, s, flt.div_eta, exact.div_eta, flt.margin))
        assert not wrong

    def test_flat_dual_stratum_survives_normwise_noise(self):
        # discrepancies are judged against DEFAULT_TOL*||b||, so noise at 1e-10*||b||
        # must not move the flat duals of z^a off their stratum
        rng = np.random.default_rng(31)
        for k in range(3, 9):
            spec = spec_k(k)
            for a in range(k - 1):
                coeffs = np.zeros(k - 1, dtype=complex)
                coeffs[a] = 1.0
                b = dual_map_H0(HoloClass(spec, coeffs)).b
                clean = div_classifier(b, spec).stratum_m
                for _ in range(5):
                    noise = rng.normal(size=k - 1) + 1j * rng.normal(size=k - 1)
                    noisy = b + 1e-10 * np.linalg.norm(b) * noise / np.linalg.norm(noise)
                    assert div_classifier(noisy, spec).stratum_m == clean, (k, a)

    def test_exact_flat_dual_stratum(self):
        # a Gaussian-integer class has the exact flat dual conj(a_{j-1}) / C(k-2, j-1)
        # up to the factor 2*pi/(k-1), which the projective classifier ignores
        rng = np.random.default_rng(32)
        for k in range(3, 11):
            spec, d = spec_k(k), k - 2
            classes = [np.eye(k - 1, dtype=int)[a] for a in range(k - 1)]  # monomials z^a
            for a in range(1, (d + 1) // 2):  # balanced: z^a (z^n - c), 2a + n = k - 2
                for c in (1, 2 - 1j):
                    g = np.zeros(k - 1, dtype=complex)
                    g[a], g[d - a] = -c, 1
                    classes.append(g)
            for p in range(1, d):  # (z - 1)^p and a pole of order k - 2 - p
                classes.append(np.pad([comb(p, i) * (-1) ** (p - i) for i in range(p + 1)], (0, d - p)))
            random = rng.integers(-3, 4, size=(10, k - 1)) + 1j * rng.integers(-3, 4, size=(10, k - 1))
            classes += [g for g in random if g.any()]
            for g in classes:
                g = np.asarray(g, dtype=complex)
                exact = [QQi(Fraction(int(x.real), comb(d, j)), Fraction(-int(x.imag), comb(d, j))) for j, x in enumerate(g)]
                m = div_classifier(exact, spec, exact=True).stratum_m
                assert m == div_classifier(dual_map_H0(HoloClass(spec, g)).b, spec).stratum_m, (k, g)


def float_classifier_inputs(seed):
    """(complex b, exact b or None) for k = 3..12: random vectors, geometric (bottom-stratum) vectors, those
    at 1e-13 relative noise, whose Hankel blocks lstsq's rank rule truncates, and acceptance 04's prefixes
    of a random_exact_candidate, the last with their exact form."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(3, 13):
        for _ in range(4):
            b = rng.normal(size=k - 1) + 1j * rng.normal(size=k - 1)
            geometric = b[0] * (rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())) ** np.arange(k - 1)
            noisy = geometric + 1e-13 * np.linalg.norm(geometric) * (rng.normal(size=k - 1) + 1j * rng.normal(size=k - 1))
            prefix = series_of_rational(random_exact_candidate(rng, int(rng.integers(1, k // 2 + 1)), k), k - 1)
            out += [(b, None), (geometric, None), (noisy, None), (np.array([complex(x) for x in prefix]), prefix)]
    return out


_complex_entries = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)


class TestClassifierFastPaths:
    """The margin, j*(s) and the exact scaling against their plain definitions, bitwise."""

    @staticmethod
    def assert_margins_bitwise(b):
        coords = strata._coords(b, False)[0]
        for score in range(1, len(coords) + 2):  # score = len(b) + 1: no system certifies it
            assert strata._margin(coords, score) == margin_lstsq(coords, score), score
        assert strata._margin(coords, len(coords) + 1) == math.inf

    @staticmethod
    def assert_orders_scan(b, exact):
        lengths, _ = strata._profile(*strata._coords(b, exact))
        assert strata._matching_orders(lengths) == matching_orders_scan(lengths)  # s = 0..k-1

    def test_margin_and_orders_on_classifier_inputs(self):
        for b, exact_b in float_classifier_inputs(34):
            self.assert_margins_bitwise(b)
            self.assert_orders_scan(b, False)
            if exact_b is not None:
                self.assert_orders_scan(exact_b, True)

    @settings(max_examples=200)
    @given(b=st.one_of(
        gaussian_rational_vectors().map(lambda b: [complex(x) for x in b]),
        st.lists(_complex_entries, min_size=2, max_size=11),
    ))
    def test_margin_and_orders_property(self, b):
        # small rational entries make rank-deficient Hankel blocks, where lstsq's rank rule decides
        assume(any(b))
        self.assert_margins_bitwise(b)
        self.assert_orders_scan(b, False)

    def test_orders_scan_on_every_length_profile(self):
        # every nondecreasing profile of 0 <= L(t) <= t up to k = 8, the last budget s = k - 1 included
        def profiles(k):
            if k == 1:
                yield [0]
                return
            for head in profiles(k - 1):
                for top in range(head[-1], k):
                    yield head + [top]

        for k in range(1, 9):
            for lengths in profiles(k):
                assert strata._matching_orders(lengths) == matching_orders_scan(lengths), lengths

    def test_exact_coords_match_fraction_products(self):
        rng = np.random.default_rng(35)
        fixed = [(Fraction(-3, 4), 2), (0, Fraction(5, 6)), QQi(Fraction(-7, 9), Fraction(1, 12)), 0.375 - 2.5j,
                 (0, 0), 3, Fraction(-1, 7), 0j, (Fraction(0), Fraction(-10, 4)), -2.0]
        kinds = (lambda: (rand_fraction(rng), rand_fraction(rng)), lambda: (int(rng.integers(-5, 6)), 0),
                 lambda: rand_qqi(rng), lambda: complex(rand_fraction(rng) / 8, -rand_fraction(rng) / 16),
                 lambda: rand_fraction(rng))
        vectors = [fixed]
        for _ in range(30):
            vectors.append([kinds[int(i)]() for i in rng.integers(0, len(kinds), size=int(rng.integers(2, 12)))])
        for b in vectors:
            ints, den = strata._coords(b, True)[:2]
            parts = [(x.real, x.imag) for x in ints]
            assert (parts, den) == coords_fraction_product(b), b
            assert all(type(part) is int for pair in parts for part in pair)


class TestQQi:
    @pytest.mark.parametrize("bad", [(), (1,), (1, 2, 3)])
    def test_pair_has_two_parts(self, bad):
        with pytest.raises(ValueError, match="has 2 parts"):
            QQi.of(bad)

    def test_malformed_vector_is_not_classified(self):
        # a triple used to read as its first two parts, and so classified a vector nobody wrote
        with pytest.raises(ValueError, match="has 2 parts"):
            div_classifier([(1, 2, 3), (1, 0), (0, 1)], spec_k(4), exact=True)

    def test_parts_and_repr(self):
        # witness reprs are hashed by the benchmark fingerprint, so their form is fixed
        half = Fraction(-1, 2)
        assert QQi.of((half, 3)) == QQi(half, Fraction(3))
        assert repr(QQi.of((half, 3))) == "-1/2+3i" and repr(QQi.of(2)) == "2" and repr(QQi.of(0.5j)) == "0+1/2i"
        assert QQi.of(half).re is half  # a Fraction part is kept, not rebuilt


class TestAlphaStable:
    def test_spec_triples(self):
        spec = spec_k(4)  # deg_L1=0, deg_L2=4
        assert alpha_stable(spec, 3, -1.0) is False
        assert alpha_stable(spec, 3, -3.0) is True
        assert alpha_stable(spec, 2, -0.5) is True

    def test_agrees_with_slope_form(self):
        # the restated chain and the direct slope inequality must coincide
        for d1, d2 in [(0, 4), (1, 5), (-2, 3)]:
            spec = BundleSpec(d1, d2)
            for div in range(d1, d2):
                for alpha in np.linspace(-6, 2, 33):
                    assert alpha_stable(spec, div, float(alpha)) == alpha_stable_slope_form(
                        spec, div, float(alpha)
                    ), (d1, d2, div, alpha)


class TestExistenceRange:
    def test_geometric_gives_4pi(self):
        k = 5
        rho = 0.4
        b = np.array([rho ** j for j in range(k - 1)])
        r = existence_range(b, spec_k(k))
        assert r.m == 1 and r.hi == pytest.approx(4 * np.pi)
        assert 2.0 in r and 14.0 not in r

    def test_top_budget_witness(self):
        rng = np.random.default_rng(30)
        k = 6
        s = k // 2
        cand = random_exact_candidate(rng, s, k)
        b = series_of_rational(cand, k - 1)
        r = existence_range(b, spec_k(k), exact=True)
        assert r.m == s and r.hi == pytest.approx(4 * np.pi * s)

    def test_k2_always_4pi(self):
        r = existence_range(np.array([0.3 + 1j]), spec_k(2))
        assert r.m == 1 and r.hi == pytest.approx(4 * np.pi)
        assert r.no_solution_band == (pytest.approx(4 * np.pi), pytest.approx(4 * np.pi))
