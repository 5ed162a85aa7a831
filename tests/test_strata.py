import numpy as np
import pytest
from fractions import Fraction
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
    div_classifier_field,
    field_coords,
    field_profile,
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
        if cand.s_minus == s and not cand.is_zero() and cand.in_generic_position():
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
                assert cand.in_generic_position()
                planted = _times_factor(cand, rand_qqi(rng, nonzero=True))
                assert planted.s_minus == s + 1
                assert not planted.in_generic_position()

    def test_float_planted_factor(self):
        rng = np.random.default_rng(42)
        for s in (1, 2, 3, 4, 5):
            for _ in range(5):
                y, v = ([0j] + list(rng.normal(size=s) + 1j * rng.normal(size=s)) for _ in range(2))
                cand = RationalCandidate(tuple(y), tuple(v))
                assert cand.in_generic_position()
                r = complex(rng.normal(), rng.normal())
                assert not _times_factor(cand, r).in_generic_position()

    def test_zero_numerator(self):
        # h = 0 has linear complexity 0: generic only when 1 - v is constant
        zero, half = QQi(Fraction(0)), QQi(Fraction(1, 2))
        assert RationalCandidate((zero,), (zero,)).in_generic_position()
        assert RationalCandidate((0j, 0j), (0j, 0j)).in_generic_position()
        assert not RationalCandidate((zero,), (zero, half)).in_generic_position()
        assert not RationalCandidate((0j,), (0j, 0.5 + 0j)).in_generic_position()


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
            lengths, polys = strata._profile(*strata._coords(coords, exact, DEFAULT_TOL))
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
            lengths, polys = strata._profile(*strata._coords(b, True, DEFAULT_TOL))
            assert lengths == field_profile(*field_coords(b, True))[0]
            bits = max(abs(part).bit_length() for c in polys for x in c for part in (x.real, x.imag))
            assert bits < 4096, bits

    def test_float_never_confidently_wrong(self):
        # acceptance 04's construction at the lengths where the float path is
        # most fragile: a report with margin > 10*tol must agree with exact
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

    def test_flat_dual_stratum_survives_normwise_noise(self, grid16):
        # discrepancies are judged against tol*||b||, so noise at 1e-10*||b||
        # must not move the flat duals of z^a off their stratum
        rng = np.random.default_rng(31)
        for k in range(3, 9):
            spec = spec_k(k)
            for a in range(k - 1):
                coeffs = np.zeros(k - 1, dtype=complex)
                coeffs[a] = 1.0
                b = dual_map_H0(HoloClass(spec, coeffs), grid16).b
                clean = div_classifier(b, spec).stratum_m
                for _ in range(5):
                    noise = rng.normal(size=k - 1) + 1j * rng.normal(size=k - 1)
                    noisy = b + 1e-10 * np.linalg.norm(b) * noise / np.linalg.norm(noise)
                    assert div_classifier(noisy, spec).stratum_m == clean, (k, a)


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
