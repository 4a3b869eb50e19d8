import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumbq.qlaurent import (
    QSeries,
    qs_add,
    qs_eval,
    qs_flip,
    qs_from_json,
    qs_inverse,
    qs_mul,
    qs_neg,
    qs_pochhammer,
    qs_qbinomial,
    qs_scale,
    qs_shift,
    qs_to_json,
)


def poly(d, **kw):
    return QSeries.from_terms(d, **kw)


small_series = st.dictionaries(
    st.integers(min_value=-8, max_value=12),
    st.integers(min_value=-5, max_value=5),
    max_size=6,
).map(lambda d: poly(d))


class TestBasics:
    def test_zero_one(self):
        assert QSeries.zero().is_zero()
        assert QSeries.one().coeff(0) == 1
        assert str(QSeries.zero()) == "0"

    def test_zero_coefficients_dropped(self):
        s = poly({2: 0, 3: 1})
        assert len(s.terms) == 1

    def test_trunc_is_exclusive(self):
        s = poly({4: 1, 5: 1}, trunc=5)
        assert s.coeff(4) == 1 and s.coeff(5) == 0

    def test_monomial_fractional(self):
        s = QSeries.monomial(Fraction(-3, 2))
        assert s.denom == 2
        assert s.min_exponent() == Fraction(-3, 2)

    def test_min_exponent_of_zero_raises(self):
        with pytest.raises(ValueError):
            QSeries.zero().min_exponent()

    def test_denom_enforced(self):
        with pytest.raises(ValueError):
            poly({Fraction(1, 3): 1}, denom=2)


class TestArithmetic:
    @given(small_series, small_series)
    def test_add_commutes(self, a, b):
        assert qs_add(a, b).terms == qs_add(b, a).terms

    @given(small_series, small_series)
    @settings(max_examples=40)
    def test_mul_commutes(self, a, b):
        assert qs_mul(a, b).terms == qs_mul(b, a).terms

    @given(small_series)
    def test_additive_inverse(self, a):
        assert qs_add(a, qs_neg(a)).is_zero()

    @given(small_series, small_series, small_series)
    @settings(max_examples=25)
    def test_distributive(self, a, b, c):
        lhs = qs_mul(a, qs_add(b, c))
        rhs = qs_add(qs_mul(a, b), qs_mul(a, c))
        assert lhs.terms == rhs.terms

    @given(small_series, st.integers(min_value=-6, max_value=6))
    def test_shift_matches_monomial_mul(self, a, k):
        assert qs_shift(a, k).terms == qs_mul(a, QSeries.monomial(k)).terms

    def test_scale(self):
        s = qs_scale(poly({1: 2}), Fraction(1, 2))
        assert s.coeff(1) == 1

    def test_mul_respects_truncation(self):
        a = poly({0: 1, 1: 1}, trunc=3)
        b = poly({2: 1})
        assert qs_mul(a, b).coeff(3) == 0

    def test_mul_bound_with_negative_exponents(self):
        # (q^-2 + O(q^3))^2 is q^-4 + O(q^1), not known up to q^3
        x = poly({-2: 1}, trunc=3)
        sq = qs_mul(x, x)
        assert sq.terms == ((-4, 1),) and sq.trunc == 1
        # an exact factor shifts the bound by its lowest exponent
        assert qs_mul(x, poly({-1: 1, 4: 2})).trunc == 2
        assert qs_mul(poly({}, trunc=4), poly({-3: 1})).trunc == 1


class TestPochhammerBinomial:
    def test_pochhammer_empty(self):
        assert qs_pochhammer(1, 1, 0).coeff(0) == 1

    def test_pochhammer_expansion(self):
        # (1-q)(1-q^2) = 1 - q - q^2 + q^3
        s = qs_pochhammer(1, 1, 2)
        assert s.terms == poly({0: 1, 1: -1, 2: -1, 3: 1}).terms

    def test_qbinomial_row_sum_at_one(self):
        r = 5
        total = sum(
            qs_eval(qs_qbinomial(r, k), 1.0).real for k in range(r + 1)
        )
        assert total == pytest.approx(2.0 ** r)

    def test_qbinomial_symmetry(self):
        assert qs_qbinomial(6, 2).terms == qs_qbinomial(6, 4).terms

    def test_qbinomial_base_two_is_squared_exponents(self):
        a = qs_qbinomial(4, 2, base=1)
        b = qs_qbinomial(4, 2, base=2)
        assert {2 * e: c for e, c in a.terms} == dict(b.terms)

    def test_qbinomial_times_pochhammers(self):
        # [r k] (q;q)_k (q;q)_{r-k} == (q;q)_r
        r, k = 5, 2
        lhs = qs_mul(
            qs_mul(qs_qbinomial(r, k), qs_pochhammer(1, 1, k)),
            qs_pochhammer(1, 1, r - k),
        )
        assert lhs.terms == qs_pochhammer(1, 1, r).terms


class TestFlip:
    def test_flip_negates_odd_powers(self):
        s = qs_flip(poly({0: 1, 1: 1, 2: 1}))
        assert (s - poly({0: 1, 1: -1, 2: 1})).is_zero()

    def test_flip_with_offset(self):
        s = QSeries.from_terms({Fraction(1, 2): 1, Fraction(3, 2): 1}, denom=2)
        out = qs_flip(s, Fraction(1, 2))
        assert out.coeff(Fraction(1, 2)) == 1
        assert out.coeff(Fraction(3, 2)) == -1

    def test_flip_rejects_fractional_residue(self):
        with pytest.raises(ValueError):
            qs_flip(QSeries.monomial(Fraction(1, 2)))

    @given(small_series)
    def test_flip_involution(self, a):
        assert qs_flip(qs_flip(a)).terms == a.terms


class TestSerialization:
    @given(small_series)
    def test_json_roundtrip(self, a):
        assert qs_from_json(qs_to_json(a)).terms == a.terms

    def test_json_is_plain_data(self):
        s = poly({Fraction(-3, 2): Fraction(1, 3)}, denom=2, trunc=10)
        json.dumps(qs_to_json(s))

    def test_eval_partial(self):
        s = poly({0: 1, 1: 1})
        assert qs_eval(s, 0.5) == pytest.approx(1.5)

    def test_eval_at_zero_keeps_the_constant_term(self):
        assert qs_eval(poly({0: 3, Fraction(1, 2): 5}, denom=2), 0) == 3
        with pytest.raises(ZeroDivisionError):
            qs_eval(poly({-1: 1, 0: 1}), 0)


# ---------------------------------------------------------------------------
# the integer core against a plain-Fraction reference


class Ref:
    """Reference series: {Fraction exponent: Fraction coefficient} with an
    exclusive Fraction bound, every operation written out directly."""

    def __init__(self, terms, trunc=None):
        self.trunc = None if trunc is None else Fraction(trunc)
        self.terms = {
            Fraction(e): Fraction(c) for e, c in terms.items()
            if c and (self.trunc is None or Fraction(e) < self.trunc)}

    @staticmethod
    def of(s):
        return Ref(dict(s.terms), s.trunc)

    def bound(self, other):
        ts = [t for t in (self.trunc, other.trunc) if t is not None]
        return min(ts) if ts else None

    def add(self, other):
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, 0) + c
        return Ref(acc, self.bound(other))

    def low(self):
        return min(self.terms, default=self.trunc)

    def mul(self, other):
        # known below min(ta, tb, ta + lb, tb + la), an exact factor having
        # an infinite bound
        acc = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                acc[ea + eb] = acc.get(ea + eb, 0) + ca * cb
        ts = [t for t in (self.trunc, other.trunc) if t is not None]
        for t, low in ((self.trunc, other.low()), (other.trunc, self.low())):
            if t is not None and low is not None:
                ts.append(t + low)
        return Ref(acc, min(ts) if ts else None)

    def shift(self, off):
        return Ref({e + off: c for e, c in self.terms.items()},
                   None if self.trunc is None else self.trunc + off)

    def inverse(self):
        # geometric series 1/a = (1/c0) sum_k (1 - a/c0)^k
        c0 = self.terms[Fraction(0)]
        x = Ref({e: -c / c0 for e, c in self.terms.items() if e}, self.trunc)
        acc, step = Ref({0: 1}, self.trunc), x
        while step.terms:
            acc, step = acc.add(step), step.mul(x)
        return Ref({e: c / c0 for e, c in acc.terms.items()}, self.trunc)

    def check(self, s):
        assert {Fraction(e): Fraction(c) for e, c in s.terms} == self.terms
        assert s.trunc == self.trunc
        exps = [e for e, _ in s.terms]
        assert exps == sorted(exps)


coefficients = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))
truncs = st.one_of(
    st.none(),
    st.builds(Fraction, st.integers(-8, 14), st.sampled_from([1, 2, 3, 5])))


@st.composite
def mixed_series(draw):
    denom = draw(st.sampled_from([1, 2, 3, 6]))
    terms = draw(st.dictionaries(
        st.integers(-12, 12).map(lambda n: Fraction(n, denom)),
        coefficients, max_size=6))
    return QSeries.from_terms(terms, denom, draw(truncs))


@st.composite
def unit_series(draw):
    denom = draw(st.sampled_from([1, 2, 3]))
    terms = draw(st.dictionaries(
        st.integers(1, 12).map(lambda n: Fraction(n, denom)),
        coefficients, max_size=5))
    terms[0] = draw(st.one_of(st.sampled_from([1, -1]),
                              coefficients.filter(bool)))
    trunc = draw(st.builds(Fraction, st.integers(1, 16),
                           st.sampled_from([1, 2, 5])))
    return QSeries.from_terms(terms, denom, trunc)


def all_int(s):
    return all(type(e) is int and type(c) is int for e, c in s.terms)


class TestIntegerCore:
    @given(mixed_series(), mixed_series())
    @settings(max_examples=150)
    def test_mul_matches_reference(self, a, b):
        Ref.of(a).mul(Ref.of(b)).check(qs_mul(a, b))

    @given(mixed_series(), mixed_series())
    @settings(max_examples=150)
    def test_add_matches_reference(self, a, b):
        Ref.of(a).add(Ref.of(b)).check(qs_add(a, b))

    @given(mixed_series(),
           st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 4])))
    def test_shift_moves_terms_and_trunc(self, a, off):
        Ref.of(a).shift(off).check(qs_shift(a, off))

    @given(st.builds(Fraction, st.integers(0, 4), st.sampled_from([1, 2])),
           st.builds(Fraction, st.integers(1, 3), st.sampled_from([1, 3])),
           st.integers(0, 4), truncs)
    @settings(max_examples=60)
    def test_pochhammer_matches_reference(self, base, step, n, trunc):
        ref = Ref({0: 1}, trunc)
        for i in range(n):
            ref = ref.mul(Ref({0: 1, base + i * step: -1}, trunc))
        ref.check(qs_pochhammer(base, step, n, trunc))

    @given(unit_series())
    @settings(max_examples=80)
    def test_inverse_matches_reference(self, a):
        inv = qs_inverse(a)
        Ref.of(a).inverse().check(inv)
        assert qs_mul(a, inv).terms == ((0, 1),)

    def test_inverse_rejects_non_units(self):
        with pytest.raises(ValueError):
            qs_inverse(poly({1: 1}, trunc=5))
        with pytest.raises(ValueError):
            qs_inverse(poly({0: 1, 1: 1}))

    @given(st.dictionaries(st.integers(-8, 12), st.integers(-5, 5),
                           max_size=6),
           st.dictionaries(st.integers(-8, 12), st.integers(-5, 5),
                           max_size=6),
           st.one_of(st.none(), st.integers(-4, 16)))
    def test_integral_operands_stay_int(self, da, db, trunc):
        a, b = poly(da, trunc=trunc), poly(db)
        for s in (qs_mul(a, b), qs_add(a, b), qs_shift(a, 3), qs_neg(a),
                  qs_scale(a, Fraction(4, 2)), qs_pochhammer(1, 2, 3, trunc),
                  qs_inverse(qs_pochhammer(2, 2, 3, 20))):
            assert all_int(s)

    @given(mixed_series())
    def test_json_roundtrip_is_byte_identical(self, a):
        text = json.dumps(qs_to_json(a))
        again = json.dumps(qs_to_json(qs_from_json(json.loads(text))))
        assert again == text
