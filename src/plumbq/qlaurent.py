"""Exact arithmetic for series in q with rational exponents.

A QSeries is a finite collection of (exponent, coefficient) pairs with
arbitrary-precision rational coefficients.  Exponents are rationals whose
denominator must divide a per-series limit D, which is fixed when the series
is built; trying to insert a finer exponent raises, which catches formula
bugs early.  Terms are stored as exponent numerators over D with coefficients
that are ints whenever integral, so integral series run on Python ints.
Truncation is an exclusive exponent bound: terms at or above it are
dropped.  Sums keep the minimum of the operand bounds; a product keeps the
bound below which it is known, which a negative exponent in either factor
can lower (see qs_mul).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Union

import mpmath as mp

Exponent = Union[Fraction, int]

__all__ = [
    "Exponent",
    "QSeries",
    "qs_add",
    "qs_mul",
    "qs_neg",
    "qs_scale",
    "qs_shift",
    "qs_inverse",
    "qs_pochhammer",
    "qs_qbinomial",
    "qs_flip",
    "qs_eval",
    "SERIES_FORMAT",
    "qs_to_json",
    "qs_from_json",
]


def _num(x):
    """x as an int when it is integral, else as a Fraction; None stays."""
    if x is None or type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _min_trunc(a, b):
    return min((t for t in (a, b) if t is not None), default=None)


def _bound(trunc, denom: int) -> int | None:
    """Exclusive bound on exponent numerators over denom for trunc."""
    if trunc is None:
        return None
    return -(-trunc.numerator * denom // trunc.denominator)


def _make(acc: dict, denom: int, trunc) -> "QSeries":
    """Series from {numerator: coefficient}, dropping zero coefficients and
    terms at or past trunc."""
    tn = _bound(trunc, denom)
    return QSeries(tuple(
        (n, c if type(c) is int else _num(c)) for n, c in sorted(acc.items())
        if c and (tn is None or n < tn)
    ), denom, trunc)


def _common(a: "QSeries", b: "QSeries") -> tuple[int, tuple, tuple]:
    """The merged denominator limit and both term lists over it."""
    if a.denom != b.denom:
        denom = math.lcm(a.denom, b.denom)
        a, b = a.with_denom(denom), b.with_denom(denom)
    return a.denom, a._items, b._items


@dataclass(frozen=True)
class QSeries:
    """Immutable exact series in q.

    terms holds (exponent, coefficient) pairs sorted by exponent with no
    zero coefficients, each value an int when integral, else a Fraction.
    trunc, when set, is an exclusive upper bound on stored exponents.
    denom is the exponent-denominator limit D.  The stored _items are the
    pairs (exponent * D, coefficient); build series with from_terms.
    """

    _items: tuple[tuple[int, object], ...]
    denom: int = 1
    trunc: Exponent | None = None

    @cached_property
    def terms(self) -> tuple[tuple[Exponent, Exponent], ...]:
        d = self.denom
        return self._items if d == 1 else tuple(
            (n // d if n % d == 0 else Fraction(n, d), c)
            for n, c in self._items)

    @staticmethod
    def from_terms(
        terms: Mapping[Exponent, object] | Iterable[tuple[Exponent, object]],
        denom: int = 1,
        trunc: Exponent | None = None,
    ) -> "QSeries":
        if isinstance(terms, Mapping):
            terms = terms.items()
        acc: dict[int, object] = {}
        for e, c in terms:
            n = e * denom if type(e) is int else _num(Fraction(e) * denom)
            if type(n) is not int:
                raise ValueError(f"exponent {e} has a denominator that does "
                                 f"not divide the series limit {denom}")
            acc[n] = acc.get(n, 0) + _num(c)
        return _make(acc, denom, _num(trunc))

    @staticmethod
    def zero(denom: int = 1, trunc: Exponent | None = None) -> "QSeries":
        return QSeries.from_terms({}, denom, trunc)

    @staticmethod
    def one(denom: int = 1, trunc: Exponent | None = None) -> "QSeries":
        return QSeries.from_terms({0: 1}, denom, trunc)

    @staticmethod
    def monomial(
        exponent: Exponent,
        coeff: object = 1,
        denom: int | None = None,
        trunc: Exponent | None = None,
    ) -> "QSeries":
        e = Fraction(exponent)
        d = e.denominator if denom is None else denom
        return QSeries.from_terms({e: coeff}, d, trunc)

    def coeff(self, exponent: Exponent) -> Exponent:
        e = Fraction(exponent) * self.denom
        if e.denominator == 1:
            for n, c in self._items:
                if n == e:
                    return c
        return 0

    def is_zero(self) -> bool:
        return not self._items

    def min_exponent(self) -> Exponent:
        if not self._items:
            raise ValueError("zero series has no minimal exponent")
        return self.terms[0][0]

    def with_trunc(self, trunc: Exponent | None) -> "QSeries":
        return _make(dict(self._items), self.denom, _num(trunc))

    def with_denom(self, denom: int) -> "QSeries":
        return QSeries.from_terms(self.terms, denom, self.trunc)

    def __add__(self, other: "QSeries") -> "QSeries":
        return qs_add(self, other)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return qs_add(self, qs_neg(other))

    def __mul__(self, other: "QSeries") -> "QSeries":
        return qs_mul(self, other)

    def __neg__(self) -> "QSeries":
        return qs_neg(self)

    def __str__(self) -> str:
        if not self._items:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"q^({e})")
            else:
                parts.append(f"{c}*q^({e})")
        return " + ".join(parts).replace("+ -", "- ")


def qs_add(a: QSeries, b: QSeries) -> QSeries:
    """Termwise sum; denominator limits are merged via lcm."""
    denom, ai, bi = _common(a, b)
    acc = dict(ai)
    for n, c in bi:
        acc[n] = acc.get(n, 0) + c
    return _make(acc, denom, _min_trunc(a.trunc, b.trunc))


def qs_neg(a: QSeries) -> QSeries:
    return QSeries(tuple((n, -c) for n, c in a._items), a.denom, a.trunc)


def qs_scale(a: QSeries, factor: object) -> QSeries:
    f = _num(factor)
    return _make({n: c * f for n, c in a._items}, a.denom, a.trunc)


def qs_shift(a: QSeries, offset: Exponent) -> QSeries:
    """Multiply by the monomial q^offset."""
    off = _num(offset)
    denom = math.lcm(a.denom, off.denominator)
    k, on = denom // a.denom, _num(off * denom)
    trunc = None if a.trunc is None else _num(a.trunc + off)
    return QSeries(tuple((n * k + on, c) for n, c in a._items), denom, trunc)


def qs_mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product, pruned against the bound below which it is known.

    With t the truncation bound (infinite for an exact series) and l the
    lowest stored exponent (t when nothing is stored), that bound is
    min(ta, tb, ta + lb, tb + la): a negative lowest exponent in one factor
    lowers the other's bound, and with none it is min(ta, tb)."""
    denom, ai, bi = _common(a, b)
    trunc = _min_trunc(a.trunc, b.trunc)
    for t, other in ((a.trunc, b), (b.trunc, a)):
        if t is not None:
            low = other.terms[0][0] if other._items else other.trunc
            if low is not None:
                trunc = min(trunc, _num(t + low))
    tn = _bound(trunc, denom)
    acc: dict[int, object] = {}
    get = acc.get
    for ea, ca in ai:
        for eb, cb in bi:
            e = ea + eb
            if tn is not None and e >= tn:
                break
            acc[e] = get(e, 0) + ca * cb
    return _make(acc, denom, trunc)


def qs_inverse(a: QSeries, trunc: Exponent | None = None) -> QSeries:
    """1/a below the smaller of trunc and a.trunc; a must start with a
    nonzero constant term."""
    trunc = _min_trunc(a.trunc, _num(trunc))
    if trunc is None:
        raise ValueError("inverse needs a truncation bound")
    if not a._items or a._items[0][0] != 0:
        raise ValueError("inverse needs a unit constant term")
    # b_0 = 1/a_0 and b_m = -b_0 * sum_{k >= 1} a_k b_{m-k}, m over D
    b = [_num(Fraction(1) / a._items[0][1])]
    for m in range(1, _bound(trunc, a.denom)):
        b.append(-b[0] * sum(c * b[m - k] for k, c in a._items[1:] if k <= m))
    return _make(dict(enumerate(b)), a.denom, trunc)


def qs_pochhammer(
    base_exp: Exponent, step_exp: Exponent, n: int, trunc: Exponent | None = None
) -> QSeries:
    """Finite product prod_{i=0}^{n-1} (1 - q^{base + i*step})."""
    if n < 0:
        raise ValueError("Pochhammer length must be nonnegative")
    base = Fraction(base_exp)
    step = Fraction(step_exp)
    denom = math.lcm(base.denominator, step.denominator)
    trunc = _num(trunc)
    out = _make({0: 1}, denom, trunc)
    for i in range(n):
        e = (base + i * step) * denom
        out = qs_mul(out, _make({0: 1, e.numerator: -1}, denom, trunc))
    return out


def qs_qbinomial(r: int, k: int, base: Exponent = 1) -> QSeries:
    """Gaussian binomial coefficient, a polynomial in q^base.

    Uses the Pascal-type recurrence so no polynomial division is needed;
    the base selects the q vs q^2 convention.
    """
    if not 0 <= k <= r:
        raise ValueError(f"need 0 <= k <= r, got r={r}, k={k}")
    b = _num(base)
    one = _make({0: 1}, Fraction(b).denominator, None)
    # row[j] holds the coefficient polynomial at column j
    row = [one]
    for i in range(1, r + 1):
        row = [one] + [qs_add(row[j - 1], qs_shift(row[j], b * j))
                       for j in range(1, i)] + [one]
    return row[k]


def qs_flip(s: QSeries, offset: Exponent = 0) -> QSeries:
    """Apply q -> -q to the part of s past a monomial prefactor.

    Writing s = q^offset * sum a_n q^n with integer n, returns
    q^offset * sum a_n (-q)^n.  Non-integer residual exponents raise.
    """
    off = Fraction(offset)
    acc = {}
    for e, c in s.terms:
        res = e - off
        if res.denominator != 1:
            raise ValueError(
                f"exponent {e} minus offset {off} is not an integer"
            )
        acc[e] = c if res.numerator % 2 == 0 else -c
    return QSeries.from_terms(acc, s.denom, s.trunc)


def qs_eval(s: QSeries, z):
    """Partial sum of s at q = z in mpmath at the working precision, with
    rational powers on the principal branch.  At z = 0 only the constant
    term counts, and a negative power raises ZeroDivisionError."""
    if z == 0:
        if s.terms and s.terms[0][0] < 0:
            raise ZeroDivisionError("negative power of q at q=0")
        return mp.fsum(mp.mpf(c.numerator) / c.denominator
                       for e, c in s.terms if e == 0)
    logq = mp.log(z)
    return mp.fsum(
        mp.mpf(c.numerator) / c.denominator
        * mp.exp((mp.mpf(e.numerator) / e.denominator) * logq)
        for e, c in s.terms
    )


# names the layout qs_to_json writes; change it whenever that layout changes
SERIES_FORMAT = "qseries/1"


def qs_to_json(s: QSeries) -> dict:
    return {
        "denom": s.denom,
        "trunc": None if s.trunc is None else str(s.trunc),
        "terms": [[str(e), str(c)] for e, c in s.terms],
    }


def qs_from_json(obj: dict) -> QSeries:
    return QSeries.from_terms(obj["terms"], int(obj["denom"]), obj.get("trunc"))
