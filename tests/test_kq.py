"""Double twist quivers, knot polynomial oracles, DT extraction."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from mpmath.libmp import mpf_shift, to_int
from hypothesis import given, settings
from hypothesis import strategies as st

from plumbq.kq import (
    Quiver,
    _deepen,
    _node_order,
    _grow_twist,
    _linear_data,
    builtin_generator_set,
    dt_invariants,
    generate_double_twist_quiver,
    mmr_leading_check,
    nested_sum_jones_83,
    quiver_from_json,
    quiver_jones,
    quiver_jones_numeric,
    quiver_to_json,
    closed_form_homfly,
    twist_knot_jones,
)
from plumbq.qlaurent import (
    QSeries,
    qs_inverse,
    qs_mul,
    qs_pochhammer,
    qs_qbinomial,
    qs_scale,
    qs_shift,
)

FIXTURE = Path(__file__).parent / "data" / "double_twist_matrices.json"
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def compositions(r, n):
    """Every d in N^n with d_1 + ... + d_n = r, from its n - 1 cut points."""
    for cut in itertools.combinations(range(r + n - 1), n - 1):
        yield tuple(b - a - 1 for a, b in
                    zip((-1,) + cut, cut + (r + n - 1,)))


def quadratic(C, d):
    support = [(i, di) for i, di in enumerate(d) if di]
    return sum(di * dj * C[i][j] for i, di in support for j, dj in support)


@pytest.fixture(scope="module")
def frozen():
    with open(FIXTURE) as fh:
        return json.load(fh)


class TestMatrixGeneration:
    @pytest.mark.parametrize(
        "name", ["4_1", "6_1", "8_1", "8_3", "k3m2", "k3m3"])
    def test_matches_frozen_matrix(self, frozen, name):
        entry = frozen[name]
        q = generate_double_twist_quiver(entry["p"], entry["m"])
        assert [list(r) for r in q.C] == entry["C"], name
        assert q.n == 4 * entry["p"] * entry["m"] + 1

    @pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (4, 3)])
    def test_diagonal_block_recursion(self, p, m):
        q = generate_double_twist_quiver(p, m)
        s = 2 * m

        def diag_block(t):
            rows = range(1 + s * t, 1 + s * (t + 1))
            return [[q.C[i][j] for j in rows] for i in rows]

        U1, Ut1 = diag_block(0), diag_block(1)
        for i in range(2, p + 1):
            assert diag_block(2 * i - 2) == _deepen(U1, i)
            assert diag_block(2 * i - 1) == _deepen(Ut1, i)

    def test_generator_sets_exist_only_for_stored_m(self):
        for m in (1, 2, 3):
            gs = builtin_generator_set(m)
            assert len(gs.U) == 2 * m
        with pytest.raises(ValueError):
            builtin_generator_set(4)

    def test_rejects_p_below_m(self):
        with pytest.raises(ValueError):
            generate_double_twist_quiver(2, 3)

    def test_m3_needs_stored_linear_data(self):
        with pytest.raises(ValueError):
            generate_double_twist_quiver(5, 3)

    @pytest.mark.parametrize("m,ps", [(1, range(2, 9)), (2, range(3, 9))])
    def test_growth_rule_matches_closed_forms(self, m, ps):
        for p in ps:
            assert _grow_twist(*_linear_data(p - 1, m), m) == _linear_data(p, m), p

    def test_growth_rule_gives_the_stored_m3_p4_data(self):
        # the p = 4 increment of the m = 3 data as it was stored, 1-based
        xi_tail = {38: 4, 39: 5, 40: 2, 41: 3, 43: 1, 44: 3, 45: 4, 46: 5,
                   47: 6, 48: 7, 49: 8}
        marks_tail = (39, 41, 43, 44, 46, 48)
        xi3, gamma3 = _linear_data(3, 3)
        xi4, gamma4 = _linear_data(4, 3)
        assert (xi4[:37], gamma4[:37]) == (xi3, gamma3)
        assert xi4[37:] == [xi_tail.get(i, 0) for i in range(38, 50)]
        assert gamma4[37:] == [int(i in marks_tail) for i in range(38, 50)]

    @pytest.mark.parametrize("p", [3, 4])
    @pytest.mark.parametrize("m", [1, 2])
    def test_smaller_m_nests_in_m3(self, p, m):
        # K(p,-m) is K(p,-3) on the border node, the first 2m nodes of each
        # even slot and the last 2m of each odd slot: this holds the stored
        # m = 3 linear data against the m = 1, 2 closed forms
        big = generate_double_twist_quiver(p, 3)
        small = generate_double_twist_quiver(p, m)
        nodes = [0] + [1 + 6 * t + k for t in range(2 * p) for k in (
            range(2 * m) if t % 2 == 0 else range(6 - 2 * m, 6))]
        assert [[big.C[a][b] for b in nodes] for a in nodes] == \
            [list(row) for row in small.C]
        assert [big.xi[a] for a in nodes] == list(small.xi)
        assert [big.gamma[a] % 2 for a in nodes] == \
            [g % 2 for g in small.gamma]

    def test_json_roundtrip(self):
        q = generate_double_twist_quiver(2, 2)
        q2 = quiver_from_json(quiver_to_json(q))
        assert q2 == q


class TestDualOracles:
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_83_nested_sum(self, r):
        q = generate_double_twist_quiver(2, 2)
        assert (quiver_jones(q, r) - nested_sum_jones_83(r)).is_zero()

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_twist_chain_sum(self, p):
        q = generate_double_twist_quiver(p, 1)
        for r in range(4):
            assert (quiver_jones(q, r) - twist_knot_jones(p, r)).is_zero()

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_figure_eight_closed_form(self, r):
        q = generate_double_twist_quiver(1, 1)
        oracle = closed_form_homfly("4_1", r, a_exp=2, q_sub=2)
        assert (quiver_jones(q, r) - oracle).is_zero()

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_figure_eight_palindromic(self, r):
        s = quiver_jones(generate_double_twist_quiver(1, 1), r)
        mirrored = {-e: c for e, c in s.terms}
        assert mirrored == dict(s.terms)

    def test_unknot_oracle_is_one(self):
        assert str(closed_form_homfly("0_1", 3)) == "1"


def assert_numeric_matches_exact(q, r):
    """quiver_jones_numeric at q = 7/8 and 5/4, both exact in binary, agrees
    with the exact series to 1e-45 at dps 60."""
    series = quiver_jones(q, r)
    for q0 in (Fraction(7, 8), Fraction(5, 4)):
        exact = sum(c * q0 ** e for e, c in series.terms)
        with mp.workdps(60):
            qv = mp.mpf(q0.numerator) / q0.denominator
            got = quiver_jones_numeric(q, r, qv, dps=60)
            want = mp.mpf(exact.numerator) / exact.denominator
            assert abs(got - want) <= mp.mpf(10) ** -45 * abs(want)


def reference_numeric(q, r, qval, dps):
    """The motivic sum at a numeric q from the multisets of the composition
    walk (brute_groups): sum over groups of (q^2; q^2)_r / prod (q^2;
    q^2)_{d_i} times the group's sum_e c_e q^e, each group's sum exact in
    integers from one table of round(q^e 2^P), then weighed in mpf with the
    Pochhammer factors.  Within 10^-dps max(1, |J|) of the exact value J:
    the integer stage adds at most 10^-dps / 8, and the mpf stage runs with
    enough guard bits for its roundings and the cancellation kappa of the
    factors 1 - q^{2k}."""
    with mp.workdps(dps):
        qv = mp.mpf(qval) if not isinstance(qval, mp.mpc) else qval
        groups = brute_groups(q, r)
        seen = set().union(*groups.values())
        e_lo, e_hi = min(seen), max(seen)
        g = math.gcd(*(e - e_lo for e in seen)) or 1
        lg = float(mp.log(abs(qv), 2))
        facs = [1 - (qv * qv) ** k for k in range(1, r + 1)]
        kappa = max([k * abs(1 - f) / abs(f) for k, f in enumerate(facs, 1)],
                    default=0)
        K = (len(groups) + (e_hi - e_lo) // g + 2 * q.n + 4
             + r * (8 + 6 * int(mp.ceil(kappa))))
        P = (math.ceil(dps * math.log2(10) + r * math.log2(q.n)
                       + r * r * max(lg, 0))
             + math.comb(r + q.n - 1, r).bit_length() + 5)
        top = math.ceil(max(e_lo * lg, e_hi * lg, 0))
        cplx = isinstance(qv, mp.mpc)
        with mp.workprec(P + top + K.bit_length() + 3):
            step, x = qv ** g, qv ** e_lo
            tables = [{}, {}] if cplx else [{}]
            for e in range(e_lo, e_hi + 1, g):
                if e in seen:
                    for table, y in zip(tables, (x.real, x.imag)):
                        table[e] = to_int(mpf_shift(y._mpf_, P), "n")
                x *= step
            poch = [mp.mpf(1)]
            for k in range(1, r + 1):
                poch.append(poch[-1] * (1 - (qv * qv) ** k))
            total = mp.mpf(0)
            for parts, signed in groups.items():
                s = [sum(c * table[e] for e, c in signed.items())
                     for table in tables]
                s = mp.mpc(*s) if cplx else mp.mpf(s[0])
                total += s * poch[r] / mp.fprod(poch[di] for di in parts)
            total *= mp.ldexp(1, -P)
        return +total


MMR_4_1 = [(20, 0.4 / 20, 0.019675025057366572),
           (30, 0.4 / 30, 0.013108900422698208),
           (40, 0.01, 0.0098268526363642),
           (80, 0.005, 0.004908627269125196)]
# the node permutations of 4_1 in the quivers benchmark at seeds 1 and 1001
BENCH_PERMS_4_1 = [(0, 3, 4, 2, 1), (1, 4, 3, 2, 0)]


def permuted(q, perm):
    """q with node i renamed perm[i]."""
    inv = [0] * q.n
    for i, p in enumerate(perm):
        inv[p] = i
    C = [[q.C[inv[a]][inv[b]] for b in range(q.n)] for a in range(q.n)]
    return Quiver.make(C, [q.xi[i] for i in inv], [q.gamma[i] for i in inv])


def terms_visited(q, r, order):
    """The (state, k) terms the numeric sum does with the nodes in order."""
    C = [[q.C[a][b] for b in order] for a in order]
    xi = [q.xi[a] for a in order]
    seen, todo, terms = set(), [(0, r, tuple(x - xi[0] for x in xi[1:]))], 0
    while todo:
        state = todo.pop()
        if state in seen:
            continue
        seen.add(state)
        i, rem, rest = state
        if rem and i < q.n - 1:
            for k in range(rem + 1):
                head = rest[0] + 2 * k * C[i][i + 1]
                todo.append((i + 1, rem - k, tuple(
                    x + 2 * k * c - head
                    for x, c in zip(rest[1:], C[i][i + 2:]))))
            terms += rem + 1
    return terms


def ordered_data(q):
    """C, xi and gamma in the node order _node_order picks."""
    order = _node_order(q)
    return (tuple(tuple(q.C[a][b] for b in order) for a in order),
            tuple(q.xi[a] for a in order), tuple(q.gamma[a] for a in order))


class TestSeriesStructure:
    def test_r0_is_one(self):
        for p, m in ((1, 1), (2, 2)):
            s = quiver_jones(generate_double_twist_quiver(p, m), 0)
            assert str(s) == "1"

    @given(st.integers(0, 2), st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_framing_covariance(self, r, f):
        """Adding f to every entry of C and to every gamma multiplies the
        series at colour r by (-q)^{f r^2}: r^2 and r have the same parity."""

        def framing_shift(q, f):
            C = tuple(tuple(x + f for x in row) for row in q.C)
            gamma = tuple(g + f for g in q.gamma)
            return Quiver(q.n, C, q.xi, gamma, q.alpha, q.beta)

        q = generate_double_twist_quiver(1, 1)
        shifted = quiver_jones(framing_shift(q, f), r)
        base = quiver_jones(q, r)
        sign = -1 if (f * r * r) % 2 else 1
        assert (shifted - qs_scale(qs_shift(base, f * r * r), sign)).is_zero()

    @pytest.mark.parametrize("p,m,rmax", [(1, 1, 6), (2, 2, 3)])
    def test_numeric_sum_matches_exact_series(self, p, m, rmax):
        q = generate_double_twist_quiver(p, m)
        for r in range(rmax + 1):
            assert_numeric_matches_exact(q, r)

    @pytest.mark.parametrize("r", [10, 20])
    def test_numeric_sum_within_its_bound(self, r):
        """At the semiclassical point q = e^{hbar/2}, hbar = 0.4/r, the sum
        at dps r+20 is within 10^-dps max(1, |J|) of the sum at dps 300."""
        q = generate_double_twist_quiver(1, 1)
        dps = r + 20
        with mp.workdps(dps):
            qv = mp.e ** (mp.mpf(0.4) / r / 2)
        got = quiver_jones_numeric(q, r, qv, dps=dps)
        with mp.workdps(300):
            ref = quiver_jones_numeric(q, r, qv, dps=300)
            tol = (mp.mpf(10) ** -dps + mp.mpf(10) ** -300) * max(1, abs(ref))
            assert abs(got - ref) <= tol

    @pytest.mark.parametrize("p,m,rmax", [(1, 1, 5), (2, 2, 2)])
    def test_numeric_sum_at_complex_q(self, p, m, rmax):
        """q = 3/4 + i/2 is exact in binary, so the exact series gives the
        value as a Gaussian rational."""
        q = generate_double_twist_quiver(p, m)
        a, b = Fraction(3, 4), Fraction(1, 2)
        norm = a * a + b * b
        for r in range(rmax + 1):
            re = im = Fraction(0)
            for e, c in quiver_jones(q, r).terms:
                # (a + ib)^e, through the conjugate over the norm for e < 0
                x, y = (a, b) if e >= 0 else (a / norm, -b / norm)
                pr, pi = Fraction(1), Fraction(0)
                for _ in range(abs(e)):
                    pr, pi = pr * x - pi * y, pr * y + pi * x
                re, im = re + c * pr, im + c * pi
            with mp.workdps(60):
                got = quiver_jones_numeric(q, r, mp.mpc(0.75, 0.5), dps=60)
                want = mp.mpc(mp.mpf(re.numerator) / re.denominator,
                              mp.mpf(im.numerator) / im.denominator)
                assert abs(got - want) <= mp.mpf(10) ** -60 * max(1, abs(want))

    @pytest.mark.parametrize("p,m", [(1, 1), (2, 1), (3, 1), (5, 1), (2, 2),
                                     (3, 2), (4, 2), (3, 3), (4, 3)])
    def test_r1_series_at_q_i_is_the_determinant(self, p, m):
        """At q = i (q^2 = -1) the r = 1 series is 4pm + 1 = det K(p,-m)."""
        series = quiver_jones(generate_double_twist_quiver(p, m), 1)
        powers = (1, 1j, -1, -1j)
        assert sum(c * powers[e % 4] for e, c in series.terms) == 4 * p * m + 1

    @pytest.mark.parametrize("r,hbar,err", MMR_4_1)
    def test_mmr_errors_on_4_1(self, r, hbar, err):
        """The semiclassical errors on 4_1 as the grouped sum gave them."""
        got = mmr_leading_check(generate_double_twist_quiver(1, 1), hbar,
                                math.exp(hbar * r), r)
        assert got == pytest.approx(err, rel=1e-12)

    @pytest.mark.parametrize("perm", BENCH_PERMS_4_1,
                             ids=["seed1", "seed1001"])
    @pytest.mark.parametrize("r,hbar,err", MMR_4_1)
    def test_mmr_errors_on_permuted_4_1(self, r, hbar, err, perm):
        """The same errors on the 4_1 quivers the quivers benchmark runs."""
        q = permuted(generate_double_twist_quiver(1, 1), perm)
        got = mmr_leading_check(q, hbar, math.exp(hbar * r), r)
        assert got == pytest.approx(err, rel=1e-12)

    def test_mmr_on_6_1_is_below_a_tenth_and_decreasing(self):
        """K(2,-1) = 6_1, 9 nodes and w = 2, at x = e^{0.4}."""
        q = generate_double_twist_quiver(2, 1)
        err20, err40 = (mmr_leading_check(q, 0.4 / r, math.exp(0.4), r)
                        for r in (20, 40))
        assert err40 < err20 < 0.10

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_a_grading_gives_the_homfly_polynomial(self, r):
        """With xi = alpha + a beta the 4_1 series is the closed-form HOMFLY-PT
        polynomial at a = q^a: a = 2 is the stored xi, a = 3 tests beta."""
        for a in (2, 3):
            q = a_specialized(generate_double_twist_quiver(1, 1), a)
            oracle = closed_form_homfly("4_1", r, a_exp=a, q_sub=2)
            assert quiver_jones(q, r) == oracle

    @pytest.mark.parametrize("node", range(5))
    @pytest.mark.parametrize("s", [1, -1])
    def test_a_grading_control_fails_off_the_quiver(self, node, s):
        """Moving (alpha_i, beta_i) by (-2s, s) keeps xi at a = 2 but breaks
        the a = 3 identity."""
        q = shift_a_grading(generate_double_twist_quiver(1, 1), node, s)
        assert quiver_jones(a_specialized(q, 2), 1) == closed_form_homfly(
            "4_1", 1, a_exp=2, q_sub=2)
        assert quiver_jones(a_specialized(q, 3), 1) != closed_form_homfly(
            "4_1", 1, a_exp=3, q_sub=2)


def a_specialized(q, a):
    """The quiver with xi = alpha + a beta, the series variable at a = q^a."""
    return Quiver(q.n, q.C, tuple(x + a * y for x, y in zip(q.alpha, q.beta)),
                  q.gamma, q.alpha, q.beta)


def shift_a_grading(q, node, s):
    """(alpha, beta) with node's entries moved by (-2s, s)."""
    alpha, beta = list(q.alpha), list(q.beta)
    alpha[node] -= 2 * s
    beta[node] += s
    return Quiver.make(q.C, q.xi, q.gamma, alpha, beta)


@st.composite
def small_quivers(draw):
    """A random symmetric quiver with n <= 4 and entries in [-3, 3]."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    C = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            C[i][j] = C[j][i] = draw(entry)
    vec = st.lists(entry, min_size=n, max_size=n)
    return Quiver.make(C, draw(vec), draw(vec))


def brute_groups(q, r):
    """{parts: {e: signed count}} built one composition at a time."""
    groups = {}
    for d in compositions(r, q.n):
        e = sum(x * di for x, di in zip(q.xi, d)) + quadratic(q.C, d)
        odd = sum(g * di for g, di in zip(q.gamma, d)) % 2
        acc = groups.setdefault(tuple(sorted(di for di in d if di)), {})
        acc[e] = acc.get(e, 0) + (-1 if odd else 1)
    return groups


def reference_series(q, r, order=None):
    """The motivic sum from the composition walk: each multiset of parts of
    brute_groups weighs its signed monomials once, by the q^2-multinomial
    (q^2; q^2)_r / prod (q^2; q^2)_{d_i} as a product of q^2-binomials."""
    total = QSeries.zero()
    for parts, signed in brute_groups(q, r).items():
        weight, rem = QSeries.one(), r
        for di in parts:
            weight = qs_mul(weight, qs_qbinomial(rem, di, base=2))
            rem -= di
        total = total + qs_mul(weight, QSeries.from_terms(signed))
    return total.with_trunc(order)


class TestWalk:
    @given(small_quivers(), st.integers(0, 6),
           st.none() | st.integers(-40, 40))
    @settings(max_examples=60, deadline=None)
    def test_walk_matches_brute_force(self, q, r, order):
        """The state recursion against the composition walk."""
        got, want = quiver_jones(q, r, order), reference_series(q, r, order)
        assert got == want and str(got) == str(want)

    @pytest.mark.parametrize("q", [
        Quiver.make([[3]], [-2], [1]),
        Quiver.make([[0]], [0], [0]),
        Quiver.make([[1, -2], [-2, 3]], [2, -1], [1, 0]),
        Quiver.make([[-3, 2], [2, 0]], [0, 3], [1, 1]),
    ])
    def test_walk_on_one_and_two_nodes(self, q):
        for r in range(8):
            assert quiver_jones(q, r) == reference_series(q, r)

    def test_k33_series_matches_composition_walk(self):
        q = generate_double_twist_quiver(3, 3)
        assert quiver_jones(q, 4) == reference_series(q, 4)

    @pytest.mark.parametrize("evaluate", [
        quiver_jones, lambda q, r: quiver_jones_numeric(q, r, 0.5)])
    def test_negative_color_is_rejected(self, evaluate):
        with pytest.raises(ValueError, match="color must be nonnegative"):
            evaluate(generate_double_twist_quiver(1, 1), -1)

    @given(small_quivers(), st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_numeric_sum_matches_exact_series(self, q, r):
        assert_numeric_matches_exact(q, r)

    @given(small_quivers(), st.integers(0, 5),
           st.sampled_from([0.6, 1.3, -1.1, mp.mpc(0.5, -0.9)]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_sums_are_invariant_under_node_permutation(self, q, r, qval,
                                                       data):
        perm = data.draw(st.permutations(range(q.n)))
        p = permuted(q, perm)
        assert quiver_jones(p, r) == quiver_jones(q, r)
        dps = 20
        got = quiver_jones_numeric(p, r, qval, dps)
        want = quiver_jones_numeric(q, r, qval, dps)
        with mp.workdps(dps + 10):
            assert abs(got - want) <= mp.mpf(10) ** -dps * max(1, abs(want))

    def test_numeric_sum_of_a_vanishing_series_is_zero(self):
        """At r = 1 the two nodes give +1 and -1; the normalised sum
        reaches them through different rounded powers, and returns 0."""
        q = Quiver.make([[0, 0], [0, -1]], [0, 1], [0, 1])
        assert quiver_jones(q, 1).is_zero()
        for qval in (0.875, 1.25, mp.mpc(0.75, 0.5)):
            assert quiver_jones_numeric(q, 1, qval, dps=60) == 0

    def test_node_order_ignores_input_order_on_4_1(self):
        q = generate_double_twist_quiver(1, 1)
        seen = {ordered_data(permuted(q, perm))
                for perm in itertools.permutations(range(q.n))}
        assert len(seen) == 1

    @pytest.mark.parametrize("p,m", [(1, 1), (2, 1), (3, 1)])
    def test_node_order_beats_the_block_layout(self, p, m):
        """On a permuted stored quiver the chosen order does no more terms
        at r = 4 than the generator's own block layout."""
        q = generate_double_twist_quiver(p, m)
        perm = list(reversed(range(q.n)))
        got = terms_visited(permuted(q, perm), 4,
                            _node_order(permuted(q, perm)))
        assert got <= terms_visited(q, 4, range(q.n))

    @pytest.mark.parametrize("dps", [0, -2])
    def test_numeric_sum_rejects_dps_below_one(self, dps):
        with pytest.raises(ValueError, match="dps must be at least 1"):
            quiver_jones_numeric(generate_double_twist_quiver(1, 1), 3, 0.5,
                                 dps=dps)

    @pytest.mark.parametrize("qval,message", [
        (0, "q must be nonzero"), (1, "root of unity"),
        (mp.mpc(0, 1), "root of unity")])
    def test_numeric_sum_rejects_singular_q(self, qval, message):
        with pytest.raises(ValueError, match=message):
            quiver_jones_numeric(generate_double_twist_quiver(1, 1), 3, qval)

    def test_mmr_rejects_hbar_zero(self):
        with pytest.raises(ValueError, match="hbar must be nonzero"):
            mmr_leading_check(generate_double_twist_quiver(1, 1), 0, 1.0, 20)


class TestNumericReference:
    """quiver_jones_numeric against the grouped sum it replaced: both are
    within 10^-dps max(1, |J|) of J, so they agree within twice that."""

    @staticmethod
    def assert_agree(q, r, qv, dps=40):
        got = quiver_jones_numeric(q, r, qv, dps)
        want = reference_numeric(q, r, qv, dps)
        with mp.workdps(dps + 10):
            tol = 2 * mp.mpf(10) ** -dps * max(1, abs(want))
            assert abs(got - want) <= tol

    @pytest.mark.parametrize("r", [10, 20, 30])
    def test_figure_eight_at_the_semiclassical_point(self, r):
        with mp.workdps(40):
            qv = mp.e ** (mp.mpf(0.4) / r / 2)
        self.assert_agree(generate_double_twist_quiver(1, 1), r, qv)

    @pytest.mark.parametrize("qval", [0.875, 1.05, -0.9])
    def test_k22_at_real_q(self, qval):
        q = generate_double_twist_quiver(2, 2)
        for r in range(5):
            self.assert_agree(q, r, qval)

    @pytest.mark.parametrize("p,m,rmax", [(1, 1, 5), (2, 1, 5), (2, 2, 5)])
    def test_complex_q(self, p, m, rmax):
        q = generate_double_twist_quiver(p, m)
        for r in range(rmax + 1):
            self.assert_agree(q, r, mp.mpc(0.75, 0.5), dps=30)

    @given(small_quivers(), st.integers(0, 6),
           st.sampled_from([0.6, 1.3, -1.1, mp.mpc(0.5, -0.9)]))
    @settings(max_examples=40, deadline=None)
    def test_small_quivers(self, q, r, qval):
        self.assert_agree(q, r, qval, dps=20)


# ---------------------------------------------------------------------------
# DT invariants


def motivic_coefficient(q, d, trunc):
    """Coefficient of x^d of the motivic series, directly from the sum."""
    quad = quadratic(q.C, d)
    gdot = sum(g * di for g, di in zip(q.gamma, d))
    sign = -1 if (quad + gdot) % 2 else 1
    shift = quad + sum((x - 1) * di for x, di in zip(q.xi, d))
    term = QSeries.one(trunc=trunc)
    for di in d:
        term = qs_mul(term, qs_inverse(qs_pochhammer(2, 2, di, trunc), trunc))
    return qs_scale(qs_shift(term, shift), sign)


def remultiply(omega, n, dmax, cap):
    """x-graded coefficients of prod ((-1)^j x^d q^{j+1}; q^2)^{-Omega}."""
    acc = {tuple([0] * n): QSeries.one(trunc=cap)}

    def mul_binomial(acc, dvec, exp0, sgn, power):
        step = sum(dvec)
        tmax = dmax // step
        coeffs, c = [Fraction(1)], Fraction(1)
        for t in range(1, tmax + 1):
            c = c * Fraction(power - t + 1, t)
            coeffs.append(c)
        out = {}
        for d0, s0 in acc.items():
            room = (dmax - sum(d0)) // step
            for t in range(min(tmax, room) + 1):
                d = tuple(a + t * b for a, b in zip(d0, dvec))
                piece = qs_scale(qs_shift(s0, t * exp0), coeffs[t] * (-sgn) ** t)
                out[d] = out[d] + piece if d in out else piece
        return out

    for (dvec, j), om in sorted(omega.items()):
        if not om:
            continue
        sgn = -1 if j % 2 else 1
        kmax = max(int((cap - (j + 1)) // 2) + 1, 0)
        for k in range(kmax):
            acc = mul_binomial(acc, dvec, j + 1 + 2 * k, sgn, -om)
    return acc


def assert_product_matches(qv, dmax, order, slack):
    inv = dt_invariants(qv, dmax, order)
    acc = remultiply(inv.nonzero(), qv.n, dmax, Fraction(order + slack))
    margin = Fraction(order - 2 - slack)
    for total in range(1, dmax + 1):
        for d in compositions(total, qv.n):
            want = motivic_coefficient(qv, d, margin)
            got = acc.get(d, QSeries.zero(trunc=margin)).with_trunc(margin)
            assert (want - got).is_zero(), d
    return inv


class TestDTInvariants:
    def test_loopless_single_node(self):
        inv = dt_invariants(Quiver.make([[0]], [0], [0]), 3, 40)
        assert inv.nonzero() == {((1,), -2): 1}

    def test_one_loop_single_node(self):
        inv = dt_invariants(Quiver.make([[1]], [1], [0]), 3, 40)
        assert inv.nonzero() == {((1,), 0): -1}

    def test_product_remultiplies_scalar(self):
        assert_product_matches(Quiver.make([[0]], [0], [0]), 3, 40, 10)
        assert_product_matches(Quiver.make([[1]], [1], [0]), 3, 40, 10)

    def test_product_remultiplies_figure_eight(self):
        assert_product_matches(
            generate_double_twist_quiver(1, 1), 2, 36, 16)

    def test_figure_eight_units(self):
        inv = dt_invariants(generate_double_twist_quiver(1, 1), 1, 40)
        units = {(d, j): v for (d, j), v in inv.nonzero().items()
                 if sum(d) == 1}
        assert sorted(j for (_, j) in units) == [-6, -4, -2, 0, 2]
        assert all(v == 1 for v in units.values())

    def test_figure_eight_integrality_d3(self):
        # raises on any non-integer value, so completing is the assertion
        inv = dt_invariants(generate_double_twist_quiver(1, 1), 3, 40)
        assert all(isinstance(v, int) for v in inv.omega.values())

    @pytest.mark.parametrize("dmax,order", [(0, 40), (-2, 40), (2, 0)])
    def test_sizes_below_one_rejected(self, dmax, order):
        with pytest.raises(ValueError, match="must be at least 1"):
            dt_invariants(Quiver.make([[1]], [1], [0]), dmax, order)

    def test_non_symmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            Quiver.make([[0, 1], [2, 0]], [0, 0], [0, 0])


# ---------------------------------------------------------------------------
# DT invariants against the dense series computation


def reference_dt(q, dmax, order):
    """{d: (window, {j: Omega})} from the dense QSeries computation: the
    power-series log over every pair of dimension vectors, with Fraction
    coefficients.  Each layer is read below its own bound, which qs_mul
    keeps sound; a wrap is known below s times its base layer's window."""
    inv_poch = [QSeries.one(trunc=order)]
    for k in range(1, dmax + 1):
        inv_poch.append(qs_inverse(qs_pochhammer(2, 2, k, order), order))
    by_deg = {t: list(compositions(t, q.n)) for t in range(1, dmax + 1)}
    vectors = [d for t in by_deg for d in by_deg[t]]
    pser = {}
    for d in vectors:
        quad = quadratic(q.C, d)
        gdot = sum(g * di for g, di in zip(q.gamma, d))
        sign = -1 if (quad + gdot) % 2 else 1
        shift = quad + sum((x - 1) * di for x, di in zip(q.xi, d))
        term = inv_poch[0]
        for di in d:
            if di:
                term = qs_mul(term, inv_poch[di])
        pser[d] = qs_scale(qs_shift(term, shift), sign)

    logp = dict(pser)
    upow = dict(pser)
    for s in range(2, dmax + 1):
        nxt = {}
        for d1, s1 in upow.items():
            for deg2 in range(1, dmax - sum(d1) + 1):
                for d2 in by_deg[deg2]:
                    d = tuple(a + b for a, b in zip(d1, d2))
                    prod = qs_mul(s1, pser[d2])
                    nxt[d] = nxt[d] + prod if d in nxt else prod
        upow = nxt
        for d, ser in upow.items():
            logp[d] = logp[d] + qs_scale(ser, Fraction((-1) ** (s + 1), s))

    one_minus_q2 = QSeries.from_terms({0: 1, 2: -1}, 1, order)
    layers = {}
    for d in vectors:  # by degree, so every base layer is done first
        bd = logp[d]
        g = math.gcd(*d)
        for s in range(2, g + 1):
            if g % s:
                continue
            base_window, base = layers[tuple(x // s for x in d)]
            wrap = {}
            for j, om in base.items():
                sgn = -1 if (j * s) % 2 else 1
                for e in range(s * (j + 1), order, 2 * s):
                    wrap[e] = wrap.get(e, 0) + Fraction(om * sgn, s)
            bd = bd - QSeries.from_terms(wrap, 1, min(order, s * base_window))
        poly = qs_mul(bd, one_minus_q2)
        window = min(order - 2, poly.trunc)
        entry = {}
        for e, c in poly.terms:
            if e < window:
                val = c if (e - 1) % 2 == 0 else -c
                assert val.denominator == 1, (d, e - 1, val)
                entry[e - 1] = int(val)
        layers[d] = (window, entry)
    return layers


def dt_windows(q, dmax, order):
    """W_d = min(order - 2, order + min(0, least shift of a nonzero d' <= d))
    for every d of degree at most dmax."""
    out = {}
    for t in range(1, dmax + 1):
        for d in compositions(t, q.n):
            support = [i for i, di in enumerate(d) if di]
            C = [[q.C[i][j] for j in support] for i in support]
            xi = [q.xi[i] for i in support]
            least = 0
            for sub in itertools.product(*(range(d[i] + 1) for i in support)):
                if any(sub):
                    least = min(least, quadratic(C, sub) + sum(
                        (x - 1) * k for x, k in zip(xi, sub)))
            out[d] = min(order - 2, order + least)
    return out


def assert_matches_reference(q, dmax, order, extra):
    """dt_invariants at order equals the reference at order + extra on
    every j + 1 < W_d, which the reference's windows must cover."""
    windows = dt_windows(q, dmax, order)
    layers = reference_dt(q, dmax, order + extra)
    assert all(layers[d][0] >= w for d, w in windows.items())
    want = {(d, j): om for d, (_, entry) in layers.items()
            for j, om in entry.items() if om and j + 1 < windows[d]}
    assert dt_invariants(q, dmax, order).omega == want


@st.composite
def dt_quivers(draw):
    """A symmetric quiver with n <= 3, C and xi in [-4, 3], gamma in {0, 1}."""
    n = draw(st.integers(1, 3))
    entry = st.integers(-4, 3)
    C = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            C[i][j] = C[j][i] = draw(entry)
    xi = draw(st.lists(entry, min_size=n, max_size=n))
    gamma = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return Quiver.make(C, xi, gamma)


@st.composite
def repeated_quivers(draw):
    """Two to four copies of one to three base nodes: each copy keeps its
    base node's entries of C, so many dimension vectors share a log and a
    layer shape, while xi and gamma are drawn per copy and move shift_d, its
    parity and the sign of P_d between vectors of one shape."""
    k = draw(st.integers(1, 3))
    entry = st.integers(-4, 3)
    B = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            B[i][j] = B[j][i] = draw(entry)
    base = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=4))
    n = len(base)
    return Quiver.make([[B[a][b] for b in base] for a in base],
                       draw(st.lists(entry, min_size=n, max_size=n)),
                       draw(st.lists(st.integers(0, 1), min_size=n,
                                     max_size=n)))


class TestDTReference:
    @given(dt_quivers(), st.integers(1, 3), st.integers(4, 16))
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_reference(self, q, dmax, order):
        assert_matches_reference(q, dmax, order, 100)

    @given(repeated_quivers(), st.integers(1, 3), st.integers(4, 12))
    @settings(max_examples=100, deadline=None)
    def test_repeated_nodes_match_dense_reference(self, q, dmax, order):
        assert_matches_reference(q, dmax, order, 100)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_node_permutation_permutes_omega(self, seed):
        q = generate_double_twist_quiver(2, 2)
        at = random.Random(seed).sample(range(q.n), q.n)  # node a is at[a]
        moved = Quiver.make([[q.C[a][b] for b in at] for a in at],
                            [q.xi[a] for a in at], [q.gamma[a] for a in at])
        want = {(tuple(d[a] for a in at), j): om
                for (d, j), om in dt_invariants(q, 3, 12).omega.items()}
        assert dt_invariants(moved, 3, 12).omega == want

    @pytest.mark.parametrize("p,m", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2),
                                     (3, 3)])
    @pytest.mark.parametrize("dmax,order,extra", [(2, 16, 0), (2, 30, 0),
                                                  (3, 12, 2)])
    def test_stored_quivers_match_dense_reference(self, p, m, dmax, order,
                                                  extra):
        assert_matches_reference(generate_double_twist_quiver(p, m), dmax,
                                 order, extra)

    def test_negative_shifts_stay_integral(self):
        # with the product bound min(ta, tb), the negative shifts make the
        # layer d = 3 non-integral at every order from 11 to 60
        q = Quiver.make([[1]], [-2], [0])
        for order in (11, 30):
            tail = {((2,), j): -1 if (j + 5) % 4 else 1
                    for j in range(-5, order - 3, 2)}
            assert dt_invariants(q, 3, order).nonzero() == {
                ((1,), -3): 1, **tail}
            assert_matches_reference(q, 3, order, 100)

    def test_negative_shifts_add_no_spurious_values(self):
        # the product bound min(ta, tb) gives Omega_{(1,0,2),1} = -4,
        # Omega_{(1,0,2),3} = 2 and Omega_{(1,1,1),-9} = 7 at order 9; all
        # three are 0 at orders 49 and 109
        q = Quiver.make([[-5, -1, 3], [-1, -6, -2], [3, -2, -1]], [2, -2, 1],
                        [1, 1, 1])
        omega = dt_invariants(q, 3, 9).omega
        for key in (((1, 0, 2), 1), ((1, 0, 2), 3), ((1, 1, 1), -9)):
            assert key not in omega
        assert_matches_reference(q, 3, 9, 100)


def test_dt_table_script_runs_from_a_checkout():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, str(SCRIPTS / "quiver_dt_table.py"), "--p", "1",
         "--m", "1", "--dmax", "2", "--order", "16"],
        capture_output=True, text=True, env=env, cwd=SCRIPTS, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("K(1,-1) quiver: 5 nodes")
