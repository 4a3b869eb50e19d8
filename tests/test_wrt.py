"""State-sum invariants at roots of unity: normalization, Kirby
invariance, quotient-group consistency."""

from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp

from plumbq import wrt
from plumbq.catalog import (
    brieskorn_2_3_7,
    brieskorn_2_3_7_alt,
    lens_m5_11,
    poincare_sphere,
)
from plumbq.lie import gamma_factor
from plumbq.plumbing import PlumbingGraph, kirby_neumann_move, lens_chain
from plumbq.wrt import wrt_osp, wrt_so3, wrt_su2, wrt_sun_zm

TOL = 1e-9


def sphere():
    return PlumbingGraph.build([-1], [])


def close(a, b, tol=TOL):
    return abs(mp.mpc(a) - mp.mpc(b)) < tol


class TestSphereNormalization:
    def test_su2(self):
        for k in (1, 2, 3, 5):
            assert close(wrt_su2(sphere(), k).value, 1)

    def test_so3(self):
        for K in (2, 4, 6):
            assert close(wrt_so3(sphere(), K).value, 1)

    def test_osp(self):
        for Khat in (1, 2, 3):
            assert close(wrt_osp(sphere(), Khat).value, 1)

    def test_sun_zm(self):
        for N, m in ((2, 1), (2, 2), (3, 1)):
            assert close(wrt_sun_zm(sphere(), N, m, 4).value, 1)

    def test_sphere_presentations_agree(self):
        # the (-2,-1) chain blows down to a single -1 unknot
        g = PlumbingGraph.build([-2, -1], [(0, 1)])
        assert close(wrt_su2(g, 4).value, 1)


class TestKirbyInvariance:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_brieskorn_presentations(self, k):
        a = wrt_su2(brieskorn_2_3_7(), k).value
        b = wrt_su2(brieskorn_2_3_7_alt(), k).value
        assert close(a, b)

    def test_lens_blow_up(self):
        g = lens_chain(7, 2)
        g2 = kirby_neumann_move(
            g, {"kind": "blow_up", "sign": -1, "at": 0, "new_id": 9})
        for k in (2, 3, 5, 8, 10):
            assert close(wrt_su2(g, k).value, wrt_su2(g2, k).value)

    def test_so3_kirby(self):
        g = lens_chain(5, 3)
        g2 = kirby_neumann_move(
            g, {"kind": "blow_up", "sign": -1, "at": 1, "new_id": 9})
        for K in (2, 4, 6):
            assert close(wrt_so3(g, K).value, wrt_so3(g2, K).value)

    def test_osp_changes_under_blow_up(self):
        # the odd-color state sum lacks the balancing phase, so a blow-up
        # shifts its value; pin that down so a silent change is noticed
        g = lens_chain(5, 3)
        g2 = kirby_neumann_move(
            g, {"kind": "blow_up", "sign": -1, "at": 1, "new_id": 9})
        a, b = wrt_osp(g, 2).value, wrt_osp(g2, 2).value
        assert abs(mp.mpc(a) - mp.mpc(b)) > 1e-3


class TestQuotientConsistency:
    @pytest.mark.parametrize("k", (2, 3, 4, 6))
    def test_m1_is_su2(self, k):
        for g in (lens_chain(7, 2), brieskorn_2_3_7()):
            assert close(wrt_sun_zm(g, 2, 1, k).value,
                         wrt_su2(g, k).value)

    @pytest.mark.parametrize("K", (2, 4, 6))
    def test_m2_is_so3(self, K):
        # level map: the Z2 quotient at bare level k sits at the same root
        # of unity as the odd-color sum at K = 2k (root order 4k + 2)
        for g in (lens_chain(7, 2), lens_m5_11()):
            a = wrt_sun_zm(g, 2, 2, K // 2)
            b = wrt_so3(g, K)
            assert a.root_order == b.root_order
            assert close(a.value, b.value)

    def test_gamma_values(self):
        assert gamma_factor(4, 2) == 2
        assert gamma_factor(6, 2) == 4
        assert gamma_factor(6, 3) == 3


class TestVariantSeparation:
    def test_so3_differs_from_su2_on_a_lens_chain(self):
        # computed inequality at the stated even levels, not assumed
        differs = []
        g = lens_chain(5, 3)
        for K in (2, 4, 6):
            a = wrt_su2(g, K).value
            b = wrt_so3(g, K).value
            differs.append(abs(mp.mpc(a) - mp.mpc(b)) > 1e-6)
        assert any(differs), "SO(3) never separated from SU(2)"


class TestMethods:
    def test_direct_crosschecks_contract(self, monkeypatch):
        graphs = (lens_chain(7, 2), lens_m5_11(), brieskorn_2_3_7())
        runs = [(wrt_su2, (2, 4)), (wrt_so3, (2, 4)), (wrt_osp, (1, 2)),
                (lambda g, k: wrt_sun_zm(g, 3, 1, k), (2,))]

        def values():
            return [f(g, k).value for f, ks in runs for g in graphs for k in ks]

        contracted = values()
        monkeypatch.setattr(wrt, "_tree_sum", wrt._tree_sum_direct)
        direct = values()
        for a, b in zip(contracted, direct):
            assert close(a, b, 1e-40)

    def test_root_orders(self):
        assert wrt_su2(sphere(), 3).root_order == 5
        assert wrt_so3(sphere(), 4).root_order == 10
        assert wrt_osp(sphere(), 2).root_order == 7

    @pytest.mark.parametrize("dps", (0, -5))
    def test_rejects_precision_below_one(self, dps):
        for f in (wrt_su2, wrt_so3, wrt_osp,
                  lambda g, k, dps: wrt_sun_zm(g, 3, 1, k, dps)):
            with pytest.raises(ValueError, match="precision must be at least 1"):
                f(sphere(), 2, dps)

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            wrt_su2(sphere(), 0)
        with pytest.raises(ValueError):
            wrt_so3(sphere(), 3)
        with pytest.raises(ValueError):
            wrt_osp(sphere(), 0)


class TestPhaseTable:
    @given(st.integers(1, 500), st.sampled_from([53, 200]), st.data())
    def test_entries_match_phase(self, D, prec, data):
        # _phase rounds a/D before reducing mod 2, so its own error grows
        # with |a|/D; within |a| <= 20 D both stay inside 2^-(prec-8)
        a = data.draw(st.integers(-20 * D, 20 * D))
        with mp.workprec(prec):
            Z = wrt._phase_table(D)
            assert len(Z) == 2 * D
            want = wrt._phase(Fraction(a, D))
            assert abs(Z[a % (2 * D)] - want) <= mp.mpf(2) ** -(prec - 8)
            assert Z[-a % (2 * D)] == mp.conj(Z[a % (2 * D)])


@st.composite
def exact_reals(draw, prec, top=(None, 3)):
    """An exact zero, or +-m 2^(t - L) with an L-bit mantissa m, L <= prec,
    whose top bit t lies in the range top (by default one of the prec - 1
    positions up to 3, which the ints below fit in too).

    Within that spread mpf_sum keeps every product of two such values, so
    mp.fdot's sum is exact before its one rounding."""
    if draw(st.integers(0, 4)) == 0:
        return mp.mpf(0)
    lo, hi = top
    L = draw(st.integers(1, prec))
    m = draw(st.integers(2 ** (L - 1), 2 ** L - 1))
    t = draw(st.integers(hi + 2 - prec if lo is None else lo, hi))
    sign = draw(st.sampled_from((1, -1)))
    return mp.make_mpf(from_man_exp(sign * m, t - L))


@st.composite
def exact_vectors(draw, prec, n, kinds=("real", "imag", "complex", "int"),
                  top=(None, 3)):
    """n entries of one kind (mpf, purely imaginary mpc, mpc or int), or of
    kinds mixed per entry."""
    vector_kind = draw(st.sampled_from(kinds + ("mixed",)))

    def entry():
        kind = vector_kind
        if kind == "mixed":
            kind = draw(st.sampled_from(kinds))
        if kind == "int":
            return draw(st.integers(-7, 7))
        x = draw(exact_reals(prec, top))
        if kind == "real":
            return x
        y = mp.mpf(0) if kind == "imag" else draw(exact_reals(prec, top))
        return mp.make_mpc((y._mpf_, x._mpf_))

    return [entry() for _ in range(n)]


def kernel_dot(a, b):
    """The exact kernel's rounded dot product, skipping identically zero
    parts of a as _tree_sum does."""
    are, aim, ea = wrt._mantissas(a)
    bre, bim, eb = wrt._mantissas(b)
    row = (are if any(are) else None, aim if any(aim) else None)
    return wrt._rounded(*wrt._dot(row, (bre, bim)), ea + eb)


def tree_level(vertex_row, E):
    """What _tree_sum reads of a level: the vertex rows by label, the edge
    matrix E as integer rows and an empty subtree memo."""
    return SimpleNamespace(vertex_row=vertex_row, rows=wrt._int_rows(E),
                           memo={})


def fdot_tree_sum(g, V, E):
    """The mp.fdot contraction that _tree_sum replaced, kept only here as a
    reference for its bits."""
    msgs = [list(row) for row in V]
    for parent, child in reversed(wrt._tree_edges(g)):
        vec, msg = msgs[parent], msgs[child]
        for c, row in enumerate(E):
            vec[c] *= mp.fdot(row, msg)
    return mp.fsum(msgs[0])


class TestExactDot:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([53, 250]), st.integers(0, 70), st.data())
    def test_rounded_dot_is_fdot(self, prec, n, data):
        a = data.draw(exact_vectors(prec, n))
        b = data.draw(exact_vectors(prec, n))
        with mp.workprec(prec):
            want = mp.mpc(mp.fdot(a, b))
            got = kernel_dot(a, b)
        assert got._mpc_ == want._mpc_

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.sampled_from([53, 200]),
           st.data())
    def test_tree_sum_is_fdot_contraction(self, nv, nc, prec, data):
        # top bits within [-8, 8]: the products that meet in one dot product
        # stay far inside the spread that mpf_sum keeps exactly
        top = (-8, 8)
        parents = [data.draw(st.integers(0, i - 1)) for i in range(1, nv)]
        g = PlumbingGraph.build([-2] * nv,
                                [(p, i + 1) for i, p in enumerate(parents)])
        V = [data.draw(exact_vectors(prec, nc, ("complex",), top))
             for _ in range(nv)]
        kind = data.draw(st.sampled_from(("real", "imag", "complex")))
        E = [data.draw(exact_vectors(prec, nc, (kind,), top))
             for _ in range(nc)]
        with mp.workprec(prec):
            want = mp.mpc(fdot_tree_sum(g, V, E))
            level = tree_level(V.__getitem__, E)
            got = mp.mpc(wrt._tree_sum(g, range(nv), level))
        assert got._mpc_ == want._mpc_

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            wrt._mantissas([mp.mpf(1), mp.inf])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=4),
           st.integers(1, 4), st.integers(1, 5), st.sampled_from([53, 200]),
           st.data())
    def test_shared_memo_is_fdot_contraction(self, sizes, pool, nc, prec, data):
        # several trees whose vertices take their rows from one small pool,
        # contracted with one memo: equal subtrees are contracted once, and
        # every tree still gets the bits of its own fdot contraction
        top = (-8, 8)
        rows = [data.draw(exact_vectors(prec, nc, ("complex",), top))
                for _ in range(pool)]
        kind = data.draw(st.sampled_from(("real", "imag", "complex")))
        E = [data.draw(exact_vectors(prec, nc, (kind,), top))
             for _ in range(nc)]
        with mp.workprec(prec):
            level = tree_level(rows.__getitem__, E)
            for nv in sizes:
                parents = [data.draw(st.integers(0, i - 1)) for i in range(1, nv)]
                g = PlumbingGraph.build([-2] * nv,
                                        [(p, i + 1) for i, p in enumerate(parents)])
                labels = [data.draw(st.integers(0, pool - 1)) for _ in range(nv)]
                V = [rows[lab] for lab in labels]
                want = mp.mpc(fdot_tree_sum(g, V, E))
                got = mp.mpc(wrt._tree_sum(g, labels, level))
                assert got._mpc_ == want._mpc_

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.sampled_from([53, 200]), st.data())
    def test_memo_names_keep_child_order(self, nc, prec, data):
        # a vertex with two unlike leaves, met in both orders: the two
        # orders round its products differently, so each needs its own entry
        top = (-8, 8)
        rows = [data.draw(exact_vectors(prec, nc, ("complex",), top))
                for _ in range(4)]
        E = [data.draw(exact_vectors(prec, nc, ("complex",), top))
             for _ in range(nc)]
        g = PlumbingGraph.build([-2] * 4, [(0, 1), (1, 2), (1, 3)])
        with mp.workprec(prec):
            level = tree_level(rows.__getitem__, E)
            for labels in ([0, 1, 2, 3], [0, 1, 3, 2]):
                V = [rows[lab] for lab in labels]
                want = mp.mpc(fdot_tree_sum(g, V, E))
                got = mp.mpc(wrt._tree_sum(g, labels, level))
                assert got._mpc_ == want._mpc_


@st.composite
def definite_trees(draw, max_vertices=6):
    """A negative-definite plumbing tree of at most max_vertices vertices,
    with its vertex ids permuted and listed in a shuffled order.

    Each framing is at most minus the vertex degree and the first vertex's
    is below it, so the linking matrix is irreducibly diagonally dominant
    with a negative diagonal."""
    n = draw(st.integers(1, max_vertices))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    deg = [0] * n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    fr = [-deg[v] - draw(st.integers(1 if v == 0 else 0, 3)) for v in range(n)]
    ids = draw(st.permutations(range(n)))
    order = draw(st.permutations(range(n)))
    return PlumbingGraph.build([(ids[v], fr[v]) for v in order],
                               [(ids[a], ids[b]) for a, b in edges])


STATE_SUMS = {  # name -> (function of (graph, level, dps), levels)
    "su2": (wrt_su2, (1, 2, 5)),
    "so3": (wrt_so3, (2, 4)),
    "osp12": (wrt_osp, (1, 3)),
    "su3_z1": (lambda g, k, dps: wrt_sun_zm(g, 3, 1, k, dps), (1, 2)),
    "su3_z3": (lambda g, k, dps: wrt_sun_zm(g, 3, 3, k, dps), (3,)),
}


class TestLevelContext:
    """The cached level context and the subtree memo serve the bits a cold
    call computes."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(STATE_SUMS)), st.data(),
           st.lists(definite_trees(), min_size=2, max_size=4))
    def test_warm_equals_cold(self, name, data, graphs):
        f, levels = STATE_SUMS[name]
        k = data.draw(st.sampled_from(levels))
        warm = [f(g, k, 20).value._mpc_ for g in graphs]
        for g, value in zip(graphs, warm):
            wrt._level.cache_clear()
            assert f(g, k, 20).value._mpc_ == value

    def test_memo_keeps_a_bounded_number_of_colour_entries(self):
        # 24 unlike leaves at 201 colours: the memo stops at the bound, and
        # a warm call, with the memo full, gives the cold call's bits
        g = PlumbingGraph.build([-30] + [-2 - i for i in range(24)],
                                [(0, i) for i in range(1, 25)])
        wrt._level.cache_clear()
        cold = wrt_su2(g, 200, 20).value._mpc_
        with mp.workdps(35):
            level = wrt._level(wrt._rank1_level, (202, range(1, 202), -1),
                               mp.mp.prec)
        assert sum(map(len, level.memo.values())) == (
            wrt._MEMO_ENTRIES // 201 * 201)
        assert wrt_su2(g, 200, 20).value._mpc_ == cold

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(sorted(STATE_SUMS)), st.data(), definite_trees(),
           st.sampled_from([(15, 40), (40, 15), (20, 21)]))
    def test_precision_change_builds_its_own_level(self, name, data, g, dps):
        f, levels = STATE_SUMS[name]
        k = data.draw(st.sampled_from(levels))
        first, second = dps
        wrt._level.cache_clear()
        cold = f(g, k, second).value._mpc_
        f(g, k, first)
        misses = wrt._level.cache_info().misses
        assert f(g, k, second).value._mpc_ == cold
        assert wrt._level.cache_info().misses == misses + 1


class TestGoldenDigits:
    """Values at dps 60, pinned to 1e-50 so that a change in how phases or
    the tree contraction are evaluated cannot move a printed digit."""

    @pytest.mark.parametrize("compute,re,im", [
        (lambda: wrt_su2(brieskorn_2_3_7(), 60),
         "-17.7279127908101550767280759126584250539743012571612552612226",
         "-17.8941679606176276182891200580103041262455599877358186654271"),
        (lambda: wrt_so3(poincare_sphere(), 40),
         "127.770538281674713874220287772736950532392824380402190748728",
         "41.155582888355458912522217555074596658344725665520528213111"),
        (lambda: wrt_osp(brieskorn_2_3_7(), 3),
         "2.85675346634364788108781934187468645030571555547492843308775",
         "-0.967425986033024956849545593455786519816604412176448670495419"),
        (lambda: wrt_sun_zm(brieskorn_2_3_7_alt(), 3, 3, 6),
         "-748.418337831147287680432332500321422180092752115543473737239",
         "-491.03347473958191059196048986480630345122748597549245655269"),
    ], ids=["su2-sigma237-60", "so3-poincare-40", "osp12-sigma237-3",
            "su3_z3-sigma237-alt-6"])
    def test_value(self, compute, re, im):
        res = compute()
        assert res.dps == 60
        with mp.workdps(80):
            assert abs(res.value.real - mp.mpf(re)) < mp.mpf("1e-50")
            assert abs(res.value.imag - mp.mpf(im)) < mp.mpf("1e-50")
