"""State-sum invariants at roots of unity: normalization, Kirby
invariance, quotient-group consistency."""

import gc
import itertools
import math
import random
import weakref
from fractions import Fraction
from functools import cache
from operator import mul
from types import SimpleNamespace

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumbq import wrt
from plumbq.catalog import (
    NAMED_GRAPHS,
    brieskorn_2_3_7,
    brieskorn_2_3_7_alt,
    lens_m5_11,
    poincare_sphere,
)
from plumbq.lie import allowed_colors, gamma_factor
from plumbq.plumbing import (
    PlumbingGraph,
    kirby_neumann_move,
    lens_chain,
    linking_matrix,
)
from plumbq.wrt import wrt_osp, wrt_so3, wrt_su2, wrt_sun_zm

TOL = 1e-9


def sphere():
    return PlumbingGraph.build([-1], [])


def S1xS2():
    return PlumbingGraph.build([0], [])


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
    # su2 and so3 are the levels (2, 1, k + 2, -1) and (2, 2, 2K + 2, -1)
    # of su(2)/Z_m: the same state sum, bit for bit

    @pytest.mark.parametrize("k", (1, 2, 3, 4, 6))
    def test_m1_is_su2(self, k):
        for g in (lens_chain(7, 2), brieskorn_2_3_7(), S1xS2()):
            assert wrt_sun_zm(g, 2, 1, k).value == wrt_su2(g, k).value

    @pytest.mark.parametrize("K", (2, 4, 6))
    def test_m2_is_so3(self, K):
        # level map: the Z2 quotient at bare level k sits at the same root
        # of unity as the odd-color sum at K = 2k (root order 4k + 2)
        for g in (lens_chain(7, 2), lens_m5_11(), S1xS2()):
            a = wrt_sun_zm(g, 2, 2, K // 2)
            b = wrt_so3(g, K)
            assert a.root_order == b.root_order
            assert a.value == b.value

    @pytest.mark.parametrize("k", (1, 2, 3, 6))
    def test_s1xs2_is_one_over_s00(self, k):
        # B = (0) has nullity 1: tau = S_00 U_0 / x^2 = 1/S_00 with
        # S_00 = sqrt(2/k') sin(pi/k'), the Kirby-Melvin value
        # Z(S^1 x S^2) / Z(S^3), in both routes (sqrt 2 at k = 1)
        kp = k + 2
        with mp.workdps(60):
            want = mp.sqrt(mp.mpf(kp) / 2) / mp.sin(mp.pi / kp)
            for value in (wrt_su2(S1xS2(), k).value, wrt_sun_zm(S1xS2(), 2, 1, k).value):
                assert abs(value - want) < mp.mpf(10) ** -50 * want

    def test_gamma_values(self):
        assert gamma_factor(4, 2) == 2
        assert gamma_factor(6, 2) == 4
        assert gamma_factor(6, 3) == 3


def unitary_s00(N, m, kp):
    """S_00 of su(N)/Z_m at k' from the Weyl denominator formula: S_0,lam is
    proportional to the product over positive roots alpha of
    sin(pi (alpha, lam) / k'), normalized so that the squares sum to 1 over
    the group's colors."""
    def weyl(lam):  # (alpha_i + ... + alpha_j, lam) = lam_i + ... + lam_j
        return mp.fprod(mp.sin(mp.pi * sum(lam[i:j + 1]) / kp)
                        for i in range(N - 1) for j in range(i, N - 1))
    colors = [lam.coords for lam in allowed_colors(N, m, kp)]
    return weyl((1,) * (N - 1)) / mp.sqrt(mp.fsum(weyl(c) ** 2 for c in colors))


class TestSingularPlumbings:
    """A linking matrix of nullity nu takes the factor S_00^nu, so every
    presentation of S^1 x S^2 evaluates to 1/S_00 of the group's own level."""

    PRESENTATIONS = ([0], []), ([-1, -1], [(0, 1)]), ([-2, 0, 2], [(0, 1), (1, 2)])
    GROUPS = [("su2", 2, 1, lambda g, k: wrt_su2(g, k), lambda k: k + 2),
              ("so3", 2, 2, lambda g, K: wrt_so3(g, 2 * K), lambda K: 4 * K + 2),
              ("sun-zm 2 2", 2, 2, lambda g, k: wrt_sun_zm(g, 2, 2, k), lambda k: 4 * k + 2),
              ("sun-zm 3 1", 3, 1, lambda g, k: wrt_sun_zm(g, 3, 1, k), lambda k: k + 3),
              ("sun-zm 3 3", 3, 3, lambda g, k: wrt_sun_zm(g, 3, 3, k), lambda k: 3 * k + 3)]

    @pytest.mark.parametrize("name,N,m,f,kprime", GROUPS, ids=[g[0] for g in GROUPS])
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_every_presentation_is_one_over_s00(self, name, N, m, f, kprime, k):
        with mp.workdps(60):
            want = 1 / unitary_s00(N, m, kprime(k))
            for framings, edges in self.PRESENTATIONS:
                g = PlumbingGraph.build(framings, edges)
                assert linking_matrix(g).det == 0
                assert abs(f(g, k).value - want) < mp.mpf(10) ** -50 * want


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
        monkeypatch.setattr(wrt, "_tree_sum", tree_sum_direct)
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


def unsplit(fold, row):
    """A row split by fold.split as (re, im) lists over the representatives,
    zeros for a None part."""
    parts = ([], [])
    for group, k in zip(row, (fold.cut, len(fold.orbits) - fold.cut)):
        for acc, part in zip(parts, group):
            acc.extend([0] * k if part is None else part)
    return parts


def rows_of(scale):
    """The rows of a scale's representatives as (re, im) lists over the
    representatives: its whole edge matrix where it does not fold."""
    return [unsplit(scale.fold, row) for row in scale.rows]


def dense_rows(scale):
    """The whole edge matrix of a scale, row by row as (re, im) lists over
    the colors, read off its folded rows by E[J^i lam][J^j nu] =
    chi(J^j nu)^i chi(lam)^j E[lam][nu] (what TestFold holds the fold to)."""
    fold = scale.fold
    E = [([0] * fold.n, [0] * fold.n) for _ in range(fold.n)]
    for lams, row in zip(fold.orbits, scale.rows):
        re, im = unsplit(fold, row)
        for r, nus in enumerate(fold.orbits):
            for i, x in enumerate(lams):
                for j, y in enumerate(nus):
                    sign = fold.chi[y] ** i * fold.chi[lams[0]] ** j
                    E[x][0][y], E[x][1][y] = sign * re[r], sign * im[r]
    return E


def dense_contract(rows, m, P):
    """E m at scale 2^P by the dense product, each entry an exact integer
    dot product rounded once: the reference the folded _contract is held to
    bit for bit."""
    h = 1 << (P - 1)
    mre, mim = m
    out = []
    for ere, eim in rows:
        re = sum(map(mul, ere, mre)) - sum(map(mul, eim, mim))
        im = sum(map(mul, ere, mim)) + sum(map(mul, eim, mre))
        out.append(((re + h) >> P, (im + h) >> P))
    return out


def tree_sum_direct(g, labels, scale):
    """Brute-force odometer over all colorings in mp, at the working
    precision, of the scale's fixed-point vertex rows and edge matrix: the
    reference that _tree_sum is held to."""
    P = scale.P
    V = [[wrt._to_mpc(re, im, P) for re, im in zip(*scale.vertex_row(lab))]
         for lab in labels]
    E = [[wrt._to_mpc(x, y, P) for x, y in zip(re, im)] for re, im in dense_rows(scale)]
    edges = wrt._tree_edges(g)
    terms = []
    for coloring in itertools.product(range(len(E)), repeat=len(V)):
        w = mp.mpc(1)
        for vi, c in enumerate(coloring):
            w *= V[vi][c]
        for a, b in edges:
            w *= E[coloring[a]][coloring[b]]
        terms.append(w)
    return mp.fsum(terms)


class TestPhaseTable:
    @given(st.integers(1, 500), st.sampled_from([53, 200]), st.data())
    def test_entries_match_phase(self, D, P, data):
        # every part within 0.7 units of exp(pi i a / D) 2^P, and the two
        # halves exact conjugates
        a = data.draw(st.integers(-20 * D, 20 * D))
        Zre, Zim = wrt._phase_table(D, P)
        assert len(Zre) == len(Zim) == 2 * D
        i, j = a % (2 * D), -a % (2 * D)
        with mp.workprec(P + 40):
            want = wrt._phase(Fraction(a, D)) * mp.mpf(2) ** P
            assert abs(Zre[i] - want.real) <= 0.7
            assert abs(Zim[i] - want.imag) <= 0.7
        assert (Zre[j], Zim[j]) == (Zre[i], -Zim[i])

    @pytest.mark.parametrize("D", [1, 2, 3, 64, 255, 256, 1000, 4097])
    def test_whole_tables(self, D):
        # the rotation runs D / 2 steps: the longest chains stay inside
        # the bound at both ends of their guard bits
        for P in (53, 200):
            Zre, Zim = wrt._phase_table(D, P)
            with mp.workprec(P + 40):
                for a in range(2 * D):
                    want = mp.expjpi(mp.mpf(a) / D) * mp.mpf(2) ** P
                    assert abs(Zre[a] - want.real) <= 0.7, (P, a)
                    assert abs(Zim[a] - want.imag) <= 0.7, (P, a)


@st.composite
def fixed_vectors(draw, P, n, kind):
    """n Gaussian integers at scale 2^P of modulus below 4 (an exact zero
    one time in five), as (real parts, imaginary parts); kind "real" or
    "imag" zeroes one part."""
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    top = 1 << (P + 1)
    parts = [[0 if rnd.random() < 0.2 else rnd.randint(-top, top) for _ in range(n)]
             for _ in range(2)]
    if kind == "real":
        parts[1] = [0] * n
    elif kind == "imag":
        parts[0] = [0] * n
    return parts


def fixed_scale(P, rows, E):
    """What _tree_sum reads of a scale: P, the vertex rows by label, the
    edge rows split by a fold of singletons, and an empty memo."""
    fold = wrt._Fold(None, [1] * len(E))
    return SimpleNamespace(P=P, vertex_row=rows.__getitem__, memo={}, fold=fold,
                           rows=[fold.split(row) for row in E])


def kernel_bound(scale, labels):
    """The kernel's bound 2u B C on exact inputs: B = n rho^(L-1) prod_v A_v,
    C = 2 (L - 1), one rounding per contraction and per product."""
    def norm(re, im):
        return max(abs(mp.mpc(x, y)) for x, y in zip(re, im)) / mp.mpf(2) ** scale.P

    E = dense_rows(scale)
    rho = max(1, max(sum(abs(mp.mpc(x, y)) for x, y in zip(re, im)) for re, im in E)
              / mp.mpf(2) ** scale.P)
    L = len(labels)
    B = len(E) * rho ** (L - 1)
    for lab in labels:
        B *= max(1, norm(*scale.vertex_row(lab)))
    return 2 * mp.mpf(2) ** -scale.P * B * 2 * (L - 1)


def random_tree(data, nv):
    parents = [data.draw(st.integers(0, i - 1)) for i in range(1, nv)]
    return PlumbingGraph.build([-2] * nv, [(p, i + 1) for i, p in enumerate(parents)])


class TestFixedPointKernel:
    """The fixed-point contraction against mp on the same integer inputs,
    held to its stated bound."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.sampled_from([53, 120, 200]),
           st.sampled_from(("real", "imag", "complex")), st.data())
    def test_tree_sum_within_bound(self, nv, nc, P, kind, data):
        g = random_tree(data, nv)
        V = [data.draw(fixed_vectors(P, nc, "complex")) for _ in range(nv)]
        E = [data.draw(fixed_vectors(P, nc, kind)) for _ in range(nc)]
        scale = fixed_scale(P, V, E)
        with mp.workprec(P + 64):
            got = wrt._tree_sum(g, range(nv), scale)
            want = tree_sum_direct(g, range(nv), scale)
            assert abs(got - want) <= kernel_bound(scale, range(nv)) + mp.mpf(2) ** -(P + 40)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=4),
           st.integers(1, 4), st.integers(1, 5), st.sampled_from([53, 200]),
           st.data())
    def test_shared_memo_is_cold_contraction(self, sizes, pool, nc, P, data):
        # several trees whose vertices take their rows from one small pool,
        # contracted with one memo: equal subtrees are contracted once, and
        # every tree gets the bits of its contraction with an empty memo
        kind = data.draw(st.sampled_from(("real", "imag", "complex")))
        rows = [data.draw(fixed_vectors(P, nc, "complex")) for _ in range(pool)]
        E = [data.draw(fixed_vectors(P, nc, kind)) for _ in range(nc)]
        shared = fixed_scale(P, rows, E)
        with mp.workprec(P + 64):
            for nv in sizes:
                g = random_tree(data, nv)
                labels = [data.draw(st.integers(0, pool - 1)) for _ in range(nv)]
                got = wrt._tree_sum(g, labels, shared)
                assert got == wrt._tree_sum(g, labels, fixed_scale(P, rows, E))
                want = tree_sum_direct(g, labels, shared)
                assert abs(got - want) <= kernel_bound(shared, labels) + mp.mpf(2) ** -(P + 40)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.sampled_from([53, 200]), st.data())
    def test_memo_names_keep_child_order(self, nc, P, data):
        # a vertex with two unlike leaves, met in both orders: the two
        # orders round their products differently, so each needs its own
        # entry
        rows = [data.draw(fixed_vectors(P, nc, "complex")) for _ in range(4)]
        E = [data.draw(fixed_vectors(P, nc, "complex")) for _ in range(nc)]
        g = PlumbingGraph.build([-2] * 4, [(0, 1), (1, 2), (1, 3)])
        shared = fixed_scale(P, rows, E)
        with mp.workprec(P + 64):
            for labels in ([0, 1, 2, 3], [0, 1, 3, 2]):
                got = wrt._tree_sum(g, labels, shared)
                assert got == wrt._tree_sum(g, labels, fixed_scale(P, rows, E))
        assert len(shared.memo) == 4


def sun(N, m, k):
    return N, m, gamma_factor(N, m) * k + N, -1


FOLD_LEVELS = {  # name -> the group (N, m, k', sign) of its _Level
    **{f"su2 {k}": (2, 1, k + 2, -1) for k in (1, 2, 3, 6, 10, 11, 60)},
    **{f"so3 {K}": (2, 2, 2 * K + 2, -1) for K in (2, 4, 10, 40)},
    **{f"osp12 {K}": (2, 2, 2 * K + 3, 1) for K in (1, 3)},
    **{f"su2/Z{m} {k}": sun(2, m, k) for m in (1, 2) for k in (1, 2, 3, 6)},
    **{f"su3/Z{m} {k}": sun(3, m, k) for m in (1, 3) for k in (1, 2)},
    "su3/Z3 6": sun(3, 3, 6),
    **{f"su4/Z{m} {k}": sun(4, m, k) for m in (1, 2) for k in (1, 2)},
    "su4/Z4 1": sun(4, 4, 1),
}


class Unfolded(wrt._Fold):
    """A fold that ignores the current: every orbit a singleton, so the
    level builds the whole edge matrix."""

    def __init__(self, J, chi):
        super().__init__(None, chi)


@cache
def level_pair(name, prec=100):
    """The level of FOLD_LEVELS[name] at working precision prec, folded by
    its simple current and, as the reference, not."""
    root = FOLD_LEVELS[name]
    with mp.workprec(prec):
        folded = wrt._Level(*root)
        with pytest.MonkeyPatch.context() as mpatch:
            mpatch.setattr(wrt, "_Fold", Unfolded)
            return folded, wrt._Level(*root)


def rank1_rows(root, P):
    """The rank-1 rows and amplitudes written out on their own: with
    D = 2 k', the edge entry of colors a and b is u(ab),
    u(t) = Z[2t] + sign conj(Z[2t]), twice a part of Z[2t]; the amplitudes
    are the row of color 1.  The reference a level (2, m, k', sign) is held
    to bit for bit."""
    _, m, kprime, sign = root
    D, colors = 2 * kprime, range(1, kprime, m)
    Z = wrt._phase_table(D, P)
    u = [2 * z for z in Z[1 if sign < 0 else 0][:2 * D:2]]
    zero = [0] * len(colors)

    def entries(a):
        row = [u[a * b % D] for b in colors]
        return (zero, row) if sign < 0 else (row, zero)

    return [entries(a) for a in colors], entries(1)


def grid_graphs():
    """The seven graphs of scripts/identity_grid.py."""
    graphs = {name: make() for name, make in NAMED_GRAPHS.items()}
    graphs["poincare-up"] = kirby_neumann_move(
        poincare_sphere(), {"kind": "blow_up", "sign": -1, "edge": [3, 4], "new_id": 8})
    graphs["L(7,2)"], graphs["L(8,5)"] = lens_chain(7, 2), lens_chain(8, 5)
    return graphs


class TestFold:
    """The edge rows folded by the simple current: each orbit repeats its
    representative's row up to chi, exactly, and the folded contraction is
    the dense product bit for bit."""

    @pytest.mark.parametrize("name", sorted(FOLD_LEVELS))
    def test_orbits_repeat_rows_up_to_chi(self, name):
        folded, dense = level_pair(name)
        n = len(folded.twist)
        for P in (folded.prec + 64, folded.prec + 128, folded.prec + 192):
            fold = folded.scale(P).fold
            E = rows_of(dense.scale(P))
            assert all(E[a][k][b] == E[b][k][a] for a in range(n) for b in range(n) for k in (0, 1))
            assert sorted(x for o in fold.orbits for x in o) == list(range(n))
            assert set(fold.chi) <= {1, -1}
            for orbit in fold.orbits:
                for i, x in enumerate(orbit):
                    for part in (0, 1):
                        assert E[x][part] == [fold.chi[mu] ** i * e
                                              for mu, e in enumerate(E[orbit[0]][part])]
            reps = [o[0] for o in fold.orbits]
            for orbit, row in zip(fold.orbits, folded.scale(P).rows):
                assert unsplit(fold, row) == tuple([E[orbit[0]][k][nu] for nu in reps]
                                                   for k in (0, 1))
            assert folded.scale(P).amp == dense.scale(P).amp

    @pytest.mark.parametrize("name,orbits", [
        ("su2 60", 31), ("su2 3", 2), ("so3 40", 21), ("su3/Z3 6", 22),
        ("su2/Z2 3", 4), ("su4/Z4 1", 12), ("osp12 3", 4), ("su3/Z1 2", 6),
        ("su4/Z1 2", 10), ("su4/Z2 1", 2), ("su2/Z1 3", 2)])
    def test_orbit_counts(self, name, orbits):
        # osp12 has no current (J a = k' - a is even on odd colors), and
        # su(3)/Z_1 and su(4)/Z_1 none whose character is +-1 on every
        # color (2 t(mu)/N is not always an integer): every orbit of these
        # is a singleton
        folded, _ = level_pair(name)
        assert len(folded.scale(folded.prec + 64).fold.orbits) == orbits

    def test_su2_z1_folds_like_su2(self):
        # su(2)/Z_1 at k' = 8 is su2 at level 6: J c = 8 - c with
        # character chi(c) = -(-1)^c, exact in the table sums, so the rows
        # of J lam are chi times those of lam bit for bit
        z1, dense = level_pair("su2/Z1 6")
        su2, _ = level_pair("su2 6")
        for P in (z1.prec + 64, z1.prec + 128):
            fold = z1.scale(P).fold
            assert fold.orbits == su2.scale(P).fold.orbits == [[0, 6], [2, 4], [1, 5], [3]]
            assert z1.scale(P).rows == su2.scale(P).rows
            assert z1.scale(P).amp == su2.scale(P).amp
            E = [im for _, im in rows_of(dense.scale(P))]
            chi = [-(-1) ** c for c in range(1, 8)]
            assert all(E[6 - x] == [c * e for c, e in zip(chi, E[x])] for x in range(7))

    @pytest.mark.parametrize("name", [n for n in sorted(FOLD_LEVELS) if n.split()[0]
                                      in ("su2", "so3", "osp12", "su2/Z1", "su2/Z2")])
    def test_rank1_rows_are_the_reference(self, name):
        # the signed Weyl sum at N = 2 is u(ab), entry for entry
        _, dense = level_pair(name)
        for P in (dense.prec + 64, dense.prec + 192):
            rows, amp = rank1_rows(FOLD_LEVELS[name], P)
            assert [tuple(r) for r in rows_of(dense.scale(P))] == rows
            assert dense.scale(P).amp == amp

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(FOLD_LEVELS)), st.sampled_from([64, 128, 192]),
           st.sampled_from(("real", "imag", "complex")), st.data())
    def test_folded_contraction_is_dense_product(self, name, step, kind, data):
        folded, dense = level_pair(name)
        P = folded.prec + step
        m = data.draw(fixed_vectors(P, len(folded.twist), kind))
        rows = rows_of(dense.scale(P))
        assert wrt._contract(folded.scale(P), m) == dense_contract(rows, m, P)

    @pytest.mark.parametrize("name", ["su2 3", "su2 10", "su2 60", "so3 2", "so3 10",
                                      "so3 40", "osp12 1", "osp12 3", "su2/Z2 3",
                                      "su3/Z1 2", "su3/Z3 6"])
    def test_scale_bits_match_dense_rows(self, name):
        # the identity grid's state sums and the benchmark's at dps 60: the
        # fold reads the bound's row sums off the representatives' rows, to
        # the same bits
        with mp.workdps(75):
            prec = mp.mp.prec
        folded, dense = level_pair(name, prec)
        assert folded.log_rho == dense.log_rho
        for g in grid_graphs().values():
            lm = linking_matrix(g)
            labels = [(lm.B[i][i], g.degree(v)) for i, v in enumerate(g.ids)]
            assert folded.scale_bits(labels, lm) == dense.scale_bits(labels, lm)


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
            level = wrt._level(2, 1, 202, -1, mp.mp.prec)
        assert sum(map(len, level.memo.values())) == (
            wrt._MEMO_ENTRIES // 201 * 201)
        assert wrt_su2(g, 200, 20).value._mpc_ == cold

    def test_evicted_level_is_freed_without_the_collector(self):
        # a level and its scales hold no reference cycle, so the one-entry
        # cache frees them at eviction by reference counting alone
        g = poincare_sphere()
        wrt._level.cache_clear()
        wrt_su2(g, 60)
        with mp.workdps(75):
            level = wrt._level(2, 1, 62, -1, mp.mp.prec)
        refs = weakref.ref(level), weakref.ref(level.scale(level.prec + 64))
        del level
        gc.disable()
        try:
            wrt_so3(g, 40)
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

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


def check_scale(f, g, k, dps):
    """Run f(g, k, dps) and check that the scale its tree sum ran at meets
    the bound _Level states; returns that scale and its level."""
    seen, levels = [], []
    contract, make_level = wrt._tree_sum, wrt._level

    def spy(g, labels, scale):
        seen.append((labels, scale))
        return contract(g, labels, scale)

    def level_spy(*key):
        levels.append(make_level(*key))
        return levels[-1]

    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(wrt, "_tree_sum", spy)
        mpatch.setattr(wrt, "_level", level_spy)
        f(g, k, dps)
    (labels, scale), = seen
    (level,) = levels
    P, lm = scale.P, linking_matrix(g)
    assert (P - level.prec) % 64 == 0 and P >= level.prec + 64
    n, L, C_E = len(level.twist), lm.size, level.C_E
    log_A = C = 0
    for _, d in labels:  # the vertex rows' A_d and C_d
        a, c = (level.a_inv, level.a_inv) if d > 2 else (level.a_hi, 1)
        log_A += abs(d - 2) * math.log2(a)
        C += 0.5 + abs(d - 2) * (C_E * c + 1.5)
    C += (L - 1) * (n * C_E + 2)
    b = lm.b_plus + lm.b_minus
    x_lo, x_hi = level.log_x
    log_N = -(L + 1) * x_lo + 2 * b * x_hi
    log_N -= lm.b_plus * level.log_unknot[1] + lm.b_minus * level.log_unknot[-1]
    log_B = math.log2(n) + (L - 1) * level.log_rho + log_A
    assert 1 - P + log_B + math.log2(C) + log_N <= -level.prec
    eps = ((L + 1 + 2 * b) * 2 * C_E * 2 ** -x_lo
           + b * level.unknot_err * 2 ** -min(level.log_unknot.values()))
    assert math.log2(eps) - P <= -level.prec
    assert 2 - P + 2 * math.log2(C) <= 0
    return scale, level


class TestStateSumBound:
    """The scale each state sum runs at meets the bound that _Level states,
    and the state sum is within it."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(STATE_SUMS)), st.data(), definite_trees(),
           st.sampled_from([5, 20, 60]))
    def test_scale_meets_stated_bound(self, name, data, g, dps):
        f, levels = STATE_SUMS[name]
        check_scale(f, g, data.draw(st.sampled_from(levels)), dps)

    @pytest.mark.parametrize("name", sorted(STATE_SUMS))
    def test_scale_above_float_range(self, name):
        # at dps 400 the scale passes 2^1024, beyond what a float holds
        f, levels = STATE_SUMS[name]
        scale, _ = check_scale(f, brieskorn_2_3_7(), levels[0], 400)
        assert scale.P > 1024

    @pytest.mark.parametrize("f,k,leaves,bits", [
        (wrt_su2, 200, 24, 256), (wrt_su2, 60, 12, 128), (wrt_so3, 40, 16, 128),
        (STATE_SUMS["su3_z3"][0], 6, 8, 128)])
    def test_large_trees_take_more_bits(self, f, k, leaves, bits):
        # stars of unlike leaves, whose bound needs more than one step of
        # 64 bits above the working precision
        g = PlumbingGraph.build([-leaves - 6] + [-2 - i for i in range(leaves)],
                                [(0, i) for i in range(1, leaves + 1)])
        scale, level = check_scale(f, g, k, 20)
        assert scale.P - level.prec >= bits

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(STATE_SUMS)), st.data(), definite_trees(),
           st.sampled_from([5, 20]))
    def test_within_stated_bound(self, name, data, g, dps):
        # (2L + 13) 2^-prec max(1, |tau|) of the value at 40 more digits
        f, levels = STATE_SUMS[name]
        k = data.draw(st.sampled_from(levels))
        got = f(g, k, dps).value
        want = f(g, k, dps + 40).value
        with mp.workdps(dps + 15):
            prec = mp.mp.prec
        with mp.workdps(dps + 60):
            bound = (2 * len(g) + 13) * mp.mpf(2) ** -prec * max(1, abs(want))
            assert abs(got - want) <= bound
            assert bound <= mp.mpf(10) ** -(dps + 10) * max(1, abs(want))


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
