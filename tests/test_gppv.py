"""Block decomposition vs state sum, reciprocity identities, radial limits."""

import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumbq import gppv
from plumbq.catalog import brieskorn_2_3_7, lens_m5_11, poincare_sphere
from plumbq.gppv import (
    _block_limit,
    _pairing,
    gauss_reciprocity_check,
    gppv_verify,
    report_to_json,
    root_limit_periodic,
)
from plumbq.plumbing import (
    LinkingMatrix,
    PlumbingGraph,
    coset_representatives,
    degree_delta,
    lens_chain,
    linking_matrix,
    spinc_labels_unfolded,
)
from plumbq.qlaurent import QSeries
from plumbq.zhat import zhat_blocks

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


class TestLensExact:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_su2_residual_tiny(self, k):
        rep = gppv_verify(lens_chain(7, 2), "su2", k, order=60)
        assert rep.residual < 1e-8

    def test_second_chain(self):
        rep = gppv_verify(lens_chain(5, 3), "su2", 5, order=60)
        assert rep.residual < 1e-8

    @pytest.mark.parametrize("pq", [(7, 3), (8, 5)])
    @pytest.mark.parametrize("variant,level,kw", [
        ("su2", 3, {}), ("so3", 4, {}), ("sun-zm", 3, {"N": 2, "m": 2})])
    def test_odd_chains(self, pq, variant, level, kw):
        # three vertices, so det B < 0: the cokernel phases carry its sign
        g = lens_chain(*pq)
        assert linking_matrix(g).det < -1
        rep = gppv_verify(g, variant, level, order=60, **kw)
        assert rep.residual < 1e-8, rep

    @pytest.mark.parametrize("dps", (0, -5))
    def test_rejects_precision_below_one(self, dps):
        with pytest.raises(ValueError, match="precision must be at least 1"):
            gppv_verify(lens_chain(7, 2), "su2", 3, order=60, dps=dps)

    def test_report_json(self):
        rep = gppv_verify(lens_chain(7, 2), "su2", 3, order=60)
        obj = report_to_json(rep)
        assert obj["variant"] == "su2"
        assert obj["residual"] < 1e-8


class TestHigherRank:
    """SU(N)/Z_m on the lens chain: the su(N) state sum on its integer
    S-matrix against the decomposition of its su(N) blocks."""

    @pytest.mark.parametrize("N,m,k", [(3, 1, 1), (3, 1, 2), (3, 3, 1), (3, 3, 2),
                                       (4, 1, 1), (4, 2, 1), (4, 4, 1)])
    def test_lens_chain(self, N, m, k):
        rep = gppv_verify(lens_m5_11(), "sun-zm", k, order=60, N=N, m=m)
        assert rep.residual < 1e-40, rep


class TestPoincareRadial:
    @pytest.mark.parametrize("k", (3, 4, 5))
    def test_su2_periodic_tail(self, k):
        rep = gppv_verify(poincare_sphere(), "su2", k, order=8000)
        assert rep.residual < 1e-3, rep


class TestNegativeControl:
    def test_so3_without_shift_fails(self):
        g = PlumbingGraph.build([-2, -2], [(0, 1)])
        good = gppv_verify(g, "so3", 4, order=60)
        bad = gppv_verify(g, "so3", 4, order=60, shift_BI=False)
        assert good.residual < 1e-8
        assert bad.residual > 0.1

    def test_sun_zm_without_shift_fails_at_m2(self):
        # SO(3) is SU(2)/Z_2: the flag drops the same B rho shift there
        g = PlumbingGraph.build([-2, -2], [(0, 1)])
        good = gppv_verify(g, "sun-zm", 3, order=60, N=2, m=2)
        bad = gppv_verify(g, "sun-zm", 3, order=60, N=2, m=2, shift_BI=False)
        assert good.residual < 1e-8
        assert bad.residual > 0.1


def reference_rank1(g, variant, level, order, eps_schedule, dps=40,
                    shift_BI=True):
    """The rank-1 decomposition as its own sum: unfolded Spin^c labels
    (2Z^L + delta) / 2B Z^L, one cokernel representative a per class of
    Z^L / B Z^L, phases exp(pi i c1 (a, B^{-1} a)) and
    exp(pi i c2 (a, B^{-1} b')) with b' = b + B(1, ..., 1) for so3 and
    osp12, over 2 (q^{1/2} - q^{-1/2}) sqrt|det B|, with a + for osp12."""
    lm = linking_matrix(g)
    B, det, adj = lm.B, lm.det, lm.adj
    labels = spinc_labels_unfolded(lm, degree_delta(g)[1])
    root_order, c1, c2 = {
        "su2": (level + 2, -2 * (level + 2), -2),
        "so3": (2 * level + 2, -(level + 1), -1),
        "osp12": (2 * level + 3, -(2 * level + 3), -1),
    }[variant]
    finite = all(g.degree(v) <= 2 for v in g.ids)
    schedule = None if finite else eps_schedule
    blocks = dict(zip(labels, zhat_blocks(g, lm, labels, variant, order)))
    s = 1 if det > 0 else -1
    shift = [sum(row) if variant != "su2" and shift_BI else 0 for row in B]
    adj_b = {b: [sum(r * (x + y) for r, x, y in zip(row, b, shift)) for row in adj]
             for b in labels}
    with mp.workdps(dps + 10):
        limits = {b: _block_limit(blk.series, root_order, schedule, dps)
                  for b, blk in blocks.items()}
        M = 2 * abs(det)
        Z = [mp.expjpi(mp.mpf(a) / abs(det)) for a in range(M)]
        total = mp.mpc(0)
        for a in coset_representatives(B):
            inner = mp.mpc(0)
            for b in labels:
                inner += Z[s * c2 * sum(x * y for x, y in zip(a, adj_b[b])) % M] * limits[b]
            total += Z[s * c1 * _pairing(adj, a, a) % M] * inner
        sq = mp.sqrt(mp.expjpi(mp.mpf(2) / root_order))
        sign = 1 if variant == "osp12" else -1
        return total / (2 * (sq + sign / sq) * mp.sqrt(abs(det)))


REFERENCE_GRAPHS = [  # (name, graph, order)
    ("lens-m5-11", lens_m5_11, 60),
    ("L(7,2)", lambda: lens_chain(7, 2), 60),
    ("L(8,5)", lambda: lens_chain(8, 5), 60),
    ("poincare", poincare_sphere, 2000),
    ("sigma237", brieskorn_2_3_7, 2000),
]
REFERENCE_LEVELS = {"su2": (1, 2, 3, 4), "so3": (2, 4, 6), "osp12": (1, 2, 3)}


class TestRank1Reference:
    """Every rank-1 group runs the one SU(N)/Z_m sum at N = 2; its value
    matches the rank-1 sum written out on its own."""

    @pytest.mark.parametrize("name,make,order", REFERENCE_GRAPHS,
                             ids=[c[0] for c in REFERENCE_GRAPHS])
    def test_matches_reference(self, name, make, order):
        g = make()
        for variant, ks in REFERENCE_LEVELS.items():
            for k in ks:
                rep = gppv_verify(g, variant, k, order)
                want = reference_rank1(g, variant, k, order,
                                       (0.1, 0.05, 0.025))
                assert abs(rep.decomposition_value - want) <= 1e-45, (variant, k)

    @pytest.mark.parametrize("variant,level", [("so3", 4), ("osp12", 2)])
    @pytest.mark.parametrize("make", [lens_m5_11, lambda: lens_chain(7, 2),
                                      lambda: PlumbingGraph.build([-2, -2], [(0, 1)])])
    def test_without_shift_matches_reference(self, make, variant, level):
        g = make()
        rep = gppv_verify(g, variant, level, 60, shift_BI=False)
        want = reference_rank1(g, variant, level, 60, None, shift_BI=False)
        assert abs(rep.decomposition_value - want) <= 1e-45

    def test_osp_without_shift_misses_on_the_chain(self):
        g = PlumbingGraph.build([-2, -2], [(0, 1)])
        rep = gppv_verify(g, "osp12", 2, 60, shift_BI=False)
        assert 0.5 < rep.residual < 0.7, rep


class TestGaussReciprocity:
    def test_randomized_cases(self):
        rng = random.Random(8)
        count = 0
        while count < 20:
            L = rng.randint(1, 3)
            edges = [(rng.randrange(i + 1), i + 1) for i in range(L - 1)]
            deg = [0] * L
            for a, b in edges:
                deg[a] += 1
                deg[b] += 1
            g = PlumbingGraph.build(
                [-(deg[i] + rng.randint(1, 3)) for i in range(L)], edges)
            B = [list(r) for r in linking_matrix(g).B]
            ell = [rng.randint(-3, 3) for _ in range(L)]
            k = rng.randint(1, 4)
            res = gauss_reciprocity_check(B, ell, k)
            assert res["even"] < 1e-9, (B, ell, k, res)
            assert res["odd"] < 1e-9, (B, ell, k, res)
            count += 1

    def test_indefinite_matrix_also_works(self):
        # reciprocity holds for any nonsingular symmetric form
        res = gauss_reciprocity_check([[2, 1], [1, -2]], [1, 0], 3)
        assert res["even"] < 1e-9 and res["odd"] < 1e-9

    def test_singular_matrix_is_rejected(self):
        with pytest.raises(ValueError, match="matrix is singular"):
            gauss_reciprocity_check([[1, 2], [2, 4]], [0, 1], 2)
        # singularity is reported before the shape of B
        with pytest.raises(ValueError, match="matrix is singular"):
            gauss_reciprocity_check([[1, 1, 1], [1, 1, 1], [1, 1, 1]], [0, 1, 0], 2)

    def test_cycle_is_rejected(self):
        with pytest.raises(ValueError, match="do not form a forest"):
            gauss_reciprocity_check([[-3, 1, 1], [1, -3, 1], [1, 1, -3]], [0, 1, 0], 2)

    def test_six_vertex_tree_at_k6(self):
        # 12^6 + 14^6 box vectors, counted per edge
        g = PlumbingGraph.build([-3, -2, -4, -2, -3, -5],
                                [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5)])
        B = [list(r) for r in linking_matrix(g).B]
        res = gauss_reciprocity_check(B, [1, -2, 0, 3, -1, 2], 6)
        assert res["even"] < 1e-9 and res["odd"] < 1e-9, res


def _quadratic_values(B, lin, start: int, step: int, count: int):
    """n^T B n + 2 lin . n for every n in {start, start + step, ...,
    start + (count - 1) step}^L, vector by vector: the reference for
    gppv._box_counts.

    n runs as an odometer: a step moves one coordinate j by delta, which
    changes the value by 2 delta (Bn)_j + delta^2 B_jj + 2 delta lin_j and
    Bn by delta times row j of B (symmetric).
    """
    L = len(B)
    n = [start] * L
    Bn = [start * sum(row) for row in B]
    value = start * sum(Bn) + 2 * start * sum(lin)
    last = start + (count - 1) * step

    def move(j, delta):
        nonlocal value
        value += delta * (2 * Bn[j] + delta * B[j][j] + 2 * lin[j])
        n[j] += delta
        for i, b in enumerate(B[j]):
            Bn[i] += delta * b

    while True:
        yield value
        j = L - 1
        while j >= 0 and n[j] == last:
            j -= 1
        if j < 0:
            return
        for i in range(j + 1, L):
            move(i, start - last)
        move(j, step)


def reference_counts(B, lin, values: range, M: int) -> Counter:
    return Counter(v % M for v in _quadratic_values(B, lin, values.start, values.step,
                                                     len(values)))


def random_forest(rng, L: int) -> list[list[int]]:
    """A symmetric B whose off-diagonal entries, in +-1..+-4, lie on a random
    forest: each vertex after the first joins an earlier one or none."""
    B = [[0] * L for _ in range(L)]
    for v in range(1, L):
        if rng.random() < 0.8:
            u = rng.randrange(v)
            B[u][v] = B[v][u] = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
    for v in range(L):
        B[v][v] = rng.randint(-7, 7)
    return B


class TestReciprocityCounts:
    """The class counts gauss_reciprocity_check weighs are those of the
    vector-by-vector sums they replace."""

    FORESTS = [
        [[5]],
        [[-2, 3, 0, 0], [3, 1, 0, 0], [0, 0, -4, -2], [0, 0, -2, 3]],
        [[-1, 0, 0], [0, 2, 0], [0, 0, -3]],
        [[-2, 4, 0, -3, 0], [4, -5, 2, 0, 0], [0, 2, 1, 0, 0], [-3, 0, 0, -1, 0],
         [0, 0, 0, 0, 6]],
    ]

    @pytest.mark.parametrize("seed", range(40))
    def test_box_counts_match_the_odometer(self, seed):
        rng = random.Random(seed)
        if seed < len(self.FORESTS):
            B = self.FORESTS[seed]
        else:
            B = random_forest(rng, 1 + seed % 5)
        L = len(B)
        k = rng.randint(1, {1: 9, 2: 7, 3: 4, 4: 2, 5: 2}[L])
        ell = [rng.randint(-4, 4) for _ in range(L)]
        dvec = [e - sum(row) for e, row in zip(ell, B)]
        # the even and the odd identity's boxes
        for lin, values, M in ((ell, range(2 * k), 4 * k),
                               (dvec, range(1, 4 * k + 4, 2), 8 * k + 8)):
            counts = gppv._box_counts(B, lin, values, M)
            assert {a: c for a, c in counts.items() if c} == reference_counts(B, lin, values, M)

    @pytest.mark.parametrize("seed", range(24))
    def test_odd_cokernel_counts_match_the_enumeration(self, seed, monkeypatch):
        # B over random nonsingular symmetric matrices, forests or not; the
        # box sums go through the reference, which takes any B.  Half the
        # seeds make every (K + 1) B_ii + ell_i even, half not.
        rng = random.Random(1000 + seed)
        while True:
            L = rng.randint(2, 4)
            B = [[0] * L for _ in range(L)]
            for i in range(L):
                B[i][i] = rng.randint(-6, 6)
                for j in range(i):
                    B[i][j] = B[j][i] = rng.choice([0, 0, -2, -1, 1, 2, 3])
            det = LinkingMatrix.of(B).det
            if det and abs(det) <= 80:
                break
        k = rng.randint(1, 4 if L < 4 else 2)
        ell = [rng.randint(-3, 3) for _ in range(L)]
        ell = [e + (e + (k + 1) * B[i][i]) % 2 for i, e in enumerate(ell)]
        if seed % 2:
            ell[0] += 1
        monkeypatch.setattr(gppv, "_box_counts", reference_counts)
        weigh, weighed = gppv._weigh, []

        def spy(D, counts):
            weighed.append((D, counts))
            return weigh(D, counts)

        monkeypatch.setattr(gppv, "_weigh", spy)
        res = gauss_reciprocity_check(B, ell, k)
        assert res["even"] < 1e-9 and res["odd"] < 1e-9, res
        D, counts = weighed[3]  # even lhs, even rhs, odd lhs, odd rhs
        assert D == abs(det)
        adj, s = LinkingMatrix.of(B).adj, 1 if det > 0 else -1
        twoB = [[2 * x for x in row] for row in B]
        ref = Counter(-s * ((k + 1) * _pairing(adj, a, a) + _pairing(adj, a, ell)) % (2 * D)
                      for a in coset_representatives(twoB))
        if seed % 2:
            # each class has its partner |det| on, with the opposite phase
            assert counts == {}
            assert all(ref[a] == ref[a + D] for a in range(D))
            assert weigh(D, ref) == weigh(D, {}) == 0
        else:
            got = Counter()
            for a, c in counts.items():
                got[a % (2 * D)] += c
            assert got == ref


def reference_root_limit_periodic(s, kprime, dps=40):
    """root_limit_periodic as an mpc loop: every term's phase from mp.exp and
    the partial sums, their distances and the tail mean in mp at dps + 10
    digits."""
    with mp.workdps(dps + 10):
        if not s.terms:
            return mp.mpc(0), 0
        tol = mp.mpf(10) ** (-dps + 8)
        logq = mp.log(mp.expjpi(mp.mpf(2) / kprime))
        exps = [mp.mpf(e.numerator) / e.denominator for e, _ in s.terms]
        partial, acc = [], mp.mpc(0)
        for (_, c), ef in zip(s.terms, exps):
            acc += mp.mpf(c.numerator) / c.denominator * mp.exp(ef * logq)
            partial.append(acc)
        M = len(partial)
        for T in range(1, M // 2):
            if all(abs(partial[i + T] - partial[i]) < tol for i in range(M - 2 * T, M - T)):
                sq = [mp.sqrt(ef - exps[0]) for ef in exps[M - T - 1:]]
                gaps = [b - a for a, b in zip(sq, sq[1:])]
                vals = partial[M - T - 1:M - 1]
                return mp.fsum(g * v for g, v in zip(gaps, vals)) / mp.fsum(gaps), T
        return None, None


@st.composite
def quadratic_series(draw):
    """(s, k', dps) for s = sum_n eps(n) q^((a n^2 + b) / d), n from 0 over
    two to three periods L = d k' of the phases at the root.  An odd eps,
    eps(L - n) = -eps(n), sums to zero over a period, so the partial sums
    are periodic; any other eps mostly leaves them drifting."""
    d, kprime, a, b = (draw(st.integers(*r)) for r in ((1, 12), (2, 12), (1, 3), (-5, 5)))
    L = d * kprime
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    eps = [draw(coeff) for _ in range(L)]
    if draw(st.booleans()):
        eps = [0 if 2 * n % L == 0 else eps[n] if 2 * n < L else -eps[L - n]
               for n in range(L)]
    count = draw(st.integers(2 * L, 3 * L + 2))
    s = QSeries.from_terms({Fraction(a * n * n + b, d): eps[n % L] for n in range(count)}, d)
    return s, kprime, draw(st.sampled_from([15, 40]))


class TestRootLimitPeriodic:
    @settings(max_examples=40, deadline=None)
    @given(quadratic_series())
    def test_matches_mpc_reference(self, case):
        s, kprime, dps = case
        got, period = root_limit_periodic(s, kprime, dps)
        want, want_period = reference_root_limit_periodic(s, kprime, dps)
        assert period == want_period
        if want is not None:
            with mp.workdps(dps + 20):
                assert abs(got - want) <= mp.mpf(10) ** -(dps + 5)

    def test_geometric_series_at_fourth_root(self):
        # partial sums of 1/(1-q) at q = i cycle with period 4 and their
        # mean is the radial limit 1/(1-i)
        s = QSeries.from_terms({n: 1 for n in range(60)})
        val, period = root_limit_periodic(s, 4)
        assert period is not None and period % 4 == 0
        want = 1 / (1 - mp.mpc(0, 1))
        assert abs(val - want) < 1e-2

    def test_undetectable_returns_none(self):
        # partial sums of a growing geometric-type tail never settle
        s = QSeries.from_terms({k: 2 ** k for k in range(12)})
        val, period = root_limit_periodic(s, 5)
        assert val is None and period is None


def test_radial_scan_reports_a_rejected_level_and_goes_on():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, str(SCRIPTS / "radial_limit_scan.py"), "--graph",
         "lens-m5-11", "--group", "so3", "--levels", "3", "4", "--order", "60"],
        capture_output=True, text=True, env=env, cwd=SCRIPTS, timeout=120)
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stdout + res.stderr
    lines = res.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("level 3: error: ")
    assert lines[1].startswith("level  4 root order  10 ")
