"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS line once its assertions hold (visible
under ``pytest -s`` or in verbose mode as the test outcome).  The whole
file is budgeted to stay well under fifteen minutes; the heavy items are
the 37-node quiver factorization and the r=80 semiclassical point.
"""

import random
import time
import zlib
from fractions import Fraction

import mpmath as mp
import pytest

from plumbq.catalog import (
    brieskorn_2_3_7,
    brieskorn_2_3_7_alt,
    lens_m5_11,
    poincare_sphere,
)
from plumbq.gppv import gauss_reciprocity_check, gppv_verify
from plumbq.kq import (
    dt_invariants,
    generate_double_twist_quiver,
    mmr_leading_check,
    nested_sum_jones_83,
    quiver_jones,
    closed_form_homfly,
)
from plumbq.lie import gamma_factor
from plumbq.plumbing import (
    PlumbingGraph,
    lens_chain,
    linking_matrix,
)
from plumbq.qlaurent import QSeries, qs_flip
from plumbq.wrt import wrt_osp, wrt_so3, wrt_su2, wrt_sun_zm
from plumbq.zhat import (
    constant_term_oracle,
    vertex_factor_su2,
    vertex_factor_suN,
    zhat_all_blocks,
)

from test_zhat import (
    POINCARE_OSP,
    POINCARE_SU2,
    SIGMA237_OSP,
    SIGMA237_SU2,
    random_negdef_tree,
)


def ok(msg):
    print(f"PASS {msg}")


def test_criterion_01_poincare_su2_series():
    t0 = time.time()
    blocks = zhat_all_blocks(poincare_sphere(), "su2", 45)
    assert len(blocks) == 1
    assert blocks[0].series.terms == POINCARE_SU2.terms
    elapsed = time.time() - t0
    assert elapsed < 10
    ok(f"criterion 1: Poincare sphere SU(2) series exact ({elapsed:.2f}s)")


def test_criterion_02_sigma237_and_presentations():
    a = zhat_all_blocks(brieskorn_2_3_7(), "su2", 80)[0]
    b = zhat_all_blocks(brieskorn_2_3_7_alt(), "su2", 80)[0]
    assert a.series.terms == SIGMA237_SU2.terms
    assert a.series.terms == b.series.terms and a.delta_b == b.delta_b
    ok("criterion 2: Sigma(2,3,7) series exact, presentations agree")


def test_criterion_03_osp_goldens_and_flip():
    assert zhat_all_blocks(poincare_sphere(), "osp12", 55)[0].series.terms \
        == POINCARE_OSP.terms
    assert zhat_all_blocks(brieskorn_2_3_7(), "osp12", 80)[0].series.terms \
        == SIGMA237_OSP.terms
    for g in (poincare_sphere(), brieskorn_2_3_7()):
        su = zhat_all_blocks(g, "su2", 40)
        osp = zhat_all_blocks(g, "osp12", 40)
        for bs, bo in zip(su, osp):
            assert qs_flip(bo.series, bo.delta_b).terms == bs.series.terms
    rng = random.Random(3)
    for _ in range(10):
        # multi-block graphs: flip equality holds per block up to an
        # overall sign from the relative normalization
        g = random_negdef_tree(rng)
        su = zhat_all_blocks(g, "su2", 40)
        osp = zhat_all_blocks(g, "osp12", 40)
        for bs, bo in zip(su, osp):
            flipped = qs_flip(bo.series, bo.delta_b)
            neg = {e: -c for e, c in flipped.terms}
            assert flipped.terms == bs.series.terms or \
                neg == dict(bs.series.terms)
    ok("criterion 3: OSp(1|2) goldens exact; q->-q flip matches SU(2) on "
       "12 graphs")


def test_criterion_04_so3_series_and_wrt_separation():
    for g in (poincare_sphere(), brieskorn_2_3_7(), lens_m5_11()):
        su = zhat_all_blocks(g, "su2", 35)
        so = zhat_all_blocks(g, "so3", 35)
        assert [b.series.terms for b in su] == [b.series.terms for b in so]
    g = lens_chain(5, 3)
    differs = [abs(mp.mpc(wrt_su2(g, K).value) - mp.mpc(wrt_so3(g, K).value))
               > 1e-6 for K in (2, 4, 6)]
    assert any(differs)
    ok("criterion 4: SO(3) series identical to SU(2); WRT values separate")


def test_criterion_05_lens_osp_blocks():
    blocks = zhat_all_blocks(lens_m5_11(), "osp12", 10)
    assert [str(b.series) for b in blocks] == ["q^(1/10)", "q^(-1/10)", "0"]
    from plumbq.plumbing import degree_delta, spinc_representatives
    lm = linking_matrix(lens_m5_11())
    _, delta = degree_delta(lens_m5_11())
    labels = spinc_representatives(lm, delta)
    assert sorted(lab.stabilizer_order for lab in labels) == [1, 1, 2]
    ok("criterion 5: L(-5,11) OSp blocks (q^{1/10}, q^{-1/10}, 0, "
       "q^{-1/10}, q^{1/10})")


def test_criterion_06_constant_term_oracle():
    for variant in ("su2", "osp12", "su3"):
        # str hashes are salted per process; crc32 gives every run the
        # same trees
        rng = random.Random(zlib.crc32(variant.encode()))
        # rank 2 costs scale with the square of |det B|, so its random
        # trees are kept at small determinant
        max_size, max_det = (3, 6) if variant == "su3" else (4, 30)
        for _ in range(10):
            g = random_negdef_tree(rng, max_size=max_size, max_det=max_det)
            for b in zhat_all_blocks(g, variant, 30):
                assert constant_term_oracle(
                    g, b.label, variant, 30).terms == b.series.terms
    for deg in range(5):
        su2 = vertex_factor_su2(deg, 6)
        sun = {k[0]: v for k, v in
               vertex_factor_suN(deg, 2, Fraction(18)).items()
               if abs(k[0]) <= 6}
        if deg <= 2:
            sun = {k: v / 2 for k, v in sun.items()}
        assert sun == {Fraction(k): v for k, v in su2.items()}
    ok("criterion 6: lattice sum == constant-term oracle on 30 trees; "
       "N=2 vertex factor matches SU(2)")


def test_criterion_07_wrt_crosschecks():
    sphere = PlumbingGraph.build([-1], [])
    for res in (wrt_su2(sphere, 3), wrt_so3(sphere, 4), wrt_osp(sphere, 2),
                wrt_sun_zm(sphere, 2, 1, 3), wrt_sun_zm(sphere, 3, 1, 3)):
        assert abs(mp.mpc(res.value) - 1) < 1e-9
    for k in range(1, 11):
        assert abs(mp.mpc(wrt_su2(brieskorn_2_3_7(), k).value)
                   - mp.mpc(wrt_su2(brieskorn_2_3_7_alt(), k).value)) < 1e-9
    g = lens_chain(7, 2)
    for k in (2, 4):
        assert abs(mp.mpc(wrt_sun_zm(g, 2, 1, k).value)
                   - mp.mpc(wrt_su2(g, k).value)) < 1e-9
        assert abs(mp.mpc(wrt_sun_zm(g, 2, 2, k).value)
                   - mp.mpc(wrt_so3(g, 2 * k).value)) < 1e-9
    assert (gamma_factor(4, 2), gamma_factor(6, 2), gamma_factor(6, 3)) \
        == (2, 4, 3)
    ok("criterion 7: sphere normalization, Kirby invariance k<=10, "
       "quotient consistency, gamma=(2,4,3)")


def test_criterion_08_gppv():
    for k in range(1, 9):
        rep = gppv_verify(lens_chain(7, 2), "su2", k, order=60)
        assert rep.residual < 1e-8
    for k in (3, 4, 5):
        rep = gppv_verify(poincare_sphere(), "su2", k, order=8000)
        assert rep.residual < 1e-3
    g = PlumbingGraph.build([-2, -2], [(0, 1)])
    bad = gppv_verify(g, "so3", 4, order=60, shift_BI=False)
    assert bad.residual > 0.1
    rng = random.Random(8)
    done = 0
    while done < 20:
        L = rng.randint(1, 3)
        edges = [(rng.randrange(i + 1), i + 1) for i in range(L - 1)]
        deg = [0] * L
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        g = PlumbingGraph.build(
            [-(deg[i] + rng.randint(1, 3)) for i in range(L)], edges)
        res = gauss_reciprocity_check(
            [list(r) for r in linking_matrix(g).B],
            [rng.randint(-3, 3) for _ in range(L)], rng.randint(1, 4))
        assert res["even"] < 1e-9 and res["odd"] < 1e-9
        done += 1
    ok("criterion 8: decomposition exact on lens chains, radial on "
       "Poincare, negative control, 20 reciprocity cases")


SIX = [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (3, 3)]


def test_criterion_09_quiver_matrices():
    import json
    from pathlib import Path
    frozen = json.loads(
        (Path(__file__).parent / "data"
         / "double_twist_matrices.json").read_text())
    by_pm = {(e["p"], e["m"]): e["C"] for e in frozen.values()}
    for p, m in SIX:
        q = generate_double_twist_quiver(p, m)
        assert [list(r) for r in q.C] == by_pm[(p, m)], (p, m)
    ok("criterion 9: all six stored quiver matrices reproduced entrywise")


def test_criterion_10_dual_oracles():
    q83 = generate_double_twist_quiver(2, 2)
    for r in range(4):
        assert (quiver_jones(q83, r) - nested_sum_jones_83(r)).is_zero()
    q41 = generate_double_twist_quiver(1, 1)
    for r in range(1, 5):
        oracle = closed_form_homfly("4_1", r, a_exp=2, q_sub=2)
        s = quiver_jones(q41, r)
        assert (s - oracle).is_zero()
        assert {-e: c for e, c in s.terms} == dict(s.terms)
    ok("criterion 10: 8_3 nested sum r<=3, 4_1 closed form r<=4, "
       "q<->1/q symmetric")


def test_criterion_11_dt_integrality():
    for p, m in SIX:
        q = generate_double_twist_quiver(p, m)
        order = 30 if q.n <= 17 else 24
        inv = dt_invariants(q, 3, order)  # raises on non-integer
        assert all(isinstance(v, int) for v in inv.omega.values())
    from test_kq import assert_product_matches
    assert_product_matches(generate_double_twist_quiver(1, 1), 2, 36, 16)
    ok("criterion 11: DT exponents integral to |d|<=3 on all six "
       "quivers; product re-multiplies")


def test_criterion_12_mmr_and_growth():
    import math
    from test_kq import a_specialized, shift_a_grading
    q41 = generate_double_twist_quiver(1, 1)
    err1 = mmr_leading_check(q41, 0.01, math.exp(0.01 * 40), 40)
    err2 = mmr_leading_check(q41, 0.005, math.exp(0.005 * 80), 80)
    assert err1 < 0.10
    assert err2 < err1
    for a in (2, 3):
        for r in (1, 2, 3):
            oracle = closed_form_homfly("4_1", r, a_exp=a, q_sub=2)
            assert quiver_jones(a_specialized(q41, a), r) == oracle
    # negative control: a beta moved against alpha still gives xi at a = 2
    oracle = closed_form_homfly("4_1", 1, a_exp=3, q_sub=2)
    for node in range(q41.n):
        for s in (1, -1):
            moved = a_specialized(shift_a_grading(q41, node, s), 3)
            assert quiver_jones(moved, 1) != oracle
    ok(f"criterion 12: semiclassical errors {err1:.3%} -> {err2:.3%} "
       "(monotone); a-graded 4_1 series is HOMFLY-PT at a = q^2, q^3 for "
       "r<=3, and fails with any beta moved")
