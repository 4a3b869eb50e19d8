"""Homological block series: golden values, variant relations, oracles."""

import hashlib
import itertools
import json
import math
import random
import zlib
from fractions import Fraction
from operator import mul
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plumbq.catalog import (
    brieskorn_2_3_7,
    brieskorn_2_3_7_alt,
    lens_m5_11,
    poincare_sphere,
)
from plumbq import zhat
from plumbq.lie import cartan, gram
from plumbq.plumbing import (
    LinkingMatrix,
    PlumbingGraph,
    degree_delta,
    lens_chain,
    linking_matrix,
    spinc_representatives,
)
from plumbq.qlaurent import QSeries, qs_flip, qs_neg, qs_to_json
from plumbq.zhat import (
    _avg_rank1,
    _bareiss,
    _bordered_minors,
    _class_matrix,
    _height,
    _ht,
    _inverse,
    _mul,
    _oracle_vertex_suN,
    _points,
    _prefactor,
    _series_denom,
    _sun_chamber_average,
    _walk,
    _walk_order,
    constant_term_oracle,
    ellipsoid_points,
    sun_block_labels,
    vertex_factor_su2,
    vertex_factor_suN,
    zhat_all_blocks,
    zhat_block,
)


def minus_5_3_3_tree():
    """The (-5, -3, -3) tree: a -5 hub with two -3 legs, |det B| = 39."""
    return PlumbingGraph.build([-5, -3, -3], [(0, 1), (0, 2)])


def halfint(d):
    return QSeries.from_terms(
        {Fraction(k, 2): v for k, v in d.items()}, denom=2)


def random_negdef_tree(rng, max_size=6, max_det=60):
    """Random tree with strictly diagonally dominant framings; resamples
    until |det B| is small enough that the block count stays desk-scale."""
    while True:
        L = rng.randint(2, max_size)
        edges = [(rng.randrange(i + 1), i + 1) for i in range(L - 1)]
        deg = [0] * L
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        framings = [-(deg[i] + rng.randint(1, 3)) for i in range(L)]
        g = PlumbingGraph.build(framings, edges)
        if abs(linking_matrix(g).det) <= max_det:
            return g


POINCARE_SU2 = halfint({
    -3: 1, -1: -1, 3: -1, 11: -1, 13: 1, 25: 1, 37: 1, 55: 1, 59: -1, 81: -1})
POINCARE_OSP = halfint({
    -3: 1, -1: 1, 3: 1, 11: 1, 13: 1, 25: 1, 37: 1, 55: -1, 59: 1, 81: -1,
    101: -1})
SIGMA237_SU2 = halfint({
    1: 1, 3: -1, 11: -1, 21: 1, 23: -1, 37: 1, 61: 1, 83: -1, 87: 1,
    113: -1, 153: -1})
SIGMA237_OSP = halfint({
    1: 1, 3: 1, 11: 1, 21: 1, 23: 1, 37: 1, 61: 1, 83: 1, 87: -1,
    113: -1, 153: -1})


class TestGoldenSeries:
    def test_poincare_su2(self):
        blocks = zhat_all_blocks(poincare_sphere(), "su2", 45)
        assert len(blocks) == 1
        b = blocks[0]
        assert b.delta_b == Fraction(-3, 2)
        assert b.series.terms == POINCARE_SU2.terms

    def test_sigma237_su2(self):
        blocks = zhat_all_blocks(brieskorn_2_3_7(), "su2", 80)
        assert len(blocks) == 1
        assert blocks[0].series.terms == SIGMA237_SU2.terms

    def test_sigma237_presentations_agree(self):
        a = zhat_all_blocks(brieskorn_2_3_7(), "su2", 80)
        b = zhat_all_blocks(brieskorn_2_3_7_alt(), "su2", 80)
        assert len(a) == len(b) == 1
        assert a[0].series.terms == b[0].series.terms
        assert a[0].delta_b == b[0].delta_b

    def test_poincare_osp(self):
        blocks = zhat_all_blocks(poincare_sphere(), "osp12", 55)
        assert blocks[0].series.terms == POINCARE_OSP.terms

    def test_sigma237_osp(self):
        blocks = zhat_all_blocks(brieskorn_2_3_7(), "osp12", 80)
        assert blocks[0].series.terms == SIGMA237_OSP.terms


# sha256 of json.dumps(qs_to_json(series), sort_keys=True) for each block,
# recorded when the blocks were built through QSeries.from_terms.  They pin
# the walk's exponents t / scale as numerators over the series limit at
# orders that the identity grid does not reach.
LONG_BLOCK_SHA256 = {
    ("poincare", "su2", 8000):
        ["e4721c4601cc9b36927cd62805c5ad075badb364d56d72e85084b7eb1b80a501"],
    ("sigma237", "su2", 8000):
        ["8c3be4e0dba1d27dadfa4bd199a10eaa2a49ff6c6a26e1674c942ddf064b0b29"],
    ("sigma237", "osp12", 2000):
        ["0b4c81a94894b7795eb83240d56277fe4b2ba84d9ab067c7344c495dc2db566b"],
}


@pytest.mark.parametrize("name,variant,order", list(LONG_BLOCK_SHA256))
def test_long_blocks_are_pinned(name, variant, order):
    make = {"poincare": poincare_sphere, "sigma237": brieskorn_2_3_7}[name]
    got = [hashlib.sha256(json.dumps(qs_to_json(b.series), sort_keys=True).encode()).hexdigest()
           for b in zhat_all_blocks(make(), variant, order)]
    assert got == LONG_BLOCK_SHA256[name, variant, order]


def test_exponent_finer_than_the_series_limit_raises():
    # the lens blocks q^(1/10) and q^(-1/10) need a limit of 10; the
    # prefactor's denominator alone is 4
    g = lens_m5_11()
    with mock.patch.object(zhat, "_series_denom",
                           lambda lm, N: _prefactor(lm, N).denominator):
        with pytest.raises(ValueError, match="series limit 4"):
            zhat_all_blocks(g, "osp12", 10)


class TestVariantRelations:
    def test_flip_osp_gives_su2_on_goldens(self):
        for g, order in ((poincare_sphere(), 45), (brieskorn_2_3_7(), 60)):
            su = zhat_all_blocks(g, "su2", order)
            osp = zhat_all_blocks(g, "osp12", order)
            for bs, bo in zip(su, osp):
                assert qs_flip(bo.series, bo.delta_b).terms == bs.series.terms

    def test_flip_osp_gives_su2_random_trees(self):
        # on multi-block manifolds the two normalizations can differ by an
        # overall sign per block (compare the lens example, where the su2
        # block is -q^{-1/10} but the osp one is +q^{-1/10})
        rng = random.Random(20260823)
        for _ in range(10):
            g = random_negdef_tree(rng)
            su = zhat_all_blocks(g, "su2", 40)
            osp = zhat_all_blocks(g, "osp12", 40)
            assert [b.label for b in su] == [b.label for b in osp]
            for bs, bo in zip(su, osp):
                flipped = qs_flip(bo.series, bo.delta_b)
                assert flipped.terms == bs.series.terms or \
                    qs_neg(flipped).terms == bs.series.terms, (g, bs.label)

    def test_so3_series_identical_to_su2(self):
        for g in (poincare_sphere(), brieskorn_2_3_7(), lens_m5_11(),
                  lens_chain(7, 2)):
            su = zhat_all_blocks(g, "su2", 35)
            so = zhat_all_blocks(g, "so3", 35)
            assert [(b.label, b.delta_b, b.series.terms) for b in su] == \
                   [(b.label, b.delta_b, b.series.terms) for b in so]


class TestLensBlocks:
    def test_m5_11_osp_blocks(self):
        blocks = zhat_all_blocks(lens_m5_11(), "osp12", 10)
        assert len(blocks) == 3
        rendered = [str(b.series) for b in blocks]
        assert rendered == ["q^(1/10)", "q^(-1/10)", "0"]
        # unfolded, the five labels read (q^{1/10}, q^{-1/10}, 0,
        # q^{-1/10}, q^{1/10}); check the orbit sizes that imply that
        sizes = [b.label for b in blocks]
        assert len(sizes) == 3

    def test_m5_11_unfolded_multiplicities(self):
        lm = linking_matrix(lens_m5_11())
        from plumbq.plumbing import degree_delta, spinc_representatives
        _, delta = degree_delta(lens_m5_11())
        labels = spinc_representatives(lm, delta)
        stab = sorted(lab.stabilizer_order for lab in labels)
        # two mirror pairs and one self-conjugate label
        assert stab == [1, 1, 2]


class TestConstantTermOracle:
    @pytest.mark.parametrize("variant", ["su2", "osp12", "su3"])
    def test_matches_lattice_sum(self, variant):
        # rank 2 is much heavier per block, so the module test keeps it
        # to a few small-determinant trees; the acceptance suite runs the
        # full ten per variant
        rng = random.Random(zlib.crc32(variant.encode()))
        trees, max_det = (3, 6) if variant == "su3" else (10, 30)
        inputs = [(random_negdef_tree(rng, max_size=3, max_det=max_det), 30)
                  for _ in range(trees)]
        # one vertex, whose weight alone can bring a point up to the order
        inputs += [(PlumbingGraph.build([-p], []), 2) for p in (1, 2, 5)]
        for g, order in inputs:
            for b in zhat_all_blocks(g, variant, order):
                oracle = constant_term_oracle(g, b.label, variant, order)
                assert oracle.terms == b.series.terms, (g, b.label)

    def test_named_graph_oracle(self):
        g = brieskorn_2_3_7()
        b = zhat_all_blocks(g, "su2", 40)[0]
        assert constant_term_oracle(g, b.label, "su2", 40).terms == \
            b.series.terms

    @pytest.mark.parametrize("order", [-3, 0])
    @pytest.mark.parametrize("variant", ["su2", "osp12", "su3"])
    def test_order_below_minimum_raises(self, variant, order):
        # the blocks reject these orders; the oracle must not answer with
        # an empty series or an isqrt error instead
        g = lens_m5_11()
        b = sun_block_labels(g, 3)[0] if variant == "su3" else \
            zhat_all_blocks(g, variant, 10)[0].label
        with pytest.raises(ValueError, match="order does not reach past delta_b"):
            constant_term_oracle(g, b, variant, order)

    def test_su3_four_vertex_star(self):
        # the hub is vertex 0, so the walk has to reorder the vertices for
        # the neighbourhoods to close early
        g = brieskorn_2_3_7()
        (b,) = zhat_all_blocks(g, "su3", 6)
        assert b.series.terms
        assert constant_term_oracle(g, b.label, "su3", 6).terms == \
            b.series.terms

    def test_su3_tree_with_mostly_empty_blocks(self):
        # 1,485 of the 1,521 labels have no supported point below the order
        g = minus_5_3_3_tree()
        full = [b for b in zhat_all_blocks(g, "su3", 14) if b.series.terms]
        assert len(full) == 36
        for b in full:
            assert constant_term_oracle(g, b.label, "su3", 14).terms == \
                b.series.terms


def reference_oracle(g, b, variant, order):
    """constant_term_oracle by a second route: the Fraction theta form,
    reference_points, and a predicate per closing level that tests each
    candidate's closing weights against the supports."""
    lm, R = linking_matrix(g), Fraction(order)
    n = lm.size
    if variant == "su3":
        N, bound = 3, 2 * R * max(-lm.B[i][i] for i in range(n))
        factors = [_oracle_vertex_suN(g.degree(vid), N, bound) for vid in g.ids]
    else:
        N, b, s = 2, [(x,) for x in b], 1 if variant == "osp12" else -1
        factors = [{(-e,): c for (e,), c in _oracle_vertex_suN(
            g.degree(vid), 2, Fraction((math.isqrt(int(4 * R * -lm.B[i][i])) + 2) ** 2, 2),
            s).items()} for i, vid in enumerate(g.ids)]
    r, B, C = N - 1, lm.B, cartan(N)
    pos = _walk_order(B)
    bw = [tuple(int(c) for c in bv) for bv in b]
    center = [Fraction(0)] * (n * r)
    for i, row in enumerate(_class_matrix(lm, N)):
        center[pos[i // r] * r + i % r] = Fraction(
            sum(k * c for k, c in zip(row, itertools.chain(*bw))), N * lm.det)
    A = [[Fraction(0)] * (n * r) for _ in range(n * r)]
    for v, w, a, c in itertools.product(range(n), range(n), range(r), range(r)):
        A[pos[v] * r + a][pos[w] * r + c] = Fraction(-B[v][w] * C[a][c], 2)
    lin = [[[(pos[w] * r + c, C[a][c] * B[v][w])
             for w in range(n) if B[v][w] for c in range(r) if C[a][c]]
            for a in range(r)] for v in range(n)]

    def weight(v, x):
        return tuple(b0 + sum(k * x[i] for i, k in row) for b0, row in zip(bw[v], lin[v]))

    closing = {}
    for v in range(n):
        closing.setdefault(min(pos[w] for w in range(n) if B[v][w]) * r, []).append(v)
    prune = {level: (lambda x, vs=vs: all(weight(v, x) in factors[v] for v in vs))
             for level, vs in closing.items()}
    terms = {}
    for x, q in reference_points(A, center, R, prune):
        if q < R:
            coeff = Fraction(1)
            for v in range(n):
                coeff *= factors[v][weight(v, x)]
            terms[q] = terms.get(q, Fraction(0)) + coeff
    pref = _prefactor(lm, N)
    return QSeries.from_terms({pref + q: c for q, c in terms.items()},
                              denom=_series_denom(lm, N), trunc=pref + R)


@st.composite
def oracle_cases(draw, su3_size=2):
    """A random negative-definite tree (up to 4 vertices at rank 1, up to
    su3_size for su3), one of its labels and an order."""
    variant = draw(st.sampled_from(["su2", "osp12", "su3"]))
    size = draw(st.integers(1, su3_size if variant == "su3" else 4))
    edges = [(draw(st.integers(0, i)), i + 1) for i in range(size - 1)]
    deg = [sum(v in e for e in edges) for v in range(size)]
    g = PlumbingGraph.build([-(d + draw(st.integers(1, 3))) for d in deg], edges)
    lm = linking_matrix(g)
    labels = sun_block_labels(g, 3, lm) if variant == "su3" else \
        [lab.b for lab in spinc_representatives(lm, degree_delta(g)[1])]
    b = labels[draw(st.integers(0, len(labels) - 1))]
    return g, b, variant, draw(st.integers(1, 8 if variant == "su3" else 24))


@settings(max_examples=60, deadline=None)
@given(oracle_cases())
def test_oracle_matches_reference_route(case):
    got, want = constant_term_oracle(*case), reference_oracle(*case)
    assert (got.terms, got.trunc, got.denom) == (want.terms, want.trunc, want.denom)


def su3_chain_case(order=14):
    """The two-vertex su3 chain (-2, -3) with a label that keeps points: each
    weight moves with all four m-coordinates, so the walk's second level
    has a line test."""
    g = PlumbingGraph.build([-2, -3], [(0, 1)])
    return g, next(b.label for b in zhat_all_blocks(g, "su3", order)
                   if b.series.terms), "su3", order


@settings(max_examples=40, deadline=None)
@given(oracle_cases(su3_size=3))
@example(su3_chain_case())
def test_pruned_walk_keeps_exactly_the_supported_points(case):
    # the oracle's walk, with its prune tables, against the same walk
    # unpruned and filtered by support membership of every weight
    g, b, variant, order = case
    seen = []

    def spy(A, center, R, prune=None):
        out = ellipsoid_points(A, center, R, prune)
        seen.append((A, center, R, out))
        return out

    with mock.patch.object(zhat, "ellipsoid_points", spy):
        constant_term_oracle(g, b, variant, order)
    ((A, center, R, got),) = seen
    ctx = zhat._oracle_context(g, variant, Fraction(order))
    B, N = linking_matrix(g).B, 3 if variant == "su3" else 2
    r, C, pos, n = N - 1, cartan(N), _walk_order(B), len(B)
    bw = [tuple(bv) for bv in b] if r > 1 else [(-x,) for x in b]

    def supported(x):
        return all(tuple(bw[v][a] + sum(C[a][c] * B[v][w] * x[pos[w] * r + c]
                                        for w in range(n) for c in range(r))
                         for a in range(r)) in ctx.factors[v] for v in range(n))

    assert got == [(x, q) for x, q in ellipsoid_points(A, center, R) if supported(x)]


def test_two_vertex_su3_chain_has_a_line_test():
    g, _, _, order = su3_chain_case()
    ctx = zhat._oracle_context(g, "su3", Fraction(order))
    rows = sorted(len(phi) for tests in ctx.tests.values() for _, phi, *_ in tests)
    assert rows == [1, 1, 2, 2]


class TestOracleContext:
    def test_cold_and_warm_calls_agree(self):
        g = minus_5_3_3_tree()
        cases = [(b.label, variant, 12) for variant in ("su2", "osp12")
                 for b in zhat_all_blocks(g, variant, 12)]
        cases += [(b.label, "su3", 6) for b in zhat_all_blocks(g, "su3", 6)
                  if b.series.terms][:4]
        for b, variant, order in cases:
            zhat._oracle_context.cache_clear()
            cold = constant_term_oracle(g, b, variant, order)
            warm = constant_term_oracle(g, b, variant, order)
            assert zhat._oracle_context.cache_info().hits == 1
            assert (cold.terms, cold.trunc, cold.denom) == \
                (warm.terms, warm.trunc, warm.denom)

    def test_variant_and_order_key_the_context(self):
        # sigma237 has a vertex of degree 3, whose expansion the order cuts
        g = brieskorn_2_3_7()
        b = zhat_all_blocks(g, "su2", 10)[0].label
        zhat._oracle_context.cache_clear()
        for variant, order in [("su2", 10), ("so3", 10), ("osp12", 10), ("su2", 40),
                               ("SU2", 10), ("su2", Fraction(10))]:
            constant_term_oracle(g, b, variant, order)
        info = zhat._oracle_context.cache_info()
        assert (info.misses, info.hits) == (4, 2)
        su2, so3, osp, deep = (zhat._oracle_context(g, v, Fraction(order)) for v, order
                               in [("su2", 10), ("so3", 10), ("osp12", 10), ("su2", 40)])
        assert len({id(su2), id(so3), id(osp), id(deep)}) == 4
        assert su2.factors != osp.factors and su2.factors != deep.factors

    @pytest.mark.parametrize("variant, label", [
        ("bogus", (1, 1)), ("su4", (1, 1)), ("su2", (1,)), ("su2", (1, 1, 1)),
        ("su3", ((1, 1),)), ("su3", ((1, 1), (1,))), ("su2", ((1,), (1,))),
        ("su3", (1, 1)), ("su2", (Fraction(1, 2), 1)),
        ("su3", ((Fraction(1, 2), Fraction(1, 2)), (1, 1)))])
    def test_bad_variant_or_label_raises_before_the_memo(self, variant, label):
        g = lens_m5_11()
        zhat._oracle_context.cache_clear()
        match = "unknown variant" if variant in ("bogus", "su4") else "label"
        with pytest.raises(ValueError, match=match):
            constant_term_oracle(g, label, variant, 10)
        assert zhat._oracle_context.cache_info().currsize == 0

    def test_unknown_variant_message(self):
        with pytest.raises(ValueError, match="^unknown variant 'bogus'$"):
            constant_term_oracle(lens_m5_11(), (1, 1), "bogus", 10)

    def test_fraction_and_int_su3_labels_agree(self):
        # the bench passes su3 labels as tuples of Fractions
        g = lens_m5_11()
        for b in sun_block_labels(g, 3)[:6]:
            ints = tuple(tuple(int(c) for c in bv) for bv in b)
            assert all(type(c) is Fraction for bv in b for c in bv)
            assert constant_term_oracle(g, b, "su3", 6).terms == \
                constant_term_oracle(g, ints, "su3", 6).terms


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 5))
def test_bordered_minors_match_linking_matrix_minors(seed, size):
    # d_k and A_{j,P} adj(A_PP) of -B in a random vertex order, from one
    # elimination, against a Faddeev-LeVerrier pass per leading minor
    rng = random.Random(seed)
    g = random_negdef_tree(rng, max_size=size, max_det=10 ** 6) if size > 1 else \
        PlumbingGraph.build([-rng.randint(1, 5)], [])
    B = linking_matrix(g).B
    order = rng.sample(range(len(B)), len(B))
    A = [[-B[a][c] for c in order] for a in order]
    dets, cross = _bordered_minors(A)
    minors = [LinkingMatrix.of([row[:k] for row in A[:k]]) for k in range(len(A) + 1)]
    assert dets == [m.det for m in minors]
    assert cross == [[sum(A[j][i] * minors[j].adj[i][k] for i in range(j))
                      for k in range(j)] for j in range(len(A))]


def theta_minimum(B, b):
    """Least t^T (-B) t over t = m + B^{-1} b / 2, m integer, by brute
    force: a point of value at most V has |t_i|^2 <= V (-B)^{-1}_ii.  The
    sum runs in integers T = D t, D a common denominator of the centre."""
    n = len(B)
    Binv = fraction_inverse(B)
    c = [sum(Binv[i][j] * b[j] for j in range(n)) / 2 for i in range(n)]
    D = math.lcm(*(x.denominator for x in c))

    def value(T):
        return -sum(B[i][j] * T[i] * T[j] for i in range(n) for j in range(n))

    C = [int(x * D) for x in c]
    top = Fraction(value([x - D * round(Fraction(x, D)) for x in C]), D * D)
    reach = [math.isqrt(math.ceil(top * -Binv[i][i])) + 1 for i in range(n)]
    box = [range(math.floor(-c[i] - r), math.ceil(-c[i] + r) + 1) for i, r in enumerate(reach)]
    return Fraction(min(value([D * m + x for m, x in zip(ms, C)])
                        for ms in itertools.product(*box)), D * D)


def test_delta_b_rules():
    # rank 1: the prefactor plus the theta-form minimum, whether or not a
    # supported point attains it (lens-m5-11's third block is empty)
    rng = random.Random(20261019)
    for g in [lens_m5_11(), minus_5_3_3_tree()] + \
            [random_negdef_tree(rng, max_size=4) for _ in range(6)]:
        lm = linking_matrix(g)
        pref = Fraction(-(3 * lm.size + sum(lm.B[i][i] for i in range(lm.size))), 4)
        for b in zhat_all_blocks(g, "su2", 10):
            assert b.delta_b == pref + theta_minimum(lm.B, b.label), (g, b.label)
    # su(N): the least exponent kept, or the prefactor for an empty block
    (b,) = zhat_all_blocks(poincare_sphere(), "su3", 20)
    assert b.delta_b == -6 and b.series.terms[0][0] == -6
    blocks = {blk.label: blk for blk in zhat_all_blocks(lens_m5_11(), "su3", 12)}
    assert blocks[((1, 1), (1, 1))].delta_b == Fraction(2, 5)
    empty = [blk for blk in zhat_all_blocks(minus_5_3_3_tree(), "su3", 14)
             if not blk.series.terms]
    # the prefactor -(3L + tr B)(rho, rho)/2, with (rho, rho) = 2
    assert {blk.delta_b for blk in empty} == {Fraction(-(3 * 3 - 11) * 2, 2)}


@pytest.mark.parametrize("graph, variant, order", [
    (lens_m5_11, "su3", 1),
    (minus_5_3_3_tree, "su3", 2),
    (minus_5_3_3_tree, "su2", 1),
])
def test_order_boundary_of_all_blocks(graph, variant, order):
    # the least order that reaches past every coset minimum is order + 1
    with pytest.raises(ValueError, match="order does not reach past delta_b"):
        zhat_all_blocks(graph(), variant, order)
    assert zhat_all_blocks(graph(), variant, order + 1)


@st.composite
def shifted_forms(draw):
    """A positive-definite form (integer or half-integer entries, strictly
    diagonally dominant, so every eigenvalue is at least 1/scale), a
    rational centre and a radius."""
    n = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1, 2]))
    A = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        A[i][j] = A[j][i] = draw(st.integers(-2, 2))
    for i in range(n):
        A[i][i] = sum(abs(v) for v in A[i]) + draw(st.integers(1, 3))
    A = [[Fraction(v, scale) for v in row] for row in A]
    center = [Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
              for _ in range(n)]
    R = Fraction(draw(st.integers(0, 16)), draw(st.integers(1, 3)))
    return A, center, R, scale


def brute_points(A, center, R, scale):
    """(x, value) over a box that holds the ellipsoid: |x_i + c_i|^2 is at
    most R * scale."""
    n = len(A)
    bound = math.isqrt(math.ceil(R * scale)) + 1
    box = [range(math.floor(-c) - bound, math.ceil(-c) + bound + 1)
           for c in center]
    out = []
    for x in itertools.product(*box):
        t = [xi + c for xi, c in zip(x, center)]
        q = sum(A[i][j] * t[i] * t[j] for i in range(n) for j in range(n))
        if q <= R:
            out.append((x, q))
    return out


@st.composite
def posdef_forms(draw):
    """A = (M^T M + D) / 2 for an integer M and a positive diagonal D, of
    dimension 1 to 5, with a centre of rational entries of either sign."""
    n = draw(st.integers(1, 5))
    M = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    A = [[Fraction(sum(M[k][i] * M[k][j] for k in range(n))
                   + (draw(st.integers(1, 3)) if i == j else 0), 2)
          for j in range(n)] for i in range(n)]
    A = [[A[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    center = [Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 6)))
              for _ in range(n)]
    return A, center, Fraction(draw(st.integers(0, 24)), draw(st.integers(1, 3)))


def _ldl(A):
    """Q(x) = sum_i d[i] (x_i + sum_{j>i} U[i][j] x_j)^2 for posdef A."""
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    d, U = [], [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d.append(M[i][i])
        assert d[i] > 0, "quadratic form is not positive definite"
        for j in range(i + 1, n):
            U[i][j] = M[i][j] / d[i]
        for r, c in itertools.product(range(i + 1, n), repeat=2):
            M[r][c] -= M[r][i] * M[i][c] / d[i]
    return d, U


def reference_points(A, center, R, prune=None):
    """ellipsoid_points by a second route, the Fraction LDL factors of A:
    level i scales y_i = x_i + center_i + sum_{j>i} U[i][j] (x_j + center_j)
    to an integer Y = M_i y_i over one denominator K.  prune maps a level i
    to a predicate of x, called once x[i:] are fixed."""
    d, U = _ldl(A)
    n, R, center = len(d), Fraction(R), [Fraction(c) for c in center]
    M, base, rows = [], [], []
    for i in range(n):
        const = center[i] + sum(U[i][j] * center[j] for j in range(i + 1, n))
        m = math.lcm(const.denominator, *(U[i][j].denominator for j in range(i + 1, n)))
        M.append(m)
        base.append(int(const * m))
        rows.append([(j, int(U[i][j] * m)) for j in range(i + 1, n) if U[i][j]])
    K = math.lcm(R.denominator, *((d[i] / M[i] ** 2).denominator for i in range(n)))
    w = [int(d[i] * K / M[i] ** 2) for i in range(n)]
    top = int(R * K)
    checks, out, x = prune or {}, [], [0] * n

    def rec(i, remaining):
        m, wi = M[i], w[i]
        P = base[i] + sum(u * x[j] for j, u in rows[i])
        s = math.isqrt(remaining // wi)
        for xi in range(-((s + P) // m), (s - P) // m + 1):
            x[i] = xi
            if i in checks and not checks[i](x):
                continue
            left = remaining - wi * (m * xi + P) ** 2
            if i:
                rec(i - 1, left)
            else:
                out.append((tuple(x), Fraction(top - left, K)))

    if top >= 0:
        rec(n - 1, top)
    return out


class TestEllipsoidPoints:
    @settings(max_examples=100, deadline=None)
    @given(shifted_forms())
    def test_matches_brute_force(self, form):
        A, center, R, scale = form
        got = ellipsoid_points(A, center, R)
        assert sorted(got) == sorted(brute_points(A, center, R, scale))
        assert all(type(q) is Fraction for _, q in got)

    @settings(max_examples=100, deadline=None)
    @given(shifted_forms(), st.data())
    def test_pruning_keeps_exactly_the_rule(self, form, data):
        # a rule at level i lists the admissible x[i] in [lo, hi] from
        # x[i+1:], the entries the walk has fixed when it calls the rule
        A, center, R, scale = form
        n = len(A)
        kept = {i: (k, data.draw(st.integers(0, k - 1)))
                for i in data.draw(st.sets(st.integers(0, n - 1)))
                for k in [data.draw(st.integers(2, 3))]}
        rules = {i: (lambda x, lo, hi, i=i, k=k, r=r:
                     [t for t in range(lo, hi + 1) if (t + sum(x[i + 1:])) % k != r])
                 for i, (k, r) in kept.items()}
        got = ellipsoid_points(A, center, R, rules)
        want = [(x, q) for x, q in brute_points(A, center, R, scale)
                if all(sum(x[i:]) % k != r for i, (k, r) in kept.items())]
        assert sorted(got) == sorted(want)

    @settings(max_examples=150, deadline=None)
    @given(posdef_forms())
    def test_integer_walk_matches_reference(self, form):
        A, center, R = form
        assert ellipsoid_points(A, center, R) == reference_points(A, center, R)

    @settings(max_examples=100, deadline=None)
    @given(posdef_forms(), st.lists(st.integers(-9, 9), min_size=5, max_size=5))
    def test_bareiss_rows_sum_to_the_form(self, form, x):
        A = form[0]
        Q = [[int(2 * a) for a in row] for row in A]
        x = x[:len(Q)]
        piv, rows, _, _ = _bareiss(Q)
        d = [1] + piv
        assert sum(Fraction((d[k + 1] * x[k] + sum(u * x[j] for j, u in rows[k])) ** 2,
                            d[k] * d[k + 1]) for k in range(len(Q))) == \
            sum(Q[i][j] * x[i] * x[j] for i in range(len(Q)) for j in range(len(Q)))

    @settings(max_examples=100, deadline=None)
    @given(posdef_forms())
    def test_first_point_is_below_the_radius(self, form):
        # the emptiness test of the su(N) blocks: one point of value < R,
        # or none when every point of the ellipsoid lies on its boundary
        A, center, R = form
        Q = [[int(2 * a) for a in row] for row in A]
        E = math.lcm(*(c.denominator for c in center))
        got, K = _points(_bareiss(Q), [int(c * E) for c in center], E, 2 * R,
                         first=True)
        below = [(x, q) for x, q in reference_points(A, center, R) if q < R]
        assert len(got) == (1 if below else 0)
        if got:
            ((x, t),) = got
            assert (x, Fraction(t, 2 * K)) in below


@st.composite
def neumann_cases(draw):
    """A weight polynomial c x^lead (1 + tail) with c a sign and every tail
    monomial of positive height, the height form and a cap."""
    N = draw(st.sampled_from([2, 3]))
    r = N - 1
    coords = st.tuples(*[st.integers(-3, 3)] * r)
    chamber = draw(coords.filter(any))
    H = _height(gram(N), chamber)
    lead = draw(coords)
    sign = draw(st.sampled_from([1, -1]))
    tail = draw(st.dictionaries(coords.filter(lambda d: _ht(H, d) > 0),
                                st.integers(-3, 3).filter(bool), max_size=3))
    poly = {tuple(x + y for x, y in zip(lead, d)): c for d, c in tail.items()}
    poly[lead] = sign
    return poly, lead, H, draw(st.integers(0, 3 * N * N))


class TestExpansionKernel:
    @settings(max_examples=100, deadline=None)
    @given(neumann_cases())
    def test_neumann_inverse_times_poly_is_one(self, case):
        poly, lead, H, cap = case
        rel = {tuple(x - y for x, y in zip(k, lead)): c for k, c in poly.items()}
        inv = _inverse(poly, lead, H, cap)
        assert _mul(inv, rel, H, cap) == {(0,) * len(lead): 1}


def fraction_inverse(m):
    """Inverse of a nonsingular integer matrix by Gauss-Jordan over
    Fraction: a reference independent of the characteristic-polynomial
    route of the library."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def test_integer_coset_test_matches_inverse():
    # the block engine keys a weight vector by its class vector
    # adj(B) ell mod 2 det B and gives it the exponent -ell^T B^{-1} ell / 4
    rng = random.Random(20261018)
    hits = 0
    for _ in range(15):
        g = random_negdef_tree(rng)
        lm = linking_matrix(g)
        n, det, adj, Binv = lm.size, lm.det, lm.adj, fraction_inverse(lm.B)
        assert [list(row) for row in adj] == \
            [[det * v for v in row] for row in Binv]
        K = _class_matrix(lm, 2)

        def key(x):
            return tuple(sum(k * v for k, v in zip(row, x)) % (2 * abs(det))
                         for row in K)

        _, delta = degree_delta(g)
        for lab in spinc_representatives(lm, delta):
            b = lab.b
            for _ in range(20):
                if rng.random() < 0.5:  # a point of the coset of b
                    m = [rng.randint(-2, 2) for _ in range(n)]
                    ell = [b[i] + 2 * sum(lm.B[i][j] * m[j] for j in range(n))
                           for i in range(n)]
                else:
                    ell = [b[i] + 2 * rng.randint(-3, 3) for i in range(n)]
                member = all(
                    (sum(Binv[i][j] * (ell[j] - b[j]) for j in range(n)) / 2)
                    .denominator == 1 for i in range(n))
                walked, scale, _ = _walk(lm, 2, Fraction(10 ** 6),
                                         [({(e,): 1}, 1) for e in ell])
                ((got_key, terms),) = walked.items()
                ((t, _),) = terms.items()
                assert got_key == key(ell)
                assert (got_key == key(b)) == member, (g, b, ell)
                if member:
                    hits += 1
                assert Fraction(t, scale) == -sum(
                    Binv[i][j] * ell[i] * ell[j]
                    for i in range(n) for j in range(n)) / 4
    assert hits > 100


def exponent_of(lm, N):
    """s -> q = -sum_{v,w} (B^{-1})_vw N (s_v, s_w) / (2N), from a Fraction
    B^{-1}."""
    n, G, Binv = lm.size, gram(N), fraction_inverse(lm.B)
    den = math.lcm(*(x.denominator for row in Binv for x in row))
    W = [[int(x * den) for x in row] for row in Binv]

    def q(s):
        Gs = [[sum(map(mul, g, mu)) for g in G] for mu in s]
        return Fraction(-sum(W[v][w] * sum(map(mul, s[v], Gs[w]))
                             for v in range(n) for w in range(n)), 2 * N * den)
    return q


def brute_walk(lm, N, R, sup):
    """Reference for `_walk`: every point s of the product of the supports
    with exponent q < R, as {class key: {q: coefficient}}, q by exponent_of
    and the key (adj(B) (x) gram(N)) s mod N |det B| straight from adj."""
    n, G, mod, exponent = lm.size, gram(N), N * abs(lm.det), exponent_of(lm, N)
    out = {}
    for point in itertools.product(*(row.items() for row, _ in sup)):
        s = [mu for mu, _ in point]
        q = exponent(s)
        if q < R:
            key = tuple(sum(lm.adj[v][w] * sum(map(mul, G[a], s[w])) for w in range(n)) % mod
                        for v in range(n) for a in range(N - 1))
            bucket = out.setdefault(key, {})
            bucket[q] = bucket.get(q, 0) + math.prod(c for _, c in point)
    return out


def normalised_walk(lm, N, R, sup):
    walked, scale, _ = _walk(lm, N, R, sup)
    return {key: {Fraction(t, scale): c for t, c in bucket.items()}
            for key, bucket in walked.items()}


def expansion_supports(g, lm, N, R, osp=False):
    """The vertex rows that zhat_blocks hands the walk."""
    return [_avg_rank1(g.degree(v), math.isqrt(int(4 * R * -lm.B[i][i])) + 2, osp)
            if N == 2 else _sun_chamber_average(g.degree(v), N, 2 * R * -lm.B[i][i])
            for i, v in enumerate(g.ids)]


class TestWalk:
    """`_walk` against the brute-force product of the supports."""

    @pytest.mark.parametrize("N", [2, 3])
    def test_matches_brute_force_on_random_trees(self, N):
        rng = random.Random(20261020 + N)
        done = 0
        while done < 12:
            g = random_negdef_tree(rng, max_size=6 if N == 2 else 5, max_det=10 ** 6)
            lm = linking_matrix(g)
            R = rng.choice([10, 40, 150] if N == 2 else [3, 6, 9]) + Fraction(rng.randint(0, 2), 3)
            if done % 2:  # random weights and coefficients, cancellations included
                w = 12 if N == 2 else 4
                sup = [({tuple(rng.randint(-w, w) for _ in range(N - 1)): rng.choice([-2, -1, 1, 3])
                         for _ in range(rng.randint(1, 9))}, 1) for _ in range(lm.size)]
            else:
                sup = expansion_supports(g, lm, N, R, osp=rng.random() < 0.5)
            if math.prod(len(row) for row, _ in sup) > 5000:
                continue
            if done % 3 == 0:  # an order that is the exponent of a point
                exponents = sorted({q for b in brute_walk(lm, N, Fraction(10 ** 9), sup).values()
                                    for q in b if q > 0})
                R = exponents[len(exponents) // 2]
            assert normalised_walk(lm, N, R, sup) == brute_walk(lm, N, R, sup), (g, R)
            done += 1

    @pytest.mark.parametrize("N", [2, 3])
    def test_last_level_slab_cuts_both_sides(self, N):
        # a dense box at the middle of a chain is walked last; at orders
        # that are exponents of points, the slab must keep every candidate
        # strictly below the order and nothing at or past it
        g = PlumbingGraph.build([-2, -3, -2], [(0, 1), (1, 2)])
        lm = linking_matrix(g)
        box = range(-24, 25) if N == 2 else range(-6, 7)
        small = {(1,) * (N - 1): 1, (-1,) * (N - 1): -1, (0,) * (N - 2) + (2,): 2}
        dense = {mu: 1 + sum(mu) % 3 for mu in itertools.product(box, repeat=N - 1)}
        sup = [(small, 1), (dense, 1), (small, 1)]
        exponent = exponent_of(lm, N)
        everything = sorted({exponent([a, mu, b]) for a in small for mu in dense for b in small})
        both = False
        for R in everything[len(everything) // 8::len(everything) // 5] + [Fraction(31, 7)]:
            assert normalised_walk(lm, N, R, sup) == brute_walk(lm, N, R, sup), R
            for a, b in itertools.product(small, small):
                kept = [mu[0] for mu in dense if exponent([a, mu, b]) < R]
                both |= bool(kept) and box[0] < min(kept) and max(kept) < box[-1]
        assert both

    def test_branch_cut_before_the_last_level(self):
        # each point is below the order on its own, but two of the four
        # pairs of the first two levels reach it: those branches end there,
        # so the last level is entered twice, never with a negative room
        # (order - 1 - partial exponent), whose isqrt would raise
        g = PlumbingGraph.build([-2, -2, -3], [(0, 1), (1, 2)])
        lm, R = linking_matrix(g), Fraction(2)
        exponent = exponent_of(lm, 2)
        pair = {(e,): 1 for e in (-2, 2)}
        sup = [(pair, 1), (pair, 1), ({(e,): e for e in range(-7, 8)}, 1)]
        assert all(exponent([a, (0,), (0,)]) < R and exponent([(0,), a, (0,)]) < R for a in pair)
        with mock.patch("math.isqrt", wraps=math.isqrt) as spy:
            got = normalised_walk(lm, 2, R, sup)
        assert got == brute_walk(lm, 2, R, sup)
        assert spy.call_count == 2

    def test_largest_support_is_walked_last(self):
        # Poincare at order 8000: four one-point supports, three leaves of
        # two points and the trivalent vertex's 254 points, walked last and
        # entered once per choice of the leaves
        g, R = poincare_sphere(), Fraction(8000)
        lm = linking_matrix(g)
        sup = expansion_supports(g, lm, 2, R)
        assert sorted(len(row) for row, _ in sup) == [1, 1, 1, 1, 2, 2, 2, 254]
        with mock.patch("math.isqrt", wraps=math.isqrt) as spy:
            _walk(lm, 2, R, sup)
        assert spy.call_count <= 8


class TestRankTwoConsistency:
    def test_vertex_factor_n2_matches_su2(self):
        for deg in range(5):
            su2 = vertex_factor_su2(deg, 6)
            sun = {k[0]: v for k, v in
                   vertex_factor_suN(deg, 2, Fraction(18)).items()
                   if abs(k[0]) <= 6}
            if deg <= 2:
                # polynomial regime: both Weyl chambers contribute the
                # same expansion, so the chamber sum doubles it
                sun = {k: v / 2 for k, v in sun.items()}
            assert sun == {Fraction(k): v for k, v in su2.items()}

    @pytest.mark.parametrize("call", [
        lambda: vertex_factor_su2(-1, 5),
        lambda: vertex_factor_suN(-1, 3, Fraction(10)),
        lambda: vertex_factor_suN(-1, 2, Fraction(10)),
        lambda: vertex_factor_suN(3, 3, Fraction(-1)),
    ])
    def test_negative_degree_or_bound_raises(self, call):
        with pytest.raises(ValueError, match="must be nonnegative"):
            call()

    @pytest.mark.parametrize("N", [2, 3])
    def test_block_and_oracle_expansions_agree(self, N):
        # the block route inverts 1 + U and then takes the power, the
        # oracle takes the power of Delta and then inverts it
        for bound in (Fraction(18), Fraction(60)):
            for deg in range(6):
                row, den = _sun_chamber_average(deg, N, bound)
                assert {k: Fraction(c, den) for k, c in row.items()} == \
                    _oracle_vertex_suN(deg, N, bound), (deg, bound)

    @pytest.mark.parametrize("osp", [False, True])
    def test_rank1_oracle_expansion_is_the_n2_case(self, osp):
        # x + s/x is the N = 2 Weyl denominator with sign s; |e| <= max_abs
        # is the norm bound e^2 / 2 <= max_abs^2 / 2
        for deg in range(7):
            for max_abs in (2, 5, 12, 31):
                got = _oracle_vertex_suN(deg, 2, Fraction(max_abs ** 2, 2),
                                         1 if osp else -1)
                row, den = _avg_rank1(deg, max_abs, osp)
                assert got == {k: Fraction(c, den) for k, c in row.items()}, (deg, max_abs)


def test_zhat_block_matches_all_blocks():
    g = lens_chain(7, 2)
    blocks = zhat_all_blocks(g, "su2", 20)
    for b in blocks:
        single = zhat_block(g, b.label, "su2", 20)
        assert single.series.terms == b.series.terms
        assert single.delta_b == b.delta_b
