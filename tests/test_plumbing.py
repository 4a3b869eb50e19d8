import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumbq.catalog import (
    brieskorn_2_3_7,
    brieskorn_2_3_7_alt,
    lens_m5_11,
    poincare_sphere,
)
from plumbq.plumbing import (
    LinkingMatrix,
    PlumbingGraph,
    degree_delta,
    graph_from_json,
    graph_to_json,
    is_negative_definite,
    kirby_neumann_move,
    lens_chain,
    linking_matrix,
    negative_continued_fraction,
    spinc_representatives,
)


def random_tree(slack, edge_choices):
    """Deterministic tree from hypothesis-drawn data.

    Framings sit strictly below minus the vertex degree, which makes the
    linking matrix strictly diagonally dominant and hence negative definite.
    """
    L = len(slack)
    edges = [(edge_choices[i] % (i + 1), i + 1) for i in range(L - 1)]
    deg = [0] * L
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    framings = [-(deg[i] + slack[i]) for i in range(L)]
    return PlumbingGraph.build(framings, edges)


tree_strategy = st.integers(2, 6).flatmap(
    lambda L: st.tuples(
        st.lists(st.integers(1, 6), min_size=L, max_size=L),
        st.lists(st.integers(0, 100), min_size=L - 1, max_size=max(L - 1, 1)),
    )
).map(lambda t: random_tree(*t))


def bareiss_det(m):
    """Fraction-free Bareiss determinant of an integer matrix: a reference
    independent of the characteristic-polynomial route of the library."""
    n = len(m)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def sylvester_counts(B):
    """(b+, b-) of a symmetric integer matrix from leading principal minors.

    Jacobi's rule: when every leading minor D_k of a symmetric matrix is
    nonzero, its negative eigenvalues number the sign changes in 1, D_1,
    ..., D_n.  B + eps I has the negative eigenvalues of B, with eps below
    every nonzero |eigenvalue|: for entries in [-4, 4] and n <= 5 each
    |eigenvalue| is at most 20, and the nonzero ones multiply to a nonzero
    integer, so each is at least 20^-4 > 10^-7 = eps.  The k-th minor of
    10^7 B + I is 10^(7k) det(B_k + eps I), a monic integer polynomial in
    eps whose rational roots are integers, so no minor vanishes.  b+ is
    the same count for -B.
    """
    def negatives(M):
        n = len(M)
        S = [[10 ** 7 * M[i][j] + (i == j) for j in range(n)] for i in range(n)]
        minors = [1] + [bareiss_det([row[:k] for row in S[:k]])
                        for k in range(1, n + 1)]
        assert all(minors)
        return sum((a > 0) != (b > 0) for a, b in zip(minors, minors[1:]))

    return negatives([[-x for x in row] for row in B]), negatives(B)


@st.composite
def symmetric_matrices(draw, max_n=5):
    """Symmetric n x n matrices, n <= max_n, entries in [-4, 4].  On a
    drawn flag, row and column j are copied onto k, which makes the matrix
    singular without leaving [-4, 4]."""
    n = draw(st.integers(1, max_n))
    upper = draw(st.lists(st.integers(-4, 4), min_size=n * (n + 1) // 2,
                          max_size=n * (n + 1) // 2))
    B = [[0] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i, n):
            B[i][j] = B[j][i] = next(it)
    if n > 1 and draw(st.booleans()):
        j, k = draw(st.permutations(range(n)))[:2]
        for i in range(n):
            B[k][i] = B[i][k] = B[j][i]
        B[k][k] = B[j][k] = B[k][j] = B[j][j]
    return B


def matmul(X, Y):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)]
            for row in X]


class TestLinkingMatrix:
    @given(symmetric_matrices())
    @settings(max_examples=200, deadline=None)
    def test_signature_matches_leading_minors(self, B):
        lm = LinkingMatrix.of(B)
        assert (lm.b_plus, lm.b_minus) == sylvester_counts(B)

    @given(symmetric_matrices(max_n=6))
    @settings(max_examples=200, deadline=None)
    def test_det_and_adjugate_from_one_pass(self, B):
        lm = LinkingMatrix.of(B)
        n = len(B)
        assert lm.det == bareiss_det(B)
        det_I = [[lm.det * (i == j) for j in range(n)] for i in range(n)]
        assert matmul(B, lm.adj) == det_I
        assert matmul(lm.adj, B) == det_I
        # singular B leaves B adj = 0 open to adj = 0: check the cofactors
        for i, j in itertools.product(range(n), repeat=2):
            minor = [[B[r][c] for c in range(n) if c != i]
                     for r in range(n) if r != j]
            assert lm.adj[i][j] == (-1) ** (i + j) * bareiss_det(minor)

    def test_signature_reference_sees_singular_and_indefinite(self):
        assert sylvester_counts([[0, 1], [1, 0]]) == (1, 1)
        assert sylvester_counts([[1, 1], [1, 1]]) == (1, 0)
        assert sylvester_counts([[0, 0], [0, -3]]) == (0, 1)

    def test_poincare_det(self):
        lm = linking_matrix(poincare_sphere())
        assert lm.det == 1
        assert is_negative_definite(lm)
        assert (lm.b_plus, lm.b_minus) == (0, 8)

    def test_edge_entries(self):
        g = PlumbingGraph.build([-2, -3], [(0, 1)])
        lm = linking_matrix(g)
        assert lm.B == ((-2, 1), (1, -3))

    def test_positive_framing_not_negdef(self):
        g = PlumbingGraph.build([2, -2], [(0, 1)])
        assert not is_negative_definite(linking_matrix(g))

    @given(tree_strategy)
    @settings(max_examples=30)
    def test_chain_trees_negative_definite(self, g):
        assert is_negative_definite(linking_matrix(g))

    def test_exact_inverse(self):
        # B^{-1} = adj(B) / det B, and B adj(B) = det(B) I
        B = [[-2, 1], [1, -3]]
        lm = LinkingMatrix.of(B)
        assert lm.det == 5
        assert lm.adj == ((-3, -1), (-1, -2))
        assert matmul(B, lm.adj) == [[5, 0], [0, 5]]

    def test_exact_det_integer_matrix(self):
        lm = LinkingMatrix.of([[2, 1], [1, 2]])
        assert (lm.det, lm.adj) == (3, ((2, -1), (-1, 2)))
        assert (lm.b_plus, lm.b_minus) == (2, 0)


class TestContinuedFractions:
    def test_basic_expansion(self):
        # 5/4 = 2 - 1/(2 - 1/(2 - 1/2))
        assert negative_continued_fraction(5, 4) == [2, 2, 2, 2]

    def test_reconstruction(self):
        for p, q in [(5, 4), (7, 2), (13, 5), (11, 3)]:
            coeffs = negative_continued_fraction(p, q)
            num, den = coeffs[-1], 1
            for a in reversed(coeffs[:-1]):
                num, den = a * num - den, num
            assert (num, den) == (p, q)

    def test_lens_chain_det(self):
        lm = linking_matrix(lens_chain(7, 2))
        assert abs(lm.det) == 7

    def test_lens_m5_11_is_two_vertex_chain(self):
        g = lens_m5_11()
        assert sorted(f for _, f in g.vertices) == [-3, -2]
        assert abs(linking_matrix(g).det) == 5

    def test_lens_rejects_noncoprime(self):
        with pytest.raises(ValueError):
            lens_chain(6, 2)


class TestSpinc:
    def test_block_count_matches_det(self):
        for g in (lens_chain(7, 2), lens_m5_11()):
            lm = linking_matrix(g)
            _, delta = degree_delta(g)
            labels = spinc_representatives(lm, delta)
            # each orbit contributes 2 unless fixed by conjugation
            unfolded = sum(
                1 if lab.stabilizer_order == 2 else 2 for lab in labels)
            assert unfolded == abs(lm.det)

    def test_sphere_has_single_label(self):
        g = poincare_sphere()
        lm = linking_matrix(g)
        _, delta = degree_delta(g)
        assert len(spinc_representatives(lm, delta)) == 1


class TestKirbyMoves:
    def test_blow_up_down_roundtrip(self):
        g = brieskorn_2_3_7()
        g2 = kirby_neumann_move(
            g, {"kind": "blow_up", "sign": -1, "edge": [0, 2], "new_id": 9})
        g3 = kirby_neumann_move(g2, {"kind": "blow_down", "vertex": 9})
        a, b = graph_to_json(g3), graph_to_json(g)
        assert a["vertices"] == b["vertices"]
        assert sorted(map(sorted, a["edges"])) == sorted(map(sorted, b["edges"]))

    def test_blow_down_needs_unit_framing(self):
        with pytest.raises(ValueError):
            kirby_neumann_move(
                poincare_sphere(), {"kind": "blow_down", "vertex": 0})

    def test_alt_presentation_is_blow_up(self):
        g = brieskorn_2_3_7_alt()
        assert len(g) == 5
        assert -1 in dict(g.vertices).values()

    def test_leaf_blow_up_changes_det_sign_only(self):
        g = lens_chain(7, 2)
        g2 = kirby_neumann_move(
            g, {"kind": "blow_up", "sign": -1, "at": 0, "new_id": 5})
        assert abs(linking_matrix(g2).det) == 7


class TestSerialization:
    def test_json_roundtrip(self):
        g = brieskorn_2_3_7()
        assert graph_to_json(graph_from_json(graph_to_json(g))) == graph_to_json(g)
