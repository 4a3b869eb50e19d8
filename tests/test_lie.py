import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plumbq.lie import (
    WeightVector,
    allowed_colors,
    cartan,
    fundamental_weight,
    gamma_factor,
    gram,
    highest_root,
    pair,
    pq_class_index,
    rho_norm,
    simple_roots,
    weyl_orbit,
    weyl_vector,
)


# Reference model: the orthogonal embedding in Q^N, in plain Fractions.
# L_i maps to (1/N)((N-i) repeated i times, then -i repeated N-i times),
# and the Weyl group permutes the N coordinates, in the order of
# itertools.permutations, with the sign of each permutation.

def ref_embedding(N, coords):
    out = [Fraction(0)] * N
    for i, c in enumerate(coords, start=1):
        for t in range(N):
            out[t] += c * Fraction(N - i if t < i else -i, N)
    return out


def ref_from_embedding(emb):
    # pairing with the simple roots e_i - e_{i+1} recovers the coordinates
    return tuple(emb[i] - emb[i + 1] for i in range(len(emb) - 1))


def ref_dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def ref_sign(perm):
    return (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])


def test_weyl_group_order():
    # rho is regular: its orbit has |W| = N! distinct images, rho first
    for N in (2, 3, 4):
        rho = weyl_vector(N).coords
        orbit = weyl_orbit(N, rho)
        assert len({image for _, image in orbit}) == len(orbit) == math.factorial(N)
        assert orbit[0] == (1, rho)


def test_sign_is_determinant_like():
    orbit = weyl_orbit(3, (1, 1))
    assert sorted(s for s, _ in orbit) == [-1, -1, -1, 1, 1, 1]
    assert [s for s, _ in weyl_orbit(3, (1, 1), 1)] == [1] * 6
    for N in (2, 3, 4):
        # the permutation that takes rho's embedding to each image, in turn
        emb = ref_embedding(N, weyl_vector(N).coords)
        perms = [tuple(emb.index(x) for x in ref_embedding(N, image))
                 for _, image in weyl_orbit(N, weyl_vector(N).coords)]
        assert perms == list(itertools.permutations(range(N)))
        assert [s for s, _ in weyl_orbit(N, weyl_vector(N).coords)] == list(map(ref_sign, perms))


def test_weyl_vector_is_sum_of_fundamentals():
    for N in (2, 3, 4):
        rho = weyl_vector(N)
        total = fundamental_weight(N, 1)
        for i in range(2, N):
            total = total + fundamental_weight(N, i)
        assert rho == total


def test_cartan_pairing():
    # (alpha_i, w_j) = delta_ij, and pair is N times the inner product
    for N in (2, 3):
        roots = simple_roots(N)
        for i in range(1, N):
            for j in range(1, N):
                want = N if i == j else 0
                assert pair(roots[i - 1], fundamental_weight(N, j)) == want


def test_root_norms():
    for N in (2, 3, 4):
        for a in simple_roots(N):
            assert pair(a, a) == 2 * N
        th = highest_root(N)
        assert pair(th, th) == 2 * N


@given(st.sampled_from([2, 3]), st.integers(0, 23))
def test_weyl_action_preserves_inner(N, seed):
    v = fundamental_weight(N, 1 + seed % (N - 1))
    _, image = weyl_orbit(N, v.coords)[seed % math.factorial(N)]
    assert pair(WeightVector(N, image), WeightVector(N, image)) == pair(v, v)


class TestQuotientData:
    def test_gamma_values(self):
        # (N, m) -> smallest integer making the quadratic form integral
        assert gamma_factor(4, 2) == 2
        assert gamma_factor(6, 2) == 4
        assert gamma_factor(6, 3) == 3

    def test_gamma_trivial_subgroup(self):
        for N in (2, 3, 4, 6):
            assert gamma_factor(N, 1) == 1

    def test_gamma_requires_divisor(self):
        with pytest.raises(ValueError):
            gamma_factor(4, 3)

    def test_pprime_membership(self):
        # P' for (N, m) = (4, 2): the classes of P/Q ~ Z_4 that are even
        assert pq_class_index(fundamental_weight(4, 2)) % 2 == 0
        assert pq_class_index(fundamental_weight(4, 1)) % 2 != 0

    def test_pq_class_of_fundamentals(self):
        for N in (3, 4):
            for i in range(1, N):
                assert pq_class_index(fundamental_weight(N, i)) % N == i % N

    def test_allowed_colors_su2_count(self):
        # full weight lattice: strictly dominant weights below level k'
        kprime = 7
        cols = allowed_colors(2, 1, kprime)
        assert len(cols) == kprime - 1
        assert weyl_vector(2) in cols

    def test_allowed_colors_live_in_sublattice(self):
        rho = weyl_vector(4)
        for lam in allowed_colors(4, 2, 9):
            assert (pq_class_index(lam - rho) % 2 == 0
                    or pq_class_index(lam + rho) % 2 == 0)

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_allowed_colors_match_weight_tests(self, N):
        # the integer tests against (lambda, theta) < k' and lambda - rho in
        # P', on every candidate with coordinates in [1, k'], in order
        rho, theta = weyl_vector(N), highest_root(N)
        for m in (d for d in range(1, N + 1) if N % d == 0):
            for kprime in range(N + 1, 13):
                want = [lam for ns in itertools.product(range(1, kprime + 1), repeat=N - 1)
                        for lam in [WeightVector(N, ns)]
                        if pair(lam, theta) < N * kprime and pq_class_index(lam - rho) % m == 0]
                assert allowed_colors(N, m, kprime) == want


class TestIntegerCore:
    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_gram_is_n_times_embedded_inner_products(self, N):
        L = [ref_embedding(N, fundamental_weight(N, i).coords) for i in range(1, N)]
        G = gram(N)
        for i in range(N - 1):
            for j in range(N - 1):
                assert G[i][j] == N * ref_dot(L[i], L[j])
                assert G[i][j] == N * min(i + 1, j + 1) - (i + 1) * (j + 1)

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_cartan_is_simple_root_gram(self, N):
        # alpha_i embeds as e_i - e_{i+1}
        A = cartan(N)
        for i, a in enumerate(simple_roots(N)):
            want = [int(t == i) - int(t == i + 1) for t in range(N)]
            assert ref_embedding(N, a.coords) == want
            for j in range(N - 1):
                assert A[i][j] == (2 if i == j else -1 if abs(i - j) == 1 else 0)
        # the fundamental weights are dual to the simple roots: A G = N I
        G = gram(N)
        for i in range(N - 1):
            for j in range(N - 1):
                assert sum(A[i][k] * G[k][j] for k in range(N - 1)) == N * (i == j)

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_rho_norm(self, N):
        rho = ref_embedding(N, weyl_vector(N).coords)
        assert rho_norm(N) == N * ref_dot(rho, rho) == Fraction(N * N * (N * N - 1), 12)
        assert pair(weyl_vector(N), weyl_vector(N)) == rho_norm(N)

    @given(st.sampled_from([2, 3, 4, 5]), st.data())
    def test_pair_is_n_times_embedded_inner_product(self, N, data):
        u, v = (data.draw(st.tuples(*[st.integers(-9, 9)] * (N - 1)))
                for _ in range(2))
        got = pair(WeightVector(N, u), WeightVector(N, v))
        assert type(got) is int
        assert got == N * ref_dot(ref_embedding(N, u), ref_embedding(N, v))

    def test_make_rejects_non_integers(self):
        for bad in ([Fraction(1, 2), 0], [1.5, 2], [1, Fraction(-7, 3)]):
            with pytest.raises(ValueError):
                WeightVector.make(3, bad)
        v = WeightVector.make(3, [Fraction(4), 2.0])
        assert v.coords == (4, 2) and all(type(c) is int for c in v.coords)
        with pytest.raises(TypeError):
            WeightVector(3, (Fraction(4), 2))

    @given(st.sampled_from([2, 3, 4]), st.data(), st.sampled_from([-1, 1]))
    def test_weyl_action_matches_embedding_permutation(self, N, data, s):
        coords = data.draw(st.tuples(*[st.integers(-6, 6)] * (N - 1)))
        emb = ref_embedding(N, coords)
        G = gram(N)

        def norm(x):
            return sum(a * g * b for a, row in zip(x, G) for g, b in zip(row, x))

        orbit = weyl_orbit(N, coords, s)
        assert len(orbit) == math.factorial(N)
        for perm, (sign, image) in zip(itertools.permutations(range(N)), orbit):
            assert image == ref_from_embedding([emb[perm[t]] for t in range(N)])
            assert sign == (ref_sign(perm) if s < 0 else 1)
            assert all(type(c) is int for c in image)
            assert norm(image) == norm(coords)
