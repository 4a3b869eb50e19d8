"""Weight-lattice data for A_{N-1}, in integers.

A weight is held by its int coordinates in the fundamental-weight basis
(L_1, ..., L_{N-1}).  Scaled by N, all of the lattice data is integral:
the Gram matrix gram(N) = N (L_i, L_j) = N min(i, j) - i j, and
rho_norm(N) = N (rho, rho).  The Cartan matrix is the Gram matrix of the
simple roots; its rows are the simple roots in the weight basis.  The Weyl
group permutes the N coordinates of the N-scaled orthogonal embedding,
which is integral as well, so weyl_orbit never leaves the integers, and
so is the pairing pair(u, v) = u^T gram(N) v = N (u, v).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

__all__ = [
    "WeightVector",
    "gram",
    "cartan",
    "rho_norm",
    "pair",
    "weyl_vector",
    "fundamental_weight",
    "weyl_orbit",
    "gamma_factor",
    "pq_class_index",
    "allowed_colors",
    "simple_roots",
]


@dataclass(frozen=True)
class WeightVector:
    """Integer coordinates in the basis (L_1, ..., L_{N-1})."""

    N: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.N - 1:
            raise ValueError("coordinate count must equal the rank N-1")
        if not all(type(c) is int for c in self.coords):
            raise TypeError("weight coordinates must be ints; WeightVector.make converts")

    @staticmethod
    def make(N: int, coords) -> "WeightVector":
        """The weight with the given coordinates, which must be integers."""
        coords = tuple(coords)
        ints = tuple(int(c) for c in coords)
        if ints != coords:
            raise ValueError(f"weight coordinates must be integers: {coords}")
        return WeightVector(N, ints)

    def __add__(self, other: "WeightVector") -> "WeightVector":
        self._check(other)
        return WeightVector(self.N, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "WeightVector") -> "WeightVector":
        self._check(other)
        return WeightVector(self.N, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "WeightVector":
        return WeightVector(self.N, tuple(-a for a in self.coords))

    def _check(self, other: "WeightVector"):
        if self.N != other.N:
            raise ValueError("rank mismatch")


@functools.cache
def gram(N: int) -> tuple[tuple[int, ...], ...]:
    """N times the Gram matrix of the fundamental weights, memoised as a tuple of tuples."""
    return tuple(tuple(N * min(i, j) - i * j for j in range(1, N)) for i in range(1, N))


def cartan(N: int) -> list[list[int]]:
    """The Cartan matrix of A_{N-1}: the Gram matrix of the simple roots."""
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(N - 1)]
            for i in range(N - 1)]


def rho_norm(N: int) -> int:
    """N (rho, rho) = N^2 (N^2 - 1) / 12."""
    return N * N * (N * N - 1) // 12


def fundamental_weight(N: int, i: int) -> WeightVector:
    return WeightVector(N, tuple(int(j == i) for j in range(1, N)))


def weyl_vector(N: int) -> WeightVector:
    return WeightVector(N, (1,) * (N - 1))


def simple_roots(N: int) -> list[WeightVector]:
    """alpha_i = 2 L_i - L_{i-1} - L_{i+1}: the rows of the Cartan matrix."""
    return [WeightVector(N, tuple(row)) for row in cartan(N)]


def pair(u: WeightVector, v: WeightVector) -> int:
    """u^T gram(N) v: N times the inner product (u, v), an integer."""
    u._check(v)
    return sum(a * sum(g * b for g, b in zip(row, v.coords))
               for a, row in zip(u.coords, gram(u.N)) if a)


@functools.cache
def _permutations(N: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every permutation of range(N), identity first, with its number of
    inversions: the Weyl group of A_{N-1} and the lengths of its elements."""
    return tuple((p, sum(a > b for i, a in enumerate(p) for b in p[i + 1:]))
                 for p in itertools.permutations(range(N)))


def weyl_orbit(N: int, coords, s: int = -1) -> list[tuple[int, tuple[int, ...]]]:
    """(s^l(w), w(v)) for every Weyl element w, identity first, where v is
    the weight with int coordinates coords; s = -1 gives the sign of w.

    w permutes the N-scaled orthogonal embedding of v, made once: N L_i
    embeds as (N - i repeated i times, then -i repeated N - i times), a
    sum-zero integer N-vector whose entries are all congruent mod N.  The
    coordinate i of a weight is its pairing with the simple root
    e_i - e_{i+1}, so it is the difference of adjacent entries over N.
    """
    emb = [sum(c * (N - i if t < i else -i) for i, c in enumerate(coords, start=1))
           for t in range(N)]
    out = []
    for perm, length in _permutations(N):
        e = [emb[t] for t in perm]
        out.append((s ** length, tuple((e[t] - e[t + 1]) // N for t in range(N - 1))))
    return out


def gamma_factor(N: int, m: int) -> int:
    """Least gamma >= 1 making (gamma/2)(L_a, L_a) integral for the Z_m generators."""
    if N < 2:
        raise ValueError("need N >= 2")
    if m < 1 or N % m != 0:
        raise ValueError(f"m={m} must be a positive divisor of N={N}")
    G = gram(N)
    # N (L_a, L_a) for the generators L_a, a = (N/m) j with 0 < j < m
    norms = [G[a - 1][a - 1] for a in range(N // m, N, N // m)]
    gamma = 1
    while any(gamma * x % (2 * N) for x in norms):
        gamma += 1
    return gamma


def pq_class_index(v: WeightVector) -> int:
    """Index of the class of v in P/Q ~ Z_N."""
    # class(L_i) = i; classes add, so class(v) = sum i*c_i mod N
    return sum(i * c for i, c in enumerate(v.coords, start=1)) % v.N


def highest_root(N: int) -> WeightVector:
    """theta = L_1 + L_{N-1} (equal to its coroot for A_{N-1})."""
    coords = [0] * (N - 1)
    coords[0] += 1
    coords[N - 2] += 1
    return WeightVector(N, tuple(coords))


def allowed_colors(N: int, m: int, kprime: int) -> list[WeightVector]:
    """The set {lambda in (P+ intersect P') + rho : (lambda, theta) < k'}.

    P/Q ~ Z_N with class(L_i) = i, and the sublattice P' with P/P' ~ Z_m is
    the union of the classes that are multiples of m.  The candidates are
    the strictly dominant weights lambda = sum n_i L_i, n_i >= 1, in
    lexicographic order.  As (L_i, theta) = 1, the level test is
    sum n_i < k'; the class of lambda - rho is sum i n_i - N(N-1)/2 mod N,
    in P' when m divides it (m divides N).
    """
    if m < 1 or N % m != 0:
        raise ValueError(f"m={m} must be a positive divisor of N={N}")
    if kprime <= N:
        return []
    half = N * (N - 1) // 2
    return [WeightVector(N, ns) for ns in itertools.product(range(1, kprime), repeat=N - 1)
            if sum(ns) < kprime and (sum(i * n for i, n in enumerate(ns, 1)) - half) % m == 0]
