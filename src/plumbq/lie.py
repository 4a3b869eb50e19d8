"""Weight-lattice combinatorics for A_{N-1}.

Weights live in the fundamental-weight basis with the closed-form Gram
matrix (L_i, L_j) = min(i,j) - i*j/N.  The Weyl group acts by permuting the
N coordinates of the orthogonal embedding, which is only used inside
weyl_action so that everything else stays in the weight basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "WeightVector",
    "WeylElement",
    "SublatticeSpec",
    "weight_inner",
    "weyl_vector",
    "fundamental_weight",
    "weyl_group",
    "weyl_action",
    "gamma_factor",
    "sublattice_Pprime",
    "allowed_colors",
    "simple_roots",
]


@dataclass(frozen=True)
class WeightVector:
    """Rational coordinates in the basis (L_1, ..., L_{N-1})."""

    N: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != self.N - 1:
            raise ValueError("coordinate count must equal the rank N-1")

    @staticmethod
    def make(N: int, coords) -> "WeightVector":
        return WeightVector(N, tuple(Fraction(c) for c in coords))

    def __add__(self, other: "WeightVector") -> "WeightVector":
        self._check(other)
        return WeightVector(self.N, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "WeightVector") -> "WeightVector":
        self._check(other)
        return WeightVector(self.N, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "WeightVector":
        return WeightVector(self.N, tuple(-a for a in self.coords))

    def scale(self, f) -> "WeightVector":
        f = Fraction(f)
        return WeightVector(self.N, tuple(f * a for a in self.coords))

    def _check(self, other: "WeightVector"):
        if self.N != other.N:
            raise ValueError("rank mismatch")

    def embedding(self) -> tuple[Fraction, ...]:
        """Coordinates in the orthogonal N-vector embedding.

        L_i maps to (1/N)((N-i) repeated i times, then -i repeated N-i
        times); the image lies in the sum-zero hyperplane.
        """
        N = self.N
        out = [Fraction(0)] * N
        for i, c in enumerate(self.coords, start=1):
            for t in range(N):
                out[t] += c * Fraction(N - i if t < i else -i, N)
        return tuple(out)

    @staticmethod
    def from_embedding(N: int, emb) -> "WeightVector":
        """Inverse of embedding(); emb must be sum-zero with compatible denominators."""
        emb = [Fraction(e) for e in emb]
        assert sum(emb) == 0
        # pairing with the simple roots e_i - e_{i+1} recovers the coordinates
        coords = [emb[i] - emb[i + 1] for i in range(N - 1)]
        return WeightVector(N, tuple(coords))


@dataclass(frozen=True)
class WeylElement:
    perm: tuple[int, ...]  # image of (0, ..., N-1)

    @property
    def length(self) -> int:
        inv = 0
        p = self.perm
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                if p[i] > p[j]:
                    inv += 1
        return inv

    @property
    def sign(self) -> int:
        return -1 if self.length % 2 else 1


@dataclass(frozen=True)
class SublatticeSpec:
    """P' = the union of the classes of P/Q ~ Z_N that are multiples of m."""

    N: int
    m: int


def fundamental_weight(N: int, i: int) -> WeightVector:
    coords = [Fraction(int(j == i)) for j in range(1, N)]
    return WeightVector(N, tuple(coords))


def weyl_vector(N: int) -> WeightVector:
    return WeightVector(N, tuple(Fraction(1) for _ in range(N - 1)))


def simple_roots(N: int) -> list[WeightVector]:
    """alpha_i = 2 L_i - L_{i-1} - L_{i+1} in the weight basis."""
    roots = []
    for i in range(1, N):
        coords = [Fraction(0)] * (N - 1)
        coords[i - 1] = Fraction(2)
        if i - 2 >= 0:
            coords[i - 2] -= 1
        if i < N - 1:
            coords[i] -= 1
        roots.append(WeightVector(N, tuple(coords)))
    return roots


def weight_inner(u: WeightVector, v: WeightVector) -> Fraction:
    if u.N != v.N:
        raise ValueError("rank mismatch")
    N = u.N
    total = Fraction(0)
    for i, a in enumerate(u.coords, start=1):
        if a == 0:
            continue
        for j, b in enumerate(v.coords, start=1):
            if b == 0:
                continue
            total += a * b * (Fraction(min(i, j)) - Fraction(i * j, N))
    return total


def weyl_group(N: int) -> list[WeylElement]:
    """All N! elements as permutations of embedding coordinates, identity first."""
    ident = tuple(range(N))
    elems = [WeylElement(ident)]
    for p in itertools.permutations(range(N)):
        if p != ident:
            elems.append(WeylElement(p))
    return elems


def weyl_action(w: WeylElement, v: WeightVector) -> WeightVector:
    emb = v.embedding()
    permuted = [emb[w.perm[t]] for t in range(v.N)]
    return WeightVector.from_embedding(v.N, permuted)


def gamma_factor(N: int, m: int) -> int:
    """Least gamma >= 1 making (gamma/2)(L_a, L_a) integral for the Z_m generators."""
    if N % m != 0:
        raise ValueError(f"m={m} must divide N={N}")
    gens = [fundamental_weight(N, (N // m) * j) for j in range(1, m)]
    gamma = 1
    while True:
        if all(
            (Fraction(gamma, 2) * weight_inner(g, g)).denominator == 1
            for g in gens
        ):
            return gamma
        gamma += 1


def sublattice_Pprime(N: int, m: int) -> SublatticeSpec:
    """The sublattice P' with P/P' of order m.

    P/Q ~ Z_N with class(L_i) = i, and P' is the union of the classes that
    are multiples of m, so P/P' ~ Z_m is generated by the class of L_{N/m}.
    """
    if N % m != 0:
        raise ValueError(f"m={m} must divide N={N}")
    return SublatticeSpec(N, m)


def pq_class_index(v: WeightVector) -> int:
    """Index of the class of v in P/Q ~ Z_N (v must be in P)."""
    N = v.N
    # class(L_i) = i; classes add, so class(v) = sum i*c_i mod N
    total = 0
    for i, c in enumerate(v.coords, start=1):
        if c.denominator != 1:
            raise ValueError("not a weight-lattice point")
        total += i * c.numerator
    return total % N


def in_Pprime(v: WeightVector, spec: SublatticeSpec) -> bool:
    return pq_class_index(v) % spec.m == 0


def highest_root(N: int) -> WeightVector:
    """theta = L_1 + L_{N-1} (equal to its coroot for A_{N-1})."""
    coords = [Fraction(0)] * (N - 1)
    coords[0] += 1
    coords[N - 2] += 1
    return WeightVector(N, tuple(coords))


def allowed_colors(N: int, m: int, kprime: int) -> list[WeightVector]:
    """The set {lambda in (P+ intersect P') + rho : (lambda, theta) < k'}.

    Enumerates strictly dominant weights lambda = sum n_i L_i with n_i >= 1
    bounded by k', then filters by the level condition and membership of
    lambda - rho in P'.
    """
    if kprime <= N:
        return []
    spec = sublattice_Pprime(N, m)
    theta = highest_root(N)
    rho = weyl_vector(N)
    out = []
    for ns in itertools.product(range(1, kprime + 1), repeat=N - 1):
        lam = WeightVector.make(N, ns)
        if weight_inner(lam, theta) >= kprime:
            continue
        if not in_Pprime(lam - rho, spec):
            continue
        out.append(lam)
    return out
