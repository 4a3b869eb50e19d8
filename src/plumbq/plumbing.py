"""Plumbing graphs: trees of framed unknots and their linking matrices.

All linear algebra is exact over the integers, since definiteness
decisions and coset structure cannot tolerate floating point.  One
Faddeev-LeVerrier pass per linking matrix gives its characteristic
polynomial, and from it the signature, the determinant and the integer
adjugate: every pairing through B^{-1} is an integer adj(B) pairing over
det B, and no matrix inverse is formed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

__all__ = [
    "PlumbingGraph",
    "LinkingMatrix",
    "SpincLabel",
    "linking_matrix",
    "is_negative_definite",
    "degree_delta",
    "spinc_representatives",
    "kirby_neumann_move",
    "lens_chain",
    "graph_to_json",
    "graph_from_json",
    "coset_representatives",
]


@dataclass(frozen=True)
class PlumbingGraph:
    """A tree with an integer framing on each vertex."""

    vertices: tuple[tuple[int, int], ...]  # (id, framing)
    edges: tuple[tuple[int, int], ...]     # unordered id pairs

    def __post_init__(self):
        ids = [v for v, _ in self.vertices]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex ids")
        idset = set(ids)
        for a, b in self.edges:
            if a not in idset or b not in idset or a == b:
                raise ValueError(f"bad edge ({a},{b})")
        if len(self.edges) != len(ids) - 1:
            raise ValueError("plumbing graph must be a tree (|E| = L - 1)")
        # connectivity check by union-find
        parent = {i: i for i in ids}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra == rb:
                raise ValueError("plumbing graph contains a cycle")
            parent[ra] = rb
        if len({find(i) for i in ids}) != 1:
            raise ValueError("plumbing graph is disconnected")

    @staticmethod
    def build(framings, edges) -> "PlumbingGraph":
        """framings: list of ints (ids 0..L-1) or list of (id, framing).
        An id or framing that is not an int (a bool, a float, a string)
        raises TypeError instead of being truncated."""
        if framings and isinstance(framings[0], (tuple, list)):
            verts = tuple((i, f) for i, f in framings)
        else:
            verts = tuple(enumerate(framings))
        edges = tuple(tuple(sorted(e)) for e in edges)
        for x in itertools.chain(*verts, *edges):
            if type(x) is not int:
                raise TypeError(f"vertex ids and framings must be integers, "
                                f"got {x!r}")
        return PlumbingGraph(verts, edges)

    @property
    def ids(self) -> list[int]:
        return [v for v, _ in self.vertices]

    @property
    def framings(self) -> dict[int, int]:
        return dict(self.vertices)

    def degree(self, vid: int) -> int:
        return sum(1 for a, b in self.edges if vid in (a, b))

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class LinkingMatrix:
    """A symmetric integer matrix B with the facts read off its
    characteristic polynomial: the eigenvalue sign counts b_plus and
    b_minus, det B, and the integer adjugate adj B = det(B) B^{-1} (which
    exists for singular B as well, where B adj B = 0)."""

    B: tuple[tuple[int, ...], ...]
    b_plus: int
    b_minus: int
    det: int
    adj: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(B) -> "LinkingMatrix":
        """All fields of a symmetric integer matrix B, from one
        Faddeev-LeVerrier pass.

        The pass ends with c_0 = det(-B) and the matrix M_n, with
        B M_n = -c_0 I; by Cayley-Hamilton det B = (-1)^n c_0 and
        adj B = (-1)^(n+1) M_n.
        """
        B = tuple(tuple(int(x) for x in row) for row in B)
        coeffs, M = _charpoly(B)
        sign = (-1) ** len(B)
        b_plus, b_minus = _signature_counts(coeffs)
        return LinkingMatrix(B, b_plus, b_minus, sign * coeffs[-1],
                             tuple(tuple(-sign * x for x in row) for row in M))

    @property
    def size(self) -> int:
        return len(self.B)


@dataclass(frozen=True)
class SpincLabel:
    b: tuple[int, ...]
    stabilizer_order: int


@functools.lru_cache(maxsize=64)
def linking_matrix(g: PlumbingGraph) -> LinkingMatrix:
    """The linking matrix of g, in the order of g.ids.  Memoised on the
    frozen graph: every layer asks for it (the CLI's checks, the state sum,
    each block and its oracle), and both values are immutable."""
    ids = g.ids
    pos = {v: i for i, v in enumerate(ids)}
    L = len(ids)
    fr = g.framings
    B = [[0] * L for _ in range(L)]
    for v in ids:
        B[pos[v]][pos[v]] = fr[v]
    for a, b in g.edges:
        B[pos[a]][pos[b]] = 1
        B[pos[b]][pos[a]] = 1
    return LinkingMatrix.of(B)


def _signature_counts(coeffs: list[int]) -> tuple[int, int]:
    """Eigenvalue sign counts from the characteristic polynomial.

    For a symmetric matrix, whose eigenvalues are all real, the number of
    positive eigenvalues equals the sign changes in the coefficient
    sequence of det(xI - B) once its zero roots are stripped (Descartes).
    """
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:  # strip zero roots
        coeffs.pop()
    signs = [c > 0 for c in coeffs if c]
    pos = sum(a != b for a, b in zip(signs, signs[1:]))
    return pos, len(coeffs) - 1 - pos


def _charpoly(B) -> tuple[list[int], list[list[int]]]:
    """Coefficients of det(xI - B), leading first, via Faddeev-LeVerrier,
    and the last matrix M_n of the recursion.

    M_k = B M_{k-1} + c_{n-k+1} I and c_{n-k} = -tr(B M_k) / k, so the
    product B M_k serves both the trace and the next step.
    """
    n = len(B)
    coeffs = [1]
    M: list[list[int]] = []
    BM = [[0] * n for _ in range(n)]
    c = 1
    for k in range(1, n + 1):
        M = BM
        for i in range(n):
            M[i][i] += c
        cols = list(zip(*M))
        BM = [[sum(a * m for a, m in zip(row, col)) for col in cols] for row in B]
        tr = sum(BM[i][i] for i in range(n))
        assert tr % k == 0
        c = -tr // k
        coeffs.append(c)
    return coeffs, M


def is_negative_definite(lm: LinkingMatrix) -> bool:
    """True iff all eigenvalues are negative, from the exact signature."""
    return lm.b_minus == lm.size


def degree_delta(g: PlumbingGraph) -> tuple[list[int], list[int]]:
    deg = [g.degree(v) for v in g.ids]
    return deg, [d % 2 for d in deg]


def _hnf_columns(M: list[list[int]]) -> list[list[int]]:
    """Lower-triangular column Hermite normal form of nonsingular M.

    Returns H with positive diagonal such that the columns of H span the
    same lattice as the columns of M.
    """
    n = len(M)
    cols = [[M[i][j] for i in range(n)] for j in range(n)]

    def sub(dst, src, f):
        cols[dst] = [a - f * b for a, b in zip(cols[dst], cols[src])]

    for row in range(n):
        piv = None
        for j in range(row, n):
            if cols[j][row] != 0:
                piv = j
                break
        if piv is None:
            raise ValueError("matrix is singular")
        cols[row], cols[piv] = cols[piv], cols[row]
        # clear the row to the right by gcd steps
        for j in range(row + 1, n):
            while cols[j][row] != 0:
                f = cols[row][row] // cols[j][row]
                sub(row, j, f)
                cols[row], cols[j] = cols[j], cols[row]
        if cols[row][row] < 0:
            cols[row] = [-x for x in cols[row]]
        # reduce entries to the left of the pivot into [0, pivot)
        for j in range(row):
            f = cols[j][row] // cols[row][row]
            sub(j, row, f)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _hnf_reduce(H: list[list[int]], v) -> tuple[int, ...]:
    """Unique residue of v modulo the column lattice of lower-triangular H."""
    n = len(H)
    x = [int(t) for t in v]
    for i in range(n):
        c = x[i] // H[i][i]
        if c:
            for r in range(i, n):
                x[r] -= c * H[r][i]
    return tuple(x)


def coset_representatives(M: list[list[int]]) -> list[tuple[int, ...]]:
    """Representatives of Z^L / M Z^L for nonsingular integer M."""
    H = _hnf_columns(M)
    n = len(M)
    return [
        _hnf_reduce(H, v)
        for v in itertools.product(*[range(H[i][i]) for i in range(n)])
    ]


def spinc_labels_unfolded(lm: LinkingMatrix, delta: list[int]) -> list[tuple[int, ...]]:
    """All classes of (2Z^L + delta) / 2B Z^L, canonical representatives.

    Canonicity comes from Hermite-normal-form reduction modulo the column
    lattice of 2B, which picks a unique residue per class.
    """
    n = lm.size
    B = [list(r) for r in lm.B]
    H2 = _hnf_columns([[2 * B[i][j] for j in range(n)] for i in range(n)])
    out = set()
    for y in coset_representatives(B):
        b = [delta[i] + 2 * y[i] for i in range(n)]
        out.add(_hnf_reduce(H2, b))
    assert len(out) == abs(lm.det)
    return sorted(out)


def spinc_representatives(lm: LinkingMatrix, delta: list[int]) -> list[SpincLabel]:
    """Folded Spin^c orbit representatives for (2Z^L+delta)/2BZ^L / Z2."""
    if lm.det == 0:
        raise ValueError("linking matrix is singular")
    n = lm.size
    B = [list(r) for r in lm.B]
    H2 = _hnf_columns([[2 * B[i][j] for j in range(n)] for i in range(n)])
    out = []
    seen = set()
    for b in spinc_labels_unfolded(lm, delta):
        neg = _hnf_reduce(H2, [-x for x in b])
        canon = min(b, tuple(neg))
        if canon in seen:
            continue
        seen.add(canon)
        out.append(SpincLabel(canon, stabilizer_order=2 if neg == b else 1))
    return out


def kirby_neumann_move(g: PlumbingGraph, move: dict) -> PlumbingGraph:
    """Apply a blow-up or blow-down at the named site.

    move = {"kind": "blow_down", "vertex": id}
        removes a (+-1)-framed vertex of degree <= 2, adjusting neighbors:
        degree 0: drop it; degree 1: neighbor framing -= sign; degree 2:
        both neighbor framings -= sign and the neighbors get joined.
    move = {"kind": "blow_up", "sign": +-1, "at": id | null, "edge": [a,b] | null, "new_id": id}
        inverse operation: a free (+-1) vertex, a leaf on `at`, or a vertex
        subdividing `edge`, with neighbor framings increased by sign.

    A move of the wrong shape (not a dict, a missing key, an edge that is
    not a pair) raises KeyError or TypeError; a move that does not apply to
    g raises ValueError.
    """
    if not isinstance(move, dict):
        raise TypeError("move must be an object")
    fr = dict(g.framings)
    edges = [tuple(e) for e in g.edges]
    kind = move["kind"]
    if kind == "blow_down":
        v = move["vertex"]
        eps = fr.get(v)
        if eps not in (1, -1):
            raise ValueError(f"vertex {v} framing {eps} is not +-1")
        nbrs = [a if b == v else b for a, b in edges if v in (a, b)]
        if len(nbrs) > 2:
            raise ValueError("blow-down needs degree <= 2")
        edges = [e for e in edges if v not in e]
        del fr[v]
        for w in nbrs:
            fr[w] -= eps
        if len(nbrs) == 2:
            a, b = nbrs
            if tuple(sorted((a, b))) in edges:
                raise ValueError("blow-down would create a multi-edge")
            edges.append(tuple(sorted((a, b))))
        if not fr:
            raise ValueError("cannot remove the last vertex")
        return PlumbingGraph.build(sorted(fr.items()), edges)
    if kind == "blow_up":
        eps = move["sign"]
        if eps not in (1, -1):
            raise ValueError("sign must be +-1")
        new = move["new_id"]
        if new in fr:
            raise ValueError(f"id {new} already present")
        at = move.get("at")
        edge = move.get("edge")
        fr[new] = eps
        if edge is not None:
            if not isinstance(edge, list | tuple) or len(edge) != 2:
                raise TypeError(f"edge {edge} is not a pair of ids")
            a, b = edge
            e = tuple(sorted((a, b)))
            if e not in edges:
                raise ValueError(f"edge {edge} not in graph")
            edges.remove(e)
            edges.append(tuple(sorted((a, new))))
            edges.append(tuple(sorted((b, new))))
            fr[a] += eps
            fr[b] += eps
        elif at is not None:
            if at not in g.framings:
                raise ValueError(f"vertex {at} not in graph")
            edges.append(tuple(sorted((at, new))))
            fr[at] += eps
        return PlumbingGraph.build(sorted(fr.items()), edges)
    raise ValueError(f"unknown move kind {kind!r}")


def negative_continued_fraction(p: int, q: int) -> list[int]:
    """Coefficients a_i >= 2 with p/q = a1 - 1/(a2 - 1/(...))."""
    if q <= 0 or p <= 0:
        raise ValueError("need p, q > 0 after normalization")
    out = []
    while q > 0:
        a = -(-p // q)  # ceil division
        out.append(a)
        p, q = q, a * q - p
    return out


def lens_chain(p: int, q: int) -> PlumbingGraph:
    """Linear plumbing for the lens space L(p, q) with |det B| = |p|.

    The chain carries framings -a_i from the all-minus continued fraction
    of |p|/q' where q' = q mod |p|; this is the negative-definite
    presentation, so L(-p, q) and L(p, q) inputs land on the same chain up
    to the standard orientation bookkeeping.
    """
    if p == 0:
        raise ValueError("p must be nonzero")
    pp = abs(p)
    # the all-minus chain for p/q presents L(p,q); a negative p asks for the
    # reversed orientation L(-p,q) = L(p,p-q), so flip q accordingly
    qq = (q if p > 0 else -q) % pp
    if qq == 0 or math.gcd(pp, qq) != 1:
        raise ValueError(f"need gcd(p,q)=1 with q invertible mod p, got ({p},{q})")
    coeffs = negative_continued_fraction(pp, qq)
    L = len(coeffs)
    return PlumbingGraph.build([-a for a in coeffs],
                               [(i, i + 1) for i in range(L - 1)])


def graph_to_json(g: PlumbingGraph) -> dict:
    return {
        "vertices": [{"id": v, "framing": f} for v, f in g.vertices],
        "edges": [list(e) for e in g.edges],
    }


def graph_from_json(obj: dict) -> PlumbingGraph:
    return PlumbingGraph.build(
        [(v["id"], v["framing"]) for v in obj["vertices"]],
        [tuple(e) for e in obj["edges"]],
    )

