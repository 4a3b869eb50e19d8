"""Root-of-unity invariants of plumbed manifolds via colored state sums.

Each invariant is a finite sum over colorings of the plumbing tree,
evaluated at a root of unity with mpmath at a configurable working
precision.  The tree structure is exploited by message passing (one
matrix-vector contraction per edge), so the cost is quadratic in the number
of colors instead of exponential in the number of vertices.

Every phase of one invariant is exp(pi i a / D) for an integer a and one
denominator D: D = 2 order for the rank-1 sums, D = N k' for su(N).  Twists,
S entries and unknot sums index one table of those 2D phases by a mod 2D.

Everything that depends on the level and not on the graph lives in one
level context (_Level), built once per state-sum kind, root data and
working precision and kept in a single-entry cache, so a run of graphs at
one level in one process (Kirby-equivalent presentations, a loop of state
sums and GPPV checks) builds it once: the phase table, the edge matrix in
integer-row form, the vertex rows per (framing, degree), the two unknot
sums and the normalization.  The context also keeps each contracted child
message under the structure of its subtree, so equal subtrees, in one
graph or in the graphs that follow, are contracted once.  A single state
sum in a fresh process shares nothing across calls; it gains only from
equal subtrees within its graph.  Every cached value is computed by the
same operations in the same order as on a cold call, so warm and cold
calls give the same bits.

Every dot product of mp values (a tree edge, an su(N) S entry, a class-
weighted phase sum in gppv) runs on one exact integer kernel: the values
become signed integer mantissas over one shared binary exponent
(_mantissas), the products are summed exactly in Python integers (_dot),
and each part of the sum is rounded once at the working precision
(_rounded).  That is what mpmath.fdot does with mpf products, so the bits
are the same, but a part that is identically zero costs nothing: the
rank-1 edge entries are exactly imaginary (su2, so3) or exactly real
(osp12), so each edge term takes two integer products instead of four
mpf multiplications.

The normalization is fixed by dividing out the unknot contributions of
(+-1)-framed single vertices, one per positive/negative eigenvalue of the
linking matrix, so the three-sphere always evaluates to 1.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import mpmath as mp
from mpmath.libmp import from_int, from_man_exp, fzero, mpc_mul, round_nearest

from plumbq.lie import (
    allowed_colors,
    gamma_factor,
    gram,
    pair,
    rho_norm,
    weyl_action,
    weyl_group,
    weyl_vector,
)
from plumbq.plumbing import PlumbingGraph, linking_matrix

__all__ = [
    "WRTResult",
    "wrt_su2",
    "wrt_so3",
    "wrt_osp",
    "wrt_sun_zm",
    "result_to_json",
]

# The subtree memo of a level stops taking messages once it holds this many
# colour entries in all: about 1.6 MB at the default precision (dps 60), 5 MB
# at dps 1000.
_MEMO_ENTRIES = 4096


@dataclass(frozen=True)
class WRTResult:
    variant: str
    level: int          # the bare level handed in by the caller
    root_order: int     # the invariant is evaluated at exp(2 pi i / root_order)
    value: object       # mpmath.mpc
    dps: int


def result_to_json(res: WRTResult) -> dict:
    return {
        "variant": res.variant,
        "level": res.level,
        "root_order": res.root_order,
        "re": mp.nstr(res.value.real, res.dps),
        "im": mp.nstr(res.value.imag, res.dps),
        "dps": res.dps,
    }


def _check_dps(dps: int) -> None:
    if dps < 1:
        raise ValueError("precision must be at least 1")


def _phase(x: Fraction) -> mp.mpc:
    """exp(pi i x) for an exact rational x, at the current precision.

    The argument is the correctly rounded quotient of x's numerator and
    denominator, so equal rationals give equal bits however they were
    written.
    """
    return mp.expjpi(mp.mpf(x.numerator) / x.denominator)


def _phase_table(D: int) -> list[mp.mpc]:
    """Z[a] = exp(pi i a / D) for a in [0, 2D), at the current precision.

    Every phase of a sum at one root of unity is Z[a % (2D)] for an integer
    exponent a, so each call evaluates its phases once instead of once per
    term.  The upper half is the conjugate of the lower, Z[2D - a] =
    conj(Z[a]) bit for bit, so q^t - q^{-t} is exactly imaginary and
    q^t + q^{-t} exactly real.
    """
    lower = [_phase(Fraction(a, D)) for a in range(D + 1)]
    return lower + [mp.conj(z) for z in reversed(lower[1:D])]


def _mantissas(xs) -> tuple[list[int], list[int], int]:
    """Exact integer parts of a list of mpf, mpc or int values.

    Returns (re, im, e) with xs[k] == (re[k] + i im[k]) 2^e exactly: e is
    the lowest binary exponent of any nonzero part, and every mantissa is
    shifted up to it.  Nothing is rounded.
    """
    parts = []
    for x in xs:
        if hasattr(x, "_mpc_"):
            parts.append(x._mpc_)
        elif hasattr(x, "_mpf_"):
            parts.append((x._mpf_, fzero))
        else:
            parts.append((from_int(x), fzero))
    return _raw_mantissas(parts)


def _raw_mantissas(parts) -> tuple[list[int], list[int], int]:
    """_mantissas of raw mpmath (re, im) pairs, as in an mpc's _mpc_."""
    e = min((p[2] for pair in parts for p in pair if p[1]), default=0)

    def shifted(p) -> int:
        sign, man, exp, _ = p
        if not man:
            if exp:  # mpmath codes inf and nan as a zero mantissa
                raise ValueError("non-finite value in an exact dot product")
            return 0
        man <<= exp - e
        return -man if sign else man

    return [shifted(a) for a, _ in parts], [shifted(b) for _, b in parts], e


def _dot(a, b) -> tuple[int, int]:
    """Exact (re, im) of sum_k a_k b_k over integer parts a = (re, im) and
    b = (re, im); a part of a given as None is identically zero and costs
    no products."""
    are, aim = a
    bre, bim = b
    re = im = 0
    if are is not None:
        re += sum(map(mul, are, bre))
        im += sum(map(mul, are, bim))
    if aim is not None:
        re -= sum(map(mul, aim, bim))
        im += sum(map(mul, aim, bre))
    return re, im


def _rounded(re: int, im: int, e: int) -> mp.mpc:
    """(re + i im) 2^e, each part rounded once to the working precision.

    mp.fdot multiplies exactly, adds the products exactly in mpf_sum and
    rounds the sum once in the same way, so an exact integer dot product
    rounded here has the same bits.  (mpf_sum drops a term that lies more
    than twice the precision in bits away from its running sum, and then
    the two can differ at an exact rounding tie; no state sum comes near
    that spread.)
    """
    prec = mp.mp.prec
    return mp.make_mpc((from_man_exp(re, e, prec, round_nearest),
                        from_man_exp(im, e, prec, round_nearest)))


def _int_rows(E) -> list:
    """The rows of a matrix of mp values in the form _tree_sum contracts
    with: per row, its exact integer parts (re, im) over one exponent e, a
    part that is identically zero given as None."""
    rows = []
    for row in E:
        re, im, e = _mantissas(row)
        rows.append(((re if any(re) else None, im if any(im) else None), e))
    return rows


def _tree_edges(g: PlumbingGraph) -> list[tuple[int, int]]:
    """Edges as (parent, child) vertex positions, parents before children.

    The root is position 0; read backwards, the list contracts leaves first.
    """
    pos = {v: i for i, v in enumerate(g.ids)}
    nbrs: list[list[int]] = [[] for _ in pos]
    for a, b in g.edges:
        nbrs[pos[a]].append(pos[b])
        nbrs[pos[b]].append(pos[a])
    out = []
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in nbrs[v]:
            if w not in seen:
                seen.add(w)
                out.append((v, w))
                stack.append(w)
    return out


def _tree_sum_direct(g: PlumbingGraph, labels, level) -> mp.mpc:
    """Brute-force odometer over all colorings; the reference that the tests
    hold _tree_sum to.  The mp edge matrix is rebuilt exactly from the
    level's integer rows, and every term is multiplied out."""
    V = [level.vertex_row(lab) for lab in labels]
    n = len(level.rows)
    E = [[mp.make_mpc((from_man_exp(0 if re is None else re[c], e),
                       from_man_exp(0 if im is None else im[c], e)))
          for c in range(n)]
         for (re, im), e in level.rows]
    edges = _tree_edges(g)
    terms = []
    for coloring in itertools.product(range(n), repeat=len(V)):
        w = mp.mpc(1)
        for vi, c in enumerate(coloring):
            w *= V[vi][c]
        for a, b in edges:
            w *= E[coloring[a]][coloring[b]]
        terms.append(w)
    return mp.fsum(terms)


def _message(row, kids, prec: int) -> list:
    """A vertex's message as raw _mpc_ values: its row of mpc weights times
    each contracted child message, one rounded product per child in
    contraction order (what `vec[c] *= w[c]` does on mpc values)."""
    msg = [z._mpc_ for z in row]
    for _, w in kids:
        msg = [mpc_mul(a, b, prec, round_nearest) for a, b in zip(msg, w)]
    return msg


def _tree_sum(g: PlumbingGraph, labels, level) -> mp.mpc:
    """Sum over colorings c of prod_v V[v][c_v] prod_{edges vw} E[c_v][c_w].

    The vertex at position v of g.ids has label labels[v] and the row of
    mpc weights V[v] = level.vertex_row(labels[v]), so equal labels give
    equal rows; level.rows is the symmetric edge matrix E over the colors
    in the form _int_rows gives, and level.memo a dict.  Contraction runs
    leaf-to-root: a child's message is its row times its children's
    contracted messages, and it enters its parent contracted, as the
    vector of dot products of the rows of E with it.  Each message becomes integers once, and each dot product is an
    exact integer sum rounded once, bit for bit what mp.fdot(E[c], msg)
    gives; a row part that is identically zero is skipped.  Messages stay
    raw _mpc_ tuples, multiplied with mpc_mul, the function mpc
    multiplication calls, so no mp object is made per product.

    A contracted message depends only on the child's subtree, named by the
    child's label and its children's names in contraction order, and it is
    kept in level.memo under that name until the memo holds _MEMO_ENTRIES
    colour entries.  So equal subtrees are contracted once, in one tree
    or across the trees that share the level (the same E, vertex rows and
    precision).  A name fixes every rounded operation that made its
    message, so a message from the memo has the bits a fresh contraction
    would give.
    """
    prec = mp.mp.prec
    rows, memo = level.rows, level.memo
    kids = [[] for _ in labels]  # (name, contracted message) per child
    for parent, child in reversed(_tree_edges(g)):
        name = (labels[child], tuple(n for n, _ in kids[child]))
        w = memo.get(name)
        if w is None:
            row = level.vertex_row(labels[child])
            mre, mim, e = _raw_mantissas(_message(row, kids[child], prec))
            w = []
            for erow, e_row in rows:
                re, im = _dot(erow, (mre, mim))
                w.append((from_man_exp(re, e_row + e, prec, round_nearest),
                          from_man_exp(im, e_row + e, prec, round_nearest)))
            if (len(memo) + 1) * len(rows) <= _MEMO_ENTRIES:
                memo[name] = w
        kids[parent].append((name, w))
    root = _message(level.vertex_row(labels[0]), kids[0], prec)
    return mp.fsum(mp.make_mpc(z) for z in root)


# ---------------------------------------------------------------------------
# the level context and the state sum every group shares


class _Level:
    """What a state sum at one level and working precision shares between
    graphs.

    The vertex weight of color c at framing f and degree d is
    Z[f twist[c]] amp[c]^{2-d}, the edge matrix is E (kept as rows, its
    _int_rows), and the unknot sum at sign eps is sum_c Z[eps twist[c]]
    amp[c]^2.  Rank 1 (rank1 true, x = U[1]) normalizes a graph of L
    vertices by x^{-(L+1)} and divides each unknot sum by x^2; su(N)
    (x = S_0rho) normalizes by x^{L-1}.  Vertex rows and unknot sums are
    made on first use; memo holds _tree_sum's contracted child messages.
    """

    def __init__(self, Z, twist, amp, E, x, rank1: bool):
        self.Z = Z
        self.twist = twist
        self.amp = amp
        self.rows = _int_rows(E)
        self.x = x
        self.rank1 = rank1
        self.memo: dict = {}
        self._vertex: dict = {}
        self._unknot: dict = {}

    def vertex_row(self, label: tuple[int, int]) -> list:
        """The vertex weights at label = (framing, degree)."""
        row = self._vertex.get(label)
        if row is None:
            f, d = label
            Z, M = self.Z, len(self.Z)
            row = self._vertex[label] = [Z[f * t % M] * a ** (2 - d)
                                         for t, a in zip(self.twist, self.amp)]
        return row

    def unknot(self, eps: int) -> mp.mpc:
        total = self._unknot.get(eps)
        if total is None:
            Z, M = self.Z, len(self.Z)
            total = mp.fsum(Z[eps * t % M] * a ** 2
                            for t, a in zip(self.twist, self.amp))
            if self.rank1:
                total = total / self.x ** 2
            self._unknot[eps] = total
        return total


@functools.lru_cache(maxsize=1)
def _level(build, root: tuple, prec: int) -> _Level:
    """build(*root), cached by the state-sum kind (its builder), its root
    data and the working precision prec, which build reads from mp.mp.

    One entry: a run of graphs at one level in one process shares it, and
    memory holds one level's data at a time.  That data stays alive after
    the last call until another level or precision replaces it.
    """
    return build(*root)


def _state_sum(g: PlumbingGraph, level: _Level) -> mp.mpc:
    """The normalized state sum of g at the level, at the working precision."""
    lm = linking_matrix(g)
    labels = [(lm.B[i][i], g.degree(v)) for i, v in enumerate(g.ids)]
    total = _tree_sum(g, labels, level)
    L = lm.size
    tau = level.x ** (-(L + 1) if level.rank1 else L - 1) * total
    if lm.b_plus:
        tau /= level.unknot(+1) ** lm.b_plus
    if lm.b_minus:
        tau /= level.unknot(-1) ** lm.b_minus
    return mp.mpc(tau)


# ---------------------------------------------------------------------------
# rank 1: SU(2), SO(3), OSp(1|2)


def _rank1_level(order: int, colors: range, sign: int) -> _Level:
    """sign = -1 gives the (x - 1/x) family, +1 the (x + 1/x) one.

    With q = exp(2 pi i / order) every phase is a power of exp(pi i / D),
    D = 2 order: q^{t/2} is Z[2t] and the twist q^{f (n^2 - 1)/4} is
    Z[f (n^2 - 1)].
    """
    M = 4 * order
    Z = _phase_table(2 * order)
    # u(t) = q^{t/2} + sign q^{-t/2} depends on t mod 2 order only;
    # every color is below the order
    U = [Z[2 * t] + sign * Z[-2 * t % M] for t in range(2 * order)]
    E = [[U[a * b % (2 * order)] for b in colors] for a in colors]
    return _Level(Z, [n * n - 1 for n in colors], [U[n] for n in colors], E,
                  U[1], True)


def _rank1_invariant(
    g: PlumbingGraph, order: int, colors: range, sign: int, dps: int,
    variant: str, level: int,
) -> WRTResult:
    _check_dps(dps)
    with mp.workdps(dps + 15):
        value = _state_sum(g, _level(_rank1_level, (order, colors, sign),
                                     mp.mp.prec))
    return WRTResult(variant, level, order, value, dps)


def wrt_su2(g: PlumbingGraph, k: int, dps: int = 60) -> WRTResult:
    """SU(2) invariant at bare level k > 0, root order k + 2."""
    if k <= 0:
        raise ValueError("level must be positive")
    return _rank1_invariant(g, k + 2, range(1, k + 2), -1, dps, "su2", k)


def wrt_so3(g: PlumbingGraph, K: int, dps: int = 60) -> WRTResult:
    """SO(3) invariant at even level K > 0: odd colors, root order 2K + 2."""
    if K <= 0 or K % 2 != 0:
        raise ValueError("SO(3) level must be a positive even integer")
    return _rank1_invariant(g, 2 * K + 2, range(1, 2 * K + 2, 2), -1, dps,
                            "so3", K)


def wrt_osp(g: PlumbingGraph, Khat: int, dps: int = 60) -> WRTResult:
    """OSp(1|2) invariant at level Khat > 0: odd colors, root order 2*Khat + 3."""
    if Khat <= 0:
        raise ValueError("level must be positive")
    return _rank1_invariant(g, 2 * Khat + 3, range(1, 2 * Khat + 2, 2), +1,
                            dps, "osp12", Khat)


# ---------------------------------------------------------------------------
# su(N) quotient groups


def _sun_level(N: int, m: int, kprime: int) -> _Level:
    """su(N) at k': colors are the admissible strictly dominant weights
    below k', the edge matrix is the S-matrix, the twist of lam is
    (lam, lam) - (rho, rho) and the amplitude S_0lam."""
    colors = allowed_colors(N, m, kprime)
    if not colors:
        raise ValueError(f"no admissible colors at k'={kprime}")
    rho_idx = colors.index(weyl_vector(N))
    G = gram(N)
    npos = N * (N - 1) // 2
    pref = mp.mpc(0, 1) ** npos / mp.sqrt((N // m) * kprime ** (N - 1))
    # q^{(x, y)} = exp(2 pi i pair(x, y) / (N k')) is Z[2 pair(x, y)]
    M = 2 * N * kprime
    Z = _phase_table(N * kprime)
    # gram(N) w(lam) for every Weyl image of every color, so that an S
    # entry pairs each image with a color by one short dot product
    W = weyl_group(N)
    signs = [w.sign for w in W]
    orbits = []
    for lam in colors:
        images = [weyl_action(w, lam).coords for w in W]
        orbits.append([tuple(sum(c * x for c, x in zip(row, im)) for row in G)
                       for im in images])
    Zre, Zim, eZ = _mantissas(Z)
    E = [[None] * len(colors) for _ in colors]
    for i, orbit in enumerate(orbits):
        for j in range(i, len(colors)):
            mu = colors[j].coords
            idx = [2 * sum(map(mul, gw, mu)) % M for gw in orbit]
            total = _dot((signs, None),
                         ([Zre[a] for a in idx], [Zim[a] for a in idx]))
            E[i][j] = E[j][i] = pref * _rounded(*total, eZ)
    S0 = E[rho_idx]
    twist = [pair(lam, lam) - rho_norm(N) for lam in colors]
    return _Level(Z, twist, S0, E, S0[rho_idx], False)


def wrt_sun_zm(
    g: PlumbingGraph, N: int, m: int, k: int, dps: int = 60,
) -> WRTResult:
    """Quotient-group invariant for su(N), subgroup of order m, bare level k.

    The renormalized level is k' = gamma*k + N with gamma the smallest
    integer making the quadratic form integral on the order-m subgroup
    generators; colors are the strictly dominant weights of the admissible
    sublattice below level k'.
    """
    if k <= 0:
        raise ValueError("level must be positive")
    _check_dps(dps)
    kprime = gamma_factor(N, m) * k + N
    with mp.workdps(dps + 15):
        value = _state_sum(g, _level(_sun_level, (N, m, kprime), mp.mp.prec))
    return WRTResult(f"su{N}_z{m}", k, kprime, value, dps)
