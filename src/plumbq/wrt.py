"""Root-of-unity invariants of plumbed manifolds via colored state sums.

Each invariant is a finite sum over colorings of the plumbing tree,
evaluated at a root of unity at a configurable working precision.  The
tree structure is exploited by message passing (one matrix-vector
contraction per edge), so the cost is the number of colors times the number
of orbits of the simple current (_Fold) instead of exponential in the number
of vertices: the edge matrix repeats along an orbit up to a sign, so each
orbit's rows and columns are contracted once.

Every phase of one invariant is exp(pi i a / D) for an integer a and one
denominator D: D = 2 order for the rank-1 sums, D = N k' for su(N).  Twists,
S entries and unknot sums index one table of those 2D phases by a mod 2D.

The sum runs in fixed point, from the phase table to the root of the tree:
a value is a Gaussian integer (re, im) of Python ints standing for
(re + i im) 2^-P, and each product and dot product is an exact integer sum
rounded once, so no mp value is made per color.  The root's sum becomes one
mpc, normalized in mp.  P is chosen per tree from an a-priori error bound
(_Level): every state sum is within 10^-(dps+10) max(1, |tau|) of exact.

A level context (_Level) per state-sum kind, root data and working
precision, in a single-entry cache, holds per scale P the phase table, edge
rows, vertex rows and unknot sums, and each contracted child message under
its scale and subtree: a run of graphs at one level builds the level once
and contracts equal subtrees once.  A value depends only on its scale and
the integer operations that made it, so warm and cold calls agree bitwise.

The normalization is fixed by dividing out the unknot contributions of
(+-1)-framed single vertices, one per positive/negative eigenvalue of the
linking matrix, so the three-sphere always evaluates to 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub

import mpmath as mp

from plumbq.lie import (
    allowed_colors,
    gamma_factor,
    gram,
    pair,
    pq_class_index,
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
# colour entries in all: under 1 MB at the default precision (dps 60).
_MEMO_ENTRIES = 4096
# A level keeps the data of this many scales P = prec + 64 j, most recent
# first.
_SCALES = 4


@dataclass(frozen=True)
class WRTResult:
    variant: str
    level: int          # the bare level handed in by the caller
    root_order: int     # the invariant is evaluated at exp(2 pi i / root_order)
    value: object       # mpmath.mpc
    dps: int


def _printed(value, dps: int) -> dict:
    """{"re", "im"} of value to dps digits.  A part at or below the state
    sum's error bound 10^-(dps+10) max(1, |value|) is rounding noise and
    prints as 0."""
    noise = mp.mpf(10) ** -(dps + 10) * max(1, abs(value))
    return {key: mp.nstr(part if abs(part) > noise else mp.mpf(0), dps)
            for key, part in (("re", value.real), ("im", value.imag))}


def result_to_json(res: WRTResult) -> dict:
    return {
        "variant": res.variant,
        "level": res.level,
        "root_order": res.root_order,
        **_printed(res.value, res.dps),
        "dps": res.dps,
    }


def _check_dps(dps: int) -> None:
    if dps < 1:
        raise ValueError("precision must be at least 1")


def _phase(x: Fraction) -> mp.mpc:
    """exp(pi i x) for an exact rational x, at the current precision."""
    return mp.expjpi(mp.mpf(x.numerator) / x.denominator)


# ---------------------------------------------------------------------------
# the fixed-point kernel


def _fixed(x, P: int) -> int:
    """The mpf x at scale 2^P, rounded to the nearest integer."""
    return int(mp.nint(mp.ldexp(x, P)))


def _to_mpc(re: int, im: int, P: int) -> mp.mpc:
    """(re + i im) 2^-P at the working precision."""
    return mp.mpc(mp.ldexp(re, -P), mp.ldexp(im, -P))


@functools.lru_cache(maxsize=1)
def _phase_table(D: int, P: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Z[a] = exp(pi i a / D) 2^P for a in [0, 2D), as tuples of real and of
    imaginary parts, each within 0.7 of exact.  The last table is kept.

    Z[a] for a <= D/2 comes from rotating by exp(pi i / D) in integers at
    Q = P + bitlength(D) + 2 bits: within 1.5 D/2 units of 2^-Q < 2^-(P+2)
    before its rounding to P bits.  The rest follows exactly by symmetry,
    Z[D - a] = -conj(Z[a]) and Z[2D - a] = conj(Z[a]).
    """
    g = D.bit_length() + 2
    Q = P + g
    with mp.workprec(Q + 10):
        w = mp.expjpi(mp.mpf(1) / D)
        wr, wi = _fixed(w.real, Q), _fixed(w.imag, Q)
    h, hg = 1 << (Q - 1), 1 << (g - 1)
    r, i = 1 << Q, 0
    re, im = [r], [i]
    for _ in range(D // 2):
        r, i = (r * wr - i * wi + h) >> Q, (r * wi + i * wr + h) >> Q
        re.append(r)
        im.append(i)
    re = [(x + hg) >> g for x in re]
    im = [(y + hg) >> g for y in im]
    re += [-re[D - a] for a in range(len(re), D + 1)]
    im += [im[D - a] for a in range(len(im), D + 1)]
    return tuple(re + re[D - 1:0:-1]), tuple(im + [-y for y in im[D - 1:0:-1]])


def _times(a, b, P: int) -> tuple[list[int], list[int]]:
    """The entrywise product of two vectors (real parts, imaginary parts) of
    Gaussian integers at scale 2^P, each part rounded once."""
    h = 1 << (P - 1)
    entries = list(zip(*a, *b))
    return ([(x * u - y * v + h) >> P for x, y, u, v in entries],
            [(x * v + y * u + h) >> P for x, y, u, v in entries])


class _Fold:
    """Colors folded by a simple current J (None: none), a color permutation
    with E[J lam][mu] = chi(mu) E[lam][mu], chi = +-1, exactly in fixed point.
    orbits are [nu, J nu, J^2 nu, ...] from each representative nu, the first
    cut of them with chi(nu) = +1.  As E is symmetric, with f_c[nu] =
    sum_j c^j m[J^j nu], (E m)[J^i lam] = sum_nu chi(nu)^i E[lam][nu] f_c[nu]
    for c = chi(J^i lam): lam's row over the representatives gives its whole
    orbit's entries, one dot product per group chi(nu) = +-1 and class c."""

    def __init__(self, J, chi: list[int]):
        n = len(chi)
        J, chi = (range(n), [1] * n) if J is None else (J, chi)
        self.orbits, self.chi, self.n = [], chi, n
        for c in range(n):
            orbit = [c]
            while J[orbit[-1]] != c:
                orbit.append(J[orbit[-1]])
            if min(orbit) == c:
                self.orbits.append(orbit)
        self.orbits.sort(key=lambda o: chi[o[0]] < 0)
        self.cut = sum(chi[o[0]] > 0 for o in self.orbits)
        self.sizes = [len(o) for o in self.orbits]
        # the j-th member of every orbit, or the index n of a zero past its end
        self.cols = [[o[j] if j < len(o) else n for o in self.orbits]
                     for j in range(max(self.sizes))]

    def split(self, row):
        """A row (re, im) over the representatives as its two groups."""
        return tuple(tuple(None if p is None or not any(p[a:b]) else p[a:b] for p in row)
                     for a, b in ((0, self.cut), (self.cut, None)))

    def norm(self, row) -> int:
        """sum over all colors mu of |Re E[lam][mu]| + |Im E[lam][mu]|."""
        k, s = self.cut, self.sizes
        return sum(sum(map(mul, w, map(abs, p))) for part, w in zip(row, (s[:k], s[k:]))
                   for p in part if p is not None)

    def message(self, m, c: int):
        """f_c of m = (re, im) over the colors, in the two groups of split."""
        out = []
        for part in m:
            part = part + [0]
            f = [part[x] for x in self.cols[0]]
            for j, col in enumerate(self.cols[1:], 1):
                f = list(map(sub if c < 0 and j % 2 else add, f, [part[x] for x in col]))
            out.append(f)
        (re, im), k = out, self.cut
        return (re[:k], im[:k]), (re[k:], im[k:])


def _dot(e, f) -> tuple[int, int]:
    """The exact dot product of row e and vector f; a None part costs nothing."""
    (ere, eim), (fre, fim) = e, f
    re = im = 0
    if ere is not None:
        re, im = sum(map(mul, ere, fre)), sum(map(mul, ere, fim))
    if eim is not None:
        re -= sum(map(mul, eim, fim))
        im += sum(map(mul, eim, fre))
    return re, im


def _contract(scale, m) -> list[tuple[int, int]]:
    """E m at scale 2^P from the split rows scale.rows of scale.fold: each
    entry is the dense product's exact integer sum, regrouped, rounded once."""
    P, fold = scale.P, scale.fold
    h = 1 << (P - 1)
    folds, out = {}, [None] * fold.n
    for orbit, row in zip(fold.orbits, scale.rows):
        dots = {}
        for i, x in enumerate(orbit):
            c = fold.chi[x]
            if c not in dots:
                if c not in folds:
                    folds[c] = fold.message(m, c)
                dots[c] = [_dot(e, f) for e, f in zip(row, folds[c])]
            (re, im), (nre, nim) = dots[c]
            if i % 2:
                nre, nim = -nre, -nim
            out[x] = ((re + nre + h) >> P, (im + nim + h) >> P)
    return out


def _tree_edges(g: PlumbingGraph) -> list[tuple[int, int]]:
    """Edges as (parent, child) vertex positions, parents before children.

    The root is position 0; read backwards, the list contracts leaves first.
    """
    pos = {v: i for i, v in enumerate(g.ids)}
    nbrs: list[list[int]] = [[] for _ in pos]
    for a, b in g.edges:
        nbrs[pos[a]].append(pos[b])
        nbrs[pos[b]].append(pos[a])
    out, stack, seen = [], [0], {0}
    while stack:
        v = stack.pop()
        for w in nbrs[v]:
            if w not in seen:
                seen.add(w)
                out.append((v, w))
                stack.append(w)
    return out


def _tree_sum(g: PlumbingGraph, labels, scale) -> mp.mpc:
    """Sum over colorings c of prod_v V[v][c_v] prod_{edges vw} E[c_v][c_w].

    The vertex at position v of g.ids has label labels[v] and the row
    V[v] = scale.vertex_row(labels[v]); scale.rows are the rows of the
    symmetric edge matrix E at the representatives of scale.fold (_Fold),
    split into its two groups, all at scale 2^scale.P.  Contraction runs
    leaf-to-root: a child's message, its row times its children's contracted
    messages in contraction order, enters its parent contracted (_contract),
    and the root's message is summed exactly and becomes an mpc once.

    A contracted message depends only on the scale and the child's subtree,
    named by its label and its children's names in contraction order; it
    is kept in scale.memo under (P, name) until the memo holds _MEMO_ENTRIES
    colour entries.  A name fixes every rounding that made its message, so
    a memo hit has the bits of a fresh contraction.
    """
    P, memo = scale.P, scale.memo
    kids = [[] for _ in labels]  # (name, contracted message) per child

    def message(v):
        m = scale.vertex_row(labels[v])
        for _, w in kids[v]:
            m = _times(m, tuple(zip(*w)), P)
        return m

    for parent, child in reversed(_tree_edges(g)):
        name = (labels[child], tuple(n for n, _ in kids[child]))
        w = memo.get((P, name))
        if w is None:
            w = _contract(scale, message(child))
            if (len(memo) + 1) * len(w) <= _MEMO_ENTRIES:
                memo[P, name] = w
        kids[parent].append((name, w))
    return _to_mpc(*map(sum, message(0)), P)


# ---------------------------------------------------------------------------
# the level context and the state sum every group shares


class _Scale:
    """A level's data at scale 2^P: the phase table Z, the split edge rows of
    fold's representatives (_Fold) and the amplitudes amp as Gaussian
    integers, x and unknot[eps] in mp.  The row at framing f and degree d,
    Z[f twist[c]] amp[c]^(2-d), is made on first use, 1/amp by one rounded
    Gaussian division."""

    def __init__(self, level: "_Level", P: int):
        self.P, self.level, self.memo = P, level, level.memo
        self.Z, rows, self.amp, self.fold = level.make(P)
        self.rows = [self.fold.split(row) for row in rows]
        self._vertex, self._inverse = {}, None
        self.x = _to_mpc(self.amp[0][level.x], self.amp[1][level.x], P)
        sums = {eps: _to_mpc(*map(sum, self.vertex_row((eps, 0))), P) for eps in (1, -1)}
        self.unknot = {eps: s / self.x ** 2 for eps, s in sums.items()} if level.rank1 else sums

    def vertex_row(self, label: tuple[int, int]) -> tuple[list[int], list[int]]:
        row = self._vertex.get(label)
        if row is None:
            (f, d), (Zre, Zim), P = label, self.Z, self.P
            idx = [f * t % len(Zre) for t in self.level.twist]
            row = ([Zre[a] for a in idx], [Zim[a] for a in idx])
            if d > 2 and self._inverse is None:
                one = 1 << (2 * P + 1)
                dens = [a * a + b * b for a, b in zip(*self.amp)]
                self._inverse = ([(a * one + n) // (2 * n) for a, n in zip(self.amp[0], dens)],
                                 [(-b * one + n) // (2 * n) for b, n in zip(self.amp[1], dens)])
            for _ in range(abs(2 - d)):
                row = _times(row, self.amp if d < 2 else self._inverse, P)
            self._vertex[label] = row
        return row


class _Level:
    """What a state sum at one level and working precision prec shares
    between graphs: make(P) builds the table, the edge rows of the
    representatives over the representatives, the amplitudes and the fold of
    a _Scale; twist[c] is the twist of color c and amp[x] is x.  Rank 1
    (rank1, x = U[1]) normalizes L vertices by x^-(L+1) and each unknot sum
    by x^-2; su(N) (x = S_0rho) by x^(L-1).  memo holds _tree_sum's
    contracted messages of every scale.

    Error bound, with u = 2^-P.  A table entry is within u of exact, an
    edge entry or amplitude within 2u C_E: C_E = 1 for rank 1, |W| + 1 for
    su(N).  Let rho >= 1 bound the row sums of |E|, a_lo <= |amp| <= a_hi.
    The row at degree d, Z amp^(2-d) by |d - 2| rounded products, is within
    2u A_d C_d of exact and bounded by A_d = a^|d-2|, with
    C_d = 1/2 + |d - 2| (C_E c + 3/2), a = max(1, a_hi) and c = 1 for d < 2,
    a = c = max(1, 1/a_lo) for d > 2 (1/amp is within 2u a (C_E a + 1/2)).
    A rounded product adds its factors' C plus 1, a contraction n C_E + 1,
    while 4u C^2 <= 1; so the root sum T of L vertices and n colors is
    within 2u B C of exact, B = n rho^(L-1) prod_v A_{d_v} and
    C = sum_v C_{d_v} + (L - 1)(n C_E + 2).  The normalization scales that
    by its size |N|, and moves tau relatively by at most
    eps = (L + 1 + 2b) 2u C_E / |x| + b 2u n A_0 C_0 / |S|, b = b+ + b-,
    S the unknot sum before any x^-2.  scale_bits takes the least
    P = prec + 64 j, j >= 1, with 2u B C |N| and eps at most 2^-prec and
    4u C^2 <= 1.  With at most 2L + 10 roundings in mp, tau is then within
    (2L + 13) 2^-prec max(1, |tau|) of exact: within 10^-(dps+10)
    max(1, |tau|) for L < 49,990, as prec >= (dps + 15) log2 10.  The
    level reads rho, a_lo, a_hi, x and S off the base scale prec + 64.
    """

    def __init__(self, twist, make, x: int, C_E: int, rank1: bool):
        self.prec = mp.mp.prec
        self.twist, self.make, self.x, self.C_E, self.rank1 = twist, make, x, C_E, rank1
        self.memo: dict = {}
        self.scale = functools.lru_cache(_SCALES)(lambda P: _Scale(self, P))
        base = self.scale(self.prec + 64)
        n, P, slack = len(twist), base.P, 4 * C_E
        mags = [math.isqrt(a * a + b * b) for a, b in zip(*base.amp)]
        self.a_hi = max(1, (max(mags) + 1 + slack) / 2 ** P)
        self.a_inv = max(1, 2 ** P / (min(mags) - slack))
        self.log_rho = max(0, math.log2(2 * n * C_E + max(map(base.fold.norm, base.rows))) - P)
        self.log_x = (math.log2(mags[x] - slack) - P, math.log2(mags[x] + 1 + slack) - P)
        log_A0, C0 = self._vertex_bound(0)  # log2 |S| from below: S within 2u n A_0 C_0
        self.unknot_err = 2 * n * 2 ** log_A0 * C0
        self.log_unknot = {eps: math.log2(math.isqrt(sum(re) ** 2 + sum(im) ** 2)
                                          - math.ceil(self.unknot_err)) - P
                           for eps in (1, -1) for re, im in [base.vertex_row((eps, 0))]}

    def _vertex_bound(self, d: int) -> tuple[float, float]:
        """(log2 A_d, C_d) of the vertex rows at degree d."""
        a, c = (self.a_inv, self.a_inv) if d > 2 else (self.a_hi, 1)
        return abs(d - 2) * math.log2(a), 0.5 + abs(d - 2) * (self.C_E * c + 1.5)

    def scale_bits(self, labels, lm) -> int:
        """The scale P of the state sum of a graph with these vertex labels
        and linking matrix lm (the class docstring's bound)."""
        n, L, C_E = len(self.twist), lm.size, self.C_E
        b = lm.b_plus + lm.b_minus
        log_A, C = map(sum, zip(*(self._vertex_bound(d) for _, d in labels)))
        C += (L - 1) * (n * C_E + 2)
        x_lo, x_hi = self.log_x
        log_N = (-(L + 1) * x_lo + 2 * b * x_hi if self.rank1 else (L - 1) * x_hi)
        log_N -= lm.b_plus * self.log_unknot[1] + lm.b_minus * self.log_unknot[-1]
        worst = min(self.log_unknot.values())
        needs = (
            math.log2(2 * n * C) + (L - 1) * self.log_rho + log_A + log_N,
            math.log2((L + 1 + 2 * b) * 2 * C_E * 2 ** -x_lo
                      + b * self.unknot_err * 2 ** -worst),
            2 + 2 * math.log2(C) - self.prec,
        )
        return self.prec + 64 * max(1, math.ceil(max(needs) / 64))


@functools.lru_cache(maxsize=1)
def _level(build, root: tuple, prec: int) -> _Level:
    """build(*root), cached by the state-sum kind (its builder), its root
    data and the working precision prec, which build reads from mp.mp.  One
    entry: memory holds one level's data at a time, until another level or
    precision replaces it."""
    return build(*root)


def _state_sum(g: PlumbingGraph, level: _Level) -> mp.mpc:
    """The normalized state sum of g at the level, at the working precision."""
    lm = linking_matrix(g)
    labels = [(lm.B[i][i], g.degree(v)) for i, v in enumerate(g.ids)]
    scale = level.scale(level.scale_bits(labels, lm))
    total = _tree_sum(g, labels, scale)
    L = lm.size
    tau = scale.x ** (-(L + 1) if level.rank1 else L - 1) * total
    for eps, b in ((1, lm.b_plus), (-1, lm.b_minus)):
        tau /= scale.unknot[eps] ** b
    return mp.mpc(tau)


# ---------------------------------------------------------------------------
# rank 1: SU(2), SO(3), OSp(1|2)


def _rank1_level(order: int, colors: range, sign: int) -> _Level:
    """sign = -1 gives the (x - 1/x) family, +1 the (x + 1/x) one.

    With q = exp(2 pi i / order) every phase is a power of exp(pi i / D),
    D = 2 order: q^{t/2} is Z[2t] and the twist q^{f (n^2 - 1)/4} is
    Z[f (n^2 - 1)].  The edge entry of colors a, b is u(ab), with
    u(t) = Z[2t] + sign conj(Z[2t]) twice a part of Z[2t].  Where the colors
    are closed under the simple current J a = order - a, the rows fold by it:
    Z[D - t] = -conj(Z[t]) and Z[2D - t] = conj(Z[t]) exactly, so
    u((order - a) b) = sign (-1)^b u(ab).
    """
    D, index = 2 * order, {c: i for i, c in enumerate(colors)}
    J = [index.get(order - c) for c in colors]
    fold = _Fold(None if None in J else J, [sign * (-1) ** c for c in colors])
    reps = [colors[o[0]] for o in fold.orbits]

    def make(P: int):
        Z = _phase_table(D, P)
        u = [2 * z for z in Z[1 if sign < 0 else 0][:2 * D:2]]
        rows = [[u[a * b % D] for b in reps] for a in reps]
        amp, zero = [u[n] for n in colors], [0] * len(colors)
        if sign < 0:
            return Z, [(None, row) for row in rows], (zero, amp), fold
        return Z, [(row, None) for row in rows], (amp, zero), fold

    return _Level([n * n - 1 for n in colors], make, 0, 1, True)


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
    (lam, lam) - (rho, rho) and the amplitude S_0lam.

    S_lam,mu = i^npos r sum_w sign(w) q^{(w lam, mu)} with
    r = ((N/m) k'^(N-1))^-1/2 and q^{(x, y)} = Z[2 pair(x, y)], D = N k':
    the signed table sum is exact and is rounded once times r.

    The simple current J turns the affine labels (k' - sum_i lam_i, lam_1,
    ..., lam_{N-1}) of lam one place, so J lam = k' L_1 + w lam for an
    N-cycle w and S_{J lam,mu} = (-1)^(N-1) exp(-2 pi i t(mu)/N) S_lam,mu,
    t(mu) = sum_i i mu_i.  The rows fold by J where it keeps the colors and
    its character is 1 on them: at m = N, where the colors are one class
    t = N(N-1)/2 mod N.  A character -1 is exact in the table sums
    (Z[a + D] = -Z[a]) but not in their rounding: r x and -r x round apart
    at a tie, as at k' = 8 for su(2), where r is a power of 2.
    """
    colors = allowed_colors(N, m, kprime)
    if not colors:
        raise ValueError(f"no admissible colors at k'={kprime}")
    rho_idx = colors.index(weyl_vector(N))
    G, W = gram(N), weyl_group(N)
    D, n, signs = N * kprime, len(colors), [w.sign for w in W]
    index = {lam.coords: i for i, lam in enumerate(colors)}
    J = [index.get((kprime - sum(lam.coords),) + lam.coords[:-1]) for lam in colors]
    trivial = all((2 * pq_class_index(lam) + N * (N - 1)) % (2 * N) == 0 for lam in colors)
    fold = _Fold(J if trivial and None not in J else None, [1] * n)
    reps = [o[0] for o in fold.orbits]
    # gram(N) w(lam) for every Weyl image of every representative and of
    # rho, so that an S entry pairs each image with a color by one short
    # dot product
    images = {a: [(s, [2 * sum(map(mul, row, weyl_action(w, colors[a]).coords)) for row in G])
                  for s, w in zip(signs, W)] for a in reps + [rho_idx]}
    turn = (N * (N - 1) // 2) % 4

    def make(P: int):
        Z = _phase_table(D, P)
        with mp.workprec(P + 10):
            r = _fixed(1 / mp.sqrt((N // m) * kprime ** (N - 1)), P)
        h = 1 << (P - 1)
        # i^npos Z, exactly: each factor i swaps the parts and negates one
        Zre, Zim = Z
        for _ in range(turn):
            Zre, Zim = [-y for y in Zim], Zre

        def srow(lam, cols):
            # S[lam][b] for the colors b whose coordinates cols holds
            sre, sim = [0] * len(cols[0]), [0] * len(cols[0])
            for s, gw in images[lam]:
                idx = [0] * len(cols[0])
                for g, col in zip(gw, cols):
                    idx = [x + g * c for x, c in zip(idx, col)]
                sre = [x + s * Zre[a % (2 * D)] for x, a in zip(sre, idx)]
                sim = [y + s * Zim[a % (2 * D)] for y, a in zip(sim, idx)]
            return [[(x * r + h) >> P for x in part] for part in (sre, sim)]

        cols = list(zip(*(colors[a].coords for a in reps)))
        upper = [srow(a, [c[i:] for c in cols]) for i, a in enumerate(reps)]
        rows = [[[upper[j][k][i - j] for j in range(i)] + upper[i][k] for k in (0, 1)]
                for i in range(len(reps))]
        amp = tuple(srow(rho_idx, list(zip(*(lam.coords for lam in colors)))))
        return Z, rows, amp, fold

    twist = [pair(lam, lam) - rho_norm(N) for lam in colors]
    return _Level(twist, make, rho_idx, len(W) + 1, False)


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
