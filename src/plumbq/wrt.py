"""Root-of-unity invariants of plumbed manifolds via colored state sums.

Each invariant is a finite sum over colorings of the plumbing tree,
evaluated at a root of unity at a configurable working precision.  The
tree structure is exploited by message passing (one matrix-vector
contraction per edge), so the cost is the number of colors times the number
of orbits of the simple current (_Fold) instead of exponential in the number
of vertices: the edge matrix repeats along an orbit up to a sign, so each
orbit's rows and columns are contracted once.

One level builder serves every group: su(N)/Z_m at k' with a Weyl sign
(_Level), whose N = 2 rows are SU(2), SO(3) and OSp(1|2).  Every phase of
one invariant is exp(pi i a / D) for an integer a and D = N k'.  Twists,
S entries and unknot sums index one table of those 2D phases by a mod 2D.

The sum runs in fixed point, from the phase table to the root of the tree:
a value is a Gaussian integer (re, im) of Python ints standing for
(re + i im) 2^-P, and each product and dot product is an exact integer sum
rounded once, so no mp value is made per color.  The root's sum becomes one
mpc, normalized in mp.  P is chosen per tree from an a-priori error bound
(_Level): every state sum is within 10^-(dps+10) max(1, |tau|) of exact.

A level context (_Level) per group, level and working precision, in a
single-entry cache, holds per scale P the phase table, edge rows, vertex
rows and unknot sums, and each contracted child message under its scale
and subtree: a run of graphs at one level builds the level once and
contracts equal subtrees once.  A value depends only on its scale and
the integer operations that made it, so warm and cold calls agree bitwise.

The normalization divides by a power of the amplitude x = S_rho,rho and
by the unknot contributions of (+-1)-framed single vertices, one per
positive/negative eigenvalue of the linking matrix, so the three-sphere
always evaluates to 1.  A linking matrix of nullity nu = L - b+ - b- also
takes the factor S_00^nu, S_00 the unitary S entry of the group's own
colors (sum_lam |S_0,lam|^2 = 1), so S^1 x S^2 evaluates to 1/S_00.  None of
this changes when the S-matrix is scaled, so an S entry is an exact signed
Weyl sum of table phases, without its normalizing constant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub

import mpmath as mp

from plumbq.lie import allowed_colors, gamma_factor, gram, pair, rho_norm, weyl_orbit
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
# A level keeps the last this many scales P = prec + 64 j that it made.
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
    the representatives of fold (_Fold) and the amplitudes amp as Gaussian
    integers, x and unknot[eps] in mp.  The row at framing f and degree d,
    Z[f twist[c]] amp[c]^(2-d), is made on first use, 1/amp by one rounded
    Gaussian division."""

    def __init__(self, level: "_Level", P: int):  # keeps no reference to level
        self.P, self.memo, self.fold, self.twist = P, level.memo, level.fold, level.twist
        self.Z, rows, self.amp = level.make(P)
        self.rows = [self.fold.split(row) for row in rows]
        self._vertex, self._inverse = {}, None
        self.x = _to_mpc(self.amp[0][level.x], self.amp[1][level.x], P)
        self.unknot = {eps: _to_mpc(*map(sum, self.vertex_row((eps, 0))), P) / self.x ** 2
                       for eps in (1, -1)}

    def vertex_row(self, label: tuple[int, int]) -> tuple[list[int], list[int]]:
        row = self._vertex.get(label)
        if row is None:
            (f, d), (Zre, Zim), P = label, self.Z, self.P
            idx = [f * t % len(Zre) for t in self.twist]
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
    """The state sum of the group (N, m, k', sign) at the working precision
    prec: what it shares between graphs.  su2 at level k is (2, 1, k + 2, -1),
    so3 at K (2, 2, 2K + 2, -1), osp12 at K^ (2, 2, 2K^ + 3, +1) and
    su(N)/Z_m at k (N, m, gamma k + N, -1).

    The colors are allowed_colors(N, m, k'), the twist of lam is
    (lam, lam) - (rho, rho), and every phase is a power of exp(pi i / D),
    D = N k': q^{(x, y)} = Z[2 pair(x, y)].  The edge entry of colors lam
    and mu is the signed Weyl sum
    E[lam][mu] = sum_w sign^l(w) q^{(w lam, mu)},
    an exact sum of table entries.  The amplitudes amp are the row E[rho]
    and x is the index of rho: amp[x] is the x of the normalization.  At
    sign = -1, E is the S-matrix times a constant (i^npos r)^-1,
    r = ((N/m) k'^(N-1))^-1/2.  Every group is normalized as
    tau = x^-(L+1) T S_00^nu / prod_eps (U_eps / x^2)^b_eps, T the sum over
    colorings of L vertices, U_eps the unknot sum at framing eps, nu the
    nullity of B and S_00^2 = |x|^2 / sum_lam |amp[lam]|^2.  E scaled by c
    scales T by c^(L+1) (L - 1 edges and amp^(2-d) at each vertex) and
    U_eps by c^2 and keeps S_00, which leaves tau as it is: the constant
    cancels, so no S entry is rounded by it.  scale(P) makes a _Scale from
    make(P); memo holds _tree_sum's contracted messages of every scale.

    The simple current J turns the affine labels (k' - sum_i lam_i, lam_1,
    ..., lam_{N-1}) of lam one place, so J lam = k' L_1 + w lam for an
    N-cycle w and E[J lam][mu] = sign^(N-1) exp(-2 pi i t(mu)/N) E[lam][mu],
    t(mu) = sum_i i mu_i.  The rows fold by J (_Fold) where it keeps the
    colors and 2 t(mu)/N is an integer on every color: there the character
    chi(mu) = sign^(N-1) (-1)^(2 t(mu)/N) is exact in the table sums, which
    move by D or change sign (Z[a + D] = -Z[a], Z[-a] = conj Z[a]).  At N = 2
    chi(mu) = sign (-1)^mu, and at m = N it is 1.

    Error bound, with u = 2^-P.  A table entry is within u of exact, an
    edge entry or amplitude, a sum of |W| of them, within 2u C_E,
    C_E = |W|/2.  Let rho >= 1 bound the row sums of |E|,
    a_lo <= |amp| <= a_hi.  The row at degree d, Z amp^(2-d) by |d - 2|
    rounded products, is within 2u A_d C_d of exact and bounded by
    A_d = a^|d-2|, with C_d = 1/2 + |d - 2| (C_E c + 3/2), a = max(1, a_hi)
    and c = 1 for d < 2, a = c = max(1, 1/a_lo) for d > 2 (1/amp is within
    2u a (C_E a + 1/2)).  A rounded product adds its factors' C plus 1, a
    contraction n C_E + 1, while 4u C^2 <= 1; so the root sum T of L
    vertices and n colors is within 2u B C of exact,
    B = n rho^(L-1) prod_v A_{d_v} and C = sum_v C_{d_v} + (L - 1)(n C_E + 2).
    The normalization scales that by its size
    |N| = |x|^-(L+1) prod_eps (|x|^2 / |U_eps|)^b_eps and moves tau
    relatively by at most
    eps = (L + 1 + 2b + nu (1 + sqrt n)) 2u C_E / |x|
          + b 2u n A_0 C_0 / min |U_eps|,
    b = b+ + b-, the nu term bounding S_00^nu (S_00 <= 1 keeps |N| a bound).
    scale_bits takes the least P = prec + 64 j, j >= 1, with 2u B C |N| and
    eps at most 2^-prec and 4u C^2 <= 1.  With at most 2L + 14 roundings in
    mp, four in S_00^nu, tau is then within (2L + 17) 2^-prec
    max(1, |tau|) of exact: within 10^-(dps+10)
    max(1, |tau|) for L < 49,990, as prec >= (dps + 15) log2 10.  The
    level reads rho, a_lo, a_hi, x and U off the base scale prec + 64.
    """

    def __init__(self, N: int, m: int, kprime: int, sign: int):
        colors = allowed_colors(N, m, kprime)
        if not colors:
            raise ValueError(f"no admissible colors at k'={kprime}")
        self.prec, self.D, self.C_E = mp.mp.prec, N * kprime, math.factorial(N) // 2
        self.coords = [lam.coords for lam in colors]
        index = {c: i for i, c in enumerate(self.coords)}
        self.x = index[(1,) * (N - 1)]
        self.twist = [pair(lam, lam) - rho_norm(N) for lam in colors]
        J = [index.get((kprime - sum(c),) + c[:-1]) for c in self.coords]
        t = [sum(i * c for i, c in enumerate(lam, 1)) for lam in self.coords]
        if None in J or any(2 * a % N for a in t):
            J = None
        self.fold = _Fold(J, [sign ** (N - 1) * (-1) ** (2 * a // N) for a in t])
        # 2 gram(N) w(lam) for every Weyl image of every representative and
        # of rho, so that an entry pairs each image with a color by one short
        # dot product
        self.images = {a: [(s, [2 * sum(map(mul, row, image)) for row in gram(N)])
                           for s, image in weyl_orbit(N, self.coords[a], sign)]
                       for a in [o[0] for o in self.fold.orbits] + [self.x]}
        self.memo, self._scales = {}, {}  # messages by (P, name), _Scales by P
        base = self.scale(self.prec + 64)
        n, P, C_E = len(colors), base.P, self.C_E
        slack = 4 * C_E
        mags = [math.isqrt(a * a + b * b) for a, b in zip(*base.amp)]
        self.a_hi = max(1, (max(mags) + 1 + slack) / 2 ** P)
        self.a_inv = max(1, 2 ** P / (min(mags) - slack))
        self.log_rho = max(0, math.log2(2 * n * C_E + max(map(base.fold.norm, base.rows))) - P)
        self.log_x = (math.log2(mags[self.x] - slack) - P, math.log2(mags[self.x] + 1 + slack) - P)
        log_A0, C0 = self._vertex_bound(0)  # log2 |U| from below: U within 2u n A_0 C_0
        self.unknot_err = 2 * n * 2 ** log_A0 * C0
        self.log_unknot = {eps: math.log2(math.isqrt(sum(re) ** 2 + sum(im) ** 2)
                                          - math.ceil(self.unknot_err)) - P
                           for eps in (1, -1) for re, im in [base.vertex_row((eps, 0))]}

    def scale(self, P: int) -> _Scale:
        """The _Scale at 2^P, kept for the last _SCALES scales made."""
        if P not in self._scales:
            if len(self._scales) == _SCALES:
                del self._scales[next(iter(self._scales))]
            self._scales[P] = _Scale(self, P)
        return self._scales[P]

    def make(self, P: int):
        """The table Z at scale 2^P, the edge rows of the representatives
        over the representatives, and the amplitudes."""
        Zre, Zim = Z = _phase_table(self.D, P)
        M = 2 * self.D

        def srow(lam, cols):
            # E[lam][b] for the colors b whose coordinates cols holds
            sre, sim = [0] * len(cols[0]), [0] * len(cols[0])
            for s, gw in self.images[lam]:
                idx = [0] * len(cols[0])
                for g, col in zip(gw, cols):
                    idx = [x + g * c for x, c in zip(idx, col)]
                sre = [x + s * Zre[a % M] for x, a in zip(sre, idx)]
                sim = [y + s * Zim[a % M] for y, a in zip(sim, idx)]
            return [sre, sim]

        reps = [o[0] for o in self.fold.orbits]
        cols = list(zip(*(self.coords[a] for a in reps)))
        upper = [srow(a, [c[i:] for c in cols]) for i, a in enumerate(reps)]
        rows = [[[upper[j][k][i - j] for j in range(i)] + upper[i][k] for k in (0, 1)]
                for i in range(len(reps))]
        return Z, rows, tuple(srow(self.x, list(zip(*self.coords))))

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
        log_N = -(L + 1) * x_lo + 2 * b * x_hi
        log_N -= lm.b_plus * self.log_unknot[1] + lm.b_minus * self.log_unknot[-1]
        worst = min(self.log_unknot.values())
        needs = (
            math.log2(2 * n * C) + (L - 1) * self.log_rho + log_A + log_N,
            math.log2((L + 1 + 2 * b + (L - b) * (1 + math.sqrt(n))) * 2 * C_E * 2 ** -x_lo
                      + b * self.unknot_err * 2 ** -worst),
            2 + 2 * math.log2(C) - self.prec,
        )
        return self.prec + 64 * max(1, math.ceil(max(needs) / 64))


@functools.lru_cache(maxsize=1)
def _level(N: int, m: int, kprime: int, sign: int, prec: int) -> _Level:
    """_Level(N, m, kprime, sign), cached by its group and level and by the
    working precision prec, which _Level reads from mp.mp.  One entry:
    memory holds one level's data at a time, until another level or
    precision replaces it."""
    return _Level(N, m, kprime, sign)


def _state_sum(g: PlumbingGraph, variant: str, level: int, N: int, m: int,
               kprime: int, sign: int, dps: int) -> WRTResult:
    """The normalized state sum of g at the group (N, m, kprime, sign)
    (_Level), at dps digits; variant and level name it."""
    _check_dps(dps)
    with mp.workdps(dps + 15):
        lvl = _level(N, m, kprime, sign, mp.mp.prec)
        lm = linking_matrix(g)
        labels = [(lm.B[i][i], g.degree(v)) for i, v in enumerate(g.ids)]
        scale = lvl.scale(lvl.scale_bits(labels, lm))
        tau = scale.x ** -(lm.size + 1) * _tree_sum(g, labels, scale)
        for eps, b in ((1, lm.b_plus), (-1, lm.b_minus)):
            tau /= scale.unknot[eps] ** b
        # the unitary S_00^nu, nu the nullity and S_00^2 = |amp[x]|^2 / sum |amp|^2
        nu, norms = lm.size - lm.b_plus - lm.b_minus, [a * a + b * b for a, b in zip(*scale.amp)]
        tau *= mp.sqrt(mp.mpf(norms[lvl.x] ** nu) / sum(norms) ** nu)
        value = mp.mpc(tau)
    return WRTResult(variant, level, kprime, value, dps)


def wrt_su2(g: PlumbingGraph, k: int, dps: int = 60) -> WRTResult:
    """SU(2) invariant at bare level k > 0, root order k + 2."""
    if k <= 0:
        raise ValueError("level must be positive")
    return _state_sum(g, "su2", k, 2, 1, k + 2, -1, dps)


def wrt_so3(g: PlumbingGraph, K: int, dps: int = 60) -> WRTResult:
    """SO(3) invariant at even level K > 0: odd colors, root order 2K + 2."""
    if K <= 0 or K % 2 != 0:
        raise ValueError("SO(3) level must be a positive even integer")
    return _state_sum(g, "so3", K, 2, 2, 2 * K + 2, -1, dps)


def wrt_osp(g: PlumbingGraph, Khat: int, dps: int = 60) -> WRTResult:
    """OSp(1|2) invariant at level Khat > 0: odd colors, root order 2*Khat + 3."""
    if Khat <= 0:
        raise ValueError("level must be positive")
    return _state_sum(g, "osp12", Khat, 2, 2, 2 * Khat + 3, +1, dps)


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
    return _state_sum(g, f"su{N}_z{m}", k, N, m, gamma_factor(N, m) * k + N, -1, dps)
