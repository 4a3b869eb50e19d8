"""Decomposition checks: from block series back to root-of-unity values.

The verification takes three independent ingredients (the state-sum
invariant, the block series, and phase matrices built from cokernel
representatives) and confirms the linear relation between them.  One sum
serves every group: the SU(N)/Z_m decomposition, whose N = 2 cases are
SU(2) (m = 1), SO(3) (m = 2) and, with OSp(1|2) blocks, OSp(1|2)
(gppv_verify holds the table).  Radial limits of the block series are the
mean of a periodic tail of partial sums when one is detected, and
otherwise are taken along q = (1-eps) * root with polynomial extrapolation
to eps = 0; chains whose vertex degrees stay at or below 2 have
Laurent-polynomial blocks, for which the limit is evaluated directly at
the root.

Every phase is exp(pi i a / D) for an integer a: pairings through B^{-1}
are integer pairings through adj(B) = det(B) B^{-1} over det B, so each sum
reads one fixed-point table of phases (wrt._phase_table) by a mod 2D, at
scale 2^-P, P the working precision plus 64 bits; the decomposition takes
its limits to that scale.  Each sum is exact in integers and becomes an
mpc once, so a sum of K terms of size at most A is within K (A + 2) 2^-P of
exact.  The reciprocity sums count their exponents per class, the box sums
by elimination along the forest of B, and weigh each class once.  A
decomposition gets its blocks from one call of zhat.zhat_blocks.
The limits at the root read the same table: a partial sum of a series with
coefficients c is within 2^-P sum |c| of exact, and so is a tail mean of
root_limit_periodic, whose weights are nonnegative.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from plumbq.lie import WeightVector, gram, weyl_orbit, weyl_vector
from plumbq.plumbing import (
    LinkingMatrix,
    PlumbingGraph,
    coset_representatives,
    linking_matrix,
)
from plumbq.qlaurent import QSeries, qs_eval
from plumbq.wrt import (
    _check_dps,
    _fixed,
    _phase,
    _phase_table,
    _printed,
    _to_mpc,
    wrt_osp,
    wrt_so3,
    wrt_su2,
    wrt_sun_zm,
)
from plumbq.zhat import sun_block_labels, zhat_blocks

__all__ = [
    "GPPVReport",
    "gauss_reciprocity_check",
    "radial_limit",
    "root_limit_periodic",
    "gppv_verify",
    "report_to_json",
]


@dataclass(frozen=True)
class GPPVReport:
    variant: str
    level: int
    root_order: int
    wrt_value: object           # mpmath.mpc
    decomposition_value: object  # mpmath.mpc
    residual: float
    relative_residual: float | None
    order: int
    dps: int


def report_to_json(rep: GPPVReport) -> dict:
    return {
        "variant": rep.variant,
        "level": rep.level,
        "root_order": rep.root_order,
        "wrt": _printed(rep.wrt_value, rep.dps),
        "decomposition": _printed(rep.decomposition_value, rep.dps),
        "residual": float(rep.residual),
        "relative_residual": rep.relative_residual,
        "order": rep.order,
        "dps": rep.dps,
    }


# ---------------------------------------------------------------------------
# Gauss sum reciprocity


def _pairing(M, x, y):
    """x^T M y; an int when M, x and y are ints."""
    n = len(x)
    return sum(M[i][j] * x[i] * y[j] for i in range(n) for j in range(n))


def _box_counts(B, lin, values: range, M: int) -> dict[int, int]:
    """{a: the number of n in values^L with n^T B n + 2 lin.n = a mod M}, B
    symmetric with its off-diagonal entries on a forest, leaves eliminated
    first.  A message is a count vector mod x^M - 1 packed into an int, w
    bits a slot; no count passes |values|^L < 2^(w-1), so no slot carries.
    Vertex v holds one per value of n_v, the product of its eliminated
    neighbours' edge messages times x^(B_vv n_v^2 + 2 lin_v n_v); the edge
    to its last neighbour u sums those times x^(2 B_uv n_u n_v), per n_u.
    B is a forest (#edges = L - #components) exactly when every step finds
    a vertex with at most one neighbour left."""
    L, c = len(B), len(values)
    w = (c ** L).bit_length() + 1
    mask = (1 << M * w) - 1

    def fold(p: int) -> int:  # p mod x^M - 1, for p of at most 2M slots
        return (p & mask) + (p >> M * w)

    left, msgs, total = list(range(L)), [[1] * c for _ in range(L)], 1
    while left:
        nbrs = {v: [u for u in left if u != v and B[v][u]] for v in left}
        v = min(left, key=lambda x: len(nbrs[x]))
        if len(nbrs[v]) > 1:
            raise ValueError("the off-diagonal entries of B do not form a forest")
        left.remove(v)
        own = [fold(m << (B[v][v] * n * n + 2 * lin[v] * n) % M * w)
               for m, n in zip(msgs[v], values)]
        if not nbrs[v]:
            total = fold(total * sum(own))
            continue
        u = nbrs[v][0]
        msgs[u] = [fold(m * sum(fold(q << 2 * B[u][v] * n * x % M * w)
                                for q, x in zip(own, values)))
                   for m, n in zip(msgs[u], values)]
    return {a: total >> a * w & (1 << w) - 1 for a in range(M)}


def _weigh(D: int, counts: dict[int, int]) -> mp.mpc:
    """sum of c exp(pi i a / D) over the exponents a and their counts c, in
    integers: each count times its table entry."""
    P = mp.mp.prec + 64
    Zre, Zim = _phase_table(D, P)
    return _to_mpc(sum(c * Zre[a % (2 * D)] for a, c in counts.items()),
                   sum(c * Zim[a % (2 * D)] for a, c in counts.items()), P)


def gauss_reciprocity_check(B, ell, k: int, dps: int = 40) -> dict:
    """Residuals of the even and odd reciprocity identities for (B, ell, k).

    The even identity sums exp(pi i (n,Bn)/(2k) + pi i (ell,n)/k) over
    n mod 2k against a cokernel sum; the odd identity sums over odd vectors
    mod 4k+4 with K = k.  Both residuals should vanish for any nonsingular
    symmetric integer B; B must have its off-diagonal entries on a forest,
    as a tree's linking matrix has (ValueError otherwise).  The phases are
    over D = 2k and 4K + 4 on the left-hand sides and D = |det B| on both
    cokernel sums.

    A box of side c takes O(L c^2) packed-int operations for its c^L
    vectors (_box_counts).  The odd cokernel sum runs over Z^L/2BZ^L, whose
    classes are a = r + B e, r in Z^L/BZ^L, e in {0,1}^L.  As adj B = det I,
    a's exponent is r's plus |det| X(e) mod 2|det|,
    X(e) = sum_i e_i ((K + 1) B_ii + ell_i).  If every X(e) is even, each
    count is 2^L times r's; otherwise half the e move a class by |det|, so
    count[a] = count[a + |det|], and as Z[a + |det|] = -Z[a] exactly in the
    table, the sum is exactly 0.
    """
    # B comes without a graph: LinkingMatrix.of, not linking_matrix(g)
    lm = LinkingMatrix.of(B)
    if lm.det == 0:
        raise ValueError("matrix is singular")
    B, det, adj = lm.B, lm.det, lm.adj
    L = len(B)
    ell = [int(x) for x in ell]
    sigma = lm.b_plus - lm.b_minus
    s = 1 if det > 0 else -1
    reps = coset_representatives(B)
    with mp.workdps(dps + 10):
        # even identity
        lhs = _weigh(2 * k, _box_counts(B, ell, range(2 * k), 4 * k))
        pref = mp.expjpi(mp.mpf(sigma) / 4) * (2 * k) ** mp.mpf(L / 2) / mp.sqrt(abs(det))
        # with v = 2k a + ell, -2k (v/2k)^T B^{-1} (v/2k) is
        # -(2k a^T adj a + 2 a^T adj ell) / det - ell^T adj ell / (2k det)
        rhs = _phase(Fraction(-_pairing(adj, ell, ell), 2 * k * det)) * _weigh(abs(det), Counter(
            -s * (2 * k * _pairing(adj, a, a) + 2 * _pairing(adj, a, ell)) for a in reps))
        even_res = abs(lhs - pref * rhs)

        # odd identity at level K = k: phases q^x = exp(pi i 2x / (2K + 2)),
        # over D = 4K + 4, on the odd vectors mod 4K + 4
        D = 4 * k + 4
        dvec = [e - sum(row) for e, row in zip(ell, B)]
        lhs2 = _weigh(D, _box_counts(B, dvec, range(1, D, 2), 2 * D))
        pref2 = (mp.expjpi(mp.mpf(sigma) / 4) * (k + 1) ** mp.mpf(L / 2) / mp.sqrt(abs(det))
                 * _phase(Fraction(-_pairing(adj, dvec, dvec), D * det)))
        # the cokernel exponent's linear term is adj (dvec + B (1, ..., 1)) = adj ell
        odd = any(((k + 1) * B[i][i] + ell[i]) % 2 for i in range(L))
        rhs2 = _weigh(abs(det), {} if odd else {a: c << L for a, c in Counter(
            -s * ((k + 1) * _pairing(adj, a, a) + _pairing(adj, a, ell))
            for a in reps).items()})
        odd_res = abs(lhs2 - pref2 * rhs2)
        return {"even": float(even_res), "odd": float(odd_res)}


# ---------------------------------------------------------------------------
# radial limits


def _partial_sums(s: QSeries, kprime: int, P: int):
    """The partial sums of s at q = exp(2 pi i / kprime), Gaussian integers at
    scale C 2^P, and C, the lcm of the coefficient denominators: q^(n / denom)
    is entry 2n mod 2D of _phase_table(D, P), D = denom kprime."""
    D, C = s.denom * kprime, math.lcm(*(c.denominator for _, c in s._items))
    Zre, Zim = _phase_table(D, P)
    terms = [(c.numerator * (C // c.denominator), 2 * n % (2 * D)) for n, c in s._items]
    return list(zip(itertools.accumulate(c * Zre[a] for c, a in terms),
                    itertools.accumulate(c * Zim[a] for c, a in terms))), C


def radial_limit(s: QSeries, kprime: int, eps_schedule=None, dps: int = 40):
    """Value of s along q = (1-eps) exp(2 pi i / kprime).

    With an empty schedule the series is evaluated at the root itself, in
    fixed point (for Laurent-polynomial blocks).  Otherwise the samples are
    extrapolated to eps = 0 by Neville's algorithm; the error estimate is
    the difference between the last two extrapolation orders.
    """
    with mp.workdps(dps + 10):
        if not eps_schedule:
            sums, C = _partial_sums(s, kprime, P := mp.mp.prec + 64)
            return _to_mpc(*(sums[-1] if sums else (0, 0)), P) / C, mp.mpf(0)
        root = mp.expjpi(mp.mpf(2) / kprime)
        eps = [mp.mpf(e) for e in eps_schedule]
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])) or not all(0 < e < 1 for e in eps):
            raise ValueError("eps schedule must decrease within (0, 1)")
        # Neville extrapolation to eps = 0
        tab = [qs_eval(s, (1 - e) * root) for e in eps]
        for m in range(1, len(eps)):
            for j in range(len(eps) - 1, m - 1, -1):
                tab[j] = (-eps[j - m] * tab[j] + eps[j] * tab[j - 1]) / (eps[j] - eps[j - m])
        return tab[-1], abs(tab[-1] - tab[-2 if len(eps) > 1 else -1])


def root_limit_periodic(s: QSeries, kprime: int, dps: int = 40):
    """Radial limit at the root exp(2 pi i / kprime) via the periodic tail
    of partial sums.

    At a root of unity the partial sums of a quadratic-exponent series are
    eventually periodic in the term index, and the radial limit is their
    mean weighted uniformly in the underlying theta index.  Two partial
    sums count as equal within 10^(8 - dps).  Since exponents
    grow quadratically, that index is proportional to sqrt(exponent), so the
    weights are the gaps of sqrt(e - e_min).  Returns (value, period), or
    (None, None) when no period is detected, which usually means the series
    was truncated before the tail settles.

    The partial sums are _partial_sums' Gaussian integers at scale 2^P, P
    the working precision plus 64 bits: each is within 2^-P sum |c| of
    exact, and so is the tail mean, its weights being nonnegative.  The
    period test compares squared distances in integers; only the T + 1
    weights sqrt(e - e_min) and the one final value are taken in mp.
    """
    with mp.workdps(dps + 10):
        if not s._items:
            return mp.mpc(0), 0
        sums, C = _partial_sums(s, kprime, P := mp.mp.prec + 64)
        # |d| < 10^(8 - dps) at scale C 2^P as |d|^2 < tol, in integers
        tol = -(-((C << P) ** 2 * 100 ** max(0, 8 - dps)) // 100 ** max(0, dps - 8))
        M = len(sums)
        for T in range(1, M // 2):
            if all((x - u) ** 2 + (y - v) ** 2 < tol
                   for (x, y), (u, v) in zip(sums[M - T:], sums[M - 2 * T:M - T])):
                n0 = s._items[0][0]
                sq = [mp.sqrt(mp.mpf(n - n0) / s.denom) for n, _ in s._items[M - T - 1:]]
                gaps = [b - a for a, b in zip(sq, sq[1:])]
                val = mp.fsum(g * mp.mpc(*z) for g, z in zip(gaps, sums[M - T - 1:M - 1]))
                return val / (mp.fsum(gaps) * (C << P)), T
        return None, None


# the eps of the Neville fallback for blocks that are not Laurent polynomials
_EPS_SCHEDULE = (0.1, 0.05, 0.025)


def _block_limit(s: QSeries, root_order: int, schedule, dps: int) -> mp.mpc:
    """Limit of a block series at the root: direct for finite blocks, the
    periodic tail mean when it is detectable, Neville otherwise."""
    val = None if schedule is None else root_limit_periodic(s, root_order, dps)[0]
    return radial_limit(s, root_order, schedule, dps)[0] if val is None else val


# ---------------------------------------------------------------------------
# decomposition verification


def _pprime_dual_basis(N: int, m: int) -> list[tuple[int, ...]]:
    """Basis, in fundamental-weight coordinates, of the lattice dual to the
    index-m admissible sublattice.

    The dual consists of the weight-lattice points whose pairing with the
    order-m generator is integral; that is the kernel of a single character
    mod N, computed by unimodular column reduction.
    """
    r = N - 1
    if m == N:
        return [tuple(1 if i == j else 0 for i in range(r)) for j in range(r)]
    # pairing with the generator: N (L_i, L_m)
    vec = [row[m - 1] for row in gram(N)] + [N]
    # column-reduce the row vector vec to (g, 0, ..., 0) tracking U
    U = [[1 if i == j else 0 for j in range(r + 1)] for i in range(r + 1)]
    while sum(1 for x in vec if x != 0) > 1:
        _, piv = min((abs(x), i) for i, x in enumerate(vec) if x != 0)
        for i in range(r + 1):
            if i == piv or vec[i] == 0:
                continue
            f = vec[i] // vec[piv]
            vec[i] -= f * vec[piv]
            for row in range(r + 1):
                U[row][i] -= f * U[row][piv]
    piv = next(i for i, x in enumerate(vec) if x != 0)
    # the columns of U but the pivot's, without the auxiliary row
    return [tuple(U[row][j] for row in range(r)) for j in range(r + 1) if j != piv]


def _decomposition(
    g: PlumbingGraph, N: int, m: int, kprime: int, block_variant: str,
    sign: int, twist: int, order, dps: int, shift_BI: bool = True,
):
    """Right-hand side of the decomposition at the root q = exp(2 pi i / k').

    The sum runs over the cokernel classes a of the lattice dual to the
    index-m sublattice and over every label b.  It weighs the radial limit
    of block b (zhat variant block_variant) by the phases
    exp(-pi i twist k' (a, B^{-1} a) / 2) and exp(-2 pi i (a, B^{-1} (b + B rho))),
    over |W| |det B|^{(N-1)/2} times sum_w sign^{l(w)} q^{(rho, w rho)}.
    shift_BI=False drops the B rho.

    Weights are int tuples of fundamental-weight coordinates paired under
    gram(N) = N (L_i, L_j).  With adj = det(B) B^{-1}, a pairing
    sum_{v,w} B^{-1}_vw (x_v, y_w) is sum_v N (x_v, (adj y)_v) / (N det B),
    so every cokernel phase is an entry of one table over D = N |det B|,
    reduced by the exponents' common divisor.
    """
    lm = linking_matrix(g)
    n, r, G = lm.size, N - 1, gram(N)
    det, adj = lm.det, lm.adj
    s = 1 if det > 0 else -1
    labels = sun_block_labels(g, N, lm)
    # chains have Laurent-polynomial blocks, evaluated at the root itself
    schedule = None if all(g.degree(v) <= 2 for v in g.ids) else _EPS_SCHEDULE
    rho = weyl_vector(N)
    basis = _pprime_dual_basis(N, m)
    reps = coset_representatives([list(row) for row in lm.B])

    def adj_times(vecs):
        return [tuple(sum(adj[v][w] * vecs[w][c] for w in range(n)) for c in range(r))
                for v in range(n)]

    def paired(xs, ys) -> int:
        return sum(_pairing(G, x, y) for x, y in zip(xs, ys))

    # adj (b + B rho) per label, with (B rho)_w = (sum_x B_wx) rho
    row_sums = [sum(row) if shift_BI else 0 for row in lm.B]
    shifted = {
        lab: adj_times([tuple(c + t * x for c, x in
                              zip(WeightVector.make(N, lab[w]).coords, rho.coords))
                        for w, t in enumerate(row_sums)])
        for lab in labels
    }

    with mp.workdps(dps + 10):
        blocks = dict(zip(labels, zhat_blocks(g, lm, labels, block_variant, order)))
        limits = {lab: _block_limit(blk.series, kprime, schedule, dps)
                  for lab, blk in blocks.items()}
        # the exponents over D = N |det B|, per class a: its own phase's,
        # then one per label
        exps = []
        for combo in itertools.product(reps, repeat=r):
            # a_v = sum_j combo[j][v] * basis_j
            avec = [tuple(sum(combo[j][v] * basis[j][c] for j in range(r))
                          for c in range(r)) for v in range(n)]
            exps.append([-s * twist * kprime * paired(avec, adj_times(avec))]
                        + [-2 * s * paired(avec, shifted[lab]) for lab in labels])
        # the table over D / d, d the exponents' common divisor with D, and
        # the limits at its scale: every product is exact in integers
        d = math.gcd(N * abs(det), *itertools.chain.from_iterable(exps))
        P = mp.mp.prec + 64
        Zre, Zim = _phase_table(N * abs(det) // d, P)
        M = len(Zre)
        lims = [(_fixed(limits[lab].real, P), _fixed(limits[lab].imag, P)) for lab in labels]
        tre = tim = 0
        for a1, *a2 in exps:
            ire = iim = 0
            for a, (lre, lim) in zip(a2, lims):
                zre, zim = Zre[a // d % M], Zim[a // d % M]
                ire += zre * lre - zim * lim
                iim += zre * lim + zim * lre
            zre, zim = Zre[a1 // d % M], Zim[a1 // d % M]
            tre += zre * ire - zim * iim
            tim += zre * iim + zim * ire
        total = _to_mpc(tre, tim, 3 * P)
        # q^{(rho, w rho)} = exp(2 pi i pair(rho, w rho) / (N k')), one phase
        # per Weyl element
        W = weyl_orbit(N, rho.coords, sign)
        weyl_denom = mp.fsum(
            e * _phase(Fraction(2 * _pairing(G, rho.coords, image), N * kprime))
            for e, image in W)
        return total / (len(W) * mp.mpf(abs(det)) ** (mp.mpf(N - 1) / 2) * weyl_denom)


# variant -> (N, m, block variant, Weyl denominator sign, twist of the
# cokernel phase); sun-zm takes N and m from the caller
_VARIANTS = {
    "su2": (2, 1, "su2", -1, 1),
    "so3": (2, 2, "su2", -1, 1),
    "osp12": (2, 2, "osp12", 1, 2),
}


def gppv_verify(
    g: PlumbingGraph,
    variant: str,
    level: int,
    order,
    dps: int = 40,
    N: int = 2,
    m: int = 1,
    shift_BI: bool = True,
) -> GPPVReport:
    """Compare the state-sum invariant against the block decomposition.

    variant is one of su2, so3, osp12, sun-zm; `order` bounds the block
    truncation.  Every variant runs the one SU(N)/Z_m sum (_decomposition)
    at the root order k' of its state sum:

      su2, level k     N = 2, m = 1, su2 blocks, k' = k + 2
      so3, level K     N = 2, m = 2, su2 blocks, k' = 2K + 2
      osp12, level K^  N = 2, m = 2, osp12 blocks, k' = 2K^ + 3, Weyl
                       denominator q^{1/2} + q^{-1/2}, 2k' for k' in the
                       cokernel phase
      sun-zm, level k  N and m as given, su<N> blocks, k' = gamma k + N

    shift_BI=False drops the B rho shift of the labels in every variant,
    which must break the agreement when m = 2 (negative control).
    """
    variant = variant.lower()
    _check_dps(dps)
    with mp.workdps(dps + 10):
        if variant in _VARIANTS:
            N, m, blocks, sign, twist = _VARIANTS[variant]
            # looked up at call time, so wrappers on this module's names see it
            state_sum = {"su2": wrt_su2, "so3": wrt_so3, "osp12": wrt_osp}[variant]
            wrt = state_sum(g, level, dps)
        elif variant in ("sun-zm", "sun_zm"):
            blocks, sign, twist = f"su{N}", -1, 1
            wrt = wrt_sun_zm(g, N, m, level, dps)
        else:
            raise ValueError(f"unknown variant {variant!r}")
        rhs = _decomposition(g, N, m, wrt.root_order, blocks, sign, twist,
                             order, dps, shift_BI)
        resid = abs(wrt.value - rhs)
        rel = float(resid / abs(wrt.value)) if abs(wrt.value) > 1e-12 else None
    return GPPVReport(variant, level, wrt.root_order, wrt.value, rhs,
                      float(resid), rel, int(order), dps)
