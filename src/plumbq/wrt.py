"""Root-of-unity invariants of plumbed manifolds via colored state sums.

Each invariant is a finite sum over colorings of the plumbing tree,
evaluated at a root of unity with mpmath at a configurable working
precision.  The tree structure is exploited by message passing (one
matrix-vector contraction per edge), so the cost is quadratic in the number
of colors instead of exponential in the number of vertices.

Every phase of one invariant is exp(pi i a / D) for an integer a and one
denominator D: D = 2 order for the rank-1 sums, D = N k' for su(N).  Each
call builds the table of those 2D phases once; twists, S entries and unknot
sums index it by a mod 2D.

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

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import mpmath as mp
from mpmath.libmp import from_int, from_man_exp, fzero, round_nearest

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


def _tree_sum_direct(g: PlumbingGraph, V, E) -> mp.mpc:
    """Brute-force odometer over all colorings; the reference that the tests
    hold _tree_sum to."""
    edges = _tree_edges(g)
    terms = []
    for coloring in itertools.product(range(len(E)), repeat=len(V)):
        w = mp.mpc(1)
        for vi, c in enumerate(coloring):
            w *= V[vi][c]
        for a, b in edges:
            w *= E[coloring[a]][coloring[b]]
        terms.append(w)
    return mp.fsum(terms)


def _tree_sum(g: PlumbingGraph, V, E) -> mp.mpc:
    """Sum over colorings c of prod_v V[v][c_v] prod_{edges vw} E[c_v][c_w].

    V[v] is the row of vertex weights of the vertex at position v of g.ids,
    and E the symmetric edge matrix over the colors.  Contraction runs
    leaf-to-root: a child's message enters its parent through one dot
    product with a row of E per color.  Each row of E becomes integers once
    per call, each message once per edge, and each dot product is an exact
    integer sum rounded once, bit for bit what mp.fdot(E[c], msg) gives; a
    row part that is identically zero is skipped.
    """
    rows = []
    for row in E:
        re, im, e = _mantissas(row)
        rows.append(((re if any(re) else None, im if any(im) else None), e))
    msgs = [list(row) for row in V]
    for parent, child in reversed(_tree_edges(g)):
        vec = msgs[parent]
        mre, mim, e = _mantissas(msgs[child])
        for c, (row, e_row) in enumerate(rows):
            vec[c] *= _rounded(*_dot(row, (mre, mim)), e_row + e)
    return mp.fsum(msgs[0])


# ---------------------------------------------------------------------------
# rank 1: SU(2), SO(3), OSp(1|2)


def _rank1_invariant(
    g: PlumbingGraph, order: int, colors: list[int], sign: int, dps: int,
    variant: str, level: int,
) -> WRTResult:
    """Shared state-sum engine; sign = -1 gives the (x - 1/x) family, +1 the
    (x + 1/x) one.

    With q = exp(2 pi i / order) every phase is a power of exp(pi i / D),
    D = 2 order: q^{t/2} is Z[2t] and the twist q^{f (n^2 - 1)/4} is
    Z[f (n^2 - 1)].
    """
    _check_dps(dps)
    with mp.workdps(dps + 15):
        lm = linking_matrix(g)
        fr = [lm.B[i][i] for i in range(lm.size)]
        degs = [g.degree(v) for v in g.ids]
        M = 4 * order
        Z = _phase_table(2 * order)

        # u(t) = q^{t/2} + sign q^{-t/2} depends on t mod 2 order only;
        # every color is below the order
        U = [Z[2 * t] + sign * Z[-2 * t % M] for t in range(2 * order)]
        uvals = [U[n] for n in colors]
        E = [[U[a * b % (2 * order)] for b in colors] for a in colors]
        rows = {}  # vertex weights, one row per (framing, degree)
        for f, d in set(zip(fr, degs)):
            rows[f, d] = [Z[f * (n * n - 1) % M] * un ** (2 - d)
                          for n, un in zip(colors, uvals)]
        x = U[1]
        L = lm.size
        F = x ** (-(L + 1)) * _tree_sum(g, [rows[fd] for fd in zip(fr, degs)], E)

        def f_unknot(eps: int) -> mp.mpc:
            total = mp.fsum(
                Z[eps * (n * n - 1) % M] * un ** 2
                for n, un in zip(colors, uvals)
            )
            return total / x ** 2

        tau = F
        if lm.b_plus:
            tau /= f_unknot(+1) ** lm.b_plus
        if lm.b_minus:
            tau /= f_unknot(-1) ** lm.b_minus
        value = mp.mpc(tau)
    return WRTResult(variant, level, order, value, dps)


def wrt_su2(g: PlumbingGraph, k: int, dps: int = 60) -> WRTResult:
    """SU(2) invariant at bare level k > 0, root order k + 2."""
    if k <= 0:
        raise ValueError("level must be positive")
    colors = list(range(1, k + 2))
    return _rank1_invariant(g, k + 2, colors, -1, dps, "su2", k)


def wrt_so3(g: PlumbingGraph, K: int, dps: int = 60) -> WRTResult:
    """SO(3) invariant at even level K > 0: odd colors, root order 2K + 2."""
    if K <= 0 or K % 2 != 0:
        raise ValueError("SO(3) level must be a positive even integer")
    colors = list(range(1, 2 * K + 2, 2))
    return _rank1_invariant(g, 2 * K + 2, colors, -1, dps, "so3", K)


def wrt_osp(g: PlumbingGraph, Khat: int, dps: int = 60) -> WRTResult:
    """OSp(1|2) invariant at level Khat > 0: odd colors, root order 2*Khat + 3."""
    if Khat <= 0:
        raise ValueError("level must be positive")
    colors = list(range(1, 2 * Khat + 2, 2))
    return _rank1_invariant(g, 2 * Khat + 3, colors, +1, dps, "osp12", Khat)


# ---------------------------------------------------------------------------
# su(N) quotient groups


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
    gamma = gamma_factor(N, m)
    kprime = gamma * k + N
    colors = allowed_colors(N, m, kprime)
    if not colors:
        raise ValueError(f"no admissible colors at k'={kprime}")
    rho = weyl_vector(N)
    rho_idx = colors.index(rho)
    G = gram(N)
    with mp.workdps(dps + 15):
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
        # twist q^{(lam, lam) - (rho, rho)} as an exponent of Z
        twist = [pair(lam, lam) - rho_norm(N) for lam in colors]
        lm = linking_matrix(g)
        fr = [lm.B[i][i] for i in range(lm.size)]
        degs = [g.degree(v) for v in g.ids]
        rows = {}  # vertex weights, one row per (framing, degree)
        for f, d in set(zip(fr, degs)):
            rows[f, d] = [Z[f * t % M] * s ** (2 - d) for t, s in zip(twist, S0)]
        total = _tree_sum(g, [rows[fd] for fd in zip(fr, degs)], E)
        tau = S0[rho_idx] ** (lm.size - 1) * total

        def v_unknot(eps: int) -> mp.mpc:
            return mp.fsum(Z[eps * t % M] * s ** 2 for t, s in zip(twist, S0))

        if lm.b_plus:
            tau /= v_unknot(+1) ** lm.b_plus
        if lm.b_minus:
            tau /= v_unknot(-1) ** lm.b_minus
        value = mp.mpc(tau)
    return WRTResult(f"su{N}_z{m}", k, kprime, value, dps)
