"""Root-of-unity invariants of plumbed manifolds via colored state sums.

Each invariant is a finite sum over colorings of the plumbing tree,
evaluated at a root of unity with mpmath at a configurable working
precision.  The tree structure is exploited by message passing (one
matrix-vector contraction per edge), so the cost is quadratic in the number
of colors instead of exponential in the number of vertices.

The normalization is fixed by dividing out the unknot contributions of
(+-1)-framed single vertices, one per positive/negative eigenvalue of the
linking matrix, so the three-sphere always evaluates to 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from plumbq.lie import (
    allowed_colors,
    gamma_factor,
    rho_norm,
    weight_inner,
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


def _phase(x: Fraction) -> mp.mpc:
    """exp(pi i x) for an exact rational x, at the current precision.

    The argument is the correctly rounded quotient of x's numerator and
    denominator, so equal rationals give equal bits however they were
    written.
    """
    return mp.expjpi(mp.mpf(x.numerator) / x.denominator)


def _tree_sum_direct(g: PlumbingGraph, ncolors: int, vweight, eweight) -> mp.mpc:
    """Brute-force odometer over all colorings; the reference that the tests
    hold _tree_sum to."""
    pos = {v: i for i, v in enumerate(g.ids)}
    epairs = [(pos[a], pos[b]) for a, b in g.edges]
    L = len(g.ids)
    terms = []
    for coloring in itertools.product(range(ncolors), repeat=L):
        w = mp.mpc(1)
        for vi in range(L):
            w *= vweight(vi, coloring[vi])
        for a, b in epairs:
            w *= eweight(coloring[a], coloring[b])
        terms.append(w)
    return mp.fsum(terms)


def _tree_sum(g: PlumbingGraph, ncolors: int, vweight, eweight) -> mp.mpc:
    """Sum over colorings of prod_v vweight(v, c_v) prod_e eweight(c, c').

    vweight(vertex_index, color_index) and eweight(i, j) return mpc values;
    eweight must be symmetric.  Contraction runs leaf-to-root.
    """
    ids = g.ids
    pos = {v: i for i, v in enumerate(ids)}
    adj: dict[int, list[int]] = {v: [] for v in ids}
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    root = ids[0]
    # iterative DFS for a post-order traversal
    order = []
    parent = {root: None}
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                stack.append(w)
    msgs: dict[int, list[mp.mpc]] = {}
    for v in reversed(order):
        vec = [vweight(pos[v], c) for c in range(ncolors)]
        for w in adj[v]:
            if parent.get(w) != v:
                continue
            child = msgs.pop(w)
            for c in range(ncolors):
                vec[c] *= mp.fsum(eweight(c, cc) * child[cc] for cc in range(ncolors))
        msgs[v] = vec
    return mp.fsum(msgs[root])


# ---------------------------------------------------------------------------
# rank 1: SU(2), SO(3), OSp(1|2)


def _rank1_invariant(
    g: PlumbingGraph, order: int, colors: list[int], sign: int, dps: int,
    variant: str, level: int,
) -> WRTResult:
    """Shared state-sum engine; sign = -1 gives the (x - 1/x) family, +1 the
    (x + 1/x) one."""
    with mp.workdps(dps + 15):
        lm = linking_matrix(g)
        fr = [lm.B[i][i] for i in range(lm.size)]
        degs = [g.degree(v) for v in g.ids]

        def u(t: int) -> mp.mpc:
            return _phase(Fraction(t, order)) + sign * _phase(Fraction(-t, order))

        uvals = {n: u(n) for n in colors}
        umatrix = {}

        def eweight(i: int, j: int) -> mp.mpc:
            key = (min(i, j), max(i, j))
            if key not in umatrix:
                umatrix[key] = u(colors[key[0]] * colors[key[1]])
            return umatrix[key]

        def vweight(vi: int, ci: int) -> mp.mpc:
            n = colors[ci]
            w = _phase(Fraction(fr[vi] * (n * n - 1), 2 * order))
            return w * uvals[n] ** (2 - degs[vi])

        x = u(1)
        L = lm.size
        F = x ** (-(L + 1)) * _tree_sum(g, len(colors), vweight, eweight)

        def f_unknot(eps: int) -> mp.mpc:
            total = mp.fsum(
                _phase(Fraction(eps * (n * n - 1), 2 * order)) * uvals[n] ** 2
                for n in colors
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
    gamma = gamma_factor(N, m)
    kprime = gamma * k + N
    colors = allowed_colors(N, m, kprime)
    if not colors:
        raise ValueError(f"no admissible colors at k'={kprime}")
    rho = weyl_vector(N)
    W = weyl_group(N)
    rho_idx = colors.index(rho)
    with mp.workdps(dps + 15):
        npos = N * (N - 1) // 2
        pref = mp.mpc(0, 1) ** npos / mp.sqrt((N // m) * kprime ** (N - 1))
        # Weyl-orbit images of every color, reused across all S entries
        orbits = []
        for lam in colors:
            orbits.append([(w.sign, weyl_action(w, lam)) for w in W])

        scache: dict[tuple[int, int], mp.mpc] = {}

        def smat(i: int, j: int) -> mp.mpc:
            key = (min(i, j), max(i, j))
            if key not in scache:
                total = mp.fsum(
                    sg * _phase(2 * weight_inner(wl, colors[key[1]]) / kprime)
                    for sg, wl in orbits[key[0]]
                )
                scache[key] = pref * total
            return scache[key]

        rr = Fraction(rho_norm(N), N)
        tvals = [
            _phase((weight_inner(lam, lam) - rr) / kprime) for lam in colors
        ]
        lm = linking_matrix(g)
        fr = [lm.B[i][i] for i in range(lm.size)]
        degs = [g.degree(v) for v in g.ids]

        def vweight(vi: int, ci: int) -> mp.mpc:
            return tvals[ci] ** fr[vi] * smat(rho_idx, ci) ** (2 - degs[vi])

        total = _tree_sum(g, len(colors), vweight, smat)
        tau = smat(rho_idx, rho_idx) ** (lm.size - 1) * total

        def v_unknot(eps: int) -> mp.mpc:
            return mp.fsum(
                tvals[ci] ** eps * smat(rho_idx, ci) ** 2
                for ci in range(len(colors))
            )

        if lm.b_plus:
            tau /= v_unknot(+1) ** lm.b_plus
        if lm.b_minus:
            tau /= v_unknot(-1) ** lm.b_minus
        value = mp.mpc(tau)
    return WRTResult(f"su{N}_z{m}", k, kprime, value, dps)
