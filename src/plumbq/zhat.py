"""Homological blocks of negative-definite plumbed 3-manifolds.

The block series is a lattice sum over a Spin^c coset: each vertex of the
plumbing tree contributes a Laurent-expansion coefficient of
(x - 1/x)^{2-deg} (or (x + 1/x)^{2-deg} for the OSp variant, or a power of
the A_{N-1} Weyl denominator for su(N)), and the lattice point contributes
q to a rational power built from -B^{-1}.  High-degree vertices have
negative powers, regularized by averaging the expansions over the two sides
(or the |W| Weyl chambers), never by a numeric limit.

Rank-1 block factors are closed-form binomials.  Every other vertex
expansion runs on one exact kernel: products, powers and a truncated
Neumann inverse of dicts keyed by int tuples of fundamental-weight
coordinates, with norms from the integer Gram matrix N (L_i, L_j) and
chamber cut-offs from integer linear heights.  The lattice data (Gram and
Cartan matrices, (rho, rho), the Weyl action) comes from `lie`.

One integer engine computes the blocks of every N, rank 1 being N = 2.  A
point gives each vertex a weight s_v from the support of its expansion.
Its coset is read off its class vector (adj(B) (x) gram(N)) s mod N det B,
and its exponent, past the prefactor -(3L + tr B)(rho, rho)/2, is
-sum_{v,w} adj_vw N (s_v, s_w) / (2N det B).  The walk fixes one vertex at
a time, the largest support last, cut to a slab by one isqrt; a branch
ends once a lower bound on the exponent from the LDL factors of -B reaches
the order, so one pass buckets every label.

An independent constant-term oracle multiplies the theta function by its
own vertex expansions and reads off the z-degree-zero part.  It takes the
power of the Weyl denominator and then inverts it, where the blocks invert
the chamber factor 1 + U and then take the power.  What depends only on
(graph, variant, order) is built once, in a memoised context: the
expansions, the walk order, the weight maps, the class rows, the theta
form and the prune tables.  A call adds its label's centre and walks the
theta lattice in m-space with `ellipsoid_points`, in integers on one
Bareiss elimination of the form, as the blocks' coset-minimum search does.
At every level it tries only the values its own supports admit: seen
through an integer functional that kills the moves of the coordinates
still free, a vertex's weight must land in the image of its support.  That
is the whole weight at the vertex's lowest coordinate and, for su3, the
component across the line that one free coordinate spans.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import NamedTuple

from plumbq.lie import cartan, gram, rho_norm, weyl_orbit
from plumbq.plumbing import (
    LinkingMatrix,
    PlumbingGraph,
    coset_representatives,
    degree_delta,
    is_negative_definite,
    linking_matrix,
    spinc_representatives,
)
from plumbq.qlaurent import QSeries, qs_to_json

__all__ = [
    "ZhatBlock",
    "vertex_factor_su2",
    "vertex_factor_suN",
    "zhat_blocks",
    "zhat_block",
    "zhat_all_blocks",
    "constant_term_oracle",
    "block_to_json",
]

VARIANTS = ("su2", "so3", "osp12", "su3")
RANK1 = ("su2", "so3", "osp12")


@dataclass(frozen=True)
class ZhatBlock:
    """A block series with its label and least exponent delta_b.  delta_b
    has two rules.  At rank 1 it is the prefactor plus the minimum of the
    theta form over the coset.  For su(N) it is the least exponent kept, or
    the prefactor when the block is empty: Poincare su3 gives -6 where the
    theta-form minimum gives -8."""

    label: tuple
    delta_b: Fraction
    series: QSeries
    variant: str


# ---------------------------------------------------------------------------
# vertex expansions, rank 1


def vertex_factor_su2(deg: int, max_abs_exp: int, osp: bool = False) -> dict[int, int]:
    """Two-sided expansion coefficients of (x - 1/x)^{2-deg}, or of
    (x + 1/x)^{2-deg} when osp is set: for deg <= 2 the Laurent polynomial,
    for deg >= 3 the sum of the expansions at x -> infinity and x -> 0,
    truncated to |exponent| <= max_abs_exp.  The coefficients are ints."""
    if deg < 0:
        raise ValueError("degree must be nonnegative")
    s = 1 if osp else -1  # the base is x + s/x
    out: dict[int, int] = {}
    p = 2 - deg
    if p >= 0:
        for i in range(p + 1):
            out[p - 2 * i] = s ** i * math.comb(p, i)
        return out
    k = deg - 2
    for j in range((max_abs_exp - k) // 2 + 1):
        c = (-s) ** j * math.comb(k - 1 + j, j)
        out[-(k + 2 * j)] = out.get(-(k + 2 * j), 0) + c
        out[k + 2 * j] = out.get(k + 2 * j, 0) + s ** k * c
    return {e: c for e, c in out.items() if c != 0}


def _avg_rank1(deg: int, max_abs_exp: int, osp: bool) -> tuple[dict[tuple, int], int]:
    """The walk's row {(e,): c} and denominator: halves the two-sided sum at deg >= 3."""
    row = vertex_factor_su2(deg, max_abs_exp, osp)
    return {(e,): c for e, c in row.items()}, 1 if deg <= 2 else 2


# ---------------------------------------------------------------------------
# vertex expansions, A_{N-1}: one exact kernel
#
# A weight is an int tuple of fundamental-weight coordinates and a weight
# polynomial a dict {weight: int}.  Norms use the integer Gram matrix
# lie.gram(N) = N (L_i, L_j).  In the chamber of w(rho) the height of a weight
# mu is the integer linear form -N (mu, w(rho)); the monomials of Delta past
# the chamber-leading one have positive height, so dropping everything above
# a cap commutes with products, powers and the Neumann inverse.


def _norm(G, mu) -> int:
    """N (mu, mu)."""
    return sum(a * g * b for a, row in zip(mu, G) for g, b in zip(row, mu))


def _height(G, chamber) -> tuple:
    """The height form -N (., chamber) as a tuple of ints."""
    return tuple(-sum(g * c for g, c in zip(row, chamber)) for row in G)


def _ht(height, mu) -> int:
    return sum(h * x for h, x in zip(height, mu)) if height else 0


def _mul(a: dict, b: dict, height=None, cap=0) -> dict:
    """Product of weight polynomials; with a height form, terms above cap
    are dropped (every operand term must then have height >= 0)."""
    bs = sorted(((kb, cb, _ht(height, kb)) for kb, cb in b.items()), key=lambda t: t[2])
    out: dict[tuple, int] = {}
    for ka, ca in a.items():
        ha = _ht(height, ka)
        for kb, cb, hb in bs:
            if ha + hb > cap:
                break
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _pow(a: dict, k: int, height=None, cap=0) -> dict:
    out = {(0,) * len(next(iter(a))): 1}
    for _ in range(k):
        out = _mul(out, a, height, cap)
    return out


def _inverse(poly: dict, lead: tuple, height, cap) -> dict:
    """x^lead / poly up to height cap, by the Neumann series of
    poly = c x^lead (1 + tail).  Every other monomial of poly must have
    positive height relative to lead, and c must be a sign."""
    c = poly[lead]
    assert c * c == 1, "leading coefficient must be a unit"
    zero = (0,) * len(lead)
    tail = {}
    for k, e in poly.items():
        d = tuple(x - y for x, y in zip(k, lead))
        if d != zero and _ht(height, d) <= cap:
            tail[d] = -e * c
    out, term = {zero: c}, {zero: c}
    while term := _mul(term, tail, height, cap):
        for k, e in term.items():
            out[k] = out.get(k, 0) + e
    return out


def _weyl_denominator(N: int, s: int = -1) -> dict[tuple, int]:
    """sum_w s^{l(w)} x^{w(rho)}: the Weyl denominator Delta for s = -1,
    and x + 1/x for N = 2, s = +1."""
    return {image: sign for sign, image in weyl_orbit(N, (1,) * (N - 1), s)}


def _cap(N: int, bound: Fraction, p: int) -> int:
    """N times the height cap for the expansion of Delta^p: a target mu
    with (mu, mu) <= bound has h(mu - p w(rho)) <= |mu||rho| + |p|(rho, rho)."""
    rr = Fraction(rho_norm(N), N)  # (rho, rho)
    return N * (math.isqrt(math.ceil(bound * rr)) + int(abs(p) * rr) + 2)


def vertex_factor_suN(deg: int, N: int, bound: Fraction) -> dict[tuple, int]:
    """Chamber-summed expansion coefficients of (Weyl denominator)^{2-deg},
    keyed by fundamental-weight coordinates: the sums over the |W| chamber
    expansions (a block divides by |W| per vertex), at the weights mu with
    (mu, mu) <= bound.  The coefficients are ints."""
    if N < 2:
        raise ValueError("need N >= 2")
    if deg < 0 or bound < 0:
        raise ValueError("degree and bound must be nonnegative")
    return dict(_sun_chamber_average(deg, N, Fraction(bound))[0])


@functools.lru_cache(maxsize=64)
def _sun_chamber_average(deg: int, N: int, bound: Fraction) -> tuple[dict[tuple, int], int]:
    """Weyl-chamber average of Delta^{2-deg}: the integer sum {weight: c} and |W|.

    In the chamber of w, Delta = sign(w) x^{w(rho)} (1 + U) with U of
    positive height: (1 + U)^p is a truncated power, and for p < 0 the
    truncated Neumann inverse of 1 + U raised to -p.  Cached; callers must
    not modify the returned dict.
    """
    p, G = 2 - deg, gram(N)
    delta = _weyl_denominator(N)
    cap = _cap(N, bound, p)
    total: dict[tuple, int] = {}
    for chamber, sign in delta.items():
        H = _height(G, chamber)
        one_u = {tuple(x - y for x, y in zip(k, chamber)): e * sign for k, e in delta.items()}
        base = _inverse(one_u, (0,) * (N - 1), H, cap) if p < 0 else one_u
        for k, e in _pow(base, abs(p), H, cap).items():
            mu = tuple(x + p * y for x, y in zip(k, chamber))
            if _norm(G, mu) <= N * bound:
                total[mu] = total.get(mu, 0) + e * sign ** (p % 2)
    return {k: e for k, e in total.items() if e}, len(delta)


# ---------------------------------------------------------------------------
# theta forms and lattice enumeration


def _prefactor(lm: LinkingMatrix, N: int) -> Fraction:
    """Exponent of the block prefactor, -(3L + tr B)(rho, rho)/2; at N = 2,
    where (rho, rho) = 1/2, it is -(3L + tr B)/4."""
    trB = sum(lm.B[i][i] for i in range(lm.size))
    return Fraction(-(3 * lm.size + trB) * rho_norm(N), 2 * N)


def _series_denom(lm: LinkingMatrix, N: int) -> int:
    """Exponent denominator limit of a block series: 4 |det B| and the
    prefactor's at rank 1, with 2N |det B| and 12 for su(N)."""
    return math.lcm(2 * N * abs(lm.det), _prefactor(lm, N).denominator, 1 if N == 2 else 12)


def _class_matrix(lm: LinkingMatrix, N: int) -> list[list[int]]:
    """adj(B) (x) gram(N), index v (N-1) + a for coordinate a at vertex v.  Two
    weight vectors lie in one coset of (B (x) C) Z^{(N-1)L}, C the Cartan
    matrix, iff their images agree mod N det B; image / N det B is the centre."""
    return [[a * g for a in adj_row for g in g_row]
            for adj_row in lm.adj for g_row in gram(N)]


def _theta_form(lm: LinkingMatrix, N: int, pos) -> list[list[int]]:
    """(-B) (x) C, twice the theta form of the su(N) lattice, coordinate
    pos[v] (N-1) + a being simple-root coordinate a at vertex v.  Over the
    coset of b the exponent is half its value at m + centre, m integer,
    where the centre (B^{-1} (x) C^{-1}) b is mapped to b by B (x) C."""
    n, r, C = lm.size, N - 1, cartan(N)
    Q = [[0] * (n * r) for _ in range(n * r)]
    for v, w, a, c in itertools.product(range(n), range(n), range(r), range(r)):
        Q[pos[v] * r + a][pos[w] * r + c] = -lm.B[v][w] * C[a][c]
    return Q


def _eliminate(M: list[list[int]]) -> list[int]:
    """Fraction-free (Bareiss) elimination, in place, of the n x m integer
    matrix M, m >= n, whose leading minors are positive.  Afterwards row k
    holds in each column c > k the minor of M on rows 0..k and columns
    0..k-1, c, its pivot being the leading minor d_{k+1}.  Returns
    d_0..d_n (d_0 = 1)."""
    n, d = len(M), [1]
    for k in range(n):
        assert M[k][k] > 0, "quadratic form is not positive definite"
        for i, j in itertools.product(range(k + 1, n), range(k + 1, len(M[k]))):
            M[i][j] = (M[k][k] * M[i][j] - M[i][k] * M[k][j]) // d[k]
        d.append(M[k][k])
    return d


def _bareiss(Q: list[list[int]]):
    """Bareiss elimination of the integer posdef form Q: its leading minors
    d_1..d_n (d_0 = 1), the integer rows [(j, M_kj) for j > k], w_k =
    L / (d_k d_{k+1}) and L, with x^T Q x = sum_k w_k Y_k^2 / L for
    Y_k = d_{k+1} x_k + sum_{j>k} M_kj x_j."""
    n, M = len(Q), [list(row) for row in Q]
    d = _eliminate(M)
    L = math.lcm(*(a * b for a, b in zip(d, d[1:])))
    return (d[1:], [[(j, M[k][j]) for j in range(k + 1, n) if M[k][j]] for k in range(n)],
            [L // (a * b) for a, b in zip(d, d[1:])], L)


def _bordered_minors(A: list[list[int]]):
    """The leading minors d_0..d_n of the integer posdef A and, for each j,
    the row A_{j,P} adj(A_PP) over P = 0..j-1, from one elimination of
    [A | I]: row j then holds in identity column k < j the bordered
    determinant of A_PP by (A_{j,P}, 0) and e_k, which is
    -(A_{j,P} adj(A_PP))_k."""
    n = len(A)
    M = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    return _eliminate(M), [[-M[j][n + k] for k in range(j)] for j in range(n)]


def ellipsoid_points(A, center, R: Fraction, prune=None):
    """(x, exact value) for the integer x with (x+center)^T A (x+center) <= R
    (A posdef), by `_points` on the Bareiss rows of Q = sA, s the least
    common denominator of A.  prune maps a level i to a function of
    (x, lo, hi), called once x[i+1:] are fixed, that lists the admissible
    x[i] in [lo, hi] in ascending order."""
    s, form = _scaled_form(tuple(map(tuple, A)))
    E = math.lcm(*(c.denominator for c in center))
    pts, K = _points(form, [c.numerator * (E // c.denominator) for c in center], E,
                     s * Fraction(R), prune)
    return [(x, Fraction(t, K * s)) for x, t in pts]


@functools.lru_cache(maxsize=64)
def _scaled_form(A: tuple) -> tuple:
    """s, the least common denominator of the rational matrix A, and the
    Bareiss form of sA.  Memoised, as the oracle walks one form per graph."""
    s = math.lcm(*(a.denominator for row in A for a in row))
    return s, _bareiss([[int(a * s) for a in row] for row in A])


def _points(form, e, E: int, R: Fraction, prune=None, first=False):
    """(x, t) with (x + e/E)^T Q (x + e/E) = t / K <= R (E > 0), and K, for
    form = _bareiss(Q): level k holds w_k Y_k^2 with E Y_k an integer, so
    each range of x_k, x[n-1] first, comes from math.isqrt.  prune is as
    in ellipsoid_points; with first set, it stops at a first point below R."""
    piv, rows, w, L = form
    n, R, scale = len(piv), Fraction(R), L * E * E
    base = [p * ek + sum(u * e[j] for j, u in row) for p, ek, row in zip(piv, e, rows)]
    m, W = [E * p for p in piv], [R.denominator * wk for wk in w]
    top = R.numerator * scale - first
    checks, out, x = prune or {}, [], [0] * n

    def rec(i: int, remaining: int):
        P, mi, wi = base[i] + E * sum([u * x[j] for j, u in rows[i]]), m[i], W[i]
        s = math.isqrt(remaining // wi)  # |Y| <= s  <=>  w_i Y^2 <= remaining
        lo, hi = -((s + P) // mi), (s - P) // mi
        for xi in checks[i](x, lo, hi) if i in checks else range(lo, hi + 1):
            x[i] = xi
            Y = mi * xi + P
            left = remaining - wi * Y * Y
            if i:
                rec(i - 1, left)
            else:
                out.append((tuple(x), top - left))
            if first and out:
                return

    if top >= 0:
        rec(n - 1, top)
    return out, R.denominator * scale


# ---------------------------------------------------------------------------
# the block engine


def _walk(lm: LinkingMatrix, N: int, R: Fraction, sup):
    """The points s of prod_v sup[v], sup[v] = (row, den) standing for
    {weight: c / den}, with exponent q < R as {class vector mod N |det B|:
    {q * scale: coefficient * D}}, scale, D, D the product of the den.

    2N q = s^T (A^{-1} (x) gram(N)) s with A = -B.  Each level fixes one
    vertex, by ascending support size, so the largest is walked last.  With
    A = L D L^T in walk order and z = L^{-1} s, the sum of pair(z_i, z_i) / D_i
    over the first k levels is the least 2N q of any completion.  In
    integers, d_k being the k-th leading minor of A and P the earlier
    levels, w_k = d_{k-1} z_k = d_{k-1} s_k - acc_k, acc_k = A_{k,P} adj(A_PP) s_P,
    and pair(z_k, z_k) / D_k = pair(w_k, w_k) / (d_{k-1} d_k); the minors and
    the rows A_{k,P} adj(A_PP) come from `_bordered_minors` in walk order.
    The walk carries the later levels' acc and the class vector.  A row
    keeps dmu = d_{k-1} s_k, omega N (dmu, dmu) and 2 omega gram(N) dmu, so a
    candidate costs one dot product past its level's N (acc, acc).  As
    gram(N)^{-1} = C / N has (0, 0) entry 2/N, a last-level candidate with
    omega N (dmu - acc, dmu - acc) <= room = lim - 1 - T (>= 0: levels are
    entered below lim) has (dmu_0 - acc_0)^2 <= 2 room / (N omega), so one
    isqrt and two bisects cut the rows, sorted by dmu_0, to that slab before
    the exact test.  At rank 1 the slab is the admissible set.
    """
    n, r, G = lm.size, N - 1, gram(N)
    A, mod = [[-x for x in row] for row in lm.B], N * abs(lm.det)
    D = math.prod(den for _, den in sup)
    sup = [{mu: c for mu, c in row.items() if _norm(G, mu) * R.denominator < cap}
           for (row, _), cap in zip(sup, [2 * N * R.numerator * A[v][v] for v in range(n)])]
    order = sorted(range(n), key=lambda v: (len(sup[v]), v))
    dets, cross = _bordered_minors([[A[a][b] for b in order] for a in order])
    S = math.lcm(*(dets[k] * dets[k + 1] for k in range(n)))
    omega = [S * R.denominator // (dets[k] * dets[k + 1]) for k in range(n)]
    lim = 2 * N * S * R.numerator
    levels = []
    for k, v in enumerate(order):
        # column k of A_{j,P} adj(A_PP) for each later level j, column v of adj(B)
        later, adj = [cross[j][k] for j in range(k + 1, n)], [a[v] for a in lm.adj]
        d, w, rows = dets[k], omega[k], []
        for mu, c in sup[v].items():
            gm = [sum(map(mul, g, mu)) for g in G]
            rows.append((d * mu[0], c, w * d * d * sum(map(mul, mu, gm)),
                         [2 * w * d * x for x in gm], [f * x for f in later for x in mu],
                         [a * x for a in adj for x in gm]))
        levels.append(sorted(rows, key=lambda row: row[0]))
    firsts, last = [row[0] for row in levels[-1]], n - 1
    out: dict = {}

    def rec(k, off, cls, T, coef):
        acc, rows = off[:r], levels[k]
        base = T + omega[k] * _norm(G, acc)
        if k == last:
            s = math.isqrt(2 * (lim - 1 - T) // (N * omega[k]))
            rows = rows[bisect.bisect_left(firsts, acc[0] - s):
                        bisect.bisect_right(firsts, acc[0] + s)]
        for _, num, wn, wg, col, row in rows:
            t = base + wn - sum(map(mul, wg, acc))
            if t >= lim:
                continue
            if k < last:
                rec(k + 1, list(map(add, off[r:], col)), list(map(add, cls, row)), t, coef * num)
                continue
            bucket = out.setdefault(tuple([x % mod for x in map(add, cls, row)]), {})
            bucket[t] = bucket.get(t, 0) + coef * num

    if all(sup):
        rec(0, [0] * (n * r), [0] * (n * r), 0, 1)
    return out, 2 * N * S * R.denominator, D


def zhat_blocks(g: PlumbingGraph, lm: LinkingMatrix, labels, variant: str,
                order) -> list[ZhatBlock]:
    """The blocks of g (linking matrix lm) for the given labels from one
    walk, truncated at exponent prefactor + order.  variant su2, so3 or
    osp12 is rank 1, with int labels; su<N> is su(N), N >= 3, whose labels
    give each vertex a tuple of fundamental-weight coordinates."""
    variant = variant.lower()
    N = _rank(variant)
    if not is_negative_definite(lm):
        raise ValueError("linking matrix must be negative definite")
    R = Fraction(order)
    if R <= 0:  # the theta form is positive definite
        raise ValueError("order does not reach past delta_b")
    B, n, rank1 = lm.B, lm.size, variant in RANK1
    sup = [_avg_rank1(g.degree(vid), math.isqrt(int(4 * R * -B[i][i])) + 2, variant == "osp12")
           if rank1 else _sun_chamber_average(g.degree(vid), N, 2 * R * -B[i][i])
           for i, vid in enumerate(g.ids)]
    walked, scale, D = _walk(lm, N, R, sup)
    pref = _prefactor(lm, N)
    Q = _theta_form(lm, N, range(n))
    form, K, det = _bareiss(Q), _class_matrix(lm, N), N * lm.det
    empty = QSeries.from_terms({}, denom=_series_denom(lm, N), trunc=pref + R)
    # over the series limit, pref + t / scale is base + (t / step) mult
    h = math.gcd(empty.denom, scale)
    step, mult, base = scale // h, empty.denom // h, int(pref * empty.denom)
    blocks = []
    for b in labels:
        b = tuple(b)
        flat = [int(c) for x in b for c in (x if isinstance(x, tuple) else (x,))]
        y = [sum(map(mul, row, flat)) for row in K]
        found = walked.get(tuple(x % abs(det) for x in y), {})
        low = Fraction(min(found), scale) if found else Fraction(0)
        # Q at the rounded centre y / det (offset u / det) bounds twice the
        # coset minimum; one point below 2R shows the minimum is below R
        u = [x - det * ((2 * x + det) // (2 * det)) for x in y]
        top = Fraction(sum(map(mul, u, [sum(map(mul, row, u)) for row in Q])), det * det)
        e = y if det > 0 else [-x for x in y]
        if rank1:
            pts, den = _points(form, e, abs(det), top)
            low = Fraction(min(t for _, t in pts), 2 * den)
            if R <= low:
                raise ValueError("order does not reach past delta_b")
        elif not found and top >= 2 * R and not _points(form, e, abs(det), 2 * R, first=True)[0]:
            raise ValueError("order does not reach past delta_b")
        terms = sorted(found.items())
        if any(t % step for t, _ in terms):
            raise ValueError(f"block {b} has an exponent finer than the series limit {empty.denom}")
        series = QSeries(tuple((base + t // step * mult, c // D if c % D == 0 else Fraction(c, D))
                               for t, c in terms if c), empty.denom, empty.trunc)
        blocks.append(ZhatBlock(b, pref + low, series, variant))
    return blocks


def _rank(variant: str) -> int:
    """N of a variant: 2 at rank 1, N for su<N> with N >= 3."""
    if variant in RANK1 or variant[:2] == "su" and variant[2:].isdigit() and int(variant[2:]) > 2:
        return 2 if variant in RANK1 else int(variant[2:])
    raise ValueError(f"unknown variant {variant!r}")


def zhat_block(g: PlumbingGraph, b, variant: str, order) -> ZhatBlock:
    """One homological block, truncated at exponent prefactor + order."""
    return zhat_blocks(g, linking_matrix(g), [b], variant, order)[0]


def zhat_all_blocks(g: PlumbingGraph, variant: str, order) -> list[ZhatBlock]:
    """Every block of g: folded Spin^c labels at rank 1, sun_block_labels
    for su(N)."""
    variant, lm = variant.lower(), linking_matrix(g)
    labels = [lab.b for lab in spinc_representatives(lm, degree_delta(g)[1])] \
        if variant in RANK1 else sun_block_labels(g, _rank(variant), lm)
    return zhat_blocks(g, lm, labels, variant, order)


def sun_block_labels(g: PlumbingGraph, N: int, lm: LinkingMatrix | None = None) -> list[tuple]:
    """Coset labels b in (Q^L + delta)/B Q^L, delta_v = (2 - deg v) rho: each
    an L-tuple of fundamental-weight coordinate tuples.  lm is the linking
    matrix of g, computed when not given."""
    B = (lm or linking_matrix(g)).B
    r, G = N - 1, cartan(N)
    base = [2 - g.degree(vid) for vid in g.ids]
    # combo[a][v] shifts root coordinate a at vertex v; the Cartan matrix
    # turns the shift into fundamental-weight coordinates
    return [tuple(tuple(Fraction(p + sum(G[a][i] * combo[i][v] for i in range(r)))
                        for a in range(r)) for v, p in enumerate(base))
            for combo in itertools.product(coset_representatives([list(row) for row in B]),
                                           repeat=r)]


# ---------------------------------------------------------------------------
# constant-term oracle


def constant_term_oracle(g: PlumbingGraph, b, variant: str, order) -> QSeries:
    """Block series recomputed as a theta-function constant term: the m-space
    walk (N = 2 at rank 1) over lattice points m, where vertex v has weight
    s_v = b_v + C sum_w B_vw m_w and contributes factors[v][s_v].  variant is
    su2, so3, osp12 or su3; b gives each vertex an integer at rank 1 and a
    pair of fundamental-weight coordinates for su3.

    All that does not depend on b comes from `_oracle_context`, memoised on
    (g, variant, order).  At level i of the walk s_v moves by k_{v,i} per
    unit and by a lattice L in the free lower coordinates; when L has rank
    below N - 1, an integer phi with phi(L) = 0 and phi(k_{v,i}) != 0 must
    take s_v into phi(support of v).  At v's lowest coordinate L = 0 and
    phi is the identity; for su3, where L can be a line, phi is its
    perpendicular."""
    variant = variant.lower()
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    n, r = len(g.ids), 2 if variant == "su3" else 1
    # at rank 1 theta contributes z^ell and the pairing takes the coefficient
    # of z^{-ell_v}, so the walk runs over the coset of -b, whose points -ell
    # have the same exponents
    try:
        bw = [tuple(bv) if r > 1 else (-bv,) for bv in b]
        ok = len(bw) == n and all(len(bv) == r and all(int(c) == c for c in bv) for bv in bw)
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"a {variant} label gives each of the {n} vertices "
                         + ("a pair of integers" if r > 1 else "an integer"))
    bw = [tuple(map(int, bv)) for bv in bw]
    if not is_negative_definite(linking_matrix(g)):
        raise ValueError("linking matrix must be negative definite")
    R = Fraction(order)
    if R <= 0:  # as in the blocks: no such order passes the coset minimum
        raise ValueError("order does not reach past delta_b")
    ctx = _oracle_context(g, variant, R)
    flat = list(itertools.chain(*bw))
    center = [Fraction(sum(map(mul, row, flat)), ctx.det) for row in ctx.cls]
    prune = {level: functools.partial(_admissible, tests=[
        (tuple([sum(map(mul, row, bw[v])) for row in phi]), *test)
        for v, phi, *test in tests]) for level, tests in ctx.tests.items()}
    terms, factors, lin, pref = {}, ctx.factors, ctx.lin, ctx.pref
    # the walk runs on (-B) (x) C, twice the theta form, at radius 2R
    for x, q in ellipsoid_points(ctx.form, center, 2 * R, prune):
        if q < 2 * R:
            coeff = Fraction(1)
            for f, b0, rows in zip(factors, bw, lin):
                coeff *= f[tuple([c + sum([k * x[i] for i, k in row])
                                  for c, row in zip(b0, rows)])]
            terms[e] = terms.get(e := pref + q / 2, 0) + coeff
    return QSeries.from_terms(terms, denom=ctx.denom, trunc=pref + R)


class _OracleContext(NamedTuple):
    """What the oracle needs of (graph, variant, order) besides the label:
    the vertex expansions, the class rows and the theta form in walk order,
    the weight maps and the prune tables."""

    factors: list      # factors[v]: {weight: coefficient}
    lin: list          # s_v[a] = b_v[a] + sum(k * x[i] for i, k in lin[v][a])
    cls: list          # centre[i] = cls[i] . b / det, i a walk coordinate
    det: int           # N det B
    form: tuple        # (-B) (x) C in walk order
    tests: dict        # level: [(v, phi, later, phi(k), p0, buckets, image)]
    pref: Fraction
    denom: int


@functools.lru_cache(maxsize=64)
def _oracle_context(g: PlumbingGraph, variant: str, R: Fraction) -> _OracleContext:
    """The oracle's context for g (negative definite), a variant it takes
    and an order R > 0.  Memoised like `linking_matrix`; callers must not
    modify it.

    A test of vertex v at level i holds the functional phi (its rows), the
    moves (j, phi(k_{v,j})) of the coordinates j > i fixed before it,
    k = phi(k_{v,i}), the index p0 of k's first nonzero entry, phi(support)
    and that image's entries p0 bucketed by their residue mod k[p0]."""
    lm = linking_matrix(g)
    n, B = lm.size, lm.B
    if variant == "su3":
        N, bound = 3, 2 * R * max(-B[i][i] for i in range(n))
        factors = [_oracle_vertex_suN(g.degree(vid), N, bound) for vid in g.ids]
    else:
        # expansions of x + s/x cut at |ell| <= max_abs, that is
        # (ell, ell) = ell^2 / 2 <= max_abs^2 / 2
        N, s = 2, 1 if variant == "osp12" else -1
        factors = [_oracle_vertex_suN(
            g.degree(vid), 2, Fraction((math.isqrt(int(4 * R * -B[i][i])) + 2) ** 2, 2), s)
            for i, vid in enumerate(g.ids)]
    r, C, pos = N - 1, cartan(N), _walk_order(B)
    # move[v][i]: the change of s_v per unit of walk coordinate i
    move = [[(0,) * r] * (n * r) for _ in range(n)]
    for v, w, c in itertools.product(range(n), range(n), range(r)):
        move[v][pos[w] * r + c] = tuple(C[a][c] * B[v][w] for a in range(r))
    cls = [None] * (n * r)
    for i, row in enumerate(_class_matrix(lm, N)):
        cls[pos[i // r] * r + i % r] = row

    def apply(phi, mu):
        return tuple([sum(map(mul, row, mu)) for row in phi])

    tests: dict[int, list] = {}
    for v in range(n):
        moved = [i for i in range(n * r) if any(move[v][i])]
        for t, i in enumerate(moved):
            lower = [move[v][j] for j in moved[:t]]
            if not lower:
                phi = tuple(tuple(int(a == c) for c in range(r)) for a in range(r))
            elif r == 2 and all(u[0] * lower[0][1] == u[1] * lower[0][0] for u in lower):
                u, h = lower[0], math.gcd(*lower[0])
                phi = ((u[1] // h, -u[0] // h),)
            else:  # the lower moves span the weight space from here on
                break
            k = apply(phi, move[v][i])
            if not any(k):
                continue
            p0 = next(p for p, c in enumerate(k) if c)
            image = {apply(phi, mu) for mu in factors[v]} if lower else factors[v]
            buckets: dict[int, list] = {}
            for y in sorted({y[p0] for y in image}):
                buckets.setdefault(y % k[p0], []).append(y)
            later = [(j, f) for j in moved[t + 1:] if any(f := apply(phi, move[v][j]))]
            tests.setdefault(i, []).append((v, phi, later, k, p0, buckets, image))
    for level in tests.values():  # full weights first: they admit the fewest values
        level.sort(key=lambda test: -len(test[1]))
    return _OracleContext(
        factors, [[[(i, m[a]) for i, m in enumerate(move[v]) if m[a]] for a in range(r)]
                  for v in range(n)],
        cls, N * lm.det, tuple(map(tuple, _theta_form(lm, N, pos))), tests,
        _prefactor(lm, N), _series_denom(lm, N))


def _admissible(x, lo, hi, tests) -> list[int]:
    """The values t in [lo, hi], ascending, of the coordinate x[i] of a
    level whose tests all hold once x[i+1:] are fixed: c + t k in image
    for c = const + sum_j x[j] phi(k_{v,j})."""
    found = None
    for const, later, k, p0, buckets, image in tests:
        c = const
        for j, f in later:
            if xj := x[j]:
                c = [a + xj * e for a, e in zip(c, f)]
        if found is None:
            c0, k0 = c[p0], k[p0]
            ys = buckets.get(c0 % k0, ())
            y0, y1 = (c0 + lo * k0, c0 + hi * k0) if k0 > 0 else (c0 + hi * k0, c0 + lo * k0)
            ys = ys[bisect.bisect_left(ys, y0):bisect.bisect_right(ys, y1)]
            found = [(y - c0) // k0 for y in (ys if k0 > 0 else reversed(ys))]
            if len(k) == 1:  # the bucket has tested the one entry
                continue
        found = [t for t in found if tuple([a + t * e for a, e in zip(c, k)]) in image]
        if not found:
            break
    return found


def _walk_order(B) -> list[int]:
    """Walk position of each vertex, so that closed neighbourhoods close
    early: greedily the vertex that completes the most neighbourhoods, then
    the one with the fewest neighbours not yet fixed.  The first vertex
    fixed gets the highest position, as the walk fixes the last one first."""
    n = len(B)
    nbhd = [{w for w in range(n) if B[v][w]} for v in range(n)]
    fixed: list[int] = []
    while len(fixed) < n:
        done = set(fixed)

        def rank(v):
            closes = sum(1 for u in range(n) if nbhd[u] - done == {v})
            return -closes, len(nbhd[v] - done), v

        fixed.append(min((v for v in range(n) if v not in done), key=rank))
    pos = [0] * n
    for k, v in enumerate(fixed):
        pos[v] = n - 1 - k
    return pos


@functools.lru_cache(maxsize=64)
def _oracle_vertex_suN(deg: int, N: int, bound: Fraction, s: int = -1) -> dict[tuple, Fraction]:
    """Chamber-averaged Delta^{2-deg}, Delta = _weyl_denominator(N, s), by
    inverting Delta^{deg-2} around its leading monomial in each chamber;
    N = 2 gives the rank-1 bases x - 1/x and x + 1/x.  Cached; callers must
    not modify the result."""
    p, G = 2 - deg, gram(N)
    delta = _weyl_denominator(N, s)
    poly = _pow(delta, abs(p))
    if p >= 0:
        return {k: Fraction(e) for k, e in poly.items() if _norm(G, k) <= N * bound}
    cap = _cap(N, bound, p)
    total: dict[tuple, int] = {}
    for chamber in delta:
        H = _height(G, chamber)
        lead = min(poly, key=lambda k: _ht(H, k))
        for k, e in _inverse(poly, lead, H, cap).items():
            mu = tuple(x - y for x, y in zip(k, lead))
            if _norm(G, mu) <= N * bound:
                total[mu] = total.get(mu, 0) + e
    return {k: Fraction(e, len(delta)) for k, e in total.items() if e}


def block_to_json(block: ZhatBlock) -> dict:
    return {"b": [str(x) for x in block.label], "delta": str(block.delta_b),
            "variant": block.variant, "series": qs_to_json(block.series)}
