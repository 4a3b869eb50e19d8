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

Every block carries the prefactor q^{-(3L + tr B)(rho, rho)/2}, one
helper for all N, and B^{-1} is always the integer adj(B) of the linking
matrix over det B.  Rank-1 blocks run over the product of the vertex
supports.  A tuple ell lies in the coset of b when
adj(B)(ell - b) = 0 mod 2 det B, and its exponent is
-ell^T adj(B) ell / (4 det B): integers throughout, and one Fraction per
kept term.  A block's least exponent delta_b is the prefactor plus the
minimum of its theta form, which is the su(N) theta form below at N = 2.
su(N) blocks walk the lattice with
`ellipsoid_points`, an integer Fincke-Pohst enumeration that returns each
point with its exact form value.  A vertex's weight depends only on the
coordinates of its closed neighbourhood, so the walk fixes neighbourhoods
early and cuts a branch as soon as a weight falls outside the support of
that vertex's expansion.

An independent constant-term oracle recomputes every block by multiplying
the lattice theta function against its own vertex expansions and reading
off the z-degree-zero part.  The block expansion inverts the chamber
factor 1 + U and then raises it to a power; the oracle raises the Weyl
denominator to the power and then inverts it around its chamber-leading
monomial, with rank 1 as the N = 2 case (base x - 1/x, or x + 1/x for
OSp).  It walks the theta lattice in m-space, pruned by the supports of
its own expansions.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from plumbq.lie import cartan, gram, rho_norm, weyl_action, weyl_group, weyl_vector
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
    "delta_b",
    "zhat_block",
    "zhat_all_blocks",
    "constant_term_oracle",
    "block_to_json",
]

VARIANTS = ("su2", "so3", "osp12", "su3")


@dataclass(frozen=True)
class ZhatBlock:
    label: tuple
    delta_b: Fraction
    series: QSeries
    variant: str
    normalization_denominator: int


# ---------------------------------------------------------------------------
# vertex expansions, rank 1


def vertex_factor_su2(deg: int, max_abs_exp: int, osp: bool = False) -> dict[int, Fraction]:
    """Two-sided expansion coefficients of (x - 1/x)^{2-deg}, or of
    (x + 1/x)^{2-deg} when osp is set.

    For deg <= 2 this is the plain Laurent polynomial; for deg >= 3 it is
    the sum of the expansions at x -> infinity and x -> 0, truncated to
    |exponent| <= max_abs_exp.
    """
    if deg < 0:
        raise ValueError("degree must be nonnegative")
    s = 1 if osp else -1  # the base is x + s/x
    out: dict[int, Fraction] = {}
    p = 2 - deg
    if p >= 0:
        for i in range(p + 1):
            out[p - 2 * i] = Fraction(s ** i * math.comb(p, i))
        return out
    k = deg - 2
    j = 0
    while k + 2 * j <= max_abs_exp:
        c = Fraction((-s) ** j * math.comb(k - 1 + j, j))
        out[-(k + 2 * j)] = out.get(-(k + 2 * j), Fraction(0)) + c
        out[k + 2 * j] = out.get(k + 2 * j, Fraction(0)) + s ** k * c
        j += 1
    return {e: c for e, c in out.items() if c != 0}


def _avg_rank1(deg: int, max_abs_exp: int, osp: bool) -> dict[int, Fraction]:
    """Chamber-averaged coefficients: halves the two-sided sum for deg >= 3."""
    raw = vertex_factor_su2(deg, max_abs_exp, osp)
    if deg <= 2:
        return raw
    return {e: c / 2 for e, c in raw.items()}


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
    bs = sorted(((kb, cb, _ht(height, kb)) for kb, cb in b.items()),
                key=lambda t: t[2])
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
    rho = weyl_vector(N)
    return {weyl_action(w, rho).coords: s ** w.length for w in weyl_group(N)}


def _cap(N: int, bound: Fraction, p: int) -> int:
    """N times the height cap for the expansion of Delta^p: a target mu
    with (mu, mu) <= bound has h(mu - p w(rho)) <= |mu||rho| + |p|(rho, rho)."""
    rr = Fraction(rho_norm(N), N)  # (rho, rho)
    return N * (math.isqrt(math.ceil(bound * rr)) + int(abs(p) * rr) + 2)


def vertex_factor_suN(deg: int, N: int, bound: Fraction) -> dict[tuple, Fraction]:
    """Chamber-summed expansion coefficients of (Weyl denominator)^{2-deg}.

    Keys are fundamental-weight coordinates; values are the sums over the
    |W| chamber expansions (so the block assembly divides by |W| per
    vertex).  Only weights mu with (mu, mu) <= bound are returned.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    avg = _sun_chamber_average(deg, N, Fraction(bound))
    return {k: c * math.factorial(N) for k, c in avg.items()}


@functools.lru_cache(maxsize=64)
def _sun_chamber_average(deg: int, N: int, bound: Fraction) -> dict[tuple, Fraction]:
    """Average over Weyl chambers of the expansion of Delta^{2-deg}.

    In the chamber of w, Delta = sign(w) x^{w(rho)} (1 + U) with U of
    positive height: (1 + U)^p is a truncated power, and for p < 0 the
    truncated Neumann inverse of 1 + U raised to -p.  Cached, since every
    block of a manifold asks for the same expansions; callers must not
    modify the returned dict.
    """
    p, G = 2 - deg, gram(N)
    delta = _weyl_denominator(N)
    cap = _cap(N, bound, p)
    total: dict[tuple, int] = {}
    for chamber, sign in delta.items():
        H = _height(G, chamber)
        one_u = {tuple(x - y for x, y in zip(k, chamber)): e * sign
                 for k, e in delta.items()}
        base = _inverse(one_u, (0,) * (N - 1), H, cap) if p < 0 else one_u
        for k, e in _pow(base, abs(p), H, cap).items():
            mu = tuple(x + p * y for x, y in zip(k, chamber))
            if _norm(G, mu) <= N * bound:
                total[mu] = total.get(mu, 0) + e * sign ** (p % 2)
    return {k: Fraction(e, len(delta)) for k, e in total.items() if e}


# ---------------------------------------------------------------------------
# lattice enumeration


def _ldl(A: list[list[Fraction]]):
    """Q(x) = sum_i d[i] (x_i + sum_{j>i} U[i][j] x_j)^2 for posdef A."""
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    d = [Fraction(0)] * n
    U = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = M[i][i]
        assert d[i] > 0, "quadratic form is not positive definite"
        for j in range(i + 1, n):
            U[i][j] = M[i][j] / d[i]
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                M[r][c] -= M[r][i] * M[i][c] / d[i]
    return d, U


def ellipsoid_points(A, center, R: Fraction, prune=None):
    """Integer vectors x with (x+center)^T A (x+center) <= R (A posdef).

    Returns a list of (x, value) pairs, value being the exact form value
    as a Fraction.  Fincke-Pohst style recursive enumeration that fixes
    x[n-1] first and x[0] last.  prune maps a level i to a predicate of
    the list x, called once x[i], ..., x[n-1] are fixed (entries below i
    are stale); a branch on which it is false is cut.

    The walk runs in integers.  With A = U^T diag(d) U, level i scales
    y_i = x_i + center_i + sum_{j>i} U[i][j] (x_j + center_j) to an integer
    Y = M_i y_i and its share d_i y_i^2 of the form to w_i Y^2 over one
    denominator K shared by all levels.  So the range of each x_i comes
    from math.isqrt, with no float and no rejected candidate, and a point's
    value is R - remaining, one Fraction per point returned.
    """
    n = len(A)
    d, U = _ldl([[Fraction(x) for x in row] for row in A])
    center = [Fraction(c) for c in center]
    R = Fraction(R)
    M, base, rows = [], [], []
    for i in range(n):
        const = center[i] + sum(U[i][j] * center[j] for j in range(i + 1, n))
        m = math.lcm(const.denominator,
                     *(U[i][j].denominator for j in range(i + 1, n)))
        M.append(m)
        base.append(int(const * m))
        rows.append([(j, int(U[i][j] * m)) for j in range(i + 1, n) if U[i][j]])
    K = math.lcm(R.denominator, *((d[i] / M[i] ** 2).denominator for i in range(n)))
    w = [int(d[i] * K / M[i] ** 2) for i in range(n)]
    top = int(R * K)
    checks = prune or {}
    out = []
    x = [0] * n

    def rec(i: int, remaining: int):
        m, wi = M[i], w[i]
        P = base[i]
        for j, u in rows[i]:
            P += u * x[j]
        s = math.isqrt(remaining // wi)  # |Y| <= s  <=>  w_i Y^2 <= remaining
        check = checks.get(i)
        for xi in range(-((s + P) // m), (s - P) // m + 1):
            x[i] = xi
            if check is not None and not check(x):
                continue
            Y = m * xi + P
            left = remaining - wi * Y * Y
            if i:
                rec(i - 1, left)
            else:
                out.append((tuple(x), Fraction(top - left, K)))

    if top >= 0:
        rec(n - 1, top)
    return out


def _lattice_min(A, center) -> Fraction:
    """Least value of the form over the shifted lattice: unpruned walks at
    growing radius until one finds a point."""
    R = Fraction(1)
    while not (pts := ellipsoid_points(A, center, R)):
        R *= 4
    return min(q for _, q in pts)


def _walk_order(B) -> list[int]:
    """Walk position of each vertex, so that closed neighbourhoods close early.

    Greedy: the next vertex fixed is the one that completes the most
    neighbourhoods, then the one with the fewest neighbours (itself
    included) not yet fixed.  The first vertex fixed gets the highest
    position, since the walk fixes coordinates from the last one down.
    """
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


# ---------------------------------------------------------------------------
# block assembly, rank 1


def _prefactor(lm: LinkingMatrix, N: int) -> Fraction:
    """Exponent of the block prefactor, -(3L + tr B)(rho, rho)/2; at N = 2,
    where (rho, rho) = 1/2, it is -(3L + tr B)/4."""
    trB = sum(lm.B[i][i] for i in range(lm.size))
    return Fraction(-(3 * lm.size + trB) * rho_norm(N), 2 * N)


def delta_b(lm: LinkingMatrix, b) -> Fraction:
    """Least possible exponent of block b: prefactor + min of the lattice form.

    The form is the N = 2 theta form: t^T (-B) t over t = m + B^{-1} b / 2
    with m integer.
    """
    if not is_negative_definite(lm):
        raise ValueError("linking matrix must be negative definite")
    form = _theta_form(lm, [(x,) for x in b], 2, range(lm.size))
    return _prefactor(lm, 2) + _lattice_min(*form)


def _rank1_supports(g: PlumbingGraph, lm: LinkingMatrix, R: Fraction, osp: bool):
    """Per-vertex coefficient dicts truncated by the norm bound."""
    sup = []
    for idx, vid in enumerate(g.ids):
        deg = g.degree(vid)
        fv = -lm.B[idx][idx]
        max_abs = int(math.isqrt(int(4 * R * fv))) + 2
        sup.append(_avg_rank1(deg, max_abs, osp))
    return sup


def _coset_exponent(adj, det: int, ell, b) -> Fraction | None:
    """-ell^T B^{-1} ell / 4 if (ell - b)/2 lies in B Z^L, else None.

    adj = det(B) B^{-1} is an integer matrix, so the membership test is
    adj (ell - b) = 0 mod 2 det B and the exponent is
    -ell^T adj ell / (4 det B), in integers up to the one Fraction returned.
    """
    diff = [e - c for e, c in zip(ell, b)]
    if any(sum(a * x for a, x in zip(row, diff)) % (2 * det) for row in adj):
        return None
    return Fraction(-sum(e * sum(a * f for a, f in zip(row, ell))
                         for e, row in zip(ell, adj)), 4 * det)


def zhat_block(
    g: PlumbingGraph, b, variant: str, order
) -> ZhatBlock:
    """One homological block, truncated at exponent prefactor + order."""
    variant = variant.lower()
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "su3":
        return _zhat_block_suN(g, b, 3, order)
    lm = linking_matrix(g)
    if not is_negative_definite(lm):
        raise ValueError("linking matrix must be negative definite")
    R = Fraction(order)
    pref = _prefactor(lm, 2)
    db = delta_b(lm, b)
    if pref + R <= db:
        raise ValueError("order does not reach past delta_b")
    osp = variant == "osp12"
    sup = _rank1_supports(g, lm, R, osp)
    n, det, adj = lm.size, lm.det, lm.adj
    denom = math.lcm(4 * abs(det), pref.denominator)
    terms: dict[Fraction, Fraction] = {}
    for ell in itertools.product(*[sorted(s) for s in sup]):
        qexp = _coset_exponent(adj, det, ell, b)
        if qexp is None or qexp >= R:
            continue
        coeff = Fraction(1)
        for i in range(n):
            coeff *= sup[i][ell[i]]
        e = pref + qexp
        terms[e] = terms.get(e, Fraction(0)) + coeff
    series = QSeries.from_terms(terms, denom=denom, trunc=pref + R)
    c = sum(1 for vid in g.ids if g.degree(vid) >= 3)
    return ZhatBlock(tuple(b), db, series, variant, 2 ** c)


def zhat_all_blocks(g: PlumbingGraph, variant: str, order) -> list[ZhatBlock]:
    variant = variant.lower()
    if variant == "su3":
        return _zhat_all_blocks_suN(g, 3, order)
    lm = linking_matrix(g)
    _, delta = degree_delta(g)
    labels = spinc_representatives(lm, delta)
    return [zhat_block(g, lab.b, variant, order) for lab in labels]


# ---------------------------------------------------------------------------
# block assembly, su(N)


def sun_block_labels(g: PlumbingGraph, N: int) -> list[tuple]:
    """Coset labels b in (Q^L + delta)/B Q^L, delta_v = (2 - deg v) rho.

    Each label is an L-tuple of fundamental-weight coordinate tuples.
    """
    lm = linking_matrix(g)
    n = lm.size
    r = N - 1
    reps = coset_representatives([list(row) for row in lm.B])
    base = []
    for vid in g.ids:
        p = 2 - g.degree(vid)
        base.append(tuple(Fraction(p) for _ in range(r)))  # p * rho
    G = cartan(N)
    labels = []
    for combo in itertools.product(reps, repeat=r):
        # combo[a][v] shifts root coordinate a at vertex v; convert the
        # root-basis shift to fundamental-weight coordinates via the Cartan
        # matrix
        label = []
        for v in range(n):
            shift = [
                sum(G[a][i] * combo[i][v] for i in range(r)) for a in range(r)
            ]
            label.append(tuple(base[v][a] + shift[a] for a in range(r)))
        labels.append(tuple(label))
    return labels


def _theta_form(lm: LinkingMatrix, b, N: int, pos) -> tuple[list, list]:
    """Form and centre of the su(N) theta lattice over the coset of b.

    Coordinate pos[v] * (N-1) + a is simple-root coordinate a at vertex v.
    The exponent is (1/2) t^T ((-B) (x) G) t, G the Cartan matrix, with
    t = m + centre; the centre (B^{-1} (x) G^{-1}) b makes s = (B (x) I) t
    equal b, in fundamental-weight coordinates G s, at m = 0.  B^{-1} is
    adj(B) over det B.  At N = 2 the form is t^T (-B) t and the centre
    B^{-1} b / 2.
    """
    n, r = lm.size, N - 1
    G = cartan(N)
    # G^{-1} is the Gram matrix of the fundamental weights
    Ginv = [[Fraction(x, N) for x in row] for row in gram(N)]
    b_root = [[sum(Ginv[a][c] * Fraction(bv[c]) for c in range(r)) for a in range(r)]
              for bv in b]
    A = [[Fraction(0)] * (n * r) for _ in range(n * r)]
    center = [Fraction(0)] * (n * r)
    for v in range(n):
        for a in range(r):
            center[pos[v] * r + a] = \
                sum(lm.adj[v][w] * b_root[w][a] for w in range(n)) / lm.det
            for w in range(n):
                for c in range(r):
                    A[pos[v] * r + a][pos[w] * r + c] = Fraction(-lm.B[v][w]) * G[a][c] / 2
    return A, center


def _support_walk(lm: LinkingMatrix, b, N: int, R: Fraction, factors):
    """Exponents and coefficients of the su(N) theta sum over the coset of b.

    b gives each vertex's weight in fundamental-weight coordinates.  At
    lattice point m vertex v has weight s_v = b_v + G sum_w B_vw m_w, which
    depends on the closed neighbourhood of v only, and contributes
    factors[v][s_v].  The walk cuts a branch as soon as some vertex has its
    neighbourhood fixed and its weight is not a key of its factors.
    Returns {exponent: coefficient} over the kept points of exponent below
    R, and the least such exponent (None when there is none).
    """
    n, r = lm.size, N - 1
    B = lm.B
    G = cartan(N)
    pos = _walk_order(B)
    A, center = _theta_form(lm, b, N, pos)
    bw = [tuple(int(c) if Fraction(c).denominator == 1 else Fraction(c) for c in bv)
          for bv in b]
    # s_v[a] = bw[v][a] + sum(k * x[i] for i, k in lin[v][a])
    lin = [[[(pos[w] * r + c, G[a][c] * B[v][w])
             for w in range(n) if B[v][w] for c in range(r) if G[a][c]]
            for a in range(r)] for v in range(n)]

    def weight(v, x):
        return tuple(b0 + sum(k * x[i] for i, k in row)
                     for b0, row in zip(bw[v], lin[v]))

    closing: dict[int, list[int]] = {}
    for v in range(n):
        level = min(pos[w] for w in range(n) if B[v][w]) * r
        closing.setdefault(level, []).append(v)
    prune = {level: (lambda x, vs=vs: all(weight(v, x) in factors[v] for v in vs))
             for level, vs in closing.items()}
    terms: dict[Fraction, Fraction] = {}
    best = None
    for x, q in ellipsoid_points(A, center, R, prune):
        if q >= R:
            continue
        coeff = Fraction(1)
        for v in range(n):
            coeff *= factors[v][weight(v, x)]
        terms[q] = terms.get(q, Fraction(0)) + coeff
        if best is None or q < best:
            best = q
    return terms, best


def _sun_series(g: PlumbingGraph, lm: LinkingMatrix, b, N: int, R: Fraction, expand):
    """su(N) block series with vertex expansions expand(deg, N, bound), and
    the least exponent of a kept point (None when there is none).

    expand is cached, so vertices of equal degree share one expansion.
    """
    pref = _prefactor(lm, N)
    bound = 2 * R * max(-lm.B[i][i] for i in range(lm.size))
    factors = [expand(g.degree(vid), N, bound) for vid in g.ids]
    walked, best = _support_walk(lm, b, N, R, factors)
    terms = {pref + q: c for q, c in walked.items()}
    denom = math.lcm(2 * N * abs(lm.det), pref.denominator, 12,
                     *(e.denominator for e in terms))
    series = QSeries.from_terms(terms, denom=denom, trunc=pref + R)
    return series, None if best is None else pref + best


def _zhat_block_suN(g: PlumbingGraph, b, N: int, order) -> ZhatBlock:
    lm = linking_matrix(g)
    if not is_negative_definite(lm):
        raise ValueError("linking matrix must be negative definite")
    R = Fraction(order)
    # the theta form is positive definite, so no order <= 0 reaches past the
    # coset minimum; such an order is rejected before any expansion is built
    series, least = _sun_series(g, lm, b, N, R, _sun_chamber_average) \
        if R > 0 else (None, None)
    if least is None and \
            R <= _lattice_min(*_theta_form(lm, b, N, range(lm.size))):
        raise ValueError("order does not reach past delta_b")
    db = _prefactor(lm, N) if least is None else least
    return ZhatBlock(tuple(b), db, series, "su3" if N == 3 else f"su{N}",
                     math.factorial(N) ** lm.size)


def _zhat_all_blocks_suN(g: PlumbingGraph, N: int, order) -> list[ZhatBlock]:
    return [_zhat_block_suN(g, b, N, order) for b in sun_block_labels(g, N)]


# ---------------------------------------------------------------------------
# constant-term oracle


def constant_term_oracle(g: PlumbingGraph, b, variant: str, order) -> QSeries:
    """Block series recomputed as a theta-function constant term.

    The theta lattice is walked in m-space by the su(N) walk (N = 2 for
    the rank-1 variants, where the vertex weight is ell = b + 2 B m), pruned
    by the supports of the oracle's own vertex expansions.
    """
    variant = variant.lower()
    lm = linking_matrix(g)
    if not is_negative_definite(lm):
        raise ValueError("linking matrix must be negative definite")
    R = Fraction(order)
    if R <= 0:  # as in the blocks: no such order passes the coset minimum
        raise ValueError("order does not reach past delta_b")
    if variant == "su3":
        return _sun_series(g, lm, b, 3, R, _oracle_vertex_suN)[0]
    pref = _prefactor(lm, 2)
    s = 1 if variant == "osp12" else -1
    # vertex expansions via the independent inversion route, cut at
    # |ell| <= max_abs, that is (ell, ell) = ell^2 / 2 <= max_abs^2 / 2;
    # theta contributes z^ell, so the z-degree-zero pairing takes the
    # coefficient of z^{-ell_v} at vertex v
    factors = []
    for idx, vid in enumerate(g.ids):
        max_abs = math.isqrt(int(4 * R * -lm.B[idx][idx])) + 2
        sup = _oracle_vertex_suN(g.degree(vid), 2, Fraction(max_abs ** 2, 2), s)
        factors.append({(-e,): c for (e,), c in sup.items()})
    walked, _ = _support_walk(lm, [(x,) for x in b], 2, R, factors)
    denom = math.lcm(4 * abs(lm.det), pref.denominator)
    return QSeries.from_terms({pref + q: c for q, c in walked.items()},
                              denom=denom, trunc=pref + R)


@functools.lru_cache(maxsize=64)
def _oracle_vertex_suN(deg: int, N: int, bound: Fraction, s: int = -1) -> dict[tuple, Fraction]:
    """Chamber-averaged Delta^{2-deg} by direct polynomial inversion.

    Delta is _weyl_denominator(N, s), so N = 2 gives the rank-1 bases
    x - 1/x (s = -1) and x + 1/x (s = +1).  Delta^{deg-2} is inverted
    around its leading monomial in each chamber.  Cached like
    _sun_chamber_average; callers must not modify the result.
    """
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
    return {
        "b": [str(x) for x in block.label],
        "delta": str(block.delta_b),
        "normalization": f"1/{block.normalization_denominator}",
        "variant": block.variant,
        "series": qs_to_json(block.series),
    }
