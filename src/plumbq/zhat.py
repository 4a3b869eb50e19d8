"""Homological blocks of negative-definite plumbed 3-manifolds.

The block series is a lattice sum over a Spin^c coset: each vertex of the
plumbing tree contributes a Laurent-expansion coefficient of
(x - 1/x)^{2-deg} (or (x + 1/x)^{2-deg} for the OSp variant, or a power of
the A_{N-1} Weyl denominator for su(N)), and the lattice point contributes
q to a rational power built from -B^{-1}.  High-degree vertices have
negative powers, regularized by averaging the expansions over the two sides
(or the |W| Weyl chambers), never by a numeric limit.

Rank-1 blocks run over the product of the vertex supports.  A tuple ell
lies in the coset of b when adj(B)(ell - b) = 0 mod 2 det B, and its
exponent is -ell^T adj(B) ell / (4 det B): integers throughout, and one
Fraction per kept term.  su(N) blocks walk the lattice with
`ellipsoid_points`, an integer Fincke-Pohst enumeration that returns each
point with its exact form value.  A vertex's weight depends only on the
coordinates of its closed neighbourhood, so the walk fixes neighbourhoods
early and cuts a branch as soon as a weight falls outside the support of
that vertex's expansion.

An independent constant-term oracle recomputes every block by multiplying
the lattice theta function against vertex expansions built via truncated
geometric-series inversion and reading off the z-degree-zero part.  It
walks the theta lattice in m-space, pruned by the supports of its own
expansions.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from plumbq.lie import (
    WeightVector,
    weight_inner,
    weyl_group,
    weyl_action,
    weyl_vector,
)
from plumbq.plumbing import (
    LinkingMatrix,
    PlumbingGraph,
    SpincLabel,
    coset_representatives,
    degree_delta,
    is_negative_definite,
    linking_matrix,
    spinc_representatives,
)
from plumbq.qlaurent import QSeries

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


def _binom(n: int, k: int) -> int:
    return math.comb(n, k)


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
            out[p - 2 * i] = Fraction(s ** i * _binom(p, i))
        return out
    k = deg - 2
    j = 0
    while k + 2 * j <= max_abs_exp:
        c = Fraction((-s) ** j * _binom(k - 1 + j, j))
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
# vertex expansions, A_{N-1}


def _weight_key(v: WeightVector) -> tuple:
    return tuple(v.coords)


def vertex_factor_suN(deg: int, N: int, bound: Fraction) -> dict[tuple, Fraction]:
    """Chamber-summed expansion coefficients of (Weyl denominator)^{2-deg}.

    Keys are fundamental-weight coordinates; values are the sums over the
    |W| chamber expansions (so the block assembly divides by |W| per
    vertex).  Only weights mu with (mu, mu) <= bound are returned.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    avg = _sun_chamber_average(deg, N, Fraction(bound))
    W = weyl_group(N)
    return {k: c * len(W) for k, c in avg.items()}


@functools.lru_cache(maxsize=64)
def _sun_chamber_average(deg: int, N: int, bound: Fraction) -> dict[tuple, Fraction]:
    """Average over Weyl chambers of the expansion of Delta^{2-deg}.

    Cached, since every block of a manifold asks for the same expansions;
    callers must not modify the returned dict.
    """
    W = weyl_group(N)
    rho = weyl_vector(N)
    p = 2 - deg
    total: dict[tuple, Fraction] = {}
    for wi in W:
        one = _sun_single_chamber(deg, N, bound, wi, W, rho, p)
        for k, c in one.items():
            total[k] = total.get(k, Fraction(0)) + c
    nW = Fraction(1, len(W))
    return {k: c * nW for k, c in total.items() if c != 0}


def _sun_single_chamber(deg, N, bound, wi, W, rho, p) -> dict[tuple, Fraction]:
    """Expansion of Delta^p in the chamber where x^{wi(rho)} dominates.

    Delta = sign(wi) x^{wi(rho)} (1 + U) with U a sum over the other Weyl
    elements; (1+U)^p is expanded in the height grading h(mu) =
    -(mu, wi(rho)), in which every U monomial has positive height.
    """
    base = wi.sign  # sign(wi)^p depends on parity of p
    chamber_rho = weyl_action(wi, rho)
    sign_pref = Fraction(wi.sign ** (p % 2))
    base_wt = chamber_rho.scale(p)
    # height cutoff: any target weight mu with (mu,mu) <= bound satisfies
    # h(mu - base_wt) <= |mu||rho| + |p|(rho,rho)
    rr = weight_inner(rho, rho)
    hmax = int(math.isqrt(int(math.ceil(float(bound * rr))))) + int(abs(p) * rr) + 2
    # U as dict over (weight delta relative to the chamber leader) -> coeff,
    # graded by height
    U: dict[tuple, Fraction] = {}
    for w in W:
        if w.perm == wi.perm:
            continue
        delta = weyl_action(w, rho) - chamber_rho
        h = -weight_inner(delta, chamber_rho)
        assert h > 0
        if h <= hmax:
            U[_weight_key(delta)] = Fraction(w.sign * wi.sign)

    def mul(a: dict, b: dict) -> dict:
        out: dict[tuple, Fraction] = {}
        for ka, ca in a.items():
            wa = WeightVector.make(N, ka)
            for kb, cb in b.items():
                wk = wa + WeightVector.make(N, kb)
                h = -weight_inner(wk, chamber_rho)
                if h > hmax:
                    continue
                key = _weight_key(wk)
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return {k: c for k, c in out.items() if c != 0}

    one = {_weight_key(WeightVector.make(N, [0] * (N - 1))): Fraction(1)}
    if p >= 0:
        # finite binomial expansion of (1 + U)^p
        series = dict(one)
        upow = dict(one)
        for j in range(1, p + 1):
            upow = mul(upow, U)
            for k, c in upow.items():
                series[k] = series.get(k, Fraction(0)) + c * _binom(p, j)
    else:
        # Neumann series for (1+U)^{-1}, then raise to the k-th power
        inv = dict(one)
        upow = dict(one)
        j = 1
        while True:
            upow = mul(upow, U)
            if not upow:
                break
            for k, c in upow.items():
                inv[k] = inv.get(k, Fraction(0)) + (-1) ** j * c
            j += 1
            if j > hmax:
                break
        series = dict(one)
        for _ in range(-p):
            series = mul(series, inv)
    # attach the chamber leader monomial and filter by the norm bound
    out: dict[tuple, Fraction] = {}
    for k, c in series.items():
        mu = WeightVector.make(N, k) + base_wt
        if weight_inner(mu, mu) <= bound:
            key = _weight_key(mu)
            out[key] = out.get(key, Fraction(0)) + c * sign_pref
    return {k: c for k, c in out.items() if c != 0}


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


def _prefactor_exponent(g: PlumbingGraph) -> Fraction:
    L = len(g)
    sf = sum(f for _, f in g.vertices)
    return Fraction(-(3 * L + sf), 4)


def delta_b(lm: LinkingMatrix, b, framings=None) -> Fraction:
    """Least possible exponent of block b: prefactor + min of the lattice form."""
    if not is_negative_definite(lm):
        raise ValueError("linking matrix must be negative definite")
    n = lm.size
    fr = [lm.B[i][i] for i in range(n)]
    pref = Fraction(-(3 * n + sum(fr)), 4)
    Binv = lm.inverse()
    # minimize t^T(-B)t with t = m + B^{-1} b / 2 over integer m
    center = [sum(Binv[i][j] * b[j] for j in range(n)) / 2 for i in range(n)]
    A = [[-Fraction(lm.B[i][j]) for j in range(n)] for i in range(n)]
    return pref + _lattice_min(A, center)


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
    pref = _prefactor_exponent(g)
    db = delta_b(lm, tuple(b), None)
    if pref + R <= db:
        raise ValueError("order does not reach past delta_b")
    osp = variant == "osp12"
    sup = _rank1_supports(g, lm, R, osp)
    n = lm.size
    det = lm.det()
    adj = [[int(det * x) for x in row] for row in lm.inverse()]
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


def _sun_prefactor(g: PlumbingGraph, N: int) -> Fraction:
    L = len(g)
    trB = sum(f for _, f in g.vertices)
    rr = Fraction(N * (N * N - 1), 12)
    return -Fraction(3 * L + trB) * rr / 2


def _root_gram(N: int) -> list[list[Fraction]]:
    """Gram matrix of the simple roots (the Cartan matrix for A_{N-1})."""
    r = N - 1
    G = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        G[i][i] = Fraction(2)
        if i + 1 < r:
            G[i][i + 1] = G[i + 1][i] = Fraction(-1)
    return G


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
    labels = []
    for combo in itertools.product(reps, repeat=r):
        # combo[a][v] shifts root coordinate a at vertex v; convert the
        # root-basis shift to fundamental-weight coordinates via the Gram
        G = _root_gram(N)
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
    equal b, in fundamental-weight coordinates G s, at m = 0.
    """
    n, r = lm.size, N - 1
    G = _root_gram(N)
    # G^{-1} is the Gram matrix of the fundamental weights
    Ginv = [[Fraction(min(a, c) * N - a * c, N) for c in range(1, N)]
            for a in range(1, N)]
    Binv = lm.inverse()
    b_root = [[sum(Ginv[a][c] * Fraction(bv[c]) for c in range(r)) for a in range(r)]
              for bv in b]
    A = [[Fraction(0)] * (n * r) for _ in range(n * r)]
    center = [Fraction(0)] * (n * r)
    for v in range(n):
        for a in range(r):
            center[pos[v] * r + a] = sum(Binv[v][w] * b_root[w][a] for w in range(n))
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
    G = [[int(x) for x in row] for row in _root_gram(N)]
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
    pref = _sun_prefactor(g, N)
    bound = 2 * R * max(-lm.B[i][i] for i in range(lm.size))
    factors = [expand(g.degree(vid), N, bound) for vid in g.ids]
    walked, best = _support_walk(lm, b, N, R, factors)
    terms = {pref + q: c for q, c in walked.items()}
    denom = math.lcm(2 * N * abs(lm.det()), pref.denominator, 12,
                     *(e.denominator for e in terms))
    series = QSeries.from_terms(terms, denom=denom, trunc=pref + R)
    return series, None if best is None else pref + best


def _zhat_block_suN(g: PlumbingGraph, b, N: int, order) -> ZhatBlock:
    lm = linking_matrix(g)
    if not is_negative_definite(lm):
        raise ValueError("linking matrix must be negative definite")
    R = Fraction(order)
    series, least = _sun_series(g, lm, b, N, R, _sun_chamber_average)
    if least is None and \
            R <= _lattice_min(*_theta_form(lm, b, N, range(lm.size))):
        raise ValueError("order does not reach past delta_b")
    db = _sun_prefactor(g, N) if least is None else least
    W_size = math.factorial(N)
    return ZhatBlock(tuple(b), db, series, "su3" if N == 3 else f"su{N}",
                     W_size ** lm.size)


def _zhat_all_blocks_suN(g: PlumbingGraph, N: int, order) -> list[ZhatBlock]:
    return [_zhat_block_suN(g, b, N, order) for b in sun_block_labels(g, N)]


# ---------------------------------------------------------------------------
# constant-term oracle


def _series_inverse_tail(poly: dict[int, int], side: str, max_abs: int) -> dict[int, Fraction]:
    """Expansion of 1/poly at x -> infinity ('inf') or x -> 0 ('zero').

    poly is a Laurent polynomial with integer exponents.  The leading term
    on the chosen side is factored out and the rest inverted by a truncated
    Neumann series, a deliberately different route from the closed-form
    binomial coefficients used by the lattice method.
    """
    if side == "inf":
        lead = max(poly)
    else:
        lead = min(poly)
    lc = poly[lead]
    # w = (poly / (lc x^lead)) - 1, supported on the decaying side
    w = {}
    for e, c in poly.items():
        if e == lead:
            continue
        w[e - lead] = Fraction(c, lc)
    out = {0: Fraction(1)}
    term = {0: Fraction(1)}
    span = 2 * max_abs + 2 * abs(lead) + 4
    for _ in range(span):
        nxt: dict[int, Fraction] = {}
        for e1, c1 in term.items():
            for e2, c2 in w.items():
                e = e1 + e2
                if abs(e) > span:
                    continue
                nxt[e] = nxt.get(e, Fraction(0)) - c1 * c2
        term = nxt
        if not term:
            break
        for e, c in term.items():
            out[e] = out.get(e, Fraction(0)) + c
    return {e - lead: Fraction(c, lc) for e, c in out.items()}


def _poly_pow(base: dict[int, int], k: int) -> dict[int, int]:
    out = {0: 1}
    for _ in range(k):
        nxt: dict[int, int] = {}
        for e1, c1 in out.items():
            for e2, c2 in base.items():
                nxt[e1 + e2] = nxt.get(e1 + e2, 0) + c1 * c2
        out = {e: c for e, c in nxt.items() if c != 0}
    return out


def _oracle_vertex_rank1(deg: int, max_abs: int, osp: bool) -> dict[int, Fraction]:
    """Vertex expansion via polynomial powering + Neumann inversion."""
    sign = 1 if osp else -1
    base = {1: 1, -1: sign}  # x + sign/x
    p = 2 - deg
    if p >= 0:
        return {e: Fraction(c) for e, c in _poly_pow(base, p).items()}
    poly = _poly_pow(base, -p)
    up = _series_inverse_tail(poly, "inf", max_abs)
    down = _series_inverse_tail(poly, "zero", max_abs)
    out: dict[int, Fraction] = {}
    for src in (up, down):
        for e, c in src.items():
            if abs(e) <= max_abs:
                out[e] = out.get(e, Fraction(0)) + c / 2
    return {e: c for e, c in out.items() if c != 0}


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
    if variant == "su3":
        return _sun_series(g, lm, b, 3, R, _oracle_vertex_suN)[0]
    pref = _prefactor_exponent(g)
    osp = variant == "osp12"
    # vertex expansions via the independent inversion route; theta
    # contributes z^ell, so the z-degree-zero pairing takes the coefficient
    # of z^{-ell_v} at vertex v
    factors = []
    for idx, vid in enumerate(g.ids):
        fv = -lm.B[idx][idx]
        max_abs = int(math.isqrt(int(4 * R * fv))) + 2
        sup = _oracle_vertex_rank1(g.degree(vid), max_abs, osp)
        factors.append({(-e,): c for e, c in sup.items()})
    walked, _ = _support_walk(lm, [(x,) for x in b], 2, R, factors)
    denom = math.lcm(4 * abs(lm.det()), pref.denominator)
    return QSeries.from_terms({pref + q: c for q, c in walked.items()},
                              denom=denom, trunc=pref + R)


@functools.lru_cache(maxsize=64)
def _oracle_vertex_suN(deg: int, N: int, bound: Fraction) -> dict[tuple, Fraction]:
    """Chamber-averaged Delta^{2-deg} by direct polynomial inversion.

    Cached like _sun_chamber_average; callers must not modify the result.
    """
    W = weyl_group(N)
    rho = weyl_vector(N)
    p = 2 - deg
    # Delta as a polynomial in weight space
    delta_poly: dict[tuple, int] = {}
    for w in W:
        key = _weight_key(weyl_action(w, rho))
        delta_poly[key] = delta_poly.get(key, 0) + w.sign

    def wmul(a: dict, b: dict, hcap=None, hfun=None) -> dict:
        out: dict[tuple, Fraction] = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                wk = WeightVector.make(N, ka) + WeightVector.make(N, kb)
                if hcap is not None and hfun(wk) > hcap:
                    continue
                key = _weight_key(wk)
                out[key] = out.get(key, Fraction(0)) + Fraction(ca) * Fraction(cb)
        return {k: c for k, c in out.items() if c != 0}

    if p >= 0:
        poly = {_weight_key(WeightVector.make(N, [0] * (N - 1))): Fraction(1)}
        for _ in range(p):
            poly = wmul(poly, delta_poly)
        return {
            k: c
            for k, c in poly.items()
            if weight_inner(WeightVector.make(N, k), WeightVector.make(N, k)) <= bound
        }
    k_pow = -p
    rr = weight_inner(rho, rho)
    total: dict[tuple, Fraction] = {}
    for wi in W:
        chamber_rho = weyl_action(wi, rho)

        def height(wk, cr=chamber_rho):
            return -weight_inner(wk, cr)

        hmax = int(math.isqrt(int(math.ceil(float(bound * rr))))) + int(k_pow * rr) + 2
        # Delta^{k} as polynomial, then invert by Neumann series around the
        # chamber-leading monomial of Delta^{k}
        dk: dict[tuple, Fraction] = {_weight_key(WeightVector.make(N, [0] * (N - 1))): Fraction(1)}
        for _ in range(k_pow):
            dk = wmul(dk, delta_poly)
        lead_key = max(
            dk, key=lambda kk: weight_inner(WeightVector.make(N, kk), chamber_rho)
        )
        lead_wt = WeightVector.make(N, lead_key)
        lc = dk[lead_key]
        w_tail: dict[tuple, Fraction] = {}
        for kk, cc in dk.items():
            if kk == lead_key:
                continue
            delta = WeightVector.make(N, kk) - lead_wt
            if height(delta) <= hmax:
                w_tail[_weight_key(delta)] = cc / lc
        inv = {_weight_key(WeightVector.make(N, [0] * (N - 1))): Fraction(1)}
        term = {_weight_key(WeightVector.make(N, [0] * (N - 1))): Fraction(1)}
        while True:
            term = wmul(
                {k2: -c2 for k2, c2 in term.items()}, w_tail, hcap=hmax, hfun=height
            )
            if not term:
                break
            for kk, cc in term.items():
                inv[kk] = inv.get(kk, Fraction(0)) + cc
        for kk, cc in inv.items():
            mu = WeightVector.make(N, kk) - lead_wt
            if weight_inner(mu, mu) <= bound:
                key = _weight_key(mu)
                total[key] = total.get(key, Fraction(0)) + cc / lc
    nW = Fraction(1, len(W))
    return {k: c * nW for k, c in total.items() if c != 0}


def block_to_json(block: ZhatBlock) -> dict:
    from plumbq.qlaurent import qs_to_json

    return {
        "b": [str(x) for x in block.label],
        "delta": str(block.delta_b),
        "normalization": f"1/{block.normalization_denominator}",
        "variant": block.variant,
        "series": qs_to_json(block.series),
    }
