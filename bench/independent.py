"""Computations the benchmark makes apart from the program, stdlib only.

Input generators (random trees, relabelings, blow-ups, node permutations)
and the references the checks compare against: the published false-theta
forms of two Brieskorn-sphere blocks, the q -> -q flip, and the product
form of the motivic series re-multiplied with plain integer arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# plumbing graphs as (framings, edges) with vertex ids 0..L-1


def det(matrix) -> int:
    """Determinant by exact Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    out = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if a[r][i] != 0), None)
        if piv is None:
            return 0
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            out = -out
        out *= a[i][i]
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            for c in range(i, n):
                a[r][c] -= f * a[i][c]
    return int(out)


def linking(framings, edges):
    n = len(framings)
    B = [[0] * n for _ in range(n)]
    for i, f in enumerate(framings):
        B[i][i] = f
    for a, b in edges:
        B[a][b] = B[b][a] = 1
    return B


def random_tree(rng, size: int, max_det: int):
    """Random tree on `size` vertices with framings -(deg + 1..3).

    Strict diagonal dominance with a negative diagonal makes the linking
    matrix negative definite; draws repeat until |det B| <= max_det.
    """
    while True:
        edges = [(rng.randrange(i + 1), i + 1) for i in range(size - 1)]
        deg = [0] * size
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        framings = [-(deg[i] + rng.randint(1, 3)) for i in range(size)]
        if abs(det(linking(framings, edges))) <= max_det:
            return framings, edges


def blow_up_edge(framings, edges, edge):
    """(-1) blow-up of an edge: a new -1 vertex subdivides it and both
    endpoints lose one from their framing."""
    a, b = edge
    fr = list(framings)
    fr[a] -= 1
    fr[b] -= 1
    fr.append(-1)
    new = len(fr) - 1
    rest = [e for e in edges if set(e) != {a, b}]
    return fr, rest + [(a, new), (b, new)]


def lens_chain(p: int, q: int):
    """Framings of the chain for L(p, q): the all-minus continued fraction
    of p/q."""
    out = []
    while q > 0:
        a = -(-p // q)
        out.append(-a)
        p, q = q, a * q - p
    return out


def graph_json(framings, edges, rng):
    """Graph JSON with vertex ids shuffled and listed in shuffled order."""
    n = len(framings)
    ids = rng.sample(range(n), n)
    order = rng.sample(range(n), n)
    return {
        "vertices": [{"id": ids[v], "framing": framings[v]} for v in order],
        "edges": [sorted((ids[a], ids[b])) for a, b in edges],
    }


POINCARE = ([-2] * 8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)])
SIGMA237 = ([-1, -2, -3, -7], [(0, 1), (0, 2), (0, 3)])


# ---------------------------------------------------------------------------
# q-series as {Fraction exponent: Fraction coefficient}


def parse_series(obj):
    """(terms, trunc) from the program's series JSON."""
    terms = {Fraction(e): Fraction(c) for e, c in obj["terms"]}
    trunc = None if obj["trunc"] is None else Fraction(obj["trunc"])
    return terms, trunc


def false_theta(offset, modulus, signs, const, trunc):
    """q^offset (const + sum_n chi(n) q^((n^2 - 1) / 2 modulus)) below trunc,
    where chi(n) = signs.get(n mod modulus, 0)."""
    out = {}
    n = 1
    while offset + Fraction(n * n - 1, 2 * modulus) < trunc:
        s = signs.get(n % modulus, 0)
        if s:
            e = offset + Fraction(n * n - 1, 2 * modulus)
            out[e] = out.get(e, 0) + s
        n += 1
    if const:
        out[Fraction(offset)] = out.get(Fraction(offset), 0) + const
    return {e: Fraction(c) for e, c in out.items() if c}


def poincare_block(trunc):
    """Poincare sphere: q^(-3/2) (2 - sum psi_60(n) q^((n^2-1)/120))."""
    signs = {r: -1 for r in (1, 11, 19, 29)}
    signs.update({r: 1 for r in (31, 41, 49, 59)})
    return false_theta(Fraction(-3, 2), 60, signs, 2, trunc)


def sigma237_block(trunc):
    """Sigma(2,3,7): q^(1/2) sum chi_84(n) q^((n^2-1)/168)."""
    signs = {r: 1 for r in (1, 41, 55, 71)}
    signs.update({r: -1 for r in (13, 29, 43, 83)})
    return false_theta(Fraction(1, 2), 84, signs, 0, trunc)


def flip(terms, offset):
    """q -> -q on the part past the prefactor q^offset."""
    out = {}
    for e, c in terms.items():
        k = e - offset
        if k.denominator != 1:
            raise ValueError(f"exponent {e} is not offset {offset} + integer")
        out[e] = c if k.numerator % 2 == 0 else -c
    return out


def symmetric(terms) -> bool:
    """Invariance under q <-> 1/q."""
    return all(terms.get(-e) == c for e, c in terms.items())


# ---------------------------------------------------------------------------
# quivers


def permute_quiver(obj, perm):
    """Quiver JSON with node i renamed perm[i]."""
    n = obj["n"]
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    out = {"n": n, "C": [[obj["C"][inv[a]][inv[b]] for b in range(n)]
                         for a in range(n)]}
    for key in ("xi", "gamma", "alpha", "beta"):
        if key in obj:
            out[key] = [obj[key][inv[a]] for a in range(n)]
    return out


def _mul(a, b, cap):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e < cap:
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _inv_poch_q2(k, cap):
    """1 / (q^2; q^2)_k as {exponent: int} below cap (cap >= 0)."""
    out = {0: 1}
    for i in range(1, k + 1):
        geo = {2 * i * t: 1 for t in range(cap // (2 * i) + 1)}
        out = _mul(out, geo, cap)
    return out


def compositions_upto(n, dmax):
    def rec(total, k):
        if k == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in rec(total - head, k - 1):
                yield (head,) + rest
    for total in range(1, dmax + 1):
        yield from rec(total, n)


def motivic(obj, d, cap):
    """Coefficient of x^d of the motivic series in the DT convention:
    (-1)^(dCd + gamma.d) q^(dCd + (xi-1).d) / prod (q^2;q^2)_(d_i)."""
    C, xi, gamma = obj["C"], obj["xi"], obj["gamma"]
    n = len(d)
    quad = sum(d[i] * C[i][j] * d[j] for i in range(n) for j in range(n))
    sign = -1 if (quad + sum(g * x for g, x in zip(gamma, d))) % 2 else 1
    shift = quad + sum((x - 1) * di for x, di in zip(xi, d))
    room = cap - shift
    if room <= 0:
        return {}
    acc = {0: sign}
    for di in d:
        if di:
            acc = _mul(acc, _inv_poch_q2(di, room), room)
    return {e + shift: c for e, c in acc.items()}


def binom(a, t):
    """Binomial coefficient C(a, t) for any integer a."""
    return math.comb(a, t) if a >= 0 else (-1) ** t * math.comb(t - a - 1, t)


def remultiply(omega, n, dmax, cap):
    """x-graded coefficients of prod_(d,j) ((-1)^j x^d q^(j+1); q^2)^-Omega,
    keeping x-degree <= dmax and q-exponents below cap."""
    acc = {(0,) * n: {0: 1}}
    for (dvec, j), om in sorted(omega.items()):
        sgn = -1 if j % 2 else 1
        step = sum(dvec)
        tmax = dmax // step
        # (1 - sgn y)^(-om) = sum_t binom(-om, t) (-sgn y)^t
        coeffs = [binom(-om, t) * (-sgn) ** t for t in range(tmax + 1)]
        k = 0
        while j + 1 + 2 * k < cap:
            e0 = j + 1 + 2 * k
            out = {}
            for d0, s0 in acc.items():
                room = (dmax - sum(d0)) // step
                for t in range(min(tmax, room) + 1):
                    c = coeffs[t]
                    if not c:
                        continue
                    d = tuple(a + t * b for a, b in zip(d0, dvec))
                    tgt = out.setdefault(d, {})
                    for e, v in s0.items():
                        ee = e + t * e0
                        if ee < cap:
                            tgt[ee] = tgt.get(ee, 0) + c * v
            acc = {d: {e: v for e, v in s.items() if v} for d, s in out.items()}
            k += 1
    return acc
