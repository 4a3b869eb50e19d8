"""The three workloads: seeded inputs, one pass of operations, and checks.

An operation is one `plumbq` command run in-process through
`plumbq.cli.main`, or one call to a public library function where no
command exists.  Each workload builds its inputs from the seed (set-up),
runs its operations (the timed pass), then checks the outputs against
computations made apart from the program or against properties the method
must have.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import independent as ind
from tracer import ROOT

# Operations that fail today because of a named program fault.  Their check
# marks them failed instead of marking the run incorrect; once the fault is
# mended they pass and `failed` drops.
OSP_KIRBY_FAULT = ("wrt_osp is not invariant under a (-1) blow-up: "
                   "Sigma(2,3,7) and its five-vertex presentation differ")
OSP_GPPV_FAULT = ("gppv-check on an OSp(1|2) lens space exits 1 "
                  "(residual about 0.45)")
KNOWN_FAULTS = {"wrt sigma237-alt osp12": OSP_KIRBY_FAULT,
                "gppv lens-m5-11 osp12": OSP_GPPV_FAULT}


class Pass:
    """Runs operations, counting attempts and failures; outputs by name."""

    def __init__(self, cli_main, tracer=None):
        self.cli_main = cli_main
        self.tracer = tracer
        self.attempted = 0
        self.failed = {}
        self.out = {}

    def _run(self, name, layer, fn):
        if self.tracer is None:
            return fn()
        return self.tracer.run_op(name, layer, fn)

    def cli(self, name, *argv):
        """One command; JSON output is parsed.  Fails on a nonzero exit."""
        self.attempted += 1
        argv = [str(a) for a in argv]

        def invoke():
            out, err = io.StringIO(), io.StringIO()
            code = 0
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    self.cli_main.main(args=argv, prog_name="plumbq",
                                       standalone_mode=False)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        try:
            code, out, err = self._run(name, "cli", invoke)
        except Exception as exc:  # a crash inside the command is a failure
            self.failed[name] = f"raised {exc!r}"
            return None
        if code not in (0, None):
            self.failed[name] = f"exit {code}: {' '.join((err or out).split())}"
            return None
        result = json.loads(out) if "json" in argv else out
        self.out[name] = result
        return result

    def call(self, name, fn, *args):
        """One library call.  Fails when it raises."""
        self.attempted += 1
        try:
            result = self._run(name, ROOT, lambda: fn(*args))
        except Exception as exc:
            self.failed[name] = f"raised {exc!r}"
            return None
        self.out[name] = result
        return result

    def ok(self, *names):
        return all(n in self.out and n not in self.failed for n in names)


class Checks:
    """Collects failed checks; a check on a known-fault operation marks
    that operation failed instead."""

    def __init__(self, p: Pass):
        self.p = p
        self.failures = []
        self.count = 0

    def expect(self, name, ok, detail="", fault_op=None):
        self.count += 1
        if ok:
            return
        if fault_op is not None:
            self.p.failed[fault_op] = f"known fault: {detail}"
        else:
            self.failures.append(f"{name}: {detail}"[:400])


def _write(workdir: Path, name: str, obj) -> str:
    path = workdir / name
    path.write_text(json.dumps(obj))
    return str(path)


def _terms(series) -> dict:
    """{exponent: coefficient} of a program QSeries."""
    return dict(series.terms)


def _label(text: str):
    """A block label printed by the CLI: an integer or a tuple of Fractions."""
    fr = re.findall(r"Fraction\((-?\d+), (-?\d+)\)", text)
    if fr:
        return tuple(Fraction(int(a), int(b)) for a, b in fr)
    return int(text)


# ---------------------------------------------------------------------------
# blocks


class Blocks:
    """Many small-order blocks with their constant-term oracle, su(3) blocks
    with theirs, and three spheres at high order."""

    name = "blocks"
    TREE_ORDER = 40
    STAR_ORDER = 16
    SU3_ORDER = 14
    SPHERE_ORDER = 300

    def __init__(self, seed: int, workdir: Path, lib):
        rng = random.Random(f"blocks-{seed}")
        self.lib = lib
        self.trees = []  # (key, path, PlumbingGraph, order)
        shapes = [(2, 30)] * 3 + [(3, 30)] * 3
        for i, (size, max_det) in enumerate(shapes):
            fr, edges = ind.random_tree(rng, size, max_det)
            self._add(workdir, rng, f"tree{i}", fr, edges, self.TREE_ORDER)
        self._add(workdir, rng, "star", [-4, -2, -2, -2],
                  [(0, 1), (0, 2), (0, 3)], self.STAR_ORDER)
        obj = ind.graph_json([-2, -3], [(0, 1)], rng)
        self.su3 = (_write(workdir, "su3.json", obj),
                    lib.graph_from_json(obj))
        alt = ind.blow_up_edge(*ind.SIGMA237, (0, 1))
        self.spheres = {
            name: _write(workdir, f"{name}.json", ind.graph_json(*g, rng))
            for name, g in (("poincare", ind.POINCARE),
                            ("sigma237", ind.SIGMA237),
                            ("sigma237-alt", alt))}

    def _add(self, workdir, rng, key, framings, edges, order):
        obj = ind.graph_json(framings, edges, rng)
        path = _write(workdir, f"{key}.json", obj)
        self.trees.append((key, path, self.lib.graph_from_json(obj), order))

    def run(self, p: Pass):
        oracle = self.lib.constant_term_oracle
        for key, path, g, order in self.trees:
            for group in ("su2", "so3", "osp12"):
                res = p.cli(f"zhat {key} {group}", "zhat", "--graph", path,
                            "--group", group, "--order", order,
                            "--format", "json")
                if res is None or group == "so3":
                    continue
                for blk in res["blocks"]:
                    b = tuple(_label(x) for x in blk["b"])
                    p.call(f"oracle {key} {group} {b}", oracle,
                           g, b, group, order)
        path, g = self.su3
        res = p.cli("zhat su3", "zhat", "--graph", path, "--group", "su3",
                    "--order", self.SU3_ORDER, "--format", "json")
        for blk in res["blocks"] if res else ():
            b = tuple(_label(x) for x in blk["b"])
            p.call(f"oracle su3 {blk['b']}", oracle, g, b, "su3",
                   self.SU3_ORDER)
        for name, path in self.spheres.items():
            p.cli(f"zhat {name}", "zhat", "--graph", path, "--group", "su2",
                  "--order", self.SPHERE_ORDER, "--format", "json")

    def check(self, p: Pass, c: Checks):
        def blocks(op):
            return [(tuple(blk["b"]), Fraction(blk["delta"]),
                     ind.parse_series(blk["series"])[0])
                    for blk in p.out[op]["blocks"]]

        for key, _, _, _ in self.trees:
            ops = [f"zhat {key} {g}" for g in ("su2", "so3", "osp12")]
            if not p.ok(*ops):
                continue
            su2, so3, osp = (blocks(op) for op in ops)
            c.expect(f"{key}: SO(3) blocks equal SU(2) blocks", su2 == so3)
            for (bs, _, ts), (bo, do, to) in zip(su2, osp):
                flipped = ind.flip(to, do)
                neg = {e: -v for e, v in ts.items()}
                c.expect(f"{key} {bs}: OSp flipped q->-q is +-SU(2)",
                         bs == bo and flipped in (ts, neg))
            for group, listed in (("su2", su2), ("osp12", osp)):
                for label, _, terms in listed:
                    b = tuple(_label(x) for x in label)
                    op = f"oracle {key} {group} {b}"
                    if p.ok(op):
                        c.expect(f"{op} equals the lattice block",
                                 _terms(p.out[op]) == terms)
        if p.ok("zhat su3"):
            for label, _, terms in blocks("zhat su3"):
                op = f"oracle su3 {list(label)}"
                if p.ok(op):
                    c.expect(f"{op} equals the lattice block",
                             _terms(p.out[op]) == terms)
        if p.ok("zhat sigma237", "zhat sigma237-alt"):
            a, b = (blocks(f"zhat {g}") for g in ("sigma237", "sigma237-alt"))
            c.expect("Sigma(2,3,7) presentations give identical blocks",
                     [x[1:] for x in a] == [x[1:] for x in b])
        for name, published in (("poincare", ind.poincare_block),
                                ("sigma237", ind.sigma237_block)):
            if p.ok(f"zhat {name}"):
                (blk,) = p.out[f"zhat {name}"]["blocks"]
                terms, trunc = ind.parse_series(blk["series"])
                want = published(trunc)
                c.expect(f"{name} block matches the published series "
                         f"({len(want)} terms)", terms == want,
                         f"got {len(terms)} terms")


# ---------------------------------------------------------------------------
# decomposition


class Decomposition:
    """Root-of-unity state sums on Kirby-equivalent pairs, Gauss
    reciprocity, and the block decomposition checked against the state
    sum."""

    name = "decomposition"
    KIRBY = [  # (label, extra CLI arguments, pairs it runs on)
        ("su2", ("--group", "su2", "--level", 60), 2),
        ("so3", ("--group", "so3", "--level", 40), 2),
        ("su3z3", ("--group", "sun-zm", "--rank-n", 3, "--subgroup-m", 3,
                   "--level", 6), 1),
    ]
    # two-vertex chains: the sun-zm check costs seconds on longer ones
    LENSES = [(5, 3), (7, 2), (8, 3), (9, 2), (11, 2), (11, 3)]

    def __init__(self, seed: int, workdir: Path, lib):
        rng = random.Random(f"decomposition-{seed}")
        s237_alt = ind.blow_up_edge(*ind.SIGMA237, (0, 1))
        edge = rng.choice(ind.POINCARE[1])
        p_up = ind.blow_up_edge(*ind.POINCARE, edge)
        graphs = {"sigma237": ind.SIGMA237, "sigma237-alt": s237_alt,
                  "poincare": ind.POINCARE, "poincare-up": p_up}
        self.paths = {name: _write(workdir, f"{name}.json",
                                   ind.graph_json(*g, rng))
                      for name, g in graphs.items()}
        self.pairs = [("sigma237", "sigma237-alt"),
                      ("poincare", "poincare-up")]
        p, q = rng.choice(self.LENSES)
        chain = ind.lens_chain(p, q)
        self.lens = _write(workdir, "lens.json", ind.graph_json(
            chain, [(i, i + 1) for i in range(len(chain) - 1)], rng))
        self.reciprocity = []
        for size, k in ((3, 6), (4, 3)):
            while True:
                fr, edges = ind.random_tree(rng, size, 60)
                if abs(ind.det(ind.linking(fr, edges))) >= 20:
                    break
            ell = [rng.randint(-3, 3) for _ in range(size)]
            self.reciprocity.append(
                (f"reciprocity L={size} k={k}", ind.linking(fr, edges), ell,
                 k))
        self.lib = lib

    def run(self, p: Pass):
        for label, extra, npairs in self.KIRBY:
            for a, b in self.pairs[:npairs]:
                for g in (a, b):
                    p.cli(f"wrt {g} {label}", "wrt", "--graph",
                          self.paths[g], *extra, "--format", "json")
        for g in ("sigma237", "sigma237-alt"):  # named, seed-independent
            p.cli(f"wrt {g} osp12", "wrt", "--graph", g, "--group", "osp12",
                  "--level", 3, "--format", "json")
        for name, B, ell, k in self.reciprocity:
            p.call(name, self.lib.gauss_reciprocity_check, B, ell, k)
        for g, level in (("poincare", 4), ("sigma237", 2), ("sigma237", 4)):
            p.cli(f"gppv {g} su2 {level}", "gppv-check", "--graph",
                  self.paths[g], "--level", level, "--order", 8000,
                  "--format", "json")
        for label, extra in (("su2", ("--group", "su2", "--level", 3)),
                             ("so3", ("--group", "so3", "--level", 4)),
                             ("sun-zm", ("--group", "sun-zm", "--rank-n", 2,
                                         "--subgroup-m", 2, "--level", 3))):
            p.cli(f"gppv lens {label}", "gppv-check", "--graph", self.lens,
                  *extra, "--order", 60, "--format", "json")
        p.cli("gppv lens-m5-11 osp12", "gppv-check", "--graph", "lens-m5-11",
              "--group", "osp12", "--level", 2, "--order", 60,
              "--format", "json")

    def check(self, p: Pass, c: Checks):
        def value(op):
            out = p.out[op]
            return Decimal(out["re"]), Decimal(out["im"])

        pairs = [(f"wrt {a} {label}", f"wrt {b} {label}")
                 for label, _, npairs in self.KIRBY
                 for a, b in self.pairs[:npairs]]
        pairs.append(("wrt sigma237 osp12", "wrt sigma237-alt osp12"))
        for op_a, op_b in pairs:
            if not p.ok(op_a, op_b):
                continue
            (ra, ia), (rb, ib) = value(op_a), value(op_b)
            diff = max(abs(ra - rb), abs(ia - ib))
            fault = op_b if op_b.endswith("osp12") else None
            c.expect(f"{op_a} agrees with {op_b} to 1e-9",
                     diff < Decimal("1e-9"),
                     f"{OSP_KIRBY_FAULT if fault else 'differ'} by {diff:.3g}",
                     fault_op=fault)
        for name, _, _, _ in self.reciprocity:
            if p.ok(name):
                res = p.out[name]
                c.expect(f"{name} residuals below 1e-9",
                         res["even"] < 1e-9 and res["odd"] < 1e-9, str(res))
        for op in p.out:
            if op.startswith("gppv ") and p.ok(op):
                res = p.out[op]
                c.expect(f"{op} residual below its tol",
                         res["pass"] and res["residual"] < res["tol"],
                         f"residual {res['residual']}")


# ---------------------------------------------------------------------------
# quivers


class Quivers:
    """Quiver generation, motivic series, DT invariants and the
    semiclassical check on node-permuted double twist quivers."""

    name = "quivers"
    STORED = [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (3, 3)]
    DT = {"K33": (2, 16), "41": (2, 36)}  # dmax, order
    MMR = (20, 30)
    REMULTIPLY_SLACK = 16

    def __init__(self, seed: int, workdir: Path, lib):
        rng = random.Random(f"quivers-{seed}")
        self.lib = lib
        self.workdir = workdir
        self.quivers = {}
        self.paths = {}
        for key, pm in (("41", (1, 1)), ("83", (2, 2)), ("K33", (3, 3))):
            base = lib.quiver_to_json(lib.generate_double_twist_quiver(*pm))
            obj = ind.permute_quiver(base, rng.sample(range(base["n"]),
                                                      base["n"]))
            self.quivers[key] = obj
            self.paths[key] = _write(workdir, f"q{key}.json", obj)
        self.q41 = lib.quiver_from_json(self.quivers["41"])

    def run(self, p: Pass):
        for pp, m in self.STORED:
            p.cli(f"generate {pp},{m}", "quiver-generate", "--p", pp,
                  "--m", m, "--out", self.workdir / f"gen-{pp}-{m}.json",
                  "--format", "json")
        for key, rs in (("K33", (2,)), ("83", range(4)), ("41", range(1, 6))):
            for r in rs:
                p.cli(f"series {key} r={r}", "quiver-series", "--quiver",
                      self.paths[key], "--r", r, "--format", "json")
        for key, (dmax, order) in self.DT.items():
            p.cli(f"dt {key}", "dt", "--quiver", self.paths[key], "--dmax",
                  dmax, "--order", order, "--format", "json")
        for r in self.MMR:
            p.call(f"mmr r={r}", self.lib.mmr_leading_check, self.q41,
                   0.4 / r, math.exp(0.4), r)

    def check(self, p: Pass, c: Checks):
        lib = self.lib
        for pp, m in self.STORED:
            if p.ok(f"generate {pp},{m}"):
                q = p.out[f"generate {pp},{m}"]
                C = q["C"]
                c.expect(f"quiver {pp},{m} has 4pm+1 nodes and symmetric C",
                         q["n"] == 4 * pp * m + 1 == len(C) and all(
                             C[i][j] == C[j][i] for i in range(q["n"])
                             for j in range(q["n"])))
        oracles = {"83": lambda r: lib.nested_sum_jones_83(r),
                   "41": lambda r: lib.closed_form_homfly("4_1", r, 2, 2)}
        for op in [o for o in p.out if o.startswith("series ")]:
            if not p.ok(op):
                continue
            key, r = op.split()[1], int(op.split("r=")[1])
            terms = ind.parse_series(p.out[op]["series"])[0]
            c.expect(f"{op} symmetric under q <-> 1/q", ind.symmetric(terms))
            if key in oracles:
                c.expect(f"{op} matches its closed-form oracle",
                         terms == _terms(oracles[key](r)))
        for key in self.DT:
            if p.ok(f"dt {key}"):
                om = p.out[f"dt {key}"]["omega"]
                c.expect(f"dt {key} invariants are integers", om and all(
                    type(o["value"]) is int for o in om))
        if p.ok("dt 41"):
            self._check_product(p.out["dt 41"], c)
        if p.ok(*(f"mmr r={r}" for r in self.MMR)):
            errs = [p.out[f"mmr r={r}"] for r in self.MMR]
            c.expect("MMR relative error below 0.10 and decreasing in r",
                     errs[0] < 0.10 and errs[1] < errs[0], str(errs))

    def _check_product(self, out, c: Checks):
        """Re-multiply the 4_1 product form and compare with the motivic
        series, both with the benchmark's own integer arithmetic."""
        dmax, order = self.DT["41"]
        q = self.quivers["41"]
        slack = self.REMULTIPLY_SLACK
        omega = {(tuple(o["d"]), o["j"]): o["value"] for o in out["omega"]}
        prod = ind.remultiply(omega, q["n"], dmax, order + slack)
        margin = order - 2 - slack
        bad = []
        for d in ind.compositions_upto(q["n"], dmax):
            want = ind.motivic(q, d, margin)
            got = {e: v for e, v in prod.get(d, {}).items() if e < margin}
            if want != got:
                bad.append(d)
        c.expect("4_1 product form re-multiplies to the motivic series",
                 not bad, f"differs at {bad[:3]}")


WORKLOADS = {w.name: w for w in (Blocks, Decomposition, Quivers)}
