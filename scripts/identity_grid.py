#!/usr/bin/env python3
"""Print a fixed grid of computed values, one line per value.

    python3 scripts/identity_grid.py > grid.txt

The grid is every state sum (su2, so3, osp12 and su(N)/Z_m) on seven
graphs, the GPPV decomposition check (su2, so3, osp12 and su(2)/Z_2) on
four graphs, two Gauss reciprocity checks, the homological blocks of
the four named graphs (su2, so3 and osp12 at order 300; su3 at order 8 on
lens-m5-11 and sigma237, at order 20 on poincare and at order 16 on
sigma237-alt), the state sums at the sizes of the benchmark's
decomposition workload (su2 at level 60, so3 at 40 and su(3)/Z_3 at 6 on
poincare and sigma237), each printed as the CLI prints it, and last the
knots-quivers path: the value count and the sha256 of the JSON of `plumbq
dt` on K(3,-3) at dmax 2, order 16 (in generator order and with its nodes
permuted), on 4_1 at dmax 3, order 40 and on K(2,-2) at dmax 3, order 12,
of `plumbq quiver-series` on K(3,-3) at r = 2, the MMR relative error
on 4_1 at the benchmark's r = 20 and 30 (hbar = 0.4/r, x = e^0.4), and
the sha256 of `plumbq quiver-generate --format json` at m = 1 for p =
1..8, at m = 2 for p = 2..8 and at m = 3 for p = 3, 4: 147 lines.
The script imports plumbq from the `src/` of its own checkout, so running
it in two checkouts and comparing the outputs with `diff` shows every
printed digit that a change moves.  It takes no options and a few seconds.
"""

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from plumbq.catalog import NAMED_GRAPHS, poincare_sphere  # noqa: E402
from plumbq.cli import CACHE_ENV, main as cli_main  # noqa: E402
from plumbq.gppv import (  # noqa: E402
    gauss_reciprocity_check,
    gppv_verify,
    report_to_json,
)
from plumbq.kq import (  # noqa: E402
    generate_double_twist_quiver,
    mmr_leading_check,
    quiver_to_json,
)
from plumbq.plumbing import kirby_neumann_move, lens_chain  # noqa: E402
from plumbq.wrt import (  # noqa: E402
    result_to_json,
    wrt_osp,
    wrt_so3,
    wrt_su2,
    wrt_sun_zm,
)
from plumbq.zhat import block_to_json, zhat_all_blocks  # noqa: E402

GRAPHS = {name: make() for name, make in sorted(NAMED_GRAPHS.items())}
GRAPHS["poincare-up"] = kirby_neumann_move(
    poincare_sphere(),
    {"kind": "blow_up", "sign": -1, "edge": [3, 4], "new_id": 8})
GRAPHS["L(7,2)"] = lens_chain(7, 2)
GRAPHS["L(8,5)"] = lens_chain(8, 5)

STATE_SUMS = [  # (label, function of (graph, level), levels)
    ("su2", wrt_su2, (3, 10)),
    ("so3", wrt_so3, (2, 10)),
    ("osp12", wrt_osp, (1, 3)),
    ("su2_z2", lambda g, k: wrt_sun_zm(g, 2, 2, k), (3,)),
    ("su3_z1", lambda g, k: wrt_sun_zm(g, 3, 1, k), (2,)),
    ("su3_z3", lambda g, k: wrt_sun_zm(g, 3, 3, k), (6,)),
]

DECOMPOSITIONS = [  # (graph, variant, level, order, N, m)
    ("lens-m5-11", "su2", 3, 60, 2, 1),
    ("L(8,5)", "sun-zm", 3, 60, 2, 2),
    ("poincare", "su2", 4, 8000, 2, 1),
    ("lens-m5-11", "so3", 4, 60, 2, 1),
    ("lens-m5-11", "osp12", 2, 60, 2, 1),
    ("sigma237", "so3", 4, 2000, 2, 1),
]

BLOCKS = [  # (variant, order, graphs)
    ("su2", 300, sorted(NAMED_GRAPHS)),
    ("so3", 300, sorted(NAMED_GRAPHS)),
    ("osp12", 300, sorted(NAMED_GRAPHS)),
    ("su3", 8, ["lens-m5-11", "sigma237"]),
    ("su3", 20, ["poincare"]),
    ("su3", 16, ["sigma237-alt"]),
]

BENCH_STATE_SUMS = [  # (label, function of (graph, level), level)
    ("su2", wrt_su2, 60),
    ("so3", wrt_so3, 40),
    ("su3_z3", lambda g, k: wrt_sun_zm(g, 3, 3, k), 6),
]

QUIVER_COMMANDS = [  # (label, quiver, command, options)
    ("K(3,-3)", (3, 3), "dt", ["--dmax", "2", "--order", "16"]),
    ("K(3,-3) permuted", (3, 3), "dt", ["--dmax", "2", "--order", "16"]),
    ("4_1", (1, 1), "dt", ["--dmax", "3", "--order", "40"]),
    ("K(2,-2)", (2, 2), "dt", ["--dmax", "3", "--order", "12"]),
    ("K(3,-3)", (3, 3), "quiver-series", ["--r", "2"]),
]

MMR_COLORS = (20, 30)  # on 4_1 at hbar = 0.4/r and x = e^0.4

GENERATED = [(p, 1) for p in range(1, 9)] + [(p, 2) for p in range(2, 9)] \
    + [(3, 3), (4, 3)]  # the stored m = 3 range and p <= 8 below it

RECIPROCITY = [  # (B, ell, k)
    ([[-2, 1, 0], [1, -3, 1], [0, 1, -5]], [1, 0, -1], 4),
    ([[-1, 1, 1, 1], [1, -2, 0, 0], [1, 0, -3, 0], [1, 0, 0, -7]],
     [0, 1, -1, 2], 3),
]


def line(label: str, payload) -> None:
    print(f"{label}: {json.dumps(payload, sort_keys=True)}")


def permuted(obj: dict) -> dict:
    """The quiver whose node a is node 5a mod n of obj (n = 37 is prime)."""
    n = obj["n"]
    at = [5 * i % n for i in range(n)]
    return {"n": n, "C": [[obj["C"][a][b] for b in at] for a in at],
            "xi": [obj["xi"][a] for a in at],
            "gamma": [obj["gamma"][a] for a in at]}


def quiver_lines() -> None:
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        for label, pm, command, options in QUIVER_COMMANDS:
            obj = quiver_to_json(generate_double_twist_quiver(*pm))
            path = Path(tmp) / "quiver.json"
            path.write_text(json.dumps(
                permuted(obj) if label.endswith("permuted") else obj))
            res = runner.invoke(
                cli_main, [command, "--quiver", str(path), *options,
                           "--format", "json"], env={CACHE_ENV: None})
            payload = json.loads(res.stdout)
            count = len(payload["omega"] if command == "dt"
                        else payload["series"]["terms"])
            line(f"{command} {label} {' '.join(options)}",
                 {"sha256": hashlib.sha256(res.stdout.encode()).hexdigest(),
                  "values": count})
    q41 = generate_double_twist_quiver(1, 1)
    for r in MMR_COLORS:
        line(f"mmr 4_1 r={r}",
             mmr_leading_check(q41, 0.4 / r, math.exp(0.4), r))
    for p, m in GENERATED:
        res = runner.invoke(cli_main, ["quiver-generate", "--p", str(p),
                                       "--m", str(m), "--format", "json"])
        line(f"quiver-generate --p {p} --m {m}",
             {"sha256": hashlib.sha256(res.stdout.encode()).hexdigest()})


def main() -> None:
    for label, f, levels in STATE_SUMS:
        for name, g in GRAPHS.items():
            for k in levels:
                line(f"wrt {label} {name} {k}", result_to_json(f(g, k)))
    for name, variant, level, order, N, m in DECOMPOSITIONS:
        rep = gppv_verify(GRAPHS[name], variant, level, order, N=N, m=m)
        line(f"gppv {variant} {name} {level} order {order}",
             report_to_json(rep))
    for B, ell, k in RECIPROCITY:
        line(f"reciprocity B={B} ell={ell} k={k}",
             gauss_reciprocity_check(B, ell, k))
    for variant, order, names in BLOCKS:
        for name in names:
            for block in zhat_all_blocks(GRAPHS[name], variant, order):
                line(f"zhat {variant} {name} order {order}",
                     block_to_json(block))
    for label, f, k in BENCH_STATE_SUMS:
        for name in ("poincare", "sigma237"):
            line(f"wrt {label} {name} {k}", result_to_json(f(GRAPHS[name], k)))
    quiver_lines()


if __name__ == "__main__":
    main()
