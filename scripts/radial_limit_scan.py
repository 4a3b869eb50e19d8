#!/usr/bin/env python3
"""Scan the residual between the state sum and the block decomposition
over a range of levels, for a named graph.

    python3 scripts/radial_limit_scan.py --graph poincare --levels 3 4 5

A level the group rejects (an odd SO(3) level, say) prints one
`level K: error: ...` line and the scan goes on; the script then exits
with code 3.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from plumbq.catalog import NAMED_GRAPHS  # noqa: E402
from plumbq.gppv import gppv_verify  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graph", default="poincare",
                    choices=sorted(NAMED_GRAPHS))
    ap.add_argument("--group", default="su2",
                    choices=["su2", "so3", "osp12"])
    ap.add_argument("--levels", type=int, nargs="+", default=[3, 4, 5])
    ap.add_argument("--order", type=int, default=8000)
    args = ap.parse_args()

    g = NAMED_GRAPHS[args.graph]()
    rejected = False
    for k in args.levels:
        try:
            rep = gppv_verify(g, args.group, k, args.order)
        except ValueError as exc:
            print(f"level {k}: error: {exc}")
            rejected = True
            continue
        print(f"level {k:2d} root order {rep.root_order:3d}  "
              f"state sum {complex(rep.wrt_value):.10g}  "
              f"residual {rep.residual:.3e}")
    if rejected:
        sys.exit(3)


if __name__ == "__main__":
    main()
