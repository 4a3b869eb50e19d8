#!/usr/bin/env python3
"""Generate a double twist quiver and tabulate its low-degree product
exponents.

    python3 scripts/quiver_dt_table.py --p 1 --m 1 --dmax 2
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from plumbq.kq import dt_invariants, generate_double_twist_quiver  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=1)
    ap.add_argument("--m", type=int, default=1)
    ap.add_argument("--dmax", type=int, default=2)
    ap.add_argument("--order", type=int, default=30)
    args = ap.parse_args()

    q = generate_double_twist_quiver(args.p, args.m)
    print(f"K({args.p},-{args.m}) quiver: {q.n} nodes")
    inv = dt_invariants(q, args.dmax, args.order)
    by_total = {}
    for (d, j), v in inv.nonzero().items():
        by_total.setdefault(sum(d), []).append((d, j, v))
    for total in sorted(by_total):
        print(f"|d| = {total}: {len(by_total[total])} nonzero exponents")
        for d, j, v in sorted(by_total[total])[:12]:
            print(f"    Omega[{d}, {j}] = {v}")
        if len(by_total[total]) > 12:
            print("    ...")


if __name__ == "__main__":
    main()
