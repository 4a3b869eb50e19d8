#!/usr/bin/env python3
"""Print the homological block series of the bundled example manifolds.

The script imports plumbq from the `src/` of its own checkout:

    python3 scripts/block_series_demo.py --order 60
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from plumbq.catalog import NAMED_GRAPHS  # noqa: E402
from plumbq.zhat import zhat_all_blocks  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=60)
    ap.add_argument("--variants", nargs="+",
                    default=["su2", "osp12"],
                    choices=["su2", "so3", "osp12", "su3"])
    args = ap.parse_args()

    for name, factory in sorted(NAMED_GRAPHS.items()):
        g = factory()
        print(f"== {name} ({len(g)} vertices) ==")
        for variant in args.variants:
            for b in zhat_all_blocks(g, variant, args.order):
                print(f"  {variant:6s} b={b.label} delta={b.delta_b}")
                print(f"         {b.series}")
        print()


if __name__ == "__main__":
    main()
