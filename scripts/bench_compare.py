"""Compare two benchmark trajectory files, metric by metric.

    python3 scripts/bench_compare.py OLD NEW

OLD and NEW are BENCH_*.json files.  Each holds, under "runs", the final
JSON line of `python3 bench/run.py --workload W --seed S --seconds 30
--trace 0` for every workload and seed, next to the machine speed, the
Python version, the CPU count and the git sha it was measured at.

For every (workload, seed) run in both files the script prints each
metric's old and new value and their ratio new/old.  It flags a run that
is not correct, a change in the share of operations that failed (the raw
`failed` count grows with the number of passes, which depends on speed),
and an end-to-end metric that is worse than the old value by more than
its bound in BENCHMARK.json.  It exits 1 when anything is flagged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _runs(doc: dict) -> dict:
    return {(r["workload"], r["seed"]): r["result"] for r in doc["runs"]}


def _worse(value: float, base: float, better: str) -> float:
    """Relative worsening of value against base (negative when better)."""
    if base == 0:
        return 0.0
    change = (value - base) / base
    return change if better == "lower" else -change


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    old_doc, new_doc = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    for key in ("git_sha", "python", "cpu_count", "machine_speed"):
        print(f"{key}: {old_doc.get(key)} -> {new_doc.get(key)}")
    old, new = _runs(old_doc), _runs(new_doc)
    flags = []
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        name = f"{key[0]} seed {key[1]}"
        print(f"\n{name}: correct {a['correct']} -> {b['correct']}; "
              f"failed {a['failed']}/{a['attempted']} -> "
              f"{b['failed']}/{b['attempted']}")
        if not b["correct"]:
            flags.append(f"{name}: correct is false")
        if a["failed"] * b["attempted"] != b["failed"] * a["attempted"]:
            flags.append(f"{name}: failed share changed")
        for metric in sorted(a["metrics"].keys() & b["metrics"].keys()):
            va, vb = a["metrics"][metric]["value"], b["metrics"][metric]["value"]
            ratio = f"x{vb / va:.3f}" if va else "-"
            line = f"  {metric:14s} {va:10.4g} -> {vb:10.4g}  {ratio}"
            if metric in bounds:
                bound, better = bounds[metric]
                worse = _worse(vb, va, better)
                line += f"  (bound {bound:g})"
                if worse > bound:
                    flags.append(f"{name}: {metric} worse by {worse:.1%}, "
                                 f"beyond its bound {bound:g}")
            print(line)
    for key in sorted(old.keys() ^ new.keys()):
        flags.append(f"{key[0]} seed {key[1]}: in one file only")
    print()
    for f in flags:
        print(f"FLAG {f}")
    print(f"{len(flags)} flagged")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
