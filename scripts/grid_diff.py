#!/usr/bin/env python3
"""Compare two outputs of scripts/identity_grid.py value by value.

    python3 scripts/grid_diff.py old.txt new.txt

For every line that moved, prints each JSON field that differs.  A value
part ("re", "im") that moved is classed as noise when it is at or below
the printed value's error bound 10^-(dps+10) max(1, |value|) on both
sides, and as a digit change otherwise; every other field ("residual",
the reciprocity residuals) is listed with both readings.  Exits 1 when a
digit moved or the two files differ in their line labels.
"""

import json
import sys
from decimal import Decimal, getcontext
from pathlib import Path


def fields(line: str):
    label, _, payload = line.partition(": ")
    return label, json.loads(payload)


def values(obj, prefix=""):
    """(path, value) of every printed complex value {"re", "im"} in obj."""
    if {"re", "im"} <= obj.keys():
        yield prefix, obj
    for key, sub in obj.items():
        if isinstance(sub, dict):
            yield from values(sub, f"{prefix}{key}.")


def main(old_path: str, new_path: str) -> int:
    getcontext().prec = 200
    bad = 0
    old_lines = Path(old_path).read_text().splitlines()
    new_lines = Path(new_path).read_text().splitlines()
    if len(old_lines) != len(new_lines):
        print(f"line counts differ: {len(old_lines)} against {len(new_lines)}")
        return 1
    for number, (a, b) in enumerate(zip(old_lines, new_lines), 1):
        if a == b:
            continue
        (label_a, old), (label_b, new) = fields(a), fields(b)
        if label_a != label_b:
            print(f"line {number}: labels differ: {label_a!r} {label_b!r}")
            bad += 1
            continue
        print(f"line {number}: {label_a}")
        dps = old.get("dps", new.get("dps"))
        olds = dict((path, v) for path, v in values(old))
        for path, v in values(new):
            u = olds[path]
            size = max(1, max(abs(Decimal(x[k])) for x in (u, v) for k in ("re", "im")))
            bound = Decimal(10) ** -(dps + 10) * size
            for k in ("re", "im"):
                if u[k] != v[k]:
                    noise = abs(Decimal(u[k])) <= bound and abs(Decimal(v[k])) <= bound
                    bad += not noise
                    print(f"  {path}{k}: {u[k]} -> {v[k]} "
                          f"({'noise, bound' if noise else 'DIGIT MOVED, bound'} {bound:.1e})")
        for key in sorted(old.keys() | new.keys()):
            if not isinstance(old.get(key), dict) and key not in ("re", "im") \
                    and old.get(key) != new.get(key):
                print(f"  {key}: {old.get(key)} -> {new.get(key)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
