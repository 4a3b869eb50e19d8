"""The identity grid (scripts/identity_grid.py) prints every digit it did
when tests/data/identity_grid.txt was written.

A change that means to move a printed digit regenerates the file with

    python3 scripts/identity_grid.py > tests/data/identity_grid.txt

and says which lines moved and why.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_identity_grid_is_byte_identical():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "identity_grid.py")],
        capture_output=True, env=env, cwd=ROOT, timeout=300)
    assert res.returncode == 0, res.stderr.decode()
    want = (ROOT / "tests" / "data" / "identity_grid.txt").read_bytes()
    got = res.stdout.splitlines(keepends=True)
    for i, (a, b) in enumerate(zip(got, want.splitlines(keepends=True))):
        assert a == b, f"line {i + 1} moved"
    assert res.stdout == want
