"""One fresh benchmark process: set up a workload, run one pass, check it.

Run by run.py, never by hand:

    python3 bench/worker.py --workload W --seed S --mode pass|setup
        --trace 0|1 --spawned T --workdir DIR --result FILE

`--spawned` is the CLOCK_MONOTONIC reading taken by the parent just before
it started this process, so set-up wall time covers interpreter start,
imports and input construction.  The result is one JSON object written to
FILE.

Besides wall times the process records the CPU time of its set-up (from
its start) and of its pass, and the CPU time of a fixed standard-library
reference loop run right after set-up and, in pass mode, right after the
pass.  REFERENCE_S over that loop's time is the speed the machine ran at
while this process ran; run.py uses it to state CPU times at reference
speed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu():
    """CPU seconds used so far by this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


# The reference loop's median burst CPU time on the reference machine
# (2-core x86-64, Python 3.11.7) in its fast phase.
REFERENCE_S = 0.036
REFERENCE_BURSTS = 5


def _reference_burst():
    """A fixed mix of dict updates, integer and Fraction arithmetic and a
    sort: the kinds of work the program's pure-Python layers do."""
    d = {}
    acc = 0
    f = Fraction(0)
    for i in range(160000):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + i * i
        acc += (i ^ k) * 3
        if i % 64 == 0:
            f += Fraction(i, k + 1)
    return acc, f, sorted(d.values())[-1]


def reference_s() -> float:
    """Median CPU time of a few reference bursts, as measured now."""
    times = []
    for _ in range(REFERENCE_BURSTS):
        c0 = _cpu()
        _reference_burst()
        times.append(_cpu() - c0)
    return statistics.median(times)


class Lib:
    """Program functions the workloads call, looked up on their module at
    each use so that the tracer's wrappers are the ones called."""

    SOURCES = {
        "graph_from_json": "plumbing",
        "constant_term_oracle": "zhat",
        "gauss_reciprocity_check": "gppv",
        "generate_double_twist_quiver": "kq",
        "quiver_to_json": "kq",
        "quiver_from_json": "kq",
        "mmr_leading_check": "kq",
        "nested_sum_jones_83": "kq",
        "closed_form_homfly": "kq",
    }

    def __getattr__(self, name):
        mod = importlib.import_module(f"plumbq.{self.SOURCES[name]}")
        return getattr(mod, name)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "setup"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    import plumbq
    import plumbq.cli
    import tracer as tr
    from workloads import WORKLOADS, Checks, Pass

    if not Path(plumbq.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"plumbq imported from {plumbq.__file__}, "
                         f"not from {ROOT / 'src'}")
    for layer in tr.LAYERS:  # every import belongs to set-up
        importlib.import_module(f"plumbq.{layer}")
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir, Lib())
    result = {"setup_s": _now() - args.spawned, "setup_cpu_s": _cpu(),
              "reference_before_s": reference_s()}
    if args.mode == "pass":
        tracer = None
        if args.trace:
            tracer = tr.Tracer()
            tracer.install()
            tracer.begin()
        p = Pass(plumbq.cli.main, tracer)
        t0, c0 = time.perf_counter(), _cpu()
        workload.run(p)
        pass_s = time.perf_counter() - t0
        result["pass_cpu_s"] = _cpu() - c0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["reference_after_s"] = reference_s()
        if tracer is not None:
            tracer.end()
            tracer.uninstall()
            result["layers"] = tracer.summary()
            result["spans"] = tracer.spans()
        checks = Checks(p)
        workload.check(p, checks)
        result.update({
            "pass_s": pass_s,
            "peak_rss_mb": peak_kb / 1024,
            "attempted": p.attempted,
            "failed": len(p.failed),
            "failures": p.failed,
            "checks": checks.count,
            "check_failures": checks.failures,
        })
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
