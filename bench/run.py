"""Benchmark entry point: one run of one workload, as one JSON line.

    python3 bench/run.py --workload blocks|decomposition|quivers
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
Every pass runs in a fresh Python process (bench/worker.py) that builds its
inputs from the seed, runs the workload's operations once and checks their
outputs.  A new pass starts only while it is expected to end within S
seconds (the first always starts); figures are medians over the passes.
No result cache is used.

Set-up and pass times are CPU seconds at reference speed.  The machine
this was built on is shared: it runs the same code at speeds up to a
factor 2.5 apart, in phases of seconds to minutes, and other processes may
take turns on its cores.  Wall time measures both; CPU time is immune to
the second, and every process also times a fixed reference loop
(worker.py) in CPU seconds, whose speed (reference time over measured
time) corrects for the first.  The program is single-threaded and
CPU-bound, so on an idle machine a pass's CPU time is its wall time to
within about 1%.  Raw wall times and speeds go to standard error.

With --trace 0 the metrics are the end-to-end ones: set-up time (median of
several set-ups per run), pass time and peak resident memory.  With
--trace 1 untraced and traced passes alternate.  The metrics are the
per-layer figures of the traced pass of median wall time (raw wall times,
so that they add up to its trace.pass_s), the tracing overhead at
reference speed (that pass's time minus the median untraced pass time),
and the untraced passes' median raw wall time and machine speed.  The
traced pass's span tree is written to
bench/out/trace-<workload>-seed<N>.json.

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Diagnostics go to standard error.  A run whose program cannot be imported
or whose pass process fails exits nonzero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REFERENCE_S
from workloads import KNOWN_FAULTS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_PROBES = 5
DEADLINE_S = 170  # the whole run, including the pass still going at S


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, args, workdir: Path, started: float):
        self.args = args
        self.workdir = workdir
        self.started = started
        self.env = {k: v for k, v in os.environ.items()
                    if k != "PLUMBQ_CACHE_DIR"}
        self.n = 0

    def spawn(self, mode: str, trace: int) -> dict:
        """One worker process; returns its result or raises RuntimeError."""
        self.n += 1
        result = self.workdir / f"result-{self.n}.json"
        spawned = _now()
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--mode", mode, "--trace", str(trace),
               "--spawned", repr(spawned),
               "--workdir", str(self.workdir / f"inputs-{self.n}"),
               "--result", str(result)]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=sys.stderr, stdin=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=max(1.0, DEADLINE_S - (
                _now() - self.started)))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{mode} process passed the deadline")
        finally:
            if proc.poll() is None:  # timed out or interrupted
                proc.kill()
                proc.wait()
        if code != 0 or not result.exists():
            raise RuntimeError(f"{mode} process exited with code {code}")
        return json.loads(result.read_text())


def run(args) -> dict:
    started = _now()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(args, workdir, started)
        setups = []
        if not args.trace:
            setups = [runner.spawn("setup", 0) for _ in range(SETUP_PROBES)]
        passes = []
        t0 = _now()
        last = 0.0  # wall time of the last round of passes
        while not passes or _now() - t0 + last <= args.seconds:
            r0 = _now()
            if args.trace:
                passes.append(runner.spawn("pass", 0))
            passes.append(runner.spawn("pass", args.trace))
            last = _now() - r0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = {}
    check_failures = []
    for p in passes:
        failures.update(p["failures"])
        check_failures.extend(p["check_failures"])
    for name, why in sorted(failures.items()):
        fault = KNOWN_FAULTS.get(name)
        tag = f"known fault ({fault})" if fault else "unexpected"
        print(f"failed, {tag}: {name}: {why[:200]}", file=sys.stderr)
    for why in dict.fromkeys(check_failures):
        print(f"check failed: {why}", file=sys.stderr)
    for p in passes:
        p["speed"] = REFERENCE_S / statistics.fmean(
            (p["reference_before_s"], p["reference_after_s"]))
        p["ref_pass_s"] = p["pass_cpu_s"] * p["speed"]
    print(f"{len(passes)} passes, {passes[0]['attempted']} operations and "
          f"{passes[0]['checks']} checks each; wall pass_s "
          + " ".join(f"{p['pass_s']:.3f}" for p in passes) + "; cpu "
          + " ".join(f"{p['pass_cpu_s']:.3f}" for p in passes) + "; speed "
          + " ".join(f"{p['speed']:.3f}" for p in passes), file=sys.stderr)

    if args.trace:
        # the per-layer split of one whole traced pass, the median one, so
        # that its layer self times add up to its trace.pass_s
        traced = sorted((p for p in passes if "layers" in p),
                        key=lambda p: p["layers"]["trace.pass_s"])
        median = traced[(len(traced) - 1) // 2]
        untraced = [p for p in passes if "layers" not in p]
        metrics = dict(median["layers"])
        metrics["trace.overhead_s"] = median["ref_pass_s"] - statistics.median(
            p["ref_pass_s"] for p in untraced)
        metrics["wall.pass_s"] = statistics.median(
            p["pass_s"] for p in untraced)
        metrics["machine.speed"] = statistics.median(
            p["speed"] for p in untraced)
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in sorted(metrics.items())}
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(median["spans"]))
    else:
        setups += passes
        print("wall setup_s " + " ".join(f"{p['setup_s']:.3f}"
                                         for p in setups), file=sys.stderr)
        values = {
            "setup_s": statistics.median(
                p["setup_cpu_s"] * REFERENCE_S / p["reference_before_s"]
                for p in setups),
            "pass_s": statistics.median(p["ref_pass_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                             for p in passes),
        }
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in values.items()}
    return {
        "correct": not check_failures,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "plumbq" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'plumbq'}",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
