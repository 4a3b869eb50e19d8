"""Command line front end.

`COMMANDS` lists each command with its function and its options; the
argparse parser of a command is built from it the first time the command
runs in a process and kept.  `main` is the `plumbq` entry point.

Exit codes: 0 success, 1 tolerance failure in a check command, 2 usage or
parse error, 3 violated mathematical precondition.  An error prints one
line, `error: ...`, on stderr; a usage error (an unknown option, a missing
required option, a value of the wrong type or outside the choices) too.
Expensive q-series runs are cached as JSON files keyed by a content hash of
the invocation, the package version, a digest of the package's own sources
and the series JSON format, so an entry made by other code is a miss; cache
writes go through a temp file and an atomic rename, and an entry that
cannot be read back counts as a miss and is rewritten.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import os
import sys
import tempfile
from pathlib import Path

from plumbq import __version__
from plumbq.catalog import NAMED_GRAPHS
from plumbq.plumbing import (
    PlumbingGraph,
    graph_from_json,
    graph_to_json,
    is_negative_definite,
    kirby_neumann_move,
    linking_matrix,
)
from plumbq.qlaurent import SERIES_FORMAT, qs_from_json, qs_to_json
from plumbq.zhat import VARIANTS

CACHE_ENV = "PLUMBQ_CACHE_DIR"


def _fail_math(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(3)


def _fail_usage(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _check_precision(precision: int) -> None:
    if precision < 1:
        _fail_usage("precision must be at least 1")


def _load_graph(path: str) -> PlumbingGraph:
    if path in NAMED_GRAPHS:
        return NAMED_GRAPHS[path]()
    try:
        with open(path) as fh:
            obj = json.load(fh)
        return graph_from_json(obj)
    except (OSError, json.JSONDecodeError, KeyError, TypeError,
            ValueError) as exc:
        _fail_usage(f"cannot read graph {path}: {exc}")


def _load_quiver(path: str):
    from plumbq.kq import quiver_from_json

    try:
        with open(path) as fh:
            return quiver_from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, TypeError,
            ValueError) as exc:
        _fail_usage(f"cannot read quiver {path}: {exc}")


def _cache_dir(flag_value: str | None) -> Path | None:
    path = flag_value or os.environ.get(CACHE_ENV)
    return Path(path) if path else None


@functools.cache
def _source_digest() -> str:
    """sha256 of the name, size and bytes of every .py file of the package."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _cache_fetch(cache: Path | None, make_key,
                 fields) -> tuple[dict | None, Path | None]:
    """(cached payload or None, file path for the key).  The key is the
    content hash of make_key(), the package version, the source digest and
    the series format, all taken only when there is a cache; an entry that
    is unreadable or lacks one of fields is a miss."""
    if cache is None:
        return None, None
    key = dict(make_key(), version=__version__, source=_source_digest(),
               series_format=SERIES_FORMAT)
    digest = hashlib.sha256(
        json.dumps(key, sort_keys=True).encode()
    ).hexdigest()
    target = cache / f"{digest}.json"
    try:
        payload = json.loads(target.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None, target
    if not isinstance(payload, dict) or any(f not in payload for f in fields):
        return None, target
    return payload, target


def _cache_store(target: Path | None, text: str) -> None:
    if target is None:
        return
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except OSError as exc:
        _fail_usage(f"cannot write cache {target.parent}: {exc}")


def _write_out(path: str, payload: dict) -> None:
    try:
        Path(path).write_text(json.dumps(payload, indent=2))
    except OSError as exc:
        _fail_usage(f"cannot write {path}: {exc}")


def _emit(payload: dict, fmt: str, text_lines) -> None:
    """Print payload as JSON, or the lines text_lines() makes: they are made
    only for text output."""
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines():
            print(line)


def zhat(graph, group, order, cache_dir, fmt):
    """Homological blocks of a negative-definite plumbing."""
    from plumbq.zhat import block_to_json, zhat_all_blocks

    g = _load_graph(graph)
    if not is_negative_definite(linking_matrix(g)):
        _fail_math("linking matrix is not negative definite")
    payload, target = _cache_fetch(
        _cache_dir(cache_dir),
        lambda: {"cmd": "zhat", "graph": graph_to_json(g), "group": group,
                 "order": order},
        ("group", "order", "blocks"))
    if payload is None:
        try:
            blocks = zhat_all_blocks(g, group, order)
        except ValueError as exc:
            _fail_math(str(exc))
        payload = {"group": group, "order": order,
                   "blocks": [block_to_json(b) for b in blocks]}
        _cache_store(target, json.dumps(payload, sort_keys=True))

    def lines():
        yield f"{group} blocks, order {order}:"
        for b in payload["blocks"]:
            yield f"  b={tuple(b['b'])}  delta={b['delta']}"
            yield f"    {qs_from_json(b['series'])}"

    _emit(payload, fmt, lines)


def wrt(graph, group, level, rank_n, subgroup_m, precision, fmt):
    """State-sum invariant at a root of unity."""
    from plumbq.wrt import (
        result_to_json, wrt_osp, wrt_so3, wrt_su2, wrt_sun_zm)

    _check_precision(precision)
    g = _load_graph(graph)
    try:
        if group == "su2":
            res = wrt_su2(g, level, precision)
        elif group == "so3":
            res = wrt_so3(g, level, precision)
        elif group == "osp12":
            res = wrt_osp(g, level, precision)
        else:
            res = wrt_sun_zm(g, rank_n, subgroup_m, level, precision)
    except ValueError as exc:
        _fail_math(str(exc))
    payload = result_to_json(res)
    _emit(payload, fmt, lambda: [
        f"{payload['variant']} level {level} (root order "
        f"{payload['root_order']}): {payload['re']} + {payload['im']}i"])


def gppv_check(graph, group, level, order, rank_n, subgroup_m, precision,
               tol, fmt):
    """Compare the state sum against the block decomposition limit."""
    from plumbq.gppv import gppv_verify, report_to_json

    _check_precision(precision)
    if not tol >= 0:  # also false for NaN
        _fail_usage("tolerance must be a nonnegative number")
    g = _load_graph(graph)
    if not is_negative_definite(linking_matrix(g)):
        _fail_math("linking matrix is not negative definite")
    try:
        rep = gppv_verify(g, group, level, order, dps=precision,
                          N=rank_n, m=subgroup_m)
    except ValueError as exc:
        _fail_math(str(exc))
    payload = report_to_json(rep)
    payload["tol"] = tol
    payload["pass"] = rep.residual < tol
    _emit(payload, fmt, lambda: [
        f"{group} level {level}: residual {rep.residual:.3e} "
        f"({'PASS' if payload['pass'] else 'FAIL'} at tol {tol:g})"])
    if not payload["pass"]:
        sys.exit(1)


def kirby(graph, move, out, fmt):
    """Apply a blow-up or blow-down move and print the new graph."""
    g = _load_graph(graph)
    try:
        move = json.loads(move)
    except json.JSONDecodeError as exc:
        _fail_usage(f"bad move JSON: {exc}")
    try:
        g2 = kirby_neumann_move(g, move)
    except KeyError as exc:
        _fail_usage(f"bad move: missing key {exc}")
    except TypeError as exc:
        _fail_usage(f"bad move: {exc}")
    except ValueError as exc:
        _fail_math(str(exc))
    payload = graph_to_json(g2)
    if out:
        _write_out(out, payload)
    _emit(payload, fmt, lambda: [
        "vertices: " + ", ".join(
            f"{v['id']}:{v['framing']}" for v in payload["vertices"]),
        "edges: " + ", ".join(map(str, payload["edges"]))])


def quiver_generate(p, m, out, fmt):
    """Quiver data for the double twist knot K(p,-m)."""
    from plumbq.kq import generate_double_twist_quiver, quiver_to_json

    try:
        q = generate_double_twist_quiver(p, m)
    except ValueError as exc:
        _fail_math(str(exc))
    payload = quiver_to_json(q)
    if out:
        _write_out(out, payload)
    _emit(payload, fmt, lambda: [
        f"{q.n} nodes", "xi: " + " ".join(map(str, q.xi)),
        "gamma: " + " ".join(map(str, q.gamma))])


def quiver_series(quiver, r, cache_dir, fmt):
    """Motivic series coefficient of x^r (the r-colored polynomial)."""
    from plumbq.kq import quiver_jones, quiver_to_json

    q = _load_quiver(quiver)
    payload, target = _cache_fetch(
        _cache_dir(cache_dir),
        lambda: {"cmd": "quiver-series", "quiver": quiver_to_json(q), "r": r},
        ("r", "series"))
    if payload is None:
        try:
            series = quiver_jones(q, r)
        except ValueError as exc:
            _fail_math(str(exc))
        payload = {"r": r, "series": qs_to_json(series)}
        _cache_store(target, json.dumps(payload, sort_keys=True))
    _emit(payload, fmt, lambda: [str(qs_from_json(payload["series"]))])


def dt(quiver, dmax, order, fmt):
    """Integer exponents of the product form of the motivic series.

    Text prints one line Omega[d, j] = value per nonzero exponent; JSON
    prints {"dmax", "omega", "order"}, omega one {"d", "j", "value"} entry
    per (d, j), d the n node multiplicities, sorted by d and then by j.
    """
    from plumbq.kq import dt_invariants

    q = _load_quiver(quiver)
    if order < 1:  # preconditions; other ValueErrors are failed checks
        _fail_math("order must be at least 1")
    if dmax < 1:
        _fail_math("dmax must be at least 1")
    try:
        inv = dt_invariants(q, dmax, order)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    by_d = {}  # each d is encoded once, for all of its j
    for (d, j), v in inv.omega.items():
        by_d.setdefault(d, []).append((j, v))
    rows = [(d, sorted(jv)) for d, jv in sorted(by_d.items())]
    if fmt == "json":  # json.dumps(payload, sort_keys=True), byte for byte
        omega = ", ".join(f'{{"d": {dj}, "j": {j}, "value": {v}}}'
                          for d, jv in rows for dj in [json.dumps(list(d))]
                          for j, v in jv)
        print(f'{{"dmax": {dmax}, "omega": [{omega}], "order": {order}}}')
    else:
        for d, jv in rows:
            for j, v in jv:
                print(f"Omega[{d}, {j}] = {v}")


def oracle(knot, r, a_exp, q_sub, p, fmt):
    """Closed-form knot polynomial oracles."""
    from plumbq.kq import nested_sum_jones_83, closed_form_homfly, twist_knot_jones

    try:
        if knot == "8_3-nested":
            series = nested_sum_jones_83(r)
        elif knot == "twist":
            series = twist_knot_jones(p, r)
        else:
            series = closed_form_homfly(knot, r, a_exp, q_sub)
    except ValueError as exc:
        _fail_math(str(exc))
    payload = {"knot": knot, "r": r, "series": qs_to_json(series)}
    _emit(payload, fmt, lambda: [str(series)])


def _int(flag: str, default: int | None = None, **kwargs):
    """An int option; one without a default is required."""
    return flag, dict(type=int, default=default, required=default is None,
                      **kwargs)


GRAPH = ("--graph", dict(
    required=True, help="graph JSON file or a named example "
                        f"({', '.join(sorted(NAMED_GRAPHS))})"))
GROUP = ("--group", dict(choices=("su2", "so3", "osp12", "sun-zm"),
                         default="su2"))
QUIVER = ("--quiver", dict(required=True))
OUT = ("--out", {})
CACHE = ("--cache-dir", {})
FORMAT = ("--format", dict(dest="fmt", choices=("text", "json"),
                           default="text"))

# name: (function, options as (flag, argparse add_argument keywords)); each
# option's dest is a parameter of the function
COMMANDS = {
    "zhat": (zhat, (GRAPH, ("--group", dict(choices=VARIANTS, default="su2")),
                    _int("--order", 50), CACHE, FORMAT)),
    "wrt": (wrt, (GRAPH, GROUP, _int("--level"),
                  _int("--rank-n", 2, help="N for sun-zm"),
                  _int("--subgroup-m", 1, help="m for sun-zm"),
                  _int("--precision", 60), FORMAT)),
    "gppv-check": (gppv_check, (
        GRAPH, GROUP, _int("--level"), _int("--order", 200),
        _int("--rank-n", 2), _int("--subgroup-m", 1), _int("--precision", 40),
        ("--tol", dict(type=float, default=1e-3)), FORMAT)),
    "kirby": (kirby, (GRAPH, ("--move", dict(
        required=True, help='JSON, e.g. {"kind": "blow_down", "vertex": 3}')),
                      OUT, FORMAT)),
    "quiver-generate": (quiver_generate, (_int("--p"), _int("--m"), OUT,
                                          FORMAT)),
    "quiver-series": (quiver_series, (QUIVER, _int("--r"), CACHE, FORMAT)),
    "dt": (dt, (QUIVER, _int("--dmax", 2), _int("--order", 40), FORMAT)),
    "oracle": (oracle, (
        ("--knot", dict(choices=("0_1", "3_1", "4_1", "5_1", "8_3-nested",
                                 "twist"), required=True)),
        _int("--r"), _int("--a-exp", 2), _int("--q-sub", 1),
        _int("--p", 1, help="twists for --knot twist"), FORMAT)),
}


class _Formatter(argparse.RawDescriptionHelpFormatter):
    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _fail_usage(message)


@functools.cache
def _parser(prog: str, name: str) -> argparse.ArgumentParser:
    """The parser of one command, built from COMMANDS once per process."""
    fn, options = COMMANDS[name]
    parser = _Parser(prog=f"{prog} {name}",
                     description=inspect.cleandoc(fn.__doc__),
                     formatter_class=_Formatter, allow_abbrev=False,
                     add_help=False)
    group = parser.add_argument_group("Options")
    group.add_argument("-h", "--help", action="help",
                       help="show this message and exit")
    for flag, kwargs in options:
        group.add_argument(flag, **kwargs)
    return parser


def _usage(prog: str) -> str:
    width = max(map(len, COMMANDS))
    return "\n".join([
        f"Usage: {prog} COMMAND [OPTIONS]", "",
        "Exact invariants of plumbed 3-manifolds and knot quivers.", "",
        "Commands:",
        *(f"  {name:{width}}  {fn.__doc__.splitlines()[0]}"
          for name, (fn, _) in COMMANDS.items()), "",
        f"'{prog} COMMAND --help' lists the options of a command."])


def main(args=None, prog_name=None, standalone_mode=True):
    """Run the command that args (default sys.argv[1:]) names with its
    options, printing to stdout and stderr.  Success returns None; any
    other exit raises SystemExit with the exit code.  standalone_mode is
    accepted, and ignored, for callers of the earlier click entry point."""
    argv = sys.argv[1:] if args is None else list(args)
    prog = prog_name or "plumbq"
    try:
        try:
            if argv and argv[0] in COMMANDS:
                fn = COMMANDS[argv[0]][0]
                fn(**vars(_parser(prog, argv[0]).parse_args(argv[1:])))
            elif argv[:1] in (["-h"], ["--help"]):
                print(_usage(prog))
            else:
                _fail_usage(
                    (f"no such command {argv[0]!r}" if argv
                     else "no command given")
                    + f" (choose from {', '.join(COMMANDS)})")
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout went away (`plumbq dt ... | head`): exit 1
        # without a traceback, and without a second one at shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


main.main = main  # the call click's entry point took: main.main(args=...)


if __name__ == "__main__":
    main()
