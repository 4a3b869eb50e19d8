"""Command line front end.

Exit codes: 0 success, 1 tolerance failure in a check command, 2 usage or
parse error (click's default), 3 violated mathematical precondition.
Expensive q-series runs are cached as JSON files keyed by a content hash of
the invocation, the package version, a digest of the package's own sources
and the series JSON format, so an entry made by other code is a miss; cache
writes go through a temp file and an atomic rename, and an entry that
cannot be read back counts as a miss and is rewritten.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import click

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
    click.echo(f"error: {msg}", err=True)
    sys.exit(3)


def _fail_usage(msg: str):
    click.echo(f"error: {msg}", err=True)
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


def _cache_fetch(cache: Path | None, key_obj,
                 fields) -> tuple[dict | None, Path | None]:
    """(cached payload or None, file path for the key).  The key is the
    content hash of key_obj, the package version, the source digest and the
    series format; an entry that is unreadable or lacks one of fields is a
    miss."""
    if cache is None:
        return None, None
    key = dict(key_obj, version=__version__, source=_source_digest(),
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
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        fh.write(text)
    os.replace(tmp, target)


def _emit(payload: dict, fmt: str, text_lines) -> None:
    """Print payload as JSON, or the lines text_lines() makes: they are made
    only for text output."""
    if fmt == "json":
        click.echo(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines():
            click.echo(line)


@click.group()
def main():
    """Exact invariants of plumbed 3-manifolds and knot quivers."""


graph_opt = click.option(
    "--graph", required=True,
    help="graph JSON file or a named example "
         f"({', '.join(sorted(NAMED_GRAPHS))})")
fmt_opt = click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text")


@main.command()
@graph_opt
@click.option("--group", type=click.Choice(VARIANTS), default="su2")
@click.option("--order", type=int, default=50)
@click.option("--cache-dir", default=None)
@fmt_opt
def zhat(graph, group, order, cache_dir, fmt):
    """Homological blocks of a negative-definite plumbing."""
    from plumbq.zhat import block_to_json, zhat_all_blocks

    g = _load_graph(graph)
    if not is_negative_definite(linking_matrix(g)):
        _fail_math("linking matrix is not negative definite")
    key = {"cmd": "zhat", "graph": graph_to_json(g), "group": group,
           "order": order}
    payload, target = _cache_fetch(_cache_dir(cache_dir), key,
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


@main.command()
@graph_opt
@click.option("--group",
              type=click.Choice(["su2", "so3", "osp12", "sun-zm"]),
              default="su2")
@click.option("--level", type=int, required=True)
@click.option("--rank-n", type=int, default=2, help="N for sun-zm")
@click.option("--subgroup-m", type=int, default=1, help="m for sun-zm")
@click.option("--precision", type=int, default=60)
@fmt_opt
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


@main.command("gppv-check")
@graph_opt
@click.option("--group",
              type=click.Choice(["su2", "so3", "osp12", "sun-zm"]),
              default="su2")
@click.option("--level", type=int, required=True)
@click.option("--order", type=int, default=200)
@click.option("--rank-n", type=int, default=2)
@click.option("--subgroup-m", type=int, default=1)
@click.option("--precision", type=int, default=40)
@click.option("--tol", type=float, default=1e-3)
@fmt_opt
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


@main.command()
@graph_opt
@click.option("--move", "move_json", required=True,
              help='JSON, e.g. {"kind": "blow_down", "vertex": 3}')
@click.option("--out", "out_path", default=None)
@fmt_opt
def kirby(graph, move_json, out_path, fmt):
    """Apply a blow-up or blow-down move and print the new graph."""
    g = _load_graph(graph)
    try:
        move = json.loads(move_json)
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
    if out_path:
        Path(out_path).write_text(json.dumps(payload, indent=2))
    _emit(payload, fmt, lambda: [
        "vertices: " + ", ".join(
            f"{v['id']}:{v['framing']}" for v in payload["vertices"]),
        "edges: " + ", ".join(map(str, payload["edges"]))])


@main.command("quiver-generate")
@click.option("--p", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--out", "out_path", default=None)
@fmt_opt
def quiver_generate(p, m, out_path, fmt):
    """Quiver data for the double twist knot K(p,-m)."""
    from plumbq.kq import generate_double_twist_quiver, quiver_to_json

    try:
        q = generate_double_twist_quiver(p, m)
    except ValueError as exc:
        _fail_math(str(exc))
    payload = quiver_to_json(q)
    if out_path:
        Path(out_path).write_text(json.dumps(payload, indent=2))
    _emit(payload, fmt, lambda: [
        f"{q.n} nodes", "xi: " + " ".join(map(str, q.xi)),
        "gamma: " + " ".join(map(str, q.gamma))])


@main.command("quiver-series")
@click.option("--quiver", "quiver_path", required=True)
@click.option("--r", type=int, required=True)
@click.option("--cache-dir", default=None)
@fmt_opt
def quiver_series(quiver_path, r, cache_dir, fmt):
    """Motivic series coefficient of x^r (the r-colored polynomial)."""
    from plumbq.kq import quiver_jones, quiver_to_json

    q = _load_quiver(quiver_path)
    key = {"cmd": "quiver-series", "quiver": quiver_to_json(q), "r": r}
    payload, target = _cache_fetch(_cache_dir(cache_dir), key,
                                   ("r", "series"))
    if payload is None:
        try:
            series = quiver_jones(q, r)
        except ValueError as exc:
            _fail_math(str(exc))
        payload = {"r": r, "series": qs_to_json(series)}
        _cache_store(target, json.dumps(payload, sort_keys=True))
    _emit(payload, fmt, lambda: [str(qs_from_json(payload["series"]))])


@main.command()
@click.option("--quiver", "quiver_path", required=True)
@click.option("--dmax", type=int, default=2)
@click.option("--order", type=int, default=40)
@fmt_opt
def dt(quiver_path, dmax, order, fmt):
    """Integer exponents of the product form of the motivic series."""
    from plumbq.kq import dt_invariants

    q = _load_quiver(quiver_path)
    if order < 1:  # preconditions; other ValueErrors are failed checks
        _fail_math("order must be at least 1")
    if dmax < 1:
        _fail_math("dmax must be at least 1")
    try:
        inv = dt_invariants(q, dmax, order)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    nz = inv.nonzero()
    payload = {"dmax": dmax, "order": order,
               "omega": [{"d": list(d), "j": j, "value": v}
                         for (d, j), v in sorted(nz.items())]}
    _emit(payload, fmt, lambda: [
        f"Omega[{tuple(d)}, {j}] = {v}" for (d, j), v in sorted(nz.items())])


@main.command()
@click.option("--knot",
              type=click.Choice(["0_1", "3_1", "4_1", "5_1", "8_3-nested",
                                 "twist"]),
              required=True)
@click.option("--r", type=int, required=True)
@click.option("--a-exp", type=int, default=2)
@click.option("--q-sub", type=int, default=1)
@click.option("--p", type=int, default=1, help="twists for --knot twist")
@fmt_opt
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


if __name__ == "__main__":
    main()
