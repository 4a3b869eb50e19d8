import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plumbq import cli
from plumbq.cli import main


def run(*args):
    return CliRunner().invoke(main, list(args))


class TestZhatCommand:
    def test_poincare_text(self):
        res = run("zhat", "--graph", "poincare", "--order", "45")
        assert res.exit_code == 0
        assert "q^(-3/2)" in res.output

    def test_positive_definite_exits_3(self, tmp_path):
        bad = tmp_path / "pos.json"
        bad.write_text(json.dumps({
            "vertices": [{"id": 0, "framing": 2}], "edges": []}))
        res = run("zhat", "--graph", str(bad))
        assert res.exit_code == 3

    def test_missing_file_exits_2(self):
        res = run("zhat", "--graph", "no-such-file.json")
        assert res.exit_code == 2

    def test_json_format_parses(self):
        res = run("zhat", "--graph", "lens-m5-11", "--group", "osp12",
                  "--order", "10", "--format", "json")
        assert res.exit_code == 0
        obj = json.loads(res.output)
        assert obj["group"] == "osp12"
        assert len(obj["blocks"]) == 3
        assert res.output == json.dumps(obj, sort_keys=True) + "\n"


class TestQuiverCommands:
    def test_generate_writes_file(self, tmp_path):
        out = tmp_path / "q41.json"
        res = run("quiver-generate", "--p", "1", "--m", "1",
                  "--out", str(out))
        assert res.exit_code == 0
        obj = json.loads(out.read_text())
        assert obj["n"] == 5

    def test_generate_rejects_p_below_m(self):
        res = run("quiver-generate", "--p", "1", "--m", "2")
        assert res.exit_code == 3

    def test_series_and_cache_hit(self, tmp_path):
        qfile = tmp_path / "q.json"
        run("quiver-generate", "--p", "1", "--m", "1", "--out", str(qfile))
        cache = tmp_path / "cache"
        cold = run("quiver-series", "--quiver", str(qfile), "--r", "2",
                   "--cache-dir", str(cache))
        assert cold.exit_code == 0
        assert len(list(cache.glob("*.json"))) == 1
        warm = run("quiver-series", "--quiver", str(qfile), "--r", "2",
                   "--cache-dir", str(cache))
        assert warm.output == cold.output

    def test_dt_command(self, tmp_path):
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps(
            {"n": 1, "C": [[0]], "xi": [0], "gamma": [0]}))
        res = run("dt", "--quiver", str(qfile), "--dmax", "2",
                  "--order", "30")
        assert res.exit_code == 0
        assert "Omega[(1,), -2] = 1" in res.output


def test_json_output_makes_no_text_lines(monkeypatch, tmp_path):
    # the text lines are made only for text output: --format json never
    # parses a series back from its JSON
    def refuse(obj):
        raise AssertionError("a text line was made for JSON output")

    qfile = tmp_path / "q.json"
    run("quiver-generate", "--p", "1", "--m", "1", "--out", str(qfile))
    monkeypatch.setattr(cli, "qs_from_json", refuse)
    for args in (("zhat", "--graph", "poincare", "--order", "20"),
                 ("quiver-series", "--quiver", str(qfile), "--r", "2")):
        res = run(*args, "--format", "json")
        assert res.exit_code == 0, res.output
        json.loads(res.output)
        assert run(*args).exit_code == 1


class TestKirbyCommand:
    def test_blow_down(self, tmp_path):
        gfile = tmp_path / "g.json"
        gfile.write_text(json.dumps({
            "vertices": [{"id": 0, "framing": -2},
                         {"id": 1, "framing": -1}],
            "edges": [[0, 1]]}))
        res = run("kirby", "--graph", str(gfile),
                  "--move", '{"kind": "blow_down", "vertex": 1}')
        assert res.exit_code == 0
        assert "0:-1" in res.output

    def test_bad_move_json_exits_2(self):
        res = run("kirby", "--graph", "poincare", "--move", "{oops")
        assert res.exit_code == 2

    def test_invalid_move_exits_3(self):
        res = run("kirby", "--graph", "poincare",
                  "--move", '{"kind": "blow_down", "vertex": 0}')
        assert res.exit_code == 3


class TestOracleCommand:
    def test_twist(self):
        res = run("oracle", "--knot", "twist", "--p", "2", "--r", "1")
        assert res.exit_code == 0
        assert "q^" in res.output

    def test_unknot(self):
        res = run("oracle", "--knot", "0_1", "--r", "3")
        assert res.exit_code == 0
        assert res.output.strip() == "1"


class TestGppvCommand:
    def test_lens_passes(self):
        res = run("gppv-check", "--graph", "lens-m5-11", "--level", "3",
                  "--order", "60")
        assert res.exit_code == 0
        assert "PASS" in res.output

    def test_impossible_tolerance_exits_1(self):
        res = run("gppv-check", "--graph", "lens-m5-11", "--level", "3",
                  "--order", "60", "--tol", "0")
        assert res.exit_code == 1
        assert "FAIL" in res.output


class TestWrtCommand:
    def test_lens_su2(self):
        res = run("wrt", "--graph", "lens-m5-11", "--group", "su2",
                  "--level", "4")
        assert res.exit_code == 0
        assert "su2 level 4" in res.output

    def test_bad_level_exits_3(self):
        res = run("wrt", "--graph", "lens-m5-11", "--group", "so3",
                  "--level", "3")
        assert res.exit_code == 3


SUN = ("--graph", "poincare", "--group", "sun-zm", "--level", "2")
NOT_A_TREE = {"vertices": [{"id": 0, "framing": -2}, {"id": 1, "framing": -2},
                           {"id": 2, "framing": -2}],
              "edges": [[0, 1], [1, 2], [2, 0]]}


class TestExitCodes:
    """Usage and parse errors exit 2, violated preconditions 3, each with a
    one-line message and no traceback."""

    @pytest.mark.parametrize("args,code", [
        (("zhat", "--graph", "{cycle}"), 2),
        (("wrt", "--graph", "{cycle}", "--level", "3"), 2),
        (("quiver-series", "--quiver", "{skew}", "--r", "1"), 2),
        (("zhat", "--graph", "poincare", "--order", "0"), 3),
        (("zhat", "--graph", "poincare", "--group", "su3", "--order", "0"),
         3),
        (("zhat", "--graph", "lens-m5-11", "--group", "su3", "--order",
          "-3"), 3),
        (("quiver-series", "--quiver", "{quiver}", "--r", "-1"), 3),
        (("dt", "--quiver", "{quiver}", "--order", "0"), 3),
        (("dt", "--quiver", "{quiver}", "--dmax", "0"), 3),
        (("dt", "--quiver", "{quiver}", "--dmax", "-2"), 3),
        (("wrt", *SUN, "--rank-n", "1"), 3),
        (("wrt", *SUN, "--rank-n", "0"), 3),
        (("wrt", *SUN, "--rank-n", "3", "--subgroup-m", "0"), 3),
        (("wrt", *SUN, "--rank-n", "3", "--subgroup-m", "-1"), 3),
        (("gppv-check", *SUN, "--order", "10", "--rank-n", "1"), 3),
        (("gppv-check", *SUN, "--order", "10", "--rank-n", "0"), 3),
        (("gppv-check", *SUN, "--order", "10", "--rank-n", "3",
          "--subgroup-m", "0"), 3),
        (("gppv-check", *SUN, "--order", "10", "--rank-n", "3",
          "--subgroup-m", "-1"), 3),
        (("wrt", "--graph", "poincare", "--level", "3", "--precision", "0"),
         2),
        (("wrt", "--graph", "poincare", "--level", "3", "--precision", "-5"),
         2),
        (("gppv-check", "--graph", "poincare", "--level", "2",
          "--precision", "0"), 2),
        (("gppv-check", "--graph", "lens-m5-11", "--level", "3",
          "--order", "60", "--tol", "-1"), 2),
        (("gppv-check", "--graph", "lens-m5-11", "--level", "3",
          "--order", "60", "--tol", "nan"), 2),
        (("kirby", "--graph", "poincare", "--move", '{"kind": "blow_up"}'),
         2),
        (("kirby", "--graph", "poincare", "--move", "[1, 2]"), 2),
        (("kirby", "--graph", "poincare", "--move",
          '{"kind": "blow_up", "sign": -1, "edge": [0], "new_id": 9}'), 2),
        (("kirby", "--graph", "poincare", "--move",
          '{"kind": "blow_up", "sign": 2, "new_id": 9}'), 3),
        (("kirby", "--graph", "poincare", "--move",
          '{"kind": "blow_up", "sign": -1, "at": 0, "new_id": 1}'), 3),
        (("kirby", "--graph", "poincare", "--move",
          '{"kind": "blow_up", "sign": -1, "edge": [0, 5], "new_id": 9}'), 3),
        (("quiver-series", "--quiver", "{empty}", "--r", "1"), 2),
        (("dt", "--quiver", "{empty}"), 2),
    ], ids=["graph-not-a-tree", "wrt-graph-not-a-tree",
            "quiver-not-symmetric", "order-below-delta",
            "su3-order-below-delta", "su3-negative-order",
            "quiver-negative-color", "dt-order-zero", "dt-dmax-zero",
            "dt-dmax-negative",
            "wrt-rank-1", "wrt-rank-0", "wrt-subgroup-0",
            "wrt-subgroup-negative", "gppv-rank-1", "gppv-rank-0",
            "gppv-subgroup-0", "gppv-subgroup-negative",
            "wrt-precision-zero", "wrt-precision-negative",
            "gppv-precision-zero", "gppv-tol-negative", "gppv-tol-nan",
            "kirby-missing-key", "kirby-move-not-object",
            "kirby-edge-not-pair", "kirby-sign-not-unit", "kirby-id-taken",
            "kirby-edge-not-in-graph", "quiver-no-nodes", "dt-no-nodes"])
    def test_exit_code(self, tmp_path, args, code):
        files = {"{cycle}": NOT_A_TREE,
                 "{skew}": {"n": 2, "C": [[0, 1], [2, 0]], "xi": [0, 0],
                            "gamma": [0, 0]},
                 "{quiver}": {"n": 1, "C": [[1]], "xi": [0], "gamma": [1]},
                 "{empty}": {"n": 0, "C": [], "xi": [], "gamma": []}}
        for name, obj in files.items():
            (tmp_path / name).write_text(json.dumps(obj))
        res = run(*(str(tmp_path / a) if a in files else a for a in args))
        assert res.exit_code == code
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("error: ")
        assert res.output.count("\n") == 1
        if args[0] == "zhat" and "--order" in args:
            assert res.output == "error: order does not reach past delta_b\n"
        if "--dmax" in args:
            assert res.output == "error: dmax must be at least 1\n"
        if "--rank-n" in args and int(args[args.index("--rank-n") + 1]) < 2:
            assert res.output == "error: need N >= 2\n"
        if "--precision" in args:
            assert res.output == "error: precision must be at least 1\n"
        if "--tol" in args:
            assert res.output == "error: tolerance must be a nonnegative number\n"


class TestReadersTakeOnlyIntegers:
    """A quiver or graph file whose numbers are not JSON integers exits 2
    through the reader's own message; nothing is truncated."""

    QUIVER = {"n": 1, "C": [[1]], "xi": [0], "gamma": [0]}
    GRAPH = {"vertices": [{"id": 0, "framing": -2},
                          {"id": 1, "framing": -3}], "edges": [[0, 1]]}

    @pytest.mark.parametrize("key,value", [
        ("C", [[1.5]]), ("xi", [0.7]), ("gamma", [True]), ("C", [[True]]),
        ("xi", ["1"]), ("n", 2), ("n", 1.0), ("n", True)],
        ids=["C-float", "xi-float", "gamma-bool", "C-bool", "xi-string",
             "n-mismatch", "n-float", "n-bool"])
    def test_quiver(self, tmp_path, key, value):
        path = tmp_path / "q.json"
        path.write_text(json.dumps(dict(self.QUIVER, **{key: value})))
        for args in (("quiver-series", "--r", "2"), ("dt",)):
            res = run(args[0], "--quiver", str(path), *args[1:])
            assert res.exit_code == 2
            assert res.output.startswith(f"error: cannot read quiver {path}")
            assert res.output.count("\n") == 1

    @pytest.mark.parametrize("vertex,edge", [
        ({"id": 1, "framing": -2.5}, [0, 1]),
        ({"id": 1, "framing": True}, [0, 1]),
        ({"id": 1.0, "framing": -3}, [0, 1]),
        ({"id": 1, "framing": -3}, [0, 1.0])],
        ids=["framing-float", "framing-bool", "id-float", "edge-float"])
    def test_graph(self, tmp_path, vertex, edge):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "vertices": [{"id": 0, "framing": -2}, vertex],
            "edges": [edge]}))
        for args in (("zhat", "--order", "20"), ("wrt", "--level", "3")):
            res = run(args[0], "--graph", str(path), *args[1:])
            assert res.exit_code == 2
            assert res.output.startswith(f"error: cannot read graph {path}")
            assert res.output.count("\n") == 1

    def test_integers_still_read(self, tmp_path):
        qpath, gpath = tmp_path / "q.json", tmp_path / "g.json"
        qpath.write_text(json.dumps(self.QUIVER))
        gpath.write_text(json.dumps(self.GRAPH))
        assert run("quiver-series", "--quiver", str(qpath),
                   "--r", "2").exit_code == 0
        assert run("zhat", "--graph", str(gpath),
                   "--order", "20").exit_code == 0


class TestCache:
    def series(self, tmp_path, cache):
        qfile = tmp_path / "q.json"
        run("quiver-generate", "--p", "1", "--m", "1", "--out", str(qfile))
        return run("quiver-series", "--quiver", str(qfile), "--r", "2",
                   "--cache-dir", str(cache))

    def test_key_has_version_and_series_format(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        self.series(tmp_path, cache)
        first = {p.name for p in cache.glob("*.json")}
        monkeypatch.setattr(cli, "__version__", "0.0.0-other")
        self.series(tmp_path, cache)
        second = {p.name for p in cache.glob("*.json")} - first
        monkeypatch.setattr(cli, "SERIES_FORMAT", "other-format")
        self.series(tmp_path, cache)
        third = {p.name for p in cache.glob("*.json")} - first - second
        assert len(first) == len(second) == len(third) == 1

    def test_key_has_source_digest(self, tmp_path, monkeypatch):
        # code that changed under the same version is a miss, and the digest
        # is only taken when there is a cache
        cache = tmp_path / "cache"
        self.series(tmp_path, cache)
        first = {p.name for p in cache.glob("*.json")}
        assert len(cli._source_digest()) == 64
        monkeypatch.setattr(cli, "_source_digest", lambda: "other-sources")
        self.series(tmp_path, cache)
        second = {p.name for p in cache.glob("*.json")} - first
        assert len(first) == len(second) == 1

        def unused():
            raise AssertionError("digest taken without a cache")

        monkeypatch.setattr(cli, "_source_digest", unused)
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)
        qfile = tmp_path / "q.json"
        assert run("quiver-series", "--quiver", str(qfile), "--r", "2").exit_code == 0

    @pytest.mark.parametrize("junk", ['{"r": 2, "seri', "[]", "{}", "\xff"])
    def test_corrupt_entry_is_a_miss_and_rewritten(self, tmp_path, junk):
        cache = tmp_path / "cache"
        cold = self.series(tmp_path, cache)
        (entry,) = cache.glob("*.json")
        good = entry.read_text()
        entry.write_bytes(junk.encode("latin-1"))
        warm = self.series(tmp_path, cache)
        assert warm.exit_code == 0
        assert warm.output == cold.output
        assert entry.read_text() == good


def test_python_m_plumbq_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-m", "plumbq", "--help"],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=path))
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("Usage: plumbq ")


# The CLI contract over random inputs: files that may be malformed and
# option values of the right type.  (A value click cannot parse is click's
# own usage error, whose help text runs to several lines.)
SMALL = st.integers(-2, 4)
JUNK = st.sampled_from([1.5, True, "x", None, [], {}])


@st.composite
def graph_objects(draw):
    """A plumbing tree of up to three vertices, some with one flaw."""
    n = draw(st.integers(1, 3))
    obj = {"vertices": [{"id": i, "framing": draw(st.integers(-5, 2))} for i in range(n)],
           "edges": [[draw(st.integers(0, i - 1)), i] for i in range(1, n)]}
    flaw = draw(st.integers(0, 7))
    if flaw == 1:
        obj["vertices"][0]["framing"] = draw(JUNK)
    elif flaw == 2:  # a cycle, a loop, an unknown vertex or not a pair
        obj["edges"].append(draw(st.lists(st.integers(-1, 3), max_size=3)))
    elif flaw == 3:  # a repeated id or a second component
        obj["vertices"].append({"id": draw(st.integers(-1, 3)), "framing": -2})
    elif flaw == 4:
        obj = draw(JUNK | st.just({"vertices": obj["vertices"]}))
    return obj


@st.composite
def quiver_objects(draw):
    """A symmetric quiver of up to three nodes, some with one flaw."""
    n = draw(st.integers(1, 3))
    C = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        C[i][j] = C[j][i] = draw(st.integers(-1, 3))
    row = st.lists(st.integers(-2, 3), min_size=n, max_size=n)
    obj = {"n": n, "C": C, "xi": draw(row), "gamma": draw(row)}
    flaw = draw(st.integers(0, 7))
    if flaw == 1:
        obj["n"] = draw(st.integers(-1, 4) | JUNK)
    elif flaw == 2 and n > 1:
        C[0][1] += 1
    elif flaw == 3:
        obj[draw(st.sampled_from(["xi", "gamma"]))][0] = draw(JUNK)
    elif flaw == 4:
        obj = draw(JUNK | st.just({"n": n, "C": C}))
    return obj


def commands(graph, quiver):
    """Every command, with option values of the right type."""
    fmt = st.lists(st.sampled_from([("--format", "json"), ("--format", "text")]), max_size=1)
    groups = st.sampled_from(["su2", "so3", "osp12", "sun-zm"])
    knots = st.sampled_from(["0_1", "3_1", "4_1", "5_1", "8_3-nested", "twist"])
    move = st.fixed_dictionaries(
        {"kind": st.sampled_from(["blow_up", "blow_down", "flip"])},
        optional={"vertex": SMALL, "sign": SMALL, "at": SMALL | JUNK,
                  "edge": st.lists(SMALL, max_size=3) | JUNK, "new_id": SMALL})
    return st.one_of(
        st.tuples(st.sampled_from(["su2", "so3", "osp12", "su3"]), SMALL, fmt).map(
            lambda t: ["zhat", "--graph", graph, "--group", t[0],
                       "--order", str(t[1] if t[0] == "su3" else 4 * t[1]), *sum(t[2], ())]),
        st.tuples(groups, SMALL, SMALL, SMALL, st.integers(-1, 12)).map(
            lambda t: ["wrt", "--graph", graph, "--group", t[0], "--level", str(t[1]),
                       "--rank-n", str(t[2]), "--subgroup-m", str(t[3]),
                       "--precision", str(t[4])]),
        st.tuples(groups, st.integers(-1, 3), st.integers(-2, 40), st.integers(1, 3), SMALL,
                  st.sampled_from(["1e-3", "0", "-1", "nan", "inf"])).map(
            lambda t: ["gppv-check", "--graph", graph, "--group", t[0], "--level", str(t[1]),
                       "--order", str(t[2]), "--rank-n", str(t[3]), "--subgroup-m", str(t[4]),
                       "--precision", "12", "--tol", t[5]]),
        move.map(lambda m: ["kirby", "--graph", graph, "--move", json.dumps(m)]),
        st.tuples(SMALL, SMALL).map(
            lambda t: ["quiver-generate", "--p", str(t[0]), "--m", str(t[1])]),
        SMALL.map(lambda r: ["quiver-series", "--quiver", quiver, "--r", str(r)]),
        st.tuples(st.integers(-1, 2), st.integers(-1, 10)).map(
            lambda t: ["dt", "--quiver", quiver, "--dmax", str(t[0]), "--order", str(t[1])]),
        st.tuples(knots, SMALL, SMALL).map(
            lambda t: ["oracle", "--knot", t[0], "--r", str(t[1]), "--p", str(t[2])]))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), graph_objects(), quiver_objects())
def test_cli_contract_on_random_inputs(data, graph, quiver):
    # exit 0, 1 (a failed check: gppv-check, dt), 2 (usage or parse error)
    # or 3 (violated precondition), with no traceback; an error prints one
    # line, and a failed check at most one
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, obj in (("g.json", graph), ("q.json", quiver)):
            files[name] = os.path.join(tmp, name)
            with open(files[name], "w") as fh:
                json.dump(obj, fh)
        args = data.draw(commands(files["g.json"], files["q.json"]))
        res = CliRunner().invoke(main, args, env={cli.CACHE_ENV: None})
    assert res.exception is None or isinstance(res.exception, SystemExit), args
    assert res.exit_code in ((0, 1, 2, 3) if args[0] in ("gppv-check", "dt") else (0, 2, 3)), args
    assert "Traceback" not in res.output
    if res.exit_code > 1:
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, (args, res.stderr)
    else:
        assert res.stderr.count("\n") <= res.exit_code, (args, res.stderr)
