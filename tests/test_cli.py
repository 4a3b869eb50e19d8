import json

import pytest
from click.testing import CliRunner

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
    ], ids=["graph-not-a-tree", "wrt-graph-not-a-tree",
            "quiver-not-symmetric", "order-below-delta",
            "su3-order-below-delta"])
    def test_exit_code(self, tmp_path, args, code):
        files = {"{cycle}": NOT_A_TREE,
                 "{skew}": {"n": 2, "C": [[0, 1], [2, 0]], "xi": [0, 0],
                            "gamma": [0, 0]}}
        for name, obj in files.items():
            (tmp_path / name).write_text(json.dumps(obj))
        res = run(*(str(tmp_path / a) if a in files else a for a in args))
        assert res.exit_code == code
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("error: ")
        assert res.output.count("\n") == 1


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
