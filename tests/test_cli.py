"""CLI smoke tests (argument handling and end-to-end demo runs)."""

import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import repro
from repro.cli import _parser, build_topology, main
from repro.errors import TopologyError
from repro.sim import Simulator

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestBuildTopology:
    @pytest.mark.parametrize("name", [
        "linear", "single", "ring", "star", "tree", "fat_tree",
        "mesh", "waxman", "carrier_wan",
    ])
    def test_every_builder_validates(self, name):
        topo = build_topology(name, 4, 1e9)
        topo.validate()

    def test_carrier_wan_tiers(self):
        topo = build_topology("carrier_wan", 4, 1e9)
        names = {node.name for node in topo.switches}
        assert {"core0", "core1", "core2", "core3"} <= names
        assert any(n.startswith("m") for n in names)
        assert any(n.startswith("a") for n in names)
        assert topo.hosts

    def test_fat_tree_size_rounded_to_even(self):
        topo = build_topology("fat_tree", 3, 1e9)
        assert len(topo.switches) == 20  # k=4

    def test_unknown_name_is_a_named_error(self):
        with pytest.raises(TopologyError, match="donut"):
            build_topology("donut", 4, 1e9)

    def test_library_code_never_imports_the_cli(self):
        src = pathlib.Path(repro.__file__).parent
        assert [str(p) for p in src.rglob("*.py") if p.name != "__main__.py"
                and re.search(r"^\s*(from|import) repro\.cli\b",
                              p.read_text(), re.M)] == []


class TestCommands:
    def test_demo_succeeds_on_ring(self, capsys):
        code = main(["demo", "--topology", "ring", "--size", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "All-pairs ping delivery: 100%" in out
        assert "Per-switch state" in out

    def test_demo_reactive_profile(self, capsys):
        code = main(["demo", "--topology", "single", "--size", "3",
                     "--profile", "reactive"])
        assert code == 0
        assert "100%" in capsys.readouterr().out

    def test_demo_is_deterministic(self, capsys):
        main(["demo", "--topology", "linear", "--size", "3",
              "--seed", "5"])
        first = capsys.readouterr().out
        main(["demo", "--topology", "linear", "--size", "3",
              "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_topology_description(self, capsys):
        code = main(["topology", "fat_tree", "--size", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "32 switch-to-switch" in out

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_corpus_replay_prints_one_line_per_seed(self, tmp_path,
                                                     capsys):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({"seeds": [2], "cluster_seeds": [0]}))
        assert main(["check", "replay", "--path", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "seed      2 clean", "cluster seed      0 clean (2 instances)"]

    def test_a_failed_replay_names_its_cluster_violations(
            self, tmp_path, capsys, monkeypatch):
        """A cluster-only failure names what broke, not just
        VIOLATIONS."""
        from repro.check import cluster
        from repro.workload import WorkloadSpec

        breach = cluster.ClusterViolation(
            "single-master", "dual-master", "dpid 1 has masters [0, 1]")
        monkeypatch.setattr(cluster, "check_cluster",
                            lambda *_args: [breach])
        path = tmp_path / "split.json"
        path.write_text(json.dumps(WorkloadSpec(
            "split", topology={"family": "ring", "size": 3}, traffic=[],
            controllers=2, duration=1.0).to_dict()))
        assert main(["check", "replay", "--path", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("replayed split: VIOLATIONS (digest ")
        assert lines[1:] == ["  single-master: dpid 1 has masters [0, 1]"]

    @staticmethod
    def _experiment_headings():
        """EXPERIMENTS.md is the experiment list: ``## EN`` and
        ``### AN`` headings, each id mapped to its title."""
        text = (REPO / "EXPERIMENTS.md").read_text()
        return {e or a: title.strip() for e, a, title in re.findall(
            r"^(?:## (E\d+)|### (A\d+))\b(.*)$", text, re.MULTILINE)}

    def test_bench_listing(self):
        headings = self._experiment_headings()
        for exp_id in ("E1", "E10", "A2"):
            assert headings[exp_id].strip(" /—-"), exp_id

    def test_bench_lists_every_benchmark(self):
        """Every ``benchmarks/test_[ea]N_*.py`` has its ``## EN`` or
        ``### AN`` section in EXPERIMENTS.md."""
        benchmarks = REPO / "benchmarks"
        ids = {re.match(r"test_([ea]\d+)_", path.name).group(1).upper()
               for path in benchmarks.glob("test_[ea][0-9]*_*.py")}
        assert len(ids) >= 22
        assert ids <= set(self._experiment_headings()), sorted(
            ids - set(self._experiment_headings()))

    @pytest.mark.parametrize("argv", [
        ["obs", "dashboard", "--path", "run.json"],
        ["trace", "critical-path", "run.json"],
        ["trace", "report"],
        ["obs", "report", "--faults", "link"],
        ["trace", "--controllers", "3", "--fault", "controller"],
        ["workload", "run", "--name", "dc-heavy-tail"],
        ["telemetry", "--size", "2"],
        ["faults", "--controllers", "3", "--fault", "controller"],
        ["bench"],
        ["workload", "suite", "--shards", "1"],
        ["run", "--controllers", "3", "--fault", "controller", "--flight"],
    ])
    def test_the_old_readers_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_readme_cli_lines_parse(self):
        """Every ``python -m repro`` line in README.md's code blocks is
        a valid command line (parsed only: nothing runs)."""
        readme = (REPO / "README.md").read_text()
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme,
                            re.MULTILINE | re.DOTALL)
        lines = [line.split("#", 1)[0]
                 for block in blocks for line in block.splitlines()
                 if line.startswith("python -m repro ")]
        assert len(lines) >= 15
        for line in lines:
            _parser().parse_args(shlex.split(line)[3:])


class TestNamedErrors:
    """A bad input ends in one ``repro: error:`` line, not a traceback."""

    @pytest.mark.parametrize("document, names", [
        ({"version": 1, "name": "x",
          "topology": {"family": "ring"}}, "traffic"),
        ({"version": 1, "name": "x", "topology": {"family": "donut"},
          "traffic": []}, "donut"),
        ({"version": 1, "name": "x", "topology": {"family": "ring"},
          "traffic": [{"kind": "telepathy"}]}, "telepathy"),
        ({"version": 1, "name": "x", "topology": {"family": "ring"},
          "traffic": [], "interval": 0}, "interval"),
        ({"version": 1, "name": "x", "topology": {"family": "ring"},
          "traffic": [], "duration": -1}, "duration"),
    ])
    def test_malformed_spec_document(self, document, names, tmp_path,
                                     capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        code = main(["check", "replay", "--path", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("repro: error: ") and names in line

    @pytest.mark.parametrize("document, names", [
        ({"name": "x", "topology": {"family": "ring", "params": {"n": 3}},
          "traffic": []}, "'params' does not fit Topology.ring"),
        ({"name": "x", "topology": {"family": "ring", "size": 3},
          "traffic": [{"kind": "flows", "rate": "fast"}]},
         "traffic[0] field 'rate' must be a number"),
        ({"name": "x", "topology": {"family": "ring", "size": 3},
          "traffic": [{"kind": "diurnal", "period": 0}]},
         "traffic[0] field 'period' must be > 0"),
        ({"name": "x", "topology": {"family": "ring", "size": 3},
          "traffic": [{"kind": "diurnal", "trough": 1.5}]},
         "traffic[0] field 'trough' must be in [0, 1]"),
        ({"name": "x", "topology": {"family": "ring", "size": 3},
          "traffic": [{"kind": "flows", "rate": 0}]},
         "traffic[0] field 'rate' must be > 0"),
        ({"name": "x", "topology": {"family": "ring", "size": 3},
          "traffic": [{"kind": "incast", "period": 0}]},
         "traffic[0] field 'period' must be > 0"),
        ({"name": "x", "topology": {"family": "ring", "size": "four"},
          "traffic": []}, "topology field 'size' must be an integer"),
        ({"name": "x", "topology": {"family": "ring", "size": 3,
                                    "bandwidth": "fast"},
          "traffic": []}, "topology field 'bandwidth' must be a number"),
        ({"name": "x", "topology": {"family": "ring", "size": 3,
                                    "bandwidth": -5},
          "traffic": []}, "topology field 'bandwidth' must be a number"),
        ({"name": "x", "topology": {"family": "linear", "size": 0},
          "traffic": []}, "topology field 'size' must be >= 1"),
    ])
    @pytest.mark.parametrize("argv", [
        ["run", "--spec"],
        ["check", "replay", "--path"],
        ["run", "--shards", "1", "--spec"],
    ])
    def test_bad_spec_fields_fail_before_any_simulated_time(
            self, document, names, argv, tmp_path, capsys, monkeypatch):
        def run(*_args, **_kwargs):
            raise AssertionError("simulated time ran")

        monkeypatch.setattr(Simulator, "run", run)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        code = main(argv + [str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("repro: error: ")
        assert "workload spec 'x'" in line and names in line

    @pytest.mark.parametrize("argv, names", [
        (["run", "--fault", "channel", "--cycles", "0"], "--cycles"),
        (["run", "--topology", "linear", "--size", "1", "--fault",
          "link"], "no switch neighbour"),
        (["run", "--fault", "controller"], "--controllers"),
        (["run", "--fault", "link", "--target", "nosuch"], "nosuch"),
        (["run", "--interval", "0"], "interval"),
        (["run", "--duration", "-1"], "duration"),
        (["run", "--name", "incast-storm", "--duration", "-1"], "duration"),
        (["run", "--shards", "0"], "--shards must be >= 1"),
        (["run", "--shard-sequential"], "--shard-sequential needs --shards"),
        (["workload", "suite", "--jobs", "0"], "--jobs must be >= 1"),
        (["run", "--name", "incast-storm", "--monitor", "--shards", "1"],
         "--monitor needs the platform"),
        (["run", "--name", "incast-storm", "--fault", "link"],
         "--fault cannot change a --name or --spec run"),
        (["run", "--spec", "run.json", "--topology", "ring", "--cycles",
          "3"], "--topology, --cycles cannot change"),
        (["run", "--name", "incast-storm", "--controllers", "3"],
         "--controllers cannot change"),
        (["run", "--name", "incast-storm", "--spec", "run.json"],
         "--name or --spec, not both"),
        (["report", "run.json", "--width", "0"], "--width must be >= 1"),
        (["check", "fuzz", "--seeds", "-1"], "--seeds must be >= 1"),
        (["workload", "suite", "--jobs", "-3"], "--jobs must be >= 1"),
        (["demo", "--pings", "0"], "--pings must be >= 1"),
        (["report", "run.json", "--max-series", "0"],
         "--max-series must be >= 1"),
    ])
    def test_bad_run_flags_fail_before_any_simulated_time(
            self, argv, names, capsys, monkeypatch):
        def run(*_args, **_kwargs):
            raise AssertionError("simulated time ran")

        monkeypatch.setattr(Simulator, "run", run)
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("repro: error: ") and names in line

    @pytest.mark.parametrize("content",
                             [None, "{not json", '{"format": "x"}'])
    @pytest.mark.parametrize("argv", [
        ["diff", "{path}", "{path}"],
        ["report", "{path}"],
        ["report", "{path}", "--select", "fault", "--tree"],
        ["check", "replay", "--path", "{path}"],
        ["run", "--spec", "{path}"],
    ])
    def test_missing_or_malformed_artifact(self, argv, content, tmp_path,
                                           capsys):
        path = tmp_path / "artifact.json"
        if content is not None:
            path.write_text(content)
        code = main([arg.format(path=path) for arg in argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("repro: error: ") and str(path) in line

    @pytest.mark.parametrize("argv, names", [
        (["check", "replay"], "--path"),
        (["workload", "suite", "--names", "nope"], "['nope']"),
        (["run", "--shards", "2", "--name", "nope"],
         "unknown scenario 'nope'"),
    ])
    def test_missing_or_unknown_arguments_fail_before_any_simulated_time(
            self, argv, names, capsys, monkeypatch):
        def run(*_args, **_kwargs):
            raise AssertionError("simulated time ran")

        monkeypatch.setattr(Simulator, "run", run)
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("repro: error: ") and names in line

    def test_unknown_workload_name(self):
        src = pathlib.Path(repro.__file__).parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--name", "nope"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 2 and done.stdout == ""
        (line,) = done.stderr.splitlines()
        assert line.startswith("repro: error: ")
        assert "unknown scenario 'nope'" in line
