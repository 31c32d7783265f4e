"""One run document: every run kind saves one ``repro.obs/1`` file,
through one writer, and the one reader (``repro report``) renders it."""

import json

import pytest

from repro.check import generate_scenario, run_scenario
from repro.cli import main
from repro.digest import canonical_digest, save_document
from repro.obs import RunArtifact, RunResult, load_artifact
from repro.sim.shard import run_sharded
from repro.workload import WorkloadSpec, run_workload


def _tiny_spec():
    return WorkloadSpec(
        "tiny", topology={"family": "linear", "size": 3}, seed=3,
        duration=1.0,
        traffic=[{"kind": "flows", "rate": 20.0,
                  "sizes": {"dist": "fixed", "size": 2_000},
                  "start": 0.2, "duration": 0.6}])


def _trace_dump(tmp_path, *flags):
    path = tmp_path / "dump.json"
    assert main(["run", "--topology", "linear", "--size", "3",
                 "--duration", "1.0", *flags, "--out", str(path)]) == 0
    return json.loads(path.read_text())


_RUNS = {
    "workload": lambda tmp: run_workload(_tiny_spec()).to_dict(),
    "sharded": lambda tmp: run_sharded(_tiny_spec(), shards=2,
                                       processes=False).to_dict(),
    "fuzz scenario": lambda tmp: run_scenario(generate_scenario(2),
                                              monitor=True).to_dict(),
    "trace dump": lambda tmp: _trace_dump(tmp, "--trace"),
}


@pytest.mark.parametrize("kind", sorted(_RUNS))
def test_every_run_kind_round_trips_through_the_one_document(
        kind, tmp_path, capsys):
    doc = _RUNS[kind](tmp_path)
    capsys.readouterr()
    path = tmp_path / "run.json"
    save_document(str(path), doc)
    artifact = load_artifact(str(path))
    # The digest is the run's, not a section of the artifact.
    assert artifact.to_dict() == {k: v for k, v in doc.items()
                                  if k != "digest"}
    if "digest" in doc:  # a RunResult: it rebuilds, digest and all
        assert RunResult.from_dict(json.loads(path.read_text())).digest \
            == doc["digest"]


#: What ``report`` prints for each run kind: the block each one holds.
_BLOCKS = {
    "workload": ["Health @ "],
    "sharded": ["<RunArtifact 0 series"],
    "fuzz scenario": ["checks: clean"],
    "trace dump": ["Health @ ", "critical path of trace"],
}


@pytest.mark.parametrize("kind", sorted(_RUNS))
def test_report_renders_every_run_kind(kind, tmp_path, capsys):
    path = str(tmp_path / "run.json")
    save_document(path, _RUNS[kind](tmp_path))
    capsys.readouterr()
    assert main(["report", path]) == 0
    out = capsys.readouterr().out
    for block in _BLOCKS[kind]:
        assert block in out


def test_report_prints_the_checks_verdict_and_five_violations(
        tmp_path, capsys):
    violations = [{"invariant": "loop-freedom", "message": f"loop {i}"}
                  for i in range(7)]
    path = str(tmp_path / "repro.json")
    RunArtifact(checks={"ok": False, "probes_run": 9,
                        "violations": violations}).save(path)
    assert main(["report", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["checks: VIOLATIONS (9 probes, 7 violation(s))"] + [
        f"  loop-freedom: loop {i}" for i in range(5)]


def test_report_prints_cluster_violations(tmp_path, capsys):
    """A cluster-only failure names its violations: the verdict alone
    would say VIOLATIONS and list nothing."""
    violations = [{"invariant": "single-master", "kind": "dual-master",
                   "message": "dpid 1 has masters [0, 2]", "dpid": 1,
                   "nodes": [0, 2], "time": 3.5}]
    path = str(tmp_path / "cluster.json")
    RunArtifact(checks={"ok": True, "probes_run": 4, "violations": [],
                        "cluster_violations": violations}).save(path)
    assert main(["report", path]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "checks: VIOLATIONS (4 probes, 1 violation(s))",
        "  single-master: dpid 1 has masters [0, 2]"]


def test_report_lists_the_mastership_handovers(tmp_path, capsys):
    path = str(tmp_path / "handover.json")
    assert main(["run", "--controllers", "3", "--fault", "controller",
                 "--topology", "ring", "--size", "5", "--cycles", "2",
                 "--duration", "4", "--out", path]) == 0
    capsys.readouterr()
    assert main(["report", path]) == 0
    out = capsys.readouterr().out
    table = out[out.index("Mastership handovers"):].splitlines()[4:]
    assert table[:3] == ["3.050 | dpid-1", "3.050 | dpid-4",
                         "3.050 | dpid-5"]
    assert len(table) == 12
    # A run without a cluster prints no handover block.
    run_workload(_tiny_spec()).save(path)
    assert main(["report", path]) == 0
    assert "Mastership handovers" not in capsys.readouterr().out


def test_report_exits_1_only_for_a_trace_the_document_lacks(
        tmp_path, capsys):
    path = str(tmp_path / "run.json")
    run_workload(_tiny_spec()).save(path)
    assert main(["report", path]) == 0
    assert main(["report", path, "--select", "fault"]) == 1
    assert main(["report", path, "--trace-id", "7"]) == 1
    out = capsys.readouterr().out
    assert "no fault-rooted trace in this artifact" in out
    assert "no trace #7 in this artifact" in out


def test_result_digest_scopes():
    workload = run_workload(_tiny_spec())
    assert workload.digest == workload.full_digest == canonical_digest(
        {"summary": workload.summary,
         "artifact": workload.artifact.to_dict()})
    sharded = run_sharded(_tiny_spec(), shards=1)
    assert sharded.digest == sharded.dataplane_digest == canonical_digest(
        sharded.observables)
    assert "wall_s" not in sharded.summary
    assert sharded.digest == run_sharded(_tiny_spec(), shards=2,
                                         processes=False).digest


def test_a_sharded_suite_document_diffs(tmp_path, capsys):
    saved = str(tmp_path / "incast-storm.json")
    assert main(["run", "--name", "incast-storm", "--shards", "1",
                 "--out", saved]) == 0
    assert main(["diff", saved, saved]) == 0
    assert json.loads(open(saved).read())["digest"].startswith("d972a11c")


def test_documents_that_share_no_signal_diff_by_their_digests(
        tmp_path, capsys):
    """Sharded documents hold no series, so no signal is compared: the
    recorded digests decide, and a FAIL names the sections that moved."""
    def saved(name, shards=1, seed=3):
        spec = WorkloadSpec.from_dict(dict(_tiny_spec().to_dict(),
                                           seed=seed))
        path = str(tmp_path / f"{name}.json")
        run_sharded(spec, shards=shards, processes=False).save(path)
        return path

    base, other, split = saved("a"), saved("b", seed=5), saved("c", 2)
    capsys.readouterr()
    assert main(["diff", base, other]) == 1
    out = capsys.readouterr().out
    assert "(0 signals compared)" in out
    assert "FAIL" in out and "observables" in out
    # Same dataplane digest at any shard count: only meta differs.
    assert main(["diff", base, split]) == 0
    assert "OK" in capsys.readouterr().out


def test_one_trace_document_serves_the_dashboard_and_the_critical_path(
        tmp_path, capsys):
    path = str(tmp_path / "handover.json")
    assert main(["run", "--controllers", "3", "--fault",
                 "controller", "--trace", "--duration", "2.5",
                 "--out", path]) == 0
    capsys.readouterr()
    assert main(["report", path, "--select", "fault", "--tree"]) == 0
    out = capsys.readouterr().out
    assert "Health @ " in out and "handover" in out
    # The series block comes first, then the trace block.
    assert out.index("Health @ ") < out.index("fault.controller_crash")
    assert "bus.death_detect" in out


def test_a_replay_stops_where_an_alert_fired(tmp_path, capsys):
    """``run --spec DOC --duration T --trace`` replays DOC up to T after
    the warm-up: the same timeline, cut at ``horizon - duration + T``."""
    path, upto = str(tmp_path / "h.json"), str(tmp_path / "upto.json")
    assert main(["run", "--controllers", "3", "--fault", "controller",
                 "--trace", "--out", path]) == 0
    assert main(["run", "--spec", path, "--duration", "0.6", "--trace",
                 "--out", upto]) == 0
    capsys.readouterr()
    full, cut = (json.loads(open(p).read()) for p in (path, upto))
    warm_up = full["horizon"] - full["meta"]["workload"]["duration"]
    assert warm_up == pytest.approx(2.5)
    assert cut["horizon"] == pytest.approx(warm_up + 0.6)
    assert cut["annotations"] == [a for a in full["annotations"]
                                  if a["time"] <= cut["horizon"]]
    roots = [t["spans"][0] for t in cut["traces"]
             if t["label"].startswith("fault:controller_crash")]
    assert [span["start"] for span in roots] == [warm_up + 0.5]


@pytest.mark.parametrize("source, engine", [
    (["--fault", "link"], []),
    # A shortened run: the document records the overridden duration.
    (["--name", "incast-storm", "--duration", "1"], []),
    (["--name", "incast-storm"], ["--shards", "2", "--shard-sequential"]),
    (["--controllers", "3", "--fault", "controller"], ["--trace"]),
], ids=["flag-built", "library", "sharded", "traced-cluster"])
def test_run_replays_its_own_document(source, engine, tmp_path, capsys):
    """Every document ``run`` writes records its spec and its digest,
    and ``run --spec DOC`` with the same engine flags reproduces it."""
    path = str(tmp_path / "run.json")
    assert main(["run", *source, *engine, "--out", path]) == 0
    doc = json.loads(open(path).read())
    assert doc["meta"]["workload"]["name"] and doc["digest"]
    capsys.readouterr()
    assert main(["run", "--spec", path, *engine]) == 0
    assert f"digest {doc['digest'][:16]}\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["run", "--spec"],
                                  ["check", "replay", "--path"]])
def test_a_document_that_records_no_spec_is_a_named_error(
        argv, tmp_path, capsys):
    path = str(tmp_path / "bare.json")
    RunArtifact().save(path)
    assert main(argv + [path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (f"repro: error: cannot load spec document "
                                 f"{path}: this run artifact records no "
                                 f"spec\n")
