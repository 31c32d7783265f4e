"""The benchmark regression gate: one table of rows, each able to fail.

Each test copies ``benchmarks/check_regression.py``, its baselines and
the committed ``BENCH_E*.json`` into a temp tree, doctors one key so
exactly that row's contract breaks, runs the gate and expects exit 1
with a ``FAIL`` line naming the row.
"""

import importlib.util
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "check_regression.py"

_spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


#: The one metric family ``_bad_scenarios`` moves.
MOVED_FAMILY = "series/link_tx_packets_total"


def _bad_scenarios(doc):
    scenarios = json.loads(json.dumps(doc["scenarios"]))
    name = sorted(scenarios)[0]
    scenarios[name]["digest"] = "0" * 64
    scenarios[name]["sections"][MOVED_FAMILY] = "0" * 64
    return scenarios


def _slow_failover(doc):
    return dict(doc["recovery_s"], **{"3": doc["recovery_s"]["1"]})


#: One value per gate row that breaks that row's contract.
BREAK = {
    ("BENCH_E12.json", "depth_ratio"): lambda d: 0.5,
    ("BENCH_E12.json", "hit_speedup"): lambda d: 0.1,
    ("BENCH_E12.json", "mask_speedup"): lambda d: 0.1,
    ("BENCH_E14.json", "identical"): lambda d: False,
    ("BENCH_E14.json", "scrape_cost_us"):
        lambda d: d["scrape_budget_us"],
    ("BENCH_E15.json", "clean"): lambda d: False,
    ("BENCH_E15.json", "delivered"): lambda d: False,
    ("BENCH_E15.json", "recovery_s"): _slow_failover,
    ("BENCH_E16.json", "identical"): lambda d: False,
    ("BENCH_E16.json", "diff_clean"): lambda d: False,
    ("BENCH_E16.json", "scenarios"): _bad_scenarios,
    ("BENCH_E17.json", "identical"): lambda d: False,
    ("BENCH_E17.json", "digest"): lambda d: "0" * 64,
    ("BENCH_E17.json", "flows_completed"): lambda d: 0,
    ("BENCH_E18.json", "identical"): lambda d: False,
    ("BENCH_E18.json", "sharded_identical"): lambda d: False,
    ("BENCH_E18.json", "cluster_identical"): lambda d: False,
    ("BENCH_E18.json", "span_cost_us"): lambda d: d["span_budget_us"],
    ("BENCH_E18.json", "cross_shard_traces"): lambda d: 0,
    ("BENCH_E18.json", "handover_critical_path_s"): lambda d: 0.0,
}

ROWS = [(name, key) for name, key, _holds, _message in gate.GATES]


def _copy_tree(tmp_path) -> pathlib.Path:
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    shutil.copy(SCRIPT, bench)
    for baseline in ("baseline_e12.json", "baseline_e16.json",
                     "baseline_e17.json"):
        shutil.copy(ROOT / "benchmarks" / baseline, bench)
    for name in {name for name, _key in ROWS}:
        shutil.copy(ROOT / name, tmp_path)
    return bench / "check_regression.py"


def _run(script):
    return subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True, timeout=60)


def test_every_row_has_a_breaking_value():
    assert len(set(ROWS)) == len(ROWS), "two rows gate one key"
    assert set(ROWS) == set(BREAK)


def test_committed_results_pass(tmp_path):
    done = _run(_copy_tree(tmp_path))
    assert done.returncode == 0, done.stdout
    assert "FAIL" not in done.stdout


@pytest.mark.parametrize("name, key", ROWS,
                         ids=[f"{n[6:-5]}-{k}" for n, k in ROWS])
def test_doctored_key_fails_its_row(name, key, tmp_path):
    script = _copy_tree(tmp_path)
    path = tmp_path / name
    doc = json.loads(path.read_text())
    doc[key] = BREAK[name, key](doc)
    path.write_text(json.dumps(doc))
    done = _run(script)
    assert done.returncode == 1, done.stdout
    failed = [line for line in done.stdout.splitlines()
              if line.startswith("FAIL")]
    assert failed, done.stdout
    assert all(line.startswith(f"FAIL: {name} {key}=") for line in failed)
    if (name, key) == ("BENCH_E16.json", "scenarios"):
        # The golden row names the scenario, what moved in it and the
        # command that renders the run document explaining it.
        scenario = sorted(doc[key])[0]
        assert failed[0].endswith(
            f": {scenario}: changed {MOVED_FAMILY} (python -m repro report "
            f"benchmarks/results/e16_artifacts/{scenario}.json)")
