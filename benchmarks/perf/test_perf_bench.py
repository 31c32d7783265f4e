"""Self-test of the benchmark itself, on ``--quick`` runs.

Not part of tier 1 (``pytest.ini`` collects ``tests/`` only); run it
explicitly::

    python -m pytest benchmarks/perf -q
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)


def test_contract_names_the_runner_s_metrics_and_workloads():
    assert CONTRACT["paths"] == ["benchmarks/perf"]
    assert CONTRACT["run_seconds"] == run.RUN_SECONDS
    assert ([w["name"] for w in CONTRACT["workloads"]]
            == list(workloads.WORKLOADS))
    assert ({m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
            == run.END_TO_END_UNITS)
    assert ({m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
            == layers.PER_LAYER_UNITS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"])
               for key in ("end_to_end", "per_layer") for m in CONTRACT[key])
    assert len(CONTRACT["per_layer"]) <= 128
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


@pytest.fixture(scope="module")
def quick_runs():
    """Every workload once per mode, through the contract's command."""
    out = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", "7", "--seconds", "12",
                   "--trace", str(trace), "--quick"]
            out[name, trace] = run.run_child(cmd, 60, f"{name} trace {trace}")
    return out


def test_quick_runs_report_exactly_the_contract_s_metrics(quick_runs):
    for (name, trace), rep in quick_runs.items():
        assert rep["ok"], rep
        result = rep["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        wanted = CONTRACT["per_layer" if trace else "end_to_end"]
        assert ({k: v["unit"] for k, v in result["metrics"].items()}
                == {m["name"]: m["unit"] for m in wanted})
        if not trace:
            assert all(cell["value"] > 0
                       for cell in result["metrics"].values()), name


def test_layers_are_called_where_the_interaction_table_says(quick_runs):
    for name in workloads.WORKLOADS:
        per_layer = quick_runs[name, 1]["result"]["metrics"]
        assert run.table_findings(name, per_layer, thresholds=False) == []


def test_self_shares_and_the_untraced_share_sum_to_one(quick_runs):
    for name in workloads.WORKLOADS:
        per_layer = quick_runs[name, 1]["result"]["metrics"]
        total = sum(per_layer[f"{layer}.self_share"]["value"]
                    for layer in tracer.LAYERS)
        total += per_layer["trace.untraced_share"]["value"]
        assert total == pytest.approx(1.0, abs=0.01), name


def test_watchdog_turns_a_hung_child_into_a_named_failure():
    started = time.perf_counter()
    rep = run.run_child([sys.executable, "-c", "import time; time.sleep(60)"],
                        1.0, "hung rep")
    assert time.perf_counter() - started < 10
    assert rep["ok"] is False and rep["label"] == "hung rep"
    assert "no result within 1 s" in rep["reason"]


def test_a_crashed_child_is_named_with_its_stderr_tail():
    rep = run.run_child([sys.executable, "-c", "raise SystemExit('boom')"],
                        10, "crashed rep")
    assert rep["ok"] is False and rep["reason"] == "exit code 1"
    assert "boom" in rep["stderr_tail"][-1]


def test_without_the_sources_there_is_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        CONTRACT["command"] + ["--workload", "dc_mix", "--seed", "1",
                               "--seconds", "12", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_tracer_self_time_is_duration_minus_children():
    class Toy:
        def outer(self):
            time.sleep(0.02)
            self.inner()
            self.inner()

        def inner(self):
            time.sleep(0.01)

    spans = tracer.SpanTracer(keep=2)
    outer = spans._record("workload", "Toy.outer")
    inner = spans._record("packet", "Toy.inner")
    Toy.inner = spans._traced(Toy.inner, inner)
    Toy.outer = spans._traced(Toy.outer, outer)
    Toy().outer()
    by_layer = spans.by_layer()
    assert by_layer["packet"]["calls"] == 2
    assert by_layer["workload"]["calls"] == 1
    assert by_layer["packet"]["self_s"] == pytest.approx(0.02, abs=0.008)
    assert by_layer["workload"]["self_s"] == pytest.approx(0.02, abs=0.008)
    assert spans.total_s("Toy.outer") == pytest.approx(0.04, abs=0.012)
    assert spans.root_ns == outer[4]
    # Only the first ``keep`` spans are kept raw, parents by index.
    assert [(s[0], s[3]) for s in spans.raw] == [("Toy.outer", -1),
                                                 ("Toy.inner", 0)]
