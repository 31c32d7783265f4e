"""E16 — Workload suite: tail FCT and flow-table occupancy.

Question: what do the platform's flows actually experience under
*realistic* load — heavy-tailed datacenter mixes, incast storms, a
carrier WAN breathing through a diurnal cycle — and is the whole
scenario plane reproducible enough to gate on?

Workload: the whole ``repro.workload`` library — ``dc-heavy-tail``
(fat-tree k=4, elephant/mice Poisson mix), ``incast-storm`` (periodic
8-way fan-in at one aggregator), ``wan-diurnal`` (carrier WAN,
sinusoidal day curve, one core link flap) and ``tenant-millions``
(tenant matrices, ~2.4 M modelled users).  The suite runs twice — one
worker, then two worker processes — and every run freezes into an obs
:class:`~repro.obs.artifact.RunArtifact`.

Contract:

* per-scenario digests are bit-identical across the two suite runs —
  the process fan-out changes wall-clock only — and, in
  ``check_regression.py``, equal to the goldens committed in
  ``benchmarks/baseline_e16.json`` (identity across commits; each
  golden also pins one digest per artifact section, so a moved digest
  names the metric family or section that moved);
* ``diff_runs`` between the paired artifacts is clean (the property
  that lets CI diff workload runs against committed baselines);
* every scenario completes flows and reports tail FCT and a non-zero
  flow-table occupancy peak.

Published: per-scenario tail FCT (p50/p95/p99), flow-table peak, flow
and event counts, digest and section digests, and the reproducibility
verdicts (``BENCH_E16.json``).
"""

import os

import pytest

from repro.analysis import Table
from repro.digest import section_digests
from repro.obs import diff_runs
from repro.workload import library, run_suite, suite_digest

from harness import RESULTS_DIR, publish, publish_json

SCENARIOS = ("dc-heavy-tail", "incast-storm", "wan-diurnal",
             "tenant-millions")


def fmt_ms(value):
    return f"{value * 1e3:.1f}" if value is not None else "-"


def run_experiment():
    specs = [library()[name] for name in SCENARIOS]
    serial = run_suite(specs, jobs=1)
    parallel = run_suite(specs, jobs=2,
                         out_dir=os.path.join(RESULTS_DIR,
                                              "e16_artifacts"))
    identical = suite_digest(serial) == suite_digest(parallel)
    diffs = {
        a.spec.name: diff_runs(a.artifact, b.artifact)
        for a, b in zip(serial, parallel)
    }

    table = Table(
        "E16 — workload suite: tail FCT and flow-table occupancy "
        "(suite digests compared at 1 vs 2 worker processes)",
        ["scenario", "flows", "fct p50 ms", "fct p95 ms", "fct p99 ms",
         "table peak", "faults", "health"],
    )
    for result in serial:
        s = result.summary
        table.add_row(
            result.spec.name,
            f"{s['flows_completed']}/{s['flows_started']}",
            fmt_ms(s["fct_p50"]), fmt_ms(s["fct_p95"]),
            fmt_ms(s["fct_p99"]), s["flow_table_peak"],
            s["faults_fired"],
            "ok" if s["health_ok"] else "ALERTS",
        )
    return table, serial, parallel, identical, diffs


@pytest.fixture(scope="module")
def results():
    return run_experiment()


def test_e16_workload(results, benchmark):
    table, serial, parallel, identical, diffs = results
    publish("e16_workload", table)
    publish_json("E16", {
        "identical": identical,
        "diff_clean": all(d.ok for d in diffs.values()),
        "scenarios": {
            result.spec.name: {
                "flows_started": result.summary["flows_started"],
                "flows_completed": result.summary["flows_completed"],
                "fct_p50_s": result.summary["fct_p50"],
                "fct_p95_s": result.summary["fct_p95"],
                "fct_p99_s": result.summary["fct_p99"],
                "flow_table_peak": result.summary["flow_table_peak"],
                "health_ok": result.summary["health_ok"],
                "events": result.summary["events"],
                "digest": result.digest,
                "sections": section_digests(result.artifact.to_dict()),
            }
            for result in serial
        },
    })
    # One full scenario run, timed for the record.
    benchmark.pedantic(
        lambda: run_suite([library()["dc-heavy-tail"]], jobs=1),
        rounds=1, iterations=1,
    )

    assert identical, "suite digest depends on the worker count"
    assert [r.digest for r in serial] == [r.digest for r in parallel]
    for name, diff in diffs.items():
        assert diff.ok, f"{name}: paired runs diverged: {diff.regressions}"


def test_e16_every_scenario_produces_flows_and_occupancy(results):
    _, serial, _, _, _ = results
    assert [r.spec.name for r in serial] == list(SCENARIOS)
    for result in serial:
        s = result.summary
        assert s["flows_completed"] > 0, result.spec.name
        assert s["fct_p99"] is not None and s["fct_p99"] > 0
        assert s["flow_table_peak"] > 0
        artifact = result.artifact
        assert any(sid.startswith("workload_flow_entries")
                   for sid in artifact.series), result.spec.name
        assert artifact.health is not None


def test_e16_artifacts_written_for_diffing(results):
    _, _, parallel, _, _ = results
    out_dir = os.path.join(RESULTS_DIR, "e16_artifacts")
    for result in parallel:
        assert os.path.exists(
            os.path.join(out_dir, f"{result.spec.name}.json"))
