"""CI gate: fail the build when a measured contract regresses.

Every gate is one row of :data:`GATES` — ``(file, key, predicate,
message)``: the predicate gets the key's value and the whole document
and returns ``True`` when the contract holds — a row that can say what
broke returns that as a string instead of ``False``; the message says
what the contract is.  One loop reads each ``BENCH_E*.json`` at the
repo root, checks its rows and prints one line per row (``ok`` or
``FAIL``, the file, the key, the message and what broke); any failing
row makes the exit status 1.
``BENCH_E12.json`` must be present (its path may be given as the first
argument); the other files are gated only when present, so the gate
keeps working on partial benchmark runs.

Absolute wall-clock numbers are machine-dependent, so the rows compare
a machine-normalised quantity from one and the same run, or a verdict
the benchmark computed — except the two observer planes, whose cost
per unit of their own work is wall-clock against the budget the
benchmark wrote beside it (3x headroom), because a share of the run's
wall time moves whenever the thing being observed gets cheaper:

* **E12 (fast path)** — ``depth_extra_probes`` (row probes per lookup
  the deep one-mask table makes beyond the shallow one, cache off) is a
  count of a seeded run and must equal the committed
  ``baseline_e12.json``; ``depth_ratio`` (the same two tables' packets
  per wall second) has the hard ``DEPTH_FLOOR`` on every machine;
  ``hit_speedup`` and ``mask_speedup`` (what the microflow cache earns
  over one and 64 masks) may drop at most ``TOLERANCE`` below the
  committed ``baseline_e12.json``.
* **E14 (obs plane)** — bit-identity with the plane on vs off, and the
  wall cost of one scrape under its budget: the difference of two whole
  runs per scrape, and the median time of one ``scrape_now`` per
  library spec, measured around each call.
* **E15 (controller cluster)** — clean invariants, 100% delivery
  before and after the crash, and 2-/3-controller failover within the
  recovery SLO (sim time) and faster than a single-controller restart.
* **E16 (workload suite)** — digests identical across worker counts,
  paired run artifacts diff clean, and every scenario equal to its
  committed ``baseline_e16.json`` golden (the only gate on the library
  digests across commits) with flows completed.  A golden holds the
  digest, one digest per artifact section (``repro.digest.
  section_digests``: ``series`` split by metric family) and the
  observables a reader checks first, so a FAIL line names the scenario,
  each section that is absent, new or changed, and the ``python -m
  repro report`` command over the run document that explains it (the
  benchmark writes one per scenario under ``E16_ARTIFACTS``).
* **E17 (sharded kernel)** — merged observables identical across shard
  counts and coordinators, equal to the committed ``baseline_e17.json``
  digest, flows completed.  The 4-shard speedup is reported by the
  benchmark, not gated: no machine this project runs on can measure it.
* **E18 (trace plane)** — three bit-identity verdicts (single-process,
  sharded merged digest, clustered dataplane digest, each with tracing
  on vs off), the wall cost per recorded span at 1-in-8 sampling under
  its budget, boundary-crossing traces in the merged sharded artifact,
  and a handover critical path from the clustered fault run.

Usage (after the benchmark smoke run has written the BENCH files)::

    python benchmarks/check_regression.py [path/to/BENCH_E12.json]
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

TOLERANCE = 0.30     # >30% hit/mask_speedup regression vs baseline fails
DEPTH_FLOOR = 0.8    # E12's contract, machine-independent


def _read(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


E12_BASE = _read(os.path.join(HERE, "baseline_e12.json"))
E16_BASE = _read(os.path.join(HERE, "baseline_e16.json"))
E17_BASE = _read(os.path.join(HERE, "baseline_e17.json"))


def _cache_floor(ratio: str):
    return lambda v, d: v >= E12_BASE[ratio] * (1.0 - TOLERANCE)


def _scrapes_in_budget(per_spec: dict, doc: dict):
    over = [f"{name} {us:.0f} us" for name, us in sorted(per_spec.items())
            if us >= doc["scrape_budget_us"]]
    return "; ".join(over) or True


def _failover_ok(recovery: dict, doc: dict) -> bool:
    return all(recovery[n] <= doc["recovery_slo_s"]
               and recovery[n] < recovery["1"] for n in ("2", "3"))


#: What a library golden pins beside its digest and sections.
E16_OBSERVABLES = ("events", "flows_completed", "health_ok")
#: Where the E16 benchmark saves each scenario's run document.
E16_ARTIFACTS = "benchmarks/results/e16_artifacts"


def golden_moves(golden: dict, run: dict) -> list:
    """What ``run`` (a ``BENCH_E16.json`` scenario record) moved
    against its ``baseline_e16.json`` golden: each observable that
    differs, then each section that is absent, new or changed."""
    moved = [f"{key} {golden[key]} -> {run.get(key)}"
             for key in E16_OBSERVABLES if run.get(key) != golden[key]]
    blessed, sections = golden["sections"], run.get("sections", {})
    moved += [("absent " if key not in sections
               else "new " if key not in blessed else "changed ") + key
              for key in sorted(blessed.keys() | sections.keys())
              if blessed.get(key) != sections.get(key)]
    if not moved and run.get("digest") != golden["digest"]:
        moved.append("digest")
    return moved


def _library_ok(scenarios: dict, doc: dict):
    broke = []
    for name, golden in sorted(E16_BASE["scenarios"].items()):
        run = scenarios.get(name)
        moved = ["absent"] if run is None else golden_moves(golden, run)
        if moved:
            broke.append(f"{name}: " + ", ".join(moved)
                         + f" (python -m repro report {E16_ARTIFACTS}/"
                           f"{name}.json)")
    broke += [f"{name}: no flow completed"
              for name, run in sorted(scenarios.items())
              if run["flows_completed"] <= 0]
    return "; ".join(broke) or True


GATES = [
    ("BENCH_E12.json", "depth_extra_probes",
     lambda v, d: v == E12_BASE["depth_extra_probes"],
     "a deep one-mask table makes the row probes per lookup beyond the "
     "shallow one that baseline_e12.json records (at most one each)"),
    ("BENCH_E12.json", "depth_ratio", lambda v, d: v >= DEPTH_FLOOR,
     f"a deep one-mask table runs at >= {DEPTH_FLOOR}x the shallow one "
     f"(table depth is free)"),
    ("BENCH_E12.json", "hit_speedup", _cache_floor("hit_speedup"),
     f"microflow cache over one mask within {TOLERANCE:.0%} of "
     f"baseline_e12.json"),
    ("BENCH_E12.json", "mask_speedup", _cache_floor("mask_speedup"),
     f"microflow cache over 64 masks within {TOLERANCE:.0%} of "
     f"baseline_e12.json"),
    ("BENCH_E14.json", "identical", lambda v, d: v is True,
     "the obs plane leaves the seeded run bit-identical"),
    ("BENCH_E14.json", "scrape_cost_us",
     lambda v, d: v < d["scrape_budget_us"],
     "one scrape costs less than scrape_budget_us"),
    ("BENCH_E14.json", "scrape_now_us", _scrapes_in_budget,
     "the median scrape_now of every library spec takes less than "
     "scrape_budget_us"),
    ("BENCH_E15.json", "clean", lambda v, d: v is True,
     "cluster invariants hold after recovery"),
    ("BENCH_E15.json", "delivered", lambda v, d: v is True,
     "every cluster run delivers 100% before and after the crash"),
    ("BENCH_E15.json", "recovery_s", _failover_ok,
     "2- and 3-controller failover within recovery_slo_s and faster "
     "than a single-controller restart"),
    ("BENCH_E16.json", "identical", lambda v, d: v is True,
     "workload suite digests do not depend on the worker count"),
    ("BENCH_E16.json", "diff_clean", lambda v, d: v is True,
     "paired workload run artifacts diff clean"),
    ("BENCH_E16.json", "scenarios", _library_ok,
     "every library scenario equals its baseline_e16.json golden (or "
     "refresh it deliberately) and completes flows"),
    ("BENCH_E17.json", "identical", lambda v, d: v is True,
     "sharded observables do not depend on the shard count"),
    ("BENCH_E17.json", "digest", lambda v, d: v == E17_BASE["digest"],
     "the sharded bench digest equals baseline_e17.json (or refresh "
     "it deliberately)"),
    ("BENCH_E17.json", "flows_completed", lambda v, d: v > 0,
     "the sharded bench completes flows"),
    ("BENCH_E18.json", "identical", lambda v, d: v is True,
     "tracing leaves the seeded run bit-identical"),
    ("BENCH_E18.json", "sharded_identical", lambda v, d: v is True,
     "tracing leaves the sharded observables digest unchanged"),
    ("BENCH_E18.json", "cluster_identical", lambda v, d: v is True,
     "tracing leaves the clustered dataplane digest unchanged"),
    ("BENCH_E18.json", "span_cost_us",
     lambda v, d: v < d["span_budget_us"],
     "a recorded span costs less than span_budget_us"),
    ("BENCH_E18.json", "cross_shard_traces", lambda v, d: v > 0,
     "some trace crosses a shard boundary"),
    ("BENCH_E18.json", "handover_critical_path_s", lambda v, d: v > 0,
     "the clustered fault run records a handover critical path"),
]


def _show(value) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    if isinstance(value, (dict, list)):
        return f"<{len(value)} entries>"
    return str(value)


def main(argv) -> int:
    paths = {"BENCH_E12.json": argv[1] if len(argv) > 1
             else os.path.join(ROOT, "BENCH_E12.json")}
    failed = 0
    docs = {}
    for name, key, holds, message in GATES:
        if name not in docs:
            path = paths.get(name, os.path.join(ROOT, name))
            try:
                docs[name] = _read(path)
            except OSError as exc:
                if name == "BENCH_E12.json":
                    print(f"FAIL: cannot read {path}: {exc}")
                    return 1
                docs[name] = None
                print(f"skip: {name} absent")
        doc = docs[name]
        if doc is None:
            continue
        value = doc[key]
        verdict = holds(value, doc)
        broke = isinstance(verdict, str)
        ok = bool(verdict) and not broke
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'}: {name} {key}={_show(value)}: "
              f"{message}{': ' + verdict if broke else ''}")
    print(f"{len(GATES)} gates, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
