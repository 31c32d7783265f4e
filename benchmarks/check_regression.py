"""CI gate: fail the build when a measured contract regresses.

Absolute wall-clock numbers are machine-dependent, so the gates
compare a machine-normalised quantity from one and the same run —
except the two observer planes, whose cost per unit of their own work
is wall-clock with 3x headroom, because a share of the run's wall time
moves whenever the thing being observed gets cheaper:

* **E12 (fast path)** — three ratios.  ``depth_ratio`` (deep one-mask
  table / shallow table, cache off) is the classifier's contract: 512
  same-shape rules must be (nearly) free, so it fails under the hard
  ``DEPTH_FLOOR``, on every machine.  ``hit_speedup`` (cache on / off
  on the one-mask table: what a hit saves when a lookup is two probes)
  and ``mask_speedup`` (cache on / off over 64 masks) are what the
  microflow cache earns; each fails when it drops more than
  ``TOLERANCE`` below the committed baseline
  (``benchmarks/baseline_e12.json``).
* **E14 (obs plane)** — the wall-clock cost of one scrape (obs on
  minus off, same seed, min of reps, over the scrapes taken) against
  the budget the benchmark wrote next to it, and the bit-identity
  verdict.  The overhead percentage is printed, not gated.  Gated only
  when ``BENCH_E14.json`` is present, so the fast-path gate keeps
  working on partial benchmark runs.
* **E15 (controller cluster)** — the crash-recovery verdicts: every
  run delivered 100% before and after the crash with clean cluster
  invariants, 2- and 3-controller failover completed within the
  recovery SLO (sim time, machine-independent), and recovery never
  degraded as the cluster grew.  Gated only when ``BENCH_E15.json`` is
  present.
* **E16 (workload suite)** — the reproducibility verdicts: per-scenario
  digests identical across worker counts and equal to the committed
  references in ``benchmarks/baseline_e16.json`` (the only gate on the
  library digests across commits), paired run artifacts diff clean, and
  every scenario completed flows.  Gated only when ``BENCH_E16.json``
  is present.
* **E17 (sharded kernel)** — bit-identity of the merged observables
  across shard counts and coordinators (gated on every machine, and
  against the committed reference digest in
  ``benchmarks/baseline_e17.json``), plus the 4-shard speedup floor —
  a pure ratio from one run, gated only on machines with at least
  ``E17_MIN_CPUS`` CPUs (starved CI runners cannot parallelise and
  would fail vacuously).  Gated only when ``BENCH_E17.json`` is
  present.
* **E18 (trace plane)** — the wall-clock cost per recorded span at
  the always-on sampling config (1-in-8, min of reps) against the
  budget the benchmark wrote next to it (the overhead percentage is
  printed, not gated), and three bit-identity verdicts: single-process observables, sharded merged
  digest, and clustered dataplane digest, each with tracing on vs
  off.  Also requires that the merged sharded artifact contained
  boundary-crossing traces and the clustered fault run produced a
  handover critical path.  Gated only when ``BENCH_E18.json`` is
  present.

Usage (after the benchmark smoke run has written the BENCH files)::

    python benchmarks/check_regression.py [path/to/BENCH_E12.json]
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, "baseline_e12.json")
DEFAULT_CURRENT = os.path.join(os.path.dirname(HERE), "BENCH_E12.json")

TOLERANCE = 0.30     # >30% hit/mask_speedup regression vs baseline fails
DEPTH_FLOOR = 0.8    # E12's contract, machine-independent

E14_CURRENT = os.path.join(os.path.dirname(HERE), "BENCH_E14.json")

E15_CURRENT = os.path.join(os.path.dirname(HERE), "BENCH_E15.json")

E16_CURRENT = os.path.join(os.path.dirname(HERE), "BENCH_E16.json")
E16_BASELINE = os.path.join(HERE, "baseline_e16.json")

E17_CURRENT = os.path.join(os.path.dirname(HERE), "BENCH_E17.json")
E17_BASELINE = os.path.join(HERE, "baseline_e17.json")
E17_MIN_CPUS = 4

E18_CURRENT = os.path.join(os.path.dirname(HERE), "BENCH_E18.json")


def check_e14() -> int:
    """Gate the obs plane when its benchmark ran; 0 = pass."""
    if not os.path.exists(E14_CURRENT):
        print("obs gate: BENCH_E14.json absent, skipping")
        return 0
    with open(E14_CURRENT) as fh:
        current = json.load(fh)
    cost = current["scrape_cost_us"]
    budget = current["scrape_budget_us"]
    identical = current["identical"]
    print(f"obs plane: {cost:.0f} us per scrape (budget {budget:.0f} us), "
          f"{current['overhead_pct']:.2f}% of the run, "
          f"bit-identical={identical}")
    if not identical:
        print("FAIL: obs plane perturbed the seeded run")
        return 1
    if cost >= budget:
        print(f"FAIL: a scrape costs {cost:.0f} us, at or above the "
              f"{budget:.0f} us budget")
        return 1
    print("OK: obs plane within budget")
    return 0


def check_e15() -> int:
    """Gate the controller cluster when its benchmark ran; 0 = pass."""
    if not os.path.exists(E15_CURRENT):
        print("cluster gate: BENCH_E15.json absent, skipping")
        return 0
    with open(E15_CURRENT) as fh:
        current = json.load(fh)
    recovery = current["recovery_s"]
    slo = current["recovery_slo_s"]
    summary = ", ".join(f"N={n}: {recovery[n]:.3f}s"
                        for n in sorted(recovery))
    print(f"controller cluster: recovery {summary} "
          f"(failover SLO {slo:.2f}s), clean={current['clean']}, "
          f"delivered={current['delivered']}")
    if not current["clean"]:
        print("FAIL: cluster invariants violated after recovery")
        return 1
    if not current["delivered"]:
        print("FAIL: a cluster run dropped traffic before or after "
              "the crash")
        return 1
    solo = recovery["1"]
    for n in ("2", "3"):
        if recovery[n] > slo:
            print(f"FAIL: {n}-controller failover took "
                  f"{recovery[n]:.3f}s, over the {slo:.2f}s SLO")
            return 1
        if recovery[n] >= solo:
            print(f"FAIL: {n}-controller failover ({recovery[n]:.3f}s) "
                  f"no faster than the single-controller restart "
                  f"({solo:.3f}s)")
            return 1
    print("OK: cluster failover within SLO and faster than a restart")
    return 0


def check_e16() -> int:
    """Gate the workload suite when its benchmark ran; 0 = pass."""
    if not os.path.exists(E16_CURRENT):
        print("workload gate: BENCH_E16.json absent, skipping")
        return 0
    with open(E16_CURRENT) as fh:
        current = json.load(fh)
    with open(E16_BASELINE) as fh:
        baseline = json.load(fh)
    identical = current["identical"]
    diff_clean = current["diff_clean"]
    scenarios = current["scenarios"]
    print(f"workload suite: {len(scenarios)} scenario(s), "
          f"digests identical across worker counts={identical}, "
          f"paired diffs clean={diff_clean}")
    if not identical:
        print("FAIL: workload suite digests depend on the worker count")
        return 1
    if not diff_clean:
        print("FAIL: paired workload run artifacts diverged")
        return 1
    for name, digest in sorted(baseline["digests"].items()):
        got = scenarios.get(name, {}).get("digest", "absent")
        if got != digest:
            print(f"FAIL: workload {name!r} digest {got[:16]} drifted "
                  f"from committed reference {digest[:16]} — the "
                  f"simulation changed behaviour (or refresh "
                  f"baseline_e16.json deliberately)")
            return 1
    starved = [name for name, s in sorted(scenarios.items())
               if s["flows_completed"] <= 0]
    if starved:
        print(f"FAIL: scenario(s) completed no flows: {starved}")
        return 1
    print("OK: workload suite reproducible and productive")
    return 0


def check_e17() -> int:
    """Gate the sharded kernel when its benchmark ran; 0 = pass."""
    if not os.path.exists(E17_CURRENT):
        print("shard gate: BENCH_E17.json absent, skipping")
        return 0
    with open(E17_CURRENT) as fh:
        current = json.load(fh)
    with open(E17_BASELINE) as fh:
        baseline = json.load(fh)
    identical = current["identical"]
    cpus = current.get("cpu_count", 1)
    speedup = current["speedup_4_shards"]
    floor = current.get("min_speedup", baseline["min_speedup"])
    print(f"sharded kernel: digests identical across shard "
          f"counts/coordinators={identical}, 4-shard speedup "
          f"{speedup:.2f}x (floor {floor:.1f}x, gated when "
          f">= {E17_MIN_CPUS} CPUs; this run saw {cpus})")
    if not identical:
        print("FAIL: sharded observables depend on the shard count")
        return 1
    if current["digest"] != baseline["digest"]:
        print(f"FAIL: sharded bench digest {current['digest'][:16]} "
              f"drifted from committed reference "
              f"{baseline['digest'][:16]} — the simulation changed "
              f"behaviour (or refresh baseline_e17.json deliberately)")
        return 1
    if current["flows_completed"] <= 0:
        print("FAIL: sharded bench completed no flows")
        return 1
    if cpus >= E17_MIN_CPUS and speedup < floor:
        print(f"FAIL: 4-shard speedup {speedup:.2f}x below "
              f"{floor:.1f}x on a {cpus}-CPU machine")
        return 1
    print("OK: sharded kernel bit-identical"
          + ("" if cpus >= E17_MIN_CPUS
             else " (speedup floor skipped: too few CPUs)"))
    return 0


def check_e18() -> int:
    """Gate the trace plane when its benchmark ran; 0 = pass."""
    if not os.path.exists(E18_CURRENT):
        print("trace gate: BENCH_E18.json absent, skipping")
        return 0
    with open(E18_CURRENT) as fh:
        current = json.load(fh)
    cost = current["span_cost_us"]
    budget = current["span_budget_us"]
    identical = current["identical"]
    sample = current.get("sample_every", 1)
    print(f"trace plane: {cost:.2f} us per recorded span at 1-in-"
          f"{sample} sampling (budget {budget:.1f} us), "
          f"{current['overhead_pct']:.2f}% of the run, "
          f"bit-identical={identical}, "
          f"sharded={current['sharded_identical']}, "
          f"cluster={current['cluster_identical']}, "
          f"cross-shard traces={current['cross_shard_traces']}")
    if not identical:
        print("FAIL: trace plane perturbed the seeded run")
        return 1
    if not current["sharded_identical"]:
        print("FAIL: tracing changed the sharded observables digest")
        return 1
    if not current["cluster_identical"]:
        print("FAIL: tracing changed the clustered dataplane digest")
        return 1
    if cost >= budget:
        print(f"FAIL: a recorded span costs {cost:.2f} us, at or above "
              f"the {budget:.1f} us budget")
        return 1
    if current["cross_shard_traces"] <= 0:
        print("FAIL: no trace crossed a shard boundary")
        return 1
    if current["handover_critical_path_s"] <= 0:
        print("FAIL: clustered fault run recorded no handover "
              "critical path")
        return 1
    print("OK: trace plane within budget and invisible to the runs")
    return 0


def main(argv) -> int:
    current_path = argv[1] if len(argv) > 1 else DEFAULT_CURRENT
    try:
        with open(current_path) as fh:
            current = json.load(fh)
    except OSError as exc:
        print(f"regression gate: cannot read {current_path}: {exc}")
        return 1
    with open(BASELINE) as fh:
        baseline = json.load(fh)

    depth_ratio = current["depth_ratio"]
    print(f"classifier depth ratio: current {depth_ratio:.2f}x "
          f"(baseline {baseline['depth_ratio']:.2f}x), "
          f"hard floor {DEPTH_FLOOR:.1f}x")
    if depth_ratio < DEPTH_FLOOR:
        print(f"FAIL: a deep one-mask table runs at {depth_ratio:.2f}x "
              f"the shallow one, below the hard floor {DEPTH_FLOOR:.1f}x "
              f"— table depth costs again")
        return 1
    for ratio, over in (("hit_speedup", "one mask"),
                        ("mask_speedup", "64 masks")):
        speedup, base_speedup = current[ratio], baseline[ratio]
        floor = base_speedup * (1.0 - TOLERANCE)
        print(f"microflow cache over {over}: current {speedup:.2f}x, "
              f"baseline {base_speedup:.2f}x, "
              f"floor {floor:.2f}x (tolerance {TOLERANCE:.0%})")
        if speedup < floor:
            print(f"FAIL: {ratio} {speedup:.2f}x regressed more "
                  f"than {TOLERANCE:.0%} from baseline {base_speedup:.2f}x")
            return 1
    print("OK: fast path within budget")
    for gate in (check_e14, check_e15, check_e16, check_e17, check_e18):
        rc = gate()
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
