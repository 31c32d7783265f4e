#!/usr/bin/env python3
"""ZenSDN's performance benchmark: five workloads, measured from outside.

One run (what ``BENCHMARK.json`` names as the command)::

    python3 benchmarks/perf/run.py --workload dc_mix --seed 1 \\
        --seconds 12 --trace 0|1

``--trace 0`` measures the end-to-end metrics: set-up probes, then
independently seeded units of the workload until ``--seconds`` have
passed (at least ``MIN_UNITS``), each unit one timed user-level call;
rates are medians over the units.  ``--trace 1`` reports the per-layer
ledger from one traced unit (see ``layers.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.

The whole suite (no ``--trace``)::

    python3 benchmarks/perf/run.py [--seed N] [--reps R] [--workload W]
                                   [--traced] [--quick]

runs every workload ``--reps`` times, each rep a fresh child process
under a watchdog, prints every metric by name with its unit (median,
quartiles, min/max, n), checks the outputs and exits non-zero when a
check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import faulthandler
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")  # git-ignored

#: End-to-end metrics and their units, in report order.
END_TO_END_UNITS = {
    "packets_per_wall_s": "1/s",
    "cpu_us_per_packet": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "flows_completed_share": "ratio",
}

RUN_SECONDS = 12     # BENCHMARK.json's run_seconds; the suite's default
MIN_UNITS = 3        # always measured: simulated statistics pool these
SETUP_PROBES = 5
SELF_LIMIT_S = 170   # a hung run dumps its stacks and exits non-zero
WATCHDOG_S = 90      # suite: 5x one run on the seed commit (~17 s)
DISTURBED = 1.10     # wall > 1.10 x cpu: something else had the core

#: Workloads whose every started flow must complete.  Not dc_mix: its
#: Pareto(1.2) sizes are unbounded, and a multi-megabyte elephant that
#: arrives late is still sending when the horizon closes.
LOSSLESS = ("reactive_setup", "deep_table_scan")
#: run_workload workloads: the obs plane's health verdict must be ok.
HEALTH_CHECKED = ("dc_mix", "failover_storm")


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def check_unit(name: str, unit: dict) -> List[str]:
    """Self-consistency of one unit's outputs; no golden values."""
    bad = []
    if unit["events"] <= 0 or unit["packets"] <= 0:
        bad.append(f"{unit['events']} events, {unit['packets']} packets")
    if unit["flows_completed"] > unit["flows_started"]:
        bad.append(f"{unit['flows_completed']} flows completed of "
                   f"{unit['flows_started']} started")
    if name in LOSSLESS and unit["flows_completed"] != unit["flows_started"]:
        bad.append(f"{unit['flows_started'] - unit['flows_completed']} of "
                   f"{unit['flows_started']} flows did not complete")
    if name in HEALTH_CHECKED and unit["health_ok"] is not True:
        bad.append(f"health_ok is {unit['health_ok']}")
    if name == "deep_table_scan":
        if unit["measured_punts"] != 0:
            bad.append(f"{unit['measured_punts']} punts in the scan phase")
        ratio = unit["measured_hit_ratio"]
        if ratio is None or not 0.45 <= ratio <= 0.55:
            bad.append(f"fast-path hit ratio {ratio} outside [0.45, 0.55]")
    return [f"{name} unit seed {unit['spec_seed']}: {b}" for b in bad]


#: What the workloads import (``repro.core`` pulls in networkx).
STACK = ("repro.core", "repro.obs", "repro.sim.shard", "repro.workload")


def _import_stack() -> float:
    """Seconds this process takes to import the stack."""
    start = time.perf_counter()
    for module in STACK:
        importlib.import_module(module)
    return time.perf_counter() - start


def _import_stack_in_child() -> float:
    """The same in a fresh interpreter: an import happens once per
    process, so the repeats a median needs are child processes."""
    code = ("import importlib, time; start = time.perf_counter(); "
            f"[importlib.import_module(m) for m in {STACK!r}]; "
            "print(time.perf_counter() - start)")
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def measure_end_to_end(name: str, seed: int, seconds: float, quick: bool
                       ) -> Tuple[Dict[str, float], dict, List[str], int]:
    """``(metrics, detail, failed checks, calls attempted)``."""
    import workloads

    import_s = [_import_stack()]
    if not quick:
        import_s += [_import_stack_in_child() for _ in range(2)]

    run = workloads.WORKLOADS[name]
    scale = workloads.QUICK_SCALE if quick else 1.0
    min_units = 1 if quick else MIN_UNITS
    budget = seconds * scale

    probes = []
    for i in range(1 if quick else SETUP_PROBES):
        gc.collect()
        start = time.perf_counter()
        run(workloads.unit_seed(seed, name, i), 0.0)
        probes.append(time.perf_counter() - start)

    units: List[dict] = []
    failures: List[str] = []
    started = time.perf_counter()
    while (len(units) < min_units
           or time.perf_counter() - started < budget):
        spec_seed = workloads.unit_seed(seed, name, len(units))
        gc.collect()  # the previous unit's garbage is not this one's cost
        cpu, wall = time.process_time(), time.perf_counter()
        unit = run(spec_seed, scale)
        unit["wall_s"] = time.perf_counter() - wall
        unit["cpu_s"] = time.process_time() - cpu
        unit["spec_seed"] = spec_seed
        failures += check_unit(name, unit)
        units.append(unit)

    pooled = units[:min_units]
    metrics = {
        "packets_per_wall_s": statistics.median(
            u["packets"] / u["wall_s"] for u in units),
        "cpu_us_per_packet": statistics.median(
            u["cpu_s"] / u["packets"] * 1e6 for u in units),
        "setup_s": statistics.median(import_s) + statistics.median(probes),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "flows_completed_share":
            sum(u["flows_completed"] for u in pooled)
            / sum(u["flows_started"] for u in pooled),
    }
    wall = sum(u["wall_s"] for u in units)
    cpu = sum(u["cpu_s"] for u in units)
    detail = {
        "import_s": import_s,
        "probe_s": probes,
        "units": units,
        "wall_s": wall,
        "cpu_s": cpu,
        "disturbed": wall > DISTURBED * cpu,
    }
    return metrics, detail, failures, len(probes) + len(units)


def run_once(args) -> int:
    """One workload, one process: the driver's contract."""
    faulthandler.dump_traceback_later(SELF_LIMIT_S, exit=True)
    if args.trace:
        import layers

        metrics, detail, failures = layers.measure(
            args.workload, args.seed, args.quick, OUT_DIR)
        units, attempted = layers.PER_LAYER_UNITS, 2
    else:
        metrics, detail, failures, attempted = measure_end_to_end(
            args.workload, args.seed, args.seconds, args.quick)
        units = END_TO_END_UNITS
    faulthandler.cancel_dump_traceback_later()

    print(f"workload {args.workload}  seed {args.seed}  trace "
          f"{args.trace}{'  QUICK: not comparable' if args.quick else ''}")
    for name, unit in units.items():
        print(f"  {name:<50} {metrics[name]:>16.6g} {unit}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if failures else 0


# ----------------------------------------------------------------------
# The suite: reps in watched children, aggregated
# ----------------------------------------------------------------------
def run_child(cmd: List[str], limit: float, label: str) -> dict:
    """Run one rep under a wall-clock limit.

    Returns ``{"ok": True, "result": ..., "detail": ...}`` or a named
    failure ``{"ok": False, "label", "reason", "stderr_tail"}`` — a
    hang, a crash and a non-zero exit all end here, never in a lost
    suite.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)
    try:
        out, err = proc.communicate(timeout=limit)
        reason = (None if proc.returncode == 0
                  else f"exit code {proc.returncode}")
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        reason = f"no result within {limit:g} s (killed)"
    lines = out.splitlines()
    result = detail = None
    try:
        result = json.loads(lines[-1])
        detail = next(json.loads(line[len("detail: "):])
                      for line in reversed(lines)
                      if line.startswith("detail: "))
    except (IndexError, ValueError, StopIteration):
        reason = reason or "no result on the last line of stdout"
    if reason is None and not result.get("correct"):
        reason = "output check failed"
    if reason is not None:
        tail = [line for line in lines if line.startswith("CHECK FAILED")]
        tail += err.strip().splitlines()[-8:]
        return {"ok": False, "label": label, "reason": reason,
                "stderr_tail": tail}
    return {"ok": True, "result": result, "detail": detail}


def table_findings(name: str, per_layer: dict,
                   thresholds: bool = True) -> List[str]:
    """Where one traced run departs from ``interactions.json``: a layer
    called (or not) against the table and, with ``thresholds``, every
    numeric expectation that does not hold.  These are findings about
    the code, reported and never fatal."""
    with open(os.path.join(HERE, "interactions.json")) as fh:
        table = json.load(fh)
    found = []
    for layer, where in table["calls"].items():
        calls = per_layer[f"{layer}.calls"]["value"]
        if name in where["positive"] and calls <= 0:
            found.append(f"{layer}.calls is 0, the table says > 0")
        if name in where["zero"] and calls != 0:
            found.append(f"{layer}.calls is {calls:g}, the table says 0")
    for row in table["expectations"] if thresholds else ():
        if row["workload"] not in ("*", name):
            continue
        value = per_layer[row["metric"]]["value"]
        if "min" in row and value < row["min"]:
            found.append(f"{row['metric']} is {value:.4g}, expected "
                         f">= {row['min']}")
        if "max" in row and value > row["max"]:
            found.append(f"{row['metric']} is {value:.4g}, expected "
                         f"<= {row['max']}")
    return [f"{name}: {line}" for line in found]


def _spread(values: List[float]) -> dict:
    quartiles = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
    return {"n": len(values), "median": statistics.median(values),
            "q1": quartiles[0], "q3": quartiles[2],
            "min": min(values), "max": max(values)}


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_suite(args) -> int:
    import workloads

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    limit = WATCHDOG_S * (workloads.QUICK_SCALE * 2 if args.quick else 1)
    base = [sys.executable, os.path.abspath(__file__), "--seed",
            str(args.seed), "--seconds", str(args.seconds)]
    if args.quick:
        base.append("--quick")
    record = {
        "seed": args.seed, "reps": args.reps, "quick": args.quick,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "commit": _commit(),
        "workloads": {},
    }
    failures: List[dict] = []
    if args.quick:
        print("QUICK run: durations divided by 8, numbers not comparable")
    for name in names:
        cmd = base + ["--workload", name]
        reps = [run_child(cmd + ["--trace", "0"], limit, f"{name} rep {i}")
                for i in range(args.reps)]
        good = [rep for rep in reps if rep["ok"]]
        failures += [rep for rep in reps if not rep["ok"]]
        entry: dict = {"end_to_end": {}, "disturbed_reps": 0,
                       "failed_share": 1 - len(good) / len(reps)}
        print(f"\n== {name}: {len(good)}/{len(reps)} reps ok")
        if good:
            digests = [[u["digest"] for u in rep["detail"]["units"]]
                       for rep in good]
            shared = min(len(d) for d in digests)
            entry["digests"] = digests[0][:shared]
            entry["reps"] = [rep["detail"] for rep in good]
            if any(d[:shared] != digests[0][:shared] for d in digests):
                failures.append({
                    "label": name, "stderr_tail": [],
                    "reason": "digests differ between reps of one seed"})
            entry["disturbed_reps"] = sum(
                rep["detail"]["disturbed"] for rep in good)
            for metric, unit in END_TO_END_UNITS.items():
                stats = _spread([rep["result"]["metrics"][metric]["value"]
                                 for rep in good])
                entry["end_to_end"][metric] = dict(stats, unit=unit)
                print(f"  {metric:<50} {stats['median']:>14.6g} {unit:<6}"
                      f" q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} min "
                      f"{stats['min']:.6g} max {stats['max']:.6g} "
                      f"n {stats['n']}")
            print(f"  digests {' '.join(d[:12] for d in entry['digests'])}")
            if entry["disturbed_reps"]:
                print(f"  {entry['disturbed_reps']} rep(s) DISTURBED: wall "
                      f"> {DISTURBED} x cpu, another process had the core")
        if args.traced:
            rep = run_child(cmd + ["--trace", "1"], limit, f"{name} traced")
            if rep["ok"]:
                entry["per_layer"] = rep["result"]["metrics"]
                entry["trace"] = rep["detail"]
                if good and rep["detail"]["digest"] != entry["digests"][0]:
                    failures.append({
                        "label": name, "stderr_tail": [],
                        "reason": "traced digest differs from the reps'"})
                for metric, cell in entry["per_layer"].items():
                    print(f"  {metric:<50} {cell['value']:>14.6g} "
                          f"{cell['unit']}")
                entry["findings"] = table_findings(name, entry["per_layer"])
                for finding in entry["findings"]:
                    print(f"  FINDING (interactions.json): {finding}")
            else:
                failures.append(rep)
        record["workloads"][name] = entry
    record["failures"] = failures
    for failure in failures:
        print(f"\nFAILED {failure['label']}: {failure['reason']}")
        for line in failure["stderr_tail"]:
            print(f"    {line}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "suite.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"\nresult file: {os.path.relpath(path)}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC}/repro not found: the benchmark measures the "
              "repository's own sources and carries no copy of them",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="wall seconds of units one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run: 0 end-to-end, 1 per-layer ledger")
    parser.add_argument("--reps", type=int, default=5,
                        help="suite: reps per workload")
    parser.add_argument("--traced", action="store_true",
                        help="suite: add one traced rep per workload")
    parser.add_argument("--quick", action="store_true",
                        help="durations / 8: self-test only")
    args = parser.parse_args(argv)
    if args.trace is None:
        return run_suite(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
