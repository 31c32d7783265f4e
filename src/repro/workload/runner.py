"""Assemble and run specs: one spec -> one wired platform run.

:func:`assemble` is the only place a spec becomes a simulation: it
builds the spec's topology, starts a
:class:`~repro.core.platform.ZenPlatform` with the planes the caller
asks for, installs flow sinks that feed a ``workload_fct_seconds``
histogram, and arms every fault and traffic entry.
:func:`run_workload` — the engine behind ``repro run``, ``repro
workload suite`` and benchmark E16 — takes one spec, runs that with
the obs plane on (stock SLOs plus the spec's own) and returns a
:class:`~repro.obs.artifact.RunResult` whose document ``repro report``
renders and ``repro diff`` compares; :func:`run_assembled` is its
run-and-summarise tail, which ``repro run`` also calls when it attaches
a monitor or a tracer to the assembly.
``repro.check.run_scenario`` runs the same assembly and ends with an
invariant verdict.  The sharded kernel's run of a spec is
:func:`repro.sim.shard.run_sharded`, not this module.

:func:`run_suite` fans a list of specs across worker processes.
Workers return run documents (:meth:`RunResult.to_dict`); the parent
rebuilds the results and writes the documents, so the fan-out changes
wall-clock only — per-run digests are identical at any ``jobs``.
"""

from __future__ import annotations

import traceback
from typing import Dict, List, NamedTuple, Optional

from repro.analysis import percentile
from repro.core import ZenPlatform
from repro.digest import canonical_digest
from repro.errors import ZenError
from repro.faults import FaultSchedule, arm_faults
from repro.obs import ObsPlane, RunResult, default_slos, slo_from_spec
from repro.telemetry import Telemetry
from repro.workload.generators import TenantMatrix, arm_traffic
from repro.workload.spec import WorkloadSpec, build_spec_topology

__all__ = [
    "AssembledRun",
    "assemble",
    "run_assembled",
    "run_suite",
    "run_workload",
    "suite_digest",
]


class AssembledRun(NamedTuple):
    """The live pieces of one assembled spec, armed and not yet run."""

    platform: ZenPlatform
    schedule: FaultSchedule
    #: ``None`` unless the caller asked for the plane / the monitor.
    plane: Optional[ObsPlane]
    monitor: Optional[object]
    #: ``(host name, port)`` -> :class:`~repro.netem.FlowSink`.
    sinks: Dict[tuple, object]
    #: One per traffic entry (``None`` for a ``probe``).
    generators: list
    #: ``{"flow_entries": n}`` — most flow entries seen at one scrape.
    peak: Dict[str, int]


def _build_platform(spec: WorkloadSpec, telemetry,
                    fast_path: bool) -> ZenPlatform:
    platform = ZenPlatform(
        build_spec_topology(spec), profile=spec.profile, seed=spec.seed,
        telemetry=telemetry, fast_path=fast_path,
        controllers=spec.controllers if spec.controllers > 1 else None,
    )
    if spec.stack == "policy":
        from repro.apps.firewall import Firewall
        from repro.apps.proactive_router import ProactiveRouter
        from repro.apps.slicing import NetworkSlicing

        slicing = platform.add_app(
            NetworkSlicing(table_id=0, next_table=1)
        )
        firewall = platform.add_app(
            Firewall(table_id=1, next_table=2)
        )
        platform.router = platform.add_app(ProactiveRouter(table_id=2))
        hosts = sorted(platform.net.hosts)
        half = max(1, len(hosts) // 2)
        slicing.define_slice(
            "blue", [platform.net.hosts[h].ip for h in hosts[:half]],
            rate_bps=50e6,
        )
        firewall.deny(l4_dst=23)  # no telnet across the fabric
    elif spec.stack == "multipath":
        from repro.apps import MultipathRouter

        platform.router = platform.add_app(MultipathRouter(max_paths=2))
    return platform


def assemble(spec: WorkloadSpec, *,
             telemetry: Optional[Telemetry] = None, obs: bool = False,
             monitor=False, fast_path: bool = True) -> AssembledRun:
    """Turn ``spec`` into a started platform with everything armed.

    The metrics plane is always on; ``telemetry`` is a
    :class:`~repro.telemetry.Telemetry` the caller built (a tracing
    one), or ``None`` for the kernel's own.  ``obs`` attaches an
    :class:`~repro.obs.ObsPlane` scraping every ``spec.interval`` and
    judging the stock SLOs plus ``spec.slos``.  ``monitor=True`` runs
    an :class:`~repro.check.monitor.InvariantMonitor` on the default
    invariants, a ``NetworkChecker`` runs that one.  No observer
    perturbs the simulation.

    The order below is fixed: ``fork_rng`` calls and event scheduling
    order feed committed digests, and observers hook in so that
    whatever records a fault or a convergence event runs before the
    monitor that audits it — a timeline reads fault, then its
    violations.
    """
    platform = _build_platform(spec, telemetry, fast_path)
    platform.start()
    sim = platform.sim
    hosts = platform.seed_static_arp()
    registry = platform.telemetry.metrics
    # Zero-label families come back as the bare metric.
    fct_hist = registry.histogram(
        "workload_fct_seconds",
        "flow completion time measured at workload sinks",
    )

    def on_flow_complete(record) -> None:
        fct_hist.observe(record.fct)

    schedule = platform.fault_schedule()
    plane = mon = None
    if obs:
        plane = ObsPlane(platform, interval=spec.interval, slos=(
            default_slos(spec.interval)
            + [slo_from_spec(doc) for doc in spec.slos]))
        plane.watch_faults(schedule)
        if platform.cluster is not None:
            plane.watch_cluster(platform.cluster)
    if monitor:
        # Imported on use: `repro.check` builds on this module.
        from repro.check.monitor import InvariantMonitor

        mon = InvariantMonitor(platform.net,
                               None if monitor is True else monitor)
        mon.attach(platform.controller)
        mon.watch(schedule)
        if plane is not None:
            plane.watch_monitor(mon)

    # Flow-table occupancy: scraped every tick, peak kept in-closure so
    # the summary does not depend on the ring-buffer capacity.
    peak = {"flow_entries": 0}

    def flow_entries() -> float:
        total = sum(dp.flow_count()
                    for dp in platform.net.switches.values())
        peak["flow_entries"] = max(peak["flow_entries"], total)
        return float(total)

    if plane is not None:
        registry.gauge(
            "workload_flow_entries",
            "Flow entries installed across all switches",
            (),
        ).bind((), flow_entries)

    arm_faults(schedule, spec.faults, base=sim.now)

    tenant_matrix = None
    if spec.tenants:
        tenant_matrix = TenantMatrix(sim.fork_rng(), hosts, spec.tenants)

    sinks: Dict[tuple, object] = {}
    generators = [
        arm_traffic(sim, hosts, entry, sinks,
                    on_flow_complete=on_flow_complete,
                    tenant_matrix=tenant_matrix)
        for entry in spec.traffic
    ]
    return AssembledRun(platform, schedule, plane, mon, sinks,
                        generators, peak)


def run_workload(spec: WorkloadSpec) -> RunResult:
    """Execute one spec end to end; deterministic in (spec, seed).

    The spec is assembled with the obs plane on, run for
    ``spec.duration`` and summarised.  The sharded kernel's run of a
    spec is :func:`repro.sim.shard.run_sharded`.
    """
    return run_assembled(spec, assemble(spec, obs=True))


def run_assembled(spec: WorkloadSpec, live: AssembledRun) -> RunResult:
    """Run ``live`` — ``spec`` assembled with the obs plane on, and
    whatever other observers the caller attached — for
    ``spec.duration``, and summarise it into the run document."""
    plane = live.plane
    live.platform.run(spec.duration)
    plane.finish()

    fcts = [flow.fct for sink in live.sinks.values()
            for flow in sink.completed_flows()]
    summary = {
        "name": spec.name,
        "seed": spec.seed,
        "duration": spec.duration,
        "flows_started": sum(len(getattr(g, "flows_started", ()))
                             for g in live.generators),
        "flows_completed": len(fcts),
        "fct_p50": percentile(fcts, 50) if fcts else None,
        "fct_p95": percentile(fcts, 95) if fcts else None,
        "fct_p99": percentile(fcts, 99) if fcts else None,
        "flow_table_peak": live.peak["flow_entries"],
        "faults_fired": len(live.schedule.log),
        "health_ok": plane.report.ok,
        "alerts": len(plane.report.alerts),
        "events": live.platform.sim.events_processed,
    }
    return RunResult(spec, summary, plane.artifact(
        kind="workload", workload=spec.to_dict(), summary=summary))


def _suite_worker(spec_doc: dict) -> dict:
    """Pool target: run one spec document, return its run document.

    A spec that raises comes back as a named failure entry (``name``,
    ``error``, ``traceback``) so that one bad scenario cannot take the
    suite's finished results down with it.
    """
    try:
        return run_workload(WorkloadSpec.from_dict(spec_doc)).to_dict()
    except Exception as exc:
        return {"name": spec_doc.get("name", "?"),
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc()}


def run_suite(specs: List[WorkloadSpec], jobs: int = 1,
              out_dir: Optional[str] = None) -> List[RunResult]:
    """Run a scenario suite, optionally across worker processes.

    Returns one :class:`~repro.obs.artifact.RunResult` per spec, in
    spec order regardless of worker scheduling.  With ``out_dir`` the
    parent (not the workers) writes each run document to
    ``<name>.json`` there, so ``repro diff`` works on any pair of suite
    outputs.

    A scenario that raises does not lose the others: every finished
    result is still written to ``out_dir``, and the call then ends in
    one :class:`~repro.errors.ZenError` naming each failed scenario
    (its ``results`` attribute holds the finished results, its
    ``failures`` one ``{"name", "error", "traceback"}`` dict per failed
    scenario).
    """
    jobs_in = [spec.to_dict() for spec in specs]
    if jobs > 1 and len(jobs_in) > 1:
        import multiprocessing

        with multiprocessing.Pool(min(jobs, len(jobs_in))) as pool:
            docs = pool.map(_suite_worker, jobs_in)
    else:
        docs = [_suite_worker(job) for job in jobs_in]
    failed = [doc for doc in docs if "error" in doc]
    results = [RunResult.from_dict(doc) for doc in docs
               if "error" not in doc]
    if out_dir is not None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        for result in results:
            result.save(os.path.join(out_dir, f"{result.spec.name}.json"))
    if failed:
        where = f" and written to {out_dir}" if out_dir is not None else ""
        error = ZenError(
            f"{len(failed)} of {len(docs)} suite scenario(s) failed "
            f"({len(results)} finished{where}): " + "; ".join(
                f"{doc['name']}: {doc['error']}" for doc in failed))
        error.results = results
        error.failures = failed
        raise error
    return results


def suite_digest(results: List[RunResult]) -> str:
    """One digest over a suite's per-run digests (in suite order)."""
    return canonical_digest([{"name": r.spec.name, "digest": r.digest}
                             for r in results])
