"""Command-line interface: ``python -m repro <command>``.

Commands aimed at kicking the tyres without writing code:

* ``demo``      — build a topology, run a platform profile, verify
  all-pairs connectivity, print what the controller learned and what
  the control channel cost.
* ``topology``  — describe a builder's output (nodes, links, degrees).
* ``check``     — verify network invariants, fuzz seeded scenarios, or
  replay a saved run or corpus with an invariant verdict.
* ``workload``  — list the scenario library, or fan a suite across
  worker processes.
* ``run``       — the one writer of a run document: run one spec (a
  library scenario, a spec file or saved run, or one built from the
  stack and fault flags), print its summary and digest, save it.
* ``report``    — the one reader of a run document: dashboard, health
  and mastership handovers, trace critical path, invariant checks —
  whichever it holds.
* ``diff``      — A/B-compare two run documents and flag regressions.

A flag-built ``run`` lowers the stack and fault flags to one
:class:`~repro.workload.WorkloadSpec` and runs it through
:func:`repro.workload.assemble`; it saves the
:class:`~repro.obs.RunResult` document — spec, summary, digest — that
``report`` renders, ``diff`` compares, ``check replay --path`` checks
and ``run --spec`` replays to the same digest.  ``demo`` is a drill: it
prints and writes no document, and stays on a bare
:class:`ZenPlatform` to show ARP resolution, which the assembler's
static ARP would skip.  A packet's path through the stack is ``run
--trace --out T`` then ``report T --tree --attrs``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import Table
from repro.core import ZenPlatform
from repro.digest import load_document
from repro.errors import ZenError
from repro.netem.topology import FAMILIES, Topology
from repro.telemetry import Telemetry

__all__ = ["main", "build_topology"]

#: Instantiate a named builder family at a given size.
build_topology = Topology.build

#: What a flag-built run assumes for a stack or fault flag it was not
#: given (``demo`` defaults to the same stack).
_STACK = {"topology": "ring", "size": 4, "profile": "proactive",
          "seed": 0, "bandwidth": 1e9}
_FAULT = {"controllers": 1, "target": "", "cycles": 2, "period": 2.0,
          "down_for": 0.5}


def _at_least_one(args, *dests: str) -> None:
    """Reject a count flag below 1 before anything runs."""
    for dest in dests:
        value = getattr(args, dest)
        if value is not None and value < 1:
            raise ZenError(f"--{dest.replace('_', '-')} must be >= 1, "
                           f"not {value}")


def _build_platform(args) -> ZenPlatform:
    """The bare stack ``demo`` shows: no static ARP, so its pings
    resolve addresses through the controller's ARP proxy."""
    topo = build_topology(args.topology, args.size, args.bandwidth)
    return ZenPlatform(topo, profile=args.profile, seed=args.seed)


def _fault_dicts(args, topo: Topology) -> List[dict]:
    """Lower ``--fault/--target/--cycles/--period/--down-for`` to
    :func:`repro.faults.arm_faults` dicts, the first injection 0.5 s
    into the run.  Reads only the topology and the pure election, so a
    bad flag fails before any simulated time."""
    if args.fault is None:
        return []
    if args.fault in ("controller", "partition") and args.controllers < 2:
        raise ZenError(
            f"a {args.fault} fault needs a cluster; pass --controllers >= 2"
        )
    _at_least_one(args, "cycles")
    switches = sorted(node.name for node in topo.switches)
    target = args.target or switches[0]
    if target not in switches:
        raise ZenError(f"unknown switch {target!r}; pick from {switches}")
    flap = {"at": 0.5, "down_for": args.down_for, "period": args.period,
            "count": args.cycles}
    if args.fault == "channel":
        return [dict(flap, kind="channel_flap", switch=target)]
    if args.fault == "link":
        neighbours = sorted(n for n in topo.neighbours(target)
                            if topo.nodes[n].is_switch)
        if not neighbours:
            raise ZenError(f"{target} has no switch neighbour to cut")
        return [dict(flap, kind="link_flap", a=target, b=neighbours[0])]
    from repro.cluster.election import assign_masters, elect_leader

    members = range(args.controllers)
    if args.fault == "crash":
        cycle = {"kind": "switch_crash", "switch": target,
                 "restart_after": args.down_for}
    elif args.fault == "controller":
        dpid = topo.nodes[target].dpid
        cycle = {"kind": "controller_crash",
                 "node": assign_masters(members, [dpid], args.seed)[dpid],
                 "restart_after": args.down_for}
    else:  # partition: the leader alone against everyone else
        minority = [elect_leader(members, args.seed)]
        cycle = {"kind": "controller_partition", "minority": minority,
                 "heal_after": args.down_for}
    return [dict(cycle, at=k * args.period + 0.5)
            for k in range(args.cycles)]


def _cmd_demo(args) -> int:
    _at_least_one(args, "pings")
    platform = _build_platform(args)
    print(f"Built {platform.net.topology}")
    platform.start()
    print(f"Controller: {platform.controller.switch_count} switches, "
          f"{platform.discovery.link_count} directed links discovered")
    delivery = platform.ping_all(count=args.pings, settle=8.0)
    print(f"All-pairs ping delivery: {delivery:.0%}")
    table = Table("Per-switch state", ["switch", "flows", "forwarded",
                                       "punted"])
    for name in sorted(platform.net.switches):
        dp = platform.net.switches[name]
        table.add_row(name, dp.flow_count(), dp.packets_forwarded,
                      dp.packets_to_controller)
    print()
    print(table.render())
    print(f"\nControl channel: {platform.total_control_messages()} "
          f"messages, {platform.total_control_bytes()} bytes")
    print(f"Simulated {platform.sim.now:.1f}s in "
          f"{platform.sim.events_processed} events (seed {args.seed})")
    return 0 if delivery == 1.0 else 1


def _cmd_topology(args) -> int:
    topo = build_topology(args.topology, args.size, args.bandwidth)
    print(topo)
    table = Table("Nodes", ["name", "kind", "identity", "degree"])
    for node in topo.nodes.values():
        identity = (f"dpid={node.dpid}" if node.is_switch
                    else f"ip={node.ip}")
        table.add_row(node.name, node.kind, identity,
                      len(topo.neighbours(node.name)))
    print(table.render())
    switch_links = sum(
        1 for link in topo.links
        if topo.nodes[link.a].is_switch and topo.nodes[link.b].is_switch
    )
    print(f"\n{len(topo.links)} links total "
          f"({switch_links} switch-to-switch)")
    return 0


def _verdict(checks: dict) -> str:
    """A checked run's verdict, read off its ``checks`` section."""
    if "event_budget_exhausted" in checks:
        return "EVENT BUDGET"
    if checks["ok"] and not checks.get("cluster_violations"):
        return "clean"
    return "VIOLATIONS"


def _print_violations(checks: dict) -> None:
    """The first five violations, the network's then the cluster's."""
    violations = checks["violations"] + checks.get("cluster_violations", [])
    for violation in violations[:5]:
        print(f"  {violation['invariant']}: {violation['message']}")


def _cmd_check(args) -> int:
    from repro.check import (example_scenarios, fuzz, replay, run_corpus,
                             run_scenario)

    if args.mode == "verify":
        failures = 0
        for scenario in example_scenarios():
            result = run_scenario(scenario)
            checks = result.artifact.checks
            print(f"{scenario.name:20s} {_verdict(checks):10s} "
                  f"({checks['probes_run']} probes)")
            if not result.ok:
                failures += 1
                _print_violations(checks)
        print(f"\n{failures} of {len(example_scenarios())} scenarios "
              f"failed invariant checking")
        return 1 if failures else 0

    if args.mode == "replay":
        if not args.path:
            raise ZenError("check replay needs --path <document>")
        payload = load_document(args.path, "replay document")
        if "seeds" in payload:  # a corpus file
            results = run_corpus(args.path, monitor=args.monitor)
            for result in results:
                n = result.spec.controllers
                label, size = (("cluster seed", f" ({n} instances)")
                               if n > 1 else ("seed", ""))
                print(f"{label} {result.spec.seed:6d} "
                      f"{'clean' if result.ok else 'VIOLATIONS'}{size}")
            return 0 if all(r.ok for r in results) else 1
        result = replay(args.path, monitor=args.monitor)
        print(f"replayed {result.spec.name}: "
              f"{'clean' if result.ok else 'VIOLATIONS'} "
              f"(digest {result.digest[:16]})")
        if not result.ok:
            _print_violations(result.artifact.checks)
        # Only a checked scenario's digest is this replay's to compare.
        recorded = payload.get("meta", {}).get("kind") == "scenario"
        if recorded and payload["digest"] != result.digest:
            print("WARNING: digest drift vs the recorded run")
            return 1
        return 0 if result.ok else 1

    # fuzz
    _at_least_one(args, "seeds")
    out_dir = args.out or "."
    failed = []

    def report(result) -> None:
        s = result.spec
        verdict = _verdict(result.artifact.checks)
        transients = len(result.summary["monitor_failures"])
        transients = f", {transients} transient" if transients else ""
        print(f"seed {s.seed:6d} {s.topology['family']}"
              f"({s.topology['size']})/{s.profile} "
              f"{len(s.faults)} fault(s): {verdict}{transients}")
        if not result.ok:
            failed.append(s.seed)

    fuzz(args.seeds, start_seed=args.start, monitor=args.monitor,
         out_dir=out_dir, on_result=report)
    if failed:
        print(f"\n{len(failed)} failing seed(s): {failed}; "
              f"repro files in {out_dir}")
        return 1
    print(f"\nall {args.seeds} seeds checked clean")
    return 0


def _fmt_fct(value) -> str:
    return f"{value * 1e3:.1f}ms" if value is not None else "-"


def _cmd_workload(args) -> int:
    from repro.workload import library, run_suite, suite_digest

    specs = library()
    if args.mode == "list":
        table = Table("Workload scenario library",
                      ["name", "topology", "traffic", "faults", "seed"])
        for name in sorted(specs):
            spec = specs[name]
            kinds = ",".join(e.get("kind", "flows")
                             for e in spec.traffic)
            table.add_row(name, spec.topology.get("family", "?"),
                          kinds, len(spec.faults), spec.seed)
        print(table.render())
        print("\nRun one:      python -m repro run --name <name>")
        print("Run them all: python -m repro workload suite --jobs 2")
        return 0

    _at_least_one(args, "jobs")
    if args.names:
        missing = [n for n in args.names.split(",") if n not in specs]
        if missing:
            raise ZenError(f"unknown scenario(s) {missing}; "
                           f"pick from {sorted(specs)}")
        selection = [specs[n] for n in args.names.split(",")]
    else:
        selection = [specs[n] for n in sorted(specs)]
    results = run_suite(selection, jobs=args.jobs,
                        out_dir=args.out_dir or None)
    table = Table(f"Workload suite ({args.jobs} job(s))",
                  ["name", "flows", "fct p99", "table peak", "health",
                   "digest"])
    for result in results:
        s = result.summary
        table.add_row(
            result.spec.name,
            f"{s['flows_completed']}/{s['flows_started']}",
            _fmt_fct(s["fct_p99"]),
            s.get("flow_table_peak", "-"),
            "ok" if result.ok else "ALERTS",
            result.digest[:16],
        )
    print(table.render())
    print(f"\nsuite digest {suite_digest(results)[:16]} "
          f"(independent of --jobs)")
    if args.out_dir:
        print(f"run artifacts in {args.out_dir}/ "
              f"(diff any pair: python -m repro diff A B)")
    return 0


def _run_spec(args):
    """The spec ``run`` runs: a library scenario (``--name``), a spec
    file or saved run (``--spec``), or one built from the stack and
    fault flags.  Only ``--seed`` and ``--duration`` override a named or
    loaded spec.

    In a flag-built spec every host sends one probe to its neighbour at
    t = 0, so the proactive profile has routes for a fault to break; the
    faults fire 0.5 s in."""
    from repro.workload import WorkloadSpec, library, load_spec

    # Every flag a flag-built run reads, with its default (no fault).
    flags = dict(_STACK, **_FAULT, fault=None, interval=0.1)
    if not (args.name or args.spec):
        for dest, value in flags.items():
            if getattr(args, dest) is None:
                setattr(args, dest, value)
        topo = build_topology(args.topology, args.size, args.bandwidth)
        hosts = [node.name for node in topo.hosts]
        return WorkloadSpec(
            "run",
            topology={"family": args.topology, "size": args.size,
                      "bandwidth": args.bandwidth},
            traffic=[{"kind": "probe", "src": src,
                      "dst": hosts[(i + 1) % len(hosts)]}
                     for i, src in enumerate(hosts)],
            seed=args.seed,
            duration=6.0 if args.duration is None else args.duration,
            interval=args.interval, profile=args.profile,
            faults=_fault_dicts(args, topo),
            controllers=args.controllers,
        )
    given = ["--" + dest.replace("_", "-") for dest in flags
             if dest != "seed" and getattr(args, dest) is not None]
    if args.name and args.spec:
        raise ZenError("run takes --name or --spec, not both")
    if given:
        raise ZenError(f"{', '.join(given)} cannot change a --name or "
                       f"--spec run, which takes only --seed and "
                       f"--duration")
    if args.spec:
        spec = load_spec(args.spec)
    else:
        specs = library()
        if args.name not in specs:
            raise ZenError(f"unknown scenario {args.name!r}; "
                           f"pick from {sorted(specs)}")
        spec = specs[args.name]
    overrides = {key: getattr(args, key) for key in ("seed", "duration")
                 if getattr(args, key) is not None}
    if overrides:
        spec = WorkloadSpec.from_dict(dict(spec.to_dict(), **overrides))
    return spec


def _run_platform(spec, args):
    """``run_workload``'s run — ``assemble(spec, obs=True)``, then
    ``run_assembled`` — with the observers ``--monitor`` and ``--trace``
    ask for attached to the assembly."""
    from repro.telemetry.artifact import tracer_traces
    from repro.workload import assemble, run_assembled

    telemetry = Telemetry(trace=True) if args.trace else None
    live = assemble(spec, telemetry=telemetry, obs=True,
                    monitor=args.monitor)
    result = run_assembled(spec, live)
    if telemetry is not None:
        result.artifact.traces = tracer_traces(telemetry.tracer)
    return result


def _cmd_run(args) -> int:
    from repro.sim.shard import run_sharded

    if args.shards is not None:
        _at_least_one(args, "shards")
        if args.monitor:
            raise ZenError("--monitor needs the platform; the sharded "
                           "kernel runs without --shards")
    elif args.shard_sequential:
        raise ZenError("--shard-sequential needs --shards")
    spec = _run_spec(args)
    if args.shards is None:
        result = _run_platform(spec, args)
        s, where = result.summary, ""
        tail = (f"flow-table peak {s['flow_table_peak']}, "
                f"{s['faults_fired']} fault(s), "
                f"health {'ok' if s['health_ok'] else 'ALERTS'}")
    else:
        result = run_sharded(
            spec, shards=args.shards,
            processes=False if args.shard_sequential else None,
            trace=args.trace)
        s = result.summary
        where = (f" [{s['shards']} shard(s), "
                 f"{'mp' if s['processes'] else 'seq'}]")
        tail = f"{s['events']} events in {s['rounds']} round(s)"
    if args.trace:
        tail += f", {len(result.artifact.traces)} trace(s)"
    print(f"{spec.name}{where}: {s['flows_completed']}/"
          f"{s['flows_started']} flows completed, fct p50/p99 "
          f"{_fmt_fct(s['fct_p50'])}/{_fmt_fct(s['fct_p99'])}, {tail}")
    print(f"digest {result.digest[:16]}")
    if args.out:
        result.save(args.out)
        print(f"run document written to {args.out}")
    return 0


def _cmd_diff(args) -> int:
    from repro.obs import RunArtifact, diff_runs, render_diff

    def both(doc: dict):
        return RunArtifact.from_dict(doc), doc

    (base, base_doc), (cur, cur_doc) = (
        load_document(path, "run artifact", both)
        for path in (args.base, args.current))
    report = diff_runs(base, cur)
    report.compare_digests(base_doc, cur_doc)
    print(render_diff(report, base_name=args.base, cur_name=args.current))
    return 0 if report.ok else 1


def _trace_block(artifact, args) -> int:
    """The selected trace's header, optional span tree and critical
    path; 1 when ``--select fault`` or ``--trace-id`` names a trace the
    document lacks."""
    from repro.telemetry import artifact as traces
    from repro.telemetry.export import render_critical_path, render_tree

    print(f"{artifact!r}")
    candidates = artifact.traces
    if args.select == "fault":
        candidates = [t for t in artifact.traces
                      if t["label"].startswith("fault:")]
        if not candidates:
            print("no fault-rooted trace in this artifact")
            return 1
    if args.trace_id is not None:
        trace = traces.trace(artifact.traces, args.trace_id)
        if trace is None:
            print(f"no trace #{args.trace_id} in this artifact")
            return 1
    else:
        trace = traces.longest(candidates)
    if trace is None:
        print("artifact holds no traces")
        return 0
    shards = traces.shards_of(trace)
    if len(shards) > 1:
        print(f"trace #{trace['id']} crosses shards {shards}")
    print()
    if args.tree:
        print(render_tree(trace, attrs=args.attrs))
        print()
    print(render_critical_path(traces.critical_path(trace)))
    return 0


def _cmd_report(args) -> int:
    """Print every block the document holds: series, health and
    mastership handovers, the trace, the invariant checks — or its
    one-line header alone."""
    from repro.obs import load_artifact, render_dashboard, render_health

    _at_least_one(args, "width", "max_series")
    artifact = load_artifact(args.doc)
    checks = artifact.checks
    series = bool(artifact.series) or artifact.health is not None
    handovers = [a for a in artifact.annotations if a.kind == "handover"]
    traced = (bool(artifact.traces) or args.select == "fault"
              or args.trace_id is not None)
    if series:
        select = args.series.split(",") if args.series else None
        print(render_dashboard(artifact, width=args.width, select=select,
                               max_series=args.max_series))
        if artifact.health is not None:
            print()
            print(render_health(artifact.health))
    if handovers:
        table = Table("Mastership handovers", ["t", "switch"])
        for handover in handovers:
            table.add_row(f"{handover.time:.3f}", handover.label)
        print()
        print(table.render())
    if traced and _trace_block(artifact, args):
        return 1
    if checks:
        found = len(checks["violations"]
                    + checks.get("cluster_violations", []))
        print(f"checks: {_verdict(checks)} ({checks['probes_run']} "
              f"probes, {found} violation(s))")
        _print_violations(checks)
    if not (series or traced or checks):
        print(f"{artifact!r}")
    return 0


def _stack_args(**defaults) -> argparse.ArgumentParser:
    """The five arguments that describe a stack, as an argparse parent
    (a fresh one per command: argparse shares a parent's actions with
    every child, so ``set_defaults`` on one would leak into the rest).
    An argument missing from ``defaults`` defaults to ``None``."""
    stack = argparse.ArgumentParser(add_help=False)
    stack.add_argument("--topology", choices=FAMILIES)
    stack.add_argument("--size", type=int, help="builder size parameter")
    stack.add_argument("--profile", choices=("reactive", "proactive"))
    stack.add_argument("--seed", type=int)
    stack.add_argument("--bandwidth", type=float)
    stack.set_defaults(**defaults)
    return stack


def _fault_args() -> argparse.ArgumentParser:
    """The scripted-fault arguments of a flag-built ``run``, as an
    argparse parent; each defaults to ``None`` (see ``_FAULT``)."""
    fault = argparse.ArgumentParser(add_help=False)
    fault.add_argument("--fault",
                       choices=("channel", "link", "crash", "controller",
                                "partition"),
                       help="what to flap: the control channel, a "
                            "dataplane link, the whole agent, a "
                            "controller instance, or the east-west bus "
                            "(last two need --controllers >= 2)")
    fault.add_argument("--controllers", type=int,
                       help="controller instances (cluster mode when >1)")
    fault.add_argument("--target",
                       help="switch to torment (default: first switch)")
    fault.add_argument("--cycles", type=int,
                       help="down/up cycles to inject")
    fault.add_argument("--period", type=float,
                       help="seconds between cycle starts")
    fault.add_argument("--down-for", type=float,
                       help="seconds down per cycle")
    return fault


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ZenSDN: an SDN platform on a deterministic "
                    "simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a platform demo",
                          parents=[_stack_args(**_STACK)])
    demo.add_argument("--pings", type=int, default=1)
    demo.set_defaults(fn=_cmd_demo)

    topo = sub.add_parser("topology", help="describe a topology builder")
    topo.add_argument("topology", choices=FAMILIES)
    topo.add_argument("--size", type=int, default=4)
    topo.add_argument("--bandwidth", type=float, default=1e9)
    topo.set_defaults(fn=_cmd_topology)

    chk = sub.add_parser(
        "check",
        help="verify network invariants / fuzz seeded scenarios",
    )
    chk.add_argument("mode", choices=("verify", "fuzz", "replay"),
                     help="verify: run the canned example scenarios; "
                          "fuzz: generate and check seeded scenarios; "
                          "replay: re-run a repro or corpus file")
    chk.add_argument("--seeds", type=int, default=10,
                     help="number of fuzz seeds to run")
    chk.add_argument("--start", type=int, default=0,
                     help="first fuzz seed")
    chk.add_argument("--monitor", action="store_true",
                     help="also run the online invariant monitor")
    chk.add_argument("--out", default="",
                     help="directory for failure repro files")
    chk.add_argument("--path", default="",
                     help="repro or corpus file for replay mode")
    chk.set_defaults(fn=_cmd_check)

    wl = sub.add_parser(
        "workload",
        help="declarative workload scenarios: list the library, or fan "
             "a suite across worker processes",
    )
    wl.add_argument("mode", choices=("list", "suite"),
                    help="list: show the scenario library; suite: run "
                         "many and print per-run digests")
    wl.add_argument("--names", default="",
                    help="comma-separated library names (default: the "
                         "whole library)")
    wl.add_argument("--jobs", type=int, default=1,
                    help="worker processes")
    wl.add_argument("--out-dir", default="",
                    help="directory for the run documents")
    wl.set_defaults(fn=_cmd_workload)

    run = sub.add_parser(
        "run",
        help="run a spec, print its summary and digest, save its run "
             "document",
        parents=[_stack_args(), _fault_args()],
    )
    run.add_argument("--name", default="",
                     help="library scenario to run")
    run.add_argument("--spec", default="",
                     help="spec file (JSON/YAML) or run document to run")
    run.add_argument("--duration", type=float, default=None,
                     help="simulated seconds to run (flag-built: 6)")
    run.add_argument("--interval", type=float, default=None,
                     help="scrape interval in simulated seconds "
                          "(flag-built: 0.1)")
    run.add_argument("--monitor", action="store_true",
                     help="run the invariant monitor and annotate "
                          "violations on the timeline")
    run.add_argument("--trace", action="store_true",
                     help="record causal traces into the run document")
    run.add_argument("--shards", type=int, default=None,
                     help="run on the sharded kernel with N spatial "
                          "shards (1 = the differential oracle; merged "
                          "observables are bit-identical at any N)")
    run.add_argument("--shard-sequential", action="store_true",
                     help="force the in-process shard coordinator "
                          "instead of one worker process per shard")
    run.add_argument("--out", default="",
                     help="write the run document here")
    run.set_defaults(fn=_cmd_run)

    rep = sub.add_parser(
        "report",
        help="render a run document (any --out file): dashboard and "
             "health, trace critical path, invariant checks",
    )
    rep.add_argument("doc", metavar="DOC", help="run document to render")
    rep.add_argument("--series", default="",
                     help="comma-separated series name prefixes to "
                          "show on the dashboard")
    rep.add_argument("--width", type=int, default=60,
                     help="dashboard sparkline width in columns")
    rep.add_argument("--max-series", type=int, default=24)
    rep.add_argument("--select", default="longest",
                     choices=("longest", "fault"),
                     help="which trace to render: the longest overall, "
                          "or the longest fault-rooted one")
    rep.add_argument("--trace-id", type=int, default=None,
                     help="render this exact trace id instead")
    rep.add_argument("--tree", action="store_true",
                     help="also render the span tree")
    rep.add_argument("--attrs", action="store_true",
                     help="include span attributes in the tree")
    rep.set_defaults(fn=_cmd_report)

    diff = sub.add_parser(
        "diff",
        help="A/B-compare two run documents and flag regressions",
    )
    diff.add_argument("base", metavar="BASE", help="baseline document")
    diff.add_argument("current", metavar="CURRENT",
                      help="current document")
    diff.set_defaults(fn=_cmd_diff)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `python -m repro workload list | head`
        return 0
    except ZenError as exc:  # a named failure (bad spec document, ...)
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
