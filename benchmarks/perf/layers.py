"""The per-layer ledger: one traced unit, public counters, micro-timers.

``measure(workload, seed, quick)`` runs unit 0 of the workload twice in
this process — untraced, then under :class:`tracer.SpanTracer` — and
checks that tracing changed nothing observable (digest, kernel events,
link transmissions).  Self times and call counts come from the spans;
counts and ratios come from the public counters of the ``Network`` and
``Controller`` objects the entry point built (``Datapath.stats()``,
``fast_path_stats()``, ``FlowTable.lookup_count``,
``Link.direction_stats()``, ``ControlChannel.total_stats()``,
``Controller.packet_ins_handled``), which the tracer remembered at
construction.  ``fabric_static`` adds the sharded kernel's coordinator
costs.  Every name in ``PER_LAYER_UNITS`` is reported on every
workload; a metric that does not apply reads 0.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Tuple

import micro
import workloads
from tracer import LAYERS, SpanTracer

_COUNTER_UNITS = {
    "packet.encodes_per_link_tx": "ratio",
    "packet.decodes_per_link_tx": "ratio",
    "packet.copies_per_link_tx": "ratio",
    "packet.len_calls_per_link_tx": "ratio",
    "netem.link.tx_packets": "count",
    "netem.link.queue_drops": "count",
    "dataplane.switch.fastpath_hit_ratio": "ratio",
    "dataplane.switch.punt_share": "ratio",
    "dataplane.flowtable.lookups_per_forwarded": "ratio",
    "dataplane.flowtable.inserts": "count",
    "dataplane.flowtable.removed": "count",
    "southbound.channel.msgs": "count",
    "southbound.channel.bytes": "count",
    "southbound.channel.msgs_per_flow": "ratio",
    "controller.core.packet_ins": "count",
    "controller.core.flow_mods": "count",
    "controller.discovery.graph_calls_per_packet_in": "ratio",
    "apps.floods": "count",
    "apps.rebuilds": "count",
    "sim.kernel.events": "count",
    "sim.kernel.events_per_wall_s": "1/s",
    "sim.kernel.us_per_event": "us",
    "obs.scrapes": "count",
    "telemetry.spans": "count",
    "workload.run_s": "s",
    "workload.finish_s": "s",
    "workload.fct_p99_sim_ms": "ms",
    "sim.shard.rounds_seq4": "count",
    "sim.shard.seq4_wall_ratio": "ratio",
    "sim.shard.mp2_wall_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.untraced_share": "ratio",
}

#: Every per-layer metric and its unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {}
for _layer in LAYERS:
    PER_LAYER_UNITS[f"{_layer}.calls"] = "count"
    PER_LAYER_UNITS[f"{_layer}.self_s"] = "s"
    PER_LAYER_UNITS[f"{_layer}.self_share"] = "ratio"
PER_LAYER_UNITS.update(_COUNTER_UNITS)
PER_LAYER_UNITS.update(micro.MICRO_UNITS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _public_counters(tracer: SpanTracer) -> Dict[str, float]:
    """Totals over everything the traced call built."""
    c = dict.fromkeys(
        ("tx", "queue_drops", "received", "forwarded", "punts", "hits",
         "misses", "lookups", "msgs", "bytes", "packet_ins", "floods",
         "rebuilds"), 0)
    for net in tracer.captured["Network"]:
        for link in net.links:
            for half in link.direction_stats():
                c["tx"] += half["tx_packets"]
                c["queue_drops"] += half["dropped_queue"]
        for dp in net.switches.values():
            stats, fast = dp.stats(), dp.fast_path_stats()
            c["received"] += stats["received"]
            c["forwarded"] += stats["forwarded"]
            c["punts"] += stats["to_controller"]
            c["hits"] += fast["hits"]
            c["misses"] += fast["misses"]
            c["lookups"] += sum(t.lookup_count for t in dp.tables)
        for channel in net.channels.values():
            for direction in channel.total_stats().values():
                c["msgs"] += direction["messages"]
                c["bytes"] += direction["bytes"]
    for controller in tracer.captured["Controller"]:
        c["packet_ins"] += controller.packet_ins_handled
        for app in controller.apps:
            c["floods"] += getattr(app, "packets_flooded", 0)
            c["rebuilds"] += getattr(app, "rebuild_count", 0)
    return c


def _shard_costs(seed: int, scale: float, oracle: dict,
                 oracle_wall: float) -> Tuple[Dict[str, float], List[str]]:
    """Coordinator overhead without parallelism (4 shards in-process)
    and with it (2 worker processes), against the 1-shard oracle."""
    failures = []
    walls = {}
    rounds = 0
    for label, shards, processes in (("seq4", 4, False), ("mp2", 2, True)):
        start = time.perf_counter()
        result = workloads.fabric_static(seed, scale, shards=shards,
                                         processes=processes)
        walls[label] = time.perf_counter() - start
        if result["digest"] != oracle["digest"]:
            failures.append(f"fabric_static {label} digest "
                            f"{result['digest'][:12]} != shards=1 digest "
                            f"{oracle['digest'][:12]}")
        if label == "seq4":
            rounds = result["rounds"]
    return {
        "sim.shard.rounds_seq4": rounds,
        "sim.shard.seq4_wall_ratio": walls["seq4"] / oracle_wall,
        "sim.shard.mp2_wall_ratio": walls["mp2"] / oracle_wall,
    }, failures


def measure(name: str, seed: int, quick: bool, out_dir: str
            ) -> Tuple[Dict[str, float], dict, List[str]]:
    """``(metrics, detail, failed checks)`` for one workload; span
    aggregates and the first raw spans go to ``out_dir``."""
    scale = workloads.QUICK_SCALE if quick else 1.0
    run = workloads.WORKLOADS[name]
    spec_seed = workloads.unit_seed(seed, name, 0)

    start = time.perf_counter()
    plain = run(spec_seed, scale)
    plain_wall = time.perf_counter() - start

    tracer = SpanTracer()
    with tracer:
        start_ns = time.perf_counter_ns()
        traced = run(spec_seed, scale)
        end_ns = time.perf_counter_ns()
    traced_wall = (end_ns - start_ns) / 1e9

    failures = [
        f"{name}: traced run changed {key}: {plain[key]} -> {traced[key]}"
        for key in ("digest", "events", "packets")
        if plain[key] != traced[key]
    ]
    for target in tracer.missing:  # a refactor moved it: not a failure
        print(f"note: {name}: the tracer found no {target}; its spans "
              "read 0")

    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for layer, row in tracer.by_layer().items():
        metrics[f"{layer}.calls"] = row["calls"]
        metrics[f"{layer}.self_s"] = row["self_s"]
        metrics[f"{layer}.self_share"] = row["self_s"] / traced_wall

    c = _public_counters(tracer)
    tx = c["tx"]
    if tx != traced["packets"]:
        failures.append(f"{name}: Link.direction_stats() sums to {tx} link "
                        f"transmissions, the entry point reports "
                        f"{traced['packets']}")
    flow_mods = (tracer.calls("SwitchHandle.add_flow")
                 + tracer.calls("SwitchHandle.delete_flows"))
    run_end_ns = tracer.last_end_ns("Simulator.run")
    metrics.update({
        "packet.encodes_per_link_tx":
            _ratio(tracer.calls("Packet.encode"), tx),
        "packet.decodes_per_link_tx":
            _ratio(tracer.calls("Packet.decode"), tx),
        "packet.copies_per_link_tx":
            _ratio(tracer.calls("Packet.copy"), tx),
        "packet.len_calls_per_link_tx":
            _ratio(tracer.calls("Packet.__len__"), tx),
        "netem.link.tx_packets": tx,
        "netem.link.queue_drops": c["queue_drops"],
        "dataplane.switch.fastpath_hit_ratio":
            _ratio(c["hits"], c["hits"] + c["misses"]),
        "dataplane.switch.punt_share": _ratio(c["punts"], c["received"]),
        "dataplane.flowtable.lookups_per_forwarded":
            _ratio(c["lookups"], c["forwarded"]),
        "dataplane.flowtable.inserts": tracer.calls("FlowTable.insert"),
        "dataplane.flowtable.removed":
            tracer.slot_calls("Datapath.on_flow_removed"),
        "southbound.channel.msgs": c["msgs"],
        "southbound.channel.bytes": c["bytes"],
        "southbound.channel.msgs_per_flow":
            _ratio(c["msgs"], traced["flows_started"]),
        "controller.core.packet_ins": c["packet_ins"],
        "controller.core.flow_mods": flow_mods,
        "controller.discovery.graph_calls_per_packet_in":
            _ratio(tracer.calls("TopologyDiscovery.graph"),
                   c["packet_ins"]),
        "apps.floods": c["floods"],
        "apps.rebuilds": c["rebuilds"],
        "sim.kernel.events": plain["events"],
        "sim.kernel.events_per_wall_s": plain["events"] / plain_wall,
        "sim.kernel.us_per_event": plain_wall / plain["events"] * 1e6,
        "obs.scrapes": traced.get("scrapes", 0),
        "telemetry.spans": tracer.calls("Tracer.record"),
        "workload.run_s": tracer.total_s("Simulator.run"),
        "workload.finish_s":
            (end_ns - run_end_ns) / 1e9 if run_end_ns else 0.0,
        "workload.fct_p99_sim_ms": plain["fct_p99_sim_ms"] or 0.0,
        "trace.overhead_ratio": traced_wall / plain_wall,
        "trace.untraced_share": 1.0 - tracer.root_ns / 1e9 / traced_wall,
    })
    if name == "fabric_static":
        shard_metrics, shard_failures = _shard_costs(
            spec_seed, scale, plain, plain_wall)
        metrics.update(shard_metrics)
        failures += shard_failures
    metrics.update(micro.run_micro(0.005 if quick else 0.05))

    if metrics["workload.self_share"] > 0.10:
        print(f"warning: {name}: workload.self_share "
              f"{metrics['workload.self_share']:.3f} > 0.10 — the "
              "workload is measuring its own generator")
    aggregates = tracer.table()
    detail = {
        "digest": plain["digest"],
        "spec_seed": spec_seed,
        "plain_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "spans_total": sum(row["calls"] for row in aggregates),
        "spans_kept": len(tracer.raw),
        "tracer_missing": tracer.missing,
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{name}.json")
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "quick": quick,
                   "detail": detail, "metrics": metrics,
                   "aggregates": aggregates, "spans": tracer.raw}, fh)
        fh.write("\n")
    detail["trace_file"] = os.path.relpath(path)
    return metrics, detail, failures
