"""E18 — Causal trace plane: tracing overhead and bit-identity.

Question: what does full causal tracing — per-packet span trees and
cross-shard context propagation — cost, and does switching it on change
anything a seeded run computes?

Workload: the E14 fat-tree (k=4, proactive profile) driving repeated
UDP microflows.  The identical seeded run executes twice per rep —
tracing off, then tracing on — and the wall-clock delta is the trace
plane's overhead.
Reps are interleaved and each arm takes its minimum wall time.

Contract (the telemetry doctrine, extended to traces): at the gated
sampling config (1-in-8, the production default for always-on
tracing) the plane's own cost — the wall-clock delta divided by the
spans the tracer minted (:attr:`Tracer.spans_recorded`, evicted
ones included) — stays inside ``SPAN_BUDGET_US``, and every
simulation observable is bit-identical between the arms.  The delta
as a share of the run is reported but not gated (it divides by the
cost of forwarding packets, which tracing does not control; see E14).
Full per-packet sampling is measured too and reported ungated — it
costs several times the sampled config, which is why sampled tracing
is the always-on config and per-packet tracing is reserved for
targeted `repro run --trace` runs.  The identity
contract must also hold across the other two execution planes — a
sharded run's merged observables digest (shards=2, in process) and a
clustered fault run's dataplane digest — because spans ride the
observer side-channel and never touch the event heap.
"""

import os
import time

import pytest

from repro.analysis import Table
from repro.core import ZenPlatform, dataplane_digest
from repro.netem import Topology
from repro.sim.shard import run_sharded
from repro.telemetry import Telemetry
from repro.telemetry.artifact import (
    critical_path,
    merge,
    shards_of,
    trace as find_trace,
    tracer_traces,
)
from repro.workload import WorkloadSpec

from harness import RESULTS_DIR, publish, publish_json, seed_arp

PACKETS_PER_FLOW = 160     # keeps the trace-off arm above 0.3 s of wall
#: Wall-clock budget per recorded span at 1-in-8 sampling (it carries
#: the sampling check every untraced packet pays): 3x the 3.5 us
#: measured at PR 13 (median of seven min-of-reps runs, 0.2-7.0 us).
SPAN_BUDGET_US = 10.5
SAMPLE_EVERY = 8           # the gated always-on sampling config
REPS = 7                   # absolute deltas of ~10 ms need a tight minimum


def drive(trace: bool, sample_every: int = SAMPLE_EVERY):
    """One seeded fat-tree run; returns (wall_s, observables, tracer)."""
    telemetry = Telemetry(trace=trace, trace_sample_every=sample_every)
    platform = ZenPlatform(
        Topology.fat_tree(4, bandwidth_bps=1e9, delay=0.00005),
        profile="proactive",
        seed=3,
        telemetry=telemetry,
    ).start()
    seed_arp(platform.net)
    hosts = list(platform.net.hosts.values())
    pairs = [(hosts[i], hosts[(i + 5) % len(hosts)])
             for i in range(len(hosts))]
    for a, b in pairs:
        a.send_udp(b.ip, 5000, 5000, b"warm")
        b.send_udp(a.ip, 5000, 5000, b"warm")
    platform.run(2.0)
    sim = platform.sim
    rng = sim.fork_rng()
    for idx, (a, b) in enumerate(pairs):
        for _ in range(PACKETS_PER_FLOW):
            sim.schedule(rng.uniform(0.0, 1.0), a.send_udp,
                         b.ip, 6000 + idx, 7000, b"x" * 64)
    start = time.perf_counter()
    platform.run(2.0)
    wall = time.perf_counter() - start
    observables = {
        name: (dp.stats(),
               [(t.table_id, t.lookup_count, t.matched_count)
                for t in dp.tables],
               sorted((repr(e.match), e.priority, e.packet_count,
                       e.byte_count)
                      for t in dp.tables for e in t))
        for name, dp in platform.net.switches.items()
    }
    return wall, observables, telemetry.tracer


def _shard_spec():
    return WorkloadSpec(
        "e18-shard",
        topology={"family": "fat_tree", "size": 4},
        seed=18,
        duration=1.0,
        traffic=[
            {"kind": "flows", "rate": 50.0,
             "sizes": {"dist": "pareto", "mean": 6_000, "alpha": 1.5},
             "start": 0.1, "duration": 0.8},
        ],
    )


def sharded_identity():
    """Sharded runs: digest with tracing on == off, and the merged
    artifact actually carries boundary-crossing traces."""
    spec = _shard_spec()
    off = run_sharded(spec, shards=2, processes=False)
    on = run_sharded(spec, shards=2, processes=False, trace=True)
    crossing = sum(1 for t in on.artifact.traces if len(shards_of(t)) > 1)
    return off.digest == on.digest, on, crossing


def cluster_identity():
    """Clustered crash runs: dataplane digest with tracing on == off."""
    def digest(tel):
        platform = ZenPlatform(
            Topology.ring(4, hosts_per_switch=1, bandwidth_bps=1e9),
            controllers=3, profile="reactive", seed=18,
            telemetry=tel,
        ).start()
        net = platform.net
        seed_arp(net)
        hosts = list(net.hosts.values())
        for i, host in enumerate(hosts):
            host.send_udp(hosts[(i + 1) % len(hosts)].ip, 7, 7, b"e18")
        platform.run(1.0)
        sched = platform.fault_schedule()
        victim = platform.cluster.master_of(net.switches["s1"].dpid)
        sched.controller_crash(net.sim.now + 0.5, victim,
                               restart_after=0.4)
        platform.run(3.0)
        return dataplane_digest(net), tel

    off, _ = digest(Telemetry(trace=False))
    on, tel = digest(Telemetry(trace=True))
    return off == on, tel.tracer


def run_experiment():
    walls = {False: [], True: []}
    observables = {}
    tracer = None
    for _ in range(REPS):
        for trace in (False, True):
            wall, obs_state, tr = drive(trace)
            walls[trace].append(wall)
            observables[trace] = obs_state
            if trace:
                tracer = tr
    off = min(walls[False])
    on = min(walls[True])
    overhead_pct = (on - off) / off * 100.0
    span_cost_us = (on - off) / tracer.spans_recorded * 1e6
    identical = observables[False] == observables[True]

    # Full per-packet sampling, ungated: the cost ceiling that makes
    # 1-in-8 the always-on default.  Bit-identity must hold here too.
    full_walls = []
    for _ in range(REPS):
        wall, full_obs, _ = drive(True, sample_every=1)
        full_walls.append(wall)
    full_overhead_pct = (min(full_walls) - off) / off * 100.0
    identical = identical and full_obs == observables[False]

    shard_identical, shard_run, crossing = sharded_identity()
    cluster_identical, cluster_tracer = cluster_identity()
    fault_traces = [
        (tid, label, spans) for tid, label, spans in
        cluster_tracer.traces()
        if label.startswith("fault:controller_crash")
    ]
    handover_total = 0.0
    if fault_traces:
        handover_total = critical_path(find_trace(
            tracer_traces(cluster_tracer), fault_traces[0][0]))["total"]

    table = Table(
        "E18 — trace plane overhead (fat-tree k=4, proactive) "
        "and bit-identity across execution planes",
        ["measure", "value"],
    )
    table.add_row("wall_s trace off (min of reps)", f"{off:.3f}")
    table.add_row(f"wall_s trace on, 1-in-{SAMPLE_EVERY} (min of reps)",
                  f"{on:.3f}")
    table.add_row(f"cost per span (us, 1-in-{SAMPLE_EVERY}, gated)",
                  f"{span_cost_us:.2f}")
    table.add_row(f"tracing overhead % (1-in-{SAMPLE_EVERY}, reported)",
                  f"{overhead_pct:.2f}")
    table.add_row("tracing overhead % (per-packet, ungated)",
                  f"{full_overhead_pct:.2f}")
    table.add_row("observables bit-identical", identical)
    table.add_row("traces retained", tracer.trace_count)
    table.add_row("spans recorded (tracer)", tracer.spans_recorded)
    table.add_row("sharded digest identical (2 shards)", shard_identical)
    table.add_row("cross-shard traces in merged artifact", crossing)
    table.add_row("cluster dataplane identical", cluster_identical)
    table.add_row("handover critical path (s)", f"{handover_total:.4f}")
    return (table, off, on, overhead_pct, span_cost_us,
            full_overhead_pct, identical, tracer, shard_identical,
            shard_run, crossing, cluster_identical, handover_total)


@pytest.fixture(scope="module")
def results():
    return run_experiment()


def test_e18_trace(results, benchmark):
    (table, off, on, overhead_pct, span_cost_us, full_overhead_pct,
     identical, tracer, shard_identical, shard_run, crossing,
     cluster_identical, handover_total) = results
    publish("e18_trace", table)
    # ~900 KB: git-ignored, uploaded by CI instead of committed.
    out_dir = os.path.join(RESULTS_DIR, "e18_artifacts")
    os.makedirs(out_dir, exist_ok=True)
    shard_run.save(os.path.join(out_dir, "trace_artifact.json"))
    publish_json("E18", {
        "wall_s": {"trace_off": off, "trace_on": on},
        "overhead_pct": overhead_pct,
        "span_cost_us": span_cost_us,
        "span_budget_us": SPAN_BUDGET_US,
        "full_sampling_overhead_pct": full_overhead_pct,
        "sample_every": SAMPLE_EVERY,
        "identical": identical,
        "sharded_identical": shard_identical,
        "cluster_identical": cluster_identical,
        "traces": tracer.trace_count,
        "spans_recorded": tracer.spans_recorded,
        "cross_shard_traces": crossing,
        "handover_critical_path_s": handover_total,
    })
    # One full-trace merge from the sharded run, for the record.
    benchmark.pedantic(
        lambda: merge([shard_run.artifact.traces]),
        rounds=1, iterations=1)

    assert identical, "trace plane perturbed the seeded run"
    assert span_cost_us < SPAN_BUDGET_US, (
        f"a recorded span costs {span_cost_us:.2f} us of wall, over "
        f"the {SPAN_BUDGET_US} us budget"
    )
    assert tracer.trace_count > 0 and tracer.spans_recorded > 0


def test_e18_cross_plane_identity(results):
    (_, _, _, _, _, _, _, _, shard_identical, shard_run, crossing,
     cluster_identical, handover_total) = results
    assert shard_identical, "tracing changed the sharded digest"
    assert cluster_identical, "tracing changed the cluster dataplane"
    assert crossing > 0, "no trace crossed a shard boundary"
    assert handover_total > 0, "no handover critical path recorded"
