"""The five benchmark workloads, each one user-level call.

Every workload is a function ``run(seed, scale) -> dict`` that drives
only public entry points of ``repro`` and returns what a user of that
entry point can see: a digest of the run's observables, the kernel
event count, link transmissions, flows started/completed, simulated
p99 FCT and a health verdict.  ``scale`` multiplies simulated
durations and never changes the shape: ``1.0`` is one measured *unit*,
``0.0`` is the set-up probe (build, warm-up, arming and result
assembly with an empty traffic phase), ``--quick`` runs ``1/8``.

Units are sized for 1-3 s of wall each on the seed commit, so a
``--seconds 12`` run fits several independently seeded units and
reports medians over them: Poisson arrivals and Pareto sizes make the
*volume* of one unit a seed lottery, while cost per link transmission
is not.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Callable, Dict, List, Optional

#: Elephant/mice mixture of the E16 ``dc-heavy-tail`` scenario, with a
#: Pareto shape of 2.5 where the library takes the default 1.2: at 1.2
#: sizes have infinite variance, one multi-megabyte elephant outweighs
#: the rest of a unit, and no statistic over a few units is steady.
ELEPHANT_MICE = {"dist": "mix", "mice_mean": 2_000,
                 "elephant_mean": 120_000, "elephant_frac": 0.05,
                 "shape": 2.5}

#: Learning-switch idle timeout for ``reactive_setup``.  Not 1.0:
#: ``FlowTable.expire`` livelocks when a never-hit entry's deadline
#: lands exactly on a sweep instant (idle_timeout == the 1.0 s sweep
#: interval): ``3.0465834287758686 + 1.0 = 4.046583428775868 <= now``
#: pops the deadline, but ``now - last_used = 0.9999999999999996 <
#: 1.0`` says "not expired", so it re-arms at the same deadline
#: forever.  See README.md, "known hazards".
IDLE_TIMEOUT = 0.73

#: ``--quick`` divides every simulated duration by 8 (self-test only).
QUICK_SCALE = 1 / 8

FILLER_PRIORITIES = 64     # E12's recipe: 64 bands x 8 entries = 512
FILLER_PER_PRIORITY = 8    # never-matching entries per table 0
FILLER_ETH_TYPE = 0x86DD   # IPv6: nothing here sends it


def unit_seed(seed: int, workload: str, unit: int) -> int:
    """The spec seed of one unit: a pure function of the run's
    ``--seed``, the workload and the unit's position in the run."""
    return random.Random(f"{seed}/{workload}/{unit}").getrandbits(31)


def _learn_hosts_burst(n_hosts: int) -> dict:
    """One 64-byte datagram from every host to the incast aggregator.

    ``run_workload`` pins static ARP, so under the proactive profile a
    host is only learned when it happens to send toward a still-unknown
    destination; until then everything addressed *to* it is flooded at
    ~36 link transmissions per packet.  Which hosts stay unknown for
    how long is a seed lottery worth 6x in wall time.  This burst makes
    every sender known at t=0.05; the aggregator itself never sends, so
    traffic toward it keeps exercising the flood path, every seed.
    """
    return {"kind": "incast", "fanin": n_hosts - 1, "bytes_per_sender": 64,
            "period": 1.0, "start": 0.05, "duration": 0.1}


def _ms(seconds: Optional[float]) -> Optional[float]:
    return seconds * 1e3 if seconds is not None else None


def _series_total(artifact, name: str) -> float:
    total = 0.0
    for series in artifact.match(name):
        last = series.last
        if last is not None:
            total += last[1]
    return total


def _workload_result(result) -> dict:
    """Fold a ``WorkloadResult`` into the common unit record."""
    summary = result.summary
    return {
        "digest": result.digest,
        "events": summary["events"],
        "packets": int(_series_total(result.artifact,
                                     "link_tx_packets_total")),
        "flows_started": summary["flows_started"],
        "flows_completed": summary["flows_completed"],
        "fct_p99_sim_ms": _ms(summary["fct_p99"]),
        "health_ok": summary["health_ok"],
        "scrapes": result.artifact.scrapes,
    }


def _platform_result(platform, sinks, generator, fcts) -> dict:
    """Observables of a hand-assembled ``ZenPlatform`` run, digested the
    way the sharded engine digests its own (flows, switch counters,
    per-direction link counters)."""
    from repro.analysis import percentile

    net = platform.net
    flows = sorted(
        [r.flow_id, r.src, r.dst, r.size, r.start_time, r.end_time,
         r.bytes_received, r.packets_received]
        for sink in sinks.values() for r in sink.flows.values())
    links = []
    packets = 0
    for link in net.links:
        halves = link.direction_stats()
        for half in halves:
            half.pop("utilisation", None)
            packets += half["tx_packets"]
        links.append(halves)
    observables = {
        "flows": flows,
        "switches": {name: dp.stats()
                     for name, dp in sorted(net.switches.items())},
        "links": links,
        "events": platform.sim.events_processed,
    }
    blob = json.dumps(observables, sort_keys=True)
    return {
        "digest": hashlib.sha256(blob.encode()).hexdigest(),
        "events": platform.sim.events_processed,
        "packets": packets,
        "flows_started": len(generator.flows_started) if generator else 0,
        "flows_completed": sum(len(s.completed_flows())
                               for s in sinks.values()),
        "fct_p99_sim_ms": _ms(percentile(fcts, 99) if fcts else None),
        "health_ok": None,
    }


def _seed_arp(net) -> list:
    hosts = [net.hosts[name] for name in sorted(net.hosts)]
    for a in hosts:
        for b in hosts:
            if a is not b:
                a.add_static_arp(b.ip, b.mac)
    return hosts


# ----------------------------------------------------------------------
# run_workload: the full stack as every workload-plane user gets it
# ----------------------------------------------------------------------
def _run_on_fat_tree(name: str, seed: int, scale: float,
                     traffic: List[dict],
                     faults: Optional[List[dict]] = None) -> dict:
    """``run_workload`` on the proactive k=4 fat-tree, after the
    host-learning burst; the set-up probe arms everything, runs 0 s."""
    from repro.workload import WorkloadSpec, run_workload

    spec = WorkloadSpec(
        name,
        topology={"family": "fat_tree", "size": 4},
        profile="proactive",
        seed=seed,
        duration=None if scale else 0.0,
        traffic=[_learn_hosts_burst(16)] + traffic,
        faults=faults,
    )
    return _workload_result(run_workload(spec))


def dc_mix(seed: int, scale: float) -> dict:
    """E16's fat-tree elephant/mice Poisson mix plus 8-way incast."""
    span = 0.75 * scale  # one incast burst and ~45 flows per unit
    return _run_on_fat_tree("dc_mix", seed, scale, [
        {"kind": "flows", "rate": 60.0, "sizes": ELEPHANT_MICE,
         "start": 0.5, "duration": span},
        {"kind": "incast", "fanin": 8, "bytes_per_sender": 30_000,
         "period": 1.0, "start": 0.5, "duration": span},
    ])


def failover_storm(seed: int, scale: float) -> dict:
    """A switch crash and channel flaps under load, then link flaps.

    The link flaps start only once the last flow has ended: a flap
    under traffic leaves a transient unicast forwarding loop behind
    (README.md, "known hazards") in which single packets circulate for
    hundreds of milliseconds, multiplying link transmissions by a
    seed-dependent 10-40x.  After the traffic, the flaps still drive
    port-status -> discovery -> router rebuild -> bulk flow-mods.
    Flows are fixed-size and many, so the share that floods toward the
    never-learned aggregator is steady from seed to seed.
    """
    s = scale or 1.0  # the probe arms the same schedule
    return _run_on_fat_tree("failover_storm", seed, scale, [
        {"kind": "flows", "rate": 120.0,
         "sizes": {"dist": "fixed", "size": 3_000},
         "start": 0.5, "duration": 3.0 * scale},
    ], faults=[
        {"kind": "channel_flap", "switch": "p2e0", "at": 0.8 * s,
         "down_for": 0.3 * s, "period": 0.9 * s, "count": 2},
        {"kind": "switch_crash", "switch": "p1a0", "at": 1.0 * s,
         "restart_after": 1.0 * s},
        {"kind": "link_flap", "a": "p0a0", "b": "c0", "at": 3.6 * s,
         "down_for": 0.3 * s, "period": 0.7 * s, "count": 4},
    ])


# ----------------------------------------------------------------------
# run_sharded: static forwarding, no controller, NULL telemetry
# ----------------------------------------------------------------------
def _fabric_spec(seed: int, scale: float):
    """The E17 oracle spec (fat-tree k=6, 8 ms links)."""
    from repro.workload import WorkloadSpec

    return WorkloadSpec(
        "fabric_static",
        topology={"family": "fat_tree",
                  "params": {"k": 6, "delay": 0.008,
                             "bandwidth_bps": 1e9}},
        seed=seed,
        duration=1.5 * scale,
        traffic=[
            {"kind": "flows", "rate": 400.0,
             "sizes": {"dist": "mix", "mice_mean": 2_000,
                       "elephant_mean": 80_000, "elephant_frac": 0.05},
             "start": 0.2 * scale, "duration": 1.0 * scale},
            {"kind": "incast", "fanin": 12, "bytes_per_sender": 20_000,
             "period": 0.4, "start": 0.3 * scale,
             "duration": 0.9 * scale},
        ],
    )


def _sharded_result(result) -> dict:
    """Fold a ``ShardedResult`` into the common unit record."""
    summary = result.summary
    packets = sum(half["tx_packets"]
                  for halves in result.observables["links"].values()
                  for half in halves.values())
    return {
        "digest": result.digest,
        "events": summary["events"],
        "rounds": summary["rounds"],
        "packets": packets,
        "flows_started": summary["flows_started"],
        "flows_completed": summary["flows_completed"],
        "fct_p99_sim_ms": _ms(summary["fct_p99"]),
        "health_ok": None,
    }


def fabric_static(seed: int, scale: float, shards: int = 1,
                  processes: bool = False) -> dict:
    """The E17 oracle: one shard, one inclusive window."""
    import repro.sim.shard as shard  # looked up late: the tracer patches it

    return _sharded_result(shard.run_sharded(
        _fabric_spec(seed, scale), shards=shards, processes=processes))


# ----------------------------------------------------------------------
# ZenPlatform assembled by hand: the dataplane's write and read sides
# ----------------------------------------------------------------------
def reactive_setup(seed: int, scale: float) -> dict:
    """Per-flow reactive set-up: punt, flow-mod, insert, then expire."""
    from repro.core import ZenPlatform
    from repro.netem import Topology
    from repro.workload.generators import arm_traffic

    platform = ZenPlatform(Topology.tree(depth=3, fanout=2),
                           profile="reactive", seed=seed, exact_match=True)
    platform.learning.idle_timeout = IDLE_TIMEOUT
    platform.start()
    hosts = _seed_arp(platform.net)
    sinks: Dict[tuple, object] = {}
    fcts: List[float] = []
    span = 1.5 * scale
    generator = arm_traffic(
        platform.sim, hosts,
        {"kind": "flows", "rate": 400.0,
         "sizes": {"dist": "fixed", "size": 1_500},  # two datagrams
         "start": 0.1, "duration": span},
        sinks, on_flow_complete=lambda record: fcts.append(record.fct))
    # Long enough past the last arrival for every entry to idle out.
    platform.run(span + 2.0 if scale else 0.0)
    return _platform_result(platform, sinks, generator, fcts)


def _dataplane_totals(net) -> Dict[str, int]:
    totals = {"to_controller": 0, "hits": 0, "misses": 0,
              "host_rx": sum(h.rx_packets for h in net.hosts.values())}
    for dp in net.switches.values():
        fast = dp.fast_path_stats()
        totals["to_controller"] += dp.stats()["to_controller"]
        totals["hits"] += fast["hits"]
        totals["misses"] += fast["misses"]
    return totals


def deep_table_scan(seed: int, scale: float) -> dict:
    """Working set >> reuse: half of all packets scan 512 filler rules."""
    from repro.core import ZenPlatform
    from repro.dataplane import FlowEntry, Match
    from repro.netem import Topology

    platform = ZenPlatform(
        Topology.fat_tree(4, bandwidth_bps=1e9, delay=50e-6),
        profile="proactive", seed=seed, fast_path=True).start()
    net, sim = platform.net, platform.sim
    hosts = _seed_arp(net)
    # Warm every host so the router holds a rule per destination, then
    # silence LLDP probing: nothing in the measured phase may punt.
    for i, a in enumerate(hosts):
        b = hosts[(i + 5) % len(hosts)]
        a.send_udp(b.ip, 5000, 5000, b"warm")
        b.send_udp(a.ip, 5000, 5000, b"warm")
    platform.run(2.0)
    platform.discovery.stop()
    for dp in net.switches.values():
        for i in range(FILLER_PRIORITIES):
            for j in range(FILLER_PER_PRIORITY):
                dp.install_flow(FlowEntry(
                    Match(eth_type=FILLER_ETH_TYPE, l4_dst=j), [],
                    priority=1000 + i))
    # 1000 distinct 5-tuples, two 64-byte datagrams each: the first
    # walks the table at every hop, the second hits the microflow cache.
    rng = sim.fork_rng()
    span = 0.7 * scale
    tuples = int(1_000 * scale)
    payload = b"x" * 64
    for tuple_no in range(tuples):
        a, b = rng.sample(hosts, 2)
        for _ in range(2):
            sim.schedule(rng.uniform(0.0, span), a.send_udp,
                         b.ip, 10_000 + tuple_no, 7000, payload)
    before = _dataplane_totals(net)
    platform.run(span + 0.5 if scale else 0.0)
    delta = {key: value - before[key]
             for key, value in _dataplane_totals(net).items()}
    result = _platform_result(platform, {}, None, [])
    # Every datagram is this workload's "flow"; there is no FCT.
    result["flows_started"] = 2 * tuples
    result["flows_completed"] = delta["host_rx"]
    probes = delta["hits"] + delta["misses"]
    result["measured_hit_ratio"] = delta["hits"] / probes if probes else None
    result["measured_punts"] = delta["to_controller"]
    return result


WORKLOADS: Dict[str, Callable[[int, float], dict]] = {
    "dc_mix": dc_mix,
    "fabric_static": fabric_static,
    "reactive_setup": reactive_setup,
    "deep_table_scan": deep_table_scan,
    "failover_storm": failover_storm,
}
