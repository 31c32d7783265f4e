"""E12 — Datapath fast path: what depth costs, what masks cost, and
what the microflow cache buys back.

Question: the flow table is a tuple-space classifier — one hash per
match *shape* — under an exact-match microflow cache.  Does a deep
table still cost anything, what does, and does the cache change any
observable behaviour?

Workload: a k=4 fat-tree under the proactive profile; a fixed set of
host pairs exchanges repeated UDP flows.  The identical simulation runs
over three recipes for table 0, each with the cache off and on:

* *shallow* — the router's own rules, no filler;
* *deep, one mask* — 512 high-priority filler rules that never match
  traffic, all of one shape ``(eth_type, l4_dst)``, in 64 priority
  bands (the recipe a per-priority scan paid 64 x 8 compares for);
* *deep, many masks* — the same 512 rules and bands, but every band a
  shape of its own (``ip_dst`` prefix lengths 1-32, with and without
  an ``ip_src/8``): 64 subtables above the routing rule.

We measure dataplane packets per *wall-clock* second plus a kernel
events-per-second microbench for the tuple-heap hot loop, and publish
three ratios: ``depth_ratio`` = deep-one-mask / shallow, both cache off;
``hit_speedup`` = cache on / off on the one-mask table, where a lookup
is two row probes and a hit has almost nothing to save; and
``mask_speedup`` = cache on / off on the many-mask table.

Expected shape: depth is free (512 same-shape rules are one more row
probe: ``depth_ratio`` ~ 1, contract >= 0.8 — it read 0.155 when every
band was scanned); a hit costs less than a probe on every table
(``hit_speedup`` > 1: the cache is probed with the frame's memoised
wire-image fields and a hit builds no ``FlowKey``; it read 0.97 when
every hit extracted a key first); masks are what cost (64 probes per
lookup), and that is where the cache pays most, per mask.  Every
simulation observable (switch
counters, flow stats) must be bit-identical cache on vs off in all
three recipes — the cache is a pure performance construct.
"""

import time

import pytest

from repro.analysis import Table
from repro.core import ZenPlatform
from repro.dataplane.flowtable import FlowEntry
from repro.dataplane.match import Match
from repro.netem import Topology
from repro.sim import Simulator

from harness import publish, publish_json, seed_arp

DEEP_PRIORITIES = 64       # filler priority bands above the router rules
ENTRIES_PER_PRIORITY = 8   # 512 never-matching entries per table 0
PACKETS_PER_FLOW = 40
FILLER_ETH_TYPE = 0x86DD   # IPv6: never sent by this workload
MIN_DEPTH_RATIO = 0.8      # E12's contract, machine-independent
KERNEL_EVENTS = 200_000
REPS = 3                   # per arm, fastest kept: the window is ~0.1 s


def no_filler(band, j):
    return None


def one_mask(band, j):
    return Match(eth_type=FILLER_ETH_TYPE, l4_dst=j)


def many_masks(band, j):
    fields = {"ip_dst": "10.128.0.0/%d" % (band % 32 + 1)}
    if band >= 32:
        fields["ip_src"] = "10.0.0.0/8"
    return Match(eth_type=FILLER_ETH_TYPE, l4_dst=j, **fields)


RECIPES = {"shallow": no_filler, "one_mask": one_mask,
           "many_masks": many_masks}


def drive(fast_path, filler=one_mask):
    """One full fat-tree run; returns (packets/wall-s, observables)."""
    platform = ZenPlatform(
        Topology.fat_tree(4, bandwidth_bps=1e9, delay=0.00005),
        profile="proactive",
        seed=3,
        fast_path=fast_path,
    ).start()
    seed_arp(platform.net)
    hosts = list(platform.net.hosts.values())
    pairs = [(hosts[i], hosts[(i + 5) % len(hosts)])
             for i in range(len(hosts))]
    # Warm the proactive router: one frame each way installs the rules.
    for a, b in pairs:
        a.send_udp(b.ip, 5000, 5000, b"warm")
        b.send_udp(a.ip, 5000, 5000, b"warm")
    platform.run(2.0)
    # Deepen every table 0 with filler the workload must scan past.
    for dp in platform.net.switches.values():
        table = dp.tables[0]
        for i in range(DEEP_PRIORITIES):
            for j in range(ENTRIES_PER_PRIORITY):
                match = filler(i, j)
                if match is not None:
                    table.insert(FlowEntry(match, [], priority=1000 + i))
    # Measured workload: repeated packets per microflow, spread over 1 s.
    sim = platform.sim
    rng = sim.fork_rng()
    for idx, (a, b) in enumerate(pairs):
        for _ in range(PACKETS_PER_FLOW):
            sim.schedule(rng.uniform(0.0, 1.0), a.send_udp,
                         b.ip, 6000 + idx, 7000, b"x" * 64)
    switches = platform.net.switches
    base = sum(dp.packets_forwarded for dp in switches.values())
    hits0 = sum(dp.fast_path_hits for dp in switches.values())
    misses0 = sum(dp.fast_path_misses for dp in switches.values())
    start = time.perf_counter()
    platform.run(2.0)
    wall = time.perf_counter() - start
    forwarded = sum(
        dp.packets_forwarded for dp in switches.values()
    ) - base
    observables = {
        name: (dp.stats(),
               [(t.table_id, t.lookup_count, t.matched_count)
                for t in dp.tables],
               sorted((repr(e.match), e.priority, e.packet_count,
                       e.byte_count)
                      for t in dp.tables for e in t))
        for name, dp in switches.items()
    }
    hits = sum(dp.fast_path_hits for dp in switches.values()) - hits0
    misses = sum(
        dp.fast_path_misses for dp in switches.values()
    ) - misses0
    return {
        "pps": forwarded / wall,
        "wall_s": wall,
        "forwarded": forwarded,
        "events": sim.events_processed,
        "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "observables": observables,
    }


def kernel_events_per_second(n=KERNEL_EVENTS):
    """Raw kernel dispatch rate, with a cancellation-churn component."""
    sim = Simulator(seed=0)
    counter = [0]

    def tick():
        counter[0] += 1

    for i in range(n):
        sim.schedule_at(i * 1e-6, tick)
    churn = [sim.schedule_at(i * 1e-6 + 5e-7, tick)
             for i in range(n // 4)]
    for event in churn[::2]:
        event.cancel()
    start = time.perf_counter()
    sim.run_until_idle()
    wall = time.perf_counter() - start
    return sim.events_processed / wall


def run_experiment():
    def fastest(fast_path, filler):
        return max((drive(fast_path, filler) for _ in range(REPS)),
                   key=lambda run: run["pps"])

    runs = {name: {"off": fastest(False, filler), "on": fastest(True, filler)}
            for name, filler in RECIPES.items()}
    kernel_rate = kernel_events_per_second()
    table = Table(
        "E12 — fast-path throughput, fat-tree k=4, three table recipes",
        ["table", "fast_path", "packets_per_wall_s", "wall_s",
         "forwarded", "cache_hit_rate"],
    )
    for name, arms in runs.items():
        for arm in ("off", "on"):
            run = arms[arm]
            table.add_row(name, arm, run["pps"], run["wall_s"],
                          run["forwarded"], run["hit_rate"])
    return table, runs, kernel_rate


@pytest.fixture(scope="module")
def results():
    return run_experiment()


def test_e12_fastpath(results, benchmark):
    table, runs, kernel_rate = results
    publish("e12_fastpath", table)
    depth_ratio = (runs["one_mask"]["off"]["pps"]
                   / runs["shallow"]["off"]["pps"])
    hit_speedup = (runs["one_mask"]["on"]["pps"]
                   / runs["one_mask"]["off"]["pps"])
    mask_speedup = (runs["many_masks"]["on"]["pps"]
                    / runs["many_masks"]["off"]["pps"])
    on = runs["many_masks"]["on"]
    publish_json("E12", {
        "packets_per_wall_s": {
            name: {arm: arms[arm]["pps"] for arm in ("off", "on")}
            for name, arms in runs.items()},
        "depth_ratio": depth_ratio,
        "hit_speedup": hit_speedup,
        "mask_speedup": mask_speedup,
        "cache_hit_rate": on["hit_rate"],
        "kernel_events_per_s": kernel_rate,
        "forwarded_packets": on["forwarded"],
        "sim_events": on["events"],
    })
    benchmark.pedantic(lambda: drive(True), rounds=1, iterations=1)
    # The cache is semantically invisible: identical seeds produce
    # identical counters whether it is on or off, whatever the table.
    for name, arms in runs.items():
        assert arms["on"]["observables"] == arms["off"]["observables"], name
        assert arms["on"]["events"] == arms["off"]["events"], name
        assert arms["on"]["forwarded"] == arms["off"]["forwarded"], name
        assert arms["on"]["hit_rate"] > 0.8, name
    # Filler never matches, so it never changes what is forwarded.
    assert len({arms["on"]["forwarded"] for arms in runs.values()}) == 1
    # Depth is free: 512 same-shape rules are one more row probe.
    assert depth_ratio >= MIN_DEPTH_RATIO, (
        f"deep one-mask table runs at {depth_ratio:.2f}x the shallow "
        f"one, below {MIN_DEPTH_RATIO}x "
        f"({runs['shallow']['off']['pps']:.0f} -> "
        f"{runs['one_mask']['off']['pps']:.0f} pkts/wall-s)"
    )
    # hit_speedup (a hit against two row probes: a few percent either
    # side of 1.1 in a 70 ms window) is gated against its baseline by
    # check_regression.py, not asserted here.
    # Masks are what cost, and there the cache pays for itself most.
    assert mask_speedup > 1.0, (
        f"microflow cache is worth {mask_speedup:.2f}x over 64 masks"
    )


def test_e12_kernel_microbench(results):
    _, _, kernel_rate = results
    # The tuple-heap hot loop should sustain a healthy dispatch rate
    # even on slow CI machines; this is a smoke floor, not a target.
    assert kernel_rate > 50_000
