"""E5 / Table 3 — Traffic engineering vs. shortest-path vs. ECMP.

Question: under a skewed traffic matrix, how much does capacity-aware
central placement buy over topology-oblivious schemes?

Workload: fat-tree k=4 (10 Mb/s fabric links), a hotspot matrix of 8
inter-pod CBR demands of 3 Mb/s each — enough aggregate (24 Mb/s) that
single-shortest-path routing must congest some 10 Mb/s core link.

Metrics: planned max-link utilisation (from the placement), *measured*
max/mean fabric-link utilisation (from the emulated links), and
delivered goodput at the sinks.

Expected shape: SPF concentrates the hotspot and loses traffic to queue
drops; ECMP spreads by hash (better, but collisions persist); greedy TE
keeps every link under capacity and delivers everything.
"""

import pytest

from repro.analysis import Table, mean
from repro.apps import Demand, TrafficEngineering
from repro.core import ZenPlatform
from repro.netem import CBRStream, FlowSink, Topology

from harness import publish

FABRIC_BW = 10e6
DEMAND_BPS = 3e6
MEASURE_SECONDS = 4.0

#: Hotspot matrix: every pod-0/1 host pair targets pod 2/3 receivers.
PAIRS = [
    ("p0e0h0", "p2e0h0"),
    ("p0e0h1", "p2e0h1"),
    ("p0e1h0", "p2e1h0"),
    ("p0e1h1", "p2e1h1"),
    ("p1e0h0", "p3e0h0"),
    ("p1e0h1", "p3e0h1"),
    ("p1e1h0", "p3e1h0"),
    ("p1e1h1", "p3e1h1"),
]


def run_strategy(strategy):
    platform = ZenPlatform(
        Topology.fat_tree(4, bandwidth_bps=FABRIC_BW, delay=0.0001,
                          queue_capacity=30),
        probe_interval=0.5,
    ).start(warmup=2.0)
    platform.net.seed_static_arp()
    te = platform.add_app(TrafficEngineering(
        default_capacity_bps=FABRIC_BW, strategy=strategy, k=8,
        admit_all=True,
    ))
    # Make all endpoints known.
    for src_name, dst_name in PAIRS:
        platform.host(src_name).send_udp(
            platform.host(dst_name).ip, 7, 7, b"warm")
        platform.host(dst_name).send_udp(
            platform.host(src_name).ip, 7, 7, b"warm")
    platform.run(1.0)
    demands = [
        Demand(platform.host(a).ip, platform.host(b).ip, DEMAND_BPS)
        for a, b in PAIRS
    ]
    placement = te.install(demands)
    platform.run(0.5)

    sinks = []
    for src_name, dst_name in PAIRS:
        dst = platform.host(dst_name)
        sinks.append(FlowSink(dst, 9000))
        CBRStream(platform.host(src_name), dst.ip, rate_bps=DEMAND_BPS,
                  packet_size=1000, duration=MEASURE_SECONDS + 1.0)
    platform.net.reset_utilisation_windows()
    platform.run(MEASURE_SECONDS)
    # Fabric links: both endpoints are switches.
    switch_names = set(platform.net.switches)
    fabric_links = [
        link for link in platform.net.links
        if link.a.node_name in switch_names
        and link.b.node_name in switch_names
    ]
    utils = [link.max_utilisation for link in fabric_links]
    delivered = sum(s.total_bytes for s in sinks) * 8 / MEASURE_SECONDS
    offered = DEMAND_BPS * len(PAIRS)
    caps = {
        frozenset(e): FABRIC_BW
        for e in platform.discovery.graph().edges()
    }
    return {
        "planned_max_util": placement.max_utilisation(caps),
        "measured_max_util": max(utils),
        "measured_mean_util": mean([u for u in utils if u > 0.01]),
        "goodput_ratio": delivered / offered,
    }


def run_experiment():
    table = Table(
        "E5 / Table 3 — TE on fat-tree k=4, 8x3Mb/s hotspot demands "
        "over 10Mb/s links",
        ["strategy", "planned_max_util", "measured_max_util",
         "measured_mean_util", "goodput_ratio"],
    )
    data = {}
    for strategy in ("spf", "ecmp", "greedy"):
        out = run_strategy(strategy)
        data[strategy] = out
        table.add_row(strategy, out["planned_max_util"],
                      out["measured_max_util"],
                      out["measured_mean_util"], out["goodput_ratio"])
    return table, data


@pytest.fixture(scope="module")
def results():
    return run_experiment()


def test_e5_traffic_engineering(results, benchmark):
    table, data = results
    publish("e5_table3", table)
    benchmark.pedantic(lambda: run_strategy("greedy"), rounds=1,
                       iterations=1)
    spf, ecmp, greedy = data["spf"], data["ecmp"], data["greedy"]
    # SPF must congest: some link is planned well beyond capacity and
    # goodput suffers.
    assert spf["planned_max_util"] > 1.0
    assert spf["measured_max_util"] > 0.95
    assert spf["goodput_ratio"] < 0.9
    # Greedy fits everything under capacity and delivers ~all of it.
    assert greedy["planned_max_util"] <= 1.0
    assert greedy["goodput_ratio"] > 0.95
    # Ordering: greedy >= ecmp >= spf on goodput; the reverse on peak
    # utilisation.
    assert greedy["goodput_ratio"] >= ecmp["goodput_ratio"] - 0.02
    assert ecmp["goodput_ratio"] > spf["goodput_ratio"]
    assert spf["measured_max_util"] >= greedy["measured_max_util"]
