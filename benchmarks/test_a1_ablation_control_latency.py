"""Ablation A1 — How much of reactive flow setup is controller distance?

DESIGN.md's E1 expectation claims the reactive penalty "grows with
controller latency".  This ablation isolates that variable: identical
topology and workload, controller latency swept 0.1 ms → 10 ms.

Expected shape: first-packet RTT is affine in the control latency with
slope ≈ 4 × path-switches (each of the two switches punts both the echo
request and the reply, each punt costing one control round trip = 2
latencies), while warm RTT is independent of it.
"""

import pytest

from repro.analysis import Series
from repro.core import ZenPlatform
from repro.netem import Topology

from harness import publish

LATENCIES = (0.0001, 0.001, 0.005, 0.01)
SWITCHES = 2


def setup_cost(latency):
    platform = ZenPlatform(
        Topology.linear(SWITCHES, hosts_per_switch=1,
                        bandwidth_bps=1e9, delay=0.00005),
        profile="reactive",
        control_latency=latency,
    ).start()
    platform.net.seed_static_arp()
    src = platform.host("h1")
    dst = platform.host(f"h{SWITCHES}")
    cold = src.ping(dst.ip, count=1)
    platform.run(5.0)
    assert cold.received == 1
    warm = src.ping(dst.ip, count=3, interval=0.05)
    platform.run(5.0)
    assert warm.received == 3
    return cold.avg_rtt * 1e3, warm.avg_rtt * 1e3


def run_experiment():
    series = Series(
        "A1 — reactive first-packet RTT vs controller latency "
        f"({SWITCHES}-switch path)",
        "control_latency_ms",
        ["first_ping_ms", "warm_ping_ms"],
    )
    data = {}
    for latency in LATENCIES:
        cold, warm = setup_cost(latency)
        data[latency] = (cold, warm)
        series.add_point(latency * 1e3, cold, warm)
    return series, data


@pytest.fixture(scope="module")
def results():
    return run_experiment()


def test_a1_control_latency(results, benchmark):
    series, data = results
    publish("a1_control_latency", series)
    benchmark.pedantic(lambda: setup_cost(0.001), rounds=1, iterations=1)
    colds = [data[lat][0] for lat in LATENCIES]
    warms = [data[lat][1] for lat in LATENCIES]
    # Cold setup grows monotonically with latency...
    assert colds == sorted(colds)
    # ...and roughly linearly: slope between the two extreme points is
    # ~8 control latencies (4 punts × 2 one-way trips each).
    slope = (colds[-1] - colds[0]) / ((LATENCIES[-1] - LATENCIES[0]) * 1e3)
    assert 6.0 < slope < 10.0, slope
    # Warm latency is essentially flat in comparison: its spread is a
    # small fraction of the cold spread.
    assert (max(warms) - min(warms)) < (colds[-1] - colds[0]) * 0.35
