"""Ablation A2 — Microflow rules under flow-table pressure.

E2 shows exact-match state grows with flow count; this ablation asks
what happens when it *cannot*: the flow table is capped and the LRU
eviction policy (a real OpenFlow option) must churn entries.

Workload: 60 concurrent microflows through a single reactive
(exact-match) switch whose table holds 16–128 entries, each flow
re-sending periodically.

Expected shape: with capacity ≥ flows, no evictions and no extra
punts.  Under pressure, evictions and controller punts climb steeply —
the working set thrashes.  Delivery still succeeds (the controller
reinstalls), which is exactly why undersized tables show up as control-
plane load rather than loss.
"""

import pytest

from repro.analysis import Series
from repro.core import ZenPlatform
from repro.netem import Topology

from harness import publish

FLOWS = 60
ROUNDS = 5
CAPACITIES = (16, 32, 64, 128)


def run_capacity(capacity):
    platform = ZenPlatform(
        Topology.single(6, bandwidth_bps=1e9),
        profile="reactive",
        exact_match=True,
        table_capacity=capacity,
        eviction_policy="lru",
    ).start()
    platform.net.seed_static_arp()
    hosts = list(platform.net.hosts.values())
    # Primer so destinations are learnable.
    for i, host in enumerate(hosts):
        host.send_udp(hosts[(i + 1) % len(hosts)].ip, 8, 8, b"p")
    platform.run(1.0)
    dp = platform.switch("s1")
    punts_before = dp.packets_to_controller
    received = [0]
    for host in hosts:
        host.on_udp = lambda pkt, h: received.__setitem__(
            0, received[0] + 1)
    for round_no in range(ROUNDS):
        for n in range(FLOWS):
            src = hosts[n % len(hosts)]
            dst = hosts[(n + 1 + n // len(hosts)) % len(hosts)]
            if dst is src:
                dst = hosts[(n + 2) % len(hosts)]
            src.send_udp(dst.ip, 10000 + n, 9000, b"data")
        platform.run(1.0)
    punts = dp.packets_to_controller - punts_before
    occupancy = sum(len(t) for t in dp.tables)
    return {
        "punts": punts,
        "delivered": received[0],
        "occupancy": occupancy,
    }


def run_experiment():
    series = Series(
        f"A2 — LRU table pressure: {FLOWS} microflows x {ROUNDS} "
        "rounds vs table capacity",
        "capacity",
        ["controller_punts", "delivered", "final_occupancy"],
    )
    data = {}
    for capacity in CAPACITIES:
        out = run_capacity(capacity)
        data[capacity] = out
        series.add_point(capacity, out["punts"], out["delivered"],
                         out["occupancy"])
    return series, data


@pytest.fixture(scope="module")
def results():
    return run_experiment()


def test_a2_table_pressure(results, benchmark):
    series, data = results
    publish("a2_table_pressure", series)
    benchmark.pedantic(lambda: run_capacity(32), rounds=1, iterations=1)
    total = FLOWS * ROUNDS
    # Delivery never fails — pressure turns into control load, not loss.
    for out in data.values():
        assert out["delivered"] == total
    # With room for the working set, later rounds ride installed rules:
    # punts stay near one per flow.
    assert data[128]["punts"] <= FLOWS * 2
    # Undersized tables thrash: punts approach one per packet.
    assert data[16]["punts"] > total * 0.6
    # Monotone: less capacity, more punts.
    punts = [data[c]["punts"] for c in CAPACITIES]
    assert punts == sorted(punts, reverse=True)
    # The table never exceeds its cap.
    for capacity, out in data.items():
        assert out["occupancy"] <= capacity + 1  # +1: LLDP punt rule
