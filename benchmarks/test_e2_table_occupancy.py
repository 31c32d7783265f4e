"""E2 / Figure 1 — Flow-table occupancy vs. number of active flows.

Question: how does switch TCAM state scale with offered flows for the
three rule granularities a controller can choose?

Workload: N simultaneous UDP flows (distinct 5-tuples) between the 8
hosts of a single switch, N swept 8→128.

Expected shape: exact-match (microflow) rules grow linearly with flow
count; destination-MAC rules plateau at the host count; proactive
rules are constant in the flow count (O(hosts), installed up front).
"""

import pytest

from repro.analysis import Series
from repro.core import ZenPlatform
from repro.netem import Topology

from harness import publish

FLOW_COUNTS = (8, 32, 64, 128)
HOSTS = 8


def peak_occupancy(profile, exact_match, flows):
    platform = ZenPlatform(
        Topology.single(HOSTS, bandwidth_bps=1e9),
        profile=profile,
        exact_match=exact_match,
    ).start()
    platform.net.seed_static_arp()
    hosts = list(platform.net.hosts.values())
    if profile == "proactive":
        # Warm every host so the proactive rules exist.
        for i, host in enumerate(hosts):
            host.send_udp(hosts[(i + 1) % HOSTS].ip, 7, 7, b"w")
        platform.run(1.0)
    # Both directions of each pair must be learnable: send one primer
    # from each host so dst lookups succeed under the learning switch.
    for i, host in enumerate(hosts):
        host.send_udp(hosts[(i + 1) % HOSTS].ip, 8, 8, b"p")
    platform.run(1.0)
    # N concurrent "flows": one packet each, distinct source ports, then
    # a couple of refreshes so reactive rules actually install and stay.
    pairs = []
    for n in range(flows):
        src = hosts[n % HOSTS]
        dst = hosts[(n + 1 + n // HOSTS) % HOSTS]
        if dst is src:
            dst = hosts[(n + 2) % HOSTS]
        pairs.append((src, dst, 10000 + n))
    for _ in range(3):
        for src, dst, sport in pairs:
            src.send_udp(dst.ip, sport, 9000, b"flowpkt")
        platform.run(0.5)
    dp = platform.switch("s1")
    # Exclude infrastructure rules (LLDP punt at 65000).
    return sum(
        1 for t in dp.tables for e in t if e.priority < 60000
    )


def run_experiment():
    series = Series(
        "E2 / Figure 1 — switch flow-table entries vs active flows "
        f"({HOSTS} hosts, single switch)",
        "active_flows",
        ["reactive_exact", "reactive_dst", "proactive"],
    )
    data = {}
    for flows in FLOW_COUNTS:
        exact = peak_occupancy("reactive", True, flows)
        dst = peak_occupancy("reactive", False, flows)
        proactive = peak_occupancy("proactive", False, flows)
        data[flows] = (exact, dst, proactive)
        series.add_point(flows, exact, dst, proactive)
    return series, data


@pytest.fixture(scope="module")
def results():
    return run_experiment()


def test_e2_table_occupancy(results, benchmark):
    series, data = results
    publish("e2_figure1", series)
    benchmark.pedantic(lambda: peak_occupancy("reactive", True, 16),
                       rounds=1, iterations=1)
    low, high = FLOW_COUNTS[0], FLOW_COUNTS[-1]
    exact_low, dst_low, pro_low = data[low]
    exact_high, dst_high, pro_high = data[high]
    # Microflow state scales with flows...
    assert exact_high >= exact_low * (high / low) * 0.5
    assert exact_high > high * 0.5
    # ...destination rules plateau at O(hosts)...
    assert dst_high <= 2 * HOSTS
    # ...and proactive state is flat and equal to the host count.
    assert pro_low == pro_high == HOSTS
    # Crossover: at high flow counts exact-match costs the most.
    assert exact_high > dst_high >= pro_high
