"""E1 / Table 1 — Flow-setup latency across control-plane designs.

Question: what does the first packet of a new flow pay under reactive
SDN control, proactive SDN control, and classic distributed switching?

Workload: one host pair at the ends of a linear topology of 2–8
switches; cold ping (first flow) vs warm ping (rules in place).

Expected shape: reactive pays roughly one controller round trip *per
switch on the path* on the first packet (each switch misses in turn);
proactive and the distributed baseline serve the first packet at
dataplane speed once converged, and all three agree on warm latency.
"""

import pytest

from repro.analysis import Table
from repro.baselines import SpanningTreeNetwork
from repro.core import ZenPlatform
from repro.netem import Network, Topology

from harness import publish, publish_json

SIZES = (2, 4, 8)
CONTROL_LATENCY = 0.002  # 2 ms to the controller


def _ping_ms(net, src, dst, count=1):
    session = src.ping(dst.ip, count=count, interval=0.05)
    net.run(5.0)
    assert session.received == count, f"ping lost ({session})"
    return session.avg_rtt * 1e3


def measure_sdn(profile, num_switches):
    platform = ZenPlatform(
        Topology.linear(num_switches, hosts_per_switch=1,
                        bandwidth_bps=1e9, delay=0.00005),
        profile=profile,
        control_latency=CONTROL_LATENCY,
    ).start()
    platform.net.seed_static_arp()
    src = platform.host("h1")
    dst = platform.host(f"h{num_switches}")
    if profile == "proactive":
        # Proactive control needs the hosts known; one warm frame each,
        # then rules exist before the measured flow starts.
        src.send_udp(dst.ip, 7, 7, b"warm")
        dst.send_udp(src.ip, 7, 7, b"warm")
        platform.run(1.0)
    cold = _ping_ms(platform.net, src, dst)
    warm = _ping_ms(platform.net, src, dst, count=3)
    return cold, warm


def measure_stp(num_switches):
    net = Network(Topology.linear(num_switches, hosts_per_switch=1,
                                  bandwidth_bps=1e9, delay=0.00005))
    stp = SpanningTreeNetwork(net)
    stp.converge(5.0)
    net.seed_static_arp()
    src, dst = net.host("h1"), net.host(f"h{num_switches}")
    cold = _ping_ms(net, src, dst)
    warm = _ping_ms(net, src, dst, count=3)
    stp.stop()
    return cold, warm


def run_experiment():
    table = Table(
        "E1 / Table 1 — flow-setup latency (ms), controller 2 ms away",
        ["switches", "scheme", "first_ping_ms", "warm_ping_ms",
         "setup_penalty_x"],
    )
    data = {}
    for size in SIZES:
        for scheme, fn in (
            ("reactive", lambda s=size: measure_sdn("reactive", s)),
            ("proactive", lambda s=size: measure_sdn("proactive", s)),
            ("stp+learn", lambda s=size: measure_stp(s)),
        ):
            cold, warm = fn()
            data[(size, scheme)] = (cold, warm)
            table.add_row(size, scheme, cold, warm,
                          cold / warm if warm else float("nan"))
    return table, data


@pytest.fixture(scope="module")
def results():
    return run_experiment()


def test_e1_flow_setup(results, benchmark):
    table, data = results
    publish("e1_table1", table)
    publish_json("E1", {"rows": [
        {"switches": size, "scheme": scheme, "first_ping_ms": cold,
         "warm_ping_ms": warm}
        for (size, scheme), (cold, warm) in sorted(data.items())
    ]})
    benchmark.pedantic(lambda: measure_sdn("reactive", 2), rounds=1,
                       iterations=1)
    for size in SIZES:
        reactive_cold, reactive_warm = data[(size, "reactive")]
        proactive_cold, _ = data[(size, "proactive")]
        stp_cold, _ = data[(size, "stp+learn")]
        # Reactive first packets pay controller RTTs; everyone else is
        # within dataplane noise of their warm latency.
        assert reactive_cold > reactive_warm * 3
        assert reactive_cold > proactive_cold * 2
        assert proactive_cold < 2.0
        assert stp_cold < 4.0  # flood path, no controller
    # The reactive penalty grows with path length.
    assert data[(8, "reactive")][0] > data[(2, "reactive")][0]
