"""E8 / Figure 4 — Intent re-convergence under topology churn.

Question: when a link dies, how long until every affected intent is
reinstalled (rules barrier-acked on all touched switches), and how does
that scale with the number of affected intents?

Workload: a 6-switch ring with 2 hosts per switch; N host-to-host
intents (8–96) spanning the ring; one link on the hot path is cut.

Expected shape: reconvergence time grows roughly linearly in the number
of affected intents with a fixed floor of one controller round trip
(flow-mod install time is per-rule: flowmod_delay × rules dominates at
scale).  Unaffected intents are untouched.
"""

import pytest

from repro.analysis import Series
from repro.core import ZenPlatform
from repro.netem import Topology

from harness import publish

FLOWMOD_DELAY = 0.0005  # 0.5 ms per rule install at the switch


def run_intents(num_intents):
    platform = ZenPlatform(
        Topology.ring(6, hosts_per_switch=2, bandwidth_bps=1e9),
        profile="bare",
        intents=True,
        control_latency=0.002,
        flowmod_delay=FLOWMOD_DELAY,
    ).start()
    platform.net.seed_static_arp()
    hosts = list(platform.net.hosts.values())
    # Make everyone known to the tracker.
    for i, host in enumerate(hosts):
        host.send_udp(hosts[(i + 1) % len(hosts)].ip, 7, 7, b"w")
    platform.run(1.0)
    # Intents between hosts 3 switches apart: all shortest paths cross
    # the s1-s2 side of the ring for pairs chosen from s1's hosts.
    service = platform.intents
    submitted = []
    for n in range(num_intents):
        src = hosts[n % len(hosts)]
        dst = hosts[(n + 4) % len(hosts)]
        submitted.append(service.connect_ips(src.ip, dst.ip))
    platform.run(1.0)
    installed = service.installed_count()
    # Cut one ring link and time the reroute batch.
    t_fail = platform.sim.now
    service.reroute_done_times.clear()
    platform.fail_link("s2", "s3")
    platform.run(10.0)
    affected = sum(1 for i in submitted if i.reroutes > 0)
    assert service.reroute_done_times, "no reroute completed"
    reconverge = service.reroute_done_times[-1] - t_fail
    return {
        "installed": installed,
        "affected": affected,
        "reconverge_ms": reconverge * 1e3,
        "still_installed": service.installed_count(),
    }


def run_experiment():
    series = Series(
        "E8 / Figure 4 — intent reconvergence after a link cut "
        "(6-ring, 0.5 ms/flow-mod)",
        "intents",
        ["affected", "reconverge_ms", "reinstalled"],
    )
    data = {}
    for count in (8, 24, 48, 96):
        out = run_intents(count)
        data[count] = out
        series.add_point(count, out["affected"], out["reconverge_ms"],
                         out["still_installed"])
    return series, data


@pytest.fixture(scope="module")
def results():
    return run_experiment()


def test_e8_intents(results, benchmark):
    series, data = results
    publish("e8_figure4", series)
    benchmark.pedantic(lambda: run_intents(8), rounds=1, iterations=1)
    for count, out in data.items():
        # Every submitted intent survives the failure.
        assert out["installed"] == count
        assert out["still_installed"] == count
        assert out["affected"] >= 1
    # Reconvergence grows with affected intents...
    assert (data[96]["reconverge_ms"] > data[8]["reconverge_ms"])
    # ...superlinearly vs the floor: the 96-intent batch is dominated by
    # per-rule install time, not the fixed RTT.
    assert data[96]["reconverge_ms"] > 3 * data[8]["reconverge_ms"]
    # Floor sanity: even the small batch pays at least one control RTT.
    assert data[8]["reconverge_ms"] >= 4.0
