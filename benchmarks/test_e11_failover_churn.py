"""E11 / Figure 6 — Failover under control-channel churn.

Question: how much does a flapping control channel cost when a
dataplane failure needs central repair?

Workload: the E4 scenario — a 100-packet/s CBR stream h1→h2 on a
4-switch ring, the path's first link (s1–s2) cut mid-stream — except
here s1's *control channel* is down when the link dies, for a swept
duration.  The controller re-paths the ring immediately (it hears about
the cut from s2, whose channel is fine), but s1 holds the stale rule
steering traffic into the dead port until its channel returns, the
reconnect handshake completes, and the resync + rebuild install the
detour.  Recovery is therefore pinned to the channel outage:

    recovery ≈ remaining channel downtime + handshake + resync + install

and packets blackholed ≈ recovery × stream rate.  With no channel fault
the scenario degenerates to E4's ``sdn-central`` row (tens of ms).

The keynote's centralisation caveat, quantified: when repair must flow
through the controller, control-plane availability bounds dataplane
recovery.  Determinism check: the same seed and schedule reproduce the
outage byte-for-byte (the property the whole fault subsystem exists
to provide).
"""

import pytest

from repro.analysis import Series
from repro.core import ZenPlatform
from repro.faults import arm_faults
from repro.netem import CBRStream, Topology

from harness import publish

PKT_INTERVAL = 0.01   # 100 pkt/s
FAIL_AT_REL = 2.0     # link cut, seconds into the stream
CHANNEL_LEAD = 0.05   # channel drops this long before the link cut
DOWN_FORS = [0.0, 0.2, 0.4, 0.8]  # swept channel outage durations


def run_scenario(channel_down_for, seed=0):
    """Cut s1–s2 while s1's channel is down; return outage metrics."""
    platform = ZenPlatform(
        Topology.ring(4, hosts_per_switch=1, bandwidth_bps=1e9),
        control_latency=0.002, seed=seed,
    ).start()
    net = platform.net
    net.seed_static_arp()
    h1, h2 = platform.host("h1"), platform.host("h2")
    h1.send_udp(h2.ip, 7, 7, b"warm")
    h2.send_udp(h1.ip, 7, 7, b"warm")
    platform.run(1.0)

    arrivals = []

    def timestamping(packet, host):
        arrivals.append(net.sim.now)

    h2.bind_udp(9000, timestamping)
    duration = 12.0
    CBRStream(h1, h2.ip, rate_bps=1000 * 8 / PKT_INTERVAL,
              packet_size=1000, duration=duration)

    t_fail = net.sim.now + FAIL_AT_REL
    # A permanent cut, as in E4: the kernel fails the link itself.
    net.sim.schedule_at(t_fail, net.fail_link, "s1", "s2")
    if channel_down_for > 0:
        arm_faults(platform.fault_schedule(), [
            {"kind": "channel_flap", "switch": "s1", "at": 0.0,
             "down_for": channel_down_for, "period": channel_down_for,
             "count": 1}], base=t_fail - CHANNEL_LEAD)
    net.run(duration + 2.0)

    before = [t for t in arrivals if t < t_fail]
    after = [t for t in arrivals if t >= t_fail]
    assert before, "stream never started"
    assert after, "stream never recovered"
    gap = after[0] - t_fail
    # Packets emitted during the outage that never reached the sink.
    blackholed = round(duration / PKT_INTERVAL) - len(arrivals)
    connectivity = platform.ping_all(count=1, settle=5.0)
    return {
        "gap": gap,
        "blackholed": blackholed,
        "resyncs": platform.controller.resyncs,
        "connectivity": connectivity,
        "events": net.sim.events_processed,
    }


def run_experiment():
    series = Series(
        "E11 / Figure 6 — recovery after a link cut vs control-channel "
        "outage (100 pkt/s CBR on a 4-ring)",
        "channel_down_ms",
        ["recovery_ms", "blackholed_pkts"],
    )
    data = {}
    for down_for in DOWN_FORS:
        result = run_scenario(down_for)
        data[down_for] = result
        series.add_point(f"{down_for * 1e3:.0f}",
                         result["gap"] * 1e3, result["blackholed"])
    return series, data


@pytest.fixture(scope="module")
def results():
    return run_experiment()


def test_e11_failover_under_churn(results, benchmark):
    series, data = results
    publish("e11_figure6", series)
    benchmark.pedantic(lambda: run_scenario(0.4), rounds=1, iterations=1)
    # Healthy channel: E4's sdn-central behaviour, tens of ms.
    assert data[0.0]["gap"] < 0.25
    assert data[0.0]["resyncs"] == 0
    # Channel outage pins recovery: monotone in the outage duration...
    gaps = [data[d]["gap"] for d in DOWN_FORS]
    assert gaps == sorted(gaps)
    for down_for in DOWN_FORS[1:]:
        result = data[down_for]
        # ...bounded below by the downtime remaining after the cut and
        # above by downtime + handshake/resync/install slack.
        assert result["gap"] > down_for - CHANNEL_LEAD
        assert result["gap"] < down_for + 0.5
        assert result["resyncs"] == 1
        # Blackholed packets track the outage (one interval of slack
        # each side for phase alignment).
        expected = result["gap"] / PKT_INTERVAL
        assert abs(result["blackholed"] - expected) <= 2
    # Post-resync connectivity equals pre-fault connectivity: full.
    for result in data.values():
        assert result["connectivity"] == 1.0


def test_e11_deterministic_across_runs(results):
    """Same seed + same schedule => identical outage, to the event."""
    a = run_scenario(0.4, seed=42)
    b = run_scenario(0.4, seed=42)
    assert a == b


def test_e11_blackhole_scales_with_flap_frequency(results):
    series, data = results
    # Doubling the outage roughly doubles the loss: the 0.8 s outage
    # blackholes at least 1.5x the 0.4 s outage's packets.
    assert data[0.8]["blackholed"] >= 1.5 * data[0.4]["blackholed"]
