"""Online invariant monitoring under fault injection.

The monitor re-checks at the exact injection instant — before the
control plane has reacted — so transient blackholes that a
convergence-time-only audit would miss are visible, and the
convergence-event triggers (switch enter, resync done) prove they
cleared.  Every scenario here ends with a clean network: the point is
the *transient* window, not a lasting break.
"""

from repro.core import ZenPlatform
from repro.faults import FaultSchedule, arm_faults
from repro.netem import Topology

from repro.check import InvariantMonitor, NetworkChecker


def _monitored(topology, profile, seed=3):
    platform = ZenPlatform(topology, profile=profile, seed=seed).start()
    net = platform.net
    for a in net.hosts.values():
        for b in net.hosts.values():
            if a is not b:
                a.add_static_arp(b.ip, b.mac)
    monitor = InvariantMonitor(net).attach(platform.controller)
    schedule = FaultSchedule(net)
    monitor.watch(schedule)
    return platform, monitor, schedule


def _warm(platform, pairs):
    """Drive one packet each way so routes actually get installed."""
    net = platform.net
    for src, dst in pairs:
        net.sim.schedule_at(
            net.sim.now + 0.2, net.hosts[src].send_udp,
            net.hosts[dst].ip, 1, 2, b"warm",
        )
    platform.run(1.0)


def test_link_cut_causes_transient_blackhole_then_clears():
    platform, monitor, schedule = _monitored(
        Topology.ring(4, hosts_per_switch=1), "proactive"
    )
    _warm(platform, [("h1", "h3"), ("h3", "h1")])
    net = platform.net
    assert NetworkChecker().check(net).ok  # converged and clean

    arm_faults(schedule, [{"kind": "link_flap", "a": "s1", "b": "s2",
                           "at": 0.5, "down_for": 2.0, "period": 3.0,
                           "count": 1}], base=net.sim.now)
    platform.run(5.0)

    # At the injection instant the proactive routes still point at the
    # now-dead port: the monitor must flag that window.
    assert monitor.saw_violation(kind="dead_port",
                                 trigger_prefix="fault:link_down")
    # By the time the link came back, the network had healed.
    restore = [r for r in monitor.records
               if r.trigger.startswith("fault:link_up")]
    assert restore and restore[-1].result.ok
    assert NetworkChecker().check(net).ok


def test_switch_crash_flags_punt_dead_until_resync():
    platform, monitor, schedule = _monitored(
        Topology.linear(3, hosts_per_switch=1), "proactive"
    )
    _warm(platform, [("h1", "h3"), ("h3", "h1")])
    net = platform.net

    arm_faults(schedule, [{"kind": "switch_crash", "switch": "s2",
                           "at": 0.5, "restart_after": 1.0}],
               base=net.sim.now)
    platform.run(5.0)

    # Crash wipes the tables and drops the channel: probes through s2
    # miss and cannot even punt — a blackhole, not a benign punt.
    assert monitor.saw_violation(kind="punt_dead",
                                 trigger_prefix="fault:switch_crash")
    # The reconnect reconciliation both happened and re-checked clean.
    resynced = [r for r in monitor.records
                if r.trigger.startswith("resync-done:")]
    assert resynced and all(r.result.ok for r in resynced)
    assert platform.controller.resyncs >= 1
    assert NetworkChecker().check(net).ok


def test_channel_outage_downgrades_punts_to_blackholes():
    # Bare profile: every probe is a table miss that punts.  With the
    # channel up that is benign; during an outage it is a blackhole.
    platform, monitor, schedule = _monitored(
        Topology.ring(3, hosts_per_switch=1), "bare"
    )
    net = platform.net
    assert NetworkChecker().check(net).ok

    arm_faults(schedule, [{"kind": "channel_flap", "switch": "s1",
                           "at": 0.5, "down_for": 1.5, "period": 2.0,
                           "count": 1}], base=net.sim.now)
    platform.run(4.0)

    assert monitor.saw_violation(kind="punt_dead",
                                 trigger_prefix="fault:channel_down")
    reconnect = [r for r in monitor.records
                 if r.trigger.startswith("fault:channel_up")]
    assert reconnect and reconnect[-1].result.ok
    assert NetworkChecker().check(net).ok


def test_monitor_history_is_bounded():
    platform, monitor, _ = _monitored(
        Topology.single(2), "bare"
    )
    monitor.max_records = 4
    for i in range(10):
        monitor.recheck(f"manual:{i}")
    assert len(monitor.records) == 4
    assert monitor.records[-1].trigger == "manual:9"
    assert monitor.checks_run >= 10
