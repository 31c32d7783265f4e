"""Fault injection, reconnect semantics, and controller resync.

Covers the churn-only bugs: cross-epoch delivery on the control channel,
stale serialisation backlog after reconnect, silently-dropped pending
requests, link in-flight delivery across a cut, receiver state growth —
and the recovery machinery: request retry with backoff, flow-table
resync after crash/restart, and deterministic fault scenarios.
"""

import pytest

from repro.core import ZenPlatform
from repro.dataplane import Datapath, Match, Output
from repro.errors import TopologyError
from repro.faults import FaultSchedule, arm_faults, fault_end
from repro.netem import Network, Topology
from repro.netem.reliable import ReliableReceiver, ReliableSender
from repro.sim import Simulator
from repro.southbound import (
    ControlChannel,
    EchoReply,
    EchoRequest,
    Error,
    Hello,
    StatsKind,
    StatsRequest,
    SwitchAgent,
)


def make_stack(latency=0.001, bandwidth_bps=0.0):
    sim = Simulator()
    dp = Datapath(1, sim)
    dp.add_port(1)
    dp.add_port(2)
    channel = ControlChannel(sim, latency=latency,
                             bandwidth_bps=bandwidth_bps)
    agent = SwitchAgent(dp, channel)
    inbox = []
    channel.controller_end.handler = inbox.append
    channel.controller_end.on_connect = (
        lambda: channel.controller_end.send(Hello())
    )
    return sim, dp, channel, agent, inbox


def warm_platform(**kw):
    """A started 4-ring proactive platform with routes installed."""
    platform = ZenPlatform(
        Topology.ring(4, hosts_per_switch=1, bandwidth_bps=1e9),
        profile="proactive", control_latency=0.002, **kw,
    )
    platform.start()
    hosts = list(platform.net.hosts.values())
    for a in hosts:
        for b in hosts:
            if a is not b:
                a.add_static_arp(b.ip, b.mac)
    for i, host in enumerate(hosts):
        host.send_udp(hosts[(i + 1) % len(hosts)].ip, 7, 7, b"warm")
    platform.run(1.0)
    return platform


class TestConnectionEpochs:
    def test_in_flight_message_lost_across_quick_reconnect(self):
        """The regression the epoch stamp exists for: a message in
        flight at disconnect() must NOT be delivered after a reconnect
        that happens before its arrival time."""
        sim, dp, channel, agent, inbox = make_stack(latency=0.010)
        channel.connect()
        sim.run_until_idle()
        inbox.clear()
        channel.switch_end.send(EchoRequest(b"doomed"))
        # Flap faster than the 10 ms propagation: down at 1 ms, up at 2 ms.
        sim.schedule(0.001, channel.disconnect)
        sim.schedule(0.002, channel.connect)
        sim.run_until_idle()
        assert not any(isinstance(m, EchoRequest) for m in inbox)
        assert channel.messages_dropped >= 1
        assert channel.epoch == 2

    def test_busy_backlog_cleared_on_disconnect(self):
        """With bandwidth_bps set, a pre-disconnect send backlog must not
        delay the first message of the next connection."""
        sim, dp, channel, agent, inbox = make_stack(
            latency=0.001, bandwidth_bps=800_000.0)  # ~1.1 ms per message
        channel.connect()
        sim.run_until_idle()
        # Queue a ~55 ms serialisation backlog, then flap immediately.
        for _ in range(50):
            channel.switch_end.send(EchoRequest(b"x" * 100))
        channel.disconnect()
        assert channel._busy_until[channel.switch_end] == 0.0
        channel.connect()
        t0 = sim.now
        arrivals = []
        channel.controller_end.handler = lambda m: arrivals.append(
            (sim.now, m))
        channel.switch_end.send(EchoRequest(b"fresh"))
        sim.run_until_idle()
        fresh = [t for t, m in arrivals
                 if isinstance(m, EchoRequest) and m.data == b"fresh"]
        assert fresh, "post-reconnect message never arrived"
        # Hello + its own serialisation + latency — a few ms — not the
        # dead connection's ~55 ms backlog.
        assert fresh[0] - t0 < 0.010

    def test_connect_disconnect_counters(self):
        sim, dp, channel, agent, inbox = make_stack()
        channel.connect()
        channel.disconnect()
        channel.connect()
        assert channel.connects == 2
        assert channel.disconnects == 1
        assert channel.epoch == 2


class TestPendingRequestFailure:
    def test_pending_request_fails_on_disconnect(self):
        sim, dp, channel, agent, inbox = make_stack(latency=0.010)
        channel.connect()
        sim.run_until_idle()
        failures = []
        channel.controller_end.request(
            StatsRequest(StatsKind.PORT, 0xFF),
            callback=lambda msg: pytest.fail("callback must not fire"),
            on_failure=failures.append,
        )
        channel.disconnect()
        sim.run_until_idle()
        assert len(failures) == 1
        assert isinstance(failures[0], Error)
        assert failures[0].code == Error.CHANNEL_DOWN
        assert channel.controller_end.pending_requests == 0
        assert channel.controller_end.requests_failed == 1

    def test_failure_routed_to_callback_without_on_failure(self):
        sim, dp, channel, agent, inbox = make_stack(latency=0.010)
        channel.connect()
        sim.run_until_idle()
        got = []
        channel.controller_end.request(
            StatsRequest(StatsKind.PORT, 0xFF), callback=got.append)
        channel.disconnect()
        sim.run_until_idle()
        assert len(got) == 1
        assert isinstance(got[0], Error) and got[0].code == Error.CHANNEL_DOWN

    def test_request_timeout_fires_without_reply(self):
        sim = Simulator()
        channel = ControlChannel(sim, latency=0.001)
        channel.connect()  # nothing handles the switch end: no replies
        failures = []
        channel.controller_end.request(
            EchoRequest(b"ping"), callback=failures.append, timeout=0.1)
        sim.run_until_idle()
        assert len(failures) == 1
        assert failures[0].code == Error.TIMEOUT

    def test_retries_with_exponential_backoff(self):
        sim = Simulator()
        channel = ControlChannel(sim, latency=0.001)
        channel.connect()
        sent_times = []
        channel.switch_end.handler = lambda m: sent_times.append(sim.now)
        failures = []
        channel.controller_end.request(
            EchoRequest(b"ping"), callback=failures.append,
            timeout=0.1, retries=2, backoff=2.0)
        sim.run_until_idle()
        # Original + 2 retries, then failure.
        assert len(sent_times) == 3
        assert len(failures) == 1 and failures[0].code == Error.TIMEOUT
        assert channel.controller_end.request_retries == 2
        # Gaps double: ~0.1 then ~0.2.
        gap1 = sent_times[1] - sent_times[0]
        gap2 = sent_times[2] - sent_times[1]
        assert gap2 == pytest.approx(2 * gap1, rel=0.05)

    def test_retry_succeeds_when_reply_finally_arrives(self):
        sim, dp, channel, agent, inbox = make_stack(latency=0.001)
        channel.connect()
        sim.run_until_idle()
        # Suppress the agent's first reply by hijacking the handler once.
        real_handler = channel.switch_end.handler
        dropped = []

        def flaky(msg):
            if isinstance(msg, EchoRequest) and not dropped:
                dropped.append(msg)
                return  # swallow: no reply, forcing a retry
            real_handler(msg)

        channel.switch_end.handler = flaky
        replies = []
        channel.controller_end.request(
            EchoRequest(b"please"), callback=replies.append,
            timeout=0.05, retries=3)
        sim.run_until_idle()
        assert len(replies) == 1
        assert isinstance(replies[0], EchoReply)
        assert channel.controller_end.requests_failed == 0


class TestLinkCut:
    def test_in_flight_packet_dies_with_the_link(self):
        """A packet on the wire when the link is cut must not arrive,
        even if the link recovers before its arrival time."""
        net = Network(Topology.single(2, bandwidth_bps=1e9),
                      miss_behaviour="flood")
        h1, h2 = net.host("h1"), net.host("h2")
        h1.add_static_arp(h2.ip, h2.mac)
        got = []
        h2.bind_udp(9999, lambda pkt, host: got.append(pkt))
        link = net.link("h1", "s1")
        h1.send_udp(h2.ip, 9999, 9999, b"doomed")
        # The packet is serialising/propagating; cut then heal quickly.
        net.sim.schedule(0.00002, link.fail)
        net.sim.schedule(0.00004, link.recover)
        net.run(1.0)
        assert got == []
        stats = link.direction_stats()
        assert stats[0]["dropped_cut"] + stats[1]["dropped_cut"] >= 1


def reliable_net():
    from repro.dataplane import FlowEntry, PORT_FLOOD
    net = Network(Topology.single(2, bandwidth_bps=10e6),
                  miss_behaviour="drop")
    net.switch("s1").install_flow(
        FlowEntry(Match(), [Output(PORT_FLOOD)], priority=0))
    h1, h2 = net.host("h1"), net.host("h2")
    h1.add_static_arp(h2.ip, h2.mac)
    h2.add_static_arp(h1.ip, h1.mac)
    return net, h1, h2


class TestReceiverPrune:
    def test_completed_transfers_pruned_after_grace(self):
        net, h1, h2 = reliable_net()
        done = {}
        receiver = ReliableReceiver(
            h2, 7000, on_complete=lambda x, d: done.update({x: d}),
            reack_grace=0.5)
        senders = [ReliableSender(h1, h2.ip, 7000, b"d" * 3000, mss=500)
                   for _ in range(5)]
        net.run(10.0)
        assert all(s.complete for s in senders)
        assert len(done) == 5
        # All transfer state pruned after the grace window.
        assert receiver.tracked_transfers == 0
        assert receiver.completed == {}
        assert receiver.transfers_pruned == 5

    def test_straggler_after_prune_creates_no_state(self):
        net, h1, h2 = reliable_net()
        receiver = ReliableReceiver(h2, 7000, reack_grace=0.1)
        sender = ReliableSender(h1, h2.ip, 7000, b"z" * 2000, mss=500)
        net.run(5.0)
        assert sender.complete and receiver.tracked_transfers == 0
        # A duplicate mid-transfer segment arrives long after the prune.
        import struct
        stray = struct.pack("!III", sender.transfer_id, 2, 4) + b"z" * 500
        h1.send_udp(h2.ip, 50001, 7000, stray)
        net.run(1.0)
        assert receiver.tracked_transfers == 0
        assert receiver.segments_discarded >= 1


class TestControllerResync:
    def test_channel_flap_marks_stale_and_resyncs(self):
        platform = warm_platform()
        ctl = platform.controller
        net = platform.net
        t0 = net.sim.now
        FaultSchedule(net).channel_flap(t0 + 0.5, "s1",
                                        down_for=0.5, period=2.0)
        platform.run(0.7)  # channel is down now
        assert ctl.switch_count == 3
        assert net.switch("s1").dpid in ctl._stale
        platform.run(2.0)  # reconnect + resync done
        assert ctl.switch_count == 4
        assert not ctl._stale
        assert ctl.resyncs == 1
        assert platform.ping_all(count=1, settle=5.0) == 1.0

    def test_crash_restart_restores_flow_entries(self):
        """The headline resync property: a rebooted (state-wiped) switch
        gets its intended flow entries reinstalled from the ledger."""
        platform = warm_platform()
        ctl = platform.controller
        net = platform.net
        dp = net.switch("s2")
        flows_before = dp.flow_count()
        assert flows_before > 0
        t0 = net.sim.now
        FaultSchedule(net).switch_crash(t0 + 0.5, "s2", restart_after=0.5)
        platform.run(0.7)
        assert dp.flow_count() == 0  # reboot wiped the tables
        platform.run(3.0)
        assert ctl.resyncs == 1
        assert ctl.resync_reinstalled > 0
        assert dp.flow_count() == flows_before
        assert platform.ping_all(count=1, settle=5.0) == 1.0

    def test_resync_deletes_unintended_entries(self):
        """Entries on the switch the controller never asked for (a
        predecessor's leftovers) are removed by the reconciliation."""
        platform = warm_platform()
        ctl = platform.controller
        net = platform.net
        dp = net.switch("s3")
        from repro.dataplane import FlowEntry
        rogue = FlowEntry(Match(ip_dst="203.0.113.9"),
                          [Output(1)], priority=7)
        t0 = net.sim.now
        sched = FaultSchedule(net)
        sched.channel_down(t0 + 0.2, "s3")
        # Rogue state appears while the controller is blind.
        net.sim.schedule_at(t0 + 0.4, dp.install_flow, rogue)
        sched.channel_up(t0 + 0.8, "s3")
        platform.run(3.0)
        assert ctl.resync_deleted >= 1
        table = dp.table(0)
        assert not any(e.match == rogue.match and e.priority == 7
                       for e in table)

    def test_handshake_survives_flap_mid_features(self):
        """A flap between Hello and FeaturesReply: the request fails
        explicitly, and the next reconnect completes the handshake."""
        platform = warm_platform()
        ctl = platform.controller
        net = platform.net
        t0 = net.sim.now
        sched = FaultSchedule(net)
        sched.channel_down(t0 + 0.2, "s4")
        # Reconnect, then cut again 1 ms in — mid-handshake (the
        # features round trip needs 2 x 2 ms) — then heal for good.
        sched.channel_up(t0 + 0.5, "s4")
        sched.channel_down(t0 + 0.501, "s4")
        sched.channel_up(t0 + 0.8, "s4")
        platform.run(3.0)
        assert ctl.switch_count == 4
        assert platform.ping_all(count=1, settle=5.0) == 1.0


class TestHostPrefixRules:
    """A ``/32`` rule is its address: the ledger and the switch, which
    reads the wire form back, hold one key for it."""

    @staticmethod
    def bare():
        platform = ZenPlatform(Topology.linear(2), profile="bare").start()
        platform.run(0.5)
        dp = platform.net.switch("s1")
        return platform, dp, platform.controller.switch(dp.dpid)

    def test_a_slash_32_match_is_its_address(self):
        host = Match(ip_dst="10.0.0.9/32")
        assert host == Match(ip_dst="10.0.0.9")
        assert hash(host) == hash(Match(ip_dst="10.0.0.9"))
        assert Match(ip_src="10.0.0.0/24") != Match(ip_src="10.0.0.0")

    def test_a_slash_32_rule_survives_a_channel_flap(self):
        platform, dp, handle = self.bare()
        ctl = platform.controller
        match = Match(eth_type=0x0800, ip_dst="10.0.0.9/32")
        handle.add_flow(match, [Output(1)], priority=7)
        platform.run(0.1)
        channel = platform.net.channel("s1")
        channel.disconnect()
        platform.run(0.2)
        channel.connect()
        platform.run(2.0)
        assert ctl.resyncs == 1
        assert (ctl.resync_reinstalled, ctl.resync_deleted) == (0, 0)
        assert [e.match for e in dp.table(0) if e.priority == 7] == [match]

    def test_flow_removed_clears_a_slash_32_rule_from_the_ledger(self):
        platform, dp, handle = self.bare()
        ctl = platform.controller
        handle.add_flow(Match(eth_type=0x0800, ip_dst="10.0.0.9/32"),
                        [Output(1)], priority=7, hard_timeout=0.5,
                        notify_removed=True)
        platform.run(0.1)
        assert any(s["priority"] == 7 for _, s in ctl.owned(None))
        platform.run(2.0)
        assert not any(e.priority == 7 for e in dp.table(0))
        assert not any(s["priority"] == 7 for _, s in ctl.owned(None))


class TestFaultSchedule:
    def test_validation(self):
        net = Network(Topology.ring(4, hosts_per_switch=1))
        sched = FaultSchedule(net)
        with pytest.raises(TopologyError):
            sched.link_flap(0.0, "s1", "s2", down_for=0.0, period=1.0)
        with pytest.raises(TopologyError):
            sched.link_flap(0.0, "s1", "s2", down_for=1.0, period=0.5)
        with pytest.raises(TopologyError):
            sched.link_down(0.0, "s1", "nope")
        net.run(1.0)
        with pytest.raises(TopologyError):
            sched.link_down(0.5, "s1", "s2")  # in the past

    def test_log_records_injections_in_order(self):
        net = Network(Topology.ring(4, hosts_per_switch=1))
        sched = FaultSchedule(net)
        sched.link_flap(1.0, "s1", "s2", down_for=0.25, period=1.0, count=2)
        net.run(3.0)
        kinds = [(e.kind, e.time) for e in sched.log]
        assert kinds == [("link_down", 1.0), ("link_up", 1.25),
                         ("link_down", 2.0), ("link_up", 2.25)]
        assert sched.events("link_down")[0].target == "s1-s2"
        assert sched.injected == 4

    def test_scenario_is_deterministic(self):
        """Same seed, same schedule => bit-identical fault outcome."""
        def run_once(seed):
            platform = ZenPlatform(
                Topology.ring(4, hosts_per_switch=1, bandwidth_bps=1e9),
                profile="proactive", control_latency=0.002, seed=seed,
            )
            platform.start()
            net = platform.net
            t0 = net.sim.now
            sched = FaultSchedule(net)
            sched.channel_flap(t0 + 0.5, "s1", down_for=0.4, period=1.0,
                               count=2)
            sched.link_flap(t0 + 0.7, "s2", "s3", down_for=0.3, period=1.0)
            platform.run(4.0)
            ctl = platform.controller
            return (net.sim.events_processed, ctl.resyncs,
                    ctl.events_published,
                    [(e.kind, e.time, e.target) for e in sched.log])

        assert run_once(7) == run_once(7)
        # A different seed still executes the same schedule.
        assert run_once(7)[3] == run_once(11)[3]


class TestArmFaults:
    """The one fault-dict -> schedule table (specs, fuzzer, CLI)."""

    BASE = 10.0

    @pytest.mark.parametrize("fault, expected", [
        ({"kind": "link_flap", "a": "s1", "b": "s2", "at": 1.0,
          "down_for": 0.25, "period": 1.0, "count": 2},
         [("link_down", "s1-s2", 11.0), ("link_up", "s1-s2", 11.25),
          ("link_down", "s1-s2", 12.0), ("link_up", "s1-s2", 12.25)]),
        ({"kind": "channel_flap", "switch": "s3", "at": 0.5,
          "down_for": 0.5, "period": 2.0, "count": 1},
         [("channel_down", "s3", 10.5), ("channel_up", "s3", 11.0)]),
        ({"kind": "switch_crash", "switch": "s2", "at": 0.0,
          "restart_after": 0.75},
         [("switch_crash", "s2", 10.0), ("switch_restart", "s2", 10.75)]),
        ({"kind": "controller_crash", "node": 1, "at": 0.25,
          "restart_after": 1.0},
         [("controller_crash", "controller-1", 10.25),
          ("controller_restart", "controller-1", 11.25)]),
        ({"kind": "controller_partition", "minority": [2], "at": 0.5,
          "heal_after": 0.5},
         [("controller_partition", "2|0,1", 10.5),
          ("controller_heal", "cluster", 11.0)]),
    ])
    def test_each_kind_lands_its_events(self, fault, expected):
        platform = ZenPlatform(Topology.ring(4, hosts_per_switch=1),
                               controllers=3, seed=7)
        platform.run(self.BASE)
        sched = platform.fault_schedule()
        arm_faults(sched, [fault], base=self.BASE)
        platform.run(4.0)
        assert [(e.kind, e.target, e.time) for e in sched.log] == expected
        # The same table says when the fault has healed: at its last
        # event (what WorkloadSpec.horizon() sizes a run by).
        assert self.BASE + fault_end(fault) == expected[-1][2]

    def test_unknown_kind_names_index_and_kind(self):
        platform = ZenPlatform(Topology.ring(3, hosts_per_switch=1))
        good = {"kind": "switch_crash", "switch": "s1", "at": 1.0,
                "restart_after": 0.5}
        with pytest.raises(TopologyError, match=r"fault #1.*'meteor'"):
            arm_faults(platform.fault_schedule(),
                       [good, {"kind": "meteor", "at": 1.0}])

    def test_controller_kind_needs_a_cluster(self):
        platform = ZenPlatform(Topology.ring(3, hosts_per_switch=1))
        fault = {"kind": "controller_crash", "node": 0, "at": 1.0,
                 "restart_after": 0.5}
        with pytest.raises(TopologyError,
                           match=r"fault #0 \(controller_crash\).*cluster"):
            arm_faults(platform.fault_schedule(), [fault])

    def test_missing_field_is_a_named_error(self):
        platform = ZenPlatform(Topology.ring(3, hosts_per_switch=1))
        with pytest.raises(TopologyError, match=r"fault #0.*'period'"):
            arm_faults(platform.fault_schedule(), [
                {"kind": "channel_flap", "switch": "s1", "at": 0.0,
                 "down_for": 0.1, "count": 1}])

    def test_fault_end_errors_read_like_arm_faults(self):
        with pytest.raises(TopologyError,
                           match=r"unknown kind 'meteor'; pick from"):
            fault_end({"kind": "meteor", "at": 1.0})
        with pytest.raises(
                TopologyError,
                match=r"fault \(controller_partition\): missing field "
                      r"'heal_after'"):
            fault_end({"kind": "controller_partition", "minority": [0],
                       "at": 1.0, "restart_after": 0.5})
