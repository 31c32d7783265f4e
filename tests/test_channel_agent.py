"""Control channel and switch agent behaviour."""

import pytest

from repro.dataplane import (
    Bucket,
    Datapath,
    FlowEntry,
    GroupType,
    Match,
    Output,
)
from repro.errors import ChannelClosedError
from repro.packet import Ethernet, IPv4, Packet, UDP
from repro.sim import Simulator
from repro.southbound import (
    BarrierRequest,
    ControlChannel,
    ControllerRole,
    EchoReply,
    EchoRequest,
    Error,
    FeaturesRequest,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    GroupMod,
    Hello,
    MeterMod,
    ModCommand,
    PacketIn,
    PacketOut,
    PortStatus,
    RoleRequest,
    StatsKind,
    StatsRequest,
    SwitchAgent,
    ZOF_VERSION,
)


def make_stack(latency=0.001, flowmod_delay=0.0, **dp_kw):
    sim = Simulator()
    dp = Datapath(1, sim, **dp_kw)
    dp.add_port(1)
    dp.add_port(2)
    channel = ControlChannel(sim, latency=latency)
    agent = SwitchAgent(dp, channel, flowmod_delay=flowmod_delay)
    inbox = []
    channel.controller_end.handler = inbox.append
    channel.controller_end.on_connect = (
        lambda: channel.controller_end.send(Hello())
    )
    return sim, dp, channel, agent, inbox


def udp_packet():
    return (Ethernet(dst="00:00:00:00:00:02", src="00:00:00:00:00:01")
            / IPv4(src="10.0.0.1", dst="10.0.0.2")
            / UDP(src_port=1, dst_port=2) / b"x")


class TestChannel:
    def test_latency_applied(self):
        sim, dp, channel, agent, inbox = make_stack(latency=0.01)
        channel.connect()
        arrival = []
        channel.controller_end.handler = lambda m: arrival.append(sim.now)
        sim.run_until_idle()
        assert arrival and arrival[0] == pytest.approx(0.01)

    def test_fifo_ordering(self):
        sim, dp, channel, agent, inbox = make_stack()
        channel.connect()
        sim.run_until_idle()
        order = []
        channel.controller_end.handler = (
            lambda m: order.append(type(m).__name__)
        )
        channel.switch_end.send(EchoRequest(b"1"))
        channel.switch_end.send(EchoRequest(b"2"))
        sim.run_until_idle()
        assert order == ["EchoRequest", "EchoRequest"]

    def test_send_on_down_channel_raises(self):
        sim, dp, channel, agent, inbox = make_stack()
        with pytest.raises(ChannelClosedError):
            channel.controller_end.send(EchoRequest())

    def test_messages_in_flight_lost_on_disconnect(self):
        sim, dp, channel, agent, inbox = make_stack(latency=1.0)
        channel.connect()
        channel.controller_end.send(EchoRequest(b"doomed"))
        sim.run(until=0.5)
        channel.disconnect()
        sim.run_until_idle()
        assert all(not isinstance(m, EchoRequest) for m in inbox)

    def test_request_reply_correlation(self):
        sim, dp, channel, agent, inbox = make_stack()
        channel.connect()
        sim.run_until_idle()
        got = []
        channel.controller_end.request(EchoRequest(b"hi"), got.append)
        sim.run_until_idle()
        assert len(got) == 1
        assert isinstance(got[0], EchoReply)
        assert got[0].data == b"hi"
        # The reply was consumed by the callback, not the handler.
        assert all(not isinstance(m, EchoReply) for m in inbox)

    def test_stats_counters(self):
        sim, dp, channel, agent, inbox = make_stack()
        channel.connect()
        sim.run_until_idle()
        channel.controller_end.send(EchoRequest(b"abc"))
        sim.run_until_idle()
        stats = channel.total_stats()
        assert stats["to_switch"]["by_type"]["EchoRequest"] == 1
        assert stats["to_controller"]["by_type"]["EchoReply"] == 1
        assert stats["to_switch"]["bytes"] > 0

    def test_bandwidth_serialisation_delay(self):
        sim = Simulator()
        dp = Datapath(1, sim)
        dp.add_port(1)
        channel = ControlChannel(sim, latency=0.0, bandwidth_bps=8000)
        SwitchAgent(dp, channel)
        times = []
        channel.controller_end.handler = lambda m: times.append(sim.now)
        channel.controller_end.on_connect = lambda: None
        channel.connect()
        # switch sends Hello on connect; ~11 bytes at 1kB/s ≈ 11 ms
        sim.run_until_idle()
        assert times and times[0] > 0.005


class TestAgentHandshake:
    def test_hello_and_features(self):
        sim, dp, channel, agent, inbox = make_stack()
        channel.connect()
        sim.run_until_idle()
        assert any(isinstance(m, Hello) for m in inbox)
        assert agent.peer_version == ZOF_VERSION
        got = []
        channel.controller_end.request(FeaturesRequest(), got.append)
        sim.run_until_idle()
        assert got[0].dpid == 1
        assert got[0].num_tables == len(dp.tables)
        assert {p.number for p in got[0].ports} == {1, 2}


class TestAgentFlowMods:
    def test_add_and_forward(self):
        sim, dp, channel, agent, inbox = make_stack()
        channel.connect()
        sim.run_until_idle()
        channel.controller_end.send(FlowMod(
            command=FlowModCommand.ADD,
            match=Match(eth_type=0x0800),
            actions=[Output(2)],
            priority=5,
        ))
        sim.run_until_idle()
        assert dp.flow_count() == 1
        sent = []
        dp.transmit = lambda p, pkt, size: sent.append(p)
        dp.inject(udp_packet(), 1)
        assert sent == [2]

    def test_modify_updates_actions_keeps_counters(self):
        sim, dp, channel, agent, inbox = make_stack()
        channel.connect()
        sim.run_until_idle()
        channel.controller_end.send(FlowMod(
            command=FlowModCommand.ADD, match=Match(eth_type=0x0800),
            actions=[Output(1)], priority=5,
        ))
        sim.run_until_idle()
        dp.inject(udp_packet(), 1)
        channel.controller_end.send(FlowMod(
            command=FlowModCommand.MODIFY, match=Match(eth_type=0x0800),
            actions=[Output(2)],
        ))
        sim.run_until_idle()
        entry = dp.tables[0].entries()[0]
        assert entry.actions == [Output(2)]
        assert entry.packet_count == 1

    def test_delete_strict_vs_loose(self):
        sim, dp, channel, agent, inbox = make_stack()
        channel.connect()
        sim.run_until_idle()
        for priority in (5, 6):
            channel.controller_end.send(FlowMod(
                command=FlowModCommand.ADD,
                match=Match(eth_type=0x0800),
                priority=priority,
            ))
        sim.run_until_idle()
        channel.controller_end.send(FlowMod(
            command=FlowModCommand.DELETE_STRICT,
            match=Match(eth_type=0x0800), priority=5,
        ))
        sim.run_until_idle()
        assert dp.flow_count() == 1
        channel.controller_end.send(FlowMod(
            command=FlowModCommand.DELETE, match=Match(),
        ))
        sim.run_until_idle()
        assert dp.flow_count() == 0

    def test_table_full_reports_error(self):
        sim, dp, channel, agent, inbox = make_stack(table_capacity=1)
        channel.connect()
        sim.run_until_idle()
        for port in (80, 81):
            channel.controller_end.send(FlowMod(
                command=FlowModCommand.ADD, match=Match(l4_dst=port),
            ))
        sim.run_until_idle()
        errors = [m for m in inbox if isinstance(m, Error)]
        assert errors and errors[0].code == Error.TABLE_FULL

    def test_flow_removed_notification_only_when_flagged(self):
        sim, dp, channel, agent, inbox = make_stack()
        channel.connect()
        sim.run_until_idle()
        channel.controller_end.send(FlowMod(
            command=FlowModCommand.ADD, match=Match(l4_dst=1),
            idle_timeout=1.0, flags=FlowMod.SEND_FLOW_REM,
        ))
        channel.controller_end.send(FlowMod(
            command=FlowModCommand.ADD, match=Match(l4_dst=2),
            idle_timeout=1.0,
        ))
        sim.run(until=5.0)
        removed = [m for m in inbox if isinstance(m, FlowRemoved)]
        assert len(removed) == 1
        assert removed[0].match == Match(l4_dst=1)
        assert removed[0].reason == "idle_timeout"


class TestAgentBarriersAndDelay:
    def test_barrier_waits_for_flowmod_delay(self):
        sim, dp, channel, agent, inbox = make_stack(flowmod_delay=0.01)
        channel.connect()
        sim.run_until_idle()
        done = []
        for i in range(5):
            channel.controller_end.send(FlowMod(
                command=FlowModCommand.ADD, match=Match(l4_dst=i),
            ))
        channel.controller_end.request(
            BarrierRequest(), lambda m: done.append(sim.now))
        sim.run_until_idle()
        # Barrier reply must come after 5 × 10 ms of installs (plus RTT).
        assert done[0] >= 0.05
        assert dp.flow_count() == 5

    def test_immediate_barrier_with_zero_delay(self):
        sim, dp, channel, agent, inbox = make_stack()
        channel.connect()
        sim.run_until_idle()
        start = sim.now
        done = []
        channel.controller_end.request(
            BarrierRequest(), lambda m: done.append(sim.now))
        sim.run_until_idle()
        assert done[0] == pytest.approx(start + 2 * channel.latency)


class TestAgentDataplaneEvents:
    def test_packet_in_encodes_frame(self):
        sim, dp, channel, agent, inbox = make_stack()
        channel.connect()
        sim.run_until_idle()
        dp.inject(udp_packet(), 1)
        sim.run_until_idle()
        pins = [m for m in inbox if isinstance(m, PacketIn)]
        assert len(pins) == 1
        decoded = Packet.decode(pins[0].data)
        assert decoded[IPv4].dst == "10.0.0.2"
        assert pins[0].in_port == 1

    def test_port_status_event(self):
        sim, dp, channel, agent, inbox = make_stack()
        channel.connect()
        sim.run_until_idle()
        dp.set_port_state(2, False)
        sim.run_until_idle()
        statuses = [m for m in inbox if isinstance(m, PortStatus)]
        assert statuses and statuses[0].reason == "down"
        assert statuses[0].port.number == 2

    def test_packet_out_executes(self):
        sim, dp, channel, agent, inbox = make_stack()
        channel.connect()
        sim.run_until_idle()
        sent = []
        dp.transmit = lambda p, pkt, size: sent.append(p)
        channel.controller_end.send(PacketOut(
            in_port=0, actions=[Output(2)], data=udp_packet().encode(),
        ))
        sim.run_until_idle()
        assert sent == [2]


class TestAgentGroupsMetersRolesStats:
    def test_group_mod_lifecycle(self):
        sim, dp, channel, agent, inbox = make_stack()
        channel.connect()
        sim.run_until_idle()
        channel.controller_end.send(GroupMod(
            ModCommand.ADD, 5, GroupType.ALL, [Bucket([Output(1)])],
        ))
        sim.run_until_idle()
        assert 5 in dp.groups
        channel.controller_end.send(GroupMod(ModCommand.DELETE, 5))
        sim.run_until_idle()
        assert 5 not in dp.groups

    def test_bad_group_mod_errors(self):
        sim, dp, channel, agent, inbox = make_stack()
        channel.connect()
        sim.run_until_idle()
        channel.controller_end.send(GroupMod(
            ModCommand.MODIFY, 99, GroupType.ALL, [Bucket([Output(1)])],
        ))
        sim.run_until_idle()
        assert any(isinstance(m, Error) and m.code == Error.BAD_GROUP
                   for m in inbox)

    def test_meter_mod(self):
        sim, dp, channel, agent, inbox = make_stack()
        channel.connect()
        sim.run_until_idle()
        channel.controller_end.send(MeterMod(
            ModCommand.ADD, 3, rate_bps=1e6, burst_bytes=1000,
        ))
        sim.run_until_idle()
        assert 3 in dp.meters
        assert dp.meters.get(3).rate_bps == 1e6

    def test_role_request_generation_check(self):
        sim, dp, channel, agent, inbox = make_stack()
        channel.connect()
        sim.run_until_idle()
        replies = []
        channel.controller_end.request(
            RoleRequest(ControllerRole.PRIMARY, 10), replies.append)
        sim.run_until_idle()
        assert replies[-1].role == ControllerRole.PRIMARY
        # A stale generation must be refused.
        channel.controller_end.send(
            RoleRequest(ControllerRole.SECONDARY, 5))
        sim.run_until_idle()
        assert any(isinstance(m, Error) and m.code == Error.BAD_ROLE
                   for m in inbox)
        assert agent.controller_role == ControllerRole.PRIMARY

    def test_flow_stats_via_channel(self):
        sim, dp, channel, agent, inbox = make_stack()
        channel.connect()
        sim.run_until_idle()
        dp.install_flow(FlowEntry(Match(l4_dst=9), [Output(2)],
                                  priority=3))
        dp.inject(udp_packet(), 1)  # dst_port=2: miss -> packet-in only
        replies = []
        channel.controller_end.request(
            StatsRequest(StatsKind.FLOW), replies.append)
        channel.controller_end.request(
            StatsRequest(StatsKind.AGGREGATE), replies.append)
        sim.run_until_idle()
        flow_stats, agg = replies
        assert len(flow_stats.entries) == 1
        assert flow_stats.entries[0].match == Match(l4_dst=9)
        assert agg.entries[0]["flows"] == 1
