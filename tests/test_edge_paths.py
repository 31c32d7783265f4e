"""Edge-path sweep: error replies, odd commands, small API corners."""

import pytest

from repro.controller import Controller, ErrorEvent
from repro.dataplane import (
    Bucket,
    Datapath,
    FlowKey,
    GroupType,
    Match,
    Output,
)
from repro.packet import Ethernet, IPv4, UDP
from repro.sim import Simulator
from repro.southbound import (
    ControlChannel,
    Error,
    FeaturesReply,
    FlowMod,
    GroupMod,
    Hello,
    MeterMod,
    PacketOut,
    RoleRequest,
    SwitchAgent,
)


def stack():
    sim = Simulator()
    dp = Datapath(1, sim)
    dp.add_port(1)
    channel = ControlChannel(sim, latency=0.0005)
    SwitchAgent(dp, channel)
    inbox = []
    channel.controller_end.handler = inbox.append
    channel.controller_end.on_connect = (
        lambda: channel.controller_end.send(Hello()))
    channel.connect()
    sim.run_until_idle()
    return sim, dp, channel, inbox


def errors_in(inbox):
    return [m for m in inbox if isinstance(m, Error)]


class TestAgentErrorPaths:
    def test_unknown_flowmod_command(self):
        sim, dp, channel, inbox = stack()
        channel.controller_end.send(FlowMod(command=99))
        sim.run_until_idle()
        errs = errors_in(inbox)
        assert errs and errs[0].code == Error.BAD_REQUEST

    def test_unknown_metermod_command(self):
        sim, dp, channel, inbox = stack()
        channel.controller_end.send(MeterMod(command=99, meter_id=1,
                                             rate_bps=1e6))
        sim.run_until_idle()
        assert errors_in(inbox)[0].code == Error.BAD_METER

    def test_unknown_groupmod_command(self):
        sim, dp, channel, inbox = stack()
        channel.controller_end.send(GroupMod(
            command=99, group_id=1, group_type=GroupType.ALL,
            buckets=[Bucket([Output(1)])]))
        sim.run_until_idle()
        assert errors_in(inbox)[0].code == Error.BAD_GROUP

    def test_switch_rejects_controller_only_messages(self):
        sim, dp, channel, inbox = stack()
        # A switch should never receive a FeaturesReply.
        channel.controller_end.send(FeaturesReply(dpid=1))
        sim.run_until_idle()
        assert errors_in(inbox)[0].code == Error.BAD_REQUEST

    def test_duplicate_group_add_reports_error(self):
        sim, dp, channel, inbox = stack()
        for _ in range(2):
            channel.controller_end.send(GroupMod(
                group_id=5, group_type=GroupType.ALL,
                buckets=[Bucket([Output(1)])]))
        sim.run_until_idle()
        assert errors_in(inbox)[0].code == Error.BAD_GROUP

    def test_packet_out_with_bad_group_reports_error(self):
        sim, dp, channel, inbox = stack()
        from repro.dataplane import Group

        frame = (Ethernet(dst="00:00:00:00:00:02",
                          src="00:00:00:00:00:01") / b"x").encode()
        channel.controller_end.send(PacketOut(
            in_port=0, actions=[Group(404)], data=frame))
        sim.run_until_idle()
        assert errors_in(inbox)[0].code == Error.BAD_ACTION

    def test_equal_role_always_accepted(self):
        sim, dp, channel, inbox = stack()
        from repro.southbound import ControllerRole, RoleReply

        replies = []
        channel.controller_end.request(
            RoleRequest(ControllerRole.PRIMARY, 10), replies.append)
        channel.controller_end.request(
            RoleRequest(ControllerRole.EQUAL, 0), replies.append)
        sim.run_until_idle()
        assert isinstance(replies[1], RoleReply)
        assert replies[1].role == ControllerRole.EQUAL


class TestControllerErrorEvents:
    def test_switch_error_published_as_event(self):
        sim = Simulator()
        controller = Controller(sim)
        dp = Datapath(1, sim, table_capacity=1)
        dp.add_port(1)
        channel = ControlChannel(sim)
        SwitchAgent(dp, channel)
        controller.accept_channel(channel)
        channel.connect()
        sim.run_until_idle()
        events = []
        controller.subscribe(ErrorEvent, events.append)
        handle = controller.switch(1)
        handle.add_flow(Match(l4_dst=1), [Output(1)])
        handle.add_flow(Match(l4_dst=2), [Output(1)])  # table full
        sim.run_until_idle()
        assert events and events[0].code == Error.TABLE_FULL
        assert "full" in events[0].detail

    def test_group_and_meter_handle_helpers(self):
        sim = Simulator()
        controller = Controller(sim)
        dp = Datapath(1, sim)
        dp.add_port(1)
        channel = ControlChannel(sim)
        SwitchAgent(dp, channel)
        controller.accept_channel(channel)
        channel.connect()
        sim.run_until_idle()
        handle = controller.switch(1)
        handle.add_group(3, GroupType.ALL, [Bucket([Output(1)])])
        handle.modify_group(3, GroupType.ALL,
                            [Bucket([Output(1)], weight=2)])
        handle.add_meter(4, 1e6)
        sim.run_until_idle()
        assert dp.groups.get(3).buckets[0].weight == 2
        assert 4 in dp.meters
        handle.delete_group(3)
        handle.delete_meter(4)
        sim.run_until_idle()
        assert 3 not in dp.groups
        assert 4 not in dp.meters


class TestSimCorners:
    def test_drain_cancels_batch(self):
        sim = Simulator()
        fired = []
        events = [sim.schedule(1.0, fired.append, i) for i in range(5)]
        sim.drain(events)
        sim.run_until_idle()
        assert fired == []


class TestSmallApiCorners:
    def test_match_container_protocol(self):
        m = Match(l4_dst=80, eth_type=0x0800)
        assert "l4_dst" in m
        assert m.get("l4_dst") == 80
        assert m.get("ip_src") is None
        assert sorted(m) == ["eth_type", "l4_dst"]

    def test_flowkey_hash_and_equality(self):
        pkt = (Ethernet(dst="00:00:00:00:00:02",
                        src="00:00:00:00:00:01")
               / IPv4(src="1.1.1.1", dst="2.2.2.2")
               / UDP(src_port=1, dst_port=2) / b"")
        k1 = FlowKey.from_packet(pkt, in_port=1)
        k2 = FlowKey.from_packet(pkt.copy(), in_port=1)
        assert k1 == k2
        assert hash(k1) == hash(k2)
        assert len({k1, k2}) == 1

    def test_flow_generator_pair_picker(self):
        from repro.dataplane import FlowEntry, Match, Output, PORT_FLOOD
        from repro.netem import FlowGenerator, Network, Topology

        net = Network(Topology.single(3, bandwidth_bps=1e9),
                      miss_behaviour="drop")
        net.switch("s1").install_flow(
            FlowEntry(Match(), [Output(PORT_FLOOD)], priority=0))
        hosts = list(net.hosts.values())
        for a in hosts:
            for b in hosts:
                if a is not b:
                    a.add_static_arp(b.ip, b.mac)
        h1, h2 = hosts[0], hosts[1]
        gen = FlowGenerator(
            net.sim, hosts, arrival_rate=30.0,
            size_source=iter(lambda: 1000, None),
            duration=2.0,
            pair_picker=lambda: (h1, h2),
        )
        net.run(4.0)
        assert gen.flows_started
        assert all(f.src == h1.name and f.dst == h2.name
                   for f in gen.flows_started)
