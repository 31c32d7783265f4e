"""Network assembly tests: wiring, port maps, failure injection."""

import pytest

from repro.dataplane import (
    DecTTL,
    FlowEntry,
    Match,
    Output,
    PORT_FLOOD,
    SetEthDst,
)
from repro.errors import TopologyError
from repro.netem import Network, Tap, Topology
from repro.packet import Ethernet, IPv4, UDP


def flooded(net):
    """Install flood-everything on every switch (tree topologies only)."""
    for name in net.switches:
        net.switch(name).install_flow(
            FlowEntry(Match(), [Output(PORT_FLOOD)], priority=0)
        )


class TestAssembly:
    def test_nodes_instantiated(self):
        net = Network(Topology.linear(3, hosts_per_switch=2))
        assert len(net.switches) == 3
        assert len(net.hosts) == 6
        assert len(net.links) == 2 + 6

    def test_port_map_is_consistent(self):
        net = Network(Topology.linear(3))
        port = net.port_of("s2", "s1")
        dp = net.switch("s2")
        assert port in dp.ports
        with pytest.raises(TopologyError):
            net.port_of("s1", "s3")  # not adjacent

    def test_lookups_raise_on_unknown(self):
        net = Network(Topology.single(1))
        with pytest.raises(TopologyError):
            net.host("nope")
        with pytest.raises(TopologyError):
            net.switch("nope")
        with pytest.raises(TopologyError):
            net.link("a", "b")

    def test_switch_name_by_dpid(self):
        net = Network(Topology.linear(2))
        assert net.switch_name(net.switch("s2").dpid) == "s2"
        with pytest.raises(TopologyError):
            net.switch_name(999)

    def test_invalid_topology_rejected_at_build(self):
        topo = Topology()
        topo.add_switch()
        topo.add_host()  # never linked
        with pytest.raises(TopologyError):
            Network(topo)


class TestDataflow:
    def test_host_to_host_through_switches(self):
        net = Network(Topology.linear(2, hosts_per_switch=1,
                                      bandwidth_bps=1e9),
                      miss_behaviour="drop")
        flooded(net)
        h1, h2 = net.host("h1"), net.host("h2")
        session = h1.ping(h2.ip, count=2, interval=0.1)
        net.run(5.0)
        assert session.received == 2

    def test_ping_all_full_delivery(self):
        net = Network(Topology.single(3), miss_behaviour="drop")
        flooded(net)
        assert net.ping_all(count=1, settle=2.0) == 1.0

    def test_switch_counters_increment(self):
        net = Network(Topology.single(2), miss_behaviour="drop")
        flooded(net)
        net.ping_all(count=1, settle=2.0)
        assert net.switch("s1").packets_received > 0
        assert net.switch("s1").packets_forwarded > 0


class TestFrameSharing:
    """A flooded frame is one object on every port; a rewrite downstream
    must stay private to the switch that made it."""

    def test_rewrite_on_one_branch_is_invisible_on_the_others(self):
        topo = Topology()
        for switch in ("s1", "s2"):
            topo.add_switch(switch)
        for host, switch in (("h1", "s1"), ("h2", "s2"), ("h3", "s1"),
                             ("h4", "s1")):
            topo.add_host(host)
            topo.add_link(host, switch)
        topo.add_link("s1", "s2")
        net = Network(topo, miss_behaviour="drop")
        net.switch("s1").install_flow(
            FlowEntry(Match(), [Output(PORT_FLOOD)]))
        h2 = net.host("h2")
        net.switch("s2").install_flow(FlowEntry(Match(), [
            SetEthDst(h2.mac), DecTTL(), Output(net.port_of("s2", "h2")),
        ]))
        tap = Tap(net.link("s1", "s2"))
        seen = {}
        for name in ("h2", "h3", "h4"):
            net.host(name).on_receive = \
                lambda packet, name=name: seen.setdefault(name, packet)

        h1 = net.host("h1")
        frame = (Ethernet(dst="02:00:00:00:00:99", src=h1.mac)
                 / IPv4(src=h1.ip, dst=h2.ip, ttl=9)
                 / UDP(src_port=1, dst_port=2) / b"payload")
        wire = frame.encode()
        h1.send_frame(frame)
        net.run_until_idle()

        # The scenario really aliases: both flood receivers hold the
        # object the host sent, not copies of it.
        assert seen["h3"] is frame and seen["h4"] is frame
        assert [record.packet.encode() for record in tap] == [wire]
        assert seen["h3"].encode() == wire
        assert seen["h2"] is not frame
        assert seen["h2"][Ethernet].dst == h2.mac
        assert seen["h2"][IPv4].ttl == 8
        assert seen["h2"].encode() != wire
        assert frame[IPv4].ttl == 9 and frame.encode() == wire


class TestFailureInjection:
    def test_fail_link_stops_traffic_and_lowers_ports(self):
        net = Network(Topology.linear(2, hosts_per_switch=1),
                      miss_behaviour="drop")
        flooded(net)
        net.ping_all(count=1, settle=2.0)
        net.fail_link("s1", "s2")
        assert not net.link("s1", "s2").up
        assert not net.switch("s1").port(net.port_of("s1", "s2")).up
        h1, h2 = net.host("h1"), net.host("h2")
        session = h1.ping(h2.ip, count=1, timeout=1.0)
        net.run(3.0)
        assert session.lost == 1

    def test_recover_link(self):
        net = Network(Topology.linear(2, hosts_per_switch=1),
                      miss_behaviour="drop")
        flooded(net)
        net.fail_link("s1", "s2")
        net.recover_link("s1", "s2")
        assert net.link("s1", "s2").up
        assert net.ping_all(count=1, settle=2.0) == 1.0

    def test_fail_switch_cuts_all_adjacent_links(self):
        net = Network(Topology.star(2, hosts_per_leaf=1))
        net.fail_switch("hub")
        for neighbour in net.topology.neighbours("hub"):
            assert not net.link("hub", neighbour).up

    def test_host_link_failure(self):
        net = Network(Topology.single(2), miss_behaviour="drop")
        flooded(net)
        net.fail_link("h1", "s1")
        h2 = net.host("h2")
        session = h2.ping(net.host("h1").ip, count=1, timeout=1.0)
        net.run(3.0)
        assert session.lost == 1


class TestChannels:
    def test_make_channel_once(self):
        net = Network(Topology.single(1))
        net.make_channel("s1")
        with pytest.raises(TopologyError):
            net.make_channel("s1")
        assert net.channel("s1") is net.channels["s1"]

    def test_channel_for_unknown_switch(self):
        net = Network(Topology.single(1))
        with pytest.raises(KeyError):
            net.make_channel("sX")
        with pytest.raises(TopologyError):
            net.channel("sX")

    def test_determinism_across_runs(self):
        def run():
            net = Network(Topology.linear(3, hosts_per_switch=1,
                                          loss_rate=0.1), seed=11,
                          miss_behaviour="drop")
            flooded(net)
            ratio = net.ping_all(count=3, settle=3.0)
            return ratio, net.sim.events_processed

        assert run() == run()
