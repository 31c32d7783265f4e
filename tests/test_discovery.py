"""Topology discovery tests over live emulated networks."""


from repro.controller import (
    Controller,
    LinkDiscovered,
    LinkVanished,
    TopologyDiscovery,
)
from repro.netem import Network, Topology


def build(topo, probe_interval=0.5):
    net = Network(topo)
    controller = Controller(net.sim)
    discovery = controller.add_app(
        TopologyDiscovery(probe_interval=probe_interval,
                          link_timeout=3 * probe_interval)
    )
    for name in net.switches:
        channel = net.make_channel(name)
        controller.accept_channel(channel)
        channel.connect()
    return net, controller, discovery


class TestDiscovery:
    def test_linear_links_found_both_directions(self):
        net, controller, discovery = build(Topology.linear(3))
        net.run(2.0)
        assert discovery.link_count == 4  # 2 physical links × 2 dirs
        graph = discovery.graph()
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 2

    def test_fat_tree_discovery(self):
        net, controller, discovery = build(Topology.fat_tree(4))
        net.run(3.0)
        graph = discovery.graph()
        assert graph.number_of_nodes() == 20
        assert graph.number_of_edges() == 32  # fabric links only

    def test_discovery_events_published(self):
        events = []
        net, controller, discovery = build(Topology.linear(2))
        controller.subscribe(LinkDiscovered, events.append)
        net.run(2.0)
        assert len(events) == 2
        dpids = {(e.src_dpid, e.dst_dpid) for e in events}
        assert dpids == {(1, 2), (2, 1)}

    def test_port_toward(self):
        net, controller, discovery = build(Topology.linear(3))
        net.run(2.0)
        s1, s2 = net.switch("s1").dpid, net.switch("s2").dpid
        assert discovery.port_toward(s1, s2) == net.port_of("s1", "s2")
        assert discovery.port_toward(s1, 99) is None

    def test_edge_port_classification(self):
        net, controller, discovery = build(Topology.linear(2,
                                                           hosts_per_switch=1))
        net.run(2.0)
        s1 = net.switch("s1").dpid
        host_port = net.port_of("s1", "h1")
        trunk_port = net.port_of("s1", "s2")
        assert discovery.is_edge_port(s1, host_port)
        assert not discovery.is_edge_port(s1, trunk_port)


class TestFailureReaction:
    def test_port_down_removes_links_immediately(self):
        net, controller, discovery = build(Topology.linear(3))
        net.run(2.0)
        vanished = []
        controller.subscribe(LinkVanished, vanished.append)
        t_fail = net.sim.now
        net.fail_link("s1", "s2")
        net.run(0.1)
        assert len(vanished) == 2  # both directions
        assert discovery.link_count == 2
        # Reaction must be port-status-driven, not timeout-driven.
        assert net.sim.now - t_fail < 0.2

    def test_silent_loss_ages_out(self):
        net, controller, discovery = build(Topology.linear(2),
                                           probe_interval=0.5)
        net.run(2.0)
        assert discovery.link_count == 2
        # Cut the wire without port-down events: ages out after timeout.
        net.link("s1", "s2").fail()
        net.run(3.0)
        assert discovery.link_count == 0

    def test_recovery_rediscovers(self):
        net, controller, discovery = build(Topology.linear(2))
        net.run(2.0)
        net.fail_link("s1", "s2")
        net.run(0.5)
        net.recover_link("s1", "s2")
        net.run(2.0)
        assert discovery.link_count == 2

    def test_switch_leave_removes_its_links(self):
        net, controller, discovery = build(Topology.linear(3))
        net.run(2.0)
        net.channel("s2").disconnect()
        net.run(0.1)
        s2 = 2
        assert all(s2 not in (link.src_dpid, link.dst_dpid)
                   for link in discovery.links.values())

    def test_stop_halts_probing(self):
        net, controller, discovery = build(Topology.linear(2))
        net.run(2.0)
        discovery.stop()
        before = net.channels["s1"].controller_end.sent.messages
        net.run(2.0)
        after = net.channels["s1"].controller_end.sent.messages
        assert after == before  # no more LLDP packet-outs
