"""The controller's topology view never lies.

``TopologyDiscovery`` answers every topology question from one
``TopologyView`` per topology version.  The ``naive_*`` functions below
are the per-call scans over the raw link table that the view replaced;
they live on here as the oracle.  A hypothesis state machine drives
discovery through every way its inputs can change and compares every
public answer with the oracle after every step.
"""

import types

import networkx as nx
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.apps import ProactiveRouter
from repro.controller import (
    App,
    Controller,
    HostTracker,
    PortStatusEvent,
    SwitchEnter,
    SwitchLeave,
    TopologyDiscovery,
)
from repro.graphutil import canonical_tree_edges
from repro.netem import Network, Topology
from repro.packet import MACAddress
from repro.sim import Simulator


# ----------------------------------------------------------------------
# The oracle: recompute everything from ``links`` on every question
# ----------------------------------------------------------------------
def naive_graph(discovery):
    g = nx.Graph()
    for dpid in discovery.controller.switches:
        g.add_node(dpid)
    for link in discovery.links.values():
        g.add_edge(
            link.src_dpid, link.dst_dpid,
            ports={link.src_dpid: link.src_port,
                   link.dst_dpid: link.dst_port},
        )
    return g


def naive_port_toward(discovery, src_dpid, dst_dpid):
    for link in discovery.links.values():
        if link.src_dpid == src_dpid and link.dst_dpid == dst_dpid:
            return link.src_port
    return None


def naive_ports_in_use(discovery, dpid):
    used = set()
    for link in discovery.links.values():
        if link.src_dpid == dpid:
            used.add(link.src_port)
        if link.dst_dpid == dpid:
            used.add(link.dst_port)
    return used


def naive_flood_ports(discovery, dpid):
    graph = naive_graph(discovery)
    switch = discovery.controller.switches.get(dpid)
    if switch is None:
        return set()
    all_ports = {p.number for p in switch.ports.values() if p.up}
    edge_ports = all_ports - naive_ports_in_use(discovery, dpid)
    tree_ports = set()
    if dpid in graph and graph.number_of_edges() > 0:
        for edge in canonical_tree_edges(graph):
            if dpid in edge:
                (other,) = edge - {dpid}
                port = naive_port_toward(discovery, dpid, other)
                if port is not None:
                    tree_ports.add(port)
    return edge_ports | tree_ports


def naive_wanted(discovery, tracker):
    graph = naive_graph(discovery)
    wanted = {}
    for entry in tracker.hosts_by_mac.values():
        if entry.dpid not in graph:
            continue
        paths = nx.single_source_shortest_path(graph, entry.dpid)
        for dpid, path in paths.items():
            if dpid == entry.dpid:
                wanted[(dpid, entry.mac)] = entry.port
                continue
            port = naive_port_toward(discovery, dpid, path[-2])
            if port is not None:
                wanted[(dpid, entry.mac)] = port
    return wanted


def shape(graph):
    """Everything a networkx tie-break can see, order included."""
    return (list(graph.nodes), list(graph.edges(data=True)),
            {node: list(graph.adj[node]) for node in graph})


# ----------------------------------------------------------------------
# The state machine
# ----------------------------------------------------------------------
DPIDS = st.integers(min_value=1, max_value=5)
PORTS = st.integers(min_value=1, max_value=4)


class FakeSwitch:
    """As much of a ``SwitchHandle`` as discovery and the router touch."""

    def __init__(self, dpid):
        self.dpid = dpid
        self.ports = {
            n: types.SimpleNamespace(number=n, up=True,
                                     mac_bytes=bytes([2, 0, 0, 0, dpid, n]))
            for n in range(1, 5)
        }

    def add_flow(self, *args, **kwargs):
        pass

    delete_flows = packet_out = add_flow


class TopologyViewMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.controller = Controller(self.sim)
        self.discovery = self.controller.add_app(
            TopologyDiscovery(jitter=0.0))
        self.discovery.stop()  # probing and ageing are driven by rules
        self.tracker = self.controller.add_app(HostTracker())
        self.router = self.controller.add_app(ProactiveRouter())
        # What the router declares: (owner, [(dpid, rule), ...]) per
        # rebuild, as handed to the controller's one update primitive.
        self.updates = []
        self.controller.update = (
            lambda owner, rules: self.updates.append((owner, list(rules))))
        for dpid in (1, 2, 3):
            self.enter(dpid)

    def tick(self, seconds):
        self.sim.run(until=self.sim.now + seconds)

    # -- links ----------------------------------------------------------
    @rule(src=DPIDS, src_port=PORTS, dst=DPIDS, dst_port=PORTS,
          local=st.booleans())
    def observe(self, src, src_port, dst, dst_port, local):
        """New link, rewire, parallel link, one direction only, or a
        refresh, depending on what is already known."""
        self.discovery.observe_link(src, src_port, dst, dst_port,
                                    local=local)

    @precondition(lambda self: self.discovery.links)
    @rule(data=st.data(), local=st.booleans())
    def refresh(self, data, local):
        link = self.discovery.links[
            data.draw(st.sampled_from(sorted(self.discovery.links)))]
        view, version = self.discovery.view(), self.discovery.version
        self.tick(0.25)
        self.discovery.observe_link(link.src_dpid, link.src_port,
                                    link.dst_dpid, link.dst_port,
                                    local=local)
        assert link.last_seen == self.sim.now
        assert self.discovery.version == version
        assert self.discovery.view() is view

    @rule(seconds=st.sampled_from([0.5, 2.0, 4.0]))
    def age(self, seconds):
        self.tick(seconds)
        self.discovery._age_links()

    @rule()
    def forget(self):
        self.discovery.forget()

    # -- switches and ports ----------------------------------------------
    @rule(dpid=DPIDS)
    def enter(self, dpid):
        if dpid not in self.controller.switches:
            switch = self.controller.switches[dpid] = FakeSwitch(dpid)
            self.controller.publish(SwitchEnter(switch))

    @rule(dpid=DPIDS, announced=st.booleans())
    def leave(self, dpid, announced):
        """``announced=False`` is a cluster demotion: the switch drops
        out of ``controller.switches`` with no SwitchLeave."""
        if self.controller.switches.pop(dpid, None) and announced:
            self.controller.publish(SwitchLeave(dpid))

    @rule(dpid=DPIDS, port=PORTS, up=st.booleans())
    def port_status(self, dpid, port, up):
        switch = self.controller.switches.get(dpid)
        if switch is not None:
            switch.ports[port].up = up
            self.controller.publish(PortStatusEvent(switch, port, up))

    @rule(host=st.integers(min_value=1, max_value=4), dpid=DPIDS,
          port=PORTS)
    def learn_host(self, host, dpid, port):
        self.tracker._learn(MACAddress(bytes([2, 0, 0, 0, 9, host])),
                            None, dpid, port)

    # -- every public answer, after every step ----------------------------
    @invariant()
    def view_matches_the_naive_scans(self):
        discovery = self.discovery
        built = discovery.views_built
        graph = discovery.graph()
        assert shape(graph) == shape(naive_graph(discovery))
        for a in range(1, 6):
            assert (discovery.switch_ports_in_use(a)
                    == naive_ports_in_use(discovery, a))
            assert (discovery.flood_ports(a)
                    == naive_flood_ports(discovery, a))
            for b in range(1, 6):
                assert (discovery.port_toward(a, b)
                        == naive_port_toward(discovery, a, b))
            for port in range(1, 5):
                assert (discovery.is_edge_port(a, port)
                        == (port not in naive_ports_in_use(discovery, a)))
        self.router._rebuild()
        owner, rules = self.updates[-1]
        assert owner == self.router.name
        assert all(
            rule.keys() == {"match", "actions", "priority", "table_id"}
            and rule["priority"] == self.router.priority
            and rule["table_id"] == self.router.table_id
            and len(rule["actions"]) == 1
            for _dpid, rule in rules)
        assert ([((dpid, rule["match"].fields["eth_dst"]),
                  rule["actions"][0].port) for dpid, rule in rules]
                == list(naive_wanted(discovery, self.tracker).items()))
        # All of the above cost at most one view, and it is shared.
        assert discovery.views_built <= built + 1
        assert discovery.graph() is graph


TestTopologyViewMachine = TopologyViewMachine.TestCase
TestTopologyViewMachine.settings = settings(
    max_examples=150, stateful_step_count=25, deadline=None)


# ----------------------------------------------------------------------
# Ownership and ordering
# ----------------------------------------------------------------------
def connect(net, controller):
    for name in net.switches:
        channel = net.make_channel(name)
        controller.accept_channel(channel)
        channel.connect()


def test_the_shared_graph_is_frozen():
    net = Network(Topology.linear(3))
    controller = Controller(net.sim)
    discovery = controller.add_app(TopologyDiscovery(probe_interval=0.5))
    connect(net, controller)
    net.run(2.0)
    graph = discovery.graph()
    assert graph.number_of_edges() == 2
    for mutate in (lambda: graph.add_node(99),
                   lambda: graph.add_edge(1, 3),
                   lambda: graph.remove_edge(1, 2),
                   lambda: graph.remove_node(1)):
        with pytest.raises(nx.NetworkXError):
            mutate()
    pruned = graph.copy()  # the way to prune: on a private copy
    pruned.remove_edge(1, 2)
    assert discovery.graph().has_edge(1, 2)


def test_an_app_registered_before_discovery_sees_the_entering_switch():
    """The version follows ``controller.switches`` itself, not
    discovery's own ``on_switch_enter``, which runs after this app's."""

    class Early(App):
        name = "early"

        def __init__(self, discovery):
            super().__init__()
            self.discovery = discovery
            self.seen = []

        def on_switch_enter(self, switch):
            self.seen.append(switch.dpid in self.discovery.graph())

    net = Network(Topology.linear(3))
    controller = Controller(net.sim)
    discovery = TopologyDiscovery(probe_interval=0.5)
    early = controller.add_app(Early(discovery))
    controller.add_app(discovery)
    connect(net, controller)
    net.run(2.0)
    assert early.seen == [True] * 3
