"""LLDP-based topology discovery.

The discovery app periodically sends an LLDP frame out of every port of
every connected switch; receiving one back on another switch proves a
unidirectional link.  Links age out when probes stop arriving, and port-
down events remove them immediately (the fast path that failure-recovery
experiments measure).

Everything apps ask about the discovered topology — the switch
:class:`~repro.graphutil.Graph`, which port faces which neighbour, which ports
face a switch at all, the flood tree, next hops toward a switch — is
answered from one :class:`TopologyView`, derived once per topology
*version* and shared until a link or the switch set changes.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, FrozenSet, Iterable, Optional, Tuple,
)

from repro.controller.core import App, SwitchHandle
from repro.controller.events import (
    LinkDiscovered,
    LinkVanished,
    PortStatusEvent,
)
from repro.dataplane.actions import Output, PORT_CONTROLLER
from repro.dataplane.match import Match
from repro.graphutil import (
    Graph, canonical_tree_edges, single_source_shortest_path,
)
from repro.packet import Ethernet, EtherType, LLDP, LLDP_MULTICAST, Packet
from repro.southbound.codec import FrameCache

__all__ = ["TopologyDiscovery", "TopologyView", "DiscoveredLink"]

#: Priority for the punt-LLDP-to-controller rule; above everything else.
LLDP_RULE_PRIORITY = 65000

#: Probe frames one discovery keeps: one per switch port, so a fabric
#: of up to 4096 ports builds each probe once.
PROBE_FRAMES = 4096

_NO_PORTS: FrozenSet[int] = frozenset()


class DiscoveredLink:
    """A unidirectional switch-to-switch adjacency."""

    __slots__ = ("src_dpid", "src_port", "dst_dpid", "dst_port",
                 "last_seen")

    def __init__(self, src_dpid: int, src_port: int, dst_dpid: int,
                 dst_port: int, last_seen: float) -> None:
        self.src_dpid = src_dpid
        self.src_port = src_port
        self.dst_dpid = dst_dpid
        self.dst_port = dst_port
        self.last_seen = last_seen

    def __repr__(self) -> str:
        return (
            f"<Link {self.src_dpid}:{self.src_port} -> "
            f"{self.dst_dpid}:{self.dst_port}>"
        )


class TopologyView:
    """What apps ask of one topology version, derived once and shared.

    Immutable: ``graph`` is frozen (a write raises
    :class:`~repro.graphutil.FrozenGraphError`; ``graph.copy()`` before
    pruning) and the port sets are frozensets.  Nodes and edges are
    inserted in ``controller.switches`` then ``links`` order:
    :mod:`repro.graphutil` breaks path ties by adjacency insertion
    order, and the resulting flow-mod sequence is part of every run
    digest.
    """

    __slots__ = ("version", "graph", "_toward", "_inter_switch",
                 "_tree_ports", "_next_hops", "_distances")

    def __init__(self, version: int, switches: Iterable[int],
                 links: Iterable[DiscoveredLink]) -> None:
        self.version = version
        graph = Graph()
        graph.add_nodes(switches)
        toward: Dict[Tuple[int, int], int] = {}
        inter_switch: Dict[int, set] = {}
        for link in links:
            # A parallel link re-adds the edge, which keeps its place;
            # ``toward`` keeps the first port seen.
            graph.add_edge(link.src_dpid, link.dst_dpid)
            toward.setdefault((link.src_dpid, link.dst_dpid),
                              link.src_port)
            inter_switch.setdefault(link.src_dpid, set()).add(link.src_port)
            inter_switch.setdefault(link.dst_dpid, set()).add(link.dst_port)
        tree_ports: Dict[int, set] = {}
        for a, b in canonical_tree_edges(graph):
            for ends in ((a, b), (b, a)):
                if ends in toward:  # seen from that side, not just the far one
                    tree_ports.setdefault(ends[0], set()).add(toward[ends])
        #: Undirected switch graph; an edge exists once either direction
        #: has been observed (:meth:`port_toward` names its ports).
        self.graph: Graph = graph.freeze()
        self._toward = toward
        self._inter_switch = {
            dpid: frozenset(ports) for dpid, ports in inter_switch.items()}
        self._tree_ports = {
            dpid: frozenset(ports) for dpid, ports in tree_ports.items()}
        self._next_hops: Dict[int, Dict[int, int]] = {}
        self._distances: Dict[int, Dict[int, int]] = {}

    def port_toward(self, src_dpid: int, dst_dpid: int) -> Optional[int]:
        """The port on ``src_dpid`` that reaches neighbour ``dst_dpid``."""
        return self._toward.get((src_dpid, dst_dpid))

    def inter_switch_ports(self, dpid: int) -> FrozenSet[int]:
        """Ports of ``dpid`` known to face another switch."""
        return self._inter_switch.get(dpid, _NO_PORTS)

    def tree_ports(self, dpid: int) -> FrozenSet[int]:
        """Ports of ``dpid`` on the canonical flood spanning tree."""
        return self._tree_ports.get(dpid, _NO_PORTS)

    def next_hops(self, dst_dpid: int) -> Dict[int, int]:
        """``{dpid: out_port}`` one hop closer to ``dst_dpid``.

        Covers every other switch that can reach ``dst_dpid`` (which
        must be in :attr:`graph`) over a known port, in breadth-first
        order from ``dst_dpid``; one BFS per destination per view.
        """
        hops = self._next_hops.get(dst_dpid)
        if hops is None:
            paths = single_source_shortest_path(self.graph, dst_dpid)
            hops = self._next_hops[dst_dpid] = {}
            dist = self._distances[dst_dpid] = {}
            for dpid, path in paths.items():
                dist[dpid] = len(path) - 1
                if dpid == dst_dpid:
                    continue
                # path is [dst_dpid, ..., dpid]: the hop back toward the
                # destination is the second-to-last element.
                port = self._toward.get((dpid, path[-2]))
                if port is not None:
                    hops[dpid] = port
        return hops

    def distances(self, dst_dpid: int) -> Dict[int, int]:
        """``{dpid: hop count}`` to ``dst_dpid`` (itself, at 0, included)
        for every switch that can reach it: :meth:`next_hops`' BFS."""
        self.next_hops(dst_dpid)
        return self._distances[dst_dpid]


class TopologyDiscovery(App):
    """Maintains the switch-level topology via LLDP probing."""

    name = "discovery"

    def __init__(self, probe_interval: float = 1.0,
                 link_timeout: float = 3.5,
                 jitter: float = 0.01) -> None:
        super().__init__()
        self.probe_interval = probe_interval
        self.link_timeout = link_timeout
        # Cluster nodes pass jitter=0.0: jittered timers draw the main
        # RNG per re-arm, which would make the draw count depend on the
        # number of controller instances.
        self.jitter = jitter
        #: (src_dpid, src_port) -> DiscoveredLink
        self.links: Dict[Tuple[int, int], DiscoveredLink] = {}
        #: Hook fired on every *locally observed* probe (new or refresh);
        #: the cluster layer uses it to replicate liveness east-west.
        self.on_link_seen: Optional[Callable[[DiscoveredLink], None]] = None
        self._stop_probe: Optional[Callable[[], None]] = None
        # Probe frames are a pure function of (dpid, port, mac, ttl), so
        # build each one exactly once across all intervals; the frame
        # carries its own wire bytes after the first packet-out.
        self._frames = FrameCache(PROBE_FRAMES)
        # What the current view was built from; see ``version``.
        self._version = 0
        self._switches: Tuple[int, ...] = ()
        self._view: Optional[TopologyView] = None
        #: Views derived so far: one per version somebody asked about.
        self.views_built = 0

    def start(self, controller) -> None:
        super().start(controller)
        self._stop_probe = controller.sim.call_every(
            self.probe_interval, self._probe_all, jitter=self.jitter
        )

    def stop(self) -> None:
        if self._stop_probe is not None:
            self._stop_probe()
            self._stop_probe = None

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def on_switch_enter(self, switch: SwitchHandle) -> None:
        # Make sure LLDP always reaches the controller, even when other
        # apps install wildcard rules below this priority.
        switch.add_flow(
            Match(eth_type=EtherType.LLDP),
            [Output(PORT_CONTROLLER)],
            priority=LLDP_RULE_PRIORITY,
        )
        self._probe_switch(switch)

    def on_switch_leave(self, dpid: int) -> None:
        self._remove_links([
            k for k, l in self.links.items()
            if l.src_dpid == dpid or l.dst_dpid == dpid
        ])

    def _probe_all(self) -> None:
        for switch in list(self.controller.switches.values()):
            self._probe_switch(switch)
        self._age_links()

    def _probe_switch(self, switch: SwitchHandle) -> None:
        ttl = int(self.link_timeout) + 1
        for port in switch.ports.values():
            if not port.up:
                continue
            frame = self._frames.get(
                (switch.dpid, port.number, port.mac_bytes, ttl),
                lambda: self._build_probe(switch.dpid, port, ttl),
            )
            switch.packet_out(frame, [Output(port.number)])

    @staticmethod
    def _build_probe(dpid: int, port, ttl: int) -> Packet:
        return (
            Ethernet(dst=LLDP_MULTICAST, src=port.mac_bytes)
            / LLDP(chassis_id=dpid, port_id=port.number, ttl=ttl)
        )

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def on_packet_in(self, event) -> None:
        lldp = event.packet.get(LLDP)
        if lldp is None:
            return
        self.observe_link(lldp.chassis_id, lldp.port_id,
                          event.switch.dpid, event.in_port)

    def observe_link(self, src_dpid: int, src_port: int, dst_dpid: int,
                     dst_port: int, local: bool = True) -> None:
        """Record an adjacency observation (probe or replicated).

        ``local=False`` marks a sighting replicated from a cluster peer:
        it is applied identically but not re-announced via
        :attr:`on_link_seen`, which would echo it around the bus.
        """
        key = (src_dpid, src_port)
        now = self.sim.now
        existing = self.links.get(key)
        if existing is not None:
            existing.last_seen = now
            if (existing.dst_dpid == dst_dpid
                    and existing.dst_port == dst_port):
                if local and self.on_link_seen is not None:
                    self.on_link_seen(existing)
                return
            # The far end changed (rewiring): replace the link.
            self._remove_links([key])
        link = DiscoveredLink(src_dpid, src_port, dst_dpid, dst_port, now)
        self.links[key] = link
        self._version += 1
        self.controller.publish(LinkDiscovered(
            link.src_dpid, link.src_port, link.dst_dpid, link.dst_port
        ))
        if local and self.on_link_seen is not None:
            self.on_link_seen(link)

    def _age_links(self) -> None:
        now = self.sim.now
        self._remove_links([
            key for key, link in self.links.items()
            if now - link.last_seen > self.link_timeout
        ])

    def on_port_status(self, event: PortStatusEvent) -> None:
        if event.up:
            return
        dpid, port_no = event.switch.dpid, event.port_no
        # A dead port kills the adjacency in both directions at once:
        # LLDP cannot be sent or received there, and publishing a
        # half-removed state would let subscribers compute paths over a
        # link that is already known dead.
        doomed = set()
        for key, link in self.links.items():
            if (link.src_dpid, link.src_port) == (dpid, port_no):
                doomed.add(key)
                doomed.add((link.dst_dpid, link.dst_port))
            elif (link.dst_dpid, link.dst_port) == (dpid, port_no):
                doomed.add(key)
                doomed.add((link.src_dpid, link.src_port))
        self._remove_links(doomed)

    def _remove_links(self, keys) -> None:
        """Remove a batch atomically: state first, events second."""
        removed = []
        for key in keys:
            link = self.links.pop(key, None)
            if link is not None:
                removed.append(link)
        if removed:
            self._version += 1
        for link in removed:
            self.controller.publish(LinkVanished(
                link.src_dpid, link.src_port, link.dst_dpid, link.dst_port
            ))

    def forget(self) -> None:
        """Drop every link silently, as a crashed process would.

        Nothing is published: the apps that would listen were wiped
        with us, and LLDP re-learns the fabric within one probe round.
        """
        self.links.clear()
        self._version += 1

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Counts changes to what a :class:`TopologyView` reads.

        Bumped when a link is added, rewired or removed and when the
        key sequence of ``controller.switches`` differs from the last
        one seen here — compared on read, so it holds whoever wrote
        the dict and in whatever app order.  A probe that only
        refreshes ``last_seen`` does not bump it.
        """
        switches = tuple(self.controller.switches)
        if switches != self._switches:
            self._switches = switches
            self._version += 1
        return self._version

    def view(self) -> TopologyView:
        """The view of the current version, built on first use."""
        version = self.version
        view = self._view
        if view is None or view.version != version:
            view = self._view = TopologyView(
                version, self._switches, self.links.values())
            self.views_built += 1
        return view

    def graph(self) -> Graph:
        """The current view's switch graph: shared and frozen."""
        return self.view().graph

    def port_toward(self, src_dpid: int, dst_dpid: int) -> Optional[int]:
        """The port on ``src_dpid`` that reaches neighbour ``dst_dpid``."""
        return self.view().port_toward(src_dpid, dst_dpid)

    def switch_ports_in_use(self, dpid: int) -> FrozenSet[int]:
        """Ports of ``dpid`` known to face another switch."""
        return self.view().inter_switch_ports(dpid)

    def is_edge_port(self, dpid: int, port_no: int) -> bool:
        """True when no discovered link uses this port (host-facing)."""
        return port_no not in self.view().inter_switch_ports(dpid)

    def flood_ports(self, dpid: int) -> FrozenSet[int]:
        """Where a flood leaves ``dpid``: its up edge ports plus its
        spanning-tree ports, so a flood reaches every host and never
        loops, whatever cycles the fabric has.  The proactive router
        and the learning switch flood to exactly these ports."""
        switch = self.controller.switches.get(dpid)
        if switch is None:
            return _NO_PORTS
        view = self.view()
        up_ports = {p.number for p in switch.ports.values() if p.up}
        return frozenset((up_ports - view.inter_switch_ports(dpid))
                         | view.tree_ports(dpid))

    @property
    def link_count(self) -> int:
        return len(self.links)
