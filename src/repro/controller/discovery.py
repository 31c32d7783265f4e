"""LLDP-based topology discovery.

The discovery app periodically sends an LLDP frame out of every port of
every connected switch; receiving one back on another switch proves a
unidirectional link.  Links age out when probes stop arriving, and port-
down events remove them immediately (the fast path that failure-recovery
experiments measure).

The discovered graph is exposed as a :mod:`networkx` graph for the path
service, and edge-port classification feeds the host tracker.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

import networkx as nx

from repro.controller.core import App, SwitchHandle
from repro.controller.events import (
    LinkDiscovered,
    LinkVanished,
    PortStatusEvent,
)
from repro.dataplane.actions import Output, PORT_CONTROLLER
from repro.dataplane.match import Match
from repro.packet import Ethernet, EtherType, LLDP, LLDP_MULTICAST, Packet
from repro.southbound.codec import FrameCache

__all__ = ["TopologyDiscovery", "DiscoveredLink"]

#: Priority for the punt-LLDP-to-controller rule; above everything else.
LLDP_RULE_PRIORITY = 65000


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

    def key(self) -> Tuple[int, int]:
        return (self.src_dpid, self.src_port)

    def __repr__(self) -> str:
        return (
            f"<Link {self.src_dpid}:{self.src_port} -> "
            f"{self.dst_dpid}:{self.dst_port}>"
        )


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
        self._frames = FrameCache()

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
        for link in removed:
            self.controller.publish(LinkVanished(
                link.src_dpid, link.src_port, link.dst_dpid, link.dst_port
            ))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def graph(self) -> nx.Graph:
        """An undirected switch graph with per-edge port annotations.

        An edge exists once either direction has been observed; edge
        attribute ``ports`` maps each endpoint dpid to its local port.
        """
        g = nx.Graph()
        for dpid in self.controller.switches:
            g.add_node(dpid)
        for link in self.links.values():
            g.add_edge(
                link.src_dpid, link.dst_dpid,
                ports={link.src_dpid: link.src_port,
                       link.dst_dpid: link.dst_port},
            )
        return g

    def port_toward(self, src_dpid: int, dst_dpid: int) -> Optional[int]:
        """The port on ``src_dpid`` that reaches neighbour ``dst_dpid``."""
        for link in self.links.values():
            if link.src_dpid == src_dpid and link.dst_dpid == dst_dpid:
                return link.src_port
        return None

    def switch_ports_in_use(self, dpid: int) -> Set[int]:
        """Ports of ``dpid`` known to face another switch."""
        used: Set[int] = set()
        for link in self.links.values():
            if link.src_dpid == dpid:
                used.add(link.src_port)
            if link.dst_dpid == dpid:
                used.add(link.dst_port)
        return used

    def is_edge_port(self, dpid: int, port_no: int) -> bool:
        """True when no discovered link uses this port (host-facing)."""
        return port_no not in self.switch_ports_in_use(dpid)

    @property
    def link_count(self) -> int:
        return len(self.links)
