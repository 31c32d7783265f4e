"""Proactive shortest-path L2 routing.

Where the learning switch reacts to traffic, this app *pre-installs* a
destination-MAC rule on every switch for every known host, rebuilt on
each topology or host change.  First packets to a known host never visit
the controller — the proactive half of benchmark E1's comparison — and
total table occupancy is O(hosts × switches) regardless of flow count
(benchmark E2).

Unknown destinations and broadcasts are flooded along a loop-free
spanning tree of the discovered graph, so the app stays correct on
redundant topologies where naive flooding would storm.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.controller.core import App
from repro.controller.discovery import TopologyDiscovery
from repro.controller.events import (
    HostDiscovered,
    HostMoved,
    LinkDiscovered,
    LinkVanished,
    PacketInEvent,
)
from repro.controller.hosttracker import HostTracker
from repro.dataplane.actions import Output
from repro.dataplane.match import Match
from repro.errors import ControllerError
from repro.packet import ARP, Ethernet, LLDP

__all__ = ["ProactiveRouter"]

#: Debounce, in seconds, between a topology event and its rebuild.
_REBUILD_DELAY = 0.01


class ProactiveRouter(App):
    """All-pairs proactive destination routing with spanning-tree floods."""

    name = "proactive-router"

    def __init__(
        self,
        discovery: Optional[TopologyDiscovery] = None,
        host_tracker: Optional[HostTracker] = None,
        priority: int = 200,
        table_id: int = 0,
    ) -> None:
        super().__init__()
        self._discovery = discovery
        self._tracker = host_tracker
        self.priority = priority
        self.table_id = table_id
        self._rebuild_pending = False
        self.rebuild_count = 0
        self.packets_flooded = 0

    def start(self, controller) -> None:
        super().start(controller)
        if self._discovery is None:
            self._discovery = controller.get_app(TopologyDiscovery)
        if self._tracker is None:
            self._tracker = controller.get_app(HostTracker)
        if self._discovery is None or self._tracker is None:
            raise ControllerError(
                "ProactiveRouter needs TopologyDiscovery and HostTracker"
            )
        for event_type in (HostDiscovered, HostMoved, LinkDiscovered,
                           LinkVanished):
            controller.subscribe(event_type,
                                 lambda _ev: self.schedule_rebuild(),
                                 owner=self.name)

    # ------------------------------------------------------------------
    # Rule management
    # ------------------------------------------------------------------
    def schedule_rebuild(self) -> None:
        """Debounced: coalesce event bursts into one rebuild."""
        if self._rebuild_pending:
            return
        self._rebuild_pending = True
        self.sim.schedule(_REBUILD_DELAY, self._rebuild)

    def _rebuild(self) -> None:
        self._rebuild_pending = False
        self.rebuild_count += 1
        self.controller.update(self.name, self._wanted())

    def _wanted(self) -> Iterator[Tuple[int, dict]]:
        """Every rule the fabric should hold, in flow-mod order: hosts
        as learned, the attachment switch first, then the view's
        shortest-path tree toward it (one BFS per attachment switch,
        shared by its hosts)."""
        view = self._discovery.view()
        for entry in self._tracker.hosts_by_mac.values():
            if entry.dpid not in view.graph:
                continue
            match = Match(eth_dst=entry.mac)
            yield entry.dpid, self._rule(match, Output(entry.port))
            for dpid, port in view.next_hops(entry.dpid).items():
                yield dpid, self._rule(match, Output(port))

    def _rule(self, match: Match, action) -> dict:
        return {"match": match, "actions": [action],
                "priority": self.priority, "table_id": self.table_id}

    @property
    def rules_installed(self) -> int:
        return sum(1 for _ in self.controller.owned(self.name))

    # ------------------------------------------------------------------
    # Flooding fallback for unknowns and broadcast
    # ------------------------------------------------------------------
    def on_packet_in(self, event: PacketInEvent) -> None:
        packet = event.packet
        if packet.get(LLDP) is not None:
            return
        eth = packet.get(Ethernet)
        if eth is None:
            return
        arp = packet.get(ARP)
        if arp is not None and arp.is_request:
            # Leave answered requests to the ArpProxy (if present and
            # knowledgeable); only flood the unknown ones.
            if self._tracker.lookup_ip(arp.target_ip) is not None:
                return
        self._flood_on_tree(event)

    def _flood_on_tree(self, event: PacketInEvent) -> None:
        """Flood at the punting switch along spanning-tree + edge ports.

        Each switch that receives the flood and misses will punt and
        flood its own tree ports in turn, so the packet propagates hop
        by hop without ever looping.
        """
        dpid = event.switch.dpid
        ports = self._discovery.flood_ports(dpid) - {event.in_port}
        if not ports:
            return
        event.forward([Output(p) for p in sorted(ports)])
        self.packets_flooded += 1
