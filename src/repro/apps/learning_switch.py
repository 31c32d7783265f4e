"""The classic reactive L2 learning switch.

For every punted frame the app learns (switch, src MAC) → in_port.  When
the destination is already known it installs a flow so subsequent packets
stay in the dataplane; unknown destinations and broadcasts are flooded
along the discovery's spanning tree
(:meth:`~repro.controller.discovery.TopologyDiscovery.flood_ports`), so a
fabric with a cycle does not storm.  (A :class:`~repro.apps.hub.HubApp`
floods with ``PORT_FLOOD``: it has no topology to read.)

Two rule granularities are supported because their table-occupancy
behaviour differs by orders of magnitude (benchmark E2):

* ``exact_match=False`` (default): one rule per (dst MAC) — O(hosts).
* ``exact_match=True``: one microflow rule per flow key — O(flows),
  the shape Ethane-style per-flow admission produces.
"""

from __future__ import annotations

from typing import Dict

from repro.controller.core import App, SwitchHandle
from repro.controller.discovery import TopologyDiscovery
from repro.controller.events import PacketInEvent, PortStatusEvent
from repro.dataplane.actions import Output
from repro.dataplane.match import FlowKey, Match
from repro.errors import ControllerError
from repro.packet import Ethernet, LLDP, MACAddress

__all__ = ["LearningSwitch"]


class LearningSwitch(App):
    """Reactive MAC learning with flow installation."""

    name = "learning-switch"

    def __init__(
        self,
        exact_match: bool = False,
        idle_timeout: float = 10.0,
        hard_timeout: float = 0.0,
        priority: int = 100,
        table_id: int = 0,
    ) -> None:
        super().__init__()
        self.exact_match = exact_match
        self.idle_timeout = idle_timeout
        self.hard_timeout = hard_timeout
        self.priority = priority
        self.table_id = table_id
        #: dpid -> {mac -> port}
        self.mac_tables: Dict[int, Dict[MACAddress, int]] = {}
        self.flows_installed = 0
        self.packets_flooded = 0

    def start(self, controller) -> None:
        super().start(controller)
        self._discovery = controller.get_app(TopologyDiscovery)
        if self._discovery is None:
            raise ControllerError("LearningSwitch needs TopologyDiscovery")

    def on_switch_enter(self, switch: SwitchHandle) -> None:
        self.mac_tables.setdefault(switch.dpid, {})

    def on_switch_leave(self, dpid: int) -> None:
        self.mac_tables.pop(dpid, None)

    def on_port_status(self, event: PortStatusEvent) -> None:
        if event.up:
            return
        # Unlearn everything behind a dead port so traffic refloods.
        table = self.mac_tables.get(event.switch.dpid)
        if not table:
            return
        dead = [mac for mac, port in table.items()
                if port == event.port_no]
        for mac in dead:
            del table[mac]

    def on_packet_in(self, event: PacketInEvent) -> None:
        packet = event.packet
        if packet.get(LLDP) is not None:
            return
        eth = packet.get(Ethernet)
        if eth is None:
            return
        dpid = event.switch.dpid
        table = self.mac_tables.setdefault(dpid, {})
        if not eth.src.is_multicast:
            table[eth.src] = event.in_port
        out_port = table.get(eth.dst)
        if out_port is None or eth.dst.is_multicast:
            ports = self._discovery.flood_ports(dpid) - {event.in_port}
            if ports:
                event.forward([Output(p) for p in sorted(ports)])
                self.packets_flooded += 1
            return
        match = self._build_match(packet, event.in_port, eth)
        event.switch.add_flow(
            match,
            [Output(out_port)],
            priority=self.priority,
            table_id=self.table_id,
            idle_timeout=self.idle_timeout,
            hard_timeout=self.hard_timeout,
        )
        self.flows_installed += 1
        # Forward the triggering packet itself.
        event.forward([Output(out_port)])

    def _build_match(self, packet, in_port: int, eth: Ethernet) -> Match:
        if self.exact_match:
            return Match.exact(FlowKey.from_packet(packet, in_port))
        return Match(eth_dst=eth.dst)

    def lookup(self, dpid: int, mac) -> int:
        """Test helper: the learned port for ``mac`` on ``dpid`` (-1 if
        unknown)."""
        return self.mac_tables.get(dpid, {}).get(MACAddress(mac), -1)
