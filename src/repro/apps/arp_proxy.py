"""Controller-side ARP proxying.

Broadcast ARP requests are the enemy of clean SDN deployments: every one
floods the network.  The proxy answers requests straight from the host
tracker's knowledge, turning a network-wide broadcast into a single
packet-out.  Requests for unknown IPs are left unhandled so a flooding
app (router/learning switch) can still deliver them.
"""

from __future__ import annotations

from typing import Optional

from repro.controller.core import App
from repro.controller.discovery import TopologyDiscovery
from repro.controller.events import PacketInEvent
from repro.controller.hosttracker import HostTracker
from repro.dataplane.actions import Output
from repro.errors import ControllerError
from repro.packet import ARP, Ethernet, IPv4Address, Packet

__all__ = ["ArpProxy"]


class ArpProxy(App):
    """Answers ARP requests for hosts the tracker already knows."""

    name = "arp-proxy"

    def __init__(self) -> None:
        super().__init__()
        self._tracker: Optional[HostTracker] = None
        self._discovery: Optional[TopologyDiscovery] = None
        self.replies_sent = 0
        self.misses = 0

    def start(self, controller) -> None:
        super().start(controller)
        self._tracker = controller.get_app(HostTracker)
        if self._tracker is None:
            raise ControllerError("ArpProxy needs a HostTracker app")
        self._discovery = controller.get_app(TopologyDiscovery)

    def knows(self, ip: IPv4Address) -> bool:
        return self._tracker.lookup_ip(ip) is not None

    def on_packet_in(self, event: PacketInEvent) -> None:
        arp = event.packet.get(ARP)
        if arp is None or not arp.is_request:
            return
        # Only answer where the requester is directly attached.  A copy
        # of the broadcast punted at a core switch must NOT be answered
        # there: the reply (src = target's MAC) would travel backwards
        # along the flood path and poison MAC learning en route.
        if (self._discovery is not None
                and not self._discovery.is_edge_port(
                    event.switch.dpid, event.in_port)):
            return
        target = self._tracker.lookup_ip(arp.target_ip)
        if target is None:
            self.misses += 1
            return
        reply = (
            Ethernet(dst=arp.sender_mac, src=target.mac)
            / ARP(
                opcode=ARP.REPLY,
                sender_mac=target.mac,
                sender_ip=arp.target_ip,
                target_mac=arp.sender_mac,
                target_ip=arp.sender_ip,
            )
        )
        # Emit the reply directly at the asking host's attachment point.
        event.switch.packet_out(reply, [Output(event.in_port)])
        self.replies_sent += 1
