"""An L4 virtual-IP load balancer (Ananta-style, controller-driven).

Clients talk to a VIP that no real host owns.  The balancer answers ARP
for the VIP with a virtual MAC, picks a backend for each new connection
(round-robin or 5-tuple hash), and installs two rewrite rules:

* at the client's ingress switch: ``dst VIP → dst backend`` then goto the
  forwarding table,
* at the backend's edge switch: ``src backend → src VIP`` for the return
  direction, so clients only ever see the VIP.

Connection rules carry an idle timeout, so the per-connection state is
self-cleaning — the same design trade-off real L4 balancers make.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.controller.core import App, SwitchHandle
from repro.controller.discovery import TopologyDiscovery
from repro.controller.events import PacketInEvent
from repro.controller.hosttracker import HostTracker
from repro.dataplane.actions import (
    Output,
    PORT_TABLE,
    SetEthDst,
    SetEthSrc,
    SetIPDst,
    SetIPSrc,
)
from repro.dataplane.match import Match
from repro.errors import ControllerError
from repro.packet import (
    ARP,
    Ethernet,
    EtherType,
    IPv4,
    IPv4Address,
    MACAddress,
    TCP,
    UDP,
)

__all__ = ["LoadBalancer"]

#: Priority for per-connection rewrite rules.
CONNECTION_PRIORITY = 20000


class LoadBalancer(App):
    """VIP load balancing across a backend pool."""

    name = "load-balancer"

    def __init__(
        self,
        vip: Union[str, IPv4Address],
        backends: List[Union[str, IPv4Address]],
        vmac: Union[str, MACAddress] = "02:ff:00:00:00:01",
        mode: str = "round_robin",
        table_id: int = 0,
        next_table: int = 1,
        idle_timeout: float = 10.0,
        host_tracker: Optional[HostTracker] = None,
        discovery: Optional[TopologyDiscovery] = None,
    ) -> None:
        if mode not in ("round_robin", "hash"):
            raise ControllerError(f"unknown balancing mode {mode!r}")
        if not backends:
            raise ControllerError("backend pool must not be empty")
        super().__init__()
        self.vip = IPv4Address(vip)
        self.vmac = MACAddress(vmac)
        self.backends = [IPv4Address(b) for b in backends]
        self.mode = mode
        self.table_id = table_id
        self.next_table = next_table
        self.idle_timeout = idle_timeout
        self._tracker = host_tracker
        self._discovery = discovery
        self._rr_index = 0
        #: backend ip -> connections assigned (benchmark E6 reads this).
        self.assignments: Dict[IPv4Address, int] = {
            b: 0 for b in self.backends
        }
        self.arp_replies = 0
        self.connections = 0

    def start(self, controller) -> None:
        super().start(controller)
        if self._tracker is None:
            self._tracker = controller.get_app(HostTracker)
        if self._tracker is None:
            raise ControllerError("LoadBalancer needs a HostTracker app")
        # The virtual MAC must never be mistaken for a host, or routing
        # apps will install blackhole rules toward wherever a rewritten
        # packet was last punted.
        self._tracker.exclude_mac(self.vmac)
        if self._discovery is None:
            self._discovery = controller.get_app(TopologyDiscovery)

    def on_switch_enter(self, switch: SwitchHandle) -> None:
        # Traffic not aimed at the VIP just continues to forwarding.
        switch.add_flow(Match(), [], priority=0, table_id=self.table_id,
                        goto_table=self.next_table)

    # ------------------------------------------------------------------
    # Packet handling
    # ------------------------------------------------------------------
    def on_packet_in(self, event: PacketInEvent) -> None:
        # Act only at the client's ingress edge.  Flooded copies of the
        # same packet punt at interior switches too; opening connections
        # there would double-count assignments and install stray rules.
        if (self._discovery is not None
                and not self._discovery.is_edge_port(
                    event.switch.dpid, event.in_port)):
            return
        arp = event.packet.get(ARP)
        if arp is not None:
            if arp.is_request and arp.target_ip == self.vip:
                self._answer_vip_arp(event, arp)
            return
        ip = event.packet.get(IPv4)
        if ip is None or ip.dst != self.vip:
            return
        self._open_connection(event, ip)

    def _answer_vip_arp(self, event: PacketInEvent, arp: ARP) -> None:
        reply = (
            Ethernet(dst=arp.sender_mac, src=self.vmac)
            / ARP(
                opcode=ARP.REPLY,
                sender_mac=self.vmac,
                sender_ip=self.vip,
                target_mac=arp.sender_mac,
                target_ip=arp.sender_ip,
            )
        )
        event.switch.packet_out(reply, [Output(event.in_port)])
        self.arp_replies += 1

    # ------------------------------------------------------------------
    # Connection setup
    # ------------------------------------------------------------------
    def _client_port(self, packet) -> Optional[int]:
        l4 = packet.get(TCP) or packet.get(UDP)
        return None if l4 is None else l4.src_port

    def _pick_backend(self, ip: IPv4, client_port: int):
        """A healthy backend's host entry, or ``None`` if none is known."""
        healthy = [
            b for b in self.backends
            if self._tracker.lookup_ip(b) is not None
        ]
        if not healthy:
            return None
        if self.mode == "hash":
            # The address's integer value, not the object: an address
            # hashes a ``str`` tag, which is salted per process.
            choice = healthy[
                hash((ip.src.value, client_port, ip.proto)) % len(healthy)
            ]
        else:
            choice = healthy[self._rr_index % len(healthy)]
            self._rr_index += 1
        return self._tracker.lookup_ip(choice)

    def _open_connection(self, event: PacketInEvent, ip: IPv4) -> None:
        client_port = self._client_port(event.packet)
        if client_port is None:
            return  # only TCP/UDP is balanced
        backend = self._pick_backend(ip, client_port)
        if backend is None or backend.ip is None:
            return  # no live backends; the packet is dropped
        self.connections += 1
        self.assignments[backend.ip] = (
            self.assignments.get(backend.ip, 0) + 1
        )
        forward_match = Match(
            eth_type=EtherType.IPV4,
            ip_src=ip.src,
            ip_dst=self.vip,
            ip_proto=ip.proto,
            l4_src=client_port,
        )
        forward_actions = [SetEthDst(backend.mac), SetIPDst(backend.ip)]
        event.switch.add_flow(
            forward_match, forward_actions,
            priority=CONNECTION_PRIORITY,
            table_id=self.table_id,
            idle_timeout=self.idle_timeout,
            goto_table=self.next_table,
        )
        # Return-path rewrite at the backend's edge switch.
        backend_switch = self.controller.switches.get(backend.dpid)
        if backend_switch is not None:
            reverse_match = Match(
                eth_type=EtherType.IPV4,
                ip_src=backend.ip,
                ip_dst=ip.src,
                ip_proto=ip.proto,
                l4_dst=client_port,
            )
            backend_switch.add_flow(
                reverse_match,
                [SetIPSrc(self.vip), SetEthSrc(self.vmac)],
                priority=CONNECTION_PRIORITY,
                table_id=self.table_id,
                idle_timeout=self.idle_timeout,
                goto_table=self.next_table,
            )
        # Re-run the triggering packet through the (now programmed)
        # pipeline so it reaches the backend without waiting for a
        # retransmission.
        event.forward(forward_actions + [Output(PORT_TABLE)])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def distribution(self) -> Dict[str, int]:
        """Backend → assigned connection count, keyed by dotted quad."""
        return {str(ip): n for ip, n in self.assignments.items()}

    def imbalance(self) -> float:
        """max/mean assignment ratio; 1.0 is perfectly balanced."""
        counts = list(self.assignments.values())
        total = sum(counts)
        if not total:
            return 1.0
        mean = total / len(counts)
        return max(counts) / mean if mean else 1.0
