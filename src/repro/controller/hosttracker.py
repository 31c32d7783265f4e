"""Host location tracking.

The tracker watches packet-ins: any frame whose source MAC appears on an
*edge* port (one discovery has not claimed for a switch-to-switch link)
pins that host to (dpid, port).  ARP and IPv4 headers contribute the IP
binding.  Hosts that show up elsewhere trigger :class:`HostMoved` —
exactly the signal mobility-aware apps need.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.controller.core import App
from repro.controller.discovery import TopologyDiscovery
from repro.controller.events import HostDiscovered, HostMoved
from repro.errors import ControllerError
from repro.packet import ARP, IPv4, IPv4Address, LLDP, MACAddress, Ethernet

__all__ = ["HostTracker", "HostEntry"]


class HostEntry:
    """Everything known about one end host."""

    __slots__ = ("mac", "ip", "dpid", "port", "last_seen")

    def __init__(self, mac: MACAddress, ip: Optional[IPv4Address],
                 dpid: int, port: int, last_seen: float) -> None:
        self.mac = mac
        self.ip = ip
        self.dpid = dpid
        self.port = port
        self.last_seen = last_seen

    @property
    def location(self):
        return (self.dpid, self.port)

    def __repr__(self) -> str:
        return (
            f"<HostEntry {self.mac} ip={self.ip} "
            f"at {self.dpid}:{self.port}>"
        )


class HostTracker(App):
    """Learns host attachment points from dataplane packet-ins."""

    name = "hosttracker"

    def __init__(self) -> None:
        super().__init__()
        self._discovery: Optional[TopologyDiscovery] = None
        self.hosts_by_mac: Dict[MACAddress, HostEntry] = {}
        self.hosts_by_ip: Dict[IPv4Address, HostEntry] = {}
        #: MACs that must never be tracked as hosts (virtual addresses
        #: owned by apps, e.g. a load balancer's VIP MAC).
        self._excluded: set = set()

    def start(self, controller) -> None:
        super().start(controller)
        self._discovery = controller.get_app(TopologyDiscovery)

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def on_packet_in(self, event) -> None:
        packet = event.packet
        if packet.get(LLDP) is not None:
            return  # switch chatter, not a host
        eth = packet.get(Ethernet)
        if eth is None or eth.src.is_multicast or eth.src in self._excluded:
            return
        dpid, port = event.switch.dpid, event.in_port
        if (self._discovery is not None
                and not self._discovery.is_edge_port(dpid, port)):
            return  # frame relayed through the core; not an attachment
        ip: Optional[IPv4Address] = None
        arp = packet.get(ARP)
        if arp is not None and arp.sender_mac == eth.src:
            ip = arp.sender_ip
        else:
            ipv4 = packet.get(IPv4)
            if ipv4 is not None:
                ip = ipv4.src
        self._learn(eth.src, ip, dpid, port)

    def _learn(self, mac: MACAddress, ip: Optional[IPv4Address],
               dpid: int, port: int) -> None:
        now = self.sim.now
        entry = self.hosts_by_mac.get(mac)
        if entry is None:
            entry = HostEntry(mac, ip, dpid, port, now)
            self.hosts_by_mac[mac] = entry
            if ip is not None:
                self.hosts_by_ip[ip] = entry
            self.controller.publish(HostDiscovered(mac, ip, dpid, port))
            return
        entry.last_seen = now
        if ip is not None and entry.ip != ip:
            if entry.ip is not None:
                self.hosts_by_ip.pop(entry.ip, None)
            entry.ip = ip
            self.hosts_by_ip[ip] = entry
        if entry.location != (dpid, port):
            old_dpid, old_port = entry.location
            entry.dpid, entry.port = dpid, port
            self.controller.publish(HostMoved(
                mac, old_dpid, old_port, dpid, port
            ))

    def exclude_mac(self, mac) -> None:
        """Never track ``mac`` as a host (apps' virtual addresses).

        Any entry already learned for it is forgotten.
        """
        mac = MACAddress(mac)
        self._excluded.add(mac)
        entry = self.hosts_by_mac.pop(mac, None)
        if entry is not None and entry.ip is not None:
            self.hosts_by_ip.pop(entry.ip, None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def lookup_mac(self, mac) -> Optional[HostEntry]:
        return self.hosts_by_mac.get(MACAddress(mac))

    def lookup_ip(self, ip) -> Optional[HostEntry]:
        return self.hosts_by_ip.get(IPv4Address(ip))

    def require_ip(self, ip) -> HostEntry:
        entry = self.lookup_ip(ip)
        if entry is None:
            raise ControllerError(f"host with IP {ip} is unknown")
        return entry

    @property
    def host_count(self) -> int:
        return len(self.hosts_by_mac)
