"""Action primitives applied by the switch pipeline.

An action list rewrites and/or forwards a packet.  Actions are small value
objects; :func:`apply_actions` executes a list against a packet and returns
the set of (port, packet) emissions, leaving group/meter indirection to the
datapath.

Reserved output ports follow the OpenFlow convention: FLOOD replicates out
every up port except the ingress, CONTROLLER punts to the control channel,
IN_PORT hairpins, and ALL is FLOOD including the ingress port.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple, Union

from repro.errors import DataplaneError
from repro.packet import (
    IPv4,
    IPv4Address,
    MACAddress,
    Packet,
    TCP,
    UDP,
    VLAN,
    Ethernet,
    EtherType,
)

__all__ = [
    "Action",
    "Output",
    "SetEthSrc",
    "SetEthDst",
    "SetIPSrc",
    "SetIPDst",
    "SetL4Src",
    "SetL4Dst",
    "SetDSCP",
    "PushVLAN",
    "PopVLAN",
    "SetVLAN",
    "DecTTL",
    "Group",
    "Meter",
    "PORT_FLOOD",
    "PORT_CONTROLLER",
    "PORT_IN_PORT",
    "PORT_ALL",
    "PORT_TABLE",
    "apply_actions",
    "TTLExpired",
]

# Reserved port numbers (high values, clear of any physical port).
PORT_ALL = 0xFFFFFFFC
PORT_CONTROLLER = 0xFFFFFFFD
PORT_IN_PORT = 0xFFFFFFF8
PORT_FLOOD = 0xFFFFFFFB
#: Resubmit to the pipeline from table 0 (packet-out only) — OFPP_TABLE.
PORT_TABLE = 0xFFFFFFF9


class TTLExpired(Exception):
    """Raised by :class:`DecTTL` when a packet's TTL reaches zero.

    The datapath catches this and drops the packet (optionally punting a
    time-exceeded notification to the controller).
    """


class Action:
    """Base class for all actions; value semantics via ``fields()``."""

    def apply(self, packet: Packet) -> None:
        """Mutate ``packet`` in place.  Forwarding actions override nothing
        here — the executor special-cases them."""

    def fields(self) -> dict:
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.fields() == other.fields()

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(
            self.fields().items(), key=lambda kv: kv[0]
        ))))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.fields().items())
        return f"{type(self).__name__}({inner})"


class Output(Action):
    """Emit the packet on a port (physical or reserved)."""

    def __init__(self, port: int) -> None:
        if port < 0:
            raise DataplaneError(f"invalid output port {port}")
        self.port = port


class Group(Action):
    """Hand the packet to a group-table entry (ECMP, failover, multicast)."""

    def __init__(self, group_id: int) -> None:
        self.group_id = group_id


class Meter(Action):
    """Subject the packet to a meter band before further processing."""

    def __init__(self, meter_id: int) -> None:
        self.meter_id = meter_id


class SetEthSrc(Action):
    def __init__(self, mac: Union[str, MACAddress]) -> None:
        self.mac = MACAddress(mac)

    def apply(self, packet: Packet) -> None:
        eth = packet.get(Ethernet)
        if eth is None:
            raise DataplaneError("SetEthSrc on packet without Ethernet")
        eth.src = self.mac


class SetEthDst(Action):
    def __init__(self, mac: Union[str, MACAddress]) -> None:
        self.mac = MACAddress(mac)

    def apply(self, packet: Packet) -> None:
        eth = packet.get(Ethernet)
        if eth is None:
            raise DataplaneError("SetEthDst on packet without Ethernet")
        eth.dst = self.mac


class SetIPSrc(Action):
    def __init__(self, ip: Union[str, IPv4Address]) -> None:
        self.ip = IPv4Address(ip)

    def apply(self, packet: Packet) -> None:
        ip = packet.get(IPv4)
        if ip is None:
            raise DataplaneError("SetIPSrc on packet without IPv4")
        ip.src = self.ip


class SetIPDst(Action):
    def __init__(self, ip: Union[str, IPv4Address]) -> None:
        self.ip = IPv4Address(ip)

    def apply(self, packet: Packet) -> None:
        ip = packet.get(IPv4)
        if ip is None:
            raise DataplaneError("SetIPDst on packet without IPv4")
        ip.dst = self.ip


class SetDSCP(Action):
    def __init__(self, dscp: int) -> None:
        if not 0 <= dscp < 64:
            raise DataplaneError(f"DSCP out of range: {dscp}")
        self.dscp = dscp

    def apply(self, packet: Packet) -> None:
        ip = packet.get(IPv4)
        if ip is None:
            raise DataplaneError("SetDSCP on packet without IPv4")
        ip.dscp = self.dscp


class SetL4Src(Action):
    def __init__(self, port: int) -> None:
        if not 0 <= port < 65536:
            raise DataplaneError(f"L4 port out of range: {port}")
        self.port = port

    def apply(self, packet: Packet) -> None:
        l4 = packet.get(TCP) or packet.get(UDP)
        if l4 is None:
            raise DataplaneError("SetL4Src on packet without TCP/UDP")
        l4.src_port = self.port


class SetL4Dst(Action):
    def __init__(self, port: int) -> None:
        if not 0 <= port < 65536:
            raise DataplaneError(f"L4 port out of range: {port}")
        self.port = port

    def apply(self, packet: Packet) -> None:
        l4 = packet.get(TCP) or packet.get(UDP)
        if l4 is None:
            raise DataplaneError("SetL4Dst on packet without TCP/UDP")
        l4.dst_port = self.port


class PushVLAN(Action):
    """Insert an 802.1Q tag just after the Ethernet header."""

    def __init__(self, vid: int, pcp: int = 0) -> None:
        self.vid = vid
        self.pcp = pcp

    def apply(self, packet: Packet) -> None:
        eth = packet.get(Ethernet)
        if eth is None:
            raise DataplaneError("PushVLAN on packet without Ethernet")
        idx = packet.headers.index(eth)
        tag = VLAN(vid=self.vid, pcp=self.pcp, ethertype=eth.ethertype)
        eth.ethertype = EtherType.VLAN
        packet.headers.insert(idx + 1, tag)


class PopVLAN(Action):
    """Remove the outermost 802.1Q tag."""

    def apply(self, packet: Packet) -> None:
        vlan = packet.get(VLAN)
        if vlan is None:
            raise DataplaneError("PopVLAN on packet without a VLAN tag")
        eth = packet.get(Ethernet)
        if eth is not None:
            eth.ethertype = vlan.ethertype
        packet.headers.remove(vlan)


class SetVLAN(Action):
    """Rewrite the VID of an existing 802.1Q tag."""

    def __init__(self, vid: int) -> None:
        self.vid = vid

    def apply(self, packet: Packet) -> None:
        vlan = packet.get(VLAN)
        if vlan is None:
            raise DataplaneError("SetVLAN on packet without a VLAN tag")
        vlan.vid = self.vid


class DecTTL(Action):
    """Decrement the IPv4 TTL; raises :class:`TTLExpired` at zero."""

    def apply(self, packet: Packet) -> None:
        ip = packet.get(IPv4)
        if ip is None:
            raise DataplaneError("DecTTL on packet without IPv4")
        if not ip.decrement_ttl():
            raise TTLExpired()


def apply_actions(
    actions: Iterable[Action],
    packet: Packet,
    in_port: Optional[int] = None,
) -> Tuple[Packet, List[int], List[int], List[int]]:
    """Execute an action list against ``packet``, which is left as it is.

    Returns ``(rewritten_packet, out_ports, group_ids, meter_ids)``.
    Rewrites apply in list order and affect only the emissions that follow
    them in real OpenFlow; this executor applies the common controller
    idiom (all rewrites, then outputs).

    A received frame is shared with everyone else it was sent to, so the
    first rewriting action works on a copy; a list that only forwards
    hands back ``packet`` itself.

    The caller (the datapath) resolves reserved ports, groups, and meters.
    """
    working = packet
    out_ports: List[int] = []
    groups: List[int] = []
    meters: List[int] = []
    for action in actions:
        if isinstance(action, Output):
            out_ports.append(action.port)
        elif isinstance(action, Group):
            groups.append(action.group_id)
        elif isinstance(action, Meter):
            meters.append(action.meter_id)
        else:
            if working is packet:
                working = packet.copy()
            action.apply(working)
    return working, out_ports, groups, meters
