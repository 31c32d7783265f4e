"""Controller-side event types published on the event bus.

Apps subscribe to these; the controller core and the built-in services
(discovery, host tracker) publish them.  Events are plain
value objects so they can be logged, asserted on in tests, and
replayed; the one verb is :meth:`PacketInEvent.forward`, the answer to
a punt.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.packet import IPv4Address, MACAddress, Packet
from repro.southbound.messages import NO_BUFFER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.controller.core import SwitchHandle

__all__ = [
    "Event",
    "SwitchEnter",
    "SwitchLeave",
    "ResyncDone",
    "PacketInEvent",
    "FlowRemovedEvent",
    "PortStatusEvent",
    "ErrorEvent",
    "LinkDiscovered",
    "LinkVanished",
    "HostDiscovered",
    "HostMoved",
]


class Event:
    """Base class; exists so the bus can type-check subscriptions."""

    def fields(self) -> dict:
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.fields().items())
        return f"{type(self).__name__}({inner})"


class SwitchEnter(Event):
    """A switch completed the handshake and is ready to be programmed."""

    def __init__(self, switch: "SwitchHandle") -> None:
        self.switch = switch


class SwitchLeave(Event):
    """A switch's control channel went down."""

    def __init__(self, dpid: int) -> None:
        self.dpid = dpid


class ResyncDone(Event):
    """A reconnect reconciliation finished for one switch.

    Published after the controller has reinstalled every intended flow
    missing from the switch and strict-deleted the unintended ones —
    the moment the dataplane is supposed to be consistent again, which
    makes it a natural trigger for invariant re-checking.
    """

    def __init__(self, switch: "SwitchHandle", reinstalled: int,
                 deleted: int) -> None:
        self.switch = switch
        self.reinstalled = reinstalled
        self.deleted = deleted


class PacketInEvent(Event):
    """A punted packet, already decoded for the apps' convenience.

    ``buffer_id`` names the switch-side slot still holding the frame
    (``NO_BUFFER`` when the switch kept none).
    """

    def __init__(self, switch: "SwitchHandle", in_port: int,
                 packet: Packet, reason: str,
                 buffer_id: int = NO_BUFFER) -> None:
        self.switch = switch
        self.in_port = in_port
        self.packet = packet
        self.reason = reason
        self.buffer_id = buffer_id

    def forward(self, actions: list) -> None:
        """Send the frame that caused this event through ``actions``.

        The switch runs them on the frame it parked, so the bytes do not
        cross the channel again; for a rewritten or new frame call
        ``switch.packet_out`` instead.  A buffer answers one packet-out:
        when several apps forward the same event, the later ones send
        the bytes.
        """
        buffer_id, self.buffer_id = self.buffer_id, NO_BUFFER
        self.switch.packet_out(self.packet, actions, in_port=self.in_port,
                               buffer_id=buffer_id)


class FlowRemovedEvent(Event):
    def __init__(self, switch: "SwitchHandle", table_id: int, match,
                 priority: int, cookie: int, reason: str,
                 duration: float, packet_count: int,
                 byte_count: int) -> None:
        self.switch = switch
        self.table_id = table_id
        self.match = match
        self.priority = priority
        self.cookie = cookie
        self.reason = reason
        self.duration = duration
        self.packet_count = packet_count
        self.byte_count = byte_count


class PortStatusEvent(Event):
    def __init__(self, switch: "SwitchHandle", port_no: int,
                 up: bool) -> None:
        self.switch = switch
        self.port_no = port_no
        self.up = up


class ErrorEvent(Event):
    def __init__(self, switch: "SwitchHandle", code: int,
                 detail: str) -> None:
        self.switch = switch
        self.code = code
        self.detail = detail


class LinkDiscovered(Event):
    """Discovery confirmed a unidirectional switch-to-switch link."""

    def __init__(self, src_dpid: int, src_port: int, dst_dpid: int,
                 dst_port: int) -> None:
        self.src_dpid = src_dpid
        self.src_port = src_port
        self.dst_dpid = dst_dpid
        self.dst_port = dst_port


class LinkVanished(Event):
    """A previously discovered link is gone (port down or LLDP aged out)."""

    def __init__(self, src_dpid: int, src_port: int, dst_dpid: int,
                 dst_port: int) -> None:
        self.src_dpid = src_dpid
        self.src_port = src_port
        self.dst_dpid = dst_dpid
        self.dst_port = dst_port


class HostDiscovered(Event):
    """The host tracker located an end host at an edge port."""

    def __init__(self, mac: MACAddress, ip: Optional[IPv4Address],
                 dpid: int, port: int) -> None:
        self.mac = mac
        self.ip = ip
        self.dpid = dpid
        self.port = port


class HostMoved(Event):
    """A known host reappeared at a different attachment point."""

    def __init__(self, mac: MACAddress, old_dpid: int, old_port: int,
                 dpid: int, port: int) -> None:
        self.mac = mac
        self.old_dpid = old_dpid
        self.old_port = old_port
        self.dpid = dpid
        self.port = port

