"""The ZOF message set — the southbound wire protocol.

ZOF ("Zen OpenFlow") is structurally isomorphic to OpenFlow 1.3's message
set: the same handshake, the same asynchronous event messages, the same
programming verbs.  Every message encodes to a byte-exact frame::

    version(1) | type(1) | length(4) | xid(4) | body(...)

so the control channel genuinely serialises and reparses traffic, and the
overhead numbers in benchmark E9 measure real bytes.
"""

from __future__ import annotations

import struct
from typing import ClassVar, Dict, List, Optional, Tuple, Type

from repro.dataplane.actions import Action
from repro.dataplane.group import Bucket, GroupEntry, GroupType
from repro.dataplane.match import Match
from repro.errors import ProtocolError
from repro.southbound.codec import (
    decode_actions,
    decode_match,
    encode_actions,
    encode_match,
)

__all__ = [
    "ZOF_VERSION",
    "NO_BUFFER",
    "Message",
    "Hello",
    "Error",
    "EchoRequest",
    "EchoReply",
    "FeaturesRequest",
    "FeaturesReply",
    "PortDesc",
    "PacketIn",
    "PacketOut",
    "FlowMod",
    "FlowModCommand",
    "FlowRemoved",
    "PortStatus",
    "GroupMod",
    "MeterMod",
    "ModCommand",
    "StatsRequest",
    "StatsReply",
    "StatsKind",
    "FlowStatsEntry",
    "BarrierRequest",
    "BarrierReply",
    "RoleRequest",
    "RoleReply",
    "REPLY_TYPES",
    "ControllerRole",
    "encode_message",
    "decode_message",
]

#: 2: PACKET_IN and PACKET_OUT carry a ``buffer_id`` (PROTOCOL.md §4.4, §5).
ZOF_VERSION = 2

#: ``buffer_id`` of a frame the switch did not park: the message carries
#: the frame's bytes instead.
NO_BUFFER = 0xFFFFFFFF

_HEADER = struct.Struct("!BBII")

_MESSAGE_TYPES: Dict[int, Type["Message"]] = {}


def _register(msg_type: int):
    def decorate(cls: Type["Message"]) -> Type["Message"]:
        cls.TYPE = msg_type
        if msg_type in _MESSAGE_TYPES:
            raise ProtocolError(f"duplicate message type {msg_type}")
        _MESSAGE_TYPES[msg_type] = cls
        return cls

    return decorate


class Message:
    """Base class for all ZOF messages.

    ``xid`` correlates requests and replies; the channel assigns one
    automatically when the sender leaves it as 0.
    """

    TYPE: ClassVar[int] = -1
    xid: int = 0

    def encode_body(self) -> bytes:
        return b""

    @classmethod
    def decode_body(cls, body: bytes) -> "Message":
        if body:
            raise ProtocolError(
                f"{cls.__name__} expects an empty body, got {len(body)}B"
            )
        return cls()

    def fields(self) -> dict:
        return {
            k: v for k, v in vars(self).items() if not k.startswith("_")
        }

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        ours, theirs = dict(self.fields()), dict(other.fields())
        ours.pop("xid", None)
        theirs.pop("xid", None)
        return ours == theirs

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{k}={v!r}" for k, v in self.fields().items() if k != "xid"
        )
        return f"{type(self).__name__}({inner})"


def encode_message(msg: Message) -> bytes:
    body = msg.encode_body()
    return _HEADER.pack(
        ZOF_VERSION, msg.TYPE, _HEADER.size + len(body), msg.xid
    ) + body


def decode_message(data: bytes) -> Message:
    if len(data) < _HEADER.size:
        raise ProtocolError("ZOF frame shorter than header")
    version, msg_type, length, xid = _HEADER.unpack_from(data)
    if version != ZOF_VERSION:
        raise ProtocolError(f"unsupported ZOF version {version}")
    if length != len(data):
        raise ProtocolError(
            f"ZOF length field {length} != frame size {len(data)}"
        )
    cls = _MESSAGE_TYPES.get(msg_type)
    if cls is None:
        raise ProtocolError(f"unknown ZOF message type {msg_type}")
    try:
        msg = cls.decode_body(data[_HEADER.size:])
    except ProtocolError:
        raise
    except Exception as exc:  # struct errors, index errors, bad enums
        raise ProtocolError(
            f"malformed {cls.__name__} body: {exc}"
        ) from exc
    msg.xid = xid
    return msg


# ----------------------------------------------------------------------
# Connection setup and keepalive
# ----------------------------------------------------------------------
@_register(0)
class Hello(Message):
    """First message in each direction; carries the sender's version."""

    def __init__(self, version: int = ZOF_VERSION) -> None:
        self.version = version

    def encode_body(self) -> bytes:
        return bytes([self.version])

    @classmethod
    def decode_body(cls, body: bytes) -> "Hello":
        if len(body) != 1:
            raise ProtocolError("Hello body must be 1 byte")
        return cls(body[0])


@_register(1)
class Error(Message):
    """Reports a protocol or programming failure to the peer."""

    BAD_REQUEST = 1
    BAD_MATCH = 2
    BAD_ACTION = 3
    TABLE_FULL = 4
    BAD_GROUP = 5
    BAD_METER = 6
    BAD_ROLE = 7
    #: A packet-out named a buffer the switch does not hold (consumed,
    #: expired, or wiped by a restart).
    BUFFER_UNKNOWN = 10
    # Synthetic codes: never sent on the wire, only fabricated locally
    # by ChannelEndpoint to fail a pending request (see channel.py).
    CHANNEL_DOWN = 8
    TIMEOUT = 9

    def __init__(self, code: int = BAD_REQUEST, detail: str = "") -> None:
        self.code = code
        self.detail = detail

    def encode_body(self) -> bytes:
        raw = self.detail.encode()
        return struct.pack("!H", self.code) + raw

    @classmethod
    def decode_body(cls, body: bytes) -> "Error":
        if len(body) < 2:
            raise ProtocolError("Error body truncated")
        (code,) = struct.unpack_from("!H", body)
        return cls(code, body[2:].decode())


@_register(2)
class EchoRequest(Message):
    def __init__(self, data: bytes = b"") -> None:
        self.data = bytes(data)

    def encode_body(self) -> bytes:
        return self.data

    @classmethod
    def decode_body(cls, body: bytes) -> "EchoRequest":
        return cls(body)


@_register(3)
class EchoReply(Message):
    def __init__(self, data: bytes = b"") -> None:
        self.data = bytes(data)

    def encode_body(self) -> bytes:
        return self.data

    @classmethod
    def decode_body(cls, body: bytes) -> "EchoReply":
        return cls(body)


# ----------------------------------------------------------------------
# Feature discovery
# ----------------------------------------------------------------------
class PortDesc:
    """Port metadata carried in FeaturesReply and PortStatus."""

    __slots__ = ("number", "mac_bytes", "up")

    def __init__(self, number: int, mac_bytes: bytes, up: bool) -> None:
        self.number = number
        self.mac_bytes = mac_bytes
        self.up = up

    def encode(self) -> bytes:
        return struct.pack("!I6sB", self.number, self.mac_bytes, int(self.up))

    @classmethod
    def decode(cls, data: bytes) -> Tuple["PortDesc", int]:
        number, mac, up = struct.unpack_from("!I6sB", data)
        return cls(number, mac, bool(up)), 11

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PortDesc):
            return NotImplemented
        return (self.number, self.mac_bytes, self.up) == (
            other.number, other.mac_bytes, other.up
        )

    def __repr__(self) -> str:
        return f"PortDesc({self.number}, up={self.up})"


@_register(5)
class FeaturesRequest(Message):
    pass


@_register(6)
class FeaturesReply(Message):
    def __init__(self, dpid: int = 0, num_tables: int = 0,
                 ports: Optional[List[PortDesc]] = None) -> None:
        self.dpid = dpid
        self.num_tables = num_tables
        self.ports = list(ports or [])

    def encode_body(self) -> bytes:
        body = struct.pack("!QBH", self.dpid, self.num_tables,
                           len(self.ports))
        return body + b"".join(p.encode() for p in self.ports)

    @classmethod
    def decode_body(cls, body: bytes) -> "FeaturesReply":
        dpid, num_tables, num_ports = struct.unpack_from("!QBH", body)
        offset = 11
        ports = []
        for _ in range(num_ports):
            desc, used = PortDesc.decode(body[offset:])
            ports.append(desc)
            offset += used
        return cls(dpid, num_tables, ports)


# ----------------------------------------------------------------------
# Asynchronous dataplane events
# ----------------------------------------------------------------------
_REASONS = ("no_match", "action", "ttl_expired", "up", "down",
            "idle_timeout", "hard_timeout", "delete", "eviction")


def _reason_code(reason: str) -> int:
    try:
        return _REASONS.index(reason)
    except ValueError:
        raise ProtocolError(f"unknown reason string {reason!r}") from None


def _reason_str(code: int) -> str:
    if not 0 <= code < len(_REASONS):
        raise ProtocolError(f"unknown reason code {code}")
    return _REASONS[code]


@_register(10)
class PacketIn(Message):
    """A punted packet: the reactive control plane's bread and butter.

    ``buffer_id`` names the switch-side slot holding the frame (a
    packet-out may answer with the id instead of the bytes), or
    :data:`NO_BUFFER` when the switch kept no copy.
    """

    _HEAD = struct.Struct("!IBI")

    def __init__(self, in_port: int = 0, reason: str = "no_match",
                 data: bytes = b"", buffer_id: int = NO_BUFFER) -> None:
        self.in_port = in_port
        self.reason = reason
        self.data = bytes(data)
        self.buffer_id = buffer_id

    def encode_body(self) -> bytes:
        return self._HEAD.pack(self.in_port, _reason_code(self.reason),
                               self.buffer_id) + self.data

    @classmethod
    def decode_body(cls, body: bytes) -> "PacketIn":
        if len(body) < cls._HEAD.size:
            raise ProtocolError("PacketIn body truncated")
        in_port, reason, buffer_id = cls._HEAD.unpack_from(body)
        return cls(in_port, _reason_str(reason), body[cls._HEAD.size:],
                   buffer_id)


@_register(11)
class FlowRemoved(Message):
    """Emitted when a flow with SEND_FLOW_REM leaves the table."""

    def __init__(self, table_id: int = 0, match: Optional[Match] = None,
                 priority: int = 0, cookie: int = 0,
                 reason: str = "idle_timeout", duration: float = 0.0,
                 packet_count: int = 0, byte_count: int = 0) -> None:
        self.table_id = table_id
        self.match = match if match is not None else Match()
        self.priority = priority
        self.cookie = cookie
        self.reason = reason
        self.duration = duration
        self.packet_count = packet_count
        self.byte_count = byte_count

    _HEAD = struct.Struct("!BHQBdQQ")

    def encode_body(self) -> bytes:
        head = self._HEAD.pack(
            self.table_id, self.priority, self.cookie,
            _reason_code(self.reason), self.duration,
            self.packet_count, self.byte_count,
        )
        return head + encode_match(self.match)

    @classmethod
    def decode_body(cls, body: bytes) -> "FlowRemoved":
        (table_id, priority, cookie, reason, duration,
         packets, nbytes) = cls._HEAD.unpack_from(body)
        match, _ = decode_match(body, cls._HEAD.size)
        return cls(table_id, match, priority, cookie, _reason_str(reason),
                   duration, packets, nbytes)


@_register(12)
class PortStatus(Message):
    def __init__(self, reason: str = "down",
                 port: Optional[PortDesc] = None) -> None:
        self.reason = reason
        self.port = port if port is not None else PortDesc(0, b"\0" * 6, False)

    def encode_body(self) -> bytes:
        return bytes([_reason_code(self.reason)]) + self.port.encode()

    @classmethod
    def decode_body(cls, body: bytes) -> "PortStatus":
        if len(body) < 12:
            raise ProtocolError("PortStatus body truncated")
        port, _ = PortDesc.decode(body[1:])
        return cls(_reason_str(body[0]), port)


# ----------------------------------------------------------------------
# Programming verbs
# ----------------------------------------------------------------------
@_register(13)
class PacketOut(Message):
    """A frame executed against an action list: either the bytes in
    ``data``, or the frame the switch parked under ``buffer_id`` (then
    ``data`` is empty)."""

    _HEAD = struct.Struct("!II")

    def __init__(self, in_port: int = 0,
                 actions: Optional[List[Action]] = None,
                 data: bytes = b"", buffer_id: int = NO_BUFFER) -> None:
        self.in_port = in_port
        self.actions = list(actions or [])
        self.data = bytes(data)
        self.buffer_id = buffer_id

    def encode_body(self) -> bytes:
        return (self._HEAD.pack(self.in_port, self.buffer_id)
                + encode_actions(self.actions) + self.data)

    @classmethod
    def decode_body(cls, body: bytes) -> "PacketOut":
        head = cls._HEAD.size
        if len(body) < head:
            raise ProtocolError("PacketOut body truncated")
        in_port, buffer_id = cls._HEAD.unpack_from(body)
        actions, used = decode_actions(body, head)
        return cls(in_port, actions, body[head + used:], buffer_id)


class FlowModCommand:
    ADD = 0
    MODIFY = 1
    DELETE = 2
    DELETE_STRICT = 3


@_register(14)
class FlowMod(Message):
    """Install, modify, or remove flow entries."""

    #: Flag: ask for a FlowRemoved when this entry leaves the table.
    SEND_FLOW_REM = 0x01

    def __init__(
        self,
        command: int = FlowModCommand.ADD,
        table_id: int = 0,
        match: Optional[Match] = None,
        priority: int = 0,
        actions: Optional[List[Action]] = None,
        idle_timeout: float = 0.0,
        hard_timeout: float = 0.0,
        cookie: int = 0,
        goto_table: Optional[int] = None,
        flags: int = 0,
    ) -> None:
        self.command = command
        self.table_id = table_id
        self.match = match if match is not None else Match()
        self.priority = priority
        self.actions = list(actions or [])
        self.idle_timeout = idle_timeout
        self.hard_timeout = hard_timeout
        self.cookie = cookie
        self.goto_table = goto_table
        self.flags = flags

    _HEAD = struct.Struct("!BBHddQBB")

    def encode_body(self) -> bytes:
        goto = 0xFF if self.goto_table is None else self.goto_table
        head = self._HEAD.pack(
            self.command, self.table_id, self.priority,
            self.idle_timeout, self.hard_timeout, self.cookie, goto,
            self.flags,
        )
        return head + encode_match(self.match) + encode_actions(self.actions)

    @classmethod
    def decode_body(cls, body: bytes) -> "FlowMod":
        (command, table_id, priority, idle, hard,
         cookie, goto, flags) = cls._HEAD.unpack_from(body)
        offset = cls._HEAD.size
        match, used = decode_match(body, offset)
        offset += used
        actions, _ = decode_actions(body, offset)
        return cls(
            command, table_id, match, priority, actions, idle, hard,
            cookie, None if goto == 0xFF else goto, flags,
        )


class ModCommand:
    """Shared add/modify/delete verb for group and meter mods."""

    ADD = 0
    MODIFY = 1
    DELETE = 2


_GROUP_TYPES = (GroupType.ALL, GroupType.SELECT, GroupType.INDIRECT,
                GroupType.FAST_FAILOVER)


@_register(15)
class GroupMod(Message):
    def __init__(self, command: int = ModCommand.ADD, group_id: int = 0,
                 group_type: str = GroupType.ALL,
                 buckets: Optional[List[Bucket]] = None) -> None:
        self.command = command
        self.group_id = group_id
        self.group_type = group_type
        self.buckets = list(buckets or [])

    def encode_body(self) -> bytes:
        body = struct.pack(
            "!BIBH", self.command, self.group_id,
            _GROUP_TYPES.index(self.group_type), len(self.buckets),
        )
        for bucket in self.buckets:
            watch = 0xFFFFFFFF if bucket.watch_port is None else bucket.watch_port
            body += struct.pack("!IH", watch, bucket.weight)
            body += encode_actions(bucket.actions)
        return body

    @classmethod
    def decode_body(cls, body: bytes) -> "GroupMod":
        fmt = struct.Struct("!BIBH")
        command, group_id, type_code, count = fmt.unpack_from(body)
        if type_code >= len(_GROUP_TYPES):
            raise ProtocolError(f"unknown group type code {type_code}")
        offset = fmt.size
        buckets = []
        for _ in range(count):
            watch, weight = struct.unpack_from("!IH", body, offset)
            offset += 6
            actions, used = decode_actions(body[offset:])
            offset += used
            buckets.append(Bucket(
                actions,
                watch_port=None if watch == 0xFFFFFFFF else watch,
                weight=weight,
            ))
        return cls(command, group_id, _GROUP_TYPES[type_code], buckets)

    def to_entry(self) -> GroupEntry:
        return GroupEntry(self.group_id, self.group_type, self.buckets)


@_register(16)
class MeterMod(Message):
    def __init__(self, command: int = ModCommand.ADD, meter_id: int = 0,
                 rate_bps: float = 0.0, burst_bytes: int = 0) -> None:
        self.command = command
        self.meter_id = meter_id
        self.rate_bps = rate_bps
        self.burst_bytes = burst_bytes

    def encode_body(self) -> bytes:
        return struct.pack("!BIdI", self.command, self.meter_id,
                           self.rate_bps, self.burst_bytes)

    @classmethod
    def decode_body(cls, body: bytes) -> "MeterMod":
        command, meter_id, rate, burst = struct.unpack_from("!BIdI", body)
        return cls(command, meter_id, rate, burst)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
class StatsKind:
    FLOW = 0
    PORT = 1
    TABLE = 2
    AGGREGATE = 3


@_register(18)
class StatsRequest(Message):
    def __init__(self, kind: int = StatsKind.PORT, table_id: int = 0xFF) -> None:
        self.kind = kind
        self.table_id = table_id  # 0xFF: all tables

    def encode_body(self) -> bytes:
        return struct.pack("!BB", self.kind, self.table_id)

    @classmethod
    def decode_body(cls, body: bytes) -> "StatsRequest":
        kind, table_id = struct.unpack_from("!BB", body)
        return cls(kind, table_id)


class FlowStatsEntry:
    """One flow's statistics inside a FLOW stats reply."""

    __slots__ = ("table_id", "priority", "cookie", "packet_count",
                 "byte_count", "duration", "match")

    def __init__(self, table_id: int, priority: int, cookie: int,
                 packet_count: int, byte_count: int, duration: float,
                 match: Match) -> None:
        self.table_id = table_id
        self.priority = priority
        self.cookie = cookie
        self.packet_count = packet_count
        self.byte_count = byte_count
        self.duration = duration
        self.match = match

    _FMT = struct.Struct("!BHQQQd")

    def encode(self) -> bytes:
        return self._FMT.pack(
            self.table_id, self.priority, self.cookie,
            self.packet_count, self.byte_count, self.duration,
        ) + encode_match(self.match)

    @classmethod
    def decode(cls, data: bytes,
               offset: int = 0) -> Tuple["FlowStatsEntry", int]:
        (table_id, priority, cookie,
         packets, nbytes, duration) = cls._FMT.unpack_from(data, offset)
        match, used = decode_match(data, offset + cls._FMT.size)
        return (
            cls(table_id, priority, cookie, packets, nbytes, duration, match),
            cls._FMT.size + used,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowStatsEntry):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self.__slots__
        )

    def __repr__(self) -> str:
        return (
            f"FlowStats(t{self.table_id} p{self.priority} "
            f"{self.packet_count}pkt {self.match!r})"
        )


_PORT_STAT = struct.Struct("!IQQQQQ")
_TABLE_STAT = struct.Struct("!BIQQ")
_AGG_STAT = struct.Struct("!QQI")


@_register(19)
class StatsReply(Message):
    """Statistics payload; ``entries`` layout depends on ``kind``.

    * FLOW: list of :class:`FlowStatsEntry`
    * PORT: list of port-stats dicts (as produced by ``Port.stats``)
    * TABLE: list of ``{"table_id", "active", "lookups", "matches"}``
    * AGGREGATE: one ``{"packets", "bytes", "flows"}`` dict
    """

    def __init__(self, kind: int = StatsKind.PORT,
                 entries: Optional[list] = None) -> None:
        self.kind = kind
        self.entries = list(entries or [])

    def encode_body(self) -> bytes:
        body = struct.pack("!BH", self.kind, len(self.entries))
        if self.kind == StatsKind.FLOW:
            body += b"".join(e.encode() for e in self.entries)
        elif self.kind == StatsKind.PORT:
            for e in self.entries:
                body += _PORT_STAT.pack(
                    e["port"], e["rx_packets"], e["rx_bytes"],
                    e["tx_packets"], e["tx_bytes"], e["tx_drops"],
                )
        elif self.kind == StatsKind.TABLE:
            for e in self.entries:
                body += _TABLE_STAT.pack(
                    e["table_id"], e["active"], e["lookups"], e["matches"]
                )
        elif self.kind == StatsKind.AGGREGATE:
            for e in self.entries:
                body += _AGG_STAT.pack(e["packets"], e["bytes"], e["flows"])
        else:
            raise ProtocolError(f"unknown stats kind {self.kind}")
        return body

    @classmethod
    def decode_body(cls, body: bytes) -> "StatsReply":
        kind, count = struct.unpack_from("!BH", body)
        offset = 3
        entries: list = []
        for _ in range(count):
            if kind == StatsKind.FLOW:
                entry, used = FlowStatsEntry.decode(body, offset)
                entries.append(entry)
                offset += used
            elif kind == StatsKind.PORT:
                vals = _PORT_STAT.unpack_from(body, offset)
                offset += _PORT_STAT.size
                entries.append(dict(zip(
                    ("port", "rx_packets", "rx_bytes",
                     "tx_packets", "tx_bytes", "tx_drops"), vals
                )))
            elif kind == StatsKind.TABLE:
                vals = _TABLE_STAT.unpack_from(body, offset)
                offset += _TABLE_STAT.size
                entries.append(dict(zip(
                    ("table_id", "active", "lookups", "matches"), vals
                )))
            elif kind == StatsKind.AGGREGATE:
                vals = _AGG_STAT.unpack_from(body, offset)
                offset += _AGG_STAT.size
                entries.append(dict(zip(("packets", "bytes", "flows"), vals)))
            else:
                raise ProtocolError(f"unknown stats kind {kind}")
        return cls(kind, entries)


# ----------------------------------------------------------------------
# Synchronisation and multi-controller roles
# ----------------------------------------------------------------------
@_register(20)
class BarrierRequest(Message):
    pass


@_register(21)
class BarrierReply(Message):
    pass


class ControllerRole:
    EQUAL = 0
    PRIMARY = 1
    SECONDARY = 2


@_register(24)
class RoleRequest(Message):
    def __init__(self, role: int = ControllerRole.EQUAL,
                 generation_id: int = 0) -> None:
        self.role = role
        self.generation_id = generation_id

    def encode_body(self) -> bytes:
        return struct.pack("!BQ", self.role, self.generation_id)

    @classmethod
    def decode_body(cls, body: bytes) -> "RoleRequest":
        role, generation_id = struct.unpack_from("!BQ", body)
        return cls(role, generation_id)


@_register(25)
class RoleReply(Message):
    def __init__(self, role: int = ControllerRole.EQUAL,
                 generation_id: int = 0) -> None:
        self.role = role
        self.generation_id = generation_id

    def encode_body(self) -> bytes:
        return struct.pack("!BQ", self.role, self.generation_id)

    @classmethod
    def decode_body(cls, body: bytes) -> "RoleReply":
        role, generation_id = struct.unpack_from("!BQ", body)
        return cls(role, generation_id)


#: Message types that answer an explicit request and therefore take part
#: in xid correlation.  Async events (PacketIn, FlowRemoved, ...) never
#: consult the pending-request map, whatever their xid says — the two
#: endpoints assign xids independently, so collisions are routine.
#: Error is included so a failed request resolves its caller.
REPLY_TYPES = (EchoReply, FeaturesReply, StatsReply, BarrierReply,
               RoleReply, Error)
