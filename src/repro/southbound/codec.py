"""Low-level binary codecs shared by every ZOF message.

Matches are encoded as OXM-style TLVs; actions as (type, length, body)
frames.  Everything is big-endian.  The codec is deliberately strict:
unknown field or action types raise :class:`ProtocolError` rather than
being skipped, because in a single-administrative-domain southbound
protocol a decoding mismatch is a version-negotiation bug, not tolerable
noise.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.dataplane.actions import (
    Action,
    DecTTL,
    Group,
    Meter,
    Output,
    PopVLAN,
    PushVLAN,
    SetDSCP,
    SetEthDst,
    SetEthSrc,
    SetIPDst,
    SetIPSrc,
    SetL4Dst,
    SetL4Src,
    SetVLAN,
)
from repro.dataplane.match import VLAN_ABSENT, Match
from repro.errors import ProtocolError
from repro.packet import IPv4Address, IPv4Network, MACAddress

__all__ = [
    "FrameCache",
    "encode_match",
    "decode_match",
    "encode_actions",
    "decode_actions",
]


class FrameCache:
    """Memoises values rebuilt identically over and over — LLDP
    probes, echo keepalives, encoded and parsed matches, decoded
    punts.

    Callers supply a hashable identity key and a builder; the builder
    runs once and the value it returned is replayed on every later hit.
    Building and encoding a probe frame costs header construction,
    serialisation and checksums per port per interval, which at
    discovery rates on large fabrics is pure waste — the frames never
    change, and a :class:`~repro.packet.Packet` keeps its wire bytes.

    The cache is transparent: it stores what the builder returned, so a
    hit is byte-identical to a rebuild by construction, and a builder
    that raises stores nothing.  It holds at most ``size`` values; the
    oldest goes first.  Callers fix ``size`` as a constant.
    """

    __slots__ = ("_cache", "size", "hits", "misses")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"FrameCache size must be >= 1, got {size}")
        self._cache: dict = {}
        self.size = size
        self.hits = 0
        self.misses = 0

    def get(self, key, build, *args):
        """The cached value for ``key``, ``build(*args)`` on first use."""
        value = self._cache.get(key)
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        value = build(*args)
        cache = self._cache
        if len(cache) >= self.size:
            del cache[next(iter(cache))]
        cache[key] = value
        return value

    def invalidate(self, key=None) -> None:
        """Forget one key, or everything when ``key`` is ``None``."""
        if key is None:
            self._cache.clear()
        else:
            self._cache.pop(key, None)

    def __len__(self) -> int:
        return len(self._cache)


# ----------------------------------------------------------------------
# Match TLVs
# ----------------------------------------------------------------------
_COUNT = struct.Struct("!H")  # the u16 byte count ahead of the TLVs

#: Matches each way a process keeps: re-sends (resync, router
#: rebuilds) and duplicate flow-mods (a flow's second datagram punts
#: before the first flow-mod lands) encode or parse a match once.
MATCH_MEMO_SIZE = 1024
_WIRE_OF = FrameCache(MATCH_MEMO_SIZE)   # Match -> TLV bytes
_MATCH_OF = FrameCache(MATCH_MEMO_SIZE)  # TLV bytes -> (Match, used)

def _decode_mac(high: int, low: int) -> MACAddress:
    return MACAddress.from_wire(high << 32 | low)


def _decode_vlan(raw: int) -> int:
    return VLAN_ABSENT if raw == 0xFFFF else raw


def _decode_ip(address: int, prefix_len: int):
    if prefix_len == 32:
        return IPv4Address.from_wire(address)
    if prefix_len > 32:
        raise ProtocolError(f"match prefix length {prefix_len} > 32")
    return IPv4Network(address, prefix_len)  # zeroes the host bits


# A field kind is (value format, value size, value expression, value
# converter): the expression turns the match's value, named ``{0}``,
# into the format's arguments; the converter turns what the format
# unpacks back into the match's value.
_U8 = ("B", 1, "{0}", int)
_U16 = ("H", 2, "{0}", int)
_U32 = ("I", 4, "{0}", int)
_MAC = ("HI", 6, "{0}.value >> 32, {0}.value & 0xFFFFFFFF", _decode_mac)
_VLAN = ("H", 2, "0xFFFF if {0} == VLAN_ABSENT else {0}", _decode_vlan)
_IP = ("IB", 5, "*(({0}.address.value, {0}.prefix_len) "
       "if isinstance({0}, IPv4Network) else ({0}.value, 32))", _decode_ip)

#: The wire order of a match: (field id, name, kind), PROTOCOL.md §4.1.
_MATCH_WIRE = (
    (1, "in_port", _U32),
    (2, "eth_src", _MAC),
    (3, "eth_dst", _MAC),
    (4, "eth_type", _U16),
    (5, "vlan_vid", _VLAN),
    (6, "ip_src", _IP),
    (7, "ip_dst", _IP),
    (8, "ip_proto", _U8),
    (9, "ip_dscp", _U8),
    (10, "l4_src", _U16),
    (11, "l4_dst", _U16),
)
#: field id -> (name, value size, unpack_from, converter)
_MATCH_DECODERS = {
    field_id: (name, size, struct.Struct("!" + fmt).unpack_from, convert)
    for field_id, name, (fmt, size, _, convert) in _MATCH_WIRE
}
#: Compiled encoders by the field-name tuple of a match, in the order
#: the match holds them: a handful of layouts in any one run.
_LAYOUTS: dict = {}


def _compile_layout(names: Tuple[str, ...]):
    """One function that packs the byte count and every TLV of a match
    with these fields in a single ``struct.pack``.  Its source is built
    from :data:`_MATCH_WIRE` alone: ``names`` only selects rows."""
    wanted = set(names)
    fmt, args, lines, size = ["!H"], [], [], 0
    for field_id, name, (value_fmt, value_size, expr, _) in _MATCH_WIRE:
        if name in wanted:
            fmt.append("BB" + value_fmt)
            args.append(f"{field_id}, {value_size}, {expr.format(name)}")
            lines.append(f"    {name} = fields[{name!r}]\n")
            size += 2 + value_size
    source = ("def encode(fields):\n" + "".join(lines)
              + f"    return pack({', '.join([str(size)] + args)})\n")
    namespace = {"pack": struct.Struct("".join(fmt)).pack,
                 "IPv4Network": IPv4Network, "VLAN_ABSENT": VLAN_ABSENT}
    exec(source, namespace)
    return namespace["encode"]


def _encode_match(match: Match) -> bytes:
    fields = match._fields  # sealed: read, never copied or written
    names = tuple(fields)
    encode = _LAYOUTS.get(names)
    if encode is None:
        encode = _LAYOUTS[names] = _compile_layout(names)
    return encode(fields)


def encode_match(match: Match) -> bytes:
    """Serialise a match to TLVs, prefixed with a u16 byte count."""
    return _WIRE_OF.get(match, _encode_match, match)


def _parse_match(blob: bytes) -> Tuple[Match, int]:
    """The strict TLV walk over one whole blob, byte count included."""
    end = len(blob)
    fields = {}
    offset = 2
    while offset < end:
        if end - offset < 2:
            raise ProtocolError("match TLV header truncated")
        field_id, value_len = blob[offset], blob[offset + 1]
        offset += 2
        if end - offset < value_len:
            raise ProtocolError("match TLV value truncated")
        decoder = _MATCH_DECODERS.get(field_id)
        if decoder is None:
            raise ProtocolError(f"unknown match field id {field_id}")
        name, size, unpack_from, convert = decoder
        if value_len != size:
            raise ProtocolError(
                f"match field {name} is {size}B, got {value_len}B"
            )
        fields[name] = convert(*unpack_from(blob, offset))
        offset += value_len
    return Match.from_typed(fields), end


def decode_match(data: bytes, offset: int = 0) -> Tuple[Match, int]:
    """Parse the match at ``data[offset:]``; returns ``(match,
    bytes_consumed)``."""
    if len(data) - offset < 2:
        raise ProtocolError("match blob truncated (no length prefix)")
    (body_len,) = _COUNT.unpack_from(data, offset)
    end = offset + 2 + body_len
    if len(data) < end:
        raise ProtocolError("match blob truncated (body short)")
    blob = data[offset:end]
    return _MATCH_OF.get(blob, _parse_match, blob)


# ----------------------------------------------------------------------
# Action frames
# ----------------------------------------------------------------------
_A_OUTPUT = 1
_A_SET_ETH_SRC = 2
_A_SET_ETH_DST = 3
_A_SET_IP_SRC = 4
_A_SET_IP_DST = 5
_A_SET_L4_SRC = 6
_A_SET_L4_DST = 7
_A_SET_DSCP = 8
_A_PUSH_VLAN = 9
_A_POP_VLAN = 10
_A_SET_VLAN = 11
_A_DEC_TTL = 12
_A_GROUP = 13
_A_METER = 14


_U32_BODY = struct.Struct("!I")
_U16_BODY = struct.Struct("!H")
_A_U32 = struct.Struct("!BBI")
_A_U16 = struct.Struct("!BBH")
_A_MAC = struct.Struct("!BB6s")
_A_IP = struct.Struct("!BB4s")

#: Action class -> its frame, header included.
_ACTION_ENCODERS = {
    Output: lambda a: _A_U32.pack(_A_OUTPUT, 4, a.port),
    SetEthSrc: lambda a: _A_MAC.pack(_A_SET_ETH_SRC, 6, a.mac.packed()),
    SetEthDst: lambda a: _A_MAC.pack(_A_SET_ETH_DST, 6, a.mac.packed()),
    SetIPSrc: lambda a: _A_IP.pack(_A_SET_IP_SRC, 4, a.ip.packed()),
    SetIPDst: lambda a: _A_IP.pack(_A_SET_IP_DST, 4, a.ip.packed()),
    SetL4Src: lambda a: _A_U16.pack(_A_SET_L4_SRC, 2, a.port),
    SetL4Dst: lambda a: _A_U16.pack(_A_SET_L4_DST, 2, a.port),
    SetDSCP: lambda a: bytes([_A_SET_DSCP, 1, a.dscp]),
    PushVLAN: lambda a: bytes([_A_PUSH_VLAN, 3]) + struct.pack(
        "!HB", a.vid, a.pcp),
    PopVLAN: lambda a: bytes([_A_POP_VLAN, 0]),
    SetVLAN: lambda a: _A_U16.pack(_A_SET_VLAN, 2, a.vid),
    DecTTL: lambda a: bytes([_A_DEC_TTL, 0]),
    Group: lambda a: _A_U32.pack(_A_GROUP, 4, a.group_id),
    Meter: lambda a: _A_U32.pack(_A_METER, 4, a.meter_id),
}


def _encode_one_action(action: Action) -> bytes:
    encode = _ACTION_ENCODERS.get(type(action))
    if encode is None:  # a subclass encodes as its base
        for cls, encode in _ACTION_ENCODERS.items():
            if isinstance(action, cls):
                break
        else:
            raise ProtocolError(f"cannot encode action {action!r}")
    return encode(action)


def encode_actions(actions: List[Action]) -> bytes:
    """Serialise an action list, prefixed with a u16 byte count."""
    body = b"".join([_encode_one_action(a) for a in actions])
    return _COUNT.pack(len(body)) + body


def decode_actions(data: bytes, offset: int = 0) -> Tuple[List[Action], int]:
    """Parse the action list at ``data[offset:]``; returns ``(actions,
    bytes_consumed)``."""
    if len(data) - offset < 2:
        raise ProtocolError("action blob truncated (no length prefix)")
    (body_len,) = _COUNT.unpack_from(data, offset)
    start = offset
    end = offset + 2 + body_len
    if len(data) < end:
        raise ProtocolError("action blob truncated (body short)")
    actions: List[Action] = []
    offset += 2
    while offset < end:
        if end - offset < 2:
            raise ProtocolError("action frame header truncated")
        a_type, a_len = data[offset], data[offset + 1]
        offset += 2
        body = data[offset:offset + a_len]
        if len(body) != a_len:
            raise ProtocolError("action frame body truncated")
        offset += a_len
        if a_type == _A_OUTPUT:
            actions.append(Output(_U32_BODY.unpack(body)[0]))
        elif a_type == _A_SET_ETH_SRC:
            actions.append(SetEthSrc(MACAddress(body)))
        elif a_type == _A_SET_ETH_DST:
            actions.append(SetEthDst(MACAddress(body)))
        elif a_type == _A_SET_IP_SRC:
            actions.append(SetIPSrc(IPv4Address(body)))
        elif a_type == _A_SET_IP_DST:
            actions.append(SetIPDst(IPv4Address(body)))
        elif a_type == _A_SET_L4_SRC:
            actions.append(SetL4Src(_U16_BODY.unpack(body)[0]))
        elif a_type == _A_SET_L4_DST:
            actions.append(SetL4Dst(_U16_BODY.unpack(body)[0]))
        elif a_type == _A_SET_DSCP:
            actions.append(SetDSCP(body[0]))
        elif a_type == _A_PUSH_VLAN:
            vid, pcp = struct.unpack("!HB", body)
            actions.append(PushVLAN(vid, pcp))
        elif a_type == _A_POP_VLAN:
            actions.append(PopVLAN())
        elif a_type == _A_SET_VLAN:
            actions.append(SetVLAN(_U16_BODY.unpack(body)[0]))
        elif a_type == _A_DEC_TTL:
            actions.append(DecTTL())
        elif a_type == _A_GROUP:
            actions.append(Group(_U32_BODY.unpack(body)[0]))
        elif a_type == _A_METER:
            actions.append(Meter(_U32_BODY.unpack(body)[0]))
        else:
            raise ProtocolError(f"unknown action type {a_type}")
    return actions, end - start
