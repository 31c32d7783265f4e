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


#: Frames a :class:`FrameCache` holds before it starts over; periodic
#: sets are small.
_FRAME_CACHE_MAX = 4096


class FrameCache:
    """Memoises frames rebuilt identically every interval — LLDP
    probes, echo keepalives, and anything else periodic.

    Callers supply a hashable identity key and a builder; the builder
    runs once and the frame it returned is replayed on every later tick.
    Building and encoding a probe frame costs header construction,
    serialisation and checksums per port per interval, which at
    discovery rates on large fabrics is pure waste — the frames never
    change, and a :class:`~repro.packet.Packet` keeps its wire bytes.

    The cache is transparent: it stores what the builder returned, so a
    hit is byte-identical to a rebuild by construction.
    """

    __slots__ = ("_cache", "hits", "misses")

    def __init__(self) -> None:
        self._cache: dict = {}
        self.hits = 0
        self.misses = 0

    def get(self, key, build):
        """The cached value for ``key``, building it on first use."""
        value = self._cache.get(key)
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        value = build()
        if len(self._cache) >= _FRAME_CACHE_MAX:
            self._cache.clear()
        self._cache[key] = value
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

#: One precompiled layout per field kind: TLV header (field id, value
#: length) and value in a single pack; the value alone for unpack_from.
_TLV_U8, _VAL_U8 = struct.Struct("!BBB"), struct.Struct("!B")
_TLV_U16, _VAL_U16 = struct.Struct("!BBH"), struct.Struct("!H")
_TLV_U32, _VAL_U32 = struct.Struct("!BBI"), struct.Struct("!I")
_TLV_MAC, _VAL_MAC = struct.Struct("!BB6s"), struct.Struct("!6s")
_TLV_IP, _VAL_IP = struct.Struct("!BBIB"), struct.Struct("!IB")

# A field kind is (encoder factory, value layout, value converter): the
# factory binds a field id and returns ``value -> TLV bytes``; the
# converter turns what the layout unpacks back into the match's value.


def _int_kind(tlv: struct.Struct, val: struct.Struct):
    def encoder(field_id: int):
        pack, size = tlv.pack, val.size
        return lambda value: pack(field_id, size, value)

    return encoder, val, int


def _encode_mac(field_id: int):
    pack = _TLV_MAC.pack
    return lambda mac: pack(field_id, 6, mac.packed())


def _encode_vlan(field_id: int):
    pack = _TLV_U16.pack
    return lambda vid: pack(field_id, 2,
                            0xFFFF if vid == VLAN_ABSENT else vid)


def _decode_vlan(raw: int) -> int:
    return VLAN_ABSENT if raw == 0xFFFF else raw


def _encode_ip(field_id: int):
    pack = _TLV_IP.pack

    def encode(value) -> bytes:
        if isinstance(value, IPv4Network):
            return pack(field_id, 5, value.address.value, value.prefix_len)
        return pack(field_id, 5, value.value, 32)

    return encode


def _decode_ip(address: int, prefix_len: int):
    if prefix_len == 32:
        return IPv4Address(address)
    if prefix_len > 32:
        raise ProtocolError(f"match prefix length {prefix_len} > 32")
    return IPv4Network(address, prefix_len)  # zeroes the host bits


_U8 = _int_kind(_TLV_U8, _VAL_U8)
_U16 = _int_kind(_TLV_U16, _VAL_U16)
_U32 = _int_kind(_TLV_U32, _VAL_U32)
_MAC = (_encode_mac, _VAL_MAC, MACAddress)
_VLAN = (_encode_vlan, _VAL_U16, _decode_vlan)
_IP = (_encode_ip, _VAL_IP, _decode_ip)

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
_MATCH_ENCODERS = tuple(
    (name, make_encoder(field_id))
    for field_id, name, (make_encoder, _, _) in _MATCH_WIRE)
#: field id -> (name, value size, unpack_from, converter)
_MATCH_DECODERS = {
    field_id: (name, layout.size, layout.unpack_from, convert)
    for field_id, name, (_, layout, convert) in _MATCH_WIRE
}


def encode_match(match: Match) -> bytes:
    """Serialise a match to TLVs, prefixed with a u16 byte count."""
    fields = match.fields
    body = b"".join([
        encode(fields[name])
        for name, encode in _MATCH_ENCODERS if name in fields
    ])
    return _COUNT.pack(len(body)) + body


def decode_match(data: bytes) -> Tuple[Match, int]:
    """Parse a match; returns ``(match, bytes_consumed)``."""
    if len(data) < 2:
        raise ProtocolError("match blob truncated (no length prefix)")
    (body_len,) = _COUNT.unpack_from(data)
    end = 2 + body_len
    if len(data) < end:
        raise ProtocolError("match blob truncated (body short)")
    fields = {}
    offset = 2
    while offset < end:
        if end - offset < 2:
            raise ProtocolError("match TLV header truncated")
        field_id, value_len = data[offset], data[offset + 1]
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
        fields[name] = convert(*unpack_from(data, offset))
        offset += value_len
    return Match.from_typed(fields), end


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


def _encode_one_action(action: Action) -> bytes:
    if isinstance(action, Output):
        return bytes([_A_OUTPUT, 4]) + struct.pack("!I", action.port)
    if isinstance(action, SetEthSrc):
        return bytes([_A_SET_ETH_SRC, 6]) + action.mac.packed()
    if isinstance(action, SetEthDst):
        return bytes([_A_SET_ETH_DST, 6]) + action.mac.packed()
    if isinstance(action, SetIPSrc):
        return bytes([_A_SET_IP_SRC, 4]) + action.ip.packed()
    if isinstance(action, SetIPDst):
        return bytes([_A_SET_IP_DST, 4]) + action.ip.packed()
    if isinstance(action, SetL4Src):
        return bytes([_A_SET_L4_SRC, 2]) + struct.pack("!H", action.port)
    if isinstance(action, SetL4Dst):
        return bytes([_A_SET_L4_DST, 2]) + struct.pack("!H", action.port)
    if isinstance(action, SetDSCP):
        return bytes([_A_SET_DSCP, 1, action.dscp])
    if isinstance(action, PushVLAN):
        return bytes([_A_PUSH_VLAN, 3]) + struct.pack(
            "!HB", action.vid, action.pcp
        )
    if isinstance(action, PopVLAN):
        return bytes([_A_POP_VLAN, 0])
    if isinstance(action, SetVLAN):
        return bytes([_A_SET_VLAN, 2]) + struct.pack("!H", action.vid)
    if isinstance(action, DecTTL):
        return bytes([_A_DEC_TTL, 0])
    if isinstance(action, Group):
        return bytes([_A_GROUP, 4]) + struct.pack("!I", action.group_id)
    if isinstance(action, Meter):
        return bytes([_A_METER, 4]) + struct.pack("!I", action.meter_id)
    raise ProtocolError(f"cannot encode action {action!r}")


def encode_actions(actions: List[Action]) -> bytes:
    """Serialise an action list, prefixed with a u16 byte count."""
    body = b"".join(_encode_one_action(a) for a in actions)
    return struct.pack("!H", len(body)) + body


def decode_actions(data: bytes) -> Tuple[List[Action], int]:
    """Parse an action list; returns ``(actions, bytes_consumed)``."""
    if len(data) < 2:
        raise ProtocolError("action blob truncated (no length prefix)")
    (body_len,) = struct.unpack_from("!H", data)
    end = 2 + body_len
    if len(data) < end:
        raise ProtocolError("action blob truncated (body short)")
    actions: List[Action] = []
    offset = 2
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
            actions.append(Output(struct.unpack("!I", body)[0]))
        elif a_type == _A_SET_ETH_SRC:
            actions.append(SetEthSrc(MACAddress(body)))
        elif a_type == _A_SET_ETH_DST:
            actions.append(SetEthDst(MACAddress(body)))
        elif a_type == _A_SET_IP_SRC:
            actions.append(SetIPSrc(IPv4Address(body)))
        elif a_type == _A_SET_IP_DST:
            actions.append(SetIPDst(IPv4Address(body)))
        elif a_type == _A_SET_L4_SRC:
            actions.append(SetL4Src(struct.unpack("!H", body)[0]))
        elif a_type == _A_SET_L4_DST:
            actions.append(SetL4Dst(struct.unpack("!H", body)[0]))
        elif a_type == _A_SET_DSCP:
            actions.append(SetDSCP(body[0]))
        elif a_type == _A_PUSH_VLAN:
            vid, pcp = struct.unpack("!HB", body)
            actions.append(PushVLAN(vid, pcp))
        elif a_type == _A_POP_VLAN:
            actions.append(PopVLAN())
        elif a_type == _A_SET_VLAN:
            actions.append(SetVLAN(struct.unpack("!H", body)[0]))
        elif a_type == _A_DEC_TTL:
            actions.append(DecTTL())
        elif a_type == _A_GROUP:
            actions.append(Group(struct.unpack("!I", body)[0]))
        elif a_type == _A_METER:
            actions.append(Meter(struct.unpack("!I", body)[0]))
        else:
            raise ProtocolError(f"unknown action type {a_type}")
    return actions, end
