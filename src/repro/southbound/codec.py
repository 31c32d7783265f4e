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

    __slots__ = ("_cache", "hits", "misses", "max_entries")

    def __init__(self, max_entries: int = 4096) -> None:
        self._cache: dict = {}
        self.hits = 0
        self.misses = 0
        self.max_entries = max_entries

    def get(self, key, build):
        """The cached value for ``key``, building it on first use."""
        value = self._cache.get(key)
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        value = build()
        if len(self._cache) >= self.max_entries:
            self._cache.clear()  # simple bound; periodic sets are small
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
_F_IN_PORT = 1
_F_ETH_SRC = 2
_F_ETH_DST = 3
_F_ETH_TYPE = 4
_F_VLAN_VID = 5
_F_IP_SRC = 6
_F_IP_DST = 7
_F_IP_PROTO = 8
_F_IP_DSCP = 9
_F_L4_SRC = 10
_F_L4_DST = 11


def encode_match(match: Match) -> bytes:
    """Serialise a match to TLVs, prefixed with a u16 byte count."""
    body = bytearray()

    def tlv(field_id: int, value: bytes) -> None:
        body.append(field_id)
        body.append(len(value))
        body.extend(value)

    fields = match.fields
    if "in_port" in fields:
        tlv(_F_IN_PORT, struct.pack("!I", fields["in_port"]))
    if "eth_src" in fields:
        tlv(_F_ETH_SRC, fields["eth_src"].packed())
    if "eth_dst" in fields:
        tlv(_F_ETH_DST, fields["eth_dst"].packed())
    if "eth_type" in fields:
        tlv(_F_ETH_TYPE, struct.pack("!H", fields["eth_type"]))
    if "vlan_vid" in fields:
        vid = fields["vlan_vid"]
        raw = 0xFFFF if vid == VLAN_ABSENT else vid
        tlv(_F_VLAN_VID, struct.pack("!H", raw))
    for name, field_id in (("ip_src", _F_IP_SRC), ("ip_dst", _F_IP_DST)):
        if name in fields:
            value = fields[name]
            if isinstance(value, IPv4Network):
                tlv(field_id, value.address.packed()
                    + bytes([value.prefix_len]))
            else:
                tlv(field_id, value.packed() + bytes([32]))
    if "ip_proto" in fields:
        tlv(_F_IP_PROTO, bytes([fields["ip_proto"]]))
    if "ip_dscp" in fields:
        tlv(_F_IP_DSCP, bytes([fields["ip_dscp"]]))
    if "l4_src" in fields:
        tlv(_F_L4_SRC, struct.pack("!H", fields["l4_src"]))
    if "l4_dst" in fields:
        tlv(_F_L4_DST, struct.pack("!H", fields["l4_dst"]))
    return struct.pack("!H", len(body)) + bytes(body)


def decode_match(data: bytes) -> Tuple[Match, int]:
    """Parse a match; returns ``(match, bytes_consumed)``."""
    if len(data) < 2:
        raise ProtocolError("match blob truncated (no length prefix)")
    (body_len,) = struct.unpack_from("!H", data)
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
        value = data[offset:offset + value_len]
        if len(value) != value_len:
            raise ProtocolError("match TLV value truncated")
        offset += value_len
        if field_id == _F_IN_PORT:
            fields["in_port"] = struct.unpack("!I", value)[0]
        elif field_id == _F_ETH_SRC:
            fields["eth_src"] = MACAddress(value)
        elif field_id == _F_ETH_DST:
            fields["eth_dst"] = MACAddress(value)
        elif field_id == _F_ETH_TYPE:
            fields["eth_type"] = struct.unpack("!H", value)[0]
        elif field_id == _F_VLAN_VID:
            raw = struct.unpack("!H", value)[0]
            fields["vlan_vid"] = VLAN_ABSENT if raw == 0xFFFF else raw
        elif field_id in (_F_IP_SRC, _F_IP_DST):
            addr, prefix_len = IPv4Address(value[:4]), value[4]
            name = "ip_src" if field_id == _F_IP_SRC else "ip_dst"
            if prefix_len == 32:
                fields[name] = addr
            else:
                fields[name] = IPv4Network(str(addr), prefix_len)
        elif field_id == _F_IP_PROTO:
            fields["ip_proto"] = value[0]
        elif field_id == _F_IP_DSCP:
            fields["ip_dscp"] = value[0]
        elif field_id == _F_L4_SRC:
            fields["l4_src"] = struct.unpack("!H", value)[0]
        elif field_id == _F_L4_DST:
            fields["l4_dst"] = struct.unpack("!H", value)[0]
        else:
            raise ProtocolError(f"unknown match field id {field_id}")
    return Match(**fields), end


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
