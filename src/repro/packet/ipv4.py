"""IPv4 header (RFC 791), without options."""

from __future__ import annotations

import struct
from typing import Optional, Tuple, Type, Union

from repro.errors import DecodeError
from repro.packet.addresses import IPv4Address
from repro.packet.base import DemuxRegistry, Header
from repro.packet.checksum import internet_checksum
from repro.packet.ethernet import EtherType, register_ethertype

__all__ = ["IPv4", "IPProto", "register_ip_proto"]

_new = object.__new__
_address = IPv4Address.from_wire


class IPProto:
    """Well-known IP protocol numbers."""

    ICMP = 1
    TCP = 6
    UDP = 17


IP_PROTOS = DemuxRegistry()


def register_ip_proto(proto: int, header_cls: Type[Header]) -> None:
    """Associate an IP protocol number with its header class."""
    IP_PROTOS.register(proto, header_cls)


class IPv4(Header):
    """A 20-byte IPv4 header.

    ``total_length`` and ``checksum`` are computed on encode; ``dscp`` maps
    to the upper 6 bits of the legacy ToS byte and is what QoS-aware apps
    (slicing, TE) match and rewrite.
    """

    name = "ipv4"
    __slots__ = ("src", "dst", "proto", "ttl", "dscp", "ecn", "ident",
                 "flags", "frag_offset")
    _FMT = struct.Struct("!BBHHHBBHII")

    def __init__(
        self,
        src: Union[str, IPv4Address] = "0.0.0.0",
        dst: Union[str, IPv4Address] = "0.0.0.0",
        proto: int = 0,
        ttl: int = 64,
        dscp: int = 0,
        ecn: int = 0,
        ident: int = 0,
        flags: int = 0b010,  # don't-fragment by default
        frag_offset: int = 0,
    ) -> None:
        self.src = IPv4Address(src)
        self.dst = IPv4Address(dst)
        self.proto = proto
        self.ttl = ttl
        self.dscp = dscp
        self.ecn = ecn
        self.ident = ident
        self.flags = flags
        self.frag_offset = frag_offset

    def link_to(self, successor: Optional[Header]) -> None:
        self.proto = IP_PROTOS.code_for(successor, self.proto)

    def encode(self, following: bytes) -> bytes:
        total_length = self._FMT.size + len(following)
        tos = (self.dscp << 2) | self.ecn
        flags_frag = (self.flags << 13) | self.frag_offset
        header = self._FMT.pack(
            (4 << 4) | 5,  # version 4, IHL 5 (no options)
            tos,
            total_length,
            self.ident,
            flags_frag,
            self.ttl,
            self.proto,
            0,  # checksum placeholder
            self.src.value,
            self.dst.value,
        )
        checksum = internet_checksum(header)
        header = header[:10] + checksum.to_bytes(2, "big") + header[12:]
        return header + following

    @classmethod
    def decode(cls, data: bytes) -> Tuple["IPv4", int]:
        if len(data) < cls._FMT.size:
            raise DecodeError(
                f"IPv4 needs {cls._FMT.size} bytes, got {len(data)}"
            )
        (ver_ihl, tos, _total_length, ident, flags_frag,
         ttl, proto, _checksum, src, dst) = cls._FMT.unpack_from(data)
        version, ihl = ver_ihl >> 4, ver_ihl & 0xF
        if version != 4:
            raise DecodeError(f"not an IPv4 packet (version={version})")
        if ihl < 5:
            raise DecodeError(f"IPv4 IHL too small: {ihl}")
        header_len = ihl * 4
        if len(data) < header_len:
            raise DecodeError("IPv4 header truncated (options missing)")
        if internet_checksum(data[:header_len]) != 0:
            raise DecodeError("IPv4 header checksum mismatch")
        # The wire bounds every field: skip __init__'s conversions.
        header = _new(cls)
        header.src = _address(src)
        header.dst = _address(dst)
        header.proto = proto
        header.ttl = ttl
        header.dscp = tos >> 2
        header.ecn = tos & 0b11
        header.ident = ident
        header.flags = flags_frag >> 13
        header.frag_offset = flags_frag & 0x1FFF
        return header, header_len

    def payload_class(self) -> Optional[Type[Header]]:
        return IP_PROTOS.lookup(self.proto)

    def decrement_ttl(self) -> bool:
        """Decrement TTL in place; returns False when it has expired."""
        if self.ttl <= 1:
            self.ttl = 0
            return False
        self.ttl -= 1
        return True


register_ethertype(EtherType.IPV4, IPv4)
