"""Ethernet II and IEEE 802.1Q VLAN headers."""

from __future__ import annotations

import struct
from typing import Optional, Tuple, Type, Union

from repro.errors import DecodeError
from repro.packet.addresses import BROADCAST_MAC, MACAddress
from repro.packet.base import DemuxRegistry, Header

__all__ = ["Ethernet", "VLAN", "EtherType", "register_ethertype"]

_new = object.__new__
_mac = MACAddress.from_wire


class EtherType:
    """Well-known EtherType values used across the platform."""

    IPV4 = 0x0800
    ARP = 0x0806
    VLAN = 0x8100
    LLDP = 0x88CC


ETHERTYPES = DemuxRegistry()


def register_ethertype(ethertype: int, header_cls: Type[Header]) -> None:
    """Associate an EtherType with the header class that decodes it."""
    ETHERTYPES.register(ethertype, header_cls)


def lookup_ethertype(ethertype: int) -> Optional[Type[Header]]:
    return ETHERTYPES.lookup(ethertype)


class Ethernet(Header):
    """Ethernet II frame header: dst(6) src(6) ethertype(2)."""

    name = "ethernet"
    __slots__ = ("dst", "src", "ethertype")
    #: Each address as its high 16 and low 32 bits.
    _FMT = struct.Struct("!HIHIH")

    def __init__(
        self,
        dst: Union[str, MACAddress] = BROADCAST_MAC,
        src: Union[str, MACAddress] = "00:00:00:00:00:00",
        ethertype: int = 0,
    ) -> None:
        self.dst = MACAddress(dst)
        self.src = MACAddress(src)
        self.ethertype = ethertype

    def link_to(self, successor: Optional[Header]) -> None:
        self.ethertype = ETHERTYPES.code_for(successor, self.ethertype)

    def encode(self, following: bytes) -> bytes:
        dst, src = self.dst.value, self.src.value
        return self._FMT.pack(dst >> 32, dst & 0xFFFFFFFF, src >> 32,
                              src & 0xFFFFFFFF, self.ethertype) + following

    @classmethod
    def decode(cls, data: bytes) -> Tuple["Ethernet", int]:
        if len(data) < cls._FMT.size:
            raise DecodeError(
                f"Ethernet header needs {cls._FMT.size} bytes, got {len(data)}"
            )
        dst_hi, dst_lo, src_hi, src_lo, ethertype = cls._FMT.unpack_from(data)
        # The wire bounds both addresses: skip __init__'s conversions.
        header = _new(cls)
        header.dst = _mac(dst_hi << 32 | dst_lo)
        header.src = _mac(src_hi << 32 | src_lo)
        header.ethertype = ethertype
        return header, cls._FMT.size

    def payload_class(self) -> Optional[Type[Header]]:
        return lookup_ethertype(self.ethertype)


class VLAN(Header):
    """IEEE 802.1Q tag: PCP(3) DEI(1) VID(12), then inner ethertype(2)."""

    name = "vlan"
    __slots__ = ("vid", "pcp", "dei", "ethertype")
    _FMT = struct.Struct("!HH")

    def __init__(self, vid: int = 0, pcp: int = 0, dei: int = 0,
                 ethertype: int = 0) -> None:
        if not 0 <= vid < 4096:
            raise DecodeError(f"VLAN id out of range: {vid}")
        if not 0 <= pcp < 8:
            raise DecodeError(f"VLAN priority out of range: {pcp}")
        self.vid = vid
        self.pcp = pcp
        self.dei = dei & 1
        self.ethertype = ethertype

    def link_to(self, successor: Optional[Header]) -> None:
        self.ethertype = ETHERTYPES.code_for(successor, self.ethertype)

    def encode(self, following: bytes) -> bytes:
        tci = (self.pcp << 13) | (self.dei << 12) | self.vid
        return self._FMT.pack(tci, self.ethertype) + following

    @classmethod
    def decode(cls, data: bytes) -> Tuple["VLAN", int]:
        if len(data) < cls._FMT.size:
            raise DecodeError(
                f"VLAN tag needs {cls._FMT.size} bytes, got {len(data)}"
            )
        tci, ethertype = cls._FMT.unpack_from(data)
        return (
            cls(vid=tci & 0xFFF, pcp=tci >> 13, dei=(tci >> 12) & 1,
                ethertype=ethertype),
            cls._FMT.size,
        )

    def payload_class(self) -> Optional[Type[Header]]:
        return lookup_ethertype(self.ethertype)


register_ethertype(EtherType.VLAN, VLAN)
