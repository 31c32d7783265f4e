"""Hashable, immutable MAC and IPv4 address types.

Addresses are the identities that flow through every layer of the platform:
flow-table matches hash them, the host tracker keys on them, and the codecs
serialise them.  Both types are small value objects backed by an ``int`` so
that comparison, hashing, and masking are cheap.
"""

from __future__ import annotations

import re
from typing import Iterator, Union

from repro.errors import AddressError

__all__ = ["MACAddress", "IPv4Address", "IPv4Network", "BROADCAST_MAC"]

_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}[:\-]){5}[0-9a-fA-F]{2}$")

_new = object.__new__

#: Set above every address bit, so a MAC, an IPv4 address and the int
#: of the same value hash apart (tables hash addresses on every flow
#: install and lookup: a hash is one xor, with no tuple to build).
_MAC_TAG = 1 << 60
_IP4_TAG = 1 << 59


class MACAddress:
    """A 48-bit Ethernet address.

    Accepts colon/dash separated strings, raw 6-byte buffers, integers, or
    another :class:`MACAddress`.

    >>> MACAddress("00:11:22:33:44:55").value == 0x001122334455
    True
    """

    __slots__ = ("value",)

    def __init__(self, address: Union[str, bytes, int, "MACAddress"]) -> None:
        if isinstance(address, MACAddress):
            self.value = address.value
        elif isinstance(address, int):
            if not 0 <= address < (1 << 48):
                raise AddressError(f"MAC integer out of range: {address:#x}")
            self.value = address
        elif isinstance(address, (bytes, bytearray)):
            if len(address) != 6:
                raise AddressError(
                    f"MAC bytes must be length 6, got {len(address)}"
                )
            self.value = int.from_bytes(address, "big")
        elif isinstance(address, str):
            if not _MAC_RE.match(address):
                raise AddressError(f"malformed MAC literal: {address!r}")
            self.value = int(address.replace("-", ":").replace(":", ""), 16)
        else:
            raise AddressError(f"cannot build MAC from {type(address).__name__}")

    @classmethod
    def from_wire(cls, value: int) -> "MACAddress":
        """Trusted constructor for an int a 48-bit wire field already
        bounds (a frame's or a match's decoder): no type dispatch and no
        range check."""
        mac = _new(cls)
        mac.value = value
        return mac

    @classmethod
    def local(cls, index: int) -> "MACAddress":
        """A locally-administered unicast MAC derived from an index.

        Used by the emulator to mint distinct host/switch port addresses:
        the locally-administered bit (0x02) is set so generated addresses
        can never collide with vendor space.
        """
        if not 0 <= index < (1 << 40):
            raise AddressError(f"local MAC index out of range: {index}")
        return cls((0x02 << 40) | index)

    def packed(self) -> bytes:
        """The 6-byte big-endian wire representation."""
        return self.value.to_bytes(6, "big")

    @property
    def is_broadcast(self) -> bool:
        return self.value == (1 << 48) - 1

    @property
    def is_multicast(self) -> bool:
        """True when the group bit (LSB of the first octet) is set."""
        return bool((self.value >> 40) & 0x01)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MACAddress):
            return self.value == other.value
        if isinstance(other, (str, bytes, int)):
            try:
                return self.value == MACAddress(other).value
            except AddressError:
                return False
        return NotImplemented

    def __lt__(self, other: "MACAddress") -> bool:
        return self.value < other.value

    def __hash__(self) -> int:
        return self.value ^ _MAC_TAG

    def __str__(self) -> str:
        raw = self.packed()
        return ":".join(f"{b:02x}" for b in raw)

    def __repr__(self) -> str:
        return f"MACAddress('{self}')"


BROADCAST_MAC = MACAddress("ff:ff:ff:ff:ff:ff")


class IPv4Address:
    """A 32-bit IPv4 address."""

    __slots__ = ("value",)

    def __init__(self, address: Union[str, bytes, int, "IPv4Address"]) -> None:
        if isinstance(address, IPv4Address):
            self.value = address.value
        elif isinstance(address, int):
            if not 0 <= address < (1 << 32):
                raise AddressError(f"IPv4 integer out of range: {address:#x}")
            self.value = address
        elif isinstance(address, (bytes, bytearray)):
            if len(address) != 4:
                raise AddressError(
                    f"IPv4 bytes must be length 4, got {len(address)}"
                )
            self.value = int.from_bytes(address, "big")
        elif isinstance(address, str):
            parts = address.split(".")
            if len(parts) != 4:
                raise AddressError(f"malformed IPv4 literal: {address!r}")
            value = 0
            for part in parts:
                if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
                    raise AddressError(f"malformed IPv4 literal: {address!r}")
                octet = int(part)
                if octet > 255:
                    raise AddressError(f"IPv4 octet out of range: {address!r}")
                value = (value << 8) | octet
            self.value = value
        else:
            raise AddressError(
                f"cannot build IPv4 from {type(address).__name__}"
            )

    @classmethod
    def from_wire(cls, value: int) -> "IPv4Address":
        """Trusted constructor for an int a 32-bit wire field already
        bounds: no type dispatch and no range check."""
        address = _new(cls)
        address.value = value
        return address

    def packed(self) -> bytes:
        """The 4-byte big-endian wire representation."""
        return self.value.to_bytes(4, "big")

    @property
    def is_broadcast(self) -> bool:
        return self.value == (1 << 32) - 1

    @property
    def is_multicast(self) -> bool:
        """True for 224.0.0.0/4."""
        return (self.value >> 28) == 0xE

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self.value == other.value
        if isinstance(other, (str, bytes, int)):
            try:
                return self.value == IPv4Address(other).value
            except AddressError:
                return False
        return NotImplemented

    def __lt__(self, other: "IPv4Address") -> bool:
        return self.value < other.value

    def __hash__(self) -> int:
        return self.value ^ _IP4_TAG

    def __str__(self) -> str:
        v = self.value
        return f"{v >> 24 & 0xff}.{v >> 16 & 0xff}.{v >> 8 & 0xff}.{v & 0xff}"

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"


class IPv4Network:
    """An IPv4 prefix such as ``10.0.0.0/8``.

    The host bits of the supplied address are zeroed, mirroring how routers
    store prefixes.
    """

    __slots__ = ("address", "prefix_len")

    def __init__(self, spec: Union[str, "IPv4Network"],
                 prefix_len: int = None) -> None:
        if isinstance(spec, IPv4Network):
            self.address, self.prefix_len = spec.address, spec.prefix_len
            return
        if isinstance(spec, str) and "/" in spec:
            addr_part, _, len_part = spec.partition("/")
            if not len_part.isdigit():
                raise AddressError(f"malformed prefix length in {spec!r}")
            address, prefix_len = IPv4Address(addr_part), int(len_part)
        else:
            if prefix_len is None:
                raise AddressError(
                    f"prefix length required for network {spec!r}"
                )
            address = IPv4Address(spec)
        if not 0 <= prefix_len <= 32:
            raise AddressError(f"prefix length out of range: {prefix_len}")
        self.prefix_len = prefix_len
        self.address = IPv4Address(address.value & self.netmask_int())

    def netmask_int(self) -> int:
        if self.prefix_len == 0:
            return 0
        return ((1 << self.prefix_len) - 1) << (32 - self.prefix_len)

    @property
    def netmask(self) -> IPv4Address:
        return IPv4Address(self.netmask_int())

    @property
    def broadcast(self) -> IPv4Address:
        return IPv4Address(self.address.value | (~self.netmask_int() & 0xFFFFFFFF))

    @property
    def num_hosts(self) -> int:
        """Number of assignable host addresses (network/broadcast excluded)."""
        total = 1 << (32 - self.prefix_len)
        return max(total - 2, 0) if self.prefix_len < 31 else total

    def contains(self, address: Union[str, IPv4Address]) -> bool:
        addr = IPv4Address(address)
        return (addr.value & self.netmask_int()) == self.address.value

    def host(self, index: int) -> IPv4Address:
        """The ``index``-th assignable host address (1-based)."""
        if self.prefix_len >= 31:
            raise AddressError("prefix too small to enumerate hosts")
        if not 1 <= index <= self.num_hosts:
            raise AddressError(
                f"host index {index} out of range for /{self.prefix_len}"
            )
        return IPv4Address(self.address.value + index)

    def hosts(self) -> Iterator[IPv4Address]:
        for i in range(1, self.num_hosts + 1):
            yield self.host(i)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Network):
            return (self.address, self.prefix_len) == (
                other.address,
                other.prefix_len,
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("net4", self.address.value, self.prefix_len))

    def __str__(self) -> str:
        return f"{self.address}/{self.prefix_len}"

    def __repr__(self) -> str:
        return f"IPv4Network('{self}')"
