"""RFC 1071 Internet checksum, used by IPv4, ICMP, TCP, and UDP."""

from __future__ import annotations

from struct import unpack

__all__ = ["internet_checksum", "pseudo_header"]


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement Internet checksum of ``data``.

    Odd-length buffers are padded with a trailing zero byte, per RFC 1071.
    The returned value is already complemented and ready to be written into
    a header's checksum field.
    """
    if len(data) % 2:
        data = data + b"\x00"
    # One unpack of every big-endian word, summed in C.
    total = sum(unpack(f"!{len(data) >> 1}H", data))
    # Fold carries back into the low 16 bits.
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def pseudo_header(src: bytes, dst: bytes, proto: int, length: int) -> bytes:
    """Build the IPv4 pseudo-header prepended for TCP/UDP checksums."""
    return src + dst + bytes([0, proto]) + length.to_bytes(2, "big")
