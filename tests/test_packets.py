"""Codec tests: every header must survive an encode/decode roundtrip
byte-exactly, and malformed buffers must fail loudly."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane import PopVLAN, PushVLAN, SetVLAN
from repro.errors import DecodeError
from repro.packet import (
    ARP,
    Ethernet,
    EtherType,
    ICMP,
    ICMPType,
    IPProto,
    IPv4,
    IPv4Address,
    LLDP,
    LLDP_MULTICAST,
    MACAddress,
    Packet,
    Raw,
    TCP,
    TCPFlags,
    UDP,
    VLAN,
    internet_checksum,
)

MAC_A = "00:00:00:00:00:01"
MAC_B = "00:00:00:00:00:02"


def roundtrip(packet: Packet) -> Packet:
    return Packet.decode(packet.encode())


class TestEthernet:
    def test_roundtrip(self):
        pkt = roundtrip(Ethernet(dst=MAC_B, src=MAC_A, ethertype=0x1234)
                        / b"payload")
        eth = pkt[Ethernet]
        assert eth.dst == MAC_B
        assert eth.src == MAC_A
        assert eth.ethertype == 0x1234
        assert pkt.payload == b"payload"

    def test_header_is_14_bytes(self):
        assert len((Ethernet() / b"").encode()) == 14

    def test_truncated_rejected(self):
        with pytest.raises(DecodeError):
            Ethernet.decode(b"\x00" * 13)

    def test_ethertype_inferred_from_stack(self):
        pkt = Ethernet() / IPv4(src="1.2.3.4", dst="5.6.7.8")
        raw = pkt.encode()
        assert Packet.decode(raw)[Ethernet].ethertype == EtherType.IPV4


class TestVLAN:
    def test_tagged_frame_roundtrip(self):
        pkt = (Ethernet(dst=MAC_B, src=MAC_A)
               / VLAN(vid=42, pcp=5)
               / IPv4(src="1.1.1.1", dst="2.2.2.2")
               / b"x")
        out = roundtrip(pkt)
        assert out[VLAN].vid == 42
        assert out[VLAN].pcp == 5
        assert out[Ethernet].ethertype == EtherType.VLAN
        assert out[VLAN].ethertype == EtherType.IPV4
        assert IPv4 in out

    def test_vid_range_checked(self):
        with pytest.raises(DecodeError):
            VLAN(vid=4096)
        with pytest.raises(DecodeError):
            VLAN(vid=0, pcp=8)


class TestARP:
    def test_request_roundtrip(self):
        pkt = roundtrip(Ethernet() / ARP(
            opcode=ARP.REQUEST,
            sender_mac=MAC_A, sender_ip="10.0.0.1",
            target_ip="10.0.0.2",
        ))
        arp = pkt[ARP]
        assert arp.is_request and not arp.is_reply
        assert arp.sender_ip == "10.0.0.1"
        assert arp.target_ip == "10.0.0.2"

    def test_reply_roundtrip(self):
        pkt = roundtrip(Ethernet() / ARP(
            opcode=ARP.REPLY,
            sender_mac=MAC_B, sender_ip="10.0.0.2",
            target_mac=MAC_A, target_ip="10.0.0.1",
        ))
        assert pkt[ARP].is_reply
        assert pkt[ARP].sender_mac == MAC_B

    def test_non_ethernet_ipv4_variant_rejected(self):
        raw = (Ethernet() / ARP()).encode()
        # Corrupt the hardware type field (first 2 bytes after Ethernet).
        bad = raw[:14] + b"\x00\x02" + raw[16:]
        with pytest.raises(DecodeError):
            Packet.decode(bad)


class TestIPv4:
    def test_roundtrip_all_fields(self):
        pkt = roundtrip(Ethernet() / IPv4(
            src="1.2.3.4", dst="5.6.7.8", ttl=17, dscp=46, ecn=1,
            ident=0xBEEF,
        ) / b"data")
        ip = pkt[IPv4]
        assert ip.src == "1.2.3.4"
        assert ip.ttl == 17
        assert ip.dscp == 46
        assert ip.ecn == 1
        assert ip.ident == 0xBEEF

    def test_checksum_verified_on_decode(self):
        raw = bytearray((Ethernet() / IPv4(src="1.1.1.1", dst="2.2.2.2")
                         / b"x").encode())
        raw[14 + 8] ^= 0xFF  # corrupt the TTL byte
        with pytest.raises(DecodeError):
            Packet.decode(bytes(raw))

    def test_header_checksum_is_valid(self):
        raw = (Ethernet() / IPv4(src="1.1.1.1", dst="2.2.2.2")).encode()
        assert internet_checksum(raw[14:34]) == 0

    def test_total_length_tracks_payload(self):
        raw = (Ethernet() / IPv4() / (b"\xaa" * 10)).encode()
        total_length = int.from_bytes(raw[16:18], "big")
        assert total_length == 20 + 10

    def test_decrement_ttl(self):
        ip = IPv4(ttl=2)
        assert ip.decrement_ttl() and ip.ttl == 1
        assert not ip.decrement_ttl() and ip.ttl == 0

    def test_wrong_version_rejected(self):
        raw = bytearray((Ethernet() / IPv4()).encode())
        raw[14] = (6 << 4) | 5
        with pytest.raises(DecodeError):
            Packet.decode(bytes(raw))


class TestTransport:
    def test_udp_roundtrip(self):
        pkt = roundtrip(Ethernet() / IPv4(src="1.1.1.1", dst="2.2.2.2")
                        / UDP(src_port=1234, dst_port=53) / b"query")
        udp = pkt[UDP]
        assert (udp.src_port, udp.dst_port) == (1234, 53)
        assert pkt.payload == b"query"

    def test_udp_length_field(self):
        raw = (IPv4() / UDP(src_port=1, dst_port=2) / b"12345").encode()
        length = int.from_bytes(raw[20 + 4:20 + 6], "big")
        assert length == 8 + 5

    def test_udp_port_range_checked(self):
        with pytest.raises(DecodeError):
            UDP(src_port=70000)

    def test_tcp_roundtrip(self):
        pkt = roundtrip(Ethernet() / IPv4(src="1.1.1.1", dst="2.2.2.2")
                        / TCP(src_port=4000, dst_port=80, seq=1000,
                              ack=2000, flags=TCPFlags.SYN | TCPFlags.ACK,
                              window=1024) / b"")
        tcp = pkt[TCP]
        assert tcp.seq == 1000 and tcp.ack == 2000
        assert tcp.is_syn and tcp.is_ack and not tcp.is_fin
        assert tcp.window == 1024

    def test_tcp_flag_helpers(self):
        tcp = TCP(flags=TCPFlags.FIN | TCPFlags.ACK)
        assert tcp.has_flags(TCPFlags.FIN)
        assert tcp.has_flags(TCPFlags.FIN | TCPFlags.ACK)
        assert not tcp.has_flags(TCPFlags.SYN)

    def test_ip_proto_demux(self):
        udp_pkt = roundtrip(Ethernet() / IPv4() / UDP() / b"")
        tcp_pkt = roundtrip(Ethernet() / IPv4() / TCP() / b"")
        assert udp_pkt[IPv4].proto == IPProto.UDP
        assert tcp_pkt[IPv4].proto == IPProto.TCP


class TestICMP:
    def test_echo_roundtrip(self):
        pkt = roundtrip(Ethernet() / IPv4(src="1.1.1.1", dst="2.2.2.2")
                        / ICMP(ICMPType.ECHO_REQUEST, ident=7, seq=3)
                        / b"ping")
        icmp = pkt[ICMP]
        assert icmp.is_echo_request
        assert (icmp.ident, icmp.seq) == (7, 3)

    def test_checksum_covers_payload(self):
        raw = bytearray((Ethernet() / IPv4() / ICMP() / b"zz").encode())
        raw[-1] ^= 0xFF
        with pytest.raises(DecodeError):
            Packet.decode(bytes(raw))


class TestLLDP:
    def test_roundtrip(self):
        pkt = roundtrip(
            Ethernet(dst=LLDP_MULTICAST, src=MAC_A)
            / LLDP(chassis_id=99, port_id=3, ttl=12)
        )
        lldp = pkt[LLDP]
        assert (lldp.chassis_id, lldp.port_id, lldp.ttl) == (99, 3, 12)

    def test_missing_mandatory_tlv_rejected(self):
        # End TLV immediately: no chassis/port.
        with pytest.raises(DecodeError):
            LLDP.decode(b"\x00\x00")


class TestPacketContainer:
    def test_getitem_raises_on_missing(self):
        pkt = Ethernet() / b""
        with pytest.raises(KeyError):
            pkt[IPv4]

    def test_contains(self):
        pkt = Ethernet() / IPv4() / UDP() / b""
        assert IPv4 in pkt and TCP not in pkt

    def test_copy_is_independent(self):
        pkt = Ethernet(dst=MAC_B, src=MAC_A) / IPv4(src="1.1.1.1",
                                                    dst="2.2.2.2") / b"x"
        dup = pkt.copy()
        dup[IPv4].ttl = 1
        assert pkt[IPv4].ttl == 64

    def test_summary(self):
        pkt = Ethernet() / IPv4() / UDP() / b"abc"
        assert pkt.summary().startswith("Ethernet/IPv4/UDP")

    def test_unknown_ethertype_becomes_raw(self):
        pkt = Packet.decode((Ethernet(ethertype=0x9999) / b"tail").encode())
        assert pkt.headers[1].__class__ is Raw
        assert pkt.payload == b"tail"

    def test_packet_equality_by_bytes(self):
        a = Ethernet(dst=MAC_B) / IPv4(src="1.1.1.1", dst="2.2.2.2") / b"x"
        b = Ethernet(dst=MAC_B) / IPv4(src="1.1.1.1", dst="2.2.2.2") / b"x"
        assert a == b

    @given(
        src=st.integers(min_value=0, max_value=(1 << 48) - 1),
        dst=st.integers(min_value=0, max_value=(1 << 48) - 1),
        sip=st.integers(min_value=0, max_value=(1 << 32) - 1),
        dip=st.integers(min_value=0, max_value=(1 << 32) - 1),
        sport=st.integers(min_value=0, max_value=65535),
        dport=st.integers(min_value=0, max_value=65535),
        ttl=st.integers(min_value=1, max_value=255),
        dscp=st.integers(min_value=0, max_value=63),
        payload=st.binary(max_size=64),
    )
    def test_udp_stack_roundtrip_property(self, src, dst, sip, dip, sport,
                                          dport, ttl, dscp, payload):
        pkt = (
            Ethernet(dst=MACAddress(dst), src=MACAddress(src))
            / IPv4(src=sip, dst=dip, ttl=ttl, dscp=dscp)
            / UDP(src_port=sport, dst_port=dport)
            / payload
        )
        out = roundtrip(pkt)
        assert out == pkt
        assert out[UDP].dst_port == dport
        assert out.payload == payload

    @given(payload=st.binary(max_size=32),
           vid=st.integers(min_value=0, max_value=4095))
    def test_vlan_stack_roundtrip_property(self, payload, vid):
        pkt = (Ethernet(dst=MAC_B, src=MAC_A) / VLAN(vid=vid)
               / IPv4(src="1.1.1.1", dst="2.2.2.2") / payload)
        assert roundtrip(pkt) == pkt


def fresh_encode(packet: Packet) -> bytes:
    """What a packet that has never been serialised puts on the wire."""
    return Packet(list(packet.headers)).encode()


class TestCopy:
    @pytest.mark.parametrize("build,header,field,value", [
        (lambda: (IPv4(src="1.1.1.1", dst="2.2.2.2", ttl=9)
                  / UDP(src_port=5, dst_port=6) / b"x"),
         IPv4, "ttl", 1),
        (lambda: (Ethernet(dst=MAC_B, src=MAC_A)
                  / ARP(opcode=ARP.REPLY, sender_mac=MAC_A,
                        sender_ip="1.1.1.1", target_mac=MAC_B,
                        target_ip="2.2.2.2")),
         ARP, "opcode", ARP.REQUEST),
    ], ids=["ipv4-transport-stack", "arp-frame"])
    @pytest.mark.parametrize("encode_first", [False, True])
    def test_copy_keeps_the_stack_and_shares_nothing_mutable(
            self, build, header, field, value, encode_first):
        pkt = build()
        wire = build().encode()
        if encode_first:
            pkt.encode()
        dup = pkt.copy()
        assert dup == pkt
        assert [type(h) for h in dup.headers] == \
            [type(h) for h in pkt.headers]
        assert all(a is not b for a, b in zip(dup.headers, pkt.headers))
        before = getattr(pkt[header], field)
        setattr(dup[header], field, value)
        assert dup.encode() == fresh_encode(dup) != wire
        assert getattr(pkt[header], field) == before
        assert pkt.encode() == wire

    def test_copy_keeps_trace_id(self):
        pkt = Ethernet() / b"x"
        pkt.trace_id = 7
        assert pkt.copy().trace_id == 7

    def test_copy_of_a_header_with_a_dict(self):
        class Tagged(Raw):  # no __slots__: regains a __dict__
            pass

        tagged = Tagged(b"ab")
        tagged.note = 1
        pkt = Ethernet() / tagged
        wire = pkt.encode()
        dup = pkt.copy()
        assert type(dup.headers[1]) is Tagged and dup.headers[1].note == 1
        dup.headers[1].data = b"cd"
        assert pkt.encode() == wire != dup.encode()

    def test_fields_of_a_dict_backed_subclass_keep_the_parent_slots(self):
        class Tagged(IPv4):  # no __slots__: a __dict__ beside IPv4's slots
            pass

        a = Tagged(src="1.1.1.1", dst="2.2.2.2", ttl=9)
        b = Tagged(src="1.1.1.1", dst="2.2.2.2", ttl=8)
        a.note = b.note = 1
        assert a.fields()["ttl"] == 9 and a.fields()["note"] == 1
        assert set(IPv4().fields()) < set(a.fields())
        assert a != b and "ttl=9" in repr(a)
        b.ttl = 9
        assert a == b


#: One step of the staleness property: (operation, which packet, value).
_STEPS = st.tuples(
    st.sampled_from([
        "encode", "len", "eq", "summary", "copy", "fork",
        "ttl", "dscp", "eth_src", "eth_dst", "ip_src", "ip_dst",
        "sport", "dport", "payload", "decrement_ttl",
        "push_vlan", "pop_vlan", "set_vlan",
    ]),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
)


class TestWireImage:
    def test_field_write_after_encode_is_seen(self):
        p = Ethernet() / IPv4() / UDP() / b"x"
        w = p.encode()
        p[IPv4].ttl = 3
        assert p.encode() != w and len(p) == len(w)
        assert Packet.decode(p.encode())[IPv4].ttl == 3

    def test_unchanged_packet_is_serialised_once(self, monkeypatch):
        calls = []
        real = IPv4.encode
        monkeypatch.setattr(
            IPv4, "encode",
            lambda self, following: calls.append(1) or real(self, following))
        p = Ethernet() / IPv4() / UDP() / b"x"
        wire = p.encode()
        assert (p.encode(), len(p), p == p.copy(), len(p.copy())) == \
            (wire, len(wire), True, len(wire))
        assert p.summary() == f"Ethernet/IPv4/UDP/Raw({len(wire)}B)"
        assert len(calls) == 1

    def test_decode_does_not_seed_the_image(self):
        # An IHL-6 header: decode accepts it, encode writes IHL 5.
        header = bytearray(IPv4(src="1.1.1.1", dst="2.2.2.2").encode(b""))
        header[0] = 0x46
        header += b"\x00" * 4
        header[10:12] = b"\x00\x00"
        header[10:12] = internet_checksum(bytes(header)).to_bytes(2, "big")
        pkt = Packet.decode(bytes(header), first=IPv4)
        assert pkt.encode() == fresh_encode(pkt) != bytes(header)

    @settings(max_examples=500, deadline=None)
    @given(steps=st.lists(_STEPS, max_size=24))
    def test_never_stale_under_interleaved_reads_and_writes(self, steps):
        shared_ip = IPv4(src="1.1.1.1", dst="2.2.2.2")
        packets = [
            (Ethernet(dst=MAC_B, src=MAC_A) / shared_ip
             / UDP(src_port=1, dst_port=2) / b"payload"),
            # Re-framed around the same IPv4 object, as Host._learn_arp
            # does with a queued transport stack.
            Ethernet(dst=MAC_A, src=MAC_B) / shared_ip / b"other",
        ]

        def write(pkt, header_type, name, value):
            header = pkt.get(header_type)
            if header is not None:
                setattr(header, name, value)

        for op, which, value in steps:
            pkt = packets[which]
            if op == "encode":
                pkt.encode()
            elif op == "len":
                len(pkt)
            elif op == "eq":
                assert (pkt == packets[1 - which]) == \
                    (fresh_encode(pkt) == fresh_encode(packets[1 - which]))
            elif op == "summary":
                assert pkt.summary().endswith(f"({len(fresh_encode(pkt))}B)")
            elif op == "copy":
                dup = pkt.copy()
                assert dup.encode() == fresh_encode(pkt)
                write(dup, Ethernet, "src", MACAddress(value))
                write(dup, IPv4, "ttl", (dup[IPv4].ttl + 1) % 256)
                assert dup.encode() == fresh_encode(dup)
            elif op == "fork":
                packets[which] = pkt.copy()
            elif op == "ttl":
                write(pkt, IPv4, "ttl", value % 256)
            elif op == "dscp":
                write(pkt, IPv4, "dscp", value % 64)
            elif op == "eth_src":
                write(pkt, Ethernet, "src", MACAddress(value))
            elif op == "eth_dst":
                write(pkt, Ethernet, "dst", MACAddress(value))
            elif op == "ip_src":
                write(pkt, IPv4, "src", IPv4Address(value))
            elif op == "ip_dst":
                write(pkt, IPv4, "dst", IPv4Address(value))
            elif op == "sport":
                write(pkt, UDP, "src_port", value % 65536)
            elif op == "dport":
                write(pkt, UDP, "dst_port", value % 65536)
            elif op == "payload":
                write(pkt, Raw, "data", value.to_bytes(value % 5 + 4, "big"))
            elif op == "decrement_ttl":
                pkt[IPv4].decrement_ttl()
            elif op == "push_vlan":
                PushVLAN(value % 4096).apply(pkt)
            elif op == "pop_vlan" and VLAN in pkt:
                PopVLAN().apply(pkt)
            elif op == "set_vlan" and VLAN in pkt:
                SetVLAN(value % 4096).apply(pkt)
            for each in packets:
                want = fresh_encode(each)
                assert each.encode() == want
                assert len(each) == len(want)


class TestChecksum:
    def test_rfc1071_example(self):
        # Classic example from RFC 1071 §3.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_odd_length_padded(self):
        assert internet_checksum(b"\xFF") == internet_checksum(b"\xFF\x00")

    def test_checksum_of_data_plus_checksum_is_zero(self):
        data = b"hello checksum world"
        csum = internet_checksum(data)
        assert internet_checksum(data + csum.to_bytes(2, "big")) == 0
