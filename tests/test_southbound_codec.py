"""ZOF wire-format tests: every message type roundtrips byte-exactly."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane import (
    Bucket,
    DecTTL,
    Group,
    GroupType,
    Match,
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
    VLAN_ABSENT,
)
from repro.dataplane.match import MATCH_FIELDS
from repro.errors import ProtocolError
from repro.packet import IPv4Address, IPv4Network, MACAddress
import repro.southbound.codec as codec_module
from repro.southbound import (
    NO_BUFFER,
    BarrierReply,
    BarrierRequest,
    ControllerRole,
    EchoReply,
    EchoRequest,
    Error,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    FlowStatsEntry,
    GroupMod,
    Hello,
    Message,
    MeterMod,
    ModCommand,
    PacketIn,
    PacketOut,
    PortDesc,
    PortStatus,
    RoleReply,
    RoleRequest,
    StatsKind,
    StatsReply,
    StatsRequest,
    decode_actions,
    decode_match,
    decode_message,
    encode_actions,
    encode_match,
    encode_message,
)

ALL_ACTIONS = [
    Output(3),
    SetEthSrc("00:11:22:33:44:55"),
    SetEthDst("66:77:88:99:aa:bb"),
    SetIPSrc("10.0.0.1"),
    SetIPDst("10.0.0.2"),
    SetL4Src(1234),
    SetL4Dst(80),
    SetDSCP(46),
    PushVLAN(100, pcp=5),
    PopVLAN(),
    SetVLAN(200),
    DecTTL(),
    Group(7),
    Meter(9),
]

RICH_MATCH = Match(
    in_port=4,
    eth_src="00:11:22:33:44:55",
    eth_dst="66:77:88:99:aa:bb",
    eth_type=0x0800,
    vlan_vid=42,
    ip_src="10.0.0.0/8",
    ip_dst="192.168.1.7",
    ip_proto=6,
    ip_dscp=10,
    l4_src=1000,
    l4_dst=2000,
)


def roundtrip(msg):
    return decode_message(encode_message(msg))


class TestMatchCodec:
    def test_rich_match_roundtrip(self):
        blob = encode_match(RICH_MATCH)
        out, used = decode_match(blob)
        assert used == len(blob)
        assert out == RICH_MATCH

    def test_wildcard_roundtrip(self):
        out, used = decode_match(encode_match(Match()))
        assert out == Match()
        assert used == 2

    def test_vlan_absent_roundtrip(self):
        out, _ = decode_match(encode_match(Match(vlan_vid=VLAN_ABSENT)))
        assert out.get("vlan_vid") == VLAN_ABSENT

    def test_prefix_preserved(self):
        out, _ = decode_match(encode_match(Match(ip_dst="10.1.0.0/16")))
        assert str(out.get("ip_dst")) == "10.1.0.0/16"

    def test_truncated_rejected(self):
        blob = encode_match(RICH_MATCH)
        with pytest.raises(ProtocolError):
            decode_match(blob[:-3])
        with pytest.raises(ProtocolError):
            decode_match(b"\x00")

    def test_unknown_field_id_rejected(self):
        with pytest.raises(ProtocolError):
            decode_match(b"\x00\x03\x63\x01\x00")  # field 99, len 1


class TestActionCodec:
    def test_every_action_roundtrips(self):
        blob = encode_actions(ALL_ACTIONS)
        out, used = decode_actions(blob)
        assert used == len(blob)
        assert out == ALL_ACTIONS

    def test_empty_list(self):
        out, used = decode_actions(encode_actions([]))
        assert out == [] and used == 2

    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolError):
            decode_actions(b"\x00\x02\x63\x00")  # action type 99


class TestMessageRoundtrips:
    @pytest.mark.parametrize("msg", [
        Hello(),
        Error(Error.TABLE_FULL, "table 0 full"),
        EchoRequest(b"ping"),
        EchoReply(b"pong"),
        FeaturesRequest(),
        FeaturesReply(dpid=42, num_tables=4, ports=[
            PortDesc(1, b"\x02\x00\x00\x00\x00\x01", True),
            PortDesc(2, b"\x02\x00\x00\x00\x00\x02", False),
        ]),
        PacketIn(in_port=3, reason="no_match", data=b"\x00" * 20),
        PacketIn(in_port=3, reason="action", data=b"\x00" * 20,
                 buffer_id=7),
        PacketOut(in_port=2, actions=[Output(1)], data=b"\xff" * 14),
        PacketOut(in_port=2, actions=[Output(1)], buffer_id=0xFFFFFFFE),
        FlowMod(command=FlowModCommand.ADD, table_id=2, match=RICH_MATCH,
                priority=77, actions=ALL_ACTIONS, idle_timeout=2.5,
                hard_timeout=60.0, cookie=0xDEAD, goto_table=3,
                flags=FlowMod.SEND_FLOW_REM),
        FlowMod(command=FlowModCommand.DELETE, match=Match()),
        FlowRemoved(table_id=1, match=RICH_MATCH, priority=7,
                    cookie=99, reason="hard_timeout", duration=12.5,
                    packet_count=1000, byte_count=64000),
        PortStatus("down", PortDesc(5, b"\x02\x00\x00\x00\x00\x05",
                                    False)),
        GroupMod(ModCommand.ADD, group_id=9,
                 group_type=GroupType.FAST_FAILOVER,
                 buckets=[
                     Bucket([Output(1)], watch_port=1, weight=3),
                     Bucket([Output(2)], watch_port=None, weight=1),
                 ]),
        MeterMod(ModCommand.MODIFY, meter_id=4, rate_bps=1e6,
                 burst_bytes=1500),
        StatsRequest(StatsKind.FLOW, table_id=2),
        StatsReply(StatsKind.PORT, [{
            "port": 1, "rx_packets": 10, "rx_bytes": 1000,
            "tx_packets": 20, "tx_bytes": 2000, "tx_drops": 3,
        }]),
        StatsReply(StatsKind.TABLE, [{
            "table_id": 0, "active": 5, "lookups": 100, "matches": 90,
        }]),
        StatsReply(StatsKind.AGGREGATE, [{
            "packets": 7, "bytes": 700, "flows": 3,
        }]),
        BarrierRequest(),
        BarrierReply(),
        RoleRequest(ControllerRole.PRIMARY, generation_id=12),
        RoleReply(ControllerRole.SECONDARY, generation_id=13),
    ])
    def test_roundtrip(self, msg):
        out = roundtrip(msg)
        assert out == msg

    def test_flow_stats_reply_roundtrip(self):
        reply = StatsReply(StatsKind.FLOW, [
            FlowStatsEntry(0, 10, 77, 1000, 64000, 3.5, RICH_MATCH),
            FlowStatsEntry(1, 20, 78, 1, 64, 0.5, Match()),
        ])
        out = roundtrip(reply)
        assert out.entries == reply.entries

    def test_xid_preserved(self):
        msg = EchoRequest(b"x")
        msg.xid = 1234
        assert roundtrip(msg).xid == 1234

    def test_goto_none_preserved(self):
        fm = FlowMod(goto_table=None)
        assert roundtrip(fm).goto_table is None
        fm2 = FlowMod(goto_table=0)
        assert roundtrip(fm2).goto_table == 0


class TestFraming:
    def test_bad_version_rejected(self):
        raw = bytearray(encode_message(Hello()))
        raw[0] = 99
        with pytest.raises(ProtocolError):
            decode_message(bytes(raw))

    def test_length_mismatch_rejected(self):
        raw = encode_message(EchoRequest(b"abc"))
        with pytest.raises(ProtocolError):
            decode_message(raw + b"extra")
        with pytest.raises(ProtocolError):
            decode_message(raw[:-1])

    def test_unknown_type_rejected(self):
        raw = bytearray(encode_message(Hello()))
        raw[1] = 200
        with pytest.raises(ProtocolError):
            decode_message(bytes(raw))

    def test_short_frame_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(b"\x01\x00")

    @given(data=st.binary(max_size=200),
           port=st.integers(min_value=0, max_value=2**32 - 1),
           reason=st.sampled_from(["no_match", "action", "ttl_expired"]))
    def test_packet_in_roundtrip_property(self, data, port, reason):
        msg = PacketIn(port, reason, data)
        out = roundtrip(msg)
        assert (out.in_port, out.reason, out.data) == (port, reason, data)


class TestBufferIdLayouts:
    def test_packet_in_layout(self):
        wire = encode_message(PacketIn(3, "action", b"frame", buffer_id=7))
        assert wire[10:] == struct.pack("!IBI", 3, 1, 7) + b"frame"

    def test_packet_out_layout(self):
        wire = encode_message(PacketOut(2, [Output(1)], buffer_id=7))
        assert wire[10:] == (struct.pack("!II", 2, 7)
                             + encode_actions([Output(1)]))

    def test_old_call_shapes_mean_no_buffer(self):
        assert PacketIn(in_port=1, data=b"x").buffer_id == NO_BUFFER
        out = PacketOut(1, [Output(2)], b"x")
        assert (out.data, out.buffer_id) == (b"x", NO_BUFFER)


# ----------------------------------------------------------------------
# The match codec against the code it replaced
# ----------------------------------------------------------------------
# The pre-table encode_match/decode_match and flowtable._exact_key,
# verbatim, as the oracle: the rewrite must produce the same bytes and
# the same matches.  (The exact key itself is gone — a fully-specified
# match is now the eleven-field shape of the classifier — so the oracle
# is compared with the match's masked values under that shape.)
_F = {name: i + 1 for i, name in enumerate(MATCH_FIELDS)}


def oracle_encode_match(match):
    body = bytearray()

    def tlv(field_id, value):
        body.append(field_id)
        body.append(len(value))
        body.extend(value)

    fields = match.fields
    if "in_port" in fields:
        tlv(_F["in_port"], struct.pack("!I", fields["in_port"]))
    if "eth_src" in fields:
        tlv(_F["eth_src"], fields["eth_src"].packed())
    if "eth_dst" in fields:
        tlv(_F["eth_dst"], fields["eth_dst"].packed())
    if "eth_type" in fields:
        tlv(_F["eth_type"], struct.pack("!H", fields["eth_type"]))
    if "vlan_vid" in fields:
        vid = fields["vlan_vid"]
        raw = 0xFFFF if vid == VLAN_ABSENT else vid
        tlv(_F["vlan_vid"], struct.pack("!H", raw))
    for name in ("ip_src", "ip_dst"):
        if name in fields:
            value = fields[name]
            if isinstance(value, IPv4Network):
                tlv(_F[name], value.address.packed()
                    + bytes([value.prefix_len]))
            else:
                tlv(_F[name], value.packed() + bytes([32]))
    if "ip_proto" in fields:
        tlv(_F["ip_proto"], bytes([fields["ip_proto"]]))
    if "ip_dscp" in fields:
        tlv(_F["ip_dscp"], bytes([fields["ip_dscp"]]))
    if "l4_src" in fields:
        tlv(_F["l4_src"], struct.pack("!H", fields["l4_src"]))
    if "l4_dst" in fields:
        tlv(_F["l4_dst"], struct.pack("!H", fields["l4_dst"]))
    return struct.pack("!H", len(body)) + bytes(body)


def oracle_decode_match(data):
    (body_len,) = struct.unpack_from("!H", data)
    end = 2 + body_len
    fields = {}
    offset = 2
    while offset < end:
        field_id, value_len = data[offset], data[offset + 1]
        offset += 2
        value = data[offset:offset + value_len]
        offset += value_len
        name = MATCH_FIELDS[field_id - 1]
        if name == "in_port":
            fields[name] = struct.unpack("!I", value)[0]
        elif name in ("eth_src", "eth_dst"):
            fields[name] = MACAddress(value)
        elif name in ("eth_type", "l4_src", "l4_dst"):
            fields[name] = struct.unpack("!H", value)[0]
        elif name == "vlan_vid":
            raw = struct.unpack("!H", value)[0]
            fields[name] = VLAN_ABSENT if raw == 0xFFFF else raw
        elif name in ("ip_src", "ip_dst"):
            addr, prefix_len = IPv4Address(value[:4]), value[4]
            fields[name] = (addr if prefix_len == 32
                            else IPv4Network(str(addr), prefix_len))
        else:
            fields[name] = value[0]
    return Match(**fields), end


def oracle_exact_key(match):
    fields = match.fields
    if len(fields) != len(MATCH_FIELDS):
        return None
    if isinstance(fields["ip_src"], IPv4Network):
        return None
    if isinstance(fields["ip_dst"], IPv4Network):
        return None
    return tuple(fields[name] for name in MATCH_FIELDS)


def exact_key(match):
    """What ``Match.exact_key`` was: the masked values when the shape is
    all eleven fields without a prefix, else ``None``."""
    shape, values = match.index()
    if shape.fields == tuple((name, None) for name in MATCH_FIELDS):
        return values
    return None


def oracle_hash(match):
    return hash(tuple(sorted(match.fields.items(), key=lambda kv: kv[0])))


_u8, _u16 = st.integers(0, 0xFF), st.integers(0, 0xFFFF)
_mac = st.integers(0, 2**48 - 1).map(MACAddress)
_ip = st.one_of(
    st.integers(0, 2**32 - 1).map(IPv4Address),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 31)).map(
        lambda pair: IPv4Network(str(IPv4Address(pair[0])), pair[1])),
)
_FIELD_VALUES = {
    "in_port": st.integers(0, 2**32 - 1),
    "eth_src": _mac,
    "eth_dst": _mac,
    "eth_type": _u16,
    "vlan_vid": st.one_of(st.just(VLAN_ABSENT), st.integers(0, 4095)),
    "ip_src": _ip,
    "ip_dst": _ip,
    "ip_proto": _u8,
    "ip_dscp": st.integers(0, 63),
    "l4_src": _u16,
    "l4_dst": _u16,
}
#: Every subset of the 11 fields; a quarter of the draws are full (all
#: fields, so exact unless an IP drew a prefix).
matches = st.one_of(
    st.fixed_dictionaries({}, optional=_FIELD_VALUES),
    st.fixed_dictionaries({}, optional=_FIELD_VALUES),
    st.fixed_dictionaries({}, optional=_FIELD_VALUES),
    st.fixed_dictionaries(_FIELD_VALUES),
).map(lambda fields: Match(**fields))


class TestMatchCodecAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(match=matches)
    def test_same_bytes_same_match_same_seal(self, match):
        blob = encode_match(match)
        assert blob == oracle_encode_match(match)
        decoded, used = decode_match(blob + b"trailing")
        assert used == len(blob)
        assert decoded == match == oracle_decode_match(blob)[0]
        assert list(decoded) == list(oracle_decode_match(blob)[0])
        for m in (match, decoded):
            assert hash(m) == oracle_hash(m)
            assert exact_key(m) == oracle_exact_key(m)

    @settings(max_examples=100, deadline=None)
    @given(match=matches)
    def test_exact_and_typed_constructors_agree_with_init(self, match):
        rebuilt = Match.from_typed(match.fields)
        assert rebuilt == match and hash(rebuilt) == hash(match)
        assert rebuilt.index()[0] is match.index()[0]  # interned shape
        assert rebuilt.index() == match.index()

    def test_full_exact_match_has_a_key_and_a_prefix_kills_it(self):
        fields = dict(
            in_port=1, eth_src="02:00:00:00:00:01",
            eth_dst="02:00:00:00:00:02", eth_type=0x0800,
            vlan_vid=VLAN_ABSENT, ip_src="10.0.0.1", ip_dst="10.0.0.2",
            ip_proto=17, ip_dscp=0, l4_src=5, l4_dst=6)
        exact = Match(**fields)
        assert exact_key(exact) is not None
        assert exact_key(exact) == oracle_exact_key(exact)
        assert exact.index()[1][1] == MACAddress("02:00:00:00:00:01")
        prefixed = Match(**dict(fields, ip_dst="10.0.0.0/24"))
        assert exact_key(prefixed) is None
        shape, values = prefixed.index()
        assert dict(shape.fields)["ip_dst"] == 0xFFFFFF00
        assert values[6] == 0x0A000000
        del fields["l4_dst"]
        assert exact_key(Match(**fields)) is None
        with pytest.raises(AttributeError):
            exact.index = ()

    @pytest.mark.parametrize("blob", [
        b"\x00\x01\x01",                    # TLV header truncated
        b"\x00\x04\x01\x04\x00\x00",        # value truncated
        b"\x00\x03\x63\x01\x00",            # unknown field id
        b"\x00\x05\x01\x03\x00\x00\x01",    # in_port with 3 bytes
        b"\x00\x04\x08\x02\x06\x00",        # ip_proto with 2 bytes
        b"\x00\x02\x08\x00",                # ip_proto with 0 bytes
        b"\x00\x07\x02\x05\x00\x00\x00\x00\x01",  # 5-byte MAC
        b"\x00\x07\x06\x05\x0a\x00\x00\x00\x21",  # prefix length 33
    ])
    def test_malformed_match_is_a_protocol_error(self, blob):
        with pytest.raises(ProtocolError):
            decode_match(blob)
        flow_mod = bytearray(encode_message(FlowMod()))
        flow_mod[-4:-2] = blob  # splice over the empty match
        flow_mod[2:6] = struct.pack("!I", len(flow_mod))
        with pytest.raises(ProtocolError):
            decode_message(bytes(flow_mod))


# ----------------------------------------------------------------------
# Mutation fuzzing: malformed bytes end in ProtocolError, nothing else
# ----------------------------------------------------------------------
_SEED_MESSAGES = [
    Hello(),
    Error(Error.BUFFER_UNKNOWN, "no live buffer 7"),
    EchoRequest(b"ping"),
    FeaturesReply(dpid=42, num_tables=4, ports=[
        PortDesc(1, b"\x02\x00\x00\x00\x00\x01", True)]),
    PacketIn(in_port=3, reason="no_match", data=b"\x01" * 20, buffer_id=9),
    PacketIn(in_port=3, reason="action", data=b"\x01" * 20),
    PacketOut(in_port=2, actions=[Output(1)], buffer_id=9),
    PacketOut(in_port=2, actions=ALL_ACTIONS, data=b"\xff" * 14),
    FlowMod(command=FlowModCommand.ADD, table_id=2, match=RICH_MATCH,
            priority=77, actions=ALL_ACTIONS, idle_timeout=2.5,
            goto_table=3, flags=FlowMod.SEND_FLOW_REM),
    FlowRemoved(table_id=1, match=RICH_MATCH, priority=7, cookie=99,
                reason="hard_timeout", duration=12.5),
    PortStatus("down", PortDesc(5, b"\x02\x00\x00\x00\x00\x05", False)),
    GroupMod(ModCommand.ADD, group_id=9, group_type=GroupType.SELECT,
             buckets=[Bucket([Output(1)], watch_port=1, weight=3)]),
    MeterMod(ModCommand.MODIFY, meter_id=4, rate_bps=1e6, burst_bytes=1500),
    StatsRequest(StatsKind.FLOW, table_id=2),
    StatsReply(StatsKind.FLOW, [
        FlowStatsEntry(0, 10, 77, 1000, 64000, 3.5, RICH_MATCH)]),
    StatsReply(StatsKind.PORT, [{
        "port": 1, "rx_packets": 10, "rx_bytes": 1000,
        "tx_packets": 20, "tx_bytes": 2000, "tx_drops": 3}]),
    BarrierRequest(),
    RoleRequest(ControllerRole.PRIMARY, generation_id=12),
]


def _mutate(draw, wire: bytearray) -> None:
    """Flip, truncate or extend ``wire`` in place, one to four times."""
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("flip", "truncate", "extend")))
        if kind == "flip" and wire:
            wire[draw(st.integers(0, len(wire) - 1))] = draw(_u8)
        elif kind == "truncate" and wire:
            del wire[draw(st.integers(0, len(wire) - 1)):]
        else:
            wire += draw(st.binary(min_size=1, max_size=8))


@st.composite
def mutated_frames(draw):
    wire = bytearray(encode_message(draw(st.sampled_from(_SEED_MESSAGES))))
    _mutate(draw, wire)
    if draw(st.booleans()) and len(wire) >= 10:
        # Keep the frame-length field honest so the mutation reaches
        # the body decoders instead of dying at the framing check.
        wire[2:6] = struct.pack("!I", len(wire))
    return bytes(wire)


@st.composite
def mutated_match_blobs(draw):
    wire = bytearray(encode_match(draw(matches)))
    _mutate(draw, wire)
    if draw(st.booleans()) and len(wire) >= 2:
        wire[0:2] = struct.pack("!H", len(wire) - 2)
    return bytes(wire)


class TestMutationFuzz:
    @settings(max_examples=1500, deadline=None)
    @given(wire=mutated_frames())
    def test_decode_returns_a_message_or_a_protocol_error(self, wire):
        # Never struct.error, IndexError, KeyError, ValueError, ...
        try:
            msg = decode_message(wire)
        except ProtocolError:
            return
        assert isinstance(msg, Message)

    @settings(max_examples=500, deadline=None)
    @given(blob=mutated_match_blobs())
    def test_decode_match_names_its_own_errors(self, blob):
        # Called directly there is no decode_message to wrap a stray
        # struct.error or AddressError: the table checks every length.
        try:
            match, used = decode_match(blob)
        except ProtocolError:
            return
        assert used <= len(blob) and hash(match) == oracle_hash(match)


# ----------------------------------------------------------------------
# The compiled match encoder and the parse-once memos
# ----------------------------------------------------------------------
#: PROTOCOL.md §4.1 as a table: field id, name, value layout.
_SECTION_4_1 = (
    (1, "in_port", "u32"), (2, "eth_src", "mac"), (3, "eth_dst", "mac"),
    (4, "eth_type", "u16"), (5, "vlan_vid", "vlan"), (6, "ip_src", "ip"),
    (7, "ip_dst", "ip"), (8, "ip_proto", "u8"), (9, "ip_dscp", "u8"),
    (10, "l4_src", "u16"), (11, "l4_dst", "u16"),
)


def reference_encode_match(match):
    """A u16 byte count, then ``field_id u8 | value_len u8 | value`` in
    id order, written from the table alone."""
    body = b""
    for field_id, name, layout in _SECTION_4_1:
        if name not in match:
            continue
        value = match.get(name)
        if layout == "mac":
            raw = value.value.to_bytes(6, "big")
        elif layout == "ip":
            if isinstance(value, IPv4Network):
                raw = (value.address.value.to_bytes(4, "big")
                       + bytes([value.prefix_len]))
            else:
                raw = value.value.to_bytes(4, "big") + bytes([32])
        elif layout == "vlan":
            raw = (0xFFFF if value == VLAN_ABSENT else value).to_bytes(2, "big")
        else:
            raw = value.to_bytes({"u8": 1, "u16": 2, "u32": 4}[layout], "big")
        body += bytes([field_id, len(raw)]) + raw
    return len(body).to_bytes(2, "big") + body


@st.composite
def shuffled_matches(draw):
    """A match over any subset of the fields, built in a random order."""
    fields = draw(st.fixed_dictionaries({}, optional=_FIELD_VALUES))
    order = draw(st.permutations(sorted(fields)))
    return Match(**{name: fields[name] for name in order})


@st.composite
def malformed_match_blobs(draw):
    """A valid blob broken in one of the ways §4.1 says MUST fail."""
    blob = encode_match(draw(shuffled_matches()))
    fault = draw(st.sampled_from(
        ("prefix", "body", "tlv_header", "tlv_value", "field_id", "size")))
    if fault == "prefix":
        return blob[:draw(st.integers(0, 1))]
    if fault == "body":  # the count promises a byte more than follows
        return blob[:-1] if len(blob) > 2 else struct.pack("!H", 1)
    if fault == "tlv_header":  # the count ends one byte into a header
        tail = b"\x01"
    elif fault == "tlv_value":  # an in_port value runs past the count
        tail = b"\x01\x04\x00"
    elif fault == "field_id":
        tail = bytes([draw(st.one_of(st.just(0), st.integers(12, 255))), 0])
    else:  # a known field with a value size that is not its own
        field_id, _name, layout = draw(st.sampled_from(_SECTION_4_1))
        size = {"u8": 1, "u16": 2, "u32": 4, "mac": 6, "vlan": 2,
                "ip": 5}[layout]
        wrong = draw(st.integers(0, 8).filter(lambda n: n != size))
        tail = bytes([field_id, wrong]) + b"\x00" * wrong
    body = blob[2:] + tail
    return struct.pack("!H", len(body)) + body


class TestCompiledMatchCodec:
    @settings(max_examples=400, deadline=None)
    @given(match=shuffled_matches())
    def test_compiled_encoder_is_section_4_1_and_round_trips(self, match):
        blob = encode_match(match)
        assert blob == reference_encode_match(match)
        assert encode_match(match) == blob  # the memoised bytes too
        for _ in range(2):  # parsed, then served by the memo
            decoded, used = decode_match(blob + b"tail")
            assert used == len(blob) and decoded == match
            assert hash(decoded) == hash(match)

    @settings(max_examples=400, deadline=None)
    @given(blob=malformed_match_blobs())
    def test_a_malformed_blob_fails_every_time_it_comes(self, blob):
        memo = codec_module._MATCH_OF
        hits = memo.hits
        for _ in range(2):
            with pytest.raises(ProtocolError):
                decode_match(blob)
        assert memo.hits == hits  # a failure is never served, or kept

    def test_no_memo_outgrows_its_bound(self):
        memos = (codec_module._WIRE_OF, codec_module._MATCH_OF)
        assert all(m.size == codec_module.MATCH_MEMO_SIZE for m in memos)
        for port in range(codec_module.MATCH_MEMO_SIZE + 300):
            match = Match(in_port=port, eth_type=0x0800)
            assert decode_match(encode_match(match))[0] == match
            assert all(len(m) <= m.size for m in memos)
        assert all(len(m) == m.size for m in memos)


class TestFrameCache:
    def test_the_oldest_value_goes_first(self):
        cache = codec_module.FrameCache(2)
        built = []

        def build(key):
            built.append(key)
            return key * 10

        assert [cache.get(k, build, k) for k in (1, 2, 1, 3, 1)] == [
            10, 20, 10, 30, 10]
        assert built == [1, 2, 3, 1] and len(cache) == 2
        assert (cache.hits, cache.misses) == (1, 4)

    def test_a_builder_that_raises_stores_nothing(self):
        cache = codec_module.FrameCache(4)

        def fail():
            raise ProtocolError("bad")

        for _ in range(2):
            with pytest.raises(ProtocolError):
                cache.get("k", fail)
        assert len(cache) == 0 and cache.misses == 2

    def test_a_cache_holds_something(self):
        with pytest.raises(ValueError):
            codec_module.FrameCache(0)
