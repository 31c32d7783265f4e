"""Deep property-based tests across layer boundaries.

Three families:

* codec totality — randomly generated matches, action lists, and flow
  mods survive the ZOF wire format unchanged;
* match algebra — intersect/subset/overlap behave like the set
  operations they model, on randomly generated patterns and keys;
* decoder robustness — hostile bytes fail only with ``ProtocolError``.
"""

from hypothesis import given, strategies as st

from repro.dataplane import FlowKey, Match, Output
from repro.dataplane.actions import (
    DecTTL,
    Group,
    Meter,
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
from repro.packet import Ethernet, IPv4, IPv4Address, MACAddress, UDP
from repro.southbound import (
    FlowMod,
    decode_actions,
    decode_match,
    decode_message,
    encode_actions,
    encode_match,
    encode_message,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
macs = st.integers(min_value=0, max_value=(1 << 48) - 1).map(MACAddress)
ips = st.integers(min_value=0, max_value=(1 << 32) - 1).map(IPv4Address)
ports = st.integers(min_value=0, max_value=65535)


@st.composite
def matches(draw):
    fields = {}
    if draw(st.booleans()):
        fields["in_port"] = draw(st.integers(min_value=1, max_value=64))
    if draw(st.booleans()):
        fields["eth_src"] = draw(macs)
    if draw(st.booleans()):
        fields["eth_dst"] = draw(macs)
    if draw(st.booleans()):
        fields["eth_type"] = draw(st.sampled_from([0x0800, 0x0806,
                                                   0x88CC]))
    if draw(st.booleans()):
        fields["vlan_vid"] = draw(st.integers(min_value=-1,
                                              max_value=4095))
    for name in ("ip_src", "ip_dst"):
        if draw(st.booleans()):
            if draw(st.booleans()):
                prefix = draw(st.integers(min_value=0, max_value=31))
                fields[name] = f"{draw(ips)}/{prefix}"
            else:
                fields[name] = draw(ips)
    if draw(st.booleans()):
        fields["ip_proto"] = draw(st.integers(min_value=0, max_value=255))
    if draw(st.booleans()):
        fields["ip_dscp"] = draw(st.integers(min_value=0, max_value=63))
    if draw(st.booleans()):
        fields["l4_src"] = draw(ports)
    if draw(st.booleans()):
        fields["l4_dst"] = draw(ports)
    return Match(**fields)


actions_strategy = st.lists(st.one_of(
    st.builds(Output, st.integers(min_value=1, max_value=1000)),
    st.builds(SetEthSrc, macs),
    st.builds(SetEthDst, macs),
    st.builds(SetIPSrc, ips),
    st.builds(SetIPDst, ips),
    st.builds(SetL4Src, ports),
    st.builds(SetL4Dst, ports),
    st.builds(SetDSCP, st.integers(min_value=0, max_value=63)),
    st.builds(PushVLAN, st.integers(min_value=0, max_value=4095),
              st.integers(min_value=0, max_value=7)),
    st.builds(PopVLAN),
    st.builds(SetVLAN, st.integers(min_value=0, max_value=4095)),
    st.builds(DecTTL),
    st.builds(Group, st.integers(min_value=0, max_value=1 << 31)),
    st.builds(Meter, st.integers(min_value=0, max_value=1 << 31)),
), max_size=8)


class TestCodecTotality:
    @given(match=matches())
    def test_match_roundtrip(self, match):
        out, used = decode_match(encode_match(match))
        assert out == match

    @given(actions=actions_strategy)
    def test_actions_roundtrip(self, actions):
        out, used = decode_actions(encode_actions(actions))
        assert out == actions

    @given(match=matches(), actions=actions_strategy,
           priority=ports,
           idle=st.floats(min_value=0, max_value=1e6),
           hard=st.floats(min_value=0, max_value=1e6),
           cookie=st.integers(min_value=0, max_value=(1 << 64) - 1),
           goto=st.one_of(st.none(),
                          st.integers(min_value=0, max_value=254)),
           flags=st.integers(min_value=0, max_value=255))
    def test_flowmod_roundtrip(self, match, actions, priority, idle,
                               hard, cookie, goto, flags):
        msg = FlowMod(match=match, actions=actions, priority=priority,
                      idle_timeout=idle, hard_timeout=hard,
                      cookie=cookie, goto_table=goto, flags=flags)
        out = decode_message(encode_message(msg))
        assert out == msg


@st.composite
def keys(draw):
    pkt = (
        Ethernet(dst=draw(macs), src=draw(macs))
        / IPv4(src=draw(ips), dst=draw(ips),
               dscp=draw(st.integers(min_value=0, max_value=63)))
        / UDP(src_port=draw(ports), dst_port=draw(ports))
        / b""
    )
    return FlowKey.from_packet(
        pkt, in_port=draw(st.integers(min_value=1, max_value=64)))


class TestMatchAlgebra:
    @given(a=matches(), b=matches(), key=keys())
    def test_intersection_is_conjunction(self, a, b, key):
        both = a.intersect(b)
        if both is not None and both.matches(key):
            assert a.matches(key) and b.matches(key)
        if a.matches(key) and b.matches(key):
            assert both is not None
            assert both.matches(key)

    @given(a=matches(), b=matches(), key=keys())
    def test_subset_implies_implication(self, a, b, key):
        if a.is_subset_of(b) and a.matches(key):
            assert b.matches(key)

    @given(a=matches(), b=matches())
    def test_nonoverlap_means_empty_intersection(self, a, b):
        if not a.overlaps(b):
            assert a.intersect(b) is None

    @given(m=matches())
    def test_wildcard_is_identity_for_intersect(self, m):
        assert m.intersect(Match()) == m
        assert Match().intersect(m) == m

    # -- the laws the repro.check reachability engine leans on ---------
    @given(a=matches(), b=matches(), key=keys())
    def test_intersect_matches_key_iff_both_match(self, a, b, key):
        # Full biconditional: the intersection's matched set is exactly
        # the conjunction of the operands' matched sets (and a None
        # intersection means that conjunction is empty).
        both = a.intersect(b)
        lhs = both is not None and both.matches(key)
        rhs = a.matches(key) and b.matches(key)
        assert lhs == rhs

    @given(a=matches(), b=matches())
    def test_overlaps_iff_intersection_nonempty(self, a, b):
        assert a.overlaps(b) == (a.intersect(b) is not None)
        assert a.overlaps(b) == b.overlaps(a)

    @given(a=matches(), b=matches())
    def test_intersection_is_a_lower_bound(self, a, b):
        both = a.intersect(b)
        if both is not None:
            assert both.is_subset_of(a)
            assert both.is_subset_of(b)

    @given(a=matches(), b=matches(), c=matches(), key=keys())
    def test_subset_is_a_preorder(self, a, b, c, key):
        assert a.is_subset_of(a)
        if a.is_subset_of(b) and b.is_subset_of(c):
            assert a.is_subset_of(c)
            if a.matches(key):
                assert c.matches(key)


class TestDecoderRobustness:
    """Hostile input never escapes as anything but ProtocolError."""

    @given(data=st.binary(max_size=120))
    def test_random_bytes_fail_cleanly(self, data):
        from repro.errors import ProtocolError

        try:
            decode_message(data)
        except ProtocolError:
            pass  # the only acceptable failure mode

    @given(msg_type=st.integers(min_value=0, max_value=255),
           body=st.binary(max_size=60),
           xid=st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_valid_frame_bad_body_fails_cleanly(self, msg_type, body,
                                                xid):
        import struct

        from repro.errors import ProtocolError

        frame = struct.pack("!BBII", 1, msg_type, 10 + len(body),
                            xid) + body
        try:
            decode_message(frame)
        except ProtocolError:
            pass

    @given(match=matches(), actions=actions_strategy,
           cut=st.integers(min_value=0, max_value=30))
    def test_truncated_flowmod_fails_cleanly(self, match, actions, cut):
        from repro.errors import ProtocolError

        wire = encode_message(FlowMod(match=match, actions=actions))
        truncated = wire[:max(len(wire) - cut, 0)]
        if not truncated:
            return
        # Patch the length field so framing passes and body parsing is
        # what gets exercised.
        import struct

        patched = (truncated[:2]
                   + struct.pack("!I", len(truncated))
                   + truncated[6:])
        try:
            decode_message(patched)
        except ProtocolError:
            pass
