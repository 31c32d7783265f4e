"""Match and FlowKey semantics: the correctness core of the dataplane."""

import pytest
from hypothesis import given, strategies as st

from repro.dataplane import MATCH_FIELDS, FlowKey, Match, VLAN_ABSENT
from repro.errors import DataplaneError
from repro.packet import (
    ARP,
    Ethernet,
    ICMP,
    IPv4,
    IPv4Address,
    TCP,
    UDP,
    VLAN,
)

MAC_A = "00:00:00:00:00:0a"
MAC_B = "00:00:00:00:00:0b"


def udp_key(**overrides):
    pkt = (Ethernet(dst=MAC_B, src=MAC_A)
           / IPv4(src="10.0.0.1", dst="10.0.1.2", dscp=10)
           / UDP(src_port=1000, dst_port=2000) / b"")
    key = FlowKey.from_packet(pkt, in_port=3)
    for name, value in overrides.items():
        setattr(key, name, value)
    return key


class TestFlowKeyExtraction:
    def test_udp_fields(self):
        key = udp_key()
        assert key.in_port == 3
        assert key.eth_src == MAC_A
        assert key.eth_dst == MAC_B
        assert key.eth_type == 0x0800
        assert key.vlan_vid == VLAN_ABSENT
        assert key.ip_src == "10.0.0.1"
        assert key.ip_dst == "10.0.1.2"
        assert key.ip_proto == 17
        assert key.ip_dscp == 10
        assert (key.l4_src, key.l4_dst) == (1000, 2000)

    def test_tcp_ports_extracted(self):
        pkt = Ethernet() / IPv4() / TCP(src_port=5, dst_port=6) / b""
        key = FlowKey.from_packet(pkt)
        assert (key.l4_src, key.l4_dst) == (5, 6)

    def test_icmp_type_code_ride_l4(self):
        pkt = Ethernet() / IPv4() / ICMP(8, 0) / b""
        key = FlowKey.from_packet(pkt)
        assert (key.l4_src, key.l4_dst) == (8, 0)

    def test_arp_fields_ride_ip(self):
        pkt = Ethernet() / ARP(opcode=ARP.REQUEST,
                               sender_ip="10.0.0.1",
                               target_ip="10.0.0.9")
        key = FlowKey.from_packet(pkt)
        assert key.ip_src == "10.0.0.1"
        assert key.ip_dst == "10.0.0.9"
        assert key.ip_proto == ARP.REQUEST
        assert key.l4_src is None

    def test_vlan_inner_ethertype(self):
        pkt = (Ethernet() / VLAN(vid=7) / IPv4(src="1.1.1.1",
                                               dst="2.2.2.2") / b"")
        key = FlowKey.from_packet(pkt)
        assert key.vlan_vid == 7
        assert key.eth_type == 0x0800  # the inner protocol, not 0x8100


class TestMatchSemantics:
    def test_wildcard_matches_everything(self):
        assert Match().matches(udp_key())
        assert Match().is_wildcard

    def test_exact_field_match(self):
        assert Match(l4_dst=2000).matches(udp_key())
        assert not Match(l4_dst=2001).matches(udp_key())

    def test_missing_field_never_matches(self):
        arp_key = FlowKey.from_packet(Ethernet() / ARP())
        assert not Match(l4_dst=0).matches(arp_key)

    def test_ip_prefix_match(self):
        assert Match(ip_dst="10.0.1.0/24").matches(udp_key())
        assert not Match(ip_dst="10.0.2.0/24").matches(udp_key())

    def test_vlan_absent_matches_untagged_only(self):
        assert Match(vlan_vid=VLAN_ABSENT).matches(udp_key())
        assert not Match(vlan_vid=5).matches(udp_key())
        tagged = udp_key(vlan_vid=5)
        assert Match(vlan_vid=5).matches(tagged)
        assert not Match(vlan_vid=VLAN_ABSENT).matches(tagged)

    def test_unknown_field_rejected(self):
        with pytest.raises(DataplaneError):
            Match(bogus=1)

    @pytest.mark.parametrize("field, bad, edges", [
        ("in_port", 1 << 32, (0, 0xFFFFFFFF)),
        ("eth_type", -1, (0, 0xFFFF)),
        ("vlan_vid", 65535, (0, 4095, VLAN_ABSENT)),
        ("ip_proto", 300, (0, 255)),
        ("ip_dscp", 64, (0, 63)),
        ("l4_src", 70000, (0, 0xFFFF)),
        ("l4_dst", 70000, (0, 0xFFFF)),
    ])
    def test_an_integer_field_holds_what_its_wire_field_holds(
            self, field, bad, edges):
        for value in edges:
            assert Match(**{field: value}).get(field) == value
        for value in (bad, "3", 2.0, True):
            with pytest.raises(DataplaneError, match=field):
                Match(**{field: value})

    def test_exact_from_key_matches_its_packet(self):
        key = udp_key()
        assert Match.exact(key).matches(key)

    def test_exact_equals_the_keyword_construction(self):
        for key in (udp_key(), FlowKey.from_packet(Ethernet() / ARP(), 3),
                    FlowKey(eth_src=MAC_A, ip_dst="10.0.1.7")):
            fields = {k: v for k, v in key.as_dict().items()
                      if v is not None}
            exact, built = Match.exact(key), Match(**fields)
            assert exact == built and hash(exact) == hash(built)
            assert list(exact) == list(built)
            assert exact.index()[0] is built.index()[0]  # interned shape
            assert exact.index() == built.index()
        # A full key is the eleven-field shape, no masks, and its masked
        # values are the key's own projection; a literal is normalised.
        shape, values = Match.exact(udp_key()).index()
        assert shape.fields == tuple((f, None) for f in MATCH_FIELDS)
        assert values == shape.project(udp_key())
        literal = Match.exact(FlowKey(eth_src=MAC_A, ip_dst="10.0.1.7"))
        assert literal.get("eth_src").value and literal.get("ip_dst").value

    def test_matches_packet_convenience(self):
        pkt = Ethernet(dst=MAC_B, src=MAC_A) / IPv4() / UDP() / b""
        assert Match(eth_dst=MAC_B).matches_packet(pkt)

    def test_equality_and_hash(self):
        a = Match(eth_dst=MAC_B, ip_dst="10.0.0.0/8")
        b = Match(ip_dst="10.0.0.0/8", eth_dst=MAC_B)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_none_fields_ignored(self):
        assert Match(eth_dst=None) == Match()


class TestSubsetOverlapIntersect:
    def test_subset_basics(self):
        narrow = Match(eth_dst=MAC_B, l4_dst=80)
        wide = Match(eth_dst=MAC_B)
        assert narrow.is_subset_of(wide)
        assert not wide.is_subset_of(narrow)
        assert narrow.is_subset_of(Match())

    def test_subset_with_prefixes(self):
        assert Match(ip_dst="10.0.1.0/24").is_subset_of(
            Match(ip_dst="10.0.0.0/8"))
        assert not Match(ip_dst="10.0.0.0/8").is_subset_of(
            Match(ip_dst="10.0.1.0/24"))
        assert Match(ip_dst="10.0.1.5").is_subset_of(
            Match(ip_dst="10.0.1.0/24"))

    def test_overlap(self):
        assert Match(eth_dst=MAC_B).overlaps(Match(l4_dst=80))
        assert not Match(l4_dst=80).overlaps(Match(l4_dst=443))
        assert Match(ip_dst="10.0.0.0/8").overlaps(
            Match(ip_dst="10.0.1.0/24"))
        assert not Match(ip_dst="10.0.0.0/8").overlaps(
            Match(ip_dst="11.0.0.0/8"))

    def test_intersect_merges_fields(self):
        merged = Match(eth_dst=MAC_B).intersect(Match(l4_dst=80))
        assert merged == Match(eth_dst=MAC_B, l4_dst=80)

    def test_intersect_conflict_is_none(self):
        assert Match(l4_dst=80).intersect(Match(l4_dst=443)) is None

    def test_intersect_prefixes_takes_longer(self):
        merged = Match(ip_dst="10.0.0.0/8").intersect(
            Match(ip_dst="10.0.1.0/24"))
        assert merged == Match(ip_dst="10.0.1.0/24")

    def test_intersect_prefix_with_exact(self):
        merged = Match(ip_dst="10.0.0.0/8").intersect(
            Match(ip_dst="10.0.1.5"))
        assert merged == Match(ip_dst="10.0.1.5")
        assert Match(ip_dst="11.0.0.0/8").intersect(
            Match(ip_dst="10.0.1.5")) is None

    def test_specificity_ordering(self):
        assert Match().specificity == 0
        assert (Match(ip_dst="10.0.0.0/8").specificity
                < Match(ip_dst="10.0.1.0/24").specificity
                < Match(ip_dst="10.0.1.0/24", l4_dst=80).specificity)

    @given(port=st.integers(min_value=0, max_value=65535),
           prefix=st.integers(min_value=0, max_value=32))
    def test_intersect_with_self_is_identity(self, port, prefix):
        m = Match(l4_dst=port, ip_dst=f"10.1.2.3/{prefix}"
                  if prefix < 32 else "10.1.2.3")
        assert m.intersect(m) == m
        assert m.is_subset_of(m)
        assert m.overlaps(m)

    @given(
        data=st.data(),
    )
    def test_subset_implies_matching_agreement(self, data):
        """If a ⊆ b, every key matched by a must be matched by b."""
        fields = {}
        if data.draw(st.booleans()):
            fields["l4_dst"] = data.draw(
                st.integers(min_value=0, max_value=65535))
        if data.draw(st.booleans()):
            prefix = data.draw(st.integers(min_value=8, max_value=32))
            fields["ip_dst"] = (
                f"10.0.1.2/{prefix}" if prefix < 32 else "10.0.1.2"
            )
        narrow = Match(l4_dst=2000, ip_dst="10.0.1.2")
        wide = Match(**fields)
        key = udp_key(ip_dst=IPv4Address("10.0.1.2"))
        if narrow.is_subset_of(wide) and narrow.matches(key):
            assert wide.matches(key)
