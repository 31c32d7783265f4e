"""The memo beside a packet's wire image (``Packet.read``), pinned
against the extraction it replaces.

``FlowKey.from_packet`` is the oracle: whatever a datapath is told about
a frame — its size, its match fields, its cache probe — must be what a
fresh look at the headers would say at that moment, however reads,
writes, copies and rewrites interleave.
"""

from hypothesis import given, settings, strategies as st

from repro.dataplane import (
    DecTTL,
    PopVLAN,
    PushVLAN,
    SetDSCP,
    SetEthDst,
    SetIPDst,
    SetIPSrc,
    SetL4Dst,
    SetL4Src,
    SetVLAN,
)
from repro.dataplane.actions import TTLExpired, apply_actions
from repro.dataplane.match import MATCH_FIELDS, FlowKey, wire_fields
from repro.errors import DataplaneError
from repro.packet import (
    ARP,
    ICMP,
    TCP,
    UDP,
    VLAN,
    Ethernet,
    ICMPType,
    IPv4,
    IPv4Address,
    MACAddress,
    Packet,
)

from tests.test_packets import fresh_encode

MAC_A, MAC_B = "00:00:00:00:00:01", "00:00:00:00:00:02"
HEADER_FIELDS = MATCH_FIELDS[1:]


def _mac(v):
    return MACAddress(v % (1 << 48))


def _ip(v):
    return IPv4Address(v % (1 << 32))


def _mod(n):
    return lambda v: v % n


def _ethertype(v):
    return (0x0800, 0x0806, 0x8100, 0x88B5)[v % 4]


#: Every field of every header a flow key reads, and a value for it.
WRITES = {
    Ethernet: {"dst": _mac, "src": _mac, "ethertype": _ethertype},
    VLAN: {"vid": _mod(4096), "pcp": _mod(8), "dei": _mod(2),
           "ethertype": _ethertype},
    IPv4: {"src": _ip, "dst": _ip, "proto": _mod(256), "ttl": _mod(256),
           "dscp": _mod(64), "ecn": _mod(4), "ident": _mod(1 << 16),
           "flags": _mod(8), "frag_offset": _mod(1 << 13)},
    ARP: {"opcode": lambda v: v % 2 + 1, "sender_mac": _mac,
          "sender_ip": _ip, "target_mac": _mac, "target_ip": _ip},
    UDP: {"src_port": _mod(1 << 16), "dst_port": _mod(1 << 16)},
    TCP: {"src_port": _mod(1 << 16), "dst_port": _mod(1 << 16),
          "seq": _mod(1 << 32), "ack": _mod(1 << 32), "flags": _mod(64),
          "window": _mod(1 << 16), "urgent": _mod(1 << 16)},
    ICMP: {"icmp_type": _mod(256), "code": _mod(256),
           "ident": _mod(1 << 16), "seq": _mod(1 << 16)},
}

ACTIONS = (
    lambda v: SetEthDst(_mac(v)),
    lambda v: SetIPSrc(_ip(v)),
    lambda v: SetIPDst(_ip(v)),
    lambda v: SetL4Src(v % (1 << 16)),
    lambda v: SetL4Dst(v % (1 << 16)),
    lambda v: SetDSCP(v % 64),
    lambda v: PushVLAN(v % 4096),
    lambda v: PopVLAN(),
    lambda v: SetVLAN(v % 4096),
    lambda v: DecTTL(),
)

OPS = ("read", "read", "write", "write", "insert", "remove", "copy",
       "reframe", "action", "action")
_STEPS = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 63), st.integers(0, 63),
              st.integers(0, (1 << 48) - 1)),
    max_size=30)
POOL_MAX = 6


def _pool():
    eth = dict(dst=MAC_B, src=MAC_A)
    return [
        Ethernet(**eth) / IPv4(src="10.0.0.1", dst="10.0.0.2", ttl=3)
        / UDP(src_port=1, dst_port=2) / b"payload",
        Ethernet(**eth) / VLAN(vid=7) / IPv4(src="10.0.0.1", dst="10.0.0.3")
        / TCP(src_port=80, dst_port=81) / b"x",
        Ethernet(**eth) / IPv4(src="10.0.0.4", dst="10.0.0.2")
        / ICMP(ICMPType.ECHO_REQUEST, ident=1, seq=2) / b"ping",
        Ethernet(**eth) / ARP(opcode=ARP.REQUEST, sender_mac=MAC_A,
                              sender_ip="10.0.0.1", target_ip="10.0.0.2"),
    ]


def check_read(packet: Packet) -> None:
    size, (typed, probe) = packet.read(wire_fields)
    want = FlowKey.from_packet(packet)
    assert dict(zip(HEADER_FIELDS, typed)) == \
        {name: getattr(want, name) for name in HEADER_FIELDS}
    assert FlowKey(9, *typed) == FlowKey.from_packet(packet, 9)
    assert probe == tuple(getattr(v, "value", v) for v in typed)
    assert size == len(fresh_encode(packet)) == len(packet)


def drive(steps) -> list:
    """Run ``steps`` over a pool of packets, checking every read."""
    pool = _pool()

    def keep(packet):
        if len(pool) < POOL_MAX:
            pool.append(packet)
        else:
            pool[len(packet.headers) % POOL_MAX] = packet

    for op, which, pick, value in steps:
        packet = pool[which % len(pool)]
        headers = packet.headers
        if op == "read":
            check_read(packet)
        elif op == "write":
            header = headers[pick % len(headers)]
            fields = WRITES.get(type(header))
            if fields:
                name = sorted(fields)[value % len(fields)]
                setattr(header, name, fields[name](value >> 4))
        elif op == "insert":
            headers.insert(min(1, len(headers)), VLAN(vid=value % 4096))
        elif op == "remove" and len(headers) > 1:
            del headers[pick % len(headers)]
        elif op == "copy":
            keep(packet.copy())
        elif op == "reframe":
            # A second packet around the same header objects, as
            # Host._learn_arp frames a queued transport stack: a write
            # through either is a write to both.
            keep(Packet([Ethernet(dst=_mac(value), src=MAC_B)]
                        + headers[1:]))
        elif op == "action":
            before = fresh_encode(packet)
            try:
                rewritten, _, _, _ = apply_actions(
                    [ACTIONS[pick % len(ACTIONS)](value)], packet)
            except (DataplaneError, TTLExpired):
                continue  # not that kind of packet, or it died
            assert rewritten is not packet
            assert fresh_encode(packet) == before  # copy-on-rewrite
            keep(rewritten)
    return pool


@settings(max_examples=400, deadline=None)
@given(steps=_STEPS)
def test_a_read_is_never_stale(steps):
    for packet in drive(steps):
        check_read(packet)
        check_read(packet)


@settings(max_examples=300, deadline=None)
@given(steps=_STEPS)
def test_packets_that_share_a_memo_agree_on_every_match_field(steps):
    pool = drive(steps)
    keys = []
    for packet in pool:
        packet.read(wire_fields)
        keys.append(FlowKey.from_packet(packet, 1))
    for i, a in enumerate(pool):
        for j in range(i + 1, len(pool)):
            if a._memo is pool[j]._memo:
                for name in MATCH_FIELDS:
                    assert getattr(keys[i], name) == getattr(keys[j], name)


def _count_extractions(monkeypatch) -> list:
    calls = []
    from_packet = FlowKey.from_packet.__func__

    def counting(cls, packet, in_port=None):
        calls.append(packet)
        return from_packet(cls, packet, in_port)

    monkeypatch.setattr(FlowKey, "from_packet", classmethod(counting))
    return calls


def test_a_floods_copies_and_a_frames_hops_share_one_extraction(monkeypatch):
    calls = _count_extractions(monkeypatch)
    frame = _pool()[0]
    early = frame.copy()             # copied before anybody read it
    first = frame.read(wire_fields)
    copies = [frame.copy() for _ in range(36)]
    assert all(dup.read(wire_fields) == first for dup in copies)
    assert all(dup._memo is frame._memo for dup in copies)
    assert frame.read(wire_fields) == first
    assert len(calls) == 1
    # Same wire image, but no memo to share yet: it derives its own.
    assert early.read(wire_fields) == first and len(calls) == 2


def test_a_rewrite_rederives_and_leaves_the_original_alone(monkeypatch):
    calls = _count_extractions(monkeypatch)
    frame = _pool()[0]
    size, (typed, probe) = frame.read(wire_fields)
    rewritten, _, _, _ = apply_actions(
        [SetIPDst("10.9.9.9"), PushVLAN(5)], frame)
    new_size, (new_typed, new_probe) = rewritten.read(wire_fields)
    assert new_size == size + 4
    assert dict(zip(HEADER_FIELDS, new_typed))["ip_dst"] == "10.9.9.9"
    assert dict(zip(HEADER_FIELDS, new_typed))["vlan_vid"] == 5
    assert new_probe != probe
    assert frame.read(wire_fields) == (size, (typed, probe))
    assert len(calls) == 2
    # A write that is undone before anyone reads never cost anything.
    frame[IPv4].ttl += 1
    frame[IPv4].ttl -= 1
    assert frame.read(wire_fields) == (size, (typed, probe))
    assert len(calls) == 2


def test_the_memo_belongs_to_one_reader_at_a_time():
    frame = _pool()[0]
    names = frame.read(lambda p: [type(h).__name__ for h in p.headers])[1]
    assert names == ["Ethernet", "IPv4", "UDP", "Raw"]
    # A second reader evicts the first; it is never handed its answer.
    check_read(frame)
    assert frame.read(len)[1] == len(frame)
