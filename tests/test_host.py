"""Host mini-stack tests over a two-host wire (no switch)."""

import pytest

from repro.errors import TopologyError
from repro.netem import Attachment, Host, Link
from repro.packet import ARP, Ethernet, ICMP, IPv4, MACAddress, UDP
from repro.sim import Simulator


@pytest.fixture
def wire():
    """Two hosts joined by a direct link."""
    sim = Simulator()
    h1 = Host(sim, "h1", MACAddress.local(1), "10.0.0.1")
    h2 = Host(sim, "h2", MACAddress.local(2), "10.0.0.2")
    link = Link(
        sim,
        Attachment("h1", 0, h1.receive),
        Attachment("h2", 0, h2.receive),
        delay=0.001,
    )
    h1.attach(link)
    h2.attach(link)
    return sim, h1, h2


class TestARP:
    def test_resolution_then_delivery(self, wire):
        sim, h1, h2 = wire
        got = []
        h2.bind_udp(9, lambda pkt, host: got.append(pkt))
        h1.send_udp("10.0.0.2", 1234, 9, b"hello")
        sim.run_until_idle()
        assert len(got) == 1
        assert got[0].payload == b"hello"
        # Both sides learned each other from the exchange.
        assert h1.arp_table[h2.ip] == h2.mac
        assert h2.arp_table[h1.ip] == h1.mac

    def test_pending_packets_flushed_in_order(self, wire):
        sim, h1, h2 = wire
        got = []
        h2.bind_udp(9, lambda pkt, host: got.append(pkt.payload))
        for i in range(3):
            h1.send_udp("10.0.0.2", 1234, 9, bytes([i]))
        sim.run_until_idle()
        assert got == [b"\x00", b"\x01", b"\x02"]

    def test_static_arp_skips_resolution(self, wire):
        sim, h1, h2 = wire
        h1.add_static_arp("10.0.0.2", h2.mac)
        seen = []
        h2.on_receive = lambda pkt: seen.append(pkt)
        h1.send_udp("10.0.0.2", 1, 9, b"x")
        sim.run_until_idle()
        assert all(ARP not in pkt for pkt in seen)

    def test_unresolvable_address_gives_up(self, wire):
        sim, h1, h2 = wire
        h1.send_udp("10.0.0.99", 1, 9, b"lost")
        sim.run_until_idle()
        # Three retries then surrender; no pending state left behind.
        assert h1._arp_pending == {}
        assert sim.now >= 2.0  # retried at 1 s intervals

    def test_arp_request_not_answered_by_wrong_host(self, wire):
        sim, h1, h2 = wire
        replies = []
        h1.on_receive = lambda pkt: (
            replies.append(pkt) if ARP in pkt and pkt[ARP].is_reply
            else None
        )
        request = (
            Ethernet(dst="ff:ff:ff:ff:ff:ff", src=h1.mac)
            / ARP(opcode=ARP.REQUEST, sender_mac=h1.mac,
                  sender_ip=h1.ip, target_ip="10.0.0.50")
        )
        h1.send_frame(request)
        sim.run_until_idle()
        assert replies == []


class TestPing:
    def test_single_ping_rtt(self, wire):
        sim, h1, h2 = wire
        session = h1.ping("10.0.0.2", count=1)
        sim.run_until_idle()
        assert session.received == 1
        assert session.lost == 0
        # ARP adds one RTT; the echo adds another: ≥ 4 ms total, but the
        # reported RTT covers only the ICMP exchange after queueing.
        assert 0.002 <= session.avg_rtt < 0.01

    def test_multi_ping_statistics(self, wire):
        sim, h1, h2 = wire
        session = h1.ping("10.0.0.2", count=5, interval=0.1)
        sim.run_until_idle()
        assert session.received == 5
        assert session.min_rtt <= session.avg_rtt <= session.max_rtt
        assert session.finished

    def test_ping_timeout_counts_lost(self, wire):
        sim, h1, h2 = wire
        session = h1.ping("10.0.0.99", count=2, interval=0.1,
                          timeout=1.0)
        sim.run_until_idle()
        assert session.received == 0
        assert session.lost == 2

    def test_done_signal_fires(self, wire):
        sim, h1, h2 = wire
        session = h1.ping("10.0.0.2", count=2, interval=0.05)
        assert not session.finished
        sim.run_until_idle()
        assert session.finished and session.received == 2

    def test_concurrent_sessions_do_not_cross(self, wire):
        sim, h1, h2 = wire
        s1 = h1.ping("10.0.0.2", count=2, interval=0.05)
        s2 = h1.ping("10.0.0.2", count=3, interval=0.05)
        sim.run_until_idle()
        assert s1.received == 2
        assert s2.received == 3


class TestUDP:
    def test_port_demux(self, wire):
        sim, h1, h2 = wire
        on_9, on_10, fallback = [], [], []
        h2.bind_udp(9, lambda pkt, host: on_9.append(pkt))
        h2.bind_udp(10, lambda pkt, host: on_10.append(pkt))
        h2.on_udp = lambda pkt, host: fallback.append(pkt)
        h1.send_udp("10.0.0.2", 1, 9, b"a")
        h1.send_udp("10.0.0.2", 1, 10, b"b")
        h1.send_udp("10.0.0.2", 1, 11, b"c")
        sim.run_until_idle()
        assert len(on_9) == 1 and len(on_10) == 1 and len(fallback) == 1

    def test_double_bind_rejected(self, wire):
        sim, h1, h2 = wire
        h2.bind_udp(9, lambda pkt, host: None)
        with pytest.raises(TopologyError):
            h2.bind_udp(9, lambda pkt, host: None)

    def test_unbind(self, wire):
        sim, h1, h2 = wire
        got = []
        h2.bind_udp(9, lambda pkt, host: got.append(1))
        h2.unbind_udp(9)
        h1.send_udp("10.0.0.2", 1, 9, b"x")
        sim.run_until_idle()
        assert got == []

    def test_frames_for_other_macs_ignored(self, wire):
        sim, h1, h2 = wire
        got = []
        h2.on_udp = lambda pkt, host: got.append(pkt)
        stray = (
            Ethernet(dst="00:00:00:00:00:77", src=h1.mac)
            / IPv4(src=h1.ip, dst=h2.ip)
            / UDP(src_port=1, dst_port=9) / b"not-mine"
        )
        h1.send_frame(stray)
        sim.run_until_idle()
        assert got == []

    def test_counters(self, wire):
        sim, h1, h2 = wire
        h1.add_static_arp("10.0.0.2", h2.mac)
        h1.send_udp("10.0.0.2", 1, 9, b"x")
        sim.run_until_idle()
        assert h1.tx_packets == 1
        assert h2.rx_packets == 1
        assert h2.rx_bytes > 0


class TestAttachment:
    def test_double_attach_rejected(self, wire):
        sim, h1, h2 = wire
        with pytest.raises(TopologyError):
            h1.attach(object())

    def test_send_without_link_rejected(self):
        sim = Simulator()
        lonely = Host(sim, "x", MACAddress.local(9), "10.0.0.9")
        with pytest.raises(TopologyError):
            lonely.send_udp("10.0.0.1", 1, 2, b"")
