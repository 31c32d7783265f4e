"""Go-back-N reliable transport tests, including loss recovery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane import FlowEntry, Match, Output, PORT_FLOOD
from repro.errors import TopologyError
from repro.netem import Network, Topology
from repro.netem.reliable import ReliableReceiver, ReliableSender


def build_net(loss_rate=0.0, seed=0):
    net = Network(Topology.single(2, bandwidth_bps=10e6,
                                  loss_rate=loss_rate),
                  miss_behaviour="drop", seed=seed)
    net.switch("s1").install_flow(
        FlowEntry(Match(), [Output(PORT_FLOOD)], priority=0))
    h1, h2 = net.host("h1"), net.host("h2")
    h1.add_static_arp(h2.ip, h2.mac)
    h2.add_static_arp(h1.ip, h1.mac)
    return net, h1, h2


class TestLosslessTransfer:
    def test_data_arrives_intact(self):
        net, h1, h2 = build_net()
        done = {}
        ReliableReceiver(h2, 7000,
                         on_complete=lambda x, d: done.update({x: d}))
        payload = bytes(range(256)) * 40  # 10240 B, several segments
        sender = ReliableSender(h1, h2.ip, 7000, payload, mss=1000)
        net.run(5.0)
        assert sender.complete
        assert done[sender.transfer_id] == payload
        assert sender.retransmissions == 0

    def test_single_segment_transfer(self):
        net, h1, h2 = build_net()
        done = {}
        ReliableReceiver(h2, 7000,
                         on_complete=lambda x, d: done.update({x: d}))
        sender = ReliableSender(h1, h2.ip, 7000, b"tiny")
        net.run(2.0)
        assert sender.complete
        assert done[sender.transfer_id] == b"tiny"

    def test_concurrent_transfers_do_not_mix(self):
        net, h1, h2 = build_net()
        done = {}
        ReliableReceiver(h2, 7000,
                         on_complete=lambda x, d: done.update({x: d}))
        a = ReliableSender(h1, h2.ip, 7000, b"A" * 5000, mss=500)
        b = ReliableSender(h1, h2.ip, 7000, b"B" * 5000, mss=500)
        net.run(5.0)
        assert a.complete and b.complete
        assert done[a.transfer_id] == b"A" * 5000
        assert done[b.transfer_id] == b"B" * 5000

    def test_transfer_metrics(self):
        net, h1, h2 = build_net()
        ReliableReceiver(h2, 7000)
        sender = ReliableSender(h1, h2.ip, 7000, b"z" * 20000)
        net.run(5.0)
        assert sender.complete
        assert sender.transfer_time > 0
        assert sender.goodput_bps > 0

    def test_done_signal(self):
        net, h1, h2 = build_net()
        ReliableReceiver(h2, 7000)
        sender = ReliableSender(h1, h2.ip, 7000, b"x" * 3000)
        assert sender.end_time is None
        net.run(5.0)
        assert sender.complete and sender.end_time is not None

    def test_validation(self):
        net, h1, h2 = build_net()
        with pytest.raises(TopologyError):
            ReliableSender(h1, h2.ip, 7000, b"")
        with pytest.raises(TopologyError):
            ReliableSender(h1, h2.ip, 7000, b"x", window=0)


class TestLossRecovery:
    def test_transfer_completes_despite_loss(self):
        net, h1, h2 = build_net(loss_rate=0.2, seed=3)
        done = {}
        ReliableReceiver(h2, 7000,
                         on_complete=lambda x, d: done.update({x: d}))
        payload = b"\x5a" * 30000
        sender = ReliableSender(h1, h2.ip, 7000, payload,
                                timeout=0.1)
        net.run(60.0)
        assert sender.complete, sender
        assert done[sender.transfer_id] == payload
        assert sender.retransmissions > 0

    def test_loss_costs_time(self):
        def transfer_time(loss, seed=5):
            net, h1, h2 = build_net(loss_rate=loss, seed=seed)
            ReliableReceiver(h2, 7000)
            sender = ReliableSender(h1, h2.ip, 7000, b"q" * 30000,
                                    timeout=0.1)
            net.run(120.0)
            assert sender.complete
            return sender.transfer_time

        assert transfer_time(0.3) > 2 * transfer_time(0.0)

    def test_gives_up_when_path_is_dead(self):
        net, h1, h2 = build_net()
        ReliableReceiver(h2, 7000)
        sender = ReliableSender(h1, h2.ip, 7000, b"x" * 5000,
                                timeout=0.05, max_retries=5)
        net.fail_link("h2", "s1")
        net.run(10.0)
        assert sender.failed
        assert not sender.complete

    def test_out_of_order_segments_discarded_and_reacked(self):
        net, h1, h2 = build_net(loss_rate=0.3, seed=11)
        done = {}
        receiver = ReliableReceiver(
            h2, 7000, on_complete=lambda x, d: done.update({x: d}))
        sender = ReliableSender(h1, h2.ip, 7000, b"k" * 20000,
                                window=8, timeout=0.1)
        net.run(60.0)
        assert sender.complete
        # Go-back-N discards everything after a gap; with 30% loss and
        # window 8 some discards must have happened.
        assert receiver.segments_discarded > 0
        # But the delivered stream is exactly the data, no duplication.
        assert done[sender.transfer_id] == b"k" * 20000

    @settings(max_examples=15, deadline=None)
    @given(loss=st.sampled_from([0.0, 0.1, 0.25]),
           size=st.integers(min_value=1, max_value=8000),
           window=st.integers(min_value=1, max_value=16),
           seed=st.integers(min_value=0, max_value=100))
    def test_delivery_property(self, loss, size, window, seed):
        """Whatever the loss rate, window, and size: delivered bytes
        equal sent bytes, exactly once, in order."""
        net, h1, h2 = build_net(loss_rate=loss, seed=seed)
        done = {}
        ReliableReceiver(h2, 7000,
                         on_complete=lambda x, d: done.update({x: d}))
        payload = bytes(i % 251 for i in range(size))
        sender = ReliableSender(h1, h2.ip, 7000, payload,
                                window=window, timeout=0.1, mss=700)
        net.run(180.0)
        assert sender.complete
        assert done[sender.transfer_id] == payload
