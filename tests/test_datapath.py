"""Datapath pipeline tests: miss handling, multi-table, groups, meters,
reserved ports, flood semantics, and port liveness."""

import pytest

from repro.dataplane import (
    Bucket,
    Datapath,
    DecTTL,
    FlowEntry,
    Group,
    GroupEntry,
    GroupType,
    Match,
    Meter,
    MeterEntry,
    Output,
    PacketInReason,
    PORT_ALL,
    PORT_CONTROLLER,
    PORT_FLOOD,
    PORT_IN_PORT,
    PORT_TABLE,
    PopVLAN,
    PushVLAN,
    SetIPDst,
    TableMissBehaviour,
)
from repro.errors import DataplaneError
from repro.packet import VLAN, Ethernet, IPv4, UDP
from repro.sim import Simulator


def udp_packet(dst_ip="10.0.0.2", ttl=64, sport=1):
    return (Ethernet(dst="00:00:00:00:00:02", src="00:00:00:00:00:01")
            / IPv4(src="10.0.0.1", dst=dst_ip, ttl=ttl)
            / UDP(src_port=sport, dst_port=9) / b"data")


@pytest.fixture
def dp():
    sim = Simulator()
    datapath = Datapath(dpid=1, sim=sim, num_tables=3)
    for n in (1, 2, 3):
        datapath.add_port(n)
    datapath.sent = []
    datapath.transmit = lambda port, pkt, size: datapath.sent.append(
        (port, pkt))
    datapath.punted = []
    datapath.on_packet_in = (
        lambda pkt, in_port, reason:
        datapath.punted.append((in_port, reason, pkt))
    )
    return datapath


class TestPortManagement:
    def test_duplicate_port_rejected(self, dp):
        with pytest.raises(DataplaneError):
            dp.add_port(1)

    def test_reserved_port_number_rejected(self, dp):
        with pytest.raises(DataplaneError):
            dp.add_port(PORT_FLOOD)
        with pytest.raises(DataplaneError):
            dp.add_port(0)

    def test_port_status_callback(self, dp):
        events = []
        dp.on_port_status = lambda port, reason: events.append(
            (port.number, reason))
        dp.set_port_state(1, False)
        dp.set_port_state(1, False)  # no-op: already down
        dp.set_port_state(1, True)
        assert events == [(1, "down"), (1, "up")]

    def test_rx_on_down_port_dropped(self, dp):
        dp.install_flow(FlowEntry(Match(), [Output(2)]))
        dp.set_port_state(1, False)
        dp.inject(udp_packet(), 1)
        assert dp.sent == []
        assert dp.packets_dropped == 1


class TestMissBehaviour:
    def test_miss_punts_by_default(self, dp):
        dp.inject(udp_packet(), 1)
        assert len(dp.punted) == 1
        assert dp.punted[0][1] == PacketInReason.NO_MATCH

    def test_miss_drop_mode(self):
        sim = Simulator()
        datapath = Datapath(1, sim, miss_behaviour=TableMissBehaviour.DROP)
        datapath.add_port(1)
        datapath.inject(udp_packet(), 1)
        assert datapath.packets_dropped == 1
        assert datapath.packets_to_controller == 0

    def test_miss_continue_mode_falls_through_tables(self):
        sim = Simulator()
        datapath = Datapath(
            1, sim, num_tables=2,
            miss_behaviour=TableMissBehaviour.CONTINUE,
        )
        datapath.add_port(1)
        datapath.add_port(2)
        sent = []
        datapath.transmit = lambda port, pkt, size: sent.append(port)
        datapath.install_flow(FlowEntry(Match(), [Output(2)]), table_id=1)
        datapath.inject(udp_packet(), 1)
        assert sent == [2]

    def test_miss_continue_last_table_drops(self):
        sim = Simulator()
        datapath = Datapath(
            1, sim, num_tables=1,
            miss_behaviour=TableMissBehaviour.CONTINUE,
        )
        datapath.add_port(1)
        datapath.inject(udp_packet(), 1)
        assert datapath.packets_dropped == 1


class TestPipeline:
    def test_goto_table_chains_with_rewrites(self, dp):
        dp.install_flow(FlowEntry(Match(eth_type=0x0800),
                                  [SetIPDst("99.0.0.9")],
                                  priority=1, goto_table=1))
        dp.install_flow(FlowEntry(Match(ip_dst="99.0.0.9"), [Output(2)],
                                  priority=1), table_id=1)
        dp.inject(udp_packet(), 1)
        assert len(dp.sent) == 1
        port, pkt = dp.sent[0]
        assert port == 2
        assert pkt[IPv4].dst == "99.0.0.9"

    def test_goto_backward_rejected(self, dp):
        dp.install_flow(FlowEntry(Match(), [], goto_table=1), table_id=0)
        dp.install_flow(FlowEntry(Match(), [], goto_table=1), table_id=1)
        with pytest.raises(DataplaneError):
            dp.inject(udp_packet(), 1)

    def test_empty_actions_drop(self, dp):
        dp.install_flow(FlowEntry(Match(), []))
        dp.inject(udp_packet(), 1)
        assert dp.packets_dropped == 1
        assert dp.sent == []

    def test_goto_with_empty_actions_is_not_a_drop(self, dp):
        dp.install_flow(FlowEntry(Match(), [], goto_table=1))
        dp.install_flow(FlowEntry(Match(), [Output(2)]), table_id=1)
        dp.inject(udp_packet(), 1)
        assert dp.packets_dropped == 0
        assert [p for p, _ in dp.sent] == [2]

    def test_counters_touched_per_table(self, dp):
        dp.install_flow(FlowEntry(Match(), [], goto_table=1))
        dp.install_flow(FlowEntry(Match(), [Output(2)]), table_id=1)
        dp.inject(udp_packet(), 1)
        assert dp.tables[0].entries()[0].packet_count == 1
        assert dp.tables[1].entries()[0].packet_count == 1

    @pytest.mark.parametrize("fast_path", [False, True])
    @pytest.mark.parametrize("tagged_in", [False, True])
    def test_entry_counts_the_bytes_of_the_frame_it_matched(
            self, fast_path, tagged_in):
        """A length-changing rewrite before ``goto_table``: the later
        entry, the meter and the egress port all see the frame as it is
        by then — on the walk (cache off; first frame with it on) and on
        the replay (second frame) alike."""
        datapath = Datapath(1, Simulator(), num_tables=2, fast_path=fast_path)
        datapath.add_port(1)
        datapath.add_port(2)
        sizes = []
        datapath.transmit = lambda port, pkt, size: sizes.append(
            (size, len(pkt)))
        if tagged_in:
            rewrite, later = PopVLAN(), Match(vlan_vid=-1)
        else:
            rewrite, later = PushVLAN(5), Match(vlan_vid=5)
        datapath.install_flow(FlowEntry(Match(in_port=1), [rewrite],
                                        goto_table=1))
        datapath.install_flow(FlowEntry(later, [Output(2)]), table_id=1)
        for _ in range(2):
            frame = udp_packet()
            if tagged_in:
                frame.headers.insert(1, VLAN(vid=5))
            datapath.inject(frame, 1)
        before, after = (50, 46) if tagged_in else (46, 50)
        assert datapath.ports[1].rx_bytes == 2 * before
        assert datapath.tables[0].entries()[0].byte_count == 2 * before
        assert datapath.tables[1].entries()[0].byte_count == 2 * after
        assert datapath.ports[2].tx_bytes == 2 * after
        assert sizes == [(after, after)] * 2
        if fast_path:
            assert (datapath.fast_path_misses, datapath.fast_path_hits) == (1, 1)

    def test_ttl_expiry_punts_the_frame_as_received(self, dp):
        dp.install_flow(FlowEntry(
            Match(), [SetIPDst("10.9.9.9"), DecTTL(), Output(2)]))
        frame = udp_packet(ttl=1)
        wire = frame.encode()
        dp.inject(frame, 1)
        assert dp.sent == []
        in_port, reason, punted = dp.punted[0]
        assert reason == PacketInReason.TTL
        # The rewrites before the expiry happened to a private copy.
        assert punted.encode() == wire and punted[IPv4].ttl == 1


class TestReservedPorts:
    def test_flood_excludes_ingress_and_down_and_noflood(self, dp):
        dp.install_flow(FlowEntry(Match(), [Output(PORT_FLOOD)]))
        dp.set_port_state(3, False)
        dp.inject(udp_packet(), 1)
        assert sorted(p for p, _ in dp.sent) == [2]

        dp.sent.clear()
        dp.set_port_state(3, True)
        dp.ports[2].no_flood = True
        dp.inject(udp_packet(), 1)
        assert sorted(p for p, _ in dp.sent) == [3]

    def test_all_includes_ingress(self, dp):
        dp.install_flow(FlowEntry(Match(), [Output(PORT_ALL)]))
        dp.inject(udp_packet(), 1)
        assert sorted(p for p, _ in dp.sent) == [1, 2, 3]

    def test_in_port_hairpins(self, dp):
        dp.install_flow(FlowEntry(Match(), [Output(PORT_IN_PORT)]))
        dp.inject(udp_packet(), 1)
        assert [p for p, _ in dp.sent] == [1]

    def test_controller_output_punts(self, dp):
        dp.install_flow(FlowEntry(Match(), [Output(PORT_CONTROLLER)]))
        dp.inject(udp_packet(), 1)
        assert dp.punted[0][1] == PacketInReason.ACTION

    def test_packet_out_to_table_resubmits(self, dp):
        dp.install_flow(FlowEntry(Match(ip_dst="7.7.7.7"), [Output(3)],
                                  priority=5))
        dp.send_packet_out(udp_packet(),
                           [SetIPDst("7.7.7.7"), Output(PORT_TABLE)],
                           in_port=1)
        assert [p for p, _ in dp.sent] == [3]

    def test_tx_to_down_port_counts_drop(self, dp):
        dp.install_flow(FlowEntry(Match(), [Output(2)]))
        dp.set_port_state(2, False)
        dp.inject(udp_packet(), 1)
        assert dp.sent == []
        assert dp.ports[2].tx_drops == 1


class TestGroupsInPipeline:
    def test_all_group_replicates(self, dp):
        dp.groups.add(GroupEntry(1, GroupType.ALL, [
            Bucket([Output(2)]), Bucket([Output(3)]),
        ]))
        dp.install_flow(FlowEntry(Match(), [Group(1)]))
        dp.inject(udp_packet(), 1)
        assert sorted(p for p, _ in dp.sent) == [2, 3]

    def test_failover_group_tracks_liveness(self, dp):
        dp.groups.add(GroupEntry(1, GroupType.FAST_FAILOVER, [
            Bucket([Output(2)], watch_port=2),
            Bucket([Output(3)], watch_port=3),
        ]))
        dp.install_flow(FlowEntry(Match(), [Group(1)]))
        dp.inject(udp_packet(), 1)
        dp.set_port_state(2, False)
        dp.inject(udp_packet(), 1)
        assert [p for p, _ in dp.sent] == [2, 3]

    def test_dead_failover_group_drops(self, dp):
        dp.groups.add(GroupEntry(1, GroupType.FAST_FAILOVER, [
            Bucket([Output(2)], watch_port=2),
        ]))
        dp.install_flow(FlowEntry(Match(), [Group(1)]))
        dp.set_port_state(2, False)
        dp.inject(udp_packet(), 1)
        assert dp.packets_dropped == 1

    def test_group_recursion_bounded(self, dp):
        dp.groups.add(GroupEntry(1, GroupType.ALL, [Bucket([Group(2)])]))
        dp.groups.add(GroupEntry(2, GroupType.ALL, [Bucket([Group(1)])]))
        dp.install_flow(FlowEntry(Match(), [Group(1)]))
        with pytest.raises(DataplaneError):
            dp.inject(udp_packet(), 1)


class TestMetersInPipeline:
    def test_meter_drops_when_exceeded(self, dp):
        dp.meters.add(MeterEntry(1, rate_bps=8, burst_bytes=70))
        dp.install_flow(FlowEntry(Match(), [Meter(1), Output(2)]))
        dp.inject(udp_packet(), 1)   # ~57 B packet fits the 70 B bucket
        dp.inject(udp_packet(), 1)   # bucket empty at t=0
        assert len(dp.sent) == 1
        assert dp.packets_dropped == 1

    def test_meter_drop_stops_goto_chain(self, dp):
        dp.meters.add(MeterEntry(1, rate_bps=8, burst_bytes=10))
        dp.install_flow(FlowEntry(Match(), [Meter(1)], goto_table=1))
        dp.install_flow(FlowEntry(Match(), [Output(2)]), table_id=1)
        dp.inject(udp_packet(), 1)  # bigger than the bucket: dropped
        assert dp.sent == []


class TestExpiryIntegration:
    def test_flow_expires_and_notifies(self):
        sim = Simulator()
        dp = Datapath(1, sim)
        dp.add_port(1)
        removed = []
        dp.on_flow_removed = lambda tid, e, r: removed.append((tid, r))
        dp.install_flow(FlowEntry(Match(), [Output(1)], idle_timeout=2.0))
        sim.run(until=5.0)
        assert removed == [(0, "idle_timeout")]
        assert dp.flow_count() == 0

    def test_sweeper_stops_when_no_timeouts_remain(self):
        sim = Simulator()
        dp = Datapath(1, sim)
        dp.add_port(1)
        dp.install_flow(FlowEntry(Match(), [Output(1)], hard_timeout=1.0))
        sim.run_until_idle()
        assert sim.pending_events == 0

    def test_shutdown_silences_datapath(self):
        sim = Simulator()
        dp = Datapath(1, sim)
        dp.add_port(1)
        dp.install_flow(FlowEntry(Match(), [Output(1)], hard_timeout=1.0))
        dp.shutdown()
        sim.run_until_idle()
        assert sim.pending_events == 0
