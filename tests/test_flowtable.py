"""Flow table semantics: priority, replacement, deletion, timeouts,
capacity, and eviction."""

import pytest
from hypothesis import given, strategies as st

from repro.dataplane import (
    VLAN_ABSENT,
    FlowEntry,
    FlowKey,
    FlowTable,
    Match,
    Output,
    RemovalReason,
)
from repro.errors import TableFullError
from repro.packet import Ethernet, IPv4, UDP


def key(dst_port=80):
    pkt = (Ethernet(dst="00:00:00:00:00:02", src="00:00:00:00:00:01")
           / IPv4(src="10.0.0.1", dst="10.0.0.2")
           / UDP(src_port=1, dst_port=dst_port) / b"")
    return FlowKey.from_packet(pkt, in_port=1)


def entry(priority=0, match=None, port=1, **kw):
    return FlowEntry(match if match is not None else Match(),
                     [Output(port)], priority=priority, **kw)


class TestLookup:
    def test_highest_priority_wins(self):
        table = FlowTable()
        table.insert(entry(priority=1, port=1))
        table.insert(entry(priority=10, port=2))
        table.insert(entry(priority=5, port=3))
        hit = table.lookup(key())
        assert hit.priority == 10

    def test_most_recent_wins_at_equal_priority(self):
        table = FlowTable()
        table.insert(entry(priority=5, match=Match(l4_dst=80), port=1))
        table.insert(entry(priority=5, match=Match(in_port=1), port=2))
        hit = table.lookup(key())
        assert hit.actions == [Output(2)]

    def test_miss_returns_none(self):
        table = FlowTable()
        table.insert(entry(match=Match(l4_dst=443)))
        assert table.lookup(key(dst_port=80)) is None

    def test_lookup_counters(self):
        table = FlowTable()
        table.insert(entry(match=Match(l4_dst=80)))
        table.lookup(key(80))
        table.lookup(key(81))
        assert table.lookup_count == 2
        assert table.matched_count == 1


class TestInsertReplace:
    def test_same_match_priority_replaces(self):
        table = FlowTable()
        table.insert(entry(priority=5, match=Match(l4_dst=80), port=1))
        table.insert(entry(priority=5, match=Match(l4_dst=80), port=9))
        assert len(table) == 1
        assert table.lookup(key()).actions == [Output(9)]

    def test_different_priority_coexists(self):
        table = FlowTable()
        table.insert(entry(priority=5, match=Match(l4_dst=80)))
        table.insert(entry(priority=6, match=Match(l4_dst=80)))
        assert len(table) == 2

    def test_replacement_resets_counters(self):
        table = FlowTable()
        table.insert(entry(priority=5, match=Match(l4_dst=80)))
        table.lookup(key()).touch(1.0, 100)
        table.insert(entry(priority=5, match=Match(l4_dst=80)), now=2.0)
        assert table.lookup(key()).packet_count == 0


class TestDelete:
    def test_delete_all(self):
        table = FlowTable()
        for p in range(5):
            table.insert(entry(priority=p, match=Match(l4_dst=p)))
        removed = table.delete()
        assert len(removed) == 5
        assert len(table) == 0

    def test_nonstrict_delete_removes_subsets(self):
        table = FlowTable()
        table.insert(entry(match=Match(l4_dst=80, in_port=1)))
        table.insert(entry(match=Match(l4_dst=80)))
        table.insert(entry(match=Match(l4_dst=443)))
        removed = table.delete(match=Match(l4_dst=80))
        assert len(removed) == 2
        assert len(table) == 1

    def test_strict_delete_requires_exact_pair(self):
        table = FlowTable()
        table.insert(entry(priority=5, match=Match(l4_dst=80)))
        table.insert(entry(priority=6, match=Match(l4_dst=80)))
        removed = table.delete(match=Match(l4_dst=80), priority=5,
                               strict=True)
        assert len(removed) == 1
        assert table.entries()[0].priority == 6

    def test_delete_by_cookie(self):
        table = FlowTable()
        table.insert(entry(match=Match(l4_dst=80), cookie=7))
        table.insert(entry(match=Match(l4_dst=81), cookie=8))
        removed = table.delete(cookie=7)
        assert len(removed) == 1
        assert table.entries()[0].cookie == 8


class TestTimeouts:
    def test_hard_timeout(self):
        table = FlowTable()
        table.insert(entry(hard_timeout=5.0), now=0.0)
        assert table.expire(4.9) == []
        expired = table.expire(5.0)
        assert len(expired) == 1
        assert expired[0][1] == RemovalReason.HARD_TIMEOUT

    def test_idle_timeout_refreshed_by_hits(self):
        table = FlowTable()
        table.insert(entry(idle_timeout=2.0), now=0.0)
        e = table.entries()[0]
        e.touch(1.5, 10)
        assert table.expire(3.0) == []  # used at 1.5; idle until 3.5
        expired = table.expire(3.6)
        assert expired and expired[0][1] == RemovalReason.IDLE_TIMEOUT

    def test_hard_beats_idle_when_both_due(self):
        table = FlowTable()
        table.insert(entry(idle_timeout=1.0, hard_timeout=1.0), now=0.0)
        expired = table.expire(1.0)
        assert expired[0][1] == RemovalReason.HARD_TIMEOUT

    def test_deadline_on_a_rounding_edge_expires(self):
        """``last_used + idle`` rounds to <= now while ``now - last_used``
        rounds to < idle: expire() used to pop and re-arm that deadline
        forever.  Run on a thread so a regression fails, not hangs."""
        import threading

        table = FlowTable(0)
        table.insert(FlowEntry(Match(eth_type=0x0800), [],
                               idle_timeout=1.0),
                     now=3.0465834287758686)
        out = []
        worker = threading.Thread(
            target=lambda: out.append(table.expire(4.046583428775868)),
            daemon=True)
        worker.start()
        worker.join(timeout=5.0)
        assert not worker.is_alive(), "FlowTable.expire livelocked"
        assert [reason for _, reason in out[0]] == \
            [RemovalReason.IDLE_TIMEOUT]

    def test_zero_timeouts_never_expire(self):
        table = FlowTable()
        table.insert(entry(), now=0.0)
        assert table.expire(1e9) == []


class TestCapacity:
    def test_insert_into_full_table_raises(self):
        table = FlowTable(capacity=2)
        table.insert(entry(match=Match(l4_dst=1)))
        table.insert(entry(match=Match(l4_dst=2)))
        with pytest.raises(TableFullError):
            table.insert(entry(match=Match(l4_dst=3)))

    def test_replacement_does_not_need_capacity(self):
        table = FlowTable(capacity=1)
        table.insert(entry(priority=5, match=Match(l4_dst=1), port=1))
        table.insert(entry(priority=5, match=Match(l4_dst=1), port=2))
        assert len(table) == 1

    def test_lru_eviction(self):
        table = FlowTable(capacity=2, eviction_policy="lru")
        table.insert(entry(match=Match(l4_dst=80)), now=0.0)
        table.insert(entry(match=Match(l4_dst=81)), now=1.0)
        # Touch the older entry so the newer one becomes the LRU victim.
        table.lookup(key(80)).touch(5.0, 1)
        evicted = table.insert(entry(match=Match(l4_dst=82)), now=6.0)
        assert len(evicted) == 1
        assert evicted[0].match == Match(l4_dst=81)
        assert len(table) == 2

    def test_occupancy(self):
        table = FlowTable(capacity=4)
        table.insert(entry(match=Match(l4_dst=1)))
        assert table.occupancy == 0.25

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                              st.integers(min_value=0, max_value=65535)),
                    max_size=40))
    def test_size_never_exceeds_capacity_with_lru(self, inserts):
        table = FlowTable(capacity=5, eviction_policy="lru")
        now = 0.0
        for priority, port in inserts:
            now += 1.0
            table.insert(entry(priority=priority,
                               match=Match(l4_dst=port)), now=now)
            assert len(table) <= 5


class TestSizeAndOccupancy:
    def test_unbounded_occupancy_is_zero_not_nan(self):
        table = FlowTable()  # no capacity
        table.insert(entry(match=Match(l4_dst=1)))
        table.insert(entry(match=Match(l4_dst=2)))
        assert table.occupancy == 0.0

    def test_empty_unbounded_occupancy_is_zero(self):
        assert FlowTable().occupancy == 0.0

    def test_size_tracks_count(self):
        table = FlowTable()
        assert table.size == 0
        table.insert(entry(match=Match(l4_dst=1)))
        table.insert(entry(match=Match(l4_dst=2)))
        assert table.size == 2
        table.delete(match=Match(l4_dst=1))
        assert table.size == 1

    def test_has_timeouts_transitions(self):
        table = FlowTable()
        assert not table.has_timeouts
        table.insert(entry(match=Match(l4_dst=1), hard_timeout=1.0),
                     now=0.0)
        assert table.has_timeouts
        table.expire(5.0)
        assert not table.has_timeouts


class TestChangeNotification:
    def test_on_change_fires_for_mutations_only(self):
        table = FlowTable()
        bumps = []
        table.on_change = lambda: bumps.append(1)
        table.insert(entry(match=Match(l4_dst=1), hard_timeout=1.0))
        assert len(bumps) == 1
        table.lookup(key(1))                 # reads don't notify
        assert len(bumps) == 1
        table.delete(match=Match(l4_dst=99))  # no-op delete
        assert len(bumps) == 1
        table.expire(0.5)                     # nothing expired yet
        assert len(bumps) == 1
        table.expire(2.0)
        assert len(bumps) == 2

    def test_exact_index_agrees_with_scan_on_full_match(self):
        # A fully-specified match lands in the exact sub-index; lookup
        # must honour priority against wildcard entries around it.
        full = Match(
            in_port=1,
            eth_src="00:00:00:00:00:01",
            eth_dst="00:00:00:00:00:02",
            eth_type=0x0800,
            vlan_vid=VLAN_ABSENT,
            ip_src="10.0.0.1",
            ip_dst="10.0.0.2",
            ip_proto=17,
            ip_dscp=0,
            l4_src=1,
            l4_dst=80,
        )
        table = FlowTable()
        low = entry(priority=1, match=Match(l4_dst=80), port=9)
        exact = FlowEntry(full, [Output(2)], priority=5)
        high = entry(priority=7, match=Match(l4_dst=80), port=3)
        table.insert(low)
        table.insert(exact)
        assert table.lookup(key(80)) is exact
        table.insert(high)
        assert table.lookup(key(80)) is high
        table.delete(match=Match(l4_dst=80), priority=7, strict=True)
        assert table.lookup(key(80)) is exact
