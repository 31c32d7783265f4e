"""Flow table semantics: priority, replacement, deletion, timeouts,
capacity, and eviction."""

import heapq
from bisect import insort

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.dataplane import (
    MATCH_FIELDS,
    VLAN_ABSENT,
    FlowEntry,
    FlowKey,
    FlowTable,
    Match,
    Output,
    RemovalReason,
)
from repro.errors import TableFullError
from tests.test_southbound_codec import oracle_exact_key
from repro.packet import Ethernet, IPv4, IPv4Network, MACAddress, UDP


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


# ----------------------------------------------------------------------
# The classifier against the code it replaced
# ----------------------------------------------------------------------
# The per-priority bucket table (exact hash + newest-first wildcard
# list) as the oracle, verbatim but for metrics and its hand-rolled
# bisect (a scan here): the tuple-space classifier must pick the same
# entry objects, iterate in the same order and report the same
# evictions, removals and expiries after any operation sequence.
class _Bucket:
    def __init__(self):
        self.exact = {}  # value tuple -> FlowEntry
        self.wild = []   # ascending installation order


class BucketTable:
    def __init__(self, capacity=0, eviction_policy=None):
        self.capacity = capacity
        self.eviction_policy = eviction_policy
        self._buckets = {}
        self._neg_prios = []
        self._live = set()
        self._count = 0
        self._deadline_heap = []
        self._push_id = 0
        self._seq = 0
        self.lookup_count = 0
        self.matched_count = 0

    def _bucket(self, priority):
        bucket = self._buckets.get(priority)
        if bucket is None:
            bucket = self._buckets[priority] = _Bucket()
            insort(self._neg_prios, -priority)
        return bucket

    def _add(self, entry):
        bucket = self._bucket(entry.priority)
        ek = oracle_exact_key(entry.match)
        if ek is not None:
            bucket.exact[ek] = entry
        else:
            wild = bucket.wild
            if wild and wild[-1]._seq > entry._seq:
                lo = 0
                while lo < len(wild) and wild[lo]._seq < entry._seq:
                    lo += 1
                wild.insert(lo, entry)
            else:
                wild.append(entry)
        self._live.add(entry)
        self._count += 1
        if entry.idle_timeout or entry.hard_timeout:
            self._arm_deadline(entry)

    def _arm_deadline(self, entry):
        self._push_id += 1
        heapq.heappush(
            self._deadline_heap,
            (entry.next_deadline(), self._push_id, entry._seq, entry))

    def _remove(self, entry):
        bucket = self._buckets[entry.priority]
        ek = oracle_exact_key(entry.match)
        if ek is not None and bucket.exact.get(ek) is entry:
            del bucket.exact[ek]
        else:
            bucket.wild.remove(entry)
        if not bucket.exact and not bucket.wild:
            del self._buckets[entry.priority]
            self._neg_prios.remove(-entry.priority)
        self._live.discard(entry)
        self._count -= 1

    def insert(self, entry, now=0.0):
        evicted = []
        existing = self._find_same(entry.match, entry.priority)
        if existing is not None:
            entry.install_time = now
            entry.last_used = now
            entry._seq = existing._seq
            self._remove(existing)
            self._add(entry)
            return evicted
        if self.capacity and self._count >= self.capacity:
            if self.eviction_policy == "lru":
                victim = min(self._iter_entries(),
                             key=lambda e: (e.last_used, e._seq))
                self._remove(victim)
                evicted.append(victim)
            else:
                raise TableFullError(0, self.capacity)
        self._seq += 1
        entry._seq = self._seq
        entry.install_time = now
        entry.last_used = now
        self._add(entry)
        return evicted

    def _find_same(self, match, priority):
        bucket = self._buckets.get(priority)
        if bucket is None:
            return None
        ek = oracle_exact_key(match)
        if ek is not None:
            return bucket.exact.get(ek)
        for existing in bucket.wild:
            if existing.match == match:
                return existing
        return None

    def delete(self, match=None, priority=None, cookie=None, strict=False):
        removed = []
        for entry in list(self._iter_entries()):
            doomed = True
            if cookie is not None and entry.cookie != cookie:
                doomed = False
            if doomed and match is not None:
                if strict:
                    doomed = (entry.match == match
                              and entry.priority == priority)
                else:
                    doomed = entry.match.is_subset_of(match)
            elif doomed and strict and priority is not None:
                doomed = entry.priority == priority
            if doomed:
                removed.append(entry)
        for entry in removed:
            self._remove(entry)
        return removed

    def expire(self, now):
        heap = self._deadline_heap
        expired = []
        while heap and heap[0][0] <= now:
            _deadline, _push_id, seq, entry = heapq.heappop(heap)
            if entry not in self._live or entry._seq != seq:
                continue
            reason = entry.is_expired(now)
            if reason is None:
                self._arm_deadline(entry)
                continue
            expired.append((entry, reason))
            self._remove(entry)
        expired.sort(key=lambda pair: (-pair[0].priority, -pair[0]._seq))
        return expired

    def clear(self):
        count = self._count
        self._buckets.clear()
        self._neg_prios.clear()
        self._live.clear()
        self._deadline_heap.clear()
        self._count = 0
        return count

    def lookup(self, key):
        self.lookup_count += 1
        probe = tuple(getattr(key, name) for name in MATCH_FIELDS)
        for neg_prio in self._neg_prios:
            bucket = self._buckets[-neg_prio]
            best = bucket.exact.get(probe)
            floor = best._seq if best is not None else -1
            for entry in reversed(bucket.wild):
                if entry._seq < floor:
                    break
                if entry.match.matches(key):
                    best = entry
                    break
            if best is not None:
                self.matched_count += 1
                return best
        return None

    def _iter_entries(self):
        for neg_prio in self._neg_prios:
            bucket = self._buckets[-neg_prio]
            merged = list(bucket.exact.values()) + bucket.wild
            merged.sort(key=lambda e: -e._seq)
            yield from merged


# A small universe, so that rules collide, overlap and shadow each other
# across shapes; every prefix length the issue names, on both IP fields.
_MACS = [MACAddress("02:00:00:00:00:01"), MACAddress("02:00:00:00:00:02")]
_ADDRS = ["10.0.0.1", "10.0.0.2", "10.0.1.1", "192.168.0.1"]
_ip_field = st.one_of(
    st.sampled_from(_ADDRS),
    st.tuples(st.sampled_from(_ADDRS),
              st.sampled_from([0, 1, 8, 24, 31, 32])).map(
        lambda pair: "%s/%d" % pair),
)
_FIELD_UNIVERSE = {
    "in_port": st.sampled_from([1, 2]),
    "eth_src": st.sampled_from(_MACS),
    "eth_dst": st.sampled_from(_MACS),
    "eth_type": st.sampled_from([0x0800, 0x0806]),
    "vlan_vid": st.sampled_from([VLAN_ABSENT, 5]),
    "ip_src": _ip_field,
    "ip_dst": _ip_field,
    "ip_proto": st.sampled_from([6, 17]),
    "ip_dscp": st.sampled_from([0, 10]),
    "l4_src": st.sampled_from([1, 2]),
    "l4_dst": st.sampled_from([80, 443]),
}
#: 0-11 fields; one draw in four constrains all eleven (the old exact
#: sub-index unless an IP field drew a prefix).
some_match = st.one_of(
    st.fixed_dictionaries({}, optional=_FIELD_UNIVERSE),
    st.fixed_dictionaries({}, optional=_FIELD_UNIVERSE),
    st.fixed_dictionaries({}, optional=_FIELD_UNIVERSE),
    st.fixed_dictionaries(_FIELD_UNIVERSE),
).map(lambda fields: Match(**fields))
#: Keys over the same universe, each field absent one time in five.
_KEY_UNIVERSE = dict(_FIELD_UNIVERSE, ip_src=st.sampled_from(_ADDRS),
                     ip_dst=st.sampled_from(_ADDRS))
some_key = st.fixed_dictionaries({
    name: st.one_of(values, values, values, values, st.none())
    for name, values in _KEY_UNIVERSE.items()
}).map(lambda fields: FlowKey(**fields))


def key_inside(match, background):
    """``background`` with the fields ``match`` constrains overwritten
    so that it matches (a prefix by its own network address)."""
    fields = background.as_dict()
    for name in match:
        value = match.get(name)
        fields[name] = (value.address if isinstance(value, IPv4Network)
                        else value)
    return FlowKey(**fields)

#: test_deadline_on_a_rounding_edge_expires' clock values.
_EDGE_START = 3.0465834287758686
_EDGE_STEP = 4.046583428775868 - _EDGE_START


class ClassifierVsBuckets(RuleBasedStateMachine):
    """Both tables share the entry objects (a table stamps ``_seq`` and
    the install time on insert; equal stamps are part of the claim), so
    "the same entry" is identity."""

    @initialize(limit=st.sampled_from([(0, None), (3, "lru"), (4, "lru"),
                                       (3, None)]))
    def build(self, limit):
        self.table = FlowTable(0, *limit)
        self.oracle = BucketTable(*limit)
        self.now = _EDGE_START

    def same(self, ours, theirs):
        assert len(ours) == len(theirs)
        assert all(a is b for a, b in zip(ours, theirs))

    @rule(data=st.data(), match=some_match,
          priority=st.sampled_from([0, 1, 1, 5]),
          idle=st.sampled_from([0.0, 1.0, 2.0]),
          hard=st.sampled_from([0.0, 0.0, 3.0]),
          cookie=st.sampled_from([0, 1, 2]), beside=st.booleans())
    def insert(self, data, match, priority, idle, hard, cookie, beside):
        if beside and len(self.table):
            # A resident match again: replaces it at the same priority,
            # shares its row at another.
            match = data.draw(st.sampled_from(self.table.entries())).match
        entry = FlowEntry(match, [], priority=priority, idle_timeout=idle,
                          hard_timeout=hard, cookie=cookie)
        try:
            evicted = self.oracle.insert(entry, now=self.now)
        except TableFullError:
            with pytest.raises(TableFullError):
                self.table.insert(entry, now=self.now)
        else:
            self.same(self.table.insert(entry, now=self.now), evicted)

    @rule(data=st.data(), match=st.one_of(st.none(), some_match),
          priority=st.sampled_from([None, 0, 1, 5]),
          cookie=st.sampled_from([None, None, 1]), strict=st.booleans(),
          aim=st.booleans())
    def delete(self, data, match, priority, cookie, strict, aim):
        if aim and len(self.table):  # a (match, priority) that is there
            resident = data.draw(st.sampled_from(self.table.entries()))
            match, priority = resident.match, resident.priority
        args = dict(match=match, priority=priority, cookie=cookie,
                    strict=strict)
        self.same(self.table.delete(**args), self.oracle.delete(**args))

    @rule(step=st.sampled_from([0.0, 0.5, 1.0, _EDGE_STEP, 2.5]))
    def expire(self, step):
        self.now += step
        ours, theirs = self.table.expire(self.now), \
            self.oracle.expire(self.now)
        self.same([e for e, _ in ours], [e for e, _ in theirs])
        assert [r for _, r in ours] == [r for _, r in theirs]

    @rule()
    def clear(self):
        assert self.table.clear() == self.oracle.clear()

    @rule(data=st.data(), key=some_key)
    def lookup_inside_a_resident_rule(self, data, key):
        if len(self.table):
            resident = data.draw(st.sampled_from(self.table.entries()))
            key = key_inside(resident.match, key)
            assert resident.match.matches(key)
        self.lookup(key)

    @rule(key=some_key)
    def lookup(self, key):
        hit = self.table.lookup(key)
        assert hit is self.oracle.lookup(key)
        if hit is not None:  # what the datapath does; moves LRU and idle
            self.now += 0.125
            hit.touch(self.now, 64)

    @invariant()
    def same_table(self):
        self.same(list(self.table), list(self.oracle._iter_entries()))
        self.same(self.table.entries(), list(self.table))
        assert (self.table.lookup_count, self.table.matched_count) == \
            (self.oracle.lookup_count, self.oracle.matched_count)
        assert self.table.size == self.oracle._count


ClassifierVsBuckets.TestCase.settings = settings(
    max_examples=50, stateful_step_count=40, deadline=None)
TestClassifierVsBuckets = ClassifierVsBuckets.TestCase


class TestClassifierSemantics:
    @settings(max_examples=60, deadline=None)
    @given(rules=st.lists(st.tuples(some_match,
                                    st.sampled_from([0, 1, 1, 5])),
                          max_size=25),
           keys=st.lists(some_key, min_size=1, max_size=8))
    def test_winner_is_the_best_entry_whose_match_matches(self, rules,
                                                          keys):
        """``Match.matches`` is the reference semantics: highest
        priority, then most recent install."""
        table = FlowTable()
        for match, priority in rules:
            table.insert(FlowEntry(match, [], priority=priority))
        keys += [key_inside(match, keys[0]) for match, _ in rules]
        for key in keys:
            expected = max((e for e in table if e.match.matches(key)),
                           key=lambda e: (e.priority, e._seq),
                           default=None)
            assert table.lookup(key) is expected

    def test_literal_key_finds_what_the_typed_key_finds(self):
        """A hand-built key with address literals used to be ``==`` to
        the packet's key and accepted by ``Match.matches``, yet missed a
        ``Match.exact`` rule: the hash compared a ``str`` with a
        ``MACAddress``."""
        typed = key(80)
        literal = FlowKey(**{name: str(value)
                             if name in ("eth_src", "eth_dst", "ip_src",
                                         "ip_dst") else value
                             for name, value in typed.as_dict().items()})
        assert literal == typed and hash(literal) == hash(typed)
        assert type(literal.eth_dst) is MACAddress
        assert type(literal.ip_dst) is type(typed.ip_dst)
        for match in (Match(eth_dst="00:00:00:00:00:02"),   # wildcard
                      Match(eth_type=0x0800, ip_dst="10.0.0.0/24"),
                      Match.exact(typed)):
            assert match.matches(typed) and match.matches(literal)
            table = FlowTable()
            rule = FlowEntry(match, [Output(1)])
            table.insert(rule)
            assert table.lookup(typed) is rule
            assert table.lookup(literal) is rule


# ----------------------------------------------------------------------
# Sentinel
# ----------------------------------------------------------------------
def test_lookup_probes_rows_and_scans_nothing(monkeypatch):
    """Call-count sentinel: machine-independent, so it can gate tier 1.

    ``deep_table_scan``'s table: 512 never-matching filler rules in 64
    priority bands above the router's ``eth_dst`` rules.  A lookup costs
    one row probe per shape and no ``Match.matches`` call; an insert
    finds the entry it would replace with one row probe and no
    ``Match.__eq__`` call, however many rules share its priority.
    """
    calls = {"matches": 0, "eq": 0, "probes": 0, "row_gets": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Match, "matches",
                        counting("matches", Match.matches))
    monkeypatch.setattr(Match, "__eq__", counting("eq", Match.__eq__))

    table = FlowTable(0)
    for band in range(64):
        for j in range(8):
            table.insert(FlowEntry(Match(eth_type=0x86DD, l4_dst=j), [],
                                   priority=1000 + band))
    macs = ["02:00:00:00:00:%02x" % i for i in range(1, 17)]
    for port, mac in enumerate(macs, 1):
        table.insert(FlowEntry(Match(eth_dst=mac), [Output(port)],
                               priority=200))
    keys = [FlowKey.from_packet(
        Ethernet(dst=macs[i % 16], src=macs[(i + 5) % 16])
        / IPv4(src="10.0.0.1", dst="10.0.0.2")
        / UDP(src_port=10_000 + i, dst_port=7000) / b"x", 1)
        for i in range(200)]
    shapes = len(table._order)
    for sub in table._order:
        sub.project = counting("probes", sub.project)
    for i, routed in enumerate(keys):
        assert table.lookup(routed).actions == [Output(i % 16 + 1)]
    lookups, probes = len(keys), calls["probes"]
    assert shapes == 2 and probes <= shapes * lookups
    assert calls["matches"] == 0

    class Rows(dict):  # insert reads a row only in _find_same
        def get(self, values):
            calls["row_gets"] += 1
            return dict.get(self, values)

    fresh = FlowTable(0)
    inserts = 1024
    for i in range(inserts):
        fresh.insert(FlowEntry(
            Match(eth_type=0x0800, ip_proto=17, l4_src=i, l4_dst=7),
            [Output(1)], priority=100))
        if i == 0:
            (sub,) = fresh._order
            sub.rows = Rows(sub.rows)
    assert len(fresh) == inserts
    assert calls["row_gets"] == inserts - 1  # all but the first
    assert calls["eq"] == 0
    # CI runs this test with -s and greps the line into the job summary.
    print(f"\nclassifier sentinel: {probes} probes / {lookups} lookups "
          f"over {shapes} shapes, {calls['matches']} scans")
