"""Priority flow tables with timeouts, counters, and capacity limits.

Lookup semantics follow OpenFlow: the highest-priority matching entry wins;
ties are broken by most-recent installation (deterministic in simulation).
Entries may carry idle and hard timeouts; :meth:`FlowTable.expire` pops
them from a lazy deadline heap, returning the evicted entries so the
datapath can emit flow-removed notifications.

Internally the table is indexed rather than flat (the observable
semantics are unchanged — a TCAM):

* entries are partitioned into per-priority buckets, with the priority
  list kept sorted by bisect-insert instead of re-sorting on every add;
* fully-specified matches (all fields constrained, no prefixes) live in
  an exact-match hash per bucket, so the microflow-rule workloads that
  dominate deep tables resolve in O(1) instead of a linear scan;
* wildcard entries stay in a per-bucket list ordered by installation
  sequence, scanned newest-first only until it cannot beat the exact hit.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.dataplane.actions import Action
from repro.dataplane.match import FlowKey, Match
from repro.errors import TableFullError

__all__ = ["FlowEntry", "FlowTable", "RemovalReason"]

_INFINITY = float("inf")


class RemovalReason:
    """Why a flow entry left the table (mirrors OFPRR_*)."""

    IDLE_TIMEOUT = "idle_timeout"
    HARD_TIMEOUT = "hard_timeout"
    DELETE = "delete"
    EVICTION = "eviction"


class FlowEntry:
    """One match→actions rule resident in a flow table."""

    __slots__ = (
        "match",
        "priority",
        "actions",
        "goto_table",
        "idle_timeout",
        "hard_timeout",
        "cookie",
        "flags",
        "install_time",
        "last_used",
        "packet_count",
        "byte_count",
        "_seq",
    )

    def __init__(
        self,
        match: Match,
        actions: Iterable[Action] = (),
        priority: int = 0,
        idle_timeout: float = 0.0,
        hard_timeout: float = 0.0,
        cookie: int = 0,
        goto_table: Optional[int] = None,
        flags: int = 0,
    ) -> None:
        self.match = match
        self.actions: List[Action] = list(actions)
        self.priority = priority
        self.idle_timeout = idle_timeout
        self.hard_timeout = hard_timeout
        self.cookie = cookie
        self.flags = flags
        self.goto_table = goto_table
        self.install_time = 0.0
        self.last_used = 0.0
        self.packet_count = 0
        self.byte_count = 0
        self._seq = 0

    def touch(self, now: float, nbytes: int) -> None:
        """Record a hit for counters and idle-timeout tracking."""
        self.last_used = now
        self.packet_count += 1
        self.byte_count += nbytes

    def is_expired(self, now: float) -> Optional[str]:
        """The removal reason if this entry has timed out, else ``None``."""
        # Same arithmetic as next_deadline(): a deadline expire() popped
        # as due must test as expired, or it would be re-armed forever.
        if self.hard_timeout and now >= self.install_time + self.hard_timeout:
            return RemovalReason.HARD_TIMEOUT
        if self.idle_timeout and now >= self.last_used + self.idle_timeout:
            return RemovalReason.IDLE_TIMEOUT
        return None

    def next_deadline(self) -> float:
        """The earliest simulated time this entry could expire."""
        deadline = _INFINITY
        if self.hard_timeout:
            deadline = self.install_time + self.hard_timeout
        if self.idle_timeout:
            deadline = min(deadline, self.last_used + self.idle_timeout)
        return deadline

    @property
    def age_fields(self) -> dict:
        return {
            "packets": self.packet_count,
            "bytes": self.byte_count,
            "installed": self.install_time,
            "last_used": self.last_used,
        }

    def __repr__(self) -> str:
        return (
            f"<FlowEntry prio={self.priority} {self.match!r} "
            f"actions={self.actions!r} hits={self.packet_count}>"
        )


def _probe_key(key: FlowKey) -> Tuple:
    """The value tuple of a packet's flow key, for exact-hash probing."""
    return (
        key.in_port, key.eth_src, key.eth_dst, key.eth_type, key.vlan_vid,
        key.ip_src, key.ip_dst, key.ip_proto, key.ip_dscp,
        key.l4_src, key.l4_dst,
    )


class _Bucket:
    """Entries of one priority: an exact-match hash plus a wildcard list.

    ``wild`` is kept in ascending installation order, so appending keeps
    it sorted and a newest-first scan is ``reversed(wild)``.
    """

    __slots__ = ("exact", "wild")

    def __init__(self) -> None:
        self.exact: dict = {}  # value tuple -> FlowEntry
        self.wild: List[FlowEntry] = []

    def __len__(self) -> int:
        return len(self.exact) + len(self.wild)


class FlowTable:
    """A single priority-ordered flow table.

    ``capacity`` bounds the table; insertion into a full table raises
    :class:`TableFullError` unless an ``eviction_policy`` is set.
    ``on_change`` (when set) fires after any mutation that adds or
    removes entries or rewrites an entry in place — the datapath uses it
    to invalidate its microflow cache, including for direct table
    manipulation that bypasses the datapath API.
    """

    def __init__(
        self,
        table_id: int = 0,
        capacity: int = 0,
        eviction_policy: Optional[str] = None,
    ) -> None:
        self.table_id = table_id
        self.capacity = capacity  # 0 means unbounded
        self.eviction_policy = eviction_policy  # None or "lru"
        self._buckets: dict = {}  # priority -> _Bucket
        self._neg_prios: List[int] = []  # -priority, ascending
        self._live: set = set()  # identity set of resident entries
        self._count = 0
        self._timeout_count = 0
        # Items are (deadline, push_id, entry_seq, entry): push_id makes
        # comparisons unique (entry seqs are reused on replacement), and
        # entry_seq lets expire() drop items for replaced entries.
        self._deadline_heap: List[Tuple[float, int, int, FlowEntry]] = []
        self._push_id = 0
        self._seq = 0
        self.lookup_count = 0
        self.matched_count = 0
        self.on_change: Optional[Callable[[], None]] = None
        # Telemetry children; bound by attach_metrics(), else free no-ops.
        self._m_lookups = None
        self._m_matches = None

    def attach_metrics(self, registry, dpid: int) -> None:
        """Bind per-table lookup/match counters labelled by (dpid, table)."""
        labels = (str(dpid), str(self.table_id))
        self._m_lookups = registry.counter(
            "table_lookups_total", "Flow-table lookups",
            ("dpid", "table"),
        ).labels(*labels)
        self._m_matches = registry.counter(
            "table_matches_total", "Flow-table lookup hits",
            ("dpid", "table"),
        ).labels(*labels)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _changed(self) -> None:
        if self.on_change is not None:
            self.on_change()

    def _bucket(self, priority: int) -> _Bucket:
        bucket = self._buckets.get(priority)
        if bucket is None:
            bucket = self._buckets[priority] = _Bucket()
            insort(self._neg_prios, -priority)
        return bucket

    def _add(self, entry: FlowEntry) -> None:
        bucket = self._bucket(entry.priority)
        ek = entry.match.exact_key
        if ek is not None:
            bucket.exact[ek] = entry
        else:
            wild = bucket.wild
            if wild and wild[-1]._seq > entry._seq:
                # A replacement keeps its original sequence number, so
                # bisect it back into recency order instead of appending.
                lo, hi = 0, len(wild)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if wild[mid]._seq < entry._seq:
                        lo = mid + 1
                    else:
                        hi = mid
                wild.insert(lo, entry)
            else:
                wild.append(entry)
        self._live.add(entry)
        self._count += 1
        if entry.idle_timeout or entry.hard_timeout:
            self._timeout_count += 1
            self._arm_deadline(entry)

    def _arm_deadline(self, entry: FlowEntry) -> None:
        self._push_id += 1
        heapq.heappush(
            self._deadline_heap,
            (entry.next_deadline(), self._push_id, entry._seq, entry),
        )

    def _remove(self, entry: FlowEntry) -> None:
        bucket = self._buckets[entry.priority]
        ek = entry.match.exact_key
        if ek is not None and bucket.exact.get(ek) is entry:
            del bucket.exact[ek]
        else:
            bucket.wild.remove(entry)
        if not bucket.exact and not bucket.wild:
            del self._buckets[entry.priority]
            self._neg_prios.remove(-entry.priority)
        self._live.discard(entry)
        self._count -= 1
        if entry.idle_timeout or entry.hard_timeout:
            self._timeout_count -= 1
        # Stale deadline-heap items are skipped lazily by expire().

    def insert(self, entry: FlowEntry, now: float = 0.0) -> List[FlowEntry]:
        """Add ``entry``; an existing entry with identical (match, priority)
        is replaced, per OpenFlow ADD semantics.

        Returns any entries evicted to make room (empty in the common
        case), so the datapath can notify the controller.
        """
        evicted: List[FlowEntry] = []
        existing = self._find_same(entry.match, entry.priority)
        if existing is not None:
            entry.install_time = now
            entry.last_used = now
            entry._seq = existing._seq
            self._remove(existing)
            self._add(entry)
            self._changed()
            return evicted
        if self.capacity and self._count >= self.capacity:
            if self.eviction_policy == "lru":
                victim = min(self._iter_entries(),
                             key=lambda e: (e.last_used, e._seq))
                self._remove(victim)
                evicted.append(victim)
            else:
                raise TableFullError(self.table_id, self.capacity)
        self._seq += 1
        entry._seq = self._seq
        entry.install_time = now
        entry.last_used = now
        self._add(entry)
        self._changed()
        return evicted

    def _find_same(self, match: Match,
                   priority: int) -> Optional[FlowEntry]:
        bucket = self._buckets.get(priority)
        if bucket is None:
            return None
        ek = match.exact_key
        if ek is not None:
            return bucket.exact.get(ek)
        for existing in bucket.wild:
            if existing.match == match:
                return existing
        return None

    def delete(
        self,
        match: Optional[Match] = None,
        priority: Optional[int] = None,
        cookie: Optional[int] = None,
        strict: bool = False,
    ) -> List[FlowEntry]:
        """Remove matching entries and return them.

        Non-strict delete removes every entry whose match is a subset of
        the given pattern (OpenFlow OFPFC_DELETE); strict delete requires
        the exact (match, priority) pair.
        """
        removed: List[FlowEntry] = []
        for entry in list(self._iter_entries()):
            doomed = True
            if cookie is not None and entry.cookie != cookie:
                doomed = False
            if doomed and match is not None:
                if strict:
                    doomed = entry.match == match and entry.priority == priority
                else:
                    doomed = entry.match.is_subset_of(match)
            elif doomed and strict and priority is not None:
                doomed = entry.priority == priority
            if doomed:
                removed.append(entry)
        for entry in removed:
            self._remove(entry)
        if removed:
            self._changed()
        return removed

    def expire(self, now: float) -> List[tuple]:
        """Pop due timeouts; returns ``[(entry, reason), ...]``.

        Deadlines live in a lazy min-heap: idle-timeout refreshes do not
        rewrite the heap, so a popped deadline may be stale — the entry
        is then re-armed at its true deadline instead of evicted.  Cost
        is O(k log n) for k due entries, not a sweep of every entry.
        """
        heap = self._deadline_heap
        expired: List[tuple] = []
        while heap and heap[0][0] <= now:
            _deadline, _push_id, seq, entry = heapq.heappop(heap)
            if entry not in self._live or entry._seq != seq:
                continue  # removed or replaced since the push; drop lazily
            reason = entry.is_expired(now)
            if reason is None:
                # The deadline moved (idle refresh); re-arm at the real one.
                self._arm_deadline(entry)
                continue
            expired.append((entry, reason))
            self._remove(entry)
        if expired:
            # Canonical (-priority, -seq) order, matching table iteration,
            # so flow-removed notification order is deterministic.
            expired.sort(key=lambda pair: (-pair[0].priority, -pair[0]._seq))
            self._changed()
        return expired

    def clear(self) -> int:
        count = self._count
        self._buckets.clear()
        self._neg_prios.clear()
        self._live.clear()
        self._deadline_heap.clear()
        self._count = 0
        self._timeout_count = 0
        if count:
            self._changed()
        return count

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, key: FlowKey) -> Optional[FlowEntry]:
        """The highest-priority entry matching ``key``, or ``None``."""
        self.lookup_count += 1
        if self._m_lookups is not None:
            self._m_lookups.inc()
        probe = None
        for neg_prio in self._neg_prios:
            bucket = self._buckets[-neg_prio]
            best = None
            if bucket.exact:
                if probe is None:
                    probe = _probe_key(key)
                best = bucket.exact.get(probe)
            if bucket.wild:
                # Newest-first; a wildcard entry older than the exact hit
                # cannot win the recency tie-break, so stop there.
                floor = best._seq if best is not None else -1
                for entry in reversed(bucket.wild):
                    if entry._seq < floor:
                        break
                    if entry.match.matches(key):
                        best = entry
                        break
            if best is not None:
                self.matched_count += 1
                if self._m_matches is not None:
                    self._m_matches.inc()
                return best
        return None

    def record_lookup(self, hit: bool) -> None:
        """Account a lookup served by a cache above this table.

        The datapath's microflow fast path resolves packets without
        touching the pipeline, but stats replies must stay bit-identical
        with the cache on or off — so cache hits replay the counter
        effects of the lookups they skipped.
        """
        self.lookup_count += 1
        if self._m_lookups is not None:
            self._m_lookups.inc()
        if hit:
            self.matched_count += 1
            if self._m_matches is not None:
                self._m_matches.inc()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _iter_entries(self) -> Iterator[FlowEntry]:
        """All entries in canonical (-priority, -seq) order."""
        for neg_prio in self._neg_prios:
            bucket = self._buckets[-neg_prio]
            if bucket.exact:
                merged = list(bucket.exact.values())
                merged.extend(bucket.wild)
                merged.sort(key=lambda e: -e._seq)
                yield from merged
            else:
                yield from reversed(bucket.wild)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[FlowEntry]:
        return self._iter_entries()

    def entries(
        self, predicate: Optional[Callable[[FlowEntry], bool]] = None
    ) -> List[FlowEntry]:
        if predicate is None:
            return list(self._iter_entries())
        return [e for e in self._iter_entries() if predicate(e)]

    @property
    def size(self) -> int:
        """Resident entry count (occupancy as an absolute number)."""
        return self._count

    @property
    def has_timeouts(self) -> bool:
        """True when some resident entry carries an idle/hard timeout."""
        return self._timeout_count > 0

    @property
    def occupancy(self) -> float:
        """Fill fraction in [0, 1]; 0.0 for unbounded tables (use
        :attr:`size` for the absolute count)."""
        if not self.capacity:
            return 0.0
        return self._count / self.capacity

    def __repr__(self) -> str:
        cap = self.capacity or "∞"
        return f"<FlowTable id={self.table_id} {self._count}/{cap}>"
