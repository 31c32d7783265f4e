"""Priority flow tables with timeouts, counters, and capacity limits.

Lookup semantics follow OpenFlow: the highest-priority matching entry wins;
ties are broken by most-recent installation (deterministic in simulation).
Entries may carry idle and hard timeouts; :meth:`FlowTable.expire` pops
them from a lazy deadline heap, returning the evicted entries so the
datapath can emit flow-removed notifications.

Internally the table is a tuple-space classifier (observably a TCAM):
one subtable per match :class:`~repro.dataplane.match.Shape`, a hash
from masked values to entries.  A lookup projects the key onto each
shape and probes one row, best-priority subtables first, until none left
can beat the hit; insert and strict delete probe the one row of their
match.  Cost follows shapes, not rules; table order is derived on demand.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.dataplane.actions import Action
from repro.dataplane.match import FlowKey, Match, Shape
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

    def __repr__(self) -> str:
        return (
            f"<FlowEntry prio={self.priority} {self.match!r} "
            f"actions={self.actions!r} hits={self.packet_count}>"
        )


def _canonical(entry: FlowEntry) -> Tuple[int, int]:
    """Sort key of table order: best priority, then newest, first."""
    return (-entry.priority, -entry._seq)


def _slot(row: List[FlowEntry], priority: int) -> int:
    """Where ``priority`` sits, or would, in a row (ascending; scanned
    from the end: rows are short and bands mostly arrive ascending)."""
    i = len(row)
    while i and row[i - 1].priority >= priority:
        i -= 1
    return i


class _Subtable:
    """The entries of one shape.  ``rows`` maps masked values to the
    entries of that match: the bare entry when there is one (the common
    case), else a list by ascending priority."""

    __slots__ = ("project", "rows", "per_priority", "max_priority")

    def __init__(self, shape: Shape) -> None:
        self.project = shape.project
        self.rows: dict = {}
        self.per_priority: Dict[int, int] = {}  # priority -> entry count
        self.max_priority = -_INFINITY


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
        self._subtables: Dict[Shape, _Subtable] = {}
        self._order: List[_Subtable] = []  # by max_priority, descending
        self._live: set = set()  # identity set of resident entries
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

    def attach_metrics(self, registry, dpid: int) -> None:
        """Bind ``lookup_count``/``matched_count`` as the per-table
        counters labelled by (dpid, table)."""
        labels = (dpid, self.table_id)
        registry.counter(
            "table_lookups_total", "Flow-table lookups",
            ("dpid", "table"),
        ).bind(labels, lambda: self.lookup_count)
        registry.counter(
            "table_matches_total", "Flow-table lookup hits",
            ("dpid", "table"),
        ).bind(labels, lambda: self.matched_count)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _changed(self) -> None:
        if self.on_change is not None:
            self.on_change()

    def _reorder(self) -> None:  # stable: ties keep a deterministic order
        self._order.sort(key=lambda sub: -sub.max_priority)

    def _add(self, entry: FlowEntry) -> None:
        shape, values = entry.match.index()
        sub = self._subtables.get(shape)
        if sub is None:
            sub = self._subtables[shape] = _Subtable(shape)
            self._order.append(sub)
        priority = entry.priority
        row = sub.rows.setdefault(values, entry)
        if row is not entry:  # the match is resident at other priorities
            if type(row) is not list:
                row = sub.rows[values] = [row]
            row.insert(_slot(row, priority), entry)
        sub.per_priority[priority] = sub.per_priority.get(priority, 0) + 1
        if priority > sub.max_priority:
            sub.max_priority = priority
            self._reorder()
        self._live.add(entry)
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
        shape, values = entry.match.index()
        sub = self._subtables[shape]
        row = sub.rows.pop(values)  # one probe in the common, bare case
        if row is not entry:
            row.remove(entry)
            sub.rows[values] = row[0] if len(row) == 1 else row
        priority = entry.priority
        sub.per_priority[priority] -= 1
        if not sub.per_priority[priority]:
            del sub.per_priority[priority]
            if not sub.per_priority:
                del self._subtables[shape]
                self._order.remove(sub)
            elif priority == sub.max_priority:
                sub.max_priority = max(sub.per_priority)
                self._reorder()
        self._live.discard(entry)
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
            entry._seq = existing._seq  # keeps its place in recency
            self._remove(existing)
        else:
            if self.capacity and len(self._live) >= self.capacity:
                if self.eviction_policy != "lru":
                    raise TableFullError(self.table_id, self.capacity)
                victim = min(self._live,
                             key=lambda e: (e.last_used, e._seq))
                self._remove(victim)
                evicted.append(victim)
            self._seq += 1
            entry._seq = self._seq
        entry.install_time = entry.last_used = now
        self._add(entry)
        self._changed()
        return evicted

    def _find_same(self, match: Match,
                   priority: int) -> Optional[FlowEntry]:
        """The resident entry with exactly this (match, priority)."""
        shape, values = match.index()
        sub = self._subtables.get(shape)
        row = sub.rows.get(values) if sub is not None else None
        if type(row) is list:
            i = _slot(row, priority)
            row = row[i] if i < len(row) else None
        if row is not None and row.priority == priority:
            return row
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
        if strict and match is not None:
            candidates = ([] if priority is None
                          else [self._find_same(match, priority)])
        else:
            candidates = self.entries()
            if match is not None:
                candidates = [e for e in candidates
                              if e.match.is_subset_of(match)]
            elif strict and priority is not None:
                candidates = [e for e in candidates
                              if e.priority == priority]
        removed = [e for e in candidates if e is not None
                   and (cookie is None or e.cookie == cookie)]
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
            expired.sort(key=lambda pair: _canonical(pair[0]))
            self._changed()
        return expired

    def clear(self) -> int:
        count = len(self._live)
        self._subtables.clear()
        self._order.clear()
        self._live.clear()
        self._deadline_heap.clear()
        self._timeout_count = 0
        if count:
            self._changed()
        return count

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, key: FlowKey) -> Optional[FlowEntry]:
        """The highest-priority entry matching ``key``, or ``None``."""
        best, floor = None, -_INFINITY
        for sub in self._order:
            if sub.max_priority < floor:
                break  # nothing further down can beat the hit
            row = sub.rows.get(sub.project(key))
            if row is not None:
                if type(row) is list:
                    row = row[-1]
                priority = row.priority
                if priority > floor or (priority == floor
                                        and row._seq > best._seq):
                    best, floor = row, priority
        self.record_lookup(best is not None)
        return best

    def record_lookup(self, hit: bool) -> None:
        """Account one lookup — also one served by a cache above this
        table: the datapath's microflow fast path resolves packets
        without touching the pipeline, but stats replies must stay
        bit-identical cache on or off, so hits replay these counters."""
        self.lookup_count += 1
        if hit:
            self.matched_count += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._live)

    def __iter__(self) -> Iterator[FlowEntry]:
        return iter(self.entries())

    def entries(
        self, predicate: Optional[Callable[[FlowEntry], bool]] = None
    ) -> List[FlowEntry]:
        """Entries in canonical (-priority, -seq) order, derived on
        demand (live seqs are unique, so set order cannot show)."""
        return sorted(filter(predicate, self._live), key=_canonical)

    @property
    def size(self) -> int:
        """Resident entry count (occupancy as an absolute number)."""
        return len(self._live)

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
        return len(self._live) / self.capacity

    def __repr__(self) -> str:
        cap = self.capacity or "∞"
        return f"<FlowTable id={self.table_id} {len(self._live)}/{cap}>"
