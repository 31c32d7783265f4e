"""Packet-lifecycle tracing: timestamped span trees over one frame's
journey.

A traced packet carries a ``trace_id`` (a plain int stamped on the
:class:`~repro.packet.base.Packet` object); every layer it crosses
appends a :class:`Span` to the tracer — host TX, link transit, table
lookups, the punt, the control-channel hop, controller dispatch, app
handlers, and the resulting flow-mods/packet-outs.  Spans are stamped
with *simulated* time, so a trace is a causal latency breakdown of one
packet and is bit-identical across runs with the same seed.

Crossing the control channel re-serialises the frame, which strips any
in-memory attribute.  The tracer bridges that gap with a stash/adopt
pair: the sender stashes the trace id under a key derived from the wire
bytes, and the receiver adopts it after decoding.  Channels are ordered
and lossless, so FIFO adoption per key is exact.

A tracer's traces leave it in one form, a list of ``{"id", "label",
"spans"}`` dicts (:func:`repro.telemetry.artifact.tracer_traces`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Hashable, List, Optional, Tuple

__all__ = ["Span", "Tracer", "NULL_TRACER", "NullTracer", "STAGES",
           "EXTRA_STAGES", "ALL_STAGES"]

#: Canonical stage names, in life-of-a-packet order.  Rendering sorts
#: spans by time, but the stage tells you which layer emitted one.
STAGES = ("host", "link", "dataplane", "channel", "controller", "app")

#: Stages outside the single-packet lifecycle: ``shard`` marks boundary
#: hops between shard kernels, ``fault`` marks injection roots, and
#: ``cluster`` the east-west handover machinery.  Kept separate so the
#: packet-lifecycle acceptance bar (a trace crossing every ``STAGES``
#: entry) stays meaningful on a single-controller platform.
EXTRA_STAGES = ("shard", "cluster", "fault")

#: Every stage any layer may emit, in canonical render order.
ALL_STAGES = STAGES + EXTRA_STAGES

#: Retention caps, read when a :class:`Tracer` is built: live traces
#: held at once, and spans held across them.
MAX_TRACES = 256
MAX_SPANS = 4096


class Span:
    """One timestamped step of a traced packet's journey.

    ``span_id`` is unique across the whole tracer (and, via the
    tracer's ``id_base``, across every shard of a sharded run);
    ``parent`` points at the causally preceding span of the same
    trace, turning a trace from a flat timeline into a span *tree*
    whose longest root-to-leaf chain is the critical path.
    """

    __slots__ = ("trace_id", "span_id", "parent", "name", "stage",
                 "start", "end", "attrs")

    def __init__(self, trace_id: int, name: str, stage: str,
                 start: float, end: float, attrs: dict,
                 span_id: int = 0, parent: Optional[int] = None) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.stage = stage
        self.start = start
        self.end = end
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent": self.parent,
            "name": self.name,
            "stage": self.stage,
            "start": self.start,
            "end": self.end,
            "attrs": {k: str(v) for k, v in sorted(self.attrs.items())},
        }

    def __repr__(self) -> str:
        return (
            f"<Span #{self.trace_id} {self.name} [{self.stage}] "
            f"t={self.start:.6f}+{self.duration * 1e6:.1f}us>"
        )


class Tracer:
    """Collects spans per trace id; bounded and sampled for big runs.

    Retention is a ring over *spans*, not just traces: :data:`MAX_SPANS`
    caps the total spans held at once, and once it is exceeded the
    oldest trace's spans are evicted first (whole traces at a time, so
    surviving traces stay complete).  Before this cap the tracer kept
    every span for the whole run — a slow leak at E12-scale workloads.
    Evictions are counted in :attr:`dropped_spans` and reported through
    the ``telemetry_trace_dropped_spans_total`` counter via
    :attr:`on_drop`.
    """

    enabled = True

    def __init__(self, sample_every: int = 1,
                 clock: Optional[Callable[[], float]] = None,
                 id_base: int = 0) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1: {sample_every}")
        self.sample_every = sample_every
        self.max_traces = MAX_TRACES
        self.max_spans = MAX_SPANS
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        #: Offset for every id this tracer mints.  A sharded run gives
        #: shard *k* the base ``k * SHARD_ID_STRIDE``, so trace and
        #: span ids are globally unique and the engine can merge the
        #: per-shard tracers into one trace list without renumbering.
        self.id_base = id_base
        self._spans: Dict[int, List[Span]] = {}
        self._labels: Dict[int, str] = {}
        #: Trace ids in creation order — the ring's eviction order.
        self._order: Deque[int] = deque()
        self._span_total = 0
        self._next_id = id_base + 1
        self._span_seq = id_base
        self._seen = 0
        self.dropped = 0
        self.dropped_spans = 0
        #: Stash entries discarded because their connection scope
        #: epoch-bumped before adoption (the PR-10 leak fix).
        self.stash_pruned = 0
        #: Called with the number of spans evicted by the retention
        #: ring; :class:`~repro.telemetry.Telemetry` points this at a
        #: counter so drops are visible in the metrics plane.
        self.on_drop: Optional[Callable[[int], None]] = None
        self._stash: Dict[
            Hashable, Deque[Tuple[int, float, Hashable]]
        ] = {}

    # ------------------------------------------------------------------
    # Trace lifecycle
    # ------------------------------------------------------------------
    def start_trace(self, label: str = "") -> Optional[int]:
        """Begin a trace if the sampler picks this packet; else ``None``."""
        self._seen += 1
        if (self._seen - 1) % self.sample_every:
            return None
        if len(self._spans) >= self.max_traces:
            self.dropped += 1
            return None
        trace_id = self._next_id
        self._next_id += 1
        self._spans[trace_id] = []
        self._labels[trace_id] = label
        self._order.append(trace_id)
        return trace_id

    def record(self, trace_id: Optional[int], name: str, stage: str,
               start: Optional[float] = None, end: Optional[float] = None,
               parent: Optional[int] = None, **attrs) -> Optional[int]:
        """Append a span; instantaneous unless ``start``/``end`` differ.

        ``parent`` links the span under a previously recorded one (by
        span id) to form the causal tree.  Returns the new span's id so
        callers can thread it through as the next parent, or ``None``
        when the trace is unsampled/evicted.
        """
        if trace_id is None:
            return None
        spans = self._spans.get(trace_id)
        if spans is None:
            return None
        now = self.clock()
        if end is None:
            end = now
        if start is None:
            start = end
        self._span_seq += 1
        span = Span(trace_id, name, stage, start, end, attrs,
                    span_id=self._span_seq, parent=parent)
        spans.append(span)
        self._span_total += 1
        if self._span_total > self.max_spans:
            self._evict(keep=trace_id)
        return span.span_id

    def end_span(self, trace_id: Optional[int], span_id: Optional[int],
                 end: Optional[float] = None) -> None:
        """Move a recorded span's end time forward (span-around-work)."""
        if trace_id is None or span_id is None:
            return
        for span in reversed(self._spans.get(trace_id, ())):
            if span.span_id == span_id:
                span.end = self.clock() if end is None else end
                return

    def adopt_foreign(self, trace_id: Optional[int],
                      label: str = "") -> bool:
        """Register a trace id minted by *another* tracer.

        Used by the sharded kernel when a traced frame crosses a
        boundary link: the receiving shard's tracer starts recording
        spans under the sender's globally unique id.  Bypasses the
        sampler (the origin shard already made the sampling decision)
        but still honours ``max_traces``.
        """
        if trace_id is None:
            return False
        if trace_id in self._spans:
            return True
        if len(self._spans) >= self.max_traces:
            self.dropped += 1
            return False
        self._spans[trace_id] = []
        self._labels[trace_id] = label
        self._order.append(trace_id)
        return True

    def _evict(self, keep: int) -> None:
        """Drop whole traces, oldest first, until back under the cap.

        The trace currently being written (``keep``) survives even if
        it is the oldest — its own tail would otherwise vanish as it
        grew; a single trace larger than the whole ring is left intact.
        """
        evicted = 0
        while self._span_total > self.max_spans and self._order:
            if self._order[0] == keep:
                if len(self._order) == 1:
                    break
                self._order.rotate(-1)  # spare the live trace this pass
                continue
            tid = self._order.popleft()
            spans = self._spans.pop(tid, None)
            self._labels.pop(tid, None)
            if spans:
                evicted += len(spans)
                self._span_total -= len(spans)
        if evicted:
            self.dropped_spans += evicted
            if self.on_drop is not None:
                self.on_drop(evicted)

    # ------------------------------------------------------------------
    # Cross-serialisation context propagation
    # ------------------------------------------------------------------
    def stash(self, key: Hashable, trace_id: Optional[int],
              scope: Hashable = None) -> None:
        """Park a trace id before its packet is flattened to bytes.

        ``scope`` names the connection the bytes ride (the control
        channel object); :meth:`prune_scope` evicts every entry of a
        scope when its connection epoch bumps, because frames
        serialised into the old epoch are dropped on arrival and their
        stashed ids would otherwise never be adopted — they used to
        accumulate forever *and* could be mis-adopted by an identical
        post-reconnect frame.
        """
        if trace_id is None:
            return
        self._stash.setdefault(key, deque()).append(
            (trace_id, self.clock(), scope)
        )

    def adopt(self, key: Hashable) -> Tuple[Optional[int], float]:
        """Claim the oldest stashed ``(trace_id, stash_time)`` for ``key``."""
        queue = self._stash.get(key)
        if not queue:
            return None, 0.0
        trace_id, stashed_at, _scope = queue.popleft()
        if not queue:
            del self._stash[key]
        return trace_id, stashed_at

    def prune_scope(self, scope: Hashable) -> int:
        """Drop every stash entry parked under ``scope``.

        Called by :class:`~repro.southbound.channel.ControlChannel` on
        every connection epoch change; returns the number of entries
        pruned (also accumulated in :attr:`stash_pruned`).
        """
        if scope is None:
            return 0
        pruned = 0
        dead_keys = []
        for key, queue in self._stash.items():
            kept = deque(e for e in queue if e[2] is not scope)
            removed = len(queue) - len(kept)
            if removed:
                pruned += removed
                if kept:
                    self._stash[key] = kept
                else:
                    dead_keys.append(key)
        for key in dead_keys:
            del self._stash[key]
        self.stash_pruned += pruned
        return pruned

    @property
    def stash_size(self) -> int:
        """Entries currently parked (leak regression surface)."""
        return sum(len(q) for q in self._stash.values())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def traces(self) -> List[Tuple[int, str, List[Span]]]:
        """Every trace as ``(id, label, spans)``, in id order."""
        return [
            (tid, self.label(tid), spans)
            for tid, spans in sorted(self._spans.items())
        ]

    def label(self, trace_id: int) -> str:
        """The label a live trace was started with ("" once evicted)."""
        return self._labels.get(trace_id, "")

    def spans(self, trace_id: int) -> List[Span]:
        return list(self._spans.get(trace_id, ()))

    def stages_of(self, trace_id: int) -> List[str]:
        """Distinct stages the trace crossed, in canonical order."""
        present = {s.stage for s in self._spans.get(trace_id, ())}
        return [s for s in ALL_STAGES if s in present]

    @property
    def trace_count(self) -> int:
        return len(self._spans)

    @property
    def spans_recorded(self) -> int:
        """Spans minted over the tracer's life, evicted ones included."""
        return self._span_seq - self.id_base

    def __repr__(self) -> str:
        return f"<Tracer {self.trace_count} traces>"


class NullTracer(Tracer):
    """Disabled tracer: never samples, never stores."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def start_trace(self, label: str = "") -> Optional[int]:
        return None

    def record(self, trace_id, name, stage, start=None, end=None,
               parent=None, **attrs) -> Optional[int]:
        return None

    def end_span(self, trace_id, span_id, end=None) -> None:
        pass

    def adopt_foreign(self, trace_id, label="") -> bool:
        return False

    def stash(self, key, trace_id, scope=None) -> None:
        pass

    def adopt(self, key):
        return None, 0.0

    def prune_scope(self, scope) -> int:
        return 0


NULL_TRACER = NullTracer()

