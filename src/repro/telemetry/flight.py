"""Flight recorder: bounded span/event rings with triggered capture.

An aircraft flight recorder does not stream; it keeps a bounded tail of
everything and survives the crash.  This one holds per-component rings
of the most recent spans (fed by the tracer's ``on_span`` hook, so it
sees spans even after the tracer's own retention ring evicts their
traces) plus a ring of fault/check events, and *dumps* them
deterministically the instant something goes red: an
:class:`~repro.check.monitor.InvariantMonitor` violation or an SLO
alert firing.  A dump is the ``traces``, ``triggers`` and ``meta``
sections of a run artifact, as plain data.  Every red verdict
therefore ships its causal history, bounded in memory no matter how
long the run.

Doctrine: the recorder is a pure observer.  Hook bodies read state and
append to Python lists — no kernel events, no RNG — so arming it leaves
a seeded run bit-identical.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.telemetry.artifact import group_traces

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Bounded capture of recent spans + events, dumped on triggers.

    Parameters
    ----------
    telemetry:
        The run's telemetry plane; the recorder chains its tracer's
        ``on_span`` hook.
    capacity:
        Spans retained per component ring (component = span stage).
    max_events:
        Fault/check events retained.
    max_dumps:
        Dumps kept; later triggers beyond this are counted in
        :attr:`dumps_suppressed` but not captured (a red run would
        otherwise dump per violation, unbounded).
    """

    def __init__(self, telemetry, capacity: int = 256,
                 max_events: int = 256, max_dumps: int = 8) -> None:
        self.capacity = capacity
        self.max_dumps = max_dumps
        self.rings: Dict[str, Deque] = {}
        self.events: Deque[dict] = deque(maxlen=max_events)
        self.dumps: List[dict] = []
        self.dumps_suppressed = 0
        self.spans_seen = 0
        self._tracer = telemetry.tracer
        if self._tracer.enabled:
            previous = self._tracer.on_span

            def hook(span) -> None:
                if previous is not None:
                    previous(span)
                self._on_span(span)

            self._tracer.on_span = hook

    # ------------------------------------------------------------------
    # Feeds
    # ------------------------------------------------------------------
    def _on_span(self, span) -> None:
        self.spans_seen += 1
        ring = self.rings.get(span.stage)
        if ring is None:
            ring = self.rings[span.stage] = deque(maxlen=self.capacity)
        ring.append(span)

    def note_event(self, kind: str, detail: str, time: float) -> None:
        """Append one contextual event to the event ring."""
        self.events.append({"time": time, "kind": kind,
                            "detail": detail})

    # ------------------------------------------------------------------
    # Trigger wiring (appends to hook lists; never replaces behaviour)
    # ------------------------------------------------------------------
    def watch_faults(self, schedule) -> "FlightRecorder":
        """Record every injection in the event ring (context, not a
        dump trigger — faults are scripted, not failures)."""
        schedule.on_fire.append(
            lambda event: self.note_event(f"fault:{event.kind}",
                                          event.target, event.time)
        )
        return self

    def watch_monitor(self, monitor) -> "FlightRecorder":
        """Dump when an invariant check comes back red."""
        def hook(record) -> None:
            if not record.result.ok:
                names = ",".join(sorted(
                    v.invariant for v in record.result.violations))
                self.trigger("violation",
                             f"{names} at {record.trigger}",
                             record.time)

        monitor.on_record.append(hook)
        return self

    def watch_alerts(self, evaluator) -> "FlightRecorder":
        """Dump when an SLO alert fires."""
        evaluator.on_alert.append(
            lambda alert: self.trigger("alert", alert.slo,
                                       alert.fired_at))
        return self

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    def trigger(self, kind: str, detail: str,
                time: float) -> Optional[dict]:
        """Capture the rings into a dump (bounded by max_dumps)."""
        self.note_event(kind, detail, time)
        if len(self.dumps) >= self.max_dumps:
            self.dumps_suppressed += 1
            return None
        dump = self.snapshot(
            triggers=[{"time": time, "kind": kind, "detail": detail}])
        self.dumps.append(dump)
        return dump

    def snapshot(self, triggers: Optional[List[dict]] = None) -> dict:
        """The rings' current contents as deterministic ``traces``,
        ``triggers`` and ``meta`` sections.

        Spans are regrouped by trace id (a ring is per *component*)
        the way :func:`~repro.telemetry.artifact.merge` regroups
        shards; trace labels come from the live tracer where the trace
        still exists, else empty — eviction is part of the story a
        bounded recorder tells.
        """
        label = self._tracer.label
        traces = group_traces(
            (span.trace_id, label(span.trace_id), (span.to_dict(),))
            for stage in sorted(self.rings)
            for span in self.rings[stage])
        meta = {
            "kind": "flight-recorder",
            "capacity": self.capacity,
            "spans_seen": self.spans_seen,
            "events": list(self.events),
            "rings": {stage: len(ring)
                      for stage, ring in sorted(self.rings.items())},
        }
        return {"traces": traces, "triggers": list(triggers or ()),
                "meta": meta}

    def __repr__(self) -> str:
        held = sum(len(r) for r in self.rings.values())
        return (f"<FlightRecorder {held} spans in "
                f"{len(self.rings)} rings, {len(self.dumps)} dumps>")
