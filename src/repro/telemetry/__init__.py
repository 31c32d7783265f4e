"""repro.telemetry — the unified observability plane.

One :class:`Telemetry` object bundles the two things a run document
carries and is threaded through the whole stack by
:class:`~repro.core.platform.ZenPlatform`:

* :class:`~repro.telemetry.registry.MetricsRegistry` — counters, gauges,
  histograms with labels, published by the sim kernel, links, datapaths,
  control channels, and the controller;
* :class:`~repro.telemetry.trace.Tracer` — packet-lifecycle spans
  (host TX → link → table lookup → punt → dispatch → app → flow-mod),
  serialised in one form, a list of ``{"id", "label", "spans"}`` dicts
  (:mod:`repro.telemetry.artifact`; the flight recorder,
  :mod:`repro.telemetry.flight`, dumps it; the renderers in
  :mod:`repro.telemetry.export` read it).  Tracing is
  opt-in: only a caller that reads spans builds ``Telemetry(trace=True)``
  (``repro run --trace|--flight``, a traced sharded run); every other
  plane holds :data:`~repro.telemetry.trace.NULL_TRACER` and records
  nothing.

Per-flow counters have a protocol path of their own: a flow-mod with
``SEND_FLOW_REM`` comes back as a ``FlowRemoved`` message carrying the
entry's match, counters, duration and reason.

Components default to the module-level :data:`NULL_TELEMETRY`, a shared
disabled instance whose registries/tracers are no-ops — with telemetry
off, the hot paths pay at most a cached boolean check, and a run's event
sequence is bit-identical to one on a build without telemetry at all
(enforced by ``tests/test_telemetry.py``).

Telemetry must never perturb the simulation: nothing in this package
schedules events or draws from the kernel RNG.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.telemetry.registry import (
    NULL_METRIC,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.telemetry.sketch import QuantileSketch
from repro.telemetry.trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRIC",
    "NULL_REGISTRY",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "QuantileSketch",
    "Span",
    "Telemetry",
    "Tracer",
]


class Telemetry:
    """The assembled observability plane for one platform/run.

    ``trace`` is off unless asked for: a caller that reads spans
    (``repro run --trace|--flight``, E18, a shard worker of a traced
    sharded run) passes ``trace=True``; everyone else gets the metrics
    registry with :data:`NULL_TRACER`, so no hop records, stashes or
    adopts a span and the two tracer-only families
    (``telemetry_trace_dropped_spans_total``,
    ``trace_stash_pruned_total``) never exist.
    """

    def __init__(
        self,
        enabled: bool = True,
        trace: bool = False,
        trace_sample_every: int = 1,
        max_traces: int = 256,
        max_spans: int = 4096,
        max_label_sets: int = 1024,
        trace_id_base: int = 0,
    ) -> None:
        self.enabled = enabled
        if enabled:
            self.metrics: MetricsRegistry = MetricsRegistry(
                max_label_sets=max_label_sets
            )
            self.tracer: Tracer = (
                Tracer(sample_every=trace_sample_every,
                       max_traces=max_traces, max_spans=max_spans,
                       id_base=trace_id_base)
                if trace else NULL_TRACER
            )
            if self.tracer.enabled:
                dropped = self.metrics.counter(
                    "telemetry_trace_dropped_spans_total",
                    "Spans evicted by the tracer's retention ring",
                )
                self.tracer.on_drop = dropped.inc
        else:
            self.metrics = NULL_REGISTRY
            self.tracer = NULL_TRACER

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer at the simulation clock.

        Called by :class:`~repro.sim.kernel.Simulator` when a telemetry
        object is attached, so spans are stamped with simulated time.
        """
        if self.tracer.enabled:
            self.tracer.clock = clock

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"<Telemetry {state}>"


#: Shared disabled instance used as the default everywhere.
NULL_TELEMETRY = Telemetry(enabled=False)


def ensure(telemetry: Optional[Telemetry]) -> Telemetry:
    """``telemetry`` if given, else the shared disabled instance."""
    return telemetry if telemetry is not None else NULL_TELEMETRY
