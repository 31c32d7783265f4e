"""repro.telemetry — the unified observability plane.

One :class:`Telemetry` object bundles the two things a run document
carries.  The :class:`~repro.sim.kernel.Simulator` owns it, and every
layer built on that kernel reads it as ``sim.telemetry``:

* :class:`~repro.telemetry.registry.MetricsRegistry` — counters, gauges,
  histograms with labels, published by the sim kernel, links, datapaths,
  control channels, and the controller;
* :class:`~repro.telemetry.trace.Tracer` — packet-lifecycle spans
  (host TX → link → table lookup → punt → dispatch → app → flow-mod),
  serialised in one form, a list of ``{"id", "label", "spans"}`` dicts
  (:mod:`repro.telemetry.artifact`; the renderers in
  :mod:`repro.telemetry.export` read it).

The plane has one mode.  Metrics are always on: each layer's metric is
a read-through of a count the layer keeps anyway, so the registry costs
binding at build time and little per packet.
Tracing is the one opt-in: only a caller that reads spans builds
``Telemetry(trace=True)`` (``repro run --trace``, a traced sharded
run); every other plane holds :data:`~repro.telemetry.trace.NULL_TRACER`
and records nothing.  To see what led to an alert, replay the run:
every run is seeded and deterministic, so ``repro run --spec DOC
--duration T --trace`` reruns a saved document up to any instant T
with full traces.

Per-flow counters have a protocol path of their own: a flow-mod with
``SEND_FLOW_REM`` comes back as a ``FlowRemoved`` message carrying the
entry's match, counters, duration and reason.

Telemetry must never perturb the simulation: nothing in this package
schedules events or draws from the kernel RNG.
"""

from __future__ import annotations

from typing import Callable

from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.sketch import QuantileSketch
from repro.telemetry.trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "QuantileSketch",
    "Span",
    "Telemetry",
    "Tracer",
]


class Telemetry:
    """The assembled observability plane for one platform/run.

    The metrics registry is always there.  ``trace`` is off unless
    asked for: a caller that reads spans (``repro run --trace``, E18, a
    shard worker of a traced sharded run) passes ``trace=True``;
    everyone else gets :data:`NULL_TRACER`, so no hop records, stashes
    or adopts a span and the two tracer-only families
    (``telemetry_trace_dropped_spans_total``,
    ``trace_stash_pruned_total``) never exist.
    """

    def __init__(self, trace: bool = False, trace_sample_every: int = 1,
                 trace_id_base: int = 0) -> None:
        self.metrics = MetricsRegistry()
        self.tracer: Tracer = (
            Tracer(sample_every=trace_sample_every, id_base=trace_id_base)
            if trace else NULL_TRACER
        )
        if self.tracer.enabled:
            self.tracer.on_drop = self.metrics.counter(
                "telemetry_trace_dropped_spans_total",
                "Spans evicted by the tracer's retention ring",
            ).inc

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
        return f"<Telemetry {'tracing' if self.tracing else 'metrics'}>"
