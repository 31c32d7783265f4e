"""Sim-clock-driven scraper: MetricsRegistry -> per-series history.

The scraper rides the kernel's observer side-channel
(:meth:`~repro.sim.kernel.Simulator.observe_every`): every ``interval``
simulated seconds it walks the registry and appends one sample per
metric child to that child's :class:`~repro.obs.series.Series` ring.
Observer ticks cannot schedule events or draw randomness, so a scraped
run is bit-identical to an unscraped one — the telemetry doctrine,
extended to history.

The registry is the one pull path: state that is not a pushed metric
(control-channel serialisation backlog, say) is a gauge family bound to
its reader (:meth:`~repro.telemetry.registry.MetricFamily.bind`) and is
sampled like any other child.  Beyond registry families the scraper
supports:

* **annotations** — timestamped marks (fault injections, ``SwitchEnter``
  / ``ResyncDone`` convergence events, invariant violations) that align
  timelines with what the run *did*; paired down/up annotations become
  first-class fault windows on every dashboard;
* **tick hooks** — called after each scrape with the tick time; the SLO
  evaluator uses this to run online.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import series as series_module
from repro.obs.series import Series

__all__ = ["Annotation", "FaultWindow", "MetricsScraper",
           "fault_windows", "series_id"]

#: Annotation kinds that open a window, mapped to the kind closing it.
_WINDOW_PAIRS = {
    "link_down": "link_up",
    "channel_down": "channel_up",
    "switch_crash": "switch_restart",
}


def series_id(name: str, labelnames: Tuple[str, ...],
              labelvalues: Tuple[str, ...]) -> str:
    """Canonical series name: ``family{label="value",...}``."""
    if not labelnames:
        return name
    inner = ",".join(
        f'{k}="{v}"' for k, v in zip(labelnames, labelvalues)
    )
    return f"{name}{{{inner}}}"


class Annotation:
    """One timestamped mark on the run's shared timeline.

    ``trace_id`` is an optional exemplar: the causal trace explaining
    the event (a fault injection's root trace, say), so SLO
    measurements can link a latency number back to its span tree.
    """

    __slots__ = ("time", "kind", "label", "trace_id")

    def __init__(self, time: float, kind: str, label: str,
                 trace_id: Optional[int] = None) -> None:
        self.time = time
        self.kind = kind
        self.label = label
        self.trace_id = trace_id

    def to_dict(self) -> dict:
        doc = {"time": self.time, "kind": self.kind, "label": self.label}
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
        return doc

    def __repr__(self) -> str:
        return f"<Annotation t={self.time:.3f} {self.kind} {self.label}>"


class FaultWindow:
    """A paired down/up annotation span (open-ended when never closed)."""

    __slots__ = ("kind", "label", "start", "end")

    def __init__(self, kind: str, label: str, start: float,
                 end: Optional[float]) -> None:
        self.kind = kind
        self.label = label
        self.start = start
        self.end = end

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def __repr__(self) -> str:
        end = f"{self.end:.3f}" if self.end is not None else "…"
        return f"<FaultWindow {self.kind} {self.label} [{self.start:.3f},{end}]>"


def fault_windows(annotations: List[Annotation]) -> List[FaultWindow]:
    """Pair opening/closing annotations per (kind, label) into windows."""
    windows: List[FaultWindow] = []
    open_by_key: Dict[Tuple[str, str], FaultWindow] = {}
    for ann in annotations:
        if ann.kind in _WINDOW_PAIRS:
            window = FaultWindow(ann.kind, ann.label, ann.time, None)
            windows.append(window)
            open_by_key[(_WINDOW_PAIRS[ann.kind], ann.label)] = window
        else:
            window = open_by_key.pop((ann.kind, ann.label), None)
            if window is not None:
                window.end = ann.time
    return windows


class MetricsScraper:
    """Periodic sampler over one telemetry plane.

    Every series it makes shares one time column, ``_times``: a scrape
    appends its time once, then walks a flat *plan* — one ``(append,
    read)`` pair per counter or gauge child (the series' value column's
    ``append`` and the child's ``snapshot``), one ``(take_sketch,
    child)`` pair per histogram child.  The plan is rebuilt only when
    the registry's ``version`` (its count of family and child changes)
    moved since the last build, so a steady scrape makes no series-id
    string, no dict lookup and no per-point tuple.
    """

    def __init__(self, telemetry, interval: float = 0.1) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        self.telemetry = telemetry
        self.interval = interval
        self.series: Dict[str, Series] = {}
        self.annotations: List[Annotation] = []
        self.scrapes = 0
        #: Plan builds so far (the obs sentinel's ``R``).
        self.plans = 0
        self._times: list = []
        self._plan: List[Tuple[Callable, Callable]] = []
        self._sketched: List[Tuple[Callable, object]] = []
        self._version: Optional[int] = None
        #: Every this many scrapes each ring folds its overflow and the
        #: time column drops the times no series holds any more.
        self._sweep_every = series_module.CAPACITY
        #: Memoised prefix -> matching series; cleared when a series
        #: appears, so SLO evaluation stops re-scanning every tick.
        self._match_cache: Dict[str, List[Series]] = {}
        #: Post-scrape hooks (SLO evaluation), called with the tick time.
        self.on_tick: List[Callable[[float], None]] = []
        self.sim = None
        self._handle = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, sim) -> "MetricsScraper":
        """Start scraping ``sim``'s clock; idempotent per simulator."""
        if self._handle is not None:
            raise RuntimeError("scraper is already attached")
        self.sim = sim
        self._handle = sim.observe_every(self.interval, self.scrape_now)
        return self

    def detach(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def annotate(self, kind: str, label: str,
                 time: Optional[float] = None,
                 trace_id: Optional[int] = None) -> Annotation:
        """Mark the shared timeline (defaults to the current sim time)."""
        if time is None:
            time = self.sim.now if self.sim is not None else 0.0
        ann = Annotation(time, kind, label, trace_id=trace_id)
        self.annotations.append(ann)
        return ann

    # ------------------------------------------------------------------
    # Scraping
    # ------------------------------------------------------------------
    def _build_plan(self, registry) -> None:
        """One plan entry per registry child, in registry order; a
        child seen for the first time gets its series, whose first
        value is this scrape's."""
        plan, sketched = [], []
        for name, family in registry._families.items():
            histogram = family.kind == "histogram"
            for key, child in family.children.items():
                sid = series_id(name, family.labelnames, key)
                series = self.series.get(sid)
                if series is None:
                    series = Series(sid, family.kind, self._times)
                    self.series[sid] = series
                    self._match_cache.clear()
                if histogram:
                    sketched.append((series.take_sketch, child))
                else:
                    plan.append((series._values.append, child.snapshot))
        self._plan, self._sketched = plan, sketched
        self._version = registry.version
        self.plans += 1

    def _sweep(self) -> None:
        for series in self.series.values():
            series._settle()
        held = min((s._start for s in self.series.values()),
                   default=len(self._times))
        del self._times[:held]
        for series in self.series.values():
            series._start -= held

    def scrape_now(self) -> None:
        """Take one sample of every family child.

        Runs inside an observer tick (or may be called directly at run
        end for a final aligned sample).  Strictly read-only.
        """
        t = self.sim.now if self.sim is not None else 0.0
        registry = self.telemetry.metrics
        if registry.version != self._version:
            self._build_plan(registry)
        self._times.append(t)
        for append, read in self._plan:
            append(read())
        for take, child in self._sketched:
            take(child.count, child.sketch)
        self.scrapes += 1
        if not self.scrapes % self._sweep_every:
            self._sweep()
        for hook in self.on_tick:
            hook(t)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, sid: str) -> Optional[Series]:
        return self.series.get(sid)

    def match(self, prefix: str) -> List[Series]:
        """Every series whose name starts with ``prefix``, sorted."""
        cached = self._match_cache.get(prefix)
        if cached is None:
            cached = [self.series[sid] for sid in sorted(self.series)
                      if sid.startswith(prefix)]
            self._match_cache[prefix] = cached
        return cached

    def windows(self) -> List[FaultWindow]:
        return fault_windows(self.annotations)

    def __repr__(self) -> str:
        return (f"<MetricsScraper {len(self.series)} series, "
                f"{self.scrapes} scrapes @ {self.interval}s>")
