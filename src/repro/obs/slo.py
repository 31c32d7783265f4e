"""Declarative SLOs evaluated online against the time-series plane.

An :class:`SLO` turns one signal — a windowed aggregate over scraped
series (:class:`SeriesSLO`) or the age of un-answered fault annotations
(:class:`ConvergenceSLO`) — into a per-tick good/bad verdict.  The
:class:`SLOEvaluator` runs every SLO on each scrape tick (it registers
as a scraper ``on_tick`` hook, so it executes inside the kernel's
read-only observer window and can never perturb the run) and drives a
small burn-rate alert state machine per SLO:

* with ``budget == 0`` an alert fires once the SLO has been bad for
  ``for_s`` consecutive seconds (Prometheus ``for:`` semantics);
* with ``budget > 0`` the evaluator tracks the bad-tick fraction over a
  trailing ``burn_window`` and fires when the *burn rate* — observed bad
  fraction divided by the budgeted fraction — sustains >= 1 for
  ``for_s`` seconds, which is the classic error-budget burn alert.

Alerts resolve after ``resolve_s`` clean seconds.  Every transition is
timestamped in sim time, so the fire/resolve timeline lines up exactly
with fault windows on the dashboard.  :meth:`SLOEvaluator.finish`
produces a :class:`HealthReport`, a plain-data summary that serialises
into run artifacts and diffs across runs.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

__all__ = [
    "Alert",
    "ConvergenceSLO",
    "HealthReport",
    "SLO",
    "SLOEvaluator",
    "SeriesSLO",
    "default_slos",
    "handover_slo",
    "slo_from_spec",
]

_OPS = ("<=", ">=")


class Alert:
    """One firing interval of one SLO (open-ended until resolved)."""

    __slots__ = ("slo", "fired_at", "resolved_at", "worst")

    def __init__(self, slo: str, fired_at: float,
                 resolved_at: Optional[float] = None,
                 worst: Optional[float] = None) -> None:
        self.slo = slo
        self.fired_at = fired_at
        self.resolved_at = resolved_at
        self.worst = worst

    @property
    def duration(self) -> Optional[float]:
        if self.resolved_at is None:
            return None
        return self.resolved_at - self.fired_at

    def to_dict(self) -> dict:
        return {"slo": self.slo, "fired_at": self.fired_at,
                "resolved_at": self.resolved_at, "worst": self.worst}

    @classmethod
    def from_dict(cls, data: dict) -> "Alert":
        return cls(data["slo"], data["fired_at"], data.get("resolved_at"),
                   data.get("worst"))

    def __repr__(self) -> str:
        end = (f"{self.resolved_at:.3f}"
               if self.resolved_at is not None else "firing")
        return f"<Alert {self.slo} [{self.fired_at:.3f},{end}]>"


class SLO:
    """Base objective: a measured signal compared against a threshold.

    Subclasses implement :meth:`measure`; everything else — breach
    detection, budget accounting, alert timing — is shared.
    """

    def __init__(self, name: str, threshold: float, op: str = "<=",
                 for_s: float = 0.0, resolve_s: Optional[float] = None,
                 budget: float = 0.0, burn_window: float = 1.0,
                 severity: str = "page",
                 description: str = "") -> None:
        if op not in _OPS:
            raise ValueError(f"op must be one of {_OPS}: {op!r}")
        if not 0.0 <= budget < 1.0:
            raise ValueError(f"budget must be in [0, 1): {budget}")
        self.name = name
        self.threshold = threshold
        self.op = op
        self.for_s = for_s
        self.resolve_s = resolve_s if resolve_s is not None else for_s
        self.budget = budget
        self.burn_window = burn_window
        self.severity = severity
        self.description = description

    # -- signal --------------------------------------------------------
    def measure(self, scraper, t: float) -> Optional[float]:
        """The signal value at tick ``t``; None when not yet measurable."""
        raise NotImplementedError

    def bad(self, value: float) -> bool:
        return value > self.threshold if self.op == "<=" \
            else value < self.threshold

    def spec(self) -> dict:
        return {
            "name": self.name, "kind": type(self).__name__,
            "threshold": self.threshold, "op": self.op,
            "for_s": self.for_s, "budget": self.budget,
            "severity": self.severity, "description": self.description,
        }

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name}: "
                f"signal {self.op} {self.threshold}>")


class SeriesSLO(SLO):
    """An SLO over scraped series.

    ``series`` selects by exact id or, with ``prefix=True``, every
    series whose id starts with it (the per-label children of a
    family).  ``signal`` picks the windowed aggregate:

    * ``last``/``min``/``max``/``mean``/``sum`` — over raw samples in
      the trailing ``window`` (or the latest sample when ``window`` is
      None and signal is ``last``);
    * ``rate`` — per-second counter increase over ``window``;
    * ``delta`` — counter increase over ``window``;
    * ``quantile`` — sketch-backed ``q`` over observations in
      ``window`` (histogram series only).

    With several matching series, per-series values fold with
    ``combine`` (``max``, the worst-case default, or ``sum``/``min``).
    """

    _COMBINE = {"max": max, "min": min, "sum": sum}

    def __init__(self, name: str, series: str, threshold: float,
                 signal: str = "last", window: Optional[float] = None,
                 q: float = 0.95, prefix: bool = False,
                 combine: str = "max", **kwargs) -> None:
        super().__init__(name, threshold, **kwargs)
        if combine not in self._COMBINE:
            raise ValueError(f"combine must be one of "
                             f"{sorted(self._COMBINE)}: {combine!r}")
        if signal in ("rate", "delta", "quantile") and window is None:
            raise ValueError(f"signal {signal!r} needs a window")
        self.series = series
        self.signal = signal
        self.window = window
        self.q = q
        self.prefix = prefix
        self.combine = combine

    def _matching(self, scraper) -> list:
        if self.prefix:
            return scraper.match(self.series)
        found = scraper.get(self.series)
        return [found] if found is not None else []

    def measure(self, scraper, t: float) -> Optional[float]:
        values: List[float] = []
        t0 = t - self.window if self.window is not None else None
        for series in self._matching(scraper):
            if self.signal == "rate":
                value: Optional[float] = series.rate(self.window, at=t)
            elif self.signal == "delta":
                value = series.delta(t - self.window, t)
            elif self.signal == "quantile":
                value = series.quantile(self.q, t0, t)
            elif self.signal == "last":
                point = series.last
                value = point[1] if point is not None and (
                    t0 is None or point[0] >= t0) else None
            else:
                value = series.agg(self.signal, t0, t)
            if value is not None:
                values.append(value)
        if not values:
            return None
        return self._COMBINE[self.combine](values)

    def spec(self) -> dict:
        doc = super().spec()
        doc.update({"series": self.series, "signal": self.signal,
                    "window": self.window, "prefix": self.prefix})
        if self.signal == "quantile":
            doc["q"] = self.q
        return doc


class ConvergenceSLO(SLO):
    """Time from a fault annotation to its convergence annotation.

    Watches the scraper's shared timeline: every annotation whose kind
    is in ``open_kinds`` (e.g. ``channel_down``) opens a convergence
    obligation for its label; an annotation in ``close_kinds`` with the
    same label (e.g. ``resync_done`` for the same switch) discharges it
    and records the elapsed time as a *measurement*.  The per-tick
    signal is the age of the oldest still-open obligation — so the SLO
    goes bad, and an alert eventually fires, exactly while the platform
    is taking longer than ``threshold`` seconds to re-converge.
    """

    def __init__(self, name: str, threshold: float,
                 open_kinds: Tuple[str, ...] = ("channel_down",
                                                "switch_crash"),
                 close_kinds: Tuple[str, ...] = ("resync_done",),
                 **kwargs) -> None:
        kwargs.setdefault("op", "<=")
        super().__init__(name, threshold, **kwargs)
        self.open_kinds = tuple(open_kinds)
        self.close_kinds = tuple(close_kinds)
        #: Completed (label, opened_at, elapsed) convergence measurements.
        self.measurements: List[Tuple[str, float, float]] = []
        #: Trace-id exemplar per measurement (same index), ``None``
        #: when the opening annotation carried no trace.
        self.exemplars: List[Optional[int]] = []
        self._open: Dict[str, float] = {}
        self._open_trace: Dict[str, Optional[int]] = {}
        self._cursor = 0  # annotations consumed so far

    def measure(self, scraper, t: float) -> Optional[float]:
        annotations = scraper.annotations
        while self._cursor < len(annotations):
            ann = annotations[self._cursor]
            self._cursor += 1
            if ann.kind in self.open_kinds:
                # Re-opening resets the clock; the older fault is
                # superseded by the newer one for the same target.
                self._open[ann.label] = ann.time
                self._open_trace[ann.label] = getattr(ann, "trace_id",
                                                      None)
            elif ann.kind in self.close_kinds:
                opened = self._open.pop(ann.label, None)
                if opened is not None:
                    self.measurements.append(
                        (ann.label, opened, ann.time - opened))
                    self.exemplars.append(
                        self._open_trace.pop(ann.label, None))
        if not self._open:
            return 0.0
        return max(t - opened for opened in self._open.values())

    def spec(self) -> dict:
        doc = super().spec()
        doc.update({"open_kinds": list(self.open_kinds),
                    "close_kinds": list(self.close_kinds)})
        return doc


class _SLOState:
    """Per-SLO alert state machine driven by the evaluator."""

    __slots__ = ("ticks", "bad_ticks", "worst", "bad_since", "good_since",
                 "firing", "alert", "recent")

    def __init__(self) -> None:
        self.ticks = 0
        self.bad_ticks = 0
        self.worst: Optional[float] = None
        self.bad_since: Optional[float] = None
        self.good_since: Optional[float] = None
        self.firing = False
        self.alert: Optional[Alert] = None
        #: Trailing (t, bad) outcomes for burn-rate accounting.
        self.recent: Deque[Tuple[float, bool]] = deque()


class SLOEvaluator:
    """Runs a set of SLOs against one scraper, tick by tick."""

    def __init__(self, slos: List[SLO], scraper) -> None:
        names = [slo.name for slo in slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {sorted(names)}")
        self.slos = list(slos)
        self.scraper = scraper
        self.alerts: List[Alert] = []
        self._state: Dict[str, _SLOState] = {
            slo.name: _SLOState() for slo in self.slos
        }

    # -- wiring --------------------------------------------------------
    def attach(self) -> "SLOEvaluator":
        """Register as a scraper tick hook (online evaluation)."""
        self.scraper.on_tick.append(self.on_tick)
        return self

    # -- evaluation ----------------------------------------------------
    def on_tick(self, t: float) -> None:
        for slo in self.slos:
            value = slo.measure(self.scraper, t)
            if value is None:
                continue
            state = self._state[slo.name]
            state.ticks += 1
            bad = slo.bad(value)
            if state.worst is None or (value > state.worst
                                       if slo.op == "<="
                                       else value < state.worst):
                state.worst = value
            if bad:
                state.bad_ticks += 1
            self._update_alerting(slo, state, t, bad, value)

    def _burning(self, slo: SLO, state: _SLOState, t: float,
                 bad: bool) -> bool:
        """Is this tick part of an alert-worthy breach?"""
        if slo.budget <= 0.0:
            return bad
        state.recent.append((t, bad))
        horizon = t - slo.burn_window
        while state.recent and state.recent[0][0] < horizon:
            state.recent.popleft()
        bad_fraction = (sum(1 for _, b in state.recent if b)
                        / len(state.recent))
        return bad_fraction / slo.budget >= 1.0

    def _update_alerting(self, slo: SLO, state: _SLOState, t: float,
                         bad: bool, value: float) -> None:
        if self._burning(slo, state, t, bad):
            state.good_since = None
            if state.bad_since is None:
                state.bad_since = t
            if (not state.firing
                    and t - state.bad_since >= slo.for_s):
                state.firing = True
                state.alert = Alert(slo.name, fired_at=t, worst=value)
                self.alerts.append(state.alert)
            if state.firing and state.alert is not None:
                worse = (value > state.alert.worst if slo.op == "<="
                         else value < state.alert.worst)
                if state.alert.worst is None or worse:
                    state.alert.worst = value
        else:
            state.bad_since = None
            if state.firing:
                if state.good_since is None:
                    state.good_since = t
                if t - state.good_since >= slo.resolve_s:
                    state.firing = False
                    state.alert.resolved_at = t
                    state.alert = None
            else:
                state.good_since = t

    # -- reporting -----------------------------------------------------
    def finish(self, t: Optional[float] = None) -> "HealthReport":
        """Build the run's health report (alerts still firing stay
        open-ended; ``t`` stamps the report's horizon)."""
        if t is None:
            t = self.scraper.sim.now if self.scraper.sim is not None \
                else 0.0
        summaries = []
        for slo in self.slos:
            state = self._state[slo.name]
            doc = slo.spec()
            doc.update({
                "ticks": state.ticks,
                "bad_ticks": state.bad_ticks,
                "bad_fraction": (state.bad_ticks / state.ticks
                                 if state.ticks else 0.0),
                "worst": state.worst,
                "firing": state.firing,
                "alerts": [a.to_dict() for a in self.alerts
                           if a.slo == slo.name],
            })
            if isinstance(slo, ConvergenceSLO):
                exemplars = list(slo.exemplars)
                exemplars += [None] * (len(slo.measurements)
                                       - len(exemplars))
                doc["measurements"] = [
                    {"label": label, "opened_at": opened,
                     "elapsed": elapsed, "trace_id": exemplar}
                    for (label, opened, elapsed), exemplar
                    in zip(slo.measurements, exemplars)
                ]
            summaries.append(doc)
        return HealthReport(t, summaries)

    def __repr__(self) -> str:
        firing = sum(1 for s in self._state.values() if s.firing)
        return (f"<SLOEvaluator {len(self.slos)} SLOs, "
                f"{len(self.alerts)} alerts ({firing} firing)>")


class HealthReport:
    """Plain-data health summary: one entry per SLO, plus the alert
    timeline.  Serialises into run artifacts; diffable across runs."""

    def __init__(self, horizon: float, slos: List[dict]) -> None:
        self.horizon = horizon
        self.slos = slos

    @property
    def ok(self) -> bool:
        """True when no alert ever fired."""
        return not any(slo["alerts"] for slo in self.slos)

    @property
    def alerts(self) -> List[Alert]:
        return [Alert.from_dict(a) for slo in self.slos
                for a in slo["alerts"]]

    def slo(self, name: str) -> Optional[dict]:
        for doc in self.slos:
            if doc["name"] == name:
                return doc
        return None

    def to_dict(self) -> dict:
        return {"horizon": self.horizon, "ok": self.ok,
                "slos": self.slos}

    @classmethod
    def from_dict(cls, data: dict) -> "HealthReport":
        return cls(data["horizon"], data["slos"])

    def __repr__(self) -> str:
        verdict = "ok" if self.ok else "ALERTS"
        return (f"<HealthReport {len(self.slos)} SLOs {verdict} "
                f"@{self.horizon:.3f}s>")


def slo_from_spec(doc: dict) -> SLO:
    """Build an SLO from its declarative (JSON-friendly) form.

    The inverse of :meth:`SLO.spec` for the keys that matter, so
    workload specs can declare extra objectives::

        {"kind": "series", "name": "fct-p99", "series": "workload_...",
         "threshold": 0.5, "signal": "quantile", "q": 0.99,
         "window": 2.0, "prefix": true}

    ``kind`` is ``series`` (default) or ``convergence``; remaining keys
    mirror the constructor arguments of :class:`SeriesSLO` /
    :class:`ConvergenceSLO`.
    """
    doc = dict(doc)
    kind = doc.pop("kind", "series").replace("SLO", "").lower()
    common = {
        key: doc.pop(key)
        for key in ("op", "for_s", "resolve_s", "budget", "burn_window",
                    "severity", "description")
        if key in doc
    }
    if kind == "series":
        return SeriesSLO(
            doc.pop("name"), doc.pop("series"), doc.pop("threshold"),
            signal=doc.pop("signal", "last"),
            window=doc.pop("window", None),
            q=doc.pop("q", 0.95),
            prefix=doc.pop("prefix", False),
            combine=doc.pop("combine", "max"),
            **common,
        )
    if kind == "convergence":
        return ConvergenceSLO(
            doc.pop("name"), doc.pop("threshold"),
            open_kinds=tuple(doc.pop("open_kinds",
                                     ("channel_down", "switch_crash"))),
            close_kinds=tuple(doc.pop("close_kinds", ("resync_done",))),
            **common,
        )
    raise ValueError(f"unknown SLO kind {kind!r}")


def default_slos(interval: float = 0.1) -> List[SLO]:
    """The stock objective set for a ZenSDN platform run.

    Thresholds are tuned for the shipped demo topologies at the default
    1 ms control latency; scenario-specific runs can pass their own
    list.  ``interval`` is the scrape interval, used to size the
    windows that must span at least one tick.
    """
    tick = max(interval, 1e-6)
    return [
        # Transient blackholes (as seen by repro.check's monitor) must
        # clear within a second: bad while the violation counter still
        # climbs within the trailing window.
        SeriesSLO(
            "blackhole-freedom", "check_violations_total", 0.0,
            signal="delta", window=2 * tick, prefix=True, combine="sum",
            for_s=1.0, severity="page",
            description="invariant violations stopped accruing",
        ),
        # Reconnect reconciliation finishes within a second of the
        # fault that caused it.
        ConvergenceSLO(
            "convergence-after-fault", 1.0, for_s=0.0, severity="page",
            description="resync completes <= 1s after channel loss "
                        "or crash",
        ),
        # The control channel never serialises more than 50 ms deep.
        SeriesSLO(
            "channel-backlog", "obs_channel_backlog_seconds", 0.05,
            signal="max", window=2 * tick, prefix=True,
            for_s=2 * tick, severity="ticket",
            description="control-channel serialisation backlog depth",
        ),
        # Punted packets reach their app quickly (controller queue age).
        SeriesSLO(
            "punt-latency-p95",
            "controller_packet_in_delay_seconds", 0.01,
            signal="quantile", q=0.95, window=1.0, prefix=True,
            for_s=2 * tick, budget=0.05, burn_window=1.0,
            severity="ticket",
            description="p95 packet-in queueing delay",
        ),
        # Disconnected-but-remembered switches must re-enter promptly.
        SeriesSLO(
            "stale-switches", "controller_stale_switches", 0.0,
            signal="last", for_s=1.5, severity="page",
            description="switches awaiting reconnect",
        ),
    ]


def handover_slo(threshold: float = 0.5) -> ConvergenceSLO:
    """Mastership handover latency objective for controller clusters.

    Opens on every ``controller_crash`` fault annotation and closes on
    the matching ``handover_done`` annotation (same
    ``controller-<node>`` label, emitted by
    :meth:`~repro.obs.ObsPlane.watch_cluster` when the survivors have
    adopted every switch the crashed node mastered).  The measured
    elapsed time is the fault-to-full-ownership recovery window that
    experiment E15 sweeps against cluster size.
    """
    return ConvergenceSLO(
        "cluster-handover", threshold,
        open_kinds=("controller_crash",),
        close_kinds=("handover_done",),
        for_s=0.0, severity="page",
        description="mastership handover completes after a "
                    "controller crash",
    )
