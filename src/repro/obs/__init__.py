"""repro.obs — sim-time metrics history, health/SLO plane, run diffing.

The third observability layer, built on ``repro.telemetry``:

* :class:`~repro.obs.scraper.MetricsScraper` — a sim-clock-driven
  scraper riding the kernel's read-only observer side-channel
  (:meth:`~repro.sim.kernel.Simulator.observe_every`): every interval
  it samples the :class:`~repro.telemetry.registry.MetricsRegistry`
  into per-series ring buffers (:class:`~repro.obs.series.Series`) with
  rollup storage and mergeable per-scrape quantile sketches;
* :class:`~repro.obs.slo.SLOEvaluator` — declarative SLOs
  (:func:`~repro.obs.slo.default_slos`) evaluated online each tick
  with burn-rate alerting, producing a
  :class:`~repro.obs.slo.HealthReport`;
* :class:`~repro.obs.artifact.RunArtifact` — the run serialised to one
  JSON file (the one run document every run kind writes, see
  :class:`~repro.obs.artifact.RunResult`), rendered by
  :func:`~repro.obs.render.render_dashboard` and A/B-compared by
  :func:`~repro.obs.diff.diff_runs`.

:class:`ObsPlane` assembles all of it around a
:class:`~repro.core.platform.ZenPlatform` in one call::

    plane = ObsPlane(platform, interval=0.1).watch_faults(schedule)
    platform.run(30.0)
    report = plane.finish()
    plane.artifact(seed=7).save("run.json")

The plane inherits the telemetry doctrine and strengthens it: scrapes
fire between kernel events on the observer side-channel, which forbids
scheduling and never draws randomness, so a seeded run is bit-identical
with the plane attached or absent (``tests/test_obs.py`` proves it
across the fuzz corpus).
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.artifact import RunArtifact, RunResult, load_artifact
from repro.obs.diff import DiffEntry, DiffReport, diff_runs, render_diff
from repro.obs.render import (
    render_dashboard,
    render_health,
    sparkline,
)
from repro.obs.scraper import (
    Annotation,
    FaultWindow,
    MetricsScraper,
    fault_windows,
    series_id,
)
from repro.obs.series import Point, Rollup, Series
from repro.obs.slo import (
    Alert,
    ConvergenceSLO,
    HealthReport,
    SLO,
    SLOEvaluator,
    SeriesSLO,
    default_slos,
    handover_slo,
    slo_from_spec,
)

__all__ = [
    "Alert",
    "Annotation",
    "ConvergenceSLO",
    "DiffEntry",
    "DiffReport",
    "FaultWindow",
    "HealthReport",
    "MetricsScraper",
    "ObsPlane",
    "Point",
    "Rollup",
    "RunArtifact",
    "RunResult",
    "SLO",
    "SLOEvaluator",
    "Series",
    "SeriesSLO",
    "default_slos",
    "diff_runs",
    "fault_windows",
    "handover_slo",
    "load_artifact",
    "render_dashboard",
    "render_diff",
    "render_health",
    "series_id",
    "slo_from_spec",
    "sparkline",
]


class ObsPlane:
    """Scraper + SLO evaluator wired into one platform.

    Attaching never perturbs the run: the scraper rides the observer
    side-channel, the controller subscriptions only append annotations,
    and the channel backlog gauges are pure reads of serialisation state.

    Parameters
    ----------
    platform:
        The :class:`~repro.core.platform.ZenPlatform` to watch.
    interval:
        Scrape period in simulated seconds.
    slos:
        Objectives to evaluate online; defaults to
        :func:`~repro.obs.slo.default_slos`.  Pass ``[]`` to scrape
        without health evaluation.
    """

    def __init__(self, platform, interval: float = 0.1,
                 slos: Optional[List[SLO]] = None) -> None:
        self.platform = platform
        self.scraper = MetricsScraper(
            platform.telemetry, interval=interval).attach(platform.sim)
        self.health = SLOEvaluator(
            default_slos(interval) if slos is None else slos,
            self.scraper,
        ).attach()
        self._report: Optional[HealthReport] = None
        self.watch_controller(platform.controller)
        self.watch_channels(platform.net)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def watch_controller(self, controller) -> "ObsPlane":
        """Annotate ``SwitchEnter``/``ResyncDone`` on the timeline.

        Labels use the switch *name* (via the dpid map of the attached
        network) so convergence annotations pair with fault-injection
        annotations, which target names.
        """
        from repro.controller.events import ResyncDone, SwitchEnter

        names = {
            dp.dpid: name
            for name, dp in self.platform.net.switches.items()
        }

        def label(event) -> str:
            return names.get(event.switch.dpid, str(event.switch.dpid))

        controller.subscribe(
            SwitchEnter,
            lambda ev: self.scraper.annotate("switch_enter", label(ev)),
            owner="obs",
        )
        controller.subscribe(
            ResyncDone,
            lambda ev: self.scraper.annotate("resync_done", label(ev)),
            owner="obs",
        )
        return self

    def watch_channels(self, net) -> "ObsPlane":
        """Bind per-channel serialisation backlog depth as gauges."""
        sim = net.sim
        family = self.platform.telemetry.metrics.gauge(
            "obs_channel_backlog_seconds",
            "Control-channel serialisation backlog",
            ("channel",),
        )
        for name in sorted(net.channels):
            channel = net.channels[name]

            def backlog(ch=channel) -> float:
                if not ch.connected:
                    return 0.0
                return max(
                    0.0,
                    max(ch._busy_until.values(), default=0.0) - sim.now,
                )

            family.bind((name,), backlog)
        return self

    def watch_cluster(self, cluster) -> "ObsPlane":
        """Annotate mastership handovers of a
        :class:`~repro.cluster.node.ControllerCluster`.

        Every :class:`~repro.cluster.node.HandoverRecord` lands as a
        ``handover`` annotation labelled by switch dpid, and each
        completed failover emits ``handover_done`` labelled
        ``controller-<node>`` — the label a ``controller_crash`` fault
        annotation carries, so :func:`~repro.obs.slo.handover_slo`
        measures crash-to-full-ownership latency out of the box.
        """
        cluster.on_handover.append(
            lambda rec: self.scraper.annotate(
                "handover", f"dpid-{rec.dpid}", time=rec.time)
        )
        cluster.on_failover_complete.append(
            lambda node_id, elapsed: self.scraper.annotate(
                "handover_done", f"controller-{node_id}")
        )
        return self

    def watch_faults(self, schedule) -> "ObsPlane":
        """Annotate every injection of a
        :class:`~repro.faults.FaultSchedule`."""
        # The fault's root trace rides along as an exemplar, so
        # convergence measurements opened by this annotation can point
        # back at the causal span tree.
        schedule.on_fire.append(
            lambda event: self.scraper.annotate(
                event.kind, event.target, time=event.time,
                trace_id=getattr(event, "trace_id", None))
        )
        return self

    def watch_monitor(self, monitor) -> "ObsPlane":
        """Annotate invariant violations found by an
        :class:`~repro.check.monitor.InvariantMonitor`."""
        def hook(record) -> None:
            for violation in record.result.violations:
                self.scraper.annotate(
                    "violation",
                    f"{violation.invariant}:{record.trigger}",
                    time=record.time,
                )

        monitor.on_record.append(hook)
        return self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def finish(self) -> HealthReport:
        """Take one final aligned sample and close the health report."""
        self.scraper.scrape_now()
        self._report = self.health.finish(self.platform.sim.now)
        return self._report

    @property
    def report(self) -> HealthReport:
        return self._report if self._report is not None \
            else self.health.finish()

    def artifact(self, **meta) -> RunArtifact:
        """Freeze the run into a :class:`RunArtifact` (finishes the
        health report first if :meth:`finish` was not called)."""
        if self._report is None:
            self.finish()
        return RunArtifact(
            dict(self.scraper.series),
            list(self.scraper.annotations),
            health=self._report,
            interval=self.scraper.interval,
            horizon=self.platform.sim.now,
            scrapes=self.scraper.scrapes,
            meta=meta,
        )

    def __repr__(self) -> str:
        return (f"<ObsPlane {len(self.scraper.series)} series, "
                f"{len(self.health.slos)} SLOs>")
