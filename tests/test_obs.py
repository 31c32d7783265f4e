"""repro.obs: time-series engine, health/SLO plane, run diffing.

The doctrine — attaching the whole obs plane leaves a seeded run's
dataplane bit-identical — is the scraper axis of the equivalence
matrix (``test_equivalence.py``).  Here: unit coverage for the sketch,
series rings, scraper alignment, deterministic scrape timelines, SLO
alert timing against scripted faults, artifact round-trips, the
regression-flagging diff, and a golden-file test for the Prometheus
exposition format.
"""

import json

import pytest

from repro.cli import main
from repro.core import ZenPlatform
from repro.errors import SimulationError
from repro.faults import FaultSchedule, arm_faults
from repro.netem import Topology
from repro.sim import Simulator
from repro.telemetry import Telemetry
from repro.telemetry.sketch import QuantileSketch

from repro.obs import (
    ConvergenceSLO,
    MetricsScraper,
    ObsPlane,
    RunArtifact,
    SLOEvaluator,
    Series,
    SeriesSLO,
    diff_runs,
    fault_windows,
    load_artifact,
    render_dashboard,
    render_diff,
    render_health,
    sparkline,
)
from repro.obs.scraper import Annotation


def _platform(seed=7, profile="proactive", size=4):
    return ZenPlatform(
        Topology.ring(size, hosts_per_switch=1),
        profile=profile, seed=seed, telemetry=Telemetry(),
    ).start()


def _warm(platform):
    hosts = list(platform.net.hosts.values())
    for a in hosts:
        for b in hosts:
            if a is not b:
                a.add_static_arp(b.ip, b.mac)
    for i, host in enumerate(hosts):
        host.send_udp(hosts[(i + 1) % len(hosts)].ip, 7, 7, b"warm")


# ----------------------------------------------------------------------
# Quantile sketch
# ----------------------------------------------------------------------
class TestQuantileSketch:
    def test_quantiles_within_relative_error(self):
        sketch = QuantileSketch(alpha=0.01)
        values = [i / 1000.0 for i in range(1, 10001)]
        sketch.extend(values)
        for q in (0.5, 0.9, 0.95, 0.99):
            true = values[int(q * len(values)) - 1]
            est = sketch.quantile(q)
            assert abs(est - true) / true < 0.03

    def test_merge_equals_union_stream(self):
        a, b, union = (QuantileSketch() for _ in range(3))
        for i in range(1, 500):
            a.observe(i * 0.001)
            union.observe(i * 0.001)
        for i in range(500, 1000):
            b.observe(i * 0.01)
            union.observe(i * 0.01)
        a.merge(b)
        assert a.count == union.count
        assert a.quantile(0.5) == union.quantile(0.5)
        assert a.quantile(0.99) == union.quantile(0.99)

    def test_delta_since_is_the_in_between_sketch(self):
        sketch = QuantileSketch()
        for i in range(100):
            sketch.observe(0.001 * (i + 1))
        earlier = sketch.copy()
        for i in range(100):
            sketch.observe(1.0 + i)
        delta = sketch.delta_since(earlier)
        assert delta.count == 100
        assert delta.quantile(0.01) >= 0.9  # only the late, large values

    def test_round_trip(self):
        sketch = QuantileSketch()
        sketch.extend([0.0, 0.5, 2.0, 2.0, 9.0])
        loaded = QuantileSketch.from_dict(
            json.loads(json.dumps(sketch.to_dict()))
        )
        assert loaded.count == sketch.count
        assert loaded.quantile(0.5) == sketch.quantile(0.5)
        assert loaded.min == 0.0 and loaded.max == 9.0

    def test_zero_and_negative_clamp(self):
        sketch = QuantileSketch()
        sketch.observe(-1.0)
        sketch.observe(0.0)
        sketch.observe(4.0)
        assert sketch.quantile(0.0) == 0.0
        assert sketch.count == 3

    def test_incompatible_alpha_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))


# ----------------------------------------------------------------------
# Series rings
# ----------------------------------------------------------------------
class TestSeries:
    def test_ring_evicts_into_rollups(self, monkeypatch):
        monkeypatch.setattr("repro.obs.series.CAPACITY", 8)
        monkeypatch.setattr("repro.obs.series.ROLLUP_FACTOR", 4)
        series = Series("g", "gauge")
        for i in range(20):
            series.sample(float(i), float(i * 10))
        assert len(series) == 8
        rollups = series.rollups()
        assert rollups and rollups[0].count == 4
        assert rollups[0].min == 0.0 and rollups[0].max == 30.0
        assert series.samples_taken == 20

    def test_counter_rate_and_delta(self):
        series = Series("c", "counter")
        for i in range(11):
            series.sample(i * 0.1, float(i * 5))
        assert series.delta(0.0, 1.0) == pytest.approx(50.0)
        assert series.rate(0.5, at=1.0) == pytest.approx(50.0)

    def test_windowed_quantile_merges_only_window_sketches(self):
        series = Series("h", "histogram")
        cum = QuantileSketch()
        for i in range(10):
            cum.observe(0.001 if i < 5 else 1.0)
            series.sample(float(i), float(cum.count),
                          cum_sketch=cum)
        early = series.quantile(0.5, t0=0.0, t1=4.0)
        late = series.quantile(0.5, t0=5.0, t1=9.0)
        assert early == pytest.approx(0.001, rel=0.05)
        assert late == pytest.approx(1.0, rel=0.05)

    def test_quantile_on_gauge_rejected(self):
        with pytest.raises(ValueError):
            Series("g", "gauge").quantile(0.5)

    def test_agg_window(self):
        series = Series("g", "gauge")
        for i in range(5):
            series.sample(float(i), float(i))
        assert series.agg("mean", 1.0, 3.0) == pytest.approx(2.0)
        assert series.agg("max") == 4.0
        assert series.agg("min", t0=10.0) is None


# ----------------------------------------------------------------------
# Kernel observers + scraper
# ----------------------------------------------------------------------
class TestScraper:
    def test_observer_cannot_schedule(self):
        sim = Simulator()

        def naughty():
            sim.schedule_at(sim.now + 1.0, lambda: None)

        sim.observe_every(0.5, naughty)
        sim.schedule_at(2.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.run(until=2.0)

    def test_observer_ticks_do_not_count_as_events(self):
        sim = Simulator()
        ticks = []
        sim.observe_every(0.1, lambda: ticks.append(sim.now))
        sim.schedule_at(1.0, lambda: None)
        sim.run(until=1.0)
        assert len(ticks) == 10
        assert sim.events_processed == 1

    def test_scrape_aligns_with_sim_clock(self):
        platform = _platform()
        plane = ObsPlane(platform, interval=0.25)
        platform.run(2.0)
        series = plane.scraper.get("sim_events_total")
        assert series is not None
        times = [t for t, _ in series.points()]
        assert times == pytest.approx(
            [platform.sim.now - 2.0 + 0.25 * (i + 1) for i in range(8)]
        )

    def test_probes_sampled_as_gauges(self):
        platform = _platform()
        plane = ObsPlane(platform, interval=0.1)
        platform.run(1.0)
        backlog = plane.scraper.match("obs_channel_backlog_seconds")
        assert len(backlog) == len(platform.net.switches)
        assert all(s.kind == "gauge" for s in backlog)

    def test_fault_windows_pair_and_annotations_align(self):
        platform = _platform()
        plane = ObsPlane(platform, interval=0.1)
        sched = FaultSchedule(platform.net)
        plane.watch_faults(sched)
        start = platform.sim.now + 0.5
        arm_faults(sched, [{"kind": "link_flap", "a": "s1", "b": "s2",
                            "at": 0.5, "down_for": 0.4, "period": 1.0,
                            "count": 2}], base=platform.sim.now)
        platform.run(3.0)
        windows = plane.scraper.windows()
        assert [w.kind for w in windows] == ["link_down", "link_down"]
        assert windows[0].start == pytest.approx(start)
        assert windows[0].duration == pytest.approx(0.4)
        # Convergence annotations (resync/enter) landed on the timeline.
        kinds = {a.kind for a in plane.scraper.annotations}
        assert "link_down" in kinds and "link_up" in kinds

    def test_double_attach_rejected(self):
        platform = _platform()
        plane = ObsPlane(platform, interval=0.1)
        with pytest.raises(RuntimeError):
            plane.scraper.attach(platform.sim)


# ----------------------------------------------------------------------
# SLO plane
# ----------------------------------------------------------------------
class TestSLOs:
    def test_alert_fire_resolve_timing_around_link_cut(self):
        """A gauge SLO breached by a scripted link cut fires after
        ``for_s`` sustained and resolves after the repair."""
        platform = _platform()
        net = platform.net
        link = net.link("s1", "s2")
        scraper = MetricsScraper(platform.telemetry, interval=0.1)
        platform.telemetry.metrics.gauge("link_s1_s2_down", "", ()).bind(
            (), lambda: 0.0 if link.up else 1.0)
        scraper.attach(platform.sim)
        slo = SeriesSLO("link-up", "link_s1_s2_down", 0.0,
                        signal="last", for_s=0.2, resolve_s=0.0)
        evaluator = SLOEvaluator([slo], scraper).attach()

        base = platform.sim.now
        sched = FaultSchedule(net)
        arm_faults(sched, [{"kind": "link_flap", "a": "s1", "b": "s2",
                            "at": 1.0, "down_for": 1.0, "period": 2.0,
                            "count": 1}], base=base)
        platform.run(3.0)

        report = evaluator.finish(platform.sim.now)
        alerts = report.slo("link-up")["alerts"]
        assert len(alerts) == 1
        # Bad from t=base+1.0; first bad tick at the next scrape; fires
        # once 0.2s of badness has been observed.
        assert alerts[0]["fired_at"] == pytest.approx(base + 1.3,
                                                      abs=0.11)
        assert alerts[0]["resolved_at"] == pytest.approx(base + 2.1,
                                                         abs=0.11)
        assert not report.ok

    def test_burn_rate_budget_tolerates_sparse_badness(self):
        sim = Simulator()
        telemetry = Telemetry()
        scraper = MetricsScraper(telemetry, interval=0.1)
        state = {"bad": False}
        telemetry.metrics.gauge("flaky", "", ()).bind(
            (), lambda: 1.0 if state["bad"] else 0.0)
        scraper.attach(sim)
        tight = SeriesSLO("tight", "flaky", 0.0, for_s=0.0)
        budgeted = SeriesSLO("budgeted", "flaky", 0.0, for_s=0.0,
                             budget=0.5, burn_window=2.0)
        evaluator = SLOEvaluator([tight, budgeted], scraper).attach()
        # One bad tick in twenty: 5% badness, well inside a 50% budget.
        sim.schedule_at(1.0, lambda: state.update(bad=True))
        sim.schedule_at(1.1, lambda: state.update(bad=False))
        sim.schedule_at(2.0, lambda: None)
        sim.run(until=2.0)
        report = evaluator.finish(sim.now)
        assert report.slo("tight")["alerts"]
        assert not report.slo("budgeted")["alerts"]

    def test_convergence_slo_measures_fault_to_resync(self):
        platform = _platform()
        plane = ObsPlane(platform, interval=0.05)
        sched = FaultSchedule(platform.net)
        plane.watch_faults(sched)
        base = platform.sim.now
        arm_faults(sched, [{"kind": "channel_flap", "switch": "s1",
                            "at": 0.5, "down_for": 0.4, "period": 2.0,
                            "count": 1}], base=base)
        platform.run(3.0)
        report = plane.finish()
        doc = report.slo("convergence-after-fault")
        measured = doc["measurements"]
        assert len(measured) == 1
        assert measured[0]["label"] == "s1"
        # Down at +0.5 for 0.4s; resync completes shortly after.
        assert 0.4 < measured[0]["elapsed"] < 1.0
        assert not doc["alerts"]

    def test_convergence_slo_signal_is_oldest_open_age(self):
        scraper = MetricsScraper(Telemetry())
        slo = ConvergenceSLO("conv", 1.0)
        scraper.annotations.append(Annotation(1.0, "channel_down", "s1"))
        scraper.annotations.append(Annotation(1.5, "switch_crash", "s2"))
        assert slo.measure(scraper, 2.0) == pytest.approx(1.0)
        scraper.annotations.append(Annotation(2.2, "resync_done", "s1"))
        # s1 discharged; s2 is now the oldest open obligation.
        assert slo.measure(scraper, 2.5) == pytest.approx(1.0)
        scraper.annotations.append(Annotation(3.0, "resync_done", "s2"))
        assert slo.measure(scraper, 3.5) == 0.0
        assert [(label, elapsed) for label, _, elapsed
                in slo.measurements] == [
            ("s1", pytest.approx(1.2)), ("s2", pytest.approx(1.5)),
        ]

    def test_duplicate_slo_names_rejected(self):
        scraper = MetricsScraper(Telemetry())
        slos = [SeriesSLO("x", "a", 0.0), SeriesSLO("x", "b", 0.0)]
        with pytest.raises(ValueError):
            SLOEvaluator(slos, scraper)


# ----------------------------------------------------------------------
# Artifacts + diff
# ----------------------------------------------------------------------
def _run_artifact(seed=7, faults=False, down_for=0.5):
    platform = _platform(seed=seed)
    plane = ObsPlane(platform, interval=0.1)
    sched = FaultSchedule(platform.net)
    plane.watch_faults(sched)
    _warm(platform)
    if faults:
        arm_faults(sched, [{"kind": "channel_flap", "switch": "s1",
                            "at": 0.5, "down_for": down_for,
                            "period": down_for + 1.5, "count": 2}],
                   base=platform.sim.now)
    platform.run(6.0)
    plane.finish()
    return plane.artifact(seed=seed, faults=faults)


class TestArtifact:
    def test_round_trip(self, tmp_path):
        artifact = _run_artifact(faults=True)
        path = tmp_path / "run.json"
        artifact.save(str(path))
        loaded = load_artifact(str(path))
        assert set(loaded.series) == set(artifact.series)
        assert loaded.horizon == artifact.horizon
        assert len(loaded.annotations) == len(artifact.annotations)
        assert loaded.health.ok == artifact.health.ok
        sid = "channel_messages_total{channel=\"s1\",direction=\"to_switch\"}"
        assert loaded.series[sid].points() == artifact.series[sid].points()
        assert [w.start for w in loaded.windows()] == \
            [w.start for w in artifact.windows()]

    def test_format_tag_checked(self):
        with pytest.raises(ValueError):
            RunArtifact.from_dict({"format": "something/else"})

    def test_same_seed_same_artifact(self):
        a = _run_artifact(faults=True)
        b = _run_artifact(faults=True)
        assert json.dumps(a.to_dict(), sort_keys=True) == \
            json.dumps(b.to_dict(), sort_keys=True)


class TestDiff:
    def test_identical_runs_diff_empty(self):
        a = _run_artifact()
        b = _run_artifact()
        report = diff_runs(a, b)
        assert report.ok
        assert not report.changed
        assert not report.only_base and not report.only_cur

    def test_injected_regression_is_flagged(self):
        """A crash-churn run against a clean baseline must flag the
        health-plane regression (stale-switch alert fires)."""
        clean = _run_artifact(faults=False)
        churn = _run_artifact(faults=True, down_for=2.0)
        report = diff_runs(clean, churn)
        assert not report.ok
        flagged = {e.signal for e in report.regressions}
        assert any(s.startswith("slo:") for s in flagged), flagged
        # Volume growth under churn is reported but never fatal.
        assert all(not e.signal.startswith("channel_messages")
                   for e in report.regressions)
        text = render_diff(report)
        assert "REGRESSION" in text and "FAIL" in text

    def test_improvement_direction(self):
        clean = _run_artifact(faults=False)
        churn = _run_artifact(faults=True, down_for=2.0)
        report = diff_runs(churn, clean)  # churn as baseline
        assert report.ok
        assert report.improvements

    def test_synthetic_series_regression(self):
        def artifact(drops):
            series = Series("channel_dropped_total{channel=\"s1\"}",
                            "counter")
            for i in range(20):
                series.sample(i * 0.1, float(drops * i / 19))
            return RunArtifact({series.name: series}, [], horizon=2.0)

        report = diff_runs(artifact(0), artifact(40))
        assert [e.flag for e in report.entries] == ["REGRESSION"]


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
class TestRendering:
    def test_sparkline_shape(self):
        line = sparkline([0.0, 0.5, 1.0, None])
        assert len(line) == 4
        assert line[0] == "▁" and line[2] == "█" and line[3] == "·"

    def test_dashboard_has_fault_ruler_and_windows(self):
        artifact = _run_artifact(faults=True)
        text = render_dashboard(artifact, width=40,
                                select=["channel_messages"])
        assert "▓" in text
        assert "fault window: channel_down s1" in text
        assert "time axis:" in text

    def test_dashboard_respects_selection_cap(self):
        artifact = _run_artifact()
        text = render_dashboard(artifact, width=20, max_series=3)
        assert "more series" in text

    def test_health_render_lists_alerts(self):
        churn = _run_artifact(faults=True, down_for=2.0)
        text = render_health(churn.health)
        assert "ALERTS FIRED" in text
        assert "alert stale-switches" in text


# ----------------------------------------------------------------------
# Determinism: identical runs scrape identically
# ----------------------------------------------------------------------
class TestBitIdentity:
    def test_observer_fires_between_events_deterministically(self):
        """Two identical runs see identical scrape timelines."""
        def run():
            platform = _platform(seed=11)
            plane = ObsPlane(platform, interval=0.1)
            _warm(platform)
            platform.run(2.0)
            plane.finish()
            return json.dumps(plane.artifact().to_dict(),
                              sort_keys=True)

        assert run() == run()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestObsCLI:
    def test_report_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        rc = main(["run", "--seed", "3", "--duration", "2",
                   "--out", str(out)])
        assert rc == 0
        assert out.exists()
        loaded = load_artifact(str(out))
        assert loaded.scrapes > 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "Health @" in capsys.readouterr().out

    def test_dashboard_from_artifact(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        main(["run", "--seed", "3", "--duration", "2",
              "--fault", "link", "--out", str(out)])
        capsys.readouterr()
        rc = main(["report", str(out), "--series", "channel_messages",
                   "--width", "30"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "time axis:" in text and "▓" in text

    def test_diff_exit_codes(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        _run_artifact(faults=False).save(str(a))
        _run_artifact(faults=True, down_for=2.0).save(str(b))
        assert main(["diff", str(a), str(a)]) == 0
        assert main(["diff", str(a), str(b)]) == 1
        text = capsys.readouterr().out
        assert "FAIL" in text


# ----------------------------------------------------------------------
# Fault-window pairing (pure function)
# ----------------------------------------------------------------------
def test_fault_window_pairing_orphans_stay_open():
    anns = [
        Annotation(1.0, "link_down", "s1-s2"),
        Annotation(2.0, "link_up", "s1-s2"),
        Annotation(3.0, "channel_down", "s3"),
    ]
    windows = fault_windows(anns)
    assert len(windows) == 2
    assert windows[0].duration == pytest.approx(1.0)
    assert windows[1].end is None
