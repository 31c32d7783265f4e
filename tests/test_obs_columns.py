"""The columnar run record: one time column per scraper, a flat scrape
plan, and a run digest hashed from the columns.

``RunResult.full_digest`` never builds the run document: it walks a
:class:`~repro.digest.Spliced` form whose series points are rendered
from the columns.  Every case here pins that digest to
``canonical_digest`` over the plain document, whose bytes the committed
goldens were blessed with.  The semantics tests pin the ring queries
against a plain list of ``(t, v)`` points, the layout the columns
replaced.
"""

import json
import math

import pytest

from repro.core import ZenPlatform
from repro.digest import Spliced, canonical_digest
from repro.netem import Topology
from repro.obs import (
    MetricsScraper,
    ObsPlane,
    RunArtifact,
    RunResult,
    Series,
    load_artifact,
)
from repro.obs import series as series_module
from repro.obs.series import PointText
from repro.sim import Simulator
from repro.telemetry import Telemetry
from repro.telemetry.sketch import QuantileSketch
from repro.workload import assemble, library, run_assembled

SUMMARY = {"events": 3, "health_ok": True, "name": "columns"}


def _assert_digest_is_the_documents(artifact, summary=SUMMARY):
    plain = canonical_digest({"summary": summary,
                              "artifact": artifact.to_dict()})
    assert RunResult(None, summary, artifact).full_digest == plain
    return json.dumps(artifact.to_dict(), sort_keys=True)


def _scraped(build, scrapes=12, interval=0.1, until=None):
    """A simulator and a scraper whose registry ``build(registry,
    step)`` fills between scrapes, after ``scrapes`` observer ticks (or
    a run to ``until``) and one final scrape."""
    sim = Simulator(seed=0)
    scraper = MetricsScraper(Telemetry(), interval=interval).attach(sim)
    step = [0]

    def tick():
        build(scraper.telemetry.metrics, step[0])
        step[0] += 1

    sim.observe_every(interval, tick)
    sim.run(until if until is not None else scrapes * interval + 1e-9)
    scraper.scrape_now()
    return sim, scraper


def _artifact(scraper, **sections):
    return RunArtifact(dict(scraper.series), list(scraper.annotations),
                       interval=scraper.interval, horizon=2.0,
                       scrapes=scraper.scrapes, meta={"seed": 1},
                       **sections)


class TestDigestIsTheDocuments:
    def test_nan_infinities_and_negative_zero(self):
        specials = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0]

        def build(registry, step):
            if step == 0:
                family = registry.gauge("odd", "", ("v",))
                for i, value in enumerate(specials):
                    family.bind((str(i),), lambda value=value: value)
                registry.gauge("flip", "", ()).bind(
                    (), lambda: -0.0 if step % 2 else 0.0)

        _, scraper = _scraped(build)
        text = _assert_digest_is_the_documents(_artifact(scraper))
        for token in ("NaN", "Infinity", "-Infinity", "-0.0", " 0.0]"):
            assert token in text

    def test_a_series_born_mid_run(self):
        def build(registry, step):
            registry.counter("early").inc()
            if step >= 5:
                registry.counter("late", "", ("k",)).labels("x").inc(step)

        _, scraper = _scraped(build)
        early = scraper.get("early")
        late = scraper.get('late{k="x"}')
        assert len(early) > len(late) > 0
        assert late.first[0] > early.first[0]
        _assert_digest_is_the_documents(_artifact(scraper))

    def test_wrapped_rings_of_different_ages(self, monkeypatch):
        monkeypatch.setattr(series_module, "CAPACITY", 8)
        monkeypatch.setattr(series_module, "ROLLUP_FACTOR", 3)

        def build(registry, step):
            registry.gauge("old").set(step * 1.5)
            if step >= 7:
                registry.gauge("young").set(-step)

        _, scraper = _scraped(build, scrapes=20)
        old, young = scraper.get("old"), scraper.get("young")
        assert len(old) == len(young) == 8
        assert old.rollups() and young.rollups()
        assert old.samples_taken > young.samples_taken > 8
        assert len(old.rollups()) > len(young.rollups())
        assert len(scraper._times) <= 2 * 8
        _assert_digest_is_the_documents(_artifact(scraper))

    def test_histograms_with_and_without_a_sketch(self):
        def build(registry, step):
            family = registry.histogram("lat", "", ("path",))
            family.labels("idle")
            if step % 3 == 0:
                family.labels("busy").observe(0.001 * (step + 1))

        _, scraper = _scraped(build)
        text = _assert_digest_is_the_documents(_artifact(scraper))
        doc = json.loads(text)["series"]
        assert doc['lat{path="idle"}']["sketch"] is None
        assert doc['lat{path="busy"}']["sketch"]["count"] == 4

    def test_label_values_that_need_escaping(self):
        def build(registry, step):
            registry.counter("odd_labels", "", ("l",)).labels(
                'quote" back\\ ünïcode ☃').inc()

        _, scraper = _scraped(build)
        (sid,) = scraper.series
        assert '"' in sid and "\\" in sid and "☃" in sid
        _assert_digest_is_the_documents(_artifact(scraper))

    def test_traces_observables_and_checks(self):
        def build(registry, step):
            registry.gauge("g").set(step)

        _, scraper = _scraped(build)
        artifact = _artifact(
            scraper,
            traces=[{"id": 1, "label": "t", "spans": [{"name": "s"}]}],
            observables={"flows": [[1, "h1", 2.5]]},
            checks={"ok": True, "probes": 4})
        text = _assert_digest_is_the_documents(artifact)
        assert all(key in json.loads(text)
                   for key in ("traces", "observables", "checks"))

    def test_a_loaded_document(self, tmp_path):
        def build(registry, step):
            registry.gauge("g", "", ("n",)).labels("a").set(step / 3)
            registry.histogram("h").observe(step + 0.5)

        _, scraper = _scraped(build)
        artifact = _artifact(scraper)
        path = tmp_path / "run.json"
        artifact.save(str(path))
        loaded = load_artifact(str(path))
        assert loaded.to_dict() == artifact.to_dict()
        _assert_digest_is_the_documents(loaded)
        assert (RunResult(None, SUMMARY, loaded).full_digest
                == RunResult(None, SUMMARY, artifact).full_digest)

    def test_a_last_scrape_on_an_integer_until(self):
        def build(registry, step):
            registry.counter("c").inc()

        sim, scraper = _scraped(build, until=2)
        assert sim.now == 2 and type(sim.now) is int
        last = scraper.get("c").last
        assert type(last[0]) is int
        text = _assert_digest_is_the_documents(_artifact(scraper))
        assert "[2, " in text and "[2.0, " not in text


def _reference(points):
    """The answers the old tuple ring gave over ``points``."""
    def window(t0=None, t1=None):
        return [(t, v) for t, v in points
                if (t0 is None or t >= t0) and (t1 is None or t <= t1)]

    def at(t):
        before = [v for pt, v in points if pt <= t]
        return before[-1] if before else None

    def delta(t0, t1):
        a, b = at(t0), at(t1)
        if a is None:
            a = points[0][1] if points and points[0][0] <= t1 else 0.0
        return 0.0 if b is None else b - a

    return window, at, delta


class TestSeriesSemantics:
    def _scraper(self):
        def build(registry, step):
            registry.counter("a").inc(step)
            if step >= 4:
                registry.counter("b").inc(2 * step)
            if step >= 9:
                registry.gauge("c").set(math.sin(step))
            registry.histogram("h").observe(
                0.001 if step < 8 else 1.0)

        return _scraped(build, scrapes=16)[1]

    def test_queries_answer_as_the_tuple_ring(self):
        scraper = self._scraper()
        assert len({len(s) for s in scraper.series.values()}) == 3
        for series in scraper.series.values():
            points = series.points()
            window, at, delta = _reference(points)
            times = [t for t, _ in points]
            probes = times + [times[0] - 0.05, times[-1] + 0.05,
                              (times[2] + times[3]) / 2]
            for t in probes:
                assert series.at(t) == at(t)
            for t0, t1 in [(None, times[5]), (times[3], None),
                           (times[2], times[6]), (times[6], times[2]),
                           (times[1] + 0.01, times[4] + 0.01)]:
                assert series.points(t0, t1) == window(t0, t1)
                assert series.values(t0, t1) == [v for _, v in
                                                 window(t0, t1)]
            for t0, t1 in [(times[1], times[-2]),
                           (times[0] - 1, times[4]), (times[3], times[2]),
                           (times[-1] + 1, times[-1] + 2)]:
                assert series.delta(t0, t1) == delta(t0, t1)
            end = times[-1]
            assert series.rate(0.3, at=end) == delta(end - 0.3, end) / 0.3
            assert series.rate(0.3) == delta(end - 0.3, end) / 0.3
            assert series.last == points[-1]
            assert series.first == points[0]

    def test_windowed_quantile_reads_only_the_window(self):
        hist = self._scraper().get("h")
        times = [t for t, _ in hist.points()]
        assert hist.quantile(0.5, times[0], times[6]) == pytest.approx(
            0.001, rel=0.05)
        assert hist.quantile(0.5, times[10], times[-1]) == pytest.approx(
            1.0, rel=0.05)
        assert hist.quantile(0.5, times[-1] + 1, None) is None

    def test_from_dict_round_trip(self, monkeypatch):
        monkeypatch.setattr(series_module, "CAPACITY", 6)
        monkeypatch.setattr(series_module, "ROLLUP_FACTOR", 2)
        for series in self._scraper().series.values():
            loaded = Series.from_dict(series.name, series.to_dict())
            assert loaded.points() == series.points()
            assert ([r.to_list() for r in loaded.rollups()]
                    == [r.to_list() for r in series.rollups()])
            assert loaded.samples_taken == series.samples_taken
            assert loaded._times is not series._times
            if series.kind == "histogram":
                # A loaded histogram keeps the whole run as one window.
                assert loaded.quantile(0.5) == \
                    series._last_cum_sketch.quantile(0.5)

    def test_a_standalone_series_owns_its_column(self, monkeypatch):
        monkeypatch.setattr(series_module, "CAPACITY", 4)
        monkeypatch.setattr(series_module, "ROLLUP_FACTOR", 2)
        series = Series("g", "histogram")
        cum = QuantileSketch()
        for i in range(30):
            cum.observe(float(i))
            series.sample(i * 0.5, float(cum.count), cum_sketch=cum)
        assert series.points() == [(i * 0.5, float(i + 1))
                                   for i in range(26, 30)]
        assert len(series._times) <= 2 * 4 + 1
        assert series.samples_taken == 30
        assert len(series._sketches) == 4


def test_obs_sentinel(sentinel):
    """Machine-independent cost of the record on ``dc-heavy-tail``.

    ``R``: the scrape plan is built once and rebuilt only when the
    registry's child set changed.  ``K``: numbers the JSON encoder
    renders per point the digest renders — ``json.dumps`` over the whole
    document renders two (a time and a value); the columns render each
    scrape time once and each distinct value once.  The digest is the
    plain document's.
    """
    spec = library()["dc-heavy-tail"]
    live = assemble(spec)
    result = run_assembled(spec, live)
    scraper = live.plane.scraper
    changes = scraper.telemetry.metrics.version
    text = PointText()
    digest = canonical_digest(Spliced(
        summary=result.summary, artifact=result.artifact.to_dict(text)))
    assert digest == result.digest == canonical_digest(
        {"summary": result.summary, "artifact": result.artifact.to_dict()})
    rebuilds, scrapes = scraper.plans, scraper.scrapes
    reprs_per_point = text.reprs / text.points
    # CI runs this test with -s and greps the line into the job summary.
    sentinel(f"obs sentinel: {rebuilds} plan rebuilds over {scrapes} "
             f"scrapes; {reprs_per_point:.3f} reprs per rendered point")
    assert rebuilds <= 1 + changes
    assert rebuilds < scrapes
    assert reprs_per_point <= 0.25


def test_plan_rebuilds_follow_the_registry_version():
    scraper = MetricsScraper(Telemetry())
    registry = scraper.telemetry.metrics
    registry.counter("a").inc()
    scraper.scrape_now()
    scraper.scrape_now()
    assert scraper.plans == 1
    family = registry.gauge("b", "", ("k",))
    version = registry.version
    family.bind(("x",), lambda: 1.0)
    assert registry.version == version + 1
    family.labels("y")
    assert registry.version == version + 2
    family.labels("y")  # an existing child: no change
    assert registry.version == version + 2
    scraper.scrape_now()
    assert scraper.plans == 2
    assert sorted(scraper.series) == ["a", 'b{k="x"}', 'b{k="y"}']
    assert scraper.get('b{k="x"}').points() == [(0.0, 1.0)]


def test_an_obs_plane_run_digests_identically(tmp_path):
    """A platform with the whole plane on: the saved document reloads
    to the digest the live run hashed from its columns."""
    platform = ZenPlatform(Topology.ring(3, hosts_per_switch=1),
                           profile="proactive", seed=2).start()
    plane = ObsPlane(platform, interval=0.1)
    platform.run(2)
    artifact = plane.artifact(seed=2)
    _assert_digest_is_the_documents(artifact)
    path = tmp_path / "plane.json"
    artifact.save(str(path))
    _assert_digest_is_the_documents(load_artifact(str(path)))
