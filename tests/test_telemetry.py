"""Telemetry plane tests.

Three layers of coverage:

* unit tests for the primitives (registry, tracer) and the null
  tracer;
* end-to-end wiring: a reactive platform with telemetry on must yield
  populated metrics and a trace that crosses every stage of the stack;
* the determinism contract — telemetry must never perturb the
  simulation, and identical seeds must produce identical telemetry.
"""

import json

import pytest

import repro.cli
from repro.cli import main as cli_main
from repro.controller import FlowRemovedEvent
from repro.core import ZenPlatform
from repro.dataplane.match import Match
from repro.netem import Topology
from repro.telemetry import (
    NULL_TRACER,
    MetricsRegistry,
    Telemetry,
    Tracer,
)
from repro.telemetry.artifact import longest, tracer_traces
from repro.telemetry.trace import STAGES, NullTracer


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_zero_label_counter_reads_as_bare_metric(self):
        reg = MetricsRegistry()
        c = reg.counter("events_total", "All events")
        c.inc()
        c.inc(3)
        assert reg.get("events_total") == 4

    def test_counters_only_go_up(self):
        reg = MetricsRegistry()
        c = reg.counter("ups_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labelled_family_memoises_children(self):
        reg = MetricsRegistry()
        fam = reg.counter("tx_total", "TX", ("link",))
        a = fam.labels("l1")
        b = fam.labels("l1")
        assert a is b
        a.inc(2)
        fam.labels("l2").inc(5)
        assert reg.get("tx_total", "l1") == 2
        assert reg.get("tx_total", "l2") == 5

    def test_label_arity_checked(self):
        reg = MetricsRegistry()
        fam = reg.counter("d_total", "", ("a", "b"))
        with pytest.raises(ValueError):
            fam.labels("only-one")

    def test_reregistration_must_agree(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "", ("l",))
        # Same name, same schema: fine (get-or-create).
        reg.counter("x_total", "", ("l",))
        with pytest.raises(ValueError):
            reg.gauge("x_total", "", ("l",))
        with pytest.raises(ValueError):
            reg.counter("x_total", "", ("other",))

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert reg.get("depth") == 7

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        snap = reg.get("lat")
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(5.555)
        assert snap["buckets"] == {"0.01": 1, "0.1": 2, "1.0": 3}

    def test_snapshot_sorted_and_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("b_total").inc()
        reg.counter("a_total", "", ("l",)).labels("z").inc()
        snap = reg.snapshot()
        assert list(snap) == ["a_total", "b_total"]
        assert snap["a_total"]["values"] == {"z": 1}
        assert snap["b_total"]["values"] == {"": 1}


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_spans_accumulate_in_order(self):
        tracer = Tracer()
        tid = tracer.start_trace("ping")
        tracer.record(tid, "host.tx", "host", host="h1")
        tracer.record(tid, "link.transit", "link", start=0.0, end=0.001)
        spans = tracer.spans(tid)
        assert [s.name for s in spans] == ["host.tx", "link.transit"]
        assert spans[1].duration == pytest.approx(0.001)
        assert tracer.stages_of(tid) == ["host", "link"]

    def test_record_without_trace_is_noop(self):
        tracer = Tracer()
        tracer.record(None, "x", "host")
        tracer.record(999, "x", "host")  # unknown id
        assert tracer.trace_count == 0

    def test_sampling_keeps_every_nth(self):
        tracer = Tracer(sample_every=3)
        picks = [tracer.start_trace(f"p{i}") for i in range(9)]
        assert [p is not None for p in picks] == [
            True, False, False, True, False, False, True, False, False,
        ]
        assert tracer.trace_count == 3

    def test_max_traces_cap_counts_drops(self, monkeypatch):
        monkeypatch.setattr("repro.telemetry.trace.MAX_TRACES", 2)
        tracer = Tracer()
        assert tracer.start_trace() is not None
        assert tracer.start_trace() is not None
        assert tracer.start_trace() is None
        assert tracer.dropped == 1

    def test_stash_adopt_is_fifo_per_key(self):
        tracer = Tracer(clock=lambda: 42.0)
        t1, t2 = tracer.start_trace(), tracer.start_trace()
        tracer.stash(("pi", b"wire"), t1)
        tracer.stash(("pi", b"wire"), t2)
        assert tracer.adopt(("pi", b"wire")) == (t1, 42.0)
        assert tracer.adopt(("pi", b"wire")) == (t2, 42.0)
        assert tracer.adopt(("pi", b"wire")) == (None, 0.0)
        assert tracer.adopt(("never", 0)) == (None, 0.0)

    def test_clock_stamps_default_times(self):
        now = [7.5]
        tracer = Tracer(clock=lambda: now[0])
        tid = tracer.start_trace()
        tracer.record(tid, "x", "host")
        span = tracer.spans(tid)[0]
        assert span.start == span.end == 7.5

    def test_null_tracer_never_samples(self):
        tracer = NullTracer()
        assert not tracer.enabled
        assert tracer.start_trace("x") is None
        tracer.stash("k", 1)
        assert tracer.adopt("k") == (None, 0.0)
        assert tracer.trace_count == 0


# ----------------------------------------------------------------------
# The assembled plane
# ----------------------------------------------------------------------
class TestTelemetryObject:
    def test_enabled_plane_has_live_primitives(self):
        tel = Telemetry()
        assert isinstance(tel.metrics, MetricsRegistry)
        # Tracing is opt-in: only a caller that reads spans records them.
        assert tel.tracer is NULL_TRACER and not tel.tracing
        traced = Telemetry(trace=True)
        assert traced.tracing and isinstance(traced.tracer, Tracer)

    def test_the_plane_is_metrics_and_traces(self):
        import repro.obs
        import repro.telemetry

        tel = Telemetry()
        assert not hasattr(tel, "flows") and not hasattr(tel, "profiler")
        with pytest.raises(TypeError):
            Telemetry(profile=False)
        assert not [name for name in repro.telemetry.__all__
                    if "Flow" in name or "Profiler" in name
                    or name in ("NULL_FLOW_RECORDS", "NULL_PROFILER")]
        assert not hasattr(repro.obs, "render_openmetrics")

    def test_observability_has_one_mode(self):
        """Metrics are always on; tracing is the one opt-in."""
        import repro.telemetry
        import repro.telemetry.registry

        for knob in ("enabled", "max_label_sets", "max_traces",
                     "max_spans"):
            with pytest.raises(TypeError):
                Telemetry(**{knob: 1})
        for gone in ("NULL_TELEMETRY", "NULL_REGISTRY", "NULL_METRIC",
                     "NullRegistry", "ensure"):
            assert not hasattr(repro.telemetry, gone)
            assert not hasattr(repro.telemetry.registry, gone)

    def test_tracing_can_be_off_while_metrics_stay_on(self):
        tel = Telemetry(trace=False)
        assert not tel.tracing and not hasattr(tel, "enabled")
        assert isinstance(tel.metrics, MetricsRegistry)

    def test_metrics_are_on_without_asking(self):
        """A bare platform's read-through children are its counters."""
        platform = ZenPlatform(Topology.ring(3)).start()
        platform.ping_all(count=1, settle=2.0)
        registry = platform.telemetry.metrics
        assert platform.telemetry is platform.sim.telemetry
        moved = 0
        for link in platform.net.links:
            for direction in (link._ab, link._ba):
                assert registry.get("link_tx_packets_total",
                                    direction.name) == direction.tx_packets
                moved += direction.tx_packets
        for dp in platform.net.switches.values():
            assert registry.get("switch_rx_packets_total",
                                dp.dpid) == dp.packets_received
            for table in dp.tables:
                assert registry.get("table_lookups_total", dp.dpid,
                                    table.table_id) == table.lookup_count
            moved += dp.packets_received
        assert moved > 0

    def test_every_layer_reads_the_kernels_plane(self):
        """One plane per kernel: no layer builds or is handed its own."""
        tel = Telemetry(trace=True)
        platform = ZenPlatform(Topology.ring(3), controllers=2,
                               telemetry=tel)
        net = platform.net
        assert platform.telemetry is net.telemetry is net.sim.telemetry \
            is tel
        assert all(dp.telemetry is tel for dp in net.switches.values())
        assert all(node.telemetry is tel
                   for node in platform.cluster.controllers)
        assert platform.cluster.tracer is tel.tracer

    def test_unnamed_channels_own_distinct_series(self):
        from repro.sim import Simulator
        from repro.southbound.channel import ControlChannel

        sim = Simulator()
        first, second = ControlChannel(sim), ControlChannel(sim)
        first.connect()
        second.connect()
        second.disconnect()
        reg = sim.telemetry.metrics
        assert reg.get("channel_transitions_total", "channel1",
                       "connect") == 1
        assert reg.get("channel_transitions_total", "channel2",
                       "disconnect") == 1
        assert first.name == second.name == ""


# ----------------------------------------------------------------------
# End-to-end wiring
# ----------------------------------------------------------------------
def _reactive_platform(telemetry=None, seed=0):
    topo = Topology.linear(3, hosts_per_switch=1, bandwidth_bps=1e9)
    return ZenPlatform(topo, profile="reactive", seed=seed,
                       telemetry=telemetry)


class TestEndToEnd:
    def test_trace_crosses_every_stage(self):
        tel = Telemetry(trace=True)
        platform = _reactive_platform(tel).start()
        assert platform.ping_all(count=1, settle=8.0) == 1.0
        pick = longest(tracer_traces(tel.tracer))
        assert pick is not None
        assert pick["label"]  # "h1 Ethernet/..." style origin label
        assert len(pick["spans"]) >= 5
        stages = {s["stage"] for s in pick["spans"]}
        # The acceptance bar: host -> dataplane -> controller -> app.
        assert {"host", "dataplane", "controller", "app"} <= stages
        # The full wiring also covers the link and channel hops.
        assert stages == set(STAGES)

    def test_metrics_populated_by_every_layer(self):
        tel = Telemetry()
        platform = _reactive_platform(tel).start()
        platform.ping_all(count=1, settle=8.0)
        reg = tel.metrics
        assert reg.get("sim_events_total") > 0
        dpid = str(platform.switch("s1").dpid)
        assert reg.get("switch_rx_packets_total", dpid) > 0
        assert reg.get("switch_packet_ins_total", dpid) > 0
        assert reg.family("link_tx_packets_total").children
        assert reg.family("table_lookups_total").children
        assert reg.family("channel_messages_total").children
        assert reg.get("controller_packet_ins_total") > 0
        delay = reg.get("controller_packet_in_delay_seconds")
        assert delay["count"] > 0

    def test_flow_counters_arrive_as_flow_removed(self):
        """Per-flow records travel the protocol's own path:
        ``SEND_FLOW_REM`` -> ``FlowRemoved`` -> ``FlowRemovedEvent``,
        carrying the match, the counters, the lifetime and the reason."""
        platform = _reactive_platform(Telemetry()).start()
        removed = []
        platform.controller.subscribe(FlowRemovedEvent, removed.append)
        h1, h3 = platform.host("h1"), platform.host("h3")
        match = Match(eth_type=0x0800, ip_dst=h3.ip)
        handle = platform.controller.switch(platform.switch("s1").dpid)
        handle.add_flow(match, [], priority=60000, idle_timeout=2.0,
                        notify_removed=True)
        h1.ping(h3.ip, count=3)
        platform.run(8.0)
        (event,) = [e for e in removed if e.match == match]
        assert event.reason == "idle_timeout"
        assert (event.packet_count, event.byte_count) == (3, 150)
        assert event.duration == pytest.approx(4.0)

    def test_cli_traced_run_shows_one_packet_crossing_the_stack(
            self, tmp_path, capsys):
        """``report --tree --attrs`` on a ``run --trace`` document
        renders one packet's path through every stage."""
        path = str(tmp_path / "t.json")
        assert cli_main(["run", "--profile", "reactive", "--topology",
                         "linear", "--size", "2", "--trace",
                         "--out", path]) == 0
        capsys.readouterr()
        assert cli_main(["report", path, "--tree", "--attrs"]) == 0
        out = capsys.readouterr().out
        assert "Health @" in out and "trace #" in out
        for stage in STAGES:
            assert f"[{stage}]" in out

    def test_cli_traced_run_saves_the_tracers_traces(
            self, tmp_path, monkeypatch):
        """``run --trace`` saves the tracer's traces in their one
        serialised form."""
        built = []

        class Kept(Telemetry):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(repro.cli, "Telemetry", Kept)
        path = str(tmp_path / "t.json")
        assert cli_main(["run", "--profile", "reactive", "--topology",
                         "linear", "--size", "2", "--trace",
                         "--out", path]) == 0
        (tel,) = built
        traces = json.loads(open(path).read())["traces"]
        assert traces
        assert traces == json.loads(json.dumps(tracer_traces(tel.tracer)))


# ----------------------------------------------------------------------
# Determinism contract
# ----------------------------------------------------------------------
def _flow_setup_fingerprint(telemetry):
    """E1-style flow-setup run reduced to its simulation observables."""
    platform = _reactive_platform(telemetry, seed=7).start()
    delivery = platform.ping_all(count=1, settle=8.0)
    switches = {
        name: (dp.packets_forwarded, dp.packets_to_controller,
               dp.packets_dropped, dp.flow_count())
        for name, dp in sorted(platform.net.switches.items())
    }
    return {
        "delivery": delivery,
        "events": platform.sim.events_processed,
        "now": platform.sim.now,
        "control_messages": platform.total_control_messages(),
        "control_bytes": platform.total_control_bytes(),
        "switches": switches,
    }


class TestDeterminism:
    def test_runs_are_repeatable(self):
        assert _flow_setup_fingerprint(None) == _flow_setup_fingerprint(None)

    def test_telemetry_never_perturbs_the_simulation(self):
        """Tracing must not change a single sim observable.

        This is the overhead/benchmark invariant: telemetry never
        schedules events and never draws from the kernel RNG, so the E1
        flow-setup run is bit-identical with tracing on or off.
        """
        baseline = _flow_setup_fingerprint(None)
        assert _flow_setup_fingerprint(Telemetry()) == baseline
        assert _flow_setup_fingerprint(Telemetry(trace=True)) == baseline

    def test_identical_seeds_identical_telemetry_output(self):
        def run():
            tel = Telemetry(trace=True)
            platform = _reactive_platform(tel, seed=3).start()
            platform.ping_all(count=1, settle=8.0)
            return tel.metrics.snapshot(), tracer_traces(tel.tracer)

        assert run() == run()


# ----------------------------------------------------------------------
# Retention bounds and cardinality guards (the obs-plane satellites)
# ----------------------------------------------------------------------
class TestTracerSpanRing:
    @pytest.fixture
    def ring(self, monkeypatch):
        """A tracer whose span ring holds ``spans``."""
        def build(spans: int) -> Tracer:
            monkeypatch.setattr("repro.telemetry.trace.MAX_TRACES", 1000)
            monkeypatch.setattr("repro.telemetry.trace.MAX_SPANS", spans)
            return Tracer()
        return build

    def test_span_total_stays_bounded(self, ring):
        tracer = ring(50)
        for i in range(100):
            tid = tracer.start_trace(f"pkt-{i}")
            for j in range(3):
                tracer.record(tid, f"hop-{j}", "switch")
        assert tracer._span_total <= 50
        assert tracer.dropped_spans == 300 - tracer._span_total

    def test_oldest_traces_evicted_first(self, ring):
        tracer = ring(10)
        first = tracer.start_trace("first")
        for _ in range(5):
            tracer.record(first, "span", "switch")
        later = [tracer.start_trace(f"t{i}") for i in range(4)]
        for tid in later:
            tracer.record(tid, "span", "switch")
            tracer.record(tid, "span2", "switch")
        # first (5 spans) was evicted to make room for the newer traces.
        assert first not in tracer._spans
        assert all(tid in tracer._spans for tid in later[1:])

    def test_live_trace_survives_even_when_oldest(self, ring):
        tracer = ring(4)
        tid = tracer.start_trace("huge")
        for i in range(10):
            tracer.record(tid, f"s{i}", "switch")
        # A single trace larger than the ring is left intact.
        assert tid in tracer._spans
        assert len(tracer._spans[tid]) == 10
        assert tracer.dropped_spans == 0

    def test_on_drop_reports_eviction_sizes(self, ring):
        tracer = ring(4)
        drops = []
        tracer.on_drop = drops.append
        for i in range(4):
            tid = tracer.start_trace(f"t{i}")
            tracer.record(tid, "a", "switch")
            tracer.record(tid, "b", "switch")
        assert sum(drops) == tracer.dropped_spans > 0

    def test_telemetry_wires_drop_counter(self, monkeypatch):
        monkeypatch.setattr("repro.telemetry.trace.MAX_SPANS", 4)
        telemetry = Telemetry(trace=True)
        for i in range(4):
            tid = telemetry.tracer.start_trace(f"t{i}")
            telemetry.tracer.record(tid, "a", "switch")
            telemetry.tracer.record(tid, "b", "switch")
        counter = telemetry.metrics.counter(
            "telemetry_trace_dropped_spans_total", ""
        )
        assert counter.value == telemetry.tracer.dropped_spans > 0


class TestHistogramQuantiles:
    def test_quantile_tracks_observations(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "test")
        for i in range(1, 101):
            hist.observe(i / 100.0)
        assert hist.quantile(0.5) == pytest.approx(0.5, rel=0.05)
        assert hist.quantile(0.95) == pytest.approx(0.95, rel=0.05)
        assert hist.quantile(0.0) == pytest.approx(0.01, rel=0.05)

    def test_snapshot_exports_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "test")
        hist.observe(0.004)
        snap = hist.snapshot()
        assert set(snap["quantiles"]) == {"p50", "p95", "p99"}
        assert snap["quantiles"]["p50"] == pytest.approx(0.004, rel=0.05)

    def test_empty_histogram_quantile_is_none(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "test")
        assert hist.quantile(0.5) is None
        assert hist.snapshot()["quantiles"]["p99"] is None


def _capped_registry(cap: int) -> MetricsRegistry:
    """A registry built while the label-set cap reads ``cap``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.telemetry.registry.MAX_LABEL_SETS", cap)
        return MetricsRegistry()


class TestLabelCardinalityGuard:
    def test_overflow_collapses_into_sentinel_child(self):
        from repro.telemetry.registry import OVERFLOW_LABEL

        registry = _capped_registry(4)
        family = registry.counter("hits_total", "test", ("path",))
        for i in range(10):
            family.labels(f"/page/{i}").inc()
        assert len(family.children) == 5  # 4 real + the sentinel
        sentinel = family.labels("/page/999")
        assert sentinel is family.children[(OVERFLOW_LABEL,)]
        # The 6 overflowed increments all landed on the sentinel child.
        assert sentinel.value == 6.0

    def test_existing_children_still_resolve_after_overflow(self):
        registry = _capped_registry(2)
        family = registry.counter("hits_total", "test", ("path",))
        a = family.labels("/a")
        family.labels("/b")
        family.labels("/c")  # overflow
        assert family.labels("/a") is a

    def test_overflow_counter_counts_redirected_calls(self):
        registry = _capped_registry(2)
        family = registry.counter("hits_total", "test", ("path",))
        for i in range(6):
            family.labels(f"/{i}").inc()
        overflow = registry.counter("telemetry_label_overflow_total",
                                    "", ("family",))
        assert overflow.labels("hits_total").value == 4.0

    def test_zero_label_families_never_overflow(self):
        registry = _capped_registry(1)
        registry.counter("a_total", "t").inc()
        registry.gauge("b", "t").set(1)
        assert registry.counter("a_total", "t").value == 1.0


# ----------------------------------------------------------------------
# Read-through children (MetricFamily.bind)
# ----------------------------------------------------------------------
def _owned_counts(platform):
    """``(family, label values) -> the count its layer keeps``, for
    every child the stack binds instead of pushing."""
    net = platform.net
    want = {}
    for link in net.links:
        for d in (link._ab, link._ba):
            want["link_tx_packets_total", (d.name,)] = d.tx_packets
            want["link_tx_bytes_total", (d.name,)] = d.tx_bytes
    for dp in net.switches.values():
        dpid = (str(dp.dpid),)
        want["switch_rx_packets_total", dpid] = dp.packets_received
        want["switch_forwarded_total", dpid] = dp.packets_forwarded
        want["switch_dropped_total", dpid] = dp.packets_dropped
        want["switch_packet_ins_total", dpid] = dp.packets_to_controller
        for table in dp.tables:
            key = dpid + (str(table.table_id),)
            want["table_lookups_total", key] = table.lookup_count
            want["table_matches_total", key] = table.matched_count
    for name, ch in net.channels.items():
        for end, direction in ((ch.switch_end, "to_controller"),
                               (ch.controller_end, "to_switch")):
            want["channel_messages_total", (name, direction)] = \
                end.sent.messages
            want["channel_bytes_total", (name, direction)] = end.sent.bytes
        want["channel_dropped_total", (name,)] = ch.messages_dropped
        want["channel_request_retries_total", (name,)] = (
            ch.switch_end.request_retries
            + ch.controller_end.request_retries)
        want["channel_request_failures_total", (name,)] = (
            ch.switch_end.requests_failed
            + ch.controller_end.requests_failed)
    want["workload_flow_entries", ()] = sum(
        dp.flow_count() for dp in net.switches.values())
    return want


class TestReadThroughChildren:
    def test_bound_children_read_their_owners_after_a_fat_tree_run(self):
        from repro.obs import series_id
        from repro.workload import WorkloadSpec
        from repro.workload.runner import assemble

        live = assemble(WorkloadSpec(
            "bound-children",
            topology={"family": "fat_tree",
                      "params": {"k": 4, "bandwidth_bps": 1e9}},
            seed=1, duration=2.0,
            traffic=[{"kind": "flows", "rate": 80.0,
                      "sizes": {"dist": "fixed", "size": 3_000},
                      "start": 0.2, "duration": 1.0}],
        ), obs=True)
        live.platform.run(2.0)
        live.plane.finish()  # one last sample, aligned with "now"

        registry = live.platform.telemetry.metrics
        scraper = live.plane.scraper
        want = _owned_counts(live.platform)
        bound = {}
        for name, family in registry._families.items():
            for key, child in family.children.items():
                if not any(hasattr(child, verb)
                           for verb in ("inc", "set", "observe")):
                    bound[name, key] = (family, child)
        backlog = {pair for pair in bound
                   if pair[0] == "obs_channel_backlog_seconds"}
        assert {key for _, key in backlog} == \
            {(name,) for name in live.platform.net.channels}
        # Every bound child is accounted for, and nothing else is bound.
        assert set(bound) - backlog == set(want)
        for (name, key), (family, child) in bound.items():
            last = scraper.get(series_id(name, family.labelnames, key)).last
            assert last == (live.platform.sim.now, float(child.value))
            if (name, key) in want:
                assert child.value == want[name, key], (name, key)
                assert registry.get(name, *key) == want[name, key]
        # The run moved them: this is not a table of zeros.
        for name in ("link_tx_packets_total", "switch_forwarded_total",
                     "table_matches_total", "channel_bytes_total"):
            assert sum(value for (family, _), value in want.items()
                       if family == name) > 0, name

    def test_channel_counts_sum_both_endpoints(self):
        """Retries and failures are kept per endpoint; the channel's
        two series are their sums, and a frame lost to a flap counts."""
        from repro.sim import Simulator
        from repro.southbound.channel import ControlChannel
        from repro.southbound.messages import EchoRequest

        sim = Simulator()
        channel = ControlChannel(sim, latency=0.010, name="s1")
        channel.connect()  # no handler on either end: nothing replies
        for end, retries in ((channel.controller_end, 2),
                             (channel.switch_end, 1)):
            end.request(EchoRequest(b"ping"), callback=lambda err: None,
                        timeout=0.1, retries=retries)
        sim.run_until_idle()
        channel.switch_end.send(EchoRequest(b"doomed"))
        channel.disconnect()
        sim.run_until_idle()
        reg = sim.telemetry.metrics
        assert reg.get("channel_request_retries_total", "s1") == 3
        assert reg.get("channel_request_failures_total", "s1") == 2
        assert reg.get("channel_dropped_total", "s1") == 1
        assert reg.get("channel_messages_total", "s1", "to_switch") == \
            channel.controller_end.sent.messages == 3

    def test_a_bound_child_has_no_mutator(self):
        registry = MetricsRegistry()
        owner = {"count": 3}
        family = registry.counter("owned_total", "t", ("who",))
        family.bind(("me",), lambda: owner["count"])
        child = family.children[("me",)]
        assert family.labels("me") is child
        assert child.value == 3 and child.snapshot() == 3
        owner["count"] += 2
        assert registry.get("owned_total", "me") == 5
        for verb in ("inc", "set", "dec"):
            with pytest.raises(AttributeError):
                getattr(child, verb)(1)
        with pytest.raises(AttributeError):
            child.value = 9

    def test_a_label_set_has_one_owner(self):
        registry = MetricsRegistry()
        family = registry.counter("owned_total", "t", ("who",))
        family.labels("pushed").inc()
        family.bind(("bound",), lambda: 1)
        for taken in ("pushed", "bound"):
            with pytest.raises(ValueError, match="already has a child"):
                family.bind((taken,), lambda: 2)
        with pytest.raises(ValueError, match="takes labels"):
            family.bind(("a", "b"), lambda: 2)
        assert family.children[("pushed",)].value == 1
        assert family.children[("bound",)].value == 1

    def test_an_unlabelled_family_binds_its_one_child(self):
        registry = MetricsRegistry()
        registry.gauge("depth", "t", ()).bind((), lambda: 7.0)
        assert registry.get("depth") == 7.0
        assert registry.gauge("depth", "t").value == 7.0  # the bare metric
        with pytest.raises(ValueError):
            registry.gauge("depth", "t", ()).bind((), lambda: 8.0)
        registry.gauge("pushed", "t").set(1.0)  # minted by asking for it
        with pytest.raises(ValueError):
            registry.gauge("pushed", "t", ()).bind((), lambda: 2.0)
