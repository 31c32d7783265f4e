"""Causal trace plane tests (PR 10).

Layers of coverage:

* span-tree mechanics on the tracer (span ids, parent links,
  ``end_span``, foreign adoption) and the critical-path walk;
* trace ids crossing the control channel beside their messages:
  each punt keeps its own trace, and one lost in a flap takes its id
  along;
* tracer eviction pressure surfaced end-to-end through the registry;
* trace lists merged across per-shard tracers, and the ``traces``
  section of a saved run artifact;
* the acceptance criteria: a sharded run and a clustered fault run
  each produce one merged artifact whose critical path crosses the
  shard/controller boundary, and a sharded run's dataplane is
  bit-identical whether tracing is on or off (platform runs, clustered
  ones included: the trace axis of ``test_equivalence.py``).
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.controller import Controller
from repro.core import ZenPlatform
from repro.dataplane import Datapath
from repro.digest import canonical_digest
from repro.netem import Topology
from repro.errors import ZenError
from repro.obs import RunArtifact, load_artifact
from repro.packet import Ethernet, IPv4, UDP
from repro.sim import Simulator
from repro.southbound import ControlChannel, SwitchAgent
from repro.telemetry import Telemetry, Tracer
from repro.telemetry.export import render_critical_path, render_tree
from repro.telemetry.artifact import (
    SHARD_ID_STRIDE,
    critical_path,
    longest,
    merge,
    shard_of_id,
    shards_of,
    span_count,
    trace as find_trace,
    tracer_traces,
)
from repro.workload import WorkloadSpec


# ----------------------------------------------------------------------
# Span trees on the tracer
# ----------------------------------------------------------------------
class TestSpanTree:
    def test_span_ids_are_unique_and_parent_links_stick(self):
        tr = Tracer()
        tid = tr.start_trace("t")
        root = tr.record(tid, "a", "host")
        child = tr.record(tid, "b", "link", parent=root)
        grand = tr.record(tid, "c", "dataplane", parent=child)
        spans = tr.spans(tid)
        assert len({s.span_id for s in spans}) == 3
        assert spans[1].parent == root
        assert spans[2].parent == child
        assert grand != child != root

    def test_id_base_offsets_both_trace_and_span_ids(self):
        tr = Tracer(id_base=2 * SHARD_ID_STRIDE)
        tid = tr.start_trace("shard2")
        sid = tr.record(tid, "x", "shard")
        assert shard_of_id(tid) == 2
        assert shard_of_id(sid) == 2

    def test_end_span_moves_the_end_time(self):
        clock = [0.0]
        tr = Tracer(clock=lambda: clock[0])
        tid = tr.start_trace()
        sid = tr.record(tid, "work", "app")
        clock[0] = 1.5
        tr.end_span(tid, sid)
        assert tr.spans(tid)[0].end == 1.5
        tr.end_span(tid, sid, end=2.0)
        assert tr.spans(tid)[0].end == 2.0

    def test_adopt_foreign_bypasses_sampler_but_honours_cap(
            self, monkeypatch):
        monkeypatch.setattr("repro.telemetry.trace.MAX_TRACES", 2)
        tr = Tracer(sample_every=1000)
        assert tr.adopt_foreign(SHARD_ID_STRIDE + 7)
        assert tr.adopt_foreign(SHARD_ID_STRIDE + 7)  # idempotent
        assert tr.record(SHARD_ID_STRIDE + 7, "rx", "shard") is not None
        assert tr.adopt_foreign(SHARD_ID_STRIDE + 8)
        assert not tr.adopt_foreign(SHARD_ID_STRIDE + 9)  # full
        assert tr.dropped == 1

    def test_spans_recorded_counts_evicted_spans_too(self, monkeypatch):
        monkeypatch.setattr("repro.telemetry.trace.MAX_SPANS", 2)
        tr = Tracer(id_base=SHARD_ID_STRIDE)
        for label in ("a", "b", "c"):
            tid = tr.start_trace(label)
            tr.record(tid, "x", "host")
            tr.record(tid, "y", "link")
        assert tr.spans_recorded == 6
        assert tr.dropped_spans == 4


# ----------------------------------------------------------------------
# Critical path
# ----------------------------------------------------------------------
def _span(sid, name, stage, start, end, parent=None):
    return {"span_id": sid, "parent": parent, "name": name,
            "stage": stage, "start": start, "end": end, "attrs": {}}


class TestCriticalPath:
    def test_walks_parent_chain_from_latest_end(self):
        trace = {"id": 1, "label": "x", "spans": [
            _span(1, "root", "fault", 0.0, 0.0),
            _span(2, "detect", "cluster", 0.0, 0.05, parent=1),
            _span(3, "elect", "cluster", 0.05, 0.05, parent=2),
            _span(4, "resync", "cluster", 0.05, 0.07, parent=3),
            _span(5, "sibling", "cluster", 0.0, 0.01, parent=1),
        ]}
        path = critical_path(trace)
        assert [s["name"] for s in path["stages"]] == [
            "root", "detect", "elect", "resync"]
        assert path["total"] == pytest.approx(0.07)
        # Elapsed telescopes to the total.
        assert sum(s["elapsed"] for s in path["stages"]) == \
            pytest.approx(path["total"])
        assert path["by_stage"]["cluster"] == pytest.approx(0.07)

    def test_flat_prefix_is_stitched_in_time_order(self):
        trace = {"id": 2, "label": "", "spans": [
            _span(1, "host.tx", "host", 0.0, 0.0),
            _span(2, "link", "link", 0.0, 0.002),
            _span(3, "dispatch", "controller", 0.002, 0.002),
            _span(4, "app", "app", 0.002, 0.004, parent=3),
        ]}
        names = [s["name"] for s in critical_path(trace)["stages"]]
        assert names == ["host.tx", "link", "dispatch", "app"]

    def test_empty_trace_yields_empty_path(self):
        path = critical_path({"id": 3, "label": "", "spans": []})
        assert path["total"] == 0.0
        assert path["stages"] == []

    def test_renderers_produce_ascii(self):
        trace = {"id": 9, "label": "demo", "spans": [
            _span(1, "root", "fault", 0.0, 0.0),
            _span(2, "child", "cluster", 0.0, 0.05, parent=1),
        ]}
        tree = render_tree(trace)
        assert "trace #9" in tree and "`- child" in tree
        table = render_critical_path(critical_path(trace))
        assert "critical path" in table and "attribution" in table


# ----------------------------------------------------------------------
# Trace lists, alone and as a run artifact's section
# ----------------------------------------------------------------------
class TestTraceArtifact:
    def test_round_trip_and_digest_stability(self, tmp_path):
        tr = Tracer()
        tid = tr.start_trace("t")
        tr.record(tid, "a", "host")
        art = RunArtifact(meta={"seed": 7}, traces=tracer_traces(tr))
        path = tmp_path / "trace.json"
        art.save(str(path))
        back = load_artifact(str(path))
        assert (canonical_digest(back.to_dict())
                == canonical_digest(art.to_dict()))
        assert back.meta["seed"] == 7
        assert find_trace(back.traces, tid)["spans"][0]["name"] == "a"

    def test_save_load_round_trips_byte_identically(self, tmp_path):
        tel = Telemetry(trace=True)
        _reactive_platform(tel).start().ping_all(count=1, settle=8.0)
        art = RunArtifact(meta={"seed": 0},
                          traces=tracer_traces(tel.tracer))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        art.save(str(first))
        load_artifact(str(first)).save(str(second))
        assert span_count(art.traces) > 50
        assert first.read_bytes() == second.read_bytes()

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ZenError, match="something-else"):
            load_artifact(str(path))

    def test_merge_unions_split_traces_across_shards(self):
        # Shard 0 started the trace, shard 1 adopted it: same id, two
        # half span-trees.
        tid = 5
        a = [{"id": tid, "label": "origin", "spans": [
            _span(1, "host.tx", "host", 0.0, 0.0),
            _span(2, "boundary_tx", "shard", 0.0, 0.001),
        ]}]
        b = [{"id": tid, "label": "", "spans": [
            _span(SHARD_ID_STRIDE + 1, "boundary_rx", "shard",
                  0.001, 0.001, parent=2),
            _span(SHARD_ID_STRIDE + 2, "host.rx", "host", 0.002, 0.002),
        ]}]
        merged = merge([a, b])
        trace = find_trace(merged, tid)
        assert len(merged) == 1
        assert trace["label"] == "origin"
        assert [s["name"] for s in trace["spans"]] == [
            "host.tx", "boundary_tx", "boundary_rx", "host.rx"]
        assert shards_of(trace) == [0, 1]

    def test_longest_picks_widest_extent(self):
        traces = [
            {"id": 1, "label": "short",
             "spans": [_span(1, "a", "host", 0.0, 0.1)]},
            {"id": 2, "label": "long",
             "spans": [_span(2, "b", "host", 0.0, 0.5)]},
        ]
        assert longest(traces)["id"] == 2


# ----------------------------------------------------------------------
# The trace id crosses the control channel beside its message
# ----------------------------------------------------------------------
def _reactive_platform(telemetry=None, seed=0):
    topo = Topology.linear(3, hosts_per_switch=1, bandwidth_bps=1e9)
    return ZenPlatform(topo, profile="reactive", seed=seed,
                       telemetry=telemetry)


def _punt_frame():
    return (Ethernet(dst="00:00:00:00:00:02", src="00:00:00:00:00:01")
            / IPv4(src="10.0.0.1", dst="10.0.0.2")
            / UDP(src_port=1, dst_port=2) / b"x")


def _traced_punt(tracer, dp, label):
    """Inject one table-missing frame on port 1 under a new trace."""
    packet = _punt_frame()
    packet.trace_id = tid = tracer.start_trace(label)
    dp.inject(packet, 1)
    return tid


def _span_names(tracer, tid):
    return [s.name for s in tracer.spans(tid)]


class TestControlChannelTrace:
    def test_each_dispatch_joins_its_own_trace(self):
        """Byte-identical punts from two switches whose channels differ
        in latency: the later punt arrives first, and must still not
        take the earlier punt's trace."""
        sim = Simulator(telemetry=Telemetry(trace=True))
        tracer = sim.telemetry.tracer
        controller = Controller(sim)
        dps = {}
        for dpid, latency in ((1, 0.005), (2, 0.001)):
            dp = dps[dpid] = Datapath(dpid, sim)
            dp.add_port(1)
            dp.add_port(2)
            channel = ControlChannel(sim, latency=latency,
                                     name=f"s{dpid}")
            SwitchAgent(dp, channel)
            controller.accept_channel(channel)
            channel.connect()
        sim.run_until_idle()
        assert controller.switch_count == 2
        sim.schedule(0.0, _traced_punt, tracer, dps[1], "from-s1")
        sim.schedule(0.0005, _traced_punt, tracer, dps[2], "from-s2")
        sim.run_until_idle()
        assert controller.packet_ins_handled == 2
        assert tracer.trace_count == 2
        for tid, _label, spans in tracer.traces():
            dispatch = [s for s in spans if s.name == "controller.dispatch"]
            assert len(dispatch) == 1
            assert tracer.label(tid) == f"from-s{dispatch[0].attrs['dpid']}"

    def test_a_punt_lost_to_a_flap_takes_its_trace_with_it(self):
        """A punt in flight at a flap is lost with its trace id; a
        byte-identical punt after the reconnect joins its own trace."""
        tel = Telemetry(trace=True)
        platform = _reactive_platform(tel).start()
        tracer = tel.tracer
        channel = platform.net.channel("s1")
        dp = platform.net.switches["s1"]
        lost = _traced_punt(tracer, dp, "lost")
        channel.disconnect()
        channel.connect()
        platform.run(1.0)  # handshake again
        assert channel.messages_dropped >= 1
        new = _traced_punt(tracer, dp, "after-reconnect")
        platform.run(0.5)
        assert "switch.punt" in _span_names(tracer, lost)
        assert "channel.packet_in" not in _span_names(tracer, lost)
        names = _span_names(tracer, new)
        assert "channel.packet_in" in names
        assert "controller.dispatch" in names

    def test_pre_handshake_punt_is_dropped_alike_traced_or_not(self):
        """A packet-in that lands between reconnect and handshake is
        dropped by the controller, traced or not, and leaves the
        dataplane as it would be untraced."""
        from repro.core import dataplane_observables
        from repro.southbound.messages import PacketIn

        def run(tel):
            platform = _reactive_platform(tel).start()
            h1, h3 = platform.host("h1"), platform.host("h3")
            h1.add_static_arp(h3.ip, h3.mac)
            controller = platform.controller
            dropped = []
            handle = controller._handle

            def spy(endpoint, msg):
                if (isinstance(msg, PacketIn)
                        and endpoint not in controller._endpoint_switch):
                    dropped.append(msg)
                handle(endpoint, msg)

            controller._handle = spy
            channel = platform.net.channel("s1")
            channel.disconnect()
            platform.run(0.05)
            channel.connect()
            h1.send_udp(h3.ip, 7, 7, b"x")  # punted before FeaturesReply
            platform.run(2.0)
            assert len(dropped) == 1
            return (dataplane_observables(platform.net),
                    platform.sim.events_processed)

        assert run(Telemetry(trace=True)) == run(None)


class TestEvictionThroughOpenMetrics:
    def test_dropped_spans_surface_in_the_export(self, monkeypatch):
        """Retention pressure must be visible end-to-end — tracer
        counters AND the registry's dropped-spans counter."""
        monkeypatch.setattr("repro.telemetry.trace.MAX_TRACES", 4)
        monkeypatch.setattr("repro.telemetry.trace.MAX_SPANS", 24)
        tel = Telemetry(trace=True)
        platform = _reactive_platform(tel).start()
        assert platform.ping_all(count=2, settle=8.0) > 0
        tracer = tel.tracer
        assert tracer.dropped > 0          # max_traces pressure
        assert tracer.dropped_spans > 0    # span-ring eviction
        assert tracer.trace_count <= 4
        dropped = tel.metrics.snapshot()[
            "telemetry_trace_dropped_spans_total"]["values"]
        assert dropped == {"": tracer.dropped_spans}


# ----------------------------------------------------------------------
# Controller span trees
# ----------------------------------------------------------------------
class TestControlPlaneSpanTree:
    def test_packet_in_dispatch_app_flowmod_chain(self):
        tel = Telemetry(trace=True)
        platform = _reactive_platform(tel).start()
        assert platform.ping_all(count=1, settle=8.0) == 1.0
        spans = next(
            spans for _tid, _label, spans in tel.tracer.traces()
            if any(s.name == "flow.install" for s in spans))
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        dispatches = by_name["controller.dispatch"]
        assert dispatches
        pin_ids = {s.span_id for s in spans
                   if s.name == "channel.packet_in"}
        # Every dispatch hangs off a packet-in arrival span.
        assert all(d.parent in pin_ids for d in dispatches)
        apps = [s for s in spans if s.stage == "app"]
        dispatch_ids = {d.span_id for d in dispatches}
        app_ids = {s.span_id for s in apps}
        assert apps and all(s.parent in dispatch_ids | app_ids
                            for s in apps)
        installs = [s for s in spans if s.name == "flow.install"]
        assert installs
        assert all(s.parent in app_ids for s in installs)


# ----------------------------------------------------------------------
# Cluster handover chain + SLO exemplars
# ----------------------------------------------------------------------
def _cluster(tel=None):
    topo = Topology.ring(4, hosts_per_switch=1, bandwidth_bps=1e9)
    return ZenPlatform(topo, controllers=3, profile="reactive",
                       telemetry=tel)


def _run_cluster_crash(tel):
    from repro.faults import arm_faults

    platform = _cluster(tel).start()
    net = platform.net
    hosts = list(net.hosts.values())
    for a in hosts:
        for b in hosts:
            if a is not b:
                a.add_static_arp(b.ip, b.mac)
    for i, host in enumerate(hosts):
        host.send_udp(hosts[(i + 1) % len(hosts)].ip, 7, 7, b"warm")
    platform.run(1.0)
    sched = platform.fault_schedule()
    victim = platform.cluster.master_of(net.switches["s1"].dpid)
    arm_faults(sched, [{"kind": "controller_crash", "node": victim,
                        "at": 0.5, "restart_after": 0.4}], base=net.sim.now)
    platform.run(3.0)
    return platform, sched


class TestClusterHandoverTrace:
    def test_handover_chain_is_one_span_tree(self):
        tel = Telemetry(trace=True)
        platform, _sched = _run_cluster_crash(tel)
        fault_traces = [
            (tid, label, spans) for tid, label, spans in
            tel.tracer.traces()
            if label.startswith("fault:controller_crash")
        ]
        assert fault_traces
        tid, _label, spans = fault_traces[0]
        names = {s.name for s in spans}
        assert {"fault.controller_crash", "bus.death_detect",
                "cluster.election", "cluster.term_bump",
                "cluster.role_grant", "cluster.resync",
                "cluster.failover_complete"} <= names
        # The chain is parented, not flat: resync's ancestry walks back
        # to the fault root.
        by_id = {s.span_id: s for s in spans}
        resync = next(s for s in spans if s.name == "cluster.resync")
        hop, chain = resync, []
        while hop.parent is not None:
            hop = by_id[hop.parent]
            chain.append(hop.name)
        assert chain[-1] == "fault.controller_crash"
        assert "bus.death_detect" in chain
        # Critical path crosses the controller boundary: detection on
        # the bus, recovery on the surviving master.
        path = critical_path(find_trace(tracer_traces(tel.tracer), tid))
        path_names = [s["name"] for s in path["stages"]]
        assert path_names[0] == "fault.controller_crash"
        assert "bus.death_detect" in path_names
        assert path_names[-1] in ("cluster.resync",
                                  "cluster.failover_complete")
        assert path["total"] > 0

    def test_convergence_slo_carries_trace_exemplars(self):
        from repro.faults import FaultSchedule, arm_faults
        from repro.obs import ObsPlane
        from repro.obs.slo import ConvergenceSLO

        tel = Telemetry(trace=True)
        platform = _reactive_platform(tel).start()
        slo = ConvergenceSLO("conv", 5.0,
                             open_kinds=("switch_crash",),
                             close_kinds=("resync_done",))
        plane = ObsPlane(platform, interval=0.05, slos=[slo])
        sched = FaultSchedule(platform.net)
        plane.watch_faults(sched)
        platform.ping_all(count=1, settle=8.0)
        arm_faults(sched, [{"kind": "switch_crash", "switch": "s2",
                            "at": 0.1, "restart_after": 0.3}],
                   base=platform.sim.now)
        platform.run(3.0)
        plane.finish()
        assert slo.measurements, "crash never reconverged"
        assert slo.exemplars[0] is not None
        labels = dict(
            (tid, label) for tid, label, _ in tel.tracer.traces())
        assert labels[slo.exemplars[0]].startswith("fault:switch_crash")
        doc = plane.report.to_dict() if hasattr(plane, "report") else None
        if doc is not None:
            conv = next(s for s in doc["slos"] if s["name"] == "conv")
            assert conv["measurements"][0]["trace_id"] == \
                slo.exemplars[0]


# ----------------------------------------------------------------------
# Sharded runs: trace propagation + bit-identity
# ----------------------------------------------------------------------
def _shard_spec(seed=101):
    return WorkloadSpec(
        f"trace-fuzz-{seed}",
        topology={"family": "fat_tree", "size": 4},
        seed=seed,
        duration=1.2,
        traffic=[
            {"kind": "flows", "rate": 40.0,
             "sizes": {"dist": "pareto", "mean": 6_000, "alpha": 1.5},
             "start": 0.2, "duration": 0.8},
        ],
    )


class TestShardedTracePlane:
    def test_trace_crosses_the_boundary_and_digest_is_unchanged(self):
        from repro.sim.shard import run_sharded

        spec = _shard_spec()
        off = run_sharded(spec, shards=4, processes=False)
        on = run_sharded(spec, shards=4, processes=False, trace=True)
        assert on.digest == off.digest  # tracing never moves the needle
        assert not off.artifact.traces
        crossing = [t for t in on.artifact.traces if len(shards_of(t)) > 1]
        assert crossing, "no trace crossed a shard boundary"
        trace = crossing[0]
        names = [s["name"] for s in trace["spans"]]
        assert "shard.boundary_tx" in names
        assert "shard.boundary_rx" in names
        rx = next(s for s in trace["spans"]
                  if s["name"] == "shard.boundary_rx")
        tx = next(s for s in trace["spans"]
                  if s["name"] == "shard.boundary_tx")
        assert rx["parent"] == tx["span_id"]
        assert shard_of_id(rx["span_id"]) != shard_of_id(tx["span_id"])
        # The critical path includes spans minted by both shards.
        path = critical_path(trace)
        shards_on_path = {shard_of_id(s["span_id"])
                          for s in path["stages"]}
        assert len(shards_on_path) > 1

    def test_merged_artifact_is_identical_across_coordinators(self):
        from repro.sim.shard import run_sharded

        spec = _shard_spec(seed=202)
        seq = run_sharded(spec, shards=2, processes=False, trace=True)
        proc = run_sharded(spec, shards=2, processes=True, trace=True)
        assert proc.digest == seq.digest
        assert proc.artifact.traces == seq.artifact.traces

    def test_a_saved_sharded_run_keeps_its_merged_traces(self, tmp_path):
        from repro.sim.shard import run_sharded

        spec = _shard_spec(seed=303)
        path = tmp_path / "sharded-trace.json"
        result = run_sharded(spec, shards=2, processes=False, trace=True)
        result.save(str(path))
        back = load_artifact(str(path))
        assert back.traces == result.artifact.traces
        assert span_count(back.traces) > 0
        assert back.meta["summary"]["shards"] == 2


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestTraceCLI:
    def test_report_platform_run(self, tmp_path, capsys):
        out_path = str(tmp_path / "platform-trace.json")
        assert cli_main(["run", "--topology", "linear", "--size", "3",
                         "--duration", "1.0", "--trace",
                         "--out", out_path]) == 0
        capsys.readouterr()
        code = cli_main(["report", out_path, "--tree"])
        out = capsys.readouterr().out
        assert code == 0
        assert "critical path of trace" in out
        assert "attribution" in out

    def test_cluster_dump_then_critical_path(self, tmp_path, capsys):
        """The CI smoke path: clustered fault run traced into its run
        document, offline critical-path analysis."""
        out_path = tmp_path / "cluster-trace.json"
        code = cli_main(["run", "--controllers", "3",
                         "--fault", "controller", "--trace",
                         "--duration", "2.5",
                         "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        assert out_path.exists()
        code = cli_main(["report", str(out_path), "--select", "fault",
                         "--tree"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fault.controller_crash" in out
        assert "bus.death_detect" in out
        assert "critical path of trace" in out

    def test_sharded_report(self, tmp_path, capsys):
        out_path = str(tmp_path / "sharded-trace.json")
        code = cli_main(["run", "--shards", "2",
                         "--name", "dc-heavy-tail",
                         "--duration", "1.0", "--shard-sequential",
                         "--trace", "--out", out_path])
        assert code == 0
        assert "[2 shard(s), seq]" in capsys.readouterr().out
        assert cli_main(["report", out_path, "--tree"]) == 0
        assert "crosses shards" in capsys.readouterr().out

    def test_critical_path_needs_an_artifact(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["report"])
        assert exc.value.code == 2
        assert "DOC" in capsys.readouterr().err
