"""Workload plane tests: sizes, generators, specs, runner, suite, CLI."""

import importlib.util
import json
import os
import random

import pytest

from repro.cli import main
from repro.digest import section_digests
from repro.dataplane import FlowEntry, Match, Output, PORT_FLOOD
from repro.errors import TopologyError, ZenError
from repro.netem import FlowSink, Network, Topology
from repro.obs import diff_runs, load_artifact
from repro.workload import (
    DiurnalFlowGenerator,
    IncastGenerator,
    TenantMatrix,
    WorkloadSpec,
    arm_traffic,
    build_spec_topology,
    elephant_mice,
    empirical_sizes,
    fixed_sizes,
    library,
    load_spec,
    lognormal_sizes,
    run_suite,
    run_workload,
    size_source_from_spec,
    suite_digest,
)


def flooded_network(size=4, seed=0):
    network = Network(Topology.single(size, bandwidth_bps=1e9),
                      miss_behaviour="drop", seed=seed)
    for name in network.switches:
        network.switch(name).install_flow(
            FlowEntry(Match(), [Output(PORT_FLOOD)], priority=0)
        )
    hosts = list(network.hosts.values())
    for a in hosts:
        for b in hosts:
            if a is not b:
                a.add_static_arp(b.ip, b.mac)
    return network, hosts


def tiny_spec(name="tiny", seed=3, **overrides):
    doc = dict(
        name=name,
        topology={"family": "single", "size": 4},
        profile="proactive",
        seed=seed,
        traffic=[{
            "kind": "flows", "rate": 25.0,
            "sizes": {"dist": "fixed", "size": 2000},
            "start": 0.2, "duration": 1.2,
        }],
        settle=1.0,
    )
    doc.update(overrides)
    return WorkloadSpec(**doc)


def raising_spec():
    """Well formed as a document; raises inside the suite worker, where
    the fault is armed: it names a switch the topology does not have."""
    return tiny_spec(name="tiny-bad", faults=[{
        "kind": "channel_flap", "switch": "nope", "at": 0.5,
        "down_for": 0.2, "period": 0.6, "count": 1,
    }])


# ----------------------------------------------------------------------
# Size sources
# ----------------------------------------------------------------------

class TestSizes:
    def test_fixed(self):
        gen = fixed_sizes(4096)
        assert [next(gen) for _ in range(3)] == [4096, 4096, 4096]
        with pytest.raises(TopologyError):
            fixed_sizes(10)

    def test_lognormal_hits_its_linear_mean(self):
        gen = lognormal_sizes(random.Random(7), mean=50_000, sigma=1.0)
        samples = [next(gen) for _ in range(8000)]
        assert all(s >= 64 for s in samples)
        avg = sum(samples) / len(samples)
        assert 35_000 < avg < 70_000

    def test_lognormal_validation(self):
        with pytest.raises(TopologyError):
            next(lognormal_sizes(random.Random(0), mean=-1))
        with pytest.raises(TopologyError):
            next(lognormal_sizes(random.Random(0), mean=100, sigma=0))

    def test_empirical_interpolates_within_the_table(self):
        cdf = [(1000, 0.5), (10_000, 0.9), (100_000, 1.0)]
        gen = empirical_sizes(random.Random(3), cdf)
        samples = [next(gen) for _ in range(4000)]
        assert all(64 <= s <= 100_000 for s in samples)
        small = sum(1 for s in samples if s <= 1000)
        assert 0.4 < small / len(samples) < 0.6

    def test_empirical_validation(self):
        rng = random.Random(0)
        with pytest.raises(TopologyError):
            next(empirical_sizes(rng, []))
        with pytest.raises(TopologyError):
            next(empirical_sizes(rng, [(100, 0.5)]))  # ends below 1.0
        with pytest.raises(TopologyError):
            next(empirical_sizes(rng, [(100, 0.9), (50, 1.0)]))
        with pytest.raises(TopologyError):
            next(empirical_sizes(rng, [(100, 0.9), (200, 0.5)]))

    def test_elephant_mice_mixture(self):
        gen = elephant_mice(random.Random(5), mice_mean=2_000,
                            elephant_mean=500_000, elephant_frac=0.1)
        samples = [next(gen) for _ in range(5000)]
        big = sum(1 for s in samples if s > 50_000)
        assert 0.03 < big / len(samples) < 0.2
        with pytest.raises(TopologyError):
            next(elephant_mice(random.Random(0), elephant_frac=1.5))

    def test_spec_dispatch(self):
        rng = random.Random(1)
        assert next(size_source_from_spec(
            rng, {"dist": "fixed", "size": 777})) == 777
        for doc in ({"dist": "pareto", "mean": 5000},
                    {"dist": "lognormal", "mean": 5000},
                    {"dist": "mix"},
                    {"dist": "empirical", "cdf": [[100, 1.0]]}):
            assert next(size_source_from_spec(rng, doc)) >= 64
        with pytest.raises(TopologyError):
            size_source_from_spec(rng, {"dist": "zipf"})


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

class TestIncast:
    def test_periodic_fanin_bursts(self):
        net, hosts = flooded_network(size=6, seed=2)
        aggregator = hosts[-1]
        sink = FlowSink(aggregator, 9000)
        gen = IncastGenerator(net.sim, hosts[:-1], aggregator,
                              bytes_per_sender=5000, period=0.5,
                              fanin=3, duration=2.0)
        net.run(4.0)
        assert gen.bursts == 4
        assert len(gen.flows_started) == 4 * 3
        assert len(sink.completed_flows()) == 12
        # Every flow within a burst starts at the same instant.
        starts = sorted({r.start_time for r in gen.flows_started})
        assert len(starts) == 4

    def test_validation(self):
        net, hosts = flooded_network()
        with pytest.raises(TopologyError):
            IncastGenerator(net.sim, [hosts[0]], hosts[0])
        with pytest.raises(TopologyError):
            IncastGenerator(net.sim, hosts[:2], hosts[2], period=0.0)


class TestDiurnal:
    def test_rate_fraction_curve(self):
        net, hosts = flooded_network()
        gen = DiurnalFlowGenerator(
            net.sim, hosts, 50.0, fixed_sizes(1000),
            period=2.0, trough=0.25, duration=0.1,
        )
        assert gen.rate_fraction(0.0) == pytest.approx(0.25)
        assert gen.rate_fraction(1.0) == pytest.approx(1.0)
        assert gen.rate_fraction(2.0) == pytest.approx(0.25)
        assert gen.rate_fraction(0.5) == pytest.approx((0.25 + 1) / 2)

    def test_thinning_follows_the_day_curve(self):
        net, hosts = flooded_network(seed=6)
        gen = DiurnalFlowGenerator(
            net.sim, hosts, 80.0, fixed_sizes(1000),
            period=2.0, trough=0.1, duration=2.0,
        )
        net.run(3.0)
        assert gen.accepted > 0 and gen.thinned > 0
        starts = [r.start_time for r in gen.flows_started]
        early = sum(1 for t in starts if t <= 0.4)         # near trough
        peak = sum(1 for t in starts if 0.8 <= t <= 1.2)   # near peak
        assert peak > 2 * max(early, 1)

    def test_validation(self):
        net, hosts = flooded_network()
        with pytest.raises(TopologyError):
            DiurnalFlowGenerator(net.sim, hosts, 10.0, fixed_sizes(1000),
                                 period=0.0)
        with pytest.raises(TopologyError):
            DiurnalFlowGenerator(net.sim, hosts, 10.0, fixed_sizes(1000),
                                 trough=1.5)


class TestTenantMatrix:
    TENANTS = [
        {"name": "a", "users": 600_000, "intra_weight": 0.9},
        {"name": "b", "users": 300_000, "intra_weight": 0.5},
        {"name": "c", "users": 100_000, "intra_weight": 0.9},
    ]

    def test_partition_proportional_to_users(self):
        matrix = TenantMatrix(random.Random(0), list(range(12)),
                              self.TENANTS)
        counts = [len(pool) for pool in matrix.hosts_by_tenant]
        assert sum(counts) == 12
        assert counts[0] > counts[1] > counts[2] >= 2

    def test_pick_returns_distinct_pair(self):
        matrix = TenantMatrix(random.Random(1), list(range(12)),
                              self.TENANTS)
        for _ in range(200):
            src, dst = matrix.pick()
            assert src is not dst

    def test_aggregate_rate_scales_with_modelled_users(self):
        matrix = TenantMatrix(random.Random(0), list(range(12)),
                              self.TENANTS)
        assert matrix.total_users == 1_000_000
        assert matrix.aggregate_rate(2e-5) == pytest.approx(20.0)

    def test_validation(self):
        with pytest.raises(TopologyError):
            TenantMatrix(random.Random(0), list(range(12)), [])
        with pytest.raises(TopologyError):
            TenantMatrix(random.Random(0), [1, 2], self.TENANTS)
        with pytest.raises(TopologyError):
            TenantMatrix(random.Random(0), list(range(12)),
                         [{"name": "x", "users": 0}])


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------

class TestSpec:
    def test_library_round_trips(self):
        for spec in library().values():
            doc = spec.to_dict()
            assert WorkloadSpec.from_dict(doc).to_dict() == doc

    def test_load_spec_json(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(tiny_spec().to_dict()))
        spec = load_spec(str(path))
        assert spec.name == "tiny"
        assert spec.traffic[0]["kind"] == "flows"

    def test_unsupported_version_rejected(self):
        doc = tiny_spec().to_dict()
        doc["version"] = 99
        with pytest.raises(TopologyError):
            WorkloadSpec.from_dict(doc)

    def test_empty_traffic_is_legal(self):
        # The minimiser produces it, and a fault-only scenario still
        # has invariants to check.
        spec = WorkloadSpec("empty", topology={"family": "single"},
                            traffic=[])
        assert spec.duration == 1.0 + spec.settle
        assert WorkloadSpec.from_dict(spec.to_dict()).traffic == []

    def test_zero_bandwidth_is_an_unlimited_link(self):
        spec = WorkloadSpec("free", topology={"family": "single",
                                              "size": 2, "bandwidth": 0},
                            traffic=[])
        topo = build_spec_topology(spec)
        assert {link.bandwidth_bps for link in topo.links} == {0}

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.pop("topology"),
         r"workload spec 'tiny': missing field 'topology'"),
        (lambda d: d.pop("traffic"),
         r"workload spec 'tiny': missing field 'traffic'"),
        (lambda d: d.pop("name"),
         r"workload spec '\?': missing field 'name'"),
        (lambda d: d.update(traffic="flows"),
         r"'tiny': field 'traffic' must be list, not str"),
        (lambda d: d.update(settle="2"),
         r"'tiny': field 'settle' must be a number, not str"),
        (lambda d: d.update(faults=["link_flap"]),
         r"'tiny': faults\[0\] must be an object, not str"),
        (lambda d: d.update(stack="turbo"),
         r"'tiny': unknown stack 'turbo'"),
        (lambda d: d.update(stack="policy"),
         r"'tiny': the 'policy' stack .* needs profile 'bare'"),
        (lambda d: d.update(controllers=0),
         r"'tiny': controllers must be >= 1"),
    ])
    def test_from_dict_fails_by_name(self, mutate, message):
        doc = tiny_spec().to_dict()
        mutate(doc)
        with pytest.raises(TopologyError, match=message):
            WorkloadSpec.from_dict(doc)

    def test_from_dict_rejects_non_objects_and_old_check_scenarios(self):
        with pytest.raises(TopologyError, match="expected an object"):
            WorkloadSpec.from_dict(["not", "a", "spec"])
        # What `check fuzz` wrote into repro files before the check
        # plane took WorkloadSpec as its scenario document.
        old = {"version": 1, "seed": 2, "name": "fuzz-2",
               "topology": "linear", "size": 3, "profile": "reactive",
               "stack": "plain", "settle": 8.0, "faults": [],
               "workload": [{"src": "h1", "dst": "h3", "at": 0.5}]}
        with pytest.raises(TopologyError,
                           match="'fuzz-2': this is a check scenario "
                                 "document from before"):
            WorkloadSpec.from_dict(old)

    def test_controllers_and_stack_emitted_only_when_set(self):
        # Every document (and digest) written before the two fields
        # existed stays byte-identical.
        plain = tiny_spec(controllers=1, stack="plain").to_dict()
        assert "controllers" not in plain and "stack" not in plain
        doc = tiny_spec(controllers=3).to_dict()
        assert doc["controllers"] == 3 and "stack" not in doc
        assert WorkloadSpec.from_dict(doc).to_dict() == doc
        doc = tiny_spec(profile="bare", stack="multipath").to_dict()
        assert doc["stack"] == "multipath" and "controllers" not in doc
        assert WorkloadSpec.from_dict(doc).stack == "multipath"

    def test_horizon_covers_traffic_and_faults(self):
        spec = tiny_spec(faults=[{
            "kind": "channel_flap", "switch": "s1", "at": 2.0,
            "down_for": 0.3, "period": 1.0, "count": 3,
        }])
        # Last cycle goes down at 2.0 + 2*1.0 and recovers 0.3s later.
        assert spec.horizon() == pytest.approx(
            max(0.2 + 1.2, 2.0 + 2 * 1.0 + 0.3) + 1.0)

    def test_horizon_single_cycle_covers_recovery(self):
        # Regression: with one cycle the old ``at + count*period`` bound
        # (3.0) undershot the actual recovery at ``at + down_for``
        # (6.0), so the run could end with the fault still live.
        spec = tiny_spec(faults=[{
            "kind": "channel_flap", "switch": "s1", "at": 1.0,
            "down_for": 5.0, "period": 2.0, "count": 1,
        }])
        assert spec.horizon() == pytest.approx(1.0 + 5.0 + 1.0)

    def test_horizon_covers_a_partition_and_a_probe(self):
        # Regression: horizon() had its own fault ladder, which read
        # ``restart_after`` off every non-flap fault — a KeyError on a
        # controller_partition.
        spec = tiny_spec(controllers=3, traffic=[
            {"kind": "probe", "src": "h1", "dst": "h2", "start": 0.5},
        ], faults=[{"kind": "controller_partition", "minority": [1],
                    "at": 2.0, "heal_after": 0.75}])
        assert spec.horizon() == 2.0 + 0.75 + 1.0
        spec.faults.clear()
        assert spec.horizon() == 1.0 + 1.0  # a probe lasts 0 s


# ----------------------------------------------------------------------
# Runner + suite
# ----------------------------------------------------------------------

class TestRunner:
    def test_run_is_seeded_bit_identical(self):
        first = run_workload(tiny_spec())
        second = run_workload(
            WorkloadSpec.from_dict(tiny_spec().to_dict()))
        assert first.digest == second.digest
        report = diff_runs(first.artifact, second.artifact)
        assert report.ok

    def test_summary_and_artifact_contents(self):
        result = run_workload(tiny_spec())
        s = result.summary
        assert s["flows_completed"] > 0
        assert s["flows_started"] >= s["flows_completed"]
        assert s["fct_p99"] is not None and s["fct_p99"] >= 0
        assert s["flow_table_peak"] > 0
        assert result.artifact.meta["summary"] == s
        assert result.artifact.meta["workload"]["name"] == "tiny"
        assert any(sid.startswith("workload_flow_entries")
                   for sid in result.artifact.series)

    def test_dc_heavy_tail_golden_and_telemetry_sentinel(self, monkeypatch):
        """One library run, two gates a builder's ``pytest`` can see.

        The run equals the committed golden ``check_regression.py``
        compares ``BENCH_E16.json`` against (a mismatch names each
        section or metric family that moved), and telemetry costs the
        packet path nothing: every per-packet count is read through from
        the layer that keeps it, so what is left to ``Counter.inc`` is
        one per packet-in (the cluster-shared child) plus event-rate
        families.  6.52 per link transmission before counts were bound.
        Nothing in ``run_workload`` reads spans, so it records none.
        """
        from repro.telemetry.registry import Counter
        from repro.telemetry.trace import Tracer

        incs = [0]
        real_inc = Counter.inc
        records = [0]
        real_record = Tracer.record

        def counting_inc(self, amount=1):
            incs[0] += 1
            real_inc(self, amount)

        def counting_record(self, *args, **kwargs):
            records[0] += 1
            return real_record(self, *args, **kwargs)

        monkeypatch.setattr(Counter, "inc", counting_inc)
        monkeypatch.setattr(Tracer, "record", counting_record)
        result = run_workload(library()["dc-heavy-tail"])
        monkeypatch.undo()

        script = os.path.join(os.path.dirname(__file__), "..",
                              "benchmarks", "check_regression.py")
        loader = importlib.util.spec_from_file_location("gate", script)
        gate = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(gate)
        golden = gate.E16_BASE["scenarios"]["dc-heavy-tail"]
        record = dict(result.summary, digest=result.digest,
                      sections=section_digests(result.artifact.to_dict()))
        moved = gate.golden_moves(golden, record)
        assert not moved, f"dc-heavy-tail moved: {', '.join(moved)}"
        assert result.digest == golden["digest"]
        assert records == [0], "an untraced run recorded spans"

        transmissions = sum(
            series.last[1]
            for series in result.artifact.match("link_tx_packets_total"))
        per_tx = incs[0] / transmissions
        print(f"\ntelemetry sentinel: {per_tx:.2f} Counter.inc per link "
              f"transmission ({incs[0]} for {transmissions:.0f}), "
              f"{records[0]} Tracer.record")
        assert per_tx <= 0.5

    def test_faults_are_armed(self):
        spec = tiny_spec(name="tiny-fault", faults=[{
            "kind": "channel_flap", "switch": "s1", "at": 0.5,
            "down_for": 0.2, "period": 0.6, "count": 1,
        }])
        result = run_workload(spec)
        assert result.summary["faults_fired"] >= 2  # down + up

    def test_suite_digest_independent_of_jobs(self, tmp_path):
        specs = [tiny_spec(), tiny_spec(name="tiny-b", seed=4)]
        serial = run_suite(specs, jobs=1,
                           out_dir=str(tmp_path / "serial"))
        parallel = run_suite(specs, jobs=2,
                             out_dir=str(tmp_path / "parallel"))
        assert suite_digest(serial) == suite_digest(parallel)
        assert [r.digest for r in serial] == [r.digest for r in parallel]
        for name in ("tiny", "tiny-b"):
            a = load_artifact(str(tmp_path / "serial" / f"{name}.json"))
            b = load_artifact(str(tmp_path / "parallel" / f"{name}.json"))
            assert diff_runs(a, b).ok

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_raising_spec_does_not_lose_the_suite(self, jobs, tmp_path):
        specs = [tiny_spec(), raising_spec(),
                 tiny_spec(name="tiny-b", seed=4)]
        with pytest.raises(ZenError) as caught:
            run_suite(specs, jobs=jobs, out_dir=str(tmp_path))
        message = str(caught.value)
        assert "\n" not in message and "1 of 3" in message
        assert "tiny-bad: TopologyError: " in message and "nope" in message
        assert "tiny-b:" not in message
        assert sorted(os.listdir(tmp_path)) == ["tiny-b.json", "tiny.json"]
        kept = caught.value.results
        assert [result.spec.name for result in kept] == ["tiny", "tiny-b"]
        failure, = caught.value.failures
        assert sorted(failure) == ["error", "name", "traceback"]
        assert failure["name"] == "tiny-bad"
        assert "arm_faults" in failure["traceback"]  # where, for a human
        # What was kept is what a clean suite of the two would have been.
        assert [result.digest for result in kept] == \
            [result.digest
             for result in run_suite([specs[0], specs[2]], jobs=1)]

    def test_cli_suite_names_the_failed_scenario(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(
            "repro.workload.library",
            lambda: {"tiny": tiny_spec(), "tiny-bad": raising_spec()})
        assert main(["workload", "suite", "--jobs", "1",
                     "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: 1 of 2 suite scenario(s)")
        assert err.count("\n") == 1 and "tiny-bad: " in err
        assert os.listdir(tmp_path) == ["tiny.json"]

    def test_probe_entry_sends_one_datagram(self):
        network, hosts = flooded_network()
        network.run(1.0)
        assert arm_traffic(network.sim, hosts, {
            "kind": "probe", "src": "h1", "dst": "h3", "start": 0.25,
        }, {}) is None
        network.run(0.2)
        assert network.hosts["h1"].tx_packets == 0
        network.run(0.1)
        assert network.hosts["h1"].tx_packets == 1
        assert network.hosts["h3"].rx_packets == 1
        with pytest.raises(TopologyError, match="unknown host 'h9'"):
            arm_traffic(network.sim, hosts, {
                "kind": "probe", "src": "h1", "dst": "h9"}, {})


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestWorkloadCLI:
    def test_list(self, capsys):
        assert main(["workload", "list"]) == 0
        out = capsys.readouterr().out
        for name in library():
            assert name in out

    def test_run_spec_file_with_artifact(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(json.dumps(tiny_spec().to_dict()))
        artifact_path = tmp_path / "run.json"
        code = main(["run", "--spec", str(spec_path),
                     "--out", str(artifact_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "tiny:" in out and "digest" in out
        artifact = load_artifact(str(artifact_path))
        assert artifact.meta["workload"]["name"] == "tiny"

    def test_run_unknown_name_rejected(self, capsys):
        assert main(["run", "--name", "nope"]) == 2
        assert "unknown scenario 'nope'" in capsys.readouterr().err
