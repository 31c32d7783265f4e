"""repro.check: invariant checker, fuzzer determinism, and purity.

Four families:

* seeded violations — networks programmed with a deliberate forwarding
  loop, blackhole, slice leak, or firewall bypass are caught, each with
  a concrete counterexample packet class;
* clean bills of health — every canned example scenario checks clean
  (the checker's zero-false-positive obligation);
* fuzzer determinism — same seed, bit-identical scenario and outcome;
* purity — snapshotting and checking never perturb the network
  (counters, flow state, kernel event count all untouched).
"""

import json

import pytest

from repro.core import ZenPlatform
from repro.dataplane import Match
from repro.dataplane.actions import Output
from repro.dataplane.flowtable import FlowEntry
from repro.netem import Topology
from repro.packet import MACAddress

from repro.check import (
    BLACKHOLE_KINDS,
    FirewallCompliance,
    NetworkChecker,
    NetworkSnapshot,
    SliceIsolation,
    example_scenarios,
    generate_scenario,
    minimize,
    replay,
    run_scenario,
)
from repro.check import fuzzer
from repro.workload import (
    WorkloadSpec,
    build_spec_topology,
    library,
    load_spec,
    run_workload,
)


def _bare_ring(n=3, seed=1):
    return ZenPlatform(
        Topology.ring(n, hosts_per_switch=1), profile="bare", seed=seed
    ).start()


def _install(net, switch, match, out_port, priority=500):
    net.switches[switch].install_flow(
        FlowEntry(match, [Output(out_port)], priority=priority)
    )


# ----------------------------------------------------------------------
# Seeded violations: the checker must find what we planted
# ----------------------------------------------------------------------
class TestSeededViolations:
    def test_detects_forwarding_loop(self):
        net = _bare_ring().net
        mac = MACAddress("02:aa:00:00:00:99")
        for a, b in (("s1", "s2"), ("s2", "s3"), ("s3", "s1")):
            _install(net, a, Match(eth_dst=mac), net.port_of(a, b))
        result = NetworkChecker().check(net)
        assert not result.ok
        loops = result.of_kind("loop")
        assert loops
        for violation in loops:
            # Every loop report carries a replayable counterexample:
            # a packet class plus a concrete witness key in it.
            assert violation.counterexample is not None
            assert violation.witness is not None
            assert violation.witness.eth_dst == mac
            assert violation.counterexample.contains(violation.witness)

    def test_detects_blackhole_dead_port(self):
        platform = _bare_ring()
        net = platform.net
        h2 = net.hosts["h2"]
        _install(net, "s1", Match(eth_dst=h2.mac), net.port_of("s1", "s2"))
        net.fail_link("s1", "s2")
        result = NetworkChecker().check(net)
        assert not result.ok
        holes = [v for v in result.violations
                 if v.kind in BLACKHOLE_KINDS]
        assert holes
        v = holes[0]
        assert v.kind == "dead_port"
        assert "h1" in v.message and "h2" in v.message
        assert v.counterexample is not None
        assert v.counterexample.contains(v.witness)

    def test_detects_slice_leak(self):
        net = _bare_ring().net
        h3 = net.hosts["h3"]
        _install(net, "s1", Match(eth_dst=h3.mac), net.port_of("s1", "s3"))
        _install(net, "s3", Match(eth_dst=h3.mac), net.port_of("s3", "h3"))
        checker = NetworkChecker(
            [SliceIsolation({"blue": ["h1"], "red": ["h3"]})]
        )
        result = checker.check(net)
        leaks = result.of_kind("slice_leak")
        assert leaks
        assert "blue" in leaks[0].message and "red" in leaks[0].message
        assert leaks[0].counterexample is not None

    def test_detects_firewall_bypass(self):
        from repro.apps.firewall import Firewall

        platform = _bare_ring()
        firewall = platform.add_app(Firewall(table_id=1, next_table=2))
        firewall.deny(ip_proto=17)  # policy says: no UDP anywhere
        net = platform.net
        h2 = net.hosts["h2"]
        # ...but someone programmed table 0 to deliver around it.
        _install(net, "s1", Match(eth_dst=h2.mac), net.port_of("s1", "s2"))
        _install(net, "s2", Match(eth_dst=h2.mac), net.port_of("s2", "h2"))
        result = NetworkChecker([FirewallCompliance(firewall)]).check(net)
        bypasses = result.of_kind("firewall_bypass")
        assert bypasses
        assert bypasses[0].counterexample is not None

    def test_clean_network_reports_no_violations(self):
        net = _bare_ring().net
        assert NetworkChecker().check(net).ok


# ----------------------------------------------------------------------
# Zero false positives on the shipped example stacks
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "scenario", example_scenarios(), ids=lambda s: s.name
)
def test_example_scenario_checks_clean(scenario):
    result = run_scenario(scenario)
    assert result.ok, result.artifact.checks["violations"]
    assert result.artifact.checks["probes_run"] > 0


# ----------------------------------------------------------------------
# Fuzzer determinism
# ----------------------------------------------------------------------
class TestFuzzerDeterminism:
    def test_generation_is_pure(self):
        assert (generate_scenario(7).to_dict()
                == generate_scenario(7).to_dict())
        assert (generate_scenario(3).to_dict()
                != generate_scenario(4).to_dict())

    def test_scenario_dict_roundtrip(self):
        scenario = generate_scenario(11)
        assert (WorkloadSpec.from_dict(scenario.to_dict()).to_dict()
                == scenario.to_dict())

    def test_same_seed_is_bit_identical(self):
        scenario = generate_scenario(1)  # ring/reactive with faults
        assert scenario.faults  # the interesting case
        first = run_scenario(scenario, monitor=True)
        second = run_scenario(scenario, monitor=True)
        assert first.digest == second.digest
        assert first.observables == second.observables

    def test_repro_file_roundtrip(self, tmp_path):
        scenario = generate_scenario(2)
        result = run_scenario(scenario)
        path = tmp_path / "repro.json"
        result.save(str(path))
        payload = json.loads(path.read_text())
        assert payload["digest"] == result.digest
        replayed = run_scenario(load_spec(str(path)))
        assert replayed.digest == payload["digest"]

    def test_a_bare_spec_document_replays(self, tmp_path):
        # `check replay --path` takes what `run --spec` takes.
        spec = generate_scenario(2)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert replay(str(path)).digest == run_scenario(spec).digest

    def test_minimize_drops_irrelevant_parts(self):
        scenario = generate_scenario(1)
        assert len(scenario.faults) > 1
        culprit = scenario.faults[-1]

        def still_fails(s):
            return culprit in s.faults

        small = minimize(scenario, still_fails=still_fails)
        assert small.faults == [culprit]
        assert small.traffic == []

    def test_committed_corpus_replays_clean(self):
        from pathlib import Path

        corpus_path = Path(__file__).parent / "data" / "fuzz_corpus.json"
        corpus = json.loads(corpus_path.read_text())
        for seed in corpus["seeds"]:
            result = run_scenario(generate_scenario(seed))
            assert result.ok, (seed, result.artifact.checks["violations"])
            assert "event_budget_exhausted" not in result.artifact.checks

    def test_a_runaway_scenario_ends_in_the_budget_verdict(
            self, monkeypatch):
        # A budget below what corpus seed 0 (tree(4)/reactive, 2,438
        # events) needs stands in for a run that never settles.
        monkeypatch.setattr(fuzzer, "EVENT_BUDGET", 1_000)
        result = run_scenario(generate_scenario(0))
        assert not result.ok
        budget = result.artifact.checks["event_budget_exhausted"]
        assert budget["budget"] == fuzzer.EVENT_BUDGET
        assert budget["pending"] > 0
        assert budget["now"] < result.spec.duration


# ----------------------------------------------------------------------
# Purity: checking must never perturb the network
# ----------------------------------------------------------------------
class TestPurity:
    def test_snapshot_leaves_counters_untouched(self):
        platform = _bare_ring()
        net = platform.net
        h2 = net.hosts["h2"]
        _install(net, "s1", Match(eth_dst=h2.mac),
                 net.port_of("s1", "s2"))
        before = {
            "stats": {n: net.switches[n].stats() for n in net.switches},
            "lookups": {
                n: [t.lookup_count for t in net.switches[n].tables]
                for n in net.switches
            },
            "events": net.sim.events_processed,
        }
        NetworkSnapshot.capture(net)
        NetworkChecker().check(net)
        after = {
            "stats": {n: net.switches[n].stats() for n in net.switches},
            "lookups": {
                n: [t.lookup_count for t in net.switches[n].tables]
                for n in net.switches
            },
            "events": net.sim.events_processed,
        }
        assert before == after

    def test_monitor_does_not_perturb_the_run(self):
        # Same seed, faults firing, monitor on vs off: every observable
        # — including the kernel's event count — must be bit-identical.
        scenario = generate_scenario(1)
        assert scenario.faults
        off = run_scenario(scenario, monitor=False)
        on = run_scenario(scenario, monitor=True)
        assert on.observables == off.observables
        assert on.artifact.checks == off.artifact.checks
        # The monitor did actually run and see the transient failures.
        assert on.summary["monitor_failures"]


# ----------------------------------------------------------------------
# One document, one assembler: the check plane runs the simulation the
# workload plane runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name, duration", [
    ("dc-heavy-tail", 1.5),
    ("incast-storm", 1.0),
    ("wan-diurnal", 4.0),  # the core0-core1 flap has healed and re-routed
    ("tenant-millions", 1.0),
])
def test_library_spec_is_checked_on_the_run_the_workload_plane_measures(
        name, duration):
    spec = library()[name]
    spec.duration = duration  # shortened for tier 1; same program
    checked = run_scenario(spec, monitor=True)
    measured = run_workload(spec)
    assert checked.ok, checked.artifact.checks["violations"]
    topo = build_spec_topology(spec)
    assert (set(checked.observables["dp_stats"])
            | set(checked.observables["hosts"])) == set(topo.nodes)
    assert (checked.observables["events"]
            == measured.summary["events"])


def test_cluster_spec_runs_on_both_planes():
    spec = WorkloadSpec(
        "cluster-crash", topology={"family": "ring", "size": 4},
        traffic=[{"kind": "flows", "rate": 20.0,
                  "sizes": {"dist": "fixed", "size": 2000},
                  "start": 0.2, "duration": 2.0}],
        seed=5, controllers=3, settle=1.5,
        faults=[{"kind": "controller_crash", "node": 1, "at": 0.8,
                 "restart_after": 0.6}])
    assert WorkloadSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()
    checked = run_scenario(spec)
    measured = run_workload(spec)
    assert checked.ok, checked.artifact.checks
    assert checked.artifact.checks["cluster_violations"] == []
    assert (checked.summary["faults_fired"]
            == measured.summary["faults_fired"] == 2)
    assert measured.summary["flows_completed"] > 0
    assert (checked.observables["events"]
            == measured.summary["events"])
