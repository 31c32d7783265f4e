"""ZenPlatform integration tests and cross-plane scenarios."""

import networkx as nx
import pytest

from repro.core import ZenPlatform
from repro.errors import ControllerError
from repro.graphutil import canonical_tree_edges
from repro.netem import Topology


class TestGraphUtil:
    def test_canonical_tree_spans_and_is_acyclic(self):
        g = nx.Graph()
        g.add_edges_from([(1, 2), (2, 3), (3, 4), (4, 1), (2, 4)])
        tree = canonical_tree_edges(g)
        assert len(tree) == 3  # n-1
        t = nx.Graph()
        t.add_edges_from(tuple(e) for e in tree)
        assert nx.is_tree(t)
        assert set(t.nodes) == set(g.nodes)

    def test_independent_of_insertion_order(self):
        edges = [(1, 2), (2, 3), (3, 4), (4, 1)]
        a, b = nx.Graph(), nx.Graph()
        a.add_edges_from(edges)
        b.add_edges_from(reversed(edges))
        assert canonical_tree_edges(a) == canonical_tree_edges(b)

    def test_disconnected_components(self):
        g = nx.Graph()
        g.add_edges_from([(1, 2), (5, 6)])
        g.add_node(9)
        tree = canonical_tree_edges(g)
        assert tree == {frozenset((1, 2)), frozenset((5, 6))}

    def test_empty_graph(self):
        assert canonical_tree_edges(nx.Graph()) == set()


class TestPlatformAssembly:
    def test_profiles(self):
        for profile in ("reactive", "proactive", "bare"):
            platform = ZenPlatform(Topology.single(1), profile=profile)
            assert platform.profile == profile
        with pytest.raises(ControllerError):
            ZenPlatform(Topology.single(1), profile="quantum")

    def test_all_switches_connected_after_start(self):
        platform = ZenPlatform(Topology.fat_tree(4)).start()
        assert platform.controller.switch_count == 20
        assert platform.discovery.link_count == 64  # 32 links × 2 dirs

    def test_control_overhead_accounting(self):
        platform = ZenPlatform(Topology.linear(2, hosts_per_switch=1,
                                               bandwidth_bps=1e9)).start()
        platform.ping_all(count=1, settle=3.0)
        per_switch = platform.control_overhead()
        assert set(per_switch) == {"s1", "s2"}
        total_msgs = platform.total_control_messages()
        total_bytes = platform.total_control_bytes()
        assert total_msgs > 0
        assert total_bytes > total_msgs * 10  # every frame has a header

    def test_intents_profile_flag(self):
        platform = ZenPlatform(Topology.single(1), intents=True)
        assert platform.intents is not None
        platform2 = ZenPlatform(Topology.single(1))
        assert platform2.intents is None

    def test_controllers_none_is_the_plain_single_controller(self):
        platform = ZenPlatform(Topology.ring(3, hosts_per_switch=1))
        assert platform.cluster is None
        assert not hasattr(platform.controller, "node_id")
        assert platform.discovery.jitter > 0.0
        assert platform.fault_schedule().cluster is None
        # One channel per switch, keyed by the bare switch name.
        assert sorted(platform.net.channels) == ["s1", "s2", "s3"]

    def test_controllers_n_builds_the_cluster(self):
        platform = ZenPlatform(Topology.ring(3, hosts_per_switch=1),
                               controllers=2).start()
        cluster = platform.cluster
        assert cluster.size == 2
        assert platform.controller is cluster.node(0)
        assert platform.discovery.jitter == 0.0
        assert platform.fault_schedule().cluster is cluster
        assert len(platform.net.channels) == 6  # switch x instance
        assert platform.ping_all(count=1, settle=8.0) == 1.0

    def test_controllers_must_be_positive(self):
        with pytest.raises(ValueError):
            ZenPlatform(Topology.ring(3), controllers=0)

    def test_intents_on_a_cluster_is_a_named_error(self):
        with pytest.raises(ControllerError, match="single-controller"):
            ZenPlatform(Topology.ring(3), controllers=2, intents=True)

    def test_seed_static_arp_returns_hosts_in_name_order(self):
        platform = ZenPlatform(Topology.fat_tree(4))
        hosts = platform.net.seed_static_arp()
        assert [h.name for h in hosts] == sorted(platform.net.hosts)
        assert len(hosts) == 16
        first, last = hosts[0], hosts[-1]
        assert first.arp_table[last.ip] == last.mac

    def test_assemble_wires_only_the_observers_asked_for(self):
        from repro.telemetry import Telemetry
        from repro.workload import WorkloadSpec, assemble

        spec = WorkloadSpec(
            "observers", topology={"family": "ring", "size": 3},
            traffic=[], faults=[{"kind": "link_flap", "a": "s1", "b": "s2",
                                 "at": 0.2, "down_for": 0.3, "period": 1.0,
                                 "count": 1}])
        bare = assemble(spec)
        # Metrics and the obs plane are always on; tracing and the
        # monitor are not.
        assert bare.plane is not None and bare.monitor is None
        assert bare.platform.telemetry is bare.platform.sim.telemetry
        assert not bare.platform.telemetry.tracing
        assert len(bare.schedule.on_fire) == 1
        telemetry = Telemetry(trace=True)
        live = assemble(spec, telemetry=telemetry, monitor=True)
        assert live.platform.telemetry is telemetry
        live.platform.run(1.5)
        live.plane.finish()
        kinds = [a.kind for a in live.plane.scraper.annotations]
        assert "link_down" in kinds and "link_up" in kinds
        assert live.monitor.checks_run >= 2
        # The plane hooks in before the monitor: a timeline reads each
        # fault before the checks that audit it.
        assert len(live.schedule.on_fire) == 2
        fault_roots = [t for _tid, t, _ in telemetry.tracer.traces()
                       if t.startswith("fault:")]
        assert fault_roots == ["fault:link_down s1-s2", "fault:link_up s1-s2"]


class TestEndToEndScenarios:
    def test_fat_tree_any_to_any(self):
        platform = ZenPlatform(
            Topology.fat_tree(4, bandwidth_bps=1e9),
            probe_interval=0.5,
        ).start(warmup=2.0)
        # Sample pings across pods (all-pairs would be 240 sessions).
        h_a, h_b = platform.host("p0e0h0"), platform.host("p3e1h1")
        h_c, h_d = platform.host("p1e1h0"), platform.host("p2e0h1")
        s1 = h_a.ping(h_b.ip, count=2, interval=0.2)
        s2 = h_c.ping(h_d.ip, count=2, interval=0.2)
        platform.run(8.0)
        assert s1.received == 2
        assert s2.received == 2

    def test_reactive_and_proactive_agree_on_connectivity(self):
        for profile in ("reactive", "proactive"):
            platform = ZenPlatform(
                Topology.tree(depth=2, fanout=2, bandwidth_bps=1e9),
                profile=profile,
            ).start()
            assert platform.ping_all(count=1, settle=6.0) == 1.0

    def test_failure_recovery_end_to_end(self):
        platform = ZenPlatform(
            Topology.ring(5, hosts_per_switch=1, bandwidth_bps=1e9)
        ).start()
        assert platform.ping_all(count=1, settle=5.0) == 1.0
        platform.fail_link("s2", "s3")
        platform.run(2.0)
        assert platform.ping_all(count=1, settle=5.0) == 1.0
        platform.recover_link("s2", "s3")
        platform.run(3.0)
        assert platform.ping_all(count=1, settle=5.0) == 1.0

    def test_deterministic_replay(self):
        def run(seed):
            platform = ZenPlatform(
                Topology.ring(4, hosts_per_switch=1, bandwidth_bps=1e9),
                seed=seed,
            ).start()
            ratio = platform.ping_all(count=2, settle=4.0)
            return (ratio, platform.sim.events_processed,
                    platform.total_control_messages())

        assert run(3) == run(3)

    def test_controller_latency_slows_reactive_setup(self):
        def first_rtt(latency):
            platform = ZenPlatform(
                Topology.linear(2, hosts_per_switch=1,
                                bandwidth_bps=1e9),
                profile="reactive",
                control_latency=latency,
            ).start()
            h1, h2 = platform.host("h1"), platform.host("h2")
            session = h1.ping(h2.ip, count=1)
            platform.run(8.0)
            assert session.received == 1
            return session.avg_rtt

        assert first_rtt(0.02) > first_rtt(0.0005) + 0.01
