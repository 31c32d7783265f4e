"""Traffic-engineering tests: pure placement algorithms plus the app."""

import networkx as nx
import pytest

from repro.apps import (
    Demand,
    TrafficEngineering,
    ecmp_place,
    greedy_place,
    spf_place,
)
from repro.apps.traffic_engineering import TE_PRIORITY
from repro.core import ZenPlatform
from repro.errors import ControllerError
from repro.netem import Topology
from repro.packet import IPv4Address


def diamond():
    """1 -- {2, 3} -- 4: two disjoint equal-cost paths."""
    g = nx.Graph()
    g.add_edges_from([(1, 2), (2, 4), (1, 3), (3, 4)])
    return g


def locate_identity(hosts):
    mapping = {IPv4Address(ip): dpid for ip, dpid in hosts.items()}

    def locate(ip):
        return mapping[IPv4Address(ip)]

    return locate


HOSTS = {"10.0.0.1": 1, "10.0.0.4": 4}
LOCATE = locate_identity(HOSTS)


def caps(graph, bps):
    return {frozenset(e): bps for e in graph.edges()}


class TestPurePlacement:
    def test_spf_piles_onto_one_path(self):
        demands = [Demand("10.0.0.1", "10.0.0.4", 10e6) for _ in range(4)]
        result = spf_place(diamond(), demands, LOCATE)
        used_paths = {tuple(p) for p in result.paths.values()}
        assert len(used_paths) == 1
        assert max(result.link_loads.values()) == 40e6

    def test_greedy_spreads_across_paths(self):
        graph = diamond()
        demands = [Demand("10.0.0.1", "10.0.0.4", 10e6) for _ in range(4)]
        result = greedy_place(graph, demands, LOCATE,
                              caps(graph, 100e6), k=4)
        assert len(result.rejected) == 0
        # Perfect split: 20 Mb/s per arm instead of 40 on one.
        assert max(result.link_loads.values()) == pytest.approx(20e6)
        assert result.max_utilisation(caps(graph, 100e6)) == pytest.approx(0.2)

    def test_greedy_beats_spf_on_max_utilisation(self):
        graph = diamond()
        demands = [Demand("10.0.0.1", "10.0.0.4", 10e6) for _ in range(6)]
        capacities = caps(graph, 100e6)
        spf = spf_place(graph, demands, LOCATE)
        greedy = greedy_place(graph, demands, LOCATE, capacities)
        assert (greedy.max_utilisation(capacities)
                < spf.max_utilisation(capacities))

    def test_greedy_rejects_when_capacity_exhausted(self):
        graph = diamond()
        demands = [Demand("10.0.0.1", "10.0.0.4", 60e6) for _ in range(3)]
        result = greedy_place(graph, demands, LOCATE, caps(graph, 100e6),
                              admit_all=False)
        assert len(result.rejected) == 1
        assert result.admitted_rate == 120e6

    def test_greedy_admit_all_overloads_instead(self):
        graph = diamond()
        demands = [Demand("10.0.0.1", "10.0.0.4", 60e6) for _ in range(3)]
        result = greedy_place(graph, demands, LOCATE, caps(graph, 100e6),
                              admit_all=True)
        assert result.rejected == []
        assert result.max_utilisation(caps(graph, 100e6)) > 1.0

    def test_greedy_places_largest_first(self):
        graph = diamond()
        demands = [
            Demand("10.0.0.1", "10.0.0.4", 90e6),
            Demand("10.0.0.1", "10.0.0.4", 30e6),
        ]
        result = greedy_place(graph, demands, LOCATE, caps(graph, 100e6))
        big_path = result.paths[demands[0]]
        small_path = result.paths[demands[1]]
        assert big_path != small_path  # elephant gets its own arm

    def test_ecmp_is_deterministic_and_spreads(self):
        graph = diamond()
        demands = [Demand(f"10.0.1.{i}", "10.0.0.4", 1e6)
                   for i in range(1, 9)]

        def locate(ip):
            return 4 if str(ip) == "10.0.0.4" else 1

        a = ecmp_place(graph, demands, locate)
        b = ecmp_place(graph, demands, locate)
        assert [p for p in a.paths.values()] == [
            p for p in b.paths.values()
        ]
        used = {tuple(p) for p in a.paths.values()}
        assert len(used) == 2  # both arms see traffic

    def test_disconnected_pair_rejected(self):
        graph = diamond()
        graph.add_node(9)
        demands = [Demand("10.0.0.1", "10.0.9.9", 1e6)]

        def locate(ip):
            return 9 if str(ip) == "10.0.9.9" else 1

        for place in (spf_place, ecmp_place):
            result = place(graph, demands, locate)
            assert result.paths[demands[0]] is None
        result = greedy_place(graph, demands, locate, caps(graph, 1e9))
        assert demands[0] in result.rejected

    def test_demand_validation(self):
        with pytest.raises(ControllerError):
            Demand("10.0.0.1", "10.0.0.2", 0)


class TestTrafficEngineeringApp:
    @pytest.fixture
    def platform(self):
        # Diamond of switches, one host at each end.
        topo = Topology()
        for _ in range(4):
            topo.add_switch()
        topo.add_link("s1", "s2", bandwidth_bps=10e6)
        topo.add_link("s2", "s4", bandwidth_bps=10e6)
        topo.add_link("s1", "s3", bandwidth_bps=10e6)
        topo.add_link("s3", "s4", bandwidth_bps=10e6)
        h1 = topo.add_host()
        h2 = topo.add_host()
        topo.add_link(h1, "s1", bandwidth_bps=100e6)
        topo.add_link(h2, "s4", bandwidth_bps=100e6)
        p = ZenPlatform(topo, profile="proactive")
        p.te = p.add_app(TrafficEngineering(
            default_capacity_bps=10e6, strategy="greedy",
        ))
        p.start()
        # Learn both hosts.
        p.host("h1").ping(p.host("h2").ip, count=1)
        p.run(3.0)
        return p

    def test_install_programs_paths(self, platform):
        h1, h2 = platform.host("h1"), platform.host("h2")
        result = platform.te.install([
            Demand(h1.ip, h2.ip, 6e6),
            Demand(h2.ip, h1.ip, 6e6),
        ])
        platform.run(0.5)
        assert all(p is not None for p in result.paths.values())
        te_rules = sum(
            1 for dp in platform.net.switches.values()
            for t in dp.tables for e in t if e.priority == 25000
        )
        assert te_rules > 0
        session = h1.ping(h2.ip, count=3, interval=0.1)
        platform.run(3.0)
        assert session.received == 3

    def test_te_spreads_two_elephants(self, platform):
        h1, h2 = platform.host("h1"), platform.host("h2")
        # Two demands from the same source pair would collide on ip_src/
        # ip_dst match granularity, so model the reverse direction too.
        result = platform.te.install([
            Demand(h1.ip, h2.ip, 7e6),
            Demand(h2.ip, h1.ip, 7e6),
        ])
        # Both fit without sharing any directed edge pair in a way that
        # exceeds capacity: max utilisation <= 0.7.
        caps_map = {
            frozenset(e): 10e6
            for e in platform.discovery.graph().edges()
        }
        assert result.max_utilisation(caps_map) <= 0.7 + 1e-9

    def test_replace_after_failure(self, platform):
        h1, h2 = platform.host("h1"), platform.host("h2")
        result = platform.te.install([Demand(h1.ip, h2.ip, 6e6)])
        path = next(iter(result.paths.values()))
        mid = platform.net.switch_name(path[1])
        platform.fail_link("s1", mid)
        platform.run(1.0)
        assert platform.te.replacements >= 1
        new_path = next(iter(platform.te.last_result.paths.values()))
        assert new_path is not None and new_path != path
        session = h1.ping(h2.ip, count=2, interval=0.1)
        platform.run(3.0)
        assert session.received == 2

    def test_uninstall_reaches_a_switch_that_was_away(self, platform):
        """A delete that found its switch's channel down used to be
        dropped while the ledger kept the rule, so resync defended the
        leak for ever.  Asserts the switch tables, not the app."""
        h1, h2 = platform.host("h1"), platform.host("h2")

        def te_entries():
            return {
                name: sum(1 for t in dp.tables for e in t
                          if e.priority == TE_PRIORITY)
                for name, dp in platform.net.switches.items()
            }

        result = platform.te.install([Demand(h1.ip, h2.ip, 6e6)])
        platform.run(0.5)
        path = next(iter(result.paths.values()))
        transit = platform.net.switch_name(path[1])
        assert te_entries()[transit] == 1
        platform.net.channel(transit).disconnect()
        platform.run(0.1)
        platform.te.install([])
        platform.run(0.5)
        assert te_entries()[transit] == 1  # out of reach for now
        platform.net.channel(transit).connect()
        platform.run(3.0)  # handshake, resync, rediscovery
        platform.te.install([])
        platform.run(0.5)
        assert te_entries() == dict.fromkeys(platform.net.switches, 0)

    def test_replace_leaves_unchanged_paths_alone(self, platform):
        # Re-declaring the same placement sends nothing, so the rules'
        # counters are not reset.
        h1, h2 = platform.host("h1"), platform.host("h2")
        platform.te.install([Demand(h1.ip, h2.ip, 6e6)])
        platform.run(0.5)
        before = platform.total_control_messages()
        platform.te.replace()
        assert platform.total_control_messages() == before

    def test_strategy_validation(self):
        with pytest.raises(ControllerError):
            TrafficEngineering(strategy="bogus")
