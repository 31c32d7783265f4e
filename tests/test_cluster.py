"""Distributed controller cluster: election, roles, handover, faults.

Covers the cluster control plane end to end: rendezvous mastership and
leader election, the east-west bus (membership epochs, quorum doctrine,
partitions), ZOF role semantics on the switch side (PRIMARY demotion,
SLAVE mutation refusal, generation fencing), mastership handover on
controller crash/restart and partition/heal, replication convergence,
the cluster invariant checker, FaultSchedule's controller kinds, and
the obs handover SLO wiring.
"""

import pytest

from repro.check import check_cluster
from repro.cluster import (
    ControllerCluster,
    EastWestBus,
    assign_masters,
    elect_leader,
    rendezvous_score,
)
from repro.core import ZenPlatform, dataplane_digest
from repro.errors import TopologyError
from repro.faults import FaultSchedule
from repro.netem import Topology
from repro.sim import Simulator
from repro.southbound import ControllerRole


def ring_cluster(controllers=3, size=4, profile="proactive", seed=7,
                 **kwargs):
    platform = ZenPlatform(Topology.ring(size, hosts_per_switch=1),
                           controllers=controllers, profile=profile,
                           seed=seed, **kwargs)
    platform.start()
    return platform


# ----------------------------------------------------------------------
# Election
# ----------------------------------------------------------------------
class TestElection:
    def test_assignment_deterministic(self):
        members = [0, 1, 2]
        dpids = [1, 2, 3, 4, 5]
        assert assign_masters(members, dpids, seed=9) == \
            assign_masters(members, dpids, seed=9)

    def test_assignment_pure_function_of_member_set(self):
        dpids = list(range(1, 9))
        a = assign_masters([2, 0, 1], dpids, seed=3)
        b = assign_masters([1, 2, 0], dpids, seed=3)
        assert a == b

    def test_assignment_covers_every_switch(self):
        got = assign_masters([0, 1, 2], [1, 2, 3, 4], seed=0)
        assert sorted(got) == [1, 2, 3, 4]
        assert set(got.values()) <= {0, 1, 2}

    def test_empty_member_set_assigns_nothing(self):
        assert assign_masters([], [1, 2], seed=0) == {}

    def test_member_removal_only_moves_its_switches(self):
        """Rendezvous hashing: dropping one member never reshuffles
        switches owned by the survivors."""
        dpids = list(range(1, 21))
        full = assign_masters([0, 1, 2], dpids, seed=5)
        without_2 = assign_masters([0, 1], dpids, seed=5)
        for dpid, owner in full.items():
            if owner != 2:
                assert without_2[dpid] == owner

    def test_seed_changes_assignment(self):
        dpids = list(range(1, 33))
        assert assign_masters([0, 1, 2], dpids, seed=0) != \
            assign_masters([0, 1, 2], dpids, seed=1)

    def test_leader_stable_and_member(self):
        assert elect_leader([0, 1, 2], seed=4) == \
            elect_leader([2, 1, 0], seed=4)
        assert elect_leader([0, 1, 2], seed=4) in (0, 1, 2)

    def test_scores_distinct_per_member(self):
        scores = {rendezvous_score(0, m, 7) for m in range(16)}
        assert len(scores) == 16


# ----------------------------------------------------------------------
# East-west bus
# ----------------------------------------------------------------------
class _Member:
    def __init__(self, node_id):
        self.node_id = node_id
        self.changes = 0
        self.syncs = 0

    def on_membership_sync(self):
        self.syncs += 1

    def on_membership_change(self):
        self.changes += 1


def bus_of(n=3, detect_delay=0.05):
    sim = Simulator()
    bus = EastWestBus(sim, detect_delay=detect_delay)
    members = [_Member(i) for i in range(n)]
    for member in members:
        bus.register(member)
    return sim, bus, members


class TestBus:
    def test_crash_notifies_after_detect_delay(self):
        sim, bus, members = bus_of()
        bus.crash(2)
        assert members[0].changes == 0
        sim.run(0.1)
        assert members[0].changes == 1
        assert 2 not in bus.alive

    def test_sync_runs_before_change_on_every_node(self):
        sim, bus, members = bus_of()
        bus.crash(1)
        sim.run(0.1)
        for m in (members[0], members[2]):
            assert m.syncs == 1 and m.changes == 1

    def test_coalesced_churn_notifies_once(self):
        sim, bus, members = bus_of()
        bus.crash(1)
        bus.restart(1)
        bus.crash(2)
        sim.run(0.2)
        # Three bumps, but only the final epoch's notification runs.
        assert members[0].changes == 1

    def test_quorum_majority(self):
        sim, bus, _ = bus_of(3)
        bus.partition([[0, 1], [2]])
        sim.run(0.1)
        assert bus.has_quorum(0) and bus.has_quorum(1)
        assert not bus.has_quorum(2)

    def test_exact_half_tie_goes_to_min_id_side(self):
        sim, bus, _ = bus_of(4)
        bus.partition([[0, 3], [1, 2]])
        sim.run(0.1)
        assert bus.has_quorum(0) and bus.has_quorum(3)
        assert not bus.has_quorum(1) and not bus.has_quorum(2)

    def test_crashed_node_leaves_denominator(self):
        """Quorum doctrine: a *crash* is detected as a crash, so the
        two survivors of a 3-node cluster still hold quorum even when
        they subsequently split 1|1 (tie to min id)."""
        sim, bus, _ = bus_of(3)
        bus.crash(2)
        sim.run(0.1)
        assert bus.has_quorum(0) and bus.has_quorum(1)
        bus.partition([[0], [1]])
        sim.run(0.1)
        assert bus.has_quorum(0)
        assert not bus.has_quorum(1)

    def test_send_respects_partition(self):
        sim, bus, members = bus_of(3)

        received = []
        members[2].on_ew_message = (
            lambda src, kind, payload: received.append((src, kind))
        )
        bus.partition([[0], [1, 2]])
        sim.run(0.1)
        assert not bus.send(0, 2, "ping", None)
        assert bus.send(1, 2, "ping", None)
        assert received == [(1, "ping")]
        bus.heal()
        sim.run(0.1)
        assert bus.send(0, 2, "ping", None)


# ----------------------------------------------------------------------
# Switch-side role semantics
# ----------------------------------------------------------------------
class TestRoles:
    def test_one_primary_agent_per_switch(self):
        platform = ring_cluster()
        for name in platform.net.switches:
            primaries = [
                a for a in platform.net.agents_of(name)
                if a.controller_role == ControllerRole.PRIMARY
            ]
            assert len(primaries) == 1, name

    def test_masters_hold_primary_slaves_secondary(self):
        platform = ring_cluster()
        for name, dp in platform.net.switches.items():
            master = platform.cluster.master_of(dp.dpid)
            agents = platform.net.agents_of(name)
            for node_id, agent in enumerate(agents):
                expect = (ControllerRole.PRIMARY if node_id == master
                          else ControllerRole.SECONDARY)
                assert agent.controller_role == expect

    def test_slave_mutations_refused(self):
        from repro.dataplane import Match, Output
        from repro.southbound import Error, FlowMod

        platform = ring_cluster()
        dp = platform.net.switch("s1")
        master = platform.cluster.master_of(dp.dpid)
        slave = next(n for n in range(3) if n != master)
        node = platform.cluster.node(slave)
        handle = node.handles[dp.dpid]
        errors = []
        node.subscribe_errors = None  # not an API; capture via channel
        channel = platform.net.channel(f"s1#{slave}")
        previous = channel.controller_end.handler

        def tap(msg):
            if isinstance(msg, Error):
                errors.append(msg)
            previous(msg)

        channel.controller_end.handler = tap
        flows_before = sum(len(t) for t in dp.tables)
        handle.send(FlowMod(
            match=Match(eth_type=0x0800), actions=[Output(1)],
            priority=7,
        ))
        platform.run(0.1)
        assert sum(len(t) for t in dp.tables) == flows_before
        assert any(e.code == Error.BAD_ROLE for e in errors)

    def test_slave_gets_no_packet_in(self):
        platform = ring_cluster(profile="reactive")
        platform.ping_all(count=1, settle=5.0)
        from repro.apps.learning_switch import LearningSwitch

        for node in platform.cluster.controllers:
            learning = node.get_app(LearningSwitch)
            # A node's MAC tables only ever cover switches it mastered.
            for dpid in learning.mac_tables:
                assert platform.cluster.master_of(dpid) == node.node_id


# ----------------------------------------------------------------------
# Handover on crash / restart
# ----------------------------------------------------------------------
class TestHandover:
    def test_crash_reassigns_all_owned_switches(self):
        platform = ring_cluster()
        cluster = platform.cluster
        victim = cluster.master_of(1)
        owned = set(cluster.node(victim).switches)
        cluster.crash_node(victim)
        platform.run(1.0)
        masters = cluster.masters()
        for dpid in owned:
            assert masters[dpid] and masters[dpid][0] != victim
        assert {r.dpid for r in cluster.handover_log} == owned

    def test_handover_bumps_terms(self):
        platform = ring_cluster()
        cluster = platform.cluster
        victim = cluster.master_of(1)
        cluster.crash_node(victim)
        platform.run(1.0)
        for record in cluster.handover_log:
            assert record.term >= 2
            survivor = cluster.node(record.new_node)
            assert survivor.terms[record.dpid] == record.term

    def test_failover_completion_hook_measures_detect_delay(self):
        platform = ring_cluster(detect_delay=0.2)
        cluster = platform.cluster
        done = []
        cluster.on_failover_complete.append(
            lambda node_id, elapsed: done.append((node_id, elapsed))
        )
        victim = cluster.master_of(1)
        cluster.crash_node(victim)
        platform.run(1.0)
        assert len(done) == 1
        node_id, elapsed = done[0]
        assert node_id == victim
        assert elapsed == pytest.approx(0.2, abs=1e-6)

    def test_dataplane_survives_crash(self):
        platform = ring_cluster()
        victim = platform.cluster.master_of(1)
        platform.cluster.crash_node(victim)
        platform.run(1.0)
        assert platform.ping_all(count=1, settle=8.0) == 1.0
        assert not check_cluster(platform.cluster, platform.net)

    def test_restart_rejoins_and_rebalances(self):
        platform = ring_cluster()
        cluster = platform.cluster
        before = {d: m[0] for d, m in cluster.masters().items()}
        victim = cluster.master_of(1)
        cluster.crash_node(victim)
        platform.run(1.0)
        cluster.restart_node(victim)
        platform.run(1.0)
        # Same member set again => rendezvous lands the same way.
        after = {d: m[0] for d, m in cluster.masters().items()}
        assert after == before
        assert platform.ping_all(count=1, settle=8.0) == 1.0
        assert not check_cluster(platform.cluster, platform.net)

    def test_restarted_node_resyncs_ledger_before_adopting(self):
        platform = ring_cluster()
        cluster = platform.cluster
        platform.ping_all(count=1, settle=8.0)  # populate intents
        victim = cluster.master_of(1)
        reference = {
            dpid: dict(cluster.node(victim)._ledger.get(dpid, {}))
            for dpid in cluster.dpids
        }
        cluster.crash_node(victim)
        platform.run(1.0)
        assert cluster.node(victim)._ledger == {}  # wiped
        cluster.restart_node(victim)
        platform.run(1.0)
        rejoined = cluster.node(victim)._ledger
        for dpid, flows in reference.items():
            assert set(rejoined.get(dpid, {})) == set(flows), dpid

    def test_wipe_forgets_the_topology_view_until_lldp_relearns(self):
        from repro.controller import TopologyDiscovery

        platform = ring_cluster()
        cluster = platform.cluster
        node = cluster.node(cluster.master_of(4))
        discovery = node.get_app(TopologyDiscovery)
        handle = node.switches[4]
        up_ports = {p.number for p in handle.ports.values() if p.up}
        settled = discovery.flood_ports(4)
        assert discovery.graph().number_of_edges() == 4
        assert settled < up_ports  # s3--s4 closes the ring: off the tree
        # What a crash forgets, with the switch set left as it was: the
        # view must go with the links, not linger until a switch moves.
        for hook in node.wipe_hooks:
            hook()
        assert discovery.link_count == 0
        assert discovery.graph().number_of_edges() == 0
        assert discovery.flood_ports(4) == up_ports  # all edge, no tree yet
        platform.run(2 * discovery.probe_interval)
        assert discovery.graph().number_of_edges() == 4
        assert discovery.flood_ports(4) == settled
        # The real thing wipes the switch set too.
        cluster.crash_node(node.node_id)
        assert discovery.graph().number_of_nodes() == 0
        assert discovery.flood_ports(4) == set()

    def test_all_but_one_crash_single_survivor_owns_fabric(self):
        platform = ring_cluster()
        cluster = platform.cluster
        cluster.crash_node(1)
        platform.run(0.5)
        cluster.crash_node(2)
        platform.run(0.5)
        masters = cluster.masters()
        assert all(m == [0] for m in masters.values())
        assert platform.ping_all(count=1, settle=8.0) == 1.0


# ----------------------------------------------------------------------
# Partitions
# ----------------------------------------------------------------------
class TestPartition:
    def test_minority_self_demotes(self):
        platform = ring_cluster()
        cluster = platform.cluster
        cluster.partition([[0], [1, 2]])
        platform.run(0.5)
        assert cluster.node(0).switches == {}
        for dpid, claimants in cluster.masters().items():
            assert claimants and set(claimants) <= {1, 2}

    def test_no_dual_master_during_partition(self):
        platform = ring_cluster()
        cluster = platform.cluster
        cluster.partition([[0], [1, 2]])
        platform.run(0.5)
        assert not check_cluster(cluster, platform.net)

    def test_heal_restores_assignment_and_converges(self):
        platform = ring_cluster()
        cluster = platform.cluster
        before = {d: m[0] for d, m in cluster.masters().items()}
        cluster.partition([[0], [1, 2]])
        platform.run(0.5)
        platform.ping_all(count=1, settle=8.0)  # write under partition
        cluster.heal()
        platform.run(1.0)
        after = {d: m[0] for d, m in cluster.masters().items()}
        assert after == before
        assert not check_cluster(cluster, platform.net)

    def test_stale_master_fenced_by_term(self):
        platform = ring_cluster()
        cluster = platform.cluster
        dpid = 1
        old = cluster.master_of(dpid)
        cluster.partition([[old], [n for n in range(3) if n != old]])
        platform.run(0.5)
        new = cluster.master_of(dpid)
        assert new != old
        # The majority's adoption bumped the switch-side generation, so
        # the stale master's connection was demoted out from under it.
        name = next(n for n, dp in platform.net.switches.items()
                    if dp.dpid == dpid)
        stale_agent = platform.net.agents_of(name)[old]
        assert stale_agent.controller_role != ControllerRole.PRIMARY


# ----------------------------------------------------------------------
# Cluster invariant checker
# ----------------------------------------------------------------------
class TestCheckCluster:
    def test_clean_cluster_reports_no_violations(self):
        platform = ring_cluster()
        assert check_cluster(platform.cluster, platform.net) == []

    def test_detects_forged_dual_master(self):
        platform = ring_cluster()
        cluster = platform.cluster
        dpid = 1
        master = cluster.master_of(dpid)
        thief = next(n for n in range(3) if n != master)
        node = cluster.node(thief)
        node.switches[dpid] = node.handles[dpid]
        violations = check_cluster(cluster, platform.net)
        assert any(v.kind == "dual_master" for v in violations)

    def test_detects_orphaned_switch(self):
        platform = ring_cluster()
        cluster = platform.cluster
        dpid = 1
        master = cluster.master_of(dpid)
        cluster.node(master).switches.pop(dpid)
        violations = check_cluster(cluster, platform.net)
        assert any(v.kind == "orphaned_switch" for v in violations)

    def test_detects_ledger_divergence(self):
        platform = ring_cluster()
        platform.ping_all(count=1, settle=8.0)
        cluster = platform.cluster
        node = cluster.node(0)
        dpid = next(d for d in cluster.dpids if node._ledger.get(d))
        node._ledger[dpid].popitem()
        violations = check_cluster(cluster, platform.net)
        assert any(v.kind == "ledger_divergence" for v in violations)


# ----------------------------------------------------------------------
# FaultSchedule controller kinds
# ----------------------------------------------------------------------
class TestClusterFaults:
    def test_controller_kinds_require_attached_cluster(self):
        platform = ring_cluster()
        schedule = FaultSchedule(platform.net)
        with pytest.raises(TopologyError):
            schedule.controller_crash(platform.sim.now + 1.0, 0)

    def test_scripted_crash_hands_over_and_checks_clean(self):
        platform = ring_cluster()
        cluster = platform.cluster
        victim = cluster.master_of(1)
        schedule = FaultSchedule(platform.net).attach_cluster(cluster)
        schedule.controller_crash(platform.sim.now + 0.5, victim,
                                  restart_after=1.0)
        platform.run(3.0)
        kinds = [e.kind for e in schedule.log]
        assert kinds == ["controller_crash", "controller_restart"]
        assert cluster.handover_complete()
        assert cluster.handover_log
        assert not check_cluster(cluster, platform.net)
        assert platform.ping_all(count=1, settle=8.0) == 1.0

    def test_scripted_partition_heals_clean(self):
        platform = ring_cluster()
        cluster = platform.cluster
        schedule = FaultSchedule(platform.net).attach_cluster(cluster)
        schedule.controller_partition(platform.sim.now + 0.5,
                                      [[0], [1, 2]], heal_after=1.0)
        platform.run(3.0)
        kinds = [e.kind for e in schedule.log]
        assert kinds == ["controller_partition", "controller_heal"]
        assert not check_cluster(cluster, platform.net)
        assert platform.ping_all(count=1, settle=8.0) == 1.0

    def test_switch_crash_takes_down_every_instance_agent(self):
        platform = ring_cluster()
        schedule = FaultSchedule(platform.net)
        schedule.switch_crash(platform.sim.now + 0.2, "s1",
                              restart_after=0.5)
        platform.run(0.4)
        assert all(not a.channel.connected
                   for a in platform.net.agents_of("s1"))
        platform.run(2.0)
        assert all(a.channel.connected
                   for a in platform.net.agents_of("s1"))
        assert platform.ping_all(count=1, settle=8.0) == 1.0


# ----------------------------------------------------------------------
# Obs wiring: handover SLO
# ----------------------------------------------------------------------
class TestClusterObs:
    def test_handover_slo_measures_crash_to_adoption(self):
        from repro.obs import ObsPlane, handover_slo
        from repro.telemetry import Telemetry

        platform = ZenPlatform(Topology.ring(4, hosts_per_switch=1),
                               controllers=3, seed=7,
                               telemetry=Telemetry())
        platform.start()
        cluster = platform.cluster
        slo = handover_slo(threshold=0.5)
        plane = ObsPlane(platform, interval=0.05, slos=[slo])
        plane.watch_cluster(cluster)
        schedule = platform.fault_schedule()
        plane.watch_faults(schedule)
        victim = cluster.master_of(1)
        schedule.controller_crash(platform.sim.now + 0.5, victim)
        platform.run(2.0)
        plane.finish()
        assert len(slo.measurements) == 1
        label, _, elapsed = slo.measurements[0]
        assert label == f"controller-{victim}"
        assert 0.0 < elapsed <= 0.5

    def test_handover_annotations_cover_moved_switches(self):
        from repro.obs import ObsPlane
        from repro.telemetry import Telemetry

        platform = ZenPlatform(Topology.ring(4, hosts_per_switch=1),
                               controllers=3, seed=7,
                               telemetry=Telemetry())
        platform.start()
        cluster = platform.cluster
        plane = ObsPlane(platform, interval=0.05)
        plane.watch_cluster(cluster)
        victim = cluster.master_of(1)
        owned = set(cluster.node(victim).switches)
        cluster.crash_node(victim)
        platform.run(1.0)
        labels = {a.label for a in plane.scraper.annotations
                  if a.kind == "handover"}
        assert labels == {f"dpid-{d}" for d in owned}


# ----------------------------------------------------------------------
# Platform surface
# ----------------------------------------------------------------------
class TestClusteredPlatform:
    def test_size_one_matches_single_controller_semantics(self):
        platform = ring_cluster(controllers=1)
        assert platform.cluster.size == 1
        assert platform.cluster.leader == 0
        assert platform.ping_all(count=1, settle=8.0) == 1.0

    def test_rejects_bad_profile_and_size(self):
        from repro.errors import ControllerError

        with pytest.raises(ControllerError):
            ZenPlatform(Topology.ring(3), controllers=3, profile="nope")
        with pytest.raises(ValueError):
            ZenPlatform(Topology.ring(3), controllers=0)

    def test_digest_excludes_control_plane(self):
        """Same workload, different cluster size: the dataplane digest
        must agree even though control-message counts differ."""
        digests = []
        overhead = []
        for n in (1, 3):
            platform = ring_cluster(controllers=n, seed=3)
            platform.ping_all(count=1, settle=8.0)
            digests.append(dataplane_digest(platform.net))
            overhead.append(platform.total_control_messages())
        assert digests[0] == digests[1]
        assert overhead[1] > overhead[0]

    def test_channel_lookup_falls_back_to_instance_zero(self):
        platform = ring_cluster()
        assert platform.net.channel("s1") is platform.net.channel("s1#0")
        assert platform.net.agent("s1") is platform.net.agents_of("s1")[0]
