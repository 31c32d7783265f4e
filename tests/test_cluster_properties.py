"""Property tests for election and mastership safety (hypothesis).

Three properties the cluster design hangs on:

* the mastership assignment is a *pure function* of (member set, seed)
  — order of membership, history, and churn path are irrelevant;
* any crash/restart sequence that ends at the same member set ends at
  the same assignment (path independence on a live cluster);
* across any interleaving of controller crashes, restarts, partitions,
  and heals, no two mutually-reachable instances ever claim the same
  switch, and no datapath ever holds two PRIMARY connections.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.check import check_cluster
from repro.cluster import assign_masters, elect_leader
from repro.core import ZenPlatform
from repro.netem import Topology

MEMBERS = st.sets(st.integers(min_value=0, max_value=9),
                  min_size=1, max_size=6)
DPIDS = st.sets(st.integers(min_value=1, max_value=40),
                min_size=1, max_size=12)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


# ----------------------------------------------------------------------
# Pure-function properties of the election itself
# ----------------------------------------------------------------------
class TestElectionProperties:
    @given(members=MEMBERS, dpids=DPIDS, seed=SEEDS)
    @settings(max_examples=200, deadline=None)
    def test_assignment_pure_function_of_member_set_and_seed(
            self, members, dpids, seed):
        ordered = sorted(members)
        shuffled = list(reversed(ordered))
        assert assign_masters(ordered, sorted(dpids), seed) == \
            assign_masters(shuffled, sorted(dpids), seed)

    @given(members=MEMBERS, dpids=DPIDS, seed=SEEDS)
    @settings(max_examples=200, deadline=None)
    def test_assignment_total_and_closed(self, members, dpids, seed):
        got = assign_masters(members, dpids, seed)
        assert set(got) == set(dpids)
        assert set(got.values()) <= set(members)

    @given(members=st.sets(st.integers(0, 9), min_size=2, max_size=6),
           dpids=DPIDS, seed=SEEDS)
    @settings(max_examples=200, deadline=None)
    def test_removal_never_moves_survivors_switches(
            self, members, dpids, seed):
        full = assign_masters(members, dpids, seed)
        gone = sorted(members)[-1]
        shrunk = assign_masters(members - {gone}, dpids, seed)
        for dpid, owner in full.items():
            if owner != gone:
                assert shrunk[dpid] == owner

    @given(members=MEMBERS, seed=SEEDS)
    @settings(max_examples=200, deadline=None)
    def test_leader_is_a_member_and_order_free(self, members, seed):
        leader = elect_leader(members, seed)
        assert leader in members
        assert elect_leader(sorted(members, reverse=True), seed) == leader


# ----------------------------------------------------------------------
# Live-cluster path independence
# ----------------------------------------------------------------------
def _cluster(seed=7):
    platform = ZenPlatform(Topology.ring(4, hosts_per_switch=1),
                           controllers=3, seed=seed)
    platform.start()
    return platform


# Each op is (node, crash_then_restart_delay); applying them in any
# order with arbitrary settling returns to the full member set.
CHURN = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),
              st.floats(min_value=0.1, max_value=0.6)),
    min_size=1, max_size=3,
)


class TestPathIndependence:
    @given(ops=CHURN)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_member_set_reaches_same_assignment(self, ops):
        platform = _cluster()
        cluster = platform.cluster
        baseline = {d: m[0] for d, m in cluster.masters().items()}
        for node, delay in ops:
            cluster.crash_node(node)
            platform.run(delay)
            cluster.restart_node(node)
            platform.run(delay)
        platform.run(1.0)
        final = {d: m[0] for d, m in cluster.masters().items()}
        assert final == baseline
        assert not check_cluster(cluster, platform.net)


# One fault-plane step: crash/restart a node, or partition/heal the
# bus, then advance sim time by an arbitrary (possibly sub-detection)
# amount so notifications interleave every possible way.
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["crash", "restart", "partition", "heal"]),
        st.integers(min_value=0, max_value=2),
        st.floats(min_value=0.0, max_value=0.3),
    ),
    min_size=1, max_size=6,
)


class TestNoDualMaster:
    @given(steps=STEPS)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_no_two_masters_across_any_interleaving(self, steps):
        platform = _cluster()
        cluster = platform.cluster

        def assert_single_master():
            bad = [v for v in check_cluster(cluster, platform.net)
                   if v.invariant == "single-master"]
            assert not bad, bad

        for op, node, dt in steps:
            if op == "crash":
                cluster.crash_node(node)
            elif op == "restart":
                cluster.restart_node(node)
            elif op == "partition":
                rest = [n for n in range(3) if n != node]
                cluster.partition([[node], rest])
            else:
                cluster.heal()
            assert_single_master()
            if dt:
                platform.run(dt)
            assert_single_master()

        # Recover everything and require full convergence, not just
        # safety: heal, restart the dead, settle past detection.
        cluster.heal()
        for node in range(3):
            cluster.restart_node(node)
        platform.run(1.0)
        assert not check_cluster(cluster, platform.net)
