"""E15 — Controller cluster: recovery time and throughput vs size.

Question: what does a controller crash cost the network, and how does
that cost change with cluster size?

Workload: a 6-switch ring under full-mesh pings, driven by a clustered
ZenPlatform at ``controllers`` in {1, 2, 3}.  In every run the master of the first
switch is crashed; with one controller the network must wait out a
scripted restart (``RESTART_AFTER``) before the rebooted instance
re-adopts and resyncs its switches, while with two or three the
surviving instances detect the death and take mastership of the
orphaned switches themselves.  Recovery is the cluster's own
``on_failover_complete`` measurement: crash time to the instant the
last orphaned switch has a new master (sim time, machine-independent).

Contracts (the regression gate re-checks these from BENCH_E15.json):

* every run delivers 100% before the crash and again after recovery,
  and the cluster invariants check clean at the end;
* a 2- or 3-controller cluster recovers within ``RECOVERY_SLO`` sim
  seconds — the same threshold the obs plane's handover SLO pages on;
* recovery never degrades as the cluster grows: failover beats the
  single-controller restart, and adding a third instance costs nothing
  over the second.
"""

import time

import pytest

from repro.analysis import Table
from repro.check import check_cluster
from repro.core import ZenPlatform
from repro.netem import Topology

from harness import publish, publish_json

SIZES = (1, 2, 3)
RESTART_AFTER = 0.4    # scripted restart delay for the 1-controller run
RECOVERY_SLO = 0.5     # sim-seconds; mirrors obs.handover_slo(0.5)


def drive(controllers: int) -> dict:
    start = time.perf_counter()
    platform = ZenPlatform(Topology.ring(6, hosts_per_switch=1),
                           controllers=controllers,
                           profile="proactive", seed=7)
    platform.start()
    before = platform.ping_all(count=2, settle=5.0)

    cluster = platform.cluster
    recoveries = []
    cluster.on_failover_complete.append(
        lambda node, elapsed: recoveries.append(elapsed)
    )
    victim_dpid = platform.net.switches[
        sorted(platform.net.switches)[0]
    ].dpid
    victim = cluster.master_of(victim_dpid)
    orphaned = len(cluster.node(victim).switches)
    cluster.crash_node(victim)
    if controllers == 1:
        # No survivors: recovery is restart + re-adoption + resync.
        platform.sim.schedule(
            RESTART_AFTER, lambda: cluster.restart_node(victim)
        )
    platform.run(2.0)
    assert cluster.handover_complete()
    handovers = len(cluster.handover_log)
    if controllers > 1:
        # Restore full strength so the post-crash measurement compares
        # like with like (a rebalanced N-instance cluster).
        cluster.restart_node(victim)
        platform.run(1.0)

    after = platform.ping_all(count=2, settle=5.0)
    violations = check_cluster(cluster, platform.net)
    wall = time.perf_counter() - start
    msgs = platform.total_control_messages()
    return {
        "controllers": controllers,
        "victim": victim,
        "orphaned": orphaned,
        "recovery_s": recoveries[0] if recoveries else None,
        "handovers": handovers,
        "delivery_before": before,
        "delivery_after": after,
        "violations": [v.to_dict() for v in violations],
        "wall_s": wall,
        "control_msgs": msgs,
        "msgs_per_s": msgs / wall,
    }


def run_experiment():
    runs = {n: drive(n) for n in SIZES}
    table = Table(
        "E15 — controller cluster: crash recovery vs size, ring(6)",
        ["controllers", "recovery_s", "handovers", "delivery",
         "ctrl msgs", "wall_s"],
    )
    for n, row in runs.items():
        table.add_row(
            n, f"{row['recovery_s']:.3f}", row["handovers"],
            f"{row['delivery_before']:.0%}/{row['delivery_after']:.0%}",
            row["control_msgs"], f"{row['wall_s']:.2f}",
        )
    return table, runs


@pytest.fixture(scope="module")
def results():
    return run_experiment()


def test_e15_cluster(results, benchmark):
    table, runs = results
    publish("e15_cluster", table)
    clean = all(not r["violations"] for r in runs.values())
    delivered = all(
        r["delivery_before"] == 1.0 and r["delivery_after"] == 1.0
        for r in runs.values()
    )
    publish_json("E15", {
        "clean": clean,
        "delivered": delivered,
        "recovery_s": {str(n): runs[n]["recovery_s"] for n in SIZES},
        "handovers": {str(n): runs[n]["handovers"] for n in SIZES},
        "delivery": {
            str(n): {"before": runs[n]["delivery_before"],
                     "after": runs[n]["delivery_after"]}
            for n in SIZES
        },
        "control_msgs": {str(n): runs[n]["control_msgs"] for n in SIZES},
        "msgs_per_s": {str(n): runs[n]["msgs_per_s"] for n in SIZES},
        "wall_s": {str(n): runs[n]["wall_s"] for n in SIZES},
        "recovery_slo_s": RECOVERY_SLO,
        "restart_after_s": RESTART_AFTER,
    })
    benchmark.pedantic(lambda: drive(3), rounds=1, iterations=1)
    assert clean, [r["violations"] for r in runs.values()]
    assert delivered
    for n in SIZES:
        assert runs[n]["recovery_s"] is not None
        assert runs[n]["handovers"] >= runs[n]["orphaned"]
    # Failover must beat the scripted restart, and growing the cluster
    # must not slow recovery down.
    solo = runs[1]["recovery_s"]
    assert solo >= RESTART_AFTER
    for n in (2, 3):
        assert runs[n]["recovery_s"] <= RECOVERY_SLO, (
            f"controllers={n} recovered in {runs[n]['recovery_s']:.3f}s, "
            f"over the {RECOVERY_SLO}s SLO"
        )
        assert runs[n]["recovery_s"] < solo
