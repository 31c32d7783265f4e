"""The differential oracle: cluster size must be dataplane-invisible.

With zero faults, a seeded workload driven through ``controllers=N``
must leave the *dataplane* — every flow table, every datapath counter,
every host tx/rx — bit-identical to the ``controllers=1`` oracle run.
The control plane is allowed to differ (N instances exchange more
control messages programming the very same switches); the digest
deliberately excludes it.

This is the strongest statement the cluster design can make: mastership
partitioning, role gating, and east-west replication compose into a
system observationally equivalent to one controller, and any divergence
(a slave acting on a punt, a jittered probe drawing shared randomness,
replication echo installing a duplicate flow) breaks it loudly.
"""

import pytest

from repro.core import ZenPlatform, dataplane_digest
from repro.netem import Topology


def drive(topology, controllers, profile, seed, workload_seed=99):
    """One seeded run; returns (dataplane digest, delivery ratio)."""
    import random

    platform = ZenPlatform(topology, controllers=controllers,
                           profile=profile, seed=seed)
    platform.start()
    delivery = platform.ping_all(count=2, settle=5.0)
    # A seeded unicast mix on top of the full mesh: same streams for
    # every cluster size by construction.
    rng = random.Random(workload_seed)
    hosts = [platform.net.hosts[n] for n in sorted(platform.net.hosts)]
    for _ in range(12):
        src, dst = rng.sample(hosts, 2)
        delay = round(rng.uniform(0.05, 1.0), 3)
        platform.sim.schedule(
            delay,
            lambda s=src, d=dst: s.send_udp(d.ip, 7001, 7001, b"diff"),
        )
    platform.run(3.0)
    return dataplane_digest(platform.net), delivery


CASES = [
    ("ring", 5, "proactive", 7),
    ("fat_tree", 2, "proactive", 11),
    ("star", 4, "reactive", 3),
]


def build(kind, size):
    if kind == "fat_tree":
        return Topology.fat_tree(size)
    if kind == "star":
        return Topology.star(size, hosts_per_leaf=1)
    return Topology.ring(size, hosts_per_switch=1)


class TestDifferentialOracle:
    @pytest.mark.parametrize("kind,size,profile,seed", CASES)
    def test_cluster_matches_single_controller_oracle(
            self, kind, size, profile, seed):
        oracle, delivered = drive(build(kind, size), 1, profile, seed)
        assert delivered == 1.0
        for n in (2, 3):
            digest, delivery = drive(build(kind, size), n, profile, seed)
            assert delivery == 1.0
            assert digest == oracle, (
                f"controllers={n} diverged from the oracle on "
                f"{kind}({size})/{profile}"
            )

    def test_oracle_is_reproducible(self):
        a = drive(build("ring", 5, ), 3, "proactive", 7)
        b = drive(build("ring", 5), 3, "proactive", 7)
        assert a == b

    def test_digest_sensitive_to_dataplane_state(self):
        """Sanity: the digest is not vacuous — different workloads
        produce different digests."""
        a, _ = drive(build("ring", 5), 1, "proactive", 7, workload_seed=1)
        b, _ = drive(build("ring", 5), 1, "proactive", 7, workload_seed=2)
        assert a != b
