"""repro.cluster — the distributed controller control plane.

N controller instances share one fabric: rendezvous-hashed mastership
(:mod:`~repro.cluster.election`), an in-kernel east-west replication
bus with quorum-based failure handling (:mod:`~repro.cluster.bus`),
and cluster-aware controller instances with term-fenced MASTER/SLAVE
roles and handover (:mod:`~repro.cluster.node`).  Assembly is
``ZenPlatform(topology, controllers=N)`` in :mod:`repro.core.platform`.
"""

from repro.cluster.bus import EastWestBus
from repro.cluster.election import (
    assign_masters,
    elect_leader,
    rendezvous_score,
)
from repro.cluster.node import (
    ClusterController,
    ControllerCluster,
    HandoverRecord,
)

__all__ = [
    "EastWestBus",
    "assign_masters",
    "elect_leader",
    "rendezvous_score",
    "ClusterController",
    "ControllerCluster",
    "HandoverRecord",
]
