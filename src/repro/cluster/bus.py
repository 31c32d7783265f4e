"""The simulated east-west channel between controller instances.

Controller instances replicate state (intent ledger, topology view,
host locations, mastership terms) over this bus.  It is deliberately an
*in-kernel* abstraction rather than a modelled TCP mesh: east-west
traffic in ONOS-style clusters rides a datacenter fabric whose latency
is orders of magnitude below the probe intervals and fault timescales
this platform measures, so replication is delivered synchronously and
only *failure detection* takes simulated time (:data:`DETECT_DELAY`).

Failure-model doctrine (documented because the quorum math depends on
it):

* **Crashes are detected as crashes.**  A crashed member is removed
  from every survivor's quorum denominator after :data:`DETECT_DELAY` —
  the perfect-failure-detector assumption, as if an out-of-band
  management network reported the process death.
* **Partitions are detected as unreachability.**  A partitioned peer
  stays in the denominator (it is alive and may be mastering switches
  on the far side), so a minority side computes *no quorum* and
  self-demotes instead of split-braining.
* Ties on an exact half go to the side holding the lowest alive
  member id, so even-sized clusters still converge deterministically.

Everything here is deterministic: no RNG, membership notifications are
plain kernel events, and peers are always iterated in sorted-id order.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional

__all__ = ["EastWestBus", "DETECT_DELAY"]

#: Seconds between a membership event and survivors noticing, read
#: when a bus is built.
DETECT_DELAY = 0.05


class EastWestBus:
    """Synchronous replication + failure detection between nodes.

    Registered nodes must expose ``node_id``, ``on_ew_message(src,
    kind, payload)`` and ``on_membership_change()``.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.detect_delay = DETECT_DELAY
        self.nodes: Dict[int, object] = {}
        #: Members whose process is up (crash removes, restart re-adds).
        self.alive: set = set()
        #: ``None`` = full mesh; else disjoint member groups.
        self._groups: Optional[List[FrozenSet[int]]] = None
        #: Bumped on every membership event; fences stale notifications.
        self.epoch = 0
        self.messages_sent = 0
        self.broadcasts_sent = 0
        #: Called with the epoch when a membership notification fires —
        #: the failure-*detection* instant, ``detect_delay`` after the
        #: membership event itself.  The trace plane hangs the handover
        #: chain's ``bus.death_detect`` span here; hooks must be pure
        #: (no events, no RNG).
        self.on_notify: Optional[Callable[[int], None]] = None

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, node) -> None:
        self.nodes[node.node_id] = node
        self.alive.add(node.node_id)

    def crash(self, node_id: int) -> None:
        """Member process dies; survivors notice after ``detect_delay``."""
        if node_id not in self.alive:
            return
        self.alive.discard(node_id)
        self._bump()

    def restart(self, node_id: int) -> None:
        """Member process comes back (empty); peers re-admit it."""
        if node_id in self.alive or node_id not in self.nodes:
            return
        self.alive.add(node_id)
        self._bump()

    def partition(self, groups: Iterable[Iterable[int]]) -> None:
        """Split the east-west mesh into isolated member groups."""
        self._groups = [frozenset(g) for g in groups]
        self._bump()

    def heal(self) -> None:
        """Restore the full east-west mesh."""
        self._groups = None
        self._bump()

    @property
    def partitioned(self) -> bool:
        return self._groups is not None

    def _bump(self) -> None:
        self.epoch += 1
        self.sim.schedule(self.detect_delay, self._notify, self.epoch)

    def _notify(self, epoch: int) -> None:
        if epoch != self.epoch:
            return  # superseded by a later membership event
        if self.on_notify is not None:
            self.on_notify(epoch)
        alive = sorted(self.alive)
        # Two phases: every node first anti-entropy-syncs with newly
        # visible peers, then every node recomputes mastership — so a
        # rejoining node adopts with merged terms, never stale ones.
        for node_id in alive:
            sync = getattr(self.nodes[node_id], "on_membership_sync", None)
            if sync is not None:
                sync()
        for node_id in alive:
            self.nodes[node_id].on_membership_change()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def component_of(self, node_id: int) -> FrozenSet[int]:
        if self._groups is None:
            return frozenset(self.nodes)
        for group in self._groups:
            if node_id in group:
                return group
        return frozenset((node_id,))

    def reachable(self, src: int, dst: int) -> bool:
        return (src in self.alive and dst in self.alive
                and dst in self.component_of(src))

    def view(self, node_id: int) -> FrozenSet[int]:
        """Members ``node_id`` sees as alive and reachable (incl. self)."""
        if node_id not in self.alive:
            return frozenset()
        return frozenset(
            m for m in self.component_of(node_id) if m in self.alive
        )

    def has_quorum(self, node_id: int) -> bool:
        """Whether ``node_id``'s side may claim mastership.

        Denominator = all alive members (crashed peers drop out by the
        perfect-failure-detector doctrine; partitioned peers do not).
        An exact half only counts when it holds the lowest alive id.
        """
        visible = self.view(node_id)
        if not visible:
            return False
        total = len(self.alive)
        if 2 * len(visible) > total:
            return True
        return (2 * len(visible) == total
                and min(visible) == min(self.alive))

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, kind: str, payload) -> bool:
        """Deliver one message now; False when ``dst`` is unreachable."""
        if not self.reachable(src, dst):
            return False
        self.messages_sent += 1
        self.nodes[dst].on_ew_message(src, kind, payload)
        return True

    def broadcast(self, src: int, kind: str, payload) -> int:
        """Deliver to every reachable peer in id order; returns count."""
        if src not in self.alive:
            return 0
        delivered = 0
        for dst in sorted(self.component_of(src)):
            if dst != src and dst in self.alive:
                self.messages_sent += 1
                self.nodes[dst].on_ew_message(src, kind, payload)
                delivered += 1
        if delivered:
            self.broadcasts_sent += 1
        return delivered

    def __repr__(self) -> str:
        state = "partitioned" if self.partitioned else "meshed"
        return (f"<EastWestBus {len(self.alive)}/{len(self.nodes)} "
                f"alive, {state}, epoch {self.epoch}>")
