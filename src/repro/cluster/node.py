"""Cluster controller instances and the mastership coordinator.

A :class:`ClusterController` is a :class:`~repro.controller.core.Controller`
that shares the fabric with peers.  Every switch connects a channel to
every instance, but each instance *adopts* (masters) only the switches
the rendezvous election assigns to it — the rest it *watches* as a
SLAVE, holding a connected handle but publishing no events to its apps.
Adoption sends ``RoleRequest(PRIMARY, term)``; watching sends
``RoleRequest(SECONDARY, term)``; the per-dpid **term** rides the ZOF
``generation_id`` so the switch-side arbiter fences stale masters.

State is replicated eagerly over the :class:`~repro.cluster.bus.EastWestBus`:

* the intent ledger (records, forgets, and flow-removed prunes),
* the topology view (every local LLDP observation, every removal),
* host locations (discoveries and moves),
* mastership terms (broadcast on every adoption).

so any surviving node can run the PR-2 resync handshake against an
inherited switch using its replica as the source of truth.

:class:`ControllerCluster` owns the shared pieces — the bus, the
election seed, the global dpid list, the handover log — and drives
mastership recomputation when the bus reports membership churn.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set

from repro.cluster.bus import EastWestBus
from repro.cluster.election import assign_masters, elect_leader
from repro.controller.core import Controller, SwitchHandle
from repro.controller.discovery import TopologyDiscovery
from repro.controller.events import SwitchEnter, SwitchLeave
from repro.controller.hosttracker import HostTracker
from repro.southbound.messages import (
    ControllerRole,
    FeaturesReply,
    RoleRequest,
)

__all__ = ["ClusterController", "ControllerCluster", "HandoverRecord"]


class HandoverRecord:
    """One mastership transfer: which switch moved, from whom, to whom."""

    __slots__ = ("time", "dpid", "old_node", "new_node", "term")

    def __init__(self, time: float, dpid: int, old_node: Optional[int],
                 new_node: int, term: int) -> None:
        self.time = time
        self.dpid = dpid
        self.old_node = old_node
        self.new_node = new_node
        self.term = term

    def __repr__(self) -> str:
        return (f"<Handover t={self.time:.3f} dpid={self.dpid} "
                f"{self.old_node}->{self.new_node} term={self.term}>")


class ClusterController(Controller):
    """One controller instance in a cluster.

    ``self.switches`` holds only *mastered* handles — apps, discovery
    probing, and the programming surface therefore see exactly the
    slice of the fabric this node owns.  ``self.handles`` holds every
    connected switch regardless of role.
    """

    def __init__(self, sim, node_id: int, cluster: "ControllerCluster",
                 **kwargs) -> None:
        kwargs.setdefault("name", f"controller-{node_id}")
        super().__init__(sim, **kwargs)
        self.node_id = node_id
        self.cluster = cluster
        #: Every switch with a completed handshake, mastered or not.
        self.handles: Dict[int, SwitchHandle] = {}
        #: Per-dpid mastership term (replicated, max-merged).
        self.terms: Dict[int, int] = {}
        #: This node's view of who masters what ({} without quorum).
        self.assignment: Dict[int, int] = {}
        #: Dpids assigned to us whose handshake has not completed yet.
        self.pending_master: Set[int] = set()
        self.channels: List = []
        self.crashed = False
        self.wipe_hooks: List[Callable[[], None]] = []
        self._applying_remote = False
        self._last_view: FrozenSet[int] = frozenset()

    # ------------------------------------------------------------------
    # Role bookkeeping
    # ------------------------------------------------------------------
    def accept_channel(self, channel) -> None:
        self.channels.append(channel)
        super().accept_channel(channel)

    # ------------------------------------------------------------------
    # Handshake / channel lifecycle overrides
    # ------------------------------------------------------------------
    def _on_features(self, endpoint, reply) -> None:
        if not isinstance(reply, FeaturesReply) or self.crashed:
            return
        handle = SwitchHandle(self, endpoint, reply)
        self.handles[handle.dpid] = handle
        self._endpoint_switch[endpoint] = handle
        if self.assignment.get(handle.dpid) == self.node_id:
            self._adopt(handle, bump=handle.dpid in self.pending_master)
        else:
            self._watch(handle)

    def _on_channel_down(self, endpoint) -> None:
        handle = self._endpoint_switch.pop(endpoint, None)
        if handle is None:
            return
        handle.connected = False
        self.handles.pop(handle.dpid, None)
        if self.crashed:
            return
        if handle.dpid in self.switches:
            # Losing the channel to a mastered switch mirrors the
            # single-controller semantics: remember it for resync and
            # let apps re-path around it.
            self.switches.pop(handle.dpid, None)
            self._stale[handle.dpid] = handle
            self._g_stale.set(len(self._stale))
            self.publish(SwitchLeave(handle.dpid))
        # A watched (slave) switch dropping its channel is silent: our
        # apps never saw it enter, so there is nothing to tear down.

    # ------------------------------------------------------------------
    # Mastership transitions
    # ------------------------------------------------------------------
    def _adopt(self, handle: SwitchHandle, bump: bool,
               previous: Optional[int] = None,
               trace_parent: Optional[int] = None) -> None:
        """Become MASTER of ``handle``; resync when state could differ."""
        dpid = handle.dpid
        if dpid in self.switches:
            return
        self.pending_master.discard(dpid)
        term = self.terms.get(dpid, 0)
        if bump:
            term += 1
            self.terms[dpid] = term
            # Commit the claim cluster-wide before touching the switch,
            # so peers fence themselves even if they race us.
            self.cluster.broadcast_term(self, dpid, term)
        else:
            self.terms.setdefault(dpid, term)
        role_span = None
        tracer = self.cluster.tracer
        trace_tid = self.cluster.trace_ctx_id
        if (bump and trace_parent is not None and tracer is not None
                and trace_tid is not None):
            bump_span = tracer.record(
                trace_tid, "cluster.term_bump", "cluster",
                parent=trace_parent, dpid=dpid, term=term,
                node=self.node_id)
            role_span = tracer.record(
                trace_tid, "cluster.role_grant", "cluster",
                parent=bump_span, dpid=dpid, node=self.node_id)
        stale = self._stale.pop(dpid, None)
        self._g_stale.set(len(self._stale))
        self.switches[dpid] = handle
        handle.send(RoleRequest(ControllerRole.PRIMARY, term))
        self.publish(SwitchEnter(handle))
        if stale is not None:
            self._reconcile_ports(handle, stale)
        if stale is not None or self._ledger.get(dpid):
            # Inherited or reconnected: reconcile the switch's tables
            # against the replicated intent ledger (PR-2 handshake).
            if role_span is not None:
                self._resync_trace[dpid] = (trace_tid, role_span,
                                            self.sim.now)
            self._start_resync(handle)
        for app in self.apps:
            rebuild = getattr(app, "schedule_rebuild", None)
            if rebuild is not None:
                rebuild()
        self.cluster.note_adopted(self, dpid, previous, term,
                                  initial=not bump)

    def _watch(self, handle: SwitchHandle) -> None:
        """Hold ``handle`` as SLAVE: connected, invisible to apps."""
        self._stale.pop(handle.dpid, None)
        self._g_stale.set(len(self._stale))
        handle.send(RoleRequest(ControllerRole.SECONDARY,
                                self.terms.get(handle.dpid, 0)))

    def _demote(self, dpid: int) -> None:
        """Drop mastership without tearing the switch down for apps.

        No SwitchLeave: the switch is healthy and its links stay valid
        (the new master keeps refreshing them); only the ownership
        moved.
        """
        handle = self.switches.pop(dpid, None)
        if handle is None:
            return
        if handle.connected:
            handle.send(RoleRequest(ControllerRole.SECONDARY,
                                    self.terms.get(dpid, 0)))

    # ------------------------------------------------------------------
    # Membership churn (called by the bus, sync phase then apply phase)
    # ------------------------------------------------------------------
    def on_membership_sync(self) -> None:
        """Anti-entropy with peers that just became visible.

        Push our state *and* request theirs: the request covers the
        asymmetric case where only one side noticed the churn — a crash
        + restart inside one detection window coalesces into a single
        epoch, so the survivors never see the rebooted node as newly
        joined and would otherwise never re-seed its wiped state.
        """
        if self.crashed:
            return
        bus = self.cluster.bus
        view = bus.view(self.node_id)
        joined = view - self._last_view
        self._last_view = view
        snapshot = None
        for peer in sorted(joined):
            if peer == self.node_id:
                continue
            if snapshot is None:
                snapshot = self._snapshot()
            bus.send(self.node_id, peer, "state_push", snapshot)
            bus.send(self.node_id, peer, "state_request", None)

    def on_membership_change(self) -> None:
        """Recompute mastership for the current view; adopt and demote."""
        if self.crashed:
            return
        bus = self.cluster.bus
        if bus.has_quorum(self.node_id):
            new_assign = assign_masters(bus.view(self.node_id),
                                        self.cluster.dpids,
                                        self.cluster.seed)
        else:
            # Minority side: release everything rather than split-brain.
            new_assign = {}
        old_assign = self.assignment
        self.assignment = new_assign
        self.pending_master = {
            d for d in self.pending_master
            if new_assign.get(d) == self.node_id
        }
        election_span = self.cluster.trace_election(self.node_id)
        for dpid in self.cluster.dpids:
            old_m = old_assign.get(dpid)
            new_m = new_assign.get(dpid)
            if old_m == new_m:
                continue
            if new_m == self.node_id:
                handle = self.handles.get(dpid)
                if handle is not None and handle.connected:
                    self._adopt(handle, bump=True, previous=old_m,
                                trace_parent=election_span)
                else:
                    self.pending_master.add(dpid)
            elif old_m == self.node_id:
                self._demote(dpid)

    # ------------------------------------------------------------------
    # East-west replication
    # ------------------------------------------------------------------
    def attach_discovery(self, discovery: TopologyDiscovery) -> None:
        """Broadcast every local LLDP observation to the peers."""
        discovery.on_link_seen = self._replicate_link_seen

    def start_replication(self) -> None:
        """Subscribe the replication taps to this node's event bus."""
        from repro.controller.events import (  # local: avoid cycle at import
            HostDiscovered,
            HostMoved,
            LinkVanished,
        )
        self.subscribe(LinkVanished, self._replicate_link_gone,
                       owner="cluster")
        self.subscribe(HostDiscovered, self._replicate_host,
                       owner="cluster")
        self.subscribe(HostMoved, self._replicate_host_moved,
                       owner="cluster")

    def _broadcast(self, kind: str, payload) -> None:
        if self.crashed or self._applying_remote:
            return
        self.cluster.bus.broadcast(self.node_id, kind, payload)

    def _ledger_record(self, dpid, spec) -> None:
        super()._ledger_record(dpid, spec)
        self._broadcast("ledger_record", (dpid, spec))

    def _ledger_forget(self, dpid, match, table_id, priority,
                       strict) -> None:
        super()._ledger_forget(dpid, match, table_id, priority, strict)
        self._broadcast("ledger_forget",
                        (dpid, match, table_id, priority, strict))

    def _on_flow_removed_msg(self, handle, msg) -> None:
        if self.crashed or handle.dpid not in self.switches:
            return  # only the master narrates its switch's expiries
        super()._on_flow_removed_msg(handle, msg)
        self._broadcast("flow_removed",
                        (handle.dpid,
                         (msg.table_id, msg.priority, msg.match)))

    def _enqueue_packet_in(self, handle, msg) -> None:
        # Belt and braces on top of the switch-side SLAVE filter: only
        # the master's apps may react to a switch's punts (covers the
        # EQUAL window between handshake and role application).
        if self.crashed or handle.dpid not in self.switches:
            return
        super()._enqueue_packet_in(handle, msg)

    def _replicate_link_seen(self, link) -> None:
        self._broadcast("link_seen", (link.src_dpid, link.src_port,
                                      link.dst_dpid, link.dst_port))

    def _replicate_link_gone(self, event) -> None:
        self._broadcast("links_gone",
                        [(event.src_dpid, event.src_port)])

    def _replicate_host(self, event) -> None:
        self._broadcast("host_seen",
                        (event.mac, event.ip, event.dpid, event.port))

    def _replicate_host_moved(self, event) -> None:
        tracker = self.get_app(HostTracker)
        entry = tracker.hosts_by_mac.get(event.mac) if tracker else None
        ip = entry.ip if entry is not None else None
        self._broadcast("host_seen",
                        (event.mac, ip, event.dpid, event.port))

    # -- receive side ---------------------------------------------------
    def on_ew_message(self, src: int, kind: str, payload) -> None:
        if self.crashed:
            return
        if kind == "ledger_record":
            dpid, spec = payload
            Controller._ledger_record(self, dpid, dict(spec))
        elif kind == "ledger_forget":
            dpid, match, table_id, priority, strict = payload
            Controller._ledger_forget(self, dpid, match, table_id,
                                      priority, strict)
        elif kind == "flow_removed":
            dpid, key = payload
            flows = self._ledger.get(dpid)
            if flows is not None:
                flows.pop(key, None)
        elif kind == "link_seen":
            discovery = self.get_app(TopologyDiscovery)
            if discovery is not None:
                self._apply_remote(discovery.observe_link, *payload,
                                   local=False)
        elif kind == "links_gone":
            discovery = self.get_app(TopologyDiscovery)
            if discovery is not None:
                self._apply_remote(discovery._remove_links, payload)
        elif kind == "host_seen":
            tracker = self.get_app(HostTracker)
            if tracker is not None:
                mac, ip, dpid, port = payload
                self._apply_remote(tracker._learn, mac, ip, dpid, port)
        elif kind == "term":
            self._on_remote_term(*payload)
        elif kind == "state_push":
            self._merge_snapshot(payload)
        elif kind == "state_request":
            self.cluster.bus.send(self.node_id, src, "state_push",
                                  self._snapshot())

    def _apply_remote(self, fn, *args, **kwargs) -> None:
        self._applying_remote = True
        try:
            fn(*args, **kwargs)
        finally:
            self._applying_remote = False

    def _on_remote_term(self, dpid: int, term: int, master: int) -> None:
        mine = self.terms.get(dpid, 0)
        if term > mine:
            self.terms[dpid] = term
        if master == self.node_id:
            return
        if dpid in self.switches and term > mine:
            # Fenced: a peer claimed this switch with a newer term.
            self._demote(dpid)
            return
        handle = self.handles.get(dpid)
        if (handle is not None and handle.connected
                and dpid not in self.switches):
            # Refresh our SLAVE registration under the new generation.
            handle.send(RoleRequest(ControllerRole.SECONDARY,
                                    self.terms[dpid]))

    # -- anti-entropy snapshots ----------------------------------------
    def _snapshot(self) -> dict:
        discovery = self.get_app(TopologyDiscovery)
        tracker = self.get_app(HostTracker)
        links = []
        if discovery is not None:
            links = sorted(
                (l.src_dpid, l.src_port, l.dst_dpid, l.dst_port)
                for l in discovery.links.values()
            )
        hosts = []
        if tracker is not None:
            hosts = sorted(
                ((e.mac, e.ip, e.dpid, e.port)
                 for e in tracker.hosts_by_mac.values()),
                key=lambda item: str(item[0]),
            )
        return {
            "terms": dict(self.terms),
            "ledger": {
                dpid: {key: dict(spec) for key, spec in flows.items()}
                for dpid, flows in self._ledger.items()
            },
            "masters": sorted(self.switches),
            "links": links,
            "hosts": hosts,
        }

    def _merge_snapshot(self, snapshot: dict) -> None:
        sender_masters = set(snapshot.get("masters", ()))
        for dpid in sorted(snapshot["terms"]):
            term = snapshot["terms"][dpid]
            mine = self.terms.get(dpid, 0)
            # Strictly newer term: the sender's ledger supersedes
            # whatever we froze at.  At an *equal* term, defer to the
            # sender iff it currently masters the switch — term fencing
            # guarantees one claimant per term, so its copy carries any
            # writes we missed while unreachable (a partition that never
            # moved mastership never bumps the term).
            if term > mine or (term == mine
                               and dpid in sender_masters
                               and dpid not in self.switches):
                self.terms[dpid] = term
                flows = snapshot["ledger"].get(dpid)
                if flows:
                    self._ledger[dpid] = {
                        key: dict(spec) for key, spec in flows.items()
                    }
                else:
                    self._ledger.pop(dpid, None)
        discovery = self.get_app(TopologyDiscovery)
        if discovery is not None:
            for src_dpid, src_port, dst_dpid, dst_port in snapshot["links"]:
                self._apply_remote(discovery.observe_link, src_dpid,
                                   src_port, dst_dpid, dst_port,
                                   local=False)
        tracker = self.get_app(HostTracker)
        if tracker is not None:
            for mac, ip, dpid, port in snapshot["hosts"]:
                self._apply_remote(tracker._learn, mac, ip, dpid, port)

    # ------------------------------------------------------------------
    # Crash / restart (fresh-process semantics)
    # ------------------------------------------------------------------
    def wipe(self) -> None:
        """Forget everything, as a crashed process would."""
        self._ledger.clear()
        self._stale.clear()
        self._g_stale.set(0)
        self.switches.clear()
        self.handles.clear()
        self._endpoint_switch.clear()
        self.terms.clear()
        self.assignment = {}
        self.pending_master.clear()
        self._last_view = frozenset()
        for hook in self.wipe_hooks:
            hook()

    def __repr__(self) -> str:
        state = "crashed" if self.crashed else "up"
        return (f"<ClusterController {self.node_id} {state}: "
                f"{len(self.switches)} mastered / "
                f"{len(self.handles)} connected>")


class ControllerCluster:
    """The shared spine of a controller cluster.

    Owns the east-west bus, the election seed, the global dpid list,
    and the handover log; the per-instance logic lives in
    :class:`ClusterController`.
    """

    def __init__(self, sim, size: int, seed: int = 0,
                 packet_in_service_time: float = 0.0) -> None:
        if size < 1:
            raise ValueError(f"cluster size must be >= 1, got {size}")
        self.sim = sim
        self.seed = seed
        self.bus = EastWestBus(sim)
        self.dpids: List[int] = []
        self.controllers: List[ClusterController] = []
        self.handover_log: List[HandoverRecord] = []
        self.on_handover: List[Callable[[HandoverRecord], None]] = []
        self.on_failover_complete: List[Callable[[int, float], None]] = []
        #: crashed node -> (crash time, dpids still awaiting re-adoption)
        self._pending_failover: Dict[int, tuple] = {}
        #: Trace plane: the tracer shared with the platform (``None``
        #: when tracing is off) and the active fault-root context
        #: ``(trace_id, root_span, fired_at)`` handed over by
        #: :meth:`~repro.faults.schedule.FaultSchedule._fire` so the
        #: asynchronous handover chain records under the fault's trace.
        tel = sim.telemetry
        self.tracer = tel.tracer if tel.tracing else None
        self._trace_ctx: Optional[tuple] = None
        self._trace_detect: Optional[int] = None
        self.bus.on_notify = self._on_bus_notify
        for node_id in range(size):
            node = ClusterController(
                sim, node_id, self,
                packet_in_service_time=packet_in_service_time,
            )
            self.bus.register(node)
            self.controllers.append(node)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.controllers)

    def node(self, node_id: int) -> ClusterController:
        return self.controllers[node_id]

    def seed_assignment(self, dpids: Iterable[int]) -> None:
        """Fix the dpid universe and pre-agree the initial mastership.

        Called once at build time, before any channel connects: every
        node starts from the same assignment and term 1 per switch, so
        startup needs no elections and no handovers.
        """
        self.dpids = sorted(dpids)
        initial = assign_masters(
            sorted(self.bus.alive), self.dpids, self.seed
        )
        for node in self.controllers:
            node.assignment = dict(initial)
            node.terms = {dpid: 1 for dpid in self.dpids}
            node._last_view = self.bus.view(node.node_id)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def leader(self) -> Optional[int]:
        return elect_leader(sorted(self.bus.alive), self.seed)

    def masters(self) -> Dict[int, List[int]]:
        """dpid -> node ids currently *claiming* mastership (live view)."""
        claims: Dict[int, List[int]] = {d: [] for d in self.dpids}
        for node in self.controllers:
            if node.crashed:
                continue
            for dpid in node.switches:
                claims.setdefault(dpid, []).append(node.node_id)
        return claims

    def master_of(self, dpid: int) -> Optional[int]:
        claimants = self.masters().get(dpid, [])
        return claimants[0] if len(claimants) == 1 else None

    def handover_complete(self) -> bool:
        """True when no crashed node's switches await re-adoption."""
        return not self._pending_failover

    # ------------------------------------------------------------------
    # Trace plane (causal handover chain)
    # ------------------------------------------------------------------
    def note_fault_trace(self, trace_id: Optional[int],
                         span_id: Optional[int], at: float) -> None:
        """Adopt a fault injection's root span as the handover context.

        Every subsequent span of the chain — death detection, election,
        term bump, role grant, resync, failover completion — parents
        (transitively) under this root, so one trace explains the whole
        recovery.
        """
        if self.tracer is None or trace_id is None:
            return
        self._trace_ctx = (trace_id, span_id, at)
        self._trace_detect = None

    @property
    def trace_ctx_id(self) -> Optional[int]:
        return self._trace_ctx[0] if self._trace_ctx is not None else None

    def _on_bus_notify(self, epoch: int) -> None:
        if self.tracer is None or self._trace_ctx is None:
            return
        tid, root, at = self._trace_ctx
        # Spans the detection window: membership event -> notification.
        self._trace_detect = self.tracer.record(
            tid, "bus.death_detect", "cluster", start=at,
            parent=root, epoch=epoch)

    def trace_election(self, node_id: int) -> Optional[int]:
        """Record one node's mastership recomputation; returns its span
        id (the parent for the node's term bumps), or ``None``."""
        if self.tracer is None or self._trace_ctx is None:
            return None
        tid, root, _at = self._trace_ctx
        parent = self._trace_detect if self._trace_detect is not None \
            else root
        return self.tracer.record(tid, "cluster.election", "cluster",
                                  parent=parent, node=node_id)

    # ------------------------------------------------------------------
    # Coordination callbacks
    # ------------------------------------------------------------------
    def broadcast_term(self, node: ClusterController, dpid: int,
                       term: int) -> None:
        self.bus.broadcast(node.node_id, "term",
                           (dpid, term, node.node_id))

    def note_adopted(self, node: ClusterController, dpid: int,
                     previous: Optional[int], term: int,
                     initial: bool) -> None:
        if initial:
            return
        record = HandoverRecord(self.sim.now, dpid, previous,
                                node.node_id, term)
        self.handover_log.append(record)
        for hook in self.on_handover:
            hook(record)
        for crashed_id in list(self._pending_failover):
            started, pending = self._pending_failover[crashed_id]
            if dpid in pending:
                pending.discard(dpid)
                if not pending:
                    del self._pending_failover[crashed_id]
                    elapsed = self.sim.now - started
                    if (self.tracer is not None
                            and self._trace_ctx is not None):
                        tid, root, _at = self._trace_ctx
                        self.tracer.record(
                            tid, "cluster.failover_complete", "cluster",
                            start=started, parent=root,
                            node=crashed_id)
                    for hook in self.on_failover_complete:
                        hook(crashed_id, elapsed)

    # ------------------------------------------------------------------
    # Faults (driven by repro.faults.FaultSchedule)
    # ------------------------------------------------------------------
    def crash_node(self, node_id: int) -> None:
        """Kill one controller process: bus death + channels down."""
        node = self.controllers[node_id]
        if node.crashed:
            return
        owned = set(node.switches)
        node.crashed = True
        self.bus.crash(node_id)
        for channel in node.channels:
            if channel.connected:
                channel.disconnect()
        node.wipe()
        if owned:
            self._pending_failover[node_id] = (self.sim.now, owned)
        else:
            for hook in self.on_failover_complete:
                hook(node_id, 0.0)

    def restart_node(self, node_id: int) -> None:
        """Bring a crashed controller back, empty; peers re-seed it."""
        node = self.controllers[node_id]
        if not node.crashed:
            return
        node.crashed = False
        self.bus.restart(node_id)
        for channel in node.channels:
            if not channel.connected:
                channel.connect()

    def partition(self, groups: Iterable[Iterable[int]]) -> None:
        self.bus.partition(groups)

    def heal(self) -> None:
        self.bus.heal()

    def __repr__(self) -> str:
        alive = sum(1 for n in self.controllers if not n.crashed)
        return (f"<ControllerCluster {alive}/{self.size} up, "
                f"leader={self.leader}>")
