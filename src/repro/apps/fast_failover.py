"""1+1 path protection with dataplane fast-failover groups.

For each protected host pair the app installs two maximally disjoint
paths and a FAST_FAILOVER group at each end's ingress switch: the group
watches the primary port and flips to the backup path the instant the
port dies — zero control-plane round trips, the property benchmark E4
quantifies.

Scope (stated, not hidden): the instant repair covers failures of the
*first* link of either direction — that is what an ingress FF group can
watch.  Failures deeper in the path are repaired by recomputation when
the controller learns of them (the app re-protects on LinkVanished),
which still beats unprotected routing because the backup path rules are
already in place.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.controller.core import App
from repro.controller.discovery import TopologyDiscovery
from repro.controller.events import LinkVanished
from repro.controller.hosttracker import HostTracker
from repro.controller.pathing import PathService
from repro.dataplane.actions import Group, Output
from repro.dataplane.group import Bucket, GroupType
from repro.dataplane.match import Match
from repro.errors import ControllerError
from repro.packet import IPv4Address, MACAddress

__all__ = ["ProtectedPairs", "ProtectedPair"]

PROTECT_PRIORITY = 28000


class ProtectedPair:
    """State for one protected (src, dst) host pair."""

    def __init__(self, src_mac: MACAddress, dst_mac: MACAddress) -> None:
        #: Allocated by :meth:`ProtectedPairs.protect_ips` from the
        #: run's simulator — it goes on the wire as the flow cookie, so
        #: it must not depend on what else this process has run.
        self.pair_id: Optional[int] = None
        self.src_mac = src_mac
        self.dst_mac = dst_mac
        self.primary: Optional[List[int]] = None
        self.backup: Optional[List[int]] = None
        self.protected = False
        self.reprotections = 0
        #: Groups installed: (dpid, group_id).
        self.groups: List[Tuple[int, int]] = []

    def __repr__(self) -> str:
        state = "protected" if self.protected else "unprotected"
        return (
            f"<ProtectedPair {self.pair_id} {self.src_mac}<->"
            f"{self.dst_mac} {state}>"
        )


class ProtectedPairs(App):
    """Installs fast-failover-protected connectivity for host pairs."""

    name = "protected-pairs"

    def __init__(self, discovery: Optional[TopologyDiscovery] = None,
                 host_tracker: Optional[HostTracker] = None) -> None:
        super().__init__()
        self._discovery = discovery
        self._tracker = host_tracker
        self._paths: Optional[PathService] = None
        self.pairs: Dict[int, ProtectedPair] = {}
        self._next_group: Dict[int, int] = {}

    def start(self, controller) -> None:
        super().start(controller)
        if self._discovery is None:
            self._discovery = controller.get_app(TopologyDiscovery)
        if self._tracker is None:
            self._tracker = controller.get_app(HostTracker)
        if self._discovery is None or self._tracker is None:
            raise ControllerError(
                "ProtectedPairs needs TopologyDiscovery and HostTracker"
            )
        self._paths = PathService(self._discovery)
        controller.subscribe(LinkVanished, self._on_link_vanished,
                             owner=self.name)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def protect_ips(self, src_ip, dst_ip) -> ProtectedPair:
        """Protect a pair by IP (both hosts must be tracked)."""
        src = self._tracker.require_ip(IPv4Address(src_ip))
        dst = self._tracker.require_ip(IPv4Address(dst_ip))
        pair = ProtectedPair(src.mac, dst.mac)
        pair.pair_id = self.controller.sim.next_id("protected-pair")
        self.pairs[pair.pair_id] = pair
        self._establish(pair)
        return pair

    # ------------------------------------------------------------------
    # Path selection and programming
    # ------------------------------------------------------------------
    def _disjoint_paths(self, src_dpid: int,
                        dst_dpid: int) -> Tuple[Optional[List[int]],
                                                Optional[List[int]]]:
        """Primary plus a maximally link-disjoint backup."""
        graph = self._discovery.graph()
        if src_dpid not in graph or dst_dpid not in graph:
            return None, None
        try:
            primary = nx.shortest_path(graph, src_dpid, dst_dpid)
        except nx.NetworkXNoPath:
            return None, None
        pruned = graph.copy()
        pruned.remove_edges_from(list(zip(primary, primary[1:])))
        try:
            backup = nx.shortest_path(pruned, src_dpid, dst_dpid)
        except nx.NetworkXNoPath:
            backup = None
        return primary, backup

    def _establish(self, pair: ProtectedPair) -> None:
        """Plan the pair's rules and groups, then declare them.

        Groups are not in the controller's ledger, so this app makes
        the new ones before the update (the head rules point at them)
        and drops the old ones after it (nothing points at them any
        more); per-switch channel order does the rest.
        """
        old_groups, pair.groups = pair.groups, []
        self.controller.update((self.name, pair.pair_id),
                               self._plan(pair))
        for dpid, group_id in old_groups:
            switch = self.controller.switches.get(dpid)
            if switch is not None:
                switch.delete_group(group_id)

    def _plan(self, pair: ProtectedPair) -> List[Tuple[int, dict]]:
        src = self._tracker.lookup_mac(pair.src_mac)
        dst = self._tracker.lookup_mac(pair.dst_mac)
        if src is None or dst is None:
            return []
        if src.dpid == dst.dpid:
            # Same switch: nothing to protect; plain delivery rules.
            pair.primary, pair.backup = [src.dpid], None
            pair.protected = False
            return [
                self._rule(pair, src.dpid,
                           Match(eth_src=pair.src_mac,
                                 eth_dst=pair.dst_mac),
                           Output(dst.port)),
                self._rule(pair, src.dpid,
                           Match(eth_src=pair.dst_mac,
                                 eth_dst=pair.src_mac),
                           Output(src.port)),
            ]
        primary, backup = self._disjoint_paths(src.dpid, dst.dpid)
        if primary is None:
            return []
        pair.primary, pair.backup = primary, backup
        pair.protected = backup is not None
        rev_primary = list(reversed(primary))
        rev_backup = list(reversed(backup)) if backup else None
        return (
            self._direction_rules(pair, primary, backup, pair.src_mac,
                                  pair.dst_mac, dst.port)
            + self._direction_rules(pair, rev_primary, rev_backup,
                                    pair.dst_mac, pair.src_mac, src.port))

    def _direction_rules(self, pair: ProtectedPair,
                         primary: List[int],
                         backup: Optional[List[int]],
                         src_mac: MACAddress, dst_mac: MACAddress,
                         final_port: int) -> List[Tuple[int, dict]]:
        match = Match(eth_src=src_mac, eth_dst=dst_mac)
        hops = []  # (dpid, action)
        # Transit rules along both paths (skip the head, handled below;
        # the tail switch delivers to the host).
        for path in filter(None, (primary, backup)):
            hops += [(dpid, Output(out_port)) for dpid, out_port
                     in self._paths.path_ports(path)[1:]]
            hops.append((path[-1], Output(final_port)))
        head = primary[0]
        primary_port = self._paths.path_ports(primary[:2])[0][1]
        switch = self.controller.switches.get(head)
        if backup is not None and len(backup) > 1 and switch is not None:
            backup_port = self._paths.path_ports(backup[:2])[0][1]
            group_id = self._alloc_group(head)
            switch.add_group(group_id, GroupType.FAST_FAILOVER, [
                Bucket([Output(primary_port)], watch_port=primary_port),
                Bucket([Output(backup_port)], watch_port=backup_port),
            ])
            pair.groups.append((head, group_id))
            hops.append((head, Group(group_id)))
        else:
            hops.append((head, Output(primary_port)))
        return [self._rule(pair, dpid, match, action)
                for dpid, action in hops]

    @staticmethod
    def _rule(pair: ProtectedPair, dpid: int, match: Match,
              action) -> Tuple[int, dict]:
        return dpid, {"match": match, "actions": [action],
                      "priority": PROTECT_PRIORITY,
                      "cookie": pair.pair_id}

    def _alloc_group(self, dpid: int) -> int:
        # Group ids above 1000 to stay clear of other apps' allocations.
        group_id = self._next_group.get(dpid, 1001)
        self._next_group[dpid] = group_id + 1
        return group_id

    # ------------------------------------------------------------------
    # Re-protection after failures
    # ------------------------------------------------------------------
    def _on_link_vanished(self, event: LinkVanished) -> None:
        for pair in self.pairs.values():
            paths = [p for p in (pair.primary, pair.backup) if p]
            hit = any(
                {u, v} == {event.src_dpid, event.dst_dpid}
                for path in paths
                for u, v in zip(path, path[1:])
            )
            if hit:
                pair.reprotections += 1
                self._establish(pair)
