"""Proactive ECMP routing with SELECT groups.

Where :class:`ProactiveRouter` pins each destination to a single
shortest-path next hop, this app programs *all* equal-cost next hops as
a SELECT group: the switch hashes each flow onto one member, so
different flows spread across the fabric with zero controller
involvement — the standard data-centre multipath design (and what makes
fat-trees worth their links).

Groups are shared: every destination with the same next-hop port set on
a switch points at the same group entry, which keeps group-table state
O(distinct port sets), not O(hosts).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

import networkx as nx

from repro.apps.proactive_router import ProactiveRouter
from repro.controller.core import SwitchHandle
from repro.dataplane.actions import Group, Output
from repro.dataplane.group import Bucket, GroupType
from repro.dataplane.match import Match
from repro.packet import MACAddress

__all__ = ["MultipathRouter"]


class MultipathRouter(ProactiveRouter):
    """All-pairs proactive routing over every equal-cost path."""

    name = "multipath-router"

    def __init__(self, max_paths: int = 4, **kwargs) -> None:
        super().__init__(**kwargs)
        self.max_paths = max_paths
        #: (dpid, mac) -> frozenset of next-hop ports we programmed.
        self._installed_sets: Dict[Tuple[int, MACAddress],
                                   FrozenSet[int]] = {}
        #: (dpid, port set) -> group id, for group sharing.
        self._group_ids: Dict[Tuple[int, FrozenSet[int]], int] = {}
        self._next_group: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Rebuild with ECMP sets
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        self._rebuild_pending = False
        self.rebuild_count += 1
        view = self._discovery.view()
        graph = view.graph
        wanted: Dict[Tuple[int, MACAddress], FrozenSet[int]] = {}
        for entry in self._tracker.hosts_by_mac.values():
            if entry.dpid not in graph:
                continue
            dist = nx.single_source_shortest_path_length(
                graph, entry.dpid)
            for dpid in graph.nodes:
                if dpid == entry.dpid:
                    wanted[(dpid, entry.mac)] = frozenset(
                        {entry.port})
                    continue
                if dpid not in dist:
                    continue
                next_hops = sorted(
                    n for n in graph.neighbors(dpid)
                    if dist.get(n, -1) + 1 == dist[dpid]
                )[: self.max_paths]
                ports = set()
                for hop in next_hops:
                    port = view.port_toward(dpid, hop)
                    if port is not None:
                        ports.add(port)
                if ports:
                    wanted[(dpid, entry.mac)] = frozenset(ports)
        self._apply_set_diff(wanted)

    def _apply_set_diff(
        self,
        wanted: Dict[Tuple[int, MACAddress], FrozenSet[int]],
    ) -> None:
        switches = self.controller.switches
        for key in list(self._installed_sets):
            if key not in wanted:
                dpid, mac = key
                switch = switches.get(dpid)
                if switch is not None:
                    switch.delete_flows(
                        match=Match(eth_dst=mac),
                        table_id=self.table_id,
                        priority=self.priority,
                        strict=True,
                    )
                del self._installed_sets[key]
        for key, ports in wanted.items():
            if self._installed_sets.get(key) == ports:
                continue
            dpid, mac = key
            switch = switches.get(dpid)
            if switch is None:
                continue
            if len(ports) == 1:
                actions = [Output(next(iter(ports)))]
            else:
                group_id = self._group_for(switch, ports)
                actions = [Group(group_id)]
            switch.add_flow(
                Match(eth_dst=mac),
                actions,
                priority=self.priority,
                table_id=self.table_id,
            )
            self._installed_sets[key] = ports

    def _group_for(self, switch: SwitchHandle,
                   ports: FrozenSet[int]) -> int:
        """The shared SELECT group for a next-hop port set."""
        key = (switch.dpid, ports)
        group_id = self._group_ids.get(key)
        if group_id is not None:
            return group_id
        group_id = self._next_group.get(switch.dpid, 1)
        self._next_group[switch.dpid] = group_id + 1
        switch.add_group(
            group_id,
            GroupType.SELECT,
            [Bucket([Output(p)]) for p in sorted(ports)],
        )
        self._group_ids[key] = group_id
        return group_id

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def rules_installed(self) -> int:
        return len(self._installed_sets)

    @property
    def multipath_rules(self) -> int:
        """Destinations currently spread over more than one port."""
        return sum(1 for ports in self._installed_sets.values()
                   if len(ports) > 1)

    @property
    def groups_created(self) -> int:
        return len(self._group_ids)
