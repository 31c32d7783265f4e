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

from typing import Dict, FrozenSet, Iterator, Tuple

from repro.apps.proactive_router import ProactiveRouter
from repro.controller.core import SwitchHandle
from repro.dataplane.actions import Group, Output
from repro.dataplane.group import Bucket, GroupType
from repro.dataplane.match import Match

__all__ = ["MultipathRouter"]


class MultipathRouter(ProactiveRouter):
    """All-pairs proactive routing over every equal-cost path."""

    name = "multipath-router"

    def __init__(self, max_paths: int = 4, **kwargs) -> None:
        super().__init__(**kwargs)
        self.max_paths = max_paths
        #: (dpid, port set) -> group id, for group sharing.
        self._group_ids: Dict[Tuple[int, FrozenSet[int]], int] = {}
        self._next_group: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Rebuild with ECMP sets
    # ------------------------------------------------------------------
    def _wanted(self) -> Iterator[Tuple[int, dict]]:
        view = self._discovery.view()
        graph = view.graph
        switches = self.controller.switches
        for entry in self._tracker.hosts_by_mac.values():
            if entry.dpid not in graph:
                continue
            dist = view.distances(entry.dpid)
            match = Match(eth_dst=entry.mac)
            for dpid in graph.nodes:
                if dpid == entry.dpid:
                    yield dpid, self._rule(match, Output(entry.port))
                    continue
                if dpid not in dist:
                    continue
                next_hops = sorted(
                    n for n in graph.neighbors(dpid)
                    if dist.get(n, -1) + 1 == dist[dpid]
                )[: self.max_paths]
                ports = {view.port_toward(dpid, hop)
                         for hop in next_hops} - {None}
                if len(ports) == 1:
                    yield dpid, self._rule(match, Output(ports.pop()))
                elif ports and dpid in switches:
                    # Groups are not in the ledger: this app makes them,
                    # just ahead of the first rule that points at one.
                    group_id = self._group_for(switches[dpid],
                                               frozenset(ports))
                    yield dpid, self._rule(match, Group(group_id))

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
    def multipath_rules(self) -> int:
        """Destinations currently spread over more than one port."""
        return sum(1 for _dpid, spec in self.controller.owned(self.name)
                   if isinstance(spec["actions"][0], Group))

    @property
    def groups_created(self) -> int:
        return len(self._group_ids)
