"""Path computation over the discovered topology.

A thin service on top of :class:`TopologyDiscovery`'s graph: the
hop-count shortest path between two switches.  Paths are lists of
dpids; :meth:`PathService.path_ports` converts one into the (dpid,
out_port) hop list a flow programmer installs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import networkx as nx

from repro.controller.discovery import TopologyDiscovery
from repro.errors import ControllerError

__all__ = ["PathService"]


class PathService:
    """Path queries against discovery's current topology view."""

    def __init__(self, discovery: TopologyDiscovery) -> None:
        self.discovery = discovery

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def shortest_path(self, src_dpid: int,
                      dst_dpid: int) -> Optional[List[int]]:
        """Hop-count shortest dpid path, or ``None`` if disconnected."""
        graph = self.discovery.graph()
        try:
            return nx.shortest_path(graph, src_dpid, dst_dpid)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return None

    def distance(self, src_dpid: int, dst_dpid: int) -> Optional[int]:
        path = self.shortest_path(src_dpid, dst_dpid)
        return None if path is None else len(path) - 1

    # ------------------------------------------------------------------
    # Path -> forwarding hops
    # ------------------------------------------------------------------
    def path_ports(self, path: List[int]) -> List[Tuple[int, int]]:
        """Convert a dpid path into ``[(dpid, out_port), ...]`` hops.

        The final hop's host-facing port is not included (the caller
        knows the destination host's attachment port).
        """
        hops: List[Tuple[int, int]] = []
        for here, there in zip(path, path[1:]):
            port = self.discovery.port_toward(here, there)
            if port is None:
                raise ControllerError(
                    f"no known port from {here} toward {there}; "
                    "discovery may be stale"
                )
            hops.append((here, port))
        return hops

    def path_uses_link(self, path: List[int], dpid_a: int,
                       dpid_b: int) -> bool:
        """True when ``path`` traverses the (a, b) adjacency either way."""
        for here, there in zip(path, path[1:]):
            if {here, there} == {dpid_a, dpid_b}:
                return True
        return False
