"""Centralised traffic engineering (a B4/SWAN-shaped app).

The TE problem here is path placement: given a set of (src, dst, rate)
demands and link capacities, choose a path per demand that keeps the most
loaded link as idle as possible.  Three placement strategies are provided
because benchmark E5 compares them:

* :func:`spf_place` — everyone on the first shortest path (the
  non-engineered baseline),
* :func:`ecmp_place` — hash-spread over equal-cost shortest paths,
* :func:`greedy_place` — capacity-aware greedy over k-shortest paths,
  largest demands first (the TE contribution).

The pure functions operate on any :mod:`networkx` graph, so they unit-test
without a network; :class:`TrafficEngineering` wraps them into an app that
installs the placement and re-places on topology churn.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple, Union

import networkx as nx

from repro.controller.core import App
from repro.controller.discovery import TopologyDiscovery
from repro.controller.events import LinkVanished
from repro.controller.hosttracker import HostTracker
from repro.controller.pathing import PathService
from repro.dataplane.actions import Output
from repro.dataplane.match import Match
from repro.errors import ControllerError
from repro.packet import EtherType, IPv4Address

__all__ = [
    "Demand",
    "PlacementResult",
    "greedy_place",
    "ecmp_place",
    "spf_place",
    "TrafficEngineering",
]

TE_PRIORITY = 25000

LinkKey = FrozenSet[int]


class Demand:
    """One traffic demand: ``rate_bps`` from ``src_ip`` to ``dst_ip``."""

    __slots__ = ("src_ip", "dst_ip", "rate_bps")

    def __init__(self, src_ip: Union[str, IPv4Address],
                 dst_ip: Union[str, IPv4Address], rate_bps: float) -> None:
        if rate_bps <= 0:
            raise ControllerError(f"demand rate must be positive: {rate_bps}")
        self.src_ip = IPv4Address(src_ip)
        self.dst_ip = IPv4Address(dst_ip)
        self.rate_bps = rate_bps

    def __repr__(self) -> str:
        return (
            f"Demand({self.src_ip} -> {self.dst_ip}, "
            f"{self.rate_bps / 1e6:.1f}Mbps)"
        )


class PlacementResult:
    """The outcome of a placement run."""

    def __init__(self) -> None:
        #: demand -> dpid path (None when rejected).
        self.paths: Dict[Demand, Optional[List[int]]] = {}
        #: frozenset{u, v} -> booked bps.
        self.link_loads: Dict[LinkKey, float] = {}
        self.rejected: List[Demand] = []

    def max_utilisation(self, capacities: Dict[LinkKey, float]) -> float:
        """Peak booked/capacity over all loaded links."""
        peak = 0.0
        for key, load in self.link_loads.items():
            cap = capacities.get(key, 0.0)
            if cap > 0:
                peak = max(peak, load / cap)
        return peak

    @property
    def admitted_rate(self) -> float:
        return sum(d.rate_bps for d, p in self.paths.items()
                   if p is not None)

    def __repr__(self) -> str:
        placed = sum(1 for p in self.paths.values() if p is not None)
        return (
            f"<PlacementResult {placed}/{len(self.paths)} placed, "
            f"{len(self.rejected)} rejected>"
        )


def _edges_of(path: List[int]) -> List[LinkKey]:
    return [frozenset((u, v)) for u, v in zip(path, path[1:])]


def _book(result: PlacementResult, demand: Demand,
          path: Optional[List[int]]) -> None:
    result.paths[demand] = path
    if path is None:
        result.rejected.append(demand)
        return
    for edge in _edges_of(path):
        result.link_loads[edge] = (
            result.link_loads.get(edge, 0.0) + demand.rate_bps
        )


def spf_place(graph: nx.Graph, demands: List[Demand],
              locate) -> PlacementResult:
    """Everyone on the single shortest path (hop count)."""
    result = PlacementResult()
    for demand in demands:
        src, dst = locate(demand.src_ip), locate(demand.dst_ip)
        try:
            path = nx.shortest_path(graph, src, dst)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            path = None
        _book(result, demand, path)
    return result


def ecmp_place(graph: nx.Graph, demands: List[Demand],
               locate) -> PlacementResult:
    """Hash each demand onto one of its equal-cost shortest paths."""
    result = PlacementResult()
    for demand in demands:
        src, dst = locate(demand.src_ip), locate(demand.dst_ip)
        try:
            paths = sorted(nx.all_shortest_paths(graph, src, dst))
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            _book(result, demand, None)
            continue
        # Integer values, not address objects: an address hashes a
        # ``str`` tag, which is salted per process.
        index = (hash((demand.src_ip.value, demand.dst_ip.value))
                 % len(paths))
        _book(result, demand, paths[index])
    return result


def greedy_place(
    graph: nx.Graph,
    demands: List[Demand],
    locate,
    capacities: Dict[LinkKey, float],
    k: int = 4,
    admit_all: bool = False,
) -> PlacementResult:
    """Capacity-aware greedy placement over k-shortest candidate paths.

    Demands are placed largest-first; each takes the candidate path that
    minimises the resulting bottleneck utilisation.  A demand whose best
    candidate would exceed capacity is rejected unless ``admit_all``.
    """
    result = PlacementResult()
    for demand in sorted(demands, key=lambda d: -d.rate_bps):
        src, dst = locate(demand.src_ip), locate(demand.dst_ip)
        candidates: List[List[int]] = []
        try:
            for path in nx.shortest_simple_paths(graph, src, dst):
                candidates.append(path)
                if len(candidates) >= k:
                    break
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            pass
        best_path = None
        best_cost = float("inf")
        for path in candidates:
            # Utilisation of the path's worst link if we placed here.
            cost = 0.0
            for edge in _edges_of(path):
                cap = capacities.get(edge, 0.0)
                if cap <= 0:
                    cost = float("inf")
                    break
                load = result.link_loads.get(edge, 0.0) + demand.rate_bps
                cost = max(cost, load / cap)
            if cost < best_cost:
                best_cost = cost
                best_path = path
        if best_path is None or (best_cost > 1.0 and not admit_all):
            _book(result, demand, None)
        else:
            _book(result, demand, best_path)
    return result


class TrafficEngineering(App):
    """Installs a placement as flow rules and re-places on failures."""

    name = "traffic-engineering"

    def __init__(
        self,
        capacities: Optional[Dict[LinkKey, float]] = None,
        default_capacity_bps: float = 100e6,
        k: int = 4,
        table_id: int = 0,
        strategy: str = "greedy",
        admit_all: bool = True,
        discovery: Optional[TopologyDiscovery] = None,
        host_tracker: Optional[HostTracker] = None,
    ) -> None:
        if strategy not in ("greedy", "ecmp", "spf"):
            raise ControllerError(f"unknown TE strategy {strategy!r}")
        super().__init__()
        self.capacities = dict(capacities or {})
        self.default_capacity_bps = default_capacity_bps
        self.k = k
        self.table_id = table_id
        self.strategy = strategy
        self.admit_all = admit_all
        self._discovery = discovery
        self._tracker = host_tracker
        self._paths: Optional[PathService] = None
        self.demands: List[Demand] = []
        self.last_result: Optional[PlacementResult] = None
        self.replacements = 0

    def start(self, controller) -> None:
        super().start(controller)
        if self._discovery is None:
            self._discovery = controller.get_app(TopologyDiscovery)
        if self._tracker is None:
            self._tracker = controller.get_app(HostTracker)
        if self._discovery is None or self._tracker is None:
            raise ControllerError(
                "TrafficEngineering needs TopologyDiscovery and HostTracker"
            )
        self._paths = PathService(self._discovery)
        controller.subscribe(LinkVanished, lambda _ev: self.replace(),
                             owner=self.name)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _capacity_map(self, graph: nx.Graph) -> Dict[LinkKey, float]:
        caps = {}
        for u, v in graph.edges():
            key = frozenset((u, v))
            caps[key] = self.capacities.get(key, self.default_capacity_bps)
        return caps

    def _locate(self, ip: IPv4Address) -> int:
        return self._tracker.require_ip(ip).dpid

    def place(self, demands: List[Demand]) -> PlacementResult:
        """Compute a placement for ``demands`` (no installation)."""
        graph = self._discovery.graph()
        caps = self._capacity_map(graph)
        if self.strategy == "greedy":
            return greedy_place(graph, demands, self._locate, caps,
                                k=self.k, admit_all=self.admit_all)
        if self.strategy == "ecmp":
            return ecmp_place(graph, demands, self._locate)
        return spf_place(graph, demands, self._locate)

    def install(self, demands: List[Demand]) -> PlacementResult:
        """Place ``demands`` and program the network accordingly."""
        self.demands = list(demands)
        result = self.place(self.demands)
        self.controller.update(self.name, [
            rule for demand, path in result.paths.items()
            if path is not None
            for rule in self._demand_rules(demand, path)
        ])
        self.last_result = result
        return result

    def replace(self) -> Optional[PlacementResult]:
        """Re-run placement after topology churn."""
        if not self.demands:
            return None
        self.replacements += 1
        return self.install(self.demands)

    # ------------------------------------------------------------------
    # Programming
    # ------------------------------------------------------------------
    def _demand_rules(self, demand: Demand,
                      path: List[int]) -> List[Tuple[int, dict]]:
        dst_entry = self._tracker.require_ip(demand.dst_ip)
        match = Match(
            eth_type=EtherType.IPV4,
            ip_src=demand.src_ip,
            ip_dst=demand.dst_ip,
        )
        hops = self._paths.path_ports(path) + [(path[-1], dst_entry.port)]
        return [
            (dpid, {"match": match, "actions": [Output(out_port)],
                    "priority": TE_PRIORITY, "table_id": self.table_id})
            for dpid, out_port in hops
        ]
