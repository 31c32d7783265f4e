"""Declarative topology descriptions and standard builders.

A :class:`Topology` is a pure description — names, roles, link parameters —
with no simulation state, so it can be built, inspected, and validated
before :class:`~repro.netem.network.Network` breathes life into it.

Builders cover the canonical evaluation shapes: linear, ring, star, tree,
fat-tree (the data-centre staple), full mesh, and Waxman random graphs.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from repro.errors import TopologyError
from repro.packet import IPv4Address, MACAddress

__all__ = ["Topology", "NodeSpec", "LinkSpec", "FAMILIES"]


class NodeSpec:
    """A node in the description: either a switch or a host."""

    __slots__ = ("name", "kind", "dpid", "ip", "mac")

    def __init__(self, name: str, kind: str, dpid: Optional[int] = None,
                 ip: Optional[IPv4Address] = None,
                 mac: Optional[MACAddress] = None) -> None:
        self.name = name
        self.kind = kind
        self.dpid = dpid
        self.ip = ip
        self.mac = mac

    @property
    def is_switch(self) -> bool:
        return self.kind == "switch"

    def __repr__(self) -> str:
        ident = f"dpid={self.dpid}" if self.is_switch else f"ip={self.ip}"
        return f"<NodeSpec {self.name} ({self.kind}, {ident})>"


class LinkSpec:
    """A link in the description, with its emulation parameters."""

    __slots__ = ("a", "b", "bandwidth_bps", "delay", "loss_rate",
                 "queue_capacity", "priority_bands")

    def __init__(self, a: str, b: str, bandwidth_bps: float = 0.0,
                 delay: float = 0.0001, loss_rate: float = 0.0,
                 queue_capacity: int = 100,
                 priority_bands: int = 1) -> None:
        self.a = a
        self.b = b
        self.bandwidth_bps = bandwidth_bps
        self.delay = delay
        self.loss_rate = loss_rate
        self.queue_capacity = queue_capacity
        self.priority_bands = priority_bands

    def endpoints(self) -> Tuple[str, str]:
        return self.a, self.b

    def __repr__(self) -> str:
        return f"<LinkSpec {self.a} -- {self.b}>"


class Topology:
    """A named graph of switches, hosts, and links."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self.nodes: Dict[str, NodeSpec] = {}
        self.links: List[LinkSpec] = []
        self._next_dpid = 1
        self._next_host = 1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_switch(self, name: Optional[str] = None,
                   dpid: Optional[int] = None) -> str:
        if dpid is None:
            dpid = self._next_dpid
        self._next_dpid = max(self._next_dpid, dpid + 1)
        if name is None:
            name = f"s{dpid}"
        if name in self.nodes:
            raise TopologyError(f"duplicate node name {name!r}")
        if any(n.is_switch and n.dpid == dpid for n in self.nodes.values()):
            raise TopologyError(f"duplicate dpid {dpid}")
        self.nodes[name] = NodeSpec(name, "switch", dpid=dpid)
        return name

    def add_host(self, name: Optional[str] = None,
                 ip: Optional[str] = None,
                 mac: Optional[str] = None) -> str:
        index = self._next_host
        self._next_host += 1
        if name is None:
            name = f"h{index}"
        if name in self.nodes:
            raise TopologyError(f"duplicate node name {name!r}")
        if ip is None:
            # 10.x.y.z pool, skipping .0 and .255 octet edge cases.
            ip = IPv4Address(
                (10 << 24) | ((index >> 16) << 16)
                | (((index >> 8) & 0xFF) << 8) | ((index & 0xFF) or 1)
            )
        else:
            ip = IPv4Address(ip)
        if any(not n.is_switch and n.ip == ip for n in self.nodes.values()):
            raise TopologyError(f"duplicate host IP {ip}")
        host_mac = (MACAddress(mac) if mac is not None
                    else MACAddress.local(0x800000 + index))
        self.nodes[name] = NodeSpec(name, "host", ip=ip, mac=host_mac)
        return name

    def add_link(self, a: str, b: str, **params) -> LinkSpec:
        for end in (a, b):
            if end not in self.nodes:
                raise TopologyError(f"unknown node {end!r}")
        if a == b:
            raise TopologyError("self-links are not allowed")
        if self.find_link(a, b) is not None:
            raise TopologyError(f"duplicate link {a} -- {b}")
        if not self.nodes[a].is_switch and not self.nodes[b].is_switch:
            raise TopologyError("host-to-host links are not supported")
        spec = LinkSpec(a, b, **params)
        self.links.append(spec)
        return spec

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def switches(self) -> List[NodeSpec]:
        return [n for n in self.nodes.values() if n.is_switch]

    @property
    def hosts(self) -> List[NodeSpec]:
        return [n for n in self.nodes.values() if not n.is_switch]

    def find_link(self, a: str, b: str) -> Optional[LinkSpec]:
        for link in self.links:
            if {link.a, link.b} == {a, b}:
                return link
        return None

    def link_ids(self) -> Dict[Tuple[str, str], int]:
        """Stable integer id per link — its index in :attr:`links` —
        keyed by both endpoint orders.

        The sharded kernel uses ``id * 2 + direction`` as the
        partition-independent tie-break base for arrival events, so the
        id of a link must never depend on which shard looks at it.
        """
        out: Dict[Tuple[str, str], int] = {}
        for index, link in enumerate(self.links):
            out[(link.a, link.b)] = index
            out[(link.b, link.a)] = index
        return out

    def switch_adjacency(self) -> Dict[str, List[str]]:
        """Switch name -> sorted neighbouring switch names (hosts
        excluded).  Sorted so every consumer — the shard partitioner,
        shortest-path routing — walks the graph in one canonical order."""
        adj: Dict[str, List[str]] = {s.name: [] for s in self.switches}
        for link in self.links:
            if link.a in adj and link.b in adj:
                adj[link.a].append(link.b)
                adj[link.b].append(link.a)
        for name in adj:
            adj[name].sort()
        return adj

    def host_attachment(self) -> Dict[str, str]:
        """Host name -> the switch it hangs off.

        Only meaningful after :meth:`validate` (which guarantees exactly
        one link per host); with multiple links the first one wins.
        """
        out: Dict[str, str] = {}
        for link in self.links:
            a_switch = self.nodes[link.a].is_switch
            b_switch = self.nodes[link.b].is_switch
            if a_switch and not b_switch and link.b not in out:
                out[link.b] = link.a
            elif b_switch and not a_switch and link.a not in out:
                out[link.a] = link.b
        return out

    def neighbours(self, name: str) -> List[str]:
        out = []
        for link in self.links:
            if link.a == name:
                out.append(link.b)
            elif link.b == name:
                out.append(link.a)
        return out

    def validate(self) -> None:
        """Raise :class:`TopologyError` on structural problems."""
        for host in self.hosts:
            degree = len(self.neighbours(host.name))
            if degree != 1:
                raise TopologyError(
                    f"host {host.name} must have exactly one link, "
                    f"has {degree}"
                )
        # Connectivity check over the undirected graph.
        if not self.nodes:
            return
        seen = set()
        stack = [next(iter(self.nodes))]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(n for n in self.neighbours(node) if n not in seen)
        missing = set(self.nodes) - seen
        if missing:
            raise TopologyError(
                f"topology is disconnected; unreachable: {sorted(missing)}"
            )

    def __repr__(self) -> str:
        return (
            f"<Topology {self.name!r}: {len(self.switches)} switches, "
            f"{len(self.hosts)} hosts, {len(self.links)} links>"
        )

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, family: str, size: int,
              bandwidth_bps: float) -> "Topology":
        """Instantiate the named builder family at one ``size`` knob
        (what the CLI, workload specs and fuzz scenarios all carry)."""
        builder = _FAMILIES.get(family)
        if builder is None:
            raise TopologyError(
                f"unknown topology family {family!r}; pick from {FAMILIES}"
            )
        return builder(cls, size, bandwidth_bps)

    @classmethod
    def linear(cls, num_switches: int, hosts_per_switch: int = 1,
               **link_opts) -> "Topology":
        """A chain of switches, each with its own hosts."""
        topo = cls(f"linear-{num_switches}")
        switches = [topo.add_switch() for _ in range(num_switches)]
        for left, right in zip(switches, switches[1:]):
            topo.add_link(left, right, **link_opts)
        for switch in switches:
            for _ in range(hosts_per_switch):
                topo.add_link(topo.add_host(), switch, **link_opts)
        return topo

    @classmethod
    def single(cls, num_hosts: int, **link_opts) -> "Topology":
        """One switch with ``num_hosts`` hosts (Mininet's default)."""
        topo = cls(f"single-{num_hosts}")
        switch = topo.add_switch()
        for _ in range(num_hosts):
            topo.add_link(topo.add_host(), switch, **link_opts)
        return topo

    @classmethod
    def ring(cls, num_switches: int, hosts_per_switch: int = 1,
             **link_opts) -> "Topology":
        """A cycle of switches — the minimal redundant topology."""
        if num_switches < 3:
            raise TopologyError("a ring needs at least 3 switches")
        topo = cls(f"ring-{num_switches}")
        switches = [topo.add_switch() for _ in range(num_switches)]
        for i, switch in enumerate(switches):
            topo.add_link(switch, switches[(i + 1) % num_switches],
                          **link_opts)
        for switch in switches:
            for _ in range(hosts_per_switch):
                topo.add_link(topo.add_host(), switch, **link_opts)
        return topo

    @classmethod
    def star(cls, num_leaves: int, hosts_per_leaf: int = 1,
             **link_opts) -> "Topology":
        """A hub switch with ``num_leaves`` leaf switches."""
        topo = cls(f"star-{num_leaves}")
        hub = topo.add_switch("hub", dpid=1)
        for _ in range(num_leaves):
            leaf = topo.add_switch()
            topo.add_link(hub, leaf, **link_opts)
            for _ in range(hosts_per_leaf):
                topo.add_link(topo.add_host(), leaf, **link_opts)
        return topo

    @classmethod
    def tree(cls, depth: int, fanout: int = 2, **link_opts) -> "Topology":
        """A complete ``fanout``-ary switch tree with hosts at the leaves."""
        if depth < 1:
            raise TopologyError("tree depth must be >= 1")
        topo = cls(f"tree-d{depth}-f{fanout}")

        def build(level: int) -> str:
            node = topo.add_switch()
            for _ in range(fanout):
                if level + 1 < depth:
                    child = build(level + 1)
                else:
                    child = topo.add_host()
                topo.add_link(node, child, **link_opts)
            return node

        build(0)
        return topo

    @classmethod
    def fat_tree(cls, k: int = 4, **link_opts) -> "Topology":
        """The classic three-tier fat-tree with parameter ``k``.

        ``k`` pods, each with ``k/2`` edge and ``k/2`` aggregation
        switches; ``(k/2)^2`` core switches; ``k^3/4`` hosts.  All links
        identical — the full bisection bandwidth comes from multipath,
        which is exactly what the TE experiments stress.
        """
        if k < 2 or k % 2:
            raise TopologyError("fat-tree k must be even and >= 2")
        half = k // 2
        topo = cls(f"fattree-{k}")
        cores = [topo.add_switch(f"c{i}") for i in range(half * half)]
        for pod in range(k):
            aggs = [topo.add_switch(f"p{pod}a{i}") for i in range(half)]
            edges = [topo.add_switch(f"p{pod}e{i}") for i in range(half)]
            for agg in aggs:
                for edge in edges:
                    topo.add_link(agg, edge, **link_opts)
            for i, agg in enumerate(aggs):
                for j in range(half):
                    topo.add_link(agg, cores[i * half + j], **link_opts)
            for e, edge in enumerate(edges):
                for h in range(half):
                    host = topo.add_host(f"p{pod}e{e}h{h}")
                    topo.add_link(host, edge, **link_opts)
        return topo

    @classmethod
    def mesh(cls, num_switches: int, hosts_per_switch: int = 1,
             **link_opts) -> "Topology":
        """A full mesh of switches."""
        topo = cls(f"mesh-{num_switches}")
        switches = [topo.add_switch() for _ in range(num_switches)]
        for i, a in enumerate(switches):
            for b in switches[i + 1:]:
                topo.add_link(a, b, **link_opts)
        for switch in switches:
            for _ in range(hosts_per_switch):
                topo.add_link(topo.add_host(), switch, **link_opts)
        return topo

    @classmethod
    def carrier_wan(cls, cores: int = 4, metros_per_core: int = 2,
                    access_per_metro: int = 2, hosts_per_access: int = 2,
                    core_delay: float = 0.005, metro_delay: float = 0.001,
                    access_delay: float = 0.0002,
                    **link_opts) -> "Topology":
        """A three-tier carrier/WAN topology (SplitArchitecture's
        operator domain): a core ring with a cross-chord, dual-homed
        metro switches, and access switches fanning out to subscribers.

        Each metro attaches to its own core *and* the next core around
        the ring, so every access subtree survives a single core or
        core-link failure.  Per-tier propagation delays default to
        WAN-ish numbers (5 ms core, 1 ms metro, 0.2 ms access) — the
        long-haul asymmetry datacenter fabrics don't have.
        """
        if cores < 3:
            raise TopologyError("carrier WAN needs at least 3 cores")
        if metros_per_core < 1 or access_per_metro < 1:
            raise TopologyError("carrier WAN tiers must be >= 1 wide")
        topo = cls(f"carrier-{cores}x{metros_per_core}x{access_per_metro}")
        core = [topo.add_switch(f"core{i}") for i in range(cores)]
        for i, sw in enumerate(core):
            topo.add_link(sw, core[(i + 1) % cores], delay=core_delay,
                          **link_opts)
        if cores >= 5:
            # One chord across the ring keeps worst-case core paths
            # from growing linearly with the ring size.
            topo.add_link(core[0], core[cores // 2], delay=core_delay,
                          **link_opts)
        for i in range(cores):
            for m in range(metros_per_core):
                metro = topo.add_switch(f"m{i}_{m}")
                topo.add_link(metro, core[i], delay=metro_delay,
                              **link_opts)
                topo.add_link(metro, core[(i + 1) % cores],
                              delay=metro_delay, **link_opts)
                for a in range(access_per_metro):
                    access = topo.add_switch(f"a{i}_{m}_{a}")
                    topo.add_link(access, metro, delay=access_delay,
                                  **link_opts)
                    for h in range(hosts_per_access):
                        host = topo.add_host(f"u{i}_{m}_{a}h{h}")
                        topo.add_link(host, access, delay=access_delay,
                                      **link_opts)
        return topo

    @classmethod
    def waxman(cls, num_switches: int, hosts_per_switch: int = 1,
               alpha: float = 0.6, beta: float = 0.4, seed: int = 7,
               **link_opts) -> "Topology":
        """A Waxman random graph over switches, forced connected.

        Nodes get random plane coordinates; an edge (u, v) exists with
        probability ``alpha * exp(-d(u, v) / (beta * L))``.  A spanning
        chain is added first so the result is always connected.
        """
        rng = random.Random(seed)
        topo = cls(f"waxman-{num_switches}-s{seed}")
        switches = [topo.add_switch() for _ in range(num_switches)]
        coords = {s: (rng.random(), rng.random()) for s in switches}
        # Spanning chain for guaranteed connectivity.
        order = switches[:]
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            topo.add_link(a, b, **link_opts)
        max_dist = 2 ** 0.5
        for i, a in enumerate(switches):
            for b in switches[i + 1:]:
                if topo.find_link(a, b) is not None:
                    continue
                (x1, y1), (x2, y2) = coords[a], coords[b]
                dist = ((x1 - x2) ** 2 + (y1 - y2) ** 2) ** 0.5
                if rng.random() < alpha * math.exp(
                    -dist / (beta * max_dist)
                ):
                    topo.add_link(a, b, **link_opts)
        for switch in switches:
            for _ in range(hosts_per_switch):
                topo.add_link(topo.add_host(), switch, **link_opts)
        return topo


#: family -> how the single ``size`` knob maps onto that builder.
_FAMILIES = {
    "linear": lambda cls, n, bw: cls.linear(
        n, hosts_per_switch=1, bandwidth_bps=bw),
    "single": lambda cls, n, bw: cls.single(n, bandwidth_bps=bw),
    "ring": lambda cls, n, bw: cls.ring(
        max(n, 3), hosts_per_switch=1, bandwidth_bps=bw),
    "star": lambda cls, n, bw: cls.star(
        n, hosts_per_leaf=1, bandwidth_bps=bw),
    "tree": lambda cls, n, bw: cls.tree(
        depth=max(n, 1), fanout=2, bandwidth_bps=bw),
    # k must be even: odd sizes round up.
    "fat_tree": lambda cls, n, bw: cls.fat_tree(
        max(n + n % 2, 2), bandwidth_bps=bw),
    "mesh": lambda cls, n, bw: cls.mesh(
        n, hosts_per_switch=1, bandwidth_bps=bw),
    "waxman": lambda cls, n, bw: cls.waxman(
        n, hosts_per_switch=1, bandwidth_bps=bw),
    "carrier_wan": lambda cls, n, bw: cls.carrier_wan(
        cores=max(n, 3), bandwidth_bps=bw),
}

#: The families :meth:`Topology.build` accepts, in CLI display order.
FAMILIES = tuple(_FAMILIES)
