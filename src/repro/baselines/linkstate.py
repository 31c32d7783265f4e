"""Distributed baseline #2: link-state routing (an OSPF-lite).

Each switch runs a local routing process: hellos discover neighbours,
link-state advertisements flood the adjacency and attached-host database,
and every switch independently runs Dijkstra to program its own
forwarding table.  This is the strongest distributed competitor to
centralised control — same shortest paths as the proactive SDN router,
but convergence is bounded by hello dead-intervals and flooding instead
of a controller's global view (benchmark E4 measures the difference).

Failure detection is hello-timeout by default; ``carrier_detect=True``
enables immediate port-down reaction, the ablation arm that shows how
much of OSPF's lag is detection rather than flooding.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Set

import networkx as nx

from repro.dataplane.actions import Output, PORT_CONTROLLER
from repro.dataplane.flowtable import FlowEntry
from repro.dataplane.match import Match
from repro.dataplane.switch import Datapath
from repro.errors import DecodeError
from repro.graphutil import canonical_tree_edges
from repro.netem.network import Network
from repro.packet import Ethernet, Header, MACAddress, Packet
from repro.packet.ethernet import register_ethertype

__all__ = ["LSMessage", "LinkStateSwitch", "LinkStateNetwork",
           "LS_ETHERTYPE"]

LS_ETHERTYPE = 0x88B6
_LS_MULTICAST = MACAddress("01:80:c2:00:00:0f")

#: Seconds between periodic LSA re-originations.
_REFRESH_INTERVAL = 5.0
#: Priority of the per-destination routes a switch installs.
_ROUTE_PRIORITY = 100

_KIND_HELLO = 1
_KIND_LSA = 2


class LSMessage(Header):
    """Hello or LSA, depending on ``kind``.

    An LSA carries the originator's neighbour set and attached host MACs
    with a sequence number for freshness.
    """

    name = "ls"

    def __init__(self, kind: int = _KIND_HELLO, origin: int = 0,
                 seq: int = 0, neighbours: Optional[List[int]] = None,
                 hosts: Optional[List[MACAddress]] = None) -> None:
        self.kind = kind
        self.origin = origin
        self.seq = seq
        self.neighbours = list(neighbours or [])
        self.hosts = list(hosts or [])

    @classmethod
    def hello(cls, origin: int) -> "LSMessage":
        return cls(_KIND_HELLO, origin)

    @classmethod
    def lsa(cls, origin: int, seq: int, neighbours: List[int],
            hosts: List[MACAddress]) -> "LSMessage":
        return cls(_KIND_LSA, origin, seq, neighbours, hosts)

    @property
    def is_hello(self) -> bool:
        return self.kind == _KIND_HELLO

    @property
    def is_lsa(self) -> bool:
        return self.kind == _KIND_LSA

    def encode(self, following: bytes) -> bytes:
        head = struct.pack("!BQI", self.kind, self.origin, self.seq)
        body = struct.pack("!H", len(self.neighbours))
        for dpid in self.neighbours:
            body += struct.pack("!Q", dpid)
        body += struct.pack("!H", len(self.hosts))
        for mac in self.hosts:
            body += mac.packed()
        return head + body + following

    @classmethod
    def decode(cls, data: bytes):
        fixed = struct.Struct("!BQI")
        if len(data) < fixed.size + 2:
            raise DecodeError("LS message truncated")
        kind, origin, seq = fixed.unpack_from(data)
        offset = fixed.size
        (n_neigh,) = struct.unpack_from("!H", data, offset)
        offset += 2
        neighbours = []
        for _ in range(n_neigh):
            (dpid,) = struct.unpack_from("!Q", data, offset)
            neighbours.append(dpid)
            offset += 8
        (n_hosts,) = struct.unpack_from("!H", data, offset)
        offset += 2
        hosts = []
        for _ in range(n_hosts):
            hosts.append(MACAddress(data[offset:offset + 6]))
            offset += 6
        return cls(kind, origin, seq, neighbours, hosts), offset


register_ethertype(LS_ETHERTYPE, LSMessage)


class _Neighbour:
    __slots__ = ("dpid", "last_heard")

    def __init__(self, dpid: int, last_heard: float) -> None:
        self.dpid = dpid
        self.last_heard = last_heard


class _LsaRecord:
    __slots__ = ("seq", "neighbours", "hosts")

    def __init__(self, seq: int, neighbours: Set[int],
                 hosts: Set[MACAddress]) -> None:
        self.seq = seq
        self.neighbours = neighbours
        self.hosts = hosts


class LinkStateSwitch:
    """The local routing process of one switch."""

    def __init__(self, datapath: Datapath, hello_interval: float = 0.5,
                 carrier_detect: bool = False) -> None:
        self.dp = datapath
        self.dpid = datapath.dpid
        self.hello_interval = hello_interval
        self.dead_interval = 3 * hello_interval
        self.carrier_detect = carrier_detect
        #: port -> neighbour adjacency
        self.neighbours: Dict[int, _Neighbour] = {}
        #: local host mac -> port
        self.local_hosts: Dict[MACAddress, int] = {}
        #: origin dpid -> freshest LSA
        self.lsdb: Dict[int, _LsaRecord] = {}
        self._seq = 0
        self._last_refresh = 0.0
        self.routes: Dict[MACAddress, int] = {}
        self.route_recomputes = 0
        self.lsas_originated = 0
        self.lsas_flooded = 0
        self.last_route_change = 0.0
        datapath.on_packet_in = self._packet_in
        datapath.on_port_status = self._port_status
        datapath.install_flow(FlowEntry(
            Match(eth_type=LS_ETHERTYPE),
            [Output(PORT_CONTROLLER)],
            priority=65001,
        ))
        self._stop_hello = datapath.sim.call_every(
            hello_interval, self._tick, jitter=0.01
        )
        self._originate()

    def stop(self) -> None:
        self._stop_hello()

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self.dp.sim.now
        # Hellos on every live port.
        for port in self.dp.ports.values():
            if port.up:
                self._send(LSMessage.hello(self.dpid), port.number)
        # Dead-interval neighbour expiry.
        dead = [p for p, n in self.neighbours.items()
                if now - n.last_heard > self.dead_interval]
        if dead:
            for port in dead:
                del self.neighbours[port]
            self._originate()
        # Periodic LSA refresh.
        if now - self._last_refresh >= _REFRESH_INTERVAL:
            self._originate()

    # ------------------------------------------------------------------
    # Message plumbing
    # ------------------------------------------------------------------
    def _send(self, msg: LSMessage, port_no: int) -> None:
        port = self.dp.ports.get(port_no)
        if port is None or not port.up:
            return
        frame = (
            Ethernet(dst=_LS_MULTICAST, src=port.mac,
                     ethertype=LS_ETHERTYPE)
            / msg
        )
        self.dp.send_packet_out(frame, [Output(port_no)])

    def _flood(self, msg: LSMessage, except_port: Optional[int]) -> None:
        for port_no in self.neighbours:
            if port_no != except_port:
                self._send(msg, port_no)
                self.lsas_flooded += 1

    # ------------------------------------------------------------------
    # Packet handling
    # ------------------------------------------------------------------
    def _packet_in(self, packet: Packet, in_port: int,
                   reason: str) -> None:
        msg = packet.get(LSMessage)
        if msg is not None:
            if msg.is_hello:
                self._handle_hello(msg, in_port)
            else:
                self._handle_lsa(msg, in_port)
            return
        self._handle_data(packet, in_port)

    def _handle_hello(self, msg: LSMessage, in_port: int) -> None:
        now = self.dp.sim.now
        existing = self.neighbours.get(in_port)
        if existing is None or existing.dpid != msg.origin:
            self.neighbours[in_port] = _Neighbour(msg.origin, now)
            # Anything "learned" on this port was a switch, not a host.
            mislearned = [m for m, p in self.local_hosts.items()
                          if p == in_port]
            for mac in mislearned:
                del self.local_hosts[mac]
            # New adjacency: tell the network and sync our database to
            # the new neighbour.
            self._originate()
            for origin, record in self.lsdb.items():
                self._send(LSMessage.lsa(
                    origin, record.seq, sorted(record.neighbours),
                    sorted(record.hosts),
                ), in_port)
        else:
            existing.last_heard = now

    def _handle_lsa(self, msg: LSMessage, in_port: int) -> None:
        record = self.lsdb.get(msg.origin)
        if record is not None and msg.seq <= record.seq:
            return  # stale or duplicate
        self.lsdb[msg.origin] = _LsaRecord(
            msg.seq, set(msg.neighbours), set(msg.hosts)
        )
        self._flood(msg, except_port=in_port)
        self._recompute()

    def _handle_data(self, packet: Packet, in_port: int) -> None:
        eth = packet.get(Ethernet)
        if eth is None:
            return
        # Host learning on non-adjacency ports.
        if in_port not in self.neighbours and not eth.src.is_multicast:
            if self.local_hosts.get(eth.src) != in_port:
                self.local_hosts[eth.src] = in_port
                self._originate()
        out_port = self.routes.get(eth.dst)
        if out_port is not None and not eth.dst.is_multicast:
            self.dp.send_packet_out(packet, [Output(out_port)],
                                    in_port=in_port)
            return
        self._tree_flood(packet, in_port)

    def _port_status(self, port, reason: str) -> None:
        if not self.carrier_detect:
            return
        if not port.up and port.number in self.neighbours:
            del self.neighbours[port.number]
            self._originate()

    # ------------------------------------------------------------------
    # LSA origination and route computation
    # ------------------------------------------------------------------
    def _originate(self) -> None:
        self._seq += 1
        self._last_refresh = self.dp.sim.now
        self.lsas_originated += 1
        neighbours = sorted({n.dpid for n in self.neighbours.values()})
        hosts = sorted(self.local_hosts)
        self.lsdb[self.dpid] = _LsaRecord(
            self._seq, set(neighbours), set(hosts)
        )
        self._flood(LSMessage.lsa(self.dpid, self._seq, neighbours,
                                  hosts), except_port=None)
        self._recompute()

    def graph(self) -> nx.Graph:
        """Two-way-confirmed adjacency graph from the LSDB."""
        g = nx.Graph()
        for origin in self.lsdb:
            g.add_node(origin)
        for origin, record in self.lsdb.items():
            for neighbour in record.neighbours:
                other = self.lsdb.get(neighbour)
                if other is not None and origin in other.neighbours:
                    g.add_edge(origin, neighbour)
        return g

    def _port_toward(self, neighbour_dpid: int) -> Optional[int]:
        for port_no, neighbour in self.neighbours.items():
            if neighbour.dpid == neighbour_dpid:
                return port_no
        return None

    def _recompute(self) -> None:
        self.route_recomputes += 1
        graph = self.graph()
        new_routes: Dict[MACAddress, int] = dict(self.local_hosts)
        if self.dpid in graph:
            try:
                paths = nx.single_source_shortest_path(graph, self.dpid)
            except nx.NodeNotFound:  # pragma: no cover - defensive
                paths = {self.dpid: [self.dpid]}
            for origin, record in self.lsdb.items():
                if origin == self.dpid or origin not in paths:
                    continue
                path = paths[origin]
                if len(path) < 2:
                    continue
                port = self._port_toward(path[1])
                if port is None:
                    continue
                for mac in record.hosts:
                    new_routes.setdefault(mac, port)
        if new_routes != self.routes:
            self.routes = new_routes
            self.last_route_change = self.dp.sim.now
            self._program_routes()

    def _program_routes(self) -> None:
        table = self.dp.tables[0]
        table.delete(match=Match(), strict=False)
        self.dp.install_flow(FlowEntry(
            Match(eth_type=LS_ETHERTYPE),
            [Output(PORT_CONTROLLER)],
            priority=65001,
        ))
        for mac, port in self.routes.items():
            self.dp.install_flow(FlowEntry(
                Match(eth_dst=mac), [Output(port)],
                priority=_ROUTE_PRIORITY,
            ))

    # ------------------------------------------------------------------
    # Loop-free flooding for unknowns and broadcast
    # ------------------------------------------------------------------
    def _tree_flood(self, packet: Packet, in_port: int) -> None:
        graph = self.graph()
        ports: Set[int] = set()
        # Host-facing ports: anything live without an adjacency.
        for port in self.dp.ports.values():
            if port.up and port.number not in self.neighbours:
                ports.add(port.number)
        if self.dpid in graph and graph.number_of_edges() > 0:
            # The tree MUST be canonical: every switch floods along the
            # same tree or the "tree" has cycles and broadcasts storm.
            for edge in canonical_tree_edges(graph):
                if self.dpid in edge:
                    (other,) = edge - {self.dpid}
                    port = self._port_toward(other)
                    if port is not None:
                        ports.add(port)
        ports.discard(in_port)
        if ports:
            self.dp.send_packet_out(
                packet, [Output(p) for p in sorted(ports)],
                in_port=in_port,
            )

    def __repr__(self) -> str:
        return (
            f"<LinkStateSwitch {self.dpid} neighbours="
            f"{sorted(n.dpid for n in self.neighbours.values())} "
            f"routes={len(self.routes)}>"
        )


class LinkStateNetwork:
    """Attach a link-state routing agent to every switch."""

    def __init__(self, network: Network, hello_interval: float = 0.5,
                 carrier_detect: bool = False) -> None:
        self.network = network
        self.agents: Dict[str, LinkStateSwitch] = {
            name: LinkStateSwitch(dp, hello_interval=hello_interval,
                                  carrier_detect=carrier_detect)
            for name, dp in network.switches.items()
        }

    def converge(self, duration: float = 5.0) -> None:
        self.network.run(duration)

    @property
    def is_converged(self) -> bool:
        """Every agent's two-way graph spans all switches."""
        expected = set(a.dpid for a in self.agents.values())
        for agent in self.agents.values():
            graph = agent.graph()
            if set(graph.nodes) != expected:
                return False
            if not nx.is_connected(graph) and len(expected) > 1:
                return False
        return True

    def last_route_change(self) -> float:
        return max(a.last_route_change for a in self.agents.values())

    def stop(self) -> None:
        for agent in self.agents.values():
            agent.stop()
