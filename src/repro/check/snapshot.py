"""Read-only forwarding-state snapshots for the verification plane.

A :class:`NetworkSnapshot` freezes everything the checker needs to reason
about a network — flow tables, groups, port liveness, link adjacency,
host attachment points, and control-channel health — into plain value
objects with **zero** feedback into the simulation.

The capture path is deliberately paranoid about perturbation, mirroring
the telemetry doctrine ("telemetry must never perturb the simulation"):

* flow entries are read via :meth:`FlowTable.entries` (canonical
  iteration), never :meth:`FlowTable.lookup`, which would bump
  ``lookup_count`` and diverge stats replies;
* group buckets are copied by hand, never resolved through
  :meth:`GroupEntry.select_buckets`, which increments ``packet_count``;
* no kernel events are scheduled and no randomness is drawn, so a run
  with snapshotting enabled is bit-identical to one without.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dataplane.actions import Action
from repro.dataplane.match import Match
from repro.netem.network import Network
from repro.packet import IPv4Address, MACAddress

__all__ = [
    "FlowEntrySnap",
    "TableSnap",
    "GroupSnap",
    "PortSnap",
    "DatapathSnap",
    "HostSnap",
    "NetworkSnapshot",
]


class FlowEntrySnap:
    """One flow entry, frozen: match, actions, and pipeline continuation."""

    __slots__ = ("match", "priority", "seq", "actions", "goto_table",
                 "cookie", "table_id")

    def __init__(self, match: Match, priority: int, seq: int,
                 actions: Tuple[Action, ...], goto_table: Optional[int],
                 cookie: int, table_id: int) -> None:
        self.match = match
        self.priority = priority
        self.seq = seq
        self.actions = actions
        self.goto_table = goto_table
        self.cookie = cookie
        self.table_id = table_id

    def __repr__(self) -> str:
        return (f"<FlowEntrySnap t{self.table_id} prio={self.priority} "
                f"{self.match!r}>")


class TableSnap:
    """One flow table in canonical lookup order.

    ``entries`` preserves the (-priority, -seq) iteration order of the
    live table, so "first match wins" over this list reproduces exactly
    what :meth:`FlowTable.lookup` would return.
    """

    __slots__ = ("table_id", "entries")

    def __init__(self, table_id: int,
                 entries: List[FlowEntrySnap]) -> None:
        self.table_id = table_id
        self.entries = entries


class GroupSnap:
    """A group entry: type plus frozen ``(actions, watch_port, weight)``
    buckets."""

    __slots__ = ("group_id", "group_type", "buckets")

    def __init__(self, group_id: int, group_type: str,
                 buckets: List[Tuple[Tuple[Action, ...], Optional[int],
                                     int]]) -> None:
        self.group_id = group_id
        self.group_type = group_type
        self.buckets = buckets


class PortSnap:
    __slots__ = ("number", "up", "no_flood")

    def __init__(self, number: int, up: bool, no_flood: bool) -> None:
        self.number = number
        self.up = up
        self.no_flood = no_flood


class DatapathSnap:
    """One switch's frozen pipeline state."""

    __slots__ = ("name", "dpid", "tables", "groups", "ports",
                 "miss_behaviour", "channel_up")

    def __init__(self, name: str, dpid: int, tables: List[TableSnap],
                 groups: Dict[int, GroupSnap],
                 ports: Dict[int, PortSnap], miss_behaviour: str,
                 channel_up: bool) -> None:
        self.name = name
        self.dpid = dpid
        self.tables = tables
        self.groups = groups
        self.ports = ports
        self.miss_behaviour = miss_behaviour
        #: Whether the switch could actually reach its controller at
        #: capture time.  A punt at a switch with a dead channel is a
        #: blackhole, not a recoverable miss.
        self.channel_up = channel_up

    def port_is_live(self, number: int) -> bool:
        port = self.ports.get(number)
        return port is not None and port.up


class HostSnap:
    """A host's identity and attachment point."""

    __slots__ = ("name", "mac", "ip", "switch", "port", "link_up")

    def __init__(self, name: str, mac: MACAddress, ip: IPv4Address,
                 switch: str, port: int, link_up: bool) -> None:
        self.name = name
        self.mac = mac
        self.ip = ip
        self.switch = switch
        self.port = port
        self.link_up = link_up


class NetworkSnapshot:
    """The complete forwarding state of a network at one instant.

    ``adjacency`` maps ``(switch_name, port)`` to
    ``(peer_kind, peer_name, peer_port, link_up)`` where ``peer_kind``
    is ``"switch"`` or ``"host"`` (``peer_port`` is 0 for hosts).
    """

    __slots__ = ("time", "switches", "hosts", "adjacency")

    def __init__(self, time: float, switches: Dict[str, DatapathSnap],
                 hosts: Dict[str, HostSnap],
                 adjacency: Dict[Tuple[str, int],
                                 Tuple[str, str, int, bool]]) -> None:
        self.time = time
        self.switches = switches
        self.hosts = hosts
        self.adjacency = adjacency

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, net: Network) -> "NetworkSnapshot":
        """Freeze ``net``'s forwarding state.  Pure read: touches no
        counters, schedules nothing, draws no randomness."""
        channels = net.channels
        switches: Dict[str, DatapathSnap] = {}
        for name in sorted(net.switches):
            dp = net.switches[name]
            tables = []
            for table in dp.tables:
                entries = [
                    FlowEntrySnap(
                        e.match, e.priority, e._seq, tuple(e.actions),
                        e.goto_table, e.cookie, table.table_id,
                    )
                    for e in table.entries()
                ]
                tables.append(TableSnap(table.table_id, entries))
            groups = {
                g.group_id: GroupSnap(
                    g.group_id, g.group_type,
                    [(tuple(b.actions), b.watch_port, b.weight)
                     for b in g.buckets],
                )
                for g in dp.groups
            }
            ports = {
                p.number: PortSnap(p.number, p.up, p.no_flood)
                for p in dp.ports.values()
            }
            channel = channels.get(name)
            switches[name] = DatapathSnap(
                name, dp.dpid, tables, groups, ports,
                dp.miss_behaviour,
                channel_up=(channel is None or channel.connected),
            )

        adjacency: Dict[Tuple[str, int], Tuple[str, str, int, bool]] = {}
        hosts: Dict[str, HostSnap] = {}
        topo = net.topology
        for name in sorted(net.switches):
            for neighbour in sorted(topo.neighbours(name)):
                port = net.port_of(name, neighbour)
                link_up = net.link(name, neighbour).up
                if neighbour in net.switches:
                    peer_port = net.port_of(neighbour, name)
                    adjacency[(name, port)] = (
                        "switch", neighbour, peer_port, link_up)
                else:
                    adjacency[(name, port)] = (
                        "host", neighbour, 0, link_up)
        for name in sorted(net.hosts):
            host = net.hosts[name]
            attached = [n for n in topo.neighbours(name)
                        if n in net.switches]
            if not attached:
                continue  # pragma: no cover - validated topologies
            sw = attached[0]
            port = net.port_of(sw, name)
            hosts[name] = HostSnap(
                name, host.mac, host.ip, sw, port,
                link_up=net.link(sw, name).up,
            )
        return cls(net.sim.now, switches, hosts, adjacency)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def edge_ports(self) -> List[Tuple[str, int, HostSnap]]:
        """Host-facing ingress points, sorted by host name."""
        return [(h.switch, h.port, h)
                for h in (self.hosts[n] for n in sorted(self.hosts))]

    def total_flows(self) -> int:
        return sum(len(t.entries) for s in self.switches.values()
                   for t in s.tables)

    def __repr__(self) -> str:
        return (f"<NetworkSnapshot t={self.time:.3f} "
                f"{len(self.switches)} switches, "
                f"{self.total_flows()} flows>")
