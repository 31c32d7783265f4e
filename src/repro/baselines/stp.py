"""Distributed baseline #1: spanning tree + flood-and-learn L2 switching.

This is the pre-SDN world the keynote argued against: every switch runs
its own local control logic, coordination happens through in-band BPDUs,
and nobody holds a global view.  Per-switch agents attach directly to the
datapath hooks — there is no controller and no control channel, so
steady-state forwarding is exactly as fast as the proactive SDN case,
but policy is impossible and convergence is protocol-bound.

The protocol is a faithful simplification of IEEE 802.1D:

* bridges exchange (root, cost, bridge, port) BPDUs every hello interval,
* lowest bridge id wins root; each non-root bridge picks a root port and
  marks designated/blocked ports by the standard comparisons,
* blocked ports are excluded from flooding and their ingress is dropped,
* BPDU information ages out after ``max_age``, reopening elections.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Tuple

from repro.dataplane.actions import Output, PORT_CONTROLLER, PORT_FLOOD
from repro.dataplane.flowtable import FlowEntry
from repro.dataplane.match import Match
from repro.dataplane.switch import Datapath
from repro.errors import DecodeError
from repro.netem.network import Network
from repro.packet import Ethernet, Header, MACAddress, Packet
from repro.packet.ethernet import register_ethertype

__all__ = ["BPDU", "StpSwitch", "SpanningTreeNetwork", "BPDU_ETHERTYPE"]

BPDU_ETHERTYPE = 0x88B5
_BPDU_MULTICAST = MACAddress("01:80:c2:00:00:00")
#: Idle timeout of a learned destination rule.
_LEARN_TIMEOUT = 30.0


class BPDU(Header):
    """A configuration BPDU: (root, root-path-cost, bridge, port).

    ``tc_deadline`` plays the role of 802.1D's topology-change flag: a
    bridge that changed port roles advertises a flush window, and every
    bridge that adopts a later deadline flushes its learned state.  The
    absolute-timestamp encoding is the simulation-friendly equivalent of
    the standard's root-driven TC-while timer.
    """

    name = "bpdu"
    _FMT = struct.Struct("!QIQId")

    def __init__(self, root: int = 0, cost: int = 0, bridge: int = 0,
                 port: int = 0, tc_deadline: float = 0.0) -> None:
        self.root = root
        self.cost = cost
        self.bridge = bridge
        self.port = port
        self.tc_deadline = tc_deadline

    def priority_vector(self) -> Tuple[int, int, int, int]:
        """Lower is better, per 802.1D comparisons."""
        return (self.root, self.cost, self.bridge, self.port)

    def encode(self, following: bytes) -> bytes:
        return self._FMT.pack(self.root, self.cost, self.bridge,
                              self.port, self.tc_deadline) + following

    @classmethod
    def decode(cls, data: bytes):
        if len(data) < cls._FMT.size:
            raise DecodeError("BPDU truncated")
        root, cost, bridge, port, tc = cls._FMT.unpack_from(data)
        return cls(root, cost, bridge, port, tc), cls._FMT.size


register_ethertype(BPDU_ETHERTYPE, BPDU)


class _PortInfo:
    """Best BPDU heard on a port, with freshness."""

    __slots__ = ("vector", "heard_at")

    def __init__(self, vector: Tuple[int, int, int, int],
                 heard_at: float) -> None:
        self.vector = vector
        self.heard_at = heard_at


class StpSwitch:
    """The local control agent of one bridge."""

    ROLE_ROOT = "root"
    ROLE_DESIGNATED = "designated"
    ROLE_BLOCKED = "blocked"

    def __init__(self, datapath: Datapath, hello_interval: float = 0.5,
                 max_age: float = 1.6) -> None:
        self.dp = datapath
        self.bridge_id = datapath.dpid
        self.hello_interval = hello_interval
        self.max_age = max_age
        #: Best received info per port.
        self._port_info: Dict[int, _PortInfo] = {}
        self.roles: Dict[int, str] = {}
        self.root_id = self.bridge_id
        self.root_cost = 0
        self.root_port: Optional[int] = None
        self.mac_table: Dict[MACAddress, int] = {}
        self.role_changes = 0
        self.last_role_change = 0.0
        #: Until this sim time our BPDUs advertise a topology change.
        self.tc_deadline = 0.0
        datapath.on_packet_in = self._packet_in
        datapath.on_port_status = self._port_status
        # BPDUs must reach the agent even on blocked ports, above the
        # per-port ingress drop rules installed by _apply_roles.
        datapath.install_flow(FlowEntry(
            Match(eth_type=BPDU_ETHERTYPE),
            [Output(PORT_CONTROLLER)],
            priority=65001,
        ))
        self._stop_hello = datapath.sim.call_every(
            hello_interval, self._hello_tick, jitter=0.01
        )
        self._recompute()

    def stop(self) -> None:
        self._stop_hello()

    # ------------------------------------------------------------------
    # Protocol timers
    # ------------------------------------------------------------------
    def _hello_tick(self) -> None:
        self._age_out()
        self._send_bpdus()

    def _send_bpdus(self) -> None:
        for port in self.dp.ports.values():
            if not port.up:
                continue
            # Only designated ports transmit configuration BPDUs.
            if self.roles.get(port.number) == self.ROLE_BLOCKED:
                continue
            tc = (self.tc_deadline
                  if self.dp.sim.now < self.tc_deadline else 0.0)
            frame = (
                Ethernet(dst=_BPDU_MULTICAST, src=port.mac,
                         ethertype=BPDU_ETHERTYPE)
                / BPDU(self.root_id, self.root_cost, self.bridge_id,
                       port.number, tc_deadline=tc)
            )
            self.dp.send_packet_out(frame, [Output(port.number)])

    def _age_out(self) -> None:
        now = self.dp.sim.now
        stale = [p for p, info in self._port_info.items()
                 if now - info.heard_at > self.max_age]
        if stale:
            for port in stale:
                del self._port_info[port]
            self._recompute()

    # ------------------------------------------------------------------
    # Packet handling (local, zero-latency)
    # ------------------------------------------------------------------
    def _packet_in(self, packet: Packet, in_port: int,
                   reason: str) -> None:
        bpdu = packet.get(BPDU)
        if bpdu is not None:
            self._handle_bpdu(bpdu, in_port)
            return
        if self.roles.get(in_port) == self.ROLE_BLOCKED:
            return  # discard data frames arriving on blocked ports
        self._learn_and_forward(packet, in_port)

    def _handle_bpdu(self, bpdu: BPDU, in_port: int) -> None:
        # Stored as sent; the +1 link cost applies only when deriving the
        # root path cost (802.1D keeps these separate, and conflating
        # them breaks the designated-port comparison).
        received = bpdu.priority_vector()
        if bpdu.tc_deadline > self.tc_deadline:
            # Adopt the flush window and propagate it in our own BPDUs.
            self.tc_deadline = bpdu.tc_deadline
            self._flush_learned()
        info = self._port_info.get(in_port)
        if (info is None or received <= info.vector
                or info.vector[2] == bpdu.bridge):
            self._port_info[in_port] = _PortInfo(received,
                                                 self.dp.sim.now)
            self._recompute()

    def _learn_and_forward(self, packet: Packet, in_port: int) -> None:
        eth = packet.get(Ethernet)
        if eth is None:
            return
        if not eth.src.is_multicast:
            self.mac_table[eth.src] = in_port
        out_port = self.mac_table.get(eth.dst)
        if (out_port is None or eth.dst.is_multicast
                or self.roles.get(out_port) == self.ROLE_BLOCKED):
            self.dp.send_packet_out(packet, [Output(PORT_FLOOD)],
                                    in_port=in_port)
            return
        # Install a dst rule so the fast path handles the rest.
        self.dp.install_flow(FlowEntry(
            Match(eth_dst=eth.dst),
            [Output(out_port)],
            priority=100,
            idle_timeout=_LEARN_TIMEOUT,
        ))
        self.dp.send_packet_out(packet, [Output(out_port)],
                                in_port=in_port)

    def _port_status(self, port, reason: str) -> None:
        self._port_info.pop(port.number, None)
        self._recompute()

    # ------------------------------------------------------------------
    # Role computation (802.1D comparisons)
    # ------------------------------------------------------------------
    def _recompute(self) -> None:
        # Root path selection: every received vector costs one more hop.
        own = (self.bridge_id, 0, self.bridge_id, 0)
        best = own
        best_port: Optional[int] = None
        for port_no, info in self._port_info.items():
            port = self.dp.ports.get(port_no)
            if port is None or not port.up:
                continue
            root, cost, bridge, sport = info.vector
            candidate = (root, cost + 1, bridge, sport)
            if candidate < best:
                best = candidate
                best_port = port_no
        self.root_id = best[0]
        self.root_cost = best[1] if best_port is not None else 0
        self.root_port = best_port

        new_roles: Dict[int, str] = {}
        for port in self.dp.ports.values():
            if not port.up:
                continue
            if port.number == best_port:
                new_roles[port.number] = self.ROLE_ROOT
                continue
            heard = self._port_info.get(port.number)
            # Our BPDU on this port vs. the one heard there, both as sent.
            ours = (self.root_id, self.root_cost, self.bridge_id,
                    port.number)
            if heard is None or ours < heard.vector:
                new_roles[port.number] = self.ROLE_DESIGNATED
            else:
                new_roles[port.number] = self.ROLE_BLOCKED
        if new_roles != self.roles:
            self.roles = new_roles
            self.role_changes += 1
            self.last_role_change = self.dp.sim.now
            # Open a flush window: our BPDUs will carry it network-wide.
            self.tc_deadline = max(
                self.tc_deadline, self.dp.sim.now + 2 * self.max_age
            )
            self._apply_roles()

    def _flush_learned(self) -> None:
        """Drop learned MACs and flows; keep the protocol rules alive."""
        self.mac_table.clear()
        for table in self.dp.tables:
            table.delete(match=Match(), priority=None, cookie=None,
                         strict=False)
        self.dp.install_flow(FlowEntry(
            Match(eth_type=BPDU_ETHERTYPE),
            [Output(PORT_CONTROLLER)],
            priority=65001,
        ))
        for port in self.dp.ports.values():
            if self.roles.get(port.number) == self.ROLE_BLOCKED:
                self.dp.install_flow(FlowEntry(
                    Match(in_port=port.number), [], priority=64000,
                ))

    def _apply_roles(self) -> None:
        for port in self.dp.ports.values():
            port.no_flood = (
                self.roles.get(port.number) == self.ROLE_BLOCKED
            )
        # Topology changed: flush learned state like a TCN would; this
        # also (re)installs the ingress-drop rules for blocked ports.
        self._flush_learned()

    @property
    def is_root_bridge(self) -> bool:
        return self.root_id == self.bridge_id

    def __repr__(self) -> str:
        return (
            f"<StpSwitch {self.bridge_id} root={self.root_id} "
            f"roles={self.roles}>"
        )


class SpanningTreeNetwork:
    """Attach an STP agent to every switch of a network."""

    def __init__(self, network: Network, hello_interval: float = 0.5,
                 max_age: float = 1.6) -> None:
        self.network = network
        self.agents: Dict[str, StpSwitch] = {
            name: StpSwitch(dp, hello_interval=hello_interval,
                            max_age=max_age)
            for name, dp in network.switches.items()
        }

    def converge(self, duration: float = 5.0) -> None:
        """Run the network long enough for the election to settle."""
        self.network.run(duration)

    @property
    def root_bridge(self) -> Optional[str]:
        roots = {a.root_id for a in self.agents.values()}
        if len(roots) != 1:
            return None
        root_id = roots.pop()
        for name, agent in self.agents.items():
            if agent.bridge_id == root_id:
                return name
        return None

    @property
    def is_converged(self) -> bool:
        """All agents agree on the root and no port is in limbo."""
        return self.root_bridge is not None

    def blocked_ports(self) -> int:
        return sum(
            1 for agent in self.agents.values()
            for role in agent.roles.values()
            if role == StpSwitch.ROLE_BLOCKED
        )

    def stop(self) -> None:
        for agent in self.agents.values():
            agent.stop()
