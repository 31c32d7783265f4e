"""The switch-side ZOF agent.

A :class:`SwitchAgent` adapts a :class:`~repro.dataplane.switch.Datapath`
onto the switch end of a :class:`~repro.southbound.channel.ControlChannel`:
it answers the handshake, applies programming verbs, and converts datapath
callbacks into asynchronous ZOF events.  It is the only component that
knows both worlds, keeping the dataplane wire-protocol-free.

A configurable ``flowmod_delay`` models the install latency of real
switch ASICs (typically 1–10 ms for TCAM updates); barriers serialise
against it, which is what makes barrier-paced update schemes (zUpdate
et al.) meaningful to measure.
"""

from __future__ import annotations

from typing import Optional

from repro.dataplane.flowtable import FlowEntry
from repro.dataplane.meter import MeterEntry
from repro.dataplane.switch import Datapath, Port
from repro.errors import DataplaneError, TableFullError
from repro.packet import Packet
from repro.southbound.channel import ChannelEndpoint, ControlChannel
from repro.southbound.messages import (
    NO_BUFFER,
    BarrierReply,
    BarrierRequest,
    ControllerRole,
    EchoReply,
    EchoRequest,
    Error,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    FlowStatsEntry,
    GroupMod,
    Hello,
    Message,
    MeterMod,
    ModCommand,
    PacketIn,
    PacketOut,
    PortDesc,
    PortStatus,
    RoleReply,
    RoleRequest,
    StatsKind,
    StatsReply,
    StatsRequest,
)

__all__ = ["SwitchAgent", "BUFFER_SLOTS", "BUFFER_TTL"]

#: Punted frames one datapath holds for its controllers at any instant;
#: a punt that finds every slot live goes out unbuffered, carrying its
#: bytes both ways as before.  Table-miss floods with nowhere left to
#: go are never answered, so slots must also age out (``BUFFER_TTL``)
#: or a busy switch fills up for good.
BUFFER_SLOTS = 256
#: Simulated seconds a parked frame stays answerable: 50x the largest
#: control round trip any committed experiment uses (A1: 10 ms one-way).
BUFFER_TTL = 1.0


class _AgentGroup:
    """Every ZOF agent bound to one datapath, plus shared role state.

    A datapath accepts one control channel per controller instance; the
    group owns what OF 1.3 scopes to the *switch* rather than the
    connection: the ``generation_id`` fence (monotonic across all
    connections, so a stale master cannot out-claim a newer one) and
    the at-most-one-PRIMARY arbitration (granting PRIMARY silently
    demotes the previous PRIMARY connection to SECONDARY).  Datapath
    callbacks fan out to every agent; per-agent role filters decide
    who actually forwards them.
    """

    __slots__ = ("agents", "generation_id", "_sim", "_parked", "_next_id",
                 "buffered", "unbuffered", "consumed", "expired", "unknown")

    def __init__(self, datapath: Datapath) -> None:
        self.agents: list = []
        self.generation_id = 0
        self._sim = datapath.sim
        #: buffer_id -> (packet, parked_at), oldest first.  The packet
        #: *object* is parked: a frame in flight is immutable (rewrites
        #: copy), so the slot shares it with whoever else holds it.
        self._parked: dict = {}
        self._next_id = 0
        self.buffered = 0    # punts parked
        self.unbuffered = 0  # punts sent with NO_BUFFER (every slot live)
        self.consumed = 0    # parked frames a packet-out released
        self.expired = 0     # parked frames that outlived BUFFER_TTL
        self.unknown = 0     # packet-outs refused with BUFFER_UNKNOWN
        datapath.on_packet_in = self._fan_packet_in
        datapath.on_flow_removed = self._fan_flow_removed
        datapath.on_port_status = self._fan_port_status

    def _fan_packet_in(self, packet, in_port, reason) -> None:
        buffer_id = None
        for agent in self.agents:
            if agent._hears_packet_ins():
                if buffer_id is None:  # park once, whoever listens
                    buffer_id = self._park(packet)
                agent._send_packet_in(packet, in_port, reason, buffer_id)

    def _park(self, packet) -> int:
        """Park ``packet``; its buffer id, or ``NO_BUFFER`` when full.

        No timer reclaims a slot: the punt that needs room drops, from
        the front, whatever has outlived the TTL.
        """
        now = self._sim.now
        parked = self._parked
        while parked:
            oldest = next(iter(parked))
            if now - parked[oldest][1] <= BUFFER_TTL:
                break
            del parked[oldest]
            self.expired += 1
        if len(parked) >= BUFFER_SLOTS:
            self.unbuffered += 1
            return NO_BUFFER
        buffer_id = self._next_id
        self._next_id = (buffer_id + 1) % NO_BUFFER
        parked[buffer_id] = (packet, now)
        self.buffered += 1
        return buffer_id

    def take(self, buffer_id: int):
        """Release and return the frame parked under ``buffer_id``, or
        ``None`` when there is none or it has outlived the TTL."""
        slot = self._parked.pop(buffer_id, None)
        if slot is not None:
            packet, parked_at = slot
            if self._sim.now - parked_at <= BUFFER_TTL:
                self.consumed += 1
                return packet
            self.expired += 1
        self.unknown += 1
        return None

    def wipe(self) -> None:
        self._parked.clear()

    def buffer_stats(self) -> dict:
        return {
            "buffered": self.buffered,
            "unbuffered": self.unbuffered,
            "consumed": self.consumed,
            "expired": self.expired,
            "unknown": self.unknown,
            "live": len(self._parked),
        }

    def _fan_flow_removed(self, table_id, entry, reason) -> None:
        for agent in self.agents:
            agent._on_flow_removed(table_id, entry, reason)

    def _fan_port_status(self, port, reason) -> None:
        for agent in self.agents:
            agent._on_port_status(port, reason)


class SwitchAgent:
    """Binds one datapath to one control channel (switch side)."""

    def __init__(
        self,
        datapath: Datapath,
        channel: ControlChannel,
        flowmod_delay: float = 0.0,
    ) -> None:
        self.datapath = datapath
        self.channel = channel
        self.endpoint: ChannelEndpoint = channel.switch_end
        self.flowmod_delay = flowmod_delay
        self._tel = datapath.telemetry
        self.peer_version: Optional[int] = None
        self.controller_role = ControllerRole.EQUAL
        #: Simulated time at which the last queued flow-mod completes;
        #: barriers reply no earlier than this.
        self._apply_cursor = 0.0

        group = getattr(datapath, "_agent_group", None)
        if group is None:
            group = _AgentGroup(datapath)
            datapath._agent_group = group
        group.agents.append(self)
        self._group = group

        self.endpoint.handler = self._handle
        self.endpoint.on_connect = self._on_connect
        self.endpoint.on_disconnect = self._on_disconnect

    @property
    def generation_id(self) -> int:
        """The datapath-wide role-generation fence (shared, monotonic)."""
        return self._group.generation_id

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    def _on_connect(self) -> None:
        self.endpoint.send(Hello())

    def _on_disconnect(self) -> None:
        # Role state is per-connection and dies with it; the generation
        # fence belongs to the datapath and survives, so a reconnecting
        # controller must re-declare its role under the current fence.
        self.controller_role = ControllerRole.EQUAL

    def crash(self, wipe_state: bool = True) -> None:
        """Simulate the agent process dying (switch reboot).

        The control channel drops and, with ``wipe_state`` (the default),
        all programmed state — flow tables, groups, meters — is lost,
        like a hardware reboot.  ``wipe_state=False`` models only the
        agent process dying while the ASIC keeps forwarding on its
        installed rules (the ovs-vswitchd-crash case).
        """
        if self.channel.connected:
            self.channel.disconnect()
        self.peer_version = None
        self._apply_cursor = 0.0
        # Parked frames live in the agent process, not the ASIC.
        self._group.wipe()
        if wipe_state:
            for table in self.datapath.tables:
                table.clear()
            self.datapath.groups.clear()
            self.datapath.meters.clear()

    def restart(self) -> None:
        """Bring the agent back up: reconnect and re-handshake."""
        self.channel.connect()

    # ------------------------------------------------------------------
    # Datapath events -> ZOF messages
    # ------------------------------------------------------------------
    def _hears_packet_ins(self) -> bool:
        """SLAVE connections get no asynchronous packet-ins."""
        return (self.channel.connected
                and self.controller_role != ControllerRole.SECONDARY)

    def _send_packet_in(self, packet: Packet, in_port: int, reason: str,
                        buffer_id: int) -> None:
        data = packet.encode()
        if packet.trace_id is not None and self._tel.tracing:
            # The trace id cannot ride the wire; stash it keyed by the
            # encoded bytes and the controller adopts it on arrival.
            # Valid because the channel is ordered and lossless.
            self._tel.tracer.stash(("packet_in", in_port, data),
                                   packet.trace_id, scope=self.channel)
        self.endpoint.send(PacketIn(in_port, reason, data, buffer_id))

    def buffer_stats(self) -> dict:
        """Packet-buffer counters of this agent's datapath (shared by
        all its connections): punts ``buffered``/``unbuffered``, frames
        ``consumed`` by a packet-out or ``expired``, packet-outs refused
        as ``unknown``, and slots ``live`` now.  Diagnostics, like
        ``Datapath.fast_path_stats()`` — not part of ``stats()``."""
        return self._group.buffer_stats()

    def _on_flow_removed(self, table_id: int, entry: FlowEntry,
                         reason: str) -> None:
        if not self.channel.connected:
            return
        if self.controller_role == ControllerRole.SECONDARY:
            return  # the master narrates expiries, slaves stay quiet
        if not entry.flags & FlowMod.SEND_FLOW_REM:
            return
        now = self.datapath.sim.now
        self.endpoint.send(FlowRemoved(
            table_id=table_id,
            match=entry.match,
            priority=entry.priority,
            cookie=entry.cookie,
            reason=reason,
            duration=now - entry.install_time,
            packet_count=entry.packet_count,
            byte_count=entry.byte_count,
        ))

    def _on_port_status(self, port: Port, reason: str) -> None:
        if not self.channel.connected:
            return
        self.endpoint.send(PortStatus(reason, self._port_desc(port)))

    @staticmethod
    def _port_desc(port: Port) -> PortDesc:
        return PortDesc(port.number, port.mac.packed(), port.up)

    # ------------------------------------------------------------------
    # ZOF messages -> datapath operations
    # ------------------------------------------------------------------
    def _handle(self, msg: Message) -> None:
        # The programming verbs first: they are nearly all the traffic,
        # and a decoded message is exactly its wire type.
        kind = type(msg)
        if kind in _VERBS:
            if self.controller_role == ControllerRole.SECONDARY:
                # OF 1.3 §6.3.1: SLAVE controllers are read-only.
                self._send_error(msg, Error.BAD_ROLE,
                                 "connection is SLAVE; mutation refused")
            elif kind is PacketOut:
                self._apply_packet_out(msg)
            else:
                self._queue_apply(getattr(self, _VERBS[kind]), msg)
        elif isinstance(msg, Hello):
            self.peer_version = msg.version
        elif isinstance(msg, EchoRequest):
            self._reply(msg, EchoReply(msg.data))
        elif isinstance(msg, FeaturesRequest):
            self._reply(msg, FeaturesReply(
                dpid=self.datapath.dpid,
                num_tables=len(self.datapath.tables),
                ports=[self._port_desc(p)
                       for p in self.datapath.ports.values()],
            ))
        elif isinstance(msg, BarrierRequest):
            self._schedule_barrier(msg)
        elif isinstance(msg, StatsRequest):
            self._reply(msg, self._build_stats(msg))
        elif isinstance(msg, RoleRequest):
            self._apply_role(msg)
        elif isinstance(msg, (Error, EchoReply)):
            pass  # informational
        else:
            self._reply(msg, Error(
                Error.BAD_REQUEST,
                f"switch cannot handle {type(msg).__name__}",
            ))

    def _reply(self, request: Message, response: Message) -> None:
        response.xid = request.xid
        self.endpoint.send(response)

    # -- programming verbs, serialised behind flowmod_delay -----------
    def _queue_apply(self, fn, msg: Message) -> None:
        sim = self.datapath.sim
        now = sim.now
        finish = max(now, self._apply_cursor) + self.flowmod_delay
        self._apply_cursor = finish
        if finish <= now:
            fn(msg)
        else:
            sim.schedule_at(finish, fn, msg)

    def _schedule_barrier(self, msg: BarrierRequest) -> None:
        sim = self.datapath.sim
        at = max(sim.now, self._apply_cursor)
        if at <= sim.now:
            self._reply(msg, BarrierReply())
        else:
            sim.schedule_at(at, self._reply, msg, BarrierReply())

    def _apply_flow_mod(self, msg: FlowMod) -> None:
        try:
            if msg.command == FlowModCommand.ADD:
                entry = FlowEntry(msg.match, msg.actions, msg.priority,
                                  msg.idle_timeout, msg.hard_timeout,
                                  msg.cookie, msg.goto_table, msg.flags)
                self.datapath.install_flow(entry, msg.table_id)
            elif msg.command == FlowModCommand.MODIFY:
                table = self.datapath.table(msg.table_id)
                for entry in table.entries(
                    lambda e: e.match.is_subset_of(msg.match)
                ):
                    entry.actions = list(msg.actions)
                    entry.flags = msg.flags
                # In-place action rewrite bypasses the table's mutation
                # hooks; cached microflow paths hold the old actions.
                self.datapath.invalidate_fast_path()
            elif msg.command in (FlowModCommand.DELETE,
                                 FlowModCommand.DELETE_STRICT):
                self.datapath.remove_flows(
                    table_id=msg.table_id,
                    match=msg.match,
                    priority=msg.priority,
                    strict=msg.command == FlowModCommand.DELETE_STRICT,
                )
            else:
                raise DataplaneError(f"unknown FlowMod command {msg.command}")
        except TableFullError as exc:
            self._send_error(msg, Error.TABLE_FULL, str(exc))
        except DataplaneError as exc:
            self._send_error(msg, Error.BAD_REQUEST, str(exc))

    def _apply_group_mod(self, msg: GroupMod) -> None:
        groups = self.datapath.groups
        try:
            if msg.command == ModCommand.ADD:
                groups.add(msg.to_entry())
            elif msg.command == ModCommand.MODIFY:
                groups.modify(msg.to_entry())
            elif msg.command == ModCommand.DELETE:
                groups.delete(msg.group_id)
            else:
                raise DataplaneError(f"unknown GroupMod command {msg.command}")
        except DataplaneError as exc:
            self._send_error(msg, Error.BAD_GROUP, str(exc))

    def _apply_meter_mod(self, msg: MeterMod) -> None:
        meters = self.datapath.meters
        try:
            if msg.command == ModCommand.ADD:
                meters.add(MeterEntry(
                    msg.meter_id, msg.rate_bps, msg.burst_bytes or None
                ))
            elif msg.command == ModCommand.MODIFY:
                meters.modify(MeterEntry(
                    msg.meter_id, msg.rate_bps, msg.burst_bytes or None
                ))
            elif msg.command == ModCommand.DELETE:
                meters.delete(msg.meter_id)
            else:
                raise DataplaneError(f"unknown MeterMod command {msg.command}")
        except DataplaneError as exc:
            self._send_error(msg, Error.BAD_METER, str(exc))

    def _apply_packet_out(self, msg: PacketOut) -> None:
        dp = self.datapath
        # By value: a frame the switch never had (LLDP probe, ARP reply)
        # or could not park, so the bytes came with the message.
        by_value = msg.buffer_id == NO_BUFFER
        if msg.data and not by_value:
            self._send_error(msg, Error.BAD_REQUEST,
                             "packet-out names a buffer and carries data")
            return
        tid = None
        if self._tel.tracing:
            # Claimed before the lookup: a refused packet-out must not
            # leave its stash entry behind.
            tid, sent_at = self._tel.tracer.adopt((
                "packet_out", dp.dpid,
                msg.data if by_value else msg.buffer_id,
            ))
        if by_value:
            packet = Packet.decode(msg.data)
        else:
            packet = self._group.take(msg.buffer_id)
            if packet is None:
                dp.count_drop()
                self._send_error(msg, Error.BUFFER_UNKNOWN,
                                 f"no live buffer {msg.buffer_id}")
                return
        if tid is not None:
            # A parked frame kept this id; a decoded one needs it back.
            packet.trace_id = tid
            self._tel.tracer.record(
                tid, "channel.packet_out", "channel",
                start=sent_at, dpid=dp.dpid,
            )
        try:
            dp.send_packet_out(packet, msg.actions, msg.in_port)
        except DataplaneError as exc:
            self._send_error(msg, Error.BAD_ACTION, str(exc))

    def _apply_role(self, msg: RoleRequest) -> None:
        group = self._group
        if (msg.role != ControllerRole.EQUAL
                and msg.generation_id < group.generation_id):
            self._send_error(msg, Error.BAD_ROLE,
                             f"stale generation {msg.generation_id}")
            return
        if msg.role == ControllerRole.PRIMARY:
            # At most one PRIMARY per datapath: the previous master is
            # silently demoted (it learns via its own cluster view).
            for peer in group.agents:
                if (peer is not self
                        and peer.controller_role == ControllerRole.PRIMARY):
                    peer.controller_role = ControllerRole.SECONDARY
        self.controller_role = msg.role
        if msg.role != ControllerRole.EQUAL:
            group.generation_id = msg.generation_id
        self._reply(msg, RoleReply(self.controller_role,
                                   group.generation_id))

    def _send_error(self, request: Message, code: int, detail: str) -> None:
        err = Error(code, detail)
        err.xid = request.xid  # correlate with the failing request
        self.endpoint.send(err)

    # -- statistics ----------------------------------------------------
    def _build_stats(self, msg: StatsRequest) -> StatsReply:
        dp = self.datapath
        if msg.kind == StatsKind.PORT:
            return StatsReply(StatsKind.PORT, [
                p.stats() for p in dp.ports.values()
            ])
        if msg.kind == StatsKind.TABLE:
            return StatsReply(StatsKind.TABLE, [
                {
                    "table_id": t.table_id,
                    "active": len(t),
                    "lookups": t.lookup_count,
                    "matches": t.matched_count,
                }
                for t in dp.tables
            ])
        if msg.kind == StatsKind.FLOW:
            tables = (
                dp.tables if msg.table_id == 0xFF
                else [dp.table(msg.table_id)]
            )
            now = dp.sim.now
            entries = [
                FlowStatsEntry(
                    table_id=t.table_id,
                    priority=e.priority,
                    cookie=e.cookie,
                    packet_count=e.packet_count,
                    byte_count=e.byte_count,
                    duration=now - e.install_time,
                    match=e.match,
                )
                for t in tables
                for e in t
            ]
            return StatsReply(StatsKind.FLOW, entries)
        if msg.kind == StatsKind.AGGREGATE:
            packets = sum(e.packet_count for t in dp.tables for e in t)
            nbytes = sum(e.byte_count for t in dp.tables for e in t)
            return StatsReply(StatsKind.AGGREGATE, [{
                "packets": packets,
                "bytes": nbytes,
                "flows": dp.flow_count(),
            }])
        return StatsReply(msg.kind, [])

    def __repr__(self) -> str:
        return f"<SwitchAgent dpid={self.datapath.dpid}>"


#: Programming verb -> the agent method that applies it behind
#: ``flowmod_delay`` (a packet-out is applied at once).
_VERBS = {
    FlowMod: "_apply_flow_mod",
    GroupMod: "_apply_group_mod",
    MeterMod: "_apply_meter_mod",
    PacketOut: "_apply_packet_out",
}
