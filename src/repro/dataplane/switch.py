"""The switch datapath: ports plus a multi-table match-action pipeline.

A :class:`Datapath` is deliberately controller-agnostic — it exposes plain
Python callbacks (``on_packet_in``, ``on_flow_removed``, ``on_port_status``)
and a ``transmit`` hook, and knows nothing about the southbound wire
protocol.  The ZOF agent (:mod:`repro.southbound.agent`) adapts those
callbacks onto the control channel; the emulator
(:mod:`repro.netem.network`) wires ``transmit`` to links.  This strict
layering is design principle #1 in DESIGN.md.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.dataplane.actions import (
    PORT_ALL,
    PORT_CONTROLLER,
    PORT_FLOOD,
    PORT_IN_PORT,
    PORT_TABLE,
    Action,
    Group,
    TTLExpired,
    apply_actions,
)
from repro.dataplane.flowtable import FlowEntry, FlowTable, RemovalReason
from repro.dataplane.group import GroupTable
from repro.dataplane.match import FlowKey, Match, wire_fields
from repro.dataplane.meter import MeterTable
from repro.errors import DataplaneError
from repro.packet import MACAddress, Packet
from repro.sim import Simulator

__all__ = ["Datapath", "Port", "PacketInReason", "TableMissBehaviour"]

#: Recursion guard for group→group action chains.
_MAX_GROUP_DEPTH = 4

#: Microflow cache entries before a generation bump also clears the dict
#: (bounds memory; correctness never depends on eager clearing).
_FP_CACHE_MAX = 8192

#: Seconds between sweeps for idle/hard-timed-out flow entries.
_EXPIRY_INTERVAL = 1.0


class _CachedPath:
    """One resolved walk through the table pipeline for a microflow.

    ``steps`` is the exact lookup sequence the slow path performed:
    ``(table_id, entry_or_None, needs_key)`` triples, where ``needs_key``
    records whether the entry's actions consult the flow key (group
    selection) so replay only re-extracts keys when semantics demand it.
    ``terminal`` is how the walk ended: ``"stop"`` (entry with no goto),
    ``"punt"`` (miss sent to the controller) or ``"drop"``.
    """

    __slots__ = ("gen", "steps", "terminal")

    def __init__(self, gen: int, steps: list, terminal: str) -> None:
        self.gen = gen
        self.steps = steps
        self.terminal = terminal


class PacketInReason:
    """Why a packet was punted to the controller."""

    NO_MATCH = "no_match"
    ACTION = "action"
    TTL = "ttl_expired"


class TableMissBehaviour:
    """What a table does with a packet no entry matches."""

    CONTROLLER = "controller"
    DROP = "drop"
    CONTINUE = "continue"  # fall through to the next table


class Port:
    """A switch port: identity, liveness, and counters."""

    __slots__ = (
        "number",
        "mac",
        "up",
        "no_flood",
        "rx_packets",
        "rx_bytes",
        "tx_packets",
        "tx_bytes",
        "tx_drops",
        "name",
    )

    def __init__(self, number: int, mac: MACAddress, name: str = "") -> None:
        self.number = number
        self.mac = mac
        self.name = name or f"port{number}"
        self.up = True
        #: When set, FLOOD/ALL skip this port (OpenFlow's NO_FLOOD bit);
        #: used by the spanning-tree baseline to break loops.
        self.no_flood = False
        self.rx_packets = 0
        self.rx_bytes = 0
        self.tx_packets = 0
        self.tx_bytes = 0
        self.tx_drops = 0

    def stats(self) -> dict:
        return {
            "port": self.number,
            "rx_packets": self.rx_packets,
            "rx_bytes": self.rx_bytes,
            "tx_packets": self.tx_packets,
            "tx_bytes": self.tx_bytes,
            "tx_drops": self.tx_drops,
        }

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"<Port {self.number} ({self.name}) {state}>"


class Datapath:
    """A multi-table match-action switch.

    Parameters
    ----------
    dpid:
        Datapath id, unique in the network.
    sim:
        The simulation kernel (for timestamps and the expiry sweeper).
    num_tables:
        Pipeline depth; packets enter at table 0.
    table_capacity:
        Per-table entry limit (0 = unbounded).
    miss_behaviour:
        Default handling for table misses.  Reactive controllers want
        ``CONTROLLER``; proactive deployments often prefer ``DROP``.
    """

    def __init__(
        self,
        dpid: int,
        sim: Simulator,
        num_tables: int = 4,
        table_capacity: int = 0,
        eviction_policy: Optional[str] = None,
        miss_behaviour: str = TableMissBehaviour.CONTROLLER,
        fast_path: bool = True,
    ) -> None:
        if num_tables < 1:
            raise DataplaneError("a datapath needs at least one table")
        self.dpid = dpid
        self.sim = sim
        self.tables: List[FlowTable] = [
            FlowTable(i, capacity=table_capacity,
                      eviction_policy=eviction_policy)
            for i in range(num_tables)
        ]
        tel = self.telemetry = sim.telemetry
        self._tracing = tel.tracing
        # Read through to the aggregate counters below: the pipeline
        # counts once, for stats(), ZOF replies and telemetry alike.
        registry = tel.metrics
        registry.counter(
            "switch_rx_packets_total", "Packets entering the pipeline",
            ("dpid",),
        ).bind((dpid,), lambda: self.packets_received)
        registry.counter(
            "switch_forwarded_total", "Packets emitted on a port",
            ("dpid",),
        ).bind((dpid,), lambda: self.packets_forwarded)
        registry.counter(
            "switch_dropped_total", "Packets dropped by the pipeline",
            ("dpid",),
        ).bind((dpid,), lambda: self.packets_dropped)
        registry.counter(
            "switch_packet_ins_total", "Packets punted to the controller",
            ("dpid",),
        ).bind((dpid,), lambda: self.packets_to_controller)
        for flow_table in self.tables:
            flow_table.attach_metrics(registry, dpid)
        self.groups = GroupTable()
        self.meters = MeterTable()
        self.ports: Dict[int, Port] = {}
        self.miss_behaviour = miss_behaviour

        # Microflow fast path: exact-match cache in front of the table
        # pipeline, keyed by ingress port + the frame's wire_fields.  Any
        # table/group/meter mutation or port flap bumps the generation,
        # orphaning every cached path at O(1) cost.  The cache is
        # semantically invisible: replay reproduces every counter, trace
        # span, and side effect the slow path would have produced.
        self._fp_enabled = fast_path
        self._fp_cache: Dict[tuple, _CachedPath] = {}
        self._fp_gen = 0
        self.fast_path_hits = 0
        self.fast_path_misses = 0
        for flow_table in self.tables:
            flow_table.on_change = self.invalidate_fast_path
        self.groups.on_change = self.invalidate_fast_path
        self.meters.on_change = self.invalidate_fast_path

        # Hooks — the emulator sets transmit(port_no, packet, size), size
        # being len(packet) as this hop already read it; the southbound
        # agent (or a test) sets the on_* callbacks.  Safe no-op defaults.
        self.transmit: Callable[[int, Packet, int], None] = (
            lambda port, pkt, size: None)
        self.on_packet_in: Optional[
            Callable[[Packet, int, str], None]
        ] = None
        self.on_flow_removed: Optional[
            Callable[[int, FlowEntry, str], None]
        ] = None
        self.on_port_status: Optional[Callable[[Port, str], None]] = None

        # Aggregate counters.
        self.packets_received = 0
        self.packets_forwarded = 0
        self.packets_dropped = 0
        self.packets_to_controller = 0

        self._sweep_scheduled = False
        self._shutdown = False

    # ------------------------------------------------------------------
    # Port management
    # ------------------------------------------------------------------
    def add_port(self, number: int, mac: Optional[MACAddress] = None,
                 name: str = "") -> Port:
        if number in self.ports:
            raise DataplaneError(f"dpid {self.dpid}: port {number} exists")
        if number <= 0 or number >= PORT_IN_PORT:
            raise DataplaneError(f"physical port number invalid: {number}")
        if mac is None:
            mac = MACAddress.local((self.dpid << 16) | number)
        port = Port(number, mac, name=name)
        self.ports[number] = port
        return port

    def port(self, number: int) -> Port:
        port = self.ports.get(number)
        if port is None:
            raise DataplaneError(f"dpid {self.dpid}: no port {number}")
        return port

    def set_port_state(self, number: int, up: bool) -> None:
        """Administratively raise/lower a port, notifying the agent."""
        port = self.port(number)
        if port.up == up:
            return
        port.up = up
        self.invalidate_fast_path()
        if self.on_port_status is not None:
            reason = "up" if up else "down"
            self.on_port_status(port, reason)

    def port_is_live(self, number: int) -> bool:
        port = self.ports.get(number)
        return port is not None and port.up

    # ------------------------------------------------------------------
    # Table/group/meter programming (called by the southbound agent)
    # ------------------------------------------------------------------
    def table(self, table_id: int) -> FlowTable:
        if not 0 <= table_id < len(self.tables):
            raise DataplaneError(
                f"dpid {self.dpid}: no table {table_id} "
                f"(pipeline depth {len(self.tables)})"
            )
        return self.tables[table_id]

    def install_flow(self, entry: FlowEntry, table_id: int = 0) -> None:
        evicted = self.table(table_id).insert(entry, now=self.sim.now)
        for victim in evicted:
            self._notify_removed(table_id, victim, RemovalReason.EVICTION)
        if entry.idle_timeout or entry.hard_timeout:
            self._ensure_sweep()

    def remove_flows(
        self,
        table_id: int = 0,
        match: Optional[Match] = None,
        priority: Optional[int] = None,
        cookie: Optional[int] = None,
        strict: bool = False,
    ) -> int:
        removed = self.table(table_id).delete(
            match=match, priority=priority, cookie=cookie, strict=strict
        )
        for entry in removed:
            self._notify_removed(table_id, entry, RemovalReason.DELETE)
        return len(removed)

    def flow_count(self) -> int:
        return sum(len(t) for t in self.tables)

    # ------------------------------------------------------------------
    # The pipeline
    # ------------------------------------------------------------------
    def inject(self, packet: Packet, in_port: int) -> None:
        """A packet arrived on ``in_port``; run it through the pipeline."""
        port = self.ports.get(in_port)
        if port is None or not port.up:
            self.count_drop()
            return
        # The hop's one validated read: everything downstream is told.
        size, fields = packet.read(wire_fields)
        port.rx_packets += 1
        port.rx_bytes += size
        self.packets_received += 1
        if packet.trace_id is not None and self._tracing:
            self.telemetry.tracer.record(
                packet.trace_id, "switch.pipeline", "dataplane",
                dpid=self.dpid, in_port=in_port,
            )
        self._run_pipeline(packet, in_port, size, fields)

    def invalidate_fast_path(self) -> None:
        """Orphan every cached microflow path (O(1) generation bump).

        Called automatically on any flow/group/meter table change and on
        port status flaps; callers that mutate installed entries in
        place (e.g. FlowMod MODIFY rewriting actions) must call it too.
        """
        self._fp_gen += 1
        if len(self._fp_cache) > _FP_CACHE_MAX:
            self._fp_cache.clear()

    def _run_pipeline(self, packet: Packet, in_port: int, size: int,
                      fields: tuple) -> None:
        """Table 0 onward, for a frame sized and read (``wire_fields``)
        by the caller.  A cache hit builds no :class:`FlowKey`."""
        typed, hashable = fields
        steps: Optional[list] = None
        if self._fp_enabled:
            probe = (in_port,) + hashable
            path = self._fp_cache.get(probe)
            if path is not None and path.gen == self._fp_gen:
                self.fast_path_hits += 1
                self._replay(path, packet, in_port, size, typed)
                return
            self.fast_path_misses += 1
            steps = []
        terminal = self._walk(packet, in_port, FlowKey(in_port, *typed),
                              size, steps)
        if steps is not None and terminal is not None:
            # Walks where the packet died mid-pipeline (meter drop, TTL
            # expiry) are not cached: the truncated lookup sequence is
            # packet-state-dependent, not a property of the microflow.
            self._fp_cache[probe] = _CachedPath(self._fp_gen, steps,
                                               terminal)

    def _walk(self, packet: Packet, in_port: int, key: FlowKey, size: int,
              steps: Optional[list]) -> Optional[str]:
        """The slow path: walk the table pipeline, optionally recording
        each lookup into ``steps`` for the microflow cache.

        Returns the terminal kind (``"stop"``/``"punt"``/``"drop"``), or
        ``None`` when the packet died mid-walk and the recorded steps do
        not describe the full pipeline for this microflow.
        """
        table_id = 0
        while True:
            entry = self.tables[table_id].lookup(key)
            if steps is not None:
                needs_key = entry is not None and any(
                    isinstance(a, Group) for a in entry.actions
                )
                steps.append((table_id, entry, needs_key))
            if packet.trace_id is not None and self._tracing:
                self.telemetry.tracer.record(
                    packet.trace_id, "table.lookup", "dataplane",
                    dpid=self.dpid, table=table_id,
                    hit=entry is not None,
                    priority=entry.priority if entry is not None else "-",
                )
            if entry is None:
                behaviour = self.miss_behaviour
                if behaviour == TableMissBehaviour.CONTINUE:
                    if table_id + 1 < len(self.tables):
                        table_id += 1
                        continue
                    self.count_drop()
                    return "drop"
                if behaviour == TableMissBehaviour.CONTROLLER:
                    self._punt(packet, in_port, PacketInReason.NO_MATCH)
                    return "punt"
                self.count_drop()
                return "drop"
            entry.touch(self.sim.now, size)
            goto = entry.goto_table
            rewritten = self._execute(entry.actions, packet, in_port, key,
                                      size, has_goto=goto is not None)
            if rewritten is None:
                return None  # metered out or TTL-expired
            if goto is None:
                return "stop"
            if goto <= table_id:
                raise DataplaneError(
                    f"goto_table must move forward ({table_id} -> {goto})"
                )
            table_id = goto
            if rewritten is not packet:
                # Later tables match, and count, the frame as it is now.
                packet = rewritten
                size, (typed, _) = packet.read(wire_fields)
                key = FlowKey(in_port, *typed)

    def _replay(self, path: _CachedPath, packet: Packet, in_port: int,
                size: int, typed: tuple) -> None:
        """Re-execute a cached pipeline walk without any table lookups.

        Every observable effect of the slow path is reproduced — entry
        counters, per-table lookup/match stats, trace spans, punts and
        drops — so a run is bit-identical with the cache on or off.
        Actions still execute against the live packet, and the packet
        can still die at a meter or TTL check exactly as it would have.
        """
        key = None  # built only if a SELECT group asks for it
        now = self.sim.now
        tracing = packet.trace_id is not None and self._tracing
        tables = self.tables
        for table_id, entry, needs_key in path.steps:
            hit = entry is not None
            tables[table_id].record_lookup(hit)
            if tracing:
                self.telemetry.tracer.record(
                    packet.trace_id, "table.lookup", "dataplane",
                    dpid=self.dpid, table=table_id, hit=hit,
                    priority=entry.priority if hit else "-",
                )
            if not hit:
                continue
            entry.touch(now, size)
            if needs_key and key is None:
                key = FlowKey(in_port, *typed)
            goto = entry.goto_table is not None
            rewritten = self._execute(entry.actions, packet, in_port, key,
                                      size, has_goto=goto)
            if rewritten is None:
                return  # metered out or TTL-expired, same as the walk
            if rewritten is not packet:
                packet, key = rewritten, None
                if goto:  # later steps count the frame as it is now
                    size, (typed, _) = packet.read(wire_fields)
        if path.terminal == "punt":
            self._punt(packet, in_port, PacketInReason.NO_MATCH)
        elif path.terminal == "drop":
            self.count_drop()

    def _execute(
        self,
        actions: Iterable[Action],
        packet: Packet,
        in_port: int,
        key: Optional[FlowKey],
        size: int,
        depth: int = 0,
        has_goto: bool = False,
    ) -> Optional[Packet]:
        """Apply an action list, resolving outputs/groups/meters.

        Returns the rewritten packet for goto_table continuation, or
        ``None`` when the packet died here (meter drop, TTL expiry).
        """
        try:
            rewritten, out_ports, group_ids, meter_ids = apply_actions(
                actions, packet, in_port
            )
        except TTLExpired:
            self._punt(packet, in_port, PacketInReason.TTL)
            return None
        if rewritten is not packet:  # copy-on-rewrite: else same frame
            size = len(rewritten)
        for meter_id in meter_ids:
            if not self.meters.get(meter_id).allow(size, self.sim.now):
                self.count_drop()
                return None
        for port_no in out_ports:
            self._emit(rewritten, in_port, port_no, size)
        for group_id in group_ids:
            self._run_group(rewritten, in_port, key, group_id, depth, size)
        if not out_ports and not group_ids and not meter_ids and not has_goto:
            # Empty action list with no continuation = explicit drop.
            self.count_drop()
        return rewritten

    def _run_group(self, packet: Packet, in_port: int, key: FlowKey,
                   group_id: int, depth: int, size: int) -> None:
        if depth >= _MAX_GROUP_DEPTH:
            raise DataplaneError(
                f"group recursion deeper than {_MAX_GROUP_DEPTH}"
            )
        group = self.groups.get(group_id)
        buckets = group.select_buckets(key, self.port_is_live)
        if not buckets:
            self.count_drop()
            return
        for bucket in buckets:
            self._execute(bucket.actions, packet, in_port, key, size,
                          depth + 1)

    def _emit(self, packet: Packet, in_port: int, port_no: int,
              size: int) -> None:
        if port_no == PORT_CONTROLLER:
            self._punt(packet, in_port, PacketInReason.ACTION)
            return
        if port_no == PORT_TABLE:
            self._run_pipeline(packet, in_port, *packet.read(wire_fields))
            return
        if port_no == PORT_IN_PORT:
            self._transmit_one(packet, in_port, size)
            return
        if port_no in (PORT_FLOOD, PORT_ALL):
            for port in self.ports.values():
                if port.number == in_port and port_no == PORT_FLOOD:
                    continue
                if not port.up or (port.no_flood and port_no == PORT_FLOOD):
                    continue
                self._transmit_one(packet, port.number, size)
            return
        if port_no == in_port:
            # Per the OpenFlow spec, a packet is never emitted on its
            # ingress port unless IN_PORT is named explicitly.  Without
            # this guard a dst-rule whose learned port equals the
            # ingress hairpins the frame and poisons upstream learning.
            self.count_drop()
            return
        self._transmit_one(packet, port_no, size)

    def _transmit_one(self, packet: Packet, port_no: int, size: int) -> None:
        port = self.ports.get(port_no)
        if port is None or not port.up:
            self.count_drop()
            if port is not None:
                port.tx_drops += 1
            return
        port.tx_packets += 1
        port.tx_bytes += size
        self.packets_forwarded += 1
        if packet.trace_id is not None and self._tracing:
            self.telemetry.tracer.record(
                packet.trace_id, "switch.forward", "dataplane",
                dpid=self.dpid, port=port_no,
            )
        self.transmit(port_no, packet, size)

    def send_packet_out(self, packet: Packet, actions: List[Action],
                        in_port: int = 0) -> None:
        """Controller-originated transmission (ZOF packet-out)."""
        # Only group selection reads the flow key (as in _replay).
        key = None
        if any(isinstance(a, Group) for a in actions):
            key = FlowKey.from_packet(packet, in_port)
        self._execute(actions, packet, in_port, key, len(packet))

    def _punt(self, packet: Packet, in_port: int, reason: str) -> None:
        self.packets_to_controller += 1
        if packet.trace_id is not None and self._tracing:
            self.telemetry.tracer.record(
                packet.trace_id, "switch.punt", "dataplane",
                dpid=self.dpid, reason=reason,
            )
        if self.on_packet_in is not None:
            self.on_packet_in(packet, in_port, reason)

    def count_drop(self) -> None:
        """Account one dropped packet (the agent calls this for a
        packet-out whose buffered frame is gone)."""
        self.packets_dropped += 1

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------
    def _ensure_sweep(self) -> None:
        """Arm the expiry sweeper if it is not already pending.

        The sweeper is demand-driven: it only stays scheduled while some
        entry carries a timeout, so an idle datapath leaves the event
        queue empty (letting ``run_until_idle`` terminate).
        """
        if self._sweep_scheduled or self._shutdown:
            return
        self._sweep_scheduled = True
        self.sim.schedule(_EXPIRY_INTERVAL, self._sweep)

    def _sweep(self) -> None:
        self._sweep_scheduled = False
        if self._shutdown:
            return
        rearm = False
        for table in self.tables:
            for entry, reason in table.expire(self.sim.now):
                self._notify_removed(table.table_id, entry, reason)
            if table.has_timeouts:
                rearm = True
        if rearm:
            self._ensure_sweep()

    def _notify_removed(self, table_id: int, entry: FlowEntry,
                        reason: str) -> None:
        if self.on_flow_removed is not None:
            self.on_flow_removed(table_id, entry, reason)

    def shutdown(self) -> None:
        """Stop periodic work; the datapath becomes inert."""
        self._shutdown = True

    def stats(self) -> dict:
        return {
            "dpid": self.dpid,
            "received": self.packets_received,
            "forwarded": self.packets_forwarded,
            "dropped": self.packets_dropped,
            "to_controller": self.packets_to_controller,
            "flows": self.flow_count(),
        }

    def fast_path_stats(self) -> dict:
        """Microflow cache effectiveness (perf diagnostics, not protocol
        state — deliberately separate from :meth:`stats`)."""
        total = self.fast_path_hits + self.fast_path_misses
        return {
            "enabled": self._fp_enabled,
            "hits": self.fast_path_hits,
            "misses": self.fast_path_misses,
            "hit_rate": self.fast_path_hits / total if total else 0.0,
            "cached_paths": len(self._fp_cache),
            "generation": self._fp_gen,
        }

    def __repr__(self) -> str:
        return (
            f"<Datapath dpid={self.dpid} ports={len(self.ports)} "
            f"flows={self.flow_count()}>"
        )
