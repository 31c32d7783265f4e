"""The controller core: channel handshakes, switch handles, event bus.

The controller is deliberately thin — everything interesting lives in
apps.  The core's jobs are:

* complete the ZOF handshake on every accepted channel and mint a
  :class:`SwitchHandle`,
* decode asynchronous messages into typed events on the bus,
* model controller compute (an optional single-server queue for
  packet-in processing, so benchmark E3's saturation curve is honest),
* give apps an ergonomic programming surface (``add_flow``,
  ``packet_out``, ``barrier``, stats requests).
"""

from __future__ import annotations

import inspect
from typing import (
    Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple,
    Type,
)

from repro.controller.events import (
    ErrorEvent,
    Event,
    FlowRemovedEvent,
    PacketInEvent,
    PortStatusEvent,
    ResyncDone,
    SwitchEnter,
    SwitchLeave,
)
from repro.dataplane.actions import Action
from repro.dataplane.group import Bucket
from repro.dataplane.match import Match
from repro.errors import ControllerError
from repro.packet import Packet
from repro.sim import Simulator
from repro.southbound.channel import ChannelEndpoint, ControlChannel
from repro.southbound.codec import FrameCache
from repro.southbound.messages import (
    NO_BUFFER,
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    Error,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    GroupMod,
    Hello,
    Message,
    MeterMod,
    ModCommand,
    PacketIn,
    PacketOut,
    PortDesc,
    PortStatus,
    StatsKind,
    StatsReply,
    StatsRequest,
)

__all__ = ["Controller", "SwitchHandle", "App"]

#: Distinct punted frames a controller keeps decoded.  One frame punts
#: at each hop of its path within a few control round trips, so the
#: window only has to span the frames in flight.
PUNT_FRAMES = 256


class SwitchHandle:
    """The controller's view of one connected switch."""

    def __init__(self, controller: "Controller",
                 endpoint: ChannelEndpoint,
                 features: FeaturesReply) -> None:
        self.controller = controller
        self.endpoint = endpoint
        self.dpid = features.dpid
        self.num_tables = features.num_tables
        self.ports: Dict[int, PortDesc] = {
            p.number: p for p in features.ports
        }
        self.connected = True

    # ------------------------------------------------------------------
    # Programming surface
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> int:
        if not self.connected:
            raise ControllerError(f"switch {self.dpid} is disconnected")
        return self.endpoint.send(msg)

    def add_flow(
        self,
        match: Match,
        actions: List[Action],
        priority: int = 0,
        table_id: int = 0,
        idle_timeout: float = 0.0,
        hard_timeout: float = 0.0,
        cookie: int = 0,
        goto_table: Optional[int] = None,
        notify_removed: bool = False,
        owner: Optional[Hashable] = None,
    ) -> None:
        """Install one flow entry (ZOF FlowMod ADD).

        ``owner`` is who :meth:`Controller.update` reconciles the entry
        for; it is ledger state only and never reaches the wire.
        """
        flags = FlowMod.SEND_FLOW_REM if notify_removed else 0
        self.controller._ledger_record(self.dpid, {
            "match": match, "actions": list(actions), "priority": priority,
            "table_id": table_id, "idle_timeout": idle_timeout,
            "hard_timeout": hard_timeout, "cookie": cookie,
            "goto_table": goto_table, "notify_removed": notify_removed,
            "owner": owner,
        })
        ctx = self.controller._trace_ctx
        if ctx is not None:
            self.controller.telemetry.tracer.record(
                ctx, "flow.install", "controller",
                parent=self.controller._trace_span,
                dpid=self.dpid, table=table_id, priority=priority,
            )
        self.send(FlowMod(FlowModCommand.ADD, table_id, match, priority,
                          actions, idle_timeout, hard_timeout, cookie,
                          goto_table, flags))

    def delete_flows(
        self,
        match: Optional[Match] = None,
        table_id: int = 0,
        priority: Optional[int] = None,
        strict: bool = False,
        cookie: int = 0,
    ) -> None:
        command = (FlowModCommand.DELETE_STRICT if strict
                   else FlowModCommand.DELETE)
        self.controller._ledger_forget(
            self.dpid,
            match=match if match is not None else Match(),
            table_id=table_id,
            priority=priority if priority is not None else 0,
            strict=strict,
        )
        self.send(FlowMod(
            command=command,
            table_id=table_id,
            match=match if match is not None else Match(),
            priority=priority if priority is not None else 0,
            cookie=cookie,
        ))

    def packet_out(self, packet: Packet, actions: List[Action],
                   in_port: int = 0, buffer_id: int = NO_BUFFER) -> None:
        """Run ``actions`` on a frame at the switch: the frame it parked
        under ``buffer_id`` (``packet`` is then only the controller's
        view of it and is not sent), else ``packet``'s bytes."""
        data = packet.encode() if buffer_id == NO_BUFFER else b""
        msg = PacketOut(in_port, actions, data, buffer_id)
        ctx = self.controller._trace_ctx
        if ctx is None:
            ctx = packet.trace_id
        if ctx is not None:
            controller = self.controller
            controller.telemetry.tracer.record(
                ctx, "packet.out", "controller", dpid=self.dpid,
                parent=controller._trace_span)
            # The switch agent re-attaches the id after decoding.
            msg._trace = (ctx, controller.sim.now)
        self.send(msg)

    def barrier(self, callback: Optional[Callable[[], None]] = None) -> None:
        """Request a barrier; ``callback`` fires when the reply lands.

        The callback does *not* fire if the channel drops while the
        barrier is outstanding (the synthetic Error is swallowed) — a
        barrier certifies completed processing, which a dead channel
        cannot.
        """
        ctx = self.controller._trace_ctx
        parent = self.controller._trace_span
        requested_at = self.controller.sim.now
        if callback is None:
            if ctx is not None:
                self.controller.telemetry.tracer.record(
                    ctx, "barrier.request", "controller",
                    parent=parent, dpid=self.dpid)
            self.send(BarrierRequest())
            return

        def _on_reply(msg: Message) -> None:
            if not isinstance(msg, BarrierReply):
                return
            if ctx is not None:
                # The span covers request -> reply: everything the
                # switch had queued (flow-mods included) is committed.
                self.controller.telemetry.tracer.record(
                    ctx, "barrier", "controller", start=requested_at,
                    parent=parent, dpid=self.dpid)
            callback()

        self.endpoint.request(BarrierRequest(), _on_reply)

    def request_stats(self, kind: int,
                      callback: Callable[[StatsReply], None],
                      table_id: int = 0xFF,
                      timeout: float = 0.0, retries: int = 0,
                      on_failure: Optional[Callable[[Message], None]] = None,
                      ) -> None:
        self.endpoint.request(StatsRequest(kind, table_id), callback,
                              timeout=timeout, retries=retries,
                              on_failure=on_failure)

    def add_group(self, group_id: int, group_type: str,
                  buckets: List[Bucket]) -> None:
        self.send(GroupMod(ModCommand.ADD, group_id, group_type, buckets))

    def modify_group(self, group_id: int, group_type: str,
                     buckets: List[Bucket]) -> None:
        self.send(GroupMod(ModCommand.MODIFY, group_id, group_type, buckets))

    def delete_group(self, group_id: int) -> None:
        self.send(GroupMod(ModCommand.DELETE, group_id))

    def add_meter(self, meter_id: int, rate_bps: float,
                  burst_bytes: int = 0) -> None:
        self.send(MeterMod(ModCommand.ADD, meter_id, rate_bps, burst_bytes))

    def delete_meter(self, meter_id: int) -> None:
        self.send(MeterMod(ModCommand.DELETE, meter_id))

    def __repr__(self) -> str:
        state = "up" if self.connected else "down"
        return f"<SwitchHandle dpid={self.dpid} {state}>"


#: ``add_flow``'s optional keywords with their defaults: what completes
#: a rule handed to :meth:`Controller.update` into a ledger entry.
_FLOW_DEFAULTS = {
    name: param.default for name, param
    in inspect.signature(SwitchHandle.add_flow).parameters.items()
    if param.default is not param.empty}


def _ledger_key(spec: dict) -> Tuple[int, int, Match]:
    return spec["table_id"], spec["priority"], spec["match"]


class App:
    """Base class for controller applications.

    Override the ``on_*`` hooks you care about; :meth:`start` wires them
    to the event bus.  Apps see switches that connected before they were
    added via a synthetic :class:`SwitchEnter` replay.
    """

    name = "app"

    def __init__(self) -> None:
        self.controller: Optional["Controller"] = None

    def start(self, controller: "Controller") -> None:
        self.controller = controller
        controller.subscribe(SwitchEnter,
                             lambda ev: self.on_switch_enter(ev.switch),
                             owner=self.name)
        controller.subscribe(SwitchLeave,
                             lambda ev: self.on_switch_leave(ev.dpid),
                             owner=self.name)
        controller.subscribe(PacketInEvent, self.on_packet_in,
                             owner=self.name)
        controller.subscribe(FlowRemovedEvent, self.on_flow_removed,
                             owner=self.name)
        controller.subscribe(PortStatusEvent, self.on_port_status,
                             owner=self.name)
        controller.subscribe(ErrorEvent, self.on_error, owner=self.name)

    # -- overridable hooks ---------------------------------------------
    def on_switch_enter(self, switch: SwitchHandle) -> None:
        """A switch finished its handshake."""

    def on_switch_leave(self, dpid: int) -> None:
        """A switch disconnected."""

    def on_packet_in(self, event: PacketInEvent) -> None:
        """A packet was punted to the controller."""

    def on_flow_removed(self, event: FlowRemovedEvent) -> None:
        """A flow entry the controller asked to watch was removed."""

    def on_port_status(self, event: PortStatusEvent) -> None:
        """A switch port changed liveness."""

    def on_error(self, event: ErrorEvent) -> None:
        """The switch rejected something we sent."""

    @property
    def sim(self) -> Simulator:
        if self.controller is None:
            raise ControllerError(f"app {self.name} is not started")
        return self.controller.sim

    def __repr__(self) -> str:
        return f"<App {self.name}>"


class Controller:
    """A centralised SDN controller.

    Parameters
    ----------
    sim:
        The shared simulation kernel.
    packet_in_service_time:
        Seconds of controller CPU consumed per punted packet, modelled
        as a single-server FIFO.  0 disables the model (infinitely fast
        controller).
    """

    def __init__(self, sim: Simulator, name: str = "controller",
                 packet_in_service_time: float = 0.0) -> None:
        self.sim = sim
        self.name = name
        self.packet_in_service_time = packet_in_service_time
        self.switches: Dict[int, SwitchHandle] = {}
        self.apps: List[App] = []
        self._subscribers: Dict[Type[Event], List[Tuple[Callable, str]]] = {}
        self._endpoint_switch: Dict[ChannelEndpoint, SwitchHandle] = {}
        #: Intended flow state per dpid, keyed (table_id, priority, match)
        #: — ``add_flow``'s keywords, ``owner`` included; the source of
        #: truth resync and :meth:`update` reconcile the switch against.
        self._ledger: Dict[int, Dict[Tuple[int, int, Match], dict]] = {}
        #: Switches that dropped their channel; remembered (not forgotten)
        #: so the reconnect handshake can reconcile rather than rebuild.
        self._stale: Dict[int, SwitchHandle] = {}
        #: Handshake/resync robustness knobs (seconds / attempt counts).
        self.handshake_timeout = 0.5
        self.handshake_retries = 2
        self.resync_timeout = 1.0
        self.resync_retries = 1
        #: Punted frames decoded, by their bytes.
        self._frames = FrameCache(PUNT_FRAMES)
        #: When the controller CPU frees up (single-server queue model).
        self._cpu_free_at = 0.0
        # Counters for E3/E9.
        self.packet_ins_handled = 0
        self.packet_in_delays: List[float] = []
        self.events_published = 0
        # Counters for E11 / fault recovery.
        self.resyncs = 0
        self.resync_reinstalled = 0
        self.resync_deleted = 0
        self.resync_pruned = 0
        self.resync_failures = 0
        tel = self.telemetry = sim.telemetry
        #: Trace id of the packet-in currently being dispatched, so app
        #: spans and resulting flow-mods/packet-outs join its trace.
        self._trace_ctx: Optional[int] = None
        #: Span id of the innermost active span (dispatch, then the app
        #: handler) — the parent for flow-mod/packet-out/barrier spans,
        #: which is what turns a trace into a causal tree.
        self._trace_span: Optional[int] = None
        #: Pending resync trace contexts: dpid -> (trace_id, parent
        #: span, started_at), recorded when a traced adoption kicks off
        #: a ledger resync and closed by ``_on_resync_stats``.
        self._resync_trace: Dict[int, Tuple[int, Optional[int], float]] = {}
        self._m_packet_ins = tel.metrics.counter(
            "controller_packet_ins_total",
            "Packet-in messages dispatched to apps",
        )
        self._m_pi_delay = tel.metrics.histogram(
            "controller_packet_in_delay_seconds",
            "Queueing delay between packet-in arrival and dispatch",
        )
        self._m_resyncs = tel.metrics.counter(
            "controller_resyncs_total",
            "Flow-table resyncs completed after a reconnect",
        )
        self._m_resync_flows = tel.metrics.counter(
            "controller_resync_flows_total",
            "Flow entries touched by resyncs",
            ("action",),
        )
        self._g_stale = tel.metrics.gauge(
            "controller_stale_switches",
            "Switches currently disconnected but remembered",
        )

    # ------------------------------------------------------------------
    # Event bus
    # ------------------------------------------------------------------
    def subscribe(self, event_type: Type[Event],
                  handler: Callable[[Event], None],
                  owner: str = "-") -> None:
        """Register ``handler``; ``owner`` names the app for telemetry."""
        self._subscribers.setdefault(event_type, []).append((handler, owner))

    def publish(self, event: Event) -> None:
        self.events_published += 1
        handlers = self._subscribers.get(type(event), ())
        if self._trace_ctx is None:
            for handler, _owner in handlers:
                handler(event)
            return
        event_name = type(event).__name__
        tracer = self.telemetry.tracer
        for handler, owner in handlers:
            outer_span = self._trace_span
            # Recorded *before* the handler so flow-mod/packet-out spans
            # emitted inside it nest under the app span.  No wall time in
            # attrs: trace output must stay deterministic across
            # identical-seed runs.
            app_span = tracer.record(
                self._trace_ctx, f"app.{owner}", "app",
                start=self.sim.now, parent=outer_span,
                app=owner, event=event_name)
            self._trace_span = app_span
            try:
                handler(event)
            finally:
                self._trace_span = outer_span
            tracer.end_span(self._trace_ctx, app_span)

    # ------------------------------------------------------------------
    # App lifecycle
    # ------------------------------------------------------------------
    def add_app(self, app: App) -> App:
        """Register and start an app; replays SwitchEnter for live switches."""
        self.apps.append(app)
        app.start(self)
        for handle in self.switches.values():
            app.on_switch_enter(handle)
        return app

    def get_app(self, app_type: Type[App]) -> Optional[App]:
        for app in self.apps:
            if isinstance(app, app_type):
                return app
        return None

    # ------------------------------------------------------------------
    # Channel intake
    # ------------------------------------------------------------------
    def accept_channel(self, channel: ControlChannel) -> None:
        """Claim the controller end of ``channel`` and start the handshake.

        The channel may be connected before or after this call.
        """
        endpoint = channel.controller_end
        endpoint.handler = lambda msg: self._handle(endpoint, msg)
        endpoint.on_connect = lambda: endpoint.send(Hello())
        endpoint.on_disconnect = lambda: self._on_channel_down(endpoint)
        if channel.connected:
            endpoint.send(Hello())

    def _on_channel_down(self, endpoint: ChannelEndpoint) -> None:
        handle = self._endpoint_switch.pop(endpoint, None)
        if handle is None:
            return
        handle.connected = False
        self.switches.pop(handle.dpid, None)
        # Graceful degradation: remember the switch instead of forgetting
        # it.  SwitchLeave still fires so discovery tears its links down
        # and routing apps re-path around it; the retained handle's port
        # map seeds the reconciliation when the dpid comes back.
        self._stale[handle.dpid] = handle
        self._g_stale.set(len(self._stale))
        self.publish(SwitchLeave(handle.dpid))

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def _handle(self, endpoint: ChannelEndpoint, msg: Message) -> None:
        if isinstance(msg, Hello):
            endpoint.request(FeaturesRequest(),
                             lambda reply: self._on_features(endpoint, reply),
                             timeout=self.handshake_timeout,
                             retries=self.handshake_retries)
            return
        if isinstance(msg, EchoRequest):
            reply = EchoReply(msg.data)
            reply.xid = msg.xid
            endpoint.send(reply)
            return
        handle = self._endpoint_switch.get(endpoint)
        if handle is None:
            return  # pre-handshake noise
        if isinstance(msg, PacketIn):
            self._enqueue_packet_in(handle, msg)
        elif isinstance(msg, FlowRemoved):
            self._on_flow_removed_msg(handle, msg)
        elif isinstance(msg, PortStatus):
            port = msg.port
            handle.ports[port.number] = port
            self.publish(PortStatusEvent(handle, port.number, port.up))
        elif isinstance(msg, Error):
            self.publish(ErrorEvent(handle, msg.code, msg.detail))
        # Stats and barrier replies ride the xid request path.

    def _on_flow_removed_msg(self, handle: SwitchHandle,
                             msg: FlowRemoved) -> None:
        # The switch no longer holds this entry: drop the intent too,
        # or the next resync would resurrect an expired flow.
        flows = self._ledger.get(handle.dpid)
        if flows is not None:
            flows.pop((msg.table_id, msg.priority, msg.match), None)
        self.publish(FlowRemovedEvent(
            handle, msg.table_id, msg.match, msg.priority, msg.cookie,
            msg.reason, msg.duration, msg.packet_count, msg.byte_count,
        ))

    def _on_features(self, endpoint: ChannelEndpoint,
                     reply: Message) -> None:
        if not isinstance(reply, FeaturesReply):
            return  # handshake failed (channel down / retries exhausted)
        handle = SwitchHandle(self, endpoint, reply)
        stale = self._stale.pop(handle.dpid, None)
        self._g_stale.set(len(self._stale))
        self.switches[handle.dpid] = handle
        self._endpoint_switch[endpoint] = handle
        self.publish(SwitchEnter(handle))
        if stale is not None:
            self._reconcile_ports(handle, stale)
            self._start_resync(handle)

    # ------------------------------------------------------------------
    # Reconnect reconciliation (PROTOCOL.md §9)
    # ------------------------------------------------------------------
    def _reconcile_ports(self, handle: SwitchHandle,
                         stale: SwitchHandle) -> None:
        """Publish PortStatus deltas accumulated while the dpid was away.

        A port that died during the outage produced no PortStatus on the
        (dead) channel; the fresh FeaturesReply is the first truth we see.
        Publishing the diff lets discovery kill the adjacency immediately
        instead of waiting out its link timeout.
        """
        for number, port in handle.ports.items():
            old = stale.ports.get(number)
            if old is None or old.up != port.up:
                self.publish(PortStatusEvent(handle, number, port.up))
        for number in stale.ports:
            if number not in handle.ports:
                self.publish(PortStatusEvent(handle, number, False))

    def _start_resync(self, handle: SwitchHandle) -> None:
        """Reconcile the switch's flow tables against the intent ledger."""
        handle.request_stats(
            StatsKind.FLOW,
            lambda reply: self._on_resync_stats(handle, reply),
            timeout=self.resync_timeout,
            retries=self.resync_retries,
            on_failure=lambda _err: self._on_resync_failed(handle),
        )

    def _on_resync_failed(self, handle: SwitchHandle) -> None:
        self.resync_failures += 1
        # The channel died again mid-resync; the next reconnect restarts
        # the reconciliation from scratch, so nothing else to do here.

    def _on_resync_stats(self, handle: SwitchHandle,
                         reply: StatsReply) -> None:
        if not isinstance(reply, StatsReply):
            return
        intended = self._ledger.get(handle.dpid, {})
        actual = {(e.table_id, e.priority, e.match) for e in reply.entries}
        reinstalled = deleted = 0
        for key in list(intended):
            if key in actual:
                continue
            spec = intended[key]
            if spec["idle_timeout"] or spec["hard_timeout"]:
                # The switch legitimately expired it while we were away;
                # resurrect the intent and we would pin a dead flow.
                del intended[key]
                self.resync_pruned += 1
                continue
            handle.add_flow(**spec)
            reinstalled += 1
        for table_id, priority, match in actual - set(intended):
            handle.delete_flows(match=match, table_id=table_id,
                                priority=priority, strict=True)
            deleted += 1
        self.resyncs += 1
        self.resync_reinstalled += reinstalled
        self.resync_deleted += deleted
        self._m_resyncs.inc()
        self._m_resync_flows.labels("reinstalled").inc(reinstalled)
        self._m_resync_flows.labels("deleted").inc(deleted)
        pending = self._resync_trace.pop(handle.dpid, None)
        if pending is not None:
            tid, parent, started = pending
            self.telemetry.tracer.record(
                tid, "cluster.resync", "cluster", start=started,
                parent=parent, dpid=handle.dpid,
                reinstalled=reinstalled, deleted=deleted)
        self.publish(ResyncDone(handle, reinstalled, deleted))

    # ------------------------------------------------------------------
    # Intent ledger
    # ------------------------------------------------------------------
    def _ledger_record(self, dpid: int, spec: dict) -> None:
        """Write down one intended entry: ``add_flow``'s keywords."""
        self._ledger.setdefault(dpid, {})[_ledger_key(spec)] = spec

    def _ledger_forget(self, dpid: int, match: Match, table_id: int,
                       priority: int, strict: bool) -> None:
        flows = self._ledger.get(dpid)
        if not flows:
            return
        if strict:
            flows.pop((table_id, priority, match), None)
            return
        # Non-strict mirrors FlowTable.delete: every entry in the table
        # whose match is a subset of the given pattern goes.
        doomed = [key for key in flows
                  if key[0] == table_id and key[2].is_subset_of(match)]
        for key in doomed:
            del flows[key]

    def owned(self, owner: Hashable) -> Iterator[Tuple[int, dict]]:
        """``(dpid, entry)`` for every ledger entry ``owner`` holds,
        switches that are away included."""
        for dpid, flows in self._ledger.items():
            for spec in flows.values():
                if spec["owner"] == owner:
                    yield dpid, spec

    def owners_on(self, dpid: int) -> set:
        """Who holds entries on ``dpid`` (``None``: plain ``add_flow``)."""
        return {spec["owner"] for spec in self._ledger.get(dpid, {}).values()}

    # ------------------------------------------------------------------
    # Control updates: apps declare, the controller reconciles
    # ------------------------------------------------------------------
    def update(self, owner: Hashable,
               rules: Iterable[Tuple[int, dict]],
               on_done: Optional[Callable[[], None]] = None) -> None:
        """Make ``owner``'s entries on the connected switches ``rules``.

        ``rules`` is everything ``owner`` wants, as ``(dpid, add_flow
        keywords)`` pairs in sending order; it is read once.  New and
        changed rules go out first, then strict deletes for entries
        ``owner`` holds and no longer wants (make before break); what
        the ledger holds unchanged is not sent.  A switch that is away
        is not touched and its entries stay owned: the first update
        after it returns reconciles them.  ``on_done`` fires once every
        switch that was sent something has answered a barrier.
        """
        wanted = set()
        touched: Dict[int, SwitchHandle] = {}
        for dpid, rule in rules:
            spec = {**_FLOW_DEFAULTS, **rule, "owner": owner}
            key = _ledger_key(spec)
            wanted.add((dpid, key))
            handle = self.switches.get(dpid)
            if (handle is not None
                    and self._ledger.get(dpid, {}).get(key) != spec):
                handle.add_flow(**spec)
                touched[dpid] = handle
        for dpid, spec in list(self.owned(owner)):
            handle = self.switches.get(dpid)
            if (handle is not None
                    and (dpid, _ledger_key(spec)) not in wanted):
                handle.delete_flows(
                    match=spec["match"], table_id=spec["table_id"],
                    priority=spec["priority"], strict=True)
                touched[dpid] = handle
        if on_done is None:
            return
        pending = len(touched)

        def acked() -> None:
            nonlocal pending
            pending -= 1
            if not pending:
                on_done()

        for handle in touched.values():
            handle.barrier(acked)
        if not touched:
            on_done()

    # -- packet-in compute model ---------------------------------------
    def _enqueue_packet_in(self, handle: SwitchHandle,
                           msg: PacketIn) -> None:
        arrival = self.sim.now
        trace_id = None
        trace_parent = None
        if msg._trace is not None:
            trace_id, sent_at = msg._trace
            trace_parent = self.telemetry.tracer.record(
                trace_id, "channel.packet_in", "channel",
                start=sent_at, end=arrival, dpid=handle.dpid,
            )
        if self.packet_in_service_time <= 0:
            self._process_packet_in(handle, msg, arrival, trace_id,
                                    trace_parent)
            return
        start = max(arrival, self._cpu_free_at)
        finish = start + self.packet_in_service_time
        self._cpu_free_at = finish
        self.sim.schedule_at(finish, self._process_packet_in,
                             handle, msg, arrival, trace_id, trace_parent)

    def _process_packet_in(self, handle: SwitchHandle, msg: PacketIn,
                           arrival: float,
                           trace_id: Optional[int] = None,
                           trace_parent: Optional[int] = None) -> None:
        self.packet_ins_handled += 1
        delay = self.sim.now - arrival
        self.packet_in_delays.append(delay)
        self._m_packet_ins.inc()
        self._m_pi_delay.observe(delay)
        # The same bytes punt at every hop of a reactive path and of a
        # flood: decode them once, and hand the apps a copy to own.
        packet = self._frames.get(msg.data, Packet.decode, msg.data).copy()
        dispatch_span = None
        if trace_id is not None:
            packet.trace_id = trace_id
            dispatch_span = self.telemetry.tracer.record(
                trace_id, "controller.dispatch", "controller",
                start=arrival, parent=trace_parent,
                dpid=handle.dpid, reason=msg.reason,
            )
        self._trace_ctx = trace_id
        self._trace_span = dispatch_span
        try:
            self.publish(PacketInEvent(handle, msg.in_port, packet,
                                       msg.reason, msg.buffer_id))
        finally:
            self._trace_ctx = None
            self._trace_span = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def switch_count(self) -> int:
        return len(self.switches)

    def switch(self, dpid: int) -> SwitchHandle:
        handle = self.switches.get(dpid)
        if handle is None:
            raise ControllerError(f"no connected switch with dpid {dpid}")
        return handle

    def __repr__(self) -> str:
        return (
            f"<Controller {self.name!r}: {len(self.switches)} switches, "
            f"{len(self.apps)} apps>"
        )
