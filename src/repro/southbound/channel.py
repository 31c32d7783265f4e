"""The control channel between a switch and its controller.

Messages are *actually serialised* at the sending endpoint and reparsed at
the receiving one, so codec bugs surface in integration tests and the
byte counts reported for benchmark E9 are real.  The channel models
propagation latency, optional serialisation bandwidth, and in-order
delivery (ZOF, like OpenFlow, assumes a TCP-like transport).

Failure semantics (see PROTOCOL.md §9): each ``connect()`` starts a new
*connection epoch*.  Deliveries are stamped with the epoch they were sent
in and dropped on arrival if the channel has since disconnected — even if
it reconnected in the meantime — so "in-flight messages are lost" holds
across arbitrarily fast flaps.  Pending xid-correlated requests are
failed explicitly on disconnect, and :meth:`ChannelEndpoint.request`
supports timeout/retry with exponential backoff for callers that must
survive a lossy control plane.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Optional

from repro.errors import ChannelClosedError
from repro.sim import Simulator
from repro.southbound.messages import (
    Error,
    Message,
    REPLY_TYPES,
    decode_message,
    encode_message,
)

__all__ = ["ControlChannel", "ChannelEndpoint", "ChannelStats"]

#: A decoded message is exactly its wire type, so a set lookup answers
#: "is this a reply" without walking the tuple.
_REPLIES = frozenset(REPLY_TYPES)


class ChannelStats:
    """Per-direction message and byte counters, broken down by type."""

    def __init__(self) -> None:
        self.messages = 0
        self.bytes = 0
        self.by_type: Dict[str, int] = defaultdict(int)
        self.bytes_by_type: Dict[str, int] = defaultdict(int)

    def record(self, msg: Message, size: int) -> None:
        name = type(msg).__name__
        self.messages += 1
        self.bytes += size
        self.by_type[name] += 1
        self.bytes_by_type[name] += size

    def snapshot(self) -> dict:
        return {
            "messages": self.messages,
            "bytes": self.bytes,
            "by_type": dict(self.by_type),
        }

    def __repr__(self) -> str:
        return f"<ChannelStats {self.messages} msgs, {self.bytes} B>"


class _PendingRequest:
    """Book-keeping for one outstanding xid-correlated request."""

    __slots__ = ("msg", "callback", "on_failure", "timeout", "retries_left",
                 "backoff", "timer")

    def __init__(self, msg: Message, callback: Callable[[Message], None],
                 on_failure: Optional[Callable[[Message], None]],
                 timeout: float, retries: int, backoff: float) -> None:
        self.msg = msg
        self.callback = callback
        self.on_failure = on_failure
        self.timeout = timeout
        self.retries_left = retries
        self.backoff = backoff
        self.timer = None

    def cancel_timer(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None


class ChannelEndpoint:
    """One side of a control channel.

    ``handler`` receives every inbound message.  :meth:`request` provides
    xid-correlated request/reply: the callback fires instead of the
    handler when the reply arrives.  Requests can opt into a timeout with
    exponential-backoff retries; requests outstanding at disconnect are
    failed explicitly (never silently dropped) so callers can retry.
    """

    def __init__(self, channel: "ControlChannel", name: str) -> None:
        self._channel = channel
        self.name = name
        self.handler: Optional[Callable[[Message], None]] = None
        self.on_connect: Optional[Callable[[], None]] = None
        self.on_disconnect: Optional[Callable[[], None]] = None
        self.sent = ChannelStats()
        self._next_xid = 1
        self._pending: Dict[int, _PendingRequest] = {}
        #: Requests failed (disconnect or retries exhausted) and resends.
        self.requests_failed = 0
        self.request_retries = 0
        self.peer: "ChannelEndpoint" = None  # set by the channel

    def send(self, msg: Message) -> int:
        """Transmit ``msg``; assigns an xid when the caller left it 0."""
        if not self._channel.connected:
            raise ChannelClosedError(
                f"{self.name}: channel is down, cannot send "
                f"{type(msg).__name__}"
            )
        if msg.xid == 0:
            msg.xid = self._next_xid
            self._next_xid += 1
        wire = encode_message(msg)
        self.sent.record(msg, len(wire))
        self._channel._deliver(self, wire)
        return msg.xid

    def request(
        self,
        msg: Message,
        callback: Callable[[Message], None],
        timeout: float = 0.0,
        retries: int = 0,
        backoff: float = 2.0,
        on_failure: Optional[Callable[[Message], None]] = None,
    ) -> int:
        """Send ``msg`` and route the same-xid reply to ``callback``.

        With ``timeout > 0`` the request is resent up to ``retries``
        times, each wait ``backoff`` times longer than the last.  When
        the retries are exhausted, or the channel disconnects while the
        request is outstanding, ``on_failure`` receives a synthetic
        :class:`Error` (``TIMEOUT`` or ``CHANNEL_DOWN``); without an
        ``on_failure``, ``callback`` receives that Error instead, so a
        request is never silently dropped either way.
        """
        xid = self.send(msg)
        pending = _PendingRequest(msg, callback, on_failure,
                                  timeout, retries, backoff)
        self._pending[xid] = pending
        if timeout > 0:
            pending.timer = self._channel.sim.schedule(
                timeout, self._on_request_timeout, xid
            )
        return xid

    def _on_request_timeout(self, xid: int) -> None:
        pending = self._pending.get(xid)
        if pending is None:
            return
        pending.timer = None
        if pending.retries_left > 0 and self._channel.connected:
            pending.retries_left -= 1
            pending.timeout *= pending.backoff
            self.request_retries += 1
            self.send(pending.msg)  # same xid: the reply resolves us
            pending.timer = self._channel.sim.schedule(
                pending.timeout, self._on_request_timeout, xid
            )
            return
        del self._pending[xid]
        self._fail_request(pending, Error.TIMEOUT,
                           f"no reply to {type(pending.msg).__name__} "
                           f"xid={xid}")

    def _fail_request(self, pending: _PendingRequest, code: int,
                      detail: str) -> None:
        pending.cancel_timer()
        self.requests_failed += 1
        err = Error(code, detail)
        err.xid = pending.msg.xid
        if pending.on_failure is not None:
            pending.on_failure(err)
        else:
            pending.callback(err)

    def _receive(self, wire: bytes) -> None:
        msg = decode_message(wire)
        # Only genuine replies take part in xid correlation: both ends
        # assign xids independently, so an async event may coincide with
        # a pending request's xid without being its answer.
        if type(msg) in _REPLIES:
            pending = self._pending.pop(msg.xid, None)
            if pending is not None:
                pending.cancel_timer()
                pending.callback(msg)
                return
        if self.handler is not None:
            self.handler(msg)

    def _connection_changed(self, up: bool) -> None:
        if up and self.on_connect is not None:
            self.on_connect()
        if not up:
            # Fail every outstanding request explicitly so callers
            # (resync's stats requests, handshake logic, barriers) see the
            # loss and can retry after reconnect, instead of waiting forever.
            pending_now, self._pending = self._pending, {}
            for pending in pending_now.values():
                self._fail_request(pending, Error.CHANNEL_DOWN,
                                   "control channel disconnected")
            if self.on_disconnect is not None:
                self.on_disconnect()

    @property
    def pending_requests(self) -> int:
        return len(self._pending)

    def __repr__(self) -> str:
        return f"<ChannelEndpoint {self.name}>"


class ControlChannel:
    """A bidirectional, ordered, lossless message pipe with latency.

    Parameters
    ----------
    sim:
        Simulation kernel.
    latency:
        One-way propagation delay in seconds.  This is the dominant term
        in reactive flow setup (benchmark E1) — a controller 5 ms away
        costs every new flow ≥ 2×5 ms.
    bandwidth_bps:
        Serialisation rate; 0 means infinite (latency-only model).
    """

    def __init__(
        self,
        sim: Simulator,
        latency: float = 0.001,
        bandwidth_bps: float = 0.0,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.latency = latency
        self.bandwidth_bps = bandwidth_bps
        self.connected = False
        #: Connection epoch: bumped on every connect().  Deliveries carry
        #: the epoch they were sent in; a mismatched epoch on arrival
        #: means the channel dropped (and possibly reconnected) while the
        #: message was in flight, so it is lost — a TCP connection does
        #: not resurrect its send buffer into the next connection.
        self.epoch = 0
        self.connects = 0
        self.disconnects = 0
        self.messages_dropped = 0
        self.name = name
        self.switch_end = ChannelEndpoint(self, "switch")
        self.controller_end = ChannelEndpoint(self, "controller")
        self.switch_end.peer = self.controller_end
        self.controller_end.peer = self.switch_end
        self._busy_until: Dict[ChannelEndpoint, float] = {
            self.switch_end: 0.0,
            self.controller_end: 0.0,
        }
        tel = sim.telemetry
        # A label set has one owner: unnamed channels get numbered ones.
        label = self._label = name or f"channel{sim.next_id('channel')}"
        self._tracer = None
        self._m_stash_pruned = None
        if tel.tracing:
            self._tracer = tel.tracer
            self._m_stash_pruned = tel.metrics.counter(
                "trace_stash_pruned_total",
                "Stashed trace ids discarded at an epoch change",
                ("channel",),
            ).labels(label)
        # Everything the channel and its endpoints already count is read
        # through; only transitions are pushed (their ``event`` label is
        # known when one happens).
        registry = tel.metrics
        msgs = registry.counter(
            "channel_messages_total", "Control messages sent",
            ("channel", "direction"),
        )
        nbytes = registry.counter(
            "channel_bytes_total", "Control bytes sent (wire size)",
            ("channel", "direction"),
        )
        switch_end, controller_end = self.switch_end, self.controller_end
        for sent, direction in ((switch_end.sent, "to_controller"),
                                (controller_end.sent, "to_switch")):
            msgs.bind((label, direction), lambda sent=sent: sent.messages)
            nbytes.bind((label, direction), lambda sent=sent: sent.bytes)
        registry.counter(
            "channel_dropped_total",
            "Control messages lost to disconnects (epoch mismatch)",
            ("channel",),
        ).bind((label,), lambda: self.messages_dropped)
        self._m_flaps = registry.counter(
            "channel_transitions_total",
            "Channel connect/disconnect transitions",
            ("channel", "event"),
        )
        registry.counter(
            "channel_request_retries_total",
            "xid requests resent after a timeout",
            ("channel",),
        ).bind((label,), lambda: (switch_end.request_retries
                                  + controller_end.request_retries))
        registry.counter(
            "channel_request_failures_total",
            "xid requests failed (timeout or channel down)",
            ("channel",),
        ).bind((label,), lambda: (switch_end.requests_failed
                                  + controller_end.requests_failed))

    def _prune_stash(self) -> None:
        """Evict trace ids stashed for frames this epoch change kills.

        Any id stashed under this channel and not yet adopted belongs
        to an in-flight frame that will be dropped on arrival (epoch
        mismatch) — without pruning, those entries leak forever and a
        later byte-identical frame could adopt a stale trace.
        """
        if self._tracer is None:
            return
        pruned = self._tracer.prune_scope(self)
        if pruned:
            self._m_stash_pruned.inc(pruned)

    def connect(self) -> None:
        """Bring the channel up and notify both endpoints."""
        if self.connected:
            return
        self.connected = True
        self.epoch += 1
        self.connects += 1
        self._prune_stash()
        self._m_flaps.labels(self._label, "connect").inc()
        self.switch_end._connection_changed(True)
        self.controller_end._connection_changed(True)

    def disconnect(self) -> None:
        """Tear the channel down; in-flight messages are lost."""
        if not self.connected:
            return
        self.connected = False
        self.disconnects += 1
        self._prune_stash()
        self._m_flaps.labels(self._label, "disconnect").inc()
        # A new connection starts with empty socket buffers: the old
        # serialisation backlog must not delay post-reconnect messages.
        self._busy_until[self.switch_end] = 0.0
        self._busy_until[self.controller_end] = 0.0
        self.switch_end._connection_changed(False)
        self.controller_end._connection_changed(False)

    def _deliver(self, sender: ChannelEndpoint, wire: bytes) -> None:
        arrival_delay = self.latency
        if self.bandwidth_bps:
            now = self.sim.now
            start = max(now, self._busy_until[sender])
            depart = start + len(wire) * 8 / self.bandwidth_bps
            self._busy_until[sender] = depart
            arrival_delay += depart - now
        self.sim.schedule(arrival_delay, self._arrive, sender.peer, wire,
                          self.epoch)

    def _arrive(self, receiver: ChannelEndpoint, wire: bytes,
                epoch: int) -> None:
        # Epoch check, not just `connected`: a message sent before a
        # disconnect must stay lost even if the channel reconnected
        # before the arrival event fired.
        if not self.connected or epoch != self.epoch:
            self.messages_dropped += 1
            return  # lost in the disconnect
        receiver._receive(wire)

    def total_stats(self) -> dict:
        """Combined both-direction counters (benchmark E9 reads this)."""
        return {
            "to_controller": self.switch_end.sent.snapshot(),
            "to_switch": self.controller_end.sent.snapshot(),
        }

    def __repr__(self) -> str:
        state = "up" if self.connected else "down"
        return f"<ControlChannel {state} latency={self.latency * 1e3:.2f}ms>"
