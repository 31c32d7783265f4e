"""Point-to-point links with bandwidth, delay, loss, and a drop-tail queue.

Each direction of a link is an independent :class:`_Direction`: a
store-and-forward transmitter with a serialisation rate, a propagation
delay, an optional Bernoulli loss process, and a bounded FIFO backlog.
Utilisation is tracked by integrating busy time, which is what benchmark
E5 reads to compare traffic-engineering schemes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Optional, Tuple

from repro.errors import TopologyError
from repro.packet import Packet
from repro.sim import Simulator

__all__ = ["Link", "Attachment", "dscp_classifier"]


def dscp_classifier(packet: Packet) -> int:
    """Default band classifier: expedited forwarding (DSCP >= 40, which
    covers EF = 46) rides band 0 (highest); everything else band 1."""
    from repro.packet import IPv4

    ip = packet.get(IPv4)
    if ip is not None and ip.dscp >= 40:
        return 0
    return 1


class Attachment:
    """One end of a link: a named node port with a delivery callback."""

    __slots__ = ("node_name", "port_no", "deliver")

    def __init__(self, node_name: str, port_no: int,
                 deliver: Callable[[Packet], None]) -> None:
        self.node_name = node_name
        self.port_no = port_no
        self.deliver = deliver

    def __repr__(self) -> str:
        return f"<Attachment {self.node_name}:{self.port_no}>"


class _Direction:
    """The unidirectional machinery of one link direction.

    Two transmit disciplines:

    * FIFO (``priority_bands == 1``) — a virtual queue: departures are
      computed from ``busy_until`` up front.  A departure is not an
      event: the direction keeps ``(depart, order)`` per frame still
      serialising, ``order`` reserved from the kernel where a dequeue
      event would have been scheduled, and counts the backlog at the
      next send by dropping the entries ordered before the running
      event — so drop-tail sees exactly the backlog it would have seen,
      and every event keeps its order key.
    * Strict-priority (``priority_bands > 1``) — real per-band queues;
      the transmitter always serves the lowest-numbered non-empty band
      next.  Band selection comes from the link's ``classifier``.
    """

    __slots__ = (
        "sim",
        "bandwidth_bps",
        "delay",
        "loss_rate",
        "queue_capacity",
        "dst",
        "rng",
        "busy_until",
        "_departing",
        "tx_packets",
        "tx_bytes",
        "dropped_queue",
        "dropped_loss",
        "_window_start",
        "_window_busy",
        "bands",
        "classifier",
        "_transmitting",
        "band_tx_packets",
        "band_dropped",
        "epoch",
        "dropped_cut",
        "name",
        "_tracer",
        "_m_drops",
        "key_base",
        "_key_seq",
    )

    def __init__(self, sim: Simulator, name: str, bandwidth_bps: float,
                 delay: float, loss_rate: float, queue_capacity: int, rng,
                 priority_bands: int = 1,
                 classifier=None) -> None:
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.delay = delay
        self.loss_rate = loss_rate
        self.queue_capacity = queue_capacity
        self.dst: Optional[Attachment] = None
        self.rng = rng
        self.busy_until = 0.0
        #: ``(depart, order)`` of the frames still serialising, oldest
        #: first; ``None`` until the first send.
        self._departing: Optional[list] = None
        self.tx_packets = 0
        self.tx_bytes = 0
        self.dropped_queue = 0
        self.dropped_loss = 0
        self._window_start = 0.0
        self._window_busy = 0.0
        self.bands = ([[] for _ in range(priority_bands)]
                      if priority_bands > 1 else None)
        self.classifier = classifier
        self._transmitting = False
        self.band_tx_packets = [0] * priority_bands
        self.band_dropped = [0] * priority_bands
        #: Bumped when the link is cut, so packets already in flight are
        #: dropped on arrival instead of crossing a dead wire.
        self.epoch = 0
        self.dropped_cut = 0
        #: Stable-tie ordering base for arrival events (sharded kernel).
        #: When set, every arrival is scheduled with the partition-
        #: independent key ``(key_base, per-direction sequence)`` so a
        #: frame sorts identically whether its link is shard-local or a
        #: cross-shard boundary.  ``None`` keeps the legacy int keys.
        self.key_base: Optional[int] = None
        self._key_seq = 0
        # The tx counts are read through, so transmitting touches no
        # metric; drops are pushed because their ``reason`` label is
        # only known when one happens.
        telemetry = sim.telemetry
        self._tracer = telemetry.tracer if telemetry.tracing else None
        registry = telemetry.metrics
        registry.counter(
            "link_tx_packets_total", "Packets transmitted per direction",
            ("link",),
        ).bind((name,), lambda: self.tx_packets)
        registry.counter(
            "link_tx_bytes_total", "Bytes transmitted per direction",
            ("link",),
        ).bind((name,), lambda: self.tx_bytes)
        self._m_drops = registry.counter(
            "link_dropped_total", "Packets dropped per direction",
            ("link", "reason"),
        )

    def _drop(self, packet: Packet, reason: str) -> None:
        self._m_drops.labels(self.name, reason).inc()
        if self._tracer is not None and packet.trace_id is not None:
            self._tracer.record(packet.trace_id, "link.drop", "link",
                                link=self.name, reason=reason)

    def send(self, packet: Packet, up: bool,
             size: Optional[int] = None) -> None:
        """``size`` is ``len(packet)`` when the sender has read it."""
        if not up or self.dst is None:
            return
        if size is None:
            size = len(packet)
        if self.bands is not None and self.bandwidth_bps:
            self._send_banded(packet, size)
            return
        sim = self.sim
        now = sim.now
        if self.bandwidth_bps:
            departing = self._departing
            if departing is not None:
                # Sorted, since departures leave in order: forget those
                # ordered before the running event.
                del departing[:bisect_left(departing, sim.position)]
                # Drop-tail: if the backlog exceeds capacity, the packet
                # dies.
                if (self.queue_capacity
                        and len(departing) >= self.queue_capacity):
                    self.dropped_queue += 1
                    self._drop(packet, "queue")
                    return
            tx_time = size * 8 / self.bandwidth_bps
            depart = max(now, self.busy_until) + tx_time
            self.busy_until = depart
            self._window_busy += tx_time
            entry = (depart, sim.reserve_order())
            if departing is None:
                self._departing = [entry]
            else:
                departing.append(entry)
        else:
            depart = now
        if self.loss_rate and self.rng.random() < self.loss_rate:
            self.dropped_loss += 1
            self._drop(packet, "loss")
            # The transmitter still burned the airtime; only delivery fails.
            return
        self.tx_packets += 1
        self.tx_bytes += size
        arrival = depart + self.delay
        if self._tracer is not None and packet.trace_id is not None:
            self._tracer.record(packet.trace_id, "link.transit", "link",
                                start=now, end=arrival, link=self.name)
        self._schedule_arrival(arrival, packet)

    def _schedule_arrival(self, arrival: float, packet: Packet) -> None:
        """Queue the delivery event; the boundary stub overrides this to
        emit a cross-shard message instead."""
        if self.key_base is None:
            self.sim.schedule_at(arrival, self._arrive, packet, self.epoch)
        else:
            self._key_seq += 1
            self.sim.schedule_at(arrival, self._arrive, packet, self.epoch,
                                 key=(self.key_base, self._key_seq))

    def _arrive(self, packet: Packet, epoch: int = 0) -> None:
        if epoch != self.epoch:
            # The link was cut while this packet was on the wire.
            self.dropped_cut += 1
            self._drop(packet, "cut")
            return
        if self.dst is not None:
            self.dst.deliver(packet)

    # -- strict-priority discipline --------------------------------
    def _band_of(self, packet: Packet) -> int:
        band = self.classifier(packet) if self.classifier else 0
        return max(0, min(band, len(self.bands) - 1))

    def _send_banded(self, packet: Packet, size: int) -> None:
        band = self._band_of(packet)
        # Per-band drop-tail with the shared capacity split evenly.
        per_band = (max(self.queue_capacity // len(self.bands), 1)
                    if self.queue_capacity else 0)
        if per_band and len(self.bands[band]) >= per_band:
            self.dropped_queue += 1
            self.band_dropped[band] += 1
            self._drop(packet, "queue")
            return
        self.bands[band].append((packet, size))
        if not self._transmitting:
            self._transmit_next()

    def _transmit_next(self) -> None:
        for band, queue in enumerate(self.bands):
            if queue:
                packet, size = queue.pop(0)
                break
        else:
            self._transmitting = False
            return
        self._transmitting = True
        tx_time = size * 8 / self.bandwidth_bps
        self._window_busy += tx_time
        if self.loss_rate and self.rng.random() < self.loss_rate:
            self.dropped_loss += 1
            self._drop(packet, "loss")
        else:
            self.tx_packets += 1
            self.tx_bytes += size
            self.band_tx_packets[band] += 1
            if self._tracer is not None and packet.trace_id is not None:
                now = self.sim.now
                self._tracer.record(
                    packet.trace_id, "link.transit", "link",
                    start=now, end=now + tx_time + self.delay,
                    link=self.name, band=band,
                )
            self._schedule_arrival(self.sim.now + (tx_time + self.delay),
                                   packet)
        self.sim.schedule(tx_time, self._transmit_next)

    def utilisation_since_reset(self) -> float:
        """Busy fraction of this direction since the last window reset."""
        span = self.sim.now - self._window_start
        if span <= 0 or not self.bandwidth_bps:
            return 0.0
        return min(self._window_busy / span, 1.0)

    def reset_window(self) -> None:
        self._window_start = self.sim.now
        self._window_busy = 0.0


class Link:
    """A bidirectional link between two attachments.

    Parameters
    ----------
    bandwidth_bps:
        Serialisation rate per direction; 0 disables the bandwidth model
        (useful for control-only experiments).
    delay:
        One-way propagation delay in seconds.
    loss_rate:
        Independent per-packet loss probability.
    queue_capacity:
        Maximum packets in the transmit backlog per direction (drop-tail);
        0 means unbounded.
    """

    def __init__(
        self,
        sim: Simulator,
        a: Attachment,
        b: Attachment,
        bandwidth_bps: float = 0.0,
        delay: float = 0.0001,
        loss_rate: float = 0.0,
        queue_capacity: int = 100,
        priority_bands: int = 1,
        classifier=None,
        rng=None,
    ) -> None:
        if a is b:
            raise TopologyError("link endpoints must differ")
        if not 0.0 <= loss_rate < 1.0:
            raise TopologyError(f"loss rate out of range: {loss_rate}")
        if priority_bands < 1:
            raise TopologyError(
                f"priority_bands must be >= 1, got {priority_bands}"
            )
        if priority_bands > 1 and classifier is None:
            classifier = dscp_classifier
        self.sim = sim
        self.a = a
        self.b = b
        self.up = True
        self.priority_bands = priority_bands
        # Shard-mode networks pass an entity-keyed rng so the loss stream
        # is a function of the link name, not of construction order.
        if rng is None:
            rng = sim.fork_rng()
        self._ab = _Direction(
            sim, f"{a.node_name}:{a.port_no}->{b.node_name}:{b.port_no}",
            bandwidth_bps, delay, loss_rate, queue_capacity, rng,
            priority_bands=priority_bands, classifier=classifier)
        self._ba = _Direction(
            sim, f"{b.node_name}:{b.port_no}->{a.node_name}:{a.port_no}",
            bandwidth_bps, delay, loss_rate, queue_capacity, rng,
            priority_bands=priority_bands, classifier=classifier)
        self._ab.dst = b
        self._ba.dst = a

    # ------------------------------------------------------------------
    # Data transfer
    # ------------------------------------------------------------------
    def send_from(self, node_name: str, packet: Packet,
                  size: Optional[int] = None) -> None:
        """Transmit ``packet`` from the named endpoint toward the other;
        a sender that has read ``len(packet)`` passes it as ``size``."""
        if node_name == self.a.node_name:
            self._ab.send(packet, self.up, size)
        elif node_name == self.b.node_name:
            self._ba.send(packet, self.up, size)
        else:
            raise TopologyError(
                f"{node_name} is not an endpoint of {self!r}"
            )

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Cut the link: everything in flight and future is lost."""
        self.up = False
        # Invalidate in-flight arrivals; "everything in flight is lost"
        # must hold even if the link recovers before they land.
        self._ab.epoch += 1
        self._ba.epoch += 1

    def recover(self) -> None:
        self.up = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def other_end(self, node_name: str) -> Attachment:
        if node_name == self.a.node_name:
            return self.b
        if node_name == self.b.node_name:
            return self.a
        raise TopologyError(f"{node_name} is not an endpoint of {self!r}")

    def direction_stats(self) -> Tuple[dict, dict]:
        """Per-direction counters as ``(a->b, b->a)`` dicts."""
        def snap(d: _Direction) -> dict:
            return {
                "tx_packets": d.tx_packets,
                "tx_bytes": d.tx_bytes,
                "dropped_queue": d.dropped_queue,
                "dropped_loss": d.dropped_loss,
                "dropped_cut": d.dropped_cut,
                "utilisation": d.utilisation_since_reset(),
                "band_tx_packets": list(d.band_tx_packets),
                "band_dropped": list(d.band_dropped),
            }

        return snap(self._ab), snap(self._ba)

    @property
    def max_utilisation(self) -> float:
        """The busier direction's utilisation since the last reset."""
        return max(
            self._ab.utilisation_since_reset(),
            self._ba.utilisation_since_reset(),
        )

    def reset_utilisation_window(self) -> None:
        self._ab.reset_window()
        self._ba.reset_window()

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return (
            f"<Link {self.a.node_name}:{self.a.port_no} <-> "
            f"{self.b.node_name}:{self.b.port_no} {state}>"
        )
