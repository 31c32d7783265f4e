"""Cross-shard boundary links: serialised frames + timestamps.

A topology link whose endpoints live on different shards is realised
twice, once per shard, as a :class:`BoundaryLink`:

* the **transmit half** is a real :class:`~repro.netem.link._Direction`
  — same bandwidth/queue/loss machinery, same keyed loss RNG — whose
  arrival hook, instead of scheduling a local delivery, appends a
  :class:`ShardMessage` (arrival time, link id, direction, per-direction
  sequence, epoch, encoded frame) to the shard's outbox;
* the **receive half** is the mirror direction object: the engine feeds
  it incoming messages and it schedules the delivery with exactly the
  partition-independent tie key ``(link id * 2 + direction, sequence)``
  the unsharded link would have used, so the frame lands in the same
  heap position either way.

Epochs reproduce cut semantics: both shards bump their halves when the
(locally scheduled) fault op fires, so a frame serialised before a cut
is dropped on arrival exactly as the in-process link drops it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.netem.link import Attachment, _Direction, dscp_classifier
from repro.packet import Packet
from repro.sim import Simulator

__all__ = ["BoundaryLink", "ShardMessage", "decode_frame"]

#: (arrival_time, link_index, direction, tx_seq, epoch, frame_bytes,
#: trace_id, parent_span) — plain tuple so it pickles cheaply across
#: worker pipes.  The last two fields carry the causal trace context
#: over the wire: encoding strips ``Packet.trace_id``, so the tx half
#: rides it (plus the boundary-tx span id) alongside the frame and the
#: rx stub re-adopts the trace into its own tracer on delivery.  They
#: are ``None`` when tracing is off or the frame was never sampled.
ShardMessage = Tuple[float, int, int, int, int, bytes,
                     Optional[int], Optional[int]]


def decode_frame(data: bytes) -> Packet:
    return Packet.decode(data)


class _BoundaryTx(_Direction):
    """Transmit half: a stock direction whose arrivals leave the shard."""

    __slots__ = ("outbox", "link_index", "direction")

    def __init__(self, sim: Simulator, name: str, spec, rng,
                 outbox: List[ShardMessage], link_index: int,
                 direction: int) -> None:
        super().__init__(sim, name, spec.bandwidth_bps, spec.delay,
                         spec.loss_rate, spec.queue_capacity, rng,
                         priority_bands=spec.priority_bands,
                         classifier=(dscp_classifier
                                     if spec.priority_bands > 1 else None))
        self.outbox = outbox
        self.link_index = link_index
        self.direction = direction
        self.key_base = link_index * 2 + direction

    def _schedule_arrival(self, arrival: float, packet: Packet) -> None:
        self._key_seq += 1
        trace_id = packet.trace_id
        parent_span = None
        if self._tracer is not None and trace_id is not None:
            parent_span = self._tracer.record(
                trace_id, "shard.boundary_tx", "shard",
                start=self.sim.now, end=arrival,
                link=self.name, seq=self._key_seq)
        self.outbox.append((arrival, self.link_index, self.direction,
                            self._key_seq, self.epoch, packet.encode(),
                            trace_id, parent_span))


class BoundaryLink:
    """One shard's view of a link it shares with another shard.

    Quacks like :class:`~repro.netem.link.Link` for everything the
    shard-local machinery touches: ``send_from``, ``fail``/``recover``,
    ``up``, ``direction_stats``, utilisation no-ops.
    """

    def __init__(self, sim: Simulator, index: int, spec,
                 local_att: Attachment, local_is_a: bool,
                 outbox: List[ShardMessage]) -> None:
        self.sim = sim
        self.index = index
        self.spec = spec
        self.up = True
        self.local_name = spec.a if local_is_a else spec.b
        self.remote_name = spec.b if local_is_a else spec.a
        # Direction 0 is a->b everywhere; the local transmit half is
        # whichever direction leaves this shard.
        # With per-shard tracing on (``--trace``), the tx half records
        # the boundary-tx span whose id rides the outbox tuple, and the
        # rx half records the adopting boundary-rx span on delivery.
        tx_dir = 0 if local_is_a else 1
        rx_dir = 1 - tx_dir
        names = (f"{spec.a}->{spec.b}", f"{spec.b}->{spec.a}")
        self._tx = _BoundaryTx(
            sim, names[tx_dir], spec,
            sim.fork_rng(name=f"linkdir:{index}:{tx_dir}"),
            outbox, index, tx_dir)
        # The remote attachment is a stub: the tx half never delivers
        # locally, it only needs a non-None dst to transmit.
        self._tx.dst = Attachment(self.remote_name, 0, lambda packet: None)
        self._rx = _Direction(
            sim, names[rx_dir], spec.bandwidth_bps, spec.delay, spec.loss_rate,
            spec.queue_capacity,
            sim.fork_rng(name=f"linkdir:{index}:{rx_dir}"),
            priority_bands=spec.priority_bands)
        self._rx.key_base = index * 2 + rx_dir
        self._rx.dst = local_att

    # -- data path ---------------------------------------------------
    def send_from(self, node_name: str, packet: Packet,
                  size: Optional[int] = None) -> None:
        if node_name == self.local_name:
            self._tx.send(packet, self.up, size)
        # Frames "from" the remote end arrive via deliver(), never here.

    def deliver(self, message: ShardMessage) -> None:
        """Merge one incoming cross-shard frame into the local heap.

        When the message carries trace context, the receive half
        re-adopts the trace into this shard's tracer (ids stay globally
        unique by the stride scheme, so no renumbering) and records the
        boundary-rx span parented to the sender's boundary-tx span —
        the stitch the artifact merge later relies on.
        """
        (arrival, _index, _direction, tx_seq, epoch, frame,
         trace_id, parent_span) = message
        rx = self._rx
        packet = decode_frame(frame)
        if trace_id is not None and rx._tracer is not None:
            if rx._tracer.adopt_foreign(trace_id):
                packet.trace_id = trace_id
                rx._tracer.record(
                    trace_id, "shard.boundary_rx", "shard",
                    start=arrival, end=arrival,
                    parent=parent_span, link=rx.name, seq=tx_seq)
        rx.sim.schedule_at(arrival, rx._arrive, packet,
                           epoch, key=(rx.key_base, tx_seq))

    # -- failure injection ------------------------------------------
    def fail(self) -> None:
        self.up = False
        # Both halves: in-flight frames in either direction die, no
        # matter which shard they are currently buffered in.
        self._tx.epoch += 1
        self._rx.epoch += 1

    def recover(self) -> None:
        self.up = True

    # -- Link API the rest of the stack touches ----------------------
    def reset_utilisation_window(self) -> None:
        self._tx.reset_window()
        self._rx.reset_window()

    @property
    def max_utilisation(self) -> float:
        return self._tx.utilisation_since_reset()

    def other_end(self, node_name: str) -> Optional[Attachment]:
        if node_name == self.remote_name:
            return self._rx.dst
        return self._tx.dst

    def half_stats(self) -> dict:
        """Per-direction counters for the halves this shard owns.

        Keyed by global direction (0 = a->b, 1 = b->a); the engine sums
        the tx and rx contributions fieldwise across shards, which
        reconstructs exactly the unsharded link's counters (each field
        is only ever incremented on one side).
        """
        def snap(d: _Direction) -> dict:
            return {
                "tx_packets": d.tx_packets,
                "tx_bytes": d.tx_bytes,
                "dropped_queue": d.dropped_queue,
                "dropped_loss": d.dropped_loss,
                "dropped_cut": d.dropped_cut,
                "band_tx_packets": list(d.band_tx_packets),
                "band_dropped": list(d.band_dropped),
            }

        tx_dir = self._tx.direction
        return {str(tx_dir): snap(self._tx),
                str(1 - tx_dir): snap(self._rx)}

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return (f"<BoundaryLink {self.local_name} <-> "
                f"{self.remote_name}(remote) {state}>")
