"""A go-back-N reliable transport over the UDP mini-stack.

The emulator's links can drop packets (Bernoulli loss, queue overflow);
CBR and flow generators simply lose that data.  ``ReliableSender`` /
``ReliableReceiver`` implement the classic go-back-N ARQ — cumulative
ACKs, a retransmission timer, sender-side windowing — so transfers
complete over lossy paths, and experiments can study the cost of
recovery (ablation A3).

This is deliberately go-back-N rather than full TCP: the paper's scope
needs a *reliable byte mover with measurable retransmission behaviour*,
not congestion control research.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Optional

from repro.errors import TopologyError
from repro.netem.host import Host
from repro.packet import IPv4, Packet, UDP

__all__ = ["ReliableSender", "ReliableReceiver"]

#: Data segment header: transfer id, sequence number, total segments.
_DATA_HEADER = struct.Struct("!III")
#: ACK payload: transfer id, next expected sequence number.
_ACK_HEADER = struct.Struct("!II")


class ReliableReceiver:
    """Receives go-back-N transfers on a UDP port.

    In-order segments are appended to the transfer buffer; anything out
    of order is dropped and re-ACKed (pure go-back-N).  When the last
    segment lands, ``on_complete(transfer_id, data)`` fires.

    Finished transfers are pruned ``reack_grace`` seconds after
    completion (a TIME_WAIT analogue): within the grace window straggler
    duplicates are still re-ACKed with the final cumulative ACK; after
    it, all per-transfer state — ``_next_expected`` and ``completed`` —
    is dropped, so a long-lived receiver serving many transfers stays
    bounded.  Read results from ``on_complete``, not ``completed``, if
    the run outlives the grace window.
    """

    def __init__(self, host: Host, port: int,
                 on_complete: Optional[
                     Callable[[int, bytes], None]] = None,
                 reack_grace: float = 2.0) -> None:
        self.host = host
        self.port = port
        self.on_complete = on_complete
        self.reack_grace = reack_grace
        #: transfer id -> next expected sequence number.
        self._next_expected: Dict[int, int] = {}
        self._buffers: Dict[int, bytearray] = {}
        self.completed: Dict[int, bytes] = {}
        self.segments_received = 0
        self.segments_discarded = 0
        self.transfers_pruned = 0
        host.bind_udp(port, self._receive)

    def _receive(self, packet: Packet, host: Host) -> None:
        payload = packet.payload
        if len(payload) < _DATA_HEADER.size:
            return
        xfer, seq, total = _DATA_HEADER.unpack_from(payload)
        body = payload[_DATA_HEADER.size:]
        expected = self._next_expected.get(xfer)
        if expected is None and seq != 0:
            # A straggler for a pruned (or never-started) transfer must
            # not create state, or churn would regrow what pruning frees.
            self.segments_discarded += 1
            self._ack(packet, host, xfer, 0)
            return
        if expected is None:
            expected = 0
        if seq == expected and xfer not in self.completed:
            self.segments_received += 1
            self._buffers.setdefault(xfer, bytearray()).extend(body)
            expected += 1
            self._next_expected[xfer] = expected
            if expected >= total:
                data = bytes(self._buffers.pop(xfer))
                self.completed[xfer] = data
                if self.on_complete is not None:
                    self.on_complete(xfer, data)
                self.host.sim.schedule(self.reack_grace, self._prune, xfer)
        else:
            self.segments_discarded += 1
            self._next_expected[xfer] = expected
        # Cumulative ACK either way (also re-ACKs duplicates).
        self._ack(packet, host, xfer, self._next_expected[xfer])

    def _ack(self, packet: Packet, host: Host, xfer: int,
             next_expected: int) -> None:
        udp = packet[UDP]
        ip = packet[IPv4]
        host.send_udp(ip.src, self.port, udp.src_port,
                      _ACK_HEADER.pack(xfer, next_expected))

    def _prune(self, xfer: int) -> None:
        if self.completed.pop(xfer, None) is not None:
            self._next_expected.pop(xfer, None)
            self.transfers_pruned += 1

    @property
    def tracked_transfers(self) -> int:
        """Transfers the receiver currently holds state for."""
        return len(self._next_expected)

    def close(self) -> None:
        self.host.unbind_udp(self.port)


class ReliableSender:
    """Transfers a byte string with go-back-N ARQ.

    Parameters
    ----------
    window:
        Segments in flight before waiting for ACKs.
    timeout:
        Retransmission timer; on expiry the whole window resends from
        the base (go-back-N).
    mss:
        Payload bytes per segment.
    """

    _next_transfer_id = 1

    def __init__(
        self,
        host: Host,
        dst_ip,
        dst_port: int,
        data: bytes,
        window: int = 8,
        timeout: float = 0.2,
        mss: int = 1000,
        src_port: int = 0,
        max_retries: int = 50,
    ) -> None:
        if not data:
            raise TopologyError("cannot send an empty transfer")
        if window < 1:
            raise TopologyError(f"window must be >= 1, got {window}")
        self.host = host
        self.sim = host.sim
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.window = window
        self.timeout = timeout
        self.mss = mss
        self.max_retries = max_retries
        self.transfer_id = ReliableSender._next_transfer_id
        ReliableSender._next_transfer_id += 1
        self.src_port = src_port or (50000 + self.transfer_id % 10000)
        self.segments = [data[i:i + mss]
                         for i in range(0, len(data), mss)]
        self.total = len(self.segments)
        self.base = 0            # lowest unACKed sequence
        self.next_to_send = 0
        self.retransmissions = 0
        self.retries = 0
        self.failed = False
        self.start_time = self.sim.now
        self.end_time: Optional[float] = None
        self._timer = None
        host.bind_udp(self.src_port, self._on_ack)
        self._fill_window()

    # ------------------------------------------------------------------
    # Sending machinery
    # ------------------------------------------------------------------
    def _fill_window(self) -> None:
        while (self.next_to_send < self.total
               and self.next_to_send < self.base + self.window):
            self._send_segment(self.next_to_send)
            self.next_to_send += 1
        self._arm_timer()

    def _send_segment(self, seq: int) -> None:
        header = _DATA_HEADER.pack(self.transfer_id, seq, self.total)
        self.host.send_udp(self.dst_ip, self.src_port, self.dst_port,
                           header + self.segments[seq])

    def _arm_timer(self) -> None:
        self._cancel_timer()
        if self.base < self.total:
            self._timer = self.sim.schedule(self.timeout, self._on_timeout)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_timeout(self) -> None:
        self._timer = None
        if self.complete or self.failed:
            return
        self.retries += 1
        if self.retries > self.max_retries:
            self.failed = True
            self._finish()
            return
        # Go-back-N: resend everything in flight.
        for seq in range(self.base, self.next_to_send):
            self._send_segment(seq)
            self.retransmissions += 1
        self._arm_timer()

    def _on_ack(self, packet: Packet, host: Host) -> None:
        payload = packet.payload
        if len(payload) < _ACK_HEADER.size:
            return
        xfer, next_expected = _ACK_HEADER.unpack_from(payload)
        if xfer != self.transfer_id:
            return
        if next_expected > self.base:
            self.base = next_expected
            self.retries = 0  # progress resets the give-up counter
            if self.base >= self.total:
                self._finish()
                return
            self._fill_window()

    def _finish(self) -> None:
        self._cancel_timer()
        if self.end_time is None:
            self.end_time = self.sim.now
        self.host.unbind_udp(self.src_port)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        return self.base >= self.total and not self.failed

    @property
    def transfer_time(self) -> float:
        if self.end_time is None:
            return float("nan")
        return self.end_time - self.start_time

    @property
    def goodput_bps(self) -> float:
        time = self.transfer_time
        if time != time or time <= 0:  # NaN or instant
            return float("nan")
        return sum(len(s) for s in self.segments) * 8 / time

    def __repr__(self) -> str:
        state = ("done" if self.complete
                 else "failed" if self.failed else "running")
        return (
            f"<ReliableSender xfer={self.transfer_id} {state} "
            f"{self.base}/{self.total} retx={self.retransmissions}>"
        )
