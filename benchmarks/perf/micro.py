"""Unit costs of single public functions, independent of any workload.

Each timer calibrates a batch size, runs the batch ``LOOPS`` times for
at least ``min_s`` seconds each, and keeps the best: the floor a layer
optimisation moves, with scheduler noise filtered out rather than
averaged in.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

LOOPS = 5

#: name -> unit, in report order.
MICRO_UNITS = {
    "micro.sim.kernel.events_per_s": "1/s",
    "micro.packet.encode_us": "us",
    "micro.packet.decode_us": "us",
    "micro.packet.copy_us": "us",
    "micro.packet.len_us": "us",
    "micro.dataplane.flowkey_us": "us",
    "micro.dataplane.flowtable.lookup512_us": "us",
    "micro.dataplane.flowtable.insert_us": "us",
    "micro.southbound.codec.flowmod_roundtrip_us": "us",
    "micro.southbound.codec.packetin_roundtrip_us": "us",
    "micro.netem.link.send_us": "us",
}


def best_seconds_per_op(batch: Callable[[int], None], min_s: float) -> float:
    """Best-of-``LOOPS`` seconds per operation; ``batch(n)`` runs n ops."""
    n, elapsed = 64, 0.0
    while True:
        start = time.perf_counter()
        batch(n)
        elapsed = time.perf_counter() - start
        if elapsed >= min_s / 4:
            break
        n *= 4
    n = max(1, int(n * min_s / elapsed))
    best = float("inf")
    for _ in range(LOOPS):
        start = time.perf_counter()
        batch(n)
        best = min(best, (time.perf_counter() - start) / n)
    return best


def _frames():
    from repro.packet import Ethernet, IPv4, UDP

    return [
        Ethernet(dst="02:00:00:00:00:02", src="02:00:00:00:00:01")
        / IPv4(src="10.0.0.1", dst="10.0.0.2")
        / UDP(src_port=10_000, dst_port=7_000) / (b"x" * size)
        for size in (64, 1000)
    ]


def _kernel_events(min_s: float) -> float:
    """E12's loop: dispatch rate with a cancellation-churn component.
    Only the drain is timed; filling the heap is set-up."""
    from repro.sim import Simulator

    def tick() -> None:
        pass

    def drain(n: int) -> float:
        sim = Simulator(seed=0)
        for i in range(n):
            sim.schedule_at(i * 1e-6, tick)
        churn = [sim.schedule_at(i * 1e-6 + 5e-7, tick)
                 for i in range(n // 4)]
        for event in churn[::2]:
            event.cancel()
        start = time.perf_counter()
        sim.run_until_idle()
        return sim.events_processed / (time.perf_counter() - start)

    n = 20_000
    n = max(n, int(drain(n) * min_s))
    return max(drain(n) for _ in range(LOOPS))


def run_micro(min_s: float = 0.1) -> Dict[str, float]:
    """Every micro metric, by name (units in ``MICRO_UNITS``)."""
    from repro.dataplane import FlowEntry, FlowKey, FlowTable, Match, Output
    from repro.netem import Attachment, Link
    from repro.packet import Packet
    from repro.sim import Simulator
    from repro.southbound import (
        FlowMod,
        PacketIn,
        decode_message,
        encode_message,
    )

    frames = _frames()
    wires = [frame.encode() for frame in frames]
    out: Dict[str, float] = {
        "micro.sim.kernel.events_per_s": _kernel_events(min_s),
    }

    def per_frame(op: Callable[[object], object], items) -> float:
        """Mean over the 64 B and 1000 B frames, in microseconds."""
        def batch(n: int) -> None:
            for item in items:
                for _ in range(n):
                    op(item)
        return best_seconds_per_op(batch, min_s) / len(items) * 1e6

    out["micro.packet.encode_us"] = per_frame(Packet.encode, frames)
    out["micro.packet.decode_us"] = per_frame(Packet.decode, wires)
    out["micro.packet.copy_us"] = per_frame(Packet.copy, frames)
    out["micro.packet.len_us"] = per_frame(len, frames)
    out["micro.dataplane.flowkey_us"] = per_frame(
        lambda frame: FlowKey.from_packet(frame, 1), frames)

    # 512 never-matching filler entries above one matching rule: every
    # lookup walks the whole table (deep_table_scan's miss path).
    table = FlowTable(0)
    for i in range(64):
        for j in range(8):
            table.insert(FlowEntry(Match(eth_type=0x86DD, l4_dst=j), [],
                                   priority=1000 + i))
    table.insert(FlowEntry(Match(eth_dst="02:00:00:00:00:02"),
                           [Output(2)], priority=200))
    key = FlowKey.from_packet(frames[0], 1)

    def lookup(n: int) -> None:
        for _ in range(n):
            table.lookup(key)

    out["micro.dataplane.flowtable.lookup512_us"] = \
        best_seconds_per_op(lookup, min_s) * 1e6

    def insert(n: int) -> None:
        # Fresh 1024-entry tables, so the cost does not drift with n.
        for base in range(0, n, 1024):
            fresh = FlowTable(0)
            for i in range(base, min(base + 1024, n)):
                fresh.insert(FlowEntry(
                    Match(eth_type=0x0800, ip_proto=17, l4_src=i & 0xFFFF,
                          l4_dst=i >> 16), [Output(1)], priority=100,
                    idle_timeout=1.0), now=0.0)

    out["micro.dataplane.flowtable.insert_us"] = \
        best_seconds_per_op(insert, min_s) * 1e6

    flow_mod = FlowMod(match=Match.exact(key), priority=100,
                       actions=[Output(2)], idle_timeout=1.0)
    packet_in = PacketIn(in_port=1, data=wires[0])

    def roundtrip(msg) -> Callable[[int], None]:
        def batch(n: int) -> None:
            for _ in range(n):
                decode_message(encode_message(msg))
        return batch

    out["micro.southbound.codec.flowmod_roundtrip_us"] = \
        best_seconds_per_op(roundtrip(flow_mod), min_s) * 1e6
    out["micro.southbound.codec.packetin_roundtrip_us"] = \
        best_seconds_per_op(roundtrip(packet_in), min_s) * 1e6

    # One hop: serialise, propagate, deliver (two kernel events).
    sim = Simulator(seed=0)
    link = Link(sim, Attachment("a", 1, lambda packet: None),
                Attachment("b", 1, lambda packet: None),
                bandwidth_bps=1e9, delay=1e-4, queue_capacity=0)
    frame = frames[0]

    def send(n: int) -> None:
        for _ in range(n):
            link.send_from("a", frame)
        sim.run_until_idle()

    out["micro.netem.link.send_us"] = best_seconds_per_op(send, min_s) * 1e6
    return out
