"""Workload generators and measurement sinks.

Flows are UDP byte streams whose payload carries a tiny framing header
(flow id + total size) so sinks can detect completion without any
out-of-band channel.  Three generator families cover the evaluation
suite's needs:

* :class:`CBRStream` — constant bit rate, for utilisation and isolation
  experiments (E5, E10).
* :class:`FlowGenerator` — Poisson arrivals with configurable size
  distributions, for occupancy and FCT experiments (E2).
* :class:`RequestLoad` — open-loop request/response against a VIP, for
  the load-balancer experiment (E6).
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import TopologyError
from repro.netem.host import Host
from repro.packet import IPv4, Packet, UDP
from repro.sim import Simulator

__all__ = [
    "FlowRecord",
    "FlowSink",
    "CBRStream",
    "FlowGenerator",
    "RequestLoad",
    "allocate_flow_id",
    "pareto_sizes",
    "send_framed_flow",
    "source_ports",
    "FLOW_HEADER",
]

#: Payload framing: flow id (u32), sequence (u32), total size (u64).
FLOW_HEADER = struct.Struct("!IIQ")


def allocate_flow_id(sim: Simulator) -> int:
    """Next flow id from the per-simulator counter.

    Every generator family draws from the same namespace, so two
    generators feeding one sink can never collide, and ids depend only
    on allocation order within the run — re-running a seeded simulation
    in the same process yields the same ids (a class-level counter,
    which this replaced, leaked process history into the stream).
    """
    return sim.next_id("flow")


class FlowRecord:
    """Sender- and receiver-side view of one flow."""

    __slots__ = ("flow_id", "src", "dst", "size", "start_time",
                 "end_time", "bytes_received", "packets_received")

    def __init__(self, flow_id: int, src: str, dst: str, size: int,
                 start_time: float) -> None:
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size = size
        self.start_time = start_time
        self.end_time: Optional[float] = None
        self.bytes_received = 0
        self.packets_received = 0

    @property
    def completed(self) -> bool:
        return self.end_time is not None

    @property
    def fct(self) -> float:
        """Flow completion time; NaN until the flow completes."""
        if self.end_time is None:
            return float("nan")
        return self.end_time - self.start_time

    def __repr__(self) -> str:
        state = f"fct={self.fct:.4f}" if self.completed else "running"
        return (
            f"<Flow {self.flow_id} {self.src}->{self.dst} "
            f"{self.size}B {state}>"
        )


class FlowSink:
    """A UDP sink that reassembles framed flows and records completions."""

    def __init__(self, host: Host, port: int) -> None:
        self.host = host
        self.port = port
        self.flows: Dict[int, FlowRecord] = {}
        self.on_flow_complete: Optional[Callable[[FlowRecord], None]] = None
        self.total_bytes = 0
        host.bind_udp(port, self._receive)

    def _receive(self, packet: Packet, host: Host) -> None:
        payload = packet.payload
        if len(payload) < FLOW_HEADER.size:
            return
        flow_id, _seq, total = FLOW_HEADER.unpack_from(payload)
        record = self.flows.get(flow_id)
        if record is None:
            ip = packet[IPv4]
            record = FlowRecord(flow_id, str(ip.src), host.name, total,
                                host.sim.now)
            self.flows[flow_id] = record
        size = len(payload)
        # Completion compares goodput against the advertised flow size;
        # counting the 16 framing bytes per packet used to trip
        # ``bytes_received >= size`` one or more packets early and
        # silently shrink every measured FCT.
        record.bytes_received += size - FLOW_HEADER.size
        record.packets_received += 1
        self.total_bytes += size
        if (record.bytes_received >= record.size
                and record.end_time is None):
            record.end_time = host.sim.now
            if self.on_flow_complete is not None:
                self.on_flow_complete(record)

    def completed_flows(self) -> List[FlowRecord]:
        return [f for f in self.flows.values() if f.completed]


class CBRStream:
    """A constant-bit-rate UDP stream between two hosts.

    The stream paces fixed-size packets at ``rate_bps`` from ``start``
    until ``start + duration``.  Packets carry flow framing so any
    :class:`FlowSink` can account them.
    """

    def __init__(
        self,
        src: Host,
        dst_ip,
        rate_bps: float,
        packet_size: int = 1000,
        start: float = 0.0,
        duration: float = 10.0,
        src_port: int = 20000,
        dst_port: int = 9000,
        flow_id: Optional[int] = None,
    ) -> None:
        if rate_bps <= 0:
            raise TopologyError(f"CBR rate must be positive: {rate_bps}")
        if packet_size <= FLOW_HEADER.size:
            raise TopologyError(
                f"packet size must exceed framing ({FLOW_HEADER.size}B)"
            )
        self.src = src
        self.dst_ip = dst_ip
        self.rate_bps = rate_bps
        self.packet_size = packet_size
        self.duration = duration
        self.src_port = src_port
        self.dst_port = dst_port
        # A caller-supplied id bypasses the per-simulator counter: the
        # sharded engine precomputes flow ids so they cannot depend on
        # which shard allocates them.
        self.flow_id = (allocate_flow_id(src.sim) if flow_id is None
                        else flow_id)
        self.packets_sent = 0
        self.bytes_sent = 0
        self._stopped = False
        self._seq = 0
        sim = src.sim
        self._interval = packet_size * 8 / rate_bps
        # ``start`` is relative to creation, like every sim.schedule().
        self._end_at = sim.now + start + duration
        sim.schedule(start, self._tick)

    def _tick(self) -> None:
        sim = self.src.sim
        # Strict comparison: a tick landing exactly on the end instant
        # must not send, or the stream ships one packet more than
        # rate * duration accounts for.
        if self._stopped or sim.now >= self._end_at:
            return
        payload = FLOW_HEADER.pack(self.flow_id, self._seq, 0)
        payload += b"\x00" * (self.packet_size - len(payload))
        self._seq += 1
        self.src.send_udp(self.dst_ip, self.src_port, self.dst_port,
                          payload)
        self.packets_sent += 1
        self.bytes_sent += self.packet_size
        sim.schedule(self._interval, self._tick)

    def stop(self) -> None:
        self._stopped = True

    def __repr__(self) -> str:
        return (
            f"<CBRStream {self.src.name}->{self.dst_ip} "
            f"{self.rate_bps / 1e6:.1f}Mbps>"
        )


def source_ports() -> Iterator[int]:
    """The ephemeral source ports a flow generator hands its flows in
    turn: 30000 up to 60000, then round again."""
    while True:
        yield from range(30000, 60001)


def pareto_sizes(rng, mean: float, shape: float = 1.2):
    """An infinite generator of Pareto-distributed flow sizes.

    Heavy-tailed sizes are the canonical data-centre workload shape
    (most flows tiny, most bytes in elephants).
    """
    if shape <= 1.0:
        raise TopologyError("pareto shape must be > 1 for a finite mean")
    scale = mean * (shape - 1) / shape
    while True:
        # random() is uniform on [0, 1): an exact 0.0 draw is rare but
        # legal and used to raise ZeroDivisionError mid-experiment.
        u = rng.random()
        while u <= 0.0:
            u = rng.random()
        yield max(int(scale / (u ** (1.0 / shape))), 64)


def send_framed_flow(sim: Simulator, src: Host, dst_ip, flow_id: int,
                     size: int, src_port: int, dst_port: int,
                     flow_rate_bps: float = 10e6,
                     packet_size: int = 1000) -> int:
    """Pace one framed flow of ``size`` goodput bytes; returns the
    number of packets it will take.

    Shared by every generator family (Poisson, incast, scenario specs):
    the flow is chunked into ``packet_size``-byte UDP datagrams whose
    16-byte header carries (flow id, sequence, total size) so any
    :class:`FlowSink` can detect the exact completion packet.
    """
    interval = packet_size * 8 / flow_rate_bps
    payload_room = packet_size - FLOW_HEADER.size
    if payload_room <= 0:
        raise TopologyError(
            f"packet size must exceed framing ({FLOW_HEADER.size}B)"
        )
    chunks: List[int] = []
    remaining = size
    while remaining > 0:
        chunk = min(remaining, payload_room)
        chunks.append(chunk)
        remaining -= chunk

    def send_chunk(index: int) -> None:
        header = FLOW_HEADER.pack(flow_id, index, size)
        payload = header + b"\x00" * chunks[index]
        src.send_udp(dst_ip, src_port, dst_port, payload)
        if index + 1 < len(chunks):
            sim.schedule(interval, send_chunk, index + 1)

    send_chunk(0)
    return len(chunks)


class FlowGenerator:
    """Poisson flow arrivals between random host pairs.

    Each flow is a framed UDP transfer paced at ``flow_rate_bps``.  Flow
    sizes come from ``size_source`` (an iterator of ints); destinations
    are uniform unless a ``pair_picker`` is supplied (hotspot matrices).
    """

    def __init__(
        self,
        sim: Simulator,
        hosts: List[Host],
        arrival_rate: float,
        size_source,
        flow_rate_bps: float = 10e6,
        packet_size: int = 1000,
        dst_port: int = 9000,
        pair_picker: Optional[Callable[[], Tuple[Host, Host]]] = None,
        start: float = 0.0,
        duration: float = 10.0,
    ) -> None:
        if arrival_rate <= 0:
            raise TopologyError("arrival rate must be positive")
        if len(hosts) < 2:
            raise TopologyError("flow generation needs >= 2 hosts")
        self.sim = sim
        self.hosts = hosts
        self.arrival_rate = arrival_rate
        self.size_source = size_source
        self.flow_rate_bps = flow_rate_bps
        self.packet_size = packet_size
        self.dst_port = dst_port
        self.pair_picker = pair_picker
        self.rng = sim.fork_rng()
        self._end_at = sim.now + start + duration
        self.flows_started: List[FlowRecord] = []
        self._ports = source_ports()
        sim.schedule(start + self.rng.expovariate(arrival_rate),
                     self._arrival)

    def _pick_pair(self) -> Tuple[Host, Host]:
        if self.pair_picker is not None:
            return self.pair_picker()
        src, dst = self.rng.sample(self.hosts, 2)
        return src, dst

    def _spawn_flow(self) -> FlowRecord:
        """Start one flow now (subclasses reuse this from custom
        arrival processes)."""
        src, dst = self._pick_pair()
        size = next(self.size_source)
        flow_id = allocate_flow_id(self.sim)
        record = FlowRecord(flow_id, src.name, dst.name, size, self.sim.now)
        self.flows_started.append(record)
        send_framed_flow(self.sim, src, dst.ip, flow_id, size,
                         next(self._ports), self.dst_port,
                         self.flow_rate_bps, self.packet_size)
        return record

    def _arrival(self) -> None:
        if self.sim.now > self._end_at:
            return
        self._spawn_flow()
        self.sim.schedule(self.rng.expovariate(self.arrival_rate),
                          self._arrival)


class RequestLoad:
    """Open-loop request generator against a virtual IP (VIP).

    Clients send single-packet "requests" at Poisson intervals from
    ephemeral source ports; whoever terminates the VIP replies with one
    packet.  Response times are recorded per request.
    """

    REQUEST_PORT = 8080

    def __init__(
        self,
        sim: Simulator,
        clients: List[Host],
        vip,
        request_rate: float,
        start: float = 0.0,
        duration: float = 10.0,
        timeout: float = 5.0,
    ) -> None:
        self.sim = sim
        self.clients = clients
        self.vip = vip
        self.request_rate = request_rate
        self.timeout = timeout
        self.rng = sim.fork_rng()
        self._end_at = sim.now + start + duration
        self.sent = 0
        self.response_times: List[float] = []
        self.timeouts = 0
        #: token -> send time.  Tokens are monotonically unique, so a
        #: stale timeout can only ever expire its own request — keying
        #: by (client, port) let a late ``_expire`` pop the *fresh*
        #: request after the ephemeral port range wrapped, inflating
        #: ``timeouts`` and eating a real response.
        self._pending: Dict[int, float] = {}
        #: (client name, ephemeral port) -> token of the latest request
        #: in flight on that port (how responses find their token).
        self._inflight: Dict[Tuple[str, int], int] = {}
        self._next_token = 0
        self._next_port = 40000
        for client in clients:
            if client.on_udp is not None:
                raise TopologyError(
                    f"host {client.name} already has an on_udp handler; "
                    f"attaching a second RequestLoad would silently "
                    f"break the first — give each load its own clients"
                )
            client.on_udp = self._on_response
        sim.schedule(start + self.rng.expovariate(request_rate),
                     self._arrival)

    def _arrival(self) -> None:
        if self.sim.now > self._end_at:
            return
        self._send_one(self.rng.choice(self.clients))
        self.sim.schedule(self.rng.expovariate(self.request_rate),
                          self._arrival)

    def _send_one(self, client: Host) -> None:
        port = self._next_port
        self._next_port += 1
        if self._next_port > 60000:
            self._next_port = 40000
        token = self._next_token
        self._next_token += 1
        key = (client.name, port)
        self._pending[token] = self.sim.now
        self._inflight[key] = token
        self.sent += 1
        client.send_udp(self.vip, port, self.REQUEST_PORT, b"request")
        self.sim.schedule(self.timeout, self._expire, token, key)

    def _on_response(self, packet: Packet, host: Host) -> None:
        udp = packet[UDP]
        key = (host.name, udp.dst_port)
        token = self._inflight.get(key)
        if token is None:
            return
        sent_at = self._pending.pop(token, None)
        if sent_at is not None:
            del self._inflight[key]
            self.response_times.append(self.sim.now - sent_at)

    def _expire(self, token: int, key: Tuple[str, int]) -> None:
        if self._pending.pop(token, None) is not None:
            self.timeouts += 1
            if self._inflight.get(key) == token:
                del self._inflight[key]

    @property
    def completed(self) -> int:
        return len(self.response_times)
