"""Precomputed traffic/fault program for sharded workload runs.

The classic :func:`repro.workload.runner.run_workload` path arms live
generators whose RNG draws interleave with the rest of the run.  That
is fine on one event loop, but a partitioned run cannot reproduce a
global draw order — so the sharded engine *compiles* the spec first:
every traffic entry in a :class:`~repro.workload.spec.WorkloadSpec` is
open-loop (Poisson, diurnal-thinned Poisson, periodic incast, CBR), so
the full list of flows — start time, endpoints, id, size, ports — is a
pure function of ``(spec, seed)`` computable before the run starts.

Each worker schedules only the ops whose source lives on its shard, in
the one global program order, which is exactly what makes a 4-shard
run bit-identical to the single-shard oracle.

Routing is compiled here too: per-destination shortest paths (BFS over
the canonical sorted switch adjacency) become static ``ip_dst`` flow
entries, the static-forwarding execution model the sharded engine runs
(no controller — control-plane faults are rejected up front).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import TopologyError
from repro.netem.topology import Topology
from repro.workload.generators import TenantMatrix
from repro.workload.sizes import size_source_from_spec
from repro.workload.spec import WorkloadSpec

import random

__all__ = ["Program", "build_program", "build_routes"]

#: Flow-id block per traffic entry: entry i owns [base, base + 1e6).
FLOW_ID_BLOCK = 1_000_000


class Program:
    """The compiled, partition-independent schedule of one spec.

    ``ops`` is the single global op list, in compilation order (the
    order workers schedule them in, which pins same-instant tie-breaks
    across shard counts).  Op shapes:

    * ``("flow", t, src, dst, flow_id, size, sport, dport, rate, psize)``
    * ``("cbr", start, duration, src, dst, flow_id, rate_bps, psize,
      sport, dport)``
    * ``("link_down" | "link_up", t, a, b)``
    """

    __slots__ = ("ops", "sinks", "flows_started", "fault_count")

    def __init__(self) -> None:
        self.ops: List[tuple] = []
        #: (host name, udp port) pairs needing a FlowSink.
        self.sinks: List[Tuple[str, int]] = []
        self.flows_started = 0
        self.fault_count = 0


def _entry_rng(seed: int, index: int, role: str) -> random.Random:
    """Entity-keyed stream: stable across processes and shard counts."""
    return random.Random(f"{seed}\x1ftraffic:{index}:{role}")


class _PortRotor:
    """The generators' ephemeral source-port rotation, 30000..60000."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 30000

    def next(self) -> int:
        port = self.value
        self.value += 1
        if self.value > 60000:
            self.value = 30000
        return port


def _compile_flows(program: Program, entry: dict, index: int,
                   seed: int, hosts: List[str],
                   matrix: Optional[TenantMatrix]) -> None:
    """Poisson / diurnal-thinned Poisson arrivals, fully unrolled."""
    import math

    kind = entry.get("kind", "flows")
    start = float(entry.get("start", 0.0))
    duration = float(entry.get("duration", 10.0))
    dst_port = int(entry.get("dst_port", 9000))
    flow_rate = float(entry.get("flow_rate_bps", 10e6))
    packet_size = int(entry.get("packet_size", 1000))
    rng = _entry_rng(seed, index, "arrivals")
    sizes: Iterator[int] = size_source_from_spec(
        _entry_rng(seed, index, "sizes"),
        entry.get("sizes", {"dist": "pareto", "mean": 50_000}))
    use_matrix = bool(entry.get("tenant_matrix"))
    if use_matrix and matrix is None:
        raise TopologyError(
            "traffic entry requests tenant_matrix but the spec "
            "declares no tenants"
        )
    rate = float(entry.get(
        "rate",
        matrix.aggregate_rate(float(entry.get("flows_per_user_per_s",
                                              2e-5)))
        if (use_matrix and matrix is not None) else 10.0,
    ))
    if len(hosts) < 2:
        raise TopologyError("flow generation needs >= 2 hosts")

    period = float(entry.get("period", 86_400.0))
    trough = float(entry.get("trough", 0.2))
    phase = float(entry.get("phase", 0.0))

    def rate_fraction(t: float) -> float:
        cycle = 0.5 * (1.0 - math.cos(2.0 * math.pi * (t - phase) / period))
        return trough + (1.0 - trough) * cycle

    base = (index + 1) * FLOW_ID_BLOCK
    rotor = _PortRotor()
    end_at = start + duration
    n = 0
    t = start + rng.expovariate(rate)
    while t <= end_at:
        accept = True
        if kind == "diurnal":
            accept = rng.random() < rate_fraction(t)
        if accept:
            if use_matrix:
                src, dst = matrix.pick()
            else:
                src, dst = rng.sample(hosts, 2)
            size = next(sizes)
            program.ops.append(("flow", t, src, dst, base + n, size,
                                rotor.next(), dst_port, flow_rate,
                                packet_size))
            n += 1
        t += rng.expovariate(rate)
    program.flows_started += n
    program.sinks.extend((h, dst_port) for h in hosts)


def _compile_incast(program: Program, entry: dict, index: int,
                    seed: int, hosts: List[str]) -> None:
    start = float(entry.get("start", 0.0))
    duration = float(entry.get("duration", 10.0))
    dst_port = int(entry.get("dst_port", 9000))
    period = float(entry.get("period", 1.0))
    nbytes = int(entry.get("bytes_per_sender", 20_000))
    flow_rate = float(entry.get("flow_rate_bps", 10e6))
    packet_size = int(entry.get("packet_size", 1000))
    aggregator = hosts[-1]
    senders = hosts[:-1]
    if not senders:
        raise TopologyError("incast needs at least one sender")
    fanin = min(int(entry.get("fanin") or len(senders)), len(senders))
    rng = _entry_rng(seed, index, "incast")
    base = (index + 1) * FLOW_ID_BLOCK
    rotor = _PortRotor()
    end_at = start + duration
    n = 0
    t = start
    # Mirrors IncastGenerator: a burst landing exactly on the end
    # instant does not fire.
    while t < end_at:
        for src in rng.sample(senders, fanin):
            program.ops.append(("flow", t, src, aggregator, base + n,
                                nbytes, rotor.next(), dst_port,
                                flow_rate, packet_size))
            n += 1
        t += period
    program.flows_started += n
    program.sinks.append((aggregator, dst_port))


def _compile_cbr(program: Program, entry: dict, index: int,
                 hosts: List[str]) -> None:
    if len(hosts) < 2:
        raise TopologyError("cbr entry needs >= 2 hosts")
    start = float(entry.get("start", 0.0))
    duration = float(entry.get("duration", 10.0))
    dst_port = int(entry.get("dst_port", 9000))
    program.ops.append((
        "cbr", start, duration, hosts[0], hosts[1],
        (index + 1) * FLOW_ID_BLOCK,
        float(entry.get("rate_bps", 1e6)),
        int(entry.get("packet_size", 1000)),
        20000, dst_port,
    ))
    program.sinks.append((hosts[1], dst_port))


def build_program(spec: WorkloadSpec, topology: Topology) -> Program:
    """Compile one spec into its partition-independent op list."""
    hosts = sorted(n.name for n in topology.hosts)
    program = Program()

    # TenantMatrix only hands back list elements, so it draws over host
    # names here exactly as it draws over Hosts in the generator plane.
    matrix: Optional[TenantMatrix] = None
    if spec.tenants:
        matrix = TenantMatrix(
            random.Random(f"{spec.seed}\x1ftenants"), hosts, spec.tenants)

    for index, entry in enumerate(spec.traffic):
        kind = entry.get("kind", "flows")
        if kind in ("flows", "diurnal"):
            _compile_flows(program, entry, index, spec.seed, hosts, matrix)
        elif kind == "incast":
            _compile_incast(program, entry, index, spec.seed, hosts)
        elif kind == "cbr":
            _compile_cbr(program, entry, index, hosts)
        else:
            raise TopologyError(f"unknown traffic kind {kind!r}")

    for fault in spec.faults:
        kind = fault["kind"]
        if kind != "link_flap":
            raise TopologyError(
                f"sharded runs execute a static-forwarding dataplane "
                f"with no control channel; fault kind {kind!r} is not "
                f"supported under --shards"
            )
        for k in range(int(fault["count"])):
            t = float(fault["at"]) + k * float(fault["period"])
            program.ops.append(("link_down", t, fault["a"], fault["b"]))
            program.ops.append(("link_up", t + float(fault["down_for"]),
                                fault["a"], fault["b"]))
            program.fault_count += 2

    # Sinks: unique, stable order.
    program.sinks = sorted(set(program.sinks))
    return program


def build_routes(topology: Topology) -> Dict[str, Dict[str, str]]:
    """Destination-rooted next hops: ``routes[host][switch] -> neighbour``.

    For every host H attached to switch S, a BFS from S over the sorted
    switch adjacency yields, for each other switch X, the neighbour of
    X on one canonical shortest path toward S.  ``routes[host][S]`` is
    the host name itself (deliver on the access port).
    """
    adjacency = topology.switch_adjacency()
    attachment = topology.host_attachment()
    routes: Dict[str, Dict[str, str]] = {}
    for host in sorted(attachment):
        root = attachment[host]
        next_hop: Dict[str, str] = {root: host}
        frontier = [root]
        while frontier:
            nxt: List[str] = []
            for switch in frontier:
                for neighbour in adjacency[switch]:
                    if neighbour not in next_hop:
                        # Discovered from ``switch`` ⇒ the path from
                        # ``neighbour`` back to the root goes via it.
                        next_hop[neighbour] = switch
                        nxt.append(neighbour)
            frontier = nxt
        routes[host] = next_hop
    return routes
