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

import random
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import TopologyError
from repro.faults import lower_fault
from repro.netem.topology import Topology
from repro.netem.traffic import source_ports
from repro.workload.generators import (
    TenantMatrix,
    diurnal_fraction,
    read_traffic,
)
from repro.workload.sizes import size_source_from_spec
from repro.workload.spec import WorkloadSpec

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

    __slots__ = ("ops", "sinks", "flows_started")

    def __init__(self) -> None:
        self.ops: List[tuple] = []
        #: (host name, udp port) pairs needing a FlowSink.
        self.sinks: List[Tuple[str, int]] = []
        self.flows_started = 0


def _entry_rng(seed: int, index: int, role: str) -> random.Random:
    """Entity-keyed stream: stable across processes and shard counts."""
    return random.Random(f"{seed}\x1ftraffic:{index}:{role}")


def _arrivals(entry: dict, rng: random.Random, sizes: Iterator[int],
              hosts: List[str], matrix: Optional[TenantMatrix]):
    """Poisson / diurnal-thinned Poisson flows ``(t, src, dst, size)``,
    fully unrolled."""
    rate = entry["rate"]
    if rate is None:
        rate = matrix.aggregate_rate(entry["flows_per_user_per_s"])
    diurnal = entry["kind"] == "diurnal"
    end_at = entry["start"] + entry["duration"]
    t = entry["start"] + rng.expovariate(rate)
    while t <= end_at:
        if not diurnal or rng.random() < diurnal_fraction(
                t, entry["period"], entry["trough"], entry["phase"]):
            if entry["tenant_matrix"]:
                src, dst = matrix.pick()
            else:
                src, dst = rng.sample(hosts, 2)
            yield t, src, dst, next(sizes)
        t += rng.expovariate(rate)


def _bursts(entry: dict, rng: random.Random, hosts: List[str]):
    """Incast flows ``(t, src, aggregator, size)``: like
    IncastGenerator, a burst landing exactly on the end instant does
    not fire."""
    aggregator, senders = hosts[-1], hosts[:-1]
    fanin = min(entry["fanin"] or len(senders), len(senders))
    end_at = entry["start"] + entry["duration"]
    t = entry["start"]
    while t < end_at:
        for src in rng.sample(senders, fanin):
            yield t, src, aggregator, entry["bytes_per_sender"]
        t += entry["period"]


def build_program(spec: WorkloadSpec, topology: Topology) -> Program:
    """Compile one spec into its partition-independent op list: each
    entry as :func:`~repro.workload.generators.read_traffic` reads it
    and each fault as :func:`~repro.faults.lower_fault` lowers it, the
    readings the platform arms from.  A flap of a link the topology
    lacks fails here, as the platform fails it before it starts."""
    hosts = sorted(n.name for n in topology.hosts)
    program = Program()

    # TenantMatrix only hands back list elements, so it draws over host
    # names here exactly as it draws over Hosts in the generator plane.
    matrix: Optional[TenantMatrix] = None
    if spec.tenants:
        matrix = TenantMatrix(
            random.Random(f"{spec.seed}\x1ftenants"), hosts, spec.tenants)

    for index, entry in enumerate(spec.traffic):
        entry = read_traffic(entry, f"traffic[{index}]", hosts)
        kind = entry["kind"]
        if kind == "probe":
            raise TopologyError(
                f"traffic[{index}]: sharded runs compile open-loop "
                f"traffic; kind 'probe' is not supported under --shards")
        base, port = (index + 1) * FLOW_ID_BLOCK, entry["dst_port"]
        if kind == "cbr":
            program.ops.append((
                "cbr", entry["start"], entry["duration"], hosts[0],
                hosts[1], base, entry["rate_bps"], entry["packet_size"],
                20000, port))
            program.sinks.append((hosts[1], port))
            continue
        if kind == "incast":
            flows = _bursts(entry, _entry_rng(spec.seed, index, "incast"),
                            hosts)
            program.sinks.append((hosts[-1], port))
        else:
            sizes = size_source_from_spec(
                _entry_rng(spec.seed, index, "sizes"), entry["sizes"])
            flows = _arrivals(entry, _entry_rng(spec.seed, index,
                                                "arrivals"),
                              sizes, hosts, matrix)
            program.sinks.extend((h, port) for h in hosts)
        for n, ((t, src, dst, size), sport) in enumerate(
                zip(flows, source_ports())):
            program.ops.append((
                "flow", t, src, dst, base + n, size, sport, port,
                entry["flow_rate_bps"], entry["packet_size"]))
            program.flows_started += 1

    links = {frozenset(link.endpoints()) for link in topology.links}
    for index, fault in enumerate(spec.faults):
        kind = fault["kind"]
        if kind != "link_flap":
            raise TopologyError(
                f"sharded runs execute a static-forwarding dataplane "
                f"with no control channel; fault kind {kind!r} is not "
                f"supported under --shards"
            )
        label = f"fault #{index}"
        injections = lower_fault(fault, label)
        a, b = fault["a"], fault["b"]
        if frozenset((a, b)) not in links:
            raise TopologyError(f"{label} ({kind}): no link {a} -- {b}")
        for at, name, _bind in injections:
            program.ops.append((name, at, a, b))

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
