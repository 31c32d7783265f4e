"""One shard's event loop: rebuild, run windows, report observables.

A :class:`ShardWorker` is constructed from plain picklable inputs —
``(spec document, shard id, shard count)`` — and rebuilds *everything*
deterministically: topology, partition, compiled program, a
stable-ties :class:`~repro.sim.Simulator`, and a shard-sliced
:class:`~repro.netem.network.Network` whose cut links are
:class:`~repro.sim.shard.boundary.BoundaryLink` stubs.

The execution model is static forwarding: per-destination shortest-path
``ip_dst`` flow entries installed directly on the local datapaths
(miss = drop, no controller), static ARP from the topology specs, and
the compiled open-loop traffic program.  That is the model under which
a 4-shard run is provably bit-identical to the 1-shard oracle — see
ARCHITECTURE.md, "Sharded kernel".
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.dataplane import FlowEntry, Match, Output
from repro.netem.network import Network
from repro.netem.traffic import CBRStream, FlowSink, send_framed_flow
from repro.sim import Simulator
from repro.sim.shard.boundary import BoundaryLink, ShardMessage
from repro.sim.shard.partition import Partition, partition_topology
from repro.sim.shard.program import Program, build_program, build_routes
from repro.telemetry import Telemetry
from repro.telemetry.artifact import SHARD_ID_STRIDE
from repro.workload.spec import WorkloadSpec, build_spec_topology

__all__ = ["ShardWorker"]


class ShardWorker:
    """Everything one shard owns, plus the window-protocol surface."""

    def __init__(self, spec_doc: dict, shard_id: int, shards: int,
                 trace: bool = False) -> None:
        self.spec = WorkloadSpec.from_dict(spec_doc)
        self.shard_id = shard_id
        self.topology = build_spec_topology(self.spec)
        self.partition: Partition = partition_topology(self.topology, shards)
        self.program: Program = build_program(self.spec, self.topology)
        # Per-shard telemetry: the tracer mints trace and span ids in
        # this shard's stride band, so the engine can merge every
        # shard's artifact without renumbering.  Telemetry is a pure
        # observer (doctrine), so the digest is bit-identical either
        # way — asserted by the differential tests.
        self.sim = Simulator(
            seed=self.spec.seed, stable_ties=True,
            telemetry=(Telemetry(trace=True,
                                 trace_id_base=shard_id * SHARD_ID_STRIDE)
                       if trace else None))
        self.telemetry = self.sim.telemetry
        self.outbox: List[ShardMessage] = []
        self.boundaries: Dict[int, BoundaryLink] = {}
        local = self.partition.nodes_of(shard_id)

        def boundary_factory(index, spec, att, local_is_a):
            link = BoundaryLink(self.sim, index, spec, att, local_is_a,
                                self.outbox)
            self.boundaries[index] = link
            return link

        self.net = Network(
            self.topology, sim=self.sim,
            num_tables=1, miss_behaviour="drop", fast_path=True,
            local_nodes=local, link_keys=True,
            boundary_factory=boundary_factory,
        )
        self._install_routes()
        self._install_arp()
        self.sinks: Dict[Tuple[str, int], FlowSink] = {}
        for host_name, port in self.program.sinks:
            host = self.net.hosts.get(host_name)
            if host is not None:
                self.sinks[(host_name, port)] = FlowSink(host, port)
        self._schedule_program(local)
        self.executed = 0

    # ------------------------------------------------------------------
    # Static control plane
    # ------------------------------------------------------------------
    def _install_routes(self) -> None:
        routes = build_routes(self.topology)
        nodes = self.topology.nodes
        for host_name in sorted(routes):
            ip = nodes[host_name].ip
            match = Match(eth_type=0x0800, ip_dst=ip)
            for switch_name, next_hop in sorted(routes[host_name].items()):
                dp = self.net.switches.get(switch_name)
                if dp is None:
                    continue  # another shard's switch
                port = self.net.port_of(switch_name, next_hop)
                dp.install_flow(FlowEntry(match, actions=(Output(port),)))

    def _install_arp(self) -> None:
        specs = [n for n in self.topology.nodes.values() if not n.is_switch]
        for host in self.net.hosts.values():
            for spec in specs:
                if spec.name != host.name:
                    host.add_static_arp(spec.ip, spec.mac)

    # ------------------------------------------------------------------
    # Program scheduling
    # ------------------------------------------------------------------
    def _schedule_program(self, local: set) -> None:
        """Arm the local subsequence of the global op list, in global
        order — same-instant (0, seq) ties then break identically at
        every shard count."""
        sim = self.sim
        nodes = self.topology.nodes
        for op in self.program.ops:
            kind = op[0]
            if kind == "flow":
                _, t, src, dst, flow_id, size, sport, dport, rate, psize = op
                if src not in local:
                    continue
                sim.schedule_at(t, self._start_flow, src, nodes[dst].ip,
                                flow_id, size, sport, dport, rate, psize)
            elif kind == "cbr":
                _, start, duration, src, dst, flow_id, bps, psize, sport, \
                    dport = op
                if src not in local:
                    continue
                CBRStream(self.net.hosts[src], nodes[dst].ip,
                          rate_bps=bps, packet_size=psize, start=start,
                          duration=duration, src_port=sport,
                          dst_port=dport, flow_id=flow_id)
            else:  # link_down / link_up
                _, t, a, b = op
                if a not in local and b not in local:
                    continue
                if kind == "link_down":
                    sim.schedule_at(t, self.net.fail_link, a, b)
                else:
                    sim.schedule_at(t, self.net.recover_link, a, b)

    def _start_flow(self, src: str, dst_ip, flow_id: int, size: int,
                    sport: int, dport: int, rate: float,
                    psize: int) -> None:
        send_framed_flow(self.sim, self.net.hosts[src], dst_ip, flow_id,
                         size, sport, dport, rate, psize)

    # ------------------------------------------------------------------
    # Window protocol
    # ------------------------------------------------------------------
    @property
    def next_event_time(self) -> float:
        return self.sim.next_event_time

    def advance(self, grant: float, messages: List[ShardMessage],
                final: bool) -> Tuple[List[ShardMessage], float, int]:
        """Merge incoming frames, run one conservative window, drain
        the outbox.

        Non-final windows are half-open (events strictly before
        ``grant``): a frame arriving exactly at the next window edge is
        merged into the heap before any local event at that instant
        runs.  The final window is inclusive — the engine only issues
        it once no cross-shard frame can arrive at or before the
        horizon.
        """
        for message in messages:
            self.boundaries[message[1]].deliver(message)
        executed = self.sim.run(until=grant, exclusive=not final)
        self.executed += executed
        out, self.outbox[:] = list(self.outbox), []
        return out, self.sim.next_event_time, executed

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------
    def collect(self) -> dict:
        """This shard's slice of the run's observables.

        Everything is keyed by entity (flow id, node name, link index +
        direction) so the engine's merge is order-free; counters split
        across shards (boundary link halves) sum fieldwise back to the
        unsharded values.
        """
        flows = []
        for sink in self.sinks.values():
            for record in sink.flows.values():
                flows.append([record.flow_id, record.src, record.dst,
                              record.size, record.start_time,
                              record.end_time, record.bytes_received,
                              record.packets_received])
        flows.sort()
        hosts = {
            name: [h.rx_packets, h.rx_bytes, h.tx_packets, h.tx_bytes]
            for name, h in self.net.hosts.items()
        }
        switches = {name: dp.stats()
                    for name, dp in self.net.switches.items()}
        links: Dict[str, dict] = {}
        local = self.partition.nodes_of(self.shard_id)
        for index, spec in enumerate(self.topology.links):
            if index in self.boundaries:
                links[str(index)] = self.boundaries[index].half_stats()
            elif spec.a in local and spec.b in local:
                link = self.net.link(spec.a, spec.b)
                ab, ba = link.direction_stats()
                for half in (ab, ba):
                    half.pop("utilisation", None)
                links[str(index)] = {"0": ab, "1": ba}
        return {
            "flows": flows,
            "hosts": hosts,
            "switches": switches,
            "links": links,
        }
