"""Scenario-grade traffic generators layered on the netem primitives.

Three shapes the base :mod:`repro.netem.traffic` families do not cover:

* :class:`IncastGenerator` — periodic fan-in storms (N senders fire at
  one aggregator simultaneously), the classic partition/aggregate
  pattern that stresses flow-table setup latency and queueing.
* :class:`DiurnalFlowGenerator` — Poisson arrivals thinned against a
  sinusoidal day curve, for carrier-WAN load that breathes.
* :class:`TenantMatrix` — a per-tenant traffic matrix whose weights
  come from *modelled user counts*, so a spec can say "tenant A has
  1.2 million users" and get a proportional, locality-biased share of
  a tractable aggregate flow rate.

:func:`arm_traffic` is the declarative bridge: one traffic-entry dict
from a :class:`~repro.workload.spec.WorkloadSpec` becomes one armed
generator, with flow sinks lazily installed on the destination port.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.errors import TopologyError
from repro.netem.host import Host
from repro.netem.traffic import (
    CBRStream,
    FlowGenerator,
    FlowRecord,
    FlowSink,
    allocate_flow_id,
    send_framed_flow,
)
from repro.sim import Simulator
from repro.workload.sizes import size_source_from_spec

__all__ = [
    "DiurnalFlowGenerator",
    "IncastGenerator",
    "TenantMatrix",
    "arm_traffic",
    "ensure_sinks",
]


class IncastGenerator:
    """Periodic fan-in storms: ``fanin`` senders fire at one aggregator.

    Every ``period`` seconds a fresh subset of senders each start a
    framed flow of ``bytes_per_sender`` toward the aggregator at the
    same instant — the partition/aggregate burst that produces
    synchronized queue buildup and flow-table churn.
    """

    def __init__(
        self,
        sim: Simulator,
        senders: List[Host],
        aggregator: Host,
        bytes_per_sender: int = 20_000,
        period: float = 1.0,
        fanin: Optional[int] = None,
        start: float = 0.0,
        duration: float = 10.0,
        flow_rate_bps: float = 10e6,
        packet_size: int = 1000,
        dst_port: int = 9000,
    ) -> None:
        senders = [h for h in senders if h is not aggregator]
        if not senders:
            raise TopologyError("incast needs at least one sender")
        if period <= 0:
            raise TopologyError(f"incast period must be positive: {period}")
        self.sim = sim
        self.senders = senders
        self.aggregator = aggregator
        self.bytes_per_sender = bytes_per_sender
        self.period = period
        self.fanin = min(fanin or len(senders), len(senders))
        self.flow_rate_bps = flow_rate_bps
        self.packet_size = packet_size
        self.dst_port = dst_port
        self.rng = sim.fork_rng()
        self.bursts = 0
        self.flows_started: List[FlowRecord] = []
        self._end_at = sim.now + start + duration
        self._next_src_port = 30000
        sim.schedule(start, self._burst)

    def _burst(self) -> None:
        if self.sim.now >= self._end_at:
            return
        self.bursts += 1
        for src in self.rng.sample(self.senders, self.fanin):
            flow_id = allocate_flow_id(self.sim)
            src_port = self._next_src_port
            self._next_src_port += 1
            if self._next_src_port > 60000:
                self._next_src_port = 30000
            record = FlowRecord(flow_id, src.name, self.aggregator.name,
                                self.bytes_per_sender, self.sim.now)
            self.flows_started.append(record)
            send_framed_flow(self.sim, src, self.aggregator.ip, flow_id,
                             self.bytes_per_sender, src_port, self.dst_port,
                             self.flow_rate_bps, self.packet_size)
        self.sim.schedule(self.period, self._burst)


class DiurnalFlowGenerator(FlowGenerator):
    """Poisson arrivals modulated by a sinusoidal diurnal curve.

    The parent schedules candidate arrivals at the *peak* rate; each is
    accepted with probability ``rate(t) / peak`` (Poisson thinning), so
    the accepted process is an inhomogeneous Poisson process with

    ``rate(t) = peak * (trough + (1 - trough) * 0.5 *
    (1 - cos(2 * pi * (t - phase) / period)))``

    ``trough`` is the floor as a fraction of peak (0.2 = nightly load
    is 20% of the daily maximum).
    """

    def __init__(self, *args, period: float = 86_400.0,
                 trough: float = 0.2, phase: float = 0.0,
                 **kwargs) -> None:
        if period <= 0:
            raise TopologyError(f"diurnal period must be positive: {period}")
        if not 0.0 <= trough <= 1.0:
            raise TopologyError(
                f"diurnal trough must be in [0, 1]: {trough}"
            )
        self.period = period
        self.trough = trough
        self.phase = phase
        self.accepted = 0
        self.thinned = 0
        super().__init__(*args, **kwargs)

    def rate_fraction(self, t: float) -> float:
        """Instantaneous rate as a fraction of peak, in [trough, 1]."""
        cycle = 0.5 * (1.0 - math.cos(
            2.0 * math.pi * (t - self.phase) / self.period))
        return self.trough + (1.0 - self.trough) * cycle

    def _arrival(self) -> None:
        if self.sim.now > self._end_at:
            return
        if self.rng.random() < self.rate_fraction(self.sim.now):
            self.accepted += 1
            self._spawn_flow()
        else:
            self.thinned += 1
        self.sim.schedule(self.rng.expovariate(self.arrival_rate),
                          self._arrival)


class TenantMatrix:
    """A user-count-weighted, locality-biased traffic matrix.

    ``tenants`` is a list of dicts: ``{"name": ..., "users": ...,
    "intra_weight": ...}``.  Hosts are partitioned among tenants in
    proportion to their user counts (largest-remainder, at least one
    host each); flow sources are drawn tenant-first (weighted by
    users), then the destination stays inside the tenant with
    probability ``intra_weight``.

    The matrix also converts "millions of modelled users" into a
    tractable simulated arrival rate: :meth:`aggregate_rate` multiplies
    the total user count by a per-user flow rate (default 2e-5 flows
    per user per second, i.e. one flow per user every ~14 hours of
    modelled activity).
    """

    def __init__(self, rng, hosts: List[Host], tenants: List[dict]) -> None:
        if not tenants:
            raise TopologyError("tenant matrix needs at least one tenant")
        if len(hosts) < 2 * len(tenants):
            raise TopologyError(
                f"{len(tenants)} tenants need >= {2 * len(tenants)} hosts, "
                f"got {len(hosts)}"
            )
        self.rng = rng
        self.tenants = tenants
        self.users = [float(t.get("users", 1.0)) for t in tenants]
        if min(self.users) <= 0:
            raise TopologyError("tenant user counts must be positive")
        self.total_users = sum(self.users)
        self.hosts_by_tenant = self._partition(hosts)
        self._cum_weights: List[float] = []
        acc = 0.0
        for users in self.users:
            acc += users / self.total_users
            self._cum_weights.append(acc)
        self._cum_weights[-1] = 1.0

    def _partition(self, hosts: List[Host]) -> List[List[Host]]:
        n = len(hosts)
        shares = [n * u / self.total_users for u in self.users]
        counts = [max(int(s), 2) for s in shares]
        while sum(counts) > n:
            counts[counts.index(max(counts))] -= 1
        remainders = sorted(
            range(len(shares)),
            key=lambda i: shares[i] - int(shares[i]),
            reverse=True,
        )
        i = 0
        while sum(counts) < n:
            counts[remainders[i % len(remainders)]] += 1
            i += 1
        out: List[List[Host]] = []
        cursor = 0
        for count in counts:
            out.append(hosts[cursor:cursor + count])
            cursor += count
        return out

    def aggregate_rate(self, flows_per_user_per_s: float = 2e-5) -> float:
        """Total flow arrival rate implied by the modelled user base."""
        return self.total_users * flows_per_user_per_s

    def pick(self) -> Tuple[Host, Host]:
        """Draw one (src, dst) pair; plugs into ``pair_picker``."""
        u = self.rng.random()
        idx = 0
        while u > self._cum_weights[idx]:
            idx += 1
        tenant = self.tenants[idx]
        pool = self.hosts_by_tenant[idx]
        src = self.rng.choice(pool)
        intra = float(tenant.get("intra_weight", 0.8))
        if self.rng.random() < intra or len(self.hosts_by_tenant) == 1:
            dst = self.rng.choice(pool)
            while dst is src:
                dst = self.rng.choice(pool)
            return src, dst
        others = [i for i in range(len(self.hosts_by_tenant)) if i != idx]
        dst_pool = self.hosts_by_tenant[self.rng.choice(others)]
        return src, self.rng.choice(dst_pool)


def ensure_sinks(hosts: List[Host], port: int,
                 registry: Dict[Tuple[str, int], FlowSink],
                 on_flow_complete=None) -> List[FlowSink]:
    """Install a :class:`FlowSink` per (host, port) at most once.

    Several traffic entries may target the same destination port;
    ``registry`` (owned by the caller, typically the runner) makes the
    bind idempotent.
    """
    sinks: List[FlowSink] = []
    for host in hosts:
        key = (host.name, port)
        sink = registry.get(key)
        if sink is None:
            sink = FlowSink(host, port)
            if on_flow_complete is not None:
                sink.on_flow_complete = on_flow_complete
            registry[key] = sink
        sinks.append(sink)
    return sinks


def arm_traffic(sim: Simulator, hosts: List[Host], entry: dict,
                sinks: Dict[Tuple[str, int], FlowSink],
                on_flow_complete=None,
                tenant_matrix: Optional[TenantMatrix] = None):
    """Arm one declarative traffic entry and return the generator.

    ``entry`` kinds (all times relative to *now*, i.e. spec time zero):

    * ``flows``   — Poisson :class:`FlowGenerator`; keys ``rate``,
      ``sizes`` (a size-spec dict), optional ``flow_rate_bps``,
      ``tenant_matrix: true`` to route via ``tenant_matrix``.
    * ``incast``  — :class:`IncastGenerator`; keys ``fanin``,
      ``bytes_per_sender``, ``period``.
    * ``diurnal`` — :class:`DiurnalFlowGenerator`; ``flows`` keys plus
      ``period``, ``trough``, ``phase``.  ``rate`` is the *peak* rate.
    * ``cbr``     — one :class:`CBRStream` between the first two hosts;
      keys ``rate_bps``, optional ``packet_size``.
    * ``probe``   — one UDP datagram from host ``src`` to host ``dst``
      (names) at ``start``; no generator, returns ``None``.
    """
    kind = entry.get("kind", "flows")
    start = float(entry.get("start", 0.0))
    duration = float(entry.get("duration", 10.0))
    dst_port = int(entry.get("dst_port", 9000))

    if kind == "probe":
        by_name = {host.name: host for host in hosts}
        try:
            src, dst = by_name[entry["src"]], by_name[entry["dst"]]
        except KeyError as exc:
            raise TopologyError(
                f"probe entry: missing field or unknown host {exc}"
            ) from exc
        sim.schedule_at(sim.now + start, src.send_udp, dst.ip,
                        5001, 5001, b"fuzz")
        return None

    if kind == "cbr":
        if len(hosts) < 2:
            raise TopologyError("cbr entry needs >= 2 hosts")
        ensure_sinks([hosts[1]], dst_port, sinks, on_flow_complete)
        return CBRStream(hosts[0], hosts[1].ip,
                         rate_bps=float(entry.get("rate_bps", 1e6)),
                         packet_size=int(entry.get("packet_size", 1000)),
                         start=start, duration=duration,
                         dst_port=dst_port)

    if kind == "incast":
        aggregator = hosts[-1]
        ensure_sinks([aggregator], dst_port, sinks, on_flow_complete)
        return IncastGenerator(
            sim, hosts[:-1], aggregator,
            bytes_per_sender=int(entry.get("bytes_per_sender", 20_000)),
            period=float(entry.get("period", 1.0)),
            fanin=entry.get("fanin"),
            start=start, duration=duration,
            flow_rate_bps=float(entry.get("flow_rate_bps", 10e6)),
            packet_size=int(entry.get("packet_size", 1000)),
            dst_port=dst_port,
        )

    if kind in ("flows", "diurnal"):
        ensure_sinks(hosts, dst_port, sinks, on_flow_complete)
        size_rng = sim.fork_rng()
        sizes = size_source_from_spec(
            size_rng, entry.get("sizes", {"dist": "pareto", "mean": 50_000}))
        pair_picker = None
        if entry.get("tenant_matrix"):
            if tenant_matrix is None:
                raise TopologyError(
                    "traffic entry requests tenant_matrix but the spec "
                    "declares no tenants"
                )
            pair_picker = tenant_matrix.pick
        rate = float(entry.get(
            "rate",
            tenant_matrix.aggregate_rate(
                float(entry.get("flows_per_user_per_s", 2e-5)))
            if (entry.get("tenant_matrix") and tenant_matrix is not None)
            else 10.0,
        ))
        common = dict(
            flow_rate_bps=float(entry.get("flow_rate_bps", 10e6)),
            packet_size=int(entry.get("packet_size", 1000)),
            dst_port=dst_port, pair_picker=pair_picker,
            start=start, duration=duration,
        )
        if kind == "diurnal":
            return DiurnalFlowGenerator(
                sim, hosts, rate, sizes,
                period=float(entry.get("period", 86_400.0)),
                trough=float(entry.get("trough", 0.2)),
                phase=float(entry.get("phase", 0.0)),
                **common,
            )
        return FlowGenerator(sim, hosts, rate, sizes, **common)

    raise TopologyError(f"unknown traffic kind {entry.get('kind')!r}")
