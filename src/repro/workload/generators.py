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

:func:`read_traffic` is the one reader of a traffic-entry dict (the
spec, :func:`arm_traffic` and the sharded compiler all read through it);
:func:`arm_traffic` is the declarative bridge: one entry becomes one
armed generator, with flow sinks lazily installed on the destination
port.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from repro.errors import TopologyError
from repro.netem.host import Host
from repro.netem.traffic import (
    FLOW_HEADER,
    CBRStream,
    FlowGenerator,
    FlowRecord,
    FlowSink,
    allocate_flow_id,
    send_framed_flow,
    source_ports,
)
from repro.sim import Simulator
from repro.workload.sizes import size_source_from_spec

__all__ = [
    "DiurnalFlowGenerator",
    "IncastGenerator",
    "TRAFFIC_KINDS",
    "TenantMatrix",
    "arm_traffic",
    "diurnal_fraction",
    "ensure_sinks",
    "read_traffic",
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
        self._ports = source_ports()
        sim.schedule(start, self._burst)

    def _burst(self) -> None:
        if self.sim.now >= self._end_at:
            return
        self.bursts += 1
        for src in self.rng.sample(self.senders, self.fanin):
            flow_id = allocate_flow_id(self.sim)
            record = FlowRecord(flow_id, src.name, self.aggregator.name,
                                self.bytes_per_sender, self.sim.now)
            self.flows_started.append(record)
            send_framed_flow(self.sim, src, self.aggregator.ip, flow_id,
                             self.bytes_per_sender, next(self._ports),
                             self.dst_port, self.flow_rate_bps,
                             self.packet_size)
        self.sim.schedule(self.period, self._burst)


def diurnal_fraction(t: float, period: float, trough: float,
                     phase: float) -> float:
    """The day curve at ``t`` as a fraction of peak, in [trough, 1]:
    ``trough + (1 - trough) * 0.5 * (1 - cos(2 * pi * (t - phase) /
    period))``."""
    cycle = 0.5 * (1.0 - math.cos(2.0 * math.pi * (t - phase) / period))
    return trough + (1.0 - trough) * cycle


class DiurnalFlowGenerator(FlowGenerator):
    """Poisson arrivals modulated by a sinusoidal diurnal curve.

    The parent schedules candidate arrivals at the *peak* rate; each is
    accepted with probability :func:`diurnal_fraction` (Poisson
    thinning), so the accepted process is an inhomogeneous Poisson
    process with ``rate(t) = peak * diurnal_fraction(t, ...)``.

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

    def _arrival(self) -> None:
        if self.sim.now > self._end_at:
            return
        if self.rng.random() < diurnal_fraction(
                self.sim.now, self.period, self.trough, self.phase):
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
                 on_flow_complete=None) -> None:
    """Install a :class:`FlowSink` per (host, port) at most once.

    Several traffic entries may target the same destination port;
    ``registry`` (owned by the caller, typically the runner) makes the
    bind idempotent.
    """
    for host in hosts:
        key = (host.name, port)
        if key not in registry:
            sink = registry[key] = FlowSink(host, port)
            if on_flow_complete is not None:
                sink.on_flow_complete = on_flow_complete


def _number(convert, low=None, strict=True):
    """Reads any JSON number with ``convert`` (``int`` truncates, as the
    generators always did), then holds it above ``low``."""
    def read(value):
        if not isinstance(value, (int, float)):
            raise TopologyError(
                f"must be a number, not {type(value).__name__}")
        value = convert(value)
        if low is not None and (value <= low if strict else value < low):
            raise TopologyError(
                f"must be {'>' if strict else '>='} {low}, not {value}")
        return value
    return read


def _must(test, wants):
    def read(value):
        if not test(value):
            raise TopologyError(f"must be {wants}, not {value!r}")
        return value
    return read


def _fraction(value):
    value = _number(float)(value)
    if not 0 <= value <= 1:
        raise TopologyError(f"must be in [0, 1], not {value}")
    return value


def _sizes(value):
    """A size-spec dict; one draw from a throwaway stream checks its
    distribution and every parameter."""
    if not isinstance(value, dict):
        raise TopologyError(
            f"must be a size-spec object, not {type(value).__name__}")
    try:
        next(size_source_from_spec(random.Random(0), value))
    except KeyError as exc:
        raise TopologyError(f"misses {exc}") from None
    except (TypeError, ValueError) as exc:
        raise TopologyError(str(exc)) from None
    return value


_TIME, _POSITIVE = _number(float, 0, strict=False), _number(float, 0)
_HOST = _must(lambda v: isinstance(v, str), "a host name")
_SEND = {"start": (0.0, _TIME), "duration": (10.0, _TIME),
         "dst_port": (9000, _number(int)),
         "packet_size": (1000, _number(int, FLOW_HEADER.size))}
_FLOW = {**_SEND, "flow_rate_bps": (10e6, _POSITIVE)}
_POISSON = {**_FLOW, "rate": (10.0, _POSITIVE),
            "sizes": ({"dist": "pareto", "mean": 50_000}, _sizes),
            "tenant_matrix": (False, bool),
            "flows_per_user_per_s": (2e-5, _POSITIVE)}

#: One row per traffic kind: every field the kind reads -> its default
#: and its reader.  :func:`read_traffic` is the only code that reads a
#: raw entry through it; field names are the generators' keywords.
TRAFFIC_KINDS = {
    "flows": _POISSON,
    "diurnal": {**_POISSON, "period": (86_400.0, _POSITIVE),
                "trough": (0.2, _fraction), "phase": (0.0, _number(float))},
    "incast": {**_FLOW, "bytes_per_sender": (20_000, _number(int, 0)),
               "period": (1.0, _POSITIVE),
               "fanin": (None, _must(
                   lambda v: v is None or isinstance(v, int) and v >= 1,
                   "null (every sender) or an integer >= 1"))},
    "cbr": {**_SEND, "rate_bps": (1e6, _POSITIVE)},
    # One datagram at ``start``: it lasts no time.
    "probe": {"start": (0.0, _TIME), "duration": (0.0, _TIME),
              "src": (None, _HOST), "dst": (None, _HOST)},
}


def read_traffic(entry: dict, label: str = "traffic entry",
                 hosts: Optional[List[str]] = None) -> dict:
    """``entry`` as a plain dict of its kind's fields, every default
    filled in and checked (a tenant-matrix entry without its own rate
    reads ``rate: None``), or one :class:`~repro.errors.TopologyError`
    naming ``label`` and the field.  Given the topology's ``hosts``
    (names), also checks that they carry it: a probe names two of
    them, every other kind needs two."""
    kind = entry.get("kind", "flows")
    row = TRAFFIC_KINDS.get(kind)
    if row is None:
        raise TopologyError(f"{label} field 'kind' names no traffic kind: "
                            f"{kind!r}; pick from {sorted(TRAFFIC_KINDS)}")
    read = {"kind": kind}
    for field, (default, reader) in row.items():
        try:
            read[field] = reader(entry.get(field, default))
        except TopologyError as exc:
            raise TopologyError(f"{label} field {field!r} {exc}") from None
    if read.get("tenant_matrix") and "rate" not in entry:
        read["rate"] = None
    if hosts is None:
        return read
    if kind == "probe":
        for field in ("src", "dst"):
            if read[field] not in hosts:
                raise TopologyError(f"{label} field {field!r} names an "
                                    f"unknown host {read[field]!r}")
    elif len(hosts) < 2:
        raise TopologyError(f"{label}: kind {kind!r} needs >= 2 hosts, "
                            f"the topology has {len(hosts)}")
    return read


def arm_traffic(sim: Simulator, hosts: List[Host], entry: dict,
                sinks: Dict[Tuple[str, int], FlowSink],
                on_flow_complete=None,
                tenant_matrix: Optional[TenantMatrix] = None):
    """Arm one traffic entry, read by :func:`read_traffic` with times
    relative to *now* (spec time zero), and return its generator:
    ``flows`` a Poisson :class:`FlowGenerator` (``tenant_matrix: true``
    draws its pairs, and unless given its rate, from ``tenant_matrix``),
    ``diurnal`` a :class:`DiurnalFlowGenerator` (``rate`` is the peak),
    ``incast`` an :class:`IncastGenerator` at the last host, ``cbr`` a
    :class:`CBRStream` from the first host to the second; ``probe``
    sends one datagram ``src`` -> ``dst`` at ``start`` and returns
    ``None``."""
    fields = read_traffic(entry, hosts=[host.name for host in hosts])
    kind = fields.pop("kind")
    if kind == "probe":
        by_name = {host.name: host for host in hosts}
        sim.schedule_at(sim.now + fields["start"],
                        by_name[fields["src"]].send_udp,
                        by_name[fields["dst"]].ip, 5001, 5001, b"fuzz")
        return None
    receivers = (hosts[1:2] if kind == "cbr" else
                 hosts[-1:] if kind == "incast" else hosts)
    ensure_sinks(receivers, fields["dst_port"], sinks, on_flow_complete)
    # The rest of a kind's fields are its generator's keywords.
    if kind == "cbr":
        return CBRStream(hosts[0], hosts[1].ip, **fields)
    if kind == "incast":
        return IncastGenerator(sim, hosts[:-1], hosts[-1], **fields)
    sizes = size_source_from_spec(sim.fork_rng(), fields.pop("sizes"))
    rate, per_user = fields.pop("rate"), fields.pop("flows_per_user_per_s")
    if fields.pop("tenant_matrix"):
        if tenant_matrix is None:
            raise TopologyError("traffic entry requests tenant_matrix "
                                "but the spec declares no tenants")
        fields["pair_picker"] = tenant_matrix.pick
        if rate is None:
            rate = tenant_matrix.aggregate_rate(per_user)
    generator = (DiurnalFlowGenerator if kind == "diurnal"
                 else FlowGenerator)
    return generator(sim, hosts, rate, sizes, **fields)
