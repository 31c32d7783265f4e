"""Declarative workload scenarios: one document, one wired run.

A :class:`WorkloadSpec` is a JSON/YAML-serialisable description of a
complete experiment — topology family and size, platform profile,
traffic mix (heavy-tailed flows, incast storms, diurnal load, tenant
matrices), fault schedule, extra SLOs, and the seed — that
:func:`~repro.workload.runner.run_workload` turns into a running
platform with the obs plane attached.  Specs are pure data: the same
document and seed reproduce the same run bit-for-bit.

:func:`library` ships the canned scenario set the E16 benchmark and the
CI smoke suite run; :func:`to_check_scenario` lowers a spec onto the
``repro.check`` fuzzer plane so the invariant checker and monitor work
on realistic workloads too.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.errors import TopologyError
from repro.netem import Topology

__all__ = [
    "WorkloadSpec",
    "build_spec_topology",
    "library",
    "load_spec",
    "to_check_scenario",
]

SPEC_VERSION = 1


class WorkloadSpec:
    """One declarative scenario (see the module docstring).

    Fields
    ------
    topology:
        ``{"family": name, "size": n, "bandwidth": bps, "params": {...}}``
        — ``family`` is any :meth:`Topology.build` family;
        ``params``, when present, are passed to the builder classmethod
        directly (carrier-WAN tier widths, for example).
    traffic:
        A list of entries for
        :func:`~repro.workload.generators.arm_traffic` (kinds ``flows``,
        ``incast``, ``diurnal``, ``cbr``), each with ``start`` and
        ``duration`` relative to spec time zero.
    tenants:
        Optional ``[{"name", "users", "intra_weight"}, ...]`` — enables
        ``"tenant_matrix": true`` traffic entries, with aggregate rates
        derived from the modelled user counts.
    faults:
        Fuzzer-style fault dicts (``link_flap``/``channel_flap``/
        ``switch_crash`` with ``at`` relative to spec time zero).
    slos:
        Extra objectives in :func:`repro.obs.slo_from_spec` form,
        evaluated alongside the stock set.
    """

    __slots__ = ("name", "seed", "duration", "interval", "topology",
                 "profile", "tenants", "traffic", "faults", "slos",
                 "settle")

    def __init__(self, name: str, topology: dict,
                 traffic: List[dict], seed: int = 0,
                 duration: Optional[float] = None,
                 interval: float = 0.1, profile: str = "proactive",
                 tenants: Optional[List[dict]] = None,
                 faults: Optional[List[dict]] = None,
                 slos: Optional[List[dict]] = None,
                 settle: float = 2.0) -> None:
        if not traffic:
            raise TopologyError(f"workload {name!r} declares no traffic")
        self.name = name
        self.seed = seed
        self.topology = dict(topology)
        self.profile = profile
        self.interval = interval
        self.tenants = list(tenants) if tenants else []
        self.traffic = [dict(entry) for entry in traffic]
        self.faults = list(faults) if faults else []
        self.slos = list(slos) if slos else []
        self.settle = settle
        self.duration = (duration if duration is not None
                         else self.horizon())

    def horizon(self) -> float:
        """Simulated seconds implied by the armed traffic and faults."""
        last = 1.0
        for entry in self.traffic:
            last = max(last, float(entry.get("start", 0.0))
                       + float(entry.get("duration", 10.0)))
        for fault in self.faults:
            if fault["kind"] in ("link_flap", "channel_flap"):
                # The k-th cycle goes down at ``at + k*period`` and
                # comes back ``down_for`` later, so the last recovery —
                # not ``at + count*period``, which overshoots by
                # ``period - down_for`` — bounds the schedule.
                last = max(last, fault["at"]
                           + (fault["count"] - 1) * fault["period"]
                           + fault["down_for"])
            else:  # switch_crash
                last = max(last, fault["at"] + fault["restart_after"])
        return last + self.settle

    def to_dict(self) -> dict:
        return {
            "version": SPEC_VERSION,
            "name": self.name,
            "seed": self.seed,
            "duration": self.duration,
            "interval": self.interval,
            "topology": dict(self.topology),
            "profile": self.profile,
            "tenants": [dict(t) for t in self.tenants],
            "traffic": [dict(e) for e in self.traffic],
            "faults": [dict(f) for f in self.faults],
            "slos": [dict(s) for s in self.slos],
            "settle": self.settle,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        version = data.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise TopologyError(
                f"unsupported workload spec version {version}"
            )
        return cls(
            name=data["name"],
            topology=data["topology"],
            traffic=data["traffic"],
            seed=data.get("seed", 0),
            duration=data.get("duration"),
            interval=data.get("interval", 0.1),
            profile=data.get("profile", "proactive"),
            tenants=data.get("tenants"),
            faults=data.get("faults"),
            slos=data.get("slos"),
            settle=data.get("settle", 2.0),
        )

    def __repr__(self) -> str:
        family = self.topology.get("family", "?")
        return (f"<WorkloadSpec {self.name!r} {family} "
                f"{len(self.traffic)} traffic entr"
                f"{'y' if len(self.traffic) == 1 else 'ies'} "
                f"seed={self.seed}>")


def load_spec(path: str) -> WorkloadSpec:
    """Load a spec document from a ``.json`` or ``.yaml`` file.

    YAML support is import-gated: it only needs PyYAML when the file
    actually is YAML, so the library keeps its zero-dependency core.
    """
    if path.endswith((".yaml", ".yml")):
        try:
            import yaml  # type: ignore[import-untyped]
        except ImportError as exc:  # pragma: no cover - env-specific
            raise TopologyError(
                "YAML specs need PyYAML installed; use JSON instead"
            ) from exc
        with open(path) as fh:
            return WorkloadSpec.from_dict(yaml.safe_load(fh))
    with open(path) as fh:
        return WorkloadSpec.from_dict(json.load(fh))


def build_spec_topology(spec: WorkloadSpec) -> Topology:
    """Instantiate the spec's topology.

    ``params`` (when given) call the builder classmethod directly;
    otherwise ``family``/``size``/``bandwidth`` go through
    :meth:`Topology.build`.
    """
    family = spec.topology.get("family", "fat_tree")
    params = spec.topology.get("params")
    if params:
        builder = getattr(Topology, family, None)
        if builder is None:
            raise TopologyError(f"unknown topology family {family!r}")
        return builder(**params)
    return Topology.build(family, int(spec.topology.get("size", 4)),
                          float(spec.topology.get("bandwidth", 1e9)))


def to_check_scenario(spec: WorkloadSpec):
    """Lower a workload spec onto the ``repro.check`` scenario plane.

    The returned :class:`~repro.check.fuzzer.Scenario` re-arms the
    spec's traffic entries (each gains ``"at"`` from its ``start``) and
    faults, so ``run_scenario`` checks invariants — and the monitor
    watches transients — under the realistic workload.
    """
    from repro.check.fuzzer import Scenario

    workload = []
    for entry in spec.traffic:
        doc = dict(entry)
        doc.setdefault("kind", "flows")
        doc["at"] = float(doc.pop("start", 0.0))
        workload.append(doc)
    return Scenario(
        seed=spec.seed,
        name=f"workload-{spec.name}",
        topology=spec.topology.get("family", "fat_tree"),
        size=int(spec.topology.get("size", 4)),
        profile=spec.profile,
        workload=workload,
        faults=[dict(f) for f in spec.faults],
        settle=max(spec.settle, 2.0),
    )


def library() -> Dict[str, WorkloadSpec]:
    """The canned scenario set (benchmark E16 and the CI smoke suite).

    Three families, one per stressor class:

    * ``dc-heavy-tail`` — fat-tree datacenter under an elephant/mice
      Poisson mix; tail FCT and flow-table occupancy.
    * ``incast-storm``  — periodic partition/aggregate fan-in bursts at
      one aggregator; synchronized table churn and queueing.
    * ``wan-diurnal``   — carrier WAN breathing through a (compressed)
      day curve with a mid-run link flap.
    * ``tenant-millions`` — per-tenant matrices whose aggregate arrival
      rate derives from ~2.4 million modelled users.
    """
    specs = [
        WorkloadSpec(
            "dc-heavy-tail",
            topology={"family": "fat_tree", "size": 4},
            profile="proactive",
            seed=16,
            traffic=[{
                "kind": "flows",
                "rate": 40.0,
                "sizes": {"dist": "mix", "mice_mean": 2_000,
                          "elephant_mean": 120_000,
                          "elephant_frac": 0.05},
                "start": 0.5,
                "duration": 5.0,
            }],
            slos=[{
                "kind": "series", "name": "workload-fct-p99",
                "series": "workload_fct_seconds", "threshold": 1.0,
                "signal": "quantile", "q": 0.99, "window": 2.0,
                "prefix": True, "for_s": 1.0, "severity": "ticket",
                "description": "p99 flow completion time stays sane",
            }],
        ),
        WorkloadSpec(
            "incast-storm",
            topology={"family": "fat_tree", "size": 4},
            profile="proactive",
            seed=17,
            traffic=[{
                "kind": "incast",
                "fanin": 8,
                "bytes_per_sender": 30_000,
                "period": 1.0,
                "start": 0.5,
                "duration": 4.0,
            }],
        ),
        WorkloadSpec(
            "wan-diurnal",
            topology={"family": "carrier_wan",
                      "params": {"cores": 3, "metros_per_core": 1,
                                 "access_per_metro": 1,
                                 "hosts_per_access": 2}},
            profile="proactive",
            seed=18,
            traffic=[{
                "kind": "diurnal",
                "rate": 30.0,
                "period": 4.0,   # one "day" compressed into 4 sim-s
                "trough": 0.2,
                "sizes": {"dist": "lognormal", "mean": 20_000,
                          "sigma": 1.0},
                "start": 0.5,
                "duration": 5.0,
            }],
            faults=[{
                "kind": "link_flap", "a": "core0", "b": "core1",
                "at": 2.5, "down_for": 0.4, "period": 1.2, "count": 1,
            }],
        ),
        WorkloadSpec(
            "tenant-millions",
            topology={"family": "fat_tree", "size": 4},
            profile="proactive",
            seed=19,
            tenants=[
                {"name": "anchor", "users": 1_200_000,
                 "intra_weight": 0.85},
                {"name": "longtail", "users": 800_000,
                 "intra_weight": 0.7},
                {"name": "enterprise", "users": 400_000,
                 "intra_weight": 0.9},
            ],
            traffic=[{
                "kind": "flows",
                "tenant_matrix": True,
                "flows_per_user_per_s": 2e-5,  # -> 48 flows/s aggregate
                "sizes": {"dist": "pareto", "mean": 20_000},
                "start": 0.5,
                "duration": 4.0,
            }],
        ),
    ]
    return {spec.name: spec for spec in specs}
