"""Declarative scenarios: one document, one wired run.

A :class:`WorkloadSpec` is a JSON/YAML-serialisable description of a
complete experiment — topology family and size, platform profile and
app stack, controller count, traffic mix (heavy-tailed flows, incast
storms, diurnal load, tenant matrices, single probes), fault schedule,
extra SLOs, and the seed.  It is the only scenario document:
:func:`~repro.workload.runner.run_workload` measures it,
:func:`repro.check.run_scenario` checks invariants on it and the fuzzer
generates, minimises and replays it, all through
:func:`~repro.workload.runner.assemble`.  Specs are pure data: the same
document and seed reproduce the same run bit-for-bit.

A spec is checked when built (traffic by the one reader, ``read_traffic``)
and again against the topology, before any simulated time.

:func:`library` ships the canned scenario set the E16 benchmark and the
CI smoke suite run.
"""

from __future__ import annotations

import inspect
import json
from typing import Dict, List, Optional

from repro.digest import load_document
from repro.errors import TopologyError
from repro.faults import fault_end
from repro.netem import Topology
from repro.netem.topology import FAMILIES, LinkSpec
from repro.obs.artifact import RunArtifact
from repro.obs.slo import slo_from_spec
from repro.workload.generators import TenantMatrix, read_traffic

__all__ = [
    "WorkloadSpec",
    "build_spec_topology",
    "library",
    "load_spec",
]

SPEC_VERSION = 1

STACKS = ("plain", "policy", "multipath")

#: Every document field but ``version`` -> the type its JSON value must
#: have (``from_dict`` passes them to the constructor by these names).
_NUMBER = (int, float)
_FIELD_TYPES = {
    "name": str, "seed": int, "duration": _NUMBER, "interval": _NUMBER,
    "topology": dict, "profile": str, "tenants": list, "traffic": list,
    "faults": list, "slos": list, "settle": _NUMBER, "controllers": int,
    "stack": str,
}


def _check_buildable(label: str, topology: dict) -> None:
    """Reject a topology the run could not build."""
    family = topology.get("family", "fat_tree")
    if family not in FAMILIES:
        raise TopologyError(f"{label}: topology field 'family' names no "
                            f"Topology builder: {family!r}")
    try:
        if topology.get("params"):
            bound = inspect.signature(getattr(Topology, family)).bind(
                **topology["params"])
            # The builder hands its leftover keywords to every LinkSpec.
            inspect.signature(LinkSpec).bind(
                "a", "b", **bound.arguments.get("link_opts", {}))
    except TypeError as exc:
        raise TopologyError(f"{label}: topology field 'params' does not "
                            f"fit Topology.{family}: {exc}") from None
    size, bandwidth = topology.get("size", 4), topology.get("bandwidth", 0)
    if not isinstance(size, int):
        raise TopologyError(f"{label}: topology field 'size' must be an "
                            f"integer, not {type(size).__name__}")
    if size < 1:
        raise TopologyError(f"{label}: topology field 'size' must be >= 1, "
                            f"not {size}")
    # Bandwidth 0 is an unlimited link.
    if not isinstance(bandwidth, _NUMBER) or bandwidth < 0:
        raise TopologyError(f"{label}: topology field 'bandwidth' must be "
                            f"a number >= 0, not {bandwidth!r}")


class WorkloadSpec:
    """One declarative scenario (see the module docstring).

    Fields
    ------
    topology:
        ``{"family": name, "size": n, "bandwidth": bps, "params": {...}}``
        — ``family`` is any :meth:`Topology.build` family;
        ``params``, when present, are passed to the builder classmethod
        directly (carrier-WAN tier widths, for example) and must bind
        to its signature.
    traffic:
        A list of entries for
        :func:`~repro.workload.generators.arm_traffic` (kinds ``flows``,
        ``incast``, ``diurnal``, ``cbr``, ``probe``; their fields and
        defaults are ``generators.TRAFFIC_KINDS``), each with
        ``start`` and ``duration`` relative to spec time zero.  May be
        empty: a fault-only scenario still has invariants to check.
    tenants:
        Optional ``[{"name", "users", "intra_weight"}, ...]`` — enables
        ``"tenant_matrix": true`` traffic entries, with aggregate rates
        derived from the modelled user counts.
    faults:
        :func:`repro.faults.arm_faults` dicts, ``at`` relative to spec
        time zero.
    slos:
        Extra objectives in :func:`repro.obs.slo_from_spec` form,
        evaluated alongside the stock set.
    controllers:
        Controller instances; ``> 1`` runs on a clustered platform and
        unlocks the ``controller_*`` fault kinds.
    stack:
        ``"plain"`` (the profile's apps only), ``"policy"`` (slicing +
        firewall + proactive routing across tables) or ``"multipath"``
        (SELECT-group ECMP fabric) — the shipped ``examples/`` stacks.
        The last two bring their own forwarding apps, so they need
        profile ``"bare"`` and a single controller.
    """

    __slots__ = ("name", "seed", "duration", "interval", "topology",
                 "profile", "tenants", "traffic", "faults", "slos",
                 "settle", "controllers", "stack")

    def __init__(self, name: str, topology: dict,
                 traffic: List[dict], seed: int = 0,
                 duration: Optional[float] = None,
                 interval: float = 0.1, profile: str = "proactive",
                 tenants: Optional[List[dict]] = None,
                 faults: Optional[List[dict]] = None,
                 slos: Optional[List[dict]] = None,
                 settle: float = 2.0, controllers: int = 1,
                 stack: str = "plain") -> None:
        label = f"workload spec {name!r}"
        _check_buildable(label, topology)
        if stack not in STACKS:
            raise TopologyError(
                f"{label}: unknown stack {stack!r}; pick from {STACKS}")
        if controllers < 1:
            raise TopologyError(
                f"{label}: controllers must be >= 1, not {controllers}")
        if interval <= 0:
            raise TopologyError(
                f"{label}: interval must be > 0, not {interval}")
        if duration is not None and duration < 0:
            raise TopologyError(
                f"{label}: duration must be >= 0, not {duration}")
        if stack != "plain" and (profile != "bare" or controllers > 1):
            raise TopologyError(
                f"{label}: the {stack!r} stack installs its "
                f"own forwarding apps; it needs profile 'bare' and one "
                f"controller, not {profile!r} x {controllers}"
            )
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
        self.controllers = controllers
        self.stack = stack
        for index, doc in enumerate(self.slos):
            try:
                slo_from_spec(doc)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                why = f"missing field {exc}" if isinstance(
                    exc, KeyError) else exc
                raise TopologyError(f"{label}: slos[{index}]: {why}") from None
        horizon = self.horizon()  # reads, and so checks, every entry
        self.duration = duration if duration is not None else horizon

    def horizon(self) -> float:
        """Simulated seconds implied by the armed traffic and faults."""
        label = f"workload spec {self.name!r}"
        last = 1.0
        for index, entry in enumerate(self.traffic):
            where = f"{label}: traffic[{index}]"
            entry = read_traffic(entry, where)
            if entry.get("tenant_matrix") and not self.tenants:
                raise TopologyError(f"{where} field 'tenant_matrix' needs "
                                    f"tenants, and the spec declares none")
            last = max(last, entry["start"] + entry["duration"])
        for index, fault in enumerate(self.faults):
            last = max(last, fault_end(fault, f"{label}: fault #{index}",
                                       self.controllers))
        return last + self.settle

    def to_dict(self) -> dict:
        doc = {
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
        # Emitted only when non-default, so every document written
        # before the fields existed — and each digest taken over one —
        # stays byte-identical.
        if self.controllers != 1:
            doc["controllers"] = self.controllers
        if self.stack != "plain":
            doc["stack"] = self.stack
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        """Build a spec from a document that may come from outside the
        program: every rejection is a :class:`TopologyError` naming the
        spec and the field."""
        if not isinstance(data, dict):
            raise TopologyError(
                f"workload spec: expected an object, "
                f"got {type(data).__name__}"
            )
        version = data.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise TopologyError(
                f"unsupported workload spec version {version}"
            )
        label = f"workload spec {data.get('name', '?')!r}"
        if isinstance(data.get("topology"), str) or "workload" in data:
            raise TopologyError(
                f"{label}: this is a check scenario document from "
                f"before the two formats merged (string 'topology', "
                f"'workload' list), not a workload spec; regenerate it "
                f"from its seed with `repro check fuzz`"
            )
        for field in ("name", "topology", "traffic"):
            if data.get(field) is None:
                raise TopologyError(f"{label}: missing field {field!r}")
        for field, kind in _FIELD_TYPES.items():
            value = data.get(field)
            if value is not None and not isinstance(value, kind):
                raise TopologyError(
                    f"{label}: field {field!r} must be "
                    f"{getattr(kind, '__name__', 'a number')}, "
                    f"not {type(value).__name__}"
                )
        for field in ("traffic", "tenants", "faults", "slos"):
            for index, entry in enumerate(data.get(field) or ()):
                if not isinstance(entry, dict):
                    raise TopologyError(
                        f"{label}: {field}[{index}] must be an object, "
                        f"not {type(entry).__name__}"
                    )
        # Absent and null fields take the constructor's defaults.
        return cls(**{field: data[field] for field in _FIELD_TYPES
                      if data.get(field) is not None})

    def __repr__(self) -> str:
        family = self.topology.get("family", "?")
        return (f"<WorkloadSpec {self.name!r} {family} "
                f"{len(self.traffic)} traffic entr"
                f"{'y' if len(self.traffic) == 1 else 'ies'} "
                f"seed={self.seed}>")


def load_spec(path: str) -> WorkloadSpec:
    """The spec a document holds: a bare spec document (``.json`` or
    ``.yaml``, the :meth:`WorkloadSpec.to_dict` form), or the spec a
    saved run ran — any run document that records one in
    ``meta.workload`` (``repro run --out``, a fuzz repro file).

    YAML support is import-gated: it only needs PyYAML when the file
    actually is YAML, so the library keeps its zero-dependency core.
    A missing or malformed file, or a run document that records no
    spec, is a :class:`~repro.errors.ZenError` naming the path.
    """
    def build(payload) -> WorkloadSpec:
        if isinstance(payload, dict) and "format" in payload:
            payload = RunArtifact.from_dict(payload).meta.get("workload")
            if payload is None:
                raise ValueError("this run artifact records no spec")
        return WorkloadSpec.from_dict(payload)

    parse = json.load
    if path.endswith((".yaml", ".yml")):
        try:
            import yaml  # type: ignore[import-untyped]
        except ImportError as exc:  # pragma: no cover - env-specific
            raise TopologyError(
                "YAML specs need PyYAML installed; use JSON instead"
            ) from exc
        parse = yaml.safe_load
    return load_document(path, "spec document", build, parse)


def build_spec_topology(spec: WorkloadSpec) -> Topology:
    """Instantiate the spec's topology, and check that its hosts can
    carry the spec's traffic and tenants — so a probe to a host the
    topology lacks, or too few hosts, fails before any simulated time
    on either engine.

    ``params`` (when given) call the builder classmethod directly;
    otherwise ``family``/``size``/``bandwidth`` go through
    :meth:`Topology.build`.
    """
    family = spec.topology.get("family", "fat_tree")
    params = spec.topology.get("params")
    if params:
        topology = getattr(Topology, family)(**params)
    else:
        topology = Topology.build(
            family, int(spec.topology.get("size", 4)),
            float(spec.topology.get("bandwidth", 1e9)))
    label = f"workload spec {spec.name!r}"
    hosts = sorted(node.name for node in topology.hosts)
    for index, entry in enumerate(spec.traffic):
        read_traffic(entry, f"{label}: traffic[{index}]", hosts)
    if spec.tenants:
        try:
            TenantMatrix(None, hosts, spec.tenants)  # draws nothing yet
        except (TopologyError, TypeError, ValueError) as exc:
            raise TopologyError(f"{label}: tenants: {exc}") from None
    return topology


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
