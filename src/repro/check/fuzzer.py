"""Seeded scenario fuzzing: generate, run, check, reproduce.

A :class:`Scenario` is a JSON-serialisable tuple of (topology, app
stack, workload, fault schedule, settle time).  Generation is a pure
function of the seed (``random.Random(seed)``), the run itself happens
on the deterministic kernel, and the checker verdict is computed from a
read-only snapshot — so *everything* about a scenario replays
bit-identically, and a failing seed can be shipped as a small repro
file and replayed anywhere.

Every generated fault recovers (flaps restore links and channels,
crashes get restarts), so the pass criterion is simple and strict: the
*final* invariant check must be clean.  Transient violations while
faults are live are expected — the online monitor exists to watch those
— but a violation that survives recovery and resync is a bug, and the
fuzzer writes a minimal repro file for it.
"""

from __future__ import annotations

import json
import random
from typing import Callable, List, Optional

from repro.core import ZenPlatform
from repro.digest import canonical_digest
from repro.faults import arm_faults
from repro.netem import Topology

from repro.check.invariants import NetworkChecker

__all__ = [
    "Scenario",
    "ScenarioResult",
    "generate_scenario",
    "generate_cluster_scenario",
    "run_scenario",
    "platform_observables",
    "result_digest",
    "fuzz",
    "write_repro",
    "load_scenario",
    "replay",
    "minimize",
    "example_scenarios",
    "run_corpus",
]

SCENARIO_VERSION = 1

_TOPOLOGY_KINDS = ("linear", "ring", "star", "tree", "mesh")
_PROFILE_CHOICES = ("reactive", "proactive")


class Scenario:
    """One fuzz case: everything needed to reproduce a run."""

    __slots__ = ("seed", "name", "topology", "size", "profile", "stack",
                 "workload", "faults", "settle", "controllers")

    def __init__(self, seed: int, name: str, topology: str, size: int,
                 profile: str, stack: str = "plain",
                 workload: Optional[List[dict]] = None,
                 faults: Optional[List[dict]] = None,
                 settle: float = 8.0, controllers: int = 1) -> None:
        self.seed = seed
        self.name = name
        self.topology = topology
        self.size = size
        self.profile = profile
        #: "plain" (profile apps only), "policy" (slicing + firewall +
        #: proactive routing across tables), or "multipath" (SELECT-group
        #: ECMP fabric) — mirroring the shipped examples/ stacks.
        self.stack = stack
        self.workload = workload if workload is not None else []
        self.faults = faults if faults is not None else []
        self.settle = settle
        #: Controller instances; > 1 runs the scenario on a clustered
        #: platform ("plain" stack only) and unlocks the controller
        #: fault kinds.
        self.controllers = controllers

    def to_dict(self) -> dict:
        doc = {
            "version": SCENARIO_VERSION,
            "seed": self.seed,
            "name": self.name,
            "topology": self.topology,
            "size": self.size,
            "profile": self.profile,
            "stack": self.stack,
            "workload": list(self.workload),
            "faults": list(self.faults),
            "settle": self.settle,
        }
        # Only cluster scenarios carry the key, so every committed
        # single-controller digest stays byte-identical.
        if self.controllers != 1:
            doc["controllers"] = self.controllers
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        return cls(
            seed=data["seed"], name=data["name"],
            topology=data["topology"], size=data["size"],
            profile=data["profile"], stack=data.get("stack", "plain"),
            workload=list(data.get("workload", [])),
            faults=list(data.get("faults", [])),
            settle=data.get("settle", 8.0),
            controllers=data.get("controllers", 1),
        )

    def horizon(self) -> float:
        """Simulated seconds the run needs after start-up."""
        last = 1.0
        for entry in self.workload:
            # Rich entries (repro.workload kinds) run for a duration;
            # classic single-packet entries have none and keep their
            # original horizon exactly.
            last = max(last, entry["at"]
                       + float(entry.get("duration", 0.0)) + 1.0)
        for fault in self.faults:
            kind = fault["kind"]
            if kind in ("link_flap", "channel_flap"):
                last = max(last, fault["at"]
                           + fault["count"] * fault["period"])
            elif kind == "controller_partition":
                last = max(last, fault["at"] + fault["heal_after"])
            else:  # switch_crash / controller_crash
                last = max(last, fault["at"] + fault["restart_after"])
        return last + self.settle

    def __repr__(self) -> str:
        return (f"<Scenario {self.name!r} seed={self.seed} "
                f"{self.topology}({self.size})/{self.profile} "
                f"{len(self.faults)} faults>")


class ScenarioResult:
    """Outcome of one scenario run."""

    __slots__ = ("scenario", "ok", "verdicts", "observables",
                 "monitor_failures", "faults_fired", "obs")

    def __init__(self, scenario: Scenario, ok: bool, verdicts: dict,
                 observables: dict, monitor_failures: List[str],
                 faults_fired: int, obs=None) -> None:
        self.scenario = scenario
        self.ok = ok
        self.verdicts = verdicts
        self.observables = observables
        #: Trigger strings of monitor runs that saw violations
        #: (transient failures; informational, not the pass criterion).
        self.monitor_failures = monitor_failures
        self.faults_fired = faults_fired
        #: The attached :class:`~repro.obs.ObsPlane`, when the scenario
        #: ran with ``obs=True``.  Excluded from :meth:`to_dict` so
        #: digests compare the *simulation*, never the observer.
        self.obs = obs

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "ok": self.ok,
            "verdicts": self.verdicts,
            "observables": self.observables,
            "monitor_failures": list(self.monitor_failures),
            "faults_fired": self.faults_fired,
        }


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------

def _draw_skeleton(rng: random.Random, seed: int, name: str,
                   cluster: bool):
    """Topology, profile, cluster size and probe workload — the draws
    both generators share, in one order.  Returns ``(scenario, switch
    names, switch-to-switch links)`` for the fault draws that follow."""
    kind = rng.choice(_TOPOLOGY_KINDS)
    size = rng.randint(3, 5)
    profile = rng.choice(_PROFILE_CHOICES)
    controllers = rng.randint(2, 3) if cluster else 1
    scenario = Scenario(seed, name, kind, size, profile,
                        controllers=controllers)
    topo = _build_topology(kind, size)
    switch_names = sorted(
        n.name for n in topo.nodes.values() if n.is_switch
    )
    host_names = sorted(
        n.name for n in topo.nodes.values() if not n.is_switch
    )
    switch_links = sorted(
        (link.a, link.b) for link in topo.links
        if topo.nodes[link.a].is_switch and topo.nodes[link.b].is_switch
    )
    for _ in range(rng.randint(2, 4)):
        src, dst = rng.sample(host_names, 2)
        scenario.workload.append({
            "src": src, "dst": dst,
            "at": round(rng.uniform(0.2, 2.0), 3),
        })
    return scenario, switch_names, switch_links


def _draw_flap(rng: random.Random, at: float, down_for: float,
               **target) -> dict:
    """A recovering flap of ``target`` (kind + what), ``down_for``
    already drawn; draws the period and the cycle count.  Callers rely
    on left-to-right argument evaluation: the corpus needs ``down_for``
    drawn *before* a ``switch=rng.choice(...)`` target."""
    return dict(target, at=at, down_for=down_for,
                period=round(down_for + rng.uniform(0.7, 1.5), 3),
                count=rng.randint(1, 2))


def _draw_down_for(rng: random.Random) -> float:
    return round(rng.uniform(0.3, 0.8), 3)


def generate_scenario(seed: int) -> Scenario:
    """A deterministic function of ``seed`` — same seed, same scenario."""
    rng = random.Random(seed)
    scenario, switch_names, switch_links = _draw_skeleton(
        rng, seed, f"fuzz-{seed}", cluster=False)
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        at = round(rng.uniform(0.5, 3.0), 3)
        if roll < 0.45 and switch_links:
            a, b = rng.choice(switch_links)
            scenario.faults.append(_draw_flap(
                rng, at, _draw_down_for(rng), kind="link_flap", a=a, b=b))
        elif roll < 0.8:
            scenario.faults.append(_draw_flap(
                rng, at, _draw_down_for(rng), kind="channel_flap",
                switch=rng.choice(switch_names)))
        else:
            scenario.faults.append({
                "kind": "switch_crash",
                "switch": rng.choice(switch_names), "at": at,
                "restart_after": round(rng.uniform(0.5, 1.0), 3),
            })
    return scenario


def generate_cluster_scenario(seed: int) -> Scenario:
    """A deterministic cluster fuzz case — same seed, same scenario.

    Seeded on a *distinct* stream from :func:`generate_scenario` so the
    committed single-controller corpus digests are untouched.  Fault
    kinds are restricted to the cluster-safe set: link/channel flaps
    plus controller crashes and east-west partitions (all recovering),
    never ``switch_crash`` — agent reboot semantics across N instances
    is exercised by the dedicated cluster tests instead.
    """
    rng = random.Random(f"cluster-{seed}")
    scenario, switch_names, switch_links = _draw_skeleton(
        rng, seed, f"cluster-fuzz-{seed}", cluster=True)
    controllers = scenario.controllers
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        at = round(rng.uniform(0.5, 3.0), 3)
        if roll < 0.25 and switch_links:
            a, b = rng.choice(switch_links)
            scenario.faults.append(_draw_flap(
                rng, at, _draw_down_for(rng), kind="link_flap", a=a, b=b))
        elif roll < 0.45:
            scenario.faults.append(_draw_flap(
                rng, at, _draw_down_for(rng), kind="channel_flap",
                switch=rng.choice(switch_names)))
        elif roll < 0.8:
            scenario.faults.append({
                "kind": "controller_crash",
                "node": rng.randrange(controllers), "at": at,
                "restart_after": round(rng.uniform(0.5, 1.2), 3),
            })
        else:
            scenario.faults.append({
                "kind": "controller_partition",
                "minority": [rng.randrange(controllers)], "at": at,
                "heal_after": round(rng.uniform(0.5, 1.2), 3),
            })
    return scenario


def _build_topology(kind: str, size: int) -> Topology:
    return Topology.build(kind, size, 1e9)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def _build_stack(scenario: Scenario, fast_path: bool,
                 telemetry=None) -> ZenPlatform:
    stack = scenario.stack
    if stack not in ("plain", "policy", "multipath"):
        raise ValueError(f"unknown stack {stack!r}")
    clustered = scenario.controllers > 1
    if clustered and stack != "plain":
        raise ValueError(
            f"cluster scenarios need the plain stack, not {stack!r}"
        )
    platform = ZenPlatform(
        _build_topology(scenario.topology, scenario.size),
        profile=scenario.profile if stack == "plain" else "bare",
        seed=scenario.seed, fast_path=fast_path, telemetry=telemetry,
        controllers=scenario.controllers if clustered else None,
    )
    if stack == "policy":
        from repro.apps.firewall import Firewall
        from repro.apps.proactive_router import ProactiveRouter
        from repro.apps.slicing import NetworkSlicing

        slicing = platform.add_app(
            NetworkSlicing(table_id=0, next_table=1)
        )
        firewall = platform.add_app(
            Firewall(table_id=1, next_table=2)
        )
        platform.router = platform.add_app(ProactiveRouter(table_id=2))
        hosts = sorted(platform.net.hosts)
        half = max(1, len(hosts) // 2)
        slicing.define_slice(
            "blue", [platform.net.hosts[h].ip for h in hosts[:half]],
            rate_bps=50e6,
        )
        firewall.deny(l4_dst=23)  # no telnet across the fabric
    elif stack == "multipath":
        from repro.apps import MultipathRouter

        platform.router = platform.add_app(MultipathRouter(max_paths=2))
    return platform


def platform_observables(platform: ZenPlatform) -> dict:
    """Everything externally visible about a finished run, as plain
    data — the object two runs are compared on for bit-identity."""
    net = platform.net
    flows = {}
    for name in sorted(net.switches):
        dp = net.switches[name]
        flows[name] = [
            [table.table_id,
             [repr(e.match) for e in table.entries()],
             [e.priority for e in table.entries()]]
            for table in dp.tables
        ]
    return {
        "time": net.sim.now,
        "events": net.sim.events_processed,
        "dp_stats": {name: net.switches[name].stats()
                     for name in sorted(net.switches)},
        "flows": flows,
        "hosts": {
            name: {
                "tx": net.hosts[name].tx_packets,
                "rx": net.hosts[name].rx_packets,
            }
            for name in sorted(net.hosts)
        },
        "controller": {
            "events": platform.controller.events_published,
            "resyncs": platform.controller.resyncs,
        },
    }


def run_scenario(scenario: Scenario, fast_path: bool = True,
                 monitor: bool = False,
                 checker: Optional[NetworkChecker] = None,
                 telemetry: bool = False, obs: bool = False,
                 obs_interval: float = 0.05) -> ScenarioResult:
    """Build, run, and check one scenario.  Deterministic end to end.

    ``telemetry=True`` runs with the metrics plane enabled;
    ``obs=True`` additionally attaches a full
    :class:`~repro.obs.ObsPlane` (implies telemetry) whose scraper,
    SLOs, and annotations must leave the observables bit-identical —
    the invariant ``tests/test_obs.py`` checks over the fuzz corpus.
    """
    tel = None
    if telemetry or obs:
        from repro.telemetry import Telemetry

        tel = Telemetry(profile=False)
    platform = _build_stack(scenario, fast_path, telemetry=tel)
    platform.start()
    net = platform.net
    hosts = platform.seed_static_arp()

    if checker is None:
        checker = NetworkChecker()
    schedule = platform.fault_schedule()
    plane, mon = platform.observe(
        schedule, interval=obs_interval if obs else None,
        monitor=checker if monitor else False,
    )
    base = net.sim.now
    arm_faults(schedule, scenario.faults, base=base)
    traffic_sinks: dict = {}
    for entry in scenario.workload:
        if "kind" in entry:
            # A repro.workload traffic entry (flows/incast/diurnal/cbr)
            # — arm the real generator so invariants are checked under
            # realistic load, not just single probe packets.
            from repro.workload.generators import arm_traffic

            doc = dict(entry)
            doc["start"] = float(doc.pop("at", 0.0))
            arm_traffic(net.sim, hosts, doc, traffic_sinks)
            continue
        src, dst = entry["src"], entry["dst"]
        net.sim.schedule_at(
            base + entry["at"],
            lambda s=src, d=dst: net.hosts[s].send_udp(
                net.hosts[d].ip, 5001, 5001, b"fuzz"
            ),
        )
    platform.run(scenario.horizon())
    if plane is not None:
        plane.finish()

    final = checker.check(net)
    ok = final.ok
    verdicts = final.to_dict()
    if platform.cluster is not None:
        # Cluster invariants join the pass criterion; the key is only
        # present for cluster scenarios, so committed single-controller
        # digests are untouched.
        from repro.check.cluster import check_cluster

        cluster_violations = check_cluster(platform.cluster, net)
        ok = ok and not cluster_violations
        verdicts["cluster_violations"] = [
            v.to_dict() for v in cluster_violations
        ]
    return ScenarioResult(
        scenario,
        ok=ok,
        verdicts=verdicts,
        observables=platform_observables(platform),
        monitor_failures=[r.trigger for r in mon.failing_records()]
        if mon is not None else [],
        faults_fired=len(schedule.log),
        obs=plane,
    )


def result_digest(result: ScenarioResult) -> str:
    """Stable digest of a run's full outcome (bit-identity checks)."""
    return canonical_digest(result.to_dict())


# ----------------------------------------------------------------------
# Fuzzing loop + repro files
# ----------------------------------------------------------------------

def fuzz(count: int, start_seed: int = 0, monitor: bool = False,
         out_dir: Optional[str] = None,
         on_result: Optional[Callable[[ScenarioResult], None]] = None
         ) -> List[ScenarioResult]:
    """Run ``count`` seeded scenarios; write a repro per failure."""
    results: List[ScenarioResult] = []
    for seed in range(start_seed, start_seed + count):
        scenario = generate_scenario(seed)
        result = run_scenario(scenario, monitor=monitor)
        results.append(result)
        if not result.ok and out_dir is not None:
            minimized = minimize(scenario)
            write_repro(f"{out_dir}/repro_seed{seed}.json",
                        minimized, run_scenario(minimized))
        if on_result is not None:
            on_result(result)
    return results


def write_repro(path: str, scenario: Scenario,
                result: ScenarioResult) -> None:
    """A self-contained, replayable failure record."""
    payload = {
        "scenario": scenario.to_dict(),
        "verdicts": result.verdicts,
        "digest": result_digest(result),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        payload = json.load(fh)
    data = payload.get("scenario", payload)
    return Scenario.from_dict(data)


def replay(path: str, monitor: bool = False) -> ScenarioResult:
    """Re-run a repro file's scenario from scratch."""
    return run_scenario(load_scenario(path), monitor=monitor)


def minimize(scenario: Scenario,
             still_fails: Optional[Callable[[Scenario], bool]] = None
             ) -> Scenario:
    """Greedily shrink a failing scenario while it keeps failing.

    Drops faults first (usually the interesting part is one injection),
    then workload entries.  Deterministic; bounded by the scenario size.
    """
    if still_fails is None:
        def still_fails(s: Scenario) -> bool:
            return not run_scenario(s).ok

    if not still_fails(scenario):
        return scenario  # not failing: nothing to minimise
    current = scenario
    for attr in ("faults", "workload"):
        index = 0
        while index < len(getattr(current, attr)):
            trimmed = Scenario.from_dict(current.to_dict())
            del getattr(trimmed, attr)[index]
            trimmed.name = f"{scenario.name}-min"
            if still_fails(trimmed):
                current = trimmed
            else:
                index += 1
    return current


def run_corpus(path: str) -> List[ScenarioResult]:
    """Replay a committed corpus file and return the per-seed results
    (all expected clean in CI).  ``"seeds"`` replay through
    :func:`generate_scenario`; the additive ``"cluster_seeds"`` key
    replays through :func:`generate_cluster_scenario`."""
    with open(path) as fh:
        corpus = json.load(fh)
    results = []
    for seed in corpus["seeds"]:
        results.append(run_scenario(generate_scenario(seed)))
    for seed in corpus.get("cluster_seeds", []):
        results.append(run_scenario(generate_cluster_scenario(seed)))
    return results


# ----------------------------------------------------------------------
# The examples/ suite, as checkable scenarios
# ----------------------------------------------------------------------

def example_scenarios() -> List[Scenario]:
    """Canned scenarios mirroring the shipped examples/ stacks.

    Each must check clean — this is the CLI's ``check verify`` suite and
    the CI smoke gate.
    """
    return [
        Scenario(0, "quickstart", "single", 4, "reactive",
                 workload=[{"src": "h1", "dst": "h2", "at": 0.5}]),
        Scenario(0, "linear-reactive", "linear", 3, "reactive",
                 workload=[{"src": "h1", "dst": "h3", "at": 0.5}]),
        Scenario(0, "failover-ring", "ring", 4, "proactive",
                 workload=[{"src": "h1", "dst": "h3", "at": 0.5}]),
        Scenario(0, "datacenter-tree", "tree", 2, "proactive",
                 workload=[{"src": "h1", "dst": "h2", "at": 0.5}]),
        Scenario(0, "enterprise-policy", "star", 3, "bare",
                 stack="policy",
                 workload=[{"src": "h1", "dst": "h2", "at": 0.5}]),
        Scenario(0, "multipath-fabric", "mesh", 4, "bare",
                 stack="multipath",
                 workload=[{"src": "h1", "dst": "h3", "at": 0.5}]),
    ]
