"""Seeded scenario fuzzing: generate, run, check, reproduce.

A scenario is a :class:`~repro.workload.spec.WorkloadSpec` — the same
document the workload plane runs — so the checker's verdict is about
the network that actually runs.  Generation is a pure function of the
seed (``random.Random(seed)``), the run itself happens on the
deterministic kernel through the one assembler
(:func:`repro.workload.runner.assemble`), and the checker verdict is
computed from a read-only snapshot — so *everything* about a scenario
replays bit-identically, and a failing seed can be shipped as a small
repro file — the run's saved document — and replayed anywhere.

Every generated fault recovers (flaps restore links and channels,
crashes get restarts), so the pass criterion is simple and strict: the
*final* invariant check must be clean.  Transient violations while
faults are live are expected — the online monitor exists to watch those
— but a violation that survives recovery and resync is a bug, and the
fuzzer writes a minimal repro file for it.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro.digest import load_document
from repro.obs import RunResult
from repro.workload.runner import AssembledRun, assemble, run_assembled
from repro.workload.spec import WorkloadSpec, build_spec_topology, load_spec

from repro.check.invariants import NetworkChecker

__all__ = [
    "generate_scenario",
    "generate_cluster_scenario",
    "run_scenario",
    "run_checked",
    "fuzz",
    "replay",
    "minimize",
    "example_scenarios",
    "run_corpus",
]

_TOPOLOGY_KINDS = ("linear", "ring", "star", "tree", "mesh")
_PROFILE_CHOICES = ("reactive", "proactive")

#: Sim seconds a fuzz run keeps going after its last probe or fault
#: recovery, so resync and re-routing finish before the final check.
_SETTLE = 8.0

#: Events one scenario may execute.  A run that reaches it ends in the
#: ``event_budget_exhausted`` verdict instead of running on for
#: minutes: the budget is over 40x the largest corpus run (cluster
#: seed 0, 4,528 events; the largest plain seed, 0, takes 2,438), so
#: only a run that never settles (a forwarding storm) reaches it.
EVENT_BUDGET = 200_000


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------

def _draw_skeleton(rng: random.Random, seed: int, name: str,
                   cluster: bool):
    """Topology, profile, cluster size and probe traffic — the draws
    both generators share, in one order.  Returns ``(spec, switch
    names, switch-to-switch links)`` for the fault draws that follow;
    the caller fixes ``spec.duration`` once the faults are in."""
    kind = rng.choice(_TOPOLOGY_KINDS)
    size = rng.randint(3, 5)
    profile = rng.choice(_PROFILE_CHOICES)
    controllers = rng.randint(2, 3) if cluster else 1
    spec = WorkloadSpec(name, topology={"family": kind, "size": size},
                        traffic=[], seed=seed, profile=profile,
                        settle=_SETTLE, controllers=controllers)
    topo = build_spec_topology(spec)
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
        spec.traffic.append({
            "kind": "probe", "src": src, "dst": dst,
            "start": round(rng.uniform(0.2, 2.0), 3),
        })
    return spec, switch_names, switch_links


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


def generate_scenario(seed: int) -> WorkloadSpec:
    """A deterministic function of ``seed`` — same seed, same scenario."""
    rng = random.Random(seed)
    spec, switch_names, switch_links = _draw_skeleton(
        rng, seed, f"fuzz-{seed}", cluster=False)
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        at = round(rng.uniform(0.5, 3.0), 3)
        if roll < 0.45 and switch_links:
            a, b = rng.choice(switch_links)
            spec.faults.append(_draw_flap(
                rng, at, _draw_down_for(rng), kind="link_flap", a=a, b=b))
        elif roll < 0.8:
            spec.faults.append(_draw_flap(
                rng, at, _draw_down_for(rng), kind="channel_flap",
                switch=rng.choice(switch_names)))
        else:
            spec.faults.append({
                "kind": "switch_crash",
                "switch": rng.choice(switch_names), "at": at,
                "restart_after": round(rng.uniform(0.5, 1.0), 3),
            })
    spec.duration = spec.horizon()
    return spec


def generate_cluster_scenario(seed: int) -> WorkloadSpec:
    """A deterministic cluster fuzz case — same seed, same scenario.

    Seeded on a *distinct* stream from :func:`generate_scenario` so the
    committed single-controller corpus digests are untouched.  Fault
    kinds are restricted to the cluster-safe set: link/channel flaps
    plus controller crashes and east-west partitions (all recovering),
    never ``switch_crash`` — agent reboot semantics across N instances
    is exercised by the dedicated cluster tests instead.
    """
    rng = random.Random(f"cluster-{seed}")
    spec, switch_names, switch_links = _draw_skeleton(
        rng, seed, f"cluster-fuzz-{seed}", cluster=True)
    controllers = spec.controllers
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        at = round(rng.uniform(0.5, 3.0), 3)
        if roll < 0.25 and switch_links:
            a, b = rng.choice(switch_links)
            spec.faults.append(_draw_flap(
                rng, at, _draw_down_for(rng), kind="link_flap", a=a, b=b))
        elif roll < 0.45:
            spec.faults.append(_draw_flap(
                rng, at, _draw_down_for(rng), kind="channel_flap",
                switch=rng.choice(switch_names)))
        elif roll < 0.8:
            spec.faults.append({
                "kind": "controller_crash",
                "node": rng.randrange(controllers), "at": at,
                "restart_after": round(rng.uniform(0.5, 1.2), 3),
            })
        else:
            spec.faults.append({
                "kind": "controller_partition",
                "minority": [rng.randrange(controllers)], "at": at,
                "heal_after": round(rng.uniform(0.5, 1.2), 3),
            })
    spec.duration = spec.horizon()
    return spec


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def run_scenario(scenario: WorkloadSpec, fast_path: bool = True,
                 monitor: bool = False) -> RunResult:
    """Assemble, run, and check one spec.  Deterministic end to end:
    :func:`run_checked` of the assembly."""
    return run_checked(scenario, assemble(scenario, monitor=monitor,
                                          fast_path=fast_path))


def run_checked(scenario: WorkloadSpec, live: AssembledRun) -> RunResult:
    """Run ``live`` — ``scenario`` assembled — and check it.

    The run is :func:`~repro.workload.run_assembled`'s, so the document
    is a workload run's with ``meta.kind`` ``"scenario"``, the final
    verdicts (``checks``), and ``ok`` and ``monitor_failures`` (the
    trigger of each monitor run that saw violations: transient,
    informational, not the pass criterion) added to the summary.

    A run that reaches :data:`EVENT_BUDGET` with events still due stops
    there and fails, with an ``event_budget_exhausted`` verdict (absent
    from every other run's verdicts).
    """
    platform, mon = live.platform, live.monitor
    net, sim = platform.net, platform.sim
    end = sim.now + scenario.duration
    result = run_assembled(scenario, live, max_events=EVENT_BUDGET)

    final = NetworkChecker().check(net)
    ok = final.ok
    verdicts = final.to_dict()
    # Only a run the budget cut short leaves events due by ``end``.
    if sim.next_event_time <= end:
        ok = False
        verdicts["event_budget_exhausted"] = {
            "budget": EVENT_BUDGET, "now": sim.now,
            "pending": sim.pending_events,
        }
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
    failures = ([r.trigger for r in mon.failing_records()]
                if mon is not None else [])
    summary = dict(result.summary, ok=ok, monitor_failures=failures)
    artifact = result.artifact
    artifact.meta.update(kind="scenario", summary=summary)
    artifact.checks = verdicts
    return RunResult(scenario, summary, artifact)


# ----------------------------------------------------------------------
# Fuzzing loop + repro files
# ----------------------------------------------------------------------

def fuzz(count: int, start_seed: int = 0, monitor: bool = False,
         out_dir: Optional[str] = None,
         on_result: Optional[Callable[[RunResult], None]] = None
         ) -> List[RunResult]:
    """Run ``count`` seeded scenarios; save a minimised repro run per
    failure."""
    results: List[RunResult] = []
    for seed in range(start_seed, start_seed + count):
        scenario = generate_scenario(seed)
        result = run_scenario(scenario, monitor=monitor)
        results.append(result)
        if not result.ok and out_dir is not None:
            run_scenario(minimize(scenario)).save(
                f"{out_dir}/repro_seed{seed}.json")
        if on_result is not None:
            on_result(result)
    return results


def replay(path: str, monitor: bool = False) -> RunResult:
    """Re-run a repro file's scenario from scratch."""
    return run_scenario(load_spec(path), monitor=monitor)


def minimize(scenario: WorkloadSpec,
             still_fails: Optional[Callable[[WorkloadSpec], bool]] = None
             ) -> WorkloadSpec:
    """Greedily shrink a failing scenario while it keeps failing.

    Drops faults first (usually the interesting part is one injection),
    then traffic entries; ``duration`` is kept, so every candidate is
    checked at the instant the original failed.  Deterministic; bounded
    by the scenario size.
    """
    if still_fails is None:
        def still_fails(s: WorkloadSpec) -> bool:
            return not run_scenario(s).ok

    if not still_fails(scenario):
        return scenario  # not failing: nothing to minimise
    current = scenario
    for attr in ("faults", "traffic"):
        index = 0
        while index < len(getattr(current, attr)):
            trimmed = WorkloadSpec.from_dict(current.to_dict())
            del getattr(trimmed, attr)[index]
            trimmed.name = f"{scenario.name}-min"
            if still_fails(trimmed):
                current = trimmed
            else:
                index += 1
    return current


def run_corpus(path: str, monitor: bool = False) -> List[RunResult]:
    """Replay a committed corpus file and return the per-seed results
    (all expected clean in CI).  ``"seeds"`` replay through
    :func:`generate_scenario`; the additive ``"cluster_seeds"`` key
    replays through :func:`generate_cluster_scenario`."""
    corpus = load_document(path, "fuzz corpus")
    return ([run_scenario(generate_scenario(seed), monitor=monitor)
             for seed in corpus["seeds"]]
            + [run_scenario(generate_cluster_scenario(seed),
                            monitor=monitor)
               for seed in corpus.get("cluster_seeds", [])])


# ----------------------------------------------------------------------
# The examples/ suite, as checkable scenarios
# ----------------------------------------------------------------------

def example_scenarios() -> List[WorkloadSpec]:
    """Canned scenarios mirroring the shipped examples/ stacks.

    Each must check clean — this is the CLI's ``check verify`` suite and
    the CI smoke gate.
    """
    def example(name, family, size, profile, dst, stack="plain"):
        return WorkloadSpec(
            name, topology={"family": family, "size": size},
            traffic=[{"kind": "probe", "src": "h1", "dst": dst,
                      "start": 0.5}],
            profile=profile, settle=_SETTLE, stack=stack)

    return [
        example("quickstart", "single", 4, "reactive", "h2"),
        example("linear-reactive", "linear", 3, "reactive", "h3"),
        example("failover-ring", "ring", 4, "proactive", "h3"),
        example("datacenter-tree", "tree", 2, "proactive", "h2"),
        example("enterprise-policy", "star", 3, "bare", "h2",
                stack="policy"),
        example("multipath-fabric", "mesh", 4, "bare", "h3",
                stack="multipath"),
    ]
