"""repro.check — network-wide invariant checking and scenario fuzzing.

The verification plane, in three layers:

* :mod:`repro.check.snapshot` — an immutable, side-effect-free copy of
  every datapath's forwarding state (flow tables, groups, ports) plus
  host attachment and link liveness.
* :mod:`repro.check.reach` — symbolic reachability over snapshots using
  the dataplane's own :class:`~repro.dataplane.match.Match` algebra.
  The symbolic explorer only *proposes* packet classes; every verdict is
  confirmed by a concrete interpreter that mirrors pipeline semantics
  exactly, so findings come with replayable counterexample packets and
  no false positives.
* :mod:`repro.check.invariants` / :mod:`repro.check.monitor` — the
  invariant catalogue (loop freedom, blackhole freedom, slice isolation,
  firewall compliance) and the online monitor that re-checks after
  convergence events.
* :mod:`repro.check.fuzzer` — seeded scenario generation, execution,
  and minimal repro files (saved run documents).  A scenario is a
  :class:`repro.workload.WorkloadSpec`, run through the workload
  plane's assembler, so any workload spec can be checked as it stands.

``python -m repro check`` exposes the verify/fuzz workflow on the CLI.
"""

from repro.check.cluster import ClusterViolation, check_cluster
from repro.check.fuzzer import (
    example_scenarios,
    fuzz,
    generate_cluster_scenario,
    generate_scenario,
    minimize,
    platform_observables,
    replay,
    run_corpus,
    run_scenario,
)
from repro.check.invariants import (
    DEFAULT_INVARIANTS,
    CheckContext,
    CheckResult,
    FirewallCompliance,
    NetworkChecker,
    NoBlackholes,
    NoForwardingLoops,
    SliceIsolation,
    Violation,
)
from repro.check.monitor import CheckRecord, InvariantMonitor
from repro.check.reach import (
    BLACKHOLE_KINDS,
    ConcreteTrace,
    PacketClass,
    Terminal,
    explore,
    trace_packet,
)
from repro.check.snapshot import (
    DatapathSnap,
    FlowEntrySnap,
    GroupSnap,
    HostSnap,
    NetworkSnapshot,
    PortSnap,
    TableSnap,
)

__all__ = [
    "BLACKHOLE_KINDS",
    "CheckContext",
    "CheckRecord",
    "CheckResult",
    "ClusterViolation",
    "ConcreteTrace",
    "DatapathSnap",
    "DEFAULT_INVARIANTS",
    "FirewallCompliance",
    "FlowEntrySnap",
    "GroupSnap",
    "HostSnap",
    "InvariantMonitor",
    "NetworkChecker",
    "NetworkSnapshot",
    "NoBlackholes",
    "NoForwardingLoops",
    "PacketClass",
    "PortSnap",
    "SliceIsolation",
    "TableSnap",
    "Terminal",
    "Violation",
    "check_cluster",
    "example_scenarios",
    "explore",
    "fuzz",
    "generate_cluster_scenario",
    "generate_scenario",
    "minimize",
    "platform_observables",
    "replay",
    "run_corpus",
    "run_scenario",
    "trace_packet",
]
