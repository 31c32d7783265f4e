"""repro.workload — declarative scenarios with realistic traffic.

The workload plane closes the loop between the paper's qualitative
claims and measurable runs: a :class:`~repro.workload.spec.WorkloadSpec`
(JSON/YAML) names a topology family, an app stack, a traffic mix,
faults, SLOs, and a seed; :func:`~repro.workload.runner.assemble` is the
one place it becomes a wired :class:`~repro.core.platform.ZenPlatform`;
:func:`~repro.workload.runner.run_workload` runs that with the obs plane
attached, and :func:`~repro.workload.runner.run_suite` fans scenario
suites across worker processes with bit-identical per-run digests.
``repro.check`` builds on this package (its fuzzer generates and checks
the same documents through the same assembler); nothing here imports it
at import time (``assemble`` loads the invariant monitor only when a
caller asks for one).

Building blocks, usable directly too:

* :mod:`~repro.workload.sizes` — heavy-tailed / lognormal / empirical
  / elephant-mice flow-size sources;
* :mod:`~repro.workload.generators` — incast storms, diurnal load
  modulation, user-count-weighted tenant matrices, and the
  :func:`~repro.workload.generators.arm_traffic` bridge from spec
  entries to armed generators;
* :func:`~repro.workload.spec.library` — the canned scenario set
  behind benchmark E16 and the CI smoke suite.
"""

from repro.workload.generators import (
    DiurnalFlowGenerator,
    IncastGenerator,
    TenantMatrix,
    arm_traffic,
    ensure_sinks,
)
from repro.workload.runner import (
    AssembledRun,
    assemble,
    run_assembled,
    run_suite,
    run_workload,
    suite_digest,
)
from repro.workload.sizes import (
    elephant_mice,
    empirical_sizes,
    fixed_sizes,
    lognormal_sizes,
    size_source_from_spec,
)
from repro.workload.spec import (
    WorkloadSpec,
    build_spec_topology,
    library,
    load_spec,
)

__all__ = [
    "AssembledRun",
    "DiurnalFlowGenerator",
    "IncastGenerator",
    "TenantMatrix",
    "WorkloadSpec",
    "arm_traffic",
    "assemble",
    "build_spec_topology",
    "elephant_mice",
    "empirical_sizes",
    "ensure_sinks",
    "fixed_sizes",
    "library",
    "load_spec",
    "lognormal_sizes",
    "run_assembled",
    "run_suite",
    "run_workload",
    "size_source_from_spec",
    "suite_digest",
]
