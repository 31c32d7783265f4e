"""The equivalence matrix: same seed, same dataplane, whatever is on.

:data:`AXES` holds every axis a seeded run is invariant under.  A cell
is one axis on one scenario: it runs the all-defaults oracle and the
scenario with the axis applied, both through the checked run tail
(:func:`repro.check.fuzzer.run_checked`), and requires an equal
``dataplane_digest`` (every switch's, table's, port's, flow entry's and
host's counters), equal final verdicts, moved document sections
(:func:`repro.digest.sections`; ``meta`` read without its summary)
that include what the axis must move and nothing it may not, and moved
summary keys within its set.

Scenarios: the fuzz corpus (plain and cluster seeds, every one with
faults that fire), and ``dc-heavy-tail`` (fault-free with one
controller: the controllers axis's cell) and ``wan-diurnal`` (a WAN
under diurnal load; its flap fires after the cut) cut to 1 s.

Unsupported cells, and the test that owns each contract instead:

* controllers on a faulted or clustered spec: the cluster-size contract
  holds with zero faults only; ``test_cluster_fuzz.py`` checks
  clustered fault runs against their own invariants;
* shards: ``test_shard_engine.py``;
* ``--jobs``: ``test_workload.py``;
* the hash seed: ``test_hashseed.py``.
"""

import json
from fnmatch import fnmatch
from pathlib import Path

import pytest

import repro.southbound.agent as agent_module
from repro.check import generate_cluster_scenario, generate_scenario
from repro.check.fuzzer import run_checked
from repro.digest import sections
from repro.telemetry import Telemetry
from repro.workload import WorkloadSpec, assemble, library


def _detached(spec, patch):
    live = assemble(spec)
    live.plane.scraper.detach()  # the final sample alone
    return spec, live


def _unbuffered(spec, patch):
    # Every punt carries its frame, as from an agent out of slots.
    patch.setattr(agent_module, "BUFFER_SLOTS", 0)
    return spec, assemble(spec)


def _clustered(spec, patch):
    spec = WorkloadSpec.from_dict(dict(spec.to_dict(), controllers=3))
    return spec, assemble(spec)


#: axis -> (apply, sections it must move, section patterns it may move,
#: summary keys it may move); ``apply(spec, monkeypatch)`` returns the
#: spec to run and its assembly.  A cluster adds its own (clean)
#: verdict list, so ``checks`` may move where the verdicts compare
#: equal.
AXES = {
    "fast_path_off": (lambda spec, patch: (
        spec, assemble(spec, fast_path=False)), set(), set(), set()),
    "scraper_detached": (_detached, {"scrapes"}, {"health", "series/*"},
                         {"alerts"}),
    "trace_on": (lambda spec, patch: (
        spec, assemble(spec, telemetry=Telemetry(trace=True))),
        {"series/telemetry_trace_dropped_spans_total"},
        {"annotations", "health"}, set()),
    "monitor_on": (lambda spec, patch: (spec, assemble(spec, monitor=True)),
                   set(), {"annotations", "health", "series/check_*"},
                   {"monitor_failures"}),
    "buffer_slots_0": (_unbuffered, {"series/channel_bytes_total"}, set(),
                       set()),
    "controllers_3": (_clustered, {"meta"}, {
        "checks", "series/channel_*", "series/controller_resync*",
        "series/obs_channel_backlog_seconds", "series/sim_events_total",
    }, {"events"}),
}


def _cut(name, duration):
    spec = library()[name]
    spec.duration = duration
    return spec


_CORPUS = json.loads(
    (Path(__file__).parent / "data" / "fuzz_corpus.json").read_text())
SCENARIOS = {spec.name: spec for spec in (
    [generate_scenario(seed) for seed in _CORPUS["seeds"]]
    + [generate_cluster_scenario(seed) for seed in _CORPUS["cluster_seeds"]]
    + [_cut("dc-heavy-tail", 1.0), _cut("wan-diurnal", 1.0)])}


def _sections(result) -> dict:
    doc = result.artifact.to_dict()
    doc["meta"] = dict(doc["meta"], summary=None)  # compared key by key
    return sections(doc)


@pytest.fixture(scope="module")
def oracles():
    """Each scenario's all-defaults run and its sections, once per
    module."""
    runs = {}

    def oracle(name):
        if name not in runs:
            result = run_checked(SCENARIOS[name], assemble(SCENARIOS[name]))
            runs[name] = result, _sections(result)
        return runs[name]
    return oracle


def _moved(before: dict, after: dict) -> set:
    return {key for key in before.keys() | after.keys()
            if before.get(key) != after.get(key)}


@pytest.mark.parametrize("name, axis", [
    (name, axis) for name, spec in SCENARIOS.items() for axis in AXES
    if axis != "controllers_3" or not spec.faults and spec.controllers == 1])
def test_axis_moves_no_dataplane_observable(name, axis, oracles,
                                            monkeypatch):
    base, before = oracles(name)  # before the axis patches anything
    apply, must, may, summary_may = AXES[axis]
    cell = run_checked(*apply(SCENARIOS[name], monkeypatch))
    assert cell.dataplane_digest == base.dataplane_digest
    clean = {"cluster_violations": []}  # what a lone controller reads as
    assert (dict(clean, **cell.artifact.checks)
            == dict(clean, **base.artifact.checks))
    moved = _moved(before, _sections(cell))
    assert must <= moved, f"the axis was not applied: {must - moved}"
    stray = {key for key in moved - must
             if not any(fnmatch(key, pattern) for pattern in may)}
    assert not stray, f"moved beyond the axis: {sorted(stray)}"
    assert _moved(base.summary, cell.summary) <= summary_may
