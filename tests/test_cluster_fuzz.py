"""Cluster scenarios in the fuzz plane: generation, replay, corpus.

The cluster fuzz stream (``generate_cluster_scenario``) is seeded on a
distinct RNG stream from the classic generator, so every committed
single-controller corpus digest is untouched; the corpus file gains an
additive ``cluster_seeds`` key whose scenarios exercise controller
crashes and east-west partitions and must check clean — including the
cluster invariants, which join the pass criterion for ``controllers >
1``.
"""

import json
from pathlib import Path

from repro.check import generate_cluster_scenario, generate_scenario
from repro.check.fuzzer import run_scenario
from repro.workload import WorkloadSpec

DATA = Path(__file__).parent / "data"

_CLUSTER_KINDS = {"link_flap", "channel_flap", "controller_crash",
                  "controller_partition"}


class TestGeneration:
    def test_pure_function_of_seed(self):
        for seed in range(6):
            assert generate_cluster_scenario(seed).to_dict() == \
                generate_cluster_scenario(seed).to_dict()

    def test_distinct_stream_from_classic_generator(self):
        assert generate_cluster_scenario(0).to_dict() != \
            generate_scenario(0).to_dict()

    def test_only_cluster_safe_fault_kinds(self):
        for seed in range(12):
            scenario = generate_cluster_scenario(seed)
            assert scenario.controllers >= 2
            for fault in scenario.faults:
                assert fault["kind"] in _CLUSTER_KINDS

    def test_roundtrips_through_dict(self):
        scenario = generate_cluster_scenario(4)
        clone = WorkloadSpec.from_dict(scenario.to_dict())
        assert clone.to_dict() == scenario.to_dict()
        assert clone.controllers == scenario.controllers

    def test_single_controller_dict_has_no_controllers_key(self):
        """Committed corpus digests depend on this: classic scenarios
        serialise exactly as before the cluster plane existed."""
        assert "controllers" not in generate_scenario(0).to_dict()
        assert "controllers" in generate_cluster_scenario(0).to_dict()


class TestReplay:
    def test_cluster_scenario_runs_bit_identically(self):
        scenario = generate_cluster_scenario(1)
        assert run_scenario(scenario).digest == \
            run_scenario(scenario).digest

    def test_verdicts_carry_cluster_violations_key(self):
        result = run_scenario(generate_cluster_scenario(0))
        assert result.artifact.checks["cluster_violations"] == []
        classic = run_scenario(generate_scenario(0))
        assert "cluster_violations" not in classic.artifact.checks


class TestCorpus:
    def test_corpus_keeps_original_seeds(self):
        corpus = json.loads((DATA / "fuzz_corpus.json").read_text())
        assert corpus["seeds"] == [0, 1, 2, 3, 5, 8]
        assert corpus["cluster_seeds"]

    def test_committed_cluster_corpus_replays_clean(self):
        corpus = json.loads((DATA / "fuzz_corpus.json").read_text())
        for seed in corpus["cluster_seeds"]:
            result = run_scenario(generate_cluster_scenario(seed))
            assert result.ok, (
                seed,
                result.artifact.checks.get("cluster_violations")
                or result.artifact.checks["violations"],
            )
