"""Differential oracle for the sharded kernel.

``shards=1`` (one worker, one inclusive window, no messages) defines
ground truth; every test here asserts that higher shard counts — and
the multiprocess coordinator — produce *bit-identical* merged
observables.  The digest covers flows (ids, timestamps, byte counts),
per-host and per-switch counters, and per-link-direction counters, so
any divergence in event ordering, RNG consumption, or cut semantics
shows up as a digest mismatch.
"""

import pytest

from repro.errors import TopologyError
from repro.sim.shard import build_program, partition_topology, run_sharded
from repro.workload import WorkloadSpec, library
from repro.workload.spec import build_spec_topology


def _scaled(name: str, duration: float) -> WorkloadSpec:
    """A library scenario with a shortened horizon (identical program;
    the run just stops earlier — same at every shard count)."""
    spec = WorkloadSpec.from_dict(library()[name].to_dict())
    spec.duration = duration
    return spec


def _digests(spec: WorkloadSpec, shard_counts) -> dict:
    out = {}
    for shards in shard_counts:
        result = run_sharded(spec, shards=shards, processes=False)
        out[shards] = (result.digest, result.summary["flows_completed"])
    return out


@pytest.mark.parametrize("name,duration", [
    ("dc-heavy-tail", 2.5),
    ("incast-storm", 2.5),
    ("wan-diurnal", 4.2),       # keeps the cross-shard core0-core1 flap
    ("tenant-millions", 2.0),
])
def test_library_is_shard_count_invariant(name, duration):
    spec = _scaled(name, duration)
    results = _digests(spec, (1, 2, 4))
    digest1, flows1 = results[1]
    assert flows1 > 0, "oracle run completed no flows; test is vacuous"
    for shards in (2, 4):
        digest, flows = results[shards]
        assert digest == digest1, (
            f"{name}: shards={shards} diverged from the oracle"
        )
        assert flows == flows1


def test_static_forwarding_serialises_a_frame_once(monkeypatch, sentinel):
    """Call-count sentinel: machine-independent, so it can gate tier 1.

    On the static-forwarding oracle no switch rewrites anything, so a
    frame is packed when its host first sizes it and never again, and
    nothing on the path parses bytes back into headers.  A hop checks
    the frame against its wire image once (whoever receives it; the
    sending host once more), and the match fields are extracted once
    per wire image, not once per hop: no cache hit builds a key.
    """
    from repro.dataplane.match import FlowKey
    from repro.packet import IPv4, Packet

    counts = {"serialise": 0, "decode": 0, "validate": 0, "flowkey": 0}
    ipv4_encode, decode = IPv4.encode, Packet.decode.__func__
    cached_wire, from_packet = Packet._cached_wire, FlowKey.from_packet.__func__

    def counting_encode(self, following):
        counts["serialise"] += 1
        return ipv4_encode(self, following)

    def counting_decode(cls, data, first=None):
        counts["decode"] += 1
        return decode(cls, data, first)

    def counting_cached_wire(self):
        counts["validate"] += 1
        return cached_wire(self)

    def counting_from_packet(cls, packet, in_port=None):
        counts["flowkey"] += 1
        return from_packet(cls, packet, in_port)

    monkeypatch.setattr(IPv4, "encode", counting_encode)
    monkeypatch.setattr(Packet, "decode", classmethod(counting_decode))
    monkeypatch.setattr(Packet, "_cached_wire", counting_cached_wire)
    monkeypatch.setattr(FlowKey, "from_packet",
                        classmethod(counting_from_packet))
    spec = WorkloadSpec(
        "sentinel",
        topology={"family": "fat_tree", "size": 4},
        seed=3,
        duration=1.0,
        traffic=[{"kind": "flows", "rate": 60.0,
                  "sizes": {"dist": "fixed", "size": 6_000},
                  "start": 0.1, "duration": 0.6}],
    )
    result = run_sharded(spec, shards=1)
    link_tx = sum(half["tx_packets"]
                  for halves in result.observables["links"].values()
                  for half in halves.values())
    assert link_tx > 500 and result.summary["flows_completed"] > 0
    per_tx = counts["serialise"] / link_tx
    validated = counts["validate"] / link_tx
    # CI runs this test with -s and greps the line into the job summary.
    sentinel(f"packet sentinel: {link_tx} link transmissions, "
             f"{per_tx:.3f} serialisations, "
             f"{counts['decode'] / link_tx:.3f} decodes, "
             f"{validated:.3f} validated reads per transmission, "
             f"{counts['flowkey']} key extractions / "
             f"{counts['serialise']} wire images")
    assert per_tx <= 1.0
    assert counts["decode"] == 0
    # One per arrival plus one per host send (3.8 before the hop was
    # told its frame's size instead of asking four times).
    assert validated <= 1.25
    assert 0 < counts["flowkey"] <= counts["serialise"]


def test_wan_flap_actually_cuts_a_boundary_link():
    # The wan-diurnal flap targets core0--core1; with 2+ shards the
    # partitioner separates WAN regions, so that link is a boundary on
    # at least one partitioning and the epoch path is exercised.
    spec = _scaled("wan-diurnal", 4.2)
    topo = build_spec_topology(spec)
    part = partition_topology(topo, 3)
    flap_index = topo.link_ids()[("core0", "core1")]
    assert flap_index in part.cut_links
    result = run_sharded(spec, shards=3, processes=False)
    oracle = run_sharded(spec, shards=1)
    assert result.digest == oracle.digest
    # The cut dropped something: the flap fires mid-traffic.
    halves = result.observables["links"][str(flap_index)]
    dropped = sum(h["dropped_cut"] for h in halves.values())
    assert dropped == sum(
        h["dropped_cut"]
        for h in oracle.observables["links"][str(flap_index)].values()
    )


def test_multiprocess_matches_sequential():
    spec = _scaled("incast-storm", 2.5)
    seq = run_sharded(spec, shards=2, processes=False)
    proc = run_sharded(spec, shards=2, processes=True)
    assert proc.summary["processes"] is True
    assert seq.summary["processes"] is False
    assert proc.digest == seq.digest
    assert proc.summary["events"] == seq.summary["events"]


def _fuzz_spec(seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        f"fuzz-{seed}",
        topology={"family": "fat_tree", "size": 4},
        seed=seed,
        duration=2.0,
        traffic=[
            {"kind": "flows", "rate": 25.0,
             "sizes": {"dist": "pareto", "mean": 8_000, "alpha": 1.5},
             "start": 0.3, "duration": 1.5},
            {"kind": "incast", "fanin": 4, "bytes_per_sender": 5_000,
             "period": 0.7, "start": 0.4, "duration": 1.4},
            {"kind": "cbr", "rate_bps": 2_000_000, "packet_size": 500,
             "start": 0.2, "duration": 1.6},
        ],
    )


@pytest.mark.parametrize("seed", [101, 202])
def test_fuzz_specs_are_shard_count_invariant(seed):
    spec = _fuzz_spec(seed)
    results = _digests(spec, (1, 2, 4))
    digest1, flows1 = results[1]
    assert flows1 > 0
    assert results[2][0] == digest1
    assert results[4][0] == digest1


def test_shards_one_is_single_window():
    spec = _scaled("incast-storm", 2.0)
    result = run_sharded(spec, shards=1)
    assert result.summary["shards"] == 1
    assert result.summary["rounds"] == 1
    assert result.summary["lookahead"] is None
    assert result.summary["cut_links"] == 0


def test_program_is_deterministic_and_flow_ids_partition():
    spec = _scaled("dc-heavy-tail", 2.5)
    topo = build_spec_topology(spec)
    a = build_program(spec, topo)
    b = build_program(spec, topo)
    assert a.ops == b.ops
    assert a.sinks == b.sinks
    flow_ids = [op[4] for op in a.ops if op[0] == "flow"]
    assert len(flow_ids) == len(set(flow_ids))


def test_unsupported_fault_kinds_raise():
    doc = library()["incast-storm"].to_dict()
    doc["faults"] = [{"kind": "switch_crash", "switch": "c0", "at": 1.0,
                      "restart_after": 0.5}]
    spec = WorkloadSpec.from_dict(doc)
    with pytest.raises(TopologyError, match="static-forwarding"):
        run_sharded(spec, shards=2, processes=False)


@pytest.mark.parametrize("a, b", [("s8", "s9"), ("s1", "s9")])
def test_a_flap_of_a_missing_link_fails_before_any_shard_starts(
        a, b, monkeypatch):
    """The platform's message, in the parent, whether or not a shard
    owns an end of the link."""
    import repro.sim.shard.engine as engine

    # Partitioning comes before any shard starts: it must not be reached.
    monkeypatch.setattr(engine, "partition_topology", None)
    spec = WorkloadSpec("x", {"family": "ring", "size": 3}, [], faults=[{
        "kind": "link_flap", "a": a, "b": b, "at": 0.5, "down_for": 0.2,
        "period": 1.0, "count": 1}])
    with pytest.raises(TopologyError) as err:
        run_sharded(spec, shards=2)
    assert str(err.value) == f"fault #0 (link_flap): no link {a} -- {b}"


def test_cbr_stream_flow_id_override():
    from repro.netem.network import Network
    from repro.netem.traffic import CBRStream
    from repro.netem.topology import Topology
    from repro.sim import Simulator

    sim = Simulator(seed=1)
    net = Network(Topology.linear(1, hosts_per_switch=2), sim=sim)
    hosts = sorted(net.hosts)
    src, dst = net.hosts[hosts[0]], net.hosts[hosts[1]]
    stream = CBRStream(src, dst.ip, rate_bps=1e6, packet_size=200,
                       start=0.0, duration=0.1, flow_id=4_200_000)
    assert stream.flow_id == 4_200_000
    default = CBRStream(src, dst.ip, rate_bps=1e6, packet_size=200,
                        start=0.0, duration=0.1)
    assert default.flow_id != stream.flow_id
