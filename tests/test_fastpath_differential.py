"""Differential tests: the datapath fast path is semantically invisible.

Every scenario here runs the *identical* seeded workload twice — once
with ``fast_path=False``, once with ``fast_path=True`` — and asserts
that every observable is bit-identical: emitted frames, punts,
FlowRemoved notifications, per-entry and per-table counters, switch
stats, host delivery counts, and the kernel's processed-event total.
The microflow cache may only change wall-clock time, never results.
Fuzzed and library specs run fast path on and off as cells of the
equivalence matrix (``test_equivalence.py``).
"""

import pytest

from repro.core import ZenPlatform, dataplane_observables
from repro.dataplane.actions import (
    Group,
    Output,
    PORT_CONTROLLER,
    PORT_FLOOD,
    PORT_TABLE,
    PopVLAN,
    PushVLAN,
    SetDSCP,
    SetIPDst,
    SetL4Dst,
)
from repro.dataplane.flowtable import FlowEntry
from repro.dataplane.group import Bucket, GroupEntry, GroupType
from repro.dataplane.match import Match
from repro.dataplane.switch import Datapath
from repro.faults import arm_faults
from repro.netem import Topology
from repro.packet import Ethernet, IPv4, UDP
from repro.sim import Simulator

PORTS = (1, 2, 3, 4)
MACS = ["02:00:00:00:00:%02x" % i for i in range(1, 5)]
IPS = ["10.0.0.%d" % i for i in range(1, 5)]


# ----------------------------------------------------------------------
# Scenario 1: randomized flow-mod / packet workload on a raw datapath
# ----------------------------------------------------------------------
def _random_match(rng) -> Match:
    """Random match: sometimes fully exact, sometimes wildcarded."""
    shape = rng.random()
    fields = {}
    if shape < 0.3:
        # Fully specified match (exercises the exact-match sub-index).
        fields = dict(
            in_port=rng.choice(PORTS),
            eth_src=rng.choice(MACS),
            eth_dst=rng.choice(MACS),
            eth_type=0x0800,
            vlan_vid=0,
            ip_src=rng.choice(IPS),
            ip_dst=rng.choice(IPS),
            ip_proto=17,
            ip_dscp=0,
            l4_src=rng.randrange(1, 5),
            l4_dst=rng.randrange(1, 5),
        )
    else:
        if rng.random() < 0.7:
            fields["eth_type"] = 0x0800
        if rng.random() < 0.5:
            fields["ip_dst"] = rng.choice(IPS)
        if rng.random() < 0.3:
            fields["in_port"] = rng.choice(PORTS)
        if rng.random() < 0.3:
            fields["l4_dst"] = rng.randrange(1, 5)
    return Match(**fields)


def _many_shapes_match(rng) -> Match:
    """Random match over many shapes: any subset of seven fields, the
    IP fields as prefixes of several lengths — overlapping rules in
    different subtables of the classifier, so the winner is decided
    across subtables by priority and recency."""
    fields = {}
    if rng.random() < 0.5:
        fields["eth_type"] = 0x0800
    if rng.random() < 0.3:
        fields["eth_dst"] = rng.choice(MACS)
    if rng.random() < 0.2:
        fields["in_port"] = rng.choice(PORTS)
    if rng.random() < 0.2:
        fields["ip_proto"] = 17
    if rng.random() < 0.3:
        fields["l4_dst"] = rng.randrange(1, 5)
    for name in ("ip_src", "ip_dst"):
        if rng.random() < 0.45:
            fields[name] = "%s/%d" % (rng.choice(IPS),
                                      rng.choice((0, 8, 24, 30, 31, 32)))
    return Match(**fields)


def _plain_actions(rng, match) -> list:
    return rng.choice((
        [Output(rng.choice(PORTS))],
        [SetDSCP(10), Output(rng.choice(PORTS))],
        [Group(7)],
        [Output(PORT_FLOOD)],
        [Output(PORT_CONTROLLER)],
    ))


def _rewrite_match(rng) -> Match:
    """Matches on the fields ``_rewriting_actions`` rewrites, so whether
    a later table (or the resubmitted frame) hits depends on the frame
    as rewritten, not as received."""
    fields = {}
    if rng.random() < 0.5:
        fields["ip_dst"] = rng.choice(IPS)
    if rng.random() < 0.4:
        fields["l4_dst"] = rng.randrange(1, 5)
    if rng.random() < 0.4:
        fields["vlan_vid"] = rng.choice((5, -1))
    if rng.random() < 0.2:
        fields["in_port"] = rng.choice(PORTS)
    return Match(**fields)


def _rewriting_actions(rng, match) -> list:
    """Header rewrites, two of them length-changing, usually followed by
    ``goto_table`` (the driver adds it) or by an output or a SELECT
    group, whose bucket choice reads the key."""
    rewrite = rng.choice((
        [SetIPDst(rng.choice(IPS))],
        [SetL4Dst(rng.randrange(1, 5))],
        [PushVLAN(5)],
        [PopVLAN()] if match.get("vlan_vid") == 5 else [SetDSCP(10)],
        [],
    ))
    return rewrite + rng.choice((
        [], [], [Output(rng.choice(PORTS))], [Group(7)],
        [Output(PORT_FLOOD)], [Output(PORT_CONTROLLER)],
    ))


def _random_packet(rng):
    return (
        Ethernet(src=rng.choice(MACS), dst=rng.choice(MACS))
        / IPv4(src=rng.choice(IPS), dst=rng.choice(IPS), dscp=0)
        / UDP(src_port=rng.randrange(1, 5), dst_port=rng.randrange(1, 5))
        / b"payload"
    )


def _drive_datapath(fast_path: bool, seed: int,
                    random_match=_random_match,
                    random_actions=_plain_actions,
                    goto_share: float = 0.25,
                    resubmit_share: float = 0.0,
                    flows: int = 0, repeat: int = 1) -> dict:
    """``flows``/``repeat``: draw frames from a pool of that many and
    inject each ``repeat`` times, so that microflows recur (drawn
    afresh, a frame in 65,536 practically never does: zero hits)."""
    sim = Simulator(seed=seed)
    dp = Datapath(1, sim, num_tables=3, fast_path=fast_path)
    for number in PORTS:
        dp.add_port(number)
    emitted, punts, removed = [], [], []
    dp.transmit = lambda port, pkt, size: emitted.append(
        (sim.now, port, bytes(pkt.encode()))
    )
    dp.on_packet_in = lambda pkt, in_port, reason: punts.append(
        (sim.now, in_port, reason, bytes(pkt.encode()))
    )
    dp.on_flow_removed = lambda tid, entry, reason: removed.append(
        (sim.now, tid, repr(entry.match), entry.priority,
         entry.packet_count, entry.byte_count, reason)
    )
    dp.groups.add(GroupEntry(7, GroupType.SELECT, [
        Bucket([Output(1)]), Bucket([Output(2)], weight=2),
    ]))
    rng = sim.fork_rng()
    peak_shapes = [0]  # most subtables table 0 ever held
    pool = [_random_packet(rng) for _ in range(flows)]

    def frame():
        return rng.choice(pool).copy() if pool else _random_packet(rng)

    def random_op():
        roll = rng.random()
        peak_shapes[0] = max(peak_shapes[0], len(
            {e.match.index()[0] for e in dp.tables[0]}))
        if roll < 0.45:
            table_id = rng.randrange(3)
            match = random_match(rng)
            actions = random_actions(rng, match)
            goto = (table_id + 1
                    if table_id < 2 and rng.random() < goto_share else None)
            dp.install_flow(FlowEntry(
                match, actions,
                priority=rng.randrange(1, 6),
                idle_timeout=rng.choice((0.0, 0.0, 0.4)),
                hard_timeout=rng.choice((0.0, 0.0, 0.9)),
                goto_table=goto,
            ), table_id=table_id)
        elif roll < 0.55:
            dp.remove_flows(
                table_id=rng.randrange(3),
                match=Match(eth_type=0x0800) if rng.random() < 0.5
                else None,
                priority=rng.randrange(1, 6)
                if rng.random() < 0.3 else None,
            )
        elif roll < 0.62:
            port = rng.choice(PORTS)
            dp.set_port_state(port, not dp.port(port).up)
        elif resubmit_share and rng.random() < resubmit_share:
            # A packet-out that rewrites, then resubmits to table 0: the
            # cache is probed with a frame this switch itself changed.
            dp.send_packet_out(
                frame(),
                [SetIPDst(rng.choice(IPS)), PushVLAN(5),
                 Output(PORT_TABLE)][rng.randrange(2):],
                in_port=rng.choice(PORTS))
        else:
            packet, in_port = frame(), rng.choice(PORTS)
            for _ in range(repeat):
                dp.inject(packet.copy(), in_port)

    for i in range(600):
        sim.schedule(0.01 * i + rng.random() * 0.005, random_op)
    sim.run(until=8.0)  # past every timeout so expiry fires too
    return {
        "peak_shapes": peak_shapes[0],
        "emitted": emitted,
        "punts": punts,
        "removed": removed,
        "stats": dp.stats(),
        "fast_path": (dp.fast_path_hits, dp.fast_path_misses),
        "ports": [p.stats() for p in dp.ports.values()],
        "tables": [(t.table_id, t.lookup_count, t.matched_count, len(t))
                   for t in dp.tables],
        "entries": [
            sorted((repr(e.match), e.priority, e.packet_count,
                    e.byte_count) for e in t)
            for t in dp.tables
        ],
        "events": sim.events_processed,
    }


def _same_but_for_the_cache(on: dict, off: dict, hits_at_least=0) -> bool:
    """Every observable equal; the hit/miss counters are the one thing
    the cache may change."""
    hits, misses = on.pop("fast_path")
    assert off.pop("fast_path") == (0, 0)
    assert hits >= hits_at_least and misses >= hits_at_least
    return on == off


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_datapath_differential_random_workload(seed):
    off = _drive_datapath(fast_path=False, seed=seed)
    on = _drive_datapath(fast_path=True, seed=seed)
    assert _same_but_for_the_cache(on, off)


@pytest.mark.parametrize("seed", [1, 7])
def test_datapath_differential_recurring_microflows(seed):
    """The same workload over eight frames, each injected twice: the
    replay, not only the walk, is what is compared."""
    off = _drive_datapath(False, seed, flows=8, repeat=2)
    on = _drive_datapath(True, seed, flows=8, repeat=2)
    assert _same_but_for_the_cache(on, off, hits_at_least=40)


@pytest.mark.parametrize("seed", [4, 13, 31])
def test_datapath_differential_probe_after_a_rewrite(seed):
    """Cache on ≡ off when the frame that is looked up, counted and sent
    is not the frame that arrived: rewrite-then-``goto_table`` pipelines
    (the later entry's byte count is the pushed or popped length) and
    packet-outs that rewrite, then resubmit through ``PORT_TABLE``."""
    kwargs = dict(random_match=_rewrite_match,
                  random_actions=_rewriting_actions,
                  goto_share=0.7, resubmit_share=0.35, flows=8, repeat=2)
    off = _drive_datapath(False, seed, **kwargs)
    on = _drive_datapath(True, seed, **kwargs)
    tagged = [wire for _t, _p, wire in on["emitted"]
              if wire[12:14] == b"\x81\x00"]
    assert len(tagged) > 15 and len(on["emitted"]) - len(tagged) > 15
    assert _same_but_for_the_cache(on, off, hits_at_least=40)


@pytest.mark.parametrize("seed", [2, 9])
def test_datapath_differential_many_shapes(seed):
    """Cache on ≡ off when every lookup crosses several subtables."""
    off = _drive_datapath(False, seed, random_match=_many_shapes_match)
    on = _drive_datapath(True, seed, random_match=_many_shapes_match)
    assert _same_but_for_the_cache(on, off)
    assert on["peak_shapes"] >= 8


# ----------------------------------------------------------------------
# Scenario 2: full platform, reactive profile (flow-mod heavy)
# ----------------------------------------------------------------------
def _drive_platform(fast_path: bool, seed: int, with_faults: bool):
    platform = ZenPlatform(
        Topology.linear(4, hosts_per_switch=1),
        profile="reactive",
        seed=seed,
        fast_path=fast_path,
    ).start()
    if with_faults:
        # start() has already run ~2.5 s of warmup; faults go after.
        arm_faults(platform.fault_schedule(), [
            {"kind": "link_flap", "a": "s2", "b": "s3", "at": 4.0,
             "down_for": 0.6, "period": 2.0, "count": 3},
            {"kind": "channel_flap", "switch": "s1", "at": 5.0,
             "down_for": 0.5, "period": 3.0, "count": 2}])
    hosts = list(platform.net.hosts.values())
    sim = platform.sim
    rng = sim.fork_rng()
    for i in range(150):
        src, dst = rng.sample(hosts, 2)
        sim.schedule(rng.uniform(0.0, 9.0), src.send_udp,
                     dst.ip, 5000 + i % 11, 6000 + i % 7, b"diff")
    platform.run(12.0)
    return (dataplane_observables(platform.net),
            platform.sim.events_processed)


@pytest.mark.parametrize("seed", [3, 11])
def test_platform_differential_reactive(seed):
    off = _drive_platform(fast_path=False, seed=seed, with_faults=False)
    on = _drive_platform(fast_path=True, seed=seed, with_faults=False)
    assert on == off


# ----------------------------------------------------------------------
# Scenario 3: fault churn — invalidation under link/channel flaps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [5, 23])
def test_platform_differential_under_fault_churn(seed):
    off = _drive_platform(fast_path=False, seed=seed, with_faults=True)
    on = _drive_platform(fast_path=True, seed=seed, with_faults=True)
    assert on == off


# ----------------------------------------------------------------------
# Fast-path bookkeeping sanity (not differential, but cheap here)
# ----------------------------------------------------------------------
def test_fast_path_stats_shape():
    sim = Simulator(seed=0)
    dp = Datapath(1, sim, fast_path=True)
    dp.add_port(1)
    dp.add_port(2)
    dp.transmit = lambda port, pkt, size: None
    dp.install_flow(FlowEntry(Match(eth_type=0x0800), [Output(2)],
                              priority=1))
    pkt = (Ethernet(src=MACS[0], dst=MACS[1])
           / IPv4(src=IPS[0], dst=IPS[1])
           / UDP(src_port=1, dst_port=2) / b"x")
    for _ in range(5):
        dp.inject(pkt.copy(), 1)
    stats = dp.fast_path_stats()
    assert stats["enabled"] is True
    assert stats["misses"] == 1
    assert stats["hits"] == 4
    assert stats["cached_paths"] == 1
    generation = stats["generation"]
    dp.install_flow(FlowEntry(Match(), [], priority=0))
    assert dp.fast_path_stats()["generation"] == generation + 1

    disabled = Datapath(2, sim, fast_path=False)
    assert disabled.fast_path_stats()["enabled"] is False
