"""E13 — Invariant checker: seeded-bug recall and clean-network precision.

Question: does the verification plane find every bug we plant, with
zero false positives on healthy networks, at a cost that permits
online use?

Workload: (1) recall — a bare ring is programmed with each seeded
defect in turn (forwarding loop, dead-port blackhole, slice leak,
firewall bypass) and the checker must flag exactly that defect with a
counterexample packet class; (2) precision — every canned example
scenario plus a fuzz sweep of seeded scenarios must check clean after
convergence; (3) cost — wall-clock per full network check on the
largest clean stack.

Expected shape: 4/4 seeded defects detected, 0 violations across all
clean runs, and a per-check latency in the low milliseconds — cheap
enough to re-run at every convergence event, which is exactly what the
online monitor does.
"""

import time

from repro.analysis import Table
from repro.core import ZenPlatform
from repro.dataplane.actions import Output
from repro.dataplane.flowtable import FlowEntry
from repro.dataplane.match import Match
from repro.netem import Topology
from repro.packet import MACAddress

from repro.check import (
    FirewallCompliance,
    NetworkChecker,
    SliceIsolation,
    example_scenarios,
    generate_scenario,
    run_scenario,
)
from repro.workload import assemble

from harness import publish, publish_json

FUZZ_SEEDS = 8


def _bare_ring():
    return ZenPlatform(Topology.ring(3, hosts_per_switch=1),
                       profile="bare", seed=1).start()


def _plant(kind):
    """Build a ring with one seeded defect; return (net, checker)."""
    platform = _bare_ring()
    net = platform.net

    def install(switch, match, port):
        net.switches[switch].install_flow(
            FlowEntry(match, [Output(port)], priority=500))

    if kind == "loop":
        mac = MACAddress("02:aa:00:00:00:99")
        for a, b in (("s1", "s2"), ("s2", "s3"), ("s3", "s1")):
            install(a, Match(eth_dst=mac), net.port_of(a, b))
        return net, NetworkChecker()
    if kind == "dead_port":
        install("s1", Match(eth_dst=net.hosts["h2"].mac),
                net.port_of("s1", "s2"))
        net.fail_link("s1", "s2")
        return net, NetworkChecker()
    if kind == "slice_leak":
        h3 = net.hosts["h3"]
        install("s1", Match(eth_dst=h3.mac), net.port_of("s1", "s3"))
        install("s3", Match(eth_dst=h3.mac), net.port_of("s3", "h3"))
        return net, NetworkChecker(
            [SliceIsolation({"blue": ["h1"], "red": ["h3"]})])
    if kind == "firewall_bypass":
        from repro.apps.firewall import Firewall

        firewall = platform.add_app(Firewall(table_id=1, next_table=2))
        firewall.deny(ip_proto=17)
        h2 = net.hosts["h2"]
        install("s1", Match(eth_dst=h2.mac), net.port_of("s1", "s2"))
        install("s2", Match(eth_dst=h2.mac), net.port_of("s2", "h2"))
        return net, NetworkChecker([FirewallCompliance(firewall)])
    raise ValueError(kind)


def test_e13_checker_recall_precision_cost():
    table = Table(
        "Table 7: invariant checker on seeded defects and clean stacks",
        ["case", "expected", "found", "counterexample", "verdict"],
    )

    # -- recall on seeded defects -------------------------------------
    detected = 0
    for kind in ("loop", "dead_port", "slice_leak", "firewall_bypass"):
        net, checker = _plant(kind)
        result = checker.check(net)
        hits = result.of_kind(kind)
        with_cx = [v for v in hits if v.counterexample is not None]
        ok = bool(with_cx)
        detected += ok
        table.add_row(f"seeded {kind}", kind,
                      f"{len(hits)} violation(s)",
                      "yes" if with_cx else "no",
                      "detected" if ok else "MISSED")
        assert ok, f"seeded {kind} not detected"

    # -- precision on clean stacks ------------------------------------
    clean_runs = 0
    false_positives = 0
    for scenario in example_scenarios():
        result = run_scenario(scenario)
        clean_runs += 1
        false_positives += len(result.artifact.checks["violations"])
    for seed in range(FUZZ_SEEDS):
        result = run_scenario(generate_scenario(seed))
        clean_runs += 1
        false_positives += len(result.artifact.checks["violations"])
    table.add_row("clean stacks", "0 violations",
                  f"{false_positives} across {clean_runs} runs", "—",
                  "clean" if false_positives == 0 else "NOISY")
    assert false_positives == 0

    # -- cost on the largest clean stack ------------------------------
    scenario = example_scenarios()[-1]  # multipath mesh fabric
    platform = assemble(scenario).platform  # started, nothing run yet
    checker = NetworkChecker()
    checker.check(platform.net)  # warm any import-time costs
    start = time.perf_counter()
    reps = 5
    for _ in range(reps):
        result = checker.check(platform.net)
    per_check_ms = (time.perf_counter() - start) / reps * 1e3
    table.add_row("full-network check", "online-usable",
                  f"{per_check_ms:.1f} ms", "—",
                  f"{result.probes_run} probes")

    print()
    print(publish("Table 7", table))
    publish_json("E13", {
        "seeded_detected": detected,
        "clean_runs": clean_runs,
        "false_positives": false_positives,
        "per_check_ms": round(per_check_ms, 3),
    })
