"""E14 — Observability plane: scrape overhead, health, run diffing.

Question: what does the full ``repro.obs`` plane — the 100 ms metrics
scraper, per-channel backlog probes, and online SLO evaluation — cost,
and does attaching it change anything the simulation computes?

Workload: the E12 fat-tree (k=4, proactive profile) driving repeated
UDP microflows, telemetry enabled in both arms.  The identical seeded
run executes twice per rep — obs plane absent, then attached with the
stock SLO set at a 100 ms sim scrape interval — and the wall-clock
delta is the plane's overhead.  Reps are interleaved and each arm takes
its minimum wall time, which strips scheduler noise the way
min-of-reps microbenchmarks do.

Contract: the plane's own cost — the wall-clock delta divided by the
scrapes it paid for — stays inside ``SCRAPE_BUDGET_US``, and every
simulation observable (switch counters, table stats, flow entries) is
bit-identical between the arms — scrapes ride the kernel's read-only
observer side-channel, so they must be invisible to the run.  The
delta as a share of the run is reported but not gated: it divides by
the cost of forwarding packets, which the plane does not control (PR 14
made the same run 3x cheaper and the share tripled with no change to
the plane).

A second scenario exercises the health/diff story end to end: a clean
ring run versus one with a 2 s control-channel outage.  The outage must
fire the stale-switch SLO, and ``diff_runs`` must flag the health
regression while diffing the clean run against itself stays empty —
the property the CI baseline gate leans on.
"""

import os
import time

import pytest

from repro.analysis import Table
from repro.core import ZenPlatform
from repro.faults import FaultSchedule
from repro.netem import Topology
from repro.obs import ObsPlane, diff_runs, render_dashboard
from repro.telemetry import Telemetry

from harness import RESULTS_DIR, publish, publish_json, seed_arp

PACKETS_PER_FLOW = 160     # keeps the obs-off arm above 0.3 s of wall
SCRAPE_INTERVAL = 0.1      # the acceptance criterion's 100 ms
#: Wall-clock budget per scrape of the ~620-series fat-tree registry:
#: 3x the 220 us measured at PR 13 (median of seven min-of-reps runs
#: that spread from -280 to 515 us: a 10 ms delta between two ~1 s
#: runs), the headroom the old 5% gate had over its measured 1.7%.
SCRAPE_BUDGET_US = 660.0
REPS = 7                   # absolute deltas of ~10 ms need a tight minimum


def drive(obs: bool):
    """One seeded fat-tree run; returns (wall_s, observables, plane)."""
    platform = ZenPlatform(
        Topology.fat_tree(4, bandwidth_bps=1e9, delay=0.00005),
        profile="proactive",
        seed=3,
        telemetry=Telemetry(),
    ).start()
    plane = ObsPlane(platform, interval=SCRAPE_INTERVAL) if obs else None
    seed_arp(platform.net)
    hosts = list(platform.net.hosts.values())
    pairs = [(hosts[i], hosts[(i + 5) % len(hosts)])
             for i in range(len(hosts))]
    for a, b in pairs:
        a.send_udp(b.ip, 5000, 5000, b"warm")
        b.send_udp(a.ip, 5000, 5000, b"warm")
    platform.run(2.0)
    sim = platform.sim
    rng = sim.fork_rng()
    for idx, (a, b) in enumerate(pairs):
        for _ in range(PACKETS_PER_FLOW):
            sim.schedule(rng.uniform(0.0, 1.0), a.send_udp,
                         b.ip, 6000 + idx, 7000, b"x" * 64)
    start = time.perf_counter()
    platform.run(2.0)
    wall = time.perf_counter() - start
    if plane is not None:
        plane.finish()
    observables = {
        name: (dp.stats(),
               [(t.table_id, t.lookup_count, t.matched_count)
                for t in dp.tables],
               sorted((repr(e.match), e.priority, e.packet_count,
                       e.byte_count)
                      for t in dp.tables for e in t))
        for name, dp in platform.net.switches.items()
    }
    return wall, observables, plane


def ring_artifact(churn: bool):
    """A ring run frozen to an artifact; with ``churn``, a 2 s channel
    outage long enough to fire the stale-switch SLO."""
    platform = ZenPlatform(
        Topology.ring(4, hosts_per_switch=1),
        profile="proactive", seed=7,
        telemetry=Telemetry(),
    ).start()
    plane = ObsPlane(platform, interval=SCRAPE_INTERVAL)
    schedule = FaultSchedule(platform.net)
    plane.watch_faults(schedule)
    seed_arp(platform.net)
    hosts = list(platform.net.hosts.values())
    for i, host in enumerate(hosts):
        host.send_udp(hosts[(i + 1) % len(hosts)].ip, 7, 7, b"e14")
    if churn:
        schedule.channel_flap(platform.sim.now + 0.5, "s1",
                              down_for=2.0, period=3.5, count=1)
    platform.run(6.0)
    plane.finish()
    return plane.artifact(seed=7, churn=churn)


def run_experiment():
    walls = {False: [], True: []}
    observables = {}
    plane = None
    for _ in range(REPS):
        for obs in (False, True):
            wall, obs_state, p = drive(obs)
            walls[obs].append(wall)
            observables[obs] = obs_state
            if p is not None:
                plane = p
    off = min(walls[False])
    on = min(walls[True])
    overhead_pct = (on - off) / off * 100.0
    scrape_cost_us = (on - off) / plane.scraper.scrapes * 1e6
    identical = observables[False] == observables[True]

    clean = ring_artifact(churn=False)
    churn = ring_artifact(churn=True)
    self_diff = diff_runs(clean, clean)
    churn_diff = diff_runs(clean, churn)

    table = Table(
        "E14 — obs plane overhead (fat-tree k=4, 100 ms scrapes) "
        "and run diffing",
        ["measure", "value"],
    )
    table.add_row("wall_s obs off (min of reps)", f"{off:.3f}")
    table.add_row("wall_s obs on (min of reps)", f"{on:.3f}")
    table.add_row("cost per scrape (us, gated)", f"{scrape_cost_us:.0f}")
    table.add_row("scrape overhead % (reported)", f"{overhead_pct:.2f}")
    table.add_row("observables bit-identical", identical)
    table.add_row("series scraped", len(plane.scraper.series))
    table.add_row("scrapes", plane.scraper.scrapes)
    table.add_row("self-diff changed signals", len(self_diff.changed))
    table.add_row("churn-diff regressions", len(churn_diff.regressions))
    table.add_row("churn alerts fired", len(churn.health.alerts))
    return (table, off, on, overhead_pct, scrape_cost_us, identical,
            plane, clean, churn, self_diff, churn_diff)


@pytest.fixture(scope="module")
def results():
    return run_experiment()


def test_e14_obs(results, benchmark):
    (table, off, on, overhead_pct, scrape_cost_us, identical, plane,
     clean, churn, self_diff, churn_diff) = results
    publish("e14_obs", table)
    dashboard = render_dashboard(churn, width=60,
                                 select=["channel_messages",
                                         "controller_",
                                         "obs_channel_backlog"])
    with open(os.path.join(RESULTS_DIR, "e14_dashboard.txt"),
              "w") as fh:
        fh.write(dashboard + "\n")
    publish_json("E14", {
        "wall_s": {"obs_off": off, "obs_on": on},
        "overhead_pct": overhead_pct,
        "scrape_cost_us": scrape_cost_us,
        "scrape_budget_us": SCRAPE_BUDGET_US,
        "identical": identical,
        "scrape_interval_s": SCRAPE_INTERVAL,
        "series": len(plane.scraper.series),
        "scrapes": plane.scraper.scrapes,
        "self_diff_changed": len(self_diff.changed),
        "churn_diff_regressions": len(churn_diff.regressions),
        "churn_alerts": len(churn.health.alerts),
    })
    # One scrape of the full fat-tree registry, for the record.
    benchmark.pedantic(plane.scraper.scrape_now, rounds=1, iterations=1)

    assert identical, "obs plane perturbed the seeded run"
    assert scrape_cost_us < SCRAPE_BUDGET_US, (
        f"a scrape costs {scrape_cost_us:.0f} us of wall, over the "
        f"{SCRAPE_BUDGET_US:.0f} us budget"
    )
    assert plane.scraper.scrapes >= 20  # 100 ms over >= 2 s measured


def test_e14_health_and_diff(results):
    (_, _, _, _, _, _, _, clean, churn, self_diff, churn_diff) = results
    # Same artifact diffs empty: the CI baseline-gate property.
    assert self_diff.ok and not self_diff.changed
    # The outage fired the stale-switch objective and the diff saw it.
    assert not churn.health.ok
    assert any(a.slo == "stale-switches" for a in churn.health.alerts)
    assert not churn_diff.ok
    assert any(e.signal.startswith("slo:stale-switches")
               for e in churn_diff.regressions)
    # Clean run stays healthy.
    assert clean.health.ok
