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
scrapes it paid for — stays inside ``SCRAPE_BUDGET_US``, and the
run's dataplane record (``repro.core.dataplane_observables``) is
bit-identical between the arms — scrapes ride the kernel's read-only
observer side-channel, so they must be invisible to the run.  The
delta as a share of the run is reported but not gated: it divides by
the cost of forwarding packets, which the plane does not control (PR 14
made the same run 3x cheaper and the share tripled with no change to
the plane).

The wall-clock delta of two whole runs is noise-dominated (it has read
negative), so each scrape is also timed directly: ``scrape_now_us`` is
the median of ``perf_counter`` taken around every ``scrape_now`` of one
run of each library spec, gated against the same budget.

A second scenario exercises the health/diff story end to end: a clean
ring run versus one with a 2 s control-channel outage.  The outage must
fire the stale-switch SLO, and ``diff_runs`` must flag the health
regression while diffing the clean run against itself stays empty —
the property the CI baseline gate leans on.
"""

import os
import statistics
import time

import pytest

from repro.analysis import Table
from repro.core import ZenPlatform
from repro.faults import arm_faults
from repro.netem import Topology
from repro.obs import MetricsScraper, ObsPlane, diff_runs, render_dashboard
from repro.telemetry import Telemetry
from repro.workload import library, run_workload

from harness import RESULTS_DIR, fat_tree_drive, publish, publish_json

SCRAPE_INTERVAL = 0.1      # the acceptance criterion's 100 ms
#: Wall-clock budget per scrape of the ~620-series fat-tree registry:
#: 3x the 220 us measured at PR 13 (median of seven min-of-reps runs
#: that spread from -280 to 515 us: a 10 ms delta between two ~1 s
#: runs), the headroom the old 5% gate had over its measured 1.7%.
SCRAPE_BUDGET_US = 660.0
REPS = 7                   # absolute deltas of ~10 ms need a tight minimum


def scrape_now_us(spec) -> float:
    """Median wall time of one ``scrape_now`` (sampling and the SLO
    hooks it calls) over one run of ``spec``, in microseconds."""
    samples = []
    scrape = MetricsScraper.scrape_now

    def timed(scraper):
        start = time.perf_counter()
        scrape(scraper)
        samples.append((time.perf_counter() - start) * 1e6)

    MetricsScraper.scrape_now = timed
    try:
        run_workload(spec)
    finally:
        MetricsScraper.scrape_now = scrape
    return statistics.median(samples)


def ring_artifact(churn: bool):
    """A ring run frozen to an artifact; with ``churn``, a 2 s channel
    outage long enough to fire the stale-switch SLO."""
    platform = ZenPlatform(
        Topology.ring(4, hosts_per_switch=1),
        profile="proactive", seed=7,
        telemetry=Telemetry(),
    ).start()
    plane = ObsPlane(platform, interval=SCRAPE_INTERVAL)
    schedule = platform.fault_schedule()
    plane.watch_faults(schedule)
    platform.net.seed_static_arp()
    hosts = list(platform.net.hosts.values())
    for i, host in enumerate(hosts):
        host.send_udp(hosts[(i + 1) % len(hosts)].ip, 7, 7, b"e14")
    if churn:
        arm_faults(schedule, [{"kind": "channel_flap", "switch": "s1",
                               "at": 0.5, "down_for": 2.0, "period": 3.5,
                               "count": 1}], base=platform.sim.now)
    platform.run(6.0)
    plane.finish()
    return plane.artifact(seed=7, churn=churn)


def run_experiment():
    walls = {False: [], True: []}
    observables = {}
    plane = None
    for _ in range(REPS):
        for obs in (False, True):
            wall, obs_state, p = fat_tree_drive(
                obs_interval=SCRAPE_INTERVAL if obs else None)
            walls[obs].append(wall)
            observables[obs] = obs_state
            if p is not None:
                plane = p
    off = min(walls[False])
    on = min(walls[True])
    overhead_pct = (on - off) / off * 100.0
    scrape_cost_us = (on - off) / plane.scraper.scrapes * 1e6
    identical = observables[False] == observables[True]

    per_spec = {name: scrape_now_us(spec)
                for name, spec in library().items()}

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
    for name, us in per_spec.items():
        table.add_row(f"scrape_now median, {name} (us, gated)", f"{us:.0f}")
    table.add_row("observables bit-identical", identical)
    table.add_row("series scraped", len(plane.scraper.series))
    table.add_row("scrapes", plane.scraper.scrapes)
    table.add_row("self-diff changed signals", len(self_diff.changed))
    table.add_row("churn-diff regressions", len(churn_diff.regressions))
    table.add_row("churn alerts fired", len(churn.health.alerts))
    return (table, off, on, overhead_pct, scrape_cost_us, identical,
            plane, clean, churn, self_diff, churn_diff, per_spec)


@pytest.fixture(scope="module")
def results():
    return run_experiment()


def test_e14_obs(results, benchmark):
    (table, off, on, overhead_pct, scrape_cost_us, identical, plane,
     clean, churn, self_diff, churn_diff, per_spec) = results
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
        "scrape_now_us": per_spec,
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
    over = {name: round(us) for name, us in per_spec.items()
            if us >= SCRAPE_BUDGET_US}
    assert not over, (
        f"a scrape_now's median wall time is over the "
        f"{SCRAPE_BUDGET_US:.0f} us budget on {over}"
    )


def test_e14_health_and_diff(results):
    (_, _, _, _, _, _, _, clean, churn, self_diff, churn_diff, _) = results
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
