"""Shared utilities for the experiment benchmarks (E1–E10).

Each benchmark module regenerates one table or figure from DESIGN.md's
experiment index.  Tables are printed to stdout *and* written under
``benchmarks/results/`` so ``pytest benchmarks/ --benchmark-only | tee``
captures them and EXPERIMENTS.md can cite them verbatim; machine-readable
results are written once, as ``BENCH_<ID>.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import time

from repro.core import ZenPlatform, dataplane_observables
from repro.netem import Topology
from repro.obs import ObsPlane

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Per host pair in :func:`fat_tree_drive`: keeps the arm with nothing
#: attached above 0.3 s of wall.
PACKETS_PER_FLOW = 160


def publish(artifact_id: str, table) -> str:
    """Render ``table``, print it, and persist it under results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = table.render()
    path = os.path.join(RESULTS_DIR, f"{artifact_id}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print()
    print(text)
    return text


def publish_json(bench_id: str, payload: dict) -> dict:
    """Persist machine-readable results as ``BENCH_<BENCH_ID>.json`` at
    the repo root: committed history, CI build artifact and the
    regression gate's input are one file."""
    record = {"bench": bench_id.upper()}
    record.update(payload)
    with open(os.path.join(REPO_ROOT, f"BENCH_{bench_id.upper()}.json"),
              "w") as fh:
        fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def fat_tree_drive(telemetry=None, obs_interval=None):
    """The seeded fat-tree run E14 and E18 time: k=4, proactive, seed 3;
    one warm frame each way per host pair, then
    :data:`PACKETS_PER_FLOW` 64-byte UDP frames per pair at random times
    in the first second of a 2 s measured window.

    ``telemetry`` is the platform's (``None``: the kernel's own);
    ``obs_interval`` attaches an :class:`~repro.obs.ObsPlane` scraping
    that often.  Returns the measured window's wall seconds, the run's
    :func:`~repro.core.dataplane_observables` and the plane (or
    ``None``).
    """
    platform = ZenPlatform(
        Topology.fat_tree(4, bandwidth_bps=1e9, delay=0.00005),
        profile="proactive",
        seed=3,
        telemetry=telemetry,
    ).start()
    plane = (ObsPlane(platform, interval=obs_interval)
             if obs_interval is not None else None)
    platform.net.seed_static_arp()
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
    return wall, dataplane_observables(platform.net), plane
