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

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def seed_arp(network) -> None:
    """Static-ARP every host pair so experiments measure forwarding,
    not ARP resolution."""
    hosts = list(network.hosts.values())
    for a in hosts:
        for b in hosts:
            if a is not b:
                a.add_static_arp(b.ip, b.mac)

