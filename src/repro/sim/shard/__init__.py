"""Sharded parallel simulation kernel (conservative sync).

Partition a topology into spatial shards, run each shard's event loop
in its own worker process, and synchronise conservatively using
cross-shard link latency as lookahead.  ``--shards 1`` is the
differential oracle: byte-identical merged observables at any shard
count, multiprocess or in-process.
"""

from repro.sim.shard.boundary import BoundaryLink, ShardMessage
from repro.sim.shard.engine import run_sharded
from repro.sim.shard.partition import Partition, partition_topology
from repro.sim.shard.program import Program, build_program, build_routes
from repro.sim.shard.worker import ShardWorker

__all__ = [
    "BoundaryLink",
    "Partition",
    "Program",
    "ShardMessage",
    "ShardWorker",
    "build_program",
    "build_routes",
    "partition_topology",
    "run_sharded",
]
