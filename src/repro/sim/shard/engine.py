"""Conservative-sync execution engine for sharded workload runs.

The coordinator (this module) drives N :class:`ShardWorker` event loops
— in-process for the differential oracle and tests, or one OS process
per shard for wall-clock speedup — with an LBTS-style window protocol:

1. ``t_min`` = the earliest pending event or undelivered cross-shard
   frame anywhere in the system.
2. Every shard may safely run to ``grant = t_min + L`` *exclusive*,
   where ``L`` is the partition lookahead (minimum cut-link delay): a
   frame sent at ``s >= t_min`` arrives at ``s + delay >= grant``, so
   nothing that happens elsewhere during the window can affect a local
   event strictly before ``grant``.
3. Outboxes are routed to the receiving shards, which merge each frame
   into their heap at its timestamped arrival with the
   partition-independent tie key — then the next window starts.
4. Once ``t_min + L`` clears the horizon, one final *inclusive* window
   runs every shard to ``duration``; frames serialised in that window
   all arrive strictly after the horizon, so discarding them matches
   the unsharded run leaving those arrivals unexecuted in its heap.

``shards=1`` degenerates to a single inclusive window — the same code
path, one worker, no messages — which is the differential oracle the
CI digest gate compares against.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis import percentile
from repro.errors import SimulationError
from repro.obs import RunArtifact, RunResult
from repro.sim.shard.partition import Partition, partition_topology
from repro.sim.shard.worker import ShardWorker
from repro.telemetry.artifact import merge, tracer_traces
from repro.workload.spec import WorkloadSpec, build_spec_topology

__all__ = ["run_sharded"]


# ----------------------------------------------------------------------
# Worker adapters: same protocol in-process and across a pipe
# ----------------------------------------------------------------------
class _LocalAdapter:
    def __init__(self, spec_doc: dict, shard_id: int, shards: int,
                 trace: bool = False) -> None:
        self.worker = ShardWorker(spec_doc, shard_id, shards, trace=trace)
        self.next_time = self.worker.next_event_time

    def advance_start(self, grant, final, messages) -> None:
        self._result = self.worker.advance(grant, messages, final)

    def advance_finish(self):
        out, self.next_time, executed = self._result
        return out, executed

    def collect(self) -> dict:
        return self.worker.collect()

    def traces(self) -> List[dict]:
        return tracer_traces(self.worker.telemetry.tracer)

    def close(self) -> None:
        pass


def _shard_child(conn, spec_doc: dict, shard_id: int, shards: int,
                 trace: bool = False) -> None:
    """Child-process main: rebuild the shard, serve window commands."""
    try:
        worker = ShardWorker(spec_doc, shard_id, shards, trace=trace)
        conn.send(("ready", worker.next_event_time))
        while True:
            command = conn.recv()
            op = command[0]
            if op == "advance":
                _, grant, final, messages = command
                conn.send(worker.advance(grant, messages, final))
            elif op == "collect":
                conn.send(worker.collect())
            elif op == "traces":
                conn.send(tracer_traces(worker.telemetry.tracer))
            elif op == "quit":
                return
    except EOFError:  # coordinator died; exit quietly
        return
    except Exception as exc:  # surface the traceback to the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        raise
    finally:
        conn.close()


class _ProcessAdapter:
    def __init__(self, ctx, spec_doc: dict, shard_id: int,
                 shards: int, trace: bool = False) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(target=_shard_child,
                                args=(child_conn, spec_doc, shard_id,
                                      shards, trace))
        self.proc.daemon = True
        self.proc.start()
        child_conn.close()
        self.next_time: Optional[float] = None

    def ready(self) -> None:
        tag, payload = self._recv()
        if tag != "ready":  # pragma: no cover - defensive
            raise SimulationError(f"shard worker failed to start: {payload}")
        self.next_time = payload

    def _recv(self):
        reply = self.conn.recv()
        if isinstance(reply, tuple) and reply and reply[0] == "error":
            raise SimulationError(f"shard worker crashed: {reply[1]}")
        return reply

    def advance_start(self, grant, final, messages) -> None:
        self.conn.send(("advance", grant, final, messages))

    def advance_finish(self):
        out, self.next_time, executed = self._recv()
        return out, executed

    def collect(self) -> dict:
        self.conn.send(("collect",))
        return self._recv()

    def traces(self) -> List[dict]:
        self.conn.send(("traces",))
        return self._recv()

    def close(self) -> None:
        try:
            self.conn.send(("quit",))
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=10)
        if self.proc.is_alive():  # pragma: no cover - defensive
            self.proc.terminate()
        self.conn.close()


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def _sum_stats(a: dict, b: dict) -> dict:
    out = {}
    for key, va in a.items():
        vb = b[key]
        if isinstance(va, list):
            out[key] = [x + y for x, y in zip(va, vb)]
        else:
            out[key] = va + vb
    return out


def _merge_observables(parts: List[dict]) -> dict:
    flows: List[list] = []
    hosts: Dict[str, list] = {}
    switches: Dict[str, dict] = {}
    links: Dict[str, Dict[str, dict]] = {}
    for part in parts:
        flows.extend(part["flows"])
        hosts.update(part["hosts"])
        switches.update(part["switches"])
        for index, halves in part["links"].items():
            bucket = links.setdefault(index, {})
            for direction, stats in halves.items():
                if direction in bucket:
                    # A boundary direction split across two shards: the
                    # tx and rx halves increment disjoint fields, so a
                    # fieldwise sum reconstructs the unsharded counter.
                    bucket[direction] = _sum_stats(bucket[direction], stats)
                else:
                    bucket[direction] = stats
    flows.sort()
    return {"flows": flows, "hosts": hosts, "switches": switches,
            "links": links}


# ----------------------------------------------------------------------
# The window loop
# ----------------------------------------------------------------------
def _route(partition: Partition, outboxes: List[List[tuple]],
           pending: List[List[tuple]]) -> None:
    for messages in outboxes:
        for message in messages:
            dest = partition.shard_of_link_end(message[1], message[2])
            pending[dest].append(message)


def _window_loop(adapters, partition: Partition,
                 duration: float) -> dict:
    n = len(adapters)
    lookahead = partition.lookahead
    pending: List[List[tuple]] = [[] for _ in range(n)]
    rounds = 0
    executed_total = 0
    while True:
        t_min = float("inf")
        for i, adapter in enumerate(adapters):
            t_min = min(t_min, adapter.next_time)
            for message in pending[i]:
                t_min = min(t_min, message[0])
        final = t_min + lookahead > duration
        grant = duration if final else t_min + lookahead
        for i, adapter in enumerate(adapters):
            adapter.advance_start(grant, final, pending[i])
            pending[i] = []
        outboxes = []
        for adapter in adapters:
            out, executed = adapter.advance_finish()
            outboxes.append(out)
            executed_total += executed
        rounds += 1
        _route(partition, outboxes, pending)
        if final:
            for queue in pending:
                for message in queue:
                    if message[0] <= duration:  # pragma: no cover
                        raise SimulationError(
                            "conservative sync violated: a frame "
                            f"arrived at {message[0]} inside the "
                            f"closed horizon {duration}"
                        )
            return {"rounds": rounds, "events": executed_total}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_sharded(spec: WorkloadSpec, shards: int = 1,
                processes: Optional[bool] = None,
                trace: bool = False) -> RunResult:
    """Run one workload spec on the sharded kernel.

    The result's artifact holds the merged *observables* — flows, host
    and switch counters, per-link-direction counters — which are
    partition-invariant by construction, and its digest covers only
    them (the dataplane scope).  Execution metadata (events, rounds)
    lives in the summary: total event count legitimately differs by the
    duplicated boundary fault ops.

    ``processes=None`` picks multiprocess execution exactly when the
    partition yields more than one shard; ``processes=False`` forces
    the in-process coordinator (tests, profiling, CI determinism
    checks — bit-identical to the multiprocess run by construction,
    asserted in the differential tests).

    ``trace=True`` arms per-shard telemetry (each tracer minting ids in
    its own stride band) and merges every shard's span forest into the
    artifact's ``traces``.  The observables digest is bit-identical
    with tracing on or off.
    """
    topology = build_spec_topology(spec)
    partition = partition_topology(topology, shards)
    effective = partition.shards
    use_processes = (processes if processes is not None
                     else effective > 1)
    spec_doc = spec.to_dict()

    trace_parts: List[List[dict]] = []
    if use_processes and effective > 1:
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            ctx = multiprocessing.get_context("spawn")
        adapters = [_ProcessAdapter(ctx, spec_doc, i, shards, trace=trace)
                    for i in range(effective)]
        try:
            for adapter in adapters:
                adapter.ready()
            stats = _window_loop(adapters, partition, spec.duration)
            parts = [adapter.collect() for adapter in adapters]
            if trace:
                trace_parts = [adapter.traces() for adapter in adapters]
        finally:
            for adapter in adapters:
                adapter.close()
    else:
        adapters = [_LocalAdapter(spec_doc, i, shards, trace=trace)
                    for i in range(effective)]
        stats = _window_loop(adapters, partition, spec.duration)
        parts = [adapter.collect() for adapter in adapters]
        if trace:
            trace_parts = [adapter.traces() for adapter in adapters]

    observables = _merge_observables(parts)
    fcts = [flow[5] - flow[4] for flow in observables["flows"]
            if flow[5] is not None]
    program_flows = None
    for adapter in adapters:
        if isinstance(adapter, _LocalAdapter):
            program_flows = adapter.worker.program.flows_started
            break
    if program_flows is None:
        # Multiprocess parents never built a worker; recompute cheaply.
        from repro.sim.shard.program import build_program

        program_flows = build_program(spec, topology).flows_started
    summary = {
        "name": spec.name,
        "seed": spec.seed,
        "duration": spec.duration,
        "shards": effective,
        "processes": use_processes and effective > 1,
        "lookahead": (partition.lookahead
                      if partition.lookahead != float("inf") else None),
        "cut_links": len(partition.cut_links),
        "flows_started": program_flows,
        "flows_completed": len(fcts),
        "fct_p50": percentile(fcts, 50) if fcts else None,
        "fct_p95": percentile(fcts, 95) if fcts else None,
        "fct_p99": percentile(fcts, 99) if fcts else None,
        "events": stats["events"],
        "rounds": stats["rounds"],
    }
    return RunResult(spec, summary, RunArtifact(
        meta={"kind": "sharded", "workload": spec_doc, "summary": summary},
        horizon=spec.duration, traces=merge(trace_parts),
        observables=observables))
