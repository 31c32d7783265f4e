"""Trace lists: the one serialised form of traces, and the critical
path through one.

A tracer's traces leave it as a list of ``{"id", "label", "spans"}``
dicts (:func:`tracer_traces`) whatever reads them — the telemetry JSON
snapshot, a shard's report to the sharded engine (merged across shards
without renumbering: shard *k* mints ids above ``k * SHARD_ID_STRIDE``),
and the ``traces`` section of a saved run artifact
(:class:`repro.obs.artifact.RunArtifact`, which this package never
imports).  The functions here work on such a list: :func:`longest` is
the one picker and :func:`critical_path` attributes one trace's latency
per stage.  The renderers live in :mod:`repro.telemetry.export`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.telemetry.trace import Tracer

__all__ = ["SHARD_ID_STRIDE", "critical_path", "longest", "merge",
           "shard_of_id", "shards_of", "span_count", "trace",
           "tracer_traces"]

#: Id stride per shard: shard *k*'s tracer mints trace and span ids in
#: ``(k * STRIDE, (k + 1) * STRIDE]``, so ids are globally unique and
#: the owning shard of any id is ``id // STRIDE``.
SHARD_ID_STRIDE = 1_000_000_000


def shard_of_id(any_id: int) -> int:
    """The shard whose tracer minted ``any_id`` (0 for unsharded runs)."""
    return any_id // SHARD_ID_STRIDE


def tracer_traces(tracer: Tracer) -> List[dict]:
    """Every live trace of one tracer, in the one serialised form."""
    return [{"id": tid, "label": label,
             "spans": [s.to_dict() for s in spans]}
            for tid, label, spans in tracer.traces()]


def merge(parts: Iterable[List[dict]]) -> List[dict]:
    """Fuse trace lists (one per shard) into one global list, in id
    order.

    Traces sharing an id — halves of a span tree held by two shards, a
    frame that crossed a boundary link — are unioned with their spans
    sorted by ``(start, span_id)``, parent links left intact (span ids
    are globally unique by the stride scheme); the first non-empty
    label wins (the origin shard names a trace, receivers adopt it with
    an empty label).
    """
    merged: Dict[int, dict] = {}
    for part in parts:
        for piece in part:
            trace = merged.get(piece["id"])
            if trace is None:
                trace = merged[piece["id"]] = {
                    "id": piece["id"], "label": piece["label"], "spans": []}
            elif not trace["label"]:
                trace["label"] = piece["label"]
            trace["spans"].extend(piece["spans"])
    traces = [merged[tid] for tid in sorted(merged)]
    for trace in traces:
        trace["spans"].sort(key=lambda s: (s["start"], s["span_id"]))
    return traces


def trace(traces: List[dict], trace_id: int) -> Optional[dict]:
    """The trace with id ``trace_id``, or ``None``."""
    return next((t for t in traces if t["id"] == trace_id), None)


def longest(traces: List[dict]) -> Optional[dict]:
    """The trace spanning the most simulated time (ties: lowest id).

    The one picker: every report that shows "the" trace of a run shows
    this one, so two views of one run never disagree.
    """
    best = None
    best_key = None
    for candidate in traces:
        spans = candidate["spans"]
        if not spans:
            continue
        extent = (max(s["end"] for s in spans)
                  - min(s["start"] for s in spans))
        key = (-extent, candidate["id"])
        if best_key is None or key < best_key:
            best, best_key = candidate, key
    return best


def shards_of(trace: dict) -> List[int]:
    """Distinct shards whose tracers contributed spans, sorted."""
    return sorted({shard_of_id(s["span_id"]) for s in trace["spans"]})


def span_count(traces: List[dict]) -> int:
    return sum(len(t["spans"]) for t in traces)


# ----------------------------------------------------------------------
# Critical path
# ----------------------------------------------------------------------
def critical_path(trace: dict) -> dict:
    """The causal chain that determined when ``trace`` finished.

    ``trace`` is one serialised ``{"id", "label", "spans"}`` dict.
    Start from the span with the latest end, walk parent links back to
    a root, and prepend the flat (un-parented) prefix — the host/link/
    dataplane spans recorded before the controller started threading
    parents — in time order, which for one packet's journey is causal
    order.

    Each stage is attributed ``elapsed = end - previous stage's end``:
    the time the trace spent waiting for and executing it.  Elapsed
    sums telescope to the path's duration, so the attribution answers
    "where did the latency go" exactly — the per-stage controller
    methodology of the POX/Floodlight/OpenDaylight study.

    Returns ``{"trace_id", "label", "total", "stages", "by_stage"}``
    where ``stages`` is the ordered chain (each with ``name``,
    ``stage``, ``start``, ``end``, ``elapsed``, ``self``) and
    ``by_stage`` aggregates elapsed per stage name.
    """
    spans = trace["spans"]
    trace_id = trace.get("id")
    label = trace.get("label", "")
    if not spans:
        return {"trace_id": trace_id, "label": label, "total": 0.0,
                "stages": [], "by_stage": {}}

    by_id: Dict[int, dict] = {}
    for span in spans:
        sid = span.get("span_id", 0)
        if sid:
            by_id[sid] = span

    # Terminal span: latest end; ties break on span id so the pick is
    # deterministic and favours the most recently recorded span.
    leaf = max(spans, key=lambda s: (s["end"], s.get("span_id", 0)))

    # Walk parent links to the chain's root (cycle-guarded).
    chain: List[dict] = [leaf]
    seen = {leaf.get("span_id", 0)}
    while True:
        parent: Optional[int] = chain[-1].get("parent")
        if parent is None or parent not in by_id or parent in seen:
            break
        seen.add(parent)
        chain.append(by_id[parent])
    chain.reverse()

    # Stitch the flat prefix: spans recorded before parent-threading
    # began (host TX, link transit, table lookups) causally precede the
    # chain root when they end by its start.
    root_start = chain[0]["start"]
    chain_ids = {id(s) for s in chain}
    prefix = sorted(
        (s for s in spans
         if id(s) not in chain_ids
         and s.get("parent") is None
         and s["end"] <= root_start),
        key=lambda s: (s["start"], s["end"], s.get("span_id", 0)),
    )
    chain = prefix + chain

    stages = []
    by_stage: Dict[str, float] = {}
    prev_end = chain[0]["start"]
    for span in chain:
        elapsed = max(0.0, span["end"] - prev_end)
        stages.append({
            "name": span["name"],
            "stage": span.get("stage", ""),
            "span_id": span.get("span_id", 0),
            "start": span["start"],
            "end": span["end"],
            "elapsed": elapsed,
            "self": span["end"] - span["start"],
        })
        key = span.get("stage", "") or span["name"]
        by_stage[key] = by_stage.get(key, 0.0) + elapsed
        prev_end = max(prev_end, span["end"])
    total = chain[-1]["end"] - chain[0]["start"]
    return {"trace_id": trace_id, "label": label, "total": total,
            "stages": stages, "by_stage": by_stage}
