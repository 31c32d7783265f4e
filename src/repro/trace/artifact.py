"""TraceArtifact: the serialised form of a run's causal traces.

One artifact holds every trace the run produced (or, for a flight
recorder dump, the bounded tail of them): span trees with globally
unique span ids, the triggers that caused the capture, and run
metadata.  Artifacts are deterministic — built only from simulated
time and tracer state, with sorted keys — so two identical-seed runs
serialise byte-identically, and the sharded engine can merge the
per-shard tracers into one artifact without renumbering anything
(shard *k* mints ids above ``k * SHARD_ID_STRIDE``).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

from repro.digest import canonical_digest

__all__ = ["TraceArtifact", "SHARD_ID_STRIDE", "shard_of_id", "FORMAT"]

FORMAT = "zensdn-trace-artifact-v1"

#: Id stride per shard: shard *k*'s tracer mints trace and span ids in
#: ``(k * STRIDE, (k + 1) * STRIDE]``, so ids are globally unique and
#: the owning shard of any id is ``id // STRIDE``.
SHARD_ID_STRIDE = 1_000_000_000


def shard_of_id(any_id: int) -> int:
    """The shard whose tracer minted ``any_id`` (0 for unsharded runs)."""
    return any_id // SHARD_ID_STRIDE


class TraceArtifact:
    """Plain-data bundle of traces + capture triggers + metadata.

    ``traces`` is a list of ``{"id", "label", "spans"}`` dicts whose
    spans carry ``span_id``/``parent`` links (see
    :class:`~repro.telemetry.trace.Span`); ``triggers`` records why the
    artifact exists (flight-recorder dumps name the violation or alert
    that fired); ``meta`` is free-form run context.
    """

    def __init__(self, traces: List[dict],
                 triggers: Optional[List[dict]] = None,
                 meta: Optional[dict] = None) -> None:
        self.traces = traces
        self.triggers = triggers if triggers is not None else []
        self.meta = meta if meta is not None else {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_tracer(cls, tracer, meta: Optional[dict] = None,
                    triggers: Optional[List[dict]] = None,
                    ) -> "TraceArtifact":
        """Snapshot every live trace of one tracer."""
        traces = [
            {"id": tid, "label": label,
             "spans": [s.to_dict() for s in spans]}
            for tid, label, spans in tracer.traces()
        ]
        doc = dict(meta or {})
        doc.setdefault("dropped_traces", tracer.dropped)
        doc.setdefault("dropped_spans", tracer.dropped_spans)
        return cls(traces, triggers=triggers, meta=doc)

    @classmethod
    def merge(cls, artifacts: Iterable["TraceArtifact"],
              meta: Optional[dict] = None) -> "TraceArtifact":
        """Fuse artifacts (one per shard) into one global artifact.

        Traces sharing an id — a frame that crossed a boundary link, so
        two shards hold halves of its span tree — are unioned: spans
        concatenated and sorted by ``(start, span_id)``, parent links
        left intact (span ids are globally unique by the stride
        scheme).  The label comes from whichever shard named the trace
        (the origin shard; receivers adopt with an empty label).
        """
        merged: Dict[int, dict] = {}
        triggers: List[dict] = []
        parts = list(artifacts)
        for part in parts:
            triggers.extend(part.triggers)
            for trace in part.traces:
                bucket = merged.get(trace["id"])
                if bucket is None:
                    merged[trace["id"]] = {
                        "id": trace["id"],
                        "label": trace["label"],
                        "spans": list(trace["spans"]),
                    }
                else:
                    bucket["spans"].extend(trace["spans"])
                    if not bucket["label"]:
                        bucket["label"] = trace["label"]
        traces = []
        for tid in sorted(merged):
            trace = merged[tid]
            trace["spans"].sort(
                key=lambda s: (s["start"], s["span_id"]))
            traces.append(trace)
        doc = dict(meta or {})
        doc.setdefault("merged_from", len(parts))
        return cls(traces, triggers=triggers, meta=doc)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def trace(self, trace_id: int) -> Optional[dict]:
        for trace in self.traces:
            if trace["id"] == trace_id:
                return trace
        return None

    def longest(self) -> Optional[dict]:
        """The trace spanning the most simulated time (ties: lowest id)."""
        best = None
        best_key = None
        for trace in self.traces:
            spans = trace["spans"]
            if not spans:
                continue
            extent = (max(s["end"] for s in spans)
                      - min(s["start"] for s in spans))
            key = (-extent, trace["id"])
            if best_key is None or key < best_key:
                best, best_key = trace, key
        return best

    def shards_of(self, trace: dict) -> List[int]:
        """Distinct shards whose tracers contributed spans, sorted."""
        return sorted({shard_of_id(s["span_id"])
                       for s in trace["spans"]})

    @property
    def span_count(self) -> int:
        return sum(len(t["spans"]) for t in self.traces)

    @property
    def digest(self) -> str:
        """Canonical content hash (determinism gate surface)."""
        return canonical_digest(self.to_dict())

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": FORMAT,
            "meta": self.meta,
            "triggers": self.triggers,
            "traces": self.traces,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceArtifact":
        tag = data.get("format")
        if tag != FORMAT:
            raise ValueError(f"not a {FORMAT} artifact (format={tag!r})")
        return cls(list(data.get("traces", ())),
                   triggers=list(data.get("triggers", ())),
                   meta=dict(data.get("meta", {})))

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "TraceArtifact":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def __repr__(self) -> str:
        return (f"<TraceArtifact {len(self.traces)} traces, "
                f"{self.span_count} spans, "
                f"{len(self.triggers)} triggers>")
