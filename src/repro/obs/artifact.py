"""Run artifacts: one JSON file per run, diffable and replottable.

A :class:`RunArtifact` freezes everything the obs plane learned about a
run — per-series sample history (with rollups and the cumulative
histogram sketches), the annotation timeline, derived fault windows,
and the health report — into plain data.  Artifacts are deterministic
for a seeded run (no wall-clock anywhere), so a committed baseline
artifact diffs bit-for-bit against a CI re-run of the same scenario;
that is what the ``obs diff`` CI gate leans on.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.digest import load_document
from repro.obs.scraper import Annotation, FaultWindow, fault_windows
from repro.obs.series import Series
from repro.obs.slo import HealthReport

__all__ = ["FORMAT", "RunArtifact", "load_artifact", "save_artifact"]

#: Format tag; bump on incompatible layout changes.
FORMAT = "repro.obs/1"


class RunArtifact:
    """A finished run's observability record, as plain data."""

    def __init__(self, series: Dict[str, Series],
                 annotations: List[Annotation],
                 health: Optional[HealthReport] = None,
                 interval: float = 0.0, horizon: float = 0.0,
                 scrapes: int = 0,
                 meta: Optional[dict] = None) -> None:
        self.series = series
        self.annotations = annotations
        self.health = health
        self.interval = interval
        self.horizon = horizon
        self.scrapes = scrapes
        self.meta = dict(meta or {})

    # -- queries -------------------------------------------------------
    def get(self, sid: str) -> Optional[Series]:
        return self.series.get(sid)

    def match(self, prefix: str) -> List[Series]:
        return [self.series[sid] for sid in sorted(self.series)
                if sid.startswith(prefix)]

    def windows(self) -> List[FaultWindow]:
        return fault_windows(self.annotations)

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": FORMAT,
            "meta": self.meta,
            "interval": self.interval,
            "horizon": self.horizon,
            "scrapes": self.scrapes,
            "series": {sid: self.series[sid].to_dict()
                       for sid in sorted(self.series)},
            "annotations": [a.to_dict() for a in self.annotations],
            "health": (self.health.to_dict()
                       if self.health is not None else None),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunArtifact":
        tag = data.get("format")
        if tag != FORMAT:
            raise ValueError(
                f"not a {FORMAT} artifact (format={tag!r})"
            )
        series = {
            sid: Series.from_dict(sid, doc)
            for sid, doc in data.get("series", {}).items()
        }
        annotations = [
            Annotation(a["time"], a["kind"], a["label"],
                       trace_id=a.get("trace_id"))
            for a in data.get("annotations", ())
        ]
        health = data.get("health")
        return cls(
            series, annotations,
            health=HealthReport.from_dict(health)
            if health is not None else None,
            interval=data.get("interval", 0.0),
            horizon=data.get("horizon", 0.0),
            scrapes=data.get("scrapes", 0),
            meta=data.get("meta", {}),
        )

    def save(self, path: str) -> None:
        save_artifact(self, path)

    def __repr__(self) -> str:
        return (f"<RunArtifact {len(self.series)} series, "
                f"{len(self.annotations)} annotations, "
                f"horizon {self.horizon:.3f}s>")


def save_artifact(artifact: RunArtifact, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(artifact.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_artifact(path: str) -> RunArtifact:
    """Read an artifact file; a missing, unreadable, non-JSON or
    wrong-format file is a :class:`ZenError` naming the path."""
    return load_document(path, "run artifact", RunArtifact.from_dict)
