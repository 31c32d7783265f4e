"""The run document: what a saved run looks like, one JSON file per run.

A :class:`RunArtifact` freezes everything a run recorded into plain data
— per-series sample history (with rollups and the cumulative histogram
sketches), the annotation timeline, derived fault windows and the
health report, plus whatever traces, dataplane observables and
invariant checks the run made.  Artifacts are deterministic for a
seeded run (no wall-clock anywhere), so a committed baseline artifact
diffs bit-for-bit against a CI re-run of the same scenario; that is
what the ``repro diff`` CI gate leans on.  A :class:`RunResult` is one
spec's run — workload, sharded or checked scenario — with its summary,
its artifact and the digest that pins it.  Every file a run writes is
one of their ``to_dict()`` forms and every reader takes it through
:func:`load_artifact`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.digest import (
    Spliced,
    canonical_digest,
    load_document,
    save_document,
)
from repro.obs.scraper import Annotation, FaultWindow, fault_windows
from repro.obs.series import PointText, Series
from repro.obs.slo import HealthReport

__all__ = ["FORMAT", "RunArtifact", "RunResult", "load_artifact"]

#: Format tag; bump on incompatible layout changes.
FORMAT = "repro.obs/1"

#: Sections a run writes only when it made them, so every document
#: without them — and each digest taken over one — stays byte-identical.
_OPTIONAL = ("traces", "observables", "checks")


class RunArtifact:
    """A finished run's record, as plain data.

    ``traces`` is a list of ``{"id", "label", "spans"}`` dicts (the
    :mod:`repro.telemetry.artifact` form), ``observables`` is the
    dataplane state two runs are compared on
    (:func:`repro.core.dataplane_observables` for a platform run), and
    ``checks`` the final invariant verdicts.
    """

    def __init__(self, series: Optional[Dict[str, Series]] = None,
                 annotations: Optional[List[Annotation]] = None,
                 health: Optional[HealthReport] = None,
                 interval: float = 0.0, horizon: float = 0.0,
                 scrapes: int = 0,
                 meta: Optional[dict] = None,
                 traces: Optional[List[dict]] = None,
                 observables: Optional[dict] = None,
                 checks: Optional[dict] = None) -> None:
        self.series = series if series is not None else {}
        self.annotations = annotations if annotations is not None else []
        self.health = health
        self.interval = interval
        self.horizon = horizon
        self.scrapes = scrapes
        self.meta = dict(meta or {})
        self.traces = traces if traces is not None else []
        self.observables = observables if observables is not None else {}
        self.checks = checks if checks is not None else {}

    # -- queries -------------------------------------------------------
    def get(self, sid: str) -> Optional[Series]:
        return self.series.get(sid)

    def match(self, prefix: str) -> List[Series]:
        return [self.series[sid] for sid in sorted(self.series)
                if sid.startswith(prefix)]

    def windows(self) -> List[FaultWindow]:
        return fault_windows(self.annotations)

    # -- serialisation -------------------------------------------------
    def to_dict(self, text: Optional[PointText] = None) -> dict:
        """The artifact's document; with ``text``, the
        :class:`~repro.digest.Spliced` form a digest walks, whose
        series points ``text`` renders from the series' columns."""
        series = {sid: self.series[sid].to_dict(text)
                  for sid in sorted(self.series)}
        doc = {
            "format": FORMAT,
            "meta": self.meta,
            "interval": self.interval,
            "horizon": self.horizon,
            "scrapes": self.scrapes,
            "series": series if text is None else Spliced(series),
            "annotations": [a.to_dict() for a in self.annotations],
            "health": (self.health.to_dict()
                       if self.health is not None else None),
        }
        doc.update((key, getattr(self, key)) for key in _OPTIONAL
                   if getattr(self, key))
        return doc if text is None else Spliced(doc)

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
            **{key: data.get(key) for key in _OPTIONAL},
        )

    def save(self, path: str) -> None:
        save_document(path, self.to_dict())

    def __repr__(self) -> str:
        traced = (f", {len(self.traces)} traces, "
                  f"{sum(len(t['spans']) for t in self.traces)} spans"
                  if self.traces else "")
        return (f"<RunArtifact {len(self.series)} series, "
                f"{len(self.annotations)} annotations, "
                f"horizon {self.horizon:.3f}s{traced}>")


def load_artifact(path: str) -> RunArtifact:
    """Read an artifact file; a missing, unreadable, non-JSON or
    wrong-format file is a :class:`ZenError` naming the path."""
    return load_document(path, "run artifact", RunArtifact.from_dict)


class RunResult:
    """One spec's run: the spec, its summary and its artifact.

    ``artifact.meta`` names the run ``kind`` and carries the spec
    (``workload``) and the summary, so a saved run rebuilds from its
    document alone (:meth:`from_dict`).  Two digest scopes, both over
    simulated state only (wall-clock never enters the summary):

    * :attr:`full_digest` — the summary and the whole artifact;
    * :attr:`dataplane_digest` — the dataplane observables alone.

    :attr:`digest` is the dataplane scope for a sharded run, whose
    contract is that the result does not depend on the shard count,
    and the full scope for every other run.
    """

    __slots__ = ("spec", "summary", "artifact")

    def __init__(self, spec, summary: dict, artifact: RunArtifact) -> None:
        self.spec = spec
        self.summary = summary
        self.artifact = artifact

    @property
    def observables(self) -> dict:
        return self.artifact.observables

    @property
    def ok(self) -> bool:
        """The run's verdict: the final invariant check of a scenario,
        the SLO health of a workload run; a sharded run has neither."""
        summary = self.summary
        return bool(summary.get("ok", summary.get("health_ok", True)))

    @property
    def full_digest(self) -> str:
        """The digest of ``{"summary", "artifact": artifact.to_dict()}``,
        hashed from the series columns without building that document."""
        return canonical_digest(Spliced(
            summary=self.summary,
            artifact=self.artifact.to_dict(PointText())))

    @property
    def dataplane_digest(self) -> str:
        return canonical_digest(self.artifact.observables)

    @property
    def digest(self) -> str:
        if self.artifact.meta.get("kind") == "sharded":
            return self.dataplane_digest
        return self.full_digest

    def to_dict(self) -> dict:
        """The run document: the artifact plus its ``digest``."""
        return dict(self.artifact.to_dict(), digest=self.digest)

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        # Imported on use: `repro.workload` builds on this package.
        from repro.workload.spec import WorkloadSpec

        artifact = RunArtifact.from_dict(data)
        return cls(WorkloadSpec.from_dict(artifact.meta["workload"]),
                   artifact.meta["summary"], artifact)

    def save(self, path: str) -> None:
        save_document(path, self.to_dict())
