"""Statistical A/B diff of two run artifacts — the CI gate.

:func:`diff_runs` compares a *baseline* and a *current*
:class:`~repro.obs.artifact.RunArtifact` series by series and SLO by
SLO, and classifies every delta:

* direction-aware **regressions** — series matching the badness
  patterns (drops, failures, violations, retries, latency quantiles,
  alert time) that got significantly *worse*;
* **improvements** — the same signals moving the right way;
* neutral **changes** — significant movement on signals with no
  inherent direction (e.g. total messages), reported but never fatal.

"Significant" combines a relative-delta floor with a z-like score
(delta over the pooled per-scrape spread), so a 3% wiggle on a noisy
series does not fail a build while a clean 10x jump in drops does.
Artifacts of the *same seeded run* always diff empty — the property
the CI baseline gate depends on.

Two documents that share no signal (a sharded run, a run too short to
scrape) would diff clean whatever they hold, so then their recorded
digests decide (:meth:`DiffReport.compare_digests`), and the report
names every section (:func:`repro.digest.section_digests`) that moved.
"""

from __future__ import annotations

import fnmatch
import math
from typing import List, Optional, Tuple

from repro.analysis.report import Table
from repro.digest import canonical_digest, section_digests
from repro.obs.artifact import RunArtifact
from repro.obs.series import Series

__all__ = ["DiffEntry", "DiffReport", "diff_runs", "render_diff"]

#: Series where a higher end value is *worse*.  Matched with
#: :mod:`fnmatch` against the full series id.
WORSE_WHEN_HIGHER = (
    "*violations*", "*dropped*", "*drops*", "*failures*", "*failed*",
    "*retries*", "*overflow*", "*stale*", "*blackhole*",
    "*delay*", "*latency*", "*backlog*", "*queue*",
)

#: Series that are pure volume/progress — changes are reported as
#: neutral, never as regressions (more packets is not a bug).
NEUTRAL = (
    "sim_*", "*messages_total*", "*bytes_total*", "*packet_ins*",
    "*events_total*", "*packets_*", "check_runs_total*",
    "faults_injected*", "*transitions*", "*resyncs_total*",
    "*resync_flows*",
)

#: A significant delta on a series with any spread is also at least
#: this many pooled per-scrape standard deviations.
_Z_FLOOR = 3.0


def _direction(sid: str) -> int:
    """+1 when higher is worse, 0 when neutral, -1 when higher is
    better (nothing ships with -1 semantics yet, but the hook is
    here)."""
    for pattern in NEUTRAL:
        if fnmatch.fnmatch(sid, pattern):
            return 0
    for pattern in WORSE_WHEN_HIGHER:
        if fnmatch.fnmatch(sid, pattern):
            return 1
    return 0


class DiffEntry:
    """One compared signal."""

    __slots__ = ("signal", "kind", "base", "cur", "delta", "rel",
                 "zscore", "flag")

    def __init__(self, signal: str, kind: str, base: Optional[float],
                 cur: Optional[float], delta: float, rel: float,
                 zscore: float, flag: str) -> None:
        self.signal = signal
        self.kind = kind
        self.base = base
        self.cur = cur
        self.delta = delta
        self.rel = rel
        self.zscore = zscore
        self.flag = flag  # same | changed | improvement | REGRESSION

    def to_dict(self) -> dict:
        return {
            "signal": self.signal, "kind": self.kind,
            "base": self.base, "cur": self.cur, "delta": self.delta,
            "rel": self.rel, "zscore": self.zscore, "flag": self.flag,
        }

    def __repr__(self) -> str:
        return f"<DiffEntry {self.signal} {self.flag} Δ={self.delta:+.6g}>"


class DiffReport:
    """Every compared signal plus the regression verdict."""

    def __init__(self, entries: List[DiffEntry],
                 only_base: List[str], only_cur: List[str]) -> None:
        self.entries = entries
        self.only_base = only_base
        self.only_cur = only_cur
        #: Sections of two signal-less documents whose digests differ.
        self.moved: List[str] = []

    @property
    def regressions(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.flag == "REGRESSION"]

    @property
    def improvements(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.flag == "improvement"]

    @property
    def changed(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.flag != "same"]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.moved

    def compare_digests(self, base: dict, cur: dict) -> None:
        """With no signal compared, let the two run documents' recorded
        ``digest`` (the whole document's, when none is recorded) decide:
        when they differ, :attr:`moved` names every section that did."""
        def digest(doc: dict) -> str:
            return doc.get("digest") or canonical_digest(doc)

        if self.entries or digest(base) == digest(cur):
            return
        b, c = section_digests(base), section_digests(cur)
        self.moved = sorted(key for key in b.keys() | c.keys()
                            if key != "digest" and b.get(key) != c.get(key))

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "regressions": len(self.regressions),
            "entries": [e.to_dict() for e in self.changed],
            "only_base": self.only_base,
            "only_cur": self.only_cur,
        }

    def __repr__(self) -> str:
        return (f"<DiffReport {len(self.entries)} signals, "
                f"{len(self.regressions)} regressions>")


# ----------------------------------------------------------------------
# Per-series summary statistics
# ----------------------------------------------------------------------
def _summary(series: Series) -> Tuple[float, float]:
    """(headline value, per-scrape spread) for one series.

    Counters and histogram sample counts are cumulative, so the
    headline is the total increase over the run and the spread is the
    standard deviation of per-scrape increments; gauges use the mean
    and standard deviation of the raw samples.
    """
    values = series.values()
    if not values:
        return 0.0, 0.0
    if series.kind == "gauge":
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        return mean, math.sqrt(var)
    increments = [b - a for a, b in zip(values, values[1:])]
    total = values[-1] - values[0]
    if not increments:
        return total, 0.0
    mean = sum(increments) / len(increments)
    var = sum((v - mean) ** 2 for v in increments) / len(increments)
    return total, math.sqrt(var)


def _entry(signal: str, kind: str, base: float, cur: float,
           spread: float, direction: int, tolerance: float) -> DiffEntry:
    delta = cur - base
    scale = max(abs(base), abs(cur), 1e-12)
    rel = delta / scale
    zscore = delta / spread if spread > 0 else (
        math.inf if delta > 0 else -math.inf if delta < 0 else 0.0
    )
    significant = abs(rel) > tolerance and (
        spread == 0 or abs(zscore) >= _Z_FLOOR
    )
    if not significant:
        flag = "same"
    elif direction == 0:
        flag = "changed"
    elif delta * direction > 0:
        flag = "REGRESSION"
    else:
        flag = "improvement"
    return DiffEntry(signal, kind, base, cur, delta, rel, zscore, flag)


# ----------------------------------------------------------------------
# The diff
# ----------------------------------------------------------------------
def diff_runs(base: RunArtifact, cur: RunArtifact,
              tolerance: float = 0.10) -> DiffReport:
    """Compare two artifacts; see the module docstring for semantics.

    ``tolerance`` is the relative-delta floor below which a signal is
    "same"; a series with any spread at all must also move by
    ``_Z_FLOOR`` pooled per-scrape standard deviations.
    """
    entries: List[DiffEntry] = []
    shared = sorted(set(base.series) & set(cur.series))
    for sid in shared:
        b, c = base.series[sid], cur.series[sid]
        b_head, b_spread = _summary(b)
        c_head, c_spread = _summary(c)
        spread = math.sqrt((b_spread ** 2 + c_spread ** 2) / 2)
        # A histogram's headline is its observation *count* — volume,
        # not badness; direction applies to its quantiles below.
        direction = 0 if b.kind == "histogram" else _direction(sid)
        entries.append(_entry(sid, b.kind, b_head, c_head, spread,
                              direction, tolerance))
        if b.kind == "histogram":
            for q, tag in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
                bq = b.quantile(q)
                cq = c.quantile(q)
                if bq is None and cq is None:
                    continue
                entries.append(_entry(
                    f"{sid}:{tag}", "quantile", bq or 0.0, cq or 0.0,
                    0.0, 1, tolerance,
                ))

    # Health plane: alert counts and total firing time per SLO.
    if base.health is not None and cur.health is not None:
        base_slos = {s["name"]: s for s in base.health.slos}
        cur_slos = {s["name"]: s for s in cur.health.slos}
        for name in sorted(set(base_slos) & set(cur_slos)):
            bs, cs = base_slos[name], cur_slos[name]
            entries.append(_entry(
                f"slo:{name}:alerts", "health",
                float(len(bs["alerts"])), float(len(cs["alerts"])),
                0.0, 1, tolerance,
            ))
            entries.append(_entry(
                f"slo:{name}:firing_s", "health",
                _firing_seconds(bs, base.horizon),
                _firing_seconds(cs, cur.horizon),
                0.0, 1, tolerance,
            ))

    only_base = sorted(set(base.series) - set(cur.series))
    only_cur = sorted(set(cur.series) - set(base.series))
    return DiffReport(entries, only_base, only_cur)


def _firing_seconds(slo_doc: dict, horizon: float) -> float:
    total = 0.0
    for alert in slo_doc["alerts"]:
        end = alert.get("resolved_at")
        total += (end if end is not None else horizon) - alert["fired_at"]
    return total


def render_diff(report: DiffReport, base_name: str = "baseline",
                cur_name: str = "current") -> str:
    """The diff as a table of changed signals plus the verdict line."""
    table = Table(
        f"Run diff: {base_name} → {cur_name}",
        ["signal", "kind", base_name, cur_name, "Δ", "rel", "flag"],
    )
    shown = report.changed
    for entry in sorted(shown, key=lambda e: (e.flag != "REGRESSION",
                                              -abs(e.rel))):
        table.add_row(
            entry.signal, entry.kind,
            f"{entry.base:.6g}" if entry.base is not None else "—",
            f"{entry.cur:.6g}" if entry.cur is not None else "—",
            f"{entry.delta:+.6g}", f"{entry.rel:+.1%}", entry.flag,
        )
    lines = []
    if shown:
        lines.append(table.render())
    else:
        lines.append(f"Run diff: {base_name} → {cur_name}: "
                     f"no significant changes "
                     f"({len(report.entries)} signals compared)")
    if report.only_base:
        lines.append(f"only in {base_name}: "
                     f"{', '.join(report.only_base[:8])}"
                     + (" …" if len(report.only_base) > 8 else ""))
    if report.only_cur:
        lines.append(f"only in {cur_name}: "
                     f"{', '.join(report.only_cur[:8])}"
                     + (" …" if len(report.only_cur) > 8 else ""))
    if report.moved:
        lines.append("FAIL — no signal compared and the digests differ; "
                     f"sections moved: {', '.join(report.moved)}")
        return "\n".join(lines)
    verdict = ("OK — no regressions flagged" if report.ok
               else f"FAIL — {len(report.regressions)} regression(s)")
    lines.append(verdict + f" ({len(report.improvements)} improvement(s),"
                 f" {len(report.changed)} changed signal(s))")
    return "\n".join(lines)
