"""Rendering: ASCII sparkline dashboards and the health table.

Everything here is pure presentation over a :class:`RunArtifact` — no
simulation state is touched.  The
dashboard draws every selected series against one shared sim-time
axis, with fault windows from the annotation timeline rendered as a
ruler row (``▓`` where a window is open) so "what was happening at
t=3.2s when the link was cut" is answerable at a glance.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.analysis.report import Table
from repro.obs.series import Series

__all__ = [
    "render_dashboard",
    "render_health",
    "sparkline",
]

#: Sparkline glyph ramp, lowest to highest.
_TICKS = " ▁▂▃▄▅▆▇█"

#: Default dashboard row cap; the footer notes anything dropped.
DEFAULT_MAX_SERIES = 24


# ----------------------------------------------------------------------
# Sparklines
# ----------------------------------------------------------------------
def sparkline(values: Sequence[Optional[float]], lo: Optional[float] = None,
              hi: Optional[float] = None) -> str:
    """Render ``values`` as one glyph each; ``None`` renders as ``·``."""
    present = [v for v in values if v is not None]
    if not present:
        return "·" * len(values)
    lo = min(present) if lo is None else lo
    hi = max(present) if hi is None else hi
    span = hi - lo
    out = []
    for v in values:
        if v is None:
            out.append("·")
        elif span <= 0:
            out.append(_TICKS[1])
        else:
            idx = int((v - lo) / span * (len(_TICKS) - 1))
            out.append(_TICKS[max(1, min(idx, len(_TICKS) - 1))])
    return "".join(out)


def _resample(series: Series, t0: float, t1: float,
              width: int) -> List[Optional[float]]:
    """Bucket the series into ``width`` equal time slots.

    Gauges show the bucket mean; counters (and histogram sample counts,
    which are cumulative) show the per-bucket *increase*, so a flat
    line means idle rather than "large total".
    """
    if t1 <= t0:
        t1 = t0 + 1e-9
    dt = (t1 - t0) / width
    buckets: List[List[float]] = [[] for _ in range(width)]
    for t, v in series.points(t0, t1):
        slot = min(int((t - t0) / dt), width - 1)
        buckets[slot].append(v)
    if series.kind == "gauge":
        return [sum(b) / len(b) if b else None for b in buckets]
    # Cumulative kinds: difference the bucket maxima.
    out: List[Optional[float]] = []
    prev: Optional[float] = None
    first = series.first
    if first is not None and first[0] < t0 + dt:
        prev = None  # first bucket shows its own span's growth only
    for b in buckets:
        if not b:
            out.append(None)
            continue
        top = max(b)
        out.append(max(0.0, top - prev) if prev is not None else 0.0)
        prev = top
    return out


def _fault_ruler(windows, annotations, t0: float, t1: float,
                 width: int) -> str:
    """One row marking open fault windows (▓) and point events (╵)."""
    if t1 <= t0:
        t1 = t0 + 1e-9
    dt = (t1 - t0) / width
    row = [" "] * width
    for window in windows:
        end = window.end if window.end is not None else t1
        a = max(0, min(int((window.start - t0) / dt), width - 1))
        b = max(0, min(int((end - t0) / dt), width - 1))
        for i in range(a, b + 1):
            row[i] = "▓"
    for ann in annotations:
        if ann.kind in ("resync_done", "switch_enter"):
            i = max(0, min(int((ann.time - t0) / dt), width - 1))
            if row[i] == " ":
                row[i] = "╵"
    return "".join(row)


# ----------------------------------------------------------------------
# Dashboard
# ----------------------------------------------------------------------
def render_dashboard(artifact, width: int = 60,
                     select: Optional[Iterable[str]] = None,
                     max_series: int = DEFAULT_MAX_SERIES) -> str:
    """The run as aligned sim-time sparklines plus fault annotations.

    ``artifact`` is anything with ``series``/``annotations``/
    ``windows()`` (a :class:`~repro.obs.artifact.RunArtifact` or a live
    :class:`~repro.obs.scraper.MetricsScraper`).  ``select`` filters
    series by name prefix; by default every series is eligible, capped
    at ``max_series`` rows (the footer counts what was dropped).
    """
    all_sids = sorted(artifact.series)
    if select is not None:
        prefixes = tuple(select)
        all_sids = [s for s in all_sids if s.startswith(prefixes)]
    sids = all_sids[:max_series]

    t0 = t1 = None
    for sid in sids:
        series = artifact.series[sid]
        if series.first is not None:
            first, last = series.first[0], series.last[0]
            t0 = first if t0 is None else min(t0, first)
            t1 = last if t1 is None else max(t1, last)
    if t0 is None:
        return "(no samples)"

    label_w = min(44, max((len(s) for s in sids), default=10))
    pad = " " * (label_w + 2)
    lines = [
        f"time axis: {t0:.3f}s .. {t1:.3f}s "
        f"({width} columns, {(t1 - t0) / width * 1e3:.1f} ms each)",
    ]
    annotations = list(artifact.annotations)
    windows = artifact.windows()
    if windows or annotations:
        lines.append(pad + _fault_ruler(windows, annotations, t0, t1,
                                        width)
                     + "  faults (▓ window, ╵ convergence)")
    for sid in sids:
        series = artifact.series[sid]
        cells = _resample(series, t0, t1, width)
        last = series.last[1] if series.last is not None else 0.0
        present = [v for v in cells if v is not None]
        hi = max(present) if present else 0.0
        unit = "Δ/slot" if series.kind != "gauge" else "value"
        name = sid if len(sid) <= label_w else sid[:label_w - 1] + "…"
        lines.append(f"{name:<{label_w}}  {sparkline(cells)}  "
                     f"last={last:.6g} peak {unit}={hi:.6g}")
    for window in windows:
        end = (f"{window.end:.3f}s" if window.end is not None
               else "unresolved")
        lines.append(f"  fault window: {window.kind} {window.label} "
                     f"{window.start:.3f}s → {end}")
    dropped = len(all_sids) - len(sids)
    if dropped > 0:
        lines.append(f"  … {dropped} more series (raise --max-series "
                     f"or filter with --series)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Health report
# ----------------------------------------------------------------------
def render_health(report) -> str:
    """A health report as a table plus the alert timeline."""
    table = Table(
        f"Health @ {report.horizon:.3f}s — "
        + ("OK" if report.ok else "ALERTS FIRED"),
        ["slo", "objective", "ticks", "bad", "worst", "alerts",
         "verdict"],
    )
    for slo in report.slos:
        worst = slo.get("worst")
        alerts = slo["alerts"]
        verdict = "ok"
        if alerts:
            verdict = "FIRING" if slo.get("firing") else "fired"
        table.add_row(
            slo["name"],
            f"{slo.get('signal', slo['kind'])} {slo['op']} "
            f"{slo['threshold']:g}",
            slo["ticks"],
            f"{slo['bad_ticks']} ({slo['bad_fraction']:.0%})",
            f"{worst:.6g}" if worst is not None else "—",
            len(alerts),
            verdict,
        )
    lines = [table.render()]
    for slo in report.slos:
        for alert in slo["alerts"]:
            resolved = (f"resolved {alert['resolved_at']:.3f}s"
                        if alert.get("resolved_at") is not None
                        else "still firing")
            worst = alert.get("worst")
            extra = f" (worst {worst:.6g})" if worst is not None else ""
            lines.append(f"  alert {alert['slo']}: fired "
                         f"{alert['fired_at']:.3f}s, {resolved}{extra}")
    return "\n".join(lines)
