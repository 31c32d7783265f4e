"""Exporters: metrics/traces/flow records as JSON or human tables.

Traces are exported in their one form, a list of ``{"id", "label",
"spans"}`` dicts, and rendered from it: :func:`render_tree` is the one
span renderer and :func:`~repro.telemetry.artifact.longest` the one
picker.

Everything here is read-only over the telemetry plane and deterministic
for a given run — with one deliberate exception: the app *profile*
reports host wall-clock time, which varies between runs, so it is kept
out of :func:`snapshot` and :func:`render_report` unless explicitly
requested.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.analysis.report import Table
from repro.telemetry.artifact import longest, tracer_traces

__all__ = [
    "flow_records_table",
    "metrics_table",
    "profile_table",
    "render_critical_path",
    "render_report",
    "render_tree",
    "snapshot",
    "to_json",
]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _format_value(value) -> str:
    if isinstance(value, dict):  # histogram
        text = f"count={value['count']} sum={value['sum']:.6g}"
        quantiles = value.get("quantiles") or {}
        for name in ("p50", "p95", "p99"):
            q = quantiles.get(name)
            if q is not None:
                text += f" {name}={q:.6g}"
        return text
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def metrics_table(registry) -> Table:
    """One row per (family, label set), sorted — the metrics dump."""
    table = Table("Metrics", ["metric", "kind", "labels", "value"])
    for name, family in sorted(registry.snapshot().items()):
        for key, value in family["values"].items():
            table.add_row(name, family["kind"], key or "-",
                          _format_value(value))
    return table


# ----------------------------------------------------------------------
# Traces: ASCII span trees and critical paths over serialised traces,
# plain enough to grep in CI logs
# ----------------------------------------------------------------------
def _fmt_t(t: float) -> str:
    return f"{t:.6f}"


def _fmt_d(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds * 1e6:.1f}us"


def _attr_suffix(span: dict) -> str:
    attrs = span.get("attrs") or {}
    if not attrs:
        return ""
    inner = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    return f"  {{{inner}}}"


def render_tree(trace: dict, attrs: bool = False) -> str:
    """Render one trace's span tree as an ASCII outline.

    Roots are spans with no (resolvable) parent, in time order;
    children sort by ``(start, span_id)``.  A flat legacy trace renders
    as a root-level sequence, which is its causal order anyway.
    """
    spans: List[dict] = list(trace.get("spans", ()))
    lines = [
        f"trace #{trace.get('id', '?')} "
        f"{trace.get('label', '') or '(unlabelled)'} "
        f"({len(spans)} spans)"
    ]
    if not spans:
        return "\n".join(lines)
    ids = {s.get("span_id", 0) for s in spans}
    children: Dict[int, List[dict]] = {}
    roots: List[dict] = []
    for span in spans:
        parent = span.get("parent")
        if parent is None or parent not in ids:
            roots.append(span)
        else:
            children.setdefault(parent, []).append(span)
    order = (lambda s: (s["start"], s.get("span_id", 0)))
    roots.sort(key=order)
    for kids in children.values():
        kids.sort(key=order)

    def emit(span: dict, prefix: str, is_last: bool,
             is_root: bool) -> None:
        if is_root:
            stem, cont = "", ""
        else:
            stem = "`- " if is_last else "|- "
            cont = "   " if is_last else "|  "
        dur = span["end"] - span["start"]
        dur_s = f" +{_fmt_d(dur)}" if dur > 0 else ""
        lines.append(
            f"{prefix}{stem}{span['name']} [{span.get('stage', '')}] "
            f"t={_fmt_t(span['start'])}{dur_s}"
            f"{_attr_suffix(span) if attrs else ''}"
        )
        kids = children.get(span.get("span_id", 0), ())
        for i, kid in enumerate(kids):
            emit(kid, prefix + ("" if is_root else cont),
                 i == len(kids) - 1, False)

    for i, root in enumerate(roots):
        emit(root, "", i == len(roots) - 1, True)
    return "\n".join(lines)


def render_critical_path(path: dict) -> str:
    """Render a :func:`~repro.telemetry.artifact.critical_path` result."""
    stages = path.get("stages", ())
    header = (
        f"critical path of trace #{path.get('trace_id', '?')} "
        f"{path.get('label', '') or ''}".rstrip()
        + f": {_fmt_d(path.get('total', 0.0))} over "
        f"{len(stages)} stages"
    )
    lines = [header]
    if not stages:
        return header
    name_w = max(len(s["name"]) for s in stages)
    stage_w = max(len(s["stage"]) for s in stages)
    for s in stages:
        lines.append(
            f"  t={_fmt_t(s['start'])}  {s['name']:<{name_w}}  "
            f"[{s['stage']:<{stage_w}}]  +{_fmt_d(s['elapsed'])}"
        )
    by_stage = path.get("by_stage", {})
    if by_stage:
        total = path.get("total", 0.0) or 1.0
        lines.append("  attribution:")
        for stage in sorted(by_stage, key=lambda k: (-by_stage[k], k)):
            share = by_stage[stage] / total * 100.0 if total else 0.0
            lines.append(
                f"    {stage:<{max(stage_w, 10)}} "
                f"{_fmt_d(by_stage[stage]):>10}  {share:5.1f}%"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Flow records
# ----------------------------------------------------------------------
def flow_records_table(exporter) -> Table:
    table = Table(
        "Flow records",
        ["dpid", "table", "five-tuple", "packets", "bytes", "duration",
         "reason"],
    )
    for record in exporter.records:
        table.add_row(record.dpid, record.table_id, record.five_tuple,
                      record.packets, record.bytes,
                      f"{record.duration:.3f}s", record.reason)
    return table


# ----------------------------------------------------------------------
# Profile
# ----------------------------------------------------------------------
def profile_table(profiler, wall: bool = True) -> Table:
    """Controller event-handling profile by app.

    With ``wall=True`` (the default) the table includes host wall-clock
    columns, which are **not** deterministic across runs.
    """
    if wall:
        table = Table(
            "Controller event handling by app (wall time is host time, "
            "not simulated)",
            ["app", "event", "calls", "wall ms", "avg us"],
        )
        for app, event, calls, seconds in profiler.rows():
            table.add_row(app, event, calls, f"{seconds * 1e3:.3f}",
                          f"{seconds / calls * 1e6:.1f}")
    else:
        table = Table("Controller events handled by app",
                      ["app", "event", "calls"])
        for app, events in profiler.call_counts().items():
            for event, calls in events.items():
                table.add_row(app, event, calls)
    return table


# ----------------------------------------------------------------------
# Whole-plane snapshot
# ----------------------------------------------------------------------
def snapshot(telemetry, include_wall_profile: bool = False) -> dict:
    """The full telemetry plane as one JSON-ready dict.

    Deterministic for a given seed unless ``include_wall_profile`` is
    set (wall times are host-dependent).
    """
    doc = {
        "enabled": telemetry.enabled,
        "metrics": telemetry.metrics.snapshot(),
        "traces": tracer_traces(telemetry.tracer),
        "flow_records": telemetry.flows.to_dict(),
        "profile_calls": telemetry.profiler.call_counts(),
    }
    if include_wall_profile:
        doc["profile_wall"] = [
            {"app": app, "event": event, "calls": calls,
             "wall_seconds": seconds}
            for app, event, calls, seconds in telemetry.profiler.rows()
        ]
    return doc


def to_json(telemetry, include_wall_profile: bool = False,
            indent: int = 2) -> str:
    return json.dumps(
        snapshot(telemetry, include_wall_profile=include_wall_profile),
        indent=indent, sort_keys=True, default=str,
    )


def render_report(telemetry, include_wall_profile: bool = False) -> str:
    """The human-readable report the ``telemetry`` CLI command prints."""
    parts = [metrics_table(telemetry.metrics).render()]

    tracer = telemetry.tracer
    parts.append(f"\nPacket traces: {tracer.trace_count} captured"
                 + (f", {tracer.dropped} dropped (cap)"
                    if tracer.dropped else ""))
    pick = longest(tracer_traces(tracer))
    if pick is not None:
        parts.append(render_tree(pick, attrs=True))

    flows = telemetry.flows
    parts.append(f"\nFlow records: {len(flows)} exported"
                 + (f", {flows.dropped} dropped (cap)"
                    if flows.dropped else ""))
    if len(flows):
        parts.append(flow_records_table(flows).render())

    if include_wall_profile:
        parts.append("")
        parts.append(profile_table(telemetry.profiler, wall=True).render())
    return "\n".join(parts)
