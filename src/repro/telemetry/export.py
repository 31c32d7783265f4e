"""Renderers for serialised traces, plain enough to grep in CI logs.

Traces are exported in their one form, a list of ``{"id", "label",
"spans"}`` dicts, and rendered from it: :func:`render_tree` is the one
span renderer and :func:`~repro.telemetry.artifact.longest` the one
picker.  Both renderers are read-only and deterministic for a given run.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = [
    "render_critical_path",
    "render_tree",
]


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
