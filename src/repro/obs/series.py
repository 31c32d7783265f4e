"""Per-series ring buffers with rollup storage and windowed queries.

One :class:`Series` holds the sampled history of a single metric child
(one ``family{labels}`` pair) as ``(sim_time, value)`` points in a
bounded ring.  When the raw ring wraps, evicted points are folded into
*rollups* — coarse ``(t_start, t_end, count, sum, min, max)`` buckets,
each covering :data:`ROLLUP_FACTOR` raw samples — so long runs keep a full-
horizon (if lower-resolution) history in bounded memory instead of
silently forgetting the past.

Counters are stored cumulatively exactly as scraped; :meth:`rate` and
:meth:`delta` difference them on demand, which is robust to missed
windows.  Histogram series carry per-scrape *delta sketches*
(:class:`~repro.telemetry.sketch.QuantileSketch`) alongside the count
points, so :meth:`quantile` can answer "p95 within this window" by
merging only the window's sketches.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.telemetry.sketch import QuantileSketch

__all__ = ["Point", "Rollup", "Series"]

#: A raw sample: (sim_time, value).
Point = Tuple[float, float]

#: Ring sizes, read when a :class:`Series` is built: raw points (and
#: rollups) a series holds, and raw points folded into one rollup.
CAPACITY = 4096
ROLLUP_FACTOR = 8


class Rollup:
    """Aggregate of ``count`` raw samples evicted from the raw ring."""

    __slots__ = ("t_start", "t_end", "count", "sum", "min", "max")

    def __init__(self, t_start: float, t_end: float, count: int,
                 total: float, vmin: float, vmax: float) -> None:
        self.t_start = t_start
        self.t_end = t_end
        self.count = count
        self.sum = total
        self.min = vmin
        self.max = vmax

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_list(self) -> list:
        return [self.t_start, self.t_end, self.count, self.sum,
                self.min, self.max]

    def __repr__(self) -> str:
        return (f"<Rollup [{self.t_start:.3f},{self.t_end:.3f}] "
                f"n={self.count} mean={self.mean:.6g}>")


class Series:
    """Bounded sample history for one metric child."""

    __slots__ = ("name", "kind", "capacity", "rollup_factor", "_points",
                 "_rollups", "_pending", "_sketches", "_last_cum_sketch",
                 "samples_taken")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind  # counter | gauge | histogram
        self.capacity = CAPACITY
        self.rollup_factor = ROLLUP_FACTOR
        self._points: Deque[Point] = deque()
        self._rollups: Deque[Rollup] = deque(maxlen=self.capacity)
        self._pending: List[Point] = []  # evicted, awaiting rollup fold
        #: Per-scrape delta sketches (histogram series only), aligned
        #: with ``_points``; ``None`` for scrapes with no observations.
        self._sketches: Optional[Deque[Optional[QuantileSketch]]] = (
            deque() if kind == "histogram" else None
        )
        self._last_cum_sketch: Optional[QuantileSketch] = None
        self.samples_taken = 0

    # ------------------------------------------------------------------
    # Ingest (called by the scraper on observer ticks)
    # ------------------------------------------------------------------
    def sample(self, t: float, value: float,
               cum_sketch: Optional[QuantileSketch] = None) -> None:
        """Record one scrape.  ``cum_sketch`` is the *cumulative* sketch
        of a histogram child; the series stores only its delta."""
        self._points.append((t, value))
        self.samples_taken += 1
        if self._sketches is not None:
            delta = None
            if cum_sketch is not None and cum_sketch.count:
                if self._last_cum_sketch is None:
                    delta = cum_sketch.copy()
                    self._last_cum_sketch = cum_sketch.copy()
                elif cum_sketch.count > self._last_cum_sketch.count:
                    delta = cum_sketch.delta_since(self._last_cum_sketch)
                    self._last_cum_sketch = cum_sketch.copy()
                # Unchanged count: keep the previous cumulative copy —
                # idle histograms cost nothing per scrape.
            self._sketches.append(delta)
        if len(self._points) > self.capacity:
            evicted = self._points.popleft()
            if self._sketches is not None:
                self._sketches.popleft()
            self._fold(evicted)

    def _fold(self, point: Point) -> None:
        self._pending.append(point)
        if len(self._pending) < self.rollup_factor:
            return
        batch, self._pending = self._pending, []
        values = [v for _, v in batch]
        self._rollups.append(Rollup(
            batch[0][0], batch[-1][0], len(batch), sum(values),
            min(values), max(values),
        ))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def points(self, t0: Optional[float] = None,
               t1: Optional[float] = None) -> List[Point]:
        """Raw samples within [t0, t1], in time order."""
        if t0 is None:
            return [
                (t, v) for t, v in self._points
                if t1 is None or t <= t1
            ]
        # Points are time-ordered: walk in from the right and stop at
        # t0, so trailing-window queries cost O(window) not O(history).
        out: List[Point] = []
        for t, v in reversed(self._points):
            if t < t0:
                break
            if t1 is None or t <= t1:
                out.append((t, v))
        out.reverse()
        return out

    def values(self, t0: Optional[float] = None,
               t1: Optional[float] = None) -> List[float]:
        return [v for _, v in self.points(t0, t1)]

    @property
    def last(self) -> Optional[Point]:
        return self._points[-1] if self._points else None

    @property
    def first(self) -> Optional[Point]:
        return self._points[0] if self._points else None

    def __len__(self) -> int:
        return len(self._points)

    def at(self, t: float) -> Optional[float]:
        """The most recent sampled value at or before ``t``."""
        for pt, pv in reversed(self._points):
            if pt <= t:
                return pv
        return None

    def delta(self, t0: float, t1: float) -> float:
        """value(t1) - value(t0) over the raw ring (counter series)."""
        a = self.at(t0)
        b = self.at(t1)
        if a is None:
            first = self.first
            a = first[1] if first is not None and first[0] <= t1 else 0.0
        if b is None:
            return 0.0
        return b - a

    def rate(self, window: float, at: Optional[float] = None) -> float:
        """Average per-second increase over the trailing ``window``."""
        end = at if at is not None else (
            self._points[-1][0] if self._points else 0.0
        )
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        return self.delta(end - window, end) / window

    def agg(self, fn: str, t0: Optional[float] = None,
            t1: Optional[float] = None) -> Optional[float]:
        """min/max/mean/sum/last over raw samples in the window."""
        values = self.values(t0, t1)
        if not values:
            return None
        if fn == "min":
            return min(values)
        if fn == "max":
            return max(values)
        if fn == "mean":
            return sum(values) / len(values)
        if fn == "sum":
            return sum(values)
        if fn == "last":
            return values[-1]
        raise ValueError(f"unknown aggregation {fn!r}")

    def quantile(self, q: float, t0: Optional[float] = None,
                 t1: Optional[float] = None) -> Optional[float]:
        """Sketch-backed quantile of the observations made in [t0, t1].

        Histogram series only: merges the per-scrape delta sketches
        whose scrape time falls in the window.
        """
        if self._sketches is None:
            raise ValueError(
                f"series {self.name!r} is a {self.kind}; quantiles "
                f"need a histogram series"
            )
        merged: Optional[QuantileSketch] = None
        for (t, _), sketch in zip(self._points, self._sketches):
            if sketch is None:
                continue
            if (t0 is not None and t < t0) or (t1 is not None and t > t1):
                continue
            if merged is None:
                merged = sketch.copy()
            else:
                merged.merge(sketch)
        return merged.quantile(q) if merged is not None else None

    def rollups(self) -> List[Rollup]:
        return list(self._rollups)

    # ------------------------------------------------------------------
    # Serialisation (run artifacts)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        doc = {
            "kind": self.kind,
            "samples": self.samples_taken,
            "points": [[t, v] for t, v in self._points],
            "rollups": [r.to_list() for r in self._rollups],
        }
        if self._sketches is not None:
            doc["sketch"] = (
                self._last_cum_sketch.to_dict()
                if self._last_cum_sketch is not None else None
            )
        return doc

    @classmethod
    def from_dict(cls, name: str, data: dict) -> "Series":
        out = cls(name, data["kind"])
        for t, v in data["points"]:
            out._points.append((t, v))
        out.samples_taken = data.get("samples", len(out._points))
        for entry in data.get("rollups", ()):
            out._rollups.append(Rollup(*entry))
        sketch = data.get("sketch")
        if out._sketches is not None and sketch is not None:
            cum = QuantileSketch.from_dict(sketch)
            out._last_cum_sketch = cum
            # A loaded series keeps the whole-run sketch as one window.
            out._sketches.extend(
                [None] * (len(out._points) - 1) + [cum.copy()]
                if out._points else []
            )
        return out

    def __repr__(self) -> str:
        return (f"<Series {self.name} {self.kind} {len(self._points)} "
                f"pts, {len(self._rollups)} rollups>")
