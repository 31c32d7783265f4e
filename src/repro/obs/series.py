"""Per-series ring buffers with rollup storage and windowed queries.

One :class:`Series` holds the sampled history of a single metric child
(one ``family{labels}`` pair) as two columns: the scrape times, a list
every series of one :class:`~repro.obs.scraper.MetricsScraper` shares,
and its own values, a flat ``array('d')`` — value ``i`` was sampled at
``times[start + i]``.  A series keeps at most ``capacity`` values; the
values evicted from the front are folded into *rollups* — coarse
``(t_start, t_end, count, sum, min, max)`` buckets, each covering
:data:`ROLLUP_FACTOR` raw samples — so long runs keep a full-horizon
(if lower-resolution) history in bounded memory instead of silently
forgetting the past.  The scraper only appends; a series folds its
overflow when it is next read (:meth:`Series._settle`), which yields
the same rings and rollups as folding on every scrape.

Counters are stored cumulatively exactly as scraped; :meth:`rate` and
:meth:`delta` difference them on demand, which is robust to missed
windows.  Histogram series carry per-scrape *delta sketches*
(:class:`~repro.telemetry.sketch.QuantileSketch`) alongside the count
values, so :meth:`quantile` can answer "p95 within this window" by
merging only the window's sketches.

:class:`PointText` renders a series' points as the text
``json.dumps`` gives them, straight from the columns, for
:func:`repro.digest.canonical_digest`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.digest import Rendered, canonical_text
from repro.telemetry.sketch import QuantileSketch

__all__ = ["Point", "PointText", "Rollup", "Series"]

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
    """Bounded sample history for one metric child.

    ``times`` is the time column the series shares with the other
    series of its scraper, which appends each scrape's time to it; the
    series' first value is sampled at the next time appended.  Without
    it the series owns its column and takes samples through
    :meth:`sample`.
    """

    __slots__ = ("name", "kind", "capacity", "rollup_factor", "_times",
                 "_start", "_values", "_rollups", "_pending", "_sketches",
                 "_last_cum_sketch", "_dropped")

    def __init__(self, name: str, kind: str,
                 times: Optional[list] = None) -> None:
        self.name = name
        self.kind = kind  # counter | gauge | histogram
        self.capacity = CAPACITY
        self.rollup_factor = ROLLUP_FACTOR
        self._times: list = [] if times is None else times
        self._start = len(self._times)
        self._values = array("d")
        self._rollups: Deque[Rollup] = deque(maxlen=self.capacity)
        self._pending: List[Point] = []  # evicted, awaiting rollup fold
        #: Per-scrape delta sketches (histogram series only), aligned
        #: with ``_values``; ``None`` for scrapes with no observations.
        self._sketches: Optional[List[Optional[QuantileSketch]]] = (
            [] if kind == "histogram" else None
        )
        self._last_cum_sketch: Optional[QuantileSketch] = None
        self._dropped = 0  # samples folded out of the ring

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def sample(self, t: float, value: float,
               cum_sketch: Optional[QuantileSketch] = None) -> None:
        """Record one sample at ``t`` on a series that owns its time
        column.  ``cum_sketch`` is the *cumulative* sketch of a
        histogram child; the series stores only its delta."""
        self._times.append(t)
        if self._sketches is None:
            self._values.append(value)
        else:
            self.take_sketch(value, cum_sketch)
        self._settle()
        if self._start > self.capacity:
            del self._times[:self._start]
            self._start = 0

    def take_sketch(self, count: float,
                    cum_sketch: Optional[QuantileSketch]) -> None:
        """Append a histogram child's ``count`` and the delta of its
        cumulative sketch since the last scrape that saw it grow."""
        self._values.append(count)
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

    def _settle(self) -> None:
        """Fold the values beyond ``capacity`` into rollups, oldest
        first.  Every reader calls it, so the ring is exact whenever it
        is looked at however many scrapes appended since."""
        excess = len(self._values) - self.capacity
        if excess <= 0:
            return
        times, start, values = self._times, self._start, self._values
        for i in range(excess):
            self._pending.append((times[start + i], values[i]))
            if len(self._pending) < self.rollup_factor:
                continue
            batch, self._pending = self._pending, []
            folded = [v for _, v in batch]
            self._rollups.append(Rollup(
                batch[0][0], batch[-1][0], len(batch), sum(folded),
                min(folded), max(folded),
            ))
        del values[:excess]
        if self._sketches is not None:
            del self._sketches[:excess]
        self._start += excess
        self._dropped += excess

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def samples_taken(self) -> int:
        return self._dropped + len(self._values)

    def _span(self, t0: Optional[float],
              t1: Optional[float]) -> Tuple[int, int]:
        """Value indices ``[lo, hi)`` of the samples within [t0, t1]
        (the time column is in scrape order)."""
        self._settle()
        start = self._start
        end = start + len(self._values)
        lo = start if t0 is None else bisect_left(self._times, t0,
                                                  start, end)
        hi = end if t1 is None else bisect_right(self._times, t1,
                                                 start, end)
        return lo - start, max(lo, hi) - start

    def points(self, t0: Optional[float] = None,
               t1: Optional[float] = None) -> List[Point]:
        """Raw samples within [t0, t1], in time order."""
        lo, hi = self._span(t0, t1)
        start = self._start
        return list(zip(self._times[start + lo:start + hi],
                        self._values[lo:hi]))

    def values(self, t0: Optional[float] = None,
               t1: Optional[float] = None) -> List[float]:
        lo, hi = self._span(t0, t1)
        return self._values[lo:hi].tolist()

    @property
    def last(self) -> Optional[Point]:
        self._settle()
        if not self._values:
            return None
        return (self._times[self._start + len(self._values) - 1],
                self._values[-1])

    @property
    def first(self) -> Optional[Point]:
        self._settle()
        if not self._values:
            return None
        return (self._times[self._start], self._values[0])

    def __len__(self) -> int:
        self._settle()
        return len(self._values)

    def at(self, t: float) -> Optional[float]:
        """The most recent sampled value at or before ``t``."""
        _, hi = self._span(None, t)
        return self._values[hi - 1] if hi else None

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
        if at is None:
            last = self.last
            at = last[0] if last is not None else 0.0
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        return self.delta(at - window, at) / window

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
        lo, hi = self._span(t0, t1)
        merged: Optional[QuantileSketch] = None
        for sketch in self._sketches[lo:hi]:
            if sketch is None:
                continue
            if merged is None:
                merged = sketch.copy()
            else:
                merged.merge(sketch)
        return merged.quantile(q) if merged is not None else None

    def rollups(self) -> List[Rollup]:
        self._settle()
        return list(self._rollups)

    # ------------------------------------------------------------------
    # Serialisation (run artifacts)
    # ------------------------------------------------------------------
    def to_dict(self, text: Optional["PointText"] = None) -> dict:
        """The series' document; with ``text``, the document's
        :func:`~repro.digest.canonical_text`, its points rendered by
        ``text`` from the columns."""
        self._settle()
        tail = {
            "samples": self.samples_taken,
            "rollups": [r.to_list() for r in self._rollups],
        }
        if self._sketches is not None:
            tail["sketch"] = (
                self._last_cum_sketch.to_dict()
                if self._last_cum_sketch is not None else None
            )
        if text is not None:
            # Key-sorted, "kind" comes before "points" and the rest after.
            return Rendered(
                '{"kind": ' + canonical_text(self.kind) + ', "points": '
                + text.render(self) + ", " + canonical_text(tail)[1:])
        return dict(kind=self.kind, points=[
            [t, v] for t, v in zip(self._times[self._start:], self._values)
        ], **tail)

    @classmethod
    def from_dict(cls, name: str, data: dict) -> "Series":
        points = data["points"]
        out = cls(name, data["kind"])
        out._times = [t for t, _ in points]
        out._values = array("d", [v for _, v in points])
        out._dropped = data.get("samples", len(points)) - len(points)
        for entry in data.get("rollups", ()):
            out._rollups.append(Rollup(*entry))
        sketch = data.get("sketch")
        if out._sketches is not None:
            out._sketches = [None] * len(points)
            if sketch is not None:
                cum = QuantileSketch.from_dict(sketch)
                out._last_cum_sketch = cum
                # A loaded series keeps the whole-run sketch as one
                # window.
                if points:
                    out._sketches[-1] = cum.copy()
        return out

    def __repr__(self) -> str:
        return (f"<Series {self.name} {self.kind} {len(self)} "
                f"pts, {len(self._rollups)} rollups>")


class PointText:
    """Renders series points as the text ``json.dumps`` gives them, for
    one digest: each time of a time column and each distinct value
    (told apart by its bits, so ``-0.0`` keeps its sign) goes through
    ``json.dumps`` once, in one call per column or per series.

    ``reprs`` counts the numbers rendered that way and ``points`` the
    points rendered: ``json.dumps`` over the document renders two
    numbers per point.
    """

    def __init__(self) -> None:
        self._columns: Dict[int, Tuple[list, List[str]]] = {}
        self._texts: Dict[int, str] = {}
        self.reprs = 0
        self.points = 0

    def render(self, series: Series) -> str:
        values, start = series._values, series._start
        if not values:
            return "[]"
        times = series._times
        column = self._columns.get(id(times))
        if column is None:
            # Keep the column itself, so its id cannot be reused.
            column = self._columns[id(times)] = (times, _numbers(times))
            self.reprs += len(times)
        texts = self._texts
        keys = array("Q", values.tobytes())
        fresh = array("Q", set(keys).difference(texts))
        if fresh:
            texts.update(zip(fresh, _numbers(array("d", fresh.tobytes()))))
            self.reprs += len(fresh)
        self.points += len(values)
        stamps = column[1][start:start + len(values)]
        return "[[" + "], [".join(map(
            ", ".join, zip(stamps, map(texts.__getitem__, keys)))) + "]]"


def _numbers(numbers) -> List[str]:
    """Each number's JSON text, from one encoder call."""
    return canonical_text(list(numbers))[1:-1].split(", ") if numbers else []
