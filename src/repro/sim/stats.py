"""Statistics primitives used by every component of the simulator.

Two building blocks, which is all the paper's figures read:

* :class:`Counter` — a named integer counter (MPKI, off-chip accesses,
  runtime read counter deltas);
* :class:`LatencySampler` — a sample count and running total (L2 hit
  latency and search delay read sampler means).

:class:`Stats` is a flat namespace of those, created on demand, so
controllers can do ``stats.counter("l2_miss").inc()`` without central
registration. :meth:`Stats.to_dict` renders everything for reports, and
:meth:`Stats.to_wire` / :meth:`Stats.from_wire` are its one exact JSON
form (counters, ``[count, total]`` per sampler, the warmup mark) — no
other module reads its private layout.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple


class Counter:
    """A named monotonic (usually) integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class LatencySampler:
    """Running sample count and total; ``total`` is a float, so it
    round-trips through JSON repr-exactly and every mean with it."""

    __slots__ = ("name", "count", "total")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return f"LatencySampler({self.name}, n={self.count}, mean={self.mean:.2f})"


class Stats:
    """On-demand flat registry of counters and samplers."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._samplers: Dict[str, LatencySampler] = {}
        self._mark_counters: Optional[Dict[str, int]] = None
        self._mark_samplers: Optional[Dict[str, Tuple[int, float]]] = None

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def sampler(self, name: str) -> LatencySampler:
        if name not in self._samplers:
            self._samplers[name] = LatencySampler(name)
        return self._samplers[name]

    # warmup mark ------------------------------------------------------------
    def mark(self) -> None:
        """Snapshot current counters/samplers as the end of warmup.

        After a mark, :meth:`delta` and :meth:`delta_mean` report only
        the measured (post-warmup) region. Re-marking overwrites.
        """
        self._mark_counters = {n: c.value for n, c in self._counters.items()}
        self._mark_samplers = {n: (s.count, s.total)
                               for n, s in self._samplers.items()}

    @property
    def marked(self) -> bool:
        return self._mark_counters is not None

    def delta(self, name: str) -> int:
        """Counter growth since :meth:`mark` (raw value if unmarked)."""
        v = self.value(name)
        if self._mark_counters is None:
            return v
        return v - self._mark_counters.get(name, 0)

    def delta_mean(self, name: str) -> float:
        """Mean of samples added since :meth:`mark`.

        Unmarked (or for a sampler created after the mark, whose samples
        are all post-mark) this is the overall mean. When a mark is set
        but NO samples arrived after it, the measured region is empty
        and the result is 0.0 — falling back to the overall mean here
        would silently report warmup-contaminated data as a
        measured-region metric.
        """
        s = self._samplers.get(name)
        if s is None:
            return 0.0
        if self._mark_samplers is None or name not in self._mark_samplers:
            return s.mean
        count0, total0 = self._mark_samplers[name]
        n = s.count - count0
        if n <= 0:
            return 0.0
        return (s.total - total0) / n

    # convenience accessors -------------------------------------------------
    def value(self, name: str) -> int:
        """Counter value, 0 if the counter was never touched."""
        c = self._counters.get(name)
        return c.value if c else 0

    def mean(self, name: str) -> float:
        """Sampler mean, 0.0 if no samples."""
        s = self._samplers.get(name)
        return s.mean if s else 0.0

    def sample_count(self, name: str) -> int:
        s = self._samplers.get(name)
        return s.count if s else 0

    def merge(self, other: "Stats") -> None:
        """Accumulate another Stats object into this one (counters and
        sampler counts/totals; the warmup mark is not merged)."""
        for name, c in other._counters.items():
            self.counter(name).inc(c.value)
        for name, s in other._samplers.items():
            mine = self.sampler(name)
            mine.count += s.count
            mine.total += s.total

    def to_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, c in sorted(self._counters.items()):
            out[name] = c.value
        for name, s in sorted(self._samplers.items()):
            out[f"{name}.mean"] = s.mean
            out[f"{name}.count"] = s.count
        return out

    # wire form --------------------------------------------------------------
    def to_wire(self) -> Dict[str, Any]:
        """The JSON-exact encoding :meth:`from_wire` rebuilds: every
        counter, ``[count, total]`` per sampler and, once marked, the
        warmup mark in the same two shapes."""
        out: Dict[str, Any] = {
            "counters": {n: c.value for n, c in self._counters.items()},
            "samplers": {n: [s.count, s.total]
                         for n, s in self._samplers.items()},
        }
        if self._mark_counters is not None:
            out["mark_counters"] = dict(self._mark_counters)
            out["mark_samplers"] = {n: list(v) for n, v
                                    in self._mark_samplers.items()}
        return out

    @classmethod
    def from_wire(cls, wire: Dict[str, Any]) -> "Stats":
        """Rebuild a :class:`Stats` from :meth:`to_wire` output (a
        sampler or mark entry may be a list or a tuple)."""
        stats = cls()
        for name, value in wire["counters"].items():
            stats.counter(name).value = value
        for name, (count, total) in wire["samplers"].items():
            s = stats.sampler(name)
            s.count, s.total = count, total
        if "mark_counters" in wire:
            stats._mark_counters = dict(wire["mark_counters"])
            stats._mark_samplers = {n: (c, t) for n, (c, t)
                                    in wire["mark_samplers"].items()}
        return stats
