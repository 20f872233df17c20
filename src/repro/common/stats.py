"""Small statistics utilities used by validation and analysis code.

The paper reports accuracy as ``1 - |estimate - measured| / measured``,
page-fault-latency agreement as cosine similarity, and summarises results
with geometric means; those exact definitions live here so every benchmark
computes them the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence


def cosine_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    """Cosine similarity between two equal-length vectors.

    Used by the paper (Fig. 9) to compare page-fault latency time-series
    between Virtuoso and the real system, because it tolerates fluctuations
    better than mean absolute error.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if not a:
        return 1.0
    dot = sum(x * y for x, y in zip(a, b))
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(y * y for y in b))
    if norm_a == 0.0 and norm_b == 0.0:
        return 1.0
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def accuracy(estimate: float, measured: float) -> float:
    """Estimation accuracy as used in the paper's validation figures.

    ``accuracy = 1 - |estimate - measured| / measured`` clamped to ``[0, 1]``.
    """
    if measured == 0.0:
        return 1.0 if estimate == 0.0 else 0.0
    error = abs(estimate - measured) / abs(measured)
    return max(0.0, 1.0 - error)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; zero values are floored to a tiny epsilon."""
    values = list(values)
    if not values:
        return 0.0
    eps = 1e-12
    log_sum = sum(math.log(max(v, eps)) for v in values)
    return math.exp(log_sum / len(values))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of ``values`` at ``fraction`` in [0, 1]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


class Counter:
    """A named bundle of integer event counters.

    Every hardware and OS model owns one of these; the analysis layer merges
    them into figure data.  Unknown counters read as zero, so models can add
    counters lazily.

    Hot-loop counters can be incremented through *cells* obtained from
    :meth:`hot`: a cell is a one-element list whose ``cell[0] += 1`` costs a
    list index instead of a method call and dict hash.  Pending cell values
    are folded into the named counts on every read, so :meth:`get` /
    :meth:`as_dict` always observe exact totals regardless of which path
    performed the increments.  A cell that holds 0 folds nothing: its key
    appears only once it has counted something, exactly like a key that
    :meth:`add` only ever raises by at least 1.

    A total that would be bumped together with one of several other
    counters on every event (a cache level's ``accesses_<type>`` is its
    ``hits_<type>`` plus its ``misses_<type>``) is not counted at all: each
    part's cell names it in ``part_of``, and the fold writes the total as
    the sum of its parts, present whenever one of them is.
    """

    __slots__ = ("_counts", "_hot", "_zero_with", "_totals")

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self._hot: Dict[str, List[int]] = {}
        #: name -> key whose presence makes ``name`` present too (see :meth:`hot`).
        self._zero_with: Dict[str, str] = {}
        #: total -> the counters it is the sum of (see :meth:`hot`).
        self._totals: Dict[str, List[str]] = {}

    def hot(self, name: str, zero_with: Optional[str] = None,
            part_of: Sequence[str] = ()) -> List[int]:
        """Return the mutable accumulator cell for counter ``name``.

        The same cell is returned for repeated calls, so models fetch it once
        at construction time and increment ``cell[0]`` in their hot loops.

        ``zero_with`` names a counter that is counted every time ``name``
        is, possibly by 0 (``add(name, 0)`` creates the key): ``name`` then
        reads as present, with 0, whenever ``zero_with`` is present.

        ``part_of`` names totals that ``name`` is one part of: each reads
        as the sum of its parts, so no model counts it.
        """
        cell = self._hot.get(name)
        if cell is None:
            cell = self._hot[name] = [0]
        if zero_with is not None:
            self._zero_with[name] = zero_with
        for total in part_of:
            parts = self._totals.setdefault(total, [])
            if name not in parts:
                parts.append(name)
        return cell

    def _fold(self) -> None:
        counts = self._counts
        for name, cell in self._hot.items():
            pending = cell[0]
            if pending:
                counts[name] = counts.get(name, 0) + pending
                cell[0] = 0
        for name, witness in self._zero_with.items():
            if witness in counts and name not in counts:
                counts[name] = 0
        for total, parts in self._totals.items():
            present = [counts[part] for part in parts if part in counts]
            if present:
                counts[total] = sum(present)

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        counts = self._counts
        counts[name] = counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (zero if never incremented)."""
        if self._hot:
            self._fold()
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of all counters."""
        if self._hot:
            self._fold()
        return dict(self._counts)


@dataclass
class RunningStats:
    """Streaming mean/variance/max without storing samples."""

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    maximum: float = -math.inf
    total: float = 0.0

    def add(self, value: float) -> None:
        """Fold one sample into the running statistics (Welford update)."""
        self.count += 1
        self.total += value
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        # On a tie the value already held stays (an int and an equal float
        # print differently in reports).
        if value > self.maximum:
            self.maximum = value

    @property
    def variance(self) -> float:
        """Population variance of the samples seen so far."""
        if self.count == 0:
            return 0.0
        return self._m2 / self.count

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)


@dataclass
class LatencyDistribution:
    """A recorded set of latency samples with the summaries the paper plots.

    The page-fault latency figures (Figs. 2, 9, 16) need medians, quartiles,
    tails and the share of total latency contributed by outliers, so samples
    are retained (bounded by ``max_samples`` with reservoir-free truncation;
    simulations produce at most a few hundred thousand faults).
    """

    max_samples: int = 1_000_000
    samples: List[float] = field(default_factory=list)
    stats: RunningStats = field(default_factory=RunningStats)

    def add(self, value: float) -> None:
        """Record one latency sample."""
        self.stats.add(value)
        if len(self.samples) < self.max_samples:
            self.samples.append(value)

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return self.stats.count

    @property
    def mean(self) -> float:
        """Mean latency."""
        return self.stats.mean

    @property
    def total(self) -> float:
        """Sum of all latencies (the 'total PF latency' metric of Fig. 15/16)."""
        return self.stats.total

    def percentile(self, fraction: float) -> float:
        """Percentile over the retained samples."""
        return percentile(self.samples, fraction)

    @property
    def median(self) -> float:
        """Median latency."""
        return self.percentile(0.5)

    def tail_contribution(self, threshold: float) -> float:
        """Fraction of total latency contributed by samples above ``threshold``.

        This is the 'contribution of outliers to total minor page fault
        latency' metric of Fig. 2.
        """
        if not self.samples or self.stats.total == 0.0:
            return 0.0
        outlier_total = sum(s for s in self.samples if s > threshold)
        return outlier_total / self.stats.total

    def summary(self) -> Dict[str, float]:
        """Digest used by the benchmark reports."""
        if not self.samples:
            return {"count": 0, "mean": 0.0, "median": 0.0, "p25": 0.0, "p75": 0.0,
                    "p99": 0.0, "max": 0.0, "total": 0.0}
        return {
            "count": float(self.count),
            "mean": self.mean,
            "median": self.median,
            "p25": self.percentile(0.25),
            "p75": self.percentile(0.75),
            "p99": self.percentile(0.99),
            "max": self.stats.maximum,
            "total": self.total,
        }


def mpki(misses: int, instructions: int) -> float:
    """Misses per kilo-instruction; zero when no instructions executed."""
    if instructions <= 0:
        return 0.0
    return misses * 1000.0 / instructions


def safe_ratio(numerator: float, denominator: float, default: float = 0.0) -> float:
    """``numerator / denominator`` with an explicit default for zero denominators."""
    if denominator == 0:
        return default
    return numerator / denominator
