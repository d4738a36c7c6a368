"""One metrics registry over the simulator's raw counters.

The fabric scatters its statistics across dozens of anonymous
:class:`~repro.sim.monitor.Counter` bundles and integer slots — every
port counts ``rx_crc_dropped``/``tx_replays``, every management entity
counts ``duplicate_requests``, the FM counts ``pi5_duplicates`` and
``suspect_subtrees``.  :class:`MetricsRegistry` gives those quantities
one namespace, as three mappings:

* ``counters`` — totals, in the same :class:`Counter` type the model
  counts with; they add up across scrapes;
* ``gauges`` — point-in-time scalars, latest value wins;
* ``histograms`` — bucketed distributions with streaming
  mean/stdev/min/max (:class:`Histogram`).

Raw bundles are snapshotted, not mirrored: ``scrape_counters`` adds the
key-wise sum of the bundles it is given (what ``scrape_setup`` does for
a fabric's ports and entities).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from ..sim.monitor import Counter

#: Default histogram buckets: log-spaced seconds covering everything
#: from a single link crossing to a horizon-scale soak.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


class Histogram:
    """A bucketed distribution with streaming summary statistics
    (Welford's update: no observation is stored)."""

    __slots__ = ("buckets", "counts", "n", "mean", "_m2", "min", "max")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket")
        # counts[i] observes x <= buckets[i]; the final slot is +Inf.
        self.counts = [0] * (len(self.buckets) + 1)
        self.n = 0
        self.mean = self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, x: float) -> None:
        self.counts[bisect_left(self.buckets, x)] += 1
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def stdev(self) -> float:
        """Sample standard deviation (n-1 denominator; 0 below two
        observations)."""
        return math.sqrt(self._m2 / (self.n - 1)) if self.n > 1 else 0.0

    def asdict(self) -> dict:
        doc = {
            "type": "histogram",
            "n": self.n,
            "buckets": {
                f"le_{bound:g}": count
                for bound, count in zip(self.buckets, self.counts)
            },
            "overflow": self.counts[-1],
        }
        if self.n:
            doc.update(mean=self.mean, stdev=self.stdev,
                       min=self.min, max=self.max)
        return doc


class MetricsRegistry:
    """Named metrics of three kinds, rendered as one document.

    Write ``registry.counters.incr(name, amount)``,
    ``registry.gauges[name] = value`` and
    ``registry.histogram(name).observe(x)``.
    """

    def __init__(self):
        self.counters = Counter()
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create the histogram ``name``."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(buckets)
        return histogram

    # -- raw-counter integration --------------------------------------------
    def scrape_counters(self, counters: Iterable[Mapping[str, int]],
                        prefix: str) -> None:
        """Add the current values of raw counter bundles (one-shot),
        summed key by key first: one name built per key, not one per
        bundle and key."""
        totals = Counter()
        for counter in counters:
            for key, value in counter.items():
                totals[key] += value
        for key, total in totals.items():
            self.counters.incr(f"{prefix}.{key}", total)

    # -- collection ----------------------------------------------------------
    def value(self, name: str):
        """Current value of a metric (a histogram's is its document;
        an absent name reads 0, so sums over sparse scrapes stay
        easy)."""
        if name in self.histograms:
            return self.histograms[name].asdict()
        return self.gauges.get(name, self.counters[name])

    def collect(self) -> Dict[str, dict]:
        """All metrics as a sorted, JSON-ready mapping (``TypeError``
        if one name was written as two kinds: a document has room for
        one of them)."""
        docs = {name: {"type": "counter", "value": value}
                for name, value in self.counters.items()}
        docs.update((name, {"type": "gauge", "value": value})
                    for name, value in self.gauges.items())
        docs.update((name, histogram.asdict())
                    for name, histogram in self.histograms.items())
        if len(docs) != len(self):
            raise TypeError("a metric name is in use under two kinds")
        return dict(sorted(docs.items()))

    # -- whole-simulation scrape ---------------------------------------------
    def scrape_setup(self, setup) -> "MetricsRegistry":
        """Snapshot a finished simulation's scattered counters.

        Aggregates every port's channel counters under ``port.*``,
        every management entity's under ``entity.*``, and the FM's own
        under ``fm.*``; adds the database size (``fm.devices_known``),
        the completed discoveries, initial + assimilations
        (``fm.discoveries``) and their durations in sim seconds
        (``fm.discovery_time``).  Returns ``self`` for chaining.
        """
        self.scrape_counters((setup.fm.counters,), "fm")
        self.scrape_counters((setup.fabric.port_stats(),), "port")
        self.scrape_counters(
            (entity.stats for entity in setup.entities.values()), "entity")
        self.gauges["fm.devices_known"] = len(setup.fm.database)
        self.gauges["fm.discoveries"] = len(setup.fm.history)
        times = self.histogram("fm.discovery_time")
        for stats in setup.fm.history:
            if stats.started_at is not None and stats.finished_at is not None:
                times.observe(stats.discovery_time)
        return self

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)
