"""Typed metrics registry over the simulator's raw counters.

The fabric scatters its statistics across dozens of anonymous
:class:`~repro.sim.monitor.Counter` bundles — every port counts
``rx_crc_dropped``/``tx_replays``, every management entity counts
``duplicate_requests``, the FM counts ``pi5_duplicates`` and
``suspect_subtrees``.  Experiment code that wants "total CRC drops"
has so far looped over devices by hand (see the pre-registry
:mod:`repro.experiments.reliability`).

:class:`MetricsRegistry` gives those quantities one namespace and a
type each:

* :class:`CounterMetric` — monotonically increasing totals;
* :class:`GaugeMetric` — point-in-time scalars;
* :class:`HistogramMetric` — bucketed distributions backed by a
  :class:`~repro.sim.monitor.Tally` (streaming mean/stdev/min/max).

Raw :class:`~repro.sim.monitor.Counter` bundles are snapshotted, not
mirrored: ``scrape_counter`` adds one bundle's current values,
``scrape_counters`` the key-wise sum of many (what ``scrape_setup``
does for a fabric's ports and entities).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Sequence, Tuple

from ..sim.monitor import Counter, Tally

#: Default histogram buckets: log-spaced seconds covering everything
#: from a single link crossing to a horizon-scale soak.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


class CounterMetric:
    """A monotonically increasing total."""

    kind = "counter"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment")
        self.value += amount

    def asdict(self) -> dict:
        return {"type": self.kind, "value": self.value}


class GaugeMetric:
    """A point-in-time scalar."""

    kind = "gauge"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def asdict(self) -> dict:
        return {"type": self.kind, "value": self.value}


class HistogramMetric:
    """A bucketed distribution with streaming summary statistics."""

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "counts", "tally")

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError(f"histogram {self.name!r}: no buckets")
        # counts[i] observes x <= buckets[i]; the final slot is +Inf.
        self.counts = [0] * (len(self.buckets) + 1)
        self.tally = Tally()

    def observe(self, x: float) -> None:
        self.counts[bisect_left(self.buckets, x)] += 1
        self.tally.observe(x)

    def asdict(self) -> dict:
        doc = {
            "type": self.kind,
            "n": self.tally.n,
            "buckets": {
                f"le_{bound:g}": count
                for bound, count in zip(self.buckets, self.counts)
            },
            "overflow": self.counts[-1],
        }
        if self.tally.n:
            doc.update(
                mean=self.tally.mean,
                stdev=self.tally.stdev,
                min=self.tally.min,
                max=self.tally.max,
            )
        return doc


class MetricsRegistry:
    """Get-or-create registry of named, typed metrics."""

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, cls, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, requested {cls.__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> CounterMetric:
        return self._get(name, CounterMetric, help=help)

    def gauge(self, name: str, help: str = "") -> GaugeMetric:
        return self._get(name, GaugeMetric, help=help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  ) -> HistogramMetric:
        return self._get(name, HistogramMetric, help=help, buckets=buckets)

    # -- raw-counter integration --------------------------------------------
    def scrape_counter(self, counter: Counter, prefix: str) -> None:
        """Add a raw counter bundle's current values (one-shot)."""
        for key, value in counter.asdict().items():
            self.counter(f"{prefix}.{key}").inc(value)

    def scrape_counters(self, counters: Iterable[Counter],
                        prefix: str) -> None:
        """``scrape_counter`` of every bundle, summed key by key first:
        one metric lookup per key, not one per bundle and key."""
        totals: Dict[str, int] = {}
        for counter in counters:
            for key, value in counter.asdict().items():
                totals[key] = totals.get(key, 0) + value
        for key, total in totals.items():
            self.counter(f"{prefix}.{key}").inc(total)

    # -- collection ----------------------------------------------------------
    def value(self, name: str):
        """Current value of a registered metric (0 for an absent
        counter-style lookup, so sums over sparse scrapes stay easy)."""
        metric = self._metrics.get(name)
        if metric is None:
            return 0
        if isinstance(metric, (CounterMetric, GaugeMetric)):
            return metric.value
        return metric.asdict()

    def collect(self) -> Dict[str, dict]:
        """All metrics as a sorted, JSON-ready mapping."""
        return {
            name: self._metrics[name].asdict()
            for name in sorted(self._metrics)
        }

    # -- whole-simulation scrape ---------------------------------------------
    def scrape_setup(self, setup) -> "MetricsRegistry":
        """Snapshot a finished simulation's scattered counters.

        Aggregates every used port's channel counters under ``port.*``,
        every management entity's under ``entity.*``, and the FM's own
        under ``fm.*``; adds database-size and discovery-time summary
        metrics.  Returns ``self`` for chaining.
        """
        self.scrape_counter(setup.fm.counters, "fm")
        # Most ports of a large fabric never count anything; reading
        # must not materialize their counters.
        self.scrape_counters(
            (stats for device in setup.fabric.devices.values()
             for port in device.ports
             if (stats := port.stats_if_used) is not None), "port")
        self.scrape_counters(
            (entity.stats for entity in setup.entities.values()), "entity")
        self.gauge(
            "fm.devices_known",
            help="devices in the FM topology database",
        ).set(len(setup.fm.database))
        self.gauge(
            "fm.discoveries",
            help="completed discoveries (initial + assimilations)",
        ).set(len(setup.fm.history))
        times = self.histogram(
            "fm.discovery_time",
            help="per-discovery wall time (sim seconds)",
        )
        for stats in setup.fm.history:
            if stats.started_at is not None and stats.finished_at is not None:
                times.observe(stats.discovery_time)
        return self

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<MetricsRegistry {len(self._metrics)} metrics>"
