"""Tests for the typed metrics registry."""

import pytest

from repro.obs import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
)
from repro.sim.monitor import Counter


class TestCounterMetric:
    def test_increments_accumulate(self):
        metric = CounterMetric("requests")
        metric.inc()
        metric.inc(4)
        assert metric.value == 5
        assert metric.asdict() == {"type": "counter", "value": 5}

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            CounterMetric("requests").inc(-1)


class TestGaugeMetric:
    def test_set_overwrites(self):
        metric = GaugeMetric("depth")
        metric.set(3.0)
        metric.set(1.5)
        assert metric.value == 1.5
        assert metric.asdict() == {"type": "gauge", "value": 1.5}


class TestHistogramMetric:
    def test_buckets_are_cumulative_style_le(self):
        metric = HistogramMetric("t", buckets=(1.0, 10.0))
        for x in (0.5, 1.0, 5.0, 100.0):
            metric.observe(x)
        doc = metric.asdict()
        assert doc["n"] == 4
        # counts[i] observes x <= buckets[i]; overflow catches the rest.
        assert doc["buckets"] == {"le_1": 2, "le_10": 1}
        assert doc["overflow"] == 1
        assert doc["min"] == 0.5
        assert doc["max"] == 100.0

    def test_empty_bucket_list_rejected(self):
        with pytest.raises(ValueError):
            HistogramMetric("t", buckets=())


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert len(registry) == 1

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_value_defaults_to_zero_for_absent_metric(self):
        assert MetricsRegistry().value("nope") == 0

    def test_collect_is_sorted_and_json_ready(self):
        import json

        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.gauge("a").set(1.0)
        collected = registry.collect()
        assert list(collected) == ["a", "b"]
        json.dumps(collected)  # must not raise

    def test_scrape_counter_snapshots_once(self):
        raw = Counter()
        raw.incr("tx", 3)
        registry = MetricsRegistry()
        registry.scrape_counter(raw, "port")
        raw.incr("tx", 10)  # after the scrape: not reflected
        assert registry.value("port.tx") == 3


class TestScrapeSetup:
    """``scrape_setup`` reads the fabric; it must not grow it."""

    @staticmethod
    def _discovered_mesh():
        from repro.experiments.runner import (
            build_simulation,
            run_until_ready,
        )
        from repro.topology.registry import resolve_topology
        setup = build_simulation(resolve_topology("4x4 mesh"))
        run_until_ready(setup)
        return setup

    @staticmethod
    def _materialised(setup):
        return sum(port.stats_if_used is not None
                   for device in setup.fabric.devices.values()
                   for port in device.ports)

    def test_scrape_materialises_no_port_counter(self):
        setup = self._discovered_mesh()
        ports = sum(len(d.ports) for d in setup.fabric.devices.values())
        before = self._materialised(setup)
        # Discovery used the route tree only: most ports never counted.
        assert 0 < before < ports
        MetricsRegistry().scrape_setup(setup)
        MetricsRegistry().scrape_setup(setup)
        assert self._materialised(setup) == before

    def test_collect_equals_the_every_port_scrape(self):
        """The parent's loop read ``port.stats`` (creating a counter on
        every port); an empty counter contributes nothing, so skipping
        the ports that never counted changes no value."""
        setup = self._discovered_mesh()
        scraped = MetricsRegistry().scrape_setup(setup).collect()
        assert scraped["port.tx_packets"]["value"] > 0
        reference = MetricsRegistry()
        for device in setup.fabric.devices.values():
            for port in device.ports:
                reference.scrape_counter(port.stats, "port")
        assert {name: doc for name, doc in scraped.items()
                if name.startswith("port.")} == reference.collect()
        # Now that every port carries a (mostly empty) counter, the
        # whole document still reads the same.
        assert MetricsRegistry().scrape_setup(setup).collect() == scraped

    @staticmethod
    def _per_bundle(setup) -> dict:
        """The reference: ``scrape_counter`` bundle by bundle, as
        ``scrape_setup`` did before it summed plain ints."""
        reference = MetricsRegistry()
        reference.scrape_counter(setup.fm.counters, "fm")
        for device in setup.fabric.devices.values():
            for port in device.ports:
                if port.stats_if_used is not None:
                    reference.scrape_counter(port.stats_if_used, "port")
        for entity in setup.entities.values():
            reference.scrape_counter(entity.stats, "entity")
        return reference.collect()

    #: What ``scrape_setup`` adds that no raw counter bundle holds.
    SUMMARIES = {"fm.devices_known", "fm.discoveries", "fm.discovery_time"}

    def _check_against_reference(self, setup):
        registry = CountingRegistry()
        scraped = registry.scrape_setup(setup).collect()
        assert self.SUMMARIES < set(scraped)
        counters = {name: doc for name, doc in scraped.items()
                    if name not in self.SUMMARIES}
        assert counters == self._per_bundle(setup)
        assert scraped["port.tx_packets"]["value"] > 0
        assert scraped["entity.rx_mgmt_packets"]["value"] > 0
        # One lookup per metric (the parent: one per bundle and key).
        assert registry.lookups <= 2 * len(registry)
        # A second simulation scraped into the same registry adds up
        # (perf/ sums the three fig6 runs this way).
        twice = registry.scrape_setup(setup).collect()
        for name, doc in counters.items():
            assert twice[name]["value"] == 2 * doc["value"]
        return registry

    def test_equals_the_per_bundle_reference_after_a_change_run(self):
        from repro.experiments.scenario import Scenario

        class Capture:
            """Duck-typed tracer: keeps the simulation a run built."""

            def install(self, setup):
                self.setup = setup

            def finalize(self, setup):
                pass

        capture = Capture()
        result = Scenario(kind="change", topology="8x8 mesh",
                          seed=0).run(tracer=capture)
        assert result.database_correct
        registry = self._check_against_reference(capture.setup)
        # 64 switches x 5 ports: the parent paid a lookup for each.
        assert registry.lookups < 64

    def test_equals_the_per_bundle_reference_on_a_churned_service(self):
        from repro.service import api, start_service

        from ..service.test_memo import quiesce

        with start_service("torus64") as handle:
            quiesce(handle)
            for verb in ("remove_device", "restore_device"):
                api.call_op(handle.driver, verb, {"name": "sw_3_3"})
                quiesce(handle)
            assert api.call_op(handle.driver, "status")["discoveries"] == 3
            # Both scrapes between the same two kernel events.
            handle.driver.call(self._check_against_reference)
            assert handle.driver.crashed is None


class CountingRegistry(MetricsRegistry):
    """Counts get-or-create lookups."""

    lookups = 0

    def _get(self, name, cls, **kwargs):
        self.lookups += 1
        return super()._get(name, cls, **kwargs)


class TestHotPortCounters:
    """The five per-hop counters are integer slots on the port, folded
    into its ``Counter`` on every read: every reader sees one set of
    numbers, and a port that never counted still has no counter."""

    #: sha256 of ``json.dumps(scrape_setup(...).collect(),
    #: sort_keys=True)`` after a default discovery, recorded at the
    #: commit before the counters became integers.
    PARENT_SCRAPES = {
        "torus64": "598f440376f26ef015ca69a0a85004718387e128"
                   "6e449cb945cb3b0cac95a978",
        "fattree2-1024": "28009b195c56ae5096f2ad50048dd91370a001fa"
                         "d779ae00917e82024d9c2eb5",
    }

    @pytest.mark.parametrize("topology", sorted(PARENT_SCRAPES))
    def test_scrape_is_sha_identical_to_the_parent(self, topology):
        import hashlib
        import json

        from repro.experiments.runner import (
            build_simulation,
            run_until_ready,
        )
        from repro.topology.registry import resolve_topology
        setup = build_simulation(resolve_topology(topology))
        run_until_ready(setup)
        document = MetricsRegistry().scrape_setup(setup).collect()
        digest = hashlib.sha256(
            json.dumps(document, sort_keys=True).encode()).hexdigest()
        assert digest == self.PARENT_SCRAPES[topology]

    @staticmethod
    def _relay():
        from repro.fabric.fabric import Fabric
        from repro.fabric.header import RouteHeader
        from repro.fabric.packet import PI_APPLICATION, Packet
        from repro.sim.core import Environment
        fabric = Fabric(Environment())
        fabric.add_endpoint("A")
        fabric.add_endpoint("B")
        fabric.add_switch("sw")
        fabric.connect("A", 0, "sw", 0)
        fabric.connect("sw", 1, "B", 0)
        fabric.power_up()
        # One 4-bit turn: in at port 0, out at port 1.
        header = RouteHeader(pi=PI_APPLICATION, turn_pointer=4, turn_pool=0)
        fabric.devices["A"].inject(Packet(header=header, payload=b"x" * 40))
        return fabric

    def test_stats_read_the_integer_slots(self):
        fabric = self._relay()
        port = fabric.devices["A"].ports[0]
        assert port.stats_if_used is not None  # queued, not yet sent
        assert port.stats["tx_queued"] == 1 and port.stats["tx_packets"] == 0
        fabric.env.run()
        assert (port.tx_queued, port.tx_packets, port.tx_bytes) == (1, 1, 68)
        assert port.stats.asdict() == {
            "tx_queued": 1, "tx_packets": 1, "tx_bytes": 68}
        far = fabric.devices["B"].ports[0]
        assert far.stats_if_used.asdict() == {
            "rx_packets": 1, "rx_bytes": 68}
        # Reading twice adds nothing; rare counters share the bundle.
        port.stats.incr("tx_replays")
        assert port.stats.asdict() == {
            "tx_queued": 1, "tx_packets": 1, "tx_bytes": 68,
            "tx_replays": 1}

    def test_an_observer_sees_the_folded_increments(self):
        fabric = self._relay()
        port = fabric.devices["A"].ports[0]
        seen = {}
        port.stats.attach_observer(
            lambda key, amount: seen.update({key: seen.get(key, 0) + amount}))
        fabric.env.run()
        assert seen.get("tx_packets", 0) == 0  # not read yet
        port.stats
        assert seen["tx_packets"] == 1
        assert seen["tx_bytes"] == 68

    def test_an_unchanged_port_is_not_folded_again(self):
        """A scrape reads every used port; most did not move since the
        last one, and their bundle comes back without a lookup."""
        fabric = self._relay()
        fabric.env.run()
        port = fabric.devices["A"].ports[0]
        folded = port.stats

        class Untouchable:
            def __getitem__(self, key):
                raise AssertionError(f"folded {key} though nothing moved")

        port._stats = Untouchable()
        assert port.stats is port._stats
        port._stats = folded
        port.tx_packets += 1  # movement is one of three packet counts
        port.tx_bytes += 68
        assert (port.stats["tx_packets"], port.stats["tx_bytes"]) == (2, 136)

    def test_device_stats_read_the_integer_slots(self):
        """``forwarded`` / ``injected`` / ``consumed`` are counted in
        slots per hop and folded into the bundle on read, with the
        port's fold."""
        fabric = self._relay()
        a, sw, b = (fabric.devices[name] for name in ("A", "sw", "B"))
        assert (a.injected, a.stats["injected"]) == (1, 1)
        assert a._stats.asdict() == {"port_up": 1, "injected": 1}
        fabric.env.run()
        assert (sw.forwarded, b.consumed) == (1, 1)
        assert sw._stats["forwarded"] == 0  # not read yet
        assert sw.stats["forwarded"] == 1 and sw.stats is sw._stats
        assert b.stats["consumed"] == b.consumed == 1
        # Rare counters share the bundle; reading twice adds nothing.
        assert b.stats.asdict() == {
            "port_up": 1, "rx_no_handler": 1, "consumed": 1}
        assert sw.stats.asdict() == {"port_up": 2, "forwarded": 1}

    def test_a_port_that_never_counted_has_no_counter(self):
        fabric = self._relay()
        fabric.env.run()
        idle = fabric.devices["sw"].ports[5]
        assert idle.stats_if_used is None
        assert idle.stats_if_used is None  # and reading did not make one
        assert idle.stats["tx_packets"] == 0
        assert idle.stats_if_used is not None  # ``stats`` materialises
