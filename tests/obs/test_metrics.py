"""Tests for the metrics registry and the counters it scrapes."""

import math

import pytest

from repro.obs import Histogram, MetricsRegistry
from repro.sim.monitor import Counter


class TestCounterMetric:
    def test_increments_accumulate(self):
        registry = MetricsRegistry()
        registry.counters.incr("requests")
        registry.counters.incr("requests", 4)
        assert registry.value("requests") == 5
        assert registry.collect() == {
            "requests": {"type": "counter", "value": 5}}


class TestGaugeMetric:
    def test_set_overwrites(self):
        registry = MetricsRegistry()
        registry.gauges["depth"] = 3.0
        registry.gauges["depth"] = 1.5
        assert registry.value("depth") == 1.5
        assert registry.collect() == {
            "depth": {"type": "gauge", "value": 1.5}}


class TestHistogramMetric:
    def test_buckets_are_cumulative_style_le(self):
        metric = Histogram(buckets=(1.0, 10.0))
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
            Histogram(buckets=())

    def test_streaming_stats_match_batch(self):
        data = [1.0, 2.0, 3.0, 4.0, 100.0]
        metric = Histogram()
        for x in data:
            metric.observe(x)
        mean = sum(data) / len(data)
        var = sum((x - mean) ** 2 for x in data) / (len(data) - 1)
        assert metric.n == 5
        assert metric.mean == pytest.approx(mean)
        assert metric.stdev == pytest.approx(math.sqrt(var))
        assert (metric.min, metric.max) == (1.0, 100.0)
        doc = metric.asdict()
        assert (doc["mean"], doc["stdev"], doc["min"], doc["max"]) == (
            metric.mean, metric.stdev, 1.0, 100.0)

    def test_single_observation_zero_variance(self):
        metric = Histogram()
        metric.observe(7.0)
        assert (metric.mean, metric.stdev) == (7.0, 0.0)
        assert metric.asdict()["stdev"] == 0.0

    def test_an_empty_histogram_renders_no_summary_keys(self):
        doc = Histogram(buckets=(1.0,)).asdict()
        assert doc == {"type": "histogram", "n": 0,
                       "buckets": {"le_1": 0}, "overflow": 0}


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.histogram("a") is registry.histogram("a")
        assert len(registry) == 1

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counters.incr("a")
        registry.gauges["a"] = 1.0
        with pytest.raises(TypeError):
            registry.collect()

    def test_value_defaults_to_zero_for_absent_metric(self):
        registry = MetricsRegistry()
        assert registry.value("nope") == 0
        assert len(registry) == 0  # and asking registered nothing

    def test_value_reads_all_three_kinds(self):
        registry = MetricsRegistry()
        registry.counters.incr("c", 2)
        registry.gauges["g"] = 0.5
        registry.histogram("h", buckets=(1.0,)).observe(3.0)
        assert (registry.value("c"), registry.value("g")) == (2, 0.5)
        assert registry.value("h") == registry.collect()["h"]
        assert registry.value("h")["overflow"] == 1
        assert len(registry) == 3

    def test_collect_is_sorted_and_json_ready(self):
        import json

        registry = MetricsRegistry()
        registry.counters.incr("b", 2)
        registry.gauges["a"] = 1.0
        registry.histogram("c")
        collected = registry.collect()
        assert list(collected) == ["a", "b", "c"]
        assert [doc["type"] for doc in collected.values()] == [
            "gauge", "counter", "histogram"]
        json.dumps(collected)  # must not raise

    def test_scrape_counter_snapshots_once(self):
        raw = Counter()
        raw.incr("tx", 3)
        registry = MetricsRegistry()
        registry.scrape_counters([raw], "port")
        raw.incr("tx", 10)  # after the scrape: not reflected
        assert registry.value("port.tx") == 3
        # Totals add up across scrapes; plain dicts scrape as well.
        registry.scrape_counters([raw, {"tx": 1, "rx": 2}], "port")
        assert registry.counters == {"port.tx": 17, "port.rx": 2}


def scrape_bundle(registry, bundle, prefix):
    """The reference scrape: one bundle, one name built per key of it
    (what ``scrape_setup`` did before it summed plain ints)."""
    for key, value in bundle.items():
        registry.counters.incr(f"{prefix}.{key}", value)


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
    def _ports(setup):
        return [port for device in setup.fabric.devices.values()
                for port in device.ports]

    def test_scrape_materialises_no_port_counter(self):
        setup = self._discovered_mesh()
        ports = self._ports(setup)
        # Discovery used the route tree only: most ports never counted.
        assert 0 < sum(port.stats != {} for port in ports) < len(ports)
        # An idle, loss-free discovery has no rare event: no port owns
        # a bundle, neither before the scrapes nor after them.
        assert all(port._stats is None for port in ports)
        MetricsRegistry().scrape_setup(setup)
        MetricsRegistry().scrape_setup(setup)
        assert all(port._stats is None for port in ports)

    def test_collect_equals_the_every_port_scrape(self):
        """Reading ``stats`` on every port, idle ones included, adds
        nothing to the document and leaves nothing behind: an idle
        port reads empty."""
        setup = self._discovered_mesh()
        scraped = MetricsRegistry().scrape_setup(setup).collect()
        assert scraped["port.tx_packets"]["value"] > 0
        reference = MetricsRegistry()
        for port in self._ports(setup):
            scrape_bundle(reference, port.stats, "port")
        assert {name: doc for name, doc in scraped.items()
                if name.startswith("port.")} == reference.collect()
        assert all(port._stats is None for port in self._ports(setup))
        assert MetricsRegistry().scrape_setup(setup).collect() == scraped

    @staticmethod
    def _per_bundle(setup) -> dict:
        reference = MetricsRegistry()
        scrape_bundle(reference, setup.fm.counters, "fm")
        for device in setup.fabric.devices.values():
            for port in device.ports:
                scrape_bundle(reference, port.stats, "port")
        for entity in setup.entities.values():
            scrape_bundle(reference, entity.stats, "entity")
        return reference.collect()

    #: What ``scrape_setup`` adds that no raw counter bundle holds.
    SUMMARIES = {"fm.devices_known", "fm.discoveries", "fm.discovery_time"}

    def _check_against_reference(self, setup):
        registry = MetricsRegistry()
        registry.counters = CountingCounter()
        scraped = registry.scrape_setup(setup).collect()
        assert self.SUMMARIES < set(scraped)
        counters = {name: doc for name, doc in scraped.items()
                    if name not in self.SUMMARIES}
        assert counters == self._per_bundle(setup)
        assert scraped["port.tx_packets"]["value"] > 0
        assert scraped["entity.rx_mgmt_packets"]["value"] > 0
        # One name built per metric, not one per bundle and key.
        assert registry.counters.lookups == len(registry.counters)
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
        # 64 switches x 5 ports: a per-bundle scrape pays one for each.
        assert registry.counters.lookups < 64

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


class CountingCounter(Counter):
    """Counts the names a scrape builds (one ``incr`` each)."""

    lookups = 0

    def incr(self, key, amount=1):
        self.lookups += 1
        super().incr(key, amount)


class TestHotPortCounters:
    """The five per-hop counters are integer slots on the port and the
    slots are their only storage: ``stats`` reads them beside the rare
    bundle, so every reader sees one set of numbers, no copy can go
    stale and a read leaves nothing behind on its owner."""

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
        from repro.sim.core import Environment
        fabric = Fabric(Environment())
        fabric.add_endpoint("A")
        fabric.add_endpoint("B")
        fabric.add_switch("sw")
        fabric.connect("A", 0, "sw", 0)
        fabric.connect("sw", 1, "B", 0)
        fabric.power_up()
        TestHotPortCounters._send(fabric)
        return fabric

    @staticmethod
    def _send(fabric):
        from repro.fabric.header import RouteHeader
        from repro.fabric.packet import PI_APPLICATION, Packet
        # One 4-bit turn: in at port 0, out at port 1.
        header = RouteHeader(pi=PI_APPLICATION, turn_pointer=4, turn_pool=0)
        fabric.devices["A"].inject(Packet(header=header, payload=b"x" * 40))

    def test_stats_read_the_integer_slots(self):
        fabric = self._relay()
        port = fabric.devices["A"].ports[0]
        # Queued, not yet sent.
        assert port.stats["tx_queued"] == 1 and port.stats["tx_packets"] == 0
        fabric.env.run()
        assert (port.tx_queued, port.tx_packets, port.tx_bytes) == (1, 1, 68)
        assert port._stats is None
        assert port.stats == {
            "tx_queued": 1, "tx_packets": 1, "tx_bytes": 68}
        assert port._stats is None  # the read created nothing
        far = fabric.devices["B"].ports[0]
        assert far.stats == {"rx_packets": 1, "rx_bytes": 68}
        # The slots are the storage: a read after they move sees it.
        port.tx_packets += 1
        port.tx_bytes += 68
        assert (port.stats["tx_packets"], port.stats["tx_bytes"]) == (2, 136)

    def test_a_rare_event_creates_the_bundle_beside_the_slots(self):
        fabric = self._relay()
        fabric.env.run()
        port = fabric.devices["A"].ports[0]
        port._count("tx_replays")
        assert port._stats == {"tx_replays": 1}  # the rare ones only
        port._count("tx_replays", 2)
        assert port.stats == {
            "tx_queued": 1, "tx_packets": 1, "tx_bytes": 68,
            "tx_replays": 3}
        # The model's own rare events take the same road: the link is
        # down, so the send is dropped and counted.
        fabric.fail_link("A", "sw")
        fabric.env.run()
        self._send(fabric)
        assert port.stats["tx_dropped_no_link"] == 1
        assert port._stats == {"tx_replays": 3, "tx_dropped_no_link": 1}

    def test_a_snapshot_is_not_the_storage(self):
        fabric = self._relay()
        fabric.env.run()
        for owner in (fabric.devices["A"].ports[0], fabric.devices["sw"]):
            before = owner.stats.asdict()
            snapshot = owner.stats
            snapshot.incr("tx_packets", 5)
            snapshot.incr("port_up", 5)
            snapshot["made_up"] = 1
            assert owner.stats == before
            assert owner.stats is not owner.stats

    def test_device_stats_read_the_integer_slots(self):
        """``forwarded`` / ``injected`` / ``consumed`` are counted in
        slots per hop and read beside the rare bundle, like the
        port's."""
        fabric = self._relay()
        a, sw, b = (fabric.devices[name] for name in ("A", "sw", "B"))
        assert (a.injected, a.stats["injected"]) == (1, 1)
        assert a._stats == {"port_up": 1}  # the rare ones only
        fabric.env.run()
        assert (sw.forwarded, b.consumed) == (1, 1)
        assert sw.stats["forwarded"] == 1
        assert b.stats["consumed"] == b.consumed == 1
        assert b.stats == {"port_up": 1, "rx_no_handler": 1, "consumed": 1}
        assert sw.stats == {"port_up": 2, "forwarded": 1}
        # Reading wrote nothing into the rare bundles.
        assert sw._stats == {"port_up": 2}
        assert b._stats == {"port_up": 1, "rx_no_handler": 1}

    def test_a_port_that_never_counted_has_no_counter(self):
        fabric = self._relay()
        fabric.env.run()
        idle = fabric.devices["sw"].ports[5]
        assert idle._stats is None
        assert idle.stats == {} and idle.stats["tx_packets"] == 0
        # Reading made none: the port still owns no bundle.
        assert idle._stats is None
        # The fabric-wide sum passes over it and agrees with the
        # per-port reads, rare counters included.
        fabric.devices["A"].ports[0]._count("tx_replays")
        # ...one whose only count is a rare one is not passed over.
        fabric.devices["sw"].ports[6]._count("rx_dropped")
        assert fabric.port_stats() == {
            "tx_queued": 2, "tx_packets": 2, "tx_bytes": 136,
            "rx_packets": 2, "rx_bytes": 136, "tx_replays": 1,
            "rx_dropped": 1}
        assert idle._stats is None
