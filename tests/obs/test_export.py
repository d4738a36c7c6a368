"""Tests for the timeline exporters and for the packet recorder as
they use it (``fabric.trace.PacketTracer``, driven through fakes)."""

import json

import pytest

from repro.fabric.trace import PacketTracer
from repro.obs import (
    TraceSession,
    chrome_trace_document,
    dump_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)


class _FakeEnv:
    def __init__(self, now=0.0):
        self.now = now


class _FakeDevice:
    def __init__(self, name, env):
        self.name = name
        self.env = env


class _FakeHeader:
    def __init__(self, pi):
        self.pi = pi


class _FakePacket:
    def __init__(self, pkt_id, pi=4):
        self.pkt_id = pkt_id
        self.header = _FakeHeader(pi)


def _session():
    """A small synthetic session: one serial span, one async child,
    one instant, one packet hop, one metric."""
    session = TraceSession()
    spans = session.spans
    root = spans.begin("discovery:parallel", "discovery", 0.0,
                       track="fm", algorithm="parallel")
    child = spans.begin("claim", "discovery", 1e-4, parent=root,
                        track="pi4", target="sw_0_0")
    spans.instant("retry", "pi4", 2e-4, parent=child, track="pi4")
    spans.end(child, 3e-4, outcome="ok")
    spans.end(root, 5e-4, devices=2)
    env = _FakeEnv(now=1.5e-4)
    session.packets(
        "tx", _FakeDevice("sw_0_0", env), 1, _FakePacket(7), "vc0"
    )
    session.metrics.counters.incr("fm.pi5", 3)
    session.meta["topology"] = "synthetic"
    return session


class TestChromeTraceDocument:
    def test_document_structure(self):
        doc = chrome_trace_document(_session(), label="unit")
        events = doc["traceEvents"]
        phases = [e["ph"] for e in events]
        # Metadata (process + one thread per track), X for the serial
        # span, b/e for the async child, i for instant + packet hop,
        # C for the counter metric.
        assert phases.count("M") == 4  # process, fm, pi4, dev:sw_0_0
        assert phases.count("X") == 1
        assert phases.count("b") == 1
        assert phases.count("e") == 1
        assert phases.count("i") == 2
        assert phases.count("C") == 1
        assert doc["otherData"]["topology"] == "synthetic"

    def test_timestamps_are_microseconds(self):
        doc = chrome_trace_document(_session())
        x_events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert x_events[0]["ts"] == 0.0
        assert x_events[0]["dur"] == pytest.approx(500.0)  # 5e-4 s

    def test_validator_accepts_own_output(self):
        assert validate_chrome_trace(chrome_trace_document(_session())) == []

    def test_dump_is_byte_stable(self):
        assert (dump_chrome_trace(chrome_trace_document(_session()))
                == dump_chrome_trace(chrome_trace_document(_session())))

    def test_write_round_trips_through_json(self, tmp_path):
        path = tmp_path / "trace.json"
        document = write_chrome_trace(_session(), path, label="unit")
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(dump_chrome_trace(document))


class TestValidator:
    def test_rejects_unknown_phase(self):
        problems = validate_chrome_trace(
            [{"ph": "Z", "pid": 1, "ts": 0, "name": "x"}]
        )
        assert any("unknown phase" in p for p in problems)

    def test_rejects_async_end_without_begin(self):
        problems = validate_chrome_trace([
            {"ph": "e", "pid": 1, "ts": 0, "name": "x", "id": "0x1",
             "cat": "c"},
        ])
        assert any("without begin" in p for p in problems)

    def test_rejects_unclosed_async_begin(self):
        problems = validate_chrome_trace([
            {"ph": "b", "pid": 1, "ts": 0, "name": "x", "id": "0x1",
             "cat": "c"},
        ])
        assert any("never ended" in p for p in problems)

    def test_rejects_x_without_duration(self):
        problems = validate_chrome_trace(
            [{"ph": "X", "pid": 1, "ts": 0, "name": "x"}]
        )
        assert any("dur" in p for p in problems)

    def test_rejects_non_document(self):
        assert validate_chrome_trace(42)
        assert validate_chrome_trace({"events": []})


class TestJsonl:
    def test_writes_meta_body_and_metrics(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        lines = write_jsonl(_session(), path, label="unit")
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert len(records) == lines
        assert records[0]["type"] == "meta"
        assert records[0]["label"] == "unit"
        assert records[-1]["type"] == "metrics"
        kinds = {record["type"] for record in records}
        assert kinds == {"meta", "span", "instant", "packet", "metrics"}


class TestPacketFlightRecorder:
    def test_records_hop_fields(self):
        recorder = PacketTracer()
        env = _FakeEnv(now=2.5)
        recorder("rx", _FakeDevice("ep_0", env), 3, _FakePacket(9, pi=5))
        hop = recorder.hops[0]
        assert (hop.time, hop.kind, hop.device, hop.port) == \
            (2.5, "rx", "ep_0", 3)
        assert (hop.packet_id, hop.pi, hop.detail, hop.seq) == (9, 5, "", 0)
        assert recorder.devices() == ["ep_0"]
        assert recorder.counts() == {"rx": 1}

    def test_overflow_is_counted_not_silent(self):
        recorder = PacketTracer(limit=1)
        env = _FakeEnv()
        device = _FakeDevice("sw", env)
        recorder("tx", device, 0, _FakePacket(1))
        recorder("tx", device, 0, _FakePacket(2))
        assert len(recorder) == 1
        assert recorder.overflowed == 1
        # The newest hop is the one kept, under the number it was
        # given: a gap in ``seq`` is where the capture was cut.
        assert [(hop.packet_id, hop.seq) for hop in recorder.hops] == [(2, 1)]

    def test_a_truncated_capture_says_so_in_the_export(self):
        session = TraceSession(packet_limit=2)
        device = _FakeDevice("sw", _FakeEnv())
        for pkt_id in range(5):
            session.packets("tx", device, 0, _FakePacket(pkt_id))
        doc = chrome_trace_document(session)
        assert doc["otherData"]["packet_hops_dropped"] == 3
        assert sum(e.get("cat") == "packet" for e in doc["traceEvents"]) == 2

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            PacketTracer(limit=0)
