"""The observation plane's public surface, pinned: one counter type,
one registry, one packet recorder — what the consolidation removed
stays removed, and nothing in ``src/`` reaches for it."""

import ast
from pathlib import Path

import repro
import repro.fabric
import repro.obs
import repro.workloads

SRC = Path(repro.__file__).resolve().parent

#: The second packet recorder and its record, the three typed metric
#: classes, the summary-statistics class ``Histogram`` absorbed, the
#: workload protocol nobody checked against — and the modules that
#: held two of them.
REMOVED = {
    "PacketFlightRecorder", "TraceEvent", "CounterMetric", "GaugeMetric",
    "HistogramMetric", "Tally", "Workload", "WorkloadSet", "packets",
    "fold_counters",
}


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC), ast.parse(path.read_text())


def test_all_is_the_reduced_list():
    assert repro.obs.__all__ == [
        "Histogram", "Instant", "MetricsRegistry", "Span", "SpanTracer",
        "TraceSession", "chrome_trace_document",
        "discovery_phase_breakdown", "discovery_spans",
        "dump_chrome_trace", "validate_chrome_trace",
        "write_chrome_trace", "write_jsonl",
    ]
    recorders = [name for name in repro.fabric.__all__
                 if "Trace" in name or "Hop" in name]
    assert recorders == ["PacketHop", "PacketTracer"]
    for package in (repro, repro.obs, repro.fabric, repro.workloads):
        assert not REMOVED & set(package.__all__), package.__name__
        assert not (REMOVED - {"packets"}) & set(dir(package))
    assert not (SRC / "obs" / "packets.py").exists()
    assert not (SRC / "workloads" / "base.py").exists()


def test_removed_members_are_gone():
    """No alias left behind: the fold and its checksum slot, the
    read that materialised, the observer path, the typed get-or-create
    methods and the per-bundle scrape."""
    import repro.fabric.port as port_module
    from repro.fabric import Device, Port
    from repro.obs import MetricsRegistry
    from repro.sim import Counter
    for owner, names in (
        (port_module, ("fold_counters",)),
        (Port, ("_folded", "stats_if_used")),
        (Device, ("_folded",)),
        (Counter, ("_rebind", "attach_observer", "observer", "_counts")),
        (MetricsRegistry, ("counter", "gauge", "_get", "scrape_counter")),
    ):
        assert not [name for name in names if hasattr(owner, name)]


def test_nothing_in_src_imports_a_removed_name():
    offenders = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            names = {alias.name for alias in node.names}
            names.update((node.module or "").split("."))
            if names & REMOVED:
                offenders.append(f"{path}:{node.lineno}")
    assert offenders == []


def test_one_class_implements_the_device_trace_hook():
    """The hook is a callable object installed as ``device.trace_hook``
    (functions and lambdas serve tests); in ``src/`` exactly one class
    is one, and only it installs itself."""
    callables, installers = [], set()
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef)
                    and item.name == "__call__" for item in node.body):
                callables.append(f"{path}:{node.name}")
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Attribute)
                    and target.attr == "trace_hook"
                    for target in node.targets):
                installers.add(str(path))
    assert callables == ["fabric/trace.py:PacketTracer"]
    assert installers == {"fabric/trace.py"}
