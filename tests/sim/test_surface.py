"""The kernel's public surface, pinned: what is left after the diet
stays left, and nothing in ``src/`` reaches for what was removed."""

import ast
from pathlib import Path

import repro.sim
from repro.sim import Deferred, Environment, Event

SRC = Path(repro.sim.__file__).resolve().parent.parent

#: Names the kernel used to ship (resources, conditions, interrupts,
#: Monitor, Tally — now part of ``obs.metrics.Histogram``, its only
#: user — and the generator ``Process`` with its ``Initialize`` and
#: ``Timeout`` events) and the modules that held most of them.
REMOVED = {
    "AllOf", "AnyOf", "Condition", "ConditionValue", "FilterStore",
    "Initialize", "Interrupt", "Monitor", "PriorityItem", "PriorityStore",
    "Process", "Resource", "Store", "Tally", "Timeout", "process",
    "resources",
}


def test_all_is_the_reduced_list():
    assert repro.sim.__all__ == [
        "Counter", "Deferred", "EmptySchedule", "Environment", "Event",
        "Infinity", "SimulationError",
    ]
    assert not REMOVED & set(dir(repro.sim))


def test_removed_methods_are_gone():
    for owner, names in (
        (Environment, ("all_of", "any_of", "active_process", "schedule")),
        (Event, ("trigger", "__and__", "__or__", "ok", "defused", "fail")),
    ):
        assert not [name for name in names if name in vars(owner)]


def test_nothing_in_src_imports_a_removed_name():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            in_kernel = (path.parent.name == "sim" and node.level == 1
                         or "sim" in module.split("."))
            if not in_kernel:
                continue
            names = {alias.name for alias in node.names}
            names.update(module.split("."))
            if names & REMOVED:
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []


def test_event_state_is_value_callbacks_and_the_tombstone_flag():
    assert Event.__slots__ == ("env", "callbacks", "_value", "_cancelled")
    assert Deferred.__slots__ == ("callbacks", "_cancelled")
    assert not hasattr(Deferred, "_ok") and not hasattr(Deferred, "_defused")


def test_no_model_runs_on_a_generator():
    """Models are callback chains: nothing in ``src/`` outside the
    kernel starts a process or sleeps on a timeout event."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.parent.name == "sim":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("process", "timeout")):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
