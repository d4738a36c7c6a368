"""The kernel's public surface, pinned: what is left after the diet
stays left, and nothing in ``src/`` reaches for what was removed."""

import ast
from pathlib import Path

import repro.sim
from repro.sim import Environment, Event, Process

SRC = Path(repro.sim.__file__).resolve().parent.parent

#: Names the kernel used to ship (resources, conditions, interrupts,
#: Monitor, and Tally — now part of ``obs.metrics.Histogram``, its only
#: user) and the module that held most of them.
REMOVED = {
    "AllOf", "AnyOf", "Condition", "ConditionValue", "FilterStore",
    "Interrupt", "Monitor", "PriorityItem", "PriorityStore", "Resource",
    "Store", "Tally", "resources",
}


def test_all_is_the_reduced_list():
    assert repro.sim.__all__ == [
        "Counter", "Deferred", "EmptySchedule", "Environment", "Event",
        "Infinity", "Process", "SimulationError", "Timeout",
    ]
    assert not REMOVED & set(dir(repro.sim))


def test_removed_methods_are_gone():
    for owner, names in (
        (Environment, ("all_of", "any_of", "active_process")),
        (Event, ("trigger", "__and__", "__or__")),
        (Process, ("interrupt", "target")),
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
