"""Layers: which ``src/repro`` module belongs to which layer, and the
roll-up of a cProfile run into per-layer self time and call counts.

The mapping is explicit on purpose.  A package is mapped wholesale
only where every module in it is one layer; ``fabric``, ``protocols``
and ``manager`` are split by file, so a new file there (or a new
top-level package) has no layer until someone gives it one —
``perf/tests`` fails on it, and a traced run charges it to ``ext`` and
says so.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import PurePosixPath
from typing import Dict, Iterable, Optional

#: Every layer a traced run reports, in ledger order.
LAYERS = (
    "sim", "fabric.port", "fabric.switch", "fabric.packet", "protocols",
    "protocols.entity", "capability", "routing", "manager",
    "manager.database", "topology", "workloads", "obs", "service",
    "experiments", "ext",
)

#: Packages in which every module is one layer.
_PACKAGES = {
    "sim": "sim",
    "capability": "capability",
    "routing": "routing",
    "topology": "topology",
    "workloads": "workloads",
    "obs": "obs",
    "service": "service",
    "experiments": "experiments",
    "analysis": "experiments",
    "manager/discovery": "manager",
}

#: Modules mapped one by one (path below ``src/repro``, no suffix).
_MODULES = {
    "__init__": "experiments",
    "__main__": "experiments",
    "cli": "experiments",
    # Shared architectural constants (turn-pool width).
    "_limits": "routing",
    "fabric/port": "fabric.port",
    "fabric/phy": "fabric.port",
    "fabric/vc": "fabric.port",
    "fabric/flow_control": "fabric.port",
    "fabric/__init__": "fabric.switch",
    "fabric/switch": "fabric.switch",
    "fabric/device": "fabric.switch",
    "fabric/endpoint": "fabric.switch",
    "fabric/fabric": "fabric.switch",
    "fabric/params": "fabric.switch",
    "fabric/trace": "fabric.switch",
    "fabric/header": "fabric.packet",
    "fabric/packet": "fabric.packet",
    "fabric/crc": "fabric.packet",
    "protocols/__init__": "protocols",
    "protocols/pi4": "protocols",
    "protocols/pi5": "protocols",
    "protocols/transaction": "protocols",
    "protocols/entity": "protocols.entity",
    "manager/__init__": "manager",
    "manager/consistency": "manager",
    "manager/election": "manager",
    "manager/failover": "manager",
    "manager/fm": "manager",
    "manager/multicast": "manager",
    "manager/path_distribution": "manager",
    "manager/timing": "manager",
    "manager/database": "manager.database",
}


def layer_of_module(relative: str) -> Optional[str]:
    """Layer of a module given its path below ``src/repro`` (POSIX
    separators, ``.py`` suffix optional); ``None`` when unmapped."""
    path = PurePosixPath(relative)
    module = str(path.with_suffix(""))
    if module in _MODULES:
        return _MODULES[module]
    for parent in path.parents:
        layer = _PACKAGES.get(str(parent))
        if layer is not None:
            return layer
    return None


def _repro_relative(filename: str) -> Optional[str]:
    """Path below the ``repro`` package root, or ``None`` for a file
    outside it (stdlib, site-packages, ``perf/`` itself)."""
    marker = "/src/repro/"
    filename = filename.replace("\\", "/")
    index = filename.rfind(marker)
    if index < 0:
        return None
    return filename[index + len(marker):]


class LayerLedger:
    """Per-layer self seconds and call counts of one profile."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Sum of every profile entry's self time (the profile total).
        self.total_s = 0.0
        #: ``repro`` modules that had no layer and went to ``ext``.
        self.unmapped: set = set()
        self._by_file: Dict[str, Optional[str]] = {}

    @property
    def charged_s(self) -> float:
        return sum(self.self_s.values())

    def _layer(self, code) -> Optional[str]:
        """Layer of a profile entry's code; ``None`` for C builtins
        and Python frames outside ``repro``."""
        filename = getattr(code, "co_filename", None)
        if filename is None:
            return None
        if filename not in self._by_file:
            relative = _repro_relative(filename)
            layer = None
            if relative is not None:
                layer = layer_of_module(relative)
                if layer is None:
                    self.unmapped.add(relative)
                    layer = "ext"
            self._by_file[filename] = layer
        return self._by_file[filename]

    def add(self, entries: Iterable) -> "LayerLedger":
        """Roll up ``cProfile.Profile.getstats()`` entries.

        A ``repro`` frame's self time goes to its module's layer.  A C
        builtin or a Python frame outside ``repro`` is charged, call
        edge by call edge, to the layer of its direct caller when that
        caller is a ``repro`` frame, and to ``ext`` otherwise.  Frames
        nobody called (the profiled callable itself) are not charged,
        which is the only gap between the charged sum and the total.
        """
        for entry in entries:
            self.total_s += entry.inlinetime
            own = self._layer(entry.code)
            if own is not None:
                self.self_s[own] += entry.inlinetime
                self.calls[own] += entry.callcount
            for edge in entry.calls or ():
                if self._layer(edge.code) is None:
                    target = own or "ext"
                    self.self_s[target] += edge.inlinetime
                    self.calls[target] += edge.callcount
        return self

    def metrics(self) -> Dict[str, float]:
        """``<layer>.self_s`` / ``<layer>.calls`` for every layer."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
        return out
