"""Declarative topology specifications.

A :class:`TopologySpec` lists devices and links abstractly; calling
:meth:`TopologySpec.build` instantiates them into a live
:class:`~repro.fabric.fabric.Fabric`.  Generators for the paper's
topology families live in the sibling modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..fabric.fabric import Fabric
from ..fabric.params import DEFAULT_PARAMS, FabricParams
from ..sim.core import Environment


@dataclass
class TopologySpec:
    """An abstract fabric topology.

    Attributes
    ----------
    name:
        Human-readable identifier (e.g. ``"8x8 mesh"``).
    switches:
        ``(name, nports)`` pairs.
    endpoints:
        Endpoint names.
    links:
        ``(device_a, port_a, device_b, port_b)`` tuples.
    fm_host:
        The endpoint that hosts the primary fabric manager by default.
    family:
        Topology family tag (``mesh``, ``torus``, ``fattree``, ...).
    """

    name: str
    switches: List[Tuple[str, int]] = field(default_factory=list)
    endpoints: List[str] = field(default_factory=list)
    links: List[Tuple[str, int, str, int]] = field(default_factory=list)
    fm_host: Optional[str] = None
    family: str = "custom"

    # -- size accounting (Table 1 columns) --------------------------------
    @property
    def num_switches(self) -> int:
        return len(self.switches)

    @property
    def num_endpoints(self) -> int:
        return len(self.endpoints)

    @property
    def total_devices(self) -> int:
        """The paper's "Total Devices" column (switches + endpoints)."""
        return self.num_switches + self.num_endpoints

    def validate(self) -> None:
        """Check the specification is internally consistent."""
        names = [n for n, _ in self.switches] + list(self.endpoints)
        if len(set(names)) != len(names):
            raise ValueError(f"{self.name}: duplicate device names")
        ports = {name: nports for name, nports in self.switches}
        ports.update({name: 1 for name in self.endpoints})
        used = set()
        for a, ap, b, bp in self.links:
            for dev, port in ((a, ap), (b, bp)):
                if dev not in ports:
                    raise ValueError(f"{self.name}: unknown device {dev!r}")
                if not 0 <= port < ports[dev]:
                    raise ValueError(
                        f"{self.name}: port {port} out of range on {dev!r}"
                    )
                if (dev, port) in used:
                    raise ValueError(
                        f"{self.name}: port {dev}.{port} wired twice"
                    )
                used.add((dev, port))
        if self.fm_host is not None and self.fm_host not in self.endpoints:
            raise ValueError(
                f"{self.name}: fm_host {self.fm_host!r} is not an endpoint"
            )

    def build(self, env: Environment,
              params: FabricParams = DEFAULT_PARAMS) -> Fabric:
        """Instantiate the specification into a fabric (not powered up)."""
        self.validate()
        fabric = Fabric(env, params)
        for name, nports in self.switches:
            fabric.add_switch(name, nports=nports)
        for name in self.endpoints:
            fabric.add_endpoint(name)
        for a, ap, b, bp in self.links:
            fabric.connect(a, ap, b, bp)
        return fabric
