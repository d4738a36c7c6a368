"""The fabric container: devices, links, power-up, and hot changes.

A :class:`Fabric` owns every simulated device and link.  It provides
the ground-truth topology (as a :class:`~repro.routing.graph.Graph`)
that tests and experiments compare discovery results against, and the
hot add/remove operations that trigger the topological changes the
paper studies.
"""

from __future__ import annotations

import random
from itertools import count
from typing import Dict, Iterable, List, Optional, Tuple

from ..routing.graph import Graph, component
from ..sim.core import Environment
from ..sim.monitor import Counter
from .device import Device
from .endpoint import Endpoint
from .params import DEFAULT_PARAMS, FabricParams
from .phy import Link, LinkError
from .port import HOT_COUNTERS, read_counters
from .switch import Switch


class FabricError(RuntimeError):
    """Raised on invalid fabric construction or modification."""


class Fabric:
    """A collection of ASI devices connected by x1 links."""

    def __init__(self, env: Environment,
                 params: FabricParams = DEFAULT_PARAMS):
        self.env = env
        self.params = params
        self.devices: Dict[str, Device] = {}
        self.links: List[Link] = []
        self._dsn_counter = count(0x0100_0000)
        self._by_dsn: Dict[int, Device] = {}
        #: Every device's ports, flat (a device's ports are fixed).
        self._ports: list = []

    # -- construction ------------------------------------------------------
    def _register(self, device: Device) -> Device:
        if device.name in self.devices:
            raise FabricError(f"duplicate device name {device.name!r}")
        self.devices[device.name] = device
        self._by_dsn[device.dsn] = device
        self._ports += device.ports
        return device

    def add_switch(self, name: str, nports: Optional[int] = None) -> Switch:
        """Create a switch (default port count from the parameters)."""
        nports = self.params.switch_ports if nports is None else nports
        return self._register(
            Switch(self.env, name, next(self._dsn_counter), nports,
                   self.params)
        )

    def add_endpoint(self, name: str, nports: Optional[int] = None,
                     fm_capable: bool = True) -> Endpoint:
        """Create an endpoint."""
        nports = self.params.endpoint_ports if nports is None else nports
        return self._register(
            Endpoint(self.env, name, next(self._dsn_counter), nports,
                     self.params, fm_capable=fm_capable)
        )

    def connect(self, a: str, a_port: int, b: str, b_port: int) -> Link:
        """Wire port ``a_port`` of device ``a`` to ``b_port`` of ``b``."""
        dev_a, dev_b = self.device(a), self.device(b)
        if dev_a is dev_b:
            raise FabricError(f"cannot connect {a!r} to itself")
        link = Link(self.env, self.params,
                    name=f"{a}.p{a_port}<->{b}.p{b_port}")
        try:
            link.attach(dev_a.ports[a_port], dev_b.ports[b_port])
        except IndexError:
            raise FabricError(
                f"port index out of range connecting {a!r} and {b!r}"
            ) from None
        self.links.append(link)
        return link

    def power_up(self, stagger: Optional[float] = None,
                 seed: int = 0, first: Optional[str] = None) -> None:
        """Activate every device and train every link.

        With ``stagger`` set, devices power on at uniformly random
        times within ``[0, stagger]`` seconds — the paper's "transient
        period in which fabric devices are activated".  Each link
        trains as soon as both of its endpoints are alive.  ``first``
        names a device (typically the FM host) to power on at time 0
        so management can observe the bring-up.
        """
        if stagger is None:
            for device in self.devices.values():
                device.power_on()
            for link in self.links:
                link.bring_up()
            return
        if stagger <= 0:
            raise FabricError("stagger must be positive")
        rng = random.Random(seed)
        for device in self.devices.values():
            delay = 0.0 if device.name == first else rng.uniform(0, stagger)
            if delay == 0.0:
                self._activate(device)
            else:
                self.env.call_later(delay, self._activate, device)

    def _activate(self, device: Device) -> None:
        """Power ``device`` on and train each of its links."""
        device.power_on()
        for port in device.ports:
            if port.link is not None:
                port.link.bring_up()

    # -- lookup ------------------------------------------------------------
    def device(self, name: str) -> Device:
        try:
            return self.devices[name]
        except KeyError:
            raise FabricError(f"no device named {name!r}") from None

    def device_by_dsn(self, dsn: int) -> Device:
        try:
            return self._by_dsn[dsn]
        except KeyError:
            raise FabricError(f"no device with DSN {dsn:#x}") from None

    def switches(self) -> List[Switch]:
        return [d for d in self.devices.values() if isinstance(d, Switch)]

    def endpoints(self) -> List[Endpoint]:
        return [d for d in self.devices.values() if isinstance(d, Endpoint)]

    def link_between(self, a: str, b: str) -> Optional[Link]:
        """The first link directly connecting devices ``a`` and ``b``."""
        for link in self.links:
            names = {
                link.a_port.device.name,
                link.b_port.device.name,
            }
            if names == {a, b}:
                return link
        return None

    # -- ground truth ---------------------------------------------------------
    def graph(self, active_only: bool = True) -> Graph:
        """The physical topology as a name-keyed graph.

        Nodes are device names with ``kind``/``dsn`` attributes; edges
        carry the port numbers at each end.  With ``active_only`` the
        graph contains only active devices and up links — the topology
        a correct discovery must find.
        """
        g = Graph()
        for device in self.devices.values():
            if active_only and not device.active:
                continue
            g.add_node(
                device.name,
                kind=device.kind,
                dsn=device.dsn,
                nports=device.nports,
            )
        for link in self.links:
            if active_only and not link.up:
                continue
            pa, pb = link.a_port, link.b_port
            if pa.device.name not in g or pb.device.name not in g:
                continue
            g.add_edge(
                pa.device.name,
                pb.device.name,
                ports={
                    pa.device.name: pa.index,
                    pb.device.name: pb.index,
                },
            )
        return g

    def port_stats(self) -> Counter:
        """Every port's counters summed key by key, without a snapshot
        per port (see ``read_counters``)."""
        return read_counters(self._ports, HOT_COUNTERS)

    def reachable_devices(self, origin: str) -> List[str]:
        """Active devices reachable from ``origin`` over up links."""
        g = self.graph(active_only=True)
        if origin not in g:
            return []
        return sorted(component(g, origin))

    # -- hot changes (availability features, paper section 2) -----------------
    def remove_device(self, name: str) -> Device:
        """Hot-remove a device: power it off and fail its links.

        Neighbours observe port-down transitions, which their
        management entities report to the FM via PI-5.
        """
        device = self.device(name)
        if not device.active:
            raise FabricError(f"{name!r} is already inactive")
        device.power_off()
        for port in device.ports:
            if port.link is not None and port.link.up:
                port.link.take_down()
        return device

    def restore_device(self, name: str) -> Device:
        """Hot-add a previously removed device back into the fabric."""
        device = self.device(name)
        if device.active:
            raise FabricError(f"{name!r} is already active")
        self._activate(device)
        return device

    def fail_link(self, a: str, b: str) -> Link:
        """Fail the link between two directly connected devices."""
        link = self.link_between(a, b)
        if link is None:
            raise FabricError(f"no link between {a!r} and {b!r}")
        link.take_down()
        return link

    def restore_link(self, a: str, b: str) -> Link:
        """Retrain a previously failed link."""
        link = self.link_between(a, b)
        if link is None:
            raise FabricError(f"no link between {a!r} and {b!r}")
        link.bring_up()
        return link
