"""Base class for fabric devices (switches and endpoints).

A device owns its ports, its configuration space, and a *local
handler* slot that the management entity (:mod:`repro.protocols.entity`)
plugs into.  Subclasses decide what to do with a packet whose head has
arrived at a port: switches route it onward, endpoints consume it.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..capability import (
    BaselineCapability,
    ClaimCapability,
    ConfigSpace,
    EventRouteCapability,
)
from ..sim.core import Environment
from ..sim.monitor import Counter
from .packet import Packet
from .params import FabricParams
from .port import Port, read_counters

#: Counted once per hop or per packet, so kept as integer slots on the
#: device (same names) that ``stats`` reads beside the rare bundle,
#: like the port's ``HOT_COUNTERS``.
HOT_COUNTERS = ("forwarded", "injected", "consumed")


class Device:
    """Common behaviour of all fabric devices."""

    #: Baseline-capability device type code (set by subclasses).
    type_code = 0
    kind = "device"

    #: Identity constants rendered into the baseline capability; class
    #: attributes so a mega-scale fabric does not store them per device.
    vendor_id = 0xA51  # "ASI"
    device_id = 0x0001
    capability_version = 0x0100

    __slots__ = (
        "env", "name", "dsn", "params", "active", "_stats", "_nports",
        "ports", "config_space", "local_handler", "_trace_hook",
        "port_state_observer", *HOT_COUNTERS,
    )

    def __init__(self, env: Environment, name: str, dsn: int, nports: int,
                 params: FabricParams):
        if nports < 1:
            raise ValueError("a device needs at least one port")
        self.env = env
        self.name = name
        self.dsn = dsn
        self.params = params
        self.active = False
        #: The rare counters; ``stats`` reads them beside the hot
        #: slots.
        self._stats = Counter()
        self.forwarded = self.injected = self.consumed = 0
        #: Port count, cached for the routing hot path (ports are fixed
        #: at construction).
        self._nports = nports
        self.ports: List[Port] = [Port(self, i, params) for i in range(nports)]

        self.config_space = ConfigSpace()
        self.config_space.add(BaselineCapability(self))
        self.config_space.add(EventRouteCapability())
        self.config_space.add(ClaimCapability())

        #: Callback receiving packets addressed to this device:
        #: ``handler(packet, port)``.  Installed by the management
        #: entity; packets arriving with no handler are counted and
        #: dropped.
        self.local_handler: Optional[Callable[[Packet, Optional[Port]], None]] = None
        #: Optional packet tracer (see :mod:`repro.fabric.trace`);
        #: called as ``hook(kind, device, port_index, packet, detail)``.
        #: Pre-resolved: assigning the property mirrors the hook into
        #: ``_trace_hook`` here and ``_trace`` on every port, so the
        #: per-packet paths pay one attribute load, not a chain.
        self._trace_hook = None
        #: Callback invoked on port state changes:
        #: ``callback(device, port, up)``.  The management entity uses
        #: it to emit PI-5 notifications.
        self.port_state_observer: Optional[Callable] = None

    # -- identity ----------------------------------------------------------
    @property
    def nports(self) -> int:
        return self._nports

    @property
    def stats(self) -> Counter:
        """Snapshot of this device's counters (see ``read_counters``)."""
        return read_counters((self,), HOT_COUNTERS)

    # -- tracing -----------------------------------------------------------
    @property
    def trace_hook(self):
        """The installed packet tracer (None when tracing is off)."""
        return self._trace_hook

    @trace_hook.setter
    def trace_hook(self, hook) -> None:
        self._trace_hook = hook
        for port in self.ports:
            port._trace = hook

    @property
    def max_payload_code(self) -> int:
        """Encoded max payload size for the baseline capability."""
        return max(1, self.params.max_payload.bit_length() - 7)

    # -- lifecycle -----------------------------------------------------------
    def power_on(self) -> None:
        self.active = True

    def power_off(self) -> None:
        self.active = False

    # -- traffic ---------------------------------------------------------------
    def handle_rx(self, packet: Packet, port: Port, vc_index: int,
                  tail_lag: float) -> None:
        """Head of ``packet`` arrived at ``port``; subclass decides."""
        raise NotImplementedError

    def inject(self, packet: Packet, port_index: int = 0) -> None:
        """Send a locally generated packet out of ``port_index``."""
        packet.src = packet.src or self.name
        packet.created_at = self.env.now
        self.injected += 1
        if self._trace_hook is not None:
            self._trace_hook("inject", self, port_index, packet)
        self.ports[port_index].send(packet)

    def consume(self, packet: Packet, port: Optional[Port],
                tail_lag: float) -> None:
        """Deliver ``packet`` locally once its tail has arrived."""
        if tail_lag > 0:
            self.env.call_later(tail_lag, self._deliver, packet, port)
        else:
            self._deliver(packet, port)

    def _deliver(self, packet: Packet, port: Optional[Port]) -> None:
        if port is not None:
            Port.release_input(packet)
        if not self.active:
            self._stats.incr("rx_dropped_inactive")
            return
        self.consumed += 1
        if self._trace_hook is not None:
            self._trace_hook(
                "deliver", self,
                port.index if port is not None else None, packet,
            )
        if self.local_handler is not None:
            self.local_handler(packet, port)
        else:
            self._stats.incr("rx_no_handler")

    # -- events ------------------------------------------------------------------
    def on_port_state_change(self, port: Port, up: bool) -> None:
        """A local port changed state (link trained or failed)."""
        self._stats.incr("port_up" if up else "port_down")
        if self.port_state_observer is not None and self.active:
            self.port_state_observer(self, port, up)
