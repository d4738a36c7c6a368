"""Analytical model of the discovery pipelines (paper Fig. 7(b)).

Fig. 7(b) sketches the "ideal" serial and parallel behaviours:

* **Serial**: the FM processes one packet (``T_FM``), the request
  propagates (``T_Prop``), the device serves it (``T_Device``), and the
  response propagates back (``T_Prop``) — all strictly one after
  another, so each packet costs ``T_FM + 2 T_Prop + T_Device``.
* **Parallel**: the round trips overlap with FM processing — as long as
  a response is always waiting, each packet costs only ``T_FM``.

These closed forms both explain the constant slopes in Fig. 7(a) and
predict when device speed matters (Fig. 8(b)): the Parallel pipeline is
insensitive to ``T_Device`` until devices are so slow that
``T_Device + 2 T_Prop > (outstanding - 1) x T_FM`` and the FM runs dry.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fabric.params import DEFAULT_PARAMS, FabricParams
from ..manager.timing import (
    PARALLEL,
    SERIAL_DEVICE,
    SERIAL_PACKET,
    ProcessingTimeModel,
)
from ..topology.spec import TopologySpec

#: Mean path length of a discovery packet, in hops.  A guess: ROADMAP
#: item 3 derives it per request from the topology's spec.
HOPS = 3.0

#: Mean wire size of a discovery packet, in bytes.  A guess, to be
#: derived from the spec as :data:`HOPS` is.
PACKET_BYTES = 48.0

#: Mean port reads per device in the Serial Device prediction.  A
#: guess, to be derived from the spec as :data:`HOPS` is.
MEAN_PORTS = 8.0


@dataclass
class PipelineModel:
    """Closed-form per-packet periods and discovery-time predictions."""

    t_fm: float
    t_device: float
    t_prop: float

    @classmethod
    def from_parameters(cls, timing: ProcessingTimeModel,
                        algorithm: str,
                        known_devices: int = 0,
                        params: FabricParams = DEFAULT_PARAMS,
                        ) -> "PipelineModel":
        """Build the model from simulation parameters.

        The one-way propagation term is the serialization of a
        :data:`PACKET_BYTES` packet plus :data:`HOPS` hops of latency.
        """
        t_prop = (
            params.tx_time(PACKET_BYTES)
            + HOPS * (params.routing_latency + params.propagation_delay)
        )
        return cls(
            t_fm=timing.fm_time(algorithm, known_devices),
            t_device=timing.device_processing_time(),
            t_prop=t_prop,
        )

    # -- per-packet periods (the Fig. 7(a) slopes) ---------------------------
    @property
    def serial_period(self) -> float:
        """Per-packet time of a strictly serialized discovery."""
        return self.t_fm + 2 * self.t_prop + self.t_device

    @property
    def parallel_period(self) -> float:
        """Per-packet time when round trips overlap FM processing."""
        return self.t_fm

    # -- discovery-time predictions -----------------------------------------
    def predict(self, algorithm: str, n_packets: int) -> float:
        """Predicted discovery time for ``n_packets`` completions."""
        if algorithm == SERIAL_PACKET:
            return n_packets * self.serial_period
        if algorithm == PARALLEL:
            # One pipeline fill, then FM-bound.
            return self.serial_period + (n_packets - 1) * self.parallel_period
        if algorithm == SERIAL_DEVICE:
            # Between serial and parallel: the port phase pipelines,
            # the per-device general reads serialize.  With an average
            # of p port reads per general read, a fraction 1/(p+1) of
            # packets pay the full round trip.
            return self.predict_serial_device(n_packets)
        raise ValueError(f"unknown algorithm {algorithm!r}")

    def predict_serial_device(self, n_packets: int) -> float:
        """Serial Device prediction with :data:`MEAN_PORTS` reads per
        device."""
        serial_fraction = 1.0 / (MEAN_PORTS + 1.0)
        period = (
            serial_fraction * self.serial_period
            + (1 - serial_fraction) * self.parallel_period
        )
        return n_packets * period

    def device_speed_knee(self, outstanding: float) -> float:
        """T_Device beyond which Parallel starts feeling device speed.

        With ``outstanding`` requests in flight, the FM stays busy while
        ``T_Device + 2 T_Prop <= (outstanding - 1) x T_FM`` (Fig. 8(b):
        "only when devices are too much slow ... the discovery time is
        affected").
        """
        return max(0.0, (outstanding - 1) * self.t_fm - 2 * self.t_prop)


def expected_packets(spec: TopologySpec) -> int:
    """Discovery packet count (requests) for a fully active topology.

    Every device costs one port read per port; general reads happen
    once per *directed exploration arc*: one for the FM's own endpoint
    plus one per (device, active non-ingress port) pair — i.e. one per
    direction of every inter-device link, minus one per device for the
    ingress of its first discovery.
    """
    ports_per_device = {name: n for name, n in spec.switches}
    ports_per_device.update({name: 1 for name in spec.endpoints})
    port_reads = sum(ports_per_device.values())
    # Each link contributes two directed arcs; each device other than
    # the FM host consumes one arc as its (single) ingress when first
    # discovered; re-discoveries through remaining arcs cost one
    # general read each.  The FM endpoint adds its own general read.
    arcs = 2 * len(spec.links)
    devices = spec.total_devices
    general_reads = 1 + (arcs - (devices - 1))
    return port_reads + general_reads
