#!/usr/bin/env python3
"""Processing-factor study (a small-scale Fig. 8).

Sweeps the FM and device processing-speed factors on a 4x4 mesh and
prints the discovery times, demonstrating the paper's conclusion:
"for faster FM and slower fabric devices, the difference between the
Parallel discovery algorithm and the serial ones increases".

Run:  python examples/processing_factors.py
"""

from repro import make_mesh
from repro.experiments.figures import figure8
from repro.experiments.report import render_series


def main() -> None:
    spec = make_mesh(4, 4)
    print(f"Topology: {spec.name} (all devices active)\n")

    data, _text = figure8(spec, fm_factors=(0.25, 0.5, 1.0, 2.0, 4.0),
                          device_factors=(0.1, 0.2, 0.5, 1.0, 2.0))
    fm_series, dev_series = data["fm_factor"], data["device_factor"]
    print(render_series(
        "Discovery time vs FM processing factor (device factor = 1)",
        "fm_factor", "seconds", fm_series,
    ))

    print()
    print(render_series(
        "Discovery time vs device processing factor (FM factor = 1)",
        "device_factor", "seconds", dev_series,
    ))

    # The paper's corner case: fast FM, slow devices.
    def gap(series, factor):
        by_algo = {name: dict(points) for name, points in series.items()}
        return (by_algo["serial_packet"][factor]
                / by_algo["parallel"][factor])

    print("\nSerial Packet / Parallel time ratio:")
    print(f"  baseline (factor 1)        : {gap(fm_series, 1.0):.2f}x")
    print(f"  FM 4x faster               : {gap(fm_series, 4.0):.2f}x")
    print(f"  devices 5x slower          : {gap(dev_series, 0.2):.2f}x")
    print("\n(Fig. 8: the FM factor scales everyone; the device factor "
          "only hurts the serial algorithms.)")


if __name__ == "__main__":
    main()
