"""2-D torus topologies: meshes with wrap-around rings in both axes.

Port assignment matches :mod:`repro.topology.mesh` (north/east/south/
west plus the endpoint port), with the wrap links closing each row and
column into rings.
"""

from __future__ import annotations

from .mesh import grid
from .spec import TopologySpec


def make_torus(rows: int, cols: int, switch_ports: int = 16) -> TopologySpec:
    """Build a ``rows x cols`` torus specification.

    A dimension of size 2 would create a double link between the same
    pair of switches (the mesh link plus the wrap link); since each is
    wired to distinct ports that is legal, but sizes of 1 are rejected
    (self-links are not).
    """
    if rows < 2 or cols < 2:
        raise ValueError("torus dimensions must be at least 2")
    return grid(rows, cols, switch_ports, "torus", wrap=True)
