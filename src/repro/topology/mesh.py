"""2-D mesh topologies.

The paper's meshes use 16-port switches arranged in a rows x cols grid
with one endpoint attached to every switch (Table 1: equal switch and
endpoint counts).  Switch port assignment::

    port 0: north   port 1: east   port 2: south   port 3: west
    port 4: local endpoint
"""

from __future__ import annotations

from .spec import TopologySpec

PORT_NORTH = 0
PORT_EAST = 1
PORT_SOUTH = 2
PORT_WEST = 3
PORT_ENDPOINT = 4


def switch_name(row: int, col: int) -> str:
    return f"sw_{row}_{col}"


def endpoint_name(row: int, col: int) -> str:
    return f"ep_{row}_{col}"


def make_mesh(rows: int, cols: int, switch_ports: int = 16) -> TopologySpec:
    """Build a ``rows x cols`` mesh specification."""
    if rows < 1 or cols < 1:
        raise ValueError("mesh dimensions must be positive")
    return grid(rows, cols, switch_ports, "mesh", wrap=False)


def grid(rows: int, cols: int, switch_ports: int, family: str,
         wrap: bool) -> TopologySpec:
    """A ``rows x cols`` grid of switches with one endpoint each; with
    ``wrap`` every row and column closes into a ring (a torus)."""
    if switch_ports < 5:
        raise ValueError(f"{family} switches need at least 5 ports")
    spec = TopologySpec(name=f"{rows}x{cols} {family}", family=family)
    for r in range(rows):
        for c in range(cols):
            spec.switches.append((switch_name(r, c), switch_ports))
            spec.endpoints.append(endpoint_name(r, c))
            spec.links.append(
                (endpoint_name(r, c), 0, switch_name(r, c), PORT_ENDPOINT)
            )
    for r in range(rows):
        for c in range(cols):
            if wrap or c + 1 < cols:  # east neighbour
                spec.links.append(
                    (switch_name(r, c), PORT_EAST,
                     switch_name(r, (c + 1) % cols), PORT_WEST)
                )
            if wrap or r + 1 < rows:  # south neighbour
                spec.links.append(
                    (switch_name(r, c), PORT_SOUTH,
                     switch_name((r + 1) % rows, c), PORT_NORTH)
                )
    spec.fm_host = endpoint_name(0, 0)
    spec.validate()
    return spec
