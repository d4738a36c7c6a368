"""Plain-text rendering of experiment tables and series.

``repro table1`` and ``repro figure`` print the paper's tables and
figures as ASCII; these helpers keep the formatting consistent and
dependency-free.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple


def format_value(value) -> str:
    """Human-friendly scalar formatting (SI-ish for small floats)."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 1e-3:
            return f"{value * 1e6:.2f}u"
        if abs(value) < 1:
            return f"{value * 1e3:.3f}m"
        return f"{value:.4g}"
    return str(value)


def render_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render rows as a fixed-width ASCII table."""
    str_rows = [[format_value(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def render_series(title: str, xlabel: str, ylabel: str,
                  series: Dict[str, List[Tuple[float, float]]]) -> str:
    """Render named (x, y) series as aligned columns.

    X values are unioned across series; missing points show as "-".
    """
    xs = sorted({x for points in series.values() for x, _ in points})
    by_name = {
        name: {x: y for x, y in points} for name, points in series.items()
    }
    headers = [xlabel] + list(series)
    rows = []
    for x in xs:
        row = [x]
        for name in series:
            y = by_name[name].get(x)
            row.append("-" if y is None else y)
        rows.append(row)
    body = render_table(headers, rows)
    return f"{title}  (y = {ylabel})\n{body}"


def render_phase_breakdown(rows: Sequence[dict], title: str = "") -> str:
    """ASCII table of per-phase discovery-time breakdowns.

    ``rows`` are :func:`repro.obs.breakdown.discovery_phase_breakdown`
    dicts; by construction ``claim + port_read + other == total``
    (route distribution runs after the measured window and is its own
    column).
    """
    headers = ("span", "algorithm", "trigger", "claim", "port_read",
               "other", "total", "coverage", "routes")
    table = render_table(headers, [
        (
            row["name"], row["algorithm"], row["trigger"],
            row["claim"], row["port_read"], row["other"], row["total"],
            f"{row['coverage'] * 100:.1f}%", row["route_distribution"],
        )
        for row in rows
    ])
    return f"{title}\n{table}" if title else table


def render_kv(title: str, mapping: Dict[str, object]) -> str:
    """Render a labelled key/value block."""
    width = max((len(k) for k in mapping), default=0)
    lines = [title]
    for key, value in mapping.items():
        lines.append(f"  {key.ljust(width)} : {format_value(value)}")
    return "\n".join(lines)
