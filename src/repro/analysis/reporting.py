"""Plain-text rendering of experiment results.

Every experiment module returns structured rows; these helpers render them
as aligned text tables so the benchmark harness can print the same rows and
series the paper's figures show.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str],
    title: str | None = None,
    float_format: str = "{:.4f}",
) -> str:
    """Render ``rows`` (dicts) as an aligned text table with ``columns``."""
    if not columns:
        raise ValueError("at least one column is required")

    def render(value: object) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    header = list(columns)
    body = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
        for i in range(len(columns))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header[i].ljust(widths[i]) for i in range(len(columns))))
    lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    for line in body:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)
