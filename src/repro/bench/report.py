"""Plain-text table formatting for bench output (paper-vs-measured rows)."""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence, Tuple

__all__ = ["format_table", "format_records", "format_bytes", "format_seconds"]


def format_bytes(nbytes: float) -> str:
    """Human units matching the paper's figures (GB / MB / KB)."""
    value = float(nbytes)
    for unit, scale in (("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if value >= scale:
            return f"{value / scale:.2f} {unit}"
    return f"{value:.0f} B"


def format_seconds(seconds: float) -> str:
    if seconds >= 100:
        return f"{seconds:.0f} s"
    if seconds >= 1:
        return f"{seconds:.2f} s"
    return f"{seconds * 1e3:.1f} ms"


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Monospace table with right-aligned numeric-looking cells."""
    text_rows: List[List[str]] = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        out = []
        for i, cell in enumerate(cells):
            if _numericish(cell):
                out.append(cell.rjust(widths[i]))
            else:
                out.append(cell.ljust(widths[i]))
        return "| " + " | ".join(out) + " |"

    divider = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    lines = [fmt_row(list(headers)), divider]
    lines.extend(fmt_row(row) for row in text_rows)
    return "\n".join(lines)


def format_records(
    columns: Sequence[Tuple[str, str, str]],
    records: Iterable[Mapping[str, object]],
) -> str:
    """:func:`format_table` over dict records (the rows of a suite's doc).

    One ``(header, key, format spec)`` per column, so a column's title
    and its cell formatting are declared together; booleans render as
    ``yes`` / ``NO``.
    """
    return format_table(
        [header for header, _, _ in columns],
        [[_cell(record[key], spec) for _, key, spec in columns] for record in records],
    )


def _cell(value: object, spec: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "NO"
    return format(value, spec)


def _numericish(cell: str) -> bool:
    stripped = cell.replace(",", "").replace("%", "").replace("x", "")
    stripped = stripped.replace(" GB", "").replace(" MB", "").replace(" KB", "")
    stripped = stripped.replace(" B", "").replace(" s", "").replace(" ms", "")
    try:
        float(stripped)
        return True
    except ValueError:
        return False
