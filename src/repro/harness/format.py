"""Plain-text table rendering for harness output."""

from __future__ import annotations

from typing import Any, List, Sequence


def render_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[Any]]) -> str:
    """Monospace table with a title line, aligned columns, and a rule."""
    cells: List[List[str]] = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def pct(fraction: float) -> str:
    """Render a fraction as a whole percentage, like the paper's tables."""
    return f"{100 * fraction:.0f}%"


def markdown_table(headers: Sequence[str],
                   rows: Sequence[Sequence[Any]]) -> str:
    """GitHub-flavoured markdown table (for EXPERIMENTS.md)."""
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(_fmt(v) for v in row) + " |")
    return "\n".join(out)


def race_report_lines(result) -> List[str]:
    """Canonical race-report lines for a finished run: one line per
    :class:`~repro.core.report.RaceReport`, sorted.

    This is the comparison format everywhere reports are diffed — the CLI
    ``--report`` file, ``scripts/smoke.py``, and the equivalence suites
    (record/replay, sharded-vs-centralized, crash-vs-crash-free) — so a
    byte-identical claim always means the same bytes."""
    return sorted(str(race) for race in result.races)
