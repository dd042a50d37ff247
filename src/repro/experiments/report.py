"""Plain-text rendering of experiment results.

Every table and figure harness returns structured data; this module turns it
into aligned text tables so ``pytest benchmarks/ --benchmark-only`` output
(and the examples) shows the same rows the paper prints, ready to paste into
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence


def format_value(value, precision: int = 2) -> str:
    """Format a cell: numbers to *precision* decimals, None as a dash."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e6:
            return str(int(value))
        return f"{value:.{precision}f}"
    return str(value)


def render_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: Optional[str] = None, precision: int = 2) -> str:
    """Render an aligned text table with a header rule."""
    formatted_rows: List[List[str]] = [
        [format_value(cell, precision) for cell in row] for row in rows
    ]
    columns = len(headers)
    widths = [len(str(header)) for header in headers]
    for row in formatted_rows:
        if len(row) != columns:
            raise ValueError(
                f"row has {len(row)} cells but the table has {columns} columns"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[index])
                         for index, cell in enumerate(cells)).rstrip()

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(render_row([str(header) for header in headers]))
    lines.append(render_row(["-" * width for width in widths]))
    for row in formatted_rows:
        lines.append(render_row(row))
    return "\n".join(lines)


def render_pivot(results, index: str, series: str, value: str,
                 x_label: Optional[str] = None,
                 title: Optional[str] = None, precision: int = 3) -> str:
    """Render a :class:`~repro.study.resultset.ResultSet` as a series table.

    Pivots long result rows (one per simulated point) into the figure shape
    — one *index* column plus one column per *series* value — and renders
    it with :func:`render_table`.
    """
    pivoted = results.pivot(index, series, value,
                            index_label=x_label or index)
    headers = pivoted.columns
    rows = [[row.get(column) for column in headers] for row in pivoted]
    return render_table(headers, rows, title=title, precision=precision)


def runner_summary(runner) -> str:
    """One-line account of what the experiment runner actually did.

    Shows how many sweep points were simulated versus served from the
    result cache, so benchmark output makes cache hits visible (a fully
    warm figure reports ``0 simulated``).
    """
    report = runner.total_report
    parts = [
        f"{report.points_total} task(s)",
        f"{report.points_simulated} executed",
        f"{report.cache_hits} from cache",
        f"{runner.workers} worker(s)",
    ]
    if report.batch_groups:
        parts.insert(3, f"{report.batch_groups} batched group(s)")
    if runner.cache is not None:
        parts.append(f"cache at {runner.cache.directory}")
    return ", ".join(parts)


def improvement_summary(values: Dict[str, float], subject: str,
                        higher_is_better: bool = True) -> str:
    """One-line summary: how the subject compares to the best of the rest."""
    if subject not in values:
        return f"{subject}: no data"
    others = {name: value for name, value in values.items() if name != subject}
    if not others:
        return f"{subject}: {values[subject]:.3f} (no baselines)"
    subject_value = values[subject]
    if higher_is_better:
        best_other = max(others.values())
        gain = (subject_value - best_other) / best_other if best_other else 0.0
        direction = "higher" if gain >= 0 else "lower"
    else:
        best_other = min(others.values())
        gain = (best_other - subject_value) / best_other if best_other else 0.0
        direction = "lower" if gain >= 0 else "higher"
    return (
        f"{subject} = {subject_value:.3f}, best baseline = {best_other:.3f} "
        f"({abs(gain) * 100:.0f}% {direction})"
    )
