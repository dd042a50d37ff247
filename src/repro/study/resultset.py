"""Tagged, queryable result rows: the :class:`ResultSet` container.

Every execution path — figure sweeps, study scenarios, saturation searches —
ultimately produces *rows*: flat mappings of tag columns (scenario,
topology, pattern, router, vcs, offered rate) and metric columns
(throughput, latency, percentiles, channel load).  :class:`ResultSet` is the
one container those rows live in:

* **filter** — by tag values or an arbitrary predicate;
* **group** — split into (key, ResultSet) groups, preserving row order;
* **pivot** — reshape long rows into a wide table (one row per index value,
  one column per series), which is how figure-style tables are printed;
* **export** — the one cell formatter and every table writer of the
  package: markdown (pipe tables), aligned text (the figure and table
  harnesses), HTML (the run report), JSON and CSV.

Rows are plain dicts and the container is immutable-by-convention: every
transformation returns a new :class:`ResultSet`.  Missing columns read as
``None`` and render as empty cells (a dash in aligned text), so rows of
different shapes (sweep rows and saturation rows) can share one set.
"""

from __future__ import annotations

import csv
import html
import io
import json
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import StudyError


def _format_cell(value, precision: int, none: str = "") -> str:
    if value is None:
        return none
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e6:
            return str(int(value))
        return f"{value:.{precision}f}"
    return str(value)


class ResultSet:
    """An ordered collection of tagged result rows.

    Parameters
    ----------
    rows:
        Flat mappings; each key becomes a column.
    columns:
        Explicit column order.  Defaults to first-seen order across rows.
    """

    def __init__(self, rows: Sequence[Dict], columns: Optional[Sequence[str]] = None) -> None:
        self._rows: List[Dict] = [dict(row) for row in rows]
        if columns is None:
            seen: Dict[str, None] = {}
            for row in self._rows:
                for key in row:
                    seen.setdefault(key, None)
            columns = list(seen)
        self._columns: List[str] = list(columns)

    # ------------------------------------------------------------------
    @property
    def rows(self) -> List[Dict]:
        """The rows, as copies (mutating them does not alter the set)."""
        return [dict(row) for row in self._rows]

    @property
    def columns(self) -> List[str]:
        return list(self._columns)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Dict]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ResultSet)
                and self._rows == other._rows
                and self._columns == other._columns)

    def __repr__(self) -> str:
        return f"ResultSet({len(self._rows)} row(s), columns={self._columns})"

    def column(self, name: str) -> List:
        """Every row's value for *name* (``None`` where absent)."""
        return [row.get(name) for row in self._rows]

    def distinct(self, name: str) -> List:
        """Unique values of a column, in first-seen order."""
        seen: Dict = {}
        for row in self._rows:
            seen.setdefault(row.get(name), None)
        return list(seen)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def filter(self, predicate: Optional[Callable[[Dict], bool]] = None,
               **tags) -> "ResultSet":
        """Rows matching the predicate and every ``column=value`` tag."""
        def matches(row: Dict) -> bool:
            if predicate is not None and not predicate(dict(row)):
                return False
            return all(row.get(key) == value for key, value in tags.items())

        return ResultSet([row for row in self._rows if matches(row)],
                         columns=self._columns)

    def select(self, *columns: str) -> "ResultSet":
        """Project onto the given columns, in the given order."""
        return ResultSet(
            [{column: row.get(column) for column in columns}
             for row in self._rows],
            columns=list(columns),
        )

    def sort(self, *columns: str) -> "ResultSet":
        """Rows sorted by the given columns (``None`` sorts first)."""
        def key(row: Dict):
            return tuple((row.get(column) is not None, row.get(column))
                         for column in columns)

        return ResultSet(sorted(self._rows, key=key), columns=self._columns)

    def group(self, *keys: str) -> List[Tuple[Tuple, "ResultSet"]]:
        """Split into ``(key values, ResultSet)`` groups, preserving order."""
        grouped: Dict[Tuple, List[Dict]] = {}
        for row in self._rows:
            grouped.setdefault(tuple(row.get(key) for key in keys),
                               []).append(row)
        return [(key, ResultSet(rows, columns=self._columns))
                for key, rows in grouped.items()]

    def reduce(self, value: str, function: Callable[[List], object],
               *keys: str) -> Dict:
        """``function`` over the *value* column of every :meth:`group`.

        ``reduce("throughput", max, "display_name")`` is each router's
        saturation throughput along its sweep.  The result maps the group's
        key value (a tuple of them for several *keys*) to the reduction.
        """
        return {key[0] if len(keys) == 1 else key:
                function(group.column(value))
                for key, group in self.group(*keys)}

    def pivot(self, index: str, series: str, value: str,
              index_label: Optional[str] = None) -> "ResultSet":
        """Reshape to one row per *index* value, one column per *series*.

        ``pivot("offered_rate", "router", "throughput")`` turns long sweep
        rows into the figure shape: a rate column plus one throughput column
        per router.  Raises :class:`StudyError` when two rows collide on the
        same (index, series) cell — that means the caller forgot to filter
        on another tag axis first.
        """
        index_label = index_label or index
        series_names = [name for name in self.distinct(series)
                        if name is not None]
        table: Dict[object, Dict] = {}
        for row in self._rows:
            if row.get(series) is None:
                continue
            cell = table.setdefault(row.get(index),
                                    {index_label: row.get(index)})
            name = str(row[series])
            if name in cell:
                raise StudyError(
                    f"pivot({index!r}, {series!r}, {value!r}): duplicate "
                    f"cell for {index}={row.get(index)!r}, "
                    f"{series}={name!r}; filter the other axes first"
                )
            cell[name] = row.get(value)
        return ResultSet(
            list(table.values()),
            columns=[index_label] + [str(name) for name in series_names],
        )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_markdown(self, columns: Optional[Sequence[str]] = None,
                    precision: int = 3) -> str:
        """A GitHub-style pipe table of the rows.

        *columns* defaults to every column that has at least one non-``None``
        value, in column order.
        """
        if columns is None:
            columns = [column for column in self._columns
                       if any(row.get(column) is not None
                              for row in self._rows)] or self._columns
        lines = ["| " + " | ".join(str(column) for column in columns) + " |",
                 "|" + "|".join(" --- " for _ in columns) + "|"]
        for row in self._rows:
            cells = [_format_cell(row.get(column), precision)
                     for column in columns]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines)

    def to_text(self, columns: Optional[Sequence[str]] = None,
                title: Optional[str] = None, precision: int = 2) -> str:
        """An aligned text table with a header rule (``None`` prints ``-``)."""
        columns = list(columns) if columns is not None else self._columns
        table = [[str(column) for column in columns]] + [
            [_format_cell(row.get(column), precision, none="-")
             for column in columns] for row in self._rows]
        widths = [max(len(line[index]) for line in table)
                  for index in range(len(columns))]
        table.insert(1, ["-" * width for width in widths])
        lines = [title, "=" * len(title)] if title else []
        lines.extend("  ".join(cell.ljust(width) for cell, width
                               in zip(line, widths)).rstrip()
                     for line in table)
        return "\n".join(lines)

    def to_html(self, columns: Optional[Sequence[str]] = None,
                caption: str = "", precision: int = 3) -> str:
        """An HTML ``<table>`` of the rows, every cell escaped."""
        columns = list(columns) if columns is not None else self._columns
        parts = ["<table>"]
        if caption:
            parts.append(f"<caption>{html.escape(caption)}</caption>")
        parts.append("<thead><tr>" + "".join(
            f"<th>{html.escape(str(column))}</th>" for column in columns)
            + "</tr></thead><tbody>")
        for row in self._rows:
            parts.append("<tr>" + "".join(
                f"<td>{html.escape(_format_cell(row.get(column), precision))}"
                f"</td>" for column in columns) + "</tr>")
        parts.append("</tbody></table>")
        return "".join(parts)

    def to_json(self, indent: int = 2) -> str:
        """The rows as a JSON array of objects."""
        return json.dumps(self._rows, indent=indent, sort_keys=True)

    def to_csv(self, columns: Optional[Sequence[str]] = None) -> str:
        """The rows as CSV with a header line."""
        columns = list(columns) if columns is not None else self._columns
        stream = io.StringIO()
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        for row in self._rows:
            writer.writerow(["" if row.get(column) is None else row.get(column)
                             for column in columns])
        return stream.getvalue()

    # ------------------------------------------------------------------
    def merged(self, other: "ResultSet") -> "ResultSet":
        """Concatenate two sets (columns union, first-seen order)."""
        columns = list(self._columns)
        for column in other._columns:
            if column not in columns:
                columns.append(column)
        return ResultSet(self._rows + other._rows, columns=columns)


def degradation(results: ResultSet) -> ResultSet:
    """Every faulty saturate row of *results* against its fault-free twin.

    One row per row whose ``faults`` is not ``"none"``: the saturation
    throughput it reached and the share of its twin's it ``retained`` — the
    twin being the same (scenario, topology, pattern, router) under
    ``faults == "none"`` — or ``n/a`` without a twin of positive
    throughput.  This is the paper's robustness question (how gracefully
    does each router degrade as links fail?) as a table; empty when no row
    ran under faults.
    """
    shown = ("scenario", "topology", "pattern", "display_name", "faults",
             "saturation_throughput")

    def twin(row: Dict) -> Tuple:
        return tuple(row.get(column) for column in
                     ("scenario", "topology", "pattern", "router"))

    faulty, baselines = [], {}
    for row in results:
        if row.get("faults", "none") == "none":
            baselines[twin(row)] = row.get("saturation_throughput")
        else:
            faulty.append(row)
    rows = []
    for row in faulty:
        baseline = baselines.get(twin(row))
        retained = f"{100.0 * row['saturation_throughput'] / baseline:.1f}%" \
            if baseline and baseline > 0 else "n/a"
        rows.append({**{column: row.get(column) for column in shown},
                     "retained": retained})
    return ResultSet(rows, columns=shown + ("retained",))
