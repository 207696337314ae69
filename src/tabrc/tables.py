"""Ingestion of raw table records into typed, shape-filtered tables.

Input is one JSON object per line with fields id, page_title, table_title,
header and rows (and an optional category). Tables outside the shape bounds
(at least two columns, 10 to 25 rows by default) are rejected, as are ragged
rows, duplicate column names and structurally malformed records. Accepted
tables get per-column semantic types and parsed cell values.

Everything here is immutable after construction and ingestion is pure per
record, so records may be processed concurrently without shared state.
"""

from __future__ import annotations

from decimal import Decimal
from typing import NamedTuple

from .values import Date, NotADate, NotANumber, SemanticType, annotate_column, parse_date, parse_number

MIN_ROWS = 10
MAX_ROWS = 25
MIN_COLS = 2


class IngestError(Exception):
    """Base class for per-record rejections. Carries a stable reason code."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
        self.detail = detail


class MalformedRecord(IngestError):
    """Structurally broken record: missing fields, ragged rows, duplicates."""


class ShapeRejected(IngestError):
    """Table outside the row/column bounds."""


class RawTable(NamedTuple):
    id: str
    page_title: str
    table_title: str
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    category: str | None = None


class TableMeta(NamedTuple):
    id: str
    page_title: str
    table_title: str
    category: str | None = None


class CellValue(NamedTuple):
    """Cell text plus its parse under the owning column's type.

    `raw` is the cell text with surrounding whitespace stripped at ingest.
    `parsed` is a Decimal for NUMBER columns, a Date for DATE columns, the
    stripped text for STRING columns, and None when the cell is empty or does
    not parse under the column type (such cells are skipped downstream).
    """

    raw: str
    parsed: Decimal | Date | str | None


def raw_table_from_json(obj: object) -> RawTable:
    """Validate one decoded JSON record into a RawTable."""
    if not isinstance(obj, dict):
        raise MalformedRecord("malformed", "record is not an object")
    try:
        table_id = obj["id"]
        page_title = obj["page_title"]
        table_title = obj["table_title"]
        header = obj["header"]
        rows = obj["rows"]
    except KeyError as exc:
        raise MalformedRecord("malformed", f"missing field {exc.args[0]}") from None

    for name, value in (("id", table_id), ("page_title", page_title), ("table_title", table_title)):
        if not isinstance(value, str) or not value:
            raise MalformedRecord("malformed", f"{name} must be a non-empty string")
    category = obj.get("category")
    if category is not None and not isinstance(category, str):
        raise MalformedRecord("malformed", "category must be a string")

    if not isinstance(header, list) or not header:
        raise MalformedRecord("malformed", "header must be a non-empty list")
    if not all(isinstance(name, str) and name.strip() for name in header):
        raise MalformedRecord("malformed", "column names must be non-empty strings")
    if not isinstance(rows, list):
        raise MalformedRecord("malformed", "rows must be a list")
    width = len(header)
    checked_rows = []
    for row in rows:
        if not isinstance(row, list) or not all(isinstance(cell, str) for cell in row):
            raise MalformedRecord("malformed", "rows must be lists of strings")
        if len(row) != width:
            raise MalformedRecord("ragged", f"row has {len(row)} cells, header has {width}")
        checked_rows.append(tuple(row))
    # JSON can escape a lone surrogate (\ud800), which UTF-8 output cannot encode.
    try:
        "".join([table_id, page_title, table_title, category or "", *header,
                 *(cell for row in checked_rows for cell in row)]).encode("utf-8")
    except UnicodeEncodeError:
        raise MalformedRecord("malformed", "text holds a lone surrogate") from None
    return RawTable(
        id=table_id,
        page_title=page_title,
        table_title=table_title,
        header=tuple(header),
        rows=tuple(checked_rows),
        category=category,
    )


def _normalize_name(name: str) -> str:
    return " ".join(name.split())


class TypedTable:
    """A typed, immutable view of one accepted table.

    Precomputes per-column value groupings used heavily by the example
    generators: `groups(c)` maps each non-empty raw value in column c to the
    tuple of row indices that hold it, in row order.
    """

    def __init__(self, meta: TableMeta, columns: tuple[tuple[str, SemanticType], ...],
                 cells: tuple[tuple[CellValue, ...], ...]):
        self.meta = meta
        self.columns = columns
        self.cells = cells
        self.n_rows = len(cells)
        self.n_cols = len(columns)
        self.column_names = tuple(name for name, _ in columns)
        self._groups: list[dict[str, tuple[int, ...]]] = []
        for c in range(self.n_cols):
            grouped: dict[str, list[int]] = {}
            for r in range(self.n_rows):
                raw = self.raw(r, c)
                if raw:
                    grouped.setdefault(raw, []).append(r)
            self._groups.append({value: tuple(rows) for value, rows in grouped.items()})

    def column_type(self, c: int) -> SemanticType:
        return self.columns[c][1]

    def column_name(self, c: int) -> str:
        return self.columns[c][0]

    def column_index(self, name: str) -> int:
        return self.column_names.index(name)

    def raw(self, r: int, c: int) -> str:
        return self.cells[r][c].raw

    def parsed(self, r: int, c: int) -> Decimal | Date | str | None:
        return self.cells[r][c].parsed

    def groups(self, c: int) -> dict[str, tuple[int, ...]]:
        return self._groups[c]

    def unique_values(self, c: int) -> list[tuple[str, int]]:
        """(value, row) pairs for values occurring in exactly one row."""
        return [(value, rows[0]) for value, rows in self._groups[c].items() if len(rows) == 1]

    def rows_with(self, c: int, value: str) -> tuple[int, ...]:
        return self._groups[c].get(value, ())

    def number_columns(self) -> list[int]:
        return [c for c in range(self.n_cols) if self.column_type(c) is SemanticType.NUMBER]

    def date_columns(self) -> list[int]:
        return [c for c in range(self.n_cols) if self.column_type(c) is SemanticType.DATE]

    def event_date_column(self) -> int | None:
        """The leftmost DATE column; used as the event time of a row."""
        dates = self.date_columns()
        return dates[0] if dates else None


def _parse_cell(raw: str, kind: SemanticType) -> CellValue:
    text = raw.strip()
    if not text:
        return CellValue(text, None)
    if kind is SemanticType.NUMBER:
        try:
            return CellValue(text, parse_number(text))
        except NotANumber:
            return CellValue(text, None)
    if kind is SemanticType.DATE:
        try:
            return CellValue(text, parse_date(text))
        except NotADate:
            return CellValue(text, None)
    return CellValue(text, text)


def ingest(raw: RawTable, min_rows: int = MIN_ROWS, max_rows: int = MAX_ROWS) -> TypedTable:
    """Type-annotate and shape-filter one raw table.

    Raises ShapeRejected for tables outside the bounds and MalformedRecord
    for duplicate column names.
    """
    if len(raw.header) < MIN_COLS or not min_rows <= len(raw.rows) <= max_rows:
        raise ShapeRejected(
            "shape", f"{len(raw.header)} columns x {len(raw.rows)} rows outside bounds"
        )
    normalized = [_normalize_name(name) for name in raw.header]
    if len(set(normalized)) != len(normalized):
        raise MalformedRecord("duplicate_columns", "column names collide after whitespace normalization")

    columns = []
    for c, name in enumerate(normalized):
        kind = annotate_column([row[c] for row in raw.rows])
        columns.append((name, kind))

    cells = tuple(
        tuple(_parse_cell(row[c], columns[c][1]) for c in range(len(columns)))
        for row in raw.rows
    )
    meta = TableMeta(raw.id, raw.page_title, raw.table_title, raw.category)
    return TypedTable(meta, tuple(columns), cells)

