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

from .values import Date, SemanticType, annotate_column

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
    """A typed, immutable table, kept by column.

    Column c has a name, a semantic type, its cells' texts (stripped at
    ingest) and their parses under the type: a Decimal for NUMBER, a Date for
    DATE, the text for STRING, and None for a cell that is empty or does not
    parse (such cells are skipped downstream). `groups(c)` maps each
    non-empty text in column c to the tuple of rows that hold it, in row
    order; the example generators lean on it heavily.
    """

    def __init__(self, meta: TableMeta, names: tuple[str, ...], types: tuple[SemanticType, ...],
                 texts: tuple[tuple[str, ...], ...],
                 parses: tuple[tuple[Decimal | Date | str | None, ...], ...]):
        self.meta = meta
        self.column_names = names
        self.column_types = types
        self._texts = texts
        self._parses = parses
        self.n_cols = len(names)
        self.n_rows = len(texts[0]) if texts else 0
        self._groups: list[dict[str, tuple[int, ...]]] = []
        for column in texts:
            grouped: dict[str, list[int]] = {}
            for r, text in enumerate(column):
                if text:
                    grouped.setdefault(text, []).append(r)
            self._groups.append({text: tuple(rows) for text, rows in grouped.items()})
        self.number_columns = tuple(c for c, kind in enumerate(types)
                                    if kind is SemanticType.NUMBER)
        self.date_columns = tuple(c for c, kind in enumerate(types) if kind is SemanticType.DATE)
        # The leftmost DATE column, if any: the event time of a row.
        self.event_date_column = self.date_columns[0] if self.date_columns else None

    def column_name(self, c: int) -> str:
        return self.column_names[c]

    def column_index(self, name: str) -> int:
        return self.column_names.index(name)

    def column(self, c: int) -> tuple[str, ...]:
        """The texts of column c, in row order."""
        return self._texts[c]

    def raw(self, r: int, c: int) -> str:
        return self._texts[c][r]

    def parsed(self, r: int, c: int) -> Decimal | Date | str | None:
        return self._parses[c][r]

    def groups(self, c: int) -> dict[str, tuple[int, ...]]:
        return self._groups[c]

    def unique_values(self, c: int) -> list[tuple[str, int]]:
        """(value, row) pairs for values occurring in exactly one row."""
        return [(value, rows[0]) for value, rows in self._groups[c].items() if len(rows) == 1]

    def rows_with(self, c: int, value: str) -> tuple[int, ...]:
        return self._groups[c].get(value, ())


def ingest(raw: RawTable, min_rows: int = MIN_ROWS, max_rows: int = MAX_ROWS) -> TypedTable:
    """Type-annotate and shape-filter one raw table.

    Raises ShapeRejected for tables outside the bounds and MalformedRecord
    for duplicate column names.
    """
    if len(raw.header) < MIN_COLS or not min_rows <= len(raw.rows) <= max_rows:
        raise ShapeRejected(
            "shape", f"{len(raw.header)} columns x {len(raw.rows)} rows outside bounds"
        )
    names = tuple(_normalize_name(name) for name in raw.header)
    if len(set(names)) != len(names):
        raise MalformedRecord("duplicate_columns", "column names collide after whitespace normalization")

    types, texts, parses = zip(*(annotate_column([row[c] for row in raw.rows])
                                 for c in range(len(names))))
    meta = TableMeta(raw.id, raw.page_title, raw.table_title, raw.category)
    return TypedTable(meta, names, types, tuple(map(tuple, texts)), tuple(map(tuple, parses)))
