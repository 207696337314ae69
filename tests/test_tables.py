import pytest

from fixtures import CHELSEA
from tabrc.tables import (
    MalformedRecord,
    ShapeRejected,
    ingest,
    raw_table_from_json,
)
from tabrc.values import SemanticType


def small_table(n_rows=10, n_cols=2, **overrides):
    record = {
        "id": "t1",
        "page_title": "Page",
        "table_title": "Table",
        "header": [f"Col{i}" for i in range(n_cols)],
        "rows": [[f"r{r}c{c}" for c in range(n_cols)] for r in range(n_rows)],
    }
    record.update(overrides)
    return record


class TestRawTable:
    def test_round_trip(self):
        raw = raw_table_from_json(small_table())
        assert raw.id == "t1"
        assert len(raw.rows) == 10

    def test_ragged_rows_rejected(self):
        record = small_table()
        record["rows"][3] = ["only one cell"]
        with pytest.raises(MalformedRecord) as exc:
            raw_table_from_json(record)
        assert exc.value.reason == "ragged"

    def test_missing_field(self):
        record = small_table()
        del record["header"]
        with pytest.raises(MalformedRecord):
            raw_table_from_json(record)

    def test_empty_column_name(self):
        with pytest.raises(MalformedRecord):
            raw_table_from_json(small_table(header=["A", " "]))

    def test_category_passthrough(self):
        raw = raw_table_from_json(small_table(category="Sport"))
        assert raw.category == "Sport"


class TestIngest:
    def test_chelsea_accepted(self):
        table = ingest(raw_table_from_json(CHELSEA))
        assert table.n_rows == 13
        assert table.n_cols == 5
        types = dict(zip(table.column_names, table.column_types))
        assert types["Round"] is SemanticType.STRING
        assert types["Date"] is SemanticType.DATE
        assert types["Attendance"] is SemanticType.NUMBER

    def test_header_only_table_accepted_at_min_rows_zero(self):
        table = ingest(raw_table_from_json(dict(CHELSEA, rows=[])), min_rows=0)
        assert (table.n_rows, table.n_cols) == (0, 5)
        assert all(table.column(c) == () and table.groups(c) == {} for c in range(5))
        assert table.event_date_column is None

    def test_nine_rows_rejected(self):
        with pytest.raises(ShapeRejected):
            ingest(raw_table_from_json(small_table(n_rows=9)))

    def test_boundary_rows_accepted(self):
        assert ingest(raw_table_from_json(small_table(n_rows=10))).n_rows == 10
        assert ingest(raw_table_from_json(small_table(n_rows=25))).n_rows == 25
        with pytest.raises(ShapeRejected):
            ingest(raw_table_from_json(small_table(n_rows=26)))

    def test_single_column_rejected(self):
        with pytest.raises(ShapeRejected):
            ingest(raw_table_from_json(small_table(n_cols=1)))

    def test_duplicate_columns_rejected(self):
        record = small_table(header=["Name", "Name  "])
        with pytest.raises(MalformedRecord) as exc:
            ingest(raw_table_from_json(record))
        assert exc.value.reason == "duplicate_columns"

    def test_unparseable_cell_in_typed_column_is_skipped(self):
        record = small_table(n_cols=2)
        for r, row in enumerate(record["rows"]):
            row[1] = str(100 + r)
        record["rows"][0][1] = "n/a"
        table = ingest(raw_table_from_json(record))
        assert table.column_types[1] is SemanticType.NUMBER
        assert table.parsed(0, 1) is None
        assert table.parsed(1, 1) is not None

    def test_groups_in_row_order(self):
        table = ingest(raw_table_from_json(CHELSEA))
        opponent = table.column_index("Opponent")
        assert table.groups(opponent)["Walsall"] == (4, 5)

