"""Adversarial sweep: every example generated from rough tables (blank and
unparseable cells, value collisions across columns, coarse dates, missing
column kinds) must survive both independent interpreters."""

import pytest

from roughgen import rough_table
from tabrc import oracle
from tabrc.facts import FactKind, FactPool, build_context
from tabrc.generators import GeneratorKind, derive_seed, generate
from tabrc.tables import IngestError, ingest, raw_table_from_json

SEED = 77


def _tables(count):
    out = []
    for i in range(count):
        try:
            out.append(ingest(raw_table_from_json(rough_table(i, seed=9))))
        except IngestError:
            continue
    return out


@pytest.mark.parametrize("batch", range(4))
def test_rough_tables_survive_both_interpreters(batch):
    tables = _tables(60)[batch::4]
    assert tables
    checked = 0
    for table in tables:
        pool = FactPool(table)
        for kind in GeneratorKind:
            for triplet in generate(table, kind, SEED, cap=6):
                question = triplet.instantiation.question
                query = oracle.parse_question(table, kind, question)
                result = oracle.table_answer(table, query)
                assert result is not None, question
                assert result[0] is triplet.answer.kind
                assert oracle.answers_match(kind, triplet.answer.values, result[1]), question

                ctx = build_context(pool, triplet.gold,
                                    derive_seed(SEED, table.meta.id, kind.value, question))
                gold = [f.text for f in ctx.facts if f.kind is FactKind.GOLD]
                for texts in (gold, [f.text for f in ctx.facts]):
                    got = oracle.facts_answer(query, texts)
                    assert got is not None, question
                    assert oracle.answers_match(kind, triplet.answer.values, got[1]), question
                checked += 1
    assert checked > 200


def test_regex_metacharacters_in_names_and_titles():
    record = {
        "id": "weird",
        "page_title": "Lines (2020) [draft]",
        "table_title": "Sheet A.1 (v2)",
        "header": ["Name (full)", "Area km^2", "Zone+Code", "Date *checked*"],
        "rows": [[f"Item {i}", str(100 + i * 3), f"Z{i % 3}", f"{1 + i} March {1990 + i}"]
                 for i in range(12)],
    }
    table = ingest(raw_table_from_json(record))
    seen = 0
    for kind in GeneratorKind:
        for triplet in generate(table, kind, seed=5, cap=8):
            query = oracle.parse_question(table, kind, triplet.instantiation.question)
            result = oracle.table_answer(table, query)
            assert result is not None
            assert oracle.answers_match(kind, triplet.answer.values, result[1])
            seen += 1
    assert seen > 50
