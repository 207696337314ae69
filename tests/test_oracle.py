import datetime
import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import HAND_TABLES, typed
from roughgen import rough_table
from tablegen import make_table
from tabrc import grammar, oracle
from tabrc.facts import FactKind, FactPool, build_context
from tabrc.generators import AnswerKind, GeneratorKind, derive_seed, generate
from tabrc.tables import IngestError, ingest, raw_table_from_json
from tabrc.values import MONTH_NAMES, Date, NotADate, date_difference, parse_date


class TestParseFact:
    def test_singular(self):
        fact = grammar.parse_fact("The Attendance when the Round was QF was 34,178")
        assert fact.subject == "Attendance"
        assert fact.conditions == (("Round", "QF"),)
        assert fact.values == ("34,178",)

    def test_plural_values(self):
        fact = grammar.parse_fact(
            "The attendances when the opponent was Walsall were 5,666 and 10,037")
        assert fact.values == ("5,666", "10,037")

    def test_three_values(self):
        fact = grammar.parse_fact("The scores when the group was A were 1, 2 and 3")
        assert fact.values == ("1", "2", "3")

    def test_combined_conditions(self):
        fact = grammar.parse_fact(
            "The Common name when the Family was Picidae and the Distribution was Okinawa "
            "was Okinawa woodpecker")
        assert fact.conditions == (("Family", "Picidae"), ("Distribution", "Okinawa"))
        assert fact.values == ("Okinawa woodpecker",)

    def test_value_with_internal_was(self):
        fact = grammar.parse_fact("The Result when the Date was 6 November 1990 was 3-2")
        assert fact.conditions == (("Date", "6 November 1990"),)
        assert fact.values == ("3-2",)


class TestWalkedDuration:
    @given(st.dates(min_value=datetime.date(1200, 1, 1), max_value=datetime.date(2800, 12, 31)),
           st.dates(min_value=datetime.date(1200, 1, 1), max_value=datetime.date(2800, 12, 31)))
    @settings(max_examples=300)
    def test_agrees_with_arithmetic_difference(self, a, b):
        da, db = Date(a.year, a.month, a.day), Date(b.year, b.month, b.day)
        assert oracle.walked_duration(da, db) == date_difference(da, db)

    @given(st.integers(min_value=1000, max_value=2999), st.integers(min_value=1000, max_value=2999),
           st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12))
    def test_agrees_on_month_precision(self, y1, y2, m1, m2):
        da, db = Date(y1, m1), Date(y2, m2)
        assert oracle.walked_duration(da, db) == date_difference(da, db)

    def test_mixed_precision_is_none(self):
        assert oracle.walked_duration(Date(1990), Date(1991, 2, 3)) is None


def _checked_examples(table, kind, seed=13, cap=10):
    pool = FactPool(table)
    for triplet in generate(table, kind, seed, cap):
        query = oracle.parse_question(table, kind, triplet.instantiation.question)
        ctx = build_context(pool, triplet.gold,
                            derive_seed(seed, table.meta.id, kind.value,
                                        triplet.instantiation.question))
        yield triplet, query, ctx


class TestTableInterpreter:
    def test_reproduces_every_generated_answer(self):
        for record in HAND_TABLES:
            table = typed(record)
            for kind in GeneratorKind:
                for triplet, query, _ctx in _checked_examples(table, kind):
                    result = oracle.table_answer(table, query)
                    assert result is not None, triplet.instantiation.question
                    kind_got, values = result
                    assert kind_got is triplet.answer.kind
                    assert oracle.answers_match(kind, triplet.answer.values, values), \
                        triplet.instantiation.question


class TestFactInterpreter:
    def test_gold_facts_suffice(self):
        for record in HAND_TABLES:
            table = typed(record)
            for kind in GeneratorKind:
                for triplet, query, ctx in _checked_examples(table, kind):
                    gold = [f.text for f in ctx.facts if f.kind is FactKind.GOLD]
                    result = oracle.facts_answer(query, gold)
                    assert result is not None
                    assert oracle.answers_match(kind, triplet.answer.values, result[1])

    def test_distractors_never_change_the_answer(self):
        for record in HAND_TABLES:
            table = typed(record)
            for kind in GeneratorKind:
                for triplet, query, ctx in _checked_examples(table, kind, cap=4):
                    texts = [f.text for f in ctx.facts]
                    result = oracle.facts_answer(query, texts)
                    assert result is not None
                    assert oracle.answers_match(kind, triplet.answer.values, result[1])

    NECESSARY_GOLD = (
        GeneratorKind.COMPOSITION_2HOP,
        GeneratorKind.COMPOSITION_3HOP,
        GeneratorKind.CONJUNCTION,
        GeneratorKind.NUMBER_COMPARISON,
        GeneratorKind.NUMBER_BOOLEAN_COMPARISON,
        GeneratorKind.TEMPORAL_COMPARISON,
        GeneratorKind.TEMPORAL_BOOLEAN_COMPARISON,
        GeneratorKind.DATE_DIFFERENCE,
    )

    def test_each_gold_fact_is_necessary(self):
        for record in HAND_TABLES:
            table = typed(record)
            for kind in self.NECESSARY_GOLD:
                for triplet, query, ctx in _checked_examples(table, kind, cap=4):
                    facts = [(f.text, f.kind) for f in ctx.facts]
                    gold_positions = [i for i, (_t, k) in enumerate(facts) if k is FactKind.GOLD]
                    for drop in gold_positions:
                        remaining = [t for i, (t, _k) in enumerate(facts) if i != drop]
                        result = oracle.facts_answer(query, remaining)
                        assert result is None or not oracle.answers_match(
                            kind, triplet.answer.values, result[1])


class TestQuestionParsing:
    def test_unknown_question_raises(self):
        table = typed(HAND_TABLES[0])
        try:
            oracle.parse_question(table, GeneratorKind.COUNTING, "What is going on here?")
        except oracle.QuestionParseError:
            return
        raise AssertionError("expected QuestionParseError")

    def test_parsing_leaves_table_untouched(self):
        table = typed(HAND_TABLES[0])
        before = dict(vars(table))
        for kind in GeneratorKind:
            for triplet in generate(table, kind, seed=21, cap=2):
                oracle.parse_question(table, kind, triplet.instantiation.question)
        assert vars(table) == before

    def test_every_generated_question_parses(self):
        # Each question reads back as the bindings it was filled from, for
        # every slot its template shows: a boolean number comparison binds
        # col:1 but does not show it.
        records = HAND_TABLES + [make_table(i, seed) for seed in (1, 2, 3) for i in range(4)]
        for record in records:
            table = typed(record)
            for kind in GeneratorKind:
                for triplet in generate(table, kind, seed=21):
                    instantiation = triplet.instantiation
                    query = oracle.parse_question(table, kind, instantiation.question)
                    assert query.kind is kind
                    shown = set(grammar._SLOT_RE.findall(instantiation.template.pattern))
                    seen = Counter()
                    bound = {}
                    for slot, payload in instantiation.bindings:
                        if slot in shown:
                            seen[slot] += 1
                            bound[grammar.slot_group(slot, seen[slot])] = _slot_text(slot, payload)
                    read = {**query.cols, **query.vals}
                    if query.operator is not None:
                        read["op"] = query.operator
                    assert read == bound, instantiation.question

    def test_a_reader_refuses_an_operator_its_kind_never_writes(self):
        words = {word for own in grammar.OPERATORS.values() for word in own}
        for record in HAND_TABLES:
            table = typed(record)
            for kind, own in grammar.OPERATORS.items():
                for triplet in generate(table, kind, seed=21, cap=2):
                    instantiation = triplet.instantiation
                    for word in sorted(words - set(own)):
                        question = grammar.render_question(
                            instantiation.template, table.meta.table_title,
                            table.meta.page_title,
                            [(slot, word if slot == "[OPERATOR]" else _slot_text(slot, payload))
                             for slot, payload in instantiation.bindings])
                        with pytest.raises(oracle.QuestionParseError):
                            oracle.parse_question(table, kind, question)


def _slot_text(slot, payload):
    """The text a binding payload puts in its slot (a column slot's column
    name, before any column form)."""
    if slot == "[OPERATOR]":
        return payload["operator"]
    return payload["value"] if slot.startswith("val:") else payload["column"]


class TestReaderSpecificRules:
    """Where the two readers answer the same query differently on purpose.
    Each rule changes a verdict on perturbed input, so neither reader may
    take the other's."""

    TABLE = {
        "id": "reader-rules",
        "page_title": "Register of Stations",
        "table_title": "Survey",
        "header": ["Station", "Region", "Code", "Score", "Visited"],
        "rows": [
            ["Arden", "North", "Arden", "10", "3 May 1990"],
            ["Basel", "North", "Basel", "20", "1991"],
            ["Corin", "South", "Corin", "30", "3 May 1990"],
            ["Dorset", "South", "Dorset", "40", "9 June 1992"],
        ],
    }

    @pytest.fixture(scope="class")
    def table(self):
        return _ingested(self.TABLE)

    def test_only_with_a_name_outside_the_group(self, table):
        query = oracle.Query(GeneratorKind.QUANTIFIER_ONLY, None,
                             {"c1": "Station", "c2": "Region"}, {"v1": "Corin", "v2": "North"})
        fact = grammar.render_fact("Station", [("Region", "North")], ["Arden", "Basel"])
        assert oracle.table_answer(table, query) is None
        assert oracle.facts_answer(query, [fact]) == (AnswerKind.YES_NO, ("no",))

    def test_date_difference_of_a_tie(self, table):
        query = oracle.Query(GeneratorKind.DATE_DIFFERENCE, None,
                             {"c1": "Station", "c2": "Station"}, {"v1": "Arden", "v2": "Corin"})
        facts = [grammar.render_fact("Visited", [("Station", name)], ["3 May 1990"])
                 for name in ("Arden", "Corin")]
        assert oracle.table_answer(table, query) is None
        assert oracle.facts_answer(query, facts) == (AnswerKind.DURATION, ("0 days",))

    def test_two_combined_conjunction_facts(self):
        query = oracle.Query(GeneratorKind.CONJUNCTION, None,
                             {"c1": "Station", "c2": "Region", "c3": "Code"},
                             {"v2": "North", "v3": "Arden"})
        facts = [grammar.render_fact("Station", [("Region", "North"), ("Code", "Arden")], [name])
                 for name in ("Arden", "Basel")]
        assert oracle.facts_answer(query, facts[:1]) == (AnswerKind.SPAN_LIST, ("Arden",))
        assert oracle.facts_answer(query, facts) is None

    def test_number_boolean_comparison_anchor_in_two_columns(self, table):
        # Without col:1 in the question, the anchor column is the one column
        # that holds both values; Station and Code both do.
        query = oracle.Query(GeneratorKind.NUMBER_BOOLEAN_COMPARISON, "higher",
                             {"c2": "Score"}, {"v1": "Dorset", "v1_2": "Arden"})
        assert oracle.table_answer(table, query) is None
        distinct = _ingested({**self.TABLE, "rows": [row[:2] + [row[2].upper()] + row[3:]
                                                 for row in self.TABLE["rows"]]})
        assert oracle.table_answer(distinct, query) == (AnswerKind.YES_NO, ("yes",))

    def test_arithmetic_superlative_of_mixed_precision(self, table):
        query = oracle.Query(GeneratorKind.ARITHMETIC_SUPERLATIVE, "latest",
                             {"c1": "Visited", "c2": "Region"}, {"v2": "North"})
        fact = grammar.render_fact("Visited", [("Region", "North")], ["3 May 1990", "1991"])
        assert oracle.table_answer(table, query) is None
        assert oracle.facts_answer(query, [fact]) is None
        south = query._replace(vals={"v2": "South"})
        fact = grammar.render_fact("Visited", [("Region", "South")], ["3 May 1990", "9 June 1992"])
        assert oracle.table_answer(table, south) == (AnswerKind.DATE, ("9 June 1992",))
        assert oracle.facts_answer(south, [fact]) == (AnswerKind.DATE, ("9 June 1992",))


def _ingested(record):
    try:
        return ingest(raw_table_from_json(record), min_rows=1, max_rows=1000)
    except IngestError:
        return None


def _with_rows(record, rows):
    return {**record, "rows": rows}


def _rewritten_dates(record, rewrite):
    """The record with each "27 April 1984" cell in row r replaced by
    `rewrite(r, day, month, year)`."""
    def cell_text(r, cell):
        parts = cell.split()
        if len(parts) == 3 and parts[1] in MONTH_NAMES:
            return rewrite(r, *parts)
        return cell
    return _with_rows(record, [[cell_text(r, cell) for cell in row]
                               for r, row in enumerate(record["rows"])])


def _perturbed(record, table):
    """Copies of a table that each break an assumption the readers rely on:
    empty cells, repeated rows, one date in every date cell, columns out of
    row alignment, year-only dates among full ones in every filter group,
    and the first column repeated as the last."""
    rows = record["rows"]
    n_rows, n_cols = len(rows), len(record["header"])
    dates = set(table.date_columns)

    def emptied(step):
        return [["" if (r * n_cols + c) % step == 0 else cell for c, cell in enumerate(row)]
                for r, row in enumerate(rows)]

    def coarsened(r, c, cell):
        try:
            return str(parse_date(cell).year) if r % 2 and c in dates else cell
        except NotADate:
            return cell

    first = {c: next((row[c] for row in rows if row[c]), "") for c in dates}
    variants = [
        emptied(3), emptied(5), emptied(7),
        [copy for r, row in enumerate(rows) for copy in ([row, row] if r % 2 else [row])],
        [[first[c] if c in dates else cell for c, cell in enumerate(row)] for row in rows],
        [[rows[(r + 1) % n_rows][c] if c % 2 else cell for c, cell in enumerate(row)]
         for r, row in enumerate(rows)],
        [[coarsened(r, c, cell) for c, cell in enumerate(row)] for r, row in enumerate(rows)],
        [row[:-1] + [row[0]] for row in rows],
    ]
    return [_ingested(_with_rows(record, variant)) for variant in variants]


def _pool_texts(table):
    return [entry.fact.text for run in FactPool(table).runs.values() for entry in run]


def _verdict_records():
    """Hand, synthetic and rough tables, one with month-first dates and one
    whose date column mixes precisions within a filter group."""
    mixed = _rewritten_dates(
        make_table(4, seed=5, min_rows=14, max_rows=20),
        lambda r, day, month, year: year if r % 4 == 1 else (
            f"{month} {year}" if r % 3 == 2 else f"{day} {month} {year}"))
    return (HAND_TABLES + [make_table(i, seed=5) for i in range(3)]
            + [rough_table(i, seed=2) for i in range(6)]
            + [_rewritten_dates(make_table(3, seed=5),
                                lambda r, day, month, year: f"{month} {day}, {year}"),
               mixed])


def _verdict_lines(seed=11, cap=3):
    """One line per generated example: its query, `table_answer` on the
    table and on each perturbed copy, `facts_answer` on each fact list, and
    whether the table's answer matches the generated one. Past `cap` per
    kind, only examples whose gold needs a combined fact are kept."""
    for record in _verdict_records():
        table = _ingested(record)
        perturbed = _perturbed(record, table)
        pool = FactPool(table)
        texts = _pool_texts(table)
        sample = texts[::max(1, len(texts) // 24)]
        perturbed_texts = [_pool_texts(p) for p in perturbed if p is not None]
        for kind in GeneratorKind:
            for i, triplet in enumerate(generate(table, kind, seed, cap=10)):
                if i >= cap and all(len(plan.keys) == 1 for plan in triplet.gold.plans):
                    continue
                question = triplet.instantiation.question
                query = oracle.parse_question(table, kind, question)
                ctx = [f.text for f in build_context(
                    pool, triplet.gold, derive_seed(seed, table.meta.id, question)).facts]
                gold = [pool.gold(plan)[0].text for plan in triplet.gold.plans]
                fact_lists = [gold, ctx, ctx[1:], ctx[:-1], ctx[::2], sample, gold + sample[::3],
                              [t.replace(" and ", ", ") for t in ctx], ctx + ctx]
                # The gold plans read on each same-shape copy, and each
                # copy's facts that name a value of the question.
                fact_lists += [[FactPool(p).gold(plan)[0].text for plan in triplet.gold.plans]
                               for p in perturbed if p is not None and p.n_rows == table.n_rows]
                fact_lists += [[t for t in other if any(v in t for v in query.vals.values())]
                               for other in perturbed_texts]
                got = oracle.table_answer(table, query)
                yield repr((
                    query, got,
                    [p and oracle.table_answer(p, query) for p in perturbed],
                    [oracle.facts_answer(query, facts) for facts in fact_lists],
                    got is not None and oracle.answers_match(kind, triplet.answer.values, got[1]),
                ))


class TestPinnedVerdicts:
    # The benchmark's checker counts these verdicts, so a changed digest
    # means the oracle answers some input differently, well-formed or not.
    LINES = 796
    SHA256 = "99b2eba7454adac5d699dbd4307db6159e0737f629d041102344e9b9eb6af1fd"

    def test_verdicts_pinned(self):
        lines = list(_verdict_lines())
        digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
        assert (len(lines), digest) == (self.LINES, self.SHA256)
