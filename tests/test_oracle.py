import datetime
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import HAND_TABLES, typed
from tablegen import make_table
from tabrc import grammar, oracle
from tabrc.facts import FactKind, FactPool, build_context
from tabrc.generators import GeneratorKind, derive_seed, generate
from tabrc.values import Date, date_difference


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
