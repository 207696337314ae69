from decimal import Decimal

import pytest

from fixtures import BIRDS, CHELSEA, CONCERTS, ELECTIONS, EMPLOYERS, EUROVISION, LAUNCHES, MINES, typed
from tabrc.generators import (
    AmbiguousChain,
    Answer,
    AnswerKind,
    Discard,
    EmptyResult,
    GeneratorKind,
    InsufficientValues,
    TieDiscarded,
    _arith_superlative_core,
    _addition_core,
    _composition_core,
    _conjunction_core,
    _counting_core,
    _date_difference_core,
    _number_pair_core,
    _superlative_core,
    generate,
)
from tabrc.tables import ingest, raw_table_from_json
from tabrc.values import IncomparablePrecision

K = GeneratorKind

# The answer kinds each generator may emit.
ANSWER_KINDS: dict[GeneratorKind, tuple[AnswerKind, ...]] = {
    K.COMPOSITION_2HOP: (AnswerKind.SPAN_LIST,),
    K.COMPOSITION_3HOP: (AnswerKind.SPAN_LIST,),
    K.CONJUNCTION: (AnswerKind.SPAN_LIST,),
    K.QUANTIFIER_ONLY: (AnswerKind.YES_NO,),
    K.QUANTIFIER_MOST: (AnswerKind.YES_NO,),
    K.QUANTIFIER_EVERY: (AnswerKind.YES_NO,),
    K.NUMBER_COMPARISON: (AnswerKind.SPAN_LIST,),
    K.TEMPORAL_COMPARISON: (AnswerKind.SPAN_LIST,),
    K.NUMBER_BOOLEAN_COMPARISON: (AnswerKind.YES_NO,),
    K.TEMPORAL_BOOLEAN_COMPARISON: (AnswerKind.YES_NO,),
    K.NUMBER_SUPERLATIVE: (AnswerKind.SPAN_LIST,),
    K.TEMPORAL_SUPERLATIVE: (AnswerKind.SPAN_LIST,),
    K.ARITHMETIC_SUPERLATIVE: (AnswerKind.NUMBER, AnswerKind.DATE),
    K.ARITHMETIC_ADDITION: (AnswerKind.NUMBER,),
    K.COUNTING: (AnswerKind.NUMBER,),
    K.DATE_DIFFERENCE: (AnswerKind.DURATION,),
}


def mk_table(header, rows, **meta):
    record = {
        "id": meta.get("id", "inline"),
        "page_title": meta.get("page_title", "Inline Page"),
        "table_title": meta.get("table_title", "Inline Table"),
        "header": header,
        "rows": rows,
    }
    return ingest(raw_table_from_json(record), min_rows=2)


def _shown(payload):
    """A binding payload as the tests name it: an operator, a (column, value)
    cell, or a column name."""
    if "operator" in payload:
        return payload["operator"]
    if "value" in payload:
        return (payload["column"], payload["value"])
    return payload["column"]


def realized(table, kind, wanted):
    """The triplet `generate` realizes, over every valid candidate, whose
    bindings include `wanted` (slot -> shown value, or a list of them in
    binding order for a slot bound more than once); None if there is none."""
    hits = []
    for triplet in generate(table, kind, seed=0, cap=None):
        shown = {}
        for slot, payload in triplet.instantiation.bindings:
            shown.setdefault(slot, []).append(_shown(payload))
        if all(shown.get(slot) == (want if isinstance(want, list) else [want])
               for slot, want in wanted.items()):
            hits.append(triplet)
    assert len(hits) <= 1, hits
    return hits[0] if hits else None


def values_of(table, kind, wanted):
    triplet = realized(table, kind, wanted)
    assert triplet is not None, wanted
    return triplet.answer.values


def col(table, name):
    return table.column_index(name)


class TestComposition:
    def test_two_hop_round_to_result(self):
        triplet = realized(typed(CHELSEA), K.COMPOSITION_2HOP,
                           {"col:1": "Result", "val:2": ("Round", "R4")})
        assert triplet.answer == Answer(AnswerKind.SPAN_LIST, ("2-1",))

    def test_absent_anchor_discarded(self):
        table = typed(CHELSEA)
        assert realized(table, K.COMPOSITION_2HOP,
                        {"col:1": "Result", "val:2": ("Round", "R9")}) is None
        for hop in ("Date", "Opponent", "Attendance"):
            with pytest.raises(Discard):
                _composition_core(table, col(table, "Round"), "R9", (col(table, hop),),
                                  col(table, "Result"))

    def test_three_hop_unique_join(self):
        table = mk_table(
            ["A", "B", "C", "D"],
            [[f"a{i}", f"b{i}", f"c{i}", f"d{i}"] for i in range(6)],
        )
        assert values_of(table, K.COMPOSITION_3HOP,
                         {"col:1": "D", "val:2": ("A", "a2")}) == ("d2",)

    def test_three_hop_needs_four_columns(self):
        table = mk_table(["A", "B", "C"], [[f"a{i}", f"b{i}", f"c{i}"] for i in range(6)])
        assert realized(table, K.COMPOSITION_3HOP, {"col:1": "C", "val:2": ("A", "a1")}) is None
        assert generate(table, GeneratorKind.COMPOSITION_3HOP, seed=0) == []

    def test_duplicate_intermediate_blocks_chain(self):
        rows = [["a0", "dup", "c0"], ["a1", "dup", "c1"], ["a2", "b2", "c2"]]
        table = mk_table(["A", "B", "C"], rows)
        assert realized(table, K.COMPOSITION_2HOP, {"col:1": "C", "val:2": ("A", "a0")}) is None
        with pytest.raises(AmbiguousChain):
            _composition_core(table, 0, "a0", (1,), 2)

    def test_multi_row_anchor_lists_all_targets(self):
        rows = [
            ["x", "b0", "c0"], ["x", "b1", "c1"], ["y", "b2", "c2"],
        ]
        table = mk_table(["A", "B", "C"], rows)
        assert values_of(table, K.COMPOSITION_2HOP,
                         {"col:1": "C", "val:2": ("A", "x")}) == ("c0", "c1")


class TestConjunction:
    def test_single_row(self):
        assert values_of(typed(BIRDS), K.CONJUNCTION, {
            "col:1": "Common name", "val:2": ("Family", "Picidae"),
            "val:3": ("Distribution", "Okinawa"),
        }) == ("Okinawa woodpecker",)

    def test_two_rows_in_row_order(self):
        rows = [
            ["n0", "g1", "s1"], ["n1", "g1", "s2"], ["n2", "g2", "s1"],
            ["n3", "g1", "s2"], ["n4", "g2", "s2"],
        ]
        table = mk_table(["Name", "Group", "Status"], rows)
        assert values_of(table, K.CONJUNCTION, {
            "col:1": "Name", "val:2": ("Group", "g1"), "val:3": ("Status", "s2"),
        }) == ("n1", "n3")

    def test_same_column_twice_forbidden(self):
        table = typed(BIRDS)
        assert realized(table, K.CONJUNCTION, {
            "col:1": "Common name", "val:2": ("Family", "Picidae"),
            "val:3": ("Family", "Picidae"),
        }) is None
        family = col(table, "Family")
        with pytest.raises(Discard):
            _conjunction_core(table, col(table, "Common name"), family, "Picidae",
                              family, "Picidae")

    def test_empty_intersection_discarded(self):
        table = typed(BIRDS)
        assert realized(table, K.CONJUNCTION, {
            "col:1": "Common name", "val:2": ("Family", "Picidae"),
            "val:3": ("Distribution", "Amami"),
        }) is None
        with pytest.raises(EmptyResult):
            _conjunction_core(table, col(table, "Common name"), col(table, "Family"), "Picidae",
                              col(table, "Distribution"), "Amami")


class TestQuantifiers:
    def test_every_true_on_constant_column(self):
        assert values_of(typed(MINES), K.QUANTIFIER_EVERY,
                         {"col:1": "Mine", "val:2": ("Owner", "Exxaro")}) == ("yes",)

    def test_every_false(self):
        assert values_of(typed(MINES), K.QUANTIFIER_EVERY,
                         {"col:1": "Mine", "val:2": ("Province", "Limpopo")}) == ("no",)

    def test_only_yes(self):
        assert values_of(typed(EUROVISION), K.QUANTIFIER_ONLY, {
            "val:1": ("Artist", "Jean Philippe"), "val:2": ("Language", "French"),
        }) == ("yes",)

    def test_only_no_when_two_share(self):
        assert values_of(typed(EUROVISION), K.QUANTIFIER_ONLY, {
            "val:1": ("Artist", "Alice Babs"), "val:2": ("Language", "Swedish"),
        }) == ("no",)

    def test_most_exactly_half_is_no(self):
        rows = [[f"n{i}", "A" if i < 5 else "B"] for i in range(10)]
        table = mk_table(["Name", "Group"], rows)
        assert values_of(table, K.QUANTIFIER_MOST,
                         {"col:1": "Name", "val:2": ("Group", "A")}) == ("no",)

    def test_most_strict_majority_is_yes(self):
        rows = [[f"n{i}", "A" if i < 6 else "B"] for i in range(10)]
        table = mk_table(["Name", "Group"], rows)
        assert values_of(table, K.QUANTIFIER_MOST,
                         {"col:1": "Name", "val:2": ("Group", "A")}) == ("yes",)


class TestComparisons:
    # A generated pair names its anchors in table row order.

    def test_higher_attendance(self):
        assert values_of(typed(CHELSEA), K.NUMBER_COMPARISON, {
            "[OPERATOR]": "higher", "col:2": "Attendance",
            "val:1": [("Round", "QF"), ("Round", "QFR")],
        }) == ("QF",)

    def test_tie_discarded(self):
        rows = [["a", "5"], ["b", "5"], ["c", "7"]]
        table = mk_table(["Name", "Score"], rows)
        assert realized(table, K.NUMBER_COMPARISON, {
            "[OPERATOR]": "higher", "val:1": [("Name", "a"), ("Name", "b")],
        }) is None
        with pytest.raises(TieDiscarded):
            _number_pair_core(table, 0, 1, 0, 1)

    def test_earlier_picks_1990_anchor(self):
        assert values_of(typed(CHELSEA), K.TEMPORAL_COMPARISON, {
            "[OPERATOR]": "earlier", "val:1": ("Round", "R4"), "val:2": ("Round", "SF 2nd Leg"),
        }) == ("R4",)

    def test_boolean_number(self):
        anchors = [("Employer", "Walmart"), ("Employer", "Target")]
        assert values_of(typed(EMPLOYERS), K.NUMBER_BOOLEAN_COMPARISON, {
            "[OPERATOR]": "higher", "col:2": "Employees", "val:1": anchors,
        }) == ("yes",)
        assert values_of(typed(EMPLOYERS), K.NUMBER_BOOLEAN_COMPARISON, {
            "[OPERATOR]": "lower", "col:2": "Employees", "val:1": anchors,
        }) == ("no",)

    def test_boolean_temporal(self):
        # QFR came more recently than QF, read from the earlier anchor.
        anchors = {"val:1": ("Round", "QF"), "val:2": ("Round", "QFR")}
        assert values_of(typed(CHELSEA), K.TEMPORAL_BOOLEAN_COMPARISON,
                         {"[OPERATOR]": "more recently than when", **anchors}) == ("no",)
        assert values_of(typed(CHELSEA), K.TEMPORAL_BOOLEAN_COMPARISON,
                         {"[OPERATOR]": "earlier than when", **anchors}) == ("yes",)


class TestSuperlatives:
    def test_highest_attendance_opponent(self):
        assert values_of(typed(CHELSEA), K.NUMBER_SUPERLATIVE, {
            "[OPERATOR]": "highest", "col:1": "Opponent", "col:2": "Attendance",
        }) == ("Sheffield Wednesday",)

    def test_lowest(self):
        assert values_of(typed(CHELSEA), K.NUMBER_SUPERLATIVE, {
            "[OPERATOR]": "lowest", "col:1": "Opponent", "col:2": "Attendance",
        }) == ("Colchester United",)

    def test_tie_yields_list(self):
        rows = [["a", "9"], ["b", "9"], ["c", "3"]]
        table = mk_table(["Name", "Score"], rows)
        assert values_of(table, K.NUMBER_SUPERLATIVE, {
            "[OPERATOR]": "highest", "col:1": "Name", "col:2": "Score",
        }) == ("a", "b")

    def test_temporal(self):
        assert values_of(typed(CONCERTS), K.TEMPORAL_SUPERLATIVE, {
            "[OPERATOR]": "earliest", "col:1": "Artist", "col:2": "Date",
        }) == ("The Beatles",)

    def test_arithmetic_filtered_max(self):
        triplet = realized(typed(LAUNCHES), K.ARITHMETIC_SUPERLATIVE, {
            "[OPERATOR]": "highest", "col:1": "Successes", "val:2": ("Remarks", "Maiden flight"),
        })
        assert triplet.answer.values == ("2",)
        assert triplet.answer.kind is AnswerKind.NUMBER

    def test_arithmetic_requires_two_rows(self):
        table = typed(LAUNCHES)
        assert realized(table, K.ARITHMETIC_SUPERLATIVE, {
            "[OPERATOR]": "highest", "col:1": "Successes", "val:2": ("Remarks", "Crewed flights"),
        }) is None
        with pytest.raises(InsufficientValues):
            _arith_superlative_core(table, col(table, "Successes"), col(table, "Remarks"),
                                    "Crewed flights", "highest")


class TestAddition:
    def test_walsall_total(self):
        assert values_of(typed(CHELSEA), K.ARITHMETIC_ADDITION, {
            "col:1": "Attendance", "val:2": ("Opponent", "Walsall"),
        }) == ("15703",)

    def test_zero_sum(self):
        rows = [["a", "0", "g"], ["b", "0", "g"], ["c", "4", "h"]]
        table = mk_table(["Name", "Score", "Group"], rows)
        assert values_of(table, K.ARITHMETIC_ADDITION,
                         {"col:1": "Score", "val:2": ("Group", "g")}) == ("0",)

    def test_single_row_discarded(self):
        table = typed(CHELSEA)
        assert realized(table, K.ARITHMETIC_ADDITION, {
            "col:1": "Attendance", "val:2": ("Opponent", "Oxford United"),
        }) is None
        with pytest.raises(InsufficientValues):
            _addition_core(table, col(table, "Attendance"), col(table, "Opponent"),
                           "Oxford United")


class TestCounting:
    def test_kufuor_elections(self):
        assert values_of(typed(ELECTIONS), K.COUNTING, {
            "col:1": "Election", "val:2": ("Candidate", "John Kufuor"),
        }) == ("4",)

    def test_all_distinct(self):
        rows = [[f"n{i}", "g"] for i in range(10)]
        table = mk_table(["Name", "Group"], rows)
        assert values_of(table, K.COUNTING,
                         {"col:1": "Name", "val:2": ("Group", "g")}) == ("10",)

    def test_shared_target_counts_once(self):
        rows = [["dup", "g"], ["dup", "g"], ["other", "h"]]
        table = mk_table(["Name", "Group"], rows)
        assert values_of(table, K.COUNTING,
                         {"col:1": "Name", "val:2": ("Group", "g")}) == ("1",)

    def test_target_must_differ_from_filter(self):
        table = typed(ELECTIONS)
        candidate = col(table, "Candidate")
        with pytest.raises(ValueError):
            _counting_core(table, candidate, candidate, "John Kufuor")
        chelsea = typed(CHELSEA)
        attendance = col(chelsea, "Attendance")
        with pytest.raises(ValueError):
            _superlative_core(chelsea, attendance, attendance, "highest")


class TestDateDifference:
    # A generated pair names its anchors in table row order; the difference
    # is the same either way round.

    def test_concert_gap(self):
        triplet = realized(typed(CONCERTS), K.DATE_DIFFERENCE, {
            "val:1": ("Artist", "The Beatles"), "val:2": ("Artist", "Paul McCartney"),
        })
        assert triplet.answer.values == ("47 years, 11 months, 16 days",)
        assert triplet.answer.kind is AnswerKind.DURATION

    def test_chelsea_cup_run(self):
        assert values_of(typed(CHELSEA), K.DATE_DIFFERENCE, {
            "val:1": ("Round", "R2 1st Leg"), "val:2": ("Round", "QF"),
        }) == ("3 months, 21 days",)

    def test_year_only_pair(self):
        rows = [["a", "1990"], ["b", "1991"], ["c", "May 1992"], ["d", "June 1993"]]
        table = mk_table(["Name", "When"], rows)
        assert values_of(table, K.DATE_DIFFERENCE,
                         {"val:1": ("Name", "a"), "val:2": ("Name", "b")}) == ("1 year",)

    def test_identical_dates_discarded(self):
        rows = [["a", "1990"], ["b", "1990"], ["c", "May 1992"], ["d", "June 1993"]]
        table = mk_table(["Name", "When"], rows)
        assert realized(table, K.DATE_DIFFERENCE,
                        {"val:1": ("Name", "a"), "val:2": ("Name", "b")}) is None
        with pytest.raises(TieDiscarded):
            _date_difference_core(table, 0, 0, 0, 1)

    def test_mixed_precision_discarded(self):
        rows = [["a", "1990"], ["b", "May 1992"], ["c", "1991"], ["d", "June 1993"]]
        table = mk_table(["Name", "When"], rows)
        assert realized(table, K.DATE_DIFFERENCE,
                        {"val:1": ("Name", "a"), "val:2": ("Name", "b")}) is None
        with pytest.raises(IncomparablePrecision):
            _date_difference_core(table, 0, 0, 0, 1)


ALL_FIXTURES = [CHELSEA, BIRDS, LAUNCHES, ELECTIONS, CONCERTS, EMPLOYERS, EUROVISION, MINES]


class TestGenerate:
    def test_deterministic(self):
        table = typed(CHELSEA)
        for kind in GeneratorKind:
            first = generate(table, kind, seed=5)
            second = generate(table, kind, seed=5)
            assert first == second

    def test_cap(self):
        table = typed(CHELSEA)
        for kind in GeneratorKind:
            assert len(generate(table, kind, seed=5)) <= 10
        assert len(generate(table, GeneratorKind.NUMBER_COMPARISON, seed=5, cap=3)) == 3

    def test_answer_kind_discipline(self):
        for record in ALL_FIXTURES:
            table = typed(record)
            for kind in GeneratorKind:
                for triplet in generate(table, kind, seed=9):
                    assert triplet.answer.kind in ANSWER_KINDS[kind]

    def test_unsatisfiable_yields_empty(self):
        rows = [[f"n{i}", f"g{i % 3}"] for i in range(10)]
        table = mk_table(["Name", "Group"], rows)
        assert generate(table, GeneratorKind.DATE_DIFFERENCE, seed=1) == []
        assert generate(table, GeneratorKind.NUMBER_SUPERLATIVE, seed=1) == []

    def test_no_rendered_slot_left(self):
        import re
        slot = re.compile(r"col:\d|val:\d|table-title|page-title|\[OPERATOR\]")
        for record in ALL_FIXTURES:
            table = typed(record)
            for kind in GeneratorKind:
                for triplet in generate(table, kind, seed=2):
                    assert not slot.search(triplet.instantiation.question)

    def test_comparisons_never_tie(self):
        for record in ALL_FIXTURES:
            table = typed(record)
            for kind in (GeneratorKind.NUMBER_COMPARISON, GeneratorKind.NUMBER_BOOLEAN_COMPARISON):
                for triplet in generate(table, kind, seed=3):
                    rows = [payload["row"] for slot, payload in triplet.instantiation.bindings
                            if slot == "val:1"]
                    col = next(payload["column"] for slot, payload in
                               triplet.instantiation.bindings if slot == "col:2")
                    c2 = table.column_index(col)
                    qa, qb = (table.parsed(r, c2) for r in rows)
                    assert isinstance(qa, Decimal) and isinstance(qb, Decimal)
                    assert qa != qb

    def test_yes_no_values_are_exactly_yes_or_no(self):
        for record in ALL_FIXTURES:
            table = typed(record)
            for kind in GeneratorKind:
                if ANSWER_KINDS[kind] != (AnswerKind.YES_NO,):
                    continue
                for triplet in generate(table, kind, seed=4):
                    assert triplet.answer.values in (("yes",), ("no",))

    def test_span_lists_distinct(self):
        for record in ALL_FIXTURES:
            table = typed(record)
            for kind in GeneratorKind:
                for triplet in generate(table, kind, seed=6):
                    if triplet.answer.kind is AnswerKind.SPAN_LIST:
                        assert len(set(triplet.answer.values)) == len(triplet.answer.values)
