import hashlib
import itertools
import json
from decimal import Decimal

import pytest

from fixtures import BIRDS, CHELSEA, CONCERTS, ELECTIONS, EMPLOYERS, EUROVISION, LAUNCHES, MINES, typed
from roughgen import rough_table
from tablegen import make_table
from tabrc.facts import FactKind, FactPlan, FactPool, _render_plan, build_context
from tabrc.generators import (
    AmbiguousChain,
    Answer,
    AnswerKind,
    GeneratorKind,
    PER_TABLE_CAP,
    TieDiscarded,
    UnparseableCell,
    _GENERATORS,
    _Blocks,
    _Product,
    _cands_temporal_pairs,
    generate,
)
from tabrc.grammar import OPERATORS
from tabrc.tables import ingest, raw_table_from_json
from tabrc.values import Date

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


def candidates(table, kind):
    """Every candidate the enumerator of `kind` yields for `table`."""
    return set(_GENERATORS[kind][0](table))


def run_generator(table, kind, cand):
    """Realize one candidate, which the enumerator of `kind` must yield: a
    realizer relies on its enumerator for the candidate's structure."""
    assert cand in candidates(table, kind), cand
    return _GENERATORS[kind][1](table, cand)


class TestComposition:
    def test_two_hop_round_to_result(self):
        triplet = realized(typed(CHELSEA), K.COMPOSITION_2HOP,
                           {"col:1": "Result", "val:2": ("Round", "R4")})
        assert triplet.answer == Answer(AnswerKind.SPAN_LIST, ("2-1",))

    def test_absent_anchor_discarded(self):
        table = typed(CHELSEA)
        assert realized(table, K.COMPOSITION_2HOP,
                        {"col:1": "Result", "val:2": ("Round", "R9")}) is None
        enumerated = candidates(table, K.COMPOSITION_2HOP)
        for hop in ("Date", "Opponent", "Attendance"):
            assert (col(table, "Round"), "R9", (col(table, hop),),
                    col(table, "Result")) not in enumerated

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
            run_generator(table, K.COMPOSITION_2HOP, (0, "a0", (1,), 2))

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
        assert (col(table, "Common name"), family, family,
                "Picidae", "Picidae") not in candidates(table, K.CONJUNCTION)

    def test_empty_intersection_discarded(self):
        table = typed(BIRDS)
        assert realized(table, K.CONJUNCTION, {
            "col:1": "Common name", "val:2": ("Family", "Picidae"),
            "val:3": ("Distribution", "Amami"),
        }) is None
        assert (col(table, "Common name"), col(table, "Family"), col(table, "Distribution"),
                "Picidae", "Amami") not in candidates(table, K.CONJUNCTION)


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
            run_generator(table, K.NUMBER_COMPARISON, (0, 1, ("a", 0), ("b", 1), "higher"))

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
        assert (col(table, "Successes"), col(table, "Remarks"), "Crewed flights",
                "highest") not in candidates(table, K.ARITHMETIC_SUPERLATIVE)


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
        assert (col(table, "Attendance"), col(table, "Opponent"),
                "Oxford United") not in candidates(table, K.ARITHMETIC_ADDITION)


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
        kinds = (K.COUNTING, K.NUMBER_SUPERLATIVE, K.TEMPORAL_SUPERLATIVE,
                 K.ARITHMETIC_ADDITION, K.ARITHMETIC_SUPERLATIVE)
        for fixture in ALL_FIXTURES:
            table = typed(fixture)
            for kind in kinds:
                assert all(c1 != c2 for c1, c2, *_ in candidates(table, kind)), \
                    (table.meta.id, kind)


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
            run_generator(table, K.DATE_DIFFERENCE, ((0, "a", 0), (0, "b", 1)))

    def test_mixed_precision_discarded(self):
        rows = [["a", "1990"], ["b", "May 1992"], ["c", "1991"], ["d", "June 1993"]]
        table = mk_table(["Name", "When"], rows)
        assert realized(table, K.DATE_DIFFERENCE,
                        {"val:1": ("Name", "a"), "val:2": ("Name", "b")}) is None
        with pytest.raises(UnparseableCell):
            run_generator(table, K.DATE_DIFFERENCE, ((0, "a", 0), (0, "b", 1)))


ALL_FIXTURES = [CHELSEA, BIRDS, LAUNCHES, ELECTIONS, CONCERTS, EMPLOYERS, EUROVISION, MINES]


def _brute_force_temporal_pairs(table, *operators):
    """Every anchor, a value held by one row of a column other than the
    event date column, on a row with a date, paired with every later anchor
    on another row that holds another value, then with each operator."""
    date_col = table.event_date_column
    if date_col is None:
        return []
    anchors = [(c, text, r) for c in range(table.n_cols) if c != date_col
               for r, text in enumerate(table.column(c))
               if text and table.column(c).count(text) == 1
               and isinstance(table.parsed(r, date_col), Date)]
    return [(first, second, *ops) for i, first in enumerate(anchors)
            for second in anchors[i + 1:] if second[2] != first[2] and second[1] != first[1]
            for ops in itertools.product(*operators)]


class TestCandidateSequences:
    def test_product_decodes_like_itertools_product(self):
        for factors in [("ab",), ("ab", (1, 2, 3)), ("xyz", "", "pq"), ((), ), ((0,), "ab", (5, 6))]:
            product = _Product(*factors)
            expected = list(itertools.product(*factors))
            assert len(product) == len(expected)
            assert [product[k] for k in range(len(product))] == expected

    def test_blocks_match_their_materialized_list(self):
        block_lists = [
            [],
            [((1,), [])],
            [((1,), [(2,), (3,)]), ((4,), []), ((), [(0,)]), ((5, 6), _Product("ab", (7, 8, 9))),
             ((9,), ()), ((8,), _Product("", "ab")), ((7,), [(1, 2)])],
        ]
        for blocks in block_lists:
            sequence = _Blocks(blocks)
            expected = [head + t for head, tail in blocks for t in tail]
            assert len(sequence) == len(expected)
            assert [sequence[i] for i in range(len(sequence))] == expected
            for outside in (-1, len(expected)):
                with pytest.raises(IndexError):
                    sequence[outside]

    def test_temporal_pairs_match_a_brute_force_reference(self):
        # Home and Away share team names, so a value can recur under another
        # column on another row.
        teams = ["Ajax", "Roma", "Lyon", "Celtic", "Porto", "Basel"]
        shared = mk_table(["Home", "Away", "Date", "Round"],
                          [[teams[i % 6], teams[(i + 1) % 6], f"{i + 1} May 1990", f"R{i}"]
                           for i in range(10)])
        tables = ([shared] + [typed(record) for record in ALL_FIXTURES]
                  + [typed(make_table(i, seed=5)) for i in range(6)]
                  + [typed(rough_table(i, seed=2)) for i in range(6)])
        operators = OPERATORS[K.TEMPORAL_COMPARISON]
        compared = 0
        for table in tables:
            for ops in ((), (operators,)):
                sequence = _cands_temporal_pairs(table, *ops)
                expected = _brute_force_temporal_pairs(table, *ops)
                assert len(sequence) == len(expected)
                assert [sequence[i] for i in range(len(sequence))] == expected
                compared += len(expected)
        assert compared

    def test_no_date_column_gives_no_temporal_candidates(self):
        table = mk_table(["Name", "Group"], [[f"n{i}", f"g{i % 3}"] for i in range(10)])
        for kind in (K.TEMPORAL_COMPARISON, K.TEMPORAL_BOOLEAN_COMPARISON, K.DATE_DIFFERENCE):
            assert len(_GENERATORS[kind][0](table)) == 0


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


def _pinned_tables():
    records = (ALL_FIXTURES
               + [make_table(0, seed=5)]
               + [rough_table(i, seed=2) for i in (1, 4, 9)])
    return [typed(record) for record in records]


def _mask_cells(mask, n_cols):
    """The (row, col) cells a cell mask holds, sorted: bit `r * n_cols + c`
    is cell (r, c)."""
    return [divmod(bit, n_cols) for bit in range(mask.bit_length()) if mask >> bit & 1]


def _plan_cells(plan):
    """The (row, col) cells a fact plan states, computed from its rows,
    subject and keys: the reference the cell masks are checked against."""
    return {(r, c) for r in plan.rows for c in (plan.subject, *plan.keys)}


def _triplet_digest(cap, with_context):
    """sha256 over every triplet `generate` gives on the pinned tables: its
    template, question, bindings, answer and gold plans, and optionally the
    context `build_context` assembles for it."""
    digest = hashlib.sha256()
    for table in _pinned_tables():
        pool = FactPool(table)
        for kind in GeneratorKind:
            for n, triplet in enumerate(generate(table, kind, seed=3, cap=cap)):
                line = [table.meta.id, kind.value, triplet.instantiation.template.id,
                        triplet.instantiation.question,
                        [list(binding) for binding in triplet.instantiation.bindings],
                        triplet.answer.kind.value, list(triplet.answer.values),
                        [[p.subject, list(p.keys), list(p.rows)] for p in triplet.gold.plans],
                        _mask_cells(triplet.gold.cells, table.n_cols)]
                if with_context:
                    line.append(build_context(pool, triplet.gold, seed=n).rendered)
                digest.update(json.dumps(line, sort_keys=True).encode("utf-8") + b"\n")
    return digest.hexdigest()


class TestPinnedTriplets:
    """Candidate order, draws, realizations and contexts are pinned: a change
    to how candidates are enumerated or contexts assembled must leave these
    digests unchanged."""

    def test_every_valid_candidate(self):
        assert _triplet_digest(cap=None, with_context=False) == (
            "1807620b3d679752f94a0653ac3b29857a887c0d68c2267e72cc95516da1d26d")

    def test_default_cap_with_contexts(self):
        assert _triplet_digest(cap=PER_TABLE_CAP, with_context=True) == (
            "6bf9514ba4bb6b531d5be0842edcda7665e1026e3c0f0aac9da68151fb2df9e3")

    def test_cell_masks_match_plan_cells(self):
        # Every pool fact's and every gold spec's mask, decoded, is the cell
        # set of its plan(s), on the same tables as the digests above.
        for table in _pinned_tables():
            pool = FactPool(table)
            assert pool.runs
            for (subject, key), run in pool.runs.items():
                # A pool fact lists the subject over the rows of one key value.
                plans = {}
                for rows in table.groups(key).values():
                    plan = FactPlan(subject, (key,), rows)
                    plans[_render_plan(table, plan, FactKind.DISTRACTOR).text] = plan
                for fact in run:
                    expected = _plan_cells(plans[fact.text])
                    assert set(_mask_cells(fact.cells, table.n_cols)) == expected
            for kind in GeneratorKind:
                for triplet in generate(table, kind, seed=3, cap=None):
                    gold = triplet.gold
                    expected = set().union(*map(_plan_cells, gold.plans))
                    assert set(_mask_cells(gold.cells, table.n_cols)) == expected
                    for plan in gold.plans:
                        fact = pool.gold(plan)
                        assert set(_mask_cells(fact.cells, table.n_cols)) == _plan_cells(plan)
