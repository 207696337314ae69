"""The sixteen example generators.

Each generator owns one reasoning skill (composition, conjunction,
quantification, comparisons, superlatives, counting, addition, date
difference), a question template with typed slots, and a procedure that
computes the answer from the table. `generate` instantiates up to `cap`
question/answer/gold-spec triplets for one (table, generator) pair,
deterministically for a fixed seed.

Conventions shared with the rest of the toolkit:

- Filters and anchors match on stripped raw cell text; empty cells never
  participate. Cells of a typed column that fail to parse are excluded.
- Comparison generators require unique anchor values and strictly unequal
  quantities; ties and ambiguous instantiations are discarded, and the cap
  counts valid triplets only.
- Temporal generators read the event time of a row from the leftmost DATE
  column. Temporal superlatives additionally require a single date precision
  across the column so that the ordering is total.
- Span answers are distinct values in table row order. Numbers and dates in
  answers use canonical rendering; raw cell text is kept for spans.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import re
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum

from .facts import FactPlan, GoldSpec, _sampled, gold_spec, pluralize
from .tables import TypedTable
from .values import (
    Date,
    IncomparablePrecision,
    SemanticType,
    compare_dates,
    date_difference,
    render_date,
    render_duration,
    render_number,
)

PER_TABLE_CAP = 10


class GeneratorKind(Enum):
    COMPOSITION_2HOP = "composition_2hop"
    COMPOSITION_3HOP = "composition_3hop"
    CONJUNCTION = "conjunction"
    QUANTIFIER_ONLY = "quantifier_only"
    QUANTIFIER_MOST = "quantifier_most"
    QUANTIFIER_EVERY = "quantifier_every"
    NUMBER_COMPARISON = "number_comparison"
    TEMPORAL_COMPARISON = "temporal_comparison"
    NUMBER_BOOLEAN_COMPARISON = "number_boolean_comparison"
    TEMPORAL_BOOLEAN_COMPARISON = "temporal_boolean_comparison"
    NUMBER_SUPERLATIVE = "number_superlative"
    TEMPORAL_SUPERLATIVE = "temporal_superlative"
    ARITHMETIC_SUPERLATIVE = "arithmetic_superlative"
    ARITHMETIC_ADDITION = "arithmetic_addition"
    COUNTING = "counting"
    DATE_DIFFERENCE = "date_difference"


class AnswerKind(Enum):
    SPAN_LIST = "span_list"
    YES_NO = "yes_no"
    NUMBER = "number"
    DATE = "date"
    DURATION = "duration"


@dataclass(frozen=True)
class Answer:
    kind: AnswerKind
    values: tuple[str, ...]


@dataclass(frozen=True)
class Template:
    kind: GeneratorKind
    id: str
    pattern: str


@dataclass(frozen=True)
class Instantiation:
    template: Template
    bindings: tuple[tuple[str, dict], ...]
    question: str


@dataclass(frozen=True)
class Triplet:
    instantiation: Instantiation
    answer: Answer
    gold: GoldSpec


class Discard(Exception):
    """An instantiation that cannot produce a sound example."""


class AmbiguousChain(Discard):
    pass


class EmptyResult(Discard):
    pass


class TieDiscarded(Discard):
    pass


class UnparseableCell(Discard):
    pass


class InsufficientValues(Discard):
    pass


def derive_seed(*parts: object) -> int:
    """Stable seed derivation so concurrency and call order never change
    output: hash of the joined parts, independent of PYTHONHASHSEED."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


_SLOT_RE = re.compile(r"col:\d+|val:\d+|table-title|page-title|\[OPERATOR\]")


def _template(kind: GeneratorKind, idx: int, pattern: str) -> Template:
    return Template(kind, f"{kind.value}-{idx}", pattern)


TEMPLATES: dict[GeneratorKind, tuple[Template, ...]] = {
    GeneratorKind.COMPOSITION_2HOP: (
        _template(GeneratorKind.COMPOSITION_2HOP, 1,
                  "What was the col:1(s) when the col:2 was val:2 in table-title of page-title?"),
    ),
    GeneratorKind.COMPOSITION_3HOP: (
        _template(GeneratorKind.COMPOSITION_3HOP, 1,
                  "What was the col:1(s) when the col:2 was val:2 in table-title of page-title?"),
    ),
    GeneratorKind.CONJUNCTION: (
        _template(GeneratorKind.CONJUNCTION, 1,
                  "What was the col:1 when the col:2 was val:2 and the col:3 was val:3 "
                  "in table-title of page-title?"),
    ),
    GeneratorKind.QUANTIFIER_ONLY: (
        _template(GeneratorKind.QUANTIFIER_ONLY, 1,
                  "Is val:1 the only col:1 that has col:2 val:2 in table-title of page-title?"),
    ),
    GeneratorKind.QUANTIFIER_EVERY: (
        _template(GeneratorKind.QUANTIFIER_EVERY, 1,
                  "In table-title of page-title, does [OPERATOR] col:1 have col:2 val:2?"),
    ),
    GeneratorKind.QUANTIFIER_MOST: (
        _template(GeneratorKind.QUANTIFIER_MOST, 1,
                  "In table-title of page-title, does [OPERATOR] col:1 have col:2 val:2?"),
    ),
    GeneratorKind.NUMBER_COMPARISON: (
        _template(GeneratorKind.NUMBER_COMPARISON, 1,
                  "In table-title of page-title, which col:1 had a [OPERATOR] col:2: "
                  "val:1 or val:1?"),
    ),
    GeneratorKind.TEMPORAL_COMPARISON: (
        _template(GeneratorKind.TEMPORAL_COMPARISON, 1,
                  "In table-title of page-title, what happened [OPERATOR]: the col:1 was val:1 "
                  "or the col:2 was val:2?"),
    ),
    GeneratorKind.NUMBER_BOOLEAN_COMPARISON: (
        _template(GeneratorKind.NUMBER_BOOLEAN_COMPARISON, 1,
                  "In table-title of page-title, did val:1 have [OPERATOR] col:2 than val:1?"),
    ),
    GeneratorKind.TEMPORAL_BOOLEAN_COMPARISON: (
        _template(GeneratorKind.TEMPORAL_BOOLEAN_COMPARISON, 1,
                  "The col:1 was val:1 [OPERATOR] the col:2 was val:2 in table-title of page-title?"),
    ),
    GeneratorKind.NUMBER_SUPERLATIVE: (
        _template(GeneratorKind.NUMBER_SUPERLATIVE, 1,
                  "In table-title of page-title, which col:1 has the [OPERATOR] col:2?"),
        _template(GeneratorKind.NUMBER_SUPERLATIVE, 2,
                  "Which col:1 has the [OPERATOR] col:2 in table-title of page-title?"),
    ),
    GeneratorKind.TEMPORAL_SUPERLATIVE: (
        _template(GeneratorKind.TEMPORAL_SUPERLATIVE, 1,
                  "In table-title of page-title, which col:1 has the [OPERATOR] col:2?"),
        _template(GeneratorKind.TEMPORAL_SUPERLATIVE, 2,
                  "Which col:1 has the [OPERATOR] col:2 in table-title of page-title?"),
    ),
    GeneratorKind.ARITHMETIC_SUPERLATIVE: (
        _template(GeneratorKind.ARITHMETIC_SUPERLATIVE, 1,
                  "In table-title of page-title, what was the [OPERATOR] col:1 when the "
                  "col:2 was val:2?"),
    ),
    GeneratorKind.ARITHMETIC_ADDITION: (
        _template(GeneratorKind.ARITHMETIC_ADDITION, 1,
                  "In table-title of page-title, what was the total number of col:1 when the "
                  "col:2 was val:2?"),
    ),
    GeneratorKind.COUNTING: (
        _template(GeneratorKind.COUNTING, 1,
                  "How many col:1 have col:2 val:2 in table-title of page-title?"),
    ),
    GeneratorKind.DATE_DIFFERENCE: (
        _template(GeneratorKind.DATE_DIFFERENCE, 1,
                  "In table-title of page-title, how much time had passed between when the "
                  "col:1 was val:1 and when the col:2 was val:2?"),
    ),
}

ANSWER_KINDS: dict[GeneratorKind, tuple[AnswerKind, ...]] = {
    GeneratorKind.COMPOSITION_2HOP: (AnswerKind.SPAN_LIST,),
    GeneratorKind.COMPOSITION_3HOP: (AnswerKind.SPAN_LIST,),
    GeneratorKind.CONJUNCTION: (AnswerKind.SPAN_LIST,),
    GeneratorKind.QUANTIFIER_ONLY: (AnswerKind.YES_NO,),
    GeneratorKind.QUANTIFIER_MOST: (AnswerKind.YES_NO,),
    GeneratorKind.QUANTIFIER_EVERY: (AnswerKind.YES_NO,),
    GeneratorKind.NUMBER_COMPARISON: (AnswerKind.SPAN_LIST,),
    GeneratorKind.TEMPORAL_COMPARISON: (AnswerKind.SPAN_LIST,),
    GeneratorKind.NUMBER_BOOLEAN_COMPARISON: (AnswerKind.YES_NO,),
    GeneratorKind.TEMPORAL_BOOLEAN_COMPARISON: (AnswerKind.YES_NO,),
    GeneratorKind.NUMBER_SUPERLATIVE: (AnswerKind.SPAN_LIST,),
    GeneratorKind.TEMPORAL_SUPERLATIVE: (AnswerKind.SPAN_LIST,),
    GeneratorKind.ARITHMETIC_SUPERLATIVE: (AnswerKind.NUMBER, AnswerKind.DATE),
    GeneratorKind.ARITHMETIC_ADDITION: (AnswerKind.NUMBER,),
    GeneratorKind.COUNTING: (AnswerKind.NUMBER,),
    GeneratorKind.DATE_DIFFERENCE: (AnswerKind.DURATION,),
}


def _fill(template: Template, slot_values: dict[str, list[str]]) -> str:
    counters = {slot: 0 for slot in slot_values}

    def substitute(match: re.Match) -> str:
        slot = match.group(0)
        values = slot_values[slot]
        index = counters[slot]
        counters[slot] = index + 1
        return values[min(index, len(values) - 1)]

    return _SLOT_RE.sub(substitute, template.pattern)


def _dedup(values: list[str]) -> tuple[str, ...]:
    seen: set[str] = set()
    out = []
    for value in values:
        if value not in seen:
            seen.add(value)
            out.append(value)
    return tuple(out)


def _col_bind(table: TypedTable, c: int) -> dict:
    return {"column": table.column_name(c)}


def _val_bind(table: TypedTable, c: int, r: int) -> dict:
    return {"column": table.column_name(c), "row": r, "value": table.raw(r, c)}


# ---------------------------------------------------------------------------
# Answer cores. Each returns the answer payload plus the fact plans that make
# the question answerable from verbalized facts alone.
# ---------------------------------------------------------------------------


def _composition_core(table: TypedTable, anchor_col: int, anchor_val: str,
                      chain: tuple[int, ...], target: int) -> tuple[tuple[str, ...], list[FactPlan]]:
    rows = table.rows_with(anchor_col, anchor_val)
    if not rows:
        raise EmptyResult(anchor_val)
    if any(not table.raw(r, target) for r in rows):
        raise AmbiguousChain("empty target cell")
    for r in rows:
        for hop_col in chain:
            value = table.raw(r, hop_col)
            if not value or len(table.rows_with(hop_col, value)) != 1:
                raise AmbiguousChain("intermediate value does not identify its row")
    plans = [FactPlan(chain[0], (anchor_col,), rows)]
    for r in rows:
        previous = chain[0]
        for hop_col in list(chain[1:]) + [target]:
            plans.append(FactPlan(hop_col, (previous,), (r,)))
            previous = hop_col
    return _dedup([table.raw(r, target) for r in rows]), plans


def _conjunction_core(table: TypedTable, target: int, c2: int, v2: str,
                      c3: int, v3: str) -> tuple[tuple[str, ...], list[FactPlan]]:
    if c2 == c3:
        raise EmptyResult("conditions must use two distinct columns")
    rows_a = table.rows_with(c2, v2)
    rows_b = table.rows_with(c3, v3)
    both = tuple(r for r in rows_a if table.raw(r, c3) == v3)
    if not both:
        raise EmptyResult(f"{v2} & {v3}")
    if any(not table.raw(r, target) for r in both):
        raise EmptyResult("empty target cell")
    answer = _dedup([table.raw(r, target) for r in both])

    # Two single-key facts suffice when intersecting their value lists
    # reproduces the answer exactly; otherwise verbalize one combined fact.
    single_ok = all(table.raw(r, target) for r in rows_a + rows_b)
    if single_ok:
        b_values = {table.raw(r, target) for r in rows_b}
        implied = _dedup([table.raw(r, target) for r in rows_a if table.raw(r, target) in b_values])
        single_ok = implied == answer
    if single_ok:
        plans = [FactPlan(target, (c2,), rows_a), FactPlan(target, (c3,), rows_b)]
    else:
        plans = [FactPlan(target, (c2, c3), both)]
    return answer, plans


def _quantifier_scope(table: TypedTable, c1: int, c2: int) -> list[int]:
    """Rows where both quantified columns are populated."""
    return [r for r in range(table.n_rows) if table.raw(r, c1) and table.raw(r, c2)]


def _column_scan_plans(table: TypedTable, subject: int, key: int, scope: list[int]) -> list[FactPlan]:
    """One fact per distinct key value, covering a whole-column scan."""
    in_scope = set(scope)
    plans = []
    for _value, rows in table.groups(key).items():
        kept = tuple(r for r in rows if r in in_scope)
        if kept:
            plans.append(FactPlan(subject, (key,), kept))
    return plans


def _quantifier_core(table: TypedTable, which: str, c1: int, v1: str | None,
                     c2: int, v2: str) -> tuple[bool, list[FactPlan]]:
    if which == "only":
        rows = table.rows_with(c2, v2)
        if not rows or v1 is None:
            raise EmptyResult(v2)
        if any(not table.raw(r, c1) for r in rows):
            raise UnparseableCell("empty cell under quantifier")
        names = {table.raw(r, c1) for r in rows}
        if v1 not in names:
            raise EmptyResult(f"{v1} not among matches")
        return names == {v1}, [FactPlan(c1, (c2,), rows)]

    scope = _quantifier_scope(table, c1, c2)
    if len(scope) < 2:
        raise InsufficientValues("quantifier scope")
    matches = sum(1 for r in scope if table.raw(r, c2) == v2)
    if which == "every":
        result = matches == len(scope)
    elif which == "most":
        result = matches * 2 > len(scope)
    else:
        raise ValueError(f"unknown quantifier {which}")
    return result, _column_scan_plans(table, c2, c1, scope)


def _number_pair_core(table: TypedTable, c1: int, c2: int, row_a: int,
                      row_b: int) -> tuple[Decimal, Decimal, list[FactPlan]]:
    qa = table.parsed(row_a, c2)
    qb = table.parsed(row_b, c2)
    if not isinstance(qa, Decimal) or not isinstance(qb, Decimal):
        raise UnparseableCell("non-numeric cell")
    if qa == qb:
        raise TieDiscarded(f"{qa}")
    plans = [FactPlan(c2, (c1,), (row_a,)), FactPlan(c2, (c1,), (row_b,))]
    return qa, qb, plans


def _temporal_pair_core(table: TypedTable, col_a: int, row_a: int, col_b: int,
                        row_b: int) -> tuple[int, list[FactPlan]]:
    date_col = table.event_date_column()
    if date_col is None:
        raise UnparseableCell("no date column")
    da = table.parsed(row_a, date_col)
    db = table.parsed(row_b, date_col)
    if not isinstance(da, Date) or not isinstance(db, Date):
        raise UnparseableCell("non-date cell")
    order = compare_dates(da, db)
    if order == 0:
        raise TieDiscarded("dates indistinguishable")
    plans = [FactPlan(date_col, (col_a,), (row_a,)), FactPlan(date_col, (col_b,), (row_b,))]
    return order, plans


def _superlative_core(table: TypedTable, c1: int, c2: int,
                      operator: str) -> tuple[tuple[str, ...], list[FactPlan]]:
    if c1 == c2:
        raise ValueError("target and value columns must differ")
    temporal = operator in ("earliest", "latest")
    scope = [r for r in range(table.n_rows)
             if table.parsed(r, c2) is not None and table.raw(r, c1)]
    if len(scope) < 2:
        raise InsufficientValues("superlative scope")
    if temporal:
        dates = [table.parsed(r, c2) for r in scope]
        if len({d.precision for d in dates}) != 1:
            raise UnparseableCell("mixed date precision")
        keys = {r: table.parsed(r, c2).key() for r in scope}
    else:
        keys = {r: table.parsed(r, c2) for r in scope}
    extreme = (max if operator in ("highest", "latest") else min)(keys.values())
    winners = [r for r in scope if keys[r] == extreme]
    answer = _dedup([table.raw(r, c1) for r in winners])
    return answer, _column_scan_plans(table, c2, c1, scope)


def _filtered_rows(table: TypedTable, value_col: int, filter_col: int,
                   filter_val: str) -> tuple[int, ...]:
    if value_col == filter_col:
        raise ValueError("value and filter columns must differ")
    rows = table.rows_with(filter_col, filter_val)
    if len(rows) < 2:
        raise InsufficientValues("filter must match at least two rows")
    if any(table.parsed(r, value_col) is None for r in rows):
        raise UnparseableCell("unparseable cell in filtered scope")
    return rows


def _arith_superlative_core(table: TypedTable, value_col: int, filter_col: int,
                            filter_val: str, operator: str) -> tuple[str, AnswerKind, list[FactPlan]]:
    rows = _filtered_rows(table, value_col, filter_col, filter_val)
    plans = [FactPlan(value_col, (filter_col,), rows)]
    values = [table.parsed(r, value_col) for r in rows]
    if operator in ("earliest", "latest"):
        if len({d.precision for d in values}) != 1:
            raise UnparseableCell("mixed date precision")
        chosen = (max if operator == "latest" else min)(values, key=Date.key)
        return render_date(chosen), AnswerKind.DATE, plans
    chosen = (max if operator == "highest" else min)(values)
    return render_number(chosen), AnswerKind.NUMBER, plans


def _addition_core(table: TypedTable, value_col: int, filter_col: int,
                   filter_val: str) -> tuple[str, list[FactPlan]]:
    rows = _filtered_rows(table, value_col, filter_col, filter_val)
    total = sum(table.parsed(r, value_col) for r in rows)
    return render_number(total), [FactPlan(value_col, (filter_col,), rows)]


def _counting_core(table: TypedTable, target: int, filter_col: int,
                   filter_val: str) -> tuple[int, list[FactPlan]]:
    if target == filter_col:
        raise ValueError("target and filter columns must differ")
    rows = table.rows_with(filter_col, filter_val)
    if not rows:
        raise EmptyResult(filter_val)
    raws = [table.raw(r, target) for r in rows]
    if any(not raw for raw in raws):
        raise UnparseableCell("empty target cell")
    return len(set(raws)), [FactPlan(target, (filter_col,), rows)]


def _date_difference_core(table: TypedTable, col_a: int, row_a: int, col_b: int,
                          row_b: int) -> tuple[str, list[FactPlan]]:
    date_col = table.event_date_column()
    if date_col is None:
        raise UnparseableCell("no date column")
    da = table.parsed(row_a, date_col)
    db = table.parsed(row_b, date_col)
    if not isinstance(da, Date) or not isinstance(db, Date):
        raise UnparseableCell("non-date cell")
    if da.precision != db.precision:
        raise IncomparablePrecision(f"{da} vs {db}")
    if da.key() == db.key():
        raise TieDiscarded("identical dates")
    duration = date_difference(da, db)
    plans = [FactPlan(date_col, (col_a,), (row_a,)), FactPlan(date_col, (col_b,), (row_b,))]
    return render_duration(duration), plans


# ---------------------------------------------------------------------------
# Public answer operations (name-based column references).
# ---------------------------------------------------------------------------


def answer_composition(table: TypedTable, hops: int, anchor: tuple[str, str],
                       target_col: str) -> Answer:
    """Answer a 2- or 3-hop lookup chained from `anchor` to `target_col`.
    Raises AmbiguousChain when no chain of unique intermediates exists."""
    if hops not in (2, 3):
        raise ValueError("hops must be 2 or 3")
    a = table.column_index(anchor[0])
    t = table.column_index(target_col)
    pool = [c for c in range(table.n_cols) if c not in (a, t)]
    last: Discard = AmbiguousChain("no candidate chain")
    for chain in itertools.permutations(pool, hops - 1):
        try:
            values, _ = _composition_core(table, a, anchor[1], chain, t)
            return Answer(AnswerKind.SPAN_LIST, values)
        except Discard as exc:
            last = exc
    raise last


def answer_conjunction(table: TypedTable, cond2: tuple[str, str], cond3: tuple[str, str],
                       target_col: str) -> Answer:
    values, _ = _conjunction_core(
        table, table.column_index(target_col),
        table.column_index(cond2[0]), cond2[1],
        table.column_index(cond3[0]), cond3[1],
    )
    return Answer(AnswerKind.SPAN_LIST, values)


def answer_quantifier(table: TypedTable, which: str, cond1: tuple[str, str | None],
                      cond2: tuple[str, str]) -> Answer:
    result, _ = _quantifier_core(
        table, which, table.column_index(cond1[0]), cond1[1],
        table.column_index(cond2[0]), cond2[1],
    )
    return Answer(AnswerKind.YES_NO, ("yes" if result else "no",))


def answer_comparison(table: TypedTable, family: str, boolean: bool, operator: str,
                      a: tuple[str, str], b: tuple[str, str],
                      value_col: str | None = None) -> Answer:
    """Compare the quantities behind two anchors. `value_col` names the
    numeric column for the number family; the temporal family reads the
    event date column."""
    ca, va = table.column_index(a[0]), a[1]
    cb, vb = table.column_index(b[0]), b[1]
    rows_a = table.rows_with(ca, va)
    rows_b = table.rows_with(cb, vb)
    if len(rows_a) != 1 or len(rows_b) != 1:
        raise AmbiguousChain("anchor value must identify one row")
    row_a, row_b = rows_a[0], rows_b[0]

    if family == "number":
        if value_col is None:
            raise ValueError("number comparison requires value_col")
        c2 = table.column_index(value_col)
        qa, qb, _ = _number_pair_core(table, ca, c2, row_a, row_b)
        a_wins = (qa > qb) == (operator == "higher")
    elif family == "temporal":
        order, _ = _temporal_pair_core(table, ca, row_a, cb, row_b)
        if operator in ("later", "more recently than when"):
            a_wins = order > 0
        else:
            a_wins = order < 0
    else:
        raise ValueError(f"unknown family {family}")

    if boolean:
        return Answer(AnswerKind.YES_NO, ("yes" if a_wins else "no",))
    winner = va if a_wins else vb
    return Answer(AnswerKind.SPAN_LIST, (winner,))


def answer_superlative(table: TypedTable, family: str, operator: str,
                       target_col: str | None, value_col: str,
                       filter: tuple[str, str] | None = None) -> Answer:
    """Number/temporal superlatives return the target values of the extreme
    rows; the arithmetic variant returns the extreme value itself over the
    filtered rows and therefore requires a filter."""
    c2 = table.column_index(value_col)
    if family == "arithmetic":
        if filter is None:
            raise ValueError("arithmetic superlative requires a filter")
        rendered, kind, _ = _arith_superlative_core(
            table, c2, table.column_index(filter[0]), filter[1], operator)
        return Answer(kind, (rendered,))
    if target_col is None:
        raise ValueError("superlative requires a target column")
    values, _ = _superlative_core(table, table.column_index(target_col), c2, operator)
    return Answer(AnswerKind.SPAN_LIST, values)


def answer_addition(table: TypedTable, target_col: str, filter: tuple[str, str]) -> Answer:
    rendered, _ = _addition_core(
        table, table.column_index(target_col), table.column_index(filter[0]), filter[1])
    return Answer(AnswerKind.NUMBER, (rendered,))


def answer_counting(table: TypedTable, target_col: str, filter: tuple[str, str]) -> Answer:
    count, _ = _counting_core(
        table, table.column_index(target_col), table.column_index(filter[0]), filter[1])
    return Answer(AnswerKind.NUMBER, (str(count),))


def answer_date_difference(table: TypedTable, a: tuple[str, str], b: tuple[str, str]) -> Answer:
    ca = table.column_index(a[0])
    cb = table.column_index(b[0])
    rows_a = table.rows_with(ca, a[1])
    rows_b = table.rows_with(cb, b[1])
    if len(rows_a) != 1 or len(rows_b) != 1:
        raise AmbiguousChain("anchor value must identify one row")
    rendered, _ = _date_difference_core(table, ca, rows_a[0], cb, rows_b[0])
    return Answer(AnswerKind.DURATION, (rendered,))


# ---------------------------------------------------------------------------
# Candidate enumeration and realization per generator.
# ---------------------------------------------------------------------------


def _anchor_pairs(table: TypedTable) -> list:
    """Pairs of unique-valued anchors on distinct rows, with parseable event
    dates. The three temporal pair generators each build it; it is cheap
    next to their realization."""
    date_col = table.event_date_column()
    pairs: list = []
    if date_col is not None:
        anchors = []
        for c in range(table.n_cols):
            if c == date_col:
                continue
            for value, row in table.unique_values(c):
                if isinstance(table.parsed(row, date_col), Date):
                    anchors.append((c, value, row))
        for i, first in enumerate(anchors):
            for second in anchors[i + 1:]:
                if first[2] == second[2]:
                    continue
                if first[0] != second[0] and first[1] == second[1]:
                    continue
                pairs.append((first, second))
    return pairs


def _cands_composition(table: TypedTable, hops: int) -> list:
    out = []
    all_cols = range(table.n_cols)
    for a in all_cols:
        for value in table.groups(a):
            for t in all_cols:
                if t == a:
                    continue
                pool = [c for c in all_cols if c not in (a, t)]
                if hops == 2:
                    out.extend((a, value, (x,), t) for x in pool)
                else:
                    out.extend((a, value, (x1, x2), t)
                               for x1 in pool for x2 in pool if x1 != x2)
    return out


def _cands_conjunction(table: TypedTable) -> list:
    out = []
    seen = set()
    for t in range(table.n_cols):
        for c2 in range(table.n_cols):
            if c2 == t:
                continue
            for c3 in range(table.n_cols):
                if c3 in (t, c2):
                    continue
                for r in range(table.n_rows):
                    v2, v3 = table.raw(r, c2), table.raw(r, c3)
                    if not v2 or not v3:
                        continue
                    key = (t, c2, c3, v2, v3)
                    if key not in seen:
                        seen.add(key)
                        out.append(key)
    return out


def _cands_only(table: TypedTable) -> list:
    out = []
    for c1 in range(table.n_cols):
        for c2 in range(table.n_cols):
            if c1 == c2:
                continue
            for v2, rows in table.groups(c2).items():
                names = []
                ok = True
                for r in rows:
                    name = table.raw(r, c1)
                    if not name:
                        ok = False
                        break
                    if name not in names:
                        names.append(name)
                if ok:
                    out.extend((c1, v1, c2, v2) for v1 in names)
    return out


def _cands_every_most(table: TypedTable) -> list:
    out = []
    for c1 in range(table.n_cols):
        for c2 in range(table.n_cols):
            if c1 == c2:
                continue
            out.extend((c1, c2, v2) for v2 in table.groups(c2))
    return out


def _cands_number_pairs(table: TypedTable, operators: tuple[str, ...]) -> list:
    out = []
    for c2 in table.number_columns():
        for c1 in range(table.n_cols):
            if c1 == c2:
                continue
            anchors = [(v, r) for v, r in table.unique_values(c1)
                       if isinstance(table.parsed(r, c2), Decimal)]
            for i, first in enumerate(anchors):
                for second in anchors[i + 1:]:
                    out.extend((c1, c2, first, second, op) for op in operators)
    return out


def _cands_temporal_pairs(table: TypedTable, operators: tuple[str, ...]) -> list:
    return [(first, second, op) for first, second in _anchor_pairs(table) for op in operators]


def _cands_superlative(table: TypedTable, temporal: bool) -> list:
    value_cols = table.date_columns() if temporal else table.number_columns()
    ops = ("earliest", "latest") if temporal else ("highest", "lowest")
    out = []
    for c2 in value_cols:
        for c1 in range(table.n_cols):
            if c1 == c2:
                continue
            out.extend((c1, c2, op, tmpl) for op in ops for tmpl in (0, 1))
    return out


def _cands_filtered(table: TypedTable, value_cols: list[int], min_rows: int = 1) -> list:
    out = []
    for c1 in value_cols:
        for c2 in range(table.n_cols):
            if c1 == c2:
                continue
            out.extend((c1, c2, v2) for v2, rows in table.groups(c2).items()
                       if len(rows) >= min_rows)
    return out


def _cands_arith_superlative(table: TypedTable) -> list:
    out = []
    for c1, ops in ((c, ("highest", "lowest")) for c in table.number_columns()):
        for c2 in range(table.n_cols):
            if c1 == c2:
                continue
            for v2, rows in table.groups(c2).items():
                if len(rows) >= 2:
                    out.extend((c1, c2, v2, op) for op in ops)
    for c1 in table.date_columns():
        for c2 in range(table.n_cols):
            if c1 == c2:
                continue
            for v2, rows in table.groups(c2).items():
                if len(rows) >= 2:
                    out.extend((c1, c2, v2, op) for op in ("earliest", "latest"))
    return out


def _titles(table: TypedTable) -> dict[str, list[str]]:
    return {
        "table-title": [table.meta.table_title],
        "page-title": [table.meta.page_title],
    }


def _realize_composition(table: TypedTable, kind: GeneratorKind, cand) -> Triplet:
    anchor_col, anchor_val, chain, target = cand
    values, plans = _composition_core(table, anchor_col, anchor_val, chain, target)
    template = TEMPLATES[kind][0]
    anchor_row = table.rows_with(anchor_col, anchor_val)[0]
    question = _fill(template, {
        "col:1": [table.column_name(target)],
        "col:2": [table.column_name(anchor_col)],
        "val:2": [anchor_val],
        **_titles(table),
    })
    bindings = (
        ("col:1", _col_bind(table, target)),
        ("col:2", _col_bind(table, anchor_col)),
        ("val:2", _val_bind(table, anchor_col, anchor_row)),
    )
    return Triplet(Instantiation(template, bindings, question),
                   Answer(AnswerKind.SPAN_LIST, values), gold_spec(plans))


def _realize_conjunction(table: TypedTable, kind: GeneratorKind, cand) -> Triplet:
    target, c2, c3, v2, v3 = cand
    values, plans = _conjunction_core(table, target, c2, v2, c3, v3)
    template = TEMPLATES[kind][0]
    row = next(r for r in table.rows_with(c2, v2) if table.raw(r, c3) == v3)
    question = _fill(template, {
        "col:1": [table.column_name(target)],
        "col:2": [table.column_name(c2)],
        "val:2": [v2],
        "col:3": [table.column_name(c3)],
        "val:3": [v3],
        **_titles(table),
    })
    bindings = (
        ("col:1", _col_bind(table, target)),
        ("col:2", _col_bind(table, c2)),
        ("val:2", _val_bind(table, c2, row)),
        ("col:3", _col_bind(table, c3)),
        ("val:3", _val_bind(table, c3, row)),
    )
    return Triplet(Instantiation(template, bindings, question),
                   Answer(AnswerKind.SPAN_LIST, values), gold_spec(plans))


def _realize_only(table: TypedTable, kind: GeneratorKind, cand) -> Triplet:
    c1, v1, c2, v2 = cand
    result, plans = _quantifier_core(table, "only", c1, v1, c2, v2)
    template = TEMPLATES[kind][0]
    rows = table.rows_with(c2, v2)
    v1_row = next(r for r in rows if table.raw(r, c1) == v1)
    question = _fill(template, {
        "val:1": [v1],
        "col:1": [table.column_name(c1)],
        "col:2": [table.column_name(c2)],
        "val:2": [v2],
        **_titles(table),
    })
    bindings = (
        ("val:1", _val_bind(table, c1, v1_row)),
        ("col:1", _col_bind(table, c1)),
        ("col:2", _col_bind(table, c2)),
        ("val:2", _val_bind(table, c2, rows[0])),
    )
    return Triplet(Instantiation(template, bindings, question),
                   Answer(AnswerKind.YES_NO, ("yes" if result else "no",)), gold_spec(plans))


def _realize_every_most(table: TypedTable, kind: GeneratorKind, cand) -> Triplet:
    c1, c2, v2 = cand
    which = "every" if kind is GeneratorKind.QUANTIFIER_EVERY else "most"
    result, plans = _quantifier_core(table, which, c1, None, c2, v2)
    template = TEMPLATES[kind][0]
    row = table.rows_with(c2, v2)[0]
    question = _fill(template, {
        "[OPERATOR]": [which],
        "col:1": [table.column_name(c1)],
        "col:2": [table.column_name(c2)],
        "val:2": [v2],
        **_titles(table),
    })
    bindings = (
        ("[OPERATOR]", {"operator": which}),
        ("col:1", _col_bind(table, c1)),
        ("col:2", _col_bind(table, c2)),
        ("val:2", _val_bind(table, c2, row)),
    )
    return Triplet(Instantiation(template, bindings, question),
                   Answer(AnswerKind.YES_NO, ("yes" if result else "no",)), gold_spec(plans))


def _realize_number_comparison(table: TypedTable, kind: GeneratorKind, cand) -> Triplet:
    c1, c2, (va, ra), (vb, rb), op = cand
    boolean = kind is GeneratorKind.NUMBER_BOOLEAN_COMPARISON
    if boolean:
        # The question does not name the anchor column, so the value pair must
        # not occur together in any other column.
        for c in range(table.n_cols):
            if c != c1 and table.rows_with(c, va) and table.rows_with(c, vb):
                raise AmbiguousChain("anchor pair occurs in another column")
    qa, qb, plans = _number_pair_core(table, c1, c2, ra, rb)
    a_wins = (qa > qb) == (op == "higher")
    template = TEMPLATES[kind][0]
    question = _fill(template, {
        "col:1": [table.column_name(c1)],
        "col:2": [table.column_name(c2)],
        "val:1": [va, vb],
        "[OPERATOR]": [op],
        **_titles(table),
    })
    bindings = (
        ("col:1", _col_bind(table, c1)),
        ("[OPERATOR]", {"operator": op}),
        ("col:2", _col_bind(table, c2)),
        ("val:1", _val_bind(table, c1, ra)),
        ("val:1", _val_bind(table, c1, rb)),
    )
    if boolean:
        answer = Answer(AnswerKind.YES_NO, ("yes" if a_wins else "no",))
    else:
        answer = Answer(AnswerKind.SPAN_LIST, (va if a_wins else vb,))
    return Triplet(Instantiation(template, bindings, question), answer, gold_spec(plans))


def _realize_temporal_comparison(table: TypedTable, kind: GeneratorKind, cand) -> Triplet:
    (ca, va, ra), (cb, vb, rb), op = cand
    order, plans = _temporal_pair_core(table, ca, ra, cb, rb)
    boolean = kind is GeneratorKind.TEMPORAL_BOOLEAN_COMPARISON
    if op in ("later", "more recently than when"):
        a_wins = order > 0
    else:
        a_wins = order < 0
    template = TEMPLATES[kind][0]
    question = _fill(template, {
        "col:1": [table.column_name(ca)],
        "val:1": [va],
        "col:2": [table.column_name(cb)],
        "val:2": [vb],
        "[OPERATOR]": [op],
        **_titles(table),
    })
    bindings = (
        ("[OPERATOR]", {"operator": op}),
        ("col:1", _col_bind(table, ca)),
        ("val:1", _val_bind(table, ca, ra)),
        ("col:2", _col_bind(table, cb)),
        ("val:2", _val_bind(table, cb, rb)),
    )
    if boolean:
        answer = Answer(AnswerKind.YES_NO, ("yes" if a_wins else "no",))
    else:
        answer = Answer(AnswerKind.SPAN_LIST, (va if a_wins else vb,))
    return Triplet(Instantiation(template, bindings, question), answer, gold_spec(plans))


def _realize_superlative(table: TypedTable, kind: GeneratorKind, cand) -> Triplet:
    c1, c2, op, tmpl_idx = cand
    values, plans = _superlative_core(table, c1, c2, op)
    template = TEMPLATES[kind][tmpl_idx]
    question = _fill(template, {
        "col:1": [table.column_name(c1)],
        "col:2": [table.column_name(c2)],
        "[OPERATOR]": [op],
        **_titles(table),
    })
    bindings = (
        ("col:1", _col_bind(table, c1)),
        ("[OPERATOR]", {"operator": op}),
        ("col:2", _col_bind(table, c2)),
    )
    return Triplet(Instantiation(template, bindings, question),
                   Answer(AnswerKind.SPAN_LIST, values), gold_spec(plans))


def _realize_arith_superlative(table: TypedTable, kind: GeneratorKind, cand) -> Triplet:
    c1, c2, v2, op = cand
    rendered, answer_kind, plans = _arith_superlative_core(table, c1, c2, v2, op)
    template = TEMPLATES[kind][0]
    row = table.rows_with(c2, v2)[0]
    question = _fill(template, {
        "[OPERATOR]": [op],
        "col:1": [table.column_name(c1)],
        "col:2": [table.column_name(c2)],
        "val:2": [v2],
        **_titles(table),
    })
    bindings = (
        ("[OPERATOR]", {"operator": op}),
        ("col:1", _col_bind(table, c1)),
        ("col:2", _col_bind(table, c2)),
        ("val:2", _val_bind(table, c2, row)),
    )
    return Triplet(Instantiation(template, bindings, question),
                   Answer(answer_kind, (rendered,)), gold_spec(plans))


def _realize_addition(table: TypedTable, kind: GeneratorKind, cand) -> Triplet:
    c1, c2, v2 = cand
    rendered, plans = _addition_core(table, c1, c2, v2)
    template = TEMPLATES[kind][0]
    row = table.rows_with(c2, v2)[0]
    question = _fill(template, {
        "col:1": [table.column_name(c1)],
        "col:2": [table.column_name(c2)],
        "val:2": [v2],
        **_titles(table),
    })
    bindings = (
        ("col:1", _col_bind(table, c1)),
        ("col:2", _col_bind(table, c2)),
        ("val:2", _val_bind(table, c2, row)),
    )
    return Triplet(Instantiation(template, bindings, question),
                   Answer(AnswerKind.NUMBER, (rendered,)), gold_spec(plans))


def _realize_counting(table: TypedTable, kind: GeneratorKind, cand) -> Triplet:
    c1, c2, v2 = cand
    count, plans = _counting_core(table, c1, c2, v2)
    template = TEMPLATES[kind][0]
    row = table.rows_with(c2, v2)[0]
    question = _fill(template, {
        "col:1": [pluralize(table.column_name(c1).lower())],
        "col:2": [table.column_name(c2).lower()],
        "val:2": [v2],
        **_titles(table),
    })
    bindings = (
        ("col:1", _col_bind(table, c1)),
        ("col:2", _col_bind(table, c2)),
        ("val:2", _val_bind(table, c2, row)),
    )
    return Triplet(Instantiation(template, bindings, question),
                   Answer(AnswerKind.NUMBER, (str(count),)), gold_spec(plans))


def _realize_date_difference(table: TypedTable, kind: GeneratorKind, cand) -> Triplet:
    (ca, va, ra), (cb, vb, rb), _op = cand
    rendered, plans = _date_difference_core(table, ca, ra, cb, rb)
    template = TEMPLATES[kind][0]
    question = _fill(template, {
        "col:1": [table.column_name(ca)],
        "val:1": [va],
        "col:2": [table.column_name(cb)],
        "val:2": [vb],
        **_titles(table),
    })
    bindings = (
        ("col:1", _col_bind(table, ca)),
        ("val:1", _val_bind(table, ca, ra)),
        ("col:2", _col_bind(table, cb)),
        ("val:2", _val_bind(table, cb, rb)),
    )
    return Triplet(Instantiation(template, bindings, question),
                   Answer(AnswerKind.DURATION, (rendered,)), gold_spec(plans))


_CANDIDATES = {
    GeneratorKind.COMPOSITION_2HOP: lambda t: _cands_composition(t, 2),
    GeneratorKind.COMPOSITION_3HOP: lambda t: _cands_composition(t, 3),
    GeneratorKind.CONJUNCTION: _cands_conjunction,
    GeneratorKind.QUANTIFIER_ONLY: _cands_only,
    GeneratorKind.QUANTIFIER_MOST: _cands_every_most,
    GeneratorKind.QUANTIFIER_EVERY: _cands_every_most,
    GeneratorKind.NUMBER_COMPARISON: lambda t: _cands_number_pairs(t, ("higher", "lower")),
    GeneratorKind.NUMBER_BOOLEAN_COMPARISON: lambda t: _cands_number_pairs(t, ("higher", "lower")),
    GeneratorKind.TEMPORAL_COMPARISON: lambda t: _cands_temporal_pairs(t, ("earlier", "later")),
    GeneratorKind.TEMPORAL_BOOLEAN_COMPARISON: lambda t: _cands_temporal_pairs(
        t, ("more recently than when", "earlier than when")),
    GeneratorKind.NUMBER_SUPERLATIVE: lambda t: _cands_superlative(t, temporal=False),
    GeneratorKind.TEMPORAL_SUPERLATIVE: lambda t: _cands_superlative(t, temporal=True),
    GeneratorKind.ARITHMETIC_SUPERLATIVE: _cands_arith_superlative,
    GeneratorKind.ARITHMETIC_ADDITION: lambda t: _cands_filtered(t, t.number_columns(), min_rows=2),
    GeneratorKind.COUNTING: lambda t: _cands_filtered(t, list(range(t.n_cols)), min_rows=1),
    GeneratorKind.DATE_DIFFERENCE: lambda t: _cands_temporal_pairs(t, ("",)),
}

_REALIZE = {
    GeneratorKind.COMPOSITION_2HOP: _realize_composition,
    GeneratorKind.COMPOSITION_3HOP: _realize_composition,
    GeneratorKind.CONJUNCTION: _realize_conjunction,
    GeneratorKind.QUANTIFIER_ONLY: _realize_only,
    GeneratorKind.QUANTIFIER_MOST: _realize_every_most,
    GeneratorKind.QUANTIFIER_EVERY: _realize_every_most,
    GeneratorKind.NUMBER_COMPARISON: _realize_number_comparison,
    GeneratorKind.NUMBER_BOOLEAN_COMPARISON: _realize_number_comparison,
    GeneratorKind.TEMPORAL_COMPARISON: _realize_temporal_comparison,
    GeneratorKind.TEMPORAL_BOOLEAN_COMPARISON: _realize_temporal_comparison,
    GeneratorKind.NUMBER_SUPERLATIVE: _realize_superlative,
    GeneratorKind.TEMPORAL_SUPERLATIVE: _realize_superlative,
    GeneratorKind.ARITHMETIC_SUPERLATIVE: _realize_arith_superlative,
    GeneratorKind.ARITHMETIC_ADDITION: _realize_addition,
    GeneratorKind.COUNTING: _realize_counting,
    GeneratorKind.DATE_DIFFERENCE: _realize_date_difference,
}


def generate(table: TypedTable, kind: GeneratorKind, seed: int,
             cap: int | None = PER_TABLE_CAP) -> list[Triplet]:
    """Sample up to `cap` valid triplets for one (table, generator) pair.

    Candidates are enumerated exhaustively, then drawn one at a time in a
    random order seeded from (seed, table id, generator) and validated as
    drawn; discards do not count against the cap. Each draw is one step of a
    lazy partial Fisher–Yates shuffle, so the cost follows the candidates
    tried, not the number enumerated (seed-stream v2). Pass cap=None to
    realize every valid candidate. Returns an empty list when the generator's
    requirements cannot be met.
    """
    rng = random.Random(derive_seed(seed, table.meta.id, kind.value))
    candidates = _CANDIDATES[kind](table)
    realize = _REALIZE[kind]
    out: list[Triplet] = []
    seen_bindings: set[tuple] = set()
    for cand in _sampled(rng, candidates):
        if cap is not None and len(out) >= cap:
            break
        try:
            triplet = realize(table, kind, cand)
        except (Discard, IncomparablePrecision):
            continue
        key = tuple((slot, tuple(sorted(payload.items()))) for slot, payload in
                    triplet.instantiation.bindings)
        if key in seen_bindings:
            continue
        seen_bindings.add(key)
        out.append(triplet)
    return out
