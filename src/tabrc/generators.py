"""The sixteen example generators.

Each generator owns one reasoning skill (composition, conjunction,
quantification, comparisons, superlatives, counting, addition, date
difference), a question template with typed slots, and a procedure that
computes the answer from the table. `generate` instantiates up to `cap`
question/answer/gold-spec triplets for one (table, generator) pair,
deterministically for a fixed seed.

A generator is data: an entry in `_GENERATORS` pairs a candidate enumerator
with a realizer, and `TEMPLATES` holds its question patterns. A realizer
takes one candidate, validates it through the generator's `_*_core` function
(raising a `Discard` when it cannot give a sound example) and returns a
`_Realized`: the `Answer`, the fact plans behind the gold facts, the ordered
slot bindings, and the template index. A slot binds a column (`_Column`), a
cell (`_Cell`) or an operator word (`_Operator`). `_instantiate` turns the
bindings into both the question text and the binding payloads that example
ids hash, so binding order is part of the output.

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
import random
import re
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from functools import partial
from typing import Callable, NamedTuple

from .facts import FactPlan, GoldSpec, _sampled, gold_spec, pluralize
from .tables import TypedTable
from .values import (
    Date,
    IncomparablePrecision,
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


# Question patterns per generator; the i-th pattern (from 1) is template
# `<generator>-<i>`.
_PATTERNS: dict[GeneratorKind, tuple[str, ...]] = {
    GeneratorKind.COMPOSITION_2HOP: (
        "What was the col:1(s) when the col:2 was val:2 in table-title of page-title?",
    ),
    GeneratorKind.COMPOSITION_3HOP: (
        "What was the col:1(s) when the col:2 was val:2 in table-title of page-title?",
    ),
    GeneratorKind.CONJUNCTION: (
        "What was the col:1 when the col:2 was val:2 and the col:3 was val:3 in table-title "
        "of page-title?",
    ),
    GeneratorKind.QUANTIFIER_ONLY: (
        "Is val:1 the only col:1 that has col:2 val:2 in table-title of page-title?",
    ),
    GeneratorKind.QUANTIFIER_EVERY: (
        "In table-title of page-title, does [OPERATOR] col:1 have col:2 val:2?",
    ),
    GeneratorKind.QUANTIFIER_MOST: (
        "In table-title of page-title, does [OPERATOR] col:1 have col:2 val:2?",
    ),
    GeneratorKind.NUMBER_COMPARISON: (
        "In table-title of page-title, which col:1 had a [OPERATOR] col:2: val:1 or val:1?",
    ),
    GeneratorKind.TEMPORAL_COMPARISON: (
        "In table-title of page-title, what happened [OPERATOR]: the col:1 was val:1 or the "
        "col:2 was val:2?",
    ),
    GeneratorKind.NUMBER_BOOLEAN_COMPARISON: (
        "In table-title of page-title, did val:1 have [OPERATOR] col:2 than val:1?",
    ),
    GeneratorKind.TEMPORAL_BOOLEAN_COMPARISON: (
        "The col:1 was val:1 [OPERATOR] the col:2 was val:2 in table-title of page-title?",
    ),
    GeneratorKind.NUMBER_SUPERLATIVE: (
        "In table-title of page-title, which col:1 has the [OPERATOR] col:2?",
        "Which col:1 has the [OPERATOR] col:2 in table-title of page-title?",
    ),
    GeneratorKind.TEMPORAL_SUPERLATIVE: (
        "In table-title of page-title, which col:1 has the [OPERATOR] col:2?",
        "Which col:1 has the [OPERATOR] col:2 in table-title of page-title?",
    ),
    GeneratorKind.ARITHMETIC_SUPERLATIVE: (
        "In table-title of page-title, what was the [OPERATOR] col:1 when the col:2 was val:2?",
    ),
    GeneratorKind.ARITHMETIC_ADDITION: (
        "In table-title of page-title, what was the total number of col:1 when the col:2 was "
        "val:2?",
    ),
    GeneratorKind.COUNTING: (
        "How many col:1 have col:2 val:2 in table-title of page-title?",
    ),
    GeneratorKind.DATE_DIFFERENCE: (
        "In table-title of page-title, how much time had passed between when the col:1 was "
        "val:1 and when the col:2 was val:2?",
    ),
}

TEMPLATES: dict[GeneratorKind, tuple[Template, ...]] = {
    kind: tuple(Template(kind, f"{kind.value}-{i}", pattern)
                for i, pattern in enumerate(patterns, start=1))
    for kind, patterns in _PATTERNS.items()
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
    """Distinct values in first-seen order."""
    return tuple(dict.fromkeys(values))


class _Column(NamedTuple):
    """A slot bound to a column. The binding records the column name; the
    question shows `form(name)`, which is the name itself by default. `form`
    must be one function object per generator, not made per call, because
    `generate` compares slots to drop repeated bindings."""
    c: int
    form: Callable[[str], str] = str

    def bind(self, table: TypedTable) -> tuple[str, dict]:
        name = table.column_name(self.c)
        return self.form(name), {"column": name}


class _Cell(NamedTuple):
    """A slot bound to the cell (column c, row r); the question shows its text."""
    c: int
    r: int

    def bind(self, table: TypedTable) -> tuple[str, dict]:
        value = table.raw(self.r, self.c)
        return value, {"column": table.column_name(self.c), "row": self.r, "value": value}


class _Operator(NamedTuple):
    """A slot bound to an operator word, shown as is."""
    op: str

    def bind(self, table: TypedTable) -> tuple[str, dict]:
        return self.op, {"operator": self.op}


_Slots = tuple[tuple[str, "_Column | _Cell | _Operator"], ...]


class _Realized(NamedTuple):
    """What a realizer returns for one valid candidate."""
    answer: Answer
    plans: list[FactPlan]
    slots: _Slots
    template: int = 0  # index into TEMPLATES[kind]


def _instantiate(table: TypedTable, template: Template, slots: _Slots) -> Instantiation:
    """Fill the template from the ordered slot bindings. A slot bound more
    than once fills its occurrences in binding order; the titles are filled
    from the table."""
    shown: dict[str, list[str]] = {
        "table-title": [table.meta.table_title],
        "page-title": [table.meta.page_title],
    }
    bindings = []
    for slot, binding in slots:
        text, payload = binding.bind(table)
        shown.setdefault(slot, []).append(text)
        bindings.append((slot, payload))
    return Instantiation(template, tuple(bindings), _fill(template, shown))


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
    out: dict[tuple, None] = {}
    for t in range(table.n_cols):
        for c2 in range(table.n_cols):
            if c2 == t:
                continue
            for c3 in range(table.n_cols):
                if c3 in (t, c2):
                    continue
                for r in range(table.n_rows):
                    v2, v3 = table.raw(r, c2), table.raw(r, c3)
                    if v2 and v3:
                        out[(t, c2, c3, v2, v3)] = None
    return list(out)


def _cands_only(table: TypedTable) -> list:
    out = []
    for c1 in range(table.n_cols):
        for c2 in range(table.n_cols):
            if c1 == c2:
                continue
            for v2, rows in table.groups(c2).items():
                names = [table.raw(r, c1) for r in rows]
                if all(names):
                    out.extend((c1, v1, c2, v2) for v1 in _dedup(names))
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
    for value_cols, ops in ((table.number_columns(), ("highest", "lowest")),
                            (table.date_columns(), ("earliest", "latest"))):
        out.extend((c1, c2, v2, op) for c1, c2, v2 in _cands_filtered(table, value_cols, min_rows=2)
                   for op in ops)
    return out


def _yes_no(flag: bool) -> Answer:
    return Answer(AnswerKind.YES_NO, ("yes" if flag else "no",))


def _comparison_answer(boolean: bool, a_wins: bool, va: str, vb: str) -> Answer:
    if boolean:
        return _yes_no(a_wins)
    return Answer(AnswerKind.SPAN_LIST, (va if a_wins else vb,))


def _plural_noun(name: str) -> str:
    return pluralize(name.lower())


def _realize_composition(table: TypedTable, cand) -> _Realized:
    anchor_col, anchor_val, chain, target = cand
    values, plans = _composition_core(table, anchor_col, anchor_val, chain, target)
    anchor_row = table.rows_with(anchor_col, anchor_val)[0]
    return _Realized(Answer(AnswerKind.SPAN_LIST, values), plans, (
        ("col:1", _Column(target)),
        ("col:2", _Column(anchor_col)),
        ("val:2", _Cell(anchor_col, anchor_row)),
    ))


def _realize_conjunction(table: TypedTable, cand) -> _Realized:
    target, c2, c3, v2, v3 = cand
    values, plans = _conjunction_core(table, target, c2, v2, c3, v3)
    row = next(r for r in table.rows_with(c2, v2) if table.raw(r, c3) == v3)
    return _Realized(Answer(AnswerKind.SPAN_LIST, values), plans, (
        ("col:1", _Column(target)),
        ("col:2", _Column(c2)),
        ("val:2", _Cell(c2, row)),
        ("col:3", _Column(c3)),
        ("val:3", _Cell(c3, row)),
    ))


def _realize_only(table: TypedTable, cand) -> _Realized:
    c1, v1, c2, v2 = cand
    result, plans = _quantifier_core(table, "only", c1, v1, c2, v2)
    rows = table.rows_with(c2, v2)
    v1_row = next(r for r in rows if table.raw(r, c1) == v1)
    return _Realized(_yes_no(result), plans, (
        ("val:1", _Cell(c1, v1_row)),
        ("col:1", _Column(c1)),
        ("col:2", _Column(c2)),
        ("val:2", _Cell(c2, rows[0])),
    ))


def _realize_every_most(which: str, table: TypedTable, cand) -> _Realized:
    c1, c2, v2 = cand
    result, plans = _quantifier_core(table, which, c1, None, c2, v2)
    return _Realized(_yes_no(result), plans, (
        ("[OPERATOR]", _Operator(which)),
        ("col:1", _Column(c1)),
        ("col:2", _Column(c2)),
        ("val:2", _Cell(c2, table.rows_with(c2, v2)[0])),
    ))


def _realize_number_comparison(boolean: bool, table: TypedTable, cand) -> _Realized:
    c1, c2, (va, ra), (vb, rb), op = cand
    if boolean:
        # The question does not name the anchor column, so the value pair must
        # not occur together in any other column.
        for c in range(table.n_cols):
            if c != c1 and table.rows_with(c, va) and table.rows_with(c, vb):
                raise AmbiguousChain("anchor pair occurs in another column")
    qa, qb, plans = _number_pair_core(table, c1, c2, ra, rb)
    a_wins = (qa > qb) == (op == "higher")
    return _Realized(_comparison_answer(boolean, a_wins, va, vb), plans, (
        ("col:1", _Column(c1)),
        ("[OPERATOR]", _Operator(op)),
        ("col:2", _Column(c2)),
        ("val:1", _Cell(c1, ra)),
        ("val:1", _Cell(c1, rb)),
    ))


def _realize_temporal_comparison(boolean: bool, table: TypedTable, cand) -> _Realized:
    (ca, va, ra), (cb, vb, rb), op = cand
    order, plans = _temporal_pair_core(table, ca, ra, cb, rb)
    a_wins = order > 0 if op in ("later", "more recently than when") else order < 0
    return _Realized(_comparison_answer(boolean, a_wins, va, vb), plans, (
        ("[OPERATOR]", _Operator(op)),
        ("col:1", _Column(ca)),
        ("val:1", _Cell(ca, ra)),
        ("col:2", _Column(cb)),
        ("val:2", _Cell(cb, rb)),
    ))


def _realize_superlative(table: TypedTable, cand) -> _Realized:
    c1, c2, op, template = cand
    values, plans = _superlative_core(table, c1, c2, op)
    return _Realized(Answer(AnswerKind.SPAN_LIST, values), plans, (
        ("col:1", _Column(c1)),
        ("[OPERATOR]", _Operator(op)),
        ("col:2", _Column(c2)),
    ), template)


def _realize_arith_superlative(table: TypedTable, cand) -> _Realized:
    c1, c2, v2, op = cand
    rendered, answer_kind, plans = _arith_superlative_core(table, c1, c2, v2, op)
    return _Realized(Answer(answer_kind, (rendered,)), plans, (
        ("[OPERATOR]", _Operator(op)),
        ("col:1", _Column(c1)),
        ("col:2", _Column(c2)),
        ("val:2", _Cell(c2, table.rows_with(c2, v2)[0])),
    ))


def _realize_addition(table: TypedTable, cand) -> _Realized:
    c1, c2, v2 = cand
    rendered, plans = _addition_core(table, c1, c2, v2)
    return _Realized(Answer(AnswerKind.NUMBER, (rendered,)), plans, (
        ("col:1", _Column(c1)),
        ("col:2", _Column(c2)),
        ("val:2", _Cell(c2, table.rows_with(c2, v2)[0])),
    ))


def _realize_counting(table: TypedTable, cand) -> _Realized:
    c1, c2, v2 = cand
    count, plans = _counting_core(table, c1, c2, v2)
    return _Realized(Answer(AnswerKind.NUMBER, (str(count),)), plans, (
        ("col:1", _Column(c1, _plural_noun)),
        ("col:2", _Column(c2, str.lower)),
        ("val:2", _Cell(c2, table.rows_with(c2, v2)[0])),
    ))


def _realize_date_difference(table: TypedTable, cand) -> _Realized:
    (ca, va, ra), (cb, vb, rb), _op = cand
    rendered, plans = _date_difference_core(table, ca, ra, cb, rb)
    return _Realized(Answer(AnswerKind.DURATION, (rendered,)), plans, (
        ("col:1", _Column(ca)),
        ("val:1", _Cell(ca, ra)),
        ("col:2", _Column(cb)),
        ("val:2", _Cell(cb, rb)),
    ))


# Per generator: (candidate enumeration, realizer).
_GENERATORS: dict[GeneratorKind, tuple[Callable[[TypedTable], list],
                                       Callable[[TypedTable, object], _Realized]]] = {
    GeneratorKind.COMPOSITION_2HOP: (lambda t: _cands_composition(t, 2), _realize_composition),
    GeneratorKind.COMPOSITION_3HOP: (lambda t: _cands_composition(t, 3), _realize_composition),
    GeneratorKind.CONJUNCTION: (_cands_conjunction, _realize_conjunction),
    GeneratorKind.QUANTIFIER_ONLY: (_cands_only, _realize_only),
    GeneratorKind.QUANTIFIER_MOST: (_cands_every_most, partial(_realize_every_most, "most")),
    GeneratorKind.QUANTIFIER_EVERY: (_cands_every_most, partial(_realize_every_most, "every")),
    GeneratorKind.NUMBER_COMPARISON: (
        lambda t: _cands_number_pairs(t, ("higher", "lower")),
        partial(_realize_number_comparison, False)),
    GeneratorKind.NUMBER_BOOLEAN_COMPARISON: (
        lambda t: _cands_number_pairs(t, ("higher", "lower")),
        partial(_realize_number_comparison, True)),
    GeneratorKind.TEMPORAL_COMPARISON: (
        lambda t: _cands_temporal_pairs(t, ("earlier", "later")),
        partial(_realize_temporal_comparison, False)),
    GeneratorKind.TEMPORAL_BOOLEAN_COMPARISON: (
        lambda t: _cands_temporal_pairs(t, ("more recently than when", "earlier than when")),
        partial(_realize_temporal_comparison, True)),
    GeneratorKind.NUMBER_SUPERLATIVE: (
        lambda t: _cands_superlative(t, temporal=False), _realize_superlative),
    GeneratorKind.TEMPORAL_SUPERLATIVE: (
        lambda t: _cands_superlative(t, temporal=True), _realize_superlative),
    GeneratorKind.ARITHMETIC_SUPERLATIVE: (_cands_arith_superlative, _realize_arith_superlative),
    GeneratorKind.ARITHMETIC_ADDITION: (
        lambda t: _cands_filtered(t, t.number_columns(), min_rows=2), _realize_addition),
    GeneratorKind.COUNTING: (
        lambda t: _cands_filtered(t, list(range(t.n_cols)), min_rows=1), _realize_counting),
    GeneratorKind.DATE_DIFFERENCE: (
        lambda t: _cands_temporal_pairs(t, ("",)), _realize_date_difference),
}


def generate(table: TypedTable, kind: GeneratorKind, seed: int,
             cap: int | None = PER_TABLE_CAP) -> list[Triplet]:
    """Sample up to `cap` valid triplets for one (table, generator) pair.

    Candidates are enumerated exhaustively, then drawn one at a time in a
    random order seeded from (seed, table id, generator) and validated as
    drawn; discards and repeated slot bindings do not count against the cap.
    Each draw is one step of a lazy partial Fisher–Yates shuffle, so the cost
    follows the candidates tried, not the number enumerated (seed-stream v2).
    Pass cap=None to realize every valid candidate. Returns an empty list
    when the generator's requirements cannot be met.
    """
    rng = random.Random(derive_seed(seed, table.meta.id, kind.value))
    candidates, realize = _GENERATORS[kind]
    out: list[Triplet] = []
    seen_slots: set[tuple] = set()
    for cand in _sampled(rng, candidates(table)):
        if cap is not None and len(out) >= cap:
            break
        try:
            answer, plans, slots, template = realize(table, cand)
        except (Discard, IncomparablePrecision):
            continue
        # Slots name columns and cells by index, which within one table
        # identifies the same bindings as their payloads do.
        if slots in seen_slots:
            continue
        seen_slots.add(slots)
        instantiation = _instantiate(table, TEMPLATES[kind][template], slots)
        out.append(Triplet(instantiation, answer, gold_spec(plans)))
    return out
