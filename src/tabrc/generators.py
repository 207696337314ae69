"""The sixteen example generators.

Each generator owns one reasoning skill (composition, conjunction,
quantification, comparisons, superlatives, counting, addition, date
difference), a question template with typed slots, and a procedure that
computes the answer from the table. `generate` instantiates up to `cap`
question/answer/gold-spec triplets for one (table, generator) pair,
deterministically for a fixed seed.

A generator is data: an entry in `_GENERATORS` pairs a candidate enumerator
with one function, `(table, candidate) -> _Realized`, and `TEMPLATES` holds
its question patterns. That function validates the candidate, raising a
`Discard` when it cannot give a sound example, and returns a `_Realized`: the
`Answer`, the fact plans behind the gold facts, the ordered slot bindings,
and the template index. A slot binds a column (`_Column`), a cell (`_Cell`)
or an operator word (`_Operator`). `_instantiate` turns the bindings into
both the question text and the binding payloads that example ids hash, so
binding order is part of the output.

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

import bisect
import hashlib
import itertools
import math
import random
import re
from decimal import Decimal
from enum import Enum
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

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


class Answer(NamedTuple):
    kind: AnswerKind
    values: tuple[str, ...]


class Template(NamedTuple):
    kind: GeneratorKind
    id: str
    pattern: str


class Instantiation(NamedTuple):
    template: Template
    bindings: tuple[tuple[str, dict], ...]
    question: str


class Triplet(NamedTuple):
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
# Candidates per generator. `generate` draws only the candidates it tries,
# through `_sampled`, which needs just a length and random access. The
# generators with many candidates per table therefore return a `_Blocks`,
# which decodes each candidate from its index; the small enumerations stay
# lists.
# ---------------------------------------------------------------------------


class _Product(Sequence):
    """`itertools.product(*factors)` as a read-only sequence: item k is
    decoded from k by mixed radix, the last factor varying fastest."""

    def __init__(self, *factors: Sequence):
        self._factors = factors
        self._len = math.prod(map(len, factors))

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k: int) -> tuple:
        if not 0 <= k < self._len:
            raise IndexError(k)
        digits = []
        for factor in reversed(self._factors):
            k, digit = divmod(k, len(factor))
            digits.append(factor[digit])
        return tuple(reversed(digits))


class _Blocks(Sequence):
    """A read-only sequence of candidate tuples, built from blocks: block
    `(head, tail)` holds `head + t` for each t in the sequence `tail`, and
    the blocks follow each other in the given order. Item i is decoded on
    demand from the prefix sums of the tail lengths."""

    def __init__(self, blocks: Iterable[tuple[tuple, Sequence[tuple]]]):
        self._heads: list[tuple] = []
        self._tails: list[Sequence[tuple]] = []
        self._starts = [0]
        for head, tail in blocks:
            if len(tail):
                self._heads.append(head)
                self._tails.append(tail)
                self._starts.append(self._starts[-1] + len(tail))

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, i: int) -> tuple:
        if not 0 <= i < self._starts[-1]:
            raise IndexError(i)
        b = bisect.bisect_right(self._starts, i) - 1
        return self._heads[b] + self._tails[b][i - self._starts[b]]


def _cands_composition(table: TypedTable, hops: int) -> _Blocks:
    """(anchor column, anchor value, chain, target) for every anchor value,
    target column and chain of hops - 1 distinct other columns; targets vary
    slower than chains."""
    cols = range(table.n_cols)
    blocks = []
    for a in cols:
        tail = [(chain, t) for t in cols if t != a
                for chain in itertools.permutations([c for c in cols if c not in (a, t)], hops - 1)]
        blocks.extend(((a, value), tail) for value in table.groups(a))
    return _Blocks(blocks)


def _cands_conjunction(table: TypedTable) -> _Blocks:
    """(target, c2, c3, v2, v3) for three distinct columns and each distinct
    pair of non-empty values that c2 and c3 hold in one row, in row order."""
    cols = range(table.n_cols)
    texts = [[table.raw(r, c) for r in range(table.n_rows)] for c in cols]
    values = {(c2, c3): list(dict.fromkeys((v2, v3) for v2, v3 in zip(texts[c2], texts[c3])
                                           if v2 and v3))
              for c2 in cols for c3 in cols if c2 != c3}
    return _Blocks(((t, c2, c3), values[c2, c3]) for t in cols for c2 in cols if c2 != t
                   for c3 in cols if c3 not in (t, c2))


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


def _cands_number_pairs(table: TypedTable, operators: tuple[str, ...]) -> _Blocks:
    """(anchor column, number column, first, second, operator): first and
    second are (value, row) anchors, unique in the anchor column and numeric
    in the number column, with first before second."""
    blocks = []
    for c2 in table.number_columns():
        for c1 in range(table.n_cols):
            if c1 == c2:
                continue
            anchors = [(v, r) for v, r in table.unique_values(c1)
                       if isinstance(table.parsed(r, c2), Decimal)]
            blocks.extend(((c1, c2, first), _Product(anchors[i + 1:], operators))
                          for i, first in enumerate(anchors))
    return _Blocks(blocks)


def _cands_temporal_pairs(table: TypedTable, *operators: tuple[str, ...]) -> _Blocks:
    """(first, second), followed by an operator when `operators` are given.
    First and second are (column, value, row) anchors: unique in their
    column, with a parseable event date, on distinct rows, and not the same
    value under two columns; first comes before second."""
    date_col = table.event_date_column()
    if date_col is None:
        return _Blocks(())
    anchors = [(c, value, row) for c in range(table.n_cols) if c != date_col
               for value, row in table.unique_values(c)
               if isinstance(table.parsed(row, date_col), Date)]
    on_row: dict[int, list[int]] = {}
    with_value: dict[str, list[int]] = {}
    for p, (_c, value, row) in enumerate(anchors):
        on_row.setdefault(row, []).append(p)
        with_value.setdefault(value, []).append(p)
    blocks = []
    for i, first in enumerate(anchors):
        _c, value, row = first
        seconds = anchors[i + 1:]
        # Drop the seconds on first's row, and those holding its value
        # (under another column, as values are unique within one).
        dropped = {p for p in on_row[row] + with_value[value] if p > i}
        for p in sorted(dropped, reverse=True):
            del seconds[p - i - 1]
        blocks.append(((first,), _Product(seconds, *operators)))
    return _Blocks(blocks)


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


def _cands_any_filter(table: TypedTable) -> list:
    """(column, filter column, filter value) over every pair of columns."""
    return _cands_filtered(table, list(range(table.n_cols)))


def _cands_arith_superlative(table: TypedTable) -> list:
    out = []
    for value_cols, ops in ((table.number_columns(), ("highest", "lowest")),
                            (table.date_columns(), ("earliest", "latest"))):
        out.extend((c1, c2, v2, op) for c1, c2, v2 in _cands_filtered(table, value_cols, min_rows=2)
                   for op in ops)
    return out


# ---------------------------------------------------------------------------
# Generators: each validates one candidate and realizes it. The answer comes
# with the fact plans that make the question answerable from verbalized facts
# alone.
# ---------------------------------------------------------------------------


def _yes_no(flag: bool) -> Answer:
    return Answer(AnswerKind.YES_NO, ("yes" if flag else "no",))


def _comparison_answer(boolean: bool, a_wins: bool, va: str, vb: str) -> Answer:
    if boolean:
        return _yes_no(a_wins)
    return Answer(AnswerKind.SPAN_LIST, (va if a_wins else vb,))


def _plural_noun(name: str) -> str:
    return pluralize(name.lower())


def _column_scan_plans(table: TypedTable, subject: int, key: int, scope: list[int]) -> list[FactPlan]:
    """One fact per distinct key value, covering a whole-column scan."""
    in_scope = set(scope)
    plans = []
    for _value, rows in table.groups(key).items():
        kept = tuple(r for r in rows if r in in_scope)
        if kept:
            plans.append(FactPlan(subject, (key,), kept))
    return plans


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


def _filter_slots(table: TypedTable, c1: int, c2: int, v2: str,
                  forms: tuple[Callable[[str], str], ...] = (str, str)) -> _Slots:
    """The column col:1, the filter column col:2 and, as val:2, its first cell
    holding v2; `forms` are the two columns' forms in the question."""
    return (
        ("col:1", _Column(c1, forms[0])),
        ("col:2", _Column(c2, forms[1])),
        ("val:2", _Cell(c2, table.rows_with(c2, v2)[0])),
    )


def _event_dates(table: TypedTable, first, second) -> tuple[Date, Date, list[FactPlan]]:
    """The event dates of two (column, value, row) anchors, and the facts
    that state them."""
    (ca, _va, ra), (cb, _vb, rb) = first, second
    date_col = table.event_date_column()
    if date_col is None:
        raise UnparseableCell("no date column")
    da = table.parsed(ra, date_col)
    db = table.parsed(rb, date_col)
    if not isinstance(da, Date) or not isinstance(db, Date):
        raise UnparseableCell("non-date cell")
    return da, db, [FactPlan(date_col, (ca,), (ra,)), FactPlan(date_col, (cb,), (rb,))]


def _anchor_slots(first, second) -> _Slots:
    """col:1 and val:1 name the first anchor, col:2 and val:2 the second."""
    (ca, _va, ra), (cb, _vb, rb) = first, second
    return (
        ("col:1", _Column(ca)),
        ("val:1", _Cell(ca, ra)),
        ("col:2", _Column(cb)),
        ("val:2", _Cell(cb, rb)),
    )


def _realize_composition(table: TypedTable, cand) -> _Realized:
    anchor_col, anchor_val, chain, target = cand
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
    plans += [FactPlan(hop_col, (previous,), (r,)) for r in rows
              for previous, hop_col in zip(chain, (*chain[1:], target))]
    values = _dedup([table.raw(r, target) for r in rows])
    return _Realized(Answer(AnswerKind.SPAN_LIST, values), plans, (
        ("col:1", _Column(target)),
        ("col:2", _Column(anchor_col)),
        ("val:2", _Cell(anchor_col, rows[0])),
    ))


def _realize_conjunction(table: TypedTable, cand) -> _Realized:
    target, c2, c3, v2, v3 = cand
    if c2 == c3:
        raise EmptyResult("conditions must use two distinct columns")
    rows_a = table.rows_with(c2, v2)
    rows_b = table.rows_with(c3, v3)
    both = tuple(r for r in rows_a if table.raw(r, c3) == v3)
    if not both:
        raise EmptyResult(f"{v2} & {v3}")
    if any(not table.raw(r, target) for r in both):
        raise EmptyResult("empty target cell")
    values = _dedup([table.raw(r, target) for r in both])

    # Two single-key facts suffice when intersecting their value lists
    # reproduces the answer exactly; otherwise verbalize one combined fact.
    single_ok = all(table.raw(r, target) for r in rows_a + rows_b)
    if single_ok:
        b_values = {table.raw(r, target) for r in rows_b}
        implied = _dedup([table.raw(r, target) for r in rows_a if table.raw(r, target) in b_values])
        single_ok = implied == values
    if single_ok:
        plans = [FactPlan(target, (c2,), rows_a), FactPlan(target, (c3,), rows_b)]
    else:
        plans = [FactPlan(target, (c2, c3), both)]
    return _Realized(Answer(AnswerKind.SPAN_LIST, values), plans, (
        ("col:1", _Column(target)),
        ("col:2", _Column(c2)),
        ("val:2", _Cell(c2, both[0])),
        ("col:3", _Column(c3)),
        ("val:3", _Cell(c3, both[0])),
    ))


def _realize_only(table: TypedTable, cand) -> _Realized:
    c1, v1, c2, v2 = cand
    rows = table.rows_with(c2, v2)
    if not rows:
        raise EmptyResult(v2)
    if any(not table.raw(r, c1) for r in rows):
        raise UnparseableCell("empty cell under quantifier")
    names = {table.raw(r, c1) for r in rows}
    if v1 not in names:
        raise EmptyResult(f"{v1} not among matches")
    v1_row = next(r for r in rows if table.raw(r, c1) == v1)
    return _Realized(_yes_no(names == {v1}), [FactPlan(c1, (c2,), rows)], (
        ("val:1", _Cell(c1, v1_row)),
        ("col:1", _Column(c1)),
        ("col:2", _Column(c2)),
        ("val:2", _Cell(c2, rows[0])),
    ))


def _realize_every_most(which: str, table: TypedTable, cand) -> _Realized:
    c1, c2, v2 = cand
    # The quantifier ranges over rows where both columns are populated.
    scope = [r for r in range(table.n_rows) if table.raw(r, c1) and table.raw(r, c2)]
    if len(scope) < 2:
        raise InsufficientValues("quantifier scope")
    matches = sum(1 for r in scope if table.raw(r, c2) == v2)
    result = matches == len(scope) if which == "every" else matches * 2 > len(scope)
    return _Realized(_yes_no(result), _column_scan_plans(table, c2, c1, scope),
                     (("[OPERATOR]", _Operator(which)),) + _filter_slots(table, c1, c2, v2))


def _realize_number_comparison(boolean: bool, table: TypedTable, cand) -> _Realized:
    c1, c2, (va, ra), (vb, rb), op = cand
    if boolean:
        # The question does not name the anchor column, so the value pair must
        # not occur together in any other column.
        for c in range(table.n_cols):
            if c != c1 and table.rows_with(c, va) and table.rows_with(c, vb):
                raise AmbiguousChain("anchor pair occurs in another column")
    qa = table.parsed(ra, c2)
    qb = table.parsed(rb, c2)
    if not isinstance(qa, Decimal) or not isinstance(qb, Decimal):
        raise UnparseableCell("non-numeric cell")
    if qa == qb:
        raise TieDiscarded(f"{qa}")
    a_wins = (qa > qb) == (op == "higher")
    plans = [FactPlan(c2, (c1,), (ra,)), FactPlan(c2, (c1,), (rb,))]
    return _Realized(_comparison_answer(boolean, a_wins, va, vb), plans, (
        ("col:1", _Column(c1)),
        ("[OPERATOR]", _Operator(op)),
        ("col:2", _Column(c2)),
        ("val:1", _Cell(c1, ra)),
        ("val:1", _Cell(c1, rb)),
    ))


def _realize_temporal_comparison(boolean: bool, table: TypedTable, cand) -> _Realized:
    first, second, op = cand
    da, db, plans = _event_dates(table, first, second)
    order = compare_dates(da, db)
    if order == 0:
        raise TieDiscarded("dates indistinguishable")
    a_wins = order > 0 if op in ("later", "more recently than when") else order < 0
    return _Realized(_comparison_answer(boolean, a_wins, first[1], second[1]), plans,
                     (("[OPERATOR]", _Operator(op)),) + _anchor_slots(first, second))


def _realize_superlative(table: TypedTable, cand) -> _Realized:
    c1, c2, op, template = cand
    if c1 == c2:
        raise ValueError("target and value columns must differ")
    scope = [r for r in range(table.n_rows)
             if table.parsed(r, c2) is not None and table.raw(r, c1)]
    if len(scope) < 2:
        raise InsufficientValues("superlative scope")
    if op in ("earliest", "latest"):
        if len({table.parsed(r, c2).precision for r in scope}) != 1:
            raise UnparseableCell("mixed date precision")
        keys = {r: table.parsed(r, c2).key() for r in scope}
    else:
        keys = {r: table.parsed(r, c2) for r in scope}
    extreme = (max if op in ("highest", "latest") else min)(keys.values())
    values = _dedup([table.raw(r, c1) for r in scope if keys[r] == extreme])
    return _Realized(Answer(AnswerKind.SPAN_LIST, values), _column_scan_plans(table, c2, c1, scope), (
        ("col:1", _Column(c1)),
        ("[OPERATOR]", _Operator(op)),
        ("col:2", _Column(c2)),
    ), template)


def _realize_arith_superlative(table: TypedTable, cand) -> _Realized:
    c1, c2, v2, op = cand
    rows = _filtered_rows(table, c1, c2, v2)
    values = [table.parsed(r, c1) for r in rows]
    if op in ("earliest", "latest"):
        if len({d.precision for d in values}) != 1:
            raise UnparseableCell("mixed date precision")
        chosen = (max if op == "latest" else min)(values, key=Date.key)
        answer = Answer(AnswerKind.DATE, (render_date(chosen),))
    else:
        chosen = (max if op == "highest" else min)(values)
        answer = Answer(AnswerKind.NUMBER, (render_number(chosen),))
    return _Realized(answer, [FactPlan(c1, (c2,), rows)],
                     (("[OPERATOR]", _Operator(op)),) + _filter_slots(table, c1, c2, v2))


def _realize_addition(table: TypedTable, cand) -> _Realized:
    c1, c2, v2 = cand
    rows = _filtered_rows(table, c1, c2, v2)
    total = sum(table.parsed(r, c1) for r in rows)
    return _Realized(Answer(AnswerKind.NUMBER, (render_number(total),)),
                     [FactPlan(c1, (c2,), rows)], _filter_slots(table, c1, c2, v2))


def _realize_counting(table: TypedTable, cand) -> _Realized:
    c1, c2, v2 = cand
    if c1 == c2:
        raise ValueError("target and filter columns must differ")
    rows = table.rows_with(c2, v2)
    if not rows:
        raise EmptyResult(v2)
    raws = [table.raw(r, c1) for r in rows]
    if any(not raw for raw in raws):
        raise UnparseableCell("empty target cell")
    return _Realized(Answer(AnswerKind.NUMBER, (str(len(set(raws))),)), [FactPlan(c1, (c2,), rows)],
                     _filter_slots(table, c1, c2, v2, (_plural_noun, str.lower)))


def _realize_date_difference(table: TypedTable, cand) -> _Realized:
    first, second = cand
    da, db, plans = _event_dates(table, first, second)
    if da.key() == db.key():
        raise TieDiscarded("identical dates")
    return _Realized(Answer(AnswerKind.DURATION, (render_duration(date_difference(da, db)),)),
                     plans, _anchor_slots(first, second))


# Per generator: (candidate enumeration, generator).
_GENERATORS: dict[GeneratorKind, tuple[Callable[[TypedTable], Sequence],
                                       Callable[[TypedTable, object], _Realized]]] = {
    GeneratorKind.COMPOSITION_2HOP: (lambda t: _cands_composition(t, 2), _realize_composition),
    GeneratorKind.COMPOSITION_3HOP: (lambda t: _cands_composition(t, 3), _realize_composition),
    GeneratorKind.CONJUNCTION: (_cands_conjunction, _realize_conjunction),
    GeneratorKind.QUANTIFIER_ONLY: (_cands_only, _realize_only),
    GeneratorKind.QUANTIFIER_MOST: (_cands_any_filter, partial(_realize_every_most, "most")),
    GeneratorKind.QUANTIFIER_EVERY: (_cands_any_filter, partial(_realize_every_most, "every")),
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
    GeneratorKind.COUNTING: (_cands_any_filter, _realize_counting),
    GeneratorKind.DATE_DIFFERENCE: (_cands_temporal_pairs, _realize_date_difference),
}



def generate(table: TypedTable, kind: GeneratorKind, seed: int,
             cap: int | None = PER_TABLE_CAP) -> list[Triplet]:
    """Sample up to `cap` valid triplets for one (table, generator) pair.

    Candidates are drawn one at a time in a random order seeded from (seed,
    table id, generator) and validated as drawn; discards and repeated slot
    bindings do not count against the cap. Each draw is one step of a lazy
    partial Fisher–Yates shuffle over a read-only candidate sequence, and the
    large sequences decode each candidate from its index, so the cost follows
    the candidates tried, not the number there are (seed-stream v2).
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
