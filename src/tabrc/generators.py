"""The sixteen example generators.

Each generator owns one reasoning skill (composition, conjunction,
quantification, comparisons, superlatives, counting, addition, date
difference), a question template with typed slots, and a procedure that
computes the answer from the table. `generate` instantiates up to `cap`
question/answer/gold-spec triplets for one (table, generator) pair,
deterministically for a fixed seed.

A generator is data: an entry in `_GENERATORS` pairs a candidate enumerator
with a realizer, `(table, candidate) -> _Realized`. Its question templates
and operator words live in `grammar` (`TEMPLATES`, `OPERATORS`), which the
oracle reads questions back with. An enumerator yields only structurally
valid candidates (distinct columns, values held in enough rows, anchors that
parse); a realizer discards only for the table's data, raising one `Discard`
subclass each:

- `AmbiguousChain`: a hop value, or a boolean comparison's anchor pair, does
  not identify one row;
- `UnparseableCell`: a cell in scope is empty or does not parse, or dates of
  mixed precision are compared;
- `TieDiscarded`: the two quantities or dates compared are equal;
- `InsufficientValues`: a quantifier or superlative scope has under two rows.

Otherwise it returns a `_Realized`: the `Answer`, the fact plans behind the
gold facts, the ordered slots and the template index. A slot is a plain
`(name, value)` pair: "col:N" binds a column index, "val:N" a `(column, row)`
cell and "[OPERATOR]" an operator word. `_instantiate` is the one place that
turns slot values into the question text (through `grammar.render_question`)
and the binding payloads that example ids hash, so slot order is part of the
output.

Conventions shared with the rest of the toolkit:

- Filters and anchors match on stripped raw cell text; empty cells never
  participate. Cells of a typed column that fail to parse are excluded.
- Comparison generators require unique anchor values and strictly unequal
  quantities. The cap counts valid triplets only.
- Temporal generators read the event time of a row from the leftmost DATE
  column. Temporal superlatives additionally require a single date precision
  across the column so that the ordering is total.
- Span answers are distinct values in table row order. Numbers and dates in
  answers use canonical rendering; raw cell text is kept for spans.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from decimal import Decimal
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .facts import FactPlan, GoldSpec, _sampled, gold_spec
from .grammar import OPERATORS, TEMPLATES, Template, render_question
from .shared import PER_TABLE_CAP, AnswerKind, GeneratorKind, derive_seed
from .tables import TypedTable
from .values import (
    Date,
    compare_dates,
    date_difference,
    render_date,
    render_duration,
    render_number,
)


class Answer(NamedTuple):
    kind: AnswerKind
    values: tuple[str, ...]


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


class TieDiscarded(Discard):
    pass


class UnparseableCell(Discard):
    pass


class InsufficientValues(Discard):
    pass


def _dedup(values: list[str]) -> tuple[str, ...]:
    """Distinct values in first-seen order."""
    return tuple(dict.fromkeys(values))


# (name, value) pairs; the name says what the value is (see the module doc).
_Slots = tuple[tuple[str, object], ...]


class _Realized(NamedTuple):
    """What a realizer returns for one valid candidate."""
    answer: Answer
    plans: list[FactPlan]
    slots: _Slots
    template: int = 0  # index into TEMPLATES[kind]


def _instantiate(table: TypedTable, template: Template, slots: _Slots) -> Instantiation:
    """Fill the template from the ordered slots, and give each slot the
    binding payload that example ids hash. A slot bound more than once fills
    its occurrences in binding order; the titles are filled from the table."""
    shown = []
    bindings = []
    for slot, value in slots:
        if slot == "[OPERATOR]":
            text, payload = value, {"operator": value}
        elif slot.startswith("col:"):
            text = table.column_name(value)
            payload = {"column": text}
        else:
            c, r = value
            text = table.raw(r, c)
            payload = {"column": table.column_name(c), "row": r, "value": text}
        shown.append((slot, text))
        bindings.append((slot, payload))
    question = render_question(template, table.meta.table_title, table.meta.page_title, shown)
    return Instantiation(template, tuple(bindings), question)


# ---------------------------------------------------------------------------
# Candidates per generator. `generate` draws only the candidates it tries,
# through `_sampled`, which needs just a length and random access. The
# enumerations therefore return a `_Blocks`, which decodes each candidate
# from its index. `_cands_only` stays a list: decoding measured slower there.
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
    values = {(c2, c3): list(dict.fromkeys((v2, v3) for v2, v3
                                           in zip(table.column(c2), table.column(c3))
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
    for c2 in table.number_columns:
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
    date_col = table.event_date_column
    if date_col is None:
        return _Blocks(())
    anchors = [(c, value, row) for c in range(table.n_cols) if c != date_col
               for value, row in table.unique_values(c)
               if isinstance(table.parsed(row, date_col), Date)]
    return _Blocks(((first,), _Product([s for s in anchors[i + 1:]
                                        if s[2] != first[2] and s[1] != first[1]], *operators))
                   for i, first in enumerate(anchors))


def _cands_superlative(table: TypedTable, kind: GeneratorKind) -> _Blocks:
    """(target column, value column, operator, template index)."""
    temporal = kind is GeneratorKind.TEMPORAL_SUPERLATIVE
    value_cols = table.date_columns if temporal else table.number_columns
    return _Blocks(((c1, c2), _Product(OPERATORS[kind], (0, 1)))
                   for c2 in value_cols for c1 in range(table.n_cols) if c1 != c2)


def _filter_blocks(table: TypedTable, value_cols: Iterable[int], min_rows: int = 1,
                   *operators: tuple[str, ...]) -> Iterator[tuple[tuple, _Product]]:
    """The blocks of (value column, filter column, filter value), followed by
    an operator when `operators` are given: the filter column is any other
    column, and the filter value one it holds in at least `min_rows` rows."""
    values = [[v for v, rows in table.groups(c2).items() if len(rows) >= min_rows]
              for c2 in range(table.n_cols)]
    return (((c1, c2), _Product(values[c2], *operators))
            for c1 in value_cols for c2 in range(table.n_cols) if c1 != c2)


# ---------------------------------------------------------------------------
# Realizers: each turns one candidate into its answer, with the fact plans
# that make the question answerable from verbalized facts alone.
# ---------------------------------------------------------------------------


def _yes_no(flag: bool) -> Answer:
    return Answer(AnswerKind.YES_NO, ("yes" if flag else "no",))


def _comparison_answer(boolean: bool, a_wins: bool, va: str, vb: str) -> Answer:
    if boolean:
        return _yes_no(a_wins)
    return Answer(AnswerKind.SPAN_LIST, (va if a_wins else vb,))


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
    rows = table.rows_with(filter_col, filter_val)
    if any(table.parsed(r, value_col) is None for r in rows):
        raise UnparseableCell("unparseable cell in filtered scope")
    return rows


def _filter_slots(table: TypedTable, c1: int, c2: int, v2: str) -> _Slots:
    """The column col:1, the filter column col:2 and, as val:2, its first cell
    holding v2."""
    return ("col:1", c1), ("col:2", c2), ("val:2", (c2, table.rows_with(c2, v2)[0]))


def _event_dates(table: TypedTable, first, second) -> tuple[Date, Date, list[FactPlan]]:
    """The event dates of two (column, value, row) anchors, and the facts
    that state them."""
    (ca, _va, ra), (cb, _vb, rb) = first, second
    date_col = table.event_date_column
    da = table.parsed(ra, date_col)
    db = table.parsed(rb, date_col)
    return da, db, [FactPlan(date_col, (ca,), (ra,)), FactPlan(date_col, (cb,), (rb,))]


def _anchor_slots(first, second) -> _Slots:
    """col:1 and val:1 name the first anchor, col:2 and val:2 the second."""
    (ca, _va, ra), (cb, _vb, rb) = first, second
    return ("col:1", ca), ("val:1", (ca, ra)), ("col:2", cb), ("val:2", (cb, rb))


def _realize_composition(table: TypedTable, cand) -> _Realized:
    anchor_col, anchor_val, chain, target = cand
    rows = table.rows_with(anchor_col, anchor_val)
    if any(not table.raw(r, target) for r in rows):
        raise UnparseableCell("empty target cell")
    for r in rows:
        for hop_col in chain:
            value = table.raw(r, hop_col)
            if not value or len(table.rows_with(hop_col, value)) != 1:
                raise AmbiguousChain("intermediate value does not identify its row")
    plans = [FactPlan(chain[0], (anchor_col,), rows)]
    plans += [FactPlan(hop_col, (previous,), (r,)) for r in rows
              for previous, hop_col in zip(chain, (*chain[1:], target))]
    values = _dedup([table.raw(r, target) for r in rows])
    return _Realized(Answer(AnswerKind.SPAN_LIST, values), plans,
                     _filter_slots(table, target, anchor_col, anchor_val))


def _realize_conjunction(table: TypedTable, cand) -> _Realized:
    target, c2, c3, v2, v3 = cand
    rows_a = table.rows_with(c2, v2)
    rows_b = table.rows_with(c3, v3)
    both = tuple(r for r in rows_a if table.raw(r, c3) == v3)
    if any(not table.raw(r, target) for r in both):
        raise UnparseableCell("empty target cell")
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
        ("col:1", target), ("col:2", c2), ("val:2", (c2, both[0])),
        ("col:3", c3), ("val:3", (c3, both[0])),
    ))


def _realize_only(table: TypedTable, cand) -> _Realized:
    c1, v1, c2, v2 = cand
    rows = table.rows_with(c2, v2)
    names = {table.raw(r, c1) for r in rows}
    v1_row = next(r for r in rows if table.raw(r, c1) == v1)
    return _Realized(_yes_no(names == {v1}), [FactPlan(c1, (c2,), rows)],
                     (("val:1", (c1, v1_row)),) + _filter_slots(table, c1, c2, v2))


def _realize_every_most(which: str, table: TypedTable, cand) -> _Realized:
    c1, c2, v2 = cand
    # The quantifier ranges over rows where both columns are populated.
    scope = [r for r in range(table.n_rows) if table.raw(r, c1) and table.raw(r, c2)]
    if len(scope) < 2:
        raise InsufficientValues("quantifier scope")
    matches = sum(1 for r in scope if table.raw(r, c2) == v2)
    result = matches == len(scope) if which == "every" else matches * 2 > len(scope)
    return _Realized(_yes_no(result), _column_scan_plans(table, c2, c1, scope),
                     (("[OPERATOR]", which),) + _filter_slots(table, c1, c2, v2))


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
    if qa == qb:
        raise TieDiscarded(f"{qa}")
    a_wins = (qa > qb) == (op == "higher")
    plans = [FactPlan(c2, (c1,), (ra,)), FactPlan(c2, (c1,), (rb,))]
    return _Realized(_comparison_answer(boolean, a_wins, va, vb), plans, (
        ("col:1", c1), ("[OPERATOR]", op), ("col:2", c2), ("val:1", (c1, ra)), ("val:1", (c1, rb)),
    ))


def _realize_temporal_comparison(boolean: bool, table: TypedTable, cand) -> _Realized:
    first, second, op = cand
    da, db, plans = _event_dates(table, first, second)
    order = compare_dates(da, db)
    if order == 0:
        raise TieDiscarded("dates indistinguishable")
    a_wins = order > 0 if op in ("later", "more recently than when") else order < 0
    return _Realized(_comparison_answer(boolean, a_wins, first[1], second[1]), plans,
                     (("[OPERATOR]", op),) + _anchor_slots(first, second))


def _extreme(values: list, op: str):
    """The highest or lowest of numbers, or the latest or earliest of dates,
    which must share one precision."""
    pick = max if op in ("highest", "latest") else min
    if op in ("earliest", "latest"):
        if len({d.precision for d in values}) != 1:
            raise UnparseableCell("mixed date precision")
        return pick(values, key=Date.key)
    return pick(values)


def _realize_superlative(table: TypedTable, cand) -> _Realized:
    c1, c2, op, template = cand
    scope = [r for r in range(table.n_rows)
             if table.parsed(r, c2) is not None and table.raw(r, c1)]
    if len(scope) < 2:
        raise InsufficientValues("superlative scope")
    parsed = [table.parsed(r, c2) for r in scope]
    extreme = _extreme(parsed, op)
    values = _dedup([table.raw(r, c1) for r, value in zip(scope, parsed) if value == extreme])
    return _Realized(Answer(AnswerKind.SPAN_LIST, values), _column_scan_plans(table, c2, c1, scope),
                     (("col:1", c1), ("[OPERATOR]", op), ("col:2", c2)), template)


def _realize_arith_superlative(table: TypedTable, cand) -> _Realized:
    c1, c2, v2, op = cand
    rows = _filtered_rows(table, c1, c2, v2)
    chosen = _extreme([table.parsed(r, c1) for r in rows], op)
    if op in ("earliest", "latest"):
        answer = Answer(AnswerKind.DATE, (render_date(chosen),))
    else:
        answer = Answer(AnswerKind.NUMBER, (render_number(chosen),))
    return _Realized(answer, [FactPlan(c1, (c2,), rows)],
                     (("[OPERATOR]", op),) + _filter_slots(table, c1, c2, v2))


def _realize_addition(table: TypedTable, cand) -> _Realized:
    c1, c2, v2 = cand
    rows = _filtered_rows(table, c1, c2, v2)
    total = sum(table.parsed(r, c1) for r in rows)
    return _Realized(Answer(AnswerKind.NUMBER, (render_number(total),)),
                     [FactPlan(c1, (c2,), rows)], _filter_slots(table, c1, c2, v2))


def _realize_counting(table: TypedTable, cand) -> _Realized:
    c1, c2, v2 = cand
    rows = table.rows_with(c2, v2)
    raws = [table.raw(r, c1) for r in rows]
    if any(not raw for raw in raws):
        raise UnparseableCell("empty target cell")
    return _Realized(Answer(AnswerKind.NUMBER, (str(len(set(raws))),)), [FactPlan(c1, (c2,), rows)],
                     _filter_slots(table, c1, c2, v2))


def _realize_date_difference(table: TypedTable, cand) -> _Realized:
    first, second = cand
    da, db, plans = _event_dates(table, first, second)
    if da.key() == db.key():
        raise TieDiscarded("identical dates")
    if da.precision != db.precision:
        raise UnparseableCell("mixed date precision")
    return _Realized(Answer(AnswerKind.DURATION, (render_duration(date_difference(da, db)),)),
                     plans, _anchor_slots(first, second))


# Per generator: (candidate enumeration, generator).
_GENERATORS: dict[GeneratorKind, tuple[Callable[[TypedTable], Sequence],
                                       Callable[[TypedTable, object], _Realized]]] = {
    GeneratorKind.COMPOSITION_2HOP: (lambda t: _cands_composition(t, 2), _realize_composition),
    GeneratorKind.COMPOSITION_3HOP: (lambda t: _cands_composition(t, 3), _realize_composition),
    GeneratorKind.CONJUNCTION: (_cands_conjunction, _realize_conjunction),
    GeneratorKind.QUANTIFIER_ONLY: (_cands_only, _realize_only),
    GeneratorKind.QUANTIFIER_MOST: (
        lambda t: _Blocks(_filter_blocks(t, range(t.n_cols))),
        partial(_realize_every_most, *OPERATORS[GeneratorKind.QUANTIFIER_MOST])),
    GeneratorKind.QUANTIFIER_EVERY: (
        lambda t: _Blocks(_filter_blocks(t, range(t.n_cols))),
        partial(_realize_every_most, *OPERATORS[GeneratorKind.QUANTIFIER_EVERY])),
    GeneratorKind.NUMBER_COMPARISON: (
        lambda t: _cands_number_pairs(t, OPERATORS[GeneratorKind.NUMBER_COMPARISON]),
        partial(_realize_number_comparison, False)),
    GeneratorKind.NUMBER_BOOLEAN_COMPARISON: (
        lambda t: _cands_number_pairs(t, OPERATORS[GeneratorKind.NUMBER_BOOLEAN_COMPARISON]),
        partial(_realize_number_comparison, True)),
    GeneratorKind.TEMPORAL_COMPARISON: (
        lambda t: _cands_temporal_pairs(t, OPERATORS[GeneratorKind.TEMPORAL_COMPARISON]),
        partial(_realize_temporal_comparison, False)),
    GeneratorKind.TEMPORAL_BOOLEAN_COMPARISON: (
        lambda t: _cands_temporal_pairs(t, OPERATORS[GeneratorKind.TEMPORAL_BOOLEAN_COMPARISON]),
        partial(_realize_temporal_comparison, True)),
    GeneratorKind.NUMBER_SUPERLATIVE: (
        lambda t: _cands_superlative(t, GeneratorKind.NUMBER_SUPERLATIVE), _realize_superlative),
    GeneratorKind.TEMPORAL_SUPERLATIVE: (
        lambda t: _cands_superlative(t, GeneratorKind.TEMPORAL_SUPERLATIVE), _realize_superlative),
    GeneratorKind.ARITHMETIC_SUPERLATIVE: (
        lambda t: _Blocks(itertools.chain(
            _filter_blocks(t, t.number_columns, 2, OPERATORS[GeneratorKind.NUMBER_SUPERLATIVE]),
            _filter_blocks(t, t.date_columns, 2, OPERATORS[GeneratorKind.TEMPORAL_SUPERLATIVE]))),
        _realize_arith_superlative),
    GeneratorKind.ARITHMETIC_ADDITION: (
        lambda t: _Blocks(_filter_blocks(t, t.number_columns, 2)), _realize_addition),
    GeneratorKind.COUNTING: (lambda t: _Blocks(_filter_blocks(t, range(t.n_cols))),
                             _realize_counting),
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
        except Discard:
            continue
        # Slots name columns and cells by index, which within one table
        # identifies the same bindings as their payloads do.
        if slots in seen_slots:
            continue
        seen_slots.add(slots)
        instantiation = _instantiate(table, TEMPLATES[kind][template], slots)
        out.append(Triplet(instantiation, answer, gold_spec(plans, table.n_cols)))
    return out
