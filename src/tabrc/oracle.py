"""Independent brute-force interpreters for generated examples.

Two readers, deliberately kept apart from the generation code path, answer
the same structured query:

- the table reader parses the question string back into a `Query` (using
  only the question grammar, the table titles and the column names) and
  finds the cells the question reads by scanning rows with plain loops;
- the fact reader finds the same texts in the rendered context facts alone,
  treating each fact as a complete statement about the rows sharing its key
  value. It is used to check that gold facts suffice and that distractor
  facts never matter.

Each reader only finds texts. One set of private functions (`_compared`,
`_winners`, `_aggregated`, `_quantified`, `_elapsed`, with `_parsed`,
`_spans` and `_yes_no`) parses them and decides the answer for both, so a
question kind has one meaning here. Where the readers differ on purpose,
the difference stays in the reader, with a test in tests/test_oracle.py.

Shared with generation: number/date parsing, canonical rendering, the kinds
in `shared`, and the surface grammar in `grammar`; this module imports neither
`generators` nor `facts`. The generators write questions and facts from the
grammar's templates, operator words and fact shapes, and the readers used
here are derived from the same ones (tests/test_grammar.py checks the round
trip). What a reading means is not shared with generation: all selection,
aggregation and comparison logic (each operator word's direction included)
is re-implemented here, and date differences are recomputed by greedy month
walking instead of the arithmetic used at generation time.

Both readers return None when they cannot derive an answer; callers treat
that as a failure of the example under test.
"""

from __future__ import annotations

import calendar
import datetime
import functools
import re
from typing import Callable, Iterable, NamedTuple, Sequence

from .grammar import TEMPLATES, ParsedFact, column_surfaces, parse_fact, pluralize, question_regex
from .shared import AnswerKind, GeneratorKind
from .tables import TypedTable
from .values import (
    Date,
    Duration,
    NotADate,
    NotANumber,
    parse_date,
    parse_number,
    render_date,
    render_duration,
    render_number,
)


class Query(NamedTuple):
    """A question reduced to its generator kind, operator, and the column
    names / values it binds, keyed by `grammar.slot_group`: "c1" for col:1,
    "v2" for val:2, and "v1_2" for a template's second val:1."""

    kind: GeneratorKind
    operator: str | None
    cols: dict
    vals: dict


class QuestionParseError(ValueError):
    pass


# An answer kind and its values, or None for no answer.
_Answer = tuple[AnswerKind, tuple[str, ...]] | None


@functools.lru_cache(maxsize=64)
def _compiled_patterns(column_names: tuple[str, ...], table_title: str,
                       page_title: str) -> dict[GeneratorKind, list[re.Pattern]]:
    """The compiled question patterns for one table shape, cached by the
    strings they are built from (never on the table)."""
    return {kind: [re.compile(question_regex(template, column_names, table_title, page_title))
                   for template in templates]
            for kind, templates in TEMPLATES.items()}


def parse_question(table: TypedTable, kind: GeneratorKind, question: str) -> Query:
    """Reconstruct the structured query behind a question string."""
    compiled = _compiled_patterns(table.column_names, table.meta.table_title,
                                  table.meta.page_title)
    surfaces = column_surfaces(table.column_names)
    for pattern in compiled[kind]:
        match = pattern.match(question)
        if not match:
            continue
        groups = match.groupdict()
        cols = {key: surfaces[value] for key, value in groups.items() if key.startswith("c")}
        vals = {key: value for key, value in groups.items() if key.startswith("v")}
        return Query(kind, groups.get("op"), cols, vals)
    raise QuestionParseError(f"{kind.value}: {question!r}")


# ---------------------------------------------------------------------------
# Deciding: one meaning per question kind, from the cell texts a reader found.
# ---------------------------------------------------------------------------

_COMPOSITION = (GeneratorKind.COMPOSITION_2HOP, GeneratorKind.COMPOSITION_3HOP)
_QUANTIFIED = (GeneratorKind.QUANTIFIER_EVERY, GeneratorKind.QUANTIFIER_MOST)
_NUMBER_COMPARED = (GeneratorKind.NUMBER_COMPARISON, GeneratorKind.NUMBER_BOOLEAN_COMPARISON)
_TEMPORAL = (GeneratorKind.TEMPORAL_COMPARISON, GeneratorKind.TEMPORAL_BOOLEAN_COMPARISON,
             GeneratorKind.DATE_DIFFERENCE)
_BOOLEAN = (GeneratorKind.NUMBER_BOOLEAN_COMPARISON, GeneratorKind.TEMPORAL_BOOLEAN_COMPARISON)
_RANKED = (GeneratorKind.NUMBER_SUPERLATIVE, GeneratorKind.TEMPORAL_SUPERLATIVE)
_AGGREGATED = (GeneratorKind.ARITHMETIC_SUPERLATIVE, GeneratorKind.ARITHMETIC_ADDITION)


def _parsed(texts: Iterable[str], parse: Callable[[str], object]) -> list | None:
    """Each text's parse, or None as soon as one text does not parse."""
    out = []
    for text in texts:
        try:
            out.append(parse(text))
        except (NotANumber, NotADate):
            return None
    return out


def _date_key(text: str) -> tuple[int, int, int]:
    return parse_date(text).key()


def _spans(texts: Sequence[str]) -> _Answer:
    return (AnswerKind.SPAN_LIST, tuple(dict.fromkeys(texts))) if texts else None


def _yes_no(verdict: bool) -> _Answer:
    return AnswerKind.YES_NO, ("yes" if verdict else "no",)


def _counted(texts: Iterable[str]) -> _Answer:
    names = set(texts)
    return (AnswerKind.NUMBER, (str(len(names)),)) if names else None


def _quantified(query: Query, texts: list[str]) -> _Answer:
    """every / most: whether all / more than half of the texts are val:2."""
    if not texts:
        return None
    matches = sum(1 for text in texts if text == query.vals["v2"])
    if query.kind is GeneratorKind.QUANTIFIER_EVERY:
        return _yes_no(matches == len(texts))
    return _yes_no(matches * 2 > len(texts))


def _compare_keys(a: Date, b: Date) -> int:
    if a.year != b.year:
        return -1 if a.year < b.year else 1
    if a.month is None or b.month is None:
        return 0
    if a.month != b.month:
        return -1 if a.month < b.month else 1
    if a.day is None or b.day is None:
        return 0
    return (a.day > b.day) - (a.day < b.day)


def _compared(query: Query, a: str | None, b: str | None) -> _Answer:
    """The four comparisons, from the two anchors' value texts: no answer
    unless both parse and differ (dates at the precision both carry)."""
    if a is None or b is None:
        return None
    if query.kind in _NUMBER_COMPARED:
        numbers = _parsed((a, b), parse_number)
        order = numbers and (numbers[0] > numbers[1]) - (numbers[0] < numbers[1])
        bigger, other = query.operator == "higher", "v1_2"
    else:
        dates = _parsed((a, b), parse_date)
        order = dates and _compare_keys(*dates)
        bigger, other = query.operator in ("later", "more recently than when"), "v2"
    if not order:
        return None
    a_wins = (order > 0) == bigger
    if query.kind in _BOOLEAN:
        return _yes_no(a_wins)
    return AnswerKind.SPAN_LIST, (query.vals["v1"] if a_wins else query.vals[other],)


def _winners(query: Query, pairs: Iterable[tuple[str, tuple[str, ...]]]) -> _Answer:
    """number / temporal superlative: the names with the highest (latest) or
    lowest (earliest) value, from (name, value texts) pairs; a pair whose
    texts do not all parse is skipped."""
    parse = _date_key if query.kind is GeneratorKind.TEMPORAL_SUPERLATIVE else parse_number
    bigger = query.operator in ("highest", "latest")
    best = None
    winners: list[str] = []
    for name, texts in pairs:
        for key in _parsed(texts, parse) or ():
            if best is None or (key > best if bigger else key < best):
                best, winners = key, [name]
            elif key == best:
                winners.append(name)
    return _spans(winners)


def _aggregated(query: Query, texts: Sequence[str]) -> _Answer:
    """arithmetic superlative and addition over the values of one filter
    group, which needs at least two; dates must share one precision."""
    if len(texts) < 2:
        return None
    op = query.operator
    if query.kind is GeneratorKind.ARITHMETIC_ADDITION or op in ("highest", "lowest"):
        numbers = _parsed(texts, parse_number)
        if numbers is None:
            return None
        if query.kind is GeneratorKind.ARITHMETIC_ADDITION:
            value = sum(numbers)
        else:
            value = max(numbers) if op == "highest" else min(numbers)
        return AnswerKind.NUMBER, (render_number(value),)
    dates = _parsed(texts, parse_date)
    if dates is None or len({d.precision for d in dates}) != 1:
        return None
    return AnswerKind.DATE, (render_date((max if op == "latest" else min)(dates, key=Date.key)),)


def _plus_months(start: datetime.date, count: int) -> datetime.date:
    index = start.year * 12 + start.month - 1 + count
    year, month_zero = divmod(index, 12)
    last = calendar.monthrange(year, month_zero + 1)[1]
    return datetime.date(year, month_zero + 1, min(start.day, last))


def walked_duration(a: Date, b: Date) -> Duration | None:
    """Duration by greedy walking: take as many whole months as fit between
    the endpoints, then count leftover days. None for mixed precision."""
    if a.precision != b.precision:
        return None
    earlier, later = sorted((a, b), key=Date.key)
    if a.precision == 1:
        return Duration(later.year - earlier.year)
    if a.precision == 2:
        months = 0
        year, month = earlier.year, earlier.month
        while (year, month) < (later.year, later.month):
            month += 1
            if month == 13:
                year, month = year + 1, 1
            months += 1
        return Duration(months // 12, months % 12)
    start = datetime.date(earlier.year, earlier.month, earlier.day)
    end = datetime.date(later.year, later.month, later.day)
    months = max(0, (end.year - start.year - 2) * 12)
    while _plus_months(start, months + 1) <= end:
        months += 1
    days = (end - _plus_months(start, months)).days
    return Duration(months // 12, months % 12, days)


def _elapsed(a: str | None, b: str | None, ties: bool) -> _Answer:
    """date difference between two date texts of one precision; a tie (a
    zero duration) answers only if `ties`."""
    dates = None if a is None or b is None else _parsed((a, b), parse_date)
    duration = dates and walked_duration(*dates)
    if duration is None or not (ties or any(duration)):
        return None
    return AnswerKind.DURATION, (render_duration(duration),)


# ---------------------------------------------------------------------------
# Table reader: finds the cells by scanning rows with plain loops.
# ---------------------------------------------------------------------------


def _rows_matching(table: TypedTable, col: str, value: str) -> list[int]:
    c = table.column_index(col)
    return [r for r in range(table.n_rows) if table.raw(r, c) == value]


def _cells(table: TypedTable, rows: list[int], col: str) -> list[str]:
    c = table.column_index(col)
    return [table.raw(r, c) for r in rows]


def _anchor_cell(table: TypedTable, col: str, val: str, target: str) -> str | None:
    """The `target` cell of the one row whose `col` cell is `val`."""
    rows = _rows_matching(table, col, val)
    return table.raw(rows[0], table.column_index(target)) if len(rows) == 1 else None


def table_answer(table: TypedTable, query: Query) -> _Answer:
    """Answer a query by scanning the table. Returns None when the question
    has no well-defined answer on this table."""
    kind, cols, vals = query.kind, query.cols, query.vals

    if kind in _QUANTIFIED:
        c1, c2 = table.column_index(cols["c1"]), table.column_index(cols["c2"])
        return _quantified(query, [table.raw(r, c2) for r in range(table.n_rows)
                                   if table.raw(r, c1) and table.raw(r, c2)])

    if kind in _NUMBER_COMPARED:
        if "c1" in cols:
            anchor = cols["c1"]
        else:
            anchors = [name for name in table.column_names
                       if _rows_matching(table, name, vals["v1"])
                       and _rows_matching(table, name, vals["v1_2"])]
            if len(anchors) != 1:
                return None
            anchor, = anchors
        return _compared(query, _anchor_cell(table, anchor, vals["v1"], cols["c2"]),
                         _anchor_cell(table, anchor, vals["v1_2"], cols["c2"]))

    if kind in _TEMPORAL:
        c = table.event_date_column
        if c is None:
            return None
        a = _anchor_cell(table, cols["c1"], vals["v1"], table.column_name(c))
        b = _anchor_cell(table, cols["c2"], vals["v2"], table.column_name(c))
        if kind is GeneratorKind.DATE_DIFFERENCE:
            return _elapsed(a, b, ties=False)
        return _compared(query, a, b)

    if kind in _RANKED:
        c1, c2 = table.column_index(cols["c1"]), table.column_index(cols["c2"])
        return _winners(query, [(table.raw(r, c1), (table.raw(r, c2),))
                                for r in range(table.n_rows) if table.raw(r, c1)])

    # The rest read the col:1 cells of the rows whose col:2 cell is val:2.
    rows = _rows_matching(table, cols["c2"], vals["v2"])
    if kind in _AGGREGATED:
        return _aggregated(query, _cells(table, rows, cols["c1"]))
    if kind is GeneratorKind.CONJUNCTION:
        c3 = table.column_index(cols["c3"])
        rows = [r for r in rows if table.raw(r, c3) == vals["v3"]]
    names = [name for name in _cells(table, rows, cols["c1"]) if name]
    if kind is GeneratorKind.COUNTING:
        return _counted(names)
    if kind is GeneratorKind.QUANTIFIER_ONLY:
        if vals["v1"] not in names:
            return None
        return _yes_no(set(names) == {vals["v1"]})
    return _spans(names)  # composition and conjunction


# ---------------------------------------------------------------------------
# Fact reader: finds the values in the facts that state them.
# ---------------------------------------------------------------------------


def _surface_is(surface: str, column: str) -> bool:
    s = surface.lower()
    c = column.lower()
    return s == c or s == pluralize(c)


def _surfaces_agree(a: str, b: str) -> bool:
    """Whether two fact surfaces can denote the same column (one of them may
    be a pluralized form)."""
    a, b = a.lower(), b.lower()
    return a == b or pluralize(a) == b or a == pluralize(b)


def _simple_facts(facts: list[ParsedFact]) -> list[ParsedFact]:
    return [f for f in facts if len(f.conditions) == 1]


def _facts_for(facts: list[ParsedFact], subject_col: str | None, key_col: str | None,
               key_val: str | None) -> list[ParsedFact]:
    out = []
    for fact in _simple_facts(facts):
        (key, value), = fact.conditions
        if subject_col is not None and not _surface_is(fact.subject, subject_col):
            continue
        if key_col is not None and not _surface_is(key, key_col):
            continue
        if key_val is not None and value != key_val:
            continue
        out.append(fact)
    return out


def _single(facts: list[ParsedFact]) -> ParsedFact | None:
    return facts[0] if len(facts) == 1 else None


def _one_value(facts: list[ParsedFact]) -> str | None:
    """The value of the one fact, when there is one fact with one value."""
    fact = _single(facts)
    return fact.values[0] if fact is not None and len(fact.values) == 1 else None


def _chained(facts: list[ParsedFact], surface: str, value: str) -> list[ParsedFact]:
    """The simple facts keyed by `value` under a surface that can denote the
    column `surface` names."""
    return [f for f in _simple_facts(facts)
            if f.conditions[0][1] == value and _surfaces_agree(f.conditions[0][0], surface)]


def facts_answer(query: Query, fact_texts: list[str]) -> _Answer:
    """Answer a query from rendered facts alone (no table access). Facts are
    closed-world: a fact's value list is the complete set for its key."""
    facts = [parsed for parsed in (parse_fact(t) for t in fact_texts) if parsed is not None]
    kind, cols, vals = query.kind, query.cols, query.vals

    if kind in _COMPOSITION:
        first = _single(_facts_for(facts, None, cols["c2"], vals["v2"]))
        if first is None:
            return None
        frontier = [(first.subject, value) for value in first.values]
        hops = 2 if kind is GeneratorKind.COMPOSITION_2HOP else 3
        for _ in range(hops - 2):
            step = []
            for surface, value in frontier:
                nxt = _single(_chained(facts, surface, value))
                if nxt is None:
                    return None
                step.extend((nxt.subject, v) for v in nxt.values)
            frontier = step
        answer: list[str] = []
        for surface, value in frontier:
            final = _single([f for f in _chained(facts, surface, value)
                             if _surface_is(f.subject, cols["c1"])])
            if final is None:
                return None
            answer.extend(final.values)
        return _spans(answer)

    if kind is GeneratorKind.CONJUNCTION:
        combined = [
            f for f in facts if len(f.conditions) == 2
            and _surface_is(f.subject, cols["c1"])
            and _surface_is(f.conditions[0][0], cols["c2"]) and f.conditions[0][1] == vals["v2"]
            and _surface_is(f.conditions[1][0], cols["c3"]) and f.conditions[1][1] == vals["v3"]
        ]
        if combined:
            return _spans(combined[0].values) if len(combined) == 1 else None
        fact_a = _single(_facts_for(facts, cols["c1"], cols["c2"], vals["v2"]))
        fact_b = _single(_facts_for(facts, cols["c1"], cols["c3"], vals["v3"]))
        if fact_a is None or fact_b is None:
            return None
        allowed = set(fact_b.values)
        return _spans([v for v in fact_a.values if v in allowed])

    if kind in _QUANTIFIED:
        return _quantified(query, [v for f in _facts_for(facts, cols["c2"], cols["c1"], None)
                                   for v in f.values])

    if kind in _NUMBER_COMPARED:
        return _compared(query, _one_value(_facts_for(facts, cols["c2"], None, vals["v1"])),
                         _one_value(_facts_for(facts, cols["c2"], None, vals["v1_2"])))

    if kind in _TEMPORAL:
        a = _one_value(_facts_for(facts, None, cols["c1"], vals["v1"]))
        b = _one_value(_facts_for(facts, None, cols["c2"], vals["v2"]))
        if kind is GeneratorKind.DATE_DIFFERENCE:
            return _elapsed(a, b, ties=True)
        return _compared(query, a, b)

    if kind in _RANKED:
        # A same-column-pair distractor can only verbalize rows whose value
        # cell does not parse (in-scope cells are gold cells), so skipping it
        # mirrors the generation-time scope.
        return _winners(query, [(f.conditions[0][1], f.values)
                                for f in _facts_for(facts, cols["c2"], cols["c1"], None)])

    # The rest read the one fact of the col:1 values where col:2 was val:2.
    fact = _single(_facts_for(facts, cols["c1"], cols["c2"], vals["v2"]))
    if fact is None:
        return None
    if kind in _AGGREGATED:
        return _aggregated(query, fact.values)
    if kind is GeneratorKind.COUNTING:
        return _counted(fact.values)
    return _yes_no(set(fact.values) == {vals["v1"]})  # quantifier only


def answers_match(kind: GeneratorKind, expected: tuple[str, ...],
                  got: tuple[str, ...] | None) -> bool:
    """Exact ordered comparison, except superlative span lists which are
    compared as sets: a fact-level reader cannot recover table row order for
    ties once the facts are shuffled."""
    if got is None:
        return False
    if kind in _RANKED:
        return len(expected) == len(got) and set(expected) == set(got)
    return tuple(expected) == tuple(got)
