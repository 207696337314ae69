"""Independent brute-force interpreters for generated examples.

Two interpreters, deliberately kept apart from the generation code path:

- the table interpreter parses the question string back into a structured
  query (using only the question grammar, the table titles and the column
  names) and recomputes the answer by scanning every table row with plain
  loops;
- the fact interpreter answers the same query from the rendered context
  facts alone, treating each fact as a complete statement about the rows
  sharing its key value. It is used to check that gold facts suffice and
  that distractor facts never matter.

Number/date parsing and canonical rendering are shared plumbing, but all
selection, aggregation and comparison logic is re-implemented here, and date
differences are recomputed by greedy month walking instead of the arithmetic
used at generation time.

Both interpreters return None when they cannot derive an answer; callers
treat that as a failure of the example under test.
"""

from __future__ import annotations

import calendar
import datetime
import functools
import re
from decimal import Decimal
from typing import NamedTuple

from .facts import pluralize
from .generators import AnswerKind, GeneratorKind
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
    names / values it binds."""

    kind: GeneratorKind
    operator: str | None
    cols: dict
    vals: dict


class QuestionParseError(ValueError):
    pass


def _surface_map(column_names: tuple[str, ...]) -> dict[str, str]:
    surfaces: dict[str, str] = {}
    for name in column_names:
        for surface in (name, name.lower(), pluralize(name.lower())):
            surfaces.setdefault(surface, name)
    return surfaces


def _columns_pattern(surfaces: dict[str, str]) -> str:
    ordered = sorted(surfaces, key=len, reverse=True)
    return "(?:" + "|".join(re.escape(s) for s in ordered) + ")"


_SUP_OPS = "highest|lowest|earliest|latest"
_TEMPORAL_BOOL_OPS = "more recently than when|earlier than when"


def _question_patterns(column_names: tuple[str, ...], table_title: str,
                       page_title: str) -> dict[GeneratorKind, list[str]]:
    cols = _columns_pattern(_surface_map(column_names))
    tt = re.escape(table_title)
    pt = re.escape(page_title)
    composition = (
        rf"^What was the (?P<c1>{cols})\(s\) when the (?P<c2>{cols}) was (?P<v2>.+) "
        rf"in {tt} of {pt}\?$"
    )
    superlative = [
        rf"^In {tt} of {pt}, which (?P<c1>{cols}) has the (?P<op>{_SUP_OPS}) (?P<c2>{cols})\?$",
        rf"^Which (?P<c1>{cols}) has the (?P<op>{_SUP_OPS}) (?P<c2>{cols}) in {tt} of {pt}\?$",
    ]
    return {
        GeneratorKind.COMPOSITION_2HOP: [composition],
        GeneratorKind.COMPOSITION_3HOP: [composition],
        GeneratorKind.CONJUNCTION: [
            rf"^What was the (?P<c1>{cols}) when the (?P<c2>{cols}) was (?P<v2>.+?) "
            rf"and the (?P<c3>{cols}) was (?P<v3>.+) in {tt} of {pt}\?$"
        ],
        GeneratorKind.QUANTIFIER_ONLY: [
            rf"^Is (?P<v1>.+?) the only (?P<c1>{cols}) that has (?P<c2>{cols}) (?P<v2>.+) "
            rf"in {tt} of {pt}\?$"
        ],
        GeneratorKind.QUANTIFIER_EVERY: [
            rf"^In {tt} of {pt}, does (?P<op>every) (?P<c1>{cols}) have (?P<c2>{cols}) (?P<v2>.+)\?$"
        ],
        GeneratorKind.QUANTIFIER_MOST: [
            rf"^In {tt} of {pt}, does (?P<op>most) (?P<c1>{cols}) have (?P<c2>{cols}) (?P<v2>.+)\?$"
        ],
        GeneratorKind.NUMBER_COMPARISON: [
            rf"^In {tt} of {pt}, which (?P<c1>{cols}) had a (?P<op>higher|lower) (?P<c2>{cols}): "
            rf"(?P<va>.+?) or (?P<vb>.+)\?$"
        ],
        GeneratorKind.TEMPORAL_COMPARISON: [
            rf"^In {tt} of {pt}, what happened (?P<op>earlier|later): the (?P<ca>{cols}) was "
            rf"(?P<va>.+?) or the (?P<cb>{cols}) was (?P<vb>.+)\?$"
        ],
        GeneratorKind.NUMBER_BOOLEAN_COMPARISON: [
            rf"^In {tt} of {pt}, did (?P<va>.+?) have (?P<op>higher|lower) (?P<c2>{cols}) "
            rf"than (?P<vb>.+)\?$"
        ],
        GeneratorKind.TEMPORAL_BOOLEAN_COMPARISON: [
            rf"^The (?P<ca>{cols}) was (?P<va>.+?) (?P<op>{_TEMPORAL_BOOL_OPS}) "
            rf"the (?P<cb>{cols}) was (?P<vb>.+) in {tt} of {pt}\?$"
        ],
        GeneratorKind.NUMBER_SUPERLATIVE: superlative,
        GeneratorKind.TEMPORAL_SUPERLATIVE: superlative,
        GeneratorKind.ARITHMETIC_SUPERLATIVE: [
            rf"^In {tt} of {pt}, what was the (?P<op>{_SUP_OPS}) (?P<c1>{cols}) when the "
            rf"(?P<c2>{cols}) was (?P<v2>.+)\?$"
        ],
        GeneratorKind.ARITHMETIC_ADDITION: [
            rf"^In {tt} of {pt}, what was the total number of (?P<c1>{cols}) when the "
            rf"(?P<c2>{cols}) was (?P<v2>.+)\?$"
        ],
        GeneratorKind.COUNTING: [
            rf"^How many (?P<c1>{cols}) have (?P<c2>{cols}) (?P<v2>.+) in {tt} of {pt}\?$"
        ],
        GeneratorKind.DATE_DIFFERENCE: [
            rf"^In {tt} of {pt}, how much time had passed between when the (?P<ca>{cols}) was "
            rf"(?P<va>.+?) and when the (?P<cb>{cols}) was (?P<vb>.+)\?$"
        ],
    }


@functools.lru_cache(maxsize=64)
def _compiled_patterns(column_names: tuple[str, ...], table_title: str,
                       page_title: str) -> dict[GeneratorKind, list[re.Pattern]]:
    """The compiled question patterns for one table shape, cached by the
    strings they are built from (never on the table)."""
    patterns = _question_patterns(column_names, table_title, page_title)
    return {k: [re.compile(p) for p in ps] for k, ps in patterns.items()}


def parse_question(table: TypedTable, kind: GeneratorKind, question: str) -> Query:
    """Reconstruct the structured query behind a question string."""
    compiled = _compiled_patterns(table.column_names, table.meta.table_title,
                                  table.meta.page_title)
    surfaces = _surface_map(table.column_names)
    for pattern in compiled[kind]:
        match = pattern.match(question)
        if not match:
            continue
        groups = match.groupdict()
        cols = {}
        vals = {}
        for key, value in groups.items():
            if key == "op":
                continue
            if key.startswith("c"):
                cols[key] = surfaces[value]
            else:
                vals[key] = value
        return Query(kind, groups.get("op"), cols, vals)
    raise QuestionParseError(f"{kind.value}: {question!r}")


# ---------------------------------------------------------------------------
# Shared scanning helpers (intentionally simple loops).
# ---------------------------------------------------------------------------


def _rows_matching(table: TypedTable, col: str, value: str) -> list[int]:
    c = table.column_index(col)
    return [r for r in range(table.n_rows) if table.raw(r, c) == value]


def _number_at(table: TypedTable, r: int, col: str) -> Decimal | None:
    try:
        return parse_number(table.raw(r, table.column_index(col)))
    except NotANumber:
        return None


def _date_at(table: TypedTable, r: int, col: str) -> Date | None:
    try:
        return parse_date(table.raw(r, table.column_index(col)))
    except NotADate:
        return None


def _event_column(table: TypedTable) -> str | None:
    c = table.event_date_column()
    return table.column_name(c) if c is not None else None


def _distinct(values: list[str]) -> list[str]:
    seen: set[str] = set()
    out = []
    for value in values:
        if value not in seen:
            seen.add(value)
            out.append(value)
    return out


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


# ---------------------------------------------------------------------------
# Table-level interpreter.
# ---------------------------------------------------------------------------


def table_answer(table: TypedTable, query: Query) -> tuple[AnswerKind, tuple[str, ...]] | None:
    """Answer a query by scanning the table. Returns None when the question
    has no well-defined answer on this table."""
    kind = query.kind
    cols, vals, op = query.cols, query.vals, query.operator

    if kind in (GeneratorKind.COMPOSITION_2HOP, GeneratorKind.COMPOSITION_3HOP):
        rows = _rows_matching(table, cols["c2"], vals["v2"])
        target = table.column_index(cols["c1"])
        picked = [table.raw(r, target) for r in rows if table.raw(r, target)]
        if not picked:
            return None
        return AnswerKind.SPAN_LIST, tuple(_distinct(picked))

    if kind is GeneratorKind.CONJUNCTION:
        c3 = table.column_index(cols["c3"])
        target = table.column_index(cols["c1"])
        rows = [r for r in _rows_matching(table, cols["c2"], vals["v2"])
                if table.raw(r, c3) == vals["v3"]]
        picked = [table.raw(r, target) for r in rows if table.raw(r, target)]
        if not picked:
            return None
        return AnswerKind.SPAN_LIST, tuple(_distinct(picked))

    if kind is GeneratorKind.QUANTIFIER_ONLY:
        c1 = table.column_index(cols["c1"])
        rows = _rows_matching(table, cols["c2"], vals["v2"])
        names = {table.raw(r, c1) for r in rows if table.raw(r, c1)}
        if not names or vals["v1"] not in names:
            return None
        return AnswerKind.YES_NO, ("yes" if names == {vals["v1"]} else "no",)

    if kind in (GeneratorKind.QUANTIFIER_EVERY, GeneratorKind.QUANTIFIER_MOST):
        c1 = table.column_index(cols["c1"])
        c2 = table.column_index(cols["c2"])
        scope = [r for r in range(table.n_rows) if table.raw(r, c1) and table.raw(r, c2)]
        if not scope:
            return None
        matches = sum(1 for r in scope if table.raw(r, c2) == vals["v2"])
        if kind is GeneratorKind.QUANTIFIER_EVERY:
            verdict = matches == len(scope)
        else:
            verdict = matches * 2 > len(scope)
        return AnswerKind.YES_NO, ("yes" if verdict else "no",)

    if kind in (GeneratorKind.NUMBER_COMPARISON, GeneratorKind.NUMBER_BOOLEAN_COMPARISON):
        if "c1" in cols:
            anchor_cols = [cols["c1"]]
        else:
            anchor_cols = [name for name in table.column_names
                           if _rows_matching(table, name, vals["va"])
                           and _rows_matching(table, name, vals["vb"])]
            if len(anchor_cols) != 1:
                return None
        rows_a = _rows_matching(table, anchor_cols[0], vals["va"])
        rows_b = _rows_matching(table, anchor_cols[0], vals["vb"])
        if len(rows_a) != 1 or len(rows_b) != 1:
            return None
        qa = _number_at(table, rows_a[0], cols["c2"])
        qb = _number_at(table, rows_b[0], cols["c2"])
        if qa is None or qb is None or qa == qb:
            return None
        a_wins = (qa > qb) == (op == "higher")
        if kind is GeneratorKind.NUMBER_BOOLEAN_COMPARISON:
            return AnswerKind.YES_NO, ("yes" if a_wins else "no",)
        return AnswerKind.SPAN_LIST, (vals["va"] if a_wins else vals["vb"],)

    if kind in (GeneratorKind.TEMPORAL_COMPARISON, GeneratorKind.TEMPORAL_BOOLEAN_COMPARISON):
        event = _event_column(table)
        if event is None:
            return None
        rows_a = _rows_matching(table, cols["ca"], vals["va"])
        rows_b = _rows_matching(table, cols["cb"], vals["vb"])
        if len(rows_a) != 1 or len(rows_b) != 1:
            return None
        da = _date_at(table, rows_a[0], event)
        db = _date_at(table, rows_b[0], event)
        if da is None or db is None:
            return None
        order = _compare_keys(da, db)
        if order == 0:
            return None
        a_wins = order > 0 if op in ("later", "more recently than when") else order < 0
        if kind is GeneratorKind.TEMPORAL_BOOLEAN_COMPARISON:
            return AnswerKind.YES_NO, ("yes" if a_wins else "no",)
        return AnswerKind.SPAN_LIST, (vals["va"] if a_wins else vals["vb"],)

    if kind in (GeneratorKind.NUMBER_SUPERLATIVE, GeneratorKind.TEMPORAL_SUPERLATIVE):
        temporal = kind is GeneratorKind.TEMPORAL_SUPERLATIVE
        c1 = table.column_index(cols["c1"])
        best_key = None
        winners: list[str] = []
        bigger = op in ("highest", "latest")
        for r in range(table.n_rows):
            target = table.raw(r, c1)
            if not target:
                continue
            if temporal:
                date = _date_at(table, r, cols["c2"])
                key = date.key() if date else None
            else:
                key = _number_at(table, r, cols["c2"])
            if key is None:
                continue
            if best_key is None or (key > best_key if bigger else key < best_key):
                best_key = key
                winners = [target]
            elif key == best_key:
                winners.append(target)
        if best_key is None or len(winners) < 1:
            return None
        return AnswerKind.SPAN_LIST, tuple(_distinct(winners))

    if kind is GeneratorKind.ARITHMETIC_SUPERLATIVE:
        rows = _rows_matching(table, cols["c2"], vals["v2"])
        if len(rows) < 2:
            return None
        if op in ("highest", "lowest"):
            numbers = [_number_at(table, r, cols["c1"]) for r in rows]
            if any(n is None for n in numbers):
                return None
            chosen = max(numbers) if op == "highest" else min(numbers)
            return AnswerKind.NUMBER, (render_number(chosen),)
        dates = [_date_at(table, r, cols["c1"]) for r in rows]
        if any(d is None for d in dates) or len({d.precision for d in dates}) != 1:
            return None
        chosen = (max if op == "latest" else min)(dates, key=Date.key)
        return AnswerKind.DATE, (render_date(chosen),)

    if kind is GeneratorKind.ARITHMETIC_ADDITION:
        rows = _rows_matching(table, cols["c2"], vals["v2"])
        if len(rows) < 2:
            return None
        numbers = [_number_at(table, r, cols["c1"]) for r in rows]
        if any(n is None for n in numbers):
            return None
        return AnswerKind.NUMBER, (render_number(sum(numbers)),)

    if kind is GeneratorKind.COUNTING:
        c1 = table.column_index(cols["c1"])
        rows = _rows_matching(table, cols["c2"], vals["v2"])
        names = {table.raw(r, c1) for r in rows if table.raw(r, c1)}
        if not names:
            return None
        return AnswerKind.NUMBER, (str(len(names)),)

    if kind is GeneratorKind.DATE_DIFFERENCE:
        event = _event_column(table)
        if event is None:
            return None
        rows_a = _rows_matching(table, cols["ca"], vals["va"])
        rows_b = _rows_matching(table, cols["cb"], vals["vb"])
        if len(rows_a) != 1 or len(rows_b) != 1:
            return None
        da = _date_at(table, rows_a[0], event)
        db = _date_at(table, rows_b[0], event)
        if da is None or db is None or da.precision != db.precision or da.key() == db.key():
            return None
        duration = walked_duration(da, db)
        if duration is None:
            return None
        return AnswerKind.DURATION, (render_duration(duration),)

    raise ValueError(f"unhandled kind {kind}")


# ---------------------------------------------------------------------------
# Fact-level interpreter.
# ---------------------------------------------------------------------------


class ParsedFact(NamedTuple):
    subject: str
    conditions: tuple[tuple[str, str], ...]
    values: tuple[str, ...]


_COMBINED_FACT_RE = re.compile(
    r"^The (?P<subj>.+?) when the (?P<k1>.+?) was (?P<v1>.+?) "
    r"and the (?P<k2>.+?) was (?P<v2>.+?) (?P<verb>was|were) (?P<values>.+)$"
)
_SIMPLE_FACT_RE = re.compile(
    r"^The (?P<subj>.+?) when the (?P<key>.+?) was (?P<value>.+?) (?P<verb>was|were) (?P<values>.+)$"
)


def _split_values(text: str, verb: str) -> tuple[str, ...]:
    # "was" always introduces a single value; only "were" lists several
    if verb == "was":
        return (text,)
    head, sep, tail = text.rpartition(" and ")
    if not sep:
        return (text,)
    return tuple(head.split(", ")) + (tail,)


def parse_fact(text: str) -> ParsedFact | None:
    match = _COMBINED_FACT_RE.match(text)
    if match:
        return ParsedFact(
            match.group("subj"),
            ((match.group("k1"), match.group("v1")), (match.group("k2"), match.group("v2"))),
            _split_values(match.group("values"), match.group("verb")),
        )
    match = _SIMPLE_FACT_RE.match(text)
    if match:
        return ParsedFact(
            match.group("subj"),
            ((match.group("key"), match.group("value")),),
            _split_values(match.group("values"), match.group("verb")),
        )
    return None


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


def _numbers(values: tuple[str, ...]) -> list[Decimal] | None:
    out = []
    for value in values:
        try:
            out.append(parse_number(value))
        except NotANumber:
            return None
    return out


def _dates(values: tuple[str, ...]) -> list[Date] | None:
    out = []
    for value in values:
        try:
            out.append(parse_date(value))
        except NotADate:
            return None
    return out


def _anchor_date(facts: list[ParsedFact], col: str, val: str) -> Date | None:
    fact = _single([f for f in _simple_facts(facts)
                    if f.conditions[0][1] == val and _surface_is(f.conditions[0][0], col)])
    if fact is None or len(fact.values) != 1:
        return None
    dates = _dates(fact.values)
    return dates[0] if dates else None


def facts_answer(query: Query, fact_texts: list[str]) -> tuple[AnswerKind, tuple[str, ...]] | None:
    """Answer a query from rendered facts alone (no table access). Facts are
    closed-world: a fact's value list is the complete set for its key."""
    facts = [parsed for parsed in (parse_fact(t) for t in fact_texts) if parsed is not None]
    kind, cols, vals, op = query.kind, query.cols, query.vals, query.operator

    if kind in (GeneratorKind.COMPOSITION_2HOP, GeneratorKind.COMPOSITION_3HOP):
        hops = 2 if kind is GeneratorKind.COMPOSITION_2HOP else 3
        first = _single(_facts_for(facts, None, cols["c2"], vals["v2"]))
        if first is None:
            return None
        frontier = [(first.subject, value) for value in first.values]
        for _ in range(hops - 2):
            step = []
            for surface, value in frontier:
                nxt = _single([
                    f for f in _simple_facts(facts)
                    if f.conditions[0][1] == value and _surfaces_agree(f.conditions[0][0], surface)
                ])
                if nxt is None:
                    return None
                step.extend((nxt.subject, v) for v in nxt.values)
            frontier = step
        answer: list[str] = []
        for surface, value in frontier:
            final = _single([
                f for f in _simple_facts(facts)
                if f.conditions[0][1] == value
                and _surfaces_agree(f.conditions[0][0], surface)
                and _surface_is(f.subject, cols["c1"])
            ])
            if final is None:
                return None
            answer.extend(final.values)
        if not answer:
            return None
        return AnswerKind.SPAN_LIST, tuple(_distinct(answer))

    if kind is GeneratorKind.CONJUNCTION:
        combined = [
            f for f in facts if len(f.conditions) == 2
            and _surface_is(f.subject, cols["c1"])
            and _surface_is(f.conditions[0][0], cols["c2"]) and f.conditions[0][1] == vals["v2"]
            and _surface_is(f.conditions[1][0], cols["c3"]) and f.conditions[1][1] == vals["v3"]
        ]
        if combined:
            if len(combined) > 1:
                return None
            return AnswerKind.SPAN_LIST, tuple(_distinct(list(combined[0].values)))
        fact_a = _single(_facts_for(facts, cols["c1"], cols["c2"], vals["v2"]))
        fact_b = _single(_facts_for(facts, cols["c1"], cols["c3"], vals["v3"]))
        if fact_a is None or fact_b is None:
            return None
        allowed = set(fact_b.values)
        picked = [v for v in fact_a.values if v in allowed]
        if not picked:
            return None
        return AnswerKind.SPAN_LIST, tuple(_distinct(picked))

    if kind is GeneratorKind.QUANTIFIER_ONLY:
        fact = _single(_facts_for(facts, cols["c1"], cols["c2"], vals["v2"]))
        if fact is None:
            return None
        return AnswerKind.YES_NO, ("yes" if set(fact.values) == {vals["v1"]} else "no",)

    if kind in (GeneratorKind.QUANTIFIER_EVERY, GeneratorKind.QUANTIFIER_MOST):
        scan = _facts_for(facts, cols["c2"], cols["c1"], None)
        total = sum(len(f.values) for f in scan)
        if total == 0:
            return None
        matches = sum(sum(1 for v in f.values if v == vals["v2"]) for f in scan)
        if kind is GeneratorKind.QUANTIFIER_EVERY:
            verdict = matches == total
        else:
            verdict = matches * 2 > total
        return AnswerKind.YES_NO, ("yes" if verdict else "no",)

    if kind in (GeneratorKind.NUMBER_COMPARISON, GeneratorKind.NUMBER_BOOLEAN_COMPARISON):
        quantities = []
        for val in (vals["va"], vals["vb"]):
            fact = _single([f for f in _simple_facts(facts)
                            if f.conditions[0][1] == val and _surface_is(f.subject, cols["c2"])])
            if fact is None or len(fact.values) != 1:
                return None
            numbers = _numbers(fact.values)
            if numbers is None:
                return None
            quantities.append(numbers[0])
        qa, qb = quantities
        if qa == qb:
            return None
        a_wins = (qa > qb) == (op == "higher")
        if kind is GeneratorKind.NUMBER_BOOLEAN_COMPARISON:
            return AnswerKind.YES_NO, ("yes" if a_wins else "no",)
        return AnswerKind.SPAN_LIST, (vals["va"] if a_wins else vals["vb"],)

    if kind in (GeneratorKind.TEMPORAL_COMPARISON, GeneratorKind.TEMPORAL_BOOLEAN_COMPARISON):
        da = _anchor_date(facts, cols["ca"], vals["va"])
        db = _anchor_date(facts, cols["cb"], vals["vb"])
        if da is None or db is None:
            return None
        order = _compare_keys(da, db)
        if order == 0:
            return None
        a_wins = order > 0 if op in ("later", "more recently than when") else order < 0
        if kind is GeneratorKind.TEMPORAL_BOOLEAN_COMPARISON:
            return AnswerKind.YES_NO, ("yes" if a_wins else "no",)
        return AnswerKind.SPAN_LIST, (vals["va"] if a_wins else vals["vb"],)

    if kind in (GeneratorKind.NUMBER_SUPERLATIVE, GeneratorKind.TEMPORAL_SUPERLATIVE):
        scan = _facts_for(facts, cols["c2"], cols["c1"], None)
        if not scan:
            return None
        temporal = kind is GeneratorKind.TEMPORAL_SUPERLATIVE
        best = None
        winners: list[str] = []
        bigger = op in ("highest", "latest")
        for fact in scan:
            parsed = _dates(fact.values) if temporal else _numbers(fact.values)
            if parsed is None:
                # A same-column-pair distractor can only verbalize rows whose
                # value cell does not parse (in-scope cells are gold cells),
                # so skipping it mirrors the generation-time scope.
                continue
            for item in parsed:
                key = item.key() if temporal else item
                if best is None or (key > best if bigger else key < best):
                    best = key
                    winners = [fact.conditions[0][1]]
                elif key == best and fact.conditions[0][1] not in winners:
                    winners.append(fact.conditions[0][1])
        if best is None:
            return None
        return AnswerKind.SPAN_LIST, tuple(winners)

    if kind in (GeneratorKind.ARITHMETIC_SUPERLATIVE, GeneratorKind.ARITHMETIC_ADDITION):
        fact = _single(_facts_for(facts, cols["c1"], cols["c2"], vals["v2"]))
        if fact is None or len(fact.values) < 2:
            return None
        if kind is GeneratorKind.ARITHMETIC_ADDITION:
            numbers = _numbers(fact.values)
            if numbers is None:
                return None
            return AnswerKind.NUMBER, (render_number(sum(numbers)),)
        if op in ("highest", "lowest"):
            numbers = _numbers(fact.values)
            if numbers is None:
                return None
            chosen = max(numbers) if op == "highest" else min(numbers)
            return AnswerKind.NUMBER, (render_number(chosen),)
        dates = _dates(fact.values)
        if dates is None or len({d.precision for d in dates}) != 1:
            return None
        chosen = (max if op == "latest" else min)(dates, key=Date.key)
        return AnswerKind.DATE, (render_date(chosen),)

    if kind is GeneratorKind.COUNTING:
        fact = _single(_facts_for(facts, cols["c1"], cols["c2"], vals["v2"]))
        if fact is None:
            return None
        return AnswerKind.NUMBER, (str(len(set(fact.values))),)

    if kind is GeneratorKind.DATE_DIFFERENCE:
        da = _anchor_date(facts, cols["ca"], vals["va"])
        db = _anchor_date(facts, cols["cb"], vals["vb"])
        if da is None or db is None:
            return None
        duration = walked_duration(da, db)
        if duration is None:
            return None
        return AnswerKind.DURATION, (render_duration(duration),)

    raise ValueError(f"unhandled kind {kind}")


_SET_COMPARED = (GeneratorKind.NUMBER_SUPERLATIVE, GeneratorKind.TEMPORAL_SUPERLATIVE)


def answers_match(kind: GeneratorKind, expected: tuple[str, ...],
                  got: tuple[str, ...] | None) -> bool:
    """Exact ordered comparison, except superlative span lists which are
    compared as sets: a fact-level reader cannot recover table row order for
    ties once the facts are shuffled."""
    if got is None:
        return False
    if kind in _SET_COMPARED:
        return len(expected) == len(got) and set(expected) == set(got)
    return tuple(expected) == tuple(got)
