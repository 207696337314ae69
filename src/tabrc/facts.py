"""Pseudo-language fact rendering and context assembly.

A fact verbalizes the relation between a subject column and a key column for
the rows sharing one key value:

    The Attendance when the Round was QF was 34,178
    The attendances when the opponent was Walsall were 5,666 and 10,037

Singular facts keep column names as they appear in the header; aggregated
(plural) facts lowercase them and pluralize the subject. A fact always lists
the complete set of subject values for its key value, in row order and with
duplicates preserved, so every rendered fact is a true, complete statement
about the table.

A context is a seed-shuffled mix of the gold facts required by one question
and distractor facts drawn from cells the question does not touch, prefixed
with the table and page titles.

Distractors come from a `FactPool`: each pool fact is rendered once per
table, and a fact is a candidate when its cells are disjoint from the
question's gold cells. The pool also renders each gold fact once per table,
however many questions need it. Candidates are sampled with `_sampled`, a
lazy partial Fisher–Yates shuffle that draws once per fact tried and only
reads the sequence it samples (seed-stream v2).
"""

from __future__ import annotations

import itertools
import random
from enum import Enum
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence, TypeVar

from .tables import TypedTable

# Distractor count is drawn uniformly from this range; the resulting corpus
# mean of 5.0 tracks the target distribution.
DISTRACTORS_MIN = 2
DISTRACTORS_MAX = 8
CONTEXT_WORD_CAP = 200

# Rendered contexts join facts with this; a distractor containing it would
# make the context split back into the wrong facts.
FACT_SEPARATOR = ". "

_IRREGULAR_PLURALS = {
    "person": "people",
    "child": "children",
    "man": "men",
    "woman": "women",
    "foot": "feet",
}


T = TypeVar("T")


def _sampled(rng: random.Random, items: Sequence[T]) -> Iterator[T]:
    """Yield `items` in a seeded random order, one draw per item taken: a
    lazy partial Fisher–Yates shuffle. Step i draws `rng.randrange(i, n)` and
    swaps, so a consumer that stops after k items has made k draws. `items`
    is only read, so any sequence with a length and random access will do:
    the swaps go into `moved`, which maps a position to the index of the item
    the shuffle has moved there."""
    n = len(items)
    moved: dict[int, int] = {}
    for i in range(n):
        j = rng.randrange(i, n)
        pick = moved.get(j, j)
        moved[j] = moved.pop(i, i)
        yield items[pick]


def pluralize(word: str) -> str:
    """Naive pluralization with a small irregular table. Words already ending
    in "s" are left alone (most header names arrive singular)."""
    if not word:
        return word
    lowered = word.lower()
    if lowered in _IRREGULAR_PLURALS:
        return _IRREGULAR_PLURALS[lowered]
    if lowered.endswith("s"):
        return word
    if lowered.endswith(("x", "z", "ch", "sh")):
        return word + "es"
    if lowered.endswith("y") and len(lowered) > 1 and lowered[-2] not in "aeiou":
        return word[:-1] + "ies"
    return word + "s"


class FactKind(Enum):
    GOLD = "gold"
    DISTRACTOR = "distractor"


class FactPlan(NamedTuple):
    """One fact to verbalize: subject column, one or two key columns, and the
    rows whose subject values the fact lists. Key values are read from the
    first row. Two key columns produce the combined conjunctive form."""

    subject: int
    keys: tuple[int, ...]
    rows: tuple[int, ...]


class GoldSpec(NamedTuple):
    """The cells a question needs and the plan for verbalizing them.

    The verbalized plan facts alone suffice to answer the question; `cells`
    is the union of every (row, column) the plans touch, and distractors must
    avoid all of them.
    """

    cells: frozenset[tuple[int, int]]
    plans: tuple[FactPlan, ...]


def gold_spec(plans: list[FactPlan] | tuple[FactPlan, ...]) -> GoldSpec:
    return GoldSpec(frozenset().union(*map(_plan_cells, plans)), tuple(plans))


class Fact(NamedTuple):
    text: str
    kind: FactKind
    cells: frozenset[tuple[int, int]]


class Context(NamedTuple):
    facts: tuple[Fact, ...]
    rendered: str


class ContextConfig(NamedTuple):
    distractors_min: int = DISTRACTORS_MIN
    distractors_max: int = DISTRACTORS_MAX
    word_cap: int = CONTEXT_WORD_CAP


def _join_values(values: list[str]) -> str:
    if len(values) == 1:
        return values[0]
    return ", ".join(values[:-1]) + " and " + values[-1]


def _plan_cells(plan: FactPlan) -> frozenset[tuple[int, int]]:
    cells = set()
    for r in plan.rows:
        cells.add((r, plan.subject))
        for key in plan.keys:
            cells.add((r, key))
    return frozenset(cells)


def _render_plan(table: TypedTable, plan: FactPlan, kind: FactKind) -> Fact:
    subject_name = table.column_name(plan.subject)
    values = [table.raw(r, plan.subject) for r in plan.rows]
    first = plan.rows[0]
    plural = len(plan.rows) > 1
    if plural:
        subject_surface = pluralize(subject_name.lower())
        key_surfaces = [table.column_name(k).lower() for k in plan.keys]
        verb = "were"
    else:
        subject_surface = subject_name
        key_surfaces = [table.column_name(k) for k in plan.keys]
        verb = "was"
    conditions = " and ".join(
        f"the {surface} was {table.raw(first, key)}"
        for surface, key in zip(key_surfaces, plan.keys)
    )
    text = f"The {subject_surface} when {conditions} {verb} {_join_values(values)}"
    return Fact(text, kind, _plan_cells(plan))


def _plan_mask(plan: FactPlan, n_cols: int) -> int:
    """The plan's cells as an int with bit `r * n_cols + c` set for each cell
    (r, c): two facts share a cell exactly when their masks share a bit. The
    plan's columns are the same in every row, so their bits are set once and
    shifted to each row."""
    columns = 1 << plan.subject
    for key in plan.keys:
        columns |= 1 << key
    mask = 0
    for r in plan.rows:
        mask |= columns << (r * n_cols)
    return mask


class PoolFact(NamedTuple):
    """One pool fact: its (subject, key) column pair, the fact rendered as a
    distractor, its word count and its `_plan_mask`."""

    pair: tuple[int, int]
    fact: Fact
    words: int
    mask: int


class FactPool:
    """Every complete single-key fact one table can express, rendered once
    and grouped by (subject, key) column pair. Facts whose text contains
    `FACT_SEPARATOR` (say, a cell reading "St. Louis") are left out, since as
    distractors they would make the context split back wrongly. The pool
    also keeps each gold fact it has rendered (`gold`). Each part is built on
    first use; make one per table and pass it to every `build_context` call
    on that table."""

    def __init__(self, table: TypedTable):
        self.table = table
        self._gold: dict[FactPlan, tuple[Fact, int, int]] = {}

    def gold(self, plan: FactPlan) -> tuple[Fact, int, int]:
        """The gold fact of `plan`, its word count and its `_plan_mask`,
        rendered on the first request for that plan."""
        known = self._gold.get(plan)
        if known is None:
            fact = _render_plan(self.table, plan, FactKind.GOLD)
            known = (fact, len(fact.text.split()), _plan_mask(plan, self.table.n_cols))
            self._gold[plan] = known
        return known

    @cached_property
    def entries(self) -> tuple[PoolFact, ...]:
        """The facts in a fixed order; the facts of one (subject, key) column
        pair form one contiguous run."""
        table = self.table
        out = []
        for key_col in range(table.n_cols):
            for subject_col in range(table.n_cols):
                if subject_col == key_col:
                    continue
                for rows in table.groups(key_col).values():
                    if any(not table.raw(r, subject_col) for r in rows):
                        continue
                    plan = FactPlan(subject_col, (key_col,), rows)
                    fact = _render_plan(table, plan, FactKind.DISTRACTOR)
                    if FACT_SEPARATOR in fact.text:
                        continue
                    out.append(PoolFact((subject_col, key_col), fact, len(fact.text.split()),
                                        _plan_mask(plan, table.n_cols)))
        return tuple(out)

    @cached_property
    def shortest(self) -> int:
        """The word count of the shortest fact."""
        return min((entry.words for entry in self.entries), default=0)

    @cached_property
    def spans(self) -> dict[tuple[int, int], range]:
        """Each (subject, key) column pair to the positions of its run in
        `entries`."""
        spans = {}
        start = 0
        for pair, run in itertools.groupby(self.entries, key=lambda entry: entry.pair):
            end = start + sum(1 for _ in run)
            spans[pair] = range(start, end)
            start = end
        return spans


def _distractor_order(pool: FactPool, gold: GoldSpec, gold_mask: int,
                      rng: random.Random) -> Iterator[int]:
    """Positions in the pool of candidate distractor facts, in the order to
    try them. First, in a seeded random order, the preferred tier: facts
    reusing the gold facts' column pairs (other rows). Then, likewise, the
    fallback tier over the other column pairs, built only if the preferred
    tier runs out. Every candidate is a complete, true fact whose cells are
    disjoint from the gold cells, which `gold_mask` holds as a `_plan_mask`."""
    gold_pairs = dict.fromkeys((plan.subject, plan.keys[0]) for plan in gold.plans
                               if len(plan.keys) == 1)
    entries, spans = pool.entries, pool.spans
    preferred = [i for pair in gold_pairs for i in spans.get(pair, ())
                 if not entries[i].mask & gold_mask]
    yield from _sampled(rng, preferred)
    fallback = [i for pair, span in spans.items() if pair not in gold_pairs
                for i in span if not entries[i].mask & gold_mask]
    yield from _sampled(rng, fallback)


def build_context(pool: FactPool, gold: GoldSpec, seed: int,
                  config: ContextConfig = ContextConfig()) -> Context:
    """Assemble the context for one example on `pool.table`.

    Gold facts are always all present; the distractor count is drawn from the
    configured range, trimmed when the table runs out of disjoint material or
    the word cap is reached. Distractors are taken lazily from
    `_distractor_order`, one draw per fact tried (seed-stream v2), and the
    search stops once not even the pool's shortest fact fits. The final
    order is a seed-determined shuffle.
    """
    table = pool.table
    rng = random.Random(seed)
    gold_facts: list[Fact] = []
    prefix = f"In {table.meta.table_title} of {table.meta.page_title}: "
    words = len(prefix.split())
    gold_mask = 0
    for plan in gold.plans:
        fact, fact_words, mask = pool.gold(plan)
        gold_facts.append(fact)
        words += fact_words
        gold_mask |= mask

    wanted = rng.randint(config.distractors_min, config.distractors_max)
    distractors: list[Fact] = []
    entries = pool.entries
    if wanted > 0:
        for i in _distractor_order(pool, gold, gold_mask, rng):
            entry = entries[i]
            if words + entry.words > config.word_cap:
                if words + pool.shortest > config.word_cap:
                    break  # no candidate left can fit
                continue
            words += entry.words
            distractors.append(entry.fact)
            if len(distractors) >= wanted:
                break

    facts = gold_facts + distractors
    rng.shuffle(facts)
    rendered = prefix + FACT_SEPARATOR.join(f.text for f in facts) + "."
    return Context(tuple(facts), rendered)
