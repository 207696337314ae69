"""Pseudo-language fact rendering and context assembly.

A fact verbalizes the relation between a subject column and a key column for
the rows sharing one key value:

    The Attendance when the Round was QF was 34,178
    The attendances when the opponent was Walsall were 5,666 and 10,037

Singular facts keep column names as they appear in the header; aggregated
(plural) facts lowercase them and pluralize the subject. The sentence shapes
live in `grammar`, which also reads facts back. A fact always lists the
complete set of subject values for its key value, in row order and with
duplicates preserved, so every rendered fact is a true, complete statement
about the table.

A context is a seed-shuffled mix of the gold facts required by one question
and distractor facts drawn from cells the question does not touch, prefixed
with the table and page titles.

Distractors come from a `FactPool`, which renders each fact once per table
into `runs`, by (subject, key) column pair; a fact is a candidate when its
cells are disjoint from the question's gold cells. The pool also renders
each gold fact once per table, however many questions need it. Candidates
are sampled with `_sampled`, a lazy partial Fisher–Yates shuffle that draws
once per fact tried and only reads the sequence it samples (seed-stream v2).
"""

from __future__ import annotations

import random
from enum import Enum
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence, TypeVar

from .grammar import render_fact
from .tables import TypedTable

# Distractor count is drawn uniformly from this range; the resulting corpus
# mean of 5.0 tracks the target distribution.
DISTRACTORS_MIN = 2
DISTRACTORS_MAX = 8
CONTEXT_WORD_CAP = 200

# Rendered contexts join facts with this; a distractor containing it would
# make the context split back into the wrong facts.
FACT_SEPARATOR = ". "


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


def cell_mask(plan: FactPlan, n_cols: int) -> int:
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


class GoldSpec(NamedTuple):
    """The cells a question needs and the plan for verbalizing them.

    The verbalized plan facts alone suffice to answer the question; `cells`
    is the union of the plans' `cell_mask`s, every (row, column) they touch,
    and distractors must avoid all of them. Like every cell mask, it only
    makes sense with the table it was built for.
    """

    cells: int
    plans: tuple[FactPlan, ...]


def gold_spec(plans: list[FactPlan] | tuple[FactPlan, ...], n_cols: int) -> GoldSpec:
    """The gold spec of `plans` on a table with `n_cols` columns."""
    cells = 0
    for plan in plans:
        cells |= cell_mask(plan, n_cols)
    return GoldSpec(cells, tuple(plans))


class Fact(NamedTuple):
    """One rendered fact. `cells` is its plan's `cell_mask` (bit
    `r * n_cols + c` for each cell (r, c) it states), so it only makes sense
    with the table the fact was rendered from."""

    text: str
    kind: FactKind
    cells: int


class Context(NamedTuple):
    facts: tuple[Fact, ...]
    rendered: str


class ContextConfig(NamedTuple):
    distractors_min: int = DISTRACTORS_MIN
    distractors_max: int = DISTRACTORS_MAX
    word_cap: int = CONTEXT_WORD_CAP


def _render_plan(table: TypedTable, plan: FactPlan, kind: FactKind) -> Fact:
    first = plan.rows[0]
    text = render_fact(table.column_name(plan.subject),
                       [(table.column_name(k), table.raw(first, k)) for k in plan.keys],
                       [table.raw(r, plan.subject) for r in plan.rows])
    return Fact(text, kind, cell_mask(plan, table.n_cols))


class PoolFact(NamedTuple):
    """A fact rendered as a distractor and its word count. Its `cells` mask
    is only comparable with masks of the pool's own table."""

    fact: Fact
    words: int


class FactPool:
    """Every complete single-key fact one table can express, rendered once
    and kept in `runs`. Facts whose text contains `FACT_SEPARATOR` (say, a
    cell reading "St. Louis") are left out, since as distractors they would
    make the context split back wrongly. The pool also keeps each gold fact
    it has rendered (`gold`). Each part is built on first use; make one per
    table and pass it to every `build_context` call on that table."""

    def __init__(self, table: TypedTable):
        self.table = table
        self._gold: dict[FactPlan, tuple[Fact, int]] = {}

    def gold(self, plan: FactPlan) -> tuple[Fact, int]:
        """The gold fact of `plan` and its word count, rendered on the first
        request for that plan."""
        known = self._gold.get(plan)
        if known is None:
            fact = _render_plan(self.table, plan, FactKind.GOLD)
            known = (fact, len(fact.text.split()))
            self._gold[plan] = known
        return known

    @cached_property
    def runs(self) -> dict[tuple[int, int], tuple[PoolFact, ...]]:
        """Each (subject, key) column pair, by key and then subject column, to
        its facts in key-value order. Pairs with no fact are left out."""
        table = self.table
        runs = {}
        for key_col in range(table.n_cols):
            for subject_col in range(table.n_cols):
                if subject_col == key_col:
                    continue
                run = []
                for rows in table.groups(key_col).values():
                    if any(not table.raw(r, subject_col) for r in rows):
                        continue
                    plan = FactPlan(subject_col, (key_col,), rows)
                    fact = _render_plan(table, plan, FactKind.DISTRACTOR)
                    if FACT_SEPARATOR in fact.text:
                        continue
                    run.append(PoolFact(fact, len(fact.text.split())))
                if run:
                    runs[(subject_col, key_col)] = tuple(run)
        return runs

    @cached_property
    def shortest(self) -> int:
        """The word count of the shortest fact."""
        return min((entry.words for run in self.runs.values() for entry in run), default=0)


def _distractor_order(pool: FactPool, gold: GoldSpec, rng: random.Random) -> Iterator[PoolFact]:
    """The candidate distractor facts of the pool, in the order to try them.
    First, in a seeded random order, the preferred tier: facts reusing the
    gold facts' column pairs (other rows). Then, likewise, the fallback tier
    over the other column pairs in pool order, built only if the preferred
    tier runs out. Every candidate is a complete, true fact whose cells are
    disjoint from the gold cells."""
    gold_pairs = dict.fromkeys((plan.subject, plan.keys[0]) for plan in gold.plans
                               if len(plan.keys) == 1)
    runs, gold_cells = pool.runs, gold.cells
    preferred = [entry for pair in gold_pairs for entry in runs.get(pair, ())
                 if not entry.fact.cells & gold_cells]
    yield from _sampled(rng, preferred)
    fallback = [entry for pair, run in runs.items() if pair not in gold_pairs
                for entry in run if not entry.fact.cells & gold_cells]
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
    for plan in gold.plans:
        fact, fact_words = pool.gold(plan)
        gold_facts.append(fact)
        words += fact_words

    wanted = rng.randint(config.distractors_min, config.distractors_max)
    distractors: list[Fact] = []
    if wanted > 0:
        for entry in _distractor_order(pool, gold, rng):
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
