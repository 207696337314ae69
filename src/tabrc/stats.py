"""Corpus statistics: one pass over an example file.

Kept apart from the generation pipeline, so that `stats` loads neither the
generators nor the table and fact code.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, NamedTuple

from .shared import GeneratorKind

# Answer kinds folded into the four reported buckets; durations count as
# date answers.
ANSWER_BUCKETS = {
    "span_list": "span",
    "yes_no": "yes_no",
    "number": "numeric",
    "date": "date",
    "duration": "date",
}


# The largest fact count a record may give: the largest integer up to which
# a float holds every integer exactly.
MAX_FACT_COUNT = 2 ** 53


class _Running:
    __slots__ = ("n", "total", "sq")

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0
        self.sq = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        self.total += x
        self.sq += x * x

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    @property
    def sd(self) -> float:
        if not self.n:
            return 0.0
        return math.sqrt(max(0.0, self.sq / self.n - self.mean ** 2))


class CorpusStats(NamedTuple):
    examples: int
    distinct_questions: int
    distinct_tables: int
    distinct_pages: int
    question_words: tuple[float, float]
    context_words: tuple[float, float]
    gold_facts: tuple[float, float]
    distractor_facts: tuple[float, float]
    distinct_words: int
    answer_pcts: dict[str, float]
    eg_counts: dict[str, int]
    category_counts: dict[str, int]
    malformed_lines: int

    def lines(self) -> list[str]:
        def avg(label: str, pair: tuple[float, float]) -> str:
            return f"{label}: {pair[0]:.3f}±{pair[1]:.3f}"

        out = [
            f"examples: {self.examples}",
            f"distinct_questions: {self.distinct_questions}",
            f"distinct_tables: {self.distinct_tables}",
            f"distinct_pages: {self.distinct_pages}",
            avg("avg_question_words", self.question_words),
            avg("avg_context_words", self.context_words),
            avg("avg_gold_facts", self.gold_facts),
            avg("avg_distractor_facts", self.distractor_facts),
            f"distinct_words: {self.distinct_words}",
        ]
        for bucket in ("span", "yes_no", "numeric", "date"):
            out.append(f"pct_{bucket}_answers: {self.answer_pcts.get(bucket, 0.0):.3f}")
        for kind in GeneratorKind:
            out.append(f"eg_count.{kind.value}: {self.eg_counts.get(kind.value, 0)}")
        for category in sorted(self.category_counts):
            out.append(f"category_count.{category}: {self.category_counts[category]}")
        out.append(f"malformed_lines: {self.malformed_lines}")
        return out


def corpus_stats(lines: Iterable[str]) -> CorpusStats:
    """Single-pass statistics over an example file. Malformed lines are
    counted and skipped."""
    questions: set[str] = set()
    tables: set[str] = set()
    pages: set[str] = set()
    words: set[str] = set()
    buckets: dict[str, int] = {}
    eg_counts: dict[str, int] = {}
    categories: dict[str, int] = {}
    q_words, c_words, gold, distractors = _Running(), _Running(), _Running(), _Running()
    examples = 0
    malformed = 0

    for line in lines:
        text = line.strip()
        if not text:
            continue
        # Beside bad syntax, `json.loads` raises a plain ValueError for an
        # integer too long to convert and RecursionError for nesting too deep.
        try:
            record = json.loads(text)
            question = record["question"]
            context = record["context"]
            answer_kind = record["answer"]["kind"]
            eg = record["eg"]
            source = record["source"]
            table_id = source["table_id"]
            page = source["page_title"]
            category = source.get("category")
            gold_count = record.get("gold_fact_count", 0)
            distractor_count = record.get("distractor_count", 0)
            if not all(isinstance(s, str) for s in (question, context, answer_kind, eg,
                                                   table_id, page)):
                raise TypeError("text field is not a string")
            if category is not None and not isinstance(category, str):
                raise TypeError("category is not a string")
            # `type`, not `isinstance`, which would let a bool through; the
            # range refuses NaN and infinities and keeps the running sums finite.
            if not all(type(n) in (int, float) and 0 <= n <= MAX_FACT_COUNT
                       for n in (gold_count, distractor_count)):
                raise ValueError("fact count is not a number from 0 to 2**53")
        except (ValueError, RecursionError, KeyError, TypeError):
            malformed += 1
            continue
        examples += 1
        questions.add(question)
        tables.add(table_id)
        pages.add(page)
        q_tokens = question.split()
        c_tokens = context.split()
        q_words.add(len(q_tokens))
        c_words.add(len(c_tokens))
        words.update(q_tokens)
        words.update(c_tokens)
        gold.add(gold_count)
        distractors.add(distractor_count)
        bucket = ANSWER_BUCKETS.get(answer_kind, answer_kind)
        buckets[bucket] = buckets.get(bucket, 0) + 1
        eg_counts[eg] = eg_counts.get(eg, 0) + 1
        if category is not None:
            categories[category] = categories.get(category, 0) + 1

    pcts = {bucket: 100.0 * count / examples for bucket, count in buckets.items()} if examples else {}
    return CorpusStats(
        examples=examples,
        distinct_questions=len(questions),
        distinct_tables=len(tables),
        distinct_pages=len(pages),
        question_words=(q_words.mean, q_words.sd),
        context_words=(c_words.mean, c_words.sd),
        gold_facts=(gold.mean, gold.sd),
        distractor_facts=(distractors.mean, distractors.sd),
        distinct_words=len(words),
        answer_pcts=pcts,
        eg_counts=eg_counts,
        category_counts=categories,
        malformed_lines=malformed,
    )
