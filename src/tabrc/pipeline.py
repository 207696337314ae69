"""Corpus generation pipeline and corpus statistics.

Generation streams the input dump line by line: each accepted table is
expanded through the selected generators, contexts are built, and one JSON
record per example is appended to the output. Nothing but the current table,
its rendered fact pool and the set of already-seen example ids is held in
memory, so a dump of any length processes under a bounded footprint. With
more than one worker, tables are processed in parallel but records are
flushed in input order, so output bytes depend only on (input, seed, flags).

Example ids hash the table id, the generator and the template bindings;
records whose id was already written are dropped and counted, which
deduplicates repeated instantiations across the whole run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from functools import partial
from typing import Iterable, Iterator, NamedTuple

from .facts import FactKind, FactPool, build_context
from .generators import (
    PER_TABLE_CAP,
    GeneratorKind,
    Triplet,
    derive_seed,
    generate,
)
from .tables import (
    MAX_ROWS,
    MIN_ROWS,
    IngestError,
    TypedTable,
    ingest,
    raw_table_from_json,
)

ALL_KINDS = tuple(GeneratorKind)

# Answer kinds folded into the four reported buckets; durations count as
# date answers.
ANSWER_BUCKETS = {
    "span_list": "span",
    "yes_no": "yes_no",
    "number": "numeric",
    "date": "date",
    "duration": "date",
}


class GenerationSettings(NamedTuple):
    seed: int = 0
    cap: int | None = PER_TABLE_CAP
    kinds: tuple[GeneratorKind, ...] = ALL_KINDS
    min_rows: int = MIN_ROWS
    max_rows: int = MAX_ROWS
    workers: int = 1


class GenerateSummary:
    """The counts of one `generate_corpus` run."""

    __slots__ = ("tables_read", "tables_accepted", "tables_rejected", "examples", "duplicates")

    def __init__(self) -> None:
        self.tables_read = 0
        self.tables_accepted = 0
        self.tables_rejected = 0
        self.examples = 0
        self.duplicates = 0


# One encoder each for the bindings that example ids hash and for record
# lines: `json.dumps` with non-default arguments builds a new encoder per call.
_BINDINGS_JSON = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
_RECORD_JSON = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def example_id(table_id: str, kind: GeneratorKind, triplet: Triplet) -> str:
    """Content hash over (table, generator, bindings) used for global dedup."""
    bindings = _BINDINGS_JSON([[slot, payload] for slot, payload in triplet.instantiation.bindings])
    digest = hashlib.sha256(f"{table_id}\x1f{kind.value}\x1f{bindings}".encode("utf-8"))
    return digest.hexdigest()[:16]


def build_record(table: TypedTable, kind: GeneratorKind, triplet: Triplet,
                 context, record_id: str) -> dict:
    """One example record; `record_id` is the triplet's `example_id`."""
    source = {"page_title": table.meta.page_title, "table_id": table.meta.id}
    if table.meta.category is not None:
        source["category"] = table.meta.category
    return {
        "id": record_id,
        "eg": kind.value,
        "template_id": triplet.instantiation.template.id,
        "question": triplet.instantiation.question,
        "context": context.rendered,
        "answer": {"kind": triplet.answer.kind.value, "values": list(triplet.answer.values)},
        "gold_fact_count": sum(1 for f in context.facts if f.kind is FactKind.GOLD),
        "distractor_count": sum(1 for f in context.facts if f.kind is FactKind.DISTRACTOR),
        "source": source,
    }


def table_examples(table: TypedTable, settings: GenerationSettings) -> Iterator[dict]:
    """All example records for one table under the given settings."""
    pool = FactPool(table)
    for kind in settings.kinds:
        for triplet in generate(table, kind, settings.seed, settings.cap):
            record_id = example_id(table.meta.id, kind, triplet)
            ctx_seed = derive_seed(settings.seed, table.meta.id, kind.value, record_id, "context")
            context = build_context(pool, triplet.gold, ctx_seed)
            yield build_record(table, kind, triplet, context, record_id)


# Tab, CR and LF in a rejected table's id are written escaped, so that each
# rejects line is exactly "id<TAB>reason".
_ID_ESCAPES = str.maketrans({"\t": "\\t", "\r": "\\r", "\n": "\\n"})


def _process_line(settings: GenerationSettings, item: tuple[int, str]
                  ) -> tuple[str, list[tuple[str, str]], tuple[str, str] | None]:
    """Worker body: one input line to (status, (record id, record json)
    pairs, rejection)."""
    line_no, text = item
    if not text.strip():
        return "blank", [], None
    try:
        obj = json.loads(text)
        raw = raw_table_from_json(obj)
    except json.JSONDecodeError:
        return "rejected", [], (f"line:{line_no}", "malformed")
    except IngestError as exc:
        table_id = obj.get("id", f"line:{line_no}") if isinstance(obj, dict) else f"line:{line_no}"
        return "rejected", [], (str(table_id), exc.reason)
    try:
        table = ingest(raw, settings.min_rows, settings.max_rows)
    except IngestError as exc:
        return "rejected", [], (raw.id, exc.reason)
    return "accepted", [(r["id"], _RECORD_JSON(r)) for r in table_examples(table, settings)], None


def generate_corpus(input_path: str, output_path: str, settings: GenerationSettings,
                    rejects_path: str | None = None) -> GenerateSummary:
    """Stream a dump file through the generators into an example file.

    Rejections are logged as tab-separated (table id, reason) lines, with
    tab, CR and LF in the id escaped as \\t, \\r and \\n and a lone
    surrogate as \\udXXXX. A byte of the input that is not UTF-8 is read
    as a lone surrogate, so its line is rejected as malformed. Records are
    written in input-table order regardless of worker count; with workers,
    each table is its own task, so the heaviest tables do not queue behind
    each other in one worker's chunk.

    Both files are written to temporary files beside them and renamed into
    place after the last record, so a run that fails leaves any earlier
    output as it was and no temporary file behind.
    """
    if rejects_path is None:
        rejects_path = output_path + ".rejects"
    if os.path.realpath(rejects_path) == os.path.realpath(output_path):
        raise ValueError(f"rejects path is the output path: {output_path}")
    summary = GenerateSummary()
    seen_ids: set[int] = set()
    worker = partial(_process_line, settings)
    temp_out, temp_rejects = (f"{path}.tmp{os.getpid()}" for path in (output_path, rejects_path))
    pool = None

    try:
        with open(input_path, "r", encoding="utf-8", errors="surrogateescape") as src, \
                open(temp_out, "w", encoding="utf-8") as out, \
                open(temp_rejects, "w", encoding="utf-8", errors="backslashreplace") as rejects:
            items = enumerate(src, start=1)
            if settings.workers > 1:
                # Imported here: one worker never needs it, and every command
                # would pay for the import otherwise.
                from multiprocessing import Pool

                pool = Pool(settings.workers)
                results = pool.imap(worker, items, chunksize=1)
            else:
                results = map(worker, items)
            for status, records, rejection in results:
                if status == "blank":
                    continue
                summary.tables_read += 1
                if status == "rejected":
                    summary.tables_rejected += 1
                    rejects.write(f"{rejection[0].translate(_ID_ESCAPES)}\t{rejection[1]}\n")
                    continue
                summary.tables_accepted += 1
                for record_id, record_json in records:
                    key = int(record_id, 16)
                    if key in seen_ids:
                        summary.duplicates += 1
                        continue
                    seen_ids.add(key)
                    out.write(record_json + "\n")
                    summary.examples += 1
        os.replace(temp_out, output_path)
        os.replace(temp_rejects, rejects_path)
    finally:
        if pool is not None:
            pool.close()
            pool.join()
        for temp in (temp_out, temp_rejects):
            try:
                os.remove(temp)
            except FileNotFoundError:
                pass
    return summary


# ---------------------------------------------------------------------------
# Corpus statistics.
# ---------------------------------------------------------------------------


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
        for kind in ALL_KINDS:
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
            if not all(isinstance(n, (int, float)) for n in (gold_count, distractor_count)):
                raise TypeError("fact count is not a number")
        except (json.JSONDecodeError, KeyError, TypeError):
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


def parse_kinds(spec: str | None) -> tuple[GeneratorKind, ...]:
    """Parse a comma-separated generator filter; None or empty keeps all."""
    if not spec:
        return ALL_KINDS
    kinds = []
    for name in spec.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            kinds.append(GeneratorKind(name))
        except ValueError:
            valid = ", ".join(k.value for k in ALL_KINDS)
            raise ValueError(f"unknown generator {name!r}; valid: {valid}") from None
    return tuple(kinds) or ALL_KINDS
