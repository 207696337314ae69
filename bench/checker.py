"""Output checks for the benchmark workloads.

The corpus checker re-derives every example's answer twice with
`tabrc.oracle`, which generation never calls: once from the table (question
parse + table scan) and once from the context's facts alone. The schedule
checker reads the preset verdicts and recomputes every replayed momentum
distribution from the feed with its own arithmetic.

Failures on tables whose text contains a separator (", ", " and ", " or ",
" was ", ". ") are the known ambiguity defect of rendered facts and
questions. They count as failed operations like any other, but only
failures elsewhere make a run incorrect.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

from tabrc import oracle
from tabrc.generators import GeneratorKind
from tabrc.tables import IngestError, TypedTable, ingest, raw_table_from_json

SEPARATORS = (", ", " and ", " or ", " was ", ". ")


@dataclass
class CorpusCheck:
    checked: int = 0
    failed: dict[str, int] = field(default_factory=lambda: {"table": 0, "facts": 0, "split": 0})
    unexplained: int = 0  # failures on tables without separator text
    distractors: int = 0
    seconds: float = 0.0

    @property
    def failures(self) -> int:
        return sum(self.failed.values())


def _has_separator(table: TypedTable) -> bool:
    texts = [table.meta.page_title, table.meta.table_title, *table.column_names]
    texts += [table.raw(r, c) for r in range(table.n_rows) for c in range(table.n_cols)]
    return any(sep in text for text in texts for sep in SEPARATORS)


def context_facts(table: TypedTable, context: str) -> list[str] | None:
    """Split a rendered context back into fact texts; None when the known
    `In <table title> of <page title>: ` prefix or the final period is
    missing."""
    prefix = f"In {table.meta.table_title} of {table.meta.page_title}: "
    if not context.startswith(prefix) or not context.endswith("."):
        return None
    return context[len(prefix):-1].split(". ")


def check_example(table: TypedTable, record: dict) -> str | None:
    """The failure kind of one example record, or None when it is sound."""
    kind = GeneratorKind(record["eg"])
    expected = tuple(record["answer"]["values"])
    try:
        query = oracle.parse_question(table, kind, record["question"])
    except oracle.QuestionParseError:
        return "table"
    result = oracle.table_answer(table, query)
    if (result is None or result[0].value != record["answer"]["kind"]
            or not oracle.answers_match(kind, expected, result[1])):
        return "table"
    facts = context_facts(table, record["context"])
    if facts is None or len(facts) != record["gold_fact_count"] + record["distractor_count"]:
        return "split"
    result = oracle.facts_answer(query, facts)
    if result is None or not oracle.answers_match(kind, expected, result[1]):
        return "facts"
    return None


def typed_tables(dump_lines: list[str]) -> dict[str, TypedTable]:
    """Re-ingest a dump with the CLI's default row bounds, keyed by table id."""
    tables = {}
    for line in dump_lines:
        try:
            table = ingest(raw_table_from_json(json.loads(line)))
        except (json.JSONDecodeError, IngestError):
            continue
        tables[table.meta.id] = table
    return tables


def check_corpus(dump_lines: list[str], output_path: str) -> CorpusCheck:
    start = time.perf_counter()
    tables = typed_tables(dump_lines)
    separated = {table_id: _has_separator(table) for table_id, table in tables.items()}
    check = CorpusCheck()
    with open(output_path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            check.checked += 1
            check.distractors += record["distractor_count"]
            table_id = record["source"]["table_id"]
            table = tables.get(table_id)
            if table is None:
                failure = "table"
            else:
                try:
                    failure = check_example(table, record)
                except Exception as exc:  # an oracle crash fails this example only
                    print(f"checker: {record['id']}: {exc!r}", file=sys.stderr)
                    failure = "table"
            if failure is not None:
                check.failed[failure] += 1
                if not separated.get(table_id, False):
                    check.unexplained += 1
    check.seconds = time.perf_counter() - start
    return check


def read_rejects(path: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            reason = line.rstrip("\n").split("\t")[-1]
            counts[reason] = counts.get(reason, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Schedule checks.
# ---------------------------------------------------------------------------


def verdicts(stdout: str) -> tuple[int, int]:
    """(verdict lines, failing verdict lines) in `simulate --preset` output."""
    lines = [line for line in stdout.splitlines() if ": verdict " in line]
    return len(lines), sum(1 for line in lines if line.rstrip().endswith(": fail"))


def momentum_reference(feed_lines: list[str], window: int, smoothing: int,
                       eps: float) -> list[dict[str, float]]:
    """Momentum distributions after each checkpoint of a feed: weight
    max(|mean of newest k - mean of oldest k in the window|, eps),
    normalized, uniform before `window` checkpoints or when every weight sits
    at the floor."""
    by_checkpoint: dict[int, dict[str, float]] = {}
    for line in feed_lines:
        if not line.strip() or line.startswith("#"):
            continue
        checkpoint, task, accuracy = line.split("\t")
        by_checkpoint.setdefault(int(checkpoint), {})[task] = float(accuracy)
    tasks = sorted(by_checkpoint[min(by_checkpoint)])
    series: dict[str, list[float]] = {task: [] for task in tasks}
    out = []
    for checkpoint in sorted(by_checkpoint):
        for task in tasks:
            series[task].append(by_checkpoint[checkpoint][task])
        uniform = {task: 1.0 / len(tasks) for task in tasks}
        if len(series[tasks[0]]) < window:
            out.append(uniform)
            continue
        weights = {}
        for task in tasks:
            recent = series[task][-window:]
            change = sum(recent[-smoothing:]) / smoothing - sum(recent[:smoothing]) / smoothing
            weights[task] = max(abs(change), eps)
        if all(w <= eps for w in weights.values()):
            out.append(uniform)
            continue
        total = sum(weights.values())
        out.append({task: w / total for task, w in weights.items()})
    return out


def check_replay(distribution_path: str, reference: list[dict[str, float]],
                 tolerance: float = 1e-9) -> tuple[int, int]:
    """(checkpoints checked, checkpoints that differ from the reference) for
    a `checkpoint<TAB>task<TAB>probability` file written by a replay."""
    got: dict[int, dict[str, float]] = {}
    with open(distribution_path, encoding="utf-8") as handle:
        next(handle)  # header
        for line in handle:
            checkpoint, task, probability = line.rstrip("\n").split("\t")
            got.setdefault(int(checkpoint), {})[task] = float(probability)
    expected = dict(enumerate(reference, start=1))
    checkpoints = set(expected) | set(got)
    failed = sum(1 for c in checkpoints
                 if got.get(c, {}).keys() != expected.get(c, {}).keys()
                 or any(abs(got[c][task] - p) > tolerance for task, p in expected[c].items()))
    return len(checkpoints), failed
