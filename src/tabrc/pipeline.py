"""Corpus generation pipeline.

Generation streams the input dump line by line: each accepted table is
expanded through the selected generators, contexts are built, and one JSON
record per example is appended to the output. Nothing but the current table,
its rendered fact pool and the set of already-seen example ids is held in
memory, so a dump of any length processes under a bounded footprint. With
more than one worker, tables are processed in parallel but records are
flushed in input order, so output bytes depend only on (input, seed, flags).

Example ids hash the table id, the generator and the template bindings;
records whose id was already written are dropped and counted, which
deduplicates repeated instantiations across the whole run. A line that
repeats an earlier line verbatim, outer JSON whitespace aside, is still
ingested but not generated: every record it would yield is a duplicate, so
the first occurrence's records are counted as dropped instead. Output,
rejects and counts are the same as if it were generated.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
from collections import deque
from functools import partial
from typing import Iterator, NamedTuple

from .facts import FactKind, FactPool, build_context
from .generators import Triplet, generate
from .shared import MAX_ROWS, MIN_ROWS, PER_TABLE_CAP, GeneratorKind, derive_seed, replacing
from .tables import IngestError, TypedTable, ingest, raw_table_from_json

ALL_KINDS = tuple(GeneratorKind)


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
    return f"{derive_seed(table_id, kind.value, bindings):016x}"


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


def _process_line(settings: GenerationSettings, item: tuple[int, str, bool]
                  ) -> tuple[list[tuple[str, str]] | None, tuple[str, str] | None]:
    """Worker body: one non-blank input line, and whether it repeats an
    earlier line, to ((record id, record json) pairs, rejection). The
    rejection is None for an accepted table and (table id, reason) otherwise,
    where the table id is the record's id if that is a non-empty string and
    line:N if not. An accepted repeat is not generated: its pairs are None."""
    line_no, text, repeat = item
    line_id = f"line:{line_no}"
    # Beside bad syntax, `json.loads` raises a plain ValueError for an integer
    # too long to convert and RecursionError for nesting too deep to decode.
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError):
        return [], (line_id, "malformed")
    try:
        table = ingest(raw_table_from_json(obj), settings.min_rows, settings.max_rows)
    except IngestError as exc:
        table_id = obj.get("id") if isinstance(obj, dict) else None
        return [], (table_id if isinstance(table_id, str) and table_id else line_id, exc.reason)
    if repeat:
        return None, None
    return [(r["id"], _RECORD_JSON(r)) for r in table_examples(table, settings)], None


def _default_sigterm() -> None:
    """Worker initializer: SIGTERM kills the worker, whatever the parent set."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})


def _in_order(executor, worker, items: Iterator, window: int) -> Iterator:
    """`worker` over `items` in input order, with `window` tasks in flight."""
    pending = deque()
    for item in items:
        if len(pending) == window:
            yield pending.popleft().result()
        # SIGTERM waits while a task is submitted: the first submit forks the
        # workers, and a SystemExit amid it would strand one.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            pending.append(executor.submit(worker, item))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    while pending:
        yield pending.popleft().result()


# Tasks in flight per pool worker. Rejects and repeats take a worker well
# under a millisecond each, so at 2 per worker a worker ran dry for 40-50 ms
# of a 200 ms `corpus-dirty` run on 2 cores while the parent waited on the
# oldest table; 4 per worker removed that, and 8 removed no more.
_TASKS_PER_WORKER = 4


@contextlib.contextmanager
def _results_in_order(worker, items: Iterator, workers: int) -> Iterator[Iterator]:
    """`worker` over `items` in input order: `map` at one worker, else a pool
    with `_TASKS_PER_WORKER` tasks per worker in flight: the parent holds no
    more results than that and reads the input no further ahead. One
    `shutdown` ends the block, cancels queued tasks and waits for running
    ones; a dead worker is ChildProcessError."""
    if workers == 1:
        yield map(worker, items)
        return
    # Imported here: one worker never needs it, and every command would pay.
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    executor = ProcessPoolExecutor(workers, initializer=_default_sigterm)
    try:
        yield _in_order(executor, worker, items, _TASKS_PER_WORKER * workers)
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"a worker process died: {exc}") from exc
    finally:
        executor.shutdown(cancel_futures=True)


def generate_corpus(input_path: str, output_path: str, settings: GenerationSettings,
                    rejects_path: str | None = None) -> GenerateSummary:
    """Stream a dump file through the generators into an example file.

    Rejections are logged as tab-separated (table id, reason) lines, with
    tab, CR and LF in the id escaped as \\t, \\r and \\n and a lone
    surrogate as \\udXXXX. A byte of the input that is not UTF-8 is read
    as a lone surrogate, so its line is rejected as malformed. Records are
    written in input-table order regardless of worker count; with workers,
    each table is its own task, so the heaviest tables do not queue behind
    each other in one worker's chunk. Blank and whitespace-only lines are
    skipped before they reach a worker, and line:N counts them too.

    A line equal to an earlier one once outer JSON whitespace is stripped is
    a repeat. It is ingested again, so a repeated reject is logged under its
    own id, but an accepted repeat is not generated: every record it would
    yield duplicates one of the first occurrence's, so the first occurrence's
    record count is added to `duplicates`. The parent keeps a 16-byte digest
    of each distinct line for this.

    Both files are written through `replacing`, the output inside the
    rejects, so the output is renamed into place first, after the last
    record; a run that fails leaves any earlier output and rejects file as
    they were and no temporary file behind, also when a worker raises or dies
    (a ChildProcessError). A path named twice is a ValueError.
    """
    if rejects_path is None:
        rejects_path = output_path + ".rejects"
    for flag, path in (("output", output_path), ("rejects", rejects_path)):
        if os.path.realpath(path) == os.path.realpath(input_path):
            raise ValueError(f"{flag} path is the input path: {path}")
    if os.path.realpath(rejects_path) == os.path.realpath(output_path):
        raise ValueError(f"rejects path is the output path: {output_path}")
    if settings.cap is not None and settings.cap < 1:
        raise ValueError(f"per-table cap must be at least 1, got {settings.cap}")
    if settings.workers < 1:
        raise ValueError(f"workers must be at least 1, got {settings.workers}")
    if settings.max_rows < max(settings.min_rows, 1):
        raise ValueError(f"max rows must be at least 1 and at least min rows "
                         f"({settings.min_rows}), got {settings.max_rows}")
    summary = GenerateSummary()
    seen_ids: set[int] = set()
    # Each distinct line's digest, to its record count once flushed.
    line_records: dict[bytes, int] = {}
    # The digests of the dispatched lines not yet flushed, oldest first.
    in_flight: deque[bytes] = deque()

    def tasks(src) -> Iterator[tuple[int, str, bool]]:
        for line_no, text in enumerate(src, start=1):
            if text.strip():
                # Imported here, as in `derive_seed`: an empty dump hashes
                # nothing, and a plain `import` of a loaded module is cheap.
                import hashlib

                # Only JSON's own whitespace is stripped, so two lines with
                # one digest are accepted or rejected alike.
                line = text.strip(" \t\n\r").encode("utf-8", "surrogateescape")
                digest = hashlib.blake2b(line, digest_size=16).digest()
                repeat = digest in line_records
                line_records.setdefault(digest, 0)
                in_flight.append(digest)
                yield line_no, text, repeat

    with open(input_path, "r", encoding="utf-8", errors="surrogateescape") as src, \
            replacing(rejects_path, errors="backslashreplace") as rejects, \
            replacing(output_path) as out, \
            _results_in_order(partial(_process_line, settings), tasks(src),
                              settings.workers) as results:
        for records, rejection in results:
            digest = in_flight.popleft()
            summary.tables_read += 1
            if rejection is not None:
                summary.tables_rejected += 1
                rejects.write(f"{rejection[0].translate(_ID_ESCAPES)}\t{rejection[1]}\n")
                continue
            summary.tables_accepted += 1
            if records is None:
                summary.duplicates += line_records[digest]
                continue
            line_records[digest] = len(records)
            for record_id, record_json in records:
                key = int(record_id, 16)
                if key in seen_ids:
                    summary.duplicates += 1
                    continue
                seen_ids.add(key)
                out.write(record_json + "\n")
                summary.examples += 1
    return summary


def parse_kinds(spec: str | None) -> tuple[GeneratorKind, ...]:
    """Parse a comma-separated generator filter; None or empty keeps all,
    and a repeated name counts once, where it first appears."""
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
    return tuple(dict.fromkeys(kinds)) or ALL_KINDS
