"""Corpus generation pipeline.

Generation streams the input dump line by line: each accepted table is
expanded through the selected generators, contexts are built, and one JSON
record per example is appended to the output. A table and its rendered fact
pool are held only while that table is generated. The parent also holds the
id of every example written, so that memory grows with the output, and a
16-byte digest of each distinct line. With N workers above one, tables are
generated in parallel in forked worker processes, and the parent also holds
up to 4 x N lines read ahead and their results; records are still flushed
in input order, so output bytes depend only on (input, seed, flags).

Example ids hash the table id, the generator and the template bindings;
records whose id was already written are dropped and counted, which
deduplicates repeated instantiations across the whole run. A line that
repeats an earlier line verbatim, outer JSON whitespace aside, is still
ingested but not generated: every record it would yield is a duplicate, so
the first occurrence's records are counted as dropped instead. Output,
rejects and counts are the same as if it were generated.

A table whose ingest or generation raises is rejected as
internal_error:<class name> at any worker count; only a worker that dies
ends the run.
"""

from __future__ import annotations

import contextlib
import json
import marshal
import os
import signal
import sys
from collections import deque
from functools import partial
from typing import Iterator, NamedTuple, NoReturn

from .facts import FactKind, FactPool, build_context
from .generators import Triplet, generate
from .shared import (MAX_ROWS, MIN_ROWS, PER_TABLE_CAP, GeneratorKind, check_not_input,
                     derive_seed, replacing)
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
    line:N if not. An accepted repeat is not generated: its pairs are None.
    Any `Exception` from ingest or generation but an `IngestError` rejects
    the table as internal_error:<class name>, its traceback on stderr."""
    line_no, text, repeat = item
    line_id = f"line:{line_no}"
    # Beside bad syntax, `json.loads` raises a plain ValueError for an integer
    # too long to convert and RecursionError for nesting too deep to decode.
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError):
        return [], (line_id, "malformed")
    table_id = obj.get("id") if isinstance(obj, dict) else None
    if not (isinstance(table_id, str) and table_id):
        table_id = line_id
    try:
        table = ingest(raw_table_from_json(obj), settings.min_rows, settings.max_rows)
        if repeat:
            return None, None
        return [(r["id"], _RECORD_JSON(r)) for r in table_examples(table, settings)], None
    except IngestError as exc:
        return [], (table_id, exc.reason)
    except Exception as exc:
        # Imported here: a run in which no table fails formats nothing.
        import traceback

        reason = f"internal_error:{type(exc).__name__}"
        sys.stderr.write(f"{table_id.translate(_ID_ESCAPES)}\t{reason}\n{traceback.format_exc()}")
        # A worker leaves through `os._exit`, which flushes nothing.
        sys.stderr.flush()
        return [], (table_id, reason)


# Tasks read ahead per pool worker. A worker runs one table at a time, and
# the tables read ahead wait in the parent, so the workers keep going while
# the parent waits on a slow table. 4 per worker keeps both workers fed on
# `corpus-dirty`'s mix of heavy tables and sub-millisecond rejects; 1, 2
# and 8 per worker were within noise of it on 2 cores.
_TASKS_PER_WORKER = 4


class _Worker(NamedTuple):
    pid: int
    tasks: int  # the write end of the worker's task pipe
    results: int  # the read end of its result pipe


def _send(fd: int, body: bytes) -> None:
    """Write one frame, `body` after its 8-byte length, to a pipe."""
    frame = memoryview(len(body).to_bytes(8, "little") + body)
    while frame:
        frame = frame[os.write(fd, frame):]


def _read(fd: int, size: int) -> bytearray | None:
    """`size` bytes from a pipe, or None if it ends first."""
    data = bytearray(size)
    view = memoryview(data)
    while view:
        got = os.readv(fd, [view])
        if not got:
            return None
        view = view[got:]
    return data


def _receive(fd: int) -> bytearray | None:
    """The body of one frame from a pipe, or None if the pipe ends first."""
    header = _read(fd, 8)
    return None if header is None else _read(fd, int.from_bytes(header, "little"))


def _place(index: int) -> None:
    """Move this process to CPU `index` (modulo their number) of its
    affinity mask, then give it the whole mask back. Forked workers start on
    their parent's CPU; this starts worker i on a CPU of its own and leaves
    no affinity behind, so the kernel may still move it. Where affinity
    cannot be set, the worker stays where it is."""
    if not hasattr(os, "sched_setaffinity"):
        return
    with contextlib.suppress(OSError):
        allowed = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, {sorted(allowed)[index % len(allowed)]})
        finally:
            os.sched_setaffinity(0, allowed)


def _serve(worker, index: int, tasks: int, results: int, inherited: list[int]) -> NoReturn:
    """A forked worker's whole life. It closes the parent's pipe ends and
    `_place`s itself as worker `index`, then answers each marshalled task
    frame from `tasks` with a frame of the marshalled result on `results`,
    until `tasks` ends. It leaves through `os._exit`, so nothing it
    inherited is flushed, closed or cleaned up twice; a send to a parent
    that has gone ends it, and so does anything `worker` raises, which the
    parent sees as the worker's death."""
    code = 1
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        for fd in inherited:
            os.close(fd)
        _place(index)
        while (task := _receive(tasks)) is not None:
            _send(results, marshal.dumps(worker(marshal.loads(task))))
        code = 0
    finally:
        os._exit(code)


def _fork(worker, running: list[_Worker]) -> None:
    """Fork one more worker and add it to `running`. SIGTERM waits across
    the fork, so the parent records every child it makes, and the child runs
    no handler of the parent's."""
    tasks_r, tasks_w = os.pipe()
    results_r, results_w = os.pipe()
    inherited = [tasks_w, results_r, *(fd for w in running for fd in (w.tasks, w.results))]
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        pid = os.fork()
        if pid == 0:
            _serve(worker, len(running), tasks_r, results_w, inherited)
        running.append(_Worker(pid, tasks_w, results_r))
    except BaseException:
        os.close(tasks_w)
        os.close(results_r)
        raise
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.close(tasks_r)
        os.close(results_w)


def _forked_in_order(worker, items: Iterator, workers: int, running: list[_Worker]) -> Iterator:
    """`worker` over `items` in input order on `workers` forked workers,
    forked on the first item and added to `running`. Each worker has one
    task at a time, so the parent never writes to a worker that is itself
    writing, and the input is read no more than `_TASKS_PER_WORKER` tasks
    per worker ahead of the result being yielded."""
    # Imported here: one worker never needs it, and every command would pay.
    import select

    poller = select.poll()
    idle: list[_Worker] = []
    busy: dict[int, tuple[_Worker, int]] = {}  # results fd -> (worker, task index)
    queued: deque = deque()  # (task index, item), read but not handed out
    done: dict = {}  # task index -> result, received but not yielded

    def hand_out() -> None:
        while queued and idle:
            child = idle.pop()
            index, item = queued.popleft()
            try:
                _send(child.tasks, marshal.dumps(item))
            except BrokenPipeError:
                raise ChildProcessError("a worker process died") from None
            busy[child.results] = child, index

    def result(index: int):
        while index not in done:
            for fd, _ in poller.poll():
                body = _receive(fd)
                if body is None:
                    raise ChildProcessError("a worker process died")
                child, task = busy.pop(fd)
                done[task] = marshal.loads(body)
                idle.append(child)
            hand_out()
        return done.pop(index)

    window = _TASKS_PER_WORKER * workers
    read = taken = 0
    for item in items:
        if not running:
            for _ in range(workers):
                _fork(worker, running)
                poller.register(running[-1].results, select.POLLIN)
            idle.extend(running)
        queued.append((read, item))
        read += 1
        hand_out()
        if read - taken > window:
            yield result(taken)
            taken += 1
    while taken < read:
        yield result(taken)
        taken += 1


@contextlib.contextmanager
def _results_in_order(worker, items: Iterator, workers: int) -> Iterator[Iterator]:
    """`worker` over `items` in input order: `map` at one worker, else
    `_forked_in_order`. What `worker` raises goes through `map` at one
    worker and ends its worker above one, and a worker that ends before
    sending its task's result is ChildProcessError. Leaving the block closes
    every pipe and waits for every worker: an idle one reads the end of its
    tasks, and a busy one finishes its table and fails to send it."""
    if workers == 1:
        yield map(worker, items)
        return
    running: list[_Worker] = []
    try:
        yield _forked_in_order(worker, items, workers, running)
    finally:
        for child in running:
            os.close(child.tasks)
            os.close(child.results)
        for child in running:
            os.waitpid(child.pid, 0)


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
    record count is added to `duplicates`, or its internal_error reject is
    logged again. The parent keeps a 16-byte digest of each distinct line.

    Both files are written through `replacing`, the output inside the
    rejects, so the output is renamed into place first, after the last
    record; a run that fails leaves any earlier output and rejects file as
    they were and no temporary file behind, also when a worker dies (a
    ChildProcessError) or anything but an `Exception` escapes a table. A
    path named twice is a ValueError.
    """
    if rejects_path is None:
        rejects_path = output_path + ".rejects"
    check_not_input("output", output_path, input_path)
    check_not_input("rejects", rejects_path, input_path)
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
    # Each distinct line's digest, once flushed, to its record count or its
    # rejection, which an accepted repeat takes if generation failed.
    line_records: dict[bytes, int | tuple[str, str]] = {}
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
            if records is None:
                records, first = (), line_records[digest]
                if isinstance(first, int):
                    summary.duplicates += first
                else:
                    rejection = first
            else:
                line_records[digest] = len(records) if rejection is None else rejection
            if rejection is not None:
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
