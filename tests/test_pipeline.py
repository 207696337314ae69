import ast
import contextlib
import errno
import gc
import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from fixtures import CHELSEA, HAND_TABLES
from roughgen import rough_table
from tablegen import make_table
from tabrc.cli import main
from tabrc import pipeline
from tabrc.facts import FACT_SEPARATOR, FactKind, FactPool, build_context
from tabrc.generators import GeneratorKind, generate
from tabrc.pipeline import (
    GenerationSettings,
    generate_corpus,
    parse_kinds,
    table_examples,
)
from tabrc.shared import derive_seed, seed_deriver
from tabrc.stats import corpus_stats
from tabrc.tables import ingest, raw_table_from_json


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as out:
        for line in lines:
            out.write(line + "\n")


def cli_env():
    """The environment of a subprocess that imports `tabrc` from this checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def read_lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [line.rstrip("\n") for line in handle if line.strip()]


@pytest.fixture
def dump(tmp_path):
    path = tmp_path / "tables.jsonl"
    write_lines(path, [json.dumps(t) for t in HAND_TABLES])
    return str(path)


class TestGenerateCorpus:
    def test_counts_and_outputs(self, dump, tmp_path):
        out = str(tmp_path / "examples.jsonl")
        summary = generate_corpus(dump, out, GenerationSettings(seed=7))
        assert summary.tables_read == len(HAND_TABLES)
        assert summary.tables_accepted == len(HAND_TABLES)
        assert summary.tables_rejected == 0
        records = [json.loads(line) for line in read_lines(out)]
        assert len(records) == summary.examples
        assert {r["source"]["table_id"] for r in records} == {t["id"] for t in HAND_TABLES}

    def test_record_shape(self, dump, tmp_path):
        out = str(tmp_path / "examples.jsonl")
        generate_corpus(dump, out, GenerationSettings(seed=7))
        record = json.loads(read_lines(out)[0])
        assert set(record) == {"id", "eg", "template_id", "question", "context", "answer",
                               "gold_fact_count", "distractor_count", "source"}
        assert set(record["answer"]) == {"kind", "values"}
        assert record["gold_fact_count"] >= 1
        # lossless round trip
        assert json.loads(json.dumps(record, ensure_ascii=False)) == record

    def test_record_counts_match_the_rebuilt_context(self, tmp_path):
        # `build_record` counts the facts of a context by its gold plans; the
        # context `build_context` rebuilds for each record holds exactly
        # that many GOLD facts, and the rest are distractors.
        sources = list(HAND_TABLES) + [rough_table(i, seed=0) for i in range(4)]
        path, out = tmp_path / "tables.jsonl", str(tmp_path / "examples.jsonl")
        write_lines(path, [json.dumps(t) for t in sources])
        generate_corpus(str(path), out, GenerationSettings(seed=5, workers=2))
        rebuilt = {}
        for source in sources:
            table = ingest(raw_table_from_json(source))
            pool = FactPool(table)
            for kind in GeneratorKind:
                id_of = seed_deriver(table.meta.id, kind.value)
                for triplet in generate(table, kind, 5):
                    record_id = pipeline.example_id(id_of, triplet)
                    rebuilt[record_id] = build_context(pool, triplet.gold, derive_seed(
                        5, table.meta.id, kind.value, record_id, "context"))
        records = [json.loads(line) for line in read_lines(out)]
        assert len(records) > 100
        for record in records:
            context = rebuilt[record["id"]]
            assert record["context"] == context.rendered
            kinds = Counter(fact.kind for fact in context.facts)
            assert record["gold_fact_count"] == kinds[FactKind.GOLD]
            assert record["distractor_count"] == kinds[FactKind.DISTRACTOR]

    def test_deterministic_bytes(self, dump, tmp_path):
        out1, out2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        generate_corpus(dump, out1, GenerationSettings(seed=3))
        generate_corpus(dump, out2, GenerationSettings(seed=3))
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_seed_changes_output(self, dump, tmp_path):
        out1, out2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        generate_corpus(dump, out1, GenerationSettings(seed=3))
        generate_corpus(dump, out2, GenerationSettings(seed=4))
        assert Path(out1).read_bytes() != Path(out2).read_bytes()

    def test_workers_preserve_bytes(self, dump, tmp_path):
        out1, out2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        generate_corpus(dump, out1, GenerationSettings(seed=3, workers=1))
        generate_corpus(dump, out2, GenerationSettings(seed=3, workers=3))
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_rejections_logged_not_fatal(self, tmp_path):
        path = tmp_path / "tables.jsonl"
        ragged = dict(CHELSEA, id="ragged")
        ragged["rows"] = [row[:-1] for row in CHELSEA["rows"]]
        short = make_table(0, seed=1)
        short["id"] = "short"
        short["rows"] = short["rows"][:5]
        write_lines(path, [
            json.dumps(CHELSEA),
            "this is not json",
            json.dumps(ragged),
            json.dumps(short),
        ])
        out = str(tmp_path / "examples.jsonl")
        summary = generate_corpus(str(path), out, GenerationSettings(seed=1))
        assert summary.tables_accepted == 1
        assert summary.tables_rejected == 3
        rejects = read_lines(out + ".rejects")
        reasons = dict(line.split("\t") for line in rejects)
        assert reasons["ragged"] == "ragged"
        assert reasons["short"] == "shape"
        assert reasons["line:2"] == "malformed"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blank_lines_skipped_and_bad_json_logged_by_line(self, tmp_path, workers):
        path = tmp_path / "tables.jsonl"
        first, second = make_table(0, seed=1), make_table(1, seed=1)
        first["id"], second["id"] = "first", "second"
        write_lines(path, [json.dumps(first), "", "not json", "   ", json.dumps(second)])
        out = str(tmp_path / "examples.jsonl")
        summary = generate_corpus(str(path), out, GenerationSettings(seed=1, workers=workers))
        assert summary.tables_read == 3
        assert summary.tables_accepted == 2
        with open(out + ".rejects", encoding="utf-8") as handle:
            assert handle.read() == "line:3\tmalformed\n"
        table_ids = [json.loads(line)["source"]["table_id"] for line in read_lines(out)]
        assert table_ids == sorted(table_ids, key=["first", "second"].index)
        assert set(table_ids) == {"first", "second"}

    def test_reject_ids_with_tab_or_newline_stay_on_one_line(self, tmp_path):
        path = tmp_path / "tables.jsonl"
        ragged = dict(CHELSEA, id="x\ny")
        ragged["rows"] = [row[:-1] for row in CHELSEA["rows"]]
        one_row = dict(CHELSEA, id="a\tb", rows=CHELSEA["rows"][:1])
        carriage = dict(one_row, id="c\rd")
        write_lines(path, [json.dumps(ragged), json.dumps(one_row), json.dumps(carriage)])
        out = str(tmp_path / "examples.jsonl")
        generate_corpus(str(path), out, GenerationSettings(seed=1))
        with open(out + ".rejects", "rb") as handle:
            assert handle.read() == b"x\\ny\tragged\na\\tb\tshape\nc\\rd\tshape\n"

    def test_reject_without_a_string_id_logged_by_line(self, tmp_path):
        # Only a non-empty string id names a rejected record.
        path = tmp_path / "tables.jsonl"
        write_lines(path, [json.dumps({"id": table_id}) for table_id in (None, "", 5, ["a", "b"])])
        out = tmp_path / "examples.jsonl"
        assert main(["generate", "--input", str(path), "--output", str(out)]) == 0
        assert (tmp_path / "examples.jsonl.rejects").read_text() == "".join(
            f"line:{n}\tmalformed\n" for n in range(1, 5))

    def test_header_only_table_yields_nothing_at_min_rows_zero(self, tmp_path, capsys):
        record = dict(CHELSEA, rows=[])
        table = ingest(raw_table_from_json(record), min_rows=0)
        assert list(table_examples(table, GenerationSettings(min_rows=0))) == []
        path, out = tmp_path / "tables.jsonl", tmp_path / "examples.jsonl"
        write_lines(path, [json.dumps(record)])
        assert main(["generate", "--input", str(path), "--output", str(out),
                     "--min-rows", "0"]) == 0
        assert capsys.readouterr().err == (
            "tables: 1 read, 1 accepted, 0 rejected; examples: 0 (0 duplicates dropped)\n")
        assert out.read_text() == ""

    @pytest.mark.parametrize("field", ["cell", "header", "page_title", "id"])
    def test_lone_surrogate_rejected_as_malformed(self, tmp_path, field):
        # JSON can escape a lone surrogate, which UTF-8 cannot encode: the
        # record is rejected, its id written escaped, and the run goes on.
        bad, good = make_table(0, seed=1), make_table(1, seed=1)
        bad["id"] = "bad"
        if field == "cell":
            bad["rows"][0][0] = "\ud800bad"
        elif field == "header":
            bad["header"][1] = "\ud800"
        else:
            bad[field] = "\ud800"
        path, only_good = tmp_path / "tables.jsonl", tmp_path / "good.jsonl"
        write_lines(path, [json.dumps(bad), json.dumps(good)])
        write_lines(only_good, [json.dumps(good)])
        out, expected = str(tmp_path / "examples.jsonl"), str(tmp_path / "expected.jsonl")
        summary = generate_corpus(str(path), out, GenerationSettings(seed=1))
        generate_corpus(str(only_good), expected, GenerationSettings(seed=1))
        assert (summary.tables_accepted, summary.tables_rejected) == (1, 1)
        assert Path(out).read_bytes() == Path(expected).read_bytes()
        with open(out + ".rejects", "rb") as handle:
            reject_id = b"\\ud800" if field == "id" else b"bad"
            assert handle.read() == reject_id + b"\tmalformed\n"

    def test_per_table_cap_respected(self, dump, tmp_path):
        out = str(tmp_path / "examples.jsonl")
        generate_corpus(dump, out, GenerationSettings(seed=7))
        counts = {}
        for line in read_lines(out):
            record = json.loads(line)
            key = (record["source"]["table_id"], record["eg"])
            counts[key] = counts.get(key, 0) + 1
        assert max(counts.values()) <= 10

    def test_eg_filter(self, dump, tmp_path):
        out = str(tmp_path / "examples.jsonl")
        settings = GenerationSettings(seed=7, kinds=(GeneratorKind.COUNTING,))
        generate_corpus(dump, out, settings)
        assert {json.loads(line)["eg"] for line in read_lines(out)} == {"counting"}

    def test_duplicate_table_ids_deduplicate_examples(self, tmp_path):
        path = tmp_path / "tables.jsonl"
        write_lines(path, [json.dumps(CHELSEA), json.dumps(CHELSEA)])
        out = str(tmp_path / "examples.jsonl")
        summary = generate_corpus(str(path), out, GenerationSettings(seed=7))
        assert summary.duplicates == summary.examples

    def test_chelsea_seed7_contains_qf_comparison(self, tmp_path):
        # The QF/QFR pair is one of ~400 comparison candidates, so the
        # default cap of 10 may or may not sample it; with a raised cap the
        # record is always present and keeps the worked-example answer.
        path = tmp_path / "tables.jsonl"
        write_lines(path, [json.dumps(CHELSEA)])
        out = str(tmp_path / "examples.jsonl")
        generate_corpus(str(path), out, GenerationSettings(seed=7, cap=500))
        hits = [json.loads(line) for line in read_lines(out)
                if json.loads(line)["eg"] == "number_comparison"
                and json.loads(line)["answer"]["values"] == ["QF"]]
        assert hits
        assert any("QF or QFR" in record["question"] for record in hits)

    def test_empty_input(self, tmp_path):
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        out = str(tmp_path / "examples.jsonl")
        summary = generate_corpus(str(src), out, GenerationSettings(seed=7))
        assert summary.examples == 0
        assert os.path.exists(out)
        assert read_lines(out) == []

    def test_settings_survive_pickling(self):
        # Forked workers inherit the settings rather than receive them, but
        # they stay a plain value that a caller may pickle.
        settings = GenerationSettings(seed=5, cap=None, kinds=(GeneratorKind.COUNTING,),
                                      min_rows=3, max_rows=30, workers=2)
        assert pickle.loads(pickle.dumps(settings)) == settings
        assert pickle.loads(pickle.dumps(GenerationSettings())) == GenerationSettings()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_run_leaves_earlier_output_in_place(self, tmp_path, monkeypatch, workers):
        tables = [make_table(i, seed=1) for i in range(3)]
        path = tmp_path / "tables.jsonl"
        write_lines(path, [json.dumps(t) for t in tables])
        out = str(tmp_path / "examples.jsonl")
        generate_corpus(str(path), out, GenerationSettings(seed=1))
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}

        real = pipeline.table_examples

        class Fatal(BaseException):
            """A fault that no table's isolation catches."""

        def failing(table, settings):
            if table.meta.id == tables[1]["id"]:
                if workers == 1:
                    raise Fatal("injected fault")
                os._exit(1)
            return real(table, settings)

        # Forked pool workers inherit the patched module.
        monkeypatch.setattr(pipeline, "table_examples", failing)
        with pytest.raises(Fatal if workers == 1 else ChildProcessError):
            generate_corpus(str(path), out, GenerationSettings(seed=2, workers=workers))
        after = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        assert after == before


    def test_failing_table_stops_the_worker_pool(self, tmp_path, monkeypatch):
        # A worker that dies ends the run at once: the other worker does not
        # work through the rest of the queued dump first.
        tables = [make_table(i, seed=1) for i in range(30)]
        path = tmp_path / "tables.jsonl"
        write_lines(path, [json.dumps(t) for t in tables])
        log = tmp_path / "processed.log"
        real = pipeline.table_examples

        def slow_or_failing(table, settings):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(table.meta.id + "\n")
            if table.meta.id == tables[1]["id"]:
                os._exit(1)
            time.sleep(0.1)
            return real(table, settings)

        monkeypatch.setattr(pipeline, "table_examples", slow_or_failing)
        with pytest.raises(ChildProcessError):
            generate_corpus(str(path), str(tmp_path / "examples.jsonl"),
                            GenerationSettings(seed=1, workers=2))
        processed = log.read_text(encoding="utf-8").splitlines()
        assert tables[1]["id"] in processed
        assert len(processed) < 15

    def test_pool_reads_at_most_four_tasks_per_worker_ahead(self):
        read = []

        def items():
            for item in range(20):
                read.append(item)
                yield item

        ahead = []
        with pipeline._results_in_order(str, items(), 2) as results:
            for taken, result in enumerate(results, start=1):
                assert result == str(taken - 1)
                ahead.append(len(read) - taken)
        assert len(read) == 20
        assert max(ahead) == 8

    def test_pool_forks_its_workers_on_the_first_table(self, tmp_path, monkeypatch):
        forks = []
        real_fork = os.fork

        def counted_fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = str(tmp_path / "examples.jsonl")
        assert generate_corpus(str(empty), out, GenerationSettings(workers=2)).tables_read == 0
        assert forks == []
        write_lines(empty, [json.dumps(CHELSEA)])
        assert generate_corpus(str(empty), out, GenerationSettings(workers=2)).tables_read == 1
        assert forks == [os.getpid()] * 2

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
    def test_worker_keeps_the_parents_cpu_mask(self):
        def own_mask(_item):
            return sorted(os.sched_getaffinity(0))

        with pipeline._results_in_order(own_mask, iter(range(6)), 2) as results:
            masks = list(results)
        assert masks == [sorted(os.sched_getaffinity(0))] * 6

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_two_workers_on_a_one_cpu_mask_write_the_same_bytes(self, tmp_path):
        tables = [make_table(i, seed=1) for i in range(6)]
        path = tmp_path / "tables.jsonl"
        write_lines(path, [json.dumps(t) for t in tables])
        # In a child process, so the test run keeps its own mask.
        probe = (
            "import os, sys\n"
            "from tabrc.cli import main\n"
            "cpu = min(os.sched_getaffinity(0))\n"
            "os.sched_setaffinity(0, {cpu})\n"
            "code = main(sys.argv[1:])\n"
            "assert os.sched_getaffinity(0) == {cpu}\n"
            "sys.exit(code)\n")
        env = cli_env()
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"out{workers}.jsonl"
            subprocess.run([sys.executable, "-c", probe, "generate", "--input", str(path),
                            "--output", str(out), "--seed", "1", "--workers", str(workers)],
                           env=env, check=True, timeout=120, capture_output=True)
            outputs.append(out.read_bytes())
        assert outputs[0] and outputs[1] == outputs[0]

    @pytest.mark.parametrize("fault", [None, "raises", "dies"])
    def test_no_worker_outlives_the_run(self, tmp_path, monkeypatch, fault):
        tables = [make_table(i, seed=1) for i in range(6)]
        path = tmp_path / "tables.jsonl"
        write_lines(path, [json.dumps(t) for t in tables])
        real = pipeline.table_examples

        def faulty(table, settings):
            if table.meta.id == tables[2]["id"]:
                if fault == "dies":
                    os._exit(1)
                raise RuntimeError("injected fault")
            return real(table, settings)

        if fault is not None:
            monkeypatch.setattr(pipeline, "table_examples", faulty)
        expected = pytest.raises(ChildProcessError) if fault == "dies" \
            else contextlib.nullcontext()
        open_fds = sorted(os.listdir("/proc/self/fd"))
        with expected:
            generate_corpus(str(path), str(tmp_path / "out.jsonl"),
                            GenerationSettings(seed=1, workers=2))
        assert sorted(os.listdir("/proc/self/fd")) == open_fds
        if fault == "raises":
            # The table that raises is rejected and the run goes on.
            assert (tmp_path / "out.jsonl.rejects").read_text() == (
                f"{tables[2]['id']}\tinternal_error:RuntimeError\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_exception_escaping_a_worker_ends_the_run(self):
        # Only `_process_line` turns an error into a reject: one that escapes
        # the function a worker runs ends that worker, and so the run.
        def failing(item):
            if item == 1:
                raise RuntimeError("injected fault")
            return item

        open_fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(ChildProcessError):
            with pipeline._results_in_order(failing, iter(range(3)), 2) as results:
                list(results)
        assert sorted(os.listdir("/proc/self/fd")) == open_fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_tables_larger_than_a_pipe_buffer(self, tmp_path):
        # Each line and each result exceeds a 64 KiB pipe buffer, and there
        # are more tables than workers.
        tables = [dict(make_table(i, seed=1), page_title="P" * 70_000) for i in range(4)]
        path = tmp_path / "tables.jsonl"
        write_lines(path, [json.dumps(t) for t in tables])
        outputs = []

        def timed_out(signum, frame):
            raise TimeoutError("a run did not finish in 60 s")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.setitimer(signal.ITIMER_REAL, 60)
        try:
            for workers in (1, 2):
                out = tmp_path / f"out{workers}.jsonl"
                generate_corpus(str(path), str(out), GenerationSettings(
                    seed=1, cap=3, kinds=(GeneratorKind.COUNTING,), workers=workers))
                outputs.append(out.read_bytes())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        lines = outputs[0].splitlines()
        assert len(lines) == 4 * 3 and all(b"P" * 70_000 in line for line in lines)
        assert outputs[1] == outputs[0]


class TestRepeatedLines:
    """A line repeating an earlier one verbatim is ingested, not generated."""

    @staticmethod
    def lines():
        accepted, other = make_table(0, seed=1), make_table(1, seed=1)
        short = dict(make_table(2, seed=1), id="short")
        short["rows"] = short["rows"][:5]
        first = [json.dumps(accepted), json.dumps(short), "not json", json.dumps(other)]
        # The first four repeat verbatim, the fourth inside outer whitespace;
        # the last differs inside, so it is generated and its records dropped.
        repeats = [first[0], first[1], first[2], " " + first[3] + "\t",
                   json.dumps(accepted, separators=(",", ":"))]
        return first, repeats, (accepted, other)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_repeats_change_nothing_but_the_work(self, tmp_path, workers):
        first, repeats, (accepted, other) = self.lines()
        path, without = tmp_path / "tables.jsonl", tmp_path / "distinct.jsonl"
        write_lines(path, first + repeats)
        write_lines(without, first + repeats[-1:])
        out, expected = str(tmp_path / "examples.jsonl"), str(tmp_path / "expected.jsonl")
        settings = GenerationSettings(seed=1, workers=workers)
        summary = generate_corpus(str(path), out, settings)
        generate_corpus(str(without), expected, settings)
        assert Path(out).read_bytes() == Path(expected).read_bytes()
        with open(out + ".rejects", encoding="utf-8") as handle:
            assert handle.read() == ("short\tshape\nline:3\tmalformed\n"
                                     "short\tshape\nline:7\tmalformed\n")
        counts = [len(list(table_examples(ingest(raw_table_from_json(t)), settings)))
                  for t in (accepted, other)]
        assert (summary.tables_read, summary.tables_accepted, summary.tables_rejected) == (9, 5, 4)
        # The accepted line's records are dropped twice: once for its verbatim
        # repeat and once for the repeat that differs inside.
        assert summary.duplicates == 2 * counts[0] + counts[1]
        assert summary.examples == len(read_lines(out))

    def test_each_distinct_accepted_line_is_generated_once(self, tmp_path, monkeypatch):
        first, repeats, _ = self.lines()
        path = tmp_path / "tables.jsonl"
        write_lines(path, first + repeats)
        generated = []
        real = pipeline.table_examples

        def spy(table, settings):
            generated.append(table.meta.id)
            return real(table, settings)

        monkeypatch.setattr(pipeline, "table_examples", spy)
        generate_corpus(str(path), str(tmp_path / "examples.jsonl"), GenerationSettings(seed=1))
        assert generated == [json.loads(first[0])["id"], json.loads(first[3])["id"],
                             json.loads(first[0])["id"]]

    def test_repeat_of_a_reject_that_parses_is_generated(self, tmp_path):
        # A no-break space is whitespace to `str.strip` but not to JSON: the
        # first line is malformed and the second, without it, is generated.
        good = json.dumps(make_table(0, seed=1))
        path, only_good = tmp_path / "tables.jsonl", tmp_path / "good.jsonl"
        write_lines(path, [good + "\u00a0", good])
        write_lines(only_good, [good])
        out, expected = str(tmp_path / "examples.jsonl"), str(tmp_path / "expected.jsonl")
        summary = generate_corpus(str(path), out, GenerationSettings(seed=1))
        generate_corpus(str(only_good), expected, GenerationSettings(seed=1))
        assert (summary.tables_accepted, summary.tables_rejected, summary.duplicates) == (1, 1, 0)
        assert Path(out).read_bytes() == Path(expected).read_bytes()


class TestHashSeed:
    """Every command writes the same bytes under any `PYTHONHASHSEED`."""

    @staticmethod
    def run_commands(directory, hash_seed):
        """Run `generate` at two workers, `stats`, the two-task preset and a
        `--history` replay in `directory` under `hash_seed`; return each file
        they wrote and each command's standard output, by name."""
        env = dict(cli_env(), PYTHONHASHSEED=hash_seed)
        commands = {
            "generate": ["generate", "--input", "../tables.jsonl", "--output", "examples.jsonl",
                         "--seed", "1", "--workers", "2"],
            "stats": ["stats", "--input", "examples.jsonl", "--output", "stats.txt"],
            "preset": ["simulate", "--preset", "two-task", "--seeds", "0,1", "--output", "sim"],
            "replay": ["simulate", "--strategy", "momentum", "--history", "../feed.tsv",
                       "--output", "replay"],
        }
        directory.mkdir()
        produced = {}
        for name, args in commands.items():
            proc = subprocess.run([sys.executable, "-m", "tabrc.cli", *args], env=env,
                                  cwd=directory, stdout=subprocess.PIPE, check=True, timeout=120)
            produced[f"{name} stdout"] = proc.stdout
        for path in sorted(directory.rglob("*")):
            if path.is_file():
                produced[str(path.relative_to(directory))] = path.read_bytes()
        return produced

    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        first, repeats, _ = TestRepeatedLines.lines()
        write_lines(tmp_path / "tables.jsonl",
                    [json.dumps(t) for t in HAND_TABLES] + first + repeats)
        tasks = ("alpha", "beta", "gamma", "delta", "epsilon")
        (tmp_path / "feed.tsv").write_text("".join(
            f"{checkpoint}\t{task}\t{(checkpoint * 7 + i * 3) % 10 / 10:.1f}\n"
            for checkpoint in range(1, 9) for i, task in enumerate(tasks)))
        runs = [self.run_commands(tmp_path / f"hash{seed}", seed) for seed in ("0", "12345")]
        assert runs[0]["examples.jsonl.rejects"].count(b"\t") == 4
        assert runs[0]["preset stdout"]
        assert all(data for name, data in runs[0].items() if not name.endswith("stdout"))
        assert runs[0] == runs[1]


# sha256 of the golden corpus below, under seed-stream v2 (lazy partial
# Fisher–Yates sampling of candidates and distractors). Any change to it
# changes output bytes, which is allowed only as a declared seed-stream
# version change.
GOLDEN_SHA256 = "e4ceed7ffcb2a63f2fbe0c39327a28dbe0e875d345738a5edeab59e7931a1a65"
GOLDEN_EXAMPLES = 4694
# sha256 of the `stats` report over that corpus.
GOLDEN_STATS_SHA256 = "31e1625bfead6b995e8eb7256537d22fbb6762ebb96d89fc3f920e7fea99c98f"


class TestGoldenDigest:
    @pytest.fixture(scope="class")
    def golden_dump(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("golden") / "tables.jsonl"
        records = (list(HAND_TABLES)
                   + [make_table(i, seed=3, min_rows=10, max_rows=25) for i in range(16)]
                   + [rough_table(i, seed=0) for i in range(8)])
        write_lines(path, [json.dumps(r) for r in records])
        return str(path)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_output_bytes_pinned(self, golden_dump, tmp_path, workers):
        out = str(tmp_path / "examples.jsonl")
        summary = generate_corpus(golden_dump, out, GenerationSettings(seed=7, workers=workers))
        with open(out, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        assert summary.examples == GOLDEN_EXAMPLES
        assert digest == GOLDEN_SHA256

    def test_contexts_split_back_into_their_facts(self, golden_dump, tmp_path):
        # Split at the fact separator, a context gives back as many facts as
        # its record counts. The exceptions are all on the hand table whose
        # "Rohr Inc." puts the separator inside a gold fact: ROADMAP item 2,
        # which turns this count into 0.
        out = str(tmp_path / "examples.jsonl")
        generate_corpus(golden_dump, out, GenerationSettings(seed=7))
        with open(golden_dump, encoding="utf-8") as handle:
            prefixes = {t["id"]: f"In {t['table_title']} of {t['page_title']}: "
                        for t in map(json.loads, handle)}
        wrong = Counter()
        for record in map(json.loads, read_lines(out)):
            context, prefix = record["context"], prefixes[record["source"]["table_id"]]
            assert context.startswith(prefix) and context.endswith(".")
            facts = context[len(prefix):-1].split(FACT_SEPARATOR)
            if len(facts) != record["gold_fact_count"] + record["distractor_count"]:
                wrong[record["source"]["table_id"]] += 1
        assert wrong == {"chula-vista-top-employers": 14}

    def test_stats_report_pinned(self, golden_dump, tmp_path):
        out, report = str(tmp_path / "examples.jsonl"), str(tmp_path / "stats.txt")
        generate_corpus(golden_dump, out, GenerationSettings(seed=7))
        assert main(["stats", "--input", out, "--output", report]) == 0
        with open(report, "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == GOLDEN_STATS_SHA256


class TestCorpusStats:
    def test_single_example(self, dump, tmp_path):
        out = str(tmp_path / "examples.jsonl")
        generate_corpus(dump, out, GenerationSettings(seed=7))
        first = read_lines(out)[0]
        stats = corpus_stats([first])
        assert stats.examples == 1
        assert stats.distinct_questions == 1
        assert stats.question_words[1] == 0.0

    def test_full_report_fields(self, dump, tmp_path):
        out = str(tmp_path / "examples.jsonl")
        generate_corpus(dump, out, GenerationSettings(seed=7))
        with open(out, encoding="utf-8") as handle:
            stats = corpus_stats(handle)
        text = "\n".join(stats.lines())
        for key in ("distinct_questions", "distinct_tables", "distinct_pages",
                    "avg_question_words", "avg_context_words", "avg_gold_facts",
                    "avg_distractor_facts", "distinct_words", "pct_span_answers",
                    "pct_yes_no_answers", "pct_numeric_answers", "pct_date_answers"):
            assert key in text
        assert stats.distinct_tables == len(HAND_TABLES)
        assert sum(stats.answer_pcts.values()) == pytest.approx(100.0, abs=0.1)
        assert sum(stats.eg_counts.values()) == stats.examples

    def test_malformed_lines_counted(self):
        stats = corpus_stats(["not json", "{\"incomplete\": 1}"])
        assert stats.examples == 0
        assert stats.malformed_lines == 2

    GOOD = {
        "id": "0", "eg": "counting", "template_id": "counting-1", "question": "How many?",
        "context": "A fact.", "answer": {"kind": "number", "values": ["1"]},
        "gold_fact_count": 1, "distractor_count": 0,
        "source": {"page_title": "Page", "table_id": "t"},
    }

    def test_fields_of_the_wrong_type_counted_as_malformed(self):
        good = self.GOOD
        bad_records = [
            dict(good, source={"page_title": "Page"}),
            dict(good, question=["How", "many?"]),
            dict(good, gold_fact_count="x"),
            dict(good, source="s"),
            # Counts that are not a number of facts: a bool, a negative
            # number, NaN, an infinity and an integer too large for a float.
            dict(good, gold_fact_count=True),
            dict(good, distractor_count=-1),
            dict(good, gold_fact_count=float("nan")),
            dict(good, distractor_count=float("inf")),
            dict(good, gold_fact_count=10 ** 400),
        ]
        bad_lines = [json.dumps(bad) for bad in bad_records]
        # `json.loads` reads a float literal too large for a float as inf.
        bad_lines.append(json.dumps(dict(good, distractor_count=0)).replace(
            '"distractor_count": 0', '"distractor_count": 1e400'))
        for bad in bad_lines:
            stats = corpus_stats([json.dumps(good), bad])
            assert (stats.examples, stats.malformed_lines) == (1, 1), bad
            assert stats.gold_facts == (1.0, 0.0) and stats.distractor_facts == (0.0, 0.0), bad

    def test_lone_surrogate_in_question_counted(self):
        # JSON can escape a lone surrogate; such a question is still text.
        odd = dict(self.GOOD, question="How many \ud800?")
        stats = corpus_stats([json.dumps(self.GOOD), json.dumps(odd), json.dumps(odd)])
        assert (stats.examples, stats.malformed_lines) == (3, 0)
        assert stats.distinct_questions == 2
        # How, many?, A, fact., many, \ud800?
        assert stats.distinct_words == 6

    def test_category_counts(self, tmp_path):
        path = tmp_path / "tables.jsonl"
        record = make_table(1, seed=2)
        record["category"] = "Sport"
        write_lines(path, [json.dumps(record)])
        out = str(tmp_path / "examples.jsonl")
        generate_corpus(str(path), out, GenerationSettings(seed=1))
        with open(out, encoding="utf-8") as handle:
            stats = corpus_stats(handle)
        assert stats.category_counts.get("Sport", 0) == stats.examples


class TestParseKinds:
    def test_default_all(self):
        assert len(parse_kinds(None)) == 16

    def test_filter(self):
        kinds = parse_kinds("counting,date_difference")
        assert kinds == (GeneratorKind.COUNTING, GeneratorKind.DATE_DIFFERENCE)

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            parse_kinds("quantum_flux")

    def test_repeated_name_runs_once(self, tmp_path, capsys):
        assert parse_kinds("counting, counting,date_difference,counting") == (
            GeneratorKind.COUNTING, GeneratorKind.DATE_DIFFERENCE)
        dump = tmp_path / "chelsea.jsonl"
        write_lines(dump, [json.dumps(CHELSEA)])
        once, repeated = tmp_path / "once.jsonl", tmp_path / "repeated.jsonl"
        assert main(["generate", "--input", str(dump), "--output", str(once),
                     "--egs", "counting"]) == 0
        summary = capsys.readouterr().err
        assert main(["generate", "--input", str(dump), "--output", str(repeated),
                     "--egs", "counting,counting"]) == 0
        assert capsys.readouterr().err == summary
        assert summary.endswith("(0 duplicates dropped)\n")
        assert repeated.read_bytes() == once.read_bytes() != b""


class TestCli:
    def test_generate_and_stats(self, dump, tmp_path, capsys):
        out = str(tmp_path / "examples.jsonl")
        report = str(tmp_path / "stats.txt")
        assert main(["generate", "--input", dump, "--output", out, "--seed", "7"]) == 0
        assert main(["stats", "--input", out, "--output", report]) == 0
        assert "pct_span_answers" in Path(report).read_text()

    def test_stats_output_in_missing_directory_fails(self, dump, tmp_path, capsys):
        corpus = str(tmp_path / "examples.jsonl")
        assert main(["generate", "--input", dump, "--output", corpus]) == 0
        capsys.readouterr()
        code = main(["stats", "--input", corpus, "--output", str(tmp_path / "nodir" / "x.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{tmp_path / 'nodir' / 'x.txt'}'" in err
        assert ".tmp" not in err
        assert not (tmp_path / "nodir").exists()

    def test_stats_failed_rename_keeps_the_earlier_report(self, dump, tmp_path, capsys,
                                                           monkeypatch):
        # The report goes to a temporary file first: a rename that fails
        # leaves the earlier report whole and no temporary file behind.
        corpus = tmp_path / "examples.jsonl"
        assert main(["generate", "--input", dump, "--output", str(corpus)]) == 0
        report = tmp_path / "stats.txt"
        report.write_bytes(b"earlier report\n")
        capsys.readouterr()

        def fail(src, dst):
            raise OSError(errno.EIO, os.strerror(errno.EIO), src, dst)

        monkeypatch.setattr(os, "replace", fail)
        code = main(["stats", "--input", str(corpus), "--output", str(report)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{report}'" in err and ".tmp" not in err
        assert report.read_bytes() == b"earlier report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "examples.jsonl", "examples.jsonl.rejects", "stats.txt", "tables.jsonl"]

    def test_stats_sigterm_exits_143_and_keeps_the_earlier_report(self, tmp_path, monkeypatch):
        corpus, report = tmp_path / "examples.jsonl", tmp_path / "stats.txt"
        write_lines(corpus, [json.dumps(TestCorpusStats.GOOD)])
        report.write_bytes(b"earlier report\n")

        def terminated(handle):
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(5)
            raise AssertionError("SIGTERM did not stop the command")

        def outside(signum, frame):
            raise AssertionError("SIGTERM came outside the command's handler")

        monkeypatch.setattr("tabrc.cli.corpus_stats", terminated)
        previous = signal.signal(signal.SIGTERM, outside)
        try:
            with pytest.raises(SystemExit) as raised:
                main(["stats", "--input", str(corpus), "--output", str(report)])
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert raised.value.code == 143
        assert report.read_bytes() == b"earlier report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["examples.jsonl", "stats.txt"]

    def test_parser_defaults_match_library_defaults(self):
        # The parser repeats the library defaults so that parsing loads no
        # library module; `--strategy` differs on purpose (momentum vs uniform).
        from tabrc.cli import build_parser
        from tabrc.sampling import SamplerConfig
        from tabrc.simulation import SimulationConfig

        gen = build_parser().parse_args(["generate", "--input", "i", "--output", "o"])
        settings = GenerationSettings._field_defaults
        assert (gen.per_table_cap, gen.min_rows, gen.max_rows, gen.workers) == (
            settings["cap"], settings["min_rows"], settings["max_rows"], settings["workers"])
        sim = build_parser().parse_args(["simulate"])
        sampler = SamplerConfig._field_defaults
        assert (sim.w, sim.k, sim.eps, sim.lam) == (
            sampler["window"], sampler["smoothing"], sampler["eps"], sampler["replay_lambda"])
        config = SimulationConfig._field_defaults
        assert (sim.checkpoints, sim.batch_size, sim.steps) == (
            config["checkpoints"], config["batch_size"], config["steps_per_checkpoint"])

    def test_generate_missing_input_fails(self, tmp_path):
        code = main(["generate", "--input", str(tmp_path / "nope.jsonl"),
                     "--output", str(tmp_path / "out.jsonl")])
        assert code == 2

    def test_generate_rejects_path_equal_to_output_fails(self, dump, tmp_path, capsys):
        out = str(tmp_path / "o.jsonl")
        code = main(["generate", "--input", dump, "--output", out, "--rejects", out])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "sim").exists()
        assert os.listdir(tmp_path) == [os.path.basename(dump)]

    def test_generate_bad_eg_fails(self, dump, tmp_path):
        code = main(["generate", "--input", dump, "--output", str(tmp_path / "o.jsonl"),
                     "--egs", "bogus"])
        assert code == 2

    def test_seed_env_var(self, dump, tmp_path, monkeypatch):
        out1, out2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        monkeypatch.setenv("TABRC_SEED", "99")
        assert main(["generate", "--input", dump, "--output", out1]) == 0
        monkeypatch.delenv("TABRC_SEED")
        assert main(["generate", "--input", dump, "--output", out2, "--seed", "99"]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_simulate_defaults(self, tmp_path):
        outdir = str(tmp_path / "sim")
        code = main(["simulate", "--strategy", "momentum", "--w", "4", "--k", "2",
                     "--eps", "0.002", "--checkpoints", "6", "--output", outdir])
        assert code == 0
        trace = Path(outdir, "trace_momentum_seed0.tsv").read_text()
        assert trace.startswith("checkpoint\ttask\taccuracy\tprobability\tentropy")

    def test_simulate_repeated_seed_runs_once(self, tmp_path, capsys):
        outdir = tmp_path / "sim"
        code = main(["simulate", "--seeds", "1,1", "--checkpoints", "3", "--output", str(outdir)])
        assert code == 0
        assert os.listdir(outdir) == ["trace_momentum_seed1.tsv"]
        assert capsys.readouterr().err.count("wrote ") == 1

    def test_simulate_bad_seed_names_the_flag_and_no_seed_runs_nothing(self, tmp_path, capsys):
        code = main(["simulate", "--seeds", "1, x", "--output", str(tmp_path / "bad")])
        assert code == 2
        assert capsys.readouterr().err == "error: --seeds takes comma-separated integers, got 'x'\n"
        assert not (tmp_path / "bad").exists()
        code = main(["simulate", "--seeds", "", "--output", str(tmp_path / "none")])
        assert code == 0
        assert os.listdir(tmp_path / "none") == []

    def test_simulate_one_task_entropy_is_zero(self, tmp_path, capsys):
        outdir = tmp_path / "sim"
        code = main(["simulate", "--num-tasks", "1", "--checkpoints", "3", "--output", str(outdir)])
        assert code == 0
        assert "(final entropy 0.0000)" in capsys.readouterr().err
        rows = (outdir / "trace_momentum_seed0.tsv").read_text().splitlines()[1:]
        assert rows and all(row.split("\t")[-1] == "0" for row in rows)

    def test_simulate_two_task_preset(self, tmp_path, capsys):
        outdir = str(tmp_path / "sim")
        code = main(["simulate", "--preset", "two-task", "--seeds", "0", "--output", outdir])
        assert code == 0
        printed = capsys.readouterr().out
        assert "verdict gold ordering" in printed
        assert os.path.exists(os.path.join(outdir, "two_task_seed0.txt"))

    def test_simulate_history_replay(self, tmp_path):
        feed = tmp_path / "feed.tsv"
        lines = [f"{i}\t{task}\t0.8" for i in range(1, 5) for task in ("a", "b")]
        feed.write_text("\n".join(lines) + "\n")
        outdir = str(tmp_path / "sim")
        code = main(["simulate", "--strategy", "error", "--history", str(feed),
                     "--output", outdir])
        assert code == 0
        trace = Path(outdir, "distribution_error.tsv").read_text()
        assert "1\ta\t0.5" in trace

    def test_simulate_history_writes_the_feed_checkpoint_numbers(self, tmp_path):
        feed = tmp_path / "feed.tsv"
        feed.write_text("".join(f"{i}\t{task}\t{acc}\n" for i, accs in
                                ((2, (0.5, 0.5)), (5, (0.9, 0.6)), (-3, (0.1, 0.7)))
                                for task, acc in zip("ab", accs)))
        outdir = tmp_path / "sim"
        code = main(["simulate", "--strategy", "error", "--history", str(feed),
                     "--output", str(outdir)])
        assert code == 0
        rows = (outdir / "distribution_error.tsv").read_text().splitlines()[1:]
        assert [row.split("\t")[:2] for row in rows] == [
            ["-3", "a"], ["-3", "b"], ["2", "a"], ["2", "b"], ["5", "a"], ["5", "b"]]
        assert rows[0] == "-3\ta\t0.75"

    def test_invalid_config_usage_error(self, tmp_path):
        code = main(["simulate", "--w", "2", "--k", "3", "--output", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("feed, args", [
        pytest.param(None, ["--history", "missing.tsv"], id="missing-history"),
        pytest.param("1\ta\tnotanumber\n", ["--history", "feed.tsv"], id="bad-accuracy"),
        pytest.param("1\ta\t0.5\n1\tb\t0.5\n2\ta\t0.6\n", ["--history", "feed.tsv"],
                     id="checkpoint-lacks-task"),
        pytest.param(None, ["--seeds", "0,x"], id="bad-seed"),
        pytest.param(None, ["--num-tasks", "0"], id="no-tasks"),
        pytest.param(None, ["--checkpoints", "0"], id="no-checkpoints"),
        pytest.param(None, ["--batch-size", "0"], id="empty-batch"),
        pytest.param(None, ["--steps", "0"], id="no-steps"),
        pytest.param(None, ["--steps", "-3"], id="negative-steps"),
        pytest.param("1\ta\t0.5\n1\tb\t0.5\n", ["--history", "feed.tsv", "--preset", "two-task"],
                     id="history-with-preset"),
        pytest.param(None, ["--eps", "0.1"], id="momentum-eps-above-uniform-share"),
        pytest.param(None, ["--eps", "nan"], id="momentum-eps-nan"),
        pytest.param("1\ta\t0.5\n1\tb\t0.5\n", ["--eps", "0.5", "--history", "feed.tsv"],
                     id="momentum-eps-above-uniform-share-of-feed"),
        pytest.param(None, ["--preset", "two-task", "--seeds", "0", "--steps", "0",
                            "--batch-size", "0", "--num-tasks", "0"], id="preset-flags-below-one"),
        pytest.param("1\ta\t0.5\n1\tb\t0.5\n", ["--history", "feed.tsv", "--steps", "0",
                                                 "--checkpoints", "0", "--num-tasks", "0"],
                     id="history-flags-below-one"),
        pytest.param("1\ta\t0.5\n1\ta\t0.9\n", ["--history", "feed.tsv"],
                     id="feed-repeats-a-record"),
    ])
    def test_simulate_bad_input_usage_error(self, tmp_path, capsys, feed, args):
        if feed is not None:
            (tmp_path / "feed.tsv").write_text(feed)
        args = [str(tmp_path / arg) if arg.endswith(".tsv") else arg for arg in args]
        code = main(["simulate", "--checkpoints", "3", "--output", str(tmp_path / "sim"), *args])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("feed, message", [
        pytest.param("1\ta\t0.5\n1.5\tb\t0.5\n",
                     "line 2: invalid literal for int() with base 10: '1.5'", id="checkpoint-1.5"),
        pytest.param("1\ta\tx\n", "line 1: could not convert string to float: 'x'",
                     id="accuracy-not-a-number"),
        pytest.param("1\ta\t0.5\n1\t\t0.5\n", "line 2: empty task name", id="empty-task-name"),
        pytest.param("1\ta\t0.5\n1\tb\t1.5\n",
                     "checkpoint 1: accuracy out of range for b: 1.5", id="accuracy-1.5"),
        pytest.param("1\ta\t0.5\n1\tb\t0.5\n2\ta\t0.6\n",
                     "checkpoint 2: checkpoint must report every task exactly once; missing 'b'",
                     id="checkpoint-lacks-a-task"),
        pytest.param("1\ta\t0.5\n2\ta\t0.6\n2\tb\t0.6\n",
                     "checkpoint 1: checkpoint must report every task exactly once; missing 'b'",
                     id="first-checkpoint-lacks-a-task"),
        pytest.param("1\ta\tnan\n1\tb\t0.5\n",
                     "checkpoint 1: accuracy out of range for a: nan", id="accuracy-nan"),
        pytest.param("1\ta\t0.5\n1\tb\tinf\n",
                     "checkpoint 1: accuracy out of range for b: inf", id="accuracy-inf"),
        pytest.param("1\ta\t1.5\n1\tb\t0.5\n2\ta\tx\n",
                     "line 3: could not convert string to float: 'x'",
                     id="line-error-after-checkpoint-error"),
        pytest.param("1\ta\t1.5\n1\tb\t0.5\n2\ta\t0.5\n",
                     "checkpoint 1: accuracy out of range for a: 1.5",
                     id="range-error-before-a-later-missing-task"),
        pytest.param("1\ta\t0.5\n1\tb\t0.5\n2\ta\t1.5\n",
                     "checkpoint 2: checkpoint must report every task exactly once; missing 'b'",
                     id="missing-task-before-range-error"),
        pytest.param("2\ta\t0.5\n1\ta\t0.5\n1\tb\t1.5\n",
                     "checkpoint 1: accuracy out of range for b: 1.5",
                     id="checkpoints-out-of-order-checked-in-order"),
        pytest.param("1\ta\t-0.0\n1\tb\t0.5\n2\ta\t0.5\n",
                     "checkpoint 2: checkpoint must report every task exactly once; missing 'b'",
                     id="accuracy-minus-zero-accepted"),
        pytest.param("1\ta\t0.5\n2\ta\t0.5\n1\ta\t0.6\n",
                     "line 3: checkpoint 1 records task 'a' again",
                     id="task-repeated-on-non-adjacent-lines"),
    ])
    def test_simulate_feed_error_names_its_place(self, tmp_path, capsys, feed, message):
        (tmp_path / "feed.tsv").write_text(feed)
        code = main(["simulate", "--history", str(tmp_path / "feed.tsv"),
                     "--output", str(tmp_path / "sim")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "sim").exists()

    def test_simulate_nonpositive_window_message(self, tmp_path, capsys):
        code = main(["simulate", "--w", "0", "--output", str(tmp_path / "sim")])
        assert code == 2
        assert capsys.readouterr().err == "error: window and smoothing must be positive\n"
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("flag", ["--output", "--rejects"])
    def test_generate_error_names_the_given_path(self, dump, tmp_path, capsys, monkeypatch, flag):
        monkeypatch.chdir(tmp_path)
        paths = {"--output": "out.jsonl", "--rejects": "out.rejects", flag: "nodir/out.jsonl"}
        code = main(["generate", "--input", dump, *(arg for item in paths.items() for arg in item)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'nodir/out.jsonl'" in err and ".tmp" not in err
        assert os.listdir(tmp_path) == [os.path.basename(dump)]

    @pytest.mark.parametrize("args", [
        pytest.param(["--per-table-cap", "0"], id="cap-zero"),
        pytest.param(["--per-table-cap", "-1"], id="cap-negative"),
        pytest.param(["--workers", "0"], id="workers-zero"),
        pytest.param(["--workers", "-2"], id="workers-negative"),
        pytest.param(["--min-rows", "30", "--max-rows", "5"], id="max-rows-below-min-rows"),
        pytest.param(["--max-rows", "0"], id="max-rows-zero"),
        pytest.param(["--min-rows", "0", "--max-rows", "0"], id="max-rows-zero-min-rows-zero"),
        pytest.param(["TABRC_SEED=abc"], id="seed-env-not-an-integer"),
    ])
    def test_generate_bad_flag_usage_error(self, dump, tmp_path, capsys, monkeypatch, args):
        # A leading NAME=value sets the environment, as on a shell command line.
        if args and "=" in args[0] and not args[0].startswith("-"):
            monkeypatch.setenv(*args[0].split("=", 1))
            args = args[1:]
        code = main(["generate", "--input", dump, "--output", str(tmp_path / "o.jsonl"), *args])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert os.listdir(tmp_path) == [os.path.basename(dump)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sigterm_exits_143_and_cleans_up(self, tmp_path, workers):
        # Long enough a dump that the run is still going when SIGTERM comes.
        dump = tmp_path / "tables.jsonl"
        write_lines(dump, [json.dumps(make_table(i, seed=4)) for i in range(600)])
        out = tmp_path / "out.jsonl"
        out.write_text("earlier output\n")
        env = cli_env()
        # Its own session, so that the process group also names its workers.
        proc = subprocess.Popen(
            [sys.executable, "-m", "tabrc.cli", "generate", "--input", str(dump),
             "--output", str(out), "--workers", str(workers)],
            env=env, stderr=subprocess.PIPE, start_new_session=True)
        try:
            # Records reach the temporary file once the run (and its pool) is
            # under way.
            deadline = time.monotonic() + 30
            while not any(p.name.startswith("out.jsonl.tmp") and p.stat().st_size
                          for p in tmp_path.iterdir()):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=30)
            assert proc.returncode == 143, err
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl", "tables.jsonl"]
        assert out.read_text() == "earlier output\n"

    @pytest.mark.parametrize("via_link", [False, True], ids=["same-path", "via-link"])
    @pytest.mark.parametrize("command, flag", [
        pytest.param("generate", "--output", id="generate-output"),
        pytest.param("generate", "--rejects", id="generate-rejects"),
        pytest.param("stats", "--output", id="stats-output"),
    ])
    def test_path_naming_the_input_fails_and_keeps_it(self, dump, tmp_path, capsys,
                                                       command, flag, via_link):
        before = Path(dump).read_bytes()
        target = dump
        if via_link:
            target = str(tmp_path / "alias.jsonl")
            os.symlink(dump, target)
        args = [command, "--input", dump, flag, target]
        if flag == "--rejects":
            args += ["--output", str(tmp_path / "out.jsonl")]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert Path(dump).read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == sorted({os.path.basename(dump),
                                                       os.path.basename(target)})

    @pytest.mark.parametrize("strategy", ["momentum", "error"])
    @pytest.mark.parametrize("where", ["output-dir", "default-output", "via-link"])
    def test_simulate_history_naming_its_output_fails_and_keeps_it(self, tmp_path, capsys,
                                                                   monkeypatch, strategy, where):
        # The replay writes OUTPUT/distribution_STRATEGY.tsv, which must not
        # be the feed it reads.
        monkeypatch.chdir(tmp_path)
        feed = tmp_path / "hist" / f"distribution_{strategy}.tsv"
        feed.parent.mkdir()
        feed.write_text("1\ta\t0.5\n1\tb\t0.6\n2\ta\t0.7\n2\tb\t0.6\n")
        before = feed.read_bytes()
        args = ["simulate", "--strategy", strategy, "--history", str(feed)]
        if where == "output-dir":
            args += ["--output", "hist"]
        elif where == "default-output":
            monkeypatch.chdir(feed.parent)
        else:
            os.symlink(feed.parent, tmp_path / "alias")
            args += ["--output", "alias"]
        listing = sorted(os.listdir(feed.parent))
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: output path is the input path: ")
        assert feed.read_bytes() == before
        assert sorted(os.listdir(feed.parent)) == listing

    def test_dead_worker_exits_2_and_keeps_earlier_files(self, tmp_path):
        # A worker that dies on the third table: the run must end, not wait
        # for that table forever.
        tables = [make_table(i, seed=1) for i in range(6)]
        dump = tmp_path / "tables.jsonl"
        write_lines(dump, [json.dumps(t) for t in tables])
        out, rejects = tmp_path / "out.jsonl", tmp_path / "out.jsonl.rejects"
        out.write_text("earlier output\n")
        rejects.write_text("earlier rejects\n")
        probe = (
            "import os, sys\n"
            "from tabrc import pipeline\n"
            "from tabrc.cli import main\n"
            "real = pipeline.table_examples\n"
            "def dying(table, settings):\n"
            "    if table.meta.id == sys.argv[1]:\n"
            "        os._exit(1)\n"
            "    return real(table, settings)\n"
            "pipeline.table_examples = dying\n"
            "sys.exit(main(sys.argv[2:]))\n")
        env = cli_env()
        # Its own session, so that the process group also names its workers.
        proc = subprocess.Popen(
            [sys.executable, "-c", probe, tables[2]["id"], "generate", "--input", str(dump),
             "--output", str(out), "--workers", "2"],
            env=env, stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 2, err
            assert err.startswith("error: "), err
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "out.jsonl", "out.jsonl.rejects", "tables.jsonl"]
        assert out.read_text() == "earlier output\n"
        assert rejects.read_text() == "earlier rejects\n"

    @pytest.mark.parametrize("args, name", [
        pytest.param(["--history", "feed.tsv"], "distribution_momentum.tsv", id="replay"),
        pytest.param(["--preset", "two-task"], "two_task_seed0.txt", id="two-task"),
        pytest.param(["--checkpoints", "3"], "trace_momentum_seed0.tsv", id="simulated"),
    ])
    def test_simulate_output_in_the_way_exits_2(self, tmp_path, capsys, args, name):
        # A directory where the file goes: the error names the file, and no
        # temporary file is left beside it.
        (tmp_path / "feed.tsv").write_text("1\ta\t0.5\n1\tb\t0.6\n2\ta\t0.7\n2\tb\t0.6\n")
        args = [str(tmp_path / arg) if arg.endswith(".tsv") else arg for arg in args]
        outdir = tmp_path / "sim"
        (outdir / name).mkdir(parents=True)
        code = main(["simulate", "--seeds", "0", "--output", str(outdir), *args])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{outdir / name}'" in err and ".tmp" not in err
        assert os.listdir(outdir) == [name]

    def test_simulate_sigterm_keeps_the_earlier_file(self, tmp_path):
        # A feed long enough that the replay is still going when SIGTERM comes.
        feed = tmp_path / "feed.tsv"
        write_lines(feed, [f"{i}\tt{t}\t{(i * 7 + t) % 100 / 100}"
                           for i in range(1, 50_001) for t in range(4)])
        outdir = tmp_path / "sim"
        outdir.mkdir()
        earlier = outdir / "distribution_momentum.tsv"
        earlier.write_text("earlier output\n")
        env = cli_env()
        proc = subprocess.Popen(
            [sys.executable, "-m", "tabrc.cli", "simulate", "--history", str(feed),
             "--output", str(outdir)], env=env, stderr=subprocess.PIPE)
        try:
            # The temporary file is opened once the feed is read, before the
            # replay starts.
            deadline = time.monotonic() + 30
            while not any(p.name.startswith("distribution_momentum.tsv.tmp")
                          for p in outdir.iterdir()):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=30)
            assert proc.returncode == 143, err
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert os.listdir(outdir) == ["distribution_momentum.tsv"]
        assert earlier.read_text() == "earlier output\n"

    @pytest.mark.parametrize("stderr", ["closed", "read-only"])
    def test_lost_stderr_changes_no_status_or_file(self, tmp_path, stderr):
        # With fd 2 closed, or open for reading only so that every write to
        # it fails, the stderr lines are lost and nothing else changes.
        write_lines(tmp_path / "tables.jsonl", [json.dumps(make_table(i, seed=4)) for i in range(2)])
        (tmp_path / "feed.tsv").write_text("1\ta\t0.5\n1\tb\t0.5\n2\ta\t0.6\n2\tb\t0.7\n")
        env = cli_env()

        def run(*args, lost):
            command = [sys.executable, "-m", "tabrc.cli", *args]
            with open(os.devnull, "rb") as read_only:
                if not lost:
                    streams = {"stderr": subprocess.PIPE}
                elif stderr == "closed":
                    command = ["sh", "-c", 'exec "$@" 2>&-', "sh", *command]
                    streams = {}
                else:
                    streams = {"stderr": read_only}
                proc = subprocess.run(command, env=env, cwd=tmp_path, stdout=subprocess.PIPE,
                                      timeout=60, **streams)
            return proc.returncode, proc.stdout

        for workers in ("1", "2"):
            for lost, out in ((False, "normal.jsonl"), (True, "lost.jsonl")):
                assert run("generate", "--input", "tables.jsonl", "--output", out,
                           "--workers", workers, lost=lost) == (0, b"")
            for name in ("{}.jsonl", "{}.jsonl.rejects"):
                normal = (tmp_path / name.format("normal")).read_bytes()
                assert (tmp_path / name.format("lost")).read_bytes() == normal
        for lost, outdir in ((False, "normal"), (True, "lost")):
            assert run("simulate", "--history", "feed.tsv", "--output", outdir, lost=lost) == (0, b"")
        name = "distribution_momentum.tsv"
        assert (tmp_path / "lost" / name).read_bytes() == (tmp_path / "normal" / name).read_bytes()
        assert run("generate", "--input", "missing.jsonl", "--output", "x.jsonl", lost=True) == (2, b"")

    def test_stats_to_closed_stdout_exits_2(self, tmp_path):
        # With fd 1 closed, `sys.stdout` is None: the report cannot go out,
        # which is an error like a full device, not a crash.
        write_lines(tmp_path / "examples.jsonl", [json.dumps(TestCorpusStats.GOOD)])
        command = [sys.executable, "-m", "tabrc.cli", "stats", "--input", "examples.jsonl",
                   "--output", "-"]
        proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *command], env=cli_env(),
                              cwd=tmp_path, stderr=subprocess.PIPE, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.decode() == "error: [Errno 9] standard output is closed\n"

    def test_preset_verdicts_to_closed_stdout_exit_2(self, tmp_path):
        # The preset's verdict lines are its product on stdout, as the stats
        # report is: losing them fails the command.
        command = [sys.executable, "-m", "tabrc.cli", "simulate", "--preset", "two-task",
                   "--seeds", "0", "--output", "sim"]
        proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *command], env=cli_env(),
                              cwd=tmp_path, stderr=subprocess.PIPE, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.decode() == "error: [Errno 9] standard output is closed\n"

    def test_stats_through_a_pipe_delivers_the_whole_report(self, dump, tmp_path, capsys):
        # The process exit path (`cli.run`) freezes the collector after
        # `main`; the report still reaches a pipe whole, with exit 0.
        corpus = str(tmp_path / "examples.jsonl")
        assert main(["generate", "--input", dump, "--output", corpus]) == 0
        capsys.readouterr()
        assert main(["stats", "--input", corpus, "--output", "-"]) == 0
        expected = capsys.readouterr().out.encode()
        proc = subprocess.run([sys.executable, "-m", "tabrc.cli", "stats", "--input", corpus,
                               "--output", "-"], env=cli_env(), capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, b"")

    def test_run_freezes_after_main_and_exits_with_its_status(self, tmp_path):
        # `atexit` handlers run after `run` has frozen the collector.
        probe = ("import atexit, gc, sys\n"
                 "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
                 "from tabrc.cli import run\n"
                 "sys.argv[1:] = ['stats', '--input', 'missing.jsonl']\n"
                 "run()\n")
        proc = subprocess.run([sys.executable, "-c", probe], env=cli_env(), cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "frozen True\n")
        assert proc.stderr.startswith("error: ")

    def test_main_in_process_freezes_nothing(self, dump, tmp_path, capsys):
        # Tests and the benchmark's traced runs call `main` again and again;
        # a freeze there would keep their garbage for good.
        before = gc.get_freeze_count()
        assert main(["generate", "--input", dump, "--output", str(tmp_path / "x.jsonl")]) == 0
        assert main(["stats", "--input", str(tmp_path / "x.jsonl")]) == 0
        assert gc.get_freeze_count() == before

    def test_main_off_the_main_thread_sets_no_handler(self, tmp_path):
        # Only the main thread can set a signal handler: in another thread
        # the command runs without its SIGTERM handler and leaves the main
        # thread's alone.
        corpus, report = tmp_path / "examples.jsonl", tmp_path / "stats.txt"
        write_lines(corpus, [json.dumps(TestCorpusStats.GOOD)])
        before = signal.getsignal(signal.SIGTERM)
        codes = []
        thread = threading.Thread(target=lambda: codes.append(
            main(["stats", "--input", str(corpus), "--output", str(report)])))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert codes == [0]
        assert "examples: 1\n" in report.read_text(encoding="utf-8")
        assert signal.getsignal(signal.SIGTERM) is before

    def test_console_script_is_the_main_block_entry_point(self):
        # `tabrc` installed from pyproject.toml and `python -m tabrc.cli`
        # end a command the same way.
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parent.parent
        with open(root / "pyproject.toml", "rb") as handle:
            script = tomllib.load(handle)["project"]["scripts"]["tabrc"]
        tree = ast.parse((root / "src" / "tabrc" / "cli.py").read_text(encoding="utf-8"))
        [block] = [node for node in tree.body if isinstance(node, ast.If)
                   and ast.unparse(node.test) == "__name__ == '__main__'"]
        [statement] = block.body
        assert isinstance(statement.value, ast.Call) and not statement.value.args
        assert script == f"tabrc.cli:{ast.unparse(statement.value.func)}" == "tabrc.cli:run"

    @pytest.mark.parametrize("bad_line, reject_id", [
        pytest.param(b'{"id": "t\xff"}', b"t\\udcff", id="in-a-string"),
        pytest.param(b'\xff{"id": "t"}', b"line:1", id="outside-strings"),
    ])
    def test_non_utf8_byte_rejected_and_counted(self, tmp_path, bad_line, reject_id):
        # A byte that is not UTF-8 costs its own line only, in both commands.
        good = json.dumps(make_table(1, seed=1)).encode("utf-8")
        path, only_good = tmp_path / "tables.jsonl", tmp_path / "good.jsonl"
        path.write_bytes(bad_line + b"\n" + good + b"\n")
        only_good.write_bytes(good + b"\n")
        out, expected = tmp_path / "examples.jsonl", tmp_path / "expected.jsonl"
        assert main(["generate", "--input", str(path), "--output", str(out)]) == 0
        assert main(["generate", "--input", str(only_good), "--output", str(expected)]) == 0
        assert out.read_bytes() == expected.read_bytes()
        assert (tmp_path / "examples.jsonl.rejects").read_bytes() == reject_id + b"\tmalformed\n"
        corpus, report = tmp_path / "corpus.jsonl", tmp_path / "stats.txt"
        corpus.write_bytes(bad_line + b"\n" + json.dumps(TestCorpusStats.GOOD).encode() + b"\n")
        assert main(["stats", "--input", str(corpus), "--output", str(report)]) == 0
        text = report.read_text(encoding="utf-8")
        assert "examples: 1\n" in text and "malformed_lines: 1\n" in text

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bad_line", [
        pytest.param("[" * 200_000, id="deep-nesting"),
        pytest.param('{"id": "t", "rows": ' + "7" * 5000 + "}", id="over-long-integer"),
    ])
    def test_undecodable_line_costs_only_its_line(self, tmp_path, capsys, bad_line, workers):
        # `json.loads` raises RecursionError or a plain ValueError here, not
        # JSONDecodeError; both commands still count the line as malformed.
        first, second = make_table(0, seed=1), make_table(1, seed=1)
        first["id"], second["id"] = "first", "second"
        path, only_good = tmp_path / "tables.jsonl", tmp_path / "good.jsonl"
        write_lines(path, [json.dumps(first), bad_line, json.dumps(second)])
        write_lines(only_good, [json.dumps(first), json.dumps(second)])
        out, expected = tmp_path / "examples.jsonl", tmp_path / "expected.jsonl"
        workers_flag = ["--workers", str(workers)]
        assert main(["generate", "--input", str(path), "--output", str(out), *workers_flag]) == 0
        assert main(["generate", "--input", str(only_good), "--output", str(expected)]) == 0
        assert out.read_bytes() == expected.read_bytes() != b""
        assert (tmp_path / "examples.jsonl.rejects").read_text() == "line:2\tmalformed\n"
        assert "3 read, 2 accepted, 1 rejected" in capsys.readouterr().err
        corpus, report = tmp_path / "corpus.jsonl", tmp_path / "stats.txt"
        write_lines(corpus, [json.dumps(TestCorpusStats.GOOD), bad_line])
        assert main(["stats", "--input", str(corpus), "--output", str(report)]) == 0
        text = report.read_text(encoding="utf-8")
        assert "examples: 1\n" in text and "malformed_lines: 1\n" in text

    @pytest.mark.parametrize("workers", [1, 2])
    def test_table_that_raises_costs_only_itself(self, tmp_path, capfd, monkeypatch, workers):
        # A table whose generation raises is rejected as internal_error with
        # its traceback on stderr, and a verbatim repeat of it is rejected
        # again without being generated; the other tables are untouched.
        tables = [make_table(i, seed=1) for i in range(4)]
        bad = tables[1]
        path, without = tmp_path / "tables.jsonl", tmp_path / "without.jsonl"
        write_lines(path, [json.dumps(t) for t in tables + [bad]])
        write_lines(without, [json.dumps(t) for t in tables if t is not bad])
        real = pipeline.table_examples

        def failing(table, settings):
            if table.meta.id == bad["id"]:
                raise RuntimeError("injected fault")
            return real(table, settings)

        monkeypatch.setattr(pipeline, "table_examples", failing)
        out, expected = tmp_path / "examples.jsonl", tmp_path / "expected.jsonl"
        assert main(["generate", "--input", str(path), "--output", str(out), "--seed", "1",
                     "--workers", str(workers)]) == 0
        err = capfd.readouterr().err
        assert main(["generate", "--input", str(without), "--output", str(expected),
                     "--seed", "1"]) == 0
        assert out.read_bytes() == expected.read_bytes() != b""
        assert (tmp_path / "examples.jsonl.rejects").read_text() == (
            f"{bad['id']}\tinternal_error:RuntimeError\n" * 2)
        assert "5 read, 3 accepted, 2 rejected" in err
        assert err.count("Traceback (most recent call last)") == 1
        assert "in failing" in err and "RuntimeError: injected fault" in err

    @pytest.mark.parametrize("to_stdout", [False, True])
    def test_stats_lone_surrogate_category_escaped(self, tmp_path, capsys, to_stdout):
        record = dict(TestCorpusStats.GOOD, source={"page_title": "Page", "table_id": "t",
                                                    "category": "\ud800"})
        corpus, report = tmp_path / "examples.jsonl", tmp_path / "stats.txt"
        write_lines(corpus, [json.dumps(record)])
        output = "-" if to_stdout else str(report)
        assert main(["stats", "--input", str(corpus), "--output", output]) == 0
        text = capsys.readouterr().out if to_stdout else report.read_text(encoding="utf-8")
        assert "category_count.\\ud800: 1\n" in text
        assert "examples: 1\n" in text
