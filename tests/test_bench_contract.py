"""The traced benchmark's contract with the program.

`bench/tracing.py` wraps the functions `bench/run.py` reports on, under the
module attributes their callers look them up by. This test loads that module
as it is and runs each CLI command the benchmark runs, so renaming a traced
function, or calling it some other way than by that name, fails here and not
only in a traced benchmark run.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from fixtures import CHELSEA, CONCERTS
from tabrc import cli
from tabrc.generators import GeneratorKind

BENCH = Path(__file__).resolve().parent.parent / "bench"

# The span names bench/run.py passes to `require_calls`.
CORPUS_SPANS = ["pipeline.generate_corpus", "pipeline.corpus_stats", "tables.ingest",
                "facts.build_context", "pipeline.build_record"]
SCHEDULE_SPANS = ["simulation.two_task_report", "simulation.run_simulation",
                  "sampling.compose_batch", "sampling.on_checkpoint",
                  "sampling.read_accuracy_feed", "sampling.replay_feed"]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _run(args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(args) == 0, args


def test_traced_commands_record_every_required_span(tmp_path):
    tracing = _load_tracing()
    dump = tmp_path / "dump.jsonl"
    dump.write_text("".join(json.dumps(record) + "\n" for record in (CHELSEA, CONCERTS)),
                    encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    feed = tmp_path / "feed.tsv"
    feed.write_text("".join(f"{i}\ttask{t}\t{min(1.0, 0.1 * i + 0.05 * t):.3f}\n"
                            for i in range(1, 9) for t in range(3)), encoding="utf-8")
    out = tmp_path / "runs"

    tracer = tracing.Tracer()
    with tracing.installed(tracer, tracing.TARGETS):
        _run(["generate", "--input", str(dump), "--output", str(corpus), "--seed", "3"])
        _run(["stats", "--input", str(corpus), "--output", str(tmp_path / "stats.txt")])
        _run(["simulate", "--strategy", "momentum", "--history", str(feed),
              "--output", str(out)])
        _run(["simulate", "--preset", "two-task", "--seeds", "0", "--output", str(out)])
        _run(["simulate", "--strategy", "momentum", "--num-tasks", "4", "--checkpoints", "6",
              "--seeds", "0", "--output", str(out)])

    generator_spans = [f"generators.{kind.value}" for kind in GeneratorKind]
    tracing.require_calls(tracer, CORPUS_SPANS + SCHEDULE_SPANS + generator_spans)
    # Each traced `generate` call counts its triplets, which the per-layer
    # metrics sum per generator.
    assert all(span.count is not None for name in generator_spans
               for span in tracer.named(name))
    assert corpus.read_text(encoding="utf-8")
    # The replay's layer split needs one `on_checkpoint` call per checkpoint,
    # made from `replay_feed` itself.
    replay = {i for i, span in enumerate(tracer.spans) if span.name == "sampling.replay_feed"}
    assert sum(1 for span in tracer.named("sampling.on_checkpoint")
               if span.parent in replay) == 8
