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
import os
import subprocess
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


# Loads bench/tracing.py, installs its targets while no `tabrc` module but
# the package is loaded, runs `generate` and `stats`, and prints the calls
# recorded per span.
_FRESH_PROBE = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = tracing
spec.loader.exec_module(tracing)
preloaded = sorted(m for m in sys.modules if m.startswith("tabrc."))
tracer = tracing.Tracer()
with tracing.installed(tracer, tracing.TARGETS):
    from tabrc import cli
    with contextlib.redirect_stderr(io.StringIO()):
        codes = [cli.main(["generate", "--input", sys.argv[2], "--output", sys.argv[3]]),
                 cli.main(["stats", "--input", sys.argv[3], "--output", sys.argv[4]])]
print(json.dumps([preloaded, codes, {name: tracer.calls(name) for name in sys.argv[5:]}]))
"""


def test_targets_installed_before_the_modules_load_record_calls(tmp_path):
    # The CLI resolves the traced names on first access; a wrapper installed
    # by a fresh process, before anything imported the generation modules,
    # must still be the function that runs.
    dump = tmp_path / "dump.jsonl"
    dump.write_text(json.dumps(CHELSEA) + "\n", encoding="utf-8")
    spans = ["pipeline.generate_corpus", "pipeline.corpus_stats", "tables.ingest",
             "facts.build_context"]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", _FRESH_PROBE, str(BENCH / "tracing.py"), str(dump),
         str(tmp_path / "corpus.jsonl"), str(tmp_path / "stats.txt"), *spans],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    preloaded, codes, calls = json.loads(probe.stdout.splitlines()[-1])
    assert preloaded == []
    assert codes == [0, 0]
    assert calls["pipeline.generate_corpus"] == calls["pipeline.corpus_stats"] == 1
    assert calls["tables.ingest"] == 1
    assert calls["facts.build_context"] > 0
