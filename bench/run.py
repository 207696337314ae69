"""Benchmark for the tabrc CLI.

    python3 bench/run.py --workload corpus-clean --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout. The benchmark writes its seeded
inputs under `.bench_build/`, runs `python3 -m tabrc.cli` from `src/` as a
subprocess in a closed loop (each command starts after the previous one
exits) for `--seconds`, checks every output, and prints a JSON result as the
last line of standard output. With `--trace 0` the result holds the
end-to-end metrics of BENCHMARK.json; with `--trace 1` it holds the
per-layer metrics of a separate traced run in this process. See
bench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import dumps
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

CLEAN_TABLES = 8
DIRTY_TABLES = 12
DIRTY_REPEATS = 2
POOL_WORKERS = 2
PRESET_SEEDS = 2
MOMENTUM_SEEDS = 2
FEED_CHECKPOINTS = 2000
FEED_TASKS = 16
MOMENTUM_WINDOW, MOMENTUM_SMOOTHING, MOMENTUM_EPS = 4, 2, 0.002
SETUP_ROUNDS = 5
REFERENCE_LOOP = 600_000
REFERENCE_WORDS, REFERENCE_PICKS, REFERENCE_SEED = 100_000, 40_000, 1
# The reference task's time on the machine described in bench/README.md.
REFERENCE_NOMINAL_S = 0.06
COMMAND_TIMEOUT_S = 100
REJECT_REASONS = ("shape", "malformed", "ragged", "duplicate_columns")
# Per-layer metrics of the corpus workloads that do not come from spans.
CORPUS_COUNTS = ("pipeline.examples", "pipeline.duplicates", "pipeline.bytes_out",
                 "pipeline.parent.cpu_s", "pipeline.workers.cpu_s",
                 "pipeline.parallel_efficiency",
                 *(f"tables.rejected.{reason}" for reason in REJECT_REASONS))


class BenchError(RuntimeError):
    pass


@dataclass
class Command:
    args: list[str]
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    returncode: int
    stdout: str
    scale: float = 1.0  # speed_scale of the reference samples around the command

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.scale


@dataclass
class Outcome:
    """Operations attempted and failed; `problems` are the failures that
    make the run incorrect.

    An operation given a `key` is one operation however often the timed
    loop repeats it, and fails if any repetition fails, so the counts depend
    on the seed and not on how many iterations fit in `--seconds`."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    repeated: dict[str, bool] = field(default_factory=dict)

    def op(self, ok: bool, problem: str, key: str | None = None) -> bool:
        if key is None or key not in self.repeated:
            self.attempted += 1
        elif not self.repeated[key]:
            return ok  # this operation has already failed
        if key is not None:
            self.repeated[key] = ok
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def command(self, cmd: Command) -> bool:
        args = " ".join(cmd.args)
        return self.op(cmd.returncode == 0, f"`tabrc {args}` exited {cmd.returncode}",
                       key=f"command {args}")


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


@functools.cache
def _reference_words() -> tuple[list[str], list[int]]:
    order = random.Random(REFERENCE_SEED).sample(range(REFERENCE_WORDS), REFERENCE_PICKS)
    return [f"w{i:06d}" for i in range(REFERENCE_WORDS)], order


def reference_s() -> float:
    """Time a fixed pure-Python task: an integer loop, then counting,
    sorting and formatting strings picked from a large list. It never calls
    tabrc, so no program change can move it; it moves only with the speed of
    the machine."""
    words, order = _reference_words()
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i & 7
    counts: dict[str, int] = {}
    for i in order:
        key = words[i][:5]
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    ", ".join(f"{key}={count}" for key, count in ranked)
    return time.perf_counter() - start


def speed_scale(before: float, after: float) -> float:
    """The factor that takes a time measured between two reference samples
    to the machine speed at which the reference takes REFERENCE_NOMINAL_S."""
    return REFERENCE_NOMINAL_S / ((before + after) / 2)


def run_tabrc(args: list[str], work: Path) -> Command:
    """Run the CLI from `src/` as a subprocess and reap it with its resource
    usage: wall time, CPU of the process tree, and the largest resident set
    of any process in it."""
    env = {k: v for k, v in os.environ.items() if k != "TABRC_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(work / "cmd.stdout", "w+b") as out, open(work / "cmd.stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "tabrc.cli", *args],
                                stdout=out, stderr=err, env=env, cwd=work)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        if proc.returncode != 0:
            sys.stderr.write(err.read().decode("utf-8", "replace")[-2000:])
    return Command(args, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                   proc.returncode, stdout)


def run_in_process(args: list[str]) -> tuple[int, float, str]:
    """Run the CLI's main in this process: (exit code, wall seconds, stdout)."""
    from tabrc import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(args)
        wall = time.perf_counter() - start
    return code, wall, stdout.getvalue()


@dataclass
class Sample:
    main: Command
    side: list[Command]
    items: int


class Workload:
    """One workload: its inputs, its commands, and the checks on its outputs."""

    name = ""

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.outputs: list[Path] = []
        self.digests: dict[Path, str] = {}
        self.speed: list[float] = []  # reference_s samples, one between any two commands

    def run(self, args: list[str]) -> Command:
        """Run one command between two samples of the reference task."""
        if not self.speed:
            self.speed.append(reference_s())
        cmd = run_tabrc(args, self.work)
        self.speed.append(reference_s())
        cmd.scale = speed_scale(*self.speed[-2:])
        return cmd

    def iteration(self, outcome: Outcome) -> Sample | None:
        """Run the workload's commands once; None when one of them failed."""
        commands = []
        for args in self.commands():
            cmd = self.run(args)
            commands.append(cmd)
            if not outcome.command(cmd):
                return None
        for path in self.outputs:
            digest = sha256(path)
            first = self.digests.setdefault(path, digest)
            outcome.op(digest == first, f"{path.name} changed between identical runs",
                       key=f"same {path.name}")
        return self.sample(commands)

    def setup_round(self, outcome: Outcome) -> list[Command]:
        commands = [self.run(args) for args in self.setup_commands()]
        for cmd in commands:
            outcome.command(cmd)
        return commands

    def same_output(self, outcome: Outcome, got: Path, reference: Path, what: str) -> None:
        outcome.op(got.exists() and sha256(got) == sha256(reference),
                   f"{what}: {got.name} differs from {reference.name}")


class Corpus(Workload):
    def __init__(self, work: Path, seed: int, dirty: bool) -> None:
        super().__init__(work, seed)
        self.name = "corpus-dirty" if dirty else "corpus-clean"
        self.workers = POOL_WORKERS if dirty else 1
        if dirty:
            self.lines, self.expected_rejects = dumps.dirty_dump(seed, DIRTY_TABLES, DIRTY_REPEATS)
        else:
            self.lines, self.expected_rejects = dumps.clean_dump(seed, CLEAN_TABLES), {}
        self.dump = work / "dump.jsonl"
        self.dump.write_text("".join(line + "\n" for line in self.lines), encoding="utf-8")
        (work / "empty.jsonl").write_text("", encoding="utf-8")
        self.corpus = work / "corpus.jsonl"
        self.report = work / "stats.txt"
        self.outputs = [self.corpus, Path(f"{self.corpus}.rejects"), self.report]

    def describe(self) -> str:
        return f"dump {len(self.lines)} records, sha256 {sha256(self.dump)}"

    def generate_args(self, dump: Path, output: Path, workers: int) -> list[str]:
        return ["generate", "--input", str(dump), "--output", str(output),
                "--seed", str(self.seed), "--workers", str(workers)]

    def commands(self) -> list[list[str]]:
        return [self.generate_args(self.dump, self.corpus, self.workers),
                ["stats", "--input", str(self.corpus), "--output", str(self.report)]]

    def setup_commands(self) -> list[list[str]]:
        empty_out = self.work / "empty.out"
        return [self.generate_args(self.work / "empty.jsonl", empty_out, self.workers),
                ["stats", "--input", str(empty_out), "--output", str(self.work / "empty.txt")]]

    def sample(self, commands: list[Command]) -> Sample:
        return Sample(commands[0], commands[1:], count_lines(self.corpus))

    def check(self, outcome: Outcome) -> dict[str, float]:
        import checker

        check = checker.check_corpus(self.lines, str(self.corpus))
        outcome.attempted += check.checked
        outcome.failed += check.failures
        if check.unexplained:
            outcome.problems.append(f"{check.unexplained} examples failed the oracle on "
                                    f"tables without separator text")
        rejects = checker.read_rejects(f"{self.corpus}.rejects")
        outcome.op(rejects == self.expected_rejects,
                   f"rejects {rejects} differ from the planted {self.expected_rejects}")
        print(f"checker: {check.checked} examples, failed {check.failed}, "
              f"{check.unexplained} outside separator tables, {check.seconds:.2f} s")
        return {
            "oracle.checked": check.checked,
            "oracle.failed.table": check.failed["table"],
            "oracle.failed.facts": check.failed["facts"],
            "oracle.failed.split": check.failed["split"],
            "oracle.busy_s": check.seconds,
            "facts.distractors_mean": check.distractors / max(check.checked, 1),
        }

    def traced(self, outcome: Outcome, tracer: tracing.Tracer) -> dict[str, float]:
        import checker

        # Untraced at the workload's pool size, for the parent/worker CPU split.
        pooled = self.work / "pooled.jsonl"
        self_before = resource.getrusage(resource.RUSAGE_SELF)
        children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        code, pooled_wall, _ = run_in_process(self.generate_args(self.dump, pooled, POOL_WORKERS))
        self_after = resource.getrusage(resource.RUSAGE_SELF)
        children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
        outcome.op(code == 0, f"in-process generate at {POOL_WORKERS} workers exited {code}")
        self.same_output(outcome, pooled, self.corpus, "determinism across worker counts")
        parent_cpu = (self_after.ru_utime + self_after.ru_stime
                      - self_before.ru_utime - self_before.ru_stime)
        workers_cpu = (children_after.ru_utime + children_after.ru_stime
                       - children_before.ru_utime - children_before.ru_stime)

        # Untraced and traced at one worker, for the tracing overhead.
        plain = self.work / "plain.jsonl"
        code, plain_wall, _ = run_in_process(self.generate_args(self.dump, plain, 1))
        outcome.op(code == 0, f"in-process generate exited {code}")
        traced = self.work / "traced.jsonl"
        traced_report = self.work / "traced-stats.txt"
        with tracing.installed(tracer, tracing.TARGETS):
            code, traced_wall, _ = run_in_process(self.generate_args(self.dump, traced, 1))
            outcome.op(code == 0, f"traced generate exited {code}")
            code, _, _ = run_in_process(["stats", "--input", str(traced),
                                         "--output", str(traced_report)])
            outcome.op(code == 0, f"traced stats exited {code}")
        self.same_output(outcome, traced, self.corpus, "traced generate")
        self.same_output(outcome, traced_report, self.report, "traced stats")
        tracing.require_calls(tracer, ["pipeline.generate_corpus", "pipeline.corpus_stats",
                                       "tables.ingest", "facts.build_context",
                                       "pipeline.build_record"])

        rejects = checker.read_rejects(f"{traced}.rejects")
        examples = count_lines(traced)
        metrics = {
            "pipeline.examples": examples,
            "pipeline.duplicates": tracer.calls("pipeline.build_record") - examples,
            "pipeline.bytes_out": traced.stat().st_size,
            "pipeline.parent.cpu_s": parent_cpu,
            "pipeline.workers.cpu_s": workers_cpu,
            "pipeline.parallel_efficiency": workers_cpu / (pooled_wall * POOL_WORKERS),
            "trace.overhead_s": traced_wall - plain_wall,
        }
        for reason in REJECT_REASONS:
            metrics[f"tables.rejected.{reason}"] = rejects.get(reason, 0)
        root = tracer.busy("pipeline.generate_corpus")
        layers = tracer.children_of("pipeline.generate_corpus")
        print(f"traced generate_corpus {root:.4f} s = layers {sum(layers.values()):.4f} s "
              f"+ pipeline.self_s {tracer.self_seconds('pipeline.generate_corpus'):.4f} s")
        for name, seconds in sorted(layers.items(), key=lambda item: -item[1]):
            print(f"  {name:<40} {seconds:9.4f} s  {100 * seconds / root:5.1f}%")
        return metrics


class Schedule(Workload):
    name = "schedule"

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        self.verdict_stdout = ""
        self.feed_lines = dumps.accuracy_feed(seed, FEED_CHECKPOINTS, FEED_TASKS)
        self.feed = work / "feed.tsv"
        self.feed.write_text("".join(line + "\n" for line in self.feed_lines), encoding="utf-8")
        self.tiny_feed = work / "tiny-feed.tsv"
        self.tiny_feed.write_text(
            "".join(line + "\n" for line in dumps.accuracy_feed(seed, 1, FEED_TASKS)),
            encoding="utf-8")
        self.out = work / "runs"
        self.preset_seeds = ",".join(str(PRESET_SEEDS * seed + i) for i in range(PRESET_SEEDS))
        self.momentum_seeds = ",".join(str(seed + i) for i in range(MOMENTUM_SEEDS))
        self.distribution = self.out / "distribution_momentum.tsv"
        self.outputs = [self.out / f"two_task_seed{s}.txt" for s in self.preset_seeds.split(",")]
        self.outputs += [self.out / f"trace_momentum_seed{s}.tsv"
                         for s in self.momentum_seeds.split(",")]
        self.outputs.append(self.distribution)

    def describe(self) -> str:
        return (f"feed {FEED_CHECKPOINTS} checkpoints x {FEED_TASKS} tasks, "
                f"sha256 {sha256(self.feed)}; preset seeds {self.preset_seeds}")

    def command_sets(self, out: Path, preset_seeds: str, momentum_seeds: str,
                     feed: Path) -> list[list[str]]:
        return [
            ["simulate", "--preset", "two-task", "--seeds", preset_seeds, "--output", str(out)],
            ["simulate", "--strategy", "momentum", "--num-tasks", str(FEED_TASKS),
             "--seeds", momentum_seeds, "--output", str(out)],
            ["simulate", "--strategy", "momentum", "--w", str(MOMENTUM_WINDOW),
             "--k", str(MOMENTUM_SMOOTHING), "--eps", str(MOMENTUM_EPS),
             "--history", str(feed), "--output", str(out)],
        ]

    def commands(self) -> list[list[str]]:
        return self.command_sets(self.out, self.preset_seeds, self.momentum_seeds, self.feed)

    def setup_commands(self) -> list[list[str]]:
        return self.command_sets(self.work / "setup-runs", "", "", self.tiny_feed)

    def sample(self, commands: list[Command]) -> Sample:
        self.verdict_stdout = commands[0].stdout
        return Sample(commands[2], commands[:2], (count_lines(self.distribution) - 1) // FEED_TASKS)

    def check(self, outcome: Outcome) -> dict[str, float]:
        import checker

        lines, failing = checker.verdicts(self.verdict_stdout)
        outcome.attempted += lines
        outcome.failed += failing
        if failing or lines != 3 * PRESET_SEEDS:
            outcome.problems.append(f"{failing} of {lines} preset verdicts fail")
        reference = checker.momentum_reference(self.feed_lines, MOMENTUM_WINDOW,
                                               MOMENTUM_SMOOTHING, MOMENTUM_EPS)
        checked, differ = checker.check_replay(str(self.distribution), reference)
        outcome.attempted += checked
        outcome.failed += differ
        if differ:
            outcome.problems.append(f"{differ} of {checked} replayed checkpoints differ "
                                    f"from the reference")
        print(f"checker: {lines} verdicts ({failing} fail), {checked} replayed checkpoints "
              f"({differ} differ)")
        return {"oracle.checked": 0, "oracle.failed.table": 0, "oracle.failed.facts": 0,
                "oracle.failed.split": 0, "oracle.busy_s": 0.0, "facts.distractors_mean": 0.0}

    def traced(self, outcome: Outcome, tracer: tracing.Tracer) -> dict[str, float]:
        plain_wall = 0.0
        for args in self.command_sets(self.work / "plain", self.preset_seeds,
                                      self.momentum_seeds, self.feed):
            code, wall, _ = run_in_process(args)
            outcome.op(code == 0, f"in-process `tabrc {' '.join(args)}` exited {code}")
            plain_wall += wall
        traced_out = self.work / "traced"
        traced_wall = 0.0
        with tracing.installed(tracer, tracing.TARGETS):
            for args in self.command_sets(traced_out, self.preset_seeds,
                                          self.momentum_seeds, self.feed):
                code, wall, stdout = run_in_process(args)
                outcome.op(code == 0, f"traced `tabrc {' '.join(args)}` exited {code}")
                traced_wall += wall
                if "--preset" in args:
                    outcome.op(stdout == self.verdict_stdout, "traced preset verdicts differ")
        for path in self.outputs:
            self.same_output(outcome, traced_out / path.name, path, "traced simulate")
        tracing.require_calls(tracer, ["simulation.two_task_report", "simulation.run_simulation",
                                       "sampling.compose_batch", "sampling.on_checkpoint",
                                       "sampling.read_accuracy_feed", "sampling.replay_feed"])
        for name in ("simulation.two_task_report", "simulation.run_simulation",
                     "sampling.replay_feed"):
            layers = tracer.children_of(name)
            busy = tracer.busy(name)
            print(f"traced {name} {busy:.4f} s = layers {sum(layers.values()):.4f} s + self "
                  f"{tracer.self_seconds(name):.4f} s")
        return {"trace.overhead_s": traced_wall - plain_wall, **dict.fromkeys(CORPUS_COUNTS, 0)}


def layer_metrics(tracer: tracing.Tracer) -> dict[str, float]:
    """The per-layer metrics that come from spans; layers a workload does not
    use read 0."""
    from tabrc.generators import GeneratorKind

    metrics: dict[str, float] = {
        "tables.ingest.busy_s": tracer.busy("tables.ingest"),
        "tables.ingest.calls": tracer.calls("tables.ingest"),
        "facts.build_context.busy_s": tracer.busy("facts.build_context"),
        "facts.build_context.calls": tracer.calls("facts.build_context"),
        "pipeline.build_record.busy_s": tracer.busy("pipeline.build_record"),
        "pipeline.self_s": tracer.self_seconds("pipeline.generate_corpus"),
        "pipeline.corpus_stats.busy_s": tracer.busy("pipeline.corpus_stats"),
    }
    total = 0.0
    for kind in GeneratorKind:
        busy = tracer.busy(f"generators.{kind.value}")
        total += busy
        metrics[f"generators.{kind.value}.busy_s"] = busy
        metrics[f"generators.{kind.value}.triplets"] = sum(
            span.count for span in tracer.named(f"generators.{kind.value}"))
    metrics["generators.busy_s"] = total
    for name in ("sampling.compose_batch", "sampling.on_checkpoint"):
        metrics[f"{name}.busy_s"] = tracer.busy(name)
        metrics[f"{name}.calls"] = tracer.calls(name)
    metrics["sampling.read_accuracy_feed.busy_s"] = tracer.busy("sampling.read_accuracy_feed")
    metrics["sampling.replay_feed.busy_s"] = tracer.busy("sampling.replay_feed")
    metrics["simulation.run_simulation.self_s"] = tracer.self_seconds("simulation.run_simulation")
    return metrics


def describe_timing(name: str, values: list[float], unit: str) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"{name:<14} median {statistics.median(values):.4f} {unit}"
    if n >= 11:
        p = math.floor(100 * (1 - 10 / n))
        text += f", p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f} {unit}"
    else:
        text += f", max {max(values):.4f} {unit} (too few samples for a percentile)"
    return text + f", n={n}"


def end_to_end(setup: list[float], samples: list[Sample]) -> dict[str, float]:
    """Medians of the timings scaled to the nominal machine speed; the raw
    wall-time medians are printed next to them."""
    main = [s.main.scaled_s for s in samples]
    side = [sum(c.scaled_s for c in s.side) for s in samples]
    rate = [s.items / m for s, m in zip(samples, main)]
    rss = [s.main.maxrss_kb / 1024 for s in samples]
    for name, values, unit in (("setup_s", setup, "s"), ("main_s", main, "s"),
                               ("side_s", side, "s"), ("items_per_s", rate, "1/s"),
                               ("peak_rss_mb", rss, "MB")):
        print(describe_timing(name, values, unit))
    raw_main = statistics.median(s.main.wall_s for s in samples)
    raw_side = statistics.median(sum(c.wall_s for c in s.side) for s in samples)
    print(f"raw wall time: main_s median {raw_main:.4f} s, side_s median {raw_side:.4f} s, "
          f"speed scale median {statistics.median(s.main.scale for s in samples):.4f}")
    return {
        "setup_s": statistics.median(setup),
        "main_s": statistics.median(main),
        "side_s": statistics.median(side),
        "items_per_s": statistics.median(rate),
        "peak_rss_mb": statistics.median(rss),
    }


WORKLOADS = {
    "corpus-clean": lambda work, seed: Corpus(work, seed, dirty=False),
    "corpus-dirty": lambda work, seed: Corpus(work, seed, dirty=True),
    "schedule": Schedule,
}


def measure(workload: Workload, seconds: float, trace: bool) -> tuple[Outcome, dict, dict]:
    outcome = Outcome()
    record: dict = {"workload": workload.name, "seed": workload.seed, "trace": trace}
    print(f"{workload.name} seed {workload.seed}: {workload.describe()}")
    if trace:
        sample = workload.iteration(outcome)
        if sample is None:
            raise BenchError("; ".join(outcome.problems))
        metrics = workload.check(outcome)
        tracer = tracing.Tracer()
        metrics.update(workload.traced(outcome, tracer))
        metrics.update(layer_metrics(tracer))
        spans = BUILD / "trace" / f"{workload.name}-seed{workload.seed}.spans.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(str(spans))
        print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
        return outcome, metrics, record

    workload.setup_round(outcome)  # warm-up: byte-compiles and fills the page cache
    rounds = [workload.setup_round(outcome) for _ in range(SETUP_ROUNDS)]
    setup = [sum(cmd.scaled_s for cmd in commands) for commands in rounds]
    samples: list[Sample] = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        sample = workload.iteration(outcome)
        if sample is None:
            break
        samples.append(sample)
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break
    if not samples:
        raise BenchError("; ".join(outcome.problems))
    metrics = end_to_end(setup, samples)
    workload.check(outcome)
    record["setup_s"] = [[cmd.wall_s for cmd in commands] for commands in rounds]
    record["reference_s"] = workload.speed
    record["samples"] = [{"main_s": s.main.wall_s, "main_cpu_s": s.main.cpu_s,
                          "main_scale": s.main.scale, "side_s": [c.wall_s for c in s.side],
                          "side_scale": [c.scale for c in s.side], "items": s.items,
                          "maxrss_kb": s.main.maxrss_kb} for s in samples]
    record["outputs"] = {path.name: digest for path, digest in workload.digests.items()}
    return outcome, metrics, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "tabrc" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no tabrc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))

    BUILD.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD))
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        outcome, metrics, record = measure(workload, args.seconds, bool(args.trace))
    except (BenchError, tracing.TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(f"failed: {outcome.failed} of {outcome.attempted} operations")
    for problem in outcome.problems[:10]:
        print(f"problem: {problem}")
    record.update(attempted=outcome.attempted, failed=outcome.failed,
                  problems=outcome.problems, metrics=metrics)
    runs = BUILD / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
