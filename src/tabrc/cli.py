"""Command line entry points: generate | stats | simulate.

Each command imports only the modules it runs. The functions a command
hands its work to are attributes of this module, resolved on first access,
and each command calls its function through that attribute, so a wrapper
set on this module (as the benchmark's tracer does) is the one that runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import os
import sys
from typing import TYPE_CHECKING, Iterator, NoReturn

from .shared import (MAX_ROWS, MIN_ROWS, PER_TABLE_CAP, Strategy, check_not_input, replacing,
                     to_stderr, to_stdout)

if TYPE_CHECKING:
    from .sampling import AccuracyHistory, SamplerConfig

# Entry point -> the submodule that defines it.
_ENTRY_POINTS = {
    "generate_corpus": "pipeline",
    "corpus_stats": "stats",
    "two_task_report": "simulation",
    "run_simulation": "simulation",
    "read_accuracy_feed": "sampling",
    "replay_feed": "sampling",
}


def __getattr__(name: str):
    module = _ENTRY_POINTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"tabrc.{module}"), name)
    globals()[name] = value
    return value


def _entry(name: str):
    """The entry point as this module's attribute, a wrapper if one is set."""
    return getattr(sys.modules[__name__], name)


SEED_ENV_VAR = "TABRC_SEED"
# `simulate` spreads its tasks' learning rates evenly over this range.
RATE_RANGE = (100.0, 400.0)


def _default_seed() -> int:
    value = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"${SEED_ENV_VAR} must be an integer, got {value!r}") from None


def _parse_seeds(spec: str) -> list[int]:
    """The comma-separated seeds; a repeated seed counts once, where it first
    appears. An empty list runs nothing, which times start-up alone."""
    seeds = []
    for item in filter(str.strip, spec.split(",")):
        try:
            seeds.append(int(item))
        except ValueError:
            raise ValueError(f"--seeds takes comma-separated integers, got {item.strip()!r}") from None
    return list(dict.fromkeys(seeds))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabrc",
        description="Generate synthetic reading-comprehension corpora from tables, "
                    "report corpus statistics, and simulate sampling schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="turn a table dump into an example file")
    gen.add_argument("--input", required=True, help="newline-delimited table records")
    gen.add_argument("--output", required=True, help="newline-delimited example records")
    gen.add_argument("--rejects", default=None, help="rejection log (default: OUTPUT.rejects)")
    gen.add_argument("--seed", type=int, default=None,
                     help=f"generation seed (default: ${SEED_ENV_VAR} or 0)")
    gen.add_argument("--egs", default=None,
                     help="comma-separated generator filter (default: all 16)")
    gen.add_argument("--per-table-cap", type=int, default=PER_TABLE_CAP,
                     help="max examples per generator and table")
    gen.add_argument("--min-rows", type=int, default=MIN_ROWS)
    gen.add_argument("--max-rows", type=int, default=MAX_ROWS)
    gen.add_argument("--workers", type=int, default=1,
                     help="parallel table workers; output order is unchanged")

    stats = sub.add_parser("stats", help="corpus statistics for an example file")
    stats.add_argument("--input", required=True)
    stats.add_argument("--output", default="-", help="report path, or - for stdout")

    sim = sub.add_parser("simulate", help="run sampling strategies on simulated learners")
    sim.add_argument("--strategy", choices=[s.value for s in Strategy], default="momentum")
    sim.add_argument("--w", type=int, default=4, help="momentum window size")
    sim.add_argument("--k", type=int, default=2, help="momentum smoothing factor")
    sim.add_argument("--eps", type=float, default=0.002, help="per-task probability floor")
    sim.add_argument("--lam", type=float, default=0.5, help="replay-batch probability")
    sim.add_argument("--seeds", default="0", help="comma-separated run seeds")
    sim.add_argument("--checkpoints", type=int, default=40)
    sim.add_argument("--batch-size", type=int, default=64)
    sim.add_argument("--steps", type=int, default=10, help="optimizer steps per checkpoint")
    sim.add_argument("--num-tasks", type=int, default=16)
    sim.add_argument("--output", default=".", help="directory for trace/report files")
    sim.add_argument("--history", default=None,
                     help="replay a recorded accuracy feed instead of simulating learners")
    sim.add_argument("--preset", choices=["two-task"], default=None,
                     help="two-task: gold and noisy conditions across all strategies")
    return parser


def _exit_on_sigterm(signum: int, frame) -> None:
    raise SystemExit(128 + signum)


@contextlib.contextmanager
def _sigterm_exits() -> Iterator[None]:
    """Within the block, SIGTERM exits with 143 through SystemExit, so the
    cleanup that removes temporary files runs. Only the main thread can set
    a handler, and the caller's comes back on exit."""
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _cmd_generate(args: argparse.Namespace) -> int:
    from .pipeline import GenerationSettings, parse_kinds

    settings = GenerationSettings(
        seed=args.seed if args.seed is not None else _default_seed(),
        cap=args.per_table_cap,
        kinds=parse_kinds(args.egs),
        min_rows=args.min_rows,
        max_rows=args.max_rows,
        workers=args.workers,
    )
    summary = _entry("generate_corpus")(args.input, args.output, settings, args.rejects)
    to_stderr(f"tables: {summary.tables_read} read, {summary.tables_accepted} accepted, "
              f"{summary.tables_rejected} rejected; examples: {summary.examples} "
              f"({summary.duplicates} duplicates dropped)\n")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.output != "-":
        check_not_input("output", args.output, args.input)
    # A byte that is not UTF-8 becomes a lone surrogate: inside a JSON
    # string it is kept, elsewhere its line counts as malformed.
    with open(args.input, "r", encoding="utf-8", errors="surrogateescape") as handle:
        stats = _entry("corpus_stats")(handle)
    # A category can hold a lone surrogate; the report shows it as
    # \udXXXX, as the rejects file of `generate` does.
    report = "\n".join(stats.lines()) + "\n"
    report = report.encode("utf-8", "backslashreplace").decode("utf-8")
    if args.output == "-":
        to_stdout(report)
    else:
        with replacing(args.output) as handle:
            handle.write(report)
    return 0


def _spread_rates(num_tasks: int) -> list[float]:
    low, high = RATE_RANGE
    if num_tasks == 1:
        return [low]
    step = (high - low) / (num_tasks - 1)
    return [low + i * step for i in range(num_tasks)]


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .sampling import SamplerConfig, check_eps

    if args.history is not None and args.preset is not None:
        raise ValueError("--history replays a feed and takes no --preset")
    # Checked in every mode, also where the mode ignores them, so that no
    # out-of-range value passes silently.
    for flag in ("steps", "batch_size", "checkpoints", "num_tasks"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag.replace('_', '-')} must be at least 1")
    sampler = SamplerConfig(
        strategy=Strategy(args.strategy),
        window=args.w,
        smoothing=args.k,
        eps=args.eps,
        replay_lambda=args.lam,
    )
    seeds = _parse_seeds(args.seeds)
    tasks = ()  # the preset configures its own samplers
    if args.history is not None:
        with open(args.history, "r", encoding="utf-8") as handle:
            history = _entry("read_accuracy_feed")(handle)
        tasks = history.tasks
    elif args.preset is None:
        from .simulation import LearnerTask, SimulationConfig

        rates = _spread_rates(args.num_tasks)
        config = SimulationConfig(
            sampler=sampler,
            tasks=tuple(LearnerTask(f"task{i:02d}", rate=rate) for i, rate in enumerate(rates)),
            batch_size=args.batch_size,
            steps_per_checkpoint=args.steps,
            checkpoints=args.checkpoints,
        )
        tasks = config.tasks
    if tasks and sampler.strategy is Strategy.MOMENTUM:
        check_eps(sampler.eps, len(tasks))
    if args.history is not None:
        path = os.path.join(args.output, f"distribution_{args.strategy}.tsv")
        check_not_input("output", path, args.history)
    os.makedirs(args.output, exist_ok=True)

    if args.history is not None:
        with replacing(path) as out:
            out.writelines(_replay_lines(history, sampler))
        to_stderr(f"wrote {path}\n")
        return 0

    from .simulation import report_lines, trace_lines

    if args.preset == "two-task":
        failures = 0
        for seed in seeds:
            report = _entry("two_task_report")(seed)
            lines = report_lines(report)
            with replacing(os.path.join(args.output, f"two_task_seed{seed}.txt")) as out:
                out.write("\n".join(lines) + "\n")
            for line in lines:
                if line.startswith("verdict"):
                    to_stdout(f"seed {seed}: {line}\n")
            if not report.all_hold():
                failures += 1
        return 1 if failures else 0

    for seed in seeds:
        trace = _entry("run_simulation")(config, seed)
        path = os.path.join(args.output, f"trace_{args.strategy}_seed{seed}.tsv")
        with replacing(path) as out:
            out.write("\n".join(trace_lines(trace)) + "\n")
        to_stderr(f"wrote {path} (final entropy {trace[-1].entropy:.4f})\n")
    return 0


def _replay_lines(history: AccuracyHistory, sampler: SamplerConfig) -> Iterator[str]:
    """The replay's distribution file, one checkpoint per chunk. The replay
    starts when the first chunk is asked for."""
    from .sampling import format_distribution_trace

    yield "checkpoint\ttask\tprobability\n"
    for checkpoint, dist in _entry("replay_feed")(history, sampler):
        yield "\n".join(format_distribution_trace(checkpoint, dist)) + "\n"


def main(argv: list[str] | None = None) -> int:
    """Run one command. Every command runs inside `_sigterm_exits`, so
    SIGTERM exits with 143 through the cleanup of its `replacing` blocks,
    and this is the one place where an OSError or ValueError becomes exit
    status 2 and `error: …` on stderr, if stderr takes it (`to_stderr`)."""
    args = build_parser().parse_args(argv)
    command = {"generate": _cmd_generate, "stats": _cmd_stats}.get(args.command, _cmd_simulate)
    try:
        with _sigterm_exits():
            return command(args)
    except (OSError, ValueError) as exc:
        to_stderr(f"error: {exc}\n")
        return 2


def run() -> NoReturn:
    """The process entry point: run `main`, then exit with its status.

    Before the process exits, `gc.freeze()` moves every object into the
    permanent generation, so the interpreter's finalization does not collect
    the module graph's reference cycles; the OS takes the memory back.
    `atexit` handlers and the flush of stdout and stderr still run. `main`
    never freezes, so a caller that runs it in process keeps its garbage
    collectable."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
