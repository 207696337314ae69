"""Command line entry points: generate | stats | simulate."""

from __future__ import annotations

import argparse
import os
import sys

from .pipeline import GenerationSettings, corpus_stats, generate_corpus, parse_kinds
from .sampling import SamplerConfig, Strategy, format_distribution_trace, read_accuracy_feed, replay_feed
from .simulation import (
    LearnerTask,
    SimulationConfig,
    report_lines,
    run_simulation,
    trace_lines,
    two_task_report,
)

SEED_ENV_VAR = "TABRC_SEED"
# `simulate` spreads its tasks' learning rates evenly over this range.
RATE_RANGE = (100.0, 400.0)


def _default_seed() -> int:
    return int(os.environ.get(SEED_ENV_VAR, "0"))


def _parse_seeds(spec: str) -> list[int]:
    return [int(s) for s in spec.split(",") if s.strip()]


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
    gen.add_argument("--per-table-cap", type=int, default=10,
                     help="max examples per generator and table")
    gen.add_argument("--min-rows", type=int, default=10)
    gen.add_argument("--max-rows", type=int, default=25)
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


def _cmd_generate(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        kinds = parse_kinds(args.egs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    settings = GenerationSettings(
        seed=seed,
        cap=args.per_table_cap,
        kinds=kinds,
        min_rows=args.min_rows,
        max_rows=args.max_rows,
        workers=args.workers,
    )
    try:
        summary = generate_corpus(args.input, args.output, settings, args.rejects)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"tables: {summary.tables_read} read, {summary.tables_accepted} accepted, "
        f"{summary.tables_rejected} rejected; examples: {summary.examples} "
        f"({summary.duplicates} duplicates dropped)",
        file=sys.stderr,
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    try:
        # A byte that is not UTF-8 becomes a lone surrogate: inside a JSON
        # string it is kept, elsewhere its line counts as malformed.
        with open(args.input, "r", encoding="utf-8", errors="surrogateescape") as handle:
            stats = corpus_stats(handle)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # A category can hold a lone surrogate; the report shows it as \udXXXX,
    # as the rejects file of `generate` does.
    report = ("\n".join(stats.lines()) + "\n").encode("utf-8", "backslashreplace").decode("utf-8")
    if args.output == "-":
        sys.stdout.write(report)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
    return 0


def _spread_rates(num_tasks: int) -> list[float]:
    low, high = RATE_RANGE
    if num_tasks == 1:
        return [low]
    step = (high - low) / (num_tasks - 1)
    return [low + i * step for i in range(num_tasks)]


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        sampler = SamplerConfig(
            strategy=Strategy(args.strategy),
            window=args.w,
            smoothing=args.k,
            eps=args.eps,
            replay_lambda=args.lam,
        )
        seeds = _parse_seeds(args.seeds)
        if args.history is not None:
            with open(args.history, "r", encoding="utf-8") as handle:
                history = read_accuracy_feed(handle)
        elif args.preset is None:
            rates = _spread_rates(args.num_tasks)
            config = SimulationConfig(
                sampler=sampler,
                tasks=tuple(LearnerTask(f"task{i:02d}", rate=rate) for i, rate in enumerate(rates)),
                batch_size=args.batch_size,
                steps_per_checkpoint=args.steps,
                checkpoints=args.checkpoints,
            )
        os.makedirs(args.output, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.history is not None:
        path = os.path.join(args.output, f"distribution_{args.strategy}.tsv")
        with open(path, "w", encoding="utf-8") as out:
            out.write("checkpoint\ttask\tprobability\n")
            for checkpoint, dist in replay_feed(history, sampler):
                out.write("\n".join(format_distribution_trace(checkpoint, dist)) + "\n")
        print(f"wrote {path}", file=sys.stderr)
        return 0

    if args.preset == "two-task":
        failures = 0
        for seed in seeds:
            report = two_task_report(seed)
            path = os.path.join(args.output, f"two_task_seed{seed}.txt")
            with open(path, "w", encoding="utf-8") as out:
                out.write("\n".join(report_lines(report)) + "\n")
            for line in report_lines(report):
                if line.startswith("verdict"):
                    print(f"seed {seed}: {line}")
            if not report.all_hold():
                failures += 1
        return 1 if failures else 0

    for seed in seeds:
        trace = run_simulation(config, seed)
        path = os.path.join(args.output, f"trace_{args.strategy}_seed{seed}.tsv")
        with open(path, "w", encoding="utf-8") as out:
            out.write("\n".join(trace_lines(trace)) + "\n")
        print(f"wrote {path} (final entropy {trace[-1].entropy:.4f})", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "stats":
        return _cmd_stats(args)
    return _cmd_simulate(args)


if __name__ == "__main__":
    sys.exit(main())
