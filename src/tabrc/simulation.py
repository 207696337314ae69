"""Simulated learners for comparing sampling strategies without a model.

Each task follows a closed-form saturating curve Acc = c * (1 - exp(-n/rate))
in the number of examples consumed, which keeps accuracy monotone and below
its ceiling. A noisy task pins the ceiling at chance level, `CHANCE_LEVEL` = 0
(random labels are essentially never matched exactly), which is the regime
where error sampling gets stuck and momentum sampling does not.

The harness feeds batch plans from the sampler into the learners, evaluates
at every checkpoint, and records accuracy, the refreshed distribution and
its entropy. Everything is a pure function of (config, seed).

Each run draws its batches from one generator seeded by the run seed alone,
two floats per step whatever the step's batch turns out to be, so every run
of one seed sees the same draws at every step: the two-task preset's six
runs share common random numbers without a memo.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .sampling import (
    AccuracyHistory,
    SamplerConfig,
    Strategy,
    TaskDistribution,
    check_tasks,
    compose_batch,
    on_checkpoint,
    uniform,
)
from .shared import derive_seed

CHANCE_LEVEL = 0.0


class LearnerTask(NamedTuple):
    """One simulated skill: how fast it is learned and how high it can go."""

    name: str
    rate: float
    ceiling: float = 1.0
    noisy: bool = False

    def accuracy(self, examples: int) -> float:
        """Held-out accuracy after training on `examples` examples."""
        ceiling = CHANCE_LEVEL if self.noisy else self.ceiling
        return ceiling * (1.0 - math.exp(-examples / self.rate))


class _SimulationFields(NamedTuple):
    sampler: SamplerConfig
    tasks: tuple[LearnerTask, ...]
    batch_size: int = 64
    steps_per_checkpoint: int = 10
    checkpoints: int = 40


class SimulationConfig(_SimulationFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SimulationConfig:
        self = super().__new__(cls, *args, **kwargs)
        check_tasks(tuple(task.name for task in self.tasks))
        if self.batch_size < 1 or self.steps_per_checkpoint < 1 or self.checkpoints < 1:
            raise ValueError("batch size, steps per checkpoint and checkpoints must be positive")
        return self


class CheckpointRecord(NamedTuple):
    index: int
    accuracies: dict[str, float]
    distribution: TaskDistribution
    entropy: float
    examples: dict[str, int]
    total_examples: int


def run_simulation(config: SimulationConfig, seed: int) -> list[CheckpointRecord]:
    """Run one simulation; the trace is a pure function of (config, seed).

    Batches within a checkpoint interval use the distribution computed at the
    previous checkpoint (uniform before the first one), so one
    `compose_batch` call plans the interval's steps; a replay batch, planned
    with no slot, trains no task.

    The run's one generator gives each step two floats, the replay draw and
    then the mark, even when the batch is a replay or leaves no slot over, so
    the draws of a step depend on the seed and the step alone.
    """
    names = tuple(task.name for task in config.tasks)
    examples = dict.fromkeys(names, 0)
    history = AccuracyHistory(names)
    dist = uniform(names)
    trace: list[CheckpointRecord] = []
    draw = random.Random(derive_seed(seed, "batch")).random
    steps = range(config.steps_per_checkpoint)
    for index in range(1, config.checkpoints + 1):
        draws = [(draw(), draw()) for _ in steps]
        for counts in compose_batch(dist, config.batch_size, config.sampler.replay_lambda, draws):
            for task, count in counts.items():
                examples[task] += count
        accuracies = {task.name: task.accuracy(examples[task.name]) for task in config.tasks}
        history.append(accuracies)
        dist = on_checkpoint(history, config.sampler)
        trace.append(CheckpointRecord(
            index=index,
            accuracies=accuracies,
            distribution=dist,
            entropy=dist.entropy(),
            examples=dict(examples),
            total_examples=sum(examples.values()),
        ))
    return trace


def examples_to_threshold(trace: list[CheckpointRecord], task: str, threshold: float) -> int | None:
    """Total examples consumed (all tasks) when `task` first reaches the
    threshold accuracy; None if it never does."""
    for record in trace:
        if record.accuracies[task] >= threshold:
            return record.total_examples
    return None


def trace_lines(trace: list[CheckpointRecord]) -> list[str]:
    """Tab-separated trace: checkpoint, task, accuracy, probability, entropy."""
    lines = ["checkpoint\ttask\taccuracy\tprobability\tentropy"]
    for record in trace:
        for task, prob in record.distribution.probs:
            lines.append(
                f"{record.index}\t{task}\t{record.accuracies[task]:.10g}"
                f"\t{prob:.10g}\t{record.entropy:.10g}"
            )
    return lines


# ---------------------------------------------------------------------------
# Two-task benchmark: a fast task and a slow task, with and without label
# noise on the fast one.
# ---------------------------------------------------------------------------

FAST_TASK = "composition_2hop"
SLOW_TASK = "arithmetic_addition"
THRESHOLD_FRACTION = 0.9
# Error sampling counts as stuck on the noisy task above this final share.
CONCENTRATION_FLOOR = 0.8
# Never noisy, so the threshold is a share of its own ceiling.
_SLOW_LEARNER = LearnerTask(SLOW_TASK, rate=2500.0)


def _rank(trace: list[CheckpointRecord]) -> float:
    """Total examples when the slow task first reaches `THRESHOLD_FRACTION`
    of its ceiling; infinity if it never does."""
    crossing = examples_to_threshold(trace, SLOW_TASK, THRESHOLD_FRACTION * _SLOW_LEARNER.ceiling)
    return math.inf if crossing is None else crossing


class TwoTaskReport(NamedTuple):
    """Each strategy's trace in the gold and in the noisy condition. The
    verdicts read the slow task's threshold crossing and the final
    distribution off the traces."""

    gold: dict[Strategy, list[CheckpointRecord]]
    noisy: dict[Strategy, list[CheckpointRecord]]

    def gold_ordering_holds(self) -> bool:
        """Error-driven strategies beat uniform on the slow task; error is
        at least as fast as momentum, which pays for its warm start."""
        err = _rank(self.gold[Strategy.ERROR])
        mom = _rank(self.gold[Strategy.MOMENTUM])
        uni = _rank(self.gold[Strategy.UNIFORM])
        return err <= mom < uni

    def noisy_ordering_holds(self) -> bool:
        """With random labels on the fast task, momentum beats uniform while
        error sampling falls behind it."""
        err = _rank(self.noisy[Strategy.ERROR])
        mom = _rank(self.noisy[Strategy.MOMENTUM])
        uni = _rank(self.noisy[Strategy.UNIFORM])
        return mom < uni < err

    def error_concentrates_on_noise(self) -> bool:
        """Error sampling ends up spending most probability on the
        unlearnable task."""
        return self.noisy[Strategy.ERROR][-1].distribution.prob(FAST_TASK) > CONCENTRATION_FLOOR

    def all_hold(self) -> bool:
        return (self.gold_ordering_holds() and self.noisy_ordering_holds()
                and self.error_concentrates_on_noise())


def two_task_config(strategy: Strategy, noisy: bool) -> SimulationConfig:
    tasks = (LearnerTask(FAST_TASK, rate=200.0, noisy=noisy), _SLOW_LEARNER)
    sampler = SamplerConfig(strategy=strategy, window=4, smoothing=2, eps=0.002,
                            replay_lambda=0.0)
    return SimulationConfig(sampler=sampler, tasks=tasks, batch_size=50,
                            steps_per_checkpoint=10, checkpoints=60)


def two_task_report(seed: int) -> TwoTaskReport:
    """Run the two-task benchmark for all three strategies in both the gold
    and the noisy condition."""
    gold, noisy = (
        {strategy: run_simulation(two_task_config(strategy, noisy), seed) for strategy in Strategy}
        for noisy in (False, True))
    return TwoTaskReport(gold=gold, noisy=noisy)


def report_lines(report: TwoTaskReport) -> list[str]:
    """Human-readable verdicts, one ordering check per line."""
    lines = []
    for label, traces in (("gold", report.gold), ("noisy", report.noisy)):
        for strategy in Strategy:
            trace = traces[strategy]
            rank = _rank(trace)
            lines.append(
                f"{label}\t{strategy.value}\tto_threshold={rank if rank < math.inf else 'never'}"
                f"\tfinal_acc={trace[-1].accuracies[SLOW_TASK]:.4f}"
            )
    lines.append(f"verdict gold ordering (error <= momentum < uniform): "
                 f"{'pass' if report.gold_ordering_holds() else 'fail'}")
    lines.append(f"verdict noisy ordering (momentum < uniform < error): "
                 f"{'pass' if report.noisy_ordering_holds() else 'fail'}")
    lines.append(f"verdict error concentrates on noisy task (> {CONCENTRATION_FLOOR}): "
                 f"{'pass' if report.error_concentrates_on_noise() else 'fail'}")
    return lines
