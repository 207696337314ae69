"""Simulated learners for comparing sampling strategies without a model.

Each task follows a closed-form saturating curve Acc = c * (1 - exp(-n/rate))
in the number of examples consumed, which keeps accuracy monotone and below
its ceiling. A noisy task pins the ceiling at chance level, `CHANCE_LEVEL` = 0
(random labels are essentially never matched exactly), which is the regime
where error sampling gets stuck and momentum sampling does not.

The harness feeds batch plans from the sampler into the learners, evaluates
at every checkpoint, and records accuracy, the refreshed distribution and
its entropy. Everything is a pure function of (config, seed).
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .generators import derive_seed
from .sampling import (
    REPLAY_TASK,
    AccuracyHistory,
    SamplerConfig,
    Strategy,
    TaskDistribution,
    compose_batch,
    on_checkpoint,
    uniform,
)

CHANCE_LEVEL = 0.0


class LearnerTask(NamedTuple):
    """One simulated skill: how fast it is learned and how high it can go."""

    name: str
    rate: float
    ceiling: float = 1.0
    noisy: bool = False

    def effective_ceiling(self) -> float:
        return CHANCE_LEVEL if self.noisy else self.ceiling


class SimulatedLearner:
    def __init__(self, tasks: Iterable[LearnerTask]):
        self.specs = {task.name: task for task in tasks}
        self.examples: dict[str, int] = {name: 0 for name in self.specs}

    def train(self, task: str, count: int) -> None:
        self.examples[task] += count

    def accuracy(self, task: str) -> float:
        spec = self.specs[task]
        return spec.effective_ceiling() * (1.0 - math.exp(-self.examples[task] / spec.rate))


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
        if not self.tasks:
            raise ValueError("at least one task required")
        if self.batch_size < 1 or self.checkpoints < 1:
            raise ValueError("batch size and checkpoints must be positive")
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
    previous checkpoint (uniform before the first one); replay slots do not
    train any task.
    """
    names = [task.name for task in config.tasks]
    learner = SimulatedLearner(config.tasks)
    history = AccuracyHistory(names)
    dist = uniform(names)
    trace: list[CheckpointRecord] = []
    step = 0
    for index in range(1, config.checkpoints + 1):
        for _ in range(config.steps_per_checkpoint):
            step += 1
            counts = compose_batch(dist, config.batch_size, config.sampler.replay_lambda,
                                   derive_seed(seed, "batch", step))
            for task, count in counts.items():
                if task != REPLAY_TASK:
                    learner.train(task, count)
        accuracies = {name: learner.accuracy(name) for name in names}
        history.append(accuracies)
        dist = on_checkpoint(history, config.sampler)
        trace.append(CheckpointRecord(
            index=index,
            accuracies=accuracies,
            distribution=dist,
            entropy=dist.entropy(),
            examples=dict(learner.examples),
            total_examples=sum(learner.examples.values()),
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


class StrategyOutcome(NamedTuple):
    strategy: Strategy
    to_threshold: int | None
    final_accuracy: float
    final_probs: dict[str, float]
    trace: list[CheckpointRecord]


class TwoTaskReport(NamedTuple):
    gold: dict[Strategy, StrategyOutcome]
    noisy: dict[Strategy, StrategyOutcome]

    @staticmethod
    def _rank(outcome: StrategyOutcome) -> float:
        return math.inf if outcome.to_threshold is None else outcome.to_threshold

    def gold_ordering_holds(self) -> bool:
        """Error-driven strategies beat uniform on the slow task; error is
        at least as fast as momentum, which pays for its warm start."""
        err = self._rank(self.gold[Strategy.ERROR])
        mom = self._rank(self.gold[Strategy.MOMENTUM])
        uni = self._rank(self.gold[Strategy.UNIFORM])
        return err <= mom < uni

    def noisy_ordering_holds(self) -> bool:
        """With random labels on the fast task, momentum beats uniform while
        error sampling falls behind it."""
        err = self._rank(self.noisy[Strategy.ERROR])
        mom = self._rank(self.noisy[Strategy.MOMENTUM])
        uni = self._rank(self.noisy[Strategy.UNIFORM])
        return mom < uni < err

    def error_concentrates_on_noise(self) -> bool:
        """Error sampling ends up spending most probability on the
        unlearnable task."""
        return self.noisy[Strategy.ERROR].final_probs[FAST_TASK] > CONCENTRATION_FLOOR

    def all_hold(self) -> bool:
        return (self.gold_ordering_holds() and self.noisy_ordering_holds()
                and self.error_concentrates_on_noise())


def two_task_config(strategy: Strategy, noisy: bool) -> SimulationConfig:
    tasks = (
        LearnerTask(FAST_TASK, rate=200.0, noisy=noisy),
        LearnerTask(SLOW_TASK, rate=2500.0),
    )
    sampler = SamplerConfig(strategy=strategy, window=4, smoothing=2, eps=0.002,
                            replay_lambda=0.0)
    return SimulationConfig(sampler=sampler, tasks=tasks, batch_size=50,
                            steps_per_checkpoint=10, checkpoints=60)


def two_task_report(seed: int) -> TwoTaskReport:
    """Run the two-task benchmark for all three strategies in both the gold
    and the noisy condition."""
    results: dict[bool, dict[Strategy, StrategyOutcome]] = {False: {}, True: {}}
    for noisy in (False, True):
        for strategy in Strategy:
            config = two_task_config(strategy, noisy)
            trace = run_simulation(config, seed)
            threshold = THRESHOLD_FRACTION * config.tasks[1].effective_ceiling()
            final = trace[-1]
            results[noisy][strategy] = StrategyOutcome(
                strategy=strategy,
                to_threshold=examples_to_threshold(trace, SLOW_TASK, threshold),
                final_accuracy=final.accuracies[SLOW_TASK],
                final_probs=final.distribution.as_dict(),
                trace=trace,
            )
    return TwoTaskReport(gold=results[False], noisy=results[True])


def report_lines(report: TwoTaskReport) -> list[str]:
    """Human-readable verdicts, one ordering check per line."""
    lines = []
    for label, outcomes in (("gold", report.gold), ("noisy", report.noisy)):
        for strategy in Strategy:
            outcome = outcomes[strategy]
            lines.append(
                f"{label}\t{strategy.value}\tto_threshold="
                f"{outcome.to_threshold if outcome.to_threshold is not None else 'never'}"
                f"\tfinal_acc={outcome.final_accuracy:.4f}"
            )
    lines.append(f"verdict gold ordering (error <= momentum < uniform): "
                 f"{'pass' if report.gold_ordering_holds() else 'fail'}")
    lines.append(f"verdict noisy ordering (momentum < uniform < error): "
                 f"{'pass' if report.noisy_ordering_holds() else 'fail'}")
    lines.append(f"verdict error concentrates on noisy task (> {CONCENTRATION_FLOOR}): "
                 f"{'pass' if report.error_concentrates_on_noise() else 'fail'}")
    return lines
