"""Task-sampling schedules for multi-task training over the generators.

A TaskDistribution assigns each task its share of every training batch.
Three strategies are provided:

- uniform: every task equally likely;
- error: probability proportional to the error (1 - latest accuracy), so
  tasks with high error are over-sampled;
- momentum: probability proportional to the absolute accuracy change across
  a sliding window of checkpoints, floored at eps, with uniform sampling
  during the first `window` checkpoints.

Distributions update only at checkpoint boundaries; batch composition reads
an immutable snapshot, so batches may be composed concurrently with the next
update.

A recorded feed is read and checked once, by `read_accuracy_feed`.
`replay_feed` then copies its rows, unchecked, into a second history one
checkpoint at a time, and momentum slices each task's window out of its
series by index.

A batch plan reads the two draws that `batch_draws` takes from its step
seed. This module keeps no cache; `simulation` memoizes the draws that the
two-task preset's six runs of one seed share.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Mapping, NamedTuple, Sequence

from .shared import Strategy


class _SamplerFields(NamedTuple):
    strategy: Strategy = Strategy.UNIFORM
    window: int = 4
    smoothing: int = 2
    eps: float = 0.002
    replay_lambda: float = 0.5


class SamplerConfig(_SamplerFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SamplerConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.smoothing < 1 or self.window < 1:
            raise ValueError("window and smoothing must be positive")
        if self.smoothing > self.window:
            raise ValueError("smoothing must not exceed the window")
        if not self.eps >= 0:  # NaN fails every comparison
            raise ValueError("eps must be non-negative")
        if not 0.0 <= self.replay_lambda <= 1.0:
            raise ValueError("replay probability must be in [0, 1]")
        return self


class _DistributionFields(NamedTuple):
    probs: tuple[tuple[str, float], ...]


class TaskDistribution(_DistributionFields):
    """Probability over tasks; entries non-negative and summing to one."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> TaskDistribution:
        self = super().__new__(cls, *args, **kwargs)
        if not all(p >= 0 for _, p in self.probs):  # NaN fails every comparison
            raise ValueError("probabilities must be non-negative numbers")
        total = sum(p for _, p in self.probs)
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"probabilities sum to {total}")
        return self

    def prob(self, task: str) -> float:
        for name, p in self.probs:
            if name == task:
                return p
        raise KeyError(task)

    def as_dict(self) -> dict[str, float]:
        return dict(self.probs)

    def entropy(self) -> float:
        """Shannon entropy in nats. Each term is negated, not the sum, so a
        point mass gives 0.0, not -0.0."""
        return sum(-p * math.log(p) for _, p in self.probs if p > 0)


def _normalized(weights: Mapping[str, float]) -> TaskDistribution:
    total = sum(weights.values())
    return TaskDistribution(tuple([(task, w / total) for task, w in weights.items()]))


def check_tasks(tasks: Sequence[str]) -> None:
    """Refuse an empty task list, and a task named twice."""
    if not tasks:
        raise ValueError("at least one task required")
    if len(set(tasks)) < len(tasks):
        repeated = next(task for i, task in enumerate(tasks) if task in tasks[:i])
        raise ValueError(f"task {repeated!r} is named twice")


def uniform(tasks: Sequence[str]) -> TaskDistribution:
    if not tasks:
        raise ValueError("at least one task required")
    share = 1.0 / len(tasks)
    return TaskDistribution(tuple((task, share) for task in tasks))


def error_sampling(latest_acc: Mapping[str, float]) -> TaskDistribution:
    """P(s) proportional to the error 1 - Acc(s); uniform when every task is
    at accuracy 1."""
    deltas = {}
    for task, acc in latest_acc.items():
        if not 0.0 <= acc <= 1.0:
            raise ValueError(f"accuracy out of range for {task}: {acc}")
        deltas[task] = 1.0 - acc
    if sum(deltas.values()) == 0:
        return uniform(tuple(latest_acc))
    return _normalized(deltas)


class AccuracyHistory:
    """Aligned per-task held-out accuracy series, one entry per checkpoint.

    Each entry is labelled with its checkpoint number, 1, 2, 3, ... unless
    `append` is given one. The numbers only label the entries: a momentum
    window counts entries, whatever their numbers.
    """

    def __init__(self, tasks: Sequence[str]):
        self.tasks = tuple(tasks)
        check_tasks(self.tasks)
        self._checkpoints: list[int] = []
        self._series: dict[str, list[float]] = {task: [] for task in self.tasks}

    def append(self, accuracies: Mapping[str, float], checkpoint: int | None = None) -> None:
        if set(accuracies) != set(self.tasks):
            missing = [task for task in self.tasks if task not in accuracies]
            extra = sorted(set(accuracies) - set(self.tasks))
            raise ValueError("checkpoint must report every task exactly once; "
                             + "; ".join([f"missing {task!r}" for task in missing]
                                         + [f"unknown {task!r}" for task in extra]))
        for task in self.tasks:
            value = accuracies[task]
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"accuracy out of range for {task}: {value}")
        for task in self.tasks:
            self._series[task].append(accuracies[task])
        self._checkpoints.append(len(self._checkpoints) + 1 if checkpoint is None else checkpoint)

    def __len__(self) -> int:
        return len(self._checkpoints)

    def latest(self) -> dict[str, float]:
        if not self._checkpoints:
            raise ValueError("no checkpoints recorded")
        return {task: self._series[task][-1] for task in self.tasks}


def check_eps(eps: float, num_tasks: int) -> None:
    """Momentum floors every task's weight at eps, so eps must stay below
    the uniform share."""
    if eps >= 1.0 / num_tasks:
        raise ValueError("eps must stay below 1/num_tasks")


def momentum_sampling(history: AccuracyHistory, config: SamplerConfig) -> TaskDistribution:
    """Sample in proportion to the absolute accuracy change over the last
    `window` checkpoints, comparing the mean of the `smoothing` newest
    entries against the mean of the `smoothing` oldest entries in the
    window. Uniform during the first `window` checkpoints; every task keeps
    at least the eps floor, so plateaued runs return exactly uniform."""
    t = len(history)
    check_eps(config.eps, len(history.tasks))
    if t < config.window:
        return uniform(history.tasks)
    weights = {}
    k, eps = config.smoothing, config.eps
    start = t - config.window  # the window's oldest entry
    for task in history.tasks:
        series = history._series[task]
        head = sum(series[t - k:t]) / k
        tail = sum(series[start:start + k]) / k
        weights[task] = max(abs(head - tail), eps)
    if max(weights.values()) <= eps:
        # plateaued run: no weight is below the floor, so every task sits on
        # it, which is exactly uniform (avoid float noise from dividing equal
        # weights)
        return uniform(history.tasks)
    return _normalized(weights)


def on_checkpoint(history: AccuracyHistory, config: SamplerConfig) -> TaskDistribution:
    """Recompute the task distribution after a checkpoint evaluation."""
    if config.strategy is Strategy.UNIFORM:
        return uniform(history.tasks)
    if config.strategy is Strategy.ERROR:
        return error_sampling(history.latest())
    return momentum_sampling(history, config)


def batch_draws(seed: int) -> tuple[float, float]:
    """The first two outputs of `random.Random(seed)`: the replay draw and
    the systematic-draw mark. Both are taken whether or not the mark is
    used, so a stored pair equals what a fresh generator would give."""
    rng = random.Random(seed)
    return rng.random(), rng.random()


def compose_batch(dist: TaskDistribution, batch_size: int, replay_lambda: float,
                  draws: tuple[float, float]) -> dict[str, int]:
    """Plan one batch as the number of slots per task; a batch has no slot
    order.

    With probability `replay_lambda` the whole batch is replay (whose content
    is a caller-provided stream), planned as `{}`: no task gets a slot.
    Otherwise every task of `dist` gets floor(batch_size * P(s)) slots and
    the leftover slots are awarded by a seeded systematic draw on the
    fractional remainders, so each task's chance of an extra slot equals its
    remainder and expected slot counts stay exactly batch_size * P(s). Ties
    between equal remainders are thereby broken by the draws.

    `draws` is the pair `batch_draws` gives for the step's seed: the replay
    draw, then the systematic draw's mark.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if not 0.0 <= replay_lambda <= 1.0:  # NaN fails every comparison
        raise ValueError("replay_lambda must be in [0, 1]")
    replay_draw, mark_draw = draws
    if replay_draw < replay_lambda:
        return {}

    quotas = [(task, batch_size * p) for task, p in dist.probs]
    counts = {task: int(quota) for task, quota in quotas}
    leftover = batch_size - sum(counts.values())
    if leftover:
        remainders = [(task, quota - int(quota)) for task, quota in quotas]
        total = sum(r for _, r in remainders)
        mark = mark_draw * total / leftover
        step = total / leftover
        cumulative = 0.0
        for task, remainder in remainders:
            cumulative += remainder
            while mark < cumulative and leftover:
                counts[task] += 1
                leftover -= 1
                mark += step
        # float shortfall can leave a slot unawarded; give it to the largest
        # remainders
        if leftover:
            for task, _r in sorted(remainders, key=lambda item: -item[1])[:leftover]:
                counts[task] += 1
    return counts


def read_accuracy_feed(lines: Iterable[str]) -> AccuracyHistory:
    """Parse a checkpoint feed of tab-separated (checkpoint, task, accuracy)
    records, grouped by checkpoint number in ascending order. A checkpoint
    records every task the feed names exactly once, and the history keeps
    the numbers. An error names the line, also for an empty task name, or
    the checkpoint for one that lacks a task or holds an accuracy outside
    [0, 1]."""
    grouped: dict[int, dict[str, float]] = {}
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split("\t")
        try:
            if len(fields) != 3:
                raise ValueError(f"expected 3 tab-separated fields: {text!r}")
            index, task, acc = int(fields[0]), fields[1], float(fields[2])
            if not task:
                raise ValueError("empty task name")
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
        checkpoint = grouped.setdefault(index, {})
        if task in checkpoint:
            raise ValueError(f"line {number}: checkpoint {index} records task {task!r} again")
        checkpoint[task] = acc
    if not grouped:
        raise ValueError("empty accuracy feed")
    history = AccuracyHistory(sorted(set().union(*grouped.values())))
    for index in sorted(grouped):
        try:
            history.append(grouped[index], index)
        except ValueError as exc:
            raise ValueError(f"checkpoint {index}: {exc}") from None
    return history


def replay_feed(history: AccuracyHistory, config: SamplerConfig) -> list[tuple[int, TaskDistribution]]:
    """Drive the configured strategy over a recorded accuracy feed,
    returning the distribution after each checkpoint, labelled with the
    feed's own checkpoint number.

    Each row of `history`, which `read_accuracy_feed` checked, is written
    onto the lists of a second history, unchecked, and the strategy sees
    that second history after each row."""
    replayed = AccuracyHistory(history.tasks)
    columns = [(replayed._series[task].append, history._series[task]) for task in history.tasks]
    trace = []
    for row, checkpoint in enumerate(history._checkpoints):
        for append, series in columns:
            append(series[row])
        replayed._checkpoints.append(checkpoint)
        trace.append((checkpoint, on_checkpoint(replayed, config)))
    return trace


def format_distribution_trace(checkpoint: int, dist: TaskDistribution) -> list[str]:
    """Tab-separated (checkpoint, task, probability) lines."""
    return [f"{checkpoint}\t{task}\t{p:.10g}" for task, p in dist.probs]
