"""Task-sampling schedules for multi-task training over the generators.

A TaskDistribution assigns each task its share of every training batch.
Three strategies are provided:

- uniform: every task equally likely;
- error: probability proportional to the error (1 - latest accuracy), so
  tasks with high error are over-sampled;
- momentum: probability proportional to the absolute accuracy change across
  a sliding window of checkpoints, floored at eps, with uniform sampling
  during the first `window` checkpoints.

Distributions update only at checkpoint boundaries, so `compose_batch`
plans a whole checkpoint interval from one immutable snapshot: it splits the
batch size over the tasks once, then places each step's leftover slots.

A history holds one row per checkpoint, its accuracies in task order. A
recorded feed is read and checked once, by `read_accuracy_feed`;
`replay_feed` then appends its rows, unchecked, to a second history one at a
time, and momentum reads each task's window as a column of the rows.

Each step's plan reads two draws that the caller takes from its run's one
generator, the replay draw and then the mark. This module draws nothing and
keeps no cache.
"""

from __future__ import annotations

import math
from itertools import accumulate
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


def _normalized(tasks: Iterable[str], weights: Sequence[float]) -> TaskDistribution:
    total = sum(weights)
    return TaskDistribution(tuple(zip(tasks, [w / total for w in weights])))


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
    errors = []
    for task, acc in latest_acc.items():
        if not 0.0 <= acc <= 1.0:
            raise ValueError(f"accuracy out of range for {task}: {acc}")
        errors.append(1.0 - acc)
    if sum(errors) == 0:
        return uniform(tuple(latest_acc))
    return _normalized(tuple(latest_acc), errors)


class AccuracyHistory:
    """Held-out accuracies, one row per checkpoint: a tuple in `tasks` order.

    Each row is labelled with its checkpoint number, 1, 2, 3, ... unless
    `append` is given one. The numbers only label the rows: a momentum
    window counts rows, whatever their numbers.
    """

    def __init__(self, tasks: Sequence[str]):
        self.tasks = tuple(tasks)
        check_tasks(self.tasks)
        self._task_set = frozenset(self.tasks)
        self._checkpoints: list[int] = []
        self._rows: list[tuple[float, ...]] = []

    def append(self, accuracies: Mapping[str, float], checkpoint: int | None = None) -> None:
        """Store the row if every task has exactly one accuracy in [0, 1]."""
        if accuracies.keys() != self._task_set:
            missing = [task for task in self.tasks if task not in accuracies]
            extra = sorted(set(accuracies) - self._task_set)
            raise ValueError("checkpoint must report every task exactly once; "
                             + "; ".join([f"missing {task!r}" for task in missing]
                                         + [f"unknown {task!r}" for task in extra]))
        row = tuple(map(accuracies.__getitem__, self.tasks))
        if not all([0.0 <= value <= 1.0 for value in row]):  # NaN fails every comparison
            task, value = next((task, value) for task, value in zip(self.tasks, row)
                               if not 0.0 <= value <= 1.0)
            raise ValueError(f"accuracy out of range for {task}: {value}")
        self._rows.append(row)
        self._checkpoints.append(len(self._checkpoints) + 1 if checkpoint is None else checkpoint)

    def __len__(self) -> int:
        return len(self._checkpoints)

    def latest(self) -> dict[str, float]:
        if not self._checkpoints:
            raise ValueError("no checkpoints recorded")
        return dict(zip(self.tasks, self._rows[-1]))


def check_eps(eps: float, num_tasks: int) -> None:
    """Momentum floors every task's weight at eps, so eps must stay below
    the uniform share."""
    if eps >= 1.0 / num_tasks:
        raise ValueError("eps must stay below 1/num_tasks")


def momentum_sampling(history: AccuracyHistory, config: SamplerConfig) -> TaskDistribution:
    """Sample in proportion to the absolute accuracy change over the last
    `window` checkpoints, comparing the mean of the `smoothing` newest
    rows against the mean of the `smoothing` oldest rows in the
    window. Uniform during the first `window` checkpoints; every task keeps
    at least the eps floor, so plateaued runs return exactly uniform."""
    t = len(history)
    check_eps(config.eps, len(history.tasks))
    if t < config.window:
        return uniform(history.tasks)
    k, eps = config.smoothing, config.eps
    start = t - config.window  # the window's oldest row
    # a column per task, in task order: its k newest and its k oldest accuracies
    heads = zip(*history._rows[t - k:t])
    tails = zip(*history._rows[start:start + k])
    weights = [max(abs(sum(head) / k - sum(tail) / k), eps) for head, tail in zip(heads, tails)]
    if max(weights) <= eps:
        # plateaued run: no weight is below the floor, so every task sits on
        # it, which is exactly uniform (avoid float noise from dividing equal
        # weights)
        return uniform(history.tasks)
    return _normalized(history.tasks, weights)


def on_checkpoint(history: AccuracyHistory, config: SamplerConfig) -> TaskDistribution:
    """Recompute the task distribution after a checkpoint evaluation."""
    if config.strategy is Strategy.UNIFORM:
        return uniform(history.tasks)
    if config.strategy is Strategy.ERROR:
        return error_sampling(history.latest())
    return momentum_sampling(history, config)


def compose_batch(dist: TaskDistribution, batch_size: int, replay_lambda: float,
                  draws: Sequence[tuple[float, float]]) -> list[dict[str, int]]:
    """Plan the batches of one checkpoint interval, one plan per step draw.
    A plan is the number of slots per task; a batch has no slot order.

    With probability `replay_lambda` a whole batch is replay (whose content
    is a caller-provided stream), planned as `{}`: no task gets a slot.
    Otherwise every task of `dist` gets floor(batch_size * P(s)) slots and
    the leftover slots are awarded by a seeded systematic draw on the
    fractional remainders, so each task's chance of an extra slot equals its
    remainder and expected slot counts stay exactly batch_size * P(s). Ties
    between equal remainders are thereby broken by the draws.

    Each of `draws` is one step's two floats in [0, 1), as a generator gives
    them in turn: the replay draw, then the systematic draw's mark, taken
    whether or not the mark is used. The distribution is fixed
    over the interval, so the floor counts, leftover and remainders are
    computed once per call; each step's plan is its own dict, equal to
    what a call with that step's draw alone would give.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if not 0.0 <= replay_lambda <= 1.0:  # NaN fails every comparison
        raise ValueError("replay_lambda must be in [0, 1]")
    quotas = [(task, batch_size * p) for task, p in dist.probs]
    floor = {task: int(quota) for task, quota in quotas}
    leftover = batch_size - sum(floor.values())
    if not leftover:
        return [{} if replay_draw < replay_lambda else floor.copy() for replay_draw, _ in draws]
    remainders = [(task, quota - int(quota)) for task, quota in quotas]
    total = sum(r for _, r in remainders)
    step = total / leftover
    # each task with the running sum of the remainders up to it
    bounds = list(zip([task for task, _ in remainders], accumulate(r for _, r in remainders)))
    by_remainder = [task for task, _r in sorted(remainders, key=lambda item: -item[1])]
    plans = []
    for replay_draw, mark_draw in draws:
        if replay_draw < replay_lambda:
            plans.append({})
            continue
        counts = floor.copy()
        unawarded = leftover
        mark = mark_draw * total / leftover
        for task, cumulative in bounds:
            while mark < cumulative and unawarded:
                counts[task] += 1
                unawarded -= 1
                mark += step
            if not unawarded:
                break
        # float shortfall can leave a slot unawarded; give it to the largest
        # remainders
        for task in by_remainder[:unawarded]:
            counts[task] += 1
        plans.append(counts)
    return plans


def read_accuracy_feed(lines: Iterable[str]) -> AccuracyHistory:
    """Parse a checkpoint feed of tab-separated (checkpoint, task, accuracy)
    records, grouped by checkpoint number in ascending order. A checkpoint
    records every task the feed names exactly once, and the history keeps
    the numbers. An error names the line, also for an empty task name, or
    the checkpoint for one that lacks a task or holds an accuracy outside
    [0, 1]."""
    grouped: dict[int, dict[str, float]] = {}
    label = None  # the checkpoint field of the line before
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            field, task, acc = text.split("\t")
            if field != label:
                index, label = int(field), field
                checkpoint = grouped.setdefault(index, {})
            value = float(acc)
            if not task:
                raise ValueError("empty task name")
        except ValueError as exc:
            if text.count("\t") != 2:
                exc = f"expected 3 tab-separated fields: {text!r}"
            raise ValueError(f"line {number}: {exc}") from None
        if task in checkpoint:
            raise ValueError(f"line {number}: checkpoint {index} records task {task!r} again")
        checkpoint[task] = value
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

    Each row of `history`, which `read_accuracy_feed` checked, is appended
    as it is to a second history, unchecked, and the strategy sees that
    second history after each row."""
    replayed = AccuracyHistory(history.tasks)
    add_row, add_checkpoint = replayed._rows.append, replayed._checkpoints.append
    trace = []
    for checkpoint, row in zip(history._checkpoints, history._rows):
        add_row(row)
        add_checkpoint(checkpoint)
        trace.append((checkpoint, on_checkpoint(replayed, config)))
    return trace


def format_distribution_trace(checkpoint: int, dist: TaskDistribution) -> list[str]:
    """Tab-separated (checkpoint, task, probability) lines."""
    return [f"{checkpoint}\t{task}\t{p:.10g}" for task, p in dist.probs]
