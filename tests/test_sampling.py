import hashlib
import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from tabrc.sampling import (
    AccuracyHistory,
    SamplerConfig,
    Strategy,
    TaskDistribution,
    compose_batch,
    error_sampling,
    format_distribution_trace,
    momentum_sampling,
    on_checkpoint,
    read_accuracy_feed,
    replay_feed,
    uniform,
)

TASKS16 = [f"task{i:02d}" for i in range(16)]


def history_of(series: dict[str, list[float]]) -> AccuracyHistory:
    tasks = list(series)
    history = AccuracyHistory(tasks)
    length = len(next(iter(series.values())))
    for i in range(length):
        history.append({task: series[task][i] for task in tasks})
    return history


def checkpoints_of(history: AccuracyHistory) -> list[int]:
    """Each entry's checkpoint number, oldest first."""
    return list(history._checkpoints)


def rows_of(history: AccuracyHistory) -> list[dict[str, float]]:
    """Every checkpoint's accuracies, oldest first."""
    return [dict(zip(history.tasks, row)) for row in history._rows]


class TestUniform:
    def test_sixteen_tasks(self):
        dist = uniform(TASKS16)
        assert all(abs(p - 0.0625) < 1e-12 for _, p in dist.probs)

    def test_single_task(self):
        assert uniform(["a"]).prob("a") == 1.0

    def test_two_tasks(self):
        dist = uniform(["a", "b"])
        assert dist.prob("a") == dist.prob("b") == 0.5

    def test_empty_task_list_refused(self):
        with pytest.raises(ValueError, match="at least one task"):
            uniform([])


class TestErrorSampling:
    def test_all_mass_on_failing_task(self):
        dist = error_sampling({"a": 0.5, "b": 1.0})
        assert dist.prob("a") == 1.0
        assert dist.prob("b") == 0.0

    def test_equal_errors_uniform(self):
        dist = error_sampling({"a": 0.8, "b": 0.8, "c": 0.8})
        assert all(abs(p - 1 / 3) < 1e-12 for _, p in dist.probs)

    def test_perfect_accuracy_falls_back_to_uniform(self):
        dist = error_sampling({"a": 1.0, "b": 1.0})
        assert dist.prob("a") == dist.prob("b") == 0.5

    def test_matches_delta_formula_to_1e9(self):
        import random
        rng = random.Random(7)
        for _ in range(200):
            accs = {f"t{i}": rng.random() for i in range(8)}
            dist = error_sampling(accs)
            total = sum(1.0 - a for a in accs.values())
            for task, acc in accs.items():
                assert abs(dist.prob(task) - (1.0 - acc) / total) < 1e-9

    @given(st.lists(st.floats(min_value=0.0, max_value=0.99), min_size=2, max_size=10),
           st.floats(min_value=0.05, max_value=1.0))
    def test_scale_equivariant_in_errors(self, accs, scale):
        base = {f"t{i}": a for i, a in enumerate(accs)}
        scaled = {task: 1.0 - scale * (1.0 - acc) for task, acc in base.items()}
        d1, d2 = error_sampling(base), error_sampling(scaled)
        for task in base:
            assert d1.prob(task) == pytest.approx(d2.prob(task), abs=1e-9)


class TestMomentumSampling:
    CONFIG = SamplerConfig(strategy=Strategy.MOMENTUM, window=4, smoothing=2, eps=0.002)

    def test_warm_start_is_uniform(self):
        history = history_of({"a": [0.1, 0.2], "b": [0.0, 0.0]})
        dist = momentum_sampling(history, self.CONFIG)
        assert dist.prob("a") == dist.prob("b") == 0.5

    def test_hand_derived_two_task_example(self):
        history = history_of({"a": [0.0, 0.0, 0.5, 0.9], "b": [0.8, 0.8, 0.8, 0.8]})
        dist = momentum_sampling(history, self.CONFIG)
        assert dist.prob("a") == pytest.approx(0.99715, abs=1e-5)
        assert dist.prob("b") == pytest.approx(0.00285, abs=1e-5)

    def test_plateau_returns_exact_uniform(self):
        history = history_of({task: [0.9] * 6 for task in TASKS16})
        dist = momentum_sampling(history, self.CONFIG)
        assert all(p == 1 / 16 for _, p in dist.probs)

    def test_strictly_positive_probabilities(self):
        history = history_of({
            "a": [0.0, 0.2, 0.5, 0.9],
            "b": [0.5, 0.5, 0.5, 0.5],
            "c": [0.1, 0.1, 0.2, 0.4],
        })
        dist = momentum_sampling(history, self.CONFIG)
        assert all(p > 0 for _, p in dist.probs)

    def test_window_uses_k_newest_and_k_oldest(self):
        # only the last 4 checkpoints matter with window=4
        history = history_of({"a": [0.0, 0.1, 0.1, 0.5, 0.9], "b": [0.9, 0.8, 0.8, 0.8, 0.8]})
        dist = momentum_sampling(history, self.CONFIG)
        head_a, tail_a = (0.5 + 0.9) / 2, (0.1 + 0.1) / 2
        head_b, tail_b = 0.8, 0.8
        raw_a, raw_b = abs(head_a - tail_a), max(abs(head_b - tail_b), 0.002)
        assert dist.prob("a") == pytest.approx(raw_a / (raw_a + raw_b), abs=1e-12)

    def test_eps_must_stay_below_uniform_share(self):
        history = history_of({"a": [0.1] * 4, "b": [0.2] * 4})
        with pytest.raises(ValueError):
            momentum_sampling(history, SamplerConfig(strategy=Strategy.MOMENTUM, eps=0.5))

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=4, max_value=9),
           st.randoms(use_true_random=False))
    def test_sums_to_one(self, n_tasks, length, rng):
        series = {f"t{i}": [rng.random() for _ in range(length)] for i in range(n_tasks)}
        dist = momentum_sampling(history_of(series), self.CONFIG)
        assert abs(sum(p for _, p in dist.probs) - 1.0) < 1e-9
        assert all(p >= 0 for _, p in dist.probs)


class TestSamplerConfig:
    def test_smoothing_above_window_rejected(self):
        with pytest.raises(ValueError):
            SamplerConfig(window=2, smoothing=3)

    def test_replay_lambda_range(self):
        with pytest.raises(ValueError):
            SamplerConfig(replay_lambda=1.5)

    def test_positional_and_keyword_build_the_same_config(self):
        by_position = SamplerConfig(Strategy.MOMENTUM, 6, 3, 0.01, 0.25)
        by_keyword = SamplerConfig(strategy=Strategy.MOMENTUM, window=6, smoothing=3,
                                   eps=0.01, replay_lambda=0.25)
        assert by_position == by_keyword
        assert hash(by_position) == hash(by_keyword)
        assert SamplerConfig() == SamplerConfig(Strategy.UNIFORM, 4, 2, 0.002, 0.5)
        assert (SamplerConfig().window, SamplerConfig().smoothing) == (4, 2)

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TaskDistribution((("a", 0.7), ("b", 0.7)))
        with pytest.raises(ValueError):
            TaskDistribution((("a", -0.5), ("b", 1.5)))

    @pytest.mark.parametrize("probs", [(("a", math.nan), ("b", 1.0)), (("a", math.nan),)],
                             ids=["beside-one", "alone"])
    def test_nan_probability_refused(self, probs):
        # Every comparison with NaN is false, so a check written as "refuse
        # when below zero" lets it through.
        with pytest.raises(ValueError, match="non-negative numbers"):
            TaskDistribution(probs)


class TestOnCheckpoint:
    def test_dispatch(self):
        history = history_of({"a": [0.5, 0.5, 0.5, 0.5], "b": [0.9, 0.9, 0.9, 0.9]})
        uni = on_checkpoint(history, SamplerConfig(strategy=Strategy.UNIFORM))
        err = on_checkpoint(history, SamplerConfig(strategy=Strategy.ERROR))
        mom = on_checkpoint(history, SamplerConfig(strategy=Strategy.MOMENTUM))
        assert uni.prob("a") == 0.5
        assert err.prob("a") == pytest.approx(5 / 6)
        assert mom.prob("a") == 0.5  # both plateaued


def fresh_draws(seed):
    """A fresh generator's first two floats: one step's replay draw and mark."""
    rng = random.Random(seed)
    return rng.random(), rng.random()


class TestComposeBatch:
    DIST = TaskDistribution((("a", 0.5), ("b", 0.3), ("c", 0.2)))

    @staticmethod
    def plan(dist, batch_size, replay_lambda, seed):
        """The plan of the one step of a one-step interval."""
        [counts] = compose_batch(dist, batch_size, replay_lambda, [fresh_draws(seed)])
        return counts

    def test_exact_proportions(self):
        counts = self.plan(self.DIST, 10, replay_lambda=0.0, seed=1)
        assert counts == {"a": 5, "b": 3, "c": 2}

    def test_largest_remainder_tiebreak(self):
        dist = TaskDistribution((("a", 0.5), ("b", 0.5)))
        counts = self.plan(dist, 3, 0.0, 4)
        assert sorted(counts.values()) == [1, 2]

    def test_lambda_one_always_replay(self):
        plans = compose_batch(self.DIST, 8, replay_lambda=1.0,
                              draws=[fresh_draws(seed) for seed in range(10)])
        assert plans == [{}] * 10

    def test_lambda_zero_never_replay(self):
        for counts in compose_batch(self.DIST, 8, 0.0, [fresh_draws(seed) for seed in range(10)]):
            assert set(counts) == {"a", "b", "c"} and sum(counts.values()) == 8

    def test_minimum_slot_guarantee(self):
        dist = TaskDistribution((("a", 0.9), ("b", 0.1)))
        counts = self.plan(dist, 10, 0.0, 2)
        assert counts["b"] >= 1

    def test_deterministic(self):
        assert self.plan(self.DIST, 16, 0.5, 9) == self.plan(self.DIST, 16, 0.5, 9)

    def test_an_empty_interval_plans_nothing(self):
        assert compose_batch(self.DIST, 16, 0.5, []) == []

    def test_expected_slots_monte_carlo(self):
        # E[slots(task)] = batch * P(task) * (1 - lambda) within 1% at 1e5 draws
        batch, lam = 8, 0.25
        totals = Counter()
        draws = 100_000
        for counts in compose_batch(self.DIST, batch, lam, [fresh_draws(s) for s in range(draws)]):
            totals.update(counts)
        for task, p in self.DIST.probs:
            expected = batch * p * (1 - lam)
            assert totals[task] / draws == pytest.approx(expected, rel=0.01)


def fresh_compose_batch(dist, batch_size, replay_lambda, seed):
    """One step's plan straight from its seed, with a new generator seeded
    on every call: what `compose_batch` must give for that step's
    `fresh_draws(seed)` in any interval."""
    rng = random.Random(seed)
    if rng.random() < replay_lambda:
        return {}
    quotas = [(task, batch_size * p) for task, p in dist.probs]
    counts = {task: int(quota) for task, quota in quotas}
    leftover = batch_size - sum(counts.values())
    if leftover:
        remainders = [(task, quota - int(quota)) for task, quota in quotas]
        total = sum(r for _, r in remainders)
        mark = rng.random() * total / leftover
        step = total / leftover
        cumulative = 0.0
        for task, remainder in remainders:
            cumulative += remainder
            while mark < cumulative and leftover:
                counts[task] += 1
                leftover -= 1
                mark += step
        if leftover:
            for task, _r in sorted(remainders, key=lambda item: -item[1])[:leftover]:
                counts[task] += 1
    return counts


class TestIntervalPlans:
    """Each step's two draws, the replay draw and then the mark as a
    generator gives them, plan the batches that generator would, also when
    one call plans a whole interval of steps."""

    # 10 splits evenly over these shares; 7 and 13 leave slots over.
    DIST = TaskDistribution((("a", 0.5), ("b", 0.3), ("c", 0.2)))
    SEEDS = range(2048)

    def test_counts_match_a_fresh_generator(self):
        # One call over every seed's draws, so a plan that leaked into the
        # next step (a shared or mutated floor dict) shows as a mismatch.
        draws = [fresh_draws(seed) for seed in self.SEEDS]
        for replay_lambda in (0.0, 0.5, 1.0):
            for batch_size in (10, 7, 13):
                plans = compose_batch(self.DIST, batch_size, replay_lambda, draws)
                assert plans == [fresh_compose_batch(self.DIST, batch_size, replay_lambda, seed)
                                 for seed in self.SEEDS]
                assert len({id(plan) for plan in plans}) == len(plans)

    @pytest.mark.parametrize("replay_lambda", [-0.1, 1.5, math.nan])
    def test_replay_lambda_outside_the_unit_interval_is_refused(self, replay_lambda):
        with pytest.raises(ValueError, match="replay_lambda"):
            compose_batch(self.DIST, 8, replay_lambda, [fresh_draws(1)])


class TestFeedInterfaces:
    FEED = "\n".join(
        f"{i}\t{task}\t{acc}"
        for i in range(1, 5)
        for task, acc in (("a", 0.8), ("b", 0.8))
    )

    def test_read_feed(self):
        history = read_accuracy_feed(self.FEED.splitlines())
        assert len(history) == 4
        assert [row["a"] for row in rows_of(history)] == [0.8, 0.8, 0.8, 0.8]

    def test_repeated_record_names_its_line(self):
        lines = ["# header", "1\ta\t0.5", "1\tb\t0.5", "1\ta\t0.9"]
        with pytest.raises(ValueError, match="^line 4: checkpoint 1 records task 'a' again$"):
            read_accuracy_feed(lines)

    def test_plateaued_error_feed_gives_uniform_trace(self):
        history = read_accuracy_feed(self.FEED.splitlines())
        config = SamplerConfig(strategy=Strategy.ERROR)
        trace = replay_feed(history, config)
        assert len(trace) == 4
        for _checkpoint, dist in trace:
            assert dist.prob("a") == dist.prob("b") == 0.5

    def test_replay_keeps_the_feed_checkpoint_numbers(self):
        # The numbers order and label the rows; a gap or a negative number
        # stays as the feed gives it, and a momentum window counts rows.
        feed = {2: (0.5, 0.5), 5: (0.9, 0.6), -3: (0.1, 0.7)}
        lines = [f"{i}\t{task}\t{acc}" for i, accs in feed.items() for task, acc in zip("ab", accs)]
        history = read_accuracy_feed(lines)
        assert checkpoints_of(history) == [-3, 2, 5]
        assert [row["a"] for row in rows_of(history)] == [0.1, 0.5, 0.9]
        trace = replay_feed(history, SamplerConfig(strategy=Strategy.ERROR))
        assert [checkpoint for checkpoint, _ in trace] == [-3, 2, 5]
        assert trace[0][1].prob("a") == pytest.approx(0.9 / 1.2)
        momentum = replay_feed(history, SamplerConfig(strategy=Strategy.MOMENTUM, window=2,
                                                      smoothing=1, eps=0.1))
        assert momentum[1][1].prob("a") == pytest.approx(0.4 / 0.6)

    def test_trace_format(self):
        lines = format_distribution_trace(3, uniform(["a", "b"]))
        assert lines == ["3\ta\t0.5", "3\tb\t0.5"]

    @staticmethod
    def _pinned_feed() -> list[str]:
        """120 checkpoints x 5 tasks: four noisy rising curves and one task
        stuck at 0, with a plateau where every momentum weight sits at the
        floor."""
        rng = random.Random(11)
        lines = []
        for i in range(1, 121):
            for t in range(5):
                acc = 0.0 if t == 4 else min(1.0, 0.9 * (1 - 0.97 ** (i * (t + 1)))
                                             + rng.random() * 0.05)
                if 60 <= i < 80:
                    acc = 0.5
                lines.append(f"{i}\ttask{t}\t{acc:.4f}")
        return lines

    def test_replay_output_is_pinned(self):
        # The digest of every strategy's replayed trace; replay speed-ups
        # must leave these bytes unchanged.
        history = read_accuracy_feed(self._pinned_feed())
        digest = hashlib.sha256()
        for strategy in Strategy:
            for checkpoint, dist in replay_feed(history, SamplerConfig(strategy=strategy)):
                digest.update("\n".join(format_distribution_trace(checkpoint, dist)).encode()
                              + b"\n")
        assert digest.hexdigest() == (
            "f7c2055e856a6f2bbc74dfc3eb41a910b0c211a2ab700c4f2b39c4950aeed918")


def _feeds():
    """A feed and a config for one replay: 1-5 tasks, 1-40 checkpoints
    numbered with gaps and negatives and listed in any order, their lines
    contiguous or interleaved with other checkpoints' lines, plateaus (a row
    repeating the one before) and accuracies of exactly 0 and 1."""
    @st.composite
    def build(draw):
        n_tasks = draw(st.integers(min_value=1, max_value=5))
        tasks = [f"t{i}" for i in range(n_tasks)]
        numbers = draw(st.lists(st.integers(min_value=-20, max_value=200), min_size=1,
                                max_size=40, unique=True))
        accuracy = st.one_of(st.sampled_from([0.0, 1.0, 0.5]),
                             st.floats(min_value=0.0, max_value=1.0))
        rows = []
        for _ in numbers:
            if rows and draw(st.booleans()):
                rows.append(rows[-1])
            else:
                rows.append([draw(accuracy) for _ in tasks])
        lines = [f"{number}\t{task}\t{acc!r}" for number, row in zip(numbers, rows)
                 for task, acc in zip(tasks, row)]
        if draw(st.booleans()):
            lines = draw(st.permutations(lines))
        window = draw(st.integers(min_value=1, max_value=6))
        config = SamplerConfig(
            strategy=draw(st.sampled_from(list(Strategy))),
            window=window,
            smoothing=draw(st.integers(min_value=1, max_value=window)),
            eps=draw(st.floats(min_value=0.0, max_value=1.0 / n_tasks, exclude_max=True)),
        )
        return lines, config
    return build()


def _reference_replay(history: AccuracyHistory, config: SamplerConfig) -> list[str]:
    """The replay as formatted lines, with each row appended to a fresh
    history and momentum computed on plain lists of the rows so far."""
    partial = AccuracyHistory(history.tasks)
    seen = []
    lines = []
    for checkpoint, row in zip(checkpoints_of(history), rows_of(history)):
        partial.append(row)
        seen.append(row)
        if config.strategy is not Strategy.MOMENTUM:
            dist = on_checkpoint(partial, config)
        elif len(seen) < config.window:
            dist = uniform(history.tasks)
        else:
            k = config.smoothing
            weights = {}
            for task in history.tasks:
                window = [past[task] for past in seen[-config.window:]]
                weights[task] = max(abs(sum(window[-k:]) / k - sum(window[:k]) / k), config.eps)
            if all(w <= config.eps for w in weights.values()) or sum(weights.values()) == 0:
                dist = uniform(history.tasks)
            else:
                total = sum(weights.values())
                dist = TaskDistribution(tuple((task, w / total) for task, w in weights.items()))
        lines += format_distribution_trace(checkpoint, dist)
    return lines


class TestReplay:
    @given(_feeds())
    def test_replay_matches_the_reference(self, feed):
        lines, config = feed
        history = read_accuracy_feed(lines)
        replayed = [line for checkpoint, dist in replay_feed(history, config)
                    for line in format_distribution_trace(checkpoint, dist)]
        assert replayed == _reference_replay(history, config)

    def test_replay_leaves_the_history_as_it_was(self):
        history = history_of({"a": [0.1, 0.4, 0.2], "b": [0.9, 0.5, 0.6]})
        replay_feed(history, SamplerConfig(strategy=Strategy.MOMENTUM, window=2, smoothing=1))
        assert len(history) == 3
        assert checkpoints_of(history) == [1, 2, 3]
        assert history.latest() == {"a": 0.2, "b": 0.6}
        history.append({"a": 0.3, "b": 0.7})
        assert history.latest() == {"a": 0.3, "b": 0.7}
        assert [row["a"] for row in rows_of(history)] == [0.1, 0.4, 0.2, 0.3]

    def test_failed_append_leaves_the_history_as_it_was(self):
        history = history_of({"a": [0.1], "b": [0.9]})
        with pytest.raises(ValueError, match="accuracy out of range for b: 1.5"):
            history.append({"a": 0.2, "b": 1.5})
        assert len(history) == 1 and rows_of(history) == [{"a": 0.1, "b": 0.9}]
        history.append({"a": 0.3, "b": 0.8})
        assert rows_of(history) == [{"a": 0.1, "b": 0.9}, {"a": 0.3, "b": 0.8}]


class TestAccuracyHistory:
    @pytest.mark.parametrize("tasks, message", [
        ([], "at least one task required"),
        (["a", "a"], "task 'a' is named twice"),
        (["a", "b", "a"], "task 'a' is named twice"),
        (("b", "a", "b", "a"), "task 'b' is named twice"),
    ])
    def test_empty_or_repeated_task_list_refused(self, tasks, message):
        with pytest.raises(ValueError, match=message):
            AccuracyHistory(tasks)


class TestEntropy:
    def test_uniform_entropy_is_log_n(self):
        assert uniform(TASKS16).entropy() == pytest.approx(math.log(16), abs=1e-12)

    def test_point_mass_entropy_is_positive_zero(self):
        entropy = TaskDistribution((("a", 1.0),)).entropy()
        assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0

    def test_concentrated_entropy_lower(self):
        dist = TaskDistribution((("a", 0.97), ("b", 0.01), ("c", 0.01), ("d", 0.01)))
        assert dist.entropy() < uniform(["a", "b", "c", "d"]).entropy()
