import hashlib
import math

import pytest

from tabrc.sampling import SamplerConfig, Strategy, compose_batch
from tabrc.simulation import (
    FAST_TASK,
    SLOW_TASK,
    LearnerTask,
    SimulationConfig,
    examples_to_threshold,
    run_simulation,
    report_lines,
    trace_lines,
    two_task_config,
    two_task_report,
)


def config_for(strategy, tasks, **kwargs):
    sampler = SamplerConfig(strategy=strategy, replay_lambda=kwargs.pop("replay_lambda", 0.0))
    return SimulationConfig(sampler=sampler, tasks=tuple(tasks), **kwargs)


class TestSimulationConfig:
    TASKS = (LearnerTask("a", rate=100.0),)

    @pytest.mark.parametrize("tasks, kwargs", [
        pytest.param((), {}, id="no-tasks"),
        pytest.param(TASKS, {"batch_size": 0}, id="empty-batch"),
        pytest.param(TASKS, {"checkpoints": 0}, id="no-checkpoints"),
    ])
    def test_invalid_config_raises(self, tasks, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(SamplerConfig(), tasks, **kwargs)

    def test_repeated_task_name_refused(self):
        tasks = (LearnerTask("a", 100.0), LearnerTask("a", 900.0), LearnerTask("b", 300.0))
        with pytest.raises(ValueError, match="task 'a' is named twice"):
            SimulationConfig(SamplerConfig(), tasks)

    def test_positional_and_keyword_build_the_same_config(self):
        sampler = SamplerConfig(Strategy.ERROR)
        by_position = SimulationConfig(sampler, self.TASKS, 32, 5, 7)
        by_keyword = SimulationConfig(sampler=sampler, tasks=self.TASKS, batch_size=32,
                                      steps_per_checkpoint=5, checkpoints=7)
        assert by_position == by_keyword
        defaults = SimulationConfig(sampler, self.TASKS)
        assert defaults == SimulationConfig(sampler, self.TASKS, 64, 10, 40)
        assert (defaults.batch_size, defaults.steps_per_checkpoint, defaults.checkpoints) == (
            64, 10, 40)


class TestRunSimulation:
    def test_single_task_gets_everything_and_follows_curve(self):
        task = LearnerTask("solo", rate=500.0)
        for strategy in Strategy:
            config = config_for(strategy, [task], batch_size=20, steps_per_checkpoint=5,
                                checkpoints=4)
            trace = run_simulation(config, seed=0)
            for i, record in enumerate(trace, start=1):
                n = 20 * 5 * i
                assert record.examples["solo"] == n
                assert record.accuracies["solo"] == pytest.approx(1 - math.exp(-n / 500.0))

    def test_two_equal_tasks_under_uniform_stay_symmetric(self):
        tasks = [LearnerTask("a", rate=300.0), LearnerTask("b", rate=300.0)]
        config = config_for(Strategy.UNIFORM, tasks, batch_size=10, steps_per_checkpoint=4,
                            checkpoints=6)
        trace = run_simulation(config, seed=3)
        for record in trace:
            assert record.examples["a"] == record.examples["b"]

    def test_deterministic_trace(self):
        tasks = [LearnerTask("a", rate=200.0), LearnerTask("b", rate=900.0)]
        config = config_for(Strategy.MOMENTUM, tasks, checkpoints=8)
        assert trace_lines(run_simulation(config, 11)) == trace_lines(run_simulation(config, 11))

    def test_replay_only_trains_nothing(self):
        tasks = [LearnerTask("a", rate=100.0)]
        config = config_for(Strategy.UNIFORM, tasks, replay_lambda=1.0, checkpoints=3)
        trace = run_simulation(config, seed=1)
        assert trace[-1].examples["a"] == 0
        assert trace[-1].accuracies["a"] == 0.0

    def test_a_task_named_replay_trains(self):
        tasks = [LearnerTask("replay", rate=100.0), LearnerTask("b", rate=300.0)]
        config = config_for(Strategy.UNIFORM, tasks, batch_size=10, steps_per_checkpoint=5,
                            checkpoints=3)
        assert run_simulation(config, seed=0)[-1].examples == {"replay": 75, "b": 75}

    def test_accuracy_stays_below_ceiling_and_is_monotone(self):
        tasks = [LearnerTask("a", rate=50.0, ceiling=0.7), LearnerTask("b", rate=400.0)]
        config = config_for(Strategy.ERROR, tasks, checkpoints=12)
        trace = run_simulation(config, seed=2)
        previous = {"a": 0.0, "b": 0.0}
        for record in trace:
            for task in ("a", "b"):
                assert previous[task] <= record.accuracies[task] < 1.0
                previous[task] = record.accuracies[task]
        # below the ceiling throughout (equality only at float saturation)
        assert trace[2].accuracies["a"] < 0.7
        assert trace[-1].accuracies["a"] <= 0.7

    def test_one_compose_batch_call_plans_each_checkpoint(self, monkeypatch):
        intervals = []

        def counted(dist, batch_size, replay_lambda, draws):
            intervals.append(len(draws))
            return compose_batch(dist, batch_size, replay_lambda, draws)

        monkeypatch.setattr("tabrc.simulation.compose_batch", counted)
        config = config_for(Strategy.MOMENTUM, [LearnerTask("a", 100.0), LearnerTask("b", 900.0)],
                            batch_size=7, steps_per_checkpoint=3, checkpoints=5,
                            replay_lambda=0.5)
        run_simulation(config, 11)
        assert intervals == [3] * 5

    def test_runs_of_one_seed_receive_the_same_draws(self, monkeypatch):
        """Common random numbers: every run of one seed is handed the same
        draws at every step, whatever its strategy, condition or replay share."""
        runs = []

        def recorded_run(config, seed):
            runs.append([])
            return run_simulation(config, seed)

        def recorded_compose(dist, batch_size, replay_lambda, draws):
            runs[-1].extend(draws)
            return compose_batch(dist, batch_size, replay_lambda, draws)

        monkeypatch.setattr("tabrc.simulation.run_simulation", recorded_run)
        monkeypatch.setattr("tabrc.simulation.compose_batch", recorded_compose)
        two_task_report(3)
        assert len(runs) == 6 and len(runs[0]) == 60 * 10
        assert all(draws == runs[0] for draws in runs)

        tasks = [LearnerTask(f"t{i}", rate=100.0 * (i + 1)) for i in range(3)]
        for strategy, seed in ((Strategy.MOMENTUM, 3), (Strategy.UNIFORM, 3),
                               (Strategy.MOMENTUM, 4)):
            recorded_run(config_for(strategy, tasks, replay_lambda=0.5), seed)
        momentum, uniform, other_seed = runs[-3:]
        assert len(momentum) == 40 * 10
        assert momentum == uniform != other_seed


class TestTwoTaskReport:
    def test_orderings_hold_on_default_parameters(self):
        report = two_task_report(seed=0)
        assert report.gold_ordering_holds()
        assert report.noisy_ordering_holds()
        assert report.error_concentrates_on_noise()

    def test_momentum_trails_error_during_warm_start(self):
        report = two_task_report(seed=1)
        window = 4
        momentum = report.gold[Strategy.MOMENTUM]
        error = report.gold[Strategy.ERROR]
        for i in range(window):
            assert momentum[i].accuracies[SLOW_TASK] <= error[i].accuracies[SLOW_TASK] + 1e-9

    def test_noisy_momentum_converges_toward_uniform(self):
        report = two_task_report(seed=2)
        final = report.noisy[Strategy.MOMENTUM][-1]
        assert final.entropy == pytest.approx(math.log(2), abs=0.01)

    def test_verdicts_hold_across_the_preset_seeds(self):
        # Every 400th of seeds 0-19,999, the range the benchmark's presets
        # draw from, so a seed-stream change that fails a verdict there shows.
        failing = [seed for seed in range(0, 20000, 400) if not two_task_report(seed).all_hold()]
        assert failing == []

    def test_report_lines_contain_verdicts(self):
        lines = report_lines(two_task_report(seed=0))
        verdicts = [line for line in lines if line.startswith("verdict")]
        assert len(verdicts) == 3
        assert all(line.endswith("pass") for line in verdicts)


class TestPinnedOutput:
    # sha256 of outputs that batch composition and the two-task verdicts feed
    # into; code changes that keep behaviour must keep these bytes. Pinned at
    # schedule stream v2: one generator per run, two floats per step.
    @staticmethod
    def _sha256(lines):
        return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()

    def test_two_task_report_pinned(self):
        assert self._sha256(report_lines(two_task_report(0))) == (
            "4a4f5fbe1d58da5c170de33d5064c24ae27bd368b4a4051a607874fb72efce2a")

    def test_momentum_trace_with_replay_pinned(self):
        tasks = [LearnerTask(f"task{i:02d}", rate=100.0 + 20.0 * i) for i in range(16)]
        config = config_for(Strategy.MOMENTUM, tasks, replay_lambda=0.5)
        assert self._sha256(trace_lines(run_simulation(config, 5))) == (
            "d01a6b9002ae43fc4931cdabea60e7e4444e846bcdedaff4e17dbc47242d7e0d")

    def test_every_two_task_trace_pinned(self):
        # All six runs' checkpoints, so a change that keeps the verdicts but
        # alters an intermediate distribution still shows.
        report = two_task_report(0)
        lines = [line for outcomes in (report.gold, report.noisy) for strategy in Strategy
                 for line in trace_lines(outcomes[strategy])]
        assert self._sha256(lines) == (
            "e1df66c9f4fe34eeda5d8c75780b4b3b0a196923e4ad95b9ad4e6187e30d8a92")


class TestEntropyBehavior:
    def test_momentum_entropy_reaches_log16_when_plateaued(self):
        tasks = [LearnerTask(f"t{i:02d}", rate=50.0 + 10.0 * i) for i in range(16)]
        config = config_for(Strategy.MOMENTUM, tasks, batch_size=64, steps_per_checkpoint=10,
                            checkpoints=60)
        trace = run_simulation(config, seed=5)
        assert abs(trace[-1].entropy - math.log(16)) < 0.01

    def test_error_entropy_strictly_lower_with_a_low_ceiling_task(self):
        tasks = [LearnerTask(f"t{i:02d}", rate=50.0 + 10.0 * i) for i in range(15)]
        tasks.append(LearnerTask("t15", rate=50.0, ceiling=0.7))
        config = config_for(Strategy.ERROR, tasks, batch_size=64, steps_per_checkpoint=10,
                            checkpoints=60)
        trace = run_simulation(config, seed=5)
        assert trace[-1].entropy < math.log(16) - 0.5

    def test_error_entropy_roughly_constant_once_one_task_dominates(self):
        # the dominated tasks are starved, so their error rates freeze and
        # the distribution (hence its entropy) stops moving
        tasks = [LearnerTask(f"t{i:02d}", rate=50.0 + 10.0 * i) for i in range(15)]
        tasks.append(LearnerTask("t15", rate=50.0, ceiling=0.7))
        config = config_for(Strategy.ERROR, tasks, batch_size=64, steps_per_checkpoint=10,
                            checkpoints=200)
        trace = run_simulation(config, seed=5)
        assert trace[-1].distribution.prob("t15") > 0.9
        tail = [record.entropy for record in trace[-20:]]
        assert max(tail) - min(tail) < 0.05


class TestExamplesToThreshold:
    def test_reports_first_crossing(self):
        tasks = [LearnerTask("a", rate=100.0)]
        config = config_for(Strategy.UNIFORM, tasks, batch_size=10, steps_per_checkpoint=10,
                            checkpoints=10)
        trace = run_simulation(config, seed=0)
        crossing = examples_to_threshold(trace, "a", 0.6)
        assert crossing == 100  # 1 - exp(-100/100) = 0.632 at the first checkpoint

    def test_none_when_never_reached(self):
        tasks = [LearnerTask("a", rate=1e9)]
        config = config_for(Strategy.UNIFORM, tasks, checkpoints=3)
        trace = run_simulation(config, seed=0)
        assert examples_to_threshold(trace, "a", 0.9) is None
