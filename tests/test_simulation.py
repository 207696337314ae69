import hashlib
import math

import pytest

from tabrc.sampling import SamplerConfig, Strategy
from tabrc.simulation import (
    FAST_TASK,
    SLOW_TASK,
    LearnerTask,
    SimulationConfig,
    examples_to_threshold,
    run_simulation,
    report_lines,
    trace_lines,
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


class TestTwoTaskReport:
    def test_orderings_hold_on_default_parameters(self):
        report = two_task_report(seed=0)
        assert report.gold_ordering_holds()
        assert report.noisy_ordering_holds()
        assert report.error_concentrates_on_noise()

    def test_momentum_trails_error_during_warm_start(self):
        report = two_task_report(seed=1)
        window = 4
        momentum = report.gold[Strategy.MOMENTUM].trace
        error = report.gold[Strategy.ERROR].trace
        for i in range(window):
            assert momentum[i].accuracies[SLOW_TASK] <= error[i].accuracies[SLOW_TASK] + 1e-9

    def test_noisy_momentum_converges_toward_uniform(self):
        report = two_task_report(seed=2)
        final = report.noisy[Strategy.MOMENTUM].trace[-1]
        assert final.entropy == pytest.approx(math.log(2), abs=0.01)

    def test_report_lines_contain_verdicts(self):
        lines = report_lines(two_task_report(seed=0))
        verdicts = [line for line in lines if line.startswith("verdict")]
        assert len(verdicts) == 3
        assert all(line.endswith("pass") for line in verdicts)


class TestPinnedOutput:
    # sha256 of outputs that batch composition and the two-task verdicts feed
    # into; code changes that keep behaviour must keep these bytes.
    @staticmethod
    def _sha256(lines):
        return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()

    def test_two_task_report_pinned(self):
        assert self._sha256(report_lines(two_task_report(0))) == (
            "971d26c412ea3092817d9c24bbf507566f2ea5c9c6706971dd78a38585cce66d")

    def test_momentum_trace_with_replay_pinned(self):
        tasks = [LearnerTask(f"task{i:02d}", rate=100.0 + 20.0 * i) for i in range(16)]
        config = config_for(Strategy.MOMENTUM, tasks, replay_lambda=0.5)
        assert self._sha256(trace_lines(run_simulation(config, 5))) == (
            "53e90774179a8d93cb5c62935b1deceaaf52152613d78e19f0f13df9fa1b3176")


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
