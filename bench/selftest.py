"""Self-tests for the benchmark.

    python3 bench/selftest.py

They check that the workload inputs are a function of the seed, that the
output checker catches altered examples, that the wrappers fail loudly, and
that every workload passes a smoke run at tiny size, traced and untraced.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checker  # noqa: E402
import dumps  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


class InputsTest(unittest.TestCase):
    def test_inputs_are_deterministic_in_the_seed(self):
        self.assertEqual(dumps.clean_dump(3, 4), dumps.clean_dump(3, 4))
        self.assertEqual(dumps.dirty_dump(3, 6, 1), dumps.dirty_dump(3, 6, 1))
        self.assertEqual(dumps.accuracy_feed(3, 20, 4), dumps.accuracy_feed(3, 20, 4))
        self.assertNotEqual(dumps.clean_dump(3, 4), dumps.clean_dump(4, 4))
        self.assertNotEqual(dumps.dirty_dump(3, 6, 1), dumps.dirty_dump(4, 6, 1))
        self.assertNotEqual(dumps.accuracy_feed(3, 20, 4), dumps.accuracy_feed(4, 20, 4))

    def test_dirty_dump_holds_every_record_kind(self):
        lines, expected = dumps.dirty_dump(5, 9, 2)
        self.assertEqual(len(lines), 9 + 2 + sum(expected.values()))
        self.assertEqual(set(expected), set(run.REJECT_REASONS))
        self.assertEqual(len(set(lines)), len(lines) - 2)
        text = "\n".join(lines)
        self.assertTrue(any(sep in text for sep in checker.SEPARATORS))
        self.assertIn('"n/a"', text)

    def test_dirty_dump_order_is_the_same_for_every_seed(self):
        def kinds(seed):
            lines, _expected = dumps.dirty_dump(seed, 12, 2)
            return [line[:12].replace(f"-{seed}", "-") for line in lines]

        self.assertEqual(kinds(3), kinds(4))


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from tabrc.pipeline import GenerationSettings, table_examples

        line = dumps.clean_dump(7, 1)[0]
        cls.table = checker.typed_tables([line])[json.loads(line)["id"]]
        cls.records = list(table_examples(cls.table, GenerationSettings(seed=7)))

    def test_generated_examples_pass(self):
        self.assertTrue(self.records)
        self.assertEqual([checker.check_example(self.table, r) for r in self.records],
                         [None] * len(self.records))

    def test_altered_answer_is_flagged(self):
        record = dict(self.records[0], answer={"kind": self.records[0]["answer"]["kind"],
                                               "values": ["altered"]})
        self.assertEqual(checker.check_example(self.table, record), "table")

    def test_altered_fact_count_is_flagged(self):
        record = dict(self.records[0], distractor_count=self.records[0]["distractor_count"] + 1)
        self.assertEqual(checker.check_example(self.table, record), "split")

    def test_momentum_reference_is_uniform_during_warm_start(self):
        reference = checker.momentum_reference(dumps.accuracy_feed(1, 6, 4), 4, 2, 0.002)
        self.assertEqual(reference[0], {f"task{i:02d}": 0.25 for i in range(4)})
        self.assertAlmostEqual(sum(reference[-1].values()), 1.0)


class OutcomeTest(unittest.TestCase):
    def test_repeated_operation_counts_once(self):
        outcome = run.Outcome()
        for ok in (True, False, False, True):
            outcome.op(ok, "output changed", key="same corpus.jsonl")
        outcome.op(True, "unused")
        self.assertEqual((outcome.attempted, outcome.failed), (2, 1))
        self.assertEqual(outcome.problems, ["output changed"])

    def test_speed_scale_is_nominal_over_the_mean_reference(self):
        nominal = run.REFERENCE_NOMINAL_S
        self.assertAlmostEqual(run.speed_scale(nominal, nominal), 1.0)
        self.assertAlmostEqual(run.speed_scale(nominal, 3 * nominal), 0.5)


class TracingTest(unittest.TestCase):
    def test_missing_name_fails_loudly(self):
        target = tracing.Target("tabrc.pipeline", "no_such_function", "x")
        with self.assertRaises(tracing.TraceError):
            with tracing.installed(tracing.Tracer(), [target]):
                pass

    def test_layer_without_calls_fails_loudly(self):
        with self.assertRaises(tracing.TraceError):
            tracing.require_calls(tracing.Tracer(), ["tables.ingest"])

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        tracer.call("outer", lambda: tracer.call("inner", sum, ([1],), {}), (), {})
        outer, inner = tracer.named("outer")[0], tracer.named("inner")[0]
        self.assertEqual(inner.parent, 0)
        self.assertAlmostEqual(tracer.self_seconds("outer"), outer.seconds - inner.seconds)

    def test_wrappers_are_removed_after_the_run(self):
        from tabrc import pipeline

        original = pipeline.build_context
        with tracing.installed(tracing.Tracer(), tracing.TARGETS):
            self.assertIsNot(pipeline.build_context, original)
        self.assertIs(pipeline.build_context, original)


TINY = {"CLEAN_TABLES": 3, "DIRTY_TABLES": 6, "DIRTY_REPEATS": 1, "PRESET_SEEDS": 1,
        "MOMENTUM_SEEDS": 1, "FEED_CHECKPOINTS": 30, "SETUP_ROUNDS": 1}


class SmokeTest(unittest.TestCase):
    def setUp(self):
        self.saved = {name: getattr(run, name) for name in TINY}
        for name, value in TINY.items():
            setattr(run, name, value)

    def tearDown(self):
        for name, value in self.saved.items():
            setattr(run, name, value)

    def result(self, workload: str, trace: int) -> dict:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run.main(["--workload", workload, "--seed", "2", "--seconds", "1",
                             "--trace", str(trace)])
        self.assertEqual(code, 0)
        return json.loads(stdout.getvalue().splitlines()[-1])

    def test_every_workload_passes_at_tiny_size(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self.result(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in spec[key]})
                    if workload != "corpus-dirty":
                        self.assertEqual(result["failed"], 0)

    def test_operation_counts_do_not_depend_on_the_run_length(self):
        counts = []
        for seconds in ("1", "4"):
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                run.main(["--workload", "schedule", "--seed", "2", "--seconds", seconds,
                          "--trace", "0"])
            result = json.loads(stdout.getvalue().splitlines()[-1])
            counts.append((result["attempted"], result["failed"]))
        self.assertEqual(counts[0], counts[1])

    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(BENCH.parent / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "schedule",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
