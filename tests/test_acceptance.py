"""Acceptance suite.

Each test prints one PASS/FAIL line. The desk corpus is generated once per
session: every hand-built fixture table plus ~95 synthetic tables, expanded
through all sixteen generators with the default per-(generator, table) cap
of ten examples.
"""

import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tabrc
from fixtures import HAND_TABLES, typed
from tablegen import make_table, write_dump
from tabrc import oracle
from tabrc.facts import FactKind, FactPool, build_context
from tabrc.generators import GeneratorKind, derive_seed, generate
from tabrc.pipeline import GenerationSettings, build_record, example_id, generate_corpus
from tabrc.sampling import SamplerConfig, Strategy, error_sampling, momentum_sampling, uniform
from tabrc.sampling import AccuracyHistory
from tabrc.shared import seed_deriver
from tabrc.stats import corpus_stats
from tabrc.simulation import LearnerTask, SimulationConfig, run_simulation, two_task_report
from tabrc.tables import ingest, raw_table_from_json

SEED = 20240
SYNTH_TABLES = 95


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")


class DeskCorpus:
    def __init__(self):
        start = time.perf_counter()
        self.tables = {}
        self.examples = []  # (table, kind, triplet, context, record)
        sources = list(HAND_TABLES) + [make_table(i, seed=101) for i in range(SYNTH_TABLES)]
        for source in sources:
            table = ingest(raw_table_from_json(source))
            self.tables[table.meta.id] = table
            pool = FactPool(table)
            for kind in GeneratorKind:
                id_of = seed_deriver(table.meta.id, kind.value)
                for triplet in generate(table, kind, SEED, cap=10):
                    record_id = example_id(id_of, triplet)
                    ctx_seed = derive_seed(SEED, table.meta.id, kind.value, record_id, "context")
                    context = build_context(pool, triplet.gold, ctx_seed)
                    record = build_record(table, kind, triplet, context, record_id)
                    self.examples.append((table, kind, triplet, context, record))
        self.build_seconds = time.perf_counter() - start
        self._queries = None

    def queries(self):
        """Parsed queries, aligned with examples; parse failures become None."""
        if self._queries is None:
            parsed = []
            for table, kind, triplet, _context, _record in self.examples:
                try:
                    parsed.append(oracle.parse_question(table, kind, triplet.instantiation.question))
                except oracle.QuestionParseError:
                    parsed.append(None)
            self._queries = parsed
        return self._queries


@pytest.fixture(scope="session")
def corpus():
    return DeskCorpus()


def test_criterion_1_oracle_equivalence(corpus):
    start = time.perf_counter()
    mismatches = 0
    kinds_seen = set()
    for (table, kind, triplet, _context, _record), query in zip(corpus.examples, corpus.queries()):
        kinds_seen.add(kind)
        if query is None:
            mismatches += 1
            continue
        result = oracle.table_answer(table, query)
        if (result is None or result[0] is not triplet.answer.kind
                or not oracle.answers_match(kind, triplet.answer.values, result[1])):
            mismatches += 1
    elapsed = corpus.build_seconds + (time.perf_counter() - start)

    total = len(corpus.examples)
    ok = total >= 10_000 and len(corpus.tables) >= 100 and len(kinds_seen) == 16 \
        and mismatches == 0 and elapsed < 60.0
    _verdict("1 oracle equivalence",
             ok, f"{total} examples, {len(corpus.tables)} tables, "
                 f"{mismatches} mismatches, {elapsed:.1f}s")
    assert total >= 10_000
    assert len(corpus.tables) >= 100
    assert len(kinds_seen) == 16
    assert mismatches == 0
    assert elapsed < 60.0


def test_criterion_2_gold_sufficiency_distractor_irrelevance(corpus):
    rng = random.Random(4242)
    failures = 0
    for (table, kind, triplet, context, _record), query in zip(corpus.examples, corpus.queries()):
        if query is None:
            failures += 1
            continue
        gold = [f.text for f in context.facts if f.kind is FactKind.GOLD]
        distractors = [f.text for f in context.facts if f.kind is FactKind.DISTRACTOR]
        result = oracle.facts_answer(query, gold)
        if result is None or not oracle.answers_match(kind, triplet.answer.values, result[1]):
            failures += 1
            continue
        for _ in range(5):
            kept = [d for d in distractors if rng.random() < 0.5]
            result = oracle.facts_answer(query, gold + kept)
            if result is None or not oracle.answers_match(kind, triplet.answer.values, result[1]):
                failures += 1
                break
    _verdict("2 gold sufficiency / distractor irrelevance", failures == 0,
             f"{failures} failures over {len(corpus.examples)} examples x 5 subsets")
    assert failures == 0


def test_criterion_3_worked_example(corpus):
    table = typed(HAND_TABLES[0])
    comparison = generate(table, GeneratorKind.NUMBER_COMPARISON, SEED, cap=None)
    comparison_hit = [
        t for t in comparison
        if "which Round had a higher Attendance: QF or QFR?" in t.instantiation.question
    ]
    composition = generate(table, GeneratorKind.COMPOSITION_2HOP, SEED, cap=None)
    composition_hit = [
        t for t in composition
        if "What was the Result(s) when the Round was R4" in t.instantiation.question
    ]
    superlative = generate(table, GeneratorKind.NUMBER_SUPERLATIVE, SEED, cap=None)
    superlative_hit = [
        t for t in superlative
        if re.search(r"[Ww]hich Opponent has the highest Attendance", t.instantiation.question)
    ]

    ok = (len(comparison_hit) == 1 and comparison_hit[0].answer.values == ("QF",)
          and len(composition_hit) >= 1
          and all(t.answer.values == ("2-1",) for t in composition_hit)
          and len(superlative_hit) >= 1
          and all(t.answer.values == ("Sheffield Wednesday",) for t in superlative_hit))

    facts_ok = False
    if comparison_hit:
        ctx = build_context(FactPool(table), comparison_hit[0].gold, 7)
        gold_texts = {f.text for f in ctx.facts if f.kind is FactKind.GOLD}
        facts_ok = gold_texts == {
            "The Attendance when the Round was QF was 34,178",
            "The Attendance when the Round was QFR was 33,861",
        }
    plural_ok = False
    if superlative_hit:
        ctx = build_context(FactPool(table), superlative_hit[0].gold, 7)
        texts = {f.text for f in ctx.facts if f.kind is FactKind.GOLD}
        plural_ok = "The attendances when the opponent was Walsall were 5,666 and 10,037" in texts

    _verdict("3 worked example (answers QF / 2-1 / Sheffield Wednesday)",
             ok and facts_ok and plural_ok)
    assert comparison_hit and comparison_hit[0].answer.values == ("QF",)
    assert composition_hit and all(t.answer.values == ("2-1",) for t in composition_hit)
    assert superlative_hit and all(t.answer.values == ("Sheffield Wednesday",)
                                   for t in superlative_hit)
    assert facts_ok
    assert plural_ok


def test_criterion_4_sampler_exactness():
    rng = random.Random(11)
    worst = 0.0
    for _ in range(500):
        accs = {f"t{i}": rng.random() for i in range(rng.randint(2, 16))}
        dist = error_sampling(accs)
        total = sum(1.0 - a for a in accs.values())
        for task, acc in accs.items():
            worst = max(worst, abs(dist.prob(task) - (1.0 - acc) / total))
    error_ok = worst < 1e-9

    config = SamplerConfig(strategy=Strategy.MOMENTUM, window=4, smoothing=2, eps=0.002)
    history = AccuracyHistory(["a", "b"])
    for acc_a, acc_b in zip([0.0, 0.0, 0.5, 0.9], [0.8, 0.8, 0.8, 0.8]):
        history.append({"a": acc_a, "b": acc_b})
    dist = momentum_sampling(history, config)
    hand_ok = (abs(dist.prob("a") - 0.99715) <= 1e-5
               and abs(dist.prob("b") - 0.00285) <= 1e-5)

    warm = AccuracyHistory(["a", "b"])
    warm.append({"a": 0.1, "b": 0.9})
    warm_ok = momentum_sampling(warm, config).probs == uniform(["a", "b"]).probs

    plateau = AccuracyHistory([f"t{i}" for i in range(16)])
    for _ in range(6):
        plateau.append({f"t{i}": 0.75 for i in range(16)})
    plateau_ok = momentum_sampling(plateau, config).probs == uniform(
        [f"t{i}" for i in range(16)]).probs

    ok = error_ok and hand_ok and warm_ok and plateau_ok
    _verdict("4 sampler exactness", ok,
             f"error dev {worst:.1e}, momentum {dist.prob('a'):.6f}/{dist.prob('b'):.6f}")
    assert error_ok and hand_ok and warm_ok and plateau_ok


def test_criterion_5_two_task_orderings():
    gold_passes = noisy_passes = concentration_passes = 0
    for seed in range(10):
        report = two_task_report(seed)
        gold_passes += report.gold_ordering_holds()
        noisy_passes += report.noisy_ordering_holds()
        concentration_passes += report.error_concentrates_on_noise()
    ok = gold_passes >= 9 and noisy_passes >= 9 and concentration_passes >= 9
    _verdict("5 two-task orderings", ok,
             f"gold {gold_passes}/10, noisy {noisy_passes}/10, "
             f"error concentration {concentration_passes}/10")
    assert gold_passes >= 9
    assert noisy_passes >= 9
    assert concentration_passes >= 9


def test_criterion_6_entropy_behavior():
    plateau_tasks = tuple(LearnerTask(f"t{i:02d}", rate=50.0 + 10.0 * i) for i in range(16))
    momentum = run_simulation(SimulationConfig(
        sampler=SamplerConfig(strategy=Strategy.MOMENTUM, replay_lambda=0.0),
        tasks=plateau_tasks, batch_size=64, steps_per_checkpoint=10, checkpoints=60), seed=0)
    momentum_gap = abs(momentum[-1].entropy - math.log(16))

    capped = plateau_tasks[:15] + (LearnerTask("t15", rate=60.0, ceiling=0.7),)
    error = run_simulation(SimulationConfig(
        sampler=SamplerConfig(strategy=Strategy.ERROR, replay_lambda=0.0),
        tasks=capped, batch_size=64, steps_per_checkpoint=10, checkpoints=60), seed=0)
    error_entropy = error[-1].entropy

    ok = momentum_gap < 0.01 and error_entropy < momentum[-1].entropy
    _verdict("6 entropy behavior", ok,
             f"momentum within {momentum_gap:.2e} nats of log16, error {error_entropy:.3f}")
    assert momentum_gap < 0.01
    assert error_entropy < momentum[-1].entropy


def test_criterion_7_corpus_shape(corpus):
    lines = [json.dumps(record, ensure_ascii=False) for *_rest, record in corpus.examples]
    stats = corpus_stats(lines)

    buckets_ok = all(stats.answer_pcts.get(bucket, 0.0) >= 5.0
                     for bucket in ("span", "yes_no", "numeric", "date"))
    distractor_ok = 3.0 <= stats.distractor_facts[0] <= 7.0

    per_pair = {}
    for _table, kind, _triplet, _context, record in corpus.examples:
        key = (record["source"]["table_id"], kind)
        per_pair[key] = per_pair.get(key, 0) + 1
    cap_ok = max(per_pair.values()) <= 10

    text = "\n".join(stats.lines())
    fields_ok = all(key in text for key in (
        "distinct_questions", "distinct_tables", "distinct_pages", "avg_question_words",
        "avg_context_words", "avg_gold_facts", "avg_distractor_facts", "distinct_words",
        "pct_span_answers", "pct_yes_no_answers", "pct_numeric_answers", "pct_date_answers"))

    ok = buckets_ok and distractor_ok and cap_ok and fields_ok
    _verdict("7 corpus shape", ok,
             f"pcts {stats.answer_pcts}, mean distractors {stats.distractor_facts[0]:.2f}")
    assert buckets_ok, stats.answer_pcts
    assert distractor_ok, stats.distractor_facts
    assert cap_ok
    assert fields_ok


MEMORY_CEILING_KB = 200 * 1024


def test_criterion_8_determinism_and_throughput(tmp_path_factory):
    base = tmp_path_factory.mktemp("scale")
    small = base / "hand.jsonl"
    with open(small, "w", encoding="utf-8") as out:
        for record in HAND_TABLES:
            out.write(json.dumps(record) + "\n")
    out_a, out_b = str(base / "a.jsonl"), str(base / "b.jsonl")
    generate_corpus(str(small), out_a, GenerationSettings(seed=SEED, workers=1))
    generate_corpus(str(small), out_b, GenerationSettings(seed=SEED, workers=2))
    deterministic = Path(out_a).read_bytes() == Path(out_b).read_bytes()

    dump = str(base / "big.jsonl")
    write_dump(dump, 10_000, seed=5, min_rows=10, max_rows=10)
    big_out = str(base / "big_out.jsonl")
    # ru_maxrss of this subprocess is useless for SELF: it keeps the
    # high-water mark of the forked pytest image from before exec. Poll
    # VmRSS instead; pool workers fork from the (small) probe, so their
    # ru_maxrss lands cleanly in RUSAGE_CHILDREN.
    probe = (
        "import resource, sys, threading, time\n"
        "peak = [0]\n"
        "def poll():\n"
        "    while True:\n"
        "        with open('/proc/self/status') as h:\n"
        "            for line in h:\n"
        "                if line.startswith('VmRSS:'):\n"
        "                    peak[0] = max(peak[0], int(line.split()[1]))\n"
        "        time.sleep(0.02)\n"
        "threading.Thread(target=poll, daemon=True).start()\n"
        "from tabrc.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "total = max(peak[0], resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        "print(f'PEAK_RSS_KB={total}')\n"
        "sys.exit(code)\n"
    )
    # The probe imports the same tabrc as this test, however the test run
    # put it on sys.path.
    src = os.path.dirname(os.path.dirname(tabrc.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", probe, "generate", "--input", dump, "--output", big_out,
         "--egs", "counting", "--seed", "5", "--workers", "2"],
        capture_output=True, text=True, timeout=300, env=env)
    peak_kb = None
    for line in run.stdout.splitlines():
        if line.startswith("PEAK_RSS_KB="):
            peak_kb = int(line.split("=", 1)[1])
    memory_ok = run.returncode == 0 and peak_kb is not None and peak_kb < MEMORY_CEILING_KB

    ids = []
    with open(big_out, encoding="utf-8") as handle:
        for line in handle:
            ids.append(json.loads(line)["source"]["table_id"])
    order_ok = ids == sorted(ids)
    with open(dump, encoding="utf-8") as handle:
        rows_processed = sum(1 for _ in handle) * 10

    ok = deterministic and memory_ok and order_ok and rows_processed >= 100_000
    _verdict("8 determinism & throughput", ok,
             f"peak rss {peak_kb} KB (< {MEMORY_CEILING_KB}), "
             f"{rows_processed} rows, order stable {order_ok}")
    assert deterministic
    assert memory_ok, (run.returncode, peak_kb, run.stderr[-500:])
    assert order_ok
    assert rows_processed >= 100_000
