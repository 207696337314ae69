import random

from fixtures import chelsea
from roughgen import rough_table
from tabrc import facts
from tabrc.facts import (
    FACT_SEPARATOR,
    FactKind,
    FactPlan,
    FactPool,
    _render_plan,
    _sampled,
    build_context,
    gold_spec,
)
from tabrc.generators import GeneratorKind, generate
from tabrc.grammar import pluralize
from tabrc.tables import ingest, raw_table_from_json


def table():
    return chelsea()


def render_fact(t, subject_col, key_col, key_rows):
    """The gold fact stating the subject column over `key_rows`, keyed by the
    key column."""
    return _render_plan(t, FactPlan(subject_col, (key_col,), tuple(key_rows)), FactKind.GOLD)


class CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


class TestSampled:
    def test_full_consumption_is_a_permutation(self):
        items = list(range(50))
        assert sorted(_sampled(random.Random(4), list(items))) == items

    def test_stopping_after_k_items_makes_k_draws(self):
        for k in (0, 1, 3, 10):
            rng = CountingRandom(7)
            taken = [x for _, x in zip(range(k), _sampled(rng, list(range(10))))]
            assert len(taken) == k
            assert rng.draws == k

    def test_fixed_seed_repeats(self):
        first = list(_sampled(random.Random(11), list("abcdefgh")))
        assert list(_sampled(random.Random(11), list("abcdefgh"))) == first

    def test_every_order_of_three_occurs(self):
        orders = {tuple(_sampled(random.Random(seed), [1, 2, 3])) for seed in range(200)}
        assert len(orders) == 6

    def test_read_only_draws_match_in_place_fisher_yates(self):
        # The reference: swap within a list, take the item swapped to i.
        def in_place(rng, items, k):
            items, taken = list(items), []
            for i in range(min(k, len(items))):
                j = rng.randrange(i, len(items))
                items[i], items[j] = items[j], items[i]
                taken.append(items[i])
            return taken

        for n in (0, 1, 2, 3, 7, 40):
            items = tuple(range(100, 100 + n))
            for k in sorted({0, 1, 3, n // 2, n}):
                for seed in range(25):
                    rng, reference = random.Random(seed), random.Random(seed)
                    taken = [x for _, x in zip(range(k), _sampled(rng, items))]
                    assert taken == in_place(reference, items, k)
                    assert rng.getstate() == reference.getstate()
                    assert items == tuple(range(100, 100 + n))


class TestPluralize:
    def test_naive(self):
        assert pluralize("attendance") == "attendances"
        assert pluralize("opponent") == "opponents"

    def test_rules(self):
        assert pluralize("box") == "boxes"
        assert pluralize("category") == "categories"
        assert pluralize("person") == "people"

    def test_already_plural_left_alone(self):
        assert pluralize("successes") == "successes"


class TestRenderFact:
    def test_singular_keeps_header_casing(self):
        t = table()
        fact = render_fact(t, t.column_index("Attendance"), t.column_index("Round"), (9,))
        assert fact.text == "The Attendance when the Round was QF was 34,178"

    def test_plural_lowercases_and_aggregates(self):
        t = table()
        fact = render_fact(t, t.column_index("Attendance"), t.column_index("Opponent"), (4, 5))
        assert fact.text == "The attendances when the opponent was Walsall were 5,666 and 10,037"

    def test_zero_value(self):
        t = table()
        fact = render_fact(t, t.column_index("Result"), t.column_index("Round"), (8,))
        assert fact.text.endswith("was 2-1")

    def test_cells_provenance(self):
        t = table()
        fact = render_fact(t, t.column_index("Attendance"), t.column_index("Opponent"), (4, 5))
        opp, att = t.column_index("Opponent"), t.column_index("Attendance")
        assert fact.cells == sum(1 << (r * t.n_cols + c) for r, c in
                                 {(4, att), (5, att), (4, opp), (5, opp)})


def _gold():
    t = table()
    att, rnd = t.column_index("Attendance"), t.column_index("Round")
    return t, gold_spec([FactPlan(att, (rnd,), (9,)), FactPlan(att, (rnd,), (10,))], t.n_cols)


def _conjunction_gold():
    t = table()
    att, opp, result = (t.column_index(name) for name in ("Attendance", "Opponent", "Result"))
    return t, gold_spec([FactPlan(att, (opp, result), (4,))], t.n_cols)


def _rough_table_with_blank_and_na():
    for i in range(40):
        record = rough_table(i, seed=0)
        cells = [cell for row in record["rows"] for cell in row]
        if "" in cells and "n/a" in cells:
            return ingest(raw_table_from_json(record))
    raise AssertionError("no rough table with both blank and n/a cells")


def _rough_golds():
    t = _rough_table_with_blank_and_na()
    return t, [triplet.gold for kind in GeneratorKind for triplet in generate(t, kind, 3, cap=2)]


def _limit(monkeypatch, distractors, word_cap):
    """Make `build_context` want exactly `distractors` distractors under a
    cap of `word_cap` words."""
    monkeypatch.setattr(facts, "DISTRACTORS_MIN", distractors)
    monkeypatch.setattr(facts, "DISTRACTORS_MAX", distractors)
    monkeypatch.setattr(facts, "CONTEXT_WORD_CAP", word_cap)


# Large enough that every candidate distractor is taken.
TAKE_ALL = (10**6, 10**9)


class TestBuildContext:
    def test_prefix_and_terminal(self):
        t, gold = _gold()
        ctx = build_context(FactPool(t), gold, seed=1)
        assert ctx.rendered.startswith("In League Cup of 1990-91 Chelsea F.C. season: ")
        assert ctx.rendered.endswith(".")

    def test_gold_facts_all_present_once(self):
        t, gold = _gold()
        ctx = build_context(FactPool(t), gold, seed=1)
        gold_texts = [f.text for f in ctx.facts if f.kind is FactKind.GOLD]
        assert sorted(gold_texts) == sorted([
            "The Attendance when the Round was QF was 34,178",
            "The Attendance when the Round was QFR was 33,861",
        ])
        assert ctx.rendered.count("The Attendance when the Round was QF was 34,178") == 1

    def test_seeded_shuffle_deterministic(self):
        t, gold = _gold()
        assert build_context(FactPool(t), gold, seed=5) == build_context(FactPool(t), gold, seed=5)
        orders = {tuple(f.text for f in build_context(FactPool(t), gold, seed=s).facts) for s in range(8)}
        assert len(orders) > 1

    def test_distractors_avoid_gold_cells(self, monkeypatch):
        # Inputs: a single-key gold pair, a two-key conjunction plan, and the
        # golds of every generator on a rough table with blank and n/a cells.
        # The candidates are exactly the pool facts whose cells miss the gold
        # cells, as the cell index must reproduce.
        conj_table, conj_gold = _conjunction_gold()
        assert len(conj_gold.plans[0].keys) == 2
        rough, rough_golds = _rough_golds()
        assert len(rough_golds) > 10
        cases = [_gold(), (conj_table, conj_gold)] + [(rough, gold) for gold in rough_golds]
        for t, gold in cases:
            pool = FactPool(t)
            for seed in range(20):
                ctx = build_context(pool, gold, seed=seed)
                for fact in ctx.facts:
                    if fact.kind is FactKind.DISTRACTOR:
                        assert not (fact.cells & gold.cells)
            with monkeypatch.context() as patched:
                _limit(patched, *TAKE_ALL)
                ctx = build_context(pool, gold, seed=1)
            taken = {fact.text for fact in ctx.facts if fact.kind is FactKind.DISTRACTOR}
            facts = [entry.fact for run in pool.runs.values() for entry in run]
            disjoint = {fact.text for fact in facts if not (fact.cells & gold.cells)}
            assert taken == disjoint
            assert len(taken) < len(facts)

    def test_distractor_count_within_range(self):
        t, gold = _gold()
        for seed in range(30):
            ctx = build_context(FactPool(t), gold, seed=seed)
            count = sum(1 for f in ctx.facts if f.kind is FactKind.DISTRACTOR)
            assert 2 <= count <= 8

    def test_mean_distractors_tracks_uniform_two_to_eight(self):
        t, gold = _gold()
        pool = FactPool(t)
        rng = random.Random(99)
        total = 0
        builds = 10_000
        for _ in range(builds):
            ctx = build_context(pool, gold, seed=rng.getrandbits(48))
            total += sum(1 for f in ctx.facts if f.kind is FactKind.DISTRACTOR)
        assert abs(total / builds - 5.0) < 0.1

    def test_word_cap_trims_distractors_only(self, monkeypatch):
        t, gold = _gold()
        _limit(monkeypatch, 8, 40)
        ctx = build_context(FactPool(t), gold, seed=2)
        gold_count = sum(1 for f in ctx.facts if f.kind is FactKind.GOLD)
        assert gold_count == 2
        assert len(ctx.rendered.split()) <= 40 + 10  # gold facts are never dropped
        distractors = sum(1 for f in ctx.facts if f.kind is FactKind.DISTRACTOR)
        assert distractors < 8

    def test_word_cap_leaves_no_fitting_fact_unused(self, monkeypatch):
        # Short of the wanted count, a context stops only when no disjoint
        # pool fact left would fit under the cap.
        t, gold = _gold()
        pool = FactPool(t)
        for cap in (40, 60, 80):
            _limit(monkeypatch, 8, cap)
            for seed in range(20):
                ctx = build_context(pool, gold, seed=seed)
                taken = {f.text for f in ctx.facts if f.kind is FactKind.DISTRACTOR}
                if len(taken) == 8:
                    continue
                used = len(ctx.rendered.split())
                left = [entry for run in pool.runs.values() for entry in run
                        if entry.fact.text not in taken and not entry.fact.cells & gold.cells]
                assert all(used + entry.words > cap for entry in left)


def _st_louis_table():
    header = ["Team", "City", "Wins"]
    cities = ["St. Louis", "Boston", "Denver", "St. Louis", "Miami",
              "Austin", "St. Paul", "Reno", "Dallas", "Tulsa"]
    rows = [[f"Team {i}", city, str(10 + i)] for i, city in enumerate(cities)]
    record = {"id": "st-louis", "page_title": "League", "table_title": "Teams",
              "header": header, "rows": rows}
    return ingest(raw_table_from_json(record))


class TestSeparatorText:
    def test_distractors_never_contain_the_separator(self):
        t = _st_louis_table()
        team, city, wins = (t.column_index(name) for name in ("Team", "City", "Wins"))
        pool = FactPool(t)
        assert pool.runs
        assert not any(FACT_SEPARATOR in entry.fact.text
                       for run in pool.runs.values() for entry in run)
        # A gold fact naming St. Louis keeps its place.
        gold = gold_spec([FactPlan(city, (team,), (0,)), FactPlan(wins, (city,), (1,))], t.n_cols)
        gold_texts = sorted(render_fact(t, plan.subject, plan.keys[0], plan.rows).text
                            for plan in gold.plans)
        assert any(FACT_SEPARATOR in text for text in gold_texts)
        for seed in range(30):
            ctx = build_context(pool, gold, seed=seed)
            assert sorted(f.text for f in ctx.facts if f.kind is FactKind.GOLD) == gold_texts
            distractors = [f for f in ctx.facts if f.kind is FactKind.DISTRACTOR]
            assert distractors
            assert not any(FACT_SEPARATOR in f.text for f in distractors)


class TestFactPool:
    def test_pool_facts_rendered_once_per_table(self):
        t, gold = _gold()
        pool = FactPool(t)
        pooled = {id(entry.fact) for run in pool.runs.values() for entry in run}
        for seed in range(10):
            ctx = build_context(pool, gold, seed=seed)
            for fact in ctx.facts:
                if fact.kind is FactKind.DISTRACTOR:
                    assert id(fact) in pooled

    def test_cell_index_covers_every_entry(self):
        pool = FactPool(_rough_table_with_blank_and_na())
        for run in pool.runs.values():
            for entry in run:
                assert entry.words == len(entry.fact.text.split())

    def test_runs_hold_only_their_pairs_facts(self):
        # A fact of the (subject, key) run states cells of exactly those two
        # columns.
        t = _rough_table_with_blank_and_na()
        pool = FactPool(t)
        assert pool.runs
        for (subject, key), run in pool.runs.items():
            assert run
            for entry in run:
                mask = entry.fact.cells
                columns = {bit % t.n_cols for bit in range(mask.bit_length()) if mask >> bit & 1}
                assert columns == {subject, key}

    def test_generate_and_build_context_leave_table_untouched(self):
        for t in (table(), _rough_table_with_blank_and_na()):
            before = dict(vars(t))
            pool = FactPool(t)
            for kind in GeneratorKind:
                for triplet in generate(t, kind, 5, cap=2):
                    build_context(pool, triplet.gold, seed=1)
            assert vars(t) == before

    def test_equal_plans_share_one_gold_entry(self):
        t = table()
        att, rnd = t.column_index("Attendance"), t.column_index("Round")
        first, second = FactPlan(att, (rnd,), (9,)), FactPlan(att, (rnd,), (9,))
        assert first == second and first is not second
        assert hash(first) == hash(second)
        pool = FactPool(t)
        assert pool.gold(first) is pool.gold(second)
