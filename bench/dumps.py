"""Seeded inputs for the benchmark workloads.

Every function here is a pure function of its arguments: the same workload
seed gives byte-identical dumps and feeds. The generators live in the
benchmark rather than in `tests/`, so later edits to the test helpers cannot
shift a workload.

Row counts are stratified (table i of n gets 10 + 16 * i // n rows) instead
of drawn, and so are the column kinds of rough tables and the order of the
dirty dump, so dumps made from different seeds carry about the same amount of
work in the same places and the run-to-run spread reflects the program, not
the luck of the draw. The seed still draws every cell.
"""

from __future__ import annotations

import json
import math
import random

MIN_ROWS = 10
ROW_SPAN = 16  # rows run from MIN_ROWS to MIN_ROWS + ROW_SPAN - 1 = 25
# Rough table i has the date columns of ROUGH_DATES[i % 4]; it lacks the Code
# column when i % 4 == 3 and the Samples column when i % 4 == 1.
ROUGH_DATES = ("two", "month", "full", "none")

_NAMES = [
    "Arden", "Basel", "Corin", "Dorset", "Elgin", "Fenwick", "Galway", "Harlow",
    "Ibiza", "Jutland", "Kendal", "Lisbon", "Malmo", "Nantes", "Orebro", "Pavia",
    "Quimper", "Rostock", "Seville", "Tromso", "Utrecht", "Verona", "Weimar",
    "Xanthi", "Ypres", "Zagreb",
]
_GROUPS = ["North", "South", "East", "West", "Central", "Coastal", "Highland", "Valley"]
_STATUSES = ["Open", "Closed", "Planned", "Paused"]
_CATEGORIES = ["Geography", "Science", "Transport", "Sport"]
_MONTHS = ["January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December"]
_WORDS = ["Delta", "Echo", "Foxtrot", "Gamma", "Harbor", "Island", "Apex",
          "Borrow", "Cedar", "Dune"]

# Real-world cell text containing the separators that rendered facts and
# questions use: ", ", " and ", " or ", " was " and ". ".
SEPARATOR_NAMES = [
    "Paris, Texas", "Brighton and Hove Albion", "Rock or Bust", "Who Was Who",
    "St. Louis", "Washington, D.C.", "Trinidad and Tobago", "Now or Never",
    "Fort Wayne, Indiana", "Mr. Big", "Bosnia and Herzegovina", "It Was Written",
    "Dr. Feelgood", "Live or Let Die", "Salt Lake City, Utah", "Mt. Hood",
]
SEPARATOR_GROUPS = ["Hall and Oates", "Sink or Swim", "Ft. Worth", "North, East"]


def _rng(seed: int, *parts: object) -> random.Random:
    # String seeds are hashed with SHA-512, independent of PYTHONHASHSEED.
    return random.Random("\x1f".join(str(p) for p in (seed,) + parts))


def _rows_for(index: int, count: int) -> int:
    return MIN_ROWS + ROW_SPAN * (index % count) // count


def _full_date(day_number: int, base_year: int) -> tuple[int, int, int]:
    return base_year + day_number // 366, 1 + (day_number // 31) % 12, 1 + day_number % 28


def clean_table(seed: int, index: int, count: int = ROW_SPAN) -> dict:
    """A well-formed 6-column table: a unique name column, a repeating group
    column, a status column, two numeric columns and a full-precision date
    column, so that every generator can fire."""
    rng = _rng(seed, "clean", index)
    n_rows = _rows_for(index, count)
    group_pool = rng.sample(_GROUPS, rng.randint(2, 4))
    skew = rng.random() < 0.5
    status_pool = [rng.choice(_STATUSES)] if rng.random() < 0.15 else rng.sample(
        _STATUSES, rng.randint(2, 3))
    names = rng.sample(_NAMES, min(n_rows, len(_NAMES)))
    while len(names) < n_rows:
        names.append(f"{rng.choice(_NAMES)}-{len(names):02d}")
    scores = rng.sample(range(120, 99000), n_rows)
    dates = [_full_date(n, 1925) for n in rng.sample(range(36500), n_rows)]

    rows = []
    for r in range(n_rows):
        group = group_pool[0] if skew and r < (2 * n_rows) // 3 else rng.choice(group_pool)
        score = scores[r]
        score_text = f"{score:,}" if score >= 10000 and rng.random() < 0.7 else str(score)
        year, month, day = dates[r]
        rows.append([names[r], group, rng.choice(status_pool), score_text,
                     str(rng.randint(0, 90)), f"{day} {_MONTHS[month - 1]} {year}"])
    return {
        "id": f"clean-{seed}-{index:04d}",
        "page_title": f"Register of {rng.choice(_GROUPS)} Stations",
        "table_title": f"Survey {index:04d}",
        "header": ["Station", "Region", "Status", "Score", "Samples", "Visited"],
        "rows": rows,
        "category": rng.choice(_CATEGORIES),
    }


def rough_table(seed: int, index: int, count: int = ROW_SPAN) -> dict:
    """A table with blank and `n/a` cells, month-precision dates, sometimes a
    second date column, and sometimes whole column kinds missing."""
    rng = _rng(seed, "rough", index)
    n_rows = _rows_for(index, count)
    header = ["Station", "Region"]
    has_code = index % 4 != 3
    if has_code:
        header.append("Code")
    header.append("Score")
    has_samples = index % 4 != 1
    if has_samples:
        header.append("Samples")
    date_mode = ROUGH_DATES[index % len(ROUGH_DATES)]
    if date_mode != "none":
        header.append("Visited")
    if date_mode == "two":
        header.append("Checked")

    region_pool = rng.sample(_WORDS, rng.randint(2, 4))
    code_pool = region_pool if has_code and rng.random() < 0.3 else rng.sample(_WORDS, 4)
    day_numbers = rng.sample(range(20000), n_rows)
    rows = []
    for r in range(n_rows):
        row = [f"{rng.choice(_WORDS)}-{index:03d}-{r:02d}", rng.choice(region_pool)]
        if has_code:
            row.append("" if rng.random() < 0.08 else rng.choice(code_pool))
        if rng.random() < 0.06:
            row.append("")
        elif rng.random() < 0.08:
            row.append("n/a")
        else:
            value = rng.randint(0, 80000)
            row.append(f"{value:,}" if value >= 10000 and rng.random() < 0.5 else str(value))
        if has_samples:
            row.append(str(rng.randint(0, 6)))
        year, month, day = _full_date(day_numbers[r], 1950)
        if date_mode != "none":
            if rng.random() < 0.05:
                row.append("")
            elif date_mode == "month":
                row.append(f"{_MONTHS[month - 1]} {year}")
            else:
                row.append(f"{day} {_MONTHS[month - 1]} {year}")
        if date_mode == "two":
            row.append(f"{1 + (day_numbers[r] * 7) % 28} {_MONTHS[(month + 2) % 12]} {year + 1}")
        rows.append(row)
    return {
        "id": f"rough-{seed}-{index:04d}",
        "page_title": f"Atlas of {rng.choice(_WORDS)} Lines",
        "table_title": f"Sheet {index:03d}",
        "header": header,
        "rows": rows,
    }


def separator_table(seed: int, index: int, count: int = ROW_SPAN) -> dict:
    """A clean table whose name and group cells partly hold real-world text
    with separators in it."""
    table = clean_table(seed, 10_000 + index, count)
    rng = _rng(seed, "separator", index)
    names = rng.sample(SEPARATOR_NAMES, 4)
    for row, name in zip(rng.sample(range(len(table["rows"])), len(names)), names):
        table["rows"][row][0] = name
    group = rng.choice(SEPARATOR_GROUPS)
    for row in table["rows"]:
        if rng.random() < 0.3:
            row[1] = group
    table["id"] = f"sep-{seed}-{index:04d}"
    return table


def reject_records(seed: int) -> list[tuple[str, str]]:
    """(line, expected reject reason) for records the program must reject."""
    too_few = clean_table(seed, 20_000)
    too_few["id"] = f"few-{seed}"
    too_few["rows"] = too_few["rows"][:4]
    too_many = clean_table(seed, 20_001)
    too_many["id"] = f"many-{seed}"
    too_many["rows"] = too_many["rows"] * 3
    one_column = clean_table(seed, 20_002)
    one_column["id"] = f"narrow-{seed}"
    one_column["header"] = one_column["header"][:1]
    one_column["rows"] = [row[:1] for row in one_column["rows"]]
    ragged = clean_table(seed, 20_003)
    ragged["id"] = f"ragged-{seed}"
    ragged["rows"][3] = ragged["rows"][3][:-1]
    duplicate = clean_table(seed, 20_004)
    duplicate["id"] = f"dupcols-{seed}"
    duplicate["header"][2] = "Region "
    missing = clean_table(seed, 20_005)
    missing["id"] = f"untitled-{seed}"
    del missing["table_title"]
    truncated = json.dumps(clean_table(seed, 20_006), ensure_ascii=False)
    return [
        (json.dumps(too_few, ensure_ascii=False), "shape"),
        (json.dumps(too_many, ensure_ascii=False), "shape"),
        (json.dumps(one_column, ensure_ascii=False), "shape"),
        (json.dumps(ragged, ensure_ascii=False), "ragged"),
        (json.dumps(duplicate, ensure_ascii=False), "duplicate_columns"),
        (json.dumps(missing, ensure_ascii=False), "malformed"),
        (truncated[: len(truncated) // 2], "malformed"),
        ('{"id": "broken-' + str(seed) + '", "rows": [[', "malformed"),
    ]


def clean_dump(seed: int, tables: int) -> list[str]:
    """Lines of a dump of well-formed tables."""
    return [json.dumps(clean_table(seed, i, tables), ensure_ascii=False) for i in range(tables)]


def dirty_dump(seed: int, tables: int, repeats: int) -> tuple[list[str], dict[str, int]]:
    """Lines of a mixed dump, and the reject count expected per reason.

    `tables` accepted tables (a multiple of three) are split evenly between
    clean, rough and separator-text tables. The dump is `tables / 3` blocks
    in a fixed pattern, so every seed puts the same kinds of record in the
    same places, and the worker pool's chunks carry the same mix whatever
    the seed. Block i holds clean, rough and separator table i and its
    share of the planted rejects; block i + 1 ends with a verbatim repeat
    of an accepted record of block i, for i < `repeats`, so the parent
    drops the repeat's examples as duplicates rather than writing them
    first.
    """
    third = tables // 3
    if repeats >= third:
        raise ValueError("need more blocks than repeats")
    kinds = (clean_table, rough_table, separator_table)
    accepted = [[json.dumps(make(seed, i, third), ensure_ascii=False) for make in kinds]
                for i in range(third)]
    rejects = reject_records(seed)
    lines = []
    for i in range(third):
        lines += accepted[i]
        lines += [line for line, _reason in
                  rejects[i * len(rejects) // third:(i + 1) * len(rejects) // third]]
        if 0 < i <= repeats:
            lines.append(accepted[i - 1][(i - 1) % len(kinds)])
    expected: dict[str, int] = {}
    for _line, reason in rejects:
        expected[reason] = expected.get(reason, 0) + 1
    return lines, expected


def accuracy_feed(seed: int, checkpoints: int, tasks: int) -> list[str]:
    """A recorded accuracy feed: `checkpoint<TAB>task<TAB>accuracy` lines for
    saturating learners with seeded rates, ceilings and evaluation noise."""
    rng = _rng(seed, "feed")
    curves = [(rng.uniform(20.0, 1500.0), rng.uniform(0.6, 0.98)) for _ in range(tasks)]
    lines = ["# checkpoint\ttask\taccuracy"]
    for checkpoint in range(1, checkpoints + 1):
        for task, (rate, ceiling) in enumerate(curves):
            clean = ceiling * (1.0 - math.exp(-checkpoint / rate))
            noisy = min(1.0, max(0.0, clean + rng.gauss(0.0, 0.01)))
            lines.append(f"{checkpoint}\ttask{task:02d}\t{noisy:.6f}")
    return lines
