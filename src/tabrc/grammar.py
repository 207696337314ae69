"""The surface grammar of questions and facts, one copy for both directions.

A question fills one of its generator's `TEMPLATES`, in the paper's slot
notation: "col:N" shows a column (by name, or in its `COLUMN_FORMS` form),
"val:N" a cell, "[OPERATOR]" one of the kind's `OPERATORS` words, and
"table-title" and "page-title" the titles. Each template is split once into
its texts and slots; `render_question` writes a question from that split,
and `question_regex` derives from it the pattern that reads one.
A fact ("The attendances when the opponent was Walsall were 5,666 and
10,037") is written by `render_fact` and read by `parse_fact`, both from the
sentence shapes below. A text reads back as written while no name, title or
cell holds the template text around its slot (", ", " and ", " was " ...).
Reader patterns are built on first use, never at import.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Iterable, NamedTuple

from .shared import GeneratorKind


class Template(NamedTuple):
    kind: GeneratorKind
    id: str
    pattern: str


_SLOT_RE = re.compile(r"col:\d+|val:\d+|table-title|page-title|\[OPERATOR\]")


_COMPOSITION = ("What was the col:1(s) when the col:2 was val:2 in table-title of page-title?",)
_QUANTIFIER = ("In table-title of page-title, does [OPERATOR] col:1 have col:2 val:2?",)
_SUPERLATIVE = ("In table-title of page-title, which col:1 has the [OPERATOR] col:2?",
                "Which col:1 has the [OPERATOR] col:2 in table-title of page-title?")

# Question patterns per generator; the i-th pattern (from 1) is template
# `<generator>-<i>`.
_PATTERNS: dict[GeneratorKind, tuple[str, ...]] = {
    GeneratorKind.COMPOSITION_2HOP: _COMPOSITION,
    GeneratorKind.COMPOSITION_3HOP: _COMPOSITION,
    GeneratorKind.CONJUNCTION: ("What was the col:1 when the col:2 was val:2 and the col:3 was "
                                "val:3 in table-title of page-title?",),
    GeneratorKind.QUANTIFIER_ONLY: ("Is val:1 the only col:1 that has col:2 val:2 in table-title "
                                    "of page-title?",),
    GeneratorKind.QUANTIFIER_EVERY: _QUANTIFIER,
    GeneratorKind.QUANTIFIER_MOST: _QUANTIFIER,
    GeneratorKind.NUMBER_COMPARISON: ("In table-title of page-title, which col:1 had a [OPERATOR] "
                                      "col:2: val:1 or val:1?",),
    GeneratorKind.TEMPORAL_COMPARISON: ("In table-title of page-title, what happened [OPERATOR]: "
                                        "the col:1 was val:1 or the col:2 was val:2?",),
    GeneratorKind.NUMBER_BOOLEAN_COMPARISON: ("In table-title of page-title, did val:1 have "
                                              "[OPERATOR] col:2 than val:1?",),
    GeneratorKind.TEMPORAL_BOOLEAN_COMPARISON: ("The col:1 was val:1 [OPERATOR] the col:2 was "
                                                "val:2 in table-title of page-title?",),
    GeneratorKind.NUMBER_SUPERLATIVE: _SUPERLATIVE,
    GeneratorKind.TEMPORAL_SUPERLATIVE: _SUPERLATIVE,
    GeneratorKind.ARITHMETIC_SUPERLATIVE: ("In table-title of page-title, what was the [OPERATOR] "
                                           "col:1 when the col:2 was val:2?",),
    GeneratorKind.ARITHMETIC_ADDITION: ("In table-title of page-title, what was the total number "
                                        "of col:1 when the col:2 was val:2?",),
    GeneratorKind.COUNTING: ("How many col:1 have col:2 val:2 in table-title of page-title?",),
    GeneratorKind.DATE_DIFFERENCE: ("In table-title of page-title, how much time had passed "
                                    "between when the col:1 was val:1 and when the col:2 was "
                                    "val:2?",),
}

TEMPLATES: dict[GeneratorKind, tuple[Template, ...]] = {
    kind: tuple(Template(kind, f"{kind.value}-{i}", pattern)
                for i, pattern in enumerate(patterns, start=1))
    for kind, patterns in _PATTERNS.items()
}

# The words a kind's [OPERATOR] slot takes, in the order its candidates list
# them.
OPERATORS: dict[GeneratorKind, tuple[str, ...]] = {
    GeneratorKind.QUANTIFIER_EVERY: ("every",),
    GeneratorKind.QUANTIFIER_MOST: ("most",),
    GeneratorKind.NUMBER_COMPARISON: ("higher", "lower"),
    GeneratorKind.NUMBER_BOOLEAN_COMPARISON: ("higher", "lower"),
    GeneratorKind.TEMPORAL_COMPARISON: ("earlier", "later"),
    GeneratorKind.TEMPORAL_BOOLEAN_COMPARISON: ("more recently than when", "earlier than when"),
    GeneratorKind.NUMBER_SUPERLATIVE: ("highest", "lowest"),
    GeneratorKind.TEMPORAL_SUPERLATIVE: ("earliest", "latest"),
}
# Over number columns the superlative words, over date columns the temporal ones.
OPERATORS[GeneratorKind.ARITHMETIC_SUPERLATIVE] = (
    OPERATORS[GeneratorKind.NUMBER_SUPERLATIVE] + OPERATORS[GeneratorKind.TEMPORAL_SUPERLATIVE])

_IRREGULAR_PLURALS = {"person": "people", "child": "children", "man": "men", "woman": "women",
                      "foot": "feet"}


def pluralize(word: str) -> str:
    """Naive pluralization with a small irregular table. Words already ending
    in "s" are left alone (most header names arrive singular)."""
    if not word:
        return word
    lowered = word.lower()
    if lowered in _IRREGULAR_PLURALS:
        return _IRREGULAR_PLURALS[lowered]
    if lowered.endswith("s"):
        return word
    if lowered.endswith(("x", "z", "ch", "sh")):
        return word + "es"
    if lowered.endswith("y") and len(lowered) > 1 and lowered[-2] not in "aeiou":
        return word[:-1] + "ies"
    return word + "s"


# How a column slot shows its column in the question, where that is not the
# column name itself.
COLUMN_FORMS: dict[GeneratorKind, dict[str, Callable[[str], str]]] = {
    GeneratorKind.COUNTING: {"col:1": lambda name: pluralize(name.lower()), "col:2": str.lower},
}


@functools.cache
def _parts(pattern: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A template pattern split into its template texts and, between them,
    its slots: one more text than slots."""
    return tuple(_SLOT_RE.split(pattern)), tuple(_SLOT_RE.findall(pattern))


def render_question(template: Template, table_title: str, page_title: str,
                    slots: Iterable[tuple[str, str]]) -> str:
    """The question `template` reads with these (slot, text) bindings. A
    column slot's text is the column name, shown in the slot's column form; a
    slot bound more than once fills its occurrences in binding order."""
    forms = COLUMN_FORMS.get(template.kind, {})
    shown = {"table-title": [table_title], "page-title": [page_title]}
    for slot, text in slots:
        form = forms.get(slot)
        shown.setdefault(slot, []).append(text if form is None else form(text))
    fills = {slot: iter(texts) for slot, texts in shown.items()}
    texts, order = _parts(template.pattern)
    out = [texts[0]]
    for slot, text in zip(order, texts[1:]):
        out.append(next(fills[slot]))
        out.append(text)
    return "".join(out)


def column_surfaces(column_names: Iterable[str]) -> dict[str, str]:
    """Each text a question can show a column as, to the column's name: the
    name itself or any form in `COLUMN_FORMS`. Where two columns share a
    surface, the first one has it."""
    forms = (str, *(form for by_slot in COLUMN_FORMS.values() for form in by_slot.values()))
    surfaces: dict[str, str] = {}
    for name in column_names:
        for form in forms:
            surfaces.setdefault(form(name), name)
    return surfaces


def slot_group(slot: str, occurrence: int) -> str:
    """The regex group that reads a slot's `occurrence`-th (from 1) text:
    "c1" for col:1, "v2" for val:2 and "op" for the operator, with "_2" on a
    template's second val:1."""
    name = "op" if slot == "[OPERATOR]" else slot[0] + slot[4:]
    return name if occurrence == 1 else f"{name}_{occurrence}"


def question_regex(template: Template, column_names: Iterable[str], table_title: str,
                   page_title: str) -> str:
    """The regex that reads a question filled from `template`, on a table
    with these column names and titles, back into its slots. The template
    text and the titles match themselves; a column slot matches any surface
    of any column, the longest first; an operator slot matches the kind's
    words. A value slot matches as little as it can, except the template's
    last, which takes all the text up to the template text that follows it."""
    columns = "(?:" + "|".join(re.escape(s) for s in sorted(
        column_surfaces(column_names), key=len, reverse=True)) + ")"
    shown = {"table-title": re.escape(table_title), "page-title": re.escape(page_title)}
    texts, slots = _parts(template.pattern)
    last_value = max((i for i, slot in enumerate(slots) if slot.startswith("val:")), default=-1)
    seen: dict[str, int] = {}
    parts = ["^"]
    for i, (text, slot) in enumerate(zip(texts, slots)):
        parts.append(re.escape(text))
        if slot in shown:
            parts.append(shown[slot])
            continue
        seen[slot] = seen.get(slot, 0) + 1
        if slot == "[OPERATOR]":
            body = "|".join(re.escape(word) for word in OPERATORS[template.kind])
        elif slot.startswith("col:"):
            body = columns
        else:
            body = ".+" if i == last_value else ".+?"
        parts.append(f"(?P<{slot_group(slot, seen[slot])}>{body})")
    return "".join(parts) + re.escape(texts[-1]) + "$"


# Fact sentences. A plural fact (several values) lowercases the column names
# and pluralizes the subject; a singular one keeps the names as in the header.

_FACT = "The {} when {} {} {}"  # subject, conditions, verb, values
_CONDITION = "the {} was {}"  # key, value
_AND = " and "  # between conditions, and before the last listed value
_COMMA = ", "  # between the other listed values
_VERBS = ("was", "were")  # singular, plural


class ParsedFact(NamedTuple):
    subject: str
    conditions: tuple[tuple[str, str], ...]
    values: tuple[str, ...]


def join_values(values: list[str]) -> str:
    """The values as one list: "a", "a and b", "a, b and c"."""
    if len(values) == 1:
        return values[0]
    return _COMMA.join(values[:-1]) + _AND + values[-1]


def split_values(text: str, plural: bool) -> tuple[str, ...]:
    """The values `join_values` listed as `text`; a singular fact has one."""
    if not plural:
        return (text,)
    head, sep, tail = text.rpartition(_AND)
    if not sep:
        return (text,)
    return tuple(head.split(_COMMA)) + (tail,)


def render_fact(subject: str, conditions: Iterable[tuple[str, str]], values: list[str]) -> str:
    """The fact that `subject` had `values` where each (key, value) condition
    held, from the column names and cell texts."""
    plural = len(values) > 1
    if plural:
        subject = pluralize(subject.lower())
        conditions = [(key.lower(), value) for key, value in conditions]
    return _FACT.format(subject, _AND.join([_CONDITION.format(*c) for c in conditions]),
                        _VERBS[plural], join_values(values))


def _shape_regex(shape: str, *groups: str) -> str:
    """The `str.format` string `shape` as a regex body: its text escaped and
    its fields replaced by `groups` in turn."""
    texts = shape.split("{}")
    return re.escape(texts[0]) + "".join(g + re.escape(t) for g, t in zip(groups, texts[1:]))


@functools.cache
def _fact_regex(conditions: int) -> re.Pattern:
    """The pattern of a fact with this many conditions. Every part matches as
    little as it can, except the value list, which takes the rest."""
    condition = [_shape_regex(_CONDITION, f"(?P<k{i}>.+?)", f"(?P<v{i}>.+?)")
                 for i in range(conditions)]
    return re.compile("^" + _shape_regex(
        _FACT, "(?P<subject>.+?)", re.escape(_AND).join(condition),
        "(?P<verb>" + "|".join(_VERBS) + ")", "(?P<values>.+)") + "$")


def parse_fact(text: str) -> ParsedFact | None:
    """The subject, conditions and values of a fact sentence, read as the
    combined form (two conditions) if it can be; None when it is no fact."""
    for conditions in (2, 1):
        match = _fact_regex(conditions).match(text)
        if match:
            return ParsedFact(
                match["subject"],
                tuple((match[f"k{i}"], match[f"v{i}"]) for i in range(conditions)),
                split_values(match["values"], match["verb"] == _VERBS[1]),
            )
    return None
