"""What the surface grammar writes, it reads back.

Names, titles and slot texts are drawn from letters that no template and no
fact shape uses in its own text (the templates' capitals are W, I, T and H),
so a piece of template text can occur neither inside a drawn text nor across
its edges. Listed fact values may hold the shapes' words, but not the
separators around them.
"""

import itertools
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tabrc import grammar

_LETTERS = "BCFGJKLMOPQUVXYZ0123456789"
_WORD = st.text(_LETTERS, min_size=1, max_size=6)
_PHRASE = st.lists(_WORD, min_size=1, max_size=3).map(" ".join)
_FACT_PIECES = (", ", " and ", " was ", " were ")
_VALUE = st.text("andwsre ,x1", min_size=1, max_size=12).filter(
    lambda v: not any(piece in f" {v} " for piece in _FACT_PIECES))


def _distinct_surfaces(names):
    surfaces = [set(grammar.column_surfaces([name])) for name in names]
    return all(a.isdisjoint(b) for a, b in itertools.combinations(surfaces, 2))


_COLUMNS = st.lists(_WORD, min_size=3, max_size=5, unique=True).filter(_distinct_surfaces)
_TEMPLATES = [template for templates in grammar.TEMPLATES.values() for template in templates]


@pytest.mark.parametrize("template", _TEMPLATES, ids=lambda template: template.id)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_template_reads_back_its_bindings(template, data):
    names = data.draw(_COLUMNS)
    table_title, page_title = data.draw(_PHRASE), data.draw(_PHRASE)
    slots = []
    for slot in grammar._SLOT_RE.findall(template.pattern):
        if slot.startswith("col:"):
            slots.append((slot, data.draw(st.sampled_from(names))))
        elif slot == "[OPERATOR]":
            slots.append((slot, data.draw(st.sampled_from(grammar.OPERATORS[template.kind]))))
        elif slot.startswith("val:"):
            slots.append((slot, data.draw(_PHRASE)))
    question = grammar.render_question(template, table_title, page_title, slots)

    match = re.match(grammar.question_regex(template, names, table_title, page_title), question)
    assert match, question
    surfaces = grammar.column_surfaces(names)
    got = {group: surfaces[text] if group.startswith("c") else text
           for group, text in match.groupdict().items()}
    seen = Counter()
    expected = {}
    for slot, text in slots:
        seen[slot] += 1
        expected[grammar.slot_group(slot, seen[slot])] = text
    assert got == expected, question


@given(subject=_PHRASE, conditions=st.lists(st.tuples(_PHRASE, _PHRASE), min_size=1, max_size=2),
       values=st.lists(_VALUE, min_size=1, max_size=4))
@settings(max_examples=300)
def test_a_fact_reads_back_its_subject_conditions_and_values(subject, conditions, values):
    text = grammar.render_fact(subject, conditions, values)
    if len(values) > 1:  # a plural fact lowercases its names and pluralizes the subject
        subject = grammar.pluralize(subject.lower())
        conditions = [(key.lower(), value) for key, value in conditions]
    assert grammar.parse_fact(text) == (subject, tuple(conditions), tuple(values)), text


def test_join_values_lists_and_split_values_undoes_it():
    assert grammar.join_values(["a"]) == "a"
    assert grammar.join_values(["a", "b", "c"]) == "a, b and c"
    assert grammar.split_values("a, b and c", plural=True) == ("a", "b", "c")
    assert grammar.split_values("Rock and Roll", plural=False) == ("Rock and Roll",)
