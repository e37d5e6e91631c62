"""Closures are categories whose composition is the word trace, and
a corrupted coset table fails the closure's self-check.

Every golden closure, a closure above 120 morphism names, and seeded
random presentations are closed, then checked two ways against
references that do not read the coset table: the exhaustive
``category_report``, and the composition table against the trace of
the whole concatenated word from its root.  The corruptions drop one
identification or one edge by monkeypatch and expect
``SelfCheckFailed``, in process and under ``python -O``.
"""

import os
import subprocess
import sys
from random import Random

import pytest

import dblinst
from dblinst.collage import close_presented_category, collage_of_model
from dblinst.errors import (DblinstError, HomSetNotFinite, HomSetTooLarge,
                            SelfCheckFailed)
from dblinst.fincat import category_report
from dblinst.fixtures import category_as_model, chain_category
from dblinst.words import ClosedWordCategory

from test_closure_golden import golden_cases


def random_presentation(rng):
    """One to three objects, two to four generators with random ends,
    and up to four relations between parallel words of length at most
    three; None when no relation fits."""
    objects = ["o{}".format(i) for i in range(rng.randint(1, 3))]
    generators = {"g{}".format(i): (rng.choice(objects), rng.choice(objects))
                  for i in range(rng.randint(2, 4))}

    def word(src):
        out, at = [], src
        for _ in range(rng.randint(0, 3)):
            steps = [g for g, (s, _) in generators.items() if s == at]
            if not steps:
                break
            out.append(rng.choice(steps))
            at = generators[out[-1]][1]
        return tuple(out), at

    relations = []
    for _ in range(40):
        src = rng.choice(objects)
        (w1, d1), (w2, d2) = word(src), word(src)
        if d1 == d2 and w1 != w2:
            relations.append((src, d1, w1, w2))
        if len(relations) == 4:
            break
    return (objects, generators, relations) if relations else None


def random_closures(seeds, bound=6, max_classes=300):
    """The seeded presentations that close, keyed by seed."""
    out = {}
    for seed in seeds:
        p = random_presentation(Random(seed))
        if p is None:
            continue
        try:
            out["random_{}".format(seed)] = ClosedWordCategory(
                *p, bound, max_classes=max_classes)
        except (HomSetNotFinite, HomSetTooLarge):
            continue
    return out


def chain_16():
    """136 morphism names: above the size the closure once skipped."""
    return close_presented_category(
        collage_of_model(category_as_model(chain_category(16))), 4)


CLOSURES = dict(golden_cases(), chain_16=chain_16)
RANDOM = random_closures(range(300))


def test_the_random_presentations_cover_closures_of_several_sizes():
    sizes = [len(cl.category.morphisms) for cl in RANDOM.values()]
    assert len(sizes) >= 100
    assert max(sizes) >= 10 and 1 in sizes
    assert len(chain_16().category.morphisms) > 120


def whole_word_trace_holds(cl):
    """Every composite is the class of the concatenated representative
    words, and the table holds exactly the composable pairs."""
    cat = cl.category
    expected = {}
    for f, (fs, fd) in cat.morphisms.items():
        src, word = cl.rep_words[f]
        for g, (gs, _) in cat.morphisms.items():
            if gs == fd:
                expected[(f, g)] = cl.word_class(src, word + cl.rep_words[g][1])
    return cat.comp == expected


@pytest.mark.parametrize("name", sorted(CLOSURES))
def test_golden_closures_are_categories_composed_by_the_word_trace(name):
    cl = CLOSURES[name]()
    cat = cl.category
    assert category_report(cat.objects, cat.morphisms, cat.identity,
                           cat.comp) == []
    assert whole_word_trace_holds(cl)


@pytest.mark.parametrize("name", sorted(RANDOM))
def test_random_closures_are_categories_composed_by_the_word_trace(name):
    cl = RANDOM[name]
    cat = cl.category
    assert category_report(cat.objects, cat.morphisms, cat.identity,
                           cat.comp) == []
    assert whole_word_trace_holds(cl)


def test_each_level_starts_from_the_current_least_words(monkeypatch):
    """The scan that ends one level is the first scan of the next: no
    processing happens in between, so it is not repeated."""
    process_up_to = ClosedWordCategory._process_up_to
    lengths = []

    def checked(self, length, words):
        assert list(words.items()) == list(self._least_words().items())
        lengths.append(length)
        return process_up_to(self, length, words)

    monkeypatch.setattr(ClosedWordCategory, "_process_up_to", checked)
    for make in CLOSURES.values():
        make()
    random_closures(range(300))
    assert max(lengths) >= 4


# -- corrupted coset tables -------------------------------------------------

def closing_without_the_last_merge(make):
    """Close ``make()`` with its last identification dropped: the table
    stays complete, but one relation no longer holds at one class."""
    identify = ClosedWordCategory._identify
    calls = []

    def counted(self, a, b):
        calls.append(None)
        identify(self, a, b)

    def dropping(self, a, b):
        calls.append(None)
        if len(calls) != last:
            identify(self, a, b)

    ClosedWordCategory._identify = counted
    try:
        make()
        last = len(calls)
        calls.clear()
        ClosedWordCategory._identify = dropping
        return make()
    finally:
        ClosedWordCategory._identify = identify


def closing_without_an_edge(make):
    """Close ``make()`` with one out-edge of its last class removed
    before the category is read off."""
    build = ClosedWordCategory._build

    def dropping(self, words):
        n = next(n for n in reversed(list(words)) if self._edges[n])
        self._edges[n].popitem()
        return build(self, words)

    ClosedWordCategory._build = dropping
    try:
        return make()
    finally:
        ClosedWordCategory._build = build


@pytest.mark.parametrize("name", ["chain_16", "weighted_graph", "monad",
                                  "cyclic_4_2"])
def test_a_dropped_identification_fails_the_self_check(name):
    with pytest.raises(SelfCheckFailed, match="^relation .* fails at "
                                              "closure class "):
        closing_without_the_last_merge(CLOSURES[name])


@pytest.mark.parametrize("name", ["chain_16", "weighted_graph", "monad"])
def test_a_missing_edge_fails_the_self_check(name):
    with pytest.raises(SelfCheckFailed, match="has no live successor along"):
        closing_without_an_edge(CLOSURES[name])


def test_the_self_check_is_an_assertion_error_but_no_refusal():
    assert issubclass(SelfCheckFailed, AssertionError)
    assert not issubclass(SelfCheckFailed, DblinstError)


def test_corrupted_closures_fail_the_self_check_also_without_asserts():
    """``python -O`` skips asserts, so this corrupts the closures in a
    subprocess with that flag."""
    package_root = os.path.dirname(os.path.dirname(dblinst.__file__))
    paths = [package_root, os.path.dirname(os.path.abspath(__file__)),
             os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = ("from test_closure_certificate import (CLOSURES,\n"
            "    closing_without_an_edge, closing_without_the_last_merge)\n"
            "from dblinst.errors import SelfCheckFailed\n"
            "for corrupt in (closing_without_the_last_merge,\n"
            "                closing_without_an_edge):\n"
            "    for name in ('chain_16', 'weighted_graph'):\n"
            "        try:\n"
            "            corrupt(CLOSURES[name])\n"
            "            print('returned')\n"
            "        except SelfCheckFailed:\n"
            "            print('raised')\n")
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == ["raised"] * 4
