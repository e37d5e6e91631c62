"""Golden lifting problems: ``check_initial`` reports and the fillers of
every commutative square, pinned in order.

Inputs: twelve seeded pairs of walking-loose models, each with one or
two elements at dom and at cod and one heteromorphism, and the first
three morphisms e of each pair.  The corpus is the projection of the
elements of the target's tautological instance, of its double and of
the empty instance.  A case records the ``check_initial`` report of e,
the number of fillers of each commutative square (corpus entries in
order, then tops and bottoms in search order) and a sha256 of the JSON
list of every filler's ``component_key``, so any change to which
fillers are found, or to their order, shows up here.
"""

import functools
import hashlib
import json
import random

import pytest

from dblinst.fixtures import (coproduct_instance, dopf_corpus_over,
                              empty_instance, tautological_instance,
                              walking_loose_model)
from dblinst.migration import LiftingProblem, check_initial
from dblinst.model import compose_model_morphisms, enumerate_model_morphisms

PAIRS = 12


def digest(doc):
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def random_model(rng):
    dom = ["a{}".format(i) for i in range(rng.randint(1, 2))]
    cod = ["b{}".format(i) for i in range(rng.randint(1, 2))]
    return walking_loose_model(dom, cod,
                               [("h0", rng.choice(dom), rng.choice(cod))])


def corpus_over(y):
    taut = tautological_instance(y)
    return [pi for pi, _ in dopf_corpus_over(
        y, [taut, coproduct_instance(taut, taut), empty_instance(y)])]


def squares(e, corpus):
    """The commutative squares from e to each corpus entry, entries in
    order, then tops and bottoms in search order."""
    for q in corpus:
        bottoms = enumerate_model_morphisms(e.target, q.target)
        for u in enumerate_model_morphisms(e.source, q.source):
            uq = compose_model_morphisms(u, q)
            for v in bottoms:
                if compose_model_morphisms(e, v) == uq:
                    yield LiftingProblem(e, q, u, v)


def lifting_golden(e, corpus):
    fillers = [[w.component_key() for w in square.fillers()]
               for square in squares(e, corpus)]
    report = check_initial(e, corpus)
    return [[len(report), digest(report)], [len(ws) for ws in fillers],
            digest(fillers)]


def _cases():
    for seed in range(PAIRS):
        rng = random.Random(seed)
        x, y = random_model(rng), random_model(rng)
        corpus = corpus_over(y)
        for r, e in enumerate(enumerate_model_morphisms(x, y)[:3]):
            yield "pair{}_{}".format(seed, r), (e, corpus)


@functools.lru_cache(maxsize=None)
def computed():
    return {case: lifting_golden(e, corpus)
            for case, (e, corpus) in _cases()}


GOLDEN = {
    'pair0_0':
        [[0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'], [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], '2c6ebd7b2342162d8f3c6139b7d16d4885f255041257a35a8974d3389bd88401'],
    'pair0_1':
        [[32, '8b9071fe4e3b53efa76917c0f35bd6c55e58d396a6c08adb3ed920d623304101'], [1, 1, 1, 1, 2, 2, 0, 0, 0, 0, 2, 2, 2, 2, 0, 0, 0, 0, 2, 2, 2, 2, 0, 0, 0, 0, 2, 2, 2, 2, 0, 0, 0, 0, 2, 2], '86aa85df994c63295ca894c9a4cc503e2ee988644b8e5a49f8f8c5f06cea0ef8'],
    'pair0_2':
        [[32, 'b6f67ed866a19263dcbcccc30d489f234f220f7e71b57c7b549baece1a19fc19'], [1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2], '77bd910487afdf418e6a586b552a735b087f7e2cfda5d5b4fbde521b50e734fd'],
    'pair10_0':
        [[0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'], [1, 1, 1, 1, 1, 1, 1, 1, 1, 1], 'f90f124f2852b5ec4cdba07994ab427b310228aa8abe57807fa69d08010bffc8'],
    'pair10_1':
        [[8, '39efed8e58815a09565c478337addad2a36b2ec0dedfa200bcfb8b0c31674145'], [1, 1, 2, 2, 0, 0, 0, 0, 2, 2], '45344bb6fb8c0407f54ea9464f2a34c71e26c2b05c3b0abb600fb843a8b38084'],
    'pair11_0':
        [[16, '28471c022362bd36acf1de22ed6d3dbc5216991b13edb37af64c2366da742880'], [1, 1, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2], 'a8f09690d9b938ed973420abd8c74707152ea68302fcd2f14426092336299aef'],
    'pair11_1':
        [[8, '21bf31991ab848370d5243b2386e06f76e371ab6507598071e964a099be2770e'], [1, 1, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 0, 1], '5b65de1957fd0194caad925e63ae299e3081a6500abff2e24ea61e9d8502d098'],
    'pair1_0':
        [[8, '1c20f37f9cd7166d1d266ca3fa831a40a18f40e20602b7f57a30151256fd8c2a'], [1, 1, 1, 1, 4, 4, 4, 4, 4, 4, 4, 4], '7256ba40fd5175e854464a687c8daf78b7f413ccd41e66c0e318073effbc5df6'],
    'pair2_0':
        [[4, '6ee557b8356a95163aa0de884d16f34ad657c73d45ebdf723767017eaca61dda'], [1, 1, 2, 2, 2, 2], '651046c737a0cd3121c8b23e095be91eadc5b94b7a7a1a832853725ca9d10789'],
    'pair3_0':
        [[0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'], [1, 1, 1], '711ff5096519f975435b4ba9ad15fa4a901b541a3f3b347446e45327acaab130'],
    'pair4_0':
        [[8, '39efed8e58815a09565c478337addad2a36b2ec0dedfa200bcfb8b0c31674145'], [1, 1, 2, 2, 0, 0, 0, 0, 2, 2], 'e5464aba0c6310c78f0cca532a66ddd81c8af9568d5990e180fdbf0110d01f47'],
    'pair5_0':
        [[6, 'dfa51efd7f69568819bde9205c06544b2dc312a23e42afc0d1a57358c9be0794'], [1, 1, 0, 0, 0, 0, 0, 0, 1], '3ff1b95f69f75c2302bbad63820f1bb7044efbf97ed4005bd8e0425dcda167f8'],
    'pair6_0':
        [[2, '06b3b5dfc44df8422e0b1053b605c8c098a710e4f4b795580932e315ca66ed30'], [1, 1, 0, 0, 1], '8cb0d577049258f9ae165fbeb57158302acabcf75601dd45376b0ef5e317f959'],
    'pair7_0':
        [[2, '06b3b5dfc44df8422e0b1053b605c8c098a710e4f4b795580932e315ca66ed30'], [1, 1, 0, 0, 1], '8cb0d577049258f9ae165fbeb57158302acabcf75601dd45376b0ef5e317f959'],
    'pair8_0':
        [[2, '06b3b5dfc44df8422e0b1053b605c8c098a710e4f4b795580932e315ca66ed30'], [1, 1, 0, 0, 1], '8cb0d577049258f9ae165fbeb57158302acabcf75601dd45376b0ef5e317f959'],
    'pair9_0':
        [[6, 'dfa51efd7f69568819bde9205c06544b2dc312a23e42afc0d1a57358c9be0794'], [1, 1, 0, 0, 0, 0, 0, 0, 1], '3ff1b95f69f75c2302bbad63820f1bb7044efbf97ed4005bd8e0425dcda167f8'],
}


def test_every_case_is_pinned():
    assert sorted(computed()) == sorted(GOLDEN)


@pytest.mark.parametrize("case", list(GOLDEN))
def test_lifting_golden(case):
    assert json.loads(json.dumps(computed()[case])) == GOLDEN[case]


def test_the_cases_cover_failing_squares():
    """The pinned set reaches what it is meant to pin: morphisms that
    are not initial, squares with no filler and with two, and left maps
    that are not injective."""
    lines, counts = [], set()
    for (n, _), fillers, _ in computed().values():
        lines.append(n)
        counts.update(fillers)
    assert sum(map(bool, lines)) >= 10
    assert {0, 1, 2} <= counts
    assert sum(any(len(set(tab.values())) < len(tab)
                   for tab in e.on_objects.values())
               for e, _ in dict(_cases()).values()) >= 5
