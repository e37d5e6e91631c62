"""Golden closures: the closed corpus collages, and the word-length
boundary of a few presentations, pinned to recorded values.

Each case records the sorted morphism names of a closure and a sha256
of its sorted endpoints, identities and composition table, so any
change to naming, representatives or identifications shows up here.
The values were recorded with the word-saturation closure engine.
"""

import hashlib
import json

import pytest

from dblinst.cartesian import multicategory_to_model
from dblinst.collage import close_presented_category, collage_of_model
from dblinst.errors import HomSetNotFinite
from dblinst.fixtures import (builtin_multicategory, category_as_model,
                              chain_category, codiscrete_monad_model,
                              cyclic_translation_model,
                              profunctor_instance_fixture,
                              signed_fixture_graphs, signed_fixture_models,
                              weighted_graph_schema)
from dblinst.theories import builtin_theory
from dblinst.words import ClosedWordCategory


def table_digest(cat):
    """sha256 of the sorted endpoints, identities and composition."""
    doc = [sorted([m, s, d] for m, (s, d) in cat.morphisms.items()),
           sorted(cat.identity.items()),
           sorted([f, g, h] for (f, g), h in cat.comp.items())]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _collage(x, bound):
    return lambda: close_presented_category(collage_of_model(x), bound)


def _multicategory_collage(name, bound):
    return _collage(multicategory_to_model(builtin_multicategory(name),
                                           builtin_theory("prom_trunc", 2)),
                    bound)


def golden_cases():
    cases = {
        "weighted_graph": _collage(weighted_graph_schema(), 4),
        "profunctor": _collage(profunctor_instance_fixture()[0], 4),
        "monad": _collage(codiscrete_monad_model(), 4),
    }
    for n, q in ((4, 2), (2, 0), (6, 3)):
        cases["cyclic_{}_{}".format(n, q)] = _collage(
            cyclic_translation_model(n, q), 3)
    for n in range(1, 5):
        cases["chain_{}".format(n)] = _collage(
            category_as_model(chain_category(n)), 4)
    for i, x in enumerate(signed_fixture_models()):
        cases["signed_{}".format(i)] = lambda x=x: x.word_closure
        cases["signed_collage_{}".format(i)] = _collage(x, 4)
    cases["multicategory_two_object"] = _multicategory_collage(
        "two_object", 4)
    return cases


GOLDEN = {
    "chain_1": (
        ["id:*|0"],
        "5a819b322109d91e59544bb36eabe85182036f688dd93ddbbfdcd7f3ba24ff81"),
    "chain_2": (
        ["h{id:*@0<1}", "id:*|0", "id:*|1"],
        "a1a75725cfc93bf658161e8a88fd461c81d3e5246689c199b9897482886b361e"),
    "chain_3": (
        ["h{id:*@0<1}", "h{id:*@0<2}", "h{id:*@1<2}", "id:*|0", "id:*|1",
         "id:*|2"],
        "0d65b2c7ebfc2bf562389fbf8d5ade1460fa2400afbec1c1a762e34bfe494d6b"),
    "chain_4": (
        ["h{id:*@0<1}", "h{id:*@0<2}", "h{id:*@0<3}", "h{id:*@1<2}",
         "h{id:*@1<3}", "h{id:*@2<3}", "id:*|0", "id:*|1", "id:*|2",
         "id:*|3"],
        "4b3aa0803ac9275b727eeca7171238faaf8d98112131673ab970387134e9460a"),
    "cyclic_2_0": (
        ["h{id:*@1}", "id:*|*"],
        "29349f67f1e8748031ae2bd3623ba0f928173ba8268b5c631ff4e568b8b2fa5c"),
    "cyclic_4_2": (
        ["h{id:*@1}", "id:*|*"],
        "29349f67f1e8748031ae2bd3623ba0f928173ba8268b5c631ff4e568b8b2fa5c"),
    "cyclic_6_3": (
        ["h{id:*@1}", "h{id:*@2}", "id:*|*"],
        "764fa075f8690a3ff4f6f3128c66ae15a1a9d82b43f31c219029b2bb09632cd8"),
    "monad": (
        ["h{id:x@(b,a)}", "id:x|a", "id:x|b", "t{t1@a}"],
        "e8af853ff940223b28413e14124c1d035113d2c6ac4fb23cfe71b3c713b6aa17"),
    "multicategory_two_object": (
        ["h{lf:2-1:1.1@[pair]}", "h{lf:2-1:1.1@[pair]};t{tf:1-2:1.1@b}",
         "id:x0|()", "id:x1|a", "id:x1|b", "id:x2|(a,a)", "id:x2|(a,b)",
         "id:x2|(b,a)", "id:x2|(b,b)", "t{tf:1-0:@a}", "t{tf:1-0:@b}",
         "t{tf:1-2:1.1@a}", "t{tf:1-2:1.1@a};h{lf:2-1:1.1@[pair]}",
         "t{tf:1-2:1.1@a};h{lf:2-1:1.1@[pair]};t{tf:1-2:1.1@b}",
         "t{tf:1-2:1.1@b}", "t{tf:2-0:@(a,a)}", "t{tf:2-0:@(a,b)}",
         "t{tf:2-0:@(b,a)}", "t{tf:2-0:@(b,b)}", "t{tf:2-1:1@(a,a)}",
         "t{tf:2-1:1@(a,b)}", "t{tf:2-1:1@(b,a)}", "t{tf:2-1:1@(b,b)}",
         "t{tf:2-1:2@(a,a)}", "t{tf:2-1:2@(a,b)}", "t{tf:2-1:2@(b,a)}",
         "t{tf:2-1:2@(b,b)}", "t{tf:2-2:1.1@(a,a)}",
         "t{tf:2-2:1.1@(a,a)};h{lf:2-1:1.1@[pair]}",
         "t{tf:2-2:1.1@(a,a)};h{lf:2-1:1.1@[pair]};t{tf:1-2:1.1@b}",
         "t{tf:2-2:1.1@(a,b)}", "t{tf:2-2:1.1@(a,b)};h{lf:2-1:1.1@[pair]}",
         "t{tf:2-2:1.1@(a,b)};h{lf:2-1:1.1@[pair]};t{tf:1-2:1.1@b}",
         "t{tf:2-2:1.1@(b,a)}", "t{tf:2-2:1.1@(b,b)}", "t{tf:2-2:2.1@(a,a)}",
         "t{tf:2-2:2.1@(a,a)};h{lf:2-1:1.1@[pair]}",
         "t{tf:2-2:2.1@(a,a)};h{lf:2-1:1.1@[pair]};t{tf:1-2:1.1@b}",
         "t{tf:2-2:2.1@(a,b)}", "t{tf:2-2:2.1@(b,a)}", "t{tf:2-2:2.1@(b,b)}",
         "t{tf:2-2:2.2@(a,a)}", "t{tf:2-2:2.2@(a,a)};h{lf:2-1:1.1@[pair]}",
         "t{tf:2-2:2.2@(a,a)};h{lf:2-1:1.1@[pair]};t{tf:1-2:1.1@b}",
         "t{tf:2-2:2.2@(a,b)}", "t{tf:2-2:2.2@(b,a)}",
         "t{tf:2-2:2.2@(b,a)};h{lf:2-1:1.1@[pair]}",
         "t{tf:2-2:2.2@(b,a)};h{lf:2-1:1.1@[pair]};t{tf:1-2:1.1@b}",
         "t{tf:2-2:2.2@(b,b)}"],
        "653f0fdc0db268536bb1350bb6ee793a7ed099cc2cf42e08fb244e5c234805db"),
    "profunctor": (
        ["h{l@h0}", "h{l@h1}", "h{l@h2}", "id:cod|b0", "id:cod|b1",
         "id:dom|a0", "id:dom|a1"],
        "35979c225b95d0fae9f38001d935ec82f6dbd0ab47ad8c6a8731dc254525e0a8"),
    "signed_0": (
        ["a", "a;b", "a;b;q", "b", "b;q", "id:u", "id:v", "id:w", "p", "p;a",
         "p;a;b", "p;a;b;q", "q"],
        "9d2f78638091f874e0dd93433bb71e0a5abc98085106b43b6117abfdeae77434"),
    "signed_1": (
        ["e", "e;n2", "id:x", "id:y", "n1", "n1;e", "n1;e;n2", "n2"],
        "2b3a04f056737f6e38a640d181d4acb2d00e3703a7d5409f3aabe18bc132790a"),
    "signed_2": (
        ["f", "f;g", "f;g;r", "g", "g;r", "h", "h;r", "id:s", "id:t", "id:z",
         "r"],
        "cfbb7a1218381e9edf9ebd479d66addf2595aef9ab7d82daa6b6de0b97450bb7"),
    "signed_collage_0": (
        ["h{id:*@a}", "h{id:*@p;a;b;q}", "h{id:*@p;a;b}", "h{id:*@q}",
         "h{sigma@a;b;q}", "h{sigma@a;b}", "h{sigma@b;q}", "h{sigma@b}",
         "h{sigma@p;a}", "h{sigma@p}", "id:*|u", "id:*|v", "id:*|w"],
        "83bf2d82b3a02f03270995f0965b9ead2806ddd7be118bdfb8a2d3454d3633d9"),
    "signed_collage_1": (
        ["h{id:*@e;n2}", "h{id:*@n1;e}", "h{sigma@e}", "h{sigma@n1;e;n2}",
         "h{sigma@n1}", "h{sigma@n2}", "id:*|x", "id:*|y"],
        "a782fe30e04532c60648c27f87c6619dad57bc9dcf03134b5bcc84f8ee395350"),
    "signed_collage_2": (
        ["h{id:*@f;g;r}", "h{id:*@f;g}", "h{id:*@f}", "h{id:*@g;r}",
         "h{id:*@g}", "h{id:*@r}", "h{sigma@h;r}", "h{sigma@h}", "id:*|s",
         "id:*|t", "id:*|z"],
        "9161b6342907e397c547ce4dd0807b69f7ba81fb25f1f138b4b003d5ce6a0ab8"),
    "weighted_graph": (
        ["h{l@w}", "id:cod|Wt", "id:dom|E", "id:dom|V"],
        "0f63d4e1b247ce643c5c8a3655f7cb8d67186eaec009ab7242af4e524ef13953"),
}


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_closure_matches_golden(name):
    cat = golden_cases()[name]().category
    names, digest = GOLDEN[name]
    assert sorted(cat.morphisms) == names
    assert table_digest(cat) == digest


def _signed_presentation(i):
    g = signed_fixture_graphs()[i]
    gens = {name: (s, d) for name, s, d, _ in g.edges}
    rels = [(v, v, (name, name), ()) for name, v, _, _ in g.loops()]
    return g.vertices, gens, rels


BOUNDARY = {
    # name: (objects, generators, relations, longest normal form)
    "free_chain": (["a", "b", "c"], {"f": ("a", "b"), "g": ("b", "c")},
                   [], 2),
    "cyclic_group": (["*"], {"r": ("*", "*")},
                     [("*", "*", ("r", "r", "r"), ())], 2),
    "commuting_square": (
        ["a", "b", "c", "d"],
        {"f": ("a", "b"), "g": ("a", "c"), "h": ("b", "d"), "k": ("c", "d")},
        [("a", "d", ("f", "h"), ("g", "k"))], 2),
    "idempotent": (["*"], {"e": ("*", "*")},
                   [("*", "*", ("e", "e"), ("e",))], 1),
    "signed_0": _signed_presentation(0) + (4,),
    "signed_1": _signed_presentation(1) + (3,),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY))
def test_closure_boundary_is_the_longest_normal_form(name):
    objects, gens, rels, longest = BOUNDARY[name]
    cl = ClosedWordCategory(objects, gens, rels, longest + 1)
    assert max(len(w) for _, w in cl.rep_words.values()) == longest
    with pytest.raises(HomSetNotFinite):
        ClosedWordCategory(objects, gens, rels, longest)


@pytest.mark.parametrize("name", ["terminal", "join"])
def test_one_object_multicategory_collages_do_not_close(name):
    # new classes keep appearing (checked up to word length 30)
    with pytest.raises(HomSetNotFinite):
        _multicategory_collage(name, 2)()
