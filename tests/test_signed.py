import os
import re
import subprocess
import sys

import pytest

import dblinst
from dblinst import fixtures
from dblinst.errors import FreeCategoryNotFinite, IllFormedPresentation
from dblinst.fixtures import (feedback_loop_count, signed_cycle_oracle,
                              signed_fixture_graphs, signed_fixture_models)
from dblinst.model import validate_model
from dblinst.signed import (SignedGraph, free_signed_category,
                            involutive_loop_category,
                            model_morphism_from_graph_map,
                            walking_feedback_loop)
from dblinst.model import validate_model_morphism


def test_free_signed_category_on_acyclic_graph():
    g = SignedGraph(["a", "b", "c"],
                    [("e", "a", "b", +1), ("f", "b", "c", -1),
                     ("g", "a", "c", -1)])
    x = free_signed_category(g, 6)
    assert validate_model(x) == []
    # arrows: 3 identities, 3 edges, 1 composite e;f
    assert len(x.arrow_category.morphisms) == 7
    assert x.arrow_sign[x.word_closure.word_class("a", ("e", "f"))] == -1


def test_free_signed_category_rejects_cycles():
    g = SignedGraph(["a"], [("loop", "a", "a", +1)])
    with pytest.raises(FreeCategoryNotFinite):
        free_signed_category(g, 6)


def test_involutive_loop_quotients_validate():
    for x in signed_fixture_models():
        assert validate_model(x) == []


def test_signs_multiply_under_composition():
    for x in signed_fixture_models():
        cat = x.arrow_category
        for (f, g), h in cat.comp.items():
            assert x.arrow_sign[h] == x.arrow_sign[f] * x.arrow_sign[g]


def test_walking_feedback_loops():
    for sign in (+1, -1):
        w = walking_feedback_loop(sign)
        assert validate_model(w) == []
        # one object, identity plus one involutive loop of the sign
        assert len(w.on_objects["*"]) == 1
        assert len(w.arrow_category.morphisms) == 2
        loop = [f for f in w.arrow_category.morphisms
                if not f.startswith("id:")][0]
        assert w.arrow_sign[loop] == sign
        assert w.arrow_category.comp[(loop, loop)].startswith("id:")


@pytest.mark.parametrize("sign", [+1, -1])
def test_feedback_loop_counts_match_the_graph_oracle(sign):
    for graph, model in zip(signed_fixture_graphs(), signed_fixture_models()):
        assert feedback_loop_count(model, sign) == \
            signed_cycle_oracle(graph, sign)


def test_feedback_loop_count_builds_one_walking_loop_per_sign(monkeypatch):
    built = []

    def counted(sign):
        built.append(sign)
        return walking_feedback_loop(sign)

    monkeypatch.setattr(fixtures, "walking_feedback_loop", counted)
    monkeypatch.setattr(fixtures, "_WALKING_LOOPS", {})
    for _ in range(3):
        for graph, model in zip(signed_fixture_graphs(),
                                signed_fixture_models()):
            for sign in (+1, -1):
                assert feedback_loop_count(model, sign) == \
                    signed_cycle_oracle(graph, sign)
    assert sorted(built) == [-1, +1]


def test_graph_map_induces_model_morphism():
    g = SignedGraph(["u", "v"], [("a", "u", "v", -1), ("p", "u", "u", -1)])
    h = SignedGraph(["z"], [("q", "z", "z", -1)])
    xs = involutive_loop_category(g, 6)
    xt = involutive_loop_category(h, 6)
    mor = model_morphism_from_graph_map(xs, xt,
                                        {"u": "z", "v": "z"},
                                        {"a": ("q",), "p": ("q",)})
    assert validate_model_morphism(mor) == []


def test_edge_names_may_contain_the_word_separator():
    g = SignedGraph(["a", "b", "c"],
                    [("e;1", "a", "b", -1), ("f", "b", "c", -1)])
    x = free_signed_category(g, 4)
    assert validate_model(x) == []
    assert x.arrow_sign["e;1"] == -1
    assert x.arrow_sign[x.word_closure.word_class("a", ("e;1", "f"))] == +1
    mor = model_morphism_from_graph_map(x, x, {v: v for v in g.vertices},
                                        {"e;1": ("e;1",), "f": ("f",)})
    assert validate_model_morphism(mor) == []


def test_ill_formed_signed_relations_are_refused_also_without_asserts():
    """A relation changing the sign, or naming an unknown edge, raises
    ``IllFormedRelation``, also under ``python -O``, which skips
    asserts."""
    package_root = os.path.dirname(os.path.dirname(dblinst.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    code = ("from dblinst.errors import IllFormedRelation\n"
            "from dblinst.signed import SignedGraph, quotient_signed_category\n"
            "g = SignedGraph(['v'], [('p', 'v', 'v', -1)])\n"
            "for rel in (('v', 'v', ('p',), ()), ('v', 'v', ('p', 'q'), ())):\n"
            "    try:\n"
            "        print('returned', quotient_signed_category(g, [rel], 4))\n"
            "    except IllFormedRelation as e:\n"
            "        print('raised', e)\n")
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == [
        "raised relation ['p'] = [] does not preserve the sign",
        "raised relation names unknown edges ['q']"]


@pytest.mark.parametrize("edge, message", [
    (("p", "u", "v", 2), "edge p has sign 2, not +1 or -1"),
    (("p", "u", "w", 1), "edge p has undeclared endpoint w")])
def test_an_ill_formed_edge_is_refused(edge, message):
    with pytest.raises(IllFormedPresentation,
                       match="^{}$".format(re.escape(message))):
        SignedGraph(["u", "v"], [edge])


def test_ill_formed_edges_are_refused_also_without_asserts():
    """An edge of sign 2 was silently dropped under ``python -O``,
    which skips asserts, so this runs in a subprocess with that flag."""
    package_root = os.path.dirname(os.path.dirname(dblinst.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    code = ("from dblinst.errors import IllFormedPresentation\n"
            "from dblinst.model import validate_model\n"
            "from dblinst.signed import SignedGraph, quotient_signed_category\n"
            "for edge in (('p', 'u', 'v', 2), ('p', 'u', 'w', 1)):\n"
            "    try:\n"
            "        g = SignedGraph(['u', 'v'], [edge])\n"
            "        print('returned', validate_model(\n"
            "            quotient_signed_category(g, [], 4)))\n"
            "    except IllFormedPresentation as e:\n"
            "        print('raised', e)\n")
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == [
        "raised edge p has sign 2, not +1 or -1",
        "raised edge p has undeclared endpoint w"]
