import json
import re

import pytest

from dblinst.collage import (close_presented_category, collage_object,
                             collage_of_model, collage_of_morphism,
                             copresheaf_to_instance, het_gen,
                             instance_to_copresheaf)
from dblinst.errors import IllFormedPresentation, NameClash
from dblinst.fincat import Copresheaf, enumerate_natural_transformations
from dblinst.finset import FiniteSet, pair_label
from dblinst.fixtures import (category_as_model, chain_category,
                              copresheaf_as_instance,
                              cyclic_translation_model,
                              cyclic_quotient_morphism,
                              parallel_pair_category,
                              profunctor_instance_fixture,
                              standard_instance_corpus,
                              tautological_instance, walking_loose_model,
                              walking_tight_model,
                              weighted_graph_instance, weighted_graph_schema)
from dblinst.instance import (enumerate_instance_morphisms,
                              find_instance_isomorphism, validate_instance)
from dblinst.migration import migrate_lan, migrate_ran, reflect_into_dopf
from dblinst.model import (ModelMorphism, enumerate_model_morphisms,
                           terminal_model, validate_model)
from dblinst.serialize import document_of, object_of


def test_collage_objects_are_model_elements():
    x = weighted_graph_schema()
    p = collage_of_model(x)
    assert sorted(p.objects) == sorted(
        [collage_object("dom", "V"), collage_object("dom", "E"),
         collage_object("cod", "Wt")])
    assert het_gen("l", "w") in p.generators


def test_a_value_outside_its_carrier_is_named_and_refused_on_closing():
    x = walking_tight_model(["a", "b"], ["c"], {"a": "c", "b": "c"})
    x.on_tight["t"] = {"a": "c", "b": "z"}
    p = collage_of_model(x)
    assert p.generators["t{t@b}"] == ("top|b", "bot|z", "tight")
    assert ("top|b", "bot|z", ("h{id:top@b}", "t{t@b}"),
            ("t{t@b}", "h{id:bot@c}")) in p.relations
    with pytest.raises(IllFormedPresentation, match=re.escape(
            "generator t{t@b} has undeclared endpoint bot|z")):
        close_presented_category(p, 4)


def test_collage_of_category_model_recovers_the_category():
    cat = chain_category(3)
    x = category_as_model(cat)
    closure = close_presented_category(collage_of_model(x), 6)
    assert len(closure.category.objects) == len(cat.objects)
    assert len(closure.category.morphisms) == len(cat.morphisms)


def test_weighted_graph_round_trip():
    x = weighted_graph_schema()
    closure = close_presented_category(collage_of_model(x), 6)
    h = weighted_graph_instance(3)
    cp = instance_to_copresheaf(h, closure)
    assert cp.validate() == []
    back = copresheaf_to_instance(cp, x, closure)
    assert validate_instance(back) == []
    assert find_instance_isomorphism(h, back) is not None


def test_round_trips_on_corpus():
    # word length 4 suffices: the longest reduced arrow word in any
    # corpus model has length 3
    for _, x, instances in standard_instance_corpus():
        closure = close_presented_category(collage_of_model(x), 4)
        for h in instances:
            cp = instance_to_copresheaf(h, closure)
            assert cp.validate() == []
            back = copresheaf_to_instance(cp, x, closure)
            assert find_instance_isomorphism(h, back) is not None


def test_morphism_counts_match_natural_transformations():
    x, h = profunctor_instance_fixture()
    k = tautological_instance(x)
    closure = close_presented_category(collage_of_model(x), 6)
    c1 = instance_to_copresheaf(h, closure)
    c2 = instance_to_copresheaf(k, closure)
    assert len(enumerate_instance_morphisms(h, k)) == \
        len(enumerate_natural_transformations(c1, c2))
    assert len(enumerate_instance_morphisms(k, h)) == \
        len(enumerate_natural_transformations(c2, c1))


def test_unique_weight_lift_out_of_each_edge():
    # every edge element has exactly one heteromorphism generator out of
    # it in the collage, pointing at its weight
    h = weighted_graph_instance(2)
    x = h.model
    closure = close_presented_category(collage_of_model(x), 6)
    cp = instance_to_copresheaf(h, closure)
    src = collage_object("dom", "E")
    dst = collage_object("cod", "Wt")
    hets = [m for m in closure.category.morphisms
            if closure.category.morphisms[m] == (src, dst)]
    assert len(hets) == 1


def test_cyclic_translation_collage_is_the_quotient_group():
    x = cyclic_translation_model(4, 2)
    # every group element reduces to a single heteromorphism generator
    closure = close_presented_category(collage_of_model(x), 3)
    cat = closure.category
    assert len(cat.objects) == 1
    # the nonidentity cell identifies translates: Z/4 collapses to Z/2
    assert len(cat.morphisms) == 2
    g = [m for m in cat.morphisms if not m.startswith("id:")][0]
    assert cat.compose(g, g) == cat.identity[cat.objects[0]]


def test_collage_functor_of_quotient_is_isomorphism():
    al = cyclic_quotient_morphism()
    c4 = close_presented_category(collage_of_model(al.source), 3)
    c2 = close_presented_category(collage_of_model(al.target), 3)
    fun = collage_of_morphism(al, c4, c2)
    assert fun.validate() == []
    assert sorted(set(fun.on_objects.values())) == sorted(c2.category.objects)
    assert sorted(set(fun.on_morphisms.values())) == \
        sorted(c2.category.morphisms)
    assert len(fun.on_morphisms) == len(set(fun.on_morphisms.values()))


def _at_clash(element):
    """A walking-loose model with loose arrow ``id:dom@a0`` and one
    heteromorphism ``h0`` out of ``element``."""
    x = walking_loose_model([element], ["b0"], [("h0", element, "b0")])
    return object_of(json.loads(
        json.dumps(document_of(x)).replace('"l"', '"id:dom@a0"')))


def test_generators_sharing_a_name_are_a_name_clash():
    # h0 on "id:dom@a0" and the identity heteromorphism at "a0@h0" are
    # both named h{id:dom@a0@h0}
    x = _at_clash("a0@h0")
    assert validate_model(x) == []
    with pytest.raises(NameClash, match=r"h\{id:dom@a0@h0\}"):
        collage_of_model(x)


def _bar_clash(element):
    """A walking-loose model over objects ``x`` and ``x|y``, with one
    element ``element`` of ``x`` and one element ``z`` of ``x|y``."""
    x = walking_loose_model([element], ["z"], [])
    return object_of(json.loads(json.dumps(document_of(x)).replace(
        '"dom"', '"x"').replace('"cod"', '"x|y"')))


def test_objects_sharing_a_name_are_a_name_clash():
    # element "y|z" of object "x" and element "z" of object "x|y"
    x = _bar_clash("y|z")
    assert validate_model(x) == []
    with pytest.raises(NameClash, match=r"x\|y\|z"):
        collage_of_model(x)


def test_reflection_does_not_name_source_generators():
    # the reflection never builds the source collage, so a name clash
    # there only renames its answer
    docs = []
    for element in ("a0@h0", "a0"):
        x = _at_clash(element)
        to_terminal = ModelMorphism(
            x, terminal_model(x.theory),
            {d: {e: "*" for e in s} for d, s in x.on_objects.items()},
            {m: {xi: "*" for xi in sp.apex} for m, sp in x.on_loose.items()})
        inst, _, _ = reflect_into_dopf(to_terminal, 4)
        assert validate_instance(inst) == []
        docs.append(json.dumps(document_of(inst), sort_keys=True))
    assert docs[0].replace("a0@h0", "a0") == docs[1]


def _pushforwards(x):
    """Sigma and Pi of the tautological instance along x -> 1."""
    to_terminal, = enumerate_model_morphisms(x, terminal_model(x.theory))
    docs = []
    for migrate in (migrate_lan, migrate_ran):
        inst = migrate(to_terminal, tautological_instance(x), bound=4)
        assert validate_instance(inst) == []
        docs.append(json.dumps(document_of(inst), sort_keys=True))
    return docs


def test_pushforwards_do_not_name_source_generators():
    # h0 on "id:dom@a0" and the identity heteromorphism at "a0@h0" share
    # a collage name, which only renames the answers
    clash, renamed = _pushforwards(_at_clash("a0@h0")), \
        _pushforwards(_at_clash("a0"))
    assert [d.replace("a0@h0", "a0") for d in clash] == renamed


def test_pushforwards_do_not_name_source_objects():
    # "x|y|z" names two source objects; with "Q" for the element "y|z"
    # the names differ but keep the objects in order, and the answers
    # differ by that rename alone
    clash, renamed = _pushforwards(_bar_clash("y|z")), \
        _pushforwards(_bar_clash("Q"))
    assert "Q" not in "".join(clash)
    assert clash == [d.replace("Q", "y|z") for d in renamed]


def test_copresheaf_as_instance_of_the_category_model():
    # copresheaves on a category are instances of its model, and the
    # collage of that model recovers the category
    cat = parallel_pair_category()
    c1 = Copresheaf(cat,
                    {"a": FiniteSet(["x"]), "b": FiniteSet(["u", "v"])},
                    {"id:a": {"x": "x"}, "id:b": {"u": "u", "v": "v"},
                     "f": {"x": "u"}, "g": {"x": "v"}})
    xm = category_as_model(cat)
    h = copresheaf_as_instance(c1, xm)
    assert validate_instance(h) == []
    closure = close_presented_category(collage_of_model(xm), 8)
    cp = instance_to_copresheaf(h, closure)
    assert {o: list(s) for o, s in cp.on_objects.items()} == {
        "*|a": ["(a,x)"], "*|b": ["(b,u)", "(b,v)"]}
    for g, (s, d) in cat.morphisms.items():
        mor = closure.word_class(collage_object("*", s), (het_gen("id:*", g),))
        assert cp.on_morphisms[mor] == {
            pair_label(s, v): pair_label(d, w)
            for v, w in c1.on_morphisms[g].items()}
