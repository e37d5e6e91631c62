import copy
import json

import pytest

from dblinst.errors import MarkedSquareNotPullback, NameClash
from dblinst.fixtures import (builtin_multicategory, standard_instance_corpus,
                              walking_loose_model, walking_square_model,
                              weighted_graph_schema)
from dblinst.model import enumerate_model_morphisms, validate_model
from dblinst.serialize import document_of, object_of
from dblinst.sketch import (SketchModel, enumerate_sketch_model_morphisms,
                            flatten_theory, flatten_cartesian_theory,
                            loose_sort, model_to_sketch_model, ob_sort,
                            pair_sort, sketch_model_to_model,
                            validate_sketch_model)
from dblinst.theories import builtin_theory
from dblinst.theory import validate_theory

EXPECTED_SIZES = {
    # theory name -> (sketch objects, generators, relations)
    "terminal": (4, 13, 20),
    "walking_loose": (14, 50, 76),
    "walking_tight": (8, 29, 45),
    "walking_square": (28, 109, 170),
    "signed": (15, 57, 86),
}


@pytest.mark.parametrize("name,sizes", sorted(EXPECTED_SIZES.items()))
def test_flattened_sketch_sizes(name, sizes):
    t = builtin_theory(name)
    sk = flatten_theory(t)
    p = sk.presented
    assert (len(p.objects), len(p.generators), len(p.relations)) == sizes
    # one sort per object, loose arrow, composable pair and triple
    pairs = len(t.loose_comp)
    assert len(p.objects) >= len(t.objects) + len(t.loose) + pairs


def test_cartesian_flattening_marks_cones():
    t = builtin_theory("prom_trunc", 2)
    sk = flatten_cartesian_theory(t)
    p = sk.presented
    assert (len(p.objects), len(p.generators), len(p.relations)) == \
        (182, 913, 1755)
    assert len(sk.marked_products) == 32
    # every marked-product leg is a word into a declared sort
    endpoints = p.generator_endpoints()
    sorts = set(p.objects)
    for apex, legs in sk.marked_products:
        assert apex in sorts
        for word, dst in legs:
            assert dst in sorts
            for g in word:
                assert g in endpoints


def _assert_same_model(x, back):
    # the round trip preserves the element labels, so compare on the nose
    assert back.on_objects == x.on_objects
    assert back.on_tight == x.on_tight
    for m in x.theory.loose:
        assert sorted(back.on_loose[m].apex) == sorted(x.on_loose[m].apex)
        assert back.on_loose[m].left == x.on_loose[m].left
        assert back.on_loose[m].right == x.on_loose[m].right
    assert back.on_cells == x.on_cells
    assert back.laxators == x.laxators
    assert back.unitors == x.unitors


def test_model_round_trips_through_sketch_model():
    for _, x, _ in standard_instance_corpus():
        sk = flatten_theory(x.theory)
        s = model_to_sketch_model(x, sk)
        assert validate_sketch_model(s) == []
        back = sketch_model_to_model(s)
        assert validate_model(back) == []
        _assert_same_model(x, back)


def test_multicategory_model_round_trips_through_cartesian_sketch():
    from dblinst.cartesian import multicategory_to_model
    t = builtin_theory("prom_trunc", 2)
    x = multicategory_to_model(builtin_multicategory("two_object"), t)
    s = model_to_sketch_model(x, flatten_cartesian_theory(t))
    assert validate_sketch_model(s) == []
    back = sketch_model_to_model(s)
    assert validate_model(back) == []
    _assert_same_model(x, back)


def test_sketch_morphism_counts_match_model_morphism_counts():
    x = walking_loose_model(["a0", "a1"], ["b0"],
                            [("h0", "a0", "b0"), ("h1", "a1", "b0")])
    y = weighted_graph_schema()
    sk = flatten_theory(x.theory)
    sx, sy = model_to_sketch_model(x, sk), model_to_sketch_model(y, sk)
    assert len(enumerate_sketch_model_morphisms(sx, sy)) == \
        len(enumerate_model_morphisms(x, y))
    assert len(enumerate_sketch_model_morphisms(sy, sx)) == \
        len(enumerate_model_morphisms(y, x))
    assert len(enumerate_sketch_model_morphisms(sx, sx)) == \
        len(enumerate_model_morphisms(x, x))


def test_broken_relation_is_reported():
    x = weighted_graph_schema()
    sk = flatten_theory(x.theory)
    s = model_to_sketch_model(x, sk)
    # corrupt the source-leg table of the heteromorphism span
    src_leg = "src[l]"
    table = s.on_generators[src_leg]
    k = sorted(table)[0]
    table[k] = "V" if table[k] != "V" else "E"
    assert validate_sketch_model(s) != []


def test_non_pullback_pair_sort_is_rejected():
    x = walking_loose_model(["a"], ["b"], [("h", "a", "b")])
    t = x.theory
    sk = flatten_theory(t)
    s = model_to_sketch_model(x, sk)
    mm = (t.loose_id["dom"], "l")
    ps = pair_sort(*mm)
    # shrink the pair sort so the marked square is no longer a pullback
    kept = sorted(s.on_objects[ps])[:0]
    s.on_objects[ps] = type(s.on_objects[ps])(kept)
    for g in ("p1[{},{}]".format(*mm), "p2[{},{}]".format(*mm),
              "lax[{},{}]".format(*mm)):
        s.on_generators[g] = {}
    assert validate_sketch_model(s) != []
    with pytest.raises(MarkedSquareNotPullback):
        sketch_model_to_model(s)


def test_unitors_outside_the_pair_sorts_are_reported():
    # swapping two unitor values sends elements outside the pair sorts
    # of lu and ru: tabulating must not raise, and validation reports it
    x = walking_loose_model(["a{}".format(i) for i in range(6)],
                            ["b{}".format(i) for i in range(6)],
                            [("h{}".format(i), "a{}".format(i),
                              "b{}".format(i)) for i in range(6)])
    unit = x.unitors["dom"]
    unit["a0"], unit["a1"] = unit["a1"], unit["a0"]
    assert validate_model(x) != []
    s = model_to_sketch_model(x, flatten_theory(x.theory))
    assert validate_sketch_model(s) == [
        "generator lu[id:dom] not a total function",
        "generator ru[id:dom] not a total function",
        "generator lu[l] not a total function",
    ]


def _swapped(table):
    """``table`` with the values at its two least keys exchanged."""
    keys = sorted(table)
    other = next(k for k in keys if table[k] != table[keys[0]])
    return dict(table, **{keys[0]: table[other], other: table[keys[0]]})


def test_validation_writes_nothing_into_the_sketch_model():
    from dblinst.cartesian import multicategory_to_model
    x = walking_loose_model(["a0", "a1", "a2"], ["b0", "b1"],
                            [("h0", "a0", "b0"), ("h1", "a1", "b1"),
                             ("h2", "a2", "b1"), ("h3", "a2", "b0")])
    s = model_to_sketch_model(x, flatten_theory(x.theory))
    bad = SketchModel(s.sketch, s.on_objects,
                      dict(s.on_generators,
                           **{"src[l]": _swapped(s.on_generators["src[l]"])}))
    t = builtin_theory("prom_trunc", 2)
    cart = model_to_sketch_model(
        multicategory_to_model(builtin_multicategory("two_object"), t),
        flatten_cartesian_theory(t))
    for model, valid in ((s, True), (bad, False), (cart, True)):
        generators = copy.deepcopy(model.on_generators)
        objects = copy.deepcopy(model.on_objects)
        attributes = (set(vars(model)), set(vars(model.sketch)))
        for _ in range(2):
            assert (validate_sketch_model(model) == []) == valid
        assert model.on_generators == generators
        assert model.on_objects == objects
        assert (set(vars(model)), set(vars(model.sketch))) == attributes


def test_sort_carriers_match_the_model():
    x = weighted_graph_schema()
    sk = flatten_theory(x.theory)
    s = model_to_sketch_model(x, sk)
    for d in x.theory.objects:
        assert sorted(s.on_objects[ob_sort(d)]) == sorted(x.on_objects[d])
    for m in x.theory.loose:
        assert len(s.on_objects[loose_sort(m)]) == len(x.on_loose[m].apex)


def _renamed(obj, old, new):
    """The object of a document with ``old`` replaced by ``new``."""
    return object_of(json.loads(
        json.dumps(document_of(obj)).replace(old, new)))


def test_comma_in_a_cell_name_round_trips_through_the_sketch():
    x = _renamed(walking_square_model(
        {"tl": ["1", "1x"], "tr": ["2"], "bl": ["3"], "br": ["4"]},
        {"1": "3", "1x": "3"}, {"2": "4"},
        [("t", "1", "2"), ("t2", "1x", "2")],
        [("b", "3", "4")], {"t": "b", "t2": "b"}), "|", ",")
    assert "c[l,r,top,bot]" in x.theory.cells
    assert validate_theory(x.theory) == [] and validate_model(x) == []
    s = model_to_sketch_model(x, flatten_theory(x.theory))
    assert validate_sketch_model(s) == []
    back = sketch_model_to_model(s)
    assert validate_model(back) == []
    _assert_same_model(x, back)


def test_loose_names_that_share_a_pair_sort_are_a_name_clash():
    # the pairs (a, "a,a") and ("a,a", a) are both named "a,a,a"
    t = _renamed(_renamed(builtin_theory("signed"), "sigma", "a,a"),
                 "id:*", "a")
    assert validate_theory(t) == []
    with pytest.raises(NameClash, match=r"p1\[a,a,a\]"):
        flatten_theory(t)
