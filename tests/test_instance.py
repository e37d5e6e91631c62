from operator import setitem

import pytest

from dblinst import instance as instance_module
from dblinst.errors import ModelMismatch
from dblinst.fixtures import (coproduct_instance,
                              empty_instance, monad_instance_fixture,
                              profunctor_instance_fixture,
                              representable_instances,
                              standard_instance_corpus,
                              tautological_instance, walking_loose_model,
                              walking_tight_model, weighted_graph_instance,
                              weighted_graph_schema)
from dblinst.finset import pair_label
from dblinst.instance import (InstanceMorphism, compose_instance_morphisms,
                              enumerate_instance_morphisms,
                              find_instance_isomorphism,
                              identity_instance_morphism, restrict_instance,
                              validate_instance, validate_instance_morphism)
from dblinst.model import enumerate_model_morphisms, identity_morphism
from refusal_cases import in_process, loose_model, within


def test_corpus_instances_validate():
    for _, _, instances in standard_instance_corpus():
        for h in instances:
            assert validate_instance(h) == []


def test_named_instances_validate():
    assert validate_instance(weighted_graph_instance(3)) == []
    _, h = profunctor_instance_fixture()
    assert validate_instance(h) == []
    _, h = monad_instance_fixture()
    assert validate_instance(h) == []


def test_empty_instance_validates():
    x = weighted_graph_schema()
    assert validate_instance(empty_instance(x)) == []


def test_action_must_respect_heteromorphism_targets():
    h = weighted_graph_instance(2)
    h.actions["l"][("e0", "w")] = "e1"  # lands in the wrong fiber
    assert validate_instance(h) != []


def test_labels_must_land_in_the_model():
    h = weighted_graph_instance(2)
    h.labels["dom"]["e0"] = "Wt"
    assert validate_instance(h) != []


def test_monad_instance_tight_action_matches_unit_heteromorphism():
    x, h = monad_instance_fixture()
    # acting along the heteromorphism from an element to its tight image
    # agrees with the tight action itself
    for e in h.carriers["x"]:
        b = h.labels["x"][e]
        het = pair_label(b, x.on_tight["t1"][b])
        assert h.actions["id:x"][(e, het)] == h.tight_cells["t1"][e]


def test_instance_morphism_identity_and_composition():
    h = weighted_graph_instance(2)
    i = identity_instance_morphism(h)
    assert validate_instance_morphism(i) == []
    assert compose_instance_morphisms(i, i) == i


def test_instance_morphism_enumeration_count():
    x = walking_loose_model(["a"], ["b"], [("h", "a", "b")])
    one = tautological_instance(x)
    two = coproduct_instance(one, one)
    into = enumerate_instance_morphisms(one, two)
    assert len(into) == 2
    out = enumerate_instance_morphisms(two, one)
    assert len(out) == 1
    for mu in into + out:
        assert validate_instance_morphism(mu) == []


def test_find_instance_isomorphism_is_symmetric():
    h = weighted_graph_instance(2)
    k = weighted_graph_instance(2)
    assert find_instance_isomorphism(h, k) is not None
    assert find_instance_isomorphism(h, weighted_graph_instance(3)) is None


def test_find_instance_isomorphism_is_the_first_bijective_morphism():
    """The lazy search returns the first bijective morphism of the
    sorted hom-set."""
    pairs = [(weighted_graph_instance(i), weighted_graph_instance(j))
             for i, j in ((2, 2), (3, 3), (4, 4), (3, 4))]
    for _, _, instances in standard_instance_corpus():
        pairs += [(h, k) for h in instances for k in instances]
    for h, k in pairs:
        bijective = [mu for mu in enumerate_instance_morphisms(h, k)
                     if all(sorted(t.values()) == list(k.carriers[d])
                            for d, t in mu.components.items())]
        found = find_instance_isomorphism(h, k)
        assert (found is None) == (not bijective)
        if bijective:
            assert found == bijective[0]


def test_find_instance_isomorphism_stops_at_the_first_hit(monkeypatch):
    """weighted_graph_instance(5) has 1820 endomorphisms; finding an
    automorphism must not build them all."""
    built = []

    class Counting(instance_module.InstanceMorphism):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(instance_module, "InstanceMorphism", Counting)
    h = weighted_graph_instance(5)
    assert find_instance_isomorphism(h, h) is not None
    assert len(built) < 10


def test_morphisms_across_models_are_a_typed_error():
    h = tautological_instance(walking_loose_model(["a"], ["b"], []))
    k = tautological_instance(loose_model())
    for search in (enumerate_instance_morphisms, find_instance_isomorphism):
        with pytest.raises(ModelMismatch, match="spans"):
            search(h, k)
        with pytest.raises(ModelMismatch, match="spans"):
            search(k, h)
    other = tautological_instance(walking_loose_model(["a", "c"], ["b"], []))
    with pytest.raises(ModelMismatch, match="carriers"):
        enumerate_instance_morphisms(h, other)


def test_validating_a_morphism_across_models_is_a_typed_error():
    h = tautological_instance(walking_loose_model(["a"], ["b"], []))
    k = tautological_instance(loose_model())
    mu = InstanceMorphism(h, k, {d: {e: e for e in h.carriers[d]}
                                 for d in h.carriers})
    with pytest.raises(ModelMismatch, match="spans"):
        validate_instance_morphism(mu)


NOT_COMPOSABLE = ["ModelMismatch", "the target of the first morphism is not "
                  "the source of the second"]
ACROSS_MODELS = {"compose_model_morphisms": NOT_COMPOSABLE,
                 "compose_instance_morphisms": NOT_COMPOSABLE,
                 "restrict": ["ModelMismatch", "instance does not live over "
                              "the morphism's target"]}


def test_composing_or_restricting_across_models_is_a_typed_error(
        outcomes_under_O):
    """Refused with ``ModelMismatch``, also under ``python -O``, which
    skips asserts."""
    for label, expected in ACROSS_MODELS.items():
        assert in_process("instance." + label) == expected
    assert within(outcomes_under_O, "instance.") == ACROSS_MODELS


def test_coproduct_instance_sizes_add():
    h = weighted_graph_instance(2)
    hh = coproduct_instance(h, h)
    assert validate_instance(hh) == []
    assert hh.total_size() == 2 * h.total_size()


def test_representable_instances_validate():
    x = weighted_graph_schema()
    reps = representable_instances(x)
    assert len(reps) == 3  # one per collage object: V, E, Wt
    for h in reps:
        assert validate_instance(h) == []


def test_restrict_instance_along_morphism():
    x = walking_loose_model(["a0", "a1"], ["b0"],
                            [("h0", "a0", "b0"), ("h1", "a1", "b0")])
    y = walking_loose_model(["a"], ["b"], [("h", "a", "b")])
    al = enumerate_model_morphisms(x, y)[0]
    hy = tautological_instance(y)
    hx = restrict_instance(al, hy)
    assert validate_instance(hx) == []
    # each element over x carries the fiber over its image: the two
    # dom elements share the one fiber over "a", cod keeps one element
    assert len(hx.carriers["dom"]) == 2
    assert len(hx.carriers["cod"]) == 1


# ---------------------------------------------------------------------------
# the tight-cell report lines of validate_instance, and its report of a
# model span, pinned by one corruption each


def _tautological_bijection():
    return tautological_instance(walking_tight_model(
        ["p", "q"], ["p2", "q2"], {"p": "p2", "q": "q2"}))


def _doubled_monad_instance():
    _, h = monad_instance_fixture()
    return coproduct_instance(h, h)


INSTANCE_CORRUPTIONS = {
    "tight cell not total": (
        _tautological_bijection,
        lambda h: h.tight_cells["t"].pop("q"),
        "tight cell at t not total"),
    "tight cell breaks labels": (
        _tautological_bijection,
        lambda h: setitem(h.tight_cells["t"], "p", "q2"),
        "tight cell at t breaks labels at p"),
    "tight identity not the identity": (
        weighted_graph_instance,
        lambda h: setitem(h.tight_cells["id:dom"], "v0", "v1"),
        "tight identity at dom not the identity"),
    "tight functoriality fails": (
        _doubled_monad_instance,
        lambda h: setitem(h.tight_cells["t2"], "(L,ea)", "(R,eb)"),
        "tight functoriality fails at (t1,t1)"),
    # the model's shape is checked before any of it is read
    "model span missing": (
        weighted_graph_instance,
        lambda h: h.model.on_loose.pop("id:cod"),
        "loose arrow id:cod has no well-typed span"),
}


@pytest.mark.parametrize("case", sorted(INSTANCE_CORRUPTIONS))
def test_one_corruption_gives_its_report_line_first(case):
    build, corrupt, first = INSTANCE_CORRUPTIONS[case]
    h = build()
    assert validate_instance(h) == []
    corrupt(h)
    assert validate_instance(h)[0] == first


def test_restricting_over_a_model_with_other_spans_is_a_typed_error():
    """Same carriers, different spans: refused before any action is
    read."""
    y = walking_loose_model(["a"], ["b"], [("h", "a", "b")])
    h = tautological_instance(walking_loose_model(["a"], ["b"], []))
    with pytest.raises(ModelMismatch, match="^instance does not live over "
                                            "the morphism's target$"):
        restrict_instance(identity_morphism(y), h)
