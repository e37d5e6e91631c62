import os
import subprocess
import sys

import pytest

import dblinst

from dblinst.elements import (DopfWitness, canonical_elements_comparison,
                              dopf_morphism_from_objects, elements,
                              is_discrete_opfibration,
                              kappa_creates_dopf_check, nabla)
from dblinst.errors import (InvalidMorphism, NoExtension,
                            NotDiscreteOpfibration, PartialMorphism)
from dblinst.fixtures import (category_as_model, chain_category,
                              coproduct_instance, empty_instance, representable_instances,
                              standard_instance_corpus,
                              walking_loose_model,
                              weighted_graph_instance, weighted_graph_schema)
from dblinst.instance import find_instance_isomorphism, validate_instance
from dblinst.model import (ModelMorphism, compose_model_morphisms,
                           terminal_model, validate_model,
                           validate_model_morphism)


def test_elements_produces_valid_model_and_projection():
    h = weighted_graph_instance(2)
    em, pi, witness = elements(h)
    assert validate_model(em) == []
    assert validate_model_morphism(pi) == []
    assert witness.validate() == []
    check = is_discrete_opfibration(pi)
    assert check.ok


def test_nabla_elements_round_trip_is_identity_on_actions():
    h = weighted_graph_instance(3)
    _, pi, witness = elements(h)
    back = nabla(pi, witness)
    assert validate_instance(back) == []
    iso = find_instance_isomorphism(h, back)
    assert iso is not None


def test_elements_nabla_round_trip_over_the_base():
    h = weighted_graph_instance(2)
    _, pi, witness = elements(h)
    comparison, e2, pi2 = canonical_elements_comparison(pi, witness)
    assert validate_model_morphism(comparison) == []
    # the comparison is an isomorphism commuting with the projections
    composite = compose_model_morphisms(comparison, pi)
    assert composite.on_objects == pi2.on_objects
    assert composite.on_loose == pi2.on_loose


def test_non_dopf_detected():
    x = walking_loose_model(["a"], ["b"],
                            [("h0", "a", "b"), ("h1", "a", "b")])
    y = walking_loose_model(["a"], ["b"], [("h", "a", "b")])
    fold = ModelMorphism(x, y, {"dom": {"a": "a"}, "cod": {"b": "b"}},
                         {"id:dom": {"a": "a"}, "id:cod": {"b": "b"},
                          "l": {"h0": "h", "h1": "h"}})
    assert validate_model_morphism(fold) == []
    check = is_discrete_opfibration(fold)
    assert not check.ok and check.counterexample is not None
    with pytest.raises(NotDiscreteOpfibration):
        nabla(fold)


def test_a_witness_is_computed_or_validated_once(monkeypatch):
    calls = []
    validate = DopfWitness.validate
    monkeypatch.setattr(DopfWitness, "validate",
                        lambda w: calls.append(w) or validate(w))
    _, pi, witness = elements(weighted_graph_instance(2))
    bad = DopfWitness(pi, {m: {} for m in witness.bijections})
    with pytest.raises(NotDiscreteOpfibration,
                       match="not total on the pullback"):
        nabla(pi, bad)
    assert calls == [bad]
    calls.clear()
    canonical_elements_comparison(pi)
    assert calls == []
    canonical_elements_comparison(pi, witness)
    assert calls == [witness]


def test_partial_morphism_is_refused_by_name():
    x = walking_loose_model(["a0", "a1"], ["b"], [("h", "a0", "b")])
    f = ModelMorphism(x, terminal_model(x.theory),
                      {"dom": {"a0": "*"}, "cod": {"b": "*"}},
                      {"id:dom": {"a0": "*", "a1": "*"},
                       "id:cod": {"b": "*"}, "l": {"h": "*"}})
    with pytest.raises(PartialMorphism, match="component at object dom"):
        is_discrete_opfibration(f)


def test_kappa_creation_agreement_on_mixed_examples():
    results = []
    # dopfs: elements projections
    h = weighted_graph_instance(2)
    _, pi, _ = elements(h)
    results.append(kappa_creates_dopf_check(pi, bound=4))
    # non-dopf: the fold above
    x = walking_loose_model(["a"], ["b"],
                            [("h0", "a", "b"), ("h1", "a", "b")])
    y = walking_loose_model(["a"], ["b"], [("h", "a", "b")])
    fold = ModelMorphism(x, y, {"dom": {"a": "a"}, "cod": {"b": "b"}},
                         {"id:dom": {"a": "a"}, "id:cod": {"b": "b"},
                          "l": {"h0": "h", "h1": "h"}})
    results.append(kappa_creates_dopf_check(fold, bound=4))
    for model_level, classical in results:
        assert model_level == classical


def test_empty_instance_projection_is_dopf():
    x = weighted_graph_schema()
    _, pi, _ = elements(empty_instance(x))
    assert is_discrete_opfibration(pi).ok
    model_level, classical = kappa_creates_dopf_check(pi, bound=4)
    assert model_level == classical == True  # noqa: E712


def test_dopf_morphism_extension_is_forced():
    x = weighted_graph_schema()
    h = weighted_graph_instance(2)
    k = coproduct_instance(h, h)
    _, p, wp = elements(h)
    eq, q, wq = elements(k)
    on_objects = {d: {e: "(L," + e + ")" for e in p.source.on_objects[d]}
                  for d in x.theory.objects}
    mor = dopf_morphism_from_objects(p, q, wq, on_objects)
    assert validate_model_morphism(mor) == []
    assert compose_model_morphisms(mor, q).on_objects == p.on_objects
    # sending a vertex element over an edge element cannot extend
    bad = {d: dict(t) for d, t in on_objects.items()}
    bad["dom"]["v0"] = "(L,e0)"
    with pytest.raises(NoExtension):
        dopf_morphism_from_objects(p, q, wq, bad)
    # crossing the two summands breaks the forced loose components
    mixed = {d: dict(t) for d, t in on_objects.items()}
    mixed["cod"]["5"] = "(R,5)"
    with pytest.raises(NoExtension):
        dopf_morphism_from_objects(p, q, wq, mixed)


def test_nabla_of_classical_dopf_matches_the_copresheaf():
    # representable over the chain: nabla recovers the hom carriers
    B = category_as_model(chain_category(3))
    reps = representable_instances(B)
    for h in reps:
        _, pi, witness = elements(h)
        back = nabla(pi, witness)
        assert find_instance_isomorphism(h, back) is not None


def test_round_trips_on_full_corpus():
    for _, _, instances in standard_instance_corpus():
        for h in instances:
            _, pi, witness = elements(h)
            assert witness.validate() == []
            back = nabla(pi, witness)
            assert find_instance_isomorphism(h, back) is not None
            comparison, _, pi2 = canonical_elements_comparison(pi, witness)
            assert validate_model_morphism(comparison) == []
            assert compose_model_morphisms(comparison, pi).on_loose == \
                pi2.on_loose


def _unitor_breaking_morphism():
    """The identity of wl({a0} -> {b0}) into wl({a0, a1} -> {b0}),
    except that the unitor image of a0 is a1's.  The unitor generator
    collapses to an identity, so a collage functor built from
    representative words never maps it."""
    x = walking_loose_model(["a0"], ["b0"], [("h", "a0", "b0")])
    y = walking_loose_model(["a0", "a1"], ["b0"], [("h", "a0", "b0")])
    return ModelMorphism(x, y, {"dom": {"a0": "a0"}, "cod": {"b0": "b0"}},
                         {"l": {"h": "h"}, "id:dom": {"a0": "a1"},
                          "id:cod": {"b0": "b0"}})


def test_kappa_check_refuses_a_morphism_that_is_not_one():
    with pytest.raises(InvalidMorphism, match="^not a model morphism: "
                       "left leg broken at id:dom on a0"):
        kappa_creates_dopf_check(_unitor_breaking_morphism(), bound=4)


def test_kappa_check_refuses_a_morphism_that_is_not_one_without_asserts():
    package_root = os.path.dirname(os.path.dirname(dblinst.__file__))
    paths = [package_root, os.path.dirname(os.path.abspath(__file__)),
             os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = ("from test_elements import _unitor_breaking_morphism\n"
            "from dblinst.elements import kappa_creates_dopf_check\n"
            "from dblinst.errors import InvalidMorphism\n"
            "try:\n"
            "    print(kappa_creates_dopf_check(_unitor_breaking_morphism(),"
            " bound=4))\n"
            "except InvalidMorphism as e:\n"
            "    print('raised', e)\n")
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.startswith(
        "raised not a model morphism: left leg broken at id:dom on a0")
