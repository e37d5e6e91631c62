import os
import random
import re
import subprocess
import sys
from contextlib import contextmanager

import pytest

import dblinst
from dblinst import collage, migration, search
from dblinst.errors import (HomSetNotFinite, HomSetTooLarge, InvalidMorphism,
                            NotCartesian, NotDiscreteOpfibration,
                            SelfCheckFailed, SquareNotCommutative)
from dblinst.fincat import Copresheaf, FinFunctor
from dblinst.finset import FiniteSet
from dblinst.collage import (close_presented_category, collage_generator_map,
                             collage_of_model, collage_of_morphism,
                             copresheaf_to_instance, instance_to_copresheaf)
from dblinst.fixtures import (build_instance, category_as_model,
                              chain_category, coproduct_instance,
                              cyclic_quotient_morphism,
                              cyclic_translation_model, dopf_corpus_over,
                              functor_as_morphism,
                              representable_instances, tautological_instance,
                              walking_loose_model, walking_tight_model,
                              weighted_graph_instance, weighted_graph_schema)
from dblinst.instance import enumerate_instance_morphisms, validate_instance
from dblinst.migration import (LiftingProblem, MigrationContext,
                               cartesian_factorize, check_initial,
                               comprehensive_factorize, kan_extend_left,
                               kan_extend_right, migrate_lan,
                               migrate_pullback, migrate_ran,
                               reflect_into_dopf)
from dblinst.model import (ModelMorphism, compose_model_morphisms,
                           enumerate_model_morphisms, identity_morphism,
                           terminal_model, validate_model_morphism)
from dblinst.serialize import document_of, object_of
from dblinst.elements import (is_discrete_opfibration,
                              kappa_creates_dopf_check)


def point_inclusion(target_obj):
    """The functor from the one-object category into the walking arrow."""
    c1, c2 = chain_category(1), chain_category(2)
    return FinFunctor(c1, c2, {"0": target_obj},
                      {"id:0": "id:{}".format(target_obj)})


def two_element_copresheaf():
    c1 = chain_category(1)
    return Copresheaf(c1, {"0": FiniteSet(["x", "y"])},
                      {"id:0": {"x": "x", "y": "y"}})


def test_left_kan_extension_along_point_inclusions():
    cp = two_element_copresheaf()
    # including at the source: both carriers keep the two elements
    lan0 = kan_extend_left(point_inclusion("0"), cp, 10000)
    assert lan0.validate() == []
    assert (len(lan0.on_objects["0"]), len(lan0.on_objects["1"])) == (2, 2)
    # including at the target: nothing sits over the source
    lan1 = kan_extend_left(point_inclusion("1"), cp, 10000)
    assert lan1.validate() == []
    assert (len(lan1.on_objects["0"]), len(lan1.on_objects["1"])) == (0, 2)


def test_right_kan_extension_along_point_inclusions():
    cp = two_element_copresheaf()
    # including at the source: the far carrier is a point
    ran0 = kan_extend_right(point_inclusion("0"), cp, 10000)
    assert ran0.validate() == []
    assert (len(ran0.on_objects["0"]), len(ran0.on_objects["1"])) == (2, 1)
    # including at the target: the near carrier is the full product
    ran1 = kan_extend_right(point_inclusion("1"), cp, 10000)
    assert ran1.validate() == []
    assert (len(ran1.on_objects["0"]), len(ran1.on_objects["1"])) == (2, 2)


def test_hom_cardinality_cap():
    cp = Copresheaf(chain_category(1),
                    {"0": FiniteSet(["a", "b", "c", "d", "e"])},
                    {"id:0": {x: x for x in "abcde"}})
    with pytest.raises(HomSetTooLarge):
        kan_extend_left(point_inclusion("1"), cp, max_hom_card=3)
    with pytest.raises(HomSetTooLarge):
        kan_extend_right(point_inclusion("0"), cp, max_hom_card=3)
    # four families at the source object: the cap counts the last one
    # too, as the left extension's cap does, and a cap of 4 admits all
    cp = Copresheaf(chain_category(1), {"0": FiniteSet(["a", "b", "c", "d"])},
                    {"id:0": {x: x for x in "abcd"}})
    with pytest.raises(HomSetTooLarge, match="left extension at 0"):
        kan_extend_left(point_inclusion("0"), cp, max_hom_card=3)
    with pytest.raises(HomSetTooLarge,
                       match="right extension at 0 exceeds the family cap"):
        kan_extend_right(point_inclusion("0"), cp, max_hom_card=3)
    ran = kan_extend_right(point_inclusion("0"), cp, max_hom_card=4)
    assert len(ran.on_objects["0"]) == 4


def _fold_morphism():
    x = walking_loose_model(["a0", "a1"], ["b0"],
                            [("h0", "a0", "b0"), ("h1", "a1", "b0")])
    y = walking_loose_model(["a"], ["b"], [("h", "a", "b")])
    return enumerate_model_morphisms(x, y)[0]


def closed_collages(al, bound):
    """Both closed collages of a model morphism and the collage functor
    between them."""
    closure_src, closure_tgt = (
        close_presented_category(collage_of_model(x), bound)
        for x in (al.source, al.target))
    return closure_src, closure_tgt, collage_of_morphism(
        al, closure_src, closure_tgt)


def collage_restriction(al, h, bound=4):
    """Reference restriction: precompose the copresheaf of ``h`` on the
    closed target collage with the collage functor of ``al``."""
    closure_src, closure_tgt, fun = closed_collages(al, bound)
    cp = instance_to_copresheaf(h, closure_tgt)
    pulled = Copresheaf(
        fun.source,
        {c: cp.on_objects[fun.on_objects[c]] for c in fun.source.objects},
        {m: dict(cp.on_morphisms[fun.on_morphisms[m]])
         for m in fun.source.morphisms})
    assert pulled.validate() == []
    return copresheaf_to_instance(pulled, al.source, closure_src)


def instance_tables(h):
    return h.carriers, h.labels, h.tight_cells, h.actions


def _golden_morphisms():
    """The four morphisms of the migration goldens."""
    x = weighted_graph_schema()
    to_terminal = enumerate_model_morphisms(x, terminal_model(x.theory))[0]
    tight_fold = enumerate_model_morphisms(
        walking_tight_model(["p", "q"], ["r"], {"p": "r", "q": "r"}),
        walking_tight_model(["p"], ["r"], {"p": "r"}))[0]
    return [_fold_morphism(), cyclic_quotient_morphism(), to_terminal,
            tight_fold]


def _restriction_cases():
    for al in _golden_morphisms():
        taut = tautological_instance(al.target)
        for h in [taut, coproduct_instance(taut, taut)] + \
                representable_instances(al.target, bound=4):
            yield al, h


def test_pullback_migration_matches_direct_restriction():
    for al, h in _restriction_cases():
        pulled = migrate_pullback(al, h, bound=4)
        assert validate_instance(pulled) == []
        assert instance_tables(pulled) == \
            instance_tables(collage_restriction(al, h))


def reference_extension(al, h, extend, bound=4):
    """Reference Σ or Π: tabulate ``h`` on the closed source collage and
    extend it along the collage functor by every source morphism."""
    closure_src, closure_tgt, fun = closed_collages(al, bound)
    cp = instance_to_copresheaf(h, closure_src)
    return copresheaf_to_instance(extend(fun, cp), al.target, closure_tgt)


def seeded_fold(seed):
    """A fold of walking-loose models onto two elements a side, and an
    instance of its source with two elements per fibre, both seeded."""
    rng = random.Random(seed)
    goals = [("g{}".format(i), "a{}".format(i % 2), rng.choice(["b0", "b1"]))
             for i in range(4)]
    y = walking_loose_model(["a0", "a1"], ["b0", "b1"], goals)
    on_dom = {"s{}".format(i): "a{}".format(i % 2) for i in range(4)}
    on_cod = {"c{}".format(i): "b{}".format(i % 2) for i in range(3)}
    het, on_het = [], {}
    for s, a in on_dom.items():
        for g, ga, gb in goals:
            if ga == a:
                name = "u{}.{}".format(s, g)
                ends = [c for c, b in on_cod.items() if b == gb]
                het.append((name, s, rng.choice(ends)))
                on_het[name] = g
    x = walking_loose_model(list(on_dom), list(on_cod), het)
    al = ModelMorphism(x, y, {"dom": on_dom, "cod": on_cod},
                       {"l": on_het, "id:dom": dict(on_dom),
                        "id:cod": dict(on_cod)})
    fibre = {e: ["{}~{}".format(e, k) for k in range(2)]
             for d in ("dom", "cod") for e in x.on_objects[d]}
    carriers = {d: [p for e in x.on_objects[d] for p in fibre[e]]
                for d in ("dom", "cod")}
    labels = {d: {p: e for e in x.on_objects[d] for p in fibre[e]}
              for d in ("dom", "cod")}
    span = x.on_loose["l"]
    action = {(p, xi): rng.choice(fibre[span.right[xi]])
              for xi in span.apex for p in fibre[span.left[xi]]}
    return al, build_instance(x, carriers, labels, {"l": action})


def _extension_cases():
    for seed in range(4):
        al, h = seeded_fold(seed)
        yield al, h
        yield al, tautological_instance(al.source)
    collapse = FinFunctor(chain_category(3), chain_category(2),
                          {"0": "0", "1": "1", "2": "1"},
                          {"id:0": "id:0", "id:1": "id:1", "id:2": "id:1",
                           "0<1": "0<1", "0<2": "0<1", "1<2": "id:1"})
    al = functor_as_morphism(collapse, category_as_model(chain_category(3)),
                             category_as_model(chain_category(2)))
    yield al, tautological_instance(al.source)
    for al in _golden_morphisms():
        taut = tautological_instance(al.source)
        for h in [taut, coproduct_instance(taut, taut)] + \
                representable_instances(al.source, bound=4):
            yield al, h


@pytest.mark.parametrize("migrate, extend", [
    (migrate_lan, kan_extend_left), (migrate_ran, kan_extend_right)])
def test_migrations_match_the_extension_on_the_closed_source(migrate, extend):
    for al, h in _extension_cases():
        want = document_of(reference_extension(al, h, extend))
        assert document_of(migrate(al, h, bound=4)) == want


@pytest.mark.parametrize("migrate, extend", [
    (migrate_lan, kan_extend_left), (migrate_ran, kan_extend_right)])
def test_a_source_that_does_not_close_within_the_bound_is_not_closed(
        migrate, extend):
    # Z/4 closes only at bound 2; its image Z/1 already at bound 1
    x4, x1 = cyclic_translation_model(4, 0), cyclic_translation_model(1, 0)
    al = ModelMorphism(x4, x1, {"*": {"*": "*"}},
                       {"id:*": {e: "0" for e in x4.on_loose["id:*"].apex}})
    h = tautological_instance(al.source)
    with pytest.raises(HomSetNotFinite):
        reference_extension(al, h, extend, bound=1)
    want = document_of(reference_extension(al, h, extend, bound=2))
    for bound in (1, 2):
        assert document_of(migrate(al, h, bound=bound)) == want


def _leg_breaking_morphism():
    """dom {a0} -> {a0, a1} with a0 |-> a1: the image of h no longer
    starts where the image of its left end does."""
    x = walking_loose_model(["a0"], ["b0"], [("h", "a0", "b0")])
    y = walking_loose_model(["a0", "a1"], ["b0"], [("h", "a0", "b0")])
    return ModelMorphism(x, y, {"dom": {"a0": "a1"}, "cod": {"b0": "b0"}},
                         {"l": {"h": "h"}, "id:dom": {"a0": "a1"},
                          "id:cod": {"b0": "b0"}})


def test_migrating_along_a_morphism_that_is_not_one_is_refused():
    al = _leg_breaking_morphism()
    h = tautological_instance(al.source)
    for migrate in (migrate_lan, migrate_ran):
        with pytest.raises(InvalidMorphism,
                           match="not a model morphism: left leg broken"):
            migrate(al, h, bound=4)
    with pytest.raises(InvalidMorphism,
                       match="not a model morphism: left leg broken"):
        comprehensive_factorize(al, bound=4)


def test_migration_adjunction_hom_cardinalities():
    al = _fold_morphism()
    ctx = MigrationContext(al, bound=4)
    hx = tautological_instance(al.source)
    hy = tautological_instance(al.target)
    lan = migrate_lan(al, hx, context=ctx)
    ran = migrate_ran(al, hx, context=ctx)
    pulled = migrate_pullback(al, hy, context=ctx)
    assert validate_instance(lan) == []
    assert validate_instance(ran) == []
    assert len(enumerate_instance_morphisms(lan, hy)) == \
        len(enumerate_instance_morphisms(hx, pulled))
    assert len(enumerate_instance_morphisms(hy, ran)) == \
        len(enumerate_instance_morphisms(pulled, hx))


def test_comprehensive_factorization_composes_to_original():
    x = weighted_graph_schema()
    one = terminal_model(x.theory)
    f = enumerate_model_morphisms(x, one)[0]
    fac = comprehensive_factorize(f, bound=4)
    assert validate_model_morphism(fac.initial) == []
    assert validate_model_morphism(fac.opfibration) == []
    assert is_discrete_opfibration(fac.opfibration).ok
    from dblinst.model import compose_model_morphisms
    composite = compose_model_morphisms(fac.initial, fac.opfibration)
    assert composite.on_objects == f.on_objects
    assert composite.on_loose == f.on_loose


def test_factorizing_a_dopf_gives_bijective_unit():
    h = weighted_graph_instance(2)
    from dblinst.elements import elements
    _, pi, _ = elements(h)
    fac = comprehensive_factorize(pi, bound=4)
    for d, table in fac.initial.on_objects.items():
        assert len(set(table.values())) == len(table) == \
            len(fac.middle.on_objects[d])


def test_check_initial_against_corpus():
    x = weighted_graph_schema()
    one = terminal_model(x.theory)
    f = enumerate_model_morphisms(x, one)[0]
    fac = comprehensive_factorize(f, bound=4)
    corpus = [pi for pi, _ in dopf_corpus_over(one)]
    assert len(corpus) >= 2
    assert check_initial(fac.initial, corpus) == []


def test_classical_degeneration_counts_comma_components():
    # over the one-object theory the middle carrier counts the
    # connected components of the comma categories f/b
    c2 = chain_category(2)
    from dblinst.fixtures import category_as_model, functor_as_morphism
    xm = category_as_model(c2)
    ym = category_as_model(chain_category(1))
    collapse = FinFunctor(c2, chain_category(1), {"0": "0", "1": "0"},
                          {"id:0": "id:0", "id:1": "id:0", "0<1": "id:0"})
    f = functor_as_morphism(collapse, xm, ym)
    fac = comprehensive_factorize(f, bound=4)
    # the comma category over the unique object is connected
    assert len(fac.middle.on_objects["*"]) == 1


def _renamed(doc, old, new):
    """A document with the arrow ``old`` renamed to ``new``: exact
    occurrences, and inside collage generator names ``t{old@x}`` and
    ``h{old@x}``."""
    if isinstance(doc, dict):
        return {_renamed(k, old, new): _renamed(v, old, new)
                for k, v in doc.items()}
    if isinstance(doc, list):
        return [_renamed(v, old, new) for v in doc]
    if doc == old:
        return new
    if isinstance(doc, str):
        return doc.replace("{" + old + "@", "{" + new + "@")
    return doc


def test_arrow_names_may_contain_the_generator_separator():
    tight_fold = enumerate_model_morphisms(
        walking_tight_model(["p", "q"], ["r"], {"p": "r", "q": "r"}),
        walking_tight_model(["p"], ["r"], {"p": "r"}))[0]
    for al, old in ((_fold_morphism(), "l"), (tight_fold, "t")):
        renamed = object_of(_renamed(document_of(al), old, old + "@1"))
        for migrate in (migrate_lan, migrate_ran):
            expected = migrate(al, tautological_instance(al.source), bound=4)
            got = migrate(renamed, tautological_instance(renamed.source),
                          bound=4)
            assert validate_instance(got) == []
            assert document_of(got) == \
                _renamed(document_of(expected), old, old + "@1")


def _weighted_graph_unit():
    x = weighted_graph_schema()
    f = enumerate_model_morphisms(x, terminal_model(x.theory))[0]
    return f, comprehensive_factorize(f, bound=4).initial


def test_check_initial_rejects_an_uncertified_corpus_entry():
    f, unit = _weighted_graph_unit()
    assert not is_discrete_opfibration(f).ok
    with pytest.raises(NotDiscreteOpfibration):
        check_initial(unit, [f])


def test_check_initial_rejects_uncertified_entries_without_asserts():
    package_root = os.path.dirname(os.path.dirname(dblinst.__file__))
    paths = [package_root, os.path.dirname(os.path.abspath(__file__)),
             os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = ("from test_migration import _weighted_graph_unit\n"
            "from dblinst.errors import NotDiscreteOpfibration\n"
            "from dblinst.migration import check_initial\n"
            "f, unit = _weighted_graph_unit()\n"
            "try:\n"
            "    print(check_initial(unit, [f]))\n"
            "except NotDiscreteOpfibration as e:\n"
            "    print('raised', e)\n")
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.startswith("raised corpus entry ")


def test_cartesian_factorization_rejects_non_cartesian_endpoints():
    f, _ = _weighted_graph_unit()
    with pytest.raises(NotCartesian,
                       match="^source is not cartesian: theory carries no "):
        cartesian_factorize(f, bound=4)


def test_lifting_problem_rejects_a_square_that_does_not_commute():
    x = _fold_morphism().source
    one = identity_morphism(x)
    u = next(u for u in enumerate_model_morphisms(x, x) if u != one)
    with pytest.raises(SquareNotCommutative):
        LiftingProblem(one, one, u, one)


# -- self-checks of the migrations' outputs ---------------------------------

@contextmanager
def patched(module, name, value):
    old = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, old)


def identity_breaking_copresheaf(base, on_objects, on_morphisms):
    """The copresheaf, except that the identity of the first object with
    two values sends the first to the second."""
    cp = Copresheaf(base, on_objects, on_morphisms)
    o = next(o for o in base.objects if len(cp.on_objects[o]) >= 2)
    first, second = list(cp.on_objects[o])[:2]
    cp.on_morphisms[base.identity[o]][first] = second
    return cp


def family_dropping_compile():
    """A ``compile`` for Π whose runs leave out their last family at
    every object after the first."""
    calls = []

    def dropping(domains, constraints):
        problem = search.compile(domains, constraints)
        calls.append(None)
        if len(calls) == 1:
            return problem

        class Dropping:
            def run(self):
                return iter(list(problem.run())[:-1])
        return Dropping()
    return dropping


def recomposing_elsewhere(a, b):
    composite = compose_model_morphisms(a, b)
    d = next(d for d, table in composite.on_objects.items() if table)
    table = dict(composite.on_objects[d])
    table[next(iter(table))] = "elsewhere"
    return ModelMorphism(composite.source, composite.target,
                         dict(composite.on_objects, **{d: table}),
                         composite.on_loose)


def corrupted_self_check(case):
    """Run one migration, factorization or collage functor with its
    output corrupted by a patch; returns the check's message, or None
    when it returns."""
    al, h = seeded_fold(0)
    corruption, run = {
        "sigma": (patched(migration, "Copresheaf",
                          identity_breaking_copresheaf),
                  lambda: migrate_lan(al, h, bound=4)),
        "reflection": (patched(migration, "Copresheaf",
                               identity_breaking_copresheaf),
                       lambda: reflect_into_dopf(al, bound=4)),
        "pi": (patched(migration, "Copresheaf", identity_breaking_copresheaf),
               lambda: migrate_ran(al, h, bound=4)),
        "pi_family": (patched(migration, "compile", family_dropping_compile()),
                      lambda: migrate_ran(al, h, bound=4)),
        "factorization": (patched(migration, "compose_model_morphisms",
                                  recomposing_elsewhere),
                          lambda: comprehensive_factorize(al, bound=4)),
        "collage_functor": (patched(collage, "collage_generator_map",
                                    lambda p: dict.fromkeys(
                                        collage_generator_map(p), ())),
                            lambda: kappa_creates_dopf_check(al, bound=4)),
    }[case]
    try:
        with corruption:
            run()
    except SelfCheckFailed as e:
        return str(e)


SELF_CHECKS = {
    "sigma": "^left extension is not a copresheaf: identity of ",
    "reflection": "^left extension is not a copresheaf: identity of ",
    "pi": "^right extension is not a copresheaf: identity of ",
    "pi_family": "^right extension: .* sends a family at .* outside the "
                 "families at ",
    "factorization": "^factorization does not recompose to the input$",
    "collage_functor": "^collage of a morphism is not functorial: ",
}


@pytest.mark.parametrize("case", sorted(SELF_CHECKS))
def test_a_corrupted_output_fails_its_self_check(case):
    message = corrupted_self_check(case)
    assert message is not None and re.search(SELF_CHECKS[case], message)


def test_corrupted_outputs_fail_their_self_checks_also_without_asserts():
    """``python -O`` skips asserts, so this corrupts the outputs in a
    subprocess with that flag."""
    package_root = os.path.dirname(os.path.dirname(dblinst.__file__))
    paths = [package_root, os.path.dirname(os.path.abspath(__file__)),
             os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = ("from test_migration import SELF_CHECKS, corrupted_self_check\n"
            "for case in sorted(SELF_CHECKS):\n"
            "    print(case, corrupted_self_check(case) is not None)\n")
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == [
        "{} True".format(case) for case in sorted(SELF_CHECKS)]
