import json
import os
import random
import subprocess
import sys

import pytest

import dblinst
from dblinst.cartesian import (Multicategory, build_cocartesian_example,
                               cartesian_elements_check,
                               instance_to_multifunctor,
                               model_to_multicategory,
                               multicategories_isomorphic,
                               multicategory_to_model,
                               multifunctor_to_instance, Multifunctor,
                               validate_cartesian_instance,
                               validate_cartesian_model,
                               validate_multicategory, validate_multifunctor,
                               check_product_actions_determined)
from dblinst.errors import (IllFormedPresentation, InvalidTheory,
                            TheoryMismatch)
from dblinst.fixtures import (builtin_multicategory, join_multicategory,
                              monad_instance_fixture, tautological_instance,
                              terminal_multicategory,
                              two_object_multicategory)
from dblinst.instance import validate_instance
from dblinst.model import validate_model
from dblinst.serialize import document_of, object_of
from dblinst.theories import builtin_theory
from multicategory_oracles import (all_action_tables,
                                   isomorphic_by_brute_force)

MC_NAMES = ["terminal", "join", "two_object"]


@pytest.fixture(scope="module")
def prom2():
    return builtin_theory("prom_trunc", 2)


@pytest.mark.parametrize("name", MC_NAMES)
def test_builtin_multicategories_validate(name):
    assert validate_multicategory(builtin_multicategory(name)) == []


def test_broken_multicategory_detected():
    mc = join_multicategory()
    mc.comp[("b", ("n", "n"))] = "b"  # wrong arity composite
    assert validate_multicategory(mc) != []


@pytest.mark.parametrize("name", MC_NAMES)
def test_multicategory_model_dictionary_round_trip(name, prom2):
    mc = builtin_multicategory(name)
    x = multicategory_to_model(mc, prom2)
    assert validate_model(x) == []
    assert validate_cartesian_model(x) == []
    back = model_to_multicategory(x)
    assert validate_multicategory(back) == []
    assert multicategories_isomorphic(mc, back)


def multicategory_tables(mc):
    return (mc.objects, mc.multimorphisms, mc.identities, mc.comp,
            mc.truncation)


@pytest.mark.parametrize("name", MC_NAMES)
def test_multicategory_model_document_round_trip(name, prom2):
    x = multicategory_to_model(builtin_multicategory(name), prom2)
    back = object_of(json.loads(json.dumps(document_of(x))))
    assert not hasattr(back.theory, "loose_data")
    mc = model_to_multicategory(back)
    assert multicategory_tables(mc) == \
        multicategory_tables(model_to_multicategory(x))
    assert validate_multicategory(mc) == []
    assert multicategories_isomorphic(builtin_multicategory(name), mc)


def test_a_model_over_another_theory_is_not_read_as_a_multicategory(prom2):
    sq = build_cocartesian_example(builtin_theory("sq_finset_op", 2))
    doc = document_of(multicategory_to_model(two_object_multicategory(),
                                             prom2))
    no_products = json.loads(json.dumps(doc))
    del no_products["theory"]["cartesian"]
    other_cell = json.loads(json.dumps(doc))
    cell = next(iter(other_cell["theory"]["cells"]))
    other_cell["theory"]["cells"][cell + "'"] = \
        other_cell["theory"]["cells"].pop(cell)
    for x in (sq, object_of(no_products), object_of(other_cell)):
        with pytest.raises(TheoryMismatch, match="^the model's theory is "
                                                 "not prom_trunc"):
            model_to_multicategory(x)


def test_nonisomorphic_multicategories_rejected():
    assert not multicategories_isomorphic(terminal_multicategory(2),
                                          two_object_multicategory())
    # same objects and arities, but the pairing lands in the other object
    mc = two_object_multicategory()
    other = two_object_multicategory()
    other.multimorphisms["pair"] = (("a", "a"), "a")
    other.comp[("ia", ("pair",))] = "pair"
    del other.comp[("ib", ("pair",))]
    assert not multicategories_isomorphic(mc, other)


# labels with the delimiters of the encoding's tuple and family labels
LABELS = ["a|b", "a", "b|c", "b", "(x,y)", "x", "y", "[m]", "p,q", "o0",
          "m1", "(", ")", "a,(b"]


def _copy(mc, ob=None, mm=None, rng=None):
    """mc with objects and multimorphisms renamed by ob and mm, listed in
    an order shuffled by rng."""
    ob = ob or {o: o for o in mc.objects}
    mm = mm or {m: m for m in mc.multimorphisms}
    objects, mms = list(mc.objects), list(mc.multimorphisms.items())
    if rng is not None:
        rng.shuffle(objects)
        rng.shuffle(mms)
    return Multicategory(
        [ob[o] for o in objects],
        {mm[m]: (tuple(ob[o] for o in dom), ob[cod]) for m, (dom, cod) in mms},
        {ob[o]: mm[i] for o, i in mc.identities.items()},
        {(mm[outer], tuple(mm[i] for i in inners)): mm[res]
         for (outer, inners), res in mc.comp.items()},
        mc.truncation)


def _relabelled(mc, rng):
    names = rng.sample(LABELS, len(mc.objects) + len(mc.multimorphisms))
    return _copy(mc, dict(zip(mc.objects, names)),
                 dict(zip(mc.multimorphisms, names[len(mc.objects):])), rng)


def _mutations(mc):
    """Every multicategory that differs from mc in one entry: a composite
    changed or deleted, a codomain changed, or an identity changed."""
    names = sorted(mc.multimorphisms)
    for key, res in sorted(mc.comp.items()):
        for other in names + [None]:
            if other != res:
                out = _copy(mc)
                if other is None:
                    del out.comp[key]
                else:
                    out.comp[key] = other
                yield out
    for m, (dom, cod) in sorted(mc.multimorphisms.items()):
        for o in mc.objects:
            if o != cod:
                out = _copy(mc)
                out.multimorphisms[m] = (dom, o)
                yield out
    for o, i in mc.identities.items():
        for other in names:
            if other != i:
                out = _copy(mc)
                out.identities[o] = other
                yield out


def _arities(mc):
    return sorted(map(mc.arity, mc.multimorphisms))


def test_isomorphism_agrees_with_brute_force():
    rng = random.Random(21)
    valid, invalid = [], []
    for name in MC_NAMES:
        mc = builtin_multicategory(name)
        valid.append(mc)
        valid += [_relabelled(mc, rng) for _ in range(3)]
        for other in _mutations(mc):
            (invalid if validate_multicategory(other) else valid).append(
                _relabelled(other, rng))
    assert len(valid) > 12 and len(invalid) > 50
    verdicts = set()
    for mc1 in valid:
        for mc2 in valid:
            want = isomorphic_by_brute_force(mc1, mc2)
            assert multicategories_isomorphic(mc1, mc2) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def _group_multicategory(mult):
    """One object, and a unary and a binary multimorphism per element of
    an abelian group whose multiplication table is ``mult`` (unit
    first); composites multiply the elements."""
    names = list(dict.fromkeys(g for g, _ in mult))
    mms = {g: (("o",), "o") for g in names}
    mms.update({"2" + g: (("o", "o"), "o") for g in names})
    comp = {}
    for g in names:
        for h in names:
            comp[(g, (h,))] = mult[g, h]
            comp[(g, ("2" + h,))] = "2" + mult[g, h]
            for k in names:
                comp[("2" + g, (h, k))] = "2" + mult[mult[g, h], k]
    return Multicategory(["o"], mms, {"o": names[0]}, comp, 2)


def test_isomorphism_of_multicategories_whose_encoding_labels_clash():
    # the families ("a|b", "c") and ("a", "b|c") of unary names would
    # both be labelled [a|b|c] in an encoding of the names as given
    names = ["a", "a|b", "c", "b|c"]
    four = _group_multicategory(
        {(g, h): names[names.index(g) ^ names.index(h)]
         for g in names for h in names})
    z4 = _group_multicategory(
        {(g, h): names[(names.index(g) + names.index(h)) % 4]
         for g in names for h in names})
    assert validate_multicategory(four) == validate_multicategory(z4) == []
    other = _relabelled(four, random.Random(4))
    for mc1, mc2, want in ((four, other, True), (four, z4, False),
                           (z4, z4, True)):
        assert isomorphic_by_brute_force(mc1, mc2) == want
        assert multicategories_isomorphic(mc1, mc2) == want


def test_an_invalid_multicategory_is_refused():
    refused = 0
    for name in MC_NAMES:
        mc = builtin_multicategory(name)
        for other in _mutations(mc):
            if validate_multicategory(other) and \
                    _arities(other) == _arities(mc):
                for pair in ((mc, other), (other, mc)):
                    with pytest.raises(InvalidTheory,
                                       match="^not a valid multicategory: "):
                        multicategories_isomorphic(*pair)
                refused += 1
    assert refused > 50
    # one with a deleted composite
    broken = join_multicategory()
    del broken.comp[("b", ("u", "u"))]
    with pytest.raises(InvalidTheory, match="missing composite of b"):
        multicategories_isomorphic(join_multicategory(), broken)


def test_an_arity_above_two_is_refused():
    """Refused with ``IllFormedPresentation``, also under ``python -O``,
    which skips asserts."""
    ternary = terminal_multicategory(3)
    assert validate_multicategory(ternary) == []
    with pytest.raises(IllFormedPresentation, match="prom_trunc needs a "
                       "truncation bound from 0 to 2, got 3"):
        multicategories_isomorphic(ternary, terminal_multicategory(3))
    package_root = os.path.dirname(os.path.dirname(dblinst.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    code = ("from dblinst.cartesian import multicategories_isomorphic\n"
            "from dblinst.errors import IllFormedPresentation\n"
            "from dblinst.fixtures import terminal_multicategory\n"
            "try:\n"
            "    print(multicategories_isomorphic(\n"
            "        terminal_multicategory(3), terminal_multicategory(3)))\n"
            "except IllFormedPresentation as e:\n"
            "    print('raised', e)\n")
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == ("raised prom_trunc needs a truncation bound from "
                           "0 to 2, got 3\n")


def _example_multifunctor(mc):
    """The join-semilattice of subsets of a one-element set."""
    vals = {"o": ["0", "1"]}
    actions = {"u": {("0",): "0", ("1",): "1"},
               "n": {(): "0"},
               "b": {(a, b): max(a, b) for a in "01" for b in "01"}}
    return Multifunctor(mc, vals, actions)


def test_multifunctor_instance_dictionary_round_trip(prom2):
    mc = join_multicategory()
    x = multicategory_to_model(mc, prom2)
    fm = _example_multifunctor(mc)
    assert validate_multifunctor(fm) == []
    h = multifunctor_to_instance(fm, x)
    assert validate_instance(h) == []
    assert validate_cartesian_instance(h) == []
    assert check_product_actions_determined(h) == []
    back = instance_to_multifunctor(h)
    assert validate_multifunctor(back) == []
    # carriers come back tagged with their object; compare up to that
    from dblinst.finset import pair_label
    rename = {o: {v: pair_label(o, v) for v in fm.on_objects[o]}
              for o in mc.objects}
    for o in mc.objects:
        assert sorted(back.on_objects[o]) == \
            sorted(rename[o][v] for v in fm.on_objects[o])
    for m, (dom, cod) in mc.multimorphisms.items():
        for vals, out in fm.actions[m].items():
            key = tuple(rename[o][v] for o, v in zip(dom, vals))
            assert back.actions[m][key] == rename[cod][out]


def test_cartesian_instance_counts_match_multifunctor_counts(prom2):
    # over fixed value sets, valid raw action tables seen as instances
    # and as multifunctors are the same tables
    mc = two_object_multicategory()
    x = multicategory_to_model(mc, prom2)
    vals = {"a": ["0", "1"], "b": ["p"]}
    good_mf, good_inst = [], []
    for tables in all_action_tables(mc, vals):
        fm = Multifunctor(mc, vals, tables)
        if validate_multifunctor(fm) == []:
            good_mf.append(tables)
            h = multifunctor_to_instance(fm, x)
            assert validate_instance(h) == []
            assert validate_cartesian_instance(h) == []
            good_inst.append(h)
    assert len(good_mf) == len(good_inst) >= 1


def test_elements_of_cartesian_instance_is_cartesian(prom2):
    mc = join_multicategory()
    x = multicategory_to_model(mc, prom2)
    h = multifunctor_to_instance(_example_multifunctor(mc), x)
    inst_ok, model_ok = cartesian_elements_check(h)
    assert inst_ok and model_ok


def test_non_cartesian_instance_detected():
    x, h = monad_instance_fixture()
    # the monad theory carries no cartesian structure
    assert validate_cartesian_instance(h) != []


def test_a_product_the_theory_does_not_designate_is_reported():
    """Each cartesian check reports a product or projections missing
    from the theory's cartesian structure, each line once, instead of
    reading them."""
    t = builtin_theory("prom_trunc", 2)
    x = multicategory_to_model(join_multicategory(), t)
    h = tautological_instance(x)
    c = t.cartesian
    del c.proj_cells[("lf:0-0:", "lf:0-0:")]
    del c.proj_tight[("x1", "x1")]
    cells = "cartesian: projection cells of lf:0-0:xlf:0-0: missing"
    tight = "cartesian: projections of x1xx1 missing"
    assert validate_cartesian_model(x) == [tight, cells]
    assert validate_cartesian_instance(h) == [tight]
    product = "cartesian: product x1xx1 or its projections missing"
    assert check_product_actions_determined(h) == [cells, product]
    del c.product_object[("x1", "x1")]
    assert validate_cartesian_instance(h) == []
    assert check_product_actions_determined(h) == [cells, product]


def test_cocartesian_examples_validate():
    t = builtin_theory("sq_finset_op", 2)
    for monoid in (None,  # default: two-element join semilattice
                   (("e",), {("e", "e"): "e"}, "e"),
                   (("1", "g"), {("1", "1"): "1", ("1", "g"): "g",
                                 ("g", "1"): "g", ("g", "g"): "1"}, "1")):
        x = build_cocartesian_example(t, monoid)
        assert validate_model(x) == []
        assert validate_cartesian_model(x) == []


def test_unary_operation_carrier_is_the_monoid():
    t = builtin_theory("sq_finset_op", 2)
    x = build_cocartesian_example(t)
    from dblinst.theories import p_arrow
    # one operation tuple per weight assignment to the single input
    assert len(x.on_loose[p_arrow(t, 1)].apex) == 2
    assert len(x.on_loose[p_arrow(t, 2)].apex) == 4
    # nullary operations form a point
    assert len(x.on_loose[p_arrow(t, 0)].apex) == 1
