"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package, exactly and
with no tolerances: round trips between instances and discrete
opfibrations, the copresheaf dictionary on closed collages, creation of
discrete opfibrations by the collage functor, the migration adjoint
triple, comprehensive factorization, the cartesian dictionary with
multicategories, the limit-sketch flattening, the signed feedback-loop
application, and the finite collage counterexample family.
"""

import itertools


from dblinst.cartesian import (Multifunctor, cartesian_elements_check,
                               multicategory_to_model,
                               multifunctor_to_instance,
                               validate_cartesian_instance,
                               validate_cartesian_model,
                               validate_multifunctor)
from dblinst.collage import (close_presented_category, collage_of_model,
                             copresheaf_to_instance, instance_to_copresheaf)
from dblinst.elements import (canonical_elements_comparison, elements,
                              is_discrete_opfibration,
                              kappa_creates_dopf_check, nabla)
from dblinst.fincat import FinFunctor, enumerate_natural_transformations
from dblinst.fixtures import (builtin_multicategory, chain_category, coproduct_instance,
                              cyclic_quotient_morphism,
                              cyclic_translation_model, dopf_corpus_over,
                              empty_instance, feedback_loop_count,
                              functor_as_morphism,
                              profunctor_instance_fixture,
                              signed_cycle_oracle, signed_fixture_graphs,
                              signed_fixture_models, standard_instance_corpus,
                              tautological_instance, walking_loose_model,
                              weighted_graph_instance, weighted_graph_schema)
from dblinst.instance import (enumerate_instance_morphisms,
                              find_instance_isomorphism, restrict_instance,
                              validate_instance)
from dblinst.migration import (MigrationContext, check_initial,
                               comprehensive_factorize, migrate_lan,
                               migrate_pullback, migrate_ran)
from dblinst.model import (ModelMorphism, compose_model_morphisms,
                           enumerate_model_morphisms, terminal_model,
                           validate_model, validate_model_morphism)
from dblinst.sketch import (enumerate_sketch_model_morphisms, flatten_theory,
                            model_to_sketch_model, sketch_model_to_model,
                            validate_sketch_model)
from dblinst.theories import builtin_theory
from multicategory_oracles import all_action_tables


# ---------------------------------------------------------------------------
# round trips between instances and discrete opfibrations
# ---------------------------------------------------------------------------

def test_instances_and_discrete_opfibrations_are_equivalent():
    corpus = standard_instance_corpus()
    assert len({name for name, _, _ in corpus}) >= 5
    per_theory = {}
    for name, x, instances in corpus:
        per_theory.setdefault(name, []).append(x)
        assert len(instances) >= 2
        for h in instances:
            # instance -> projection -> instance, with validated iso
            em, pi, witness = elements(h)
            assert validate_model(em) == []
            assert validate_model_morphism(pi) == []
            assert is_discrete_opfibration(pi).ok
            back = nabla(pi, witness)
            assert validate_instance(back) == []
            iso = find_instance_isomorphism(h, back)
            assert iso is not None
            # projection -> instance -> projection, canonical comparison
            comparison, e2, pi2 = canonical_elements_comparison(pi, witness)
            assert validate_model_morphism(comparison) == []
            for d in h.model.theory.objects:
                tab = comparison.on_objects[d]
                assert sorted(tab.values()) == sorted(em.on_objects[d])
            for m in h.model.theory.loose:
                tab = comparison.on_loose[m]
                assert sorted(tab.values()) == sorted(em.on_loose[m].apex)
            composite = compose_model_morphisms(comparison, pi)
            assert composite.on_objects == pi2.on_objects
            assert composite.on_loose == pi2.on_loose
    for name, models in per_theory.items():
        assert len(models) >= 3


# ---------------------------------------------------------------------------
# instances are copresheaves on the closed collage
# ---------------------------------------------------------------------------

def test_instances_are_copresheaves_on_the_closed_collage():
    for _, x, instances in standard_instance_corpus():
        closure = close_presented_category(collage_of_model(x), 4)
        for h in instances:
            cp = instance_to_copresheaf(h, closure)
            assert cp.validate() == []
            back = copresheaf_to_instance(cp, x, closure)
            assert validate_instance(back) == []
            assert find_instance_isomorphism(h, back) is not None
    # morphism counts match natural-transformation counts exactly
    x, h = profunctor_instance_fixture()
    k = tautological_instance(x)
    assert h.total_size() <= 10 and k.total_size() <= 10
    closure = close_presented_category(collage_of_model(x), 6)
    c1, c2 = (instance_to_copresheaf(p, closure) for p in (h, k))
    for (p, q), (cp, cq) in (((h, k), (c1, c2)), ((k, h), (c2, c1)),
                             ((h, h), (c1, c1))):
        assert len(enumerate_instance_morphisms(p, q)) == \
            len(enumerate_natural_transformations(cp, cq))


# ---------------------------------------------------------------------------
# the collage functor creates discrete opfibrations
# ---------------------------------------------------------------------------

def _fold_morphism():
    x = walking_loose_model(["a"], ["b"],
                            [("h0", "a", "b"), ("h1", "a", "b")])
    y = walking_loose_model(["a"], ["b"], [("h", "a", "b")])
    return ModelMorphism(x, y, {"dom": {"a": "a"}, "cod": {"b": "b"}},
                         {"id:dom": {"a": "a"}, "id:cod": {"b": "b"},
                          "l": {"h0": "h", "h1": "h"}})


def _kappa_cases():
    wg = weighted_graph_schema()
    cases = []
    # discrete opfibrations: element projections of four instances
    wh = weighted_graph_instance(2)
    for h in (wh, coproduct_instance(wh, wh),
              tautological_instance(wg),
              tautological_instance(_fold_morphism().source)):
        _, pi, _ = elements(h)
        cases.append((pi, True))
    # non-opfibrations
    cases.append((_fold_morphism(), False))              # two lifts
    include = FinFunctor(chain_category(1), chain_category(2),
                         {"0": "0"}, {"id:0": "id:0"})
    cases.append((functor_as_morphism(include), False))  # missing lift
    sparse = walking_loose_model(["a"], ["b"], [])
    dense = walking_loose_model(["a"], ["b"], [("h", "a", "b")])
    into = enumerate_model_morphisms(sparse, dense)[0]
    cases.append((into, False))                          # missing lift
    collapse = FinFunctor(chain_category(2), chain_category(1),
                          {"0": "0", "1": "0"},
                          {"id:0": "id:0", "id:1": "id:0", "0<1": "id:0"})
    cases.append((functor_as_morphism(collapse), False))
    # edge cases with empty carriers
    _, pi_e, _ = elements(empty_instance(wg))
    cases.append((pi_e, True))
    out_of_empty = enumerate_model_morphisms(
        walking_loose_model([], [], []), wg)[0]
    cases.append((out_of_empty, True))
    return cases


def test_model_and_category_level_opfibration_checks_agree():
    cases = _kappa_cases()
    assert len(cases) >= 10
    assert len([1 for _, ok in cases if ok]) >= 4
    assert len([1 for _, ok in cases if not ok]) >= 4
    for p, expected in cases:
        assert validate_model_morphism(p) == []
        model_level, classical = kappa_creates_dopf_check(p, bound=4)
        assert model_level == classical == expected


# ---------------------------------------------------------------------------
# the migration adjoint triple
# ---------------------------------------------------------------------------

def test_migration_adjoint_triple_hom_bijections():
    al = enumerate_model_morphisms(
        walking_loose_model(["a0", "a1"], ["b0"],
                            [("h0", "a0", "b0"), ("h1", "a1", "b0")]),
        walking_loose_model(["a"], ["b"], [("h", "a", "b")]))[0]
    ctx = MigrationContext(al, bound=4)
    hx = tautological_instance(al.source)
    hy = tautological_instance(al.target)
    assert hx.total_size() + hy.total_size() <= 8
    lan = migrate_lan(al, hx, context=ctx)
    ran = migrate_ran(al, hx, context=ctx)
    pulled = migrate_pullback(al, hy, context=ctx)
    for h in (lan, ran, pulled):
        assert validate_instance(h) == []
    assert len(enumerate_instance_morphisms(lan, hy)) == \
        len(enumerate_instance_morphisms(hx, pulled))
    assert len(enumerate_instance_morphisms(hy, ran)) == \
        len(enumerate_instance_morphisms(pulled, hx))
    # the Kan-route restriction agrees with direct restriction
    direct = restrict_instance(al, hy)
    assert find_instance_isomorphism(pulled, direct) is not None


# ---------------------------------------------------------------------------
# comprehensive factorization
# ---------------------------------------------------------------------------

def _terminal_dopf_corpus():
    """At least ten certified discrete opfibrations of walking-loose
    models, mixing several bases."""
    wg = weighted_graph_schema()
    one = terminal_model(wg.theory)
    fold_target = walking_loose_model(["a"], ["b"], [("h", "a", "b")])
    instances = [tautological_instance(one),
                 coproduct_instance(tautological_instance(one),
                                    tautological_instance(one)),
                 empty_instance(one)]
    corpus = [pi for pi, _ in dopf_corpus_over(one, instances)]
    corpus += [pi for pi, _ in dopf_corpus_over(wg, bound_instances(wg))]
    corpus += [pi for pi, _ in dopf_corpus_over(
        fold_target, [tautological_instance(fold_target),
                      empty_instance(fold_target)])]
    return corpus


def bound_instances(x):
    from dblinst.fixtures import representable_instances
    return representable_instances(x, bound=4) + \
        [weighted_graph_instance(2), empty_instance(x)]


def test_comprehensive_factorization_properties():
    x = weighted_graph_schema()
    one = terminal_model(x.theory)
    f = enumerate_model_morphisms(x, one)[0]
    fac = comprehensive_factorize(f, bound=4)
    # the two factors recompose to the original, exactly
    composite = compose_model_morphisms(fac.initial, fac.opfibration)
    assert composite.on_objects == f.on_objects
    assert composite.on_loose == f.on_loose
    # the right factor is a certified discrete opfibration
    assert is_discrete_opfibration(fac.opfibration).ok
    assert fac.witness.validate() == []
    # the left factor is initial against a ten-strong opfibration corpus
    corpus = _terminal_dopf_corpus()
    assert len(corpus) >= 10
    assert check_initial(fac.initial, corpus) == []
    # reflector universal property: morphisms over the base out of the
    # middle object biject with morphisms over the base out of the source
    for q, _ in dopf_corpus_over(one, [tautological_instance(one),
                                       empty_instance(one)]):
        down = [w for w in enumerate_model_morphisms(fac.middle, q.source)
                if compose_model_morphisms(w, q) == fac.opfibration]
        up = [u for u in enumerate_model_morphisms(x, q.source)
              if compose_model_morphisms(u, q) == f]
        images = [compose_model_morphisms(fac.initial, w) for w in down]
        assert len(images) == len(down) == len(up)
        assert all(u in images for u in up)


def _chain_functor(n, m, obj_map):
    """The monotone functor between linear orders given on objects."""
    c, d = chain_category(n), chain_category(m)

    def name(cat_n, i, j):
        return "id:{}".format(i) if i == j else "{}<{}".format(i, j)

    on_morphisms = {}
    for f, (s, t) in c.morphisms.items():
        on_morphisms[f] = name(m, obj_map[s], obj_map[t])
    return FinFunctor(c, d, dict(obj_map), on_morphisms)


def _comma_component_count(fun):
    """Total number of connected components of the comma categories of
    a functor, one comma category per target object."""
    c, d = fun.source, fun.target
    total = 0
    for b in d.objects:
        objs = [(cc, g) for cc in c.objects
                for g, (gs, gd) in d.morphisms.items()
                if gs == fun.on_objects[cc] and gd == b]
        parent = {o: o for o in objs}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for u, (us, ud) in c.morphisms.items():
            fu = fun.on_morphisms[u]
            for g2, (g2s, g2d) in d.morphisms.items():
                if g2s != fun.on_objects[ud] or g2d != b:
                    continue
                g1 = d.comp[(fu, g2)]
                ra, rb = find((us, g1)), find((ud, g2))
                if ra != rb:
                    parent[rb] = ra
        total += len({find(o) for o in objs})
    return total


def test_factorization_over_one_object_counts_comma_components():
    functors = [
        _chain_functor(2, 1, {"0": "0", "1": "0"}),
        _chain_functor(1, 2, {"0": "0"}),
        _chain_functor(1, 2, {"0": "1"}),
        _chain_functor(2, 2, {"0": "0", "1": "1"}),
        _chain_functor(3, 2, {"0": "0", "1": "0", "2": "1"}),
        _chain_functor(2, 3, {"0": "0", "1": "2"}),
    ]
    assert len(functors) >= 5
    for fun in functors:
        assert fun.validate() == []
        f = functor_as_morphism(fun)
        fac = comprehensive_factorize(f, bound=4)
        assert len(fac.middle.on_objects["*"]) == _comma_component_count(fun)


# ---------------------------------------------------------------------------
# the cartesian dictionary through the model of elements
# ---------------------------------------------------------------------------

def _join_instance(x):
    mc = x.multicategory
    vals = {"o": ["0", "1"]}
    actions = {"u": {("0",): "0", ("1",): "1"}, "n": {(): "0"},
               "b": {(a, b): max(a, b) for a in "01" for b in "01"}}
    return multifunctor_to_instance(Multifunctor(mc, vals, actions), x)


def test_cartesian_validity_transfers_through_elements():
    t = builtin_theory("prom_trunc", 2)
    positives, negatives = [], []
    for name in ("terminal", "join", "two_object"):
        x = multicategory_to_model(builtin_multicategory(name), t)
        assert validate_cartesian_model(x) == []
        if name == "join":
            h = _join_instance(x)
        elif name == "terminal":
            mc = x.multicategory
            vals = {"o": ["p"]}
            actions = {m: {k: "p" for k in
                           itertools.product(*[["p"]] * mc.arity(m))}
                       for m in mc.multimorphisms}
            h = multifunctor_to_instance(Multifunctor(mc, vals, actions), x)
        else:
            mc = x.multicategory
            vals = {"a": ["0", "1"], "b": ["s"]}
            actions = {"ia": {("0",): "0", ("1",): "1"},
                       "ib": {("s",): "s"},
                       "pair": {k: "s" for k in
                                itertools.product("01", "01")}}
            h = multifunctor_to_instance(Multifunctor(mc, vals, actions), x)
        assert validate_instance(h) == []
        positives.append(h)
        # coproducts break the product comparisons but stay valid
        negatives.append(coproduct_instance(h, h))
    for h in positives:
        inst_ok, model_ok = cartesian_elements_check(h)
        assert inst_ok and model_ok
    for h in negatives:
        assert validate_instance(h) == []
        inst_ok, model_ok = cartesian_elements_check(h)
        assert not inst_ok and not model_ok


# ---------------------------------------------------------------------------
# instances of the encoded model are multifunctors
# ---------------------------------------------------------------------------

def test_instance_counts_match_multifunctor_counts():
    t = builtin_theory("prom_trunc", 2)
    mc = builtin_multicategory("two_object")
    x = multicategory_to_model(mc, t)
    vals = {"a": ["0", "1"], "b": ["s", "t"]}
    n_multifunctors, n_instances = 0, 0
    for tables in all_action_tables(mc, vals):
        fm = Multifunctor(mc, vals, tables)
        mf_ok = validate_multifunctor(fm) == []
        h = multifunctor_to_instance(fm, x)
        inst_ok = validate_instance(h) == [] and \
            validate_cartesian_instance(h) == []
        assert mf_ok == inst_ok
        n_multifunctors += mf_ok
        n_instances += inst_ok
    assert n_multifunctors == n_instances >= 1


# ---------------------------------------------------------------------------
# the limit-sketch flattening
# ---------------------------------------------------------------------------

def test_sketch_models_match_span_models_on_corpus():
    corpus = standard_instance_corpus()
    sketches, sketch_models = {}, {}
    for name, x, _ in corpus:
        sk = sketches.setdefault(name, flatten_theory(x.theory))
        s = model_to_sketch_model(x, sk)
        assert validate_sketch_model(s) == []
        back = sketch_model_to_model(s)
        assert validate_model(back) == []
        assert back.on_objects == x.on_objects
        assert back.on_cells == x.on_cells
        assert back.laxators == x.laxators
        sketch_models.setdefault(name, []).append((x, s))
    # morphism sets in bijection on small same-theory pairs
    for name in ("walking_loose", "terminal", "walking_tight"):
        pairs = sketch_models[name]
        for (x1, s1), (x2, s2) in itertools.product(pairs, pairs):
            assert len(enumerate_sketch_model_morphisms(s1, s2)) == \
                len(enumerate_model_morphisms(x1, x2))


# ---------------------------------------------------------------------------
# feedback loops in signed graphs
# ---------------------------------------------------------------------------

def test_feedback_loop_counts_match_graph_oracle():
    graphs = signed_fixture_graphs()
    models = signed_fixture_models()
    assert len(graphs) >= 3
    for graph, model in zip(graphs, models):
        for sign in (+1, -1):
            assert feedback_loop_count(model, sign) == \
                signed_cycle_oracle(graph, sign)


# ---------------------------------------------------------------------------
# the finite collage counterexample family
# ---------------------------------------------------------------------------

def test_collage_collapses_the_translation_family():
    # closure of the order-n translation-by-q model is the one-object
    # groupoid on the quotient by the subgroup the translation generates
    for n, q, quotient_order in ((4, 2, 2), (2, 0, 2), (6, 3, 3)):
        x = cyclic_translation_model(n, q)
        assert validate_model(x) == []
        closure = close_presented_category(collage_of_model(x), 3)
        cat = closure.category
        assert len(cat.objects) == 1
        assert len(cat.morphisms) == quotient_order
    # the quotient morphism is inverted by the collage functor without
    # being an isomorphism of models
    al = cyclic_quotient_morphism()
    assert validate_model_morphism(al) == []
    table = al.on_loose["id:*"]
    assert len(set(table.values())) < len(table)  # not injective
    c4 = close_presented_category(collage_of_model(al.source), 3)
    c2 = close_presented_category(collage_of_model(al.target), 3)
    from dblinst.collage import collage_of_morphism
    fun = collage_of_morphism(al, c4, c2)
    assert fun.validate() == []
    assert sorted(fun.on_objects.values()) == sorted(c2.category.objects)
    assert sorted(fun.on_morphisms.values()) == sorted(c2.category.morphisms)
