"""search: the morphism enumerators in model, instance, sketch and fincat.

Constraint-propagating search shows here; ``peak_rss_mb`` matters
because ``enumerate_model_morphisms`` materialises |dst|^|src| tables
per slot.  The signed categories are built in setup, so closure work
moves ``setup_s`` on this workload.  Sizes stop short of measured
cliffs (see README.md).
"""

from dblinst import fincat, fixtures, instance, migration, model, signed, sketch
from dblinst.theories import builtin_theory

import gen
import oracles
from harness import Op

SIGNED_SHAPES = [(4, 4, 2), (5, 5, 3), (5, 6, 2)]   # vertices, edges, loops
CHAIN_PAIRS = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2)]
WL_SELF_MAPS = [1, 2, 3]                  # one heteromorphism per element
# ((top, bot) of the source, (top, bot) of the target)
TIGHT_PAIRS = [((2, 1), (2, 2)), ((3, 2), (3, 2)), ((3, 2), (4, 2)),
               ((4, 2), (4, 2))]
# (dom, cod, heteromorphisms per dom element, fibre width)
ISO_SHAPES = [(2, 2, 1, 2), (3, 2, 1, 2)]
SKETCH_SELF_MAPS = [2, 3]
FACTOR_WL = [(2, 2, 1), (3, 2, 1)]
FACTOR_BOUND = 4
# (copresheaf set sizes on chain(n), object i of the representable)
YONEDA = [([2, 3, 2], 0), ([3, 2, 3, 2], 1), ([2, 2, 3, 3], 0), ([2, 3, 3], 1)]


def build(rng, workdir):
    ops = []
    for shape in SIGNED_SHAPES:
        ops += _feedback_ops(rng, *shape)
    for n, m in CHAIN_PAIRS:
        a = fixtures.category_as_model(fixtures.chain_category(n))
        b = fixtures.category_as_model(fixtures.chain_category(m))
        ops.append(_count_op("search.chain_morphisms", {"N": n, "M": m},
                             lambda a=a, b=b: model.enumerate_model_morphisms(a, b),
                             oracles.chain_model_morphisms(n, m)))
    for n in WL_SELF_MAPS:
        x = gen.wl_model(rng, n, 1, 1)
        ops.append(_count_op("search.wl_self_maps", {"N": n, "hets_per": 1},
                             lambda x=x: model.enumerate_model_morphisms(x, x),
                             n ** n))
    for (t1, b1), (t2, b2) in TIGHT_PAIRS:
        x, y = gen.tight_model(rng, t1, b1), gen.tight_model(rng, t2, b2)
        ops.append(_count_op("search.tight_morphisms",
                             {"N": t1 + b1, "M": t2 + b2},
                             lambda x=x, y=y: model.enumerate_model_morphisms(x, y),
                             oracles.tight_morphisms(x, y)))
    ops += _model_iso_ops(rng)
    for shape in ISO_SHAPES:
        ops += _instance_iso_ops(rng, *shape)
    sk = sketch.flatten_theory(builtin_theory("walking_loose"))
    for n in SKETCH_SELF_MAPS:
        s = sketch.model_to_sketch_model(gen.wl_model(rng, n, 1, 1), sk)
        ops.append(_count_op(
            "search.sketch_morphisms", {"N": n, "hets_per": 1},
            lambda s=s: sketch.enumerate_sketch_model_morphisms(s, s), n ** n))
    ops += [_check_initial_op(rng, *shape) for shape in FACTOR_WL]
    for sizes, i in YONEDA:
        cp = gen.chain_copresheaf(rng, sizes)
        rep = gen.representable_on_chain(len(sizes), i)
        ops.append(_count_op(
            "search.natural_transformations", {"N": len(sizes), "sizes": sizes},
            lambda rep=rep, cp=cp: fincat.enumerate_natural_transformations(rep, cp),
            sizes[i]))
    return ops, []


def _count_op(kind, shape, run, want):
    return Op(kind, shape, run, lambda found: None if len(found) == want else
              "found {}, expected {}".format(len(found), want))


def _feedback_ops(rng, n_vertices, n_edges, n_loops):
    graph = gen.signed_dag(rng, n_vertices, n_edges, n_loops)
    bound = n_vertices + n_loops      # above any reduced word, whatever the seed
    m = signed.involutive_loop_category(graph, bound)
    shape = {"N": n_vertices, "edges": n_edges, "loops": n_loops,
             "bound": bound}
    return [Op("search.feedback_loops", dict(shape, sign=sign),
               lambda sign=sign: fixtures.feedback_loop_count(m, sign),
               lambda n, want=fixtures.signed_cycle_oracle(graph, sign):
               None if n == want else "{} loops, expected {}".format(n, want))
            for sign in (1, -1)]


def _model_iso_ops(rng):
    """A walking-tight model against a relabelled copy (isomorphic) and
    against a model with another fibre profile (not isomorphic)."""
    x = gen.tight_model(rng, 3, 2)
    fn = x.on_tight["t"]
    rename = {t: "r" + t for t in fn}
    y = fixtures.walking_tight_model(sorted(rename.values()),
                                     list(x.on_objects["bot"]),
                                     {rename[t]: u for t, u in fn.items()})
    bot = list(x.on_objects["bot"])
    if len(set(fn.values())) > 1:     # fibre sizes (2, 1): compare with (3, 0)
        other = {t: bot[0] for t in fn}
    else:
        other = {t: bot[0] if t == min(fn) else bot[1] for t in fn}
    z = fixtures.walking_tight_model(list(fn), bot, other)
    shape = {"N": 5}
    return [
        Op("search.find_model_iso", shape,
           lambda: model.find_model_isomorphism(x, y),
           lambda f: None if f is not None and oracles.is_model_isomorphism(
               f, x, y) else "no valid isomorphism to a relabelled copy"),
        Op("search.find_model_iso_none", shape,
           lambda: model.find_model_isomorphism(x, z),
           lambda f: None if f is None else "isomorphism across fibre profiles"),
    ]


def _instance_iso_ops(rng, n_dom, n_cod, hets, width):
    x = gen.wl_model(rng, n_dom, n_cod, hets)
    h = gen.wl_instance(rng, x, width)
    k = gen.relabel_instance(rng, h)
    other = gen.non_isomorphic_variant(h)
    shape = {"N": n_dom + n_cod, "hets_per": hets, "width": width}
    return [
        Op("search.find_instance_iso", shape,
           lambda: instance.find_instance_isomorphism(h, k),
           lambda mu: None if mu is not None and oracles.is_instance_isomorphism(
               mu.components, h, k) else "no valid isomorphism to a relabelling"),
        Op("search.find_instance_iso_none", shape,
           lambda: instance.find_instance_isomorphism(h, other),
           lambda mu: None if mu is None else
           "isomorphism across in-degree profiles"),
    ]


def _check_initial_op(rng, n_dom, n_cod, hets):
    """The unit of the comprehensive factorization of x -> 1 is initial:
    every square against a dopf over the terminal model has one filler."""
    x = gen.wl_model(rng, n_dom, n_cod, hets)
    f = gen.to_terminal(x)
    one = f.target
    unit = migration.comprehensive_factorize(f, FACTOR_BOUND).initial
    taut = fixtures.tautological_instance(one)
    corpus = [pi for pi, _ in fixtures.dopf_corpus_over(
        one, [taut, fixtures.coproduct_instance(taut, taut),
              fixtures.empty_instance(one)])]
    return Op("search.check_initial",
              {"N": n_dom + n_cod, "hets_per": hets, "corpus": len(corpus),
               "bound": FACTOR_BOUND},
              lambda: migration.check_initial(unit, corpus),
              lambda report: None if report == [] else
              "unit not initial: {}".format(report[:2]))
