"""closure: the words and collage layers, and the migrations built on them.

Closing presented categories is nearly all of this workload's time.
Alongside, the round trips and the migrations that reuse a context
built in setup spend their time in ``word_class`` lookups and Kan
extensions with no closing, so a closure rewrite that slows lookups
shows here too.  Sizes stop short of measured cliffs (see README.md).
"""

from dblinst import collage, fixtures, migration, signed
from dblinst.errors import HomSetNotFinite
from dblinst.instance import restrict_instance

import gen
import oracles
from harness import Op, expect

# (dom, cod, heteromorphisms per dom element), closed at WL_BOUND
WL_SHAPES = [(1, 1, 0), (2, 1, 3), (3, 3, 1), (4, 2, 2), (5, 4, 1), (6, 6, 1)]
WL_BOUND = 8
CHAIN_SIZES = [1, 2, 3, 4]          # chain(4) once per pass
CHAIN_BOUND = 8
CYCLIC = [(2, 0), (2, 1), (3, 0), (4, 0), (4, 2)]
CYCLIC_BOUND = 3
SIGNED_SHAPES = [(5, 5, 3)]     # vertices, edges, loops
# (dom, cod, heteromorphisms per dom element, fibre width)
ROUND_TRIP_SHAPES = [(3, 3, 1, 2), (4, 4, 1, 3)]
ROUND_TRIP_BOUND = 4
# (source dom, source cod, target dom, target cod, hets per target dom element)
FOLD_SHAPES = [(4, 3, 2, 2, 1), (5, 4, 3, 2, 2)]
MIGRATION_BOUND = 4
FACTOR_WL = [(3, 3, 1), (4, 3, 2)]
FACTOR_CHAIN = [((1, 2), 3), ((0, 1, 2), 3)]     # (values of F, m)
FACTOR_BOUND = 4
MAX_CLASSES = 10000       # caps passed explicitly, at the library defaults
MAX_HOM_CARD = 10000


def build(rng, workdir):
    ops = []
    for n_dom, n_cod, hets in WL_SHAPES:
        x = gen.wl_model(rng, n_dom, n_cod, hets)
        ops.append(_close_op("closure.wl_collage", x,
                             {"N": n_dom + n_cod, "dom": n_dom, "cod": n_cod,
                              "hets_per": hets, "bound": WL_BOUND},
                             WL_BOUND, oracles.wl_collage_morphisms(x)))
    for n in CHAIN_SIZES:
        x = fixtures.category_as_model(fixtures.chain_category(n))
        ops.append(_close_op("closure.chain_collage", x,
                             {"N": n, "bound": CHAIN_BOUND}, CHAIN_BOUND,
                             oracles.chain_collage_morphisms(n)))
    for n, q in CYCLIC:
        x = fixtures.cyclic_translation_model(n, q)
        ops.append(_close_op("closure.cyclic_collage", x,
                             {"N": n, "q": q, "bound": CYCLIC_BOUND},
                             CYCLIC_BOUND, oracles.cyclic_quotient_order(n, q)))
    ops += [_signed_op(rng, *shape) for shape in SIGNED_SHAPES]
    ops += [_round_trip_op(rng, *shape) for shape in ROUND_TRIP_SHAPES]
    for shape in FOLD_SHAPES:
        ops += _migration_ops(rng, *shape)
    ops += [_factorize_wl_op(rng, *shape) for shape in FACTOR_WL]
    ops += [_factorize_chain_op(values, m) for values, m in FACTOR_CHAIN]
    x = fixtures.cyclic_translation_model(4, 2)
    ops.append(Op("closure.bound_too_small", {"N": 4, "q": 2, "bound": 1},
                  lambda: collage.close_presented_category(
                      collage.collage_of_model(x), 1, MAX_CLASSES),
                  expect_error=HomSetNotFinite))
    return ops, []


def _close_op(kind, x, shape, bound, morphisms):
    return Op(kind, shape,
              lambda: collage.close_presented_category(
                  collage.collage_of_model(x), bound, MAX_CLASSES),
              lambda cl: expect("morphisms", len(cl.category.morphisms),
                                morphisms))


def _signed_op(rng, n_vertices, n_edges, n_loops):
    graph = gen.signed_dag(rng, n_vertices, n_edges, n_loops)
    arrows, longest = oracles.signed_arrows(graph)
    bound = n_vertices + n_loops      # above any reduced word, whatever the seed
    assert longest < bound
    return Op("closure.signed_build",
              {"N": n_vertices, "edges": n_edges, "loops": n_loops,
               "bound": bound},
              lambda: signed.involutive_loop_category(graph, bound),
              lambda m: expect("arrows", len(m.arrow_category.morphisms),
                               arrows))


def _round_trip_op(rng, n_dom, n_cod, hets, width):
    """instance -> copresheaf -> instance on a closure built in setup; the
    result is the input with every element p renamed (label(p),p)."""
    x = gen.wl_model(rng, n_dom, n_cod, hets)
    h = gen.wl_instance(rng, x, width)
    closure = collage.close_presented_category(collage.collage_of_model(x),
                                               ROUND_TRIP_BOUND, MAX_CLASSES)
    rename = {d: {p: oracles.pair(e, p) for p, e in h.labels[d].items()}
              for d in h.labels}
    want_carriers = {d: sorted(r.values()) for d, r in rename.items()}
    want_actions = {}
    for m, (s, d) in x.theory.loose.items():
        want_actions[m] = {(rename[s][p], xi): rename[d][v]
                           for (p, xi), v in h.actions[m].items()}

    def check(back):
        if {d: list(c) for d, c in back.carriers.items()} != want_carriers:
            return "carriers differ from the renamed input"
        if back.actions != want_actions:
            return "actions differ from the renamed input"
        return None

    return Op("closure.round_trip",
              {"N": n_dom + n_cod, "hets_per": hets, "width": width,
               "bound": ROUND_TRIP_BOUND},
              lambda: collage.copresheaf_to_instance(
                  collage.instance_to_copresheaf(h, closure), x, closure),
              check)


def _migration_ops(rng, n_dom, n_cod, m_dom, m_cod, hets):
    """Delta, Sigma and Pi along a fold, once building the context per op
    (as the CLI does) and once reusing a context built in setup."""
    al = gen.fold_morphism(rng, n_dom, n_cod, m_dom, m_cod, hets)
    hx = fixtures.tautological_instance(al.source)
    hy = fixtures.tautological_instance(al.target)
    ctx = migration.MigrationContext(al, MIGRATION_BOUND, MAX_HOM_CARD)
    restricted = {d: len(c) for d, c in
                  restrict_instance(al, hy).carriers.items()}
    source_sizes = {d: len(al.source.on_objects[d]) for d in ("dom", "cod")}
    fibres = {d: oracles.fibre_counts(al, d) for d in ("dom", "cod")}
    ones = {d: {e: 1 for e in al.target.on_objects[d]} for d in ("dom", "cod")}

    def sizes(h):
        return {d: len(h.carriers[d]) for d in ("dom", "cod")}

    def delta_check(h):
        return (expect("delta sizes vs restrict_instance", sizes(h), restricted)
                or expect("delta sizes", sizes(h), source_sizes))

    def counts_check(want):
        return lambda h: expect(
            "elements per target element",
            {d: oracles.label_counts(h, d) for d in ("dom", "cod")}, want)

    shape = {"N": n_dom + n_cod, "M": m_dom + m_cod, "hets_per": hets,
             "bound": MIGRATION_BOUND}
    ops = []
    for variant, kw in (("ctx", {"bound": MIGRATION_BOUND}),
                        ("reuse", {"context": ctx})):
        ops += [
            Op("closure.delta_" + variant, shape,
               lambda kw=kw: migration.migrate_pullback(al, hy, **kw),
               delta_check),
            Op("closure.sigma_" + variant, shape,
               lambda kw=kw: migration.migrate_lan(al, hx, **kw),
               counts_check(fibres)),
            Op("closure.pi_" + variant, shape,
               lambda kw=kw: migration.migrate_ran(al, hx, **kw),
               counts_check(ones)),
        ]
    return ops


def _factorize_wl_op(rng, n_dom, n_cod, hets):
    """A walking-loose model over the terminal model: the middle object
    counts comma components, and the factors recompose to the input."""
    x = gen.wl_model(rng, n_dom, n_cod, hets)
    f = gen.to_terminal(x)
    want = oracles.comma_components(x)

    def check(fac):
        got = {d: len(fac.middle.on_objects[d]) for d in ("dom", "cod")}
        recomposed = {d: {e: fac.opfibration.on_objects[d][v]
                          for e, v in fac.initial.on_objects[d].items()}
                      for d in fac.initial.on_objects}
        return (expect("middle sizes", got, want)
                or expect("recomposed objects", recomposed, f.on_objects))

    return Op("closure.factorize_terminal",
              {"N": n_dom + n_cod, "hets_per": hets, "bound": FACTOR_BOUND},
              lambda: migration.comprehensive_factorize(f, FACTOR_BOUND), check)


def _factorize_chain_op(values, m):
    """A monotone map F: [n] -> [m]: Lan_F of the terminal copresheaf is
    one point at each d >= F(0), so the middle category has m - F(0)
    objects.  The maps are fixed, because the work depends on them."""
    f = fixtures.functor_as_morphism(gen.chain_functor(values, m))
    want = m - values[0]
    return Op("closure.factorize_chain",
              {"N": len(values), "M": m, "bound": FACTOR_BOUND},
              lambda: migration.comprehensive_factorize(f, FACTOR_BOUND),
              lambda fac: expect("middle objects",
                                 len(fac.middle.on_objects["*"]), want))
