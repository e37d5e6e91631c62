"""Concrete theories, models, instances, and corpora shared by the
tests, the experiment scripts, and the ``fixtures emit`` verb.

Most builders here are "unit strict": loose identities are modelled by
identity spans with identity unitors, which pins down every laxator and
cell table that involves an identity.  The handful of genuinely lax
fixtures (signed categories, the cyclic-group family, categories as
models of the terminal theory) are built explicitly.
"""

from .cartesian import Multicategory
from .collage import (close_presented_category, collage_of_model,
                      copresheaf_to_instance)
from .errors import (FreeCategoryNotFinite, IllFormedPresentation,
                     ModelMismatch, NotAFunction)
from .fincat import Copresheaf, FinCategory
from .finset import FiniteSet, Span, fibers, pair_label, pullback_pairs
from .instance import Instance
from .model import ModelMorphism, MorphismSearch, SpanModel
from .signed import (SignedGraph, involutive_loop_category,
                     walking_feedback_loop)
from .theories import builtin_theory
from .words import DEFAULT_BOUND


def identity_span(fs):
    ident = {e: e for e in fs}
    return Span(fs, fs, fs, dict(ident), dict(ident))


# ---------------------------------------------------------------------------
# unit-strict models of the small thin theories


def unit_strict_model(t, sets, fns=None, spans=None, cells=None, lax=None):
    """A model with identity spans on loose identities.

    ``sets`` maps objects to element lists, ``fns`` non-identity tights
    to tables, ``spans`` non-identity looses to Spans, ``cells`` the
    remaining cell boundaries (f, g, m, n) to tables, and ``lax`` the
    compositions of two non-identity looses to tables.
    """
    fns = dict(fns or {})
    spans = dict(spans or {})
    cells = dict(cells or {})
    lax = dict(lax or {})
    loose_ids = set(t.loose_id.values())
    tight_ids = set(t.tight_id.values())

    on_objects = {d: s if isinstance(s, FiniteSet) else FiniteSet(s)
                  for d, s in sets.items()}
    on_tight = {}
    for f, (x, _) in t.tight.items():
        if f in tight_ids:
            on_tight[f] = {e: e for e in on_objects[x]}
        else:
            on_tight[f] = dict(fns[f])
    on_loose = {}
    for m, (x, _) in t.loose.items():
        if m in loose_ids:
            on_loose[m] = identity_span(on_objects[x])
        else:
            on_loose[m] = spans[m]
    on_cells = {}
    for a, (f, g, m, n) in t.cells.items():
        if m in loose_ids and n in loose_ids:
            on_cells[a] = dict(on_tight[f])
        elif f in tight_ids and g in tight_ids and m == n:
            on_cells[a] = {e: e for e in on_loose[m].apex}
        else:
            on_cells[a] = dict(cells[(f, g, m, n)])
    laxators = {}
    for (m, n), mn in t.loose_comp.items():
        if m in loose_ids and n in loose_ids:
            laxators[(m, n)] = {(e, e): e for e in on_loose[m].apex}
        elif m in loose_ids:
            laxators[(m, n)] = {(on_loose[n].left[xi], xi): xi
                                for xi in on_loose[n].apex}
        elif n in loose_ids:
            laxators[(m, n)] = {(xi, on_loose[m].right[xi]): xi
                                for xi in on_loose[m].apex}
        else:
            laxators[(m, n)] = dict(lax[(m, n)])
    unitors = {d: {e: e for e in on_objects[d]} for d in t.objects}
    return SpanModel(t, on_objects, on_tight, on_loose, on_cells,
                     laxators, unitors)


def walking_loose_model(dom, cod, het):
    """A span as a model: ``het`` is a list of (name, src, tgt)."""
    t = builtin_theory("walking_loose")
    d, c = FiniteSet(dom), FiniteSet(cod)
    apex = FiniteSet([n for n, _, _ in het])
    span = Span(d, c, apex,
                {n: a for n, a, _ in het}, {n: b for n, _, b in het})
    return unit_strict_model(t, {"dom": d, "cod": c}, spans={"l": span})


def walking_tight_model(top, bot, fn):
    """A function as a model of the one-tight-arrow theory."""
    t = builtin_theory("walking_tight")
    return unit_strict_model(t, {"top": top, "bot": bot}, fns={"t": dict(fn)})


def walking_square_model(sets, left, right, top, bot, square):
    """A span map as a model: ``top``/``bot`` are (name, src, tgt)
    lists, ``square`` maps top heteromorphism names to bottom ones."""
    t = builtin_theory("walking_square")
    on = {o: FiniteSet(sets[o]) for o in ("tl", "tr", "bl", "br")}
    top_span = Span(on["tl"], on["tr"], FiniteSet([n for n, _, _ in top]),
                    {n: a for n, a, _ in top}, {n: b for n, _, b in top})
    bot_span = Span(on["bl"], on["br"], FiniteSet([n for n, _, _ in bot]),
                    {n: a for n, a, _ in bot}, {n: b for n, _, b in bot})
    return unit_strict_model(
        t, on, fns={"l": dict(left), "r": dict(right)},
        spans={"top": top_span, "bot": bot_span},
        cells={("l", "r", "top", "bot"): dict(square)})


# ---------------------------------------------------------------------------
# instances over unit-strict models


def build_instance(x, carriers, labels, het_actions, tight_cells=None):
    """Fill in the forced parts of an instance.

    ``het_actions`` maps non-identity looses to action tables; actions
    over an identity loose carried by an identity span are forced by
    the unit axiom.  ``tight_cells`` are needed only for non-identity
    tights.  A missing action table that is not forced raises
    NotAFunction.
    """
    t = x.theory
    tight_ids = set(t.tight_id.values())
    carriers = {d: s if isinstance(s, FiniteSet) else FiniteSet(s)
                for d, s in carriers.items()}
    cells = {}
    for f, (d, _) in t.tight.items():
        if f in tight_ids:
            cells[f] = {e: e for e in carriers[d]}
        else:
            cells[f] = dict((tight_cells or {})[f])
    actions = {}
    for m, (d, _) in t.loose.items():
        if m in het_actions:
            actions[m] = dict(het_actions[m])
            continue
        sp = x.on_loose[m]
        if m != t.loose_id[d] or not sp.left == sp.right == \
                {e: e for e in sp.apex}:
            raise NotAFunction("action table required for {}".format(m))
        actions[m] = {(e, labels[d][e]): e for e in carriers[d]}
    return Instance(x, carriers, labels, cells, actions)


def tautological_instance(x):
    """The instance whose carriers are the model's own elements and
    whose actions read off the spans."""
    t = x.theory
    carriers = {d: x.on_objects[d] for d in t.objects}
    labels = {d: {e: e for e in x.on_objects[d]} for d in t.objects}
    cells = {f: dict(x.on_tight[f]) for f in t.tight}
    actions = {}
    for m in t.loose:
        sp = x.on_loose[m]
        actions[m] = {(sp.left[b], b): sp.right[b] for b in sp.apex}
    return Instance(x, carriers, labels, cells, actions)


def representable_instances(x, bound=DEFAULT_BOUND):
    """One instance per object of the closed collage, via the
    corresponding representable copresheaf."""
    closure = close_presented_category(collage_of_model(x), bound)
    cat = closure.category
    hom = fibers(cat.morphisms, sorted(cat.morphisms))
    out = []
    for c in cat.objects:
        on_objects = {d: FiniteSet(hom.get((c, d), ())) for d in cat.objects}
        on_morphisms = {g: {f: cat.comp[(f, g)]
                            for f in hom.get((c, s), ())}
                        for g, (s, _) in cat.morphisms.items()}
        cp = Copresheaf(cat, on_objects, on_morphisms)
        out.append(copresheaf_to_instance(cp, x, closure))
    return out


def coproduct_instance(h, k):
    """Disjoint union of two instances of the same model; instances of
    different models raise ModelMismatch."""
    if h.model is not k.model:
        raise ModelMismatch("a coproduct of instances of different models")
    t = h.model.theory

    def tag(side, table):
        return {pair_label(side, e): v for e, v in table.items()}

    carriers, labels, cells, actions = {}, {}, {}, {}
    for d in t.objects:
        carriers[d] = FiniteSet(
            [pair_label("L", e) for e in h.carriers[d]] +
            [pair_label("R", e) for e in k.carriers[d]])
        labels[d] = dict(tag("L", h.labels[d]), **tag("R", k.labels[d]))
    for f in t.tight:
        cells[f] = {
            pair_label("L", e): pair_label("L", v)
            for e, v in h.tight_cells[f].items()}
        cells[f].update({
            pair_label("R", e): pair_label("R", v)
            for e, v in k.tight_cells[f].items()})
    for m in t.loose:
        table = {(pair_label("L", e), b): pair_label("L", v)
                 for (e, b), v in h.actions[m].items()}
        table.update({(pair_label("R", e), b): pair_label("R", v)
                      for (e, b), v in k.actions[m].items()})
        actions[m] = table
    return Instance(h.model, carriers, labels, cells, actions)


def empty_instance(x):
    """The instance with empty carriers."""
    t = x.theory
    return Instance(x, {d: FiniteSet([]) for d in t.objects},
                    {d: {} for d in t.objects},
                    {f: {} for f in t.tight}, {m: {} for m in t.loose})


# ---------------------------------------------------------------------------
# categories and functors as models of the terminal theory


def category_as_model(cat):
    """A finite category as a model of the one-object theory: the
    element set is the objects, the loose identity carries the arrows,
    and the laxator is composition."""
    t = builtin_theory("terminal")
    obs = FiniteSet(cat.objects)
    arrows = FiniteSet(cat.morphisms)
    span = Span(obs, obs, arrows,
                {f: cat.src(f) for f in cat.morphisms},
                {f: cat.dst(f) for f in cat.morphisms})
    laxators = {("id:*", "id:*"): {
        (f, g): cat.comp[(f, g)] for f, g in pullback_pairs(span, span)}}
    return SpanModel(t, {"*": obs}, {"id:*": {o: o for o in obs}},
                     {"id:*": span},
                     {t.cell_id_loose["id:*"]: {f: f for f in cat.morphisms}},
                     laxators, {"*": dict(cat.identity)})


def functor_as_morphism(fun, xm=None, ym=None):
    """A functor as a morphism between category models."""
    xm = category_as_model(fun.source) if xm is None else xm
    ym = category_as_model(fun.target) if ym is None else ym
    return ModelMorphism(xm, ym, {"*": dict(fun.on_objects)},
                         {"id:*": dict(fun.on_morphisms)})


def copresheaf_as_instance(cp, xm):
    """A copresheaf on a category as an instance of its model."""
    cat = cp.base
    carrier, label = [], {}
    for d in cat.objects:
        for e in cp.on_objects[d]:
            carrier.append(pair_label(d, e))
            label[pair_label(d, e)] = d
    actions = {"id:*": {
        (pair_label(cat.src(g), e), g):
            pair_label(cat.dst(g), cp.on_morphisms[g][e])
        for g in cat.morphisms for e in cp.on_objects[cat.src(g)]}}
    return Instance(xm, {"*": FiniteSet(carrier)}, {"*": label},
                    {"id:*": {e: e for e in carrier}}, actions)


def chain_category(n):
    """The linear order 0 < 1 < ... < n-1 as a finite category."""
    objects = [str(i) for i in range(n)]
    morphisms, comp = {}, {}

    def name(i, j):
        return "id:{}".format(i) if i == j else "{}<{}".format(i, j)

    for i in range(n):
        for j in range(i, n):
            morphisms[name(i, j)] = (str(i), str(j))
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                comp[(name(i, j), name(j, k))] = name(i, k)
    identity = {str(i): name(i, i) for i in range(n)}
    return FinCategory(objects, morphisms, identity, comp)


def parallel_pair_category():
    """Two objects with two parallel non-identity arrows."""
    morphisms = {"id:a": ("a", "a"), "id:b": ("b", "b"),
                 "f": ("a", "b"), "g": ("a", "b")}
    comp = {("id:a", "id:a"): "id:a", ("id:b", "id:b"): "id:b",
            ("id:a", "f"): "f", ("f", "id:b"): "f",
            ("id:a", "g"): "g", ("g", "id:b"): "g"}
    return FinCategory(["a", "b"], morphisms,
                       {"a": "id:a", "b": "id:b"}, comp)


# ---------------------------------------------------------------------------
# named fixtures


def weighted_graph_schema():
    """The schema for edge-weighted graphs: sorts for vertices and
    edges on one side, a weight sort on the other, and a single
    weighting heteromorphism out of the edge sort."""
    return walking_loose_model(["V", "E"], ["Wt"], [("w", "E", "Wt")])


def weighted_graph_instance(rows=2):
    """A concrete weighted graph: ``rows`` edges over 2 vertices and 2
    weight values, weights alternating."""
    x = weighted_graph_schema()
    edges = ["e{}".format(i) for i in range(rows)]
    weights = ["5", "7"]
    carriers = {"dom": ["v0", "v1"] + edges, "cod": weights}
    labels = {"dom": dict({v: "V" for v in ("v0", "v1")},
                          **{e: "E" for e in edges}),
              "cod": {w: "Wt" for w in weights}}
    action = {(e, "w"): weights[i % 2] for i, e in enumerate(edges)}
    return build_instance(x, carriers, labels, {"l": action})


def profunctor_instance_fixture():
    """A pair of set families intertwined along a span: the instance
    of the walking-loose model whose action follows the span."""
    x = walking_loose_model(
        ["a0", "a1"], ["b0", "b1"],
        [("h0", "a0", "b0"), ("h1", "a0", "b1"), ("h2", "a1", "b1")])
    carriers = {"dom": ["p", "q", "r"], "cod": ["s", "t"]}
    labels = {"dom": {"p": "a0", "q": "a0", "r": "a1"},
              "cod": {"s": "b0", "t": "b1"}}
    action = {("p", "h0"): "s", ("q", "h0"): "s",
              ("p", "h1"): "t", ("q", "h1"): "t", ("r", "h2"): "t"}
    return x, build_instance(x, carriers, labels, {"l": action})


def codiscrete_monad_model():
    """A model of the arity-2 endomorphism theory on the codiscrete
    category over {a, b}: every cell table is forced by codiscreteness."""
    t = builtin_theory("monad_trunc", 2)
    obs = FiniteSet(["a", "b"])
    arrows = [pair_label(u, v) for u in obs for v in obs]
    span = Span(obs, obs, FiniteSet(arrows),
                {pair_label(u, v): u for u in obs for v in obs},
                {pair_label(u, v): v for u in obs for v in obs})
    step = {"a": "b", "b": "b"}

    def power(k):
        out = {e: e for e in obs}
        for _ in range(k):
            out = {e: step[v] for e, v in out.items()}
        return out

    on_tight = {"t{}".format(i): power(i) for i in range(3)}
    on_cells = {}
    for a, (f, g, m, n) in t.cells.items():
        fi, gi = int(f[1:]), int(g[1:])
        on_cells[a] = {
            pair_label(u, v): pair_label(power(fi)[u], power(gi)[v])
            for u in obs for v in obs}
    laxators = {("id:x", "id:x"): {
        (pair_label(u, v), pair_label(v2, w)): pair_label(u, w)
        for u in obs for v in obs for v2 in obs for w in obs if v == v2}}
    unitors = {"x": {e: pair_label(e, e) for e in obs}}
    return SpanModel(t, {"x": obs}, on_tight, {"id:x": span}, on_cells,
                     laxators, unitors)


def monad_instance_fixture():
    """An instance of the codiscrete endomorphism model, one carrier
    element per base element, with the action following the codomain."""
    x = codiscrete_monad_model()
    carriers = {"x": FiniteSet(["ea", "eb"])}
    labels = {"x": {"ea": "a", "eb": "b"}}
    elem_of = {"a": "ea", "b": "eb"}
    step = {"a": "b", "b": "b"}
    cells = {"t0": {"ea": "ea", "eb": "eb"},
             "t1": {e: elem_of[step[labels["x"][e]]] for e in carriers["x"]},
             "t2": {e: elem_of[step[step[labels["x"][e]]]]
                    for e in carriers["x"]}}
    actions = {"id:x": {
        (elem_of[u], pair_label(u, v)): elem_of[v]
        for u in ("a", "b") for v in ("a", "b")}}
    return x, Instance(x, carriers, labels, cells, actions)


def cyclic_translation_model(n, q):
    """The cyclic group of order n as a one-object model of the
    involution-cell theory, with the extra cell acting as translation
    by q.  Unless 2q vanishes mod n the cell is not an involution, and
    IllFormedPresentation is raised."""
    if (2 * q) % n:
        raise IllFormedPresentation(
            "translation by {} is not an involution of Z/{}".format(q, n))
    from .theories import involution_cell_theory
    t = involution_cell_theory()
    pt = FiniteSet(["*"])
    elems = [str(i) for i in range(n)]
    apex = FiniteSet(elems)
    span = Span(pt, pt, apex, {e: "*" for e in elems}, {e: "*" for e in elems})
    on_cells = {"c[id]": {e: e for e in elems},
                "alpha": {e: str((int(e) + q) % n) for e in elems}}
    laxators = {("id:*", "id:*"): {
        (a, b): str((int(a) + int(b)) % n) for a in elems for b in elems}}
    return SpanModel(t, {"*": pt}, {"id:*": {"*": "*"}}, {"id:*": span},
                     on_cells, laxators, {"*": {"*": "0"}})


def cyclic_quotient_morphism(x4=None, x2=None):
    """The reduction-mod-2 morphism from the order-4 translation-by-2
    model to the order-2 translation-by-0 model.  It is not an
    isomorphism, but the collage functor it induces is."""
    x4 = cyclic_translation_model(4, 2) if x4 is None else x4
    x2 = cyclic_translation_model(2, 0) if x2 is None else x2
    return ModelMorphism(x4, x2, {"*": {"*": "*"}},
                         {"id:*": {e: str(int(e) % 2)
                                   for e in x4.on_loose["id:*"].apex}})


# ---------------------------------------------------------------------------
# signed graphs


def signed_fixture_graphs():
    """Signed graphs whose involutive-loop quotients are finite: at
    most one loop per vertex and no other cycles."""
    g1 = SignedGraph(
        ["u", "v", "w"],
        [("a", "u", "v", +1), ("b", "v", "w", -1),
         ("p", "u", "u", -1), ("q", "w", "w", +1)])
    g2 = SignedGraph(
        ["x", "y"],
        [("e", "x", "y", -1), ("n1", "x", "x", -1), ("n2", "y", "y", -1)])
    g3 = SignedGraph(
        ["s", "t", "z"],
        [("f", "s", "t", +1), ("g", "t", "z", +1), ("h", "s", "z", -1),
         ("r", "z", "z", +1)])
    return [g1, g2, g3]


def signed_fixture_models(bound=6):
    return [involutive_loop_category(g, bound)
            for g in signed_fixture_graphs()]


def signed_cycle_oracle(graph, sign):
    """Count feedback loops directly on the graph.

    In the involutive-loop quotient the endo-arrows at a vertex are the
    identity and the loop edge (when present), each its own inverse, so
    a feedback loop of a given sign is a vertex together with an
    involutive endo-arrow of that sign: loop edges of the sign, plus
    every identity when the sign is positive.  A vertex with two loops
    makes the quotient infinite and raises FreeCategoryNotFinite.
    """
    looped = [s for _, s, _, _ in graph.loops()]
    if len(set(looped)) != len(looped):
        raise FreeCategoryNotFinite("a vertex has two loops, so its "
                                    "involutive-loop quotient is infinite")
    count = len([1 for _, s, d, sg in graph.edges if s == d and sg == sign])
    if sign == +1:
        count += len(graph.vertices)
    return count


# the walking feedback loop of each sign, closed once and never changed
_WALKING_LOOPS = {}


def feedback_loop_count(model, sign):
    """Count feedback loops by model-morphism search, streamed."""
    loop = _WALKING_LOOPS.get(sign)
    if loop is None:
        loop = _WALKING_LOOPS[sign] = walking_feedback_loop(sign)
    return MorphismSearch(loop, model).count()


# ---------------------------------------------------------------------------
# multicategories


def terminal_multicategory(truncation=2):
    """One object with one multimorphism per arity."""
    mms = {"m{}".format(i): (("o",) * i, "o") for i in range(truncation + 1)}
    mc = Multicategory(["o"], mms, {"o": "m1"}, {}, truncation)
    for outer, (dom, _) in mms.items():
        for inners in mc.families(dom):
            mc.comp[(outer, inners)] = "m{}".format(sum(map(mc.arity, inners)))
    return mc


def join_multicategory():
    """One object, a nullary bottom and a binary join, arity 2."""
    mms = {"u": (("o",), "o"), "n": ((), "o"), "b": (("o", "o"), "o")}
    comp = {("u", ("u",)): "u", ("u", ("n",)): "n", ("u", ("b",)): "b",
            ("b", ("u", "u")): "b", ("b", ("n", "u")): "u",
            ("b", ("u", "n")): "u", ("b", ("n", "n")): "n",
            ("n", ()): "n", ("b", ("b", "n")): "b", ("b", ("n", "b")): "b"}
    return Multicategory(["o"], mms, {"o": "u"}, comp, 2)


def two_object_multicategory():
    """Two objects with a binary pairing into the second, arity 2."""
    mms = {"ia": (("a",), "a"), "ib": (("b",), "b"),
           "pair": (("a", "a"), "b")}
    comp = {("ia", ("ia",)): "ia", ("ib", ("ib",)): "ib",
            ("ib", ("pair",)): "pair", ("pair", ("ia", "ia")): "pair"}
    return Multicategory(["a", "b"], mms, {"a": "ia", "b": "ib"}, comp, 2)


def builtin_multicategory(name):
    builders = {"terminal": terminal_multicategory,
                "join": join_multicategory,
                "two_object": two_object_multicategory}
    return builders[name]()


# ---------------------------------------------------------------------------
# discrete-opfibration corpora


def dopf_corpus_over(x, instances=None):
    """Certified discrete opfibrations over a model: the projections
    of the models of elements of the given (or representable)
    instances."""
    from .elements import elements
    if instances is None:
        instances = representable_instances(x)
    out = []
    for h in instances:
        _, pi, witness = elements(h)
        out.append((pi, witness))
    return out


def standard_instance_corpus():
    """(theory name, model, instances) triples used by the round-trip
    suites: five thin theories, three models each, two instances each."""
    corpus = []

    wl = builtin_theory("walking_loose")
    models = [
        weighted_graph_schema(),
        walking_loose_model(["a0", "a1"], ["b0"],
                            [("h0", "a0", "b0"), ("h1", "a1", "b0")]),
        walking_loose_model(["a"], ["b"], []),
    ]
    for x in models:
        corpus.append(("walking_loose", x,
                       [tautological_instance(x),
                        coproduct_instance(tautological_instance(x),
                                           tautological_instance(x))]))

    models = [
        unit_strict_model(builtin_theory("terminal"), {"*": ["s"]}),
        unit_strict_model(builtin_theory("terminal"), {"*": ["s", "t"]}),
        category_as_model(chain_category(2)),
    ]
    for x in models:
        corpus.append(("terminal", x,
                       [tautological_instance(x),
                        representable_instances(x)[0]]))

    models = [
        walking_tight_model(["p", "q"], ["r"], {"p": "r", "q": "r"}),
        walking_tight_model(["p"], ["r", "s"], {"p": "s"}),
        walking_tight_model(["p", "q"], ["p2", "q2"],
                            {"p": "p2", "q": "q2"}),
    ]
    for x in models:
        corpus.append(("walking_tight", x,
                       [tautological_instance(x),
                        coproduct_instance(tautological_instance(x),
                                           tautological_instance(x))]))

    sq = [
        walking_square_model(
            {"tl": ["1"], "tr": ["2"], "bl": ["3"], "br": ["4"]},
            {"1": "3"}, {"2": "4"},
            [("t", "1", "2")], [("b", "3", "4")], {"t": "b"}),
        walking_square_model(
            {"tl": ["1", "1x"], "tr": ["2"], "bl": ["3"], "br": ["4"]},
            {"1": "3", "1x": "3"}, {"2": "4"},
            [("t", "1", "2"), ("t2", "1x", "2")],
            [("b", "3", "4")], {"t": "b", "t2": "b"}),
        walking_square_model(
            {"tl": ["1"], "tr": ["2"], "bl": ["3"], "br": ["4", "4x"]},
            {"1": "3"}, {"2": "4x"},
            [("t", "1", "2")], [("b", "3", "4"), ("b2", "3", "4x")],
            {"t": "b2"}),
    ]
    for x in sq:
        corpus.append(("walking_square", x,
                       [tautological_instance(x),
                        coproduct_instance(tautological_instance(x),
                                           tautological_instance(x))]))

    for x in signed_fixture_models():
        # closure stabilizes by word length 4 on these fixtures
        corpus.append(("signed", x,
                       [tautological_instance(x),
                        representable_instances(x, bound=4)[0]]))
    return corpus
