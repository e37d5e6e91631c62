"""Flattening a double theory into a finite-limit sketch.

The sketch has one object sort per theory object, per loose arrow, per
composable loose pair, and per composable loose triple.  Generators
carry the tight arrows, the span legs, the pair/triple projections, the
cells, the laxator and unitor comparison arrows, and the unit and
associativity comparisons; marked squares single out the pair and
triple sorts as pullbacks.  Set-valued sketch models are exactly
models of the theory, checked relation-locally without closing hom-sets.
"""


from .collage import PresentedCategory
from .errors import MarkedSquareNotPullback
from .finset import FiniteSet, Span, fibers, pair_label, pullback_pairs
from .model import SpanModel
from .search import solutions


def ob_sort(x):
    return "O[{}]".format(x)


def loose_sort(m):
    return "L[{}]".format(m)


def pair_sort(m, n):
    return "P[{},{}]".format(m, n)


def triple_sort(m, n, p):
    return "T[{},{},{}]".format(m, n, p)


class LimitSketch:
    def __init__(self, presented, marked_pullbacks, marked_products=()):
        self.presented = presented
        # (apex, leg1, leg2, cospan1, cospan2), all generator names
        self.marked_pullbacks = list(marked_pullbacks)
        # (apex, tuple of leg generator names); empty legs mark a point
        self.marked_products = list(marked_products)


class SketchModel:
    """Sets per sketch object and tables per generator; identity tights
    and identity cells are represented by omission (empty words)."""

    def __init__(self, sketch, on_objects, on_generators):
        self.sketch = sketch
        self.on_objects = dict(on_objects)
        self.on_generators = {g: dict(t) for g, t in on_generators.items()}

    def eval_word(self, src, word):
        table = {v: v for v in self.on_objects[src]}
        for g in word:
            step = self.on_generators[g]
            table = {v: step[w] for v, w in table.items()}
        return table


def _triples(t):
    out = []
    for (m, n), mn in t.loose_comp.items():
        for p in t.loose:
            if (n, p) in t.loose_comp and (mn, p) in t.loose_comp:
                out.append((m, n, p))
    return out


def flatten_theory(t):
    """The finite-limit sketch of a double theory."""
    tight_ids = set(t.tight_id.values())
    cell_ids = set(t.cell_id_loose.values())
    pairs = sorted(t.loose_comp)
    triples = sorted(_triples(t))

    objects = [ob_sort(x) for x in t.objects]
    objects += [loose_sort(m) for m in t.loose]
    objects += [pair_sort(m, n) for m, n in pairs]
    objects += [triple_sort(*tr) for tr in triples]

    gens = {}

    def tight_word(f):
        return () if f in tight_ids else ("ar[{}]".format(f),)

    def cell_word(a):
        return () if a in cell_ids else ("cell[{}]".format(a),)

    for f, (x, y) in t.tight.items():
        if f not in tight_ids:
            gens["ar[{}]".format(f)] = (ob_sort(x), ob_sort(y), "plain")
    for m, (x, y) in t.loose.items():
        gens["src[{}]".format(m)] = (loose_sort(m), ob_sort(x), "plain")
        gens["tgt[{}]".format(m)] = (loose_sort(m), ob_sort(y), "plain")
    for m, n in pairs:
        gens["p1[{},{}]".format(m, n)] = (pair_sort(m, n), loose_sort(m), "plain")
        gens["p2[{},{}]".format(m, n)] = (pair_sort(m, n), loose_sort(n), "plain")
        gens["lax[{},{}]".format(m, n)] = (
            pair_sort(m, n), loose_sort(t.loose_comp[(m, n)]), "plain")
    for a, (f, g, m, n) in t.cells.items():
        if a not in cell_ids:
            gens["cell[{}]".format(a)] = (loose_sort(m), loose_sort(n), "plain")
    hpairs = []
    for (a, b), ab in t.cell_hcomp.items():
        ma, mb = t.cell_top(a), t.cell_top(b)
        na, nb = t.cell_bottom(a), t.cell_bottom(b)
        if (ma, mb) in t.loose_comp and (na, nb) in t.loose_comp:
            hpairs.append((a, b))
            gens["cell2[{},{}]".format(a, b)] = (
                pair_sort(ma, mb), pair_sort(na, nb), "plain")
    for x in t.objects:
        gens["unit[{}]".format(x)] = (
            ob_sort(x), loose_sort(t.loose_id[x]), "plain")
    for m, (x, y) in t.loose.items():
        lm, rm = t.loose_id[x], t.loose_id[y]
        if (lm, m) in t.loose_comp:
            gens["lu[{}]".format(m)] = (loose_sort(m), pair_sort(lm, m), "plain")
        if (m, rm) in t.loose_comp:
            gens["ru[{}]".format(m)] = (loose_sort(m), pair_sort(m, rm), "plain")
    for m, n, p in triples:
        tr = triple_sort(m, n, p)
        mn, np = t.loose_comp[(m, n)], t.loose_comp[(n, p)]
        gens["p12[{},{},{}]".format(m, n, p)] = (tr, pair_sort(m, n), "plain")
        gens["p23[{},{},{}]".format(m, n, p)] = (tr, pair_sort(n, p), "plain")
        gens["lassoc[{},{},{}]".format(m, n, p)] = (tr, pair_sort(mn, p), "plain")
        gens["rassoc[{},{},{}]".format(m, n, p)] = (tr, pair_sort(m, np), "plain")

    relations = []

    def add(src, dst, w1, w2):
        if tuple(w1) != tuple(w2):
            relations.append((src, dst, tuple(w1), tuple(w2)))

    # (1) tight functoriality
    for (f, g), fg in t.tight_comp.items():
        add(ob_sort(t.tight_src(f)), ob_sort(t.tight_dst(g)),
            tight_word(f) + tight_word(g), tight_word(fg))
    # (2) span maps from cells, laxators, unitors
    for a, (f, g, m, n) in t.cells.items():
        add(loose_sort(m), ob_sort(t.loose_src(n)),
            cell_word(a) + ("src[{}]".format(n),),
            ("src[{}]".format(m),) + tight_word(f))
        add(loose_sort(m), ob_sort(t.loose_dst(n)),
            cell_word(a) + ("tgt[{}]".format(n),),
            ("tgt[{}]".format(m),) + tight_word(g))
    for m, n in pairs:
        mn = t.loose_comp[(m, n)]
        lax = "lax[{},{}]".format(m, n)
        add(pair_sort(m, n), ob_sort(t.loose_src(m)),
            (lax, "src[{}]".format(mn)),
            ("p1[{},{}]".format(m, n), "src[{}]".format(m)))
        add(pair_sort(m, n), ob_sort(t.loose_dst(n)),
            (lax, "tgt[{}]".format(mn)),
            ("p2[{},{}]".format(m, n), "tgt[{}]".format(n)))
    for x in t.objects:
        lid = t.loose_id[x]
        u = "unit[{}]".format(x)
        add(ob_sort(x), ob_sort(x), (u, "src[{}]".format(lid)), ())
        add(ob_sort(x), ob_sort(x), (u, "tgt[{}]".format(lid)), ())
    # (3) functoriality of the cell assignment
    for (a, b), ab in t.cell_vcomp.items():
        add(loose_sort(t.cell_top(a)), loose_sort(t.cell_bottom(b)),
            cell_word(a) + cell_word(b), cell_word(ab))
    for a, b in hpairs:
        ma, mb = t.cell_top(a), t.cell_top(b)
        na, nb = t.cell_bottom(a), t.cell_bottom(b)
        g2 = "cell2[{},{}]".format(a, b)
        add(pair_sort(ma, mb), loose_sort(na),
            (g2, "p1[{},{}]".format(na, nb)),
            ("p1[{},{}]".format(ma, mb),) + cell_word(a))
        add(pair_sort(ma, mb), loose_sort(nb),
            (g2, "p2[{},{}]".format(na, nb)),
            ("p2[{},{}]".format(ma, mb),) + cell_word(b))
        add(pair_sort(ma, mb), loose_sort(t.loose_comp[(na, nb)]),
            (g2, "lax[{},{}]".format(na, nb)),
            ("lax[{},{}]".format(ma, mb),) + cell_word(t.cell_hcomp[(a, b)]))
    # (4) associativity comparisons
    for m, n, p in triples:
        tr = triple_sort(m, n, p)
        mn, np = t.loose_comp[(m, n)], t.loose_comp[(n, p)]
        p12 = "p12[{},{},{}]".format(m, n, p)
        p23 = "p23[{},{},{}]".format(m, n, p)
        la = "lassoc[{},{},{}]".format(m, n, p)
        ra = "rassoc[{},{},{}]".format(m, n, p)
        add(tr, loose_sort(n),
            (p12, "p2[{},{}]".format(m, n)), (p23, "p1[{},{}]".format(n, p)))
        add(tr, loose_sort(mn),
            (la, "p1[{},{}]".format(mn, p)), (p12, "lax[{},{}]".format(m, n)))
        add(tr, loose_sort(p),
            (la, "p2[{},{}]".format(mn, p)), (p23, "p2[{},{}]".format(n, p)))
        add(tr, loose_sort(m),
            (ra, "p1[{},{}]".format(m, np)), (p12, "p1[{},{}]".format(m, n)))
        add(tr, loose_sort(np),
            (ra, "p2[{},{}]".format(m, np)), (p23, "lax[{},{}]".format(n, p)))
        if (mn, p) in t.loose_comp and (m, np) in t.loose_comp:
            add(tr, loose_sort(t.loose_comp[(mn, p)]),
                (la, "lax[{},{}]".format(mn, p)),
                (ra, "lax[{},{}]".format(m, np)))
    # (5) unit comparisons
    for m, (x, y) in t.loose.items():
        lm, rm = t.loose_id[x], t.loose_id[y]
        if (lm, m) in t.loose_comp:
            lu = "lu[{}]".format(m)
            add(loose_sort(m), loose_sort(lm),
                (lu, "p1[{},{}]".format(lm, m)),
                ("src[{}]".format(m), "unit[{}]".format(x)))
            add(loose_sort(m), loose_sort(m),
                (lu, "p2[{},{}]".format(lm, m)), ())
            add(loose_sort(m), loose_sort(t.loose_comp[(lm, m)]),
                (lu, "lax[{},{}]".format(lm, m)), ())
        if (m, rm) in t.loose_comp:
            ru = "ru[{}]".format(m)
            add(loose_sort(m), loose_sort(m),
                (ru, "p1[{},{}]".format(m, rm)), ())
            add(loose_sort(m), loose_sort(rm),
                (ru, "p2[{},{}]".format(m, rm)),
                ("tgt[{}]".format(m), "unit[{}]".format(y)))
            add(loose_sort(m), loose_sort(t.loose_comp[(m, rm)]),
                (ru, "lax[{},{}]".format(m, rm)), ())
    # (6) commuting candidate squares
    for m, n in pairs:
        add(pair_sort(m, n), ob_sort(t.loose_dst(m)),
            ("p1[{},{}]".format(m, n), "tgt[{}]".format(m)),
            ("p2[{},{}]".format(m, n), "src[{}]".format(n)))

    marked = []
    for m, n in pairs:
        marked.append((pair_sort(m, n),
                       "p1[{},{}]".format(m, n), "p2[{},{}]".format(m, n),
                       "tgt[{}]".format(m), "src[{}]".format(n)))
    for m, n, p in triples:
        marked.append((triple_sort(m, n, p),
                       "p12[{},{},{}]".format(m, n, p),
                       "p23[{},{},{}]".format(m, n, p),
                       "p2[{},{}]".format(m, n), "p1[{},{}]".format(n, p)))

    seen, unique = set(), []
    for r in relations:
        if r not in seen:
            seen.add(r)
            unique.append(r)
    sk = LimitSketch(PresentedCategory(objects, gens, unique), marked)
    sk.theory = t
    return sk


def flatten_cartesian_theory(t):
    """Flatten plus marked product cones on object and loose sorts.

    A cone leg is a word (identity tights and cells flatten to empty
    words) together with its target sort.
    """
    sk = flatten_theory(t)
    c = t.cartesian
    tight_ids = set(t.tight_id.values())
    cell_ids = set(t.cell_id_loose.values())

    def tight_leg(f):
        word = () if f in tight_ids else ("ar[{}]".format(f),)
        return (word, ob_sort(t.tight_dst(f)))

    def cell_leg(a):
        word = () if a in cell_ids else ("cell[{}]".format(a),)
        return (word, loose_sort(t.cell_bottom(a)))

    products = [(ob_sort(c.terminal_object), ())]
    for (d1, d2), p in c.product_object.items():
        p1, p2 = c.proj_tight[(d1, d2)]
        products.append((ob_sort(p), (tight_leg(p1), tight_leg(p2))))
    for (m1, m2), m12 in c.product_loose.items():
        c1, c2 = c.proj_cells[(m1, m2)]
        products.append((loose_sort(m12), (cell_leg(c1), cell_leg(c2))))
    sk.marked_products = products
    return sk


def validate_sketch_model(s):
    """Relation-local validation plus marked-cone checks."""
    sk = s.sketch
    report = []
    for g, (src, dst, _) in sk.presented.generators.items():
        table = s.on_generators.get(g)
        if table is None or set(table.keys()) != set(s.on_objects[src].labels) \
                or any(v not in s.on_objects[dst] for v in table.values()):
            report.append("generator {} not a total function".format(g))
    if report:
        return report
    for src, dst, w1, w2 in sk.presented.relations:
        if s.eval_word(src, w1) != s.eval_word(src, w2):
            report.append("relation {} = {} fails at {}".format(w1, w2, src))
    for apex, l1, l2, f, g in sk.marked_pullbacks:
        fs = s.on_generators[f]
        gs = s.on_generators[g]
        cmp_t = {e: (s.on_generators[l1][e], s.on_generators[l2][e])
                 for e in s.on_objects[apex]}
        over = fibers(gs, gs)
        target = [(a, b) for a in fs for b in over.get(fs[a], ())]
        values = list(cmp_t.values())
        if len(set(values)) != len(values) or set(values) != set(target):
            report.append("marked square at {} is not a pullback".format(apex))
    for apex, legs in s.sketch.marked_products:
        if not legs:
            if len(s.on_objects[apex]) != 1:
                report.append("marked point at {} is not a singleton".format(apex))
            continue
        tables = [s.eval_word(apex, word) for word, _ in legs]
        cmp_t = {e: tuple(tb[e] for tb in tables)
                 for e in s.on_objects[apex]}
        sizes = 1
        for _, dst in legs:
            sizes *= len(s.on_objects[dst])
        values = list(cmp_t.values())
        if len(set(values)) != len(values) or len(values) != sizes:
            report.append("marked cone at {} is not a product".format(apex))
    return report


def model_to_sketch_model(x, sk):
    """Tabulate a model of the flattened theory as a sketch model."""
    t = sk.theory
    tight_ids = set(t.tight_id.values())
    cell_ids = set(t.cell_id_loose.values())

    on_objects = {ob_sort(d): x.on_objects[d] for d in t.objects}
    for m in t.loose:
        on_objects[loose_sort(m)] = x.on_loose[m].apex
    pair_elems = {}
    for (m, n) in t.loose_comp:
        dom = x.laxator_domain(m, n)
        on_objects[pair_sort(m, n)] = FiniteSet(
            [pair_label(a, b) for a, b in dom])
        pair_elems[(m, n)] = dom
    triple_elems = {}
    for m, n, p in _triples(t):
        # each pair is joined with the fiber of p's left leg over the
        # right end of its second component
        over = fibers(x.on_loose[p].left, x.on_loose[p].apex)
        right_n = x.on_loose[n].right
        dom = [(a, b, c) for (a, b) in pair_elems[(m, n)]
               for c in over.get(right_n[b], ())]
        on_objects[triple_sort(m, n, p)] = FiniteSet(
            [pair_label(pair_label(a, b), c) for a, b, c in dom])
        triple_elems[(m, n, p)] = dom

    on_gens = {}
    for f in t.tight:
        if f not in tight_ids:
            on_gens["ar[{}]".format(f)] = dict(x.on_tight[f])
    for m in t.loose:
        sp = x.on_loose[m]
        on_gens["src[{}]".format(m)] = dict(sp.left)
        on_gens["tgt[{}]".format(m)] = dict(sp.right)
    for a in t.cells:
        if a not in cell_ids:
            on_gens["cell[{}]".format(a)] = dict(x.on_cells[a])
    for (m, n) in t.loose_comp:
        p1, p2, lax = {}, {}, {}
        for a, b in pair_elems[(m, n)]:
            lab = pair_label(a, b)
            p1[lab], p2[lab] = a, b
            lax[lab] = x.laxators[(m, n)][(a, b)]
        on_gens["p1[{},{}]".format(m, n)] = p1
        on_gens["p2[{},{}]".format(m, n)] = p2
        on_gens["lax[{},{}]".format(m, n)] = lax
    for g in sk.presented.generators:
        if not g.startswith("cell2["):
            continue
        a, b = g[6:-1].split(",", 1)
        ma, mb = t.cell_top(a), t.cell_top(b)
        na, nb = t.cell_bottom(a), t.cell_bottom(b)
        on_gens[g] = {
            pair_label(u, v): pair_label(x.on_cells[a][u], x.on_cells[b][v])
            for u, v in pair_elems[(ma, mb)]}
    for d in t.objects:
        on_gens["unit[{}]".format(d)] = dict(x.unitors[d])
    for m, (dx, dy) in t.loose.items():
        lm, rm = t.loose_id[dx], t.loose_id[dy]
        if (lm, m) in t.loose_comp:
            on_gens["lu[{}]".format(m)] = {
                a: pair_label(x.unitors[dx][x.on_loose[m].left[a]], a)
                for a in x.on_loose[m].apex}
        if (m, rm) in t.loose_comp:
            on_gens["ru[{}]".format(m)] = {
                a: pair_label(a, x.unitors[dy][x.on_loose[m].right[a]])
                for a in x.on_loose[m].apex}
    for m, n, p in _triples(t):
        mn, np = t.loose_comp[(m, n)], t.loose_comp[(n, p)]
        p12, p23, la, ra = {}, {}, {}, {}
        for a, b, c in triple_elems[(m, n, p)]:
            lab = pair_label(pair_label(a, b), c)
            p12[lab] = pair_label(a, b)
            p23[lab] = pair_label(b, c)
            la[lab] = pair_label(x.laxators[(m, n)][(a, b)], c)
            ra[lab] = pair_label(a, x.laxators[(n, p)][(b, c)])
        on_gens["p12[{},{},{}]".format(m, n, p)] = p12
        on_gens["p23[{},{},{}]".format(m, n, p)] = p23
        on_gens["lassoc[{},{},{}]".format(m, n, p)] = la
        on_gens["rassoc[{},{},{}]".format(m, n, p)] = ra
    return SketchModel(sk, on_objects, on_gens)


def sketch_model_to_model(s):
    """Read a model of the underlying theory off a sketch model.

    Raises MarkedSquareNotPullback when a pair sort fails its marking;
    the laxators are transported through the pullback bijections.
    """
    sk = s.sketch
    t = sk.theory
    tight_ids = set(t.tight_id.values())
    cell_ids = set(t.cell_id_loose.values())

    on_objects = {d: s.on_objects[ob_sort(d)] for d in t.objects}
    on_tight = {}
    for f, (dx, _) in t.tight.items():
        if f in tight_ids:
            on_tight[f] = {e: e for e in on_objects[dx]}
        else:
            on_tight[f] = dict(s.on_generators["ar[{}]".format(f)])
    on_loose = {}
    for m, (dx, dy) in t.loose.items():
        on_loose[m] = Span(on_objects[dx], on_objects[dy],
                           s.on_objects[loose_sort(m)],
                           dict(s.on_generators["src[{}]".format(m)]),
                           dict(s.on_generators["tgt[{}]".format(m)]))
    on_cells = {}
    for a, (f, g, m, n) in t.cells.items():
        if a in cell_ids:
            on_cells[a] = {e: e for e in on_loose[m].apex}
        else:
            on_cells[a] = dict(s.on_generators["cell[{}]".format(a)])
    laxators = {}
    for (m, n), mn in t.loose_comp.items():
        p1 = s.on_generators["p1[{},{}]".format(m, n)]
        p2 = s.on_generators["p2[{},{}]".format(m, n)]
        lax = s.on_generators["lax[{},{}]".format(m, n)]
        witness = {}
        for e in s.on_objects[pair_sort(m, n)]:
            witness[(p1[e], p2[e])] = e
        dom = pullback_pairs(on_loose[m], on_loose[n])
        if set(witness.keys()) != set(dom) or \
                len(witness) != len(s.on_objects[pair_sort(m, n)]):
            raise MarkedSquareNotPullback(
                "pair sort of ({},{}) is not the materialized pullback"
                .format(m, n))
        laxators[(m, n)] = {pair: lax[witness[pair]] for pair in dom}
    unitors = {d: dict(s.on_generators["unit[{}]".format(d)])
               for d in t.objects}
    return SpanModel(t, on_objects, on_tight, on_loose, on_cells,
                     laxators, unitors)


def enumerate_sketch_model_morphisms(s1, s2):
    """All natural families between sketch models, in search order.

    One search variable ``(o, e)`` per element e of s1 at the sort o,
    ranging over s2 at o in label order: the object and loose sorts
    first, in presented order, then the pair and triple sorts.  Every
    generator gives a naturality constraint per element, and the legs
    of its marked pullback pin each element of a pair or triple sort.
    """
    sk = s1.sketch
    gens = sk.presented.generators
    free = [o for o in sk.presented.objects
            if o.startswith("O[") or o.startswith("L[")]
    derived = [o for o in sk.presented.objects if o not in set(free)]
    marking = {apex: (l1, l2)
               for apex, l1, l2, _, _ in reversed(sk.marked_pullbacks)}
    if any(o not in marking for o in derived):
        return []
    domains = [((o, e), s2.on_objects[o])
               for o in free + derived for e in s1.on_objects[o]]
    # (u, v) are the images of e and of its image under g
    constraints = [(((src, e), (dst, s1.on_generators[g][e])),
                    lambda u, v, tb=s2.on_generators[g]: tb[u] == v)
                   for g, (src, dst, _) in gens.items()
                   for e in s1.on_objects[src]]
    for o in derived:
        l1, l2 = marking[o]
        pins = {(s2.on_generators[l1][v], s2.on_generators[l2][v]): v
                for v in s2.on_objects[o]}
        constraints += [
            (((gens[l1][1], s1.on_generators[l1][e]),
              (gens[l2][1], s1.on_generators[l2][e]), (o, e)),
             lambda p, q, v, pins=pins: pins.get((p, q)) == v)
            for e in s1.on_objects[o]]
    return [{o: {e: sol[(o, e)] for e in s1.on_objects[o]}
             for o in free + derived}
            for sol in solutions(domains, constraints)]
