"""Flattening a double theory into a finite-limit sketch.

The sketch has one object sort per theory object, per loose arrow, per
composable loose pair, and per composable loose triple.  Generators
carry the tight arrows, the span legs, the pair/triple projections, the
cells, the laxator and unitor comparison arrows, and the unit and
associativity comparisons; marked squares single out the pair and
triple sorts as pullbacks.  Set-valued sketch models are exactly
models of the theory, checked relation-locally without closing hom-sets.

Every sort and generator is named ``kind[part,...]`` by ``_name``, and
every reader fetches a table through it; no name is parsed back apart.
Validation composes each word's table from its generators' tables, one
word at a time, and keeps nothing between words.
"""

import itertools

from .collage import PresentedCategory
from .errors import MarkedSquareNotPullback, NameClash, NotCartesian
from .finset import (FiniteSet, Span, fibers, is_bijection_onto, is_function,
                     pair_label, pullback_pairs)
from .model import SpanModel
from .search import Layout, compile


def _name(kind, *parts):
    # concatenation, not str.format: every sketch round trip flattens
    # its theory, and so builds every name through here
    return kind + "[" + ",".join(parts) + "]"


def ob_sort(x):
    return _name("O", x)


def loose_sort(m):
    return _name("L", m)


def pair_sort(m, n):
    return _name("P", m, n)


def triple_sort(m, n, p):
    return _name("T", m, n, p)


class LimitSketch:
    def __init__(self, presented, marked_pullbacks, marked_products=()):
        self.presented = presented
        # (apex, leg1, leg2, cospan1, cospan2), all generator names
        self.marked_pullbacks = list(marked_pullbacks)
        # (apex, tuple of leg generator names); empty legs mark a point
        self.marked_products = list(marked_products)


class SketchModel:
    """Sets per sketch object and tables per generator; identity tights
    and identity cells are represented by omission (empty words).
    ``validate_sketch_model`` evaluates words over these tables."""

    def __init__(self, sketch, on_objects, on_generators):
        self.sketch = sketch
        self.on_objects = dict(on_objects)
        self.on_generators = {g: dict(t) for g, t in on_generators.items()}


def _words(t):
    """The sketch words of the tight arrows and of the cells: one
    generator each, and the empty word for an identity."""
    tight_ids = set(t.tight_id.values())
    cell_ids = set(t.cell_id_loose.values())
    tight = {f: () if f in tight_ids else (_name("ar", f),) for f in t.tight}
    cells = {a: () if a in cell_ids else (_name("cell", a),) for a in t.cells}
    return tight, cells


def _triples(t):
    out = []
    for (m, n), mn in t.loose_comp.items():
        for p in t.loose:
            if (n, p) in t.loose_comp and (mn, p) in t.loose_comp:
                out.append((m, n, p))
    return out


def _hpairs(t):
    """The horizontally composable cells whose tops and bottoms both
    compose: one ``cell2`` generator each."""
    return [(a, b) for a, b in t.cell_hcomp
            if (t.cell_top(a), t.cell_top(b)) in t.loose_comp
            and (t.cell_bottom(a), t.cell_bottom(b)) in t.loose_comp]


def flatten_theory(t):
    """The finite-limit sketch of a double theory.

    Raises NameClash when two generators get one name, which a comma in
    a loose arrow's or a cell's name can cause.
    """
    tight_word, cell_word = _words(t)
    pairs = sorted(t.loose_comp)
    triples = sorted(_triples(t))
    hpairs = _hpairs(t)

    objects = [ob_sort(x) for x in t.objects]
    objects += [loose_sort(m) for m in t.loose]
    objects += [pair_sort(m, n) for m, n in pairs]
    objects += [triple_sort(*tr) for tr in triples]

    gens = {}

    def gen(name, src, dst):
        if name in gens:
            raise NameClash("two sketch generators are named {}".format(name))
        gens[name] = (src, dst, "plain")

    for f, (x, y) in t.tight.items():
        if tight_word[f]:
            gen(tight_word[f][0], ob_sort(x), ob_sort(y))
    for m, (x, y) in t.loose.items():
        gen(_name("src", m), loose_sort(m), ob_sort(x))
        gen(_name("tgt", m), loose_sort(m), ob_sort(y))
    for m, n in pairs:
        gen(_name("p1", m, n), pair_sort(m, n), loose_sort(m))
        gen(_name("p2", m, n), pair_sort(m, n), loose_sort(n))
        gen(_name("lax", m, n), pair_sort(m, n),
            loose_sort(t.loose_comp[(m, n)]))
    for a, (f, g, m, n) in t.cells.items():
        if cell_word[a]:
            gen(cell_word[a][0], loose_sort(m), loose_sort(n))
    for a, b in hpairs:
        gen(_name("cell2", a, b), pair_sort(t.cell_top(a), t.cell_top(b)),
            pair_sort(t.cell_bottom(a), t.cell_bottom(b)))
    for x in t.objects:
        gen(_name("unit", x), ob_sort(x), loose_sort(t.loose_id[x]))
    for m, (x, y) in t.loose.items():
        lm, rm = t.loose_id[x], t.loose_id[y]
        if (lm, m) in t.loose_comp:
            gen(_name("lu", m), loose_sort(m), pair_sort(lm, m))
        if (m, rm) in t.loose_comp:
            gen(_name("ru", m), loose_sort(m), pair_sort(m, rm))
    for m, n, p in triples:
        tr = triple_sort(m, n, p)
        mn, np = t.loose_comp[(m, n)], t.loose_comp[(n, p)]
        gen(_name("p12", m, n, p), tr, pair_sort(m, n))
        gen(_name("p23", m, n, p), tr, pair_sort(n, p))
        gen(_name("lassoc", m, n, p), tr, pair_sort(mn, p))
        gen(_name("rassoc", m, n, p), tr, pair_sort(m, np))

    relations = []

    def add(src, dst, w1, w2):
        if tuple(w1) != tuple(w2):
            relations.append((src, dst, tuple(w1), tuple(w2)))

    # (1) tight functoriality
    for (f, g), fg in t.tight_comp.items():
        add(ob_sort(t.tight_src(f)), ob_sort(t.tight_dst(g)),
            tight_word[f] + tight_word[g], tight_word[fg])
    # (2) span maps from cells, laxators, unitors
    for a, (f, g, m, n) in t.cells.items():
        add(loose_sort(m), ob_sort(t.loose_src(n)),
            cell_word[a] + (_name("src", n),),
            (_name("src", m),) + tight_word[f])
        add(loose_sort(m), ob_sort(t.loose_dst(n)),
            cell_word[a] + (_name("tgt", n),),
            (_name("tgt", m),) + tight_word[g])
    for m, n in pairs:
        mn = t.loose_comp[(m, n)]
        lax = _name("lax", m, n)
        add(pair_sort(m, n), ob_sort(t.loose_src(m)),
            (lax, _name("src", mn)), (_name("p1", m, n), _name("src", m)))
        add(pair_sort(m, n), ob_sort(t.loose_dst(n)),
            (lax, _name("tgt", mn)), (_name("p2", m, n), _name("tgt", n)))
    for x in t.objects:
        lid = t.loose_id[x]
        u = _name("unit", x)
        add(ob_sort(x), ob_sort(x), (u, _name("src", lid)), ())
        add(ob_sort(x), ob_sort(x), (u, _name("tgt", lid)), ())
    # (3) functoriality of the cell assignment
    for (a, b), ab in t.cell_vcomp.items():
        add(loose_sort(t.cell_top(a)), loose_sort(t.cell_bottom(b)),
            cell_word[a] + cell_word[b], cell_word[ab])
    for a, b in hpairs:
        ma, mb = t.cell_top(a), t.cell_top(b)
        na, nb = t.cell_bottom(a), t.cell_bottom(b)
        g2 = _name("cell2", a, b)
        add(pair_sort(ma, mb), loose_sort(na),
            (g2, _name("p1", na, nb)), (_name("p1", ma, mb),) + cell_word[a])
        add(pair_sort(ma, mb), loose_sort(nb),
            (g2, _name("p2", na, nb)), (_name("p2", ma, mb),) + cell_word[b])
        add(pair_sort(ma, mb), loose_sort(t.loose_comp[(na, nb)]),
            (g2, _name("lax", na, nb)),
            (_name("lax", ma, mb),) + cell_word[t.cell_hcomp[(a, b)]])
    # (4) associativity comparisons
    for m, n, p in triples:
        tr = triple_sort(m, n, p)
        mn, np = t.loose_comp[(m, n)], t.loose_comp[(n, p)]
        p12, p23 = _name("p12", m, n, p), _name("p23", m, n, p)
        la, ra = _name("lassoc", m, n, p), _name("rassoc", m, n, p)
        add(tr, loose_sort(n),
            (p12, _name("p2", m, n)), (p23, _name("p1", n, p)))
        add(tr, loose_sort(mn),
            (la, _name("p1", mn, p)), (p12, _name("lax", m, n)))
        add(tr, loose_sort(p),
            (la, _name("p2", mn, p)), (p23, _name("p2", n, p)))
        add(tr, loose_sort(m),
            (ra, _name("p1", m, np)), (p12, _name("p1", m, n)))
        add(tr, loose_sort(np),
            (ra, _name("p2", m, np)), (p23, _name("lax", n, p)))
        if (mn, p) in t.loose_comp and (m, np) in t.loose_comp:
            add(tr, loose_sort(t.loose_comp[(mn, p)]),
                (la, _name("lax", mn, p)), (ra, _name("lax", m, np)))
    # (5) unit comparisons
    for m, (x, y) in t.loose.items():
        lm, rm = t.loose_id[x], t.loose_id[y]
        if (lm, m) in t.loose_comp:
            lu = _name("lu", m)
            add(loose_sort(m), loose_sort(lm),
                (lu, _name("p1", lm, m)), (_name("src", m), _name("unit", x)))
            add(loose_sort(m), loose_sort(m), (lu, _name("p2", lm, m)), ())
            add(loose_sort(m), loose_sort(t.loose_comp[(lm, m)]),
                (lu, _name("lax", lm, m)), ())
        if (m, rm) in t.loose_comp:
            ru = _name("ru", m)
            add(loose_sort(m), loose_sort(m), (ru, _name("p1", m, rm)), ())
            add(loose_sort(m), loose_sort(rm),
                (ru, _name("p2", m, rm)), (_name("tgt", m), _name("unit", y)))
            add(loose_sort(m), loose_sort(t.loose_comp[(m, rm)]),
                (ru, _name("lax", m, rm)), ())
    # (6) commuting candidate squares
    for m, n in pairs:
        add(pair_sort(m, n), ob_sort(t.loose_dst(m)),
            (_name("p1", m, n), _name("tgt", m)),
            (_name("p2", m, n), _name("src", n)))

    marked = [(pair_sort(m, n), _name("p1", m, n), _name("p2", m, n),
               _name("tgt", m), _name("src", n)) for m, n in pairs]
    marked += [(triple_sort(m, n, p), _name("p12", m, n, p),
                _name("p23", m, n, p), _name("p2", m, n), _name("p1", n, p))
               for m, n, p in triples]

    sk = LimitSketch(PresentedCategory(objects, gens,
                                       list(dict.fromkeys(relations))),
                     marked)
    sk.theory = t
    return sk


def flatten_cartesian_theory(t):
    """Flatten plus marked product cones on object and loose sorts.

    A cone leg is a word (identity tights and cells flatten to empty
    words) together with its target sort.  A theory without cartesian
    structure is refused with ``NotCartesian``.
    """
    if t.cartesian is None:
        raise NotCartesian("theory on objects {} carries no cartesian "
                           "structure".format(", ".join(t.objects)))
    sk = flatten_theory(t)
    c = t.cartesian
    tight_word, cell_word = _words(t)
    products = [(ob_sort(c.terminal_object), ())]
    for (d1, d2), p in c.product_object.items():
        products.append((ob_sort(p), tuple(
            (tight_word[f], ob_sort(t.tight_dst(f)))
            for f in c.proj_tight[(d1, d2)])))
    for (m1, m2), m12 in c.product_loose.items():
        products.append((loose_sort(m12), tuple(
            (cell_word[a], loose_sort(t.cell_bottom(a)))
            for a in c.proj_cells[(m1, m2)])))
    sk.marked_products = products
    return sk


def _word_table(s, src, word):
    """The table of ``word`` on the sort ``src`` of a sketch model.

    The empty word is the identity, a one-letter word is the
    generator's own table, not a copy, and a longer word is composed
    from its generators' tables one step at a time.  No table is
    written, and nothing is kept between calls.
    """
    if not word:
        return {v: v for v in s.on_objects[src]}
    gens = s.on_generators
    table = gens[word[0]]
    for g in word[1:]:
        step = gens[g]
        table = {v: step[w] for v, w in table.items()}
    return table


def validate_sketch_model(s):
    """Relation-local validation plus marked-cone checks."""
    sk = s.sketch
    report = []
    for g, (src, dst, _) in sk.presented.generators.items():
        table = s.on_generators.get(g)
        if table is None or not is_function(table, s.on_objects[src],
                                            s.on_objects[dst]):
            report.append("generator {} not a total function".format(g))
    if report:
        return report
    for src, dst, w1, w2 in sk.presented.relations:
        if _word_table(s, src, w1) != _word_table(s, src, w2):
            report.append("relation {} = {} fails at {}".format(w1, w2, src))
    gens = s.on_generators
    for apex, l1, l2, f, g in sk.marked_pullbacks:
        fs, gs, t1, t2 = gens[f], gens[g], gens[l1], gens[l2]
        over = fibers(gs, gs)
        if not is_bijection_onto(
                {e: (t1[e], t2[e]) for e in s.on_objects[apex]},
                [(a, b) for a in fs for b in over.get(fs[a], ())]):
            report.append("marked square at {} is not a pullback".format(apex))
    for apex, legs in s.sketch.marked_products:
        if not legs:
            if len(s.on_objects[apex]) != 1:
                report.append("marked point at {} is not a singleton".format(apex))
            continue
        tables = [_word_table(s, apex, word) for word, _ in legs]
        if not is_bijection_onto(
                {e: tuple(tb[e] for tb in tables) for e in s.on_objects[apex]},
                list(itertools.product(*[s.on_objects[dst]
                                         for _, dst in legs]))):
            report.append("marked cone at {} is not a product".format(apex))
    return report


def model_to_sketch_model(x, sk):
    """Tabulate a model of the flattened theory as a sketch model.

    Each element of a pair or triple sort is labelled once, in a dict
    from its components to its label; the generators into those sorts
    look labels up there.  Only a model that ``validate_model`` rejects
    can send an element outside its target pair sort: that value is
    labelled as usual, and ``validate_sketch_model`` reports it.
    """
    t = sk.theory
    tight_word, cell_word = _words(t)

    def label(labels, a, b):
        return labels.get((a, b)) or pair_label(a, b)

    on_objects = {ob_sort(d): x.on_objects[d] for d in t.objects}
    for m in t.loose:
        on_objects[loose_sort(m)] = x.on_loose[m].apex
    # (m, n) -> {(a, b): label}, in laxator-domain order
    pair_labels = {}
    for (m, n) in t.loose_comp:
        labels = {(a, b): pair_label(a, b) for a, b in x.laxator_domain(m, n)}
        on_objects[pair_sort(m, n)] = FiniteSet(labels.values())
        pair_labels[(m, n)] = labels
    # (m, n, p) -> {((a, b), c): label}
    triple_labels = {}
    for m, n, p in _triples(t):
        # each pair is joined with the fiber of p's left leg over the
        # right end of its second component
        over = fibers(x.on_loose[p].left, x.on_loose[p].apex)
        right_n = x.on_loose[n].right
        labels = {(ab, c): pair_label(lab, c)
                  for ab, lab in pair_labels[(m, n)].items()
                  for c in over.get(right_n[ab[1]], ())}
        on_objects[triple_sort(m, n, p)] = FiniteSet(labels.values())
        triple_labels[(m, n, p)] = labels

    on_gens = {}
    for f, word in tight_word.items():
        if word:
            on_gens[word[0]] = dict(x.on_tight[f])
    for m in t.loose:
        sp = x.on_loose[m]
        on_gens[_name("src", m)] = dict(sp.left)
        on_gens[_name("tgt", m)] = dict(sp.right)
    for a, word in cell_word.items():
        if word:
            on_gens[word[0]] = dict(x.on_cells[a])
    for (m, n), labels in pair_labels.items():
        lax = x.laxators[(m, n)]
        on_gens[_name("p1", m, n)] = {lab: a for (a, _), lab in labels.items()}
        on_gens[_name("p2", m, n)] = {lab: b for (_, b), lab in labels.items()}
        on_gens[_name("lax", m, n)] = {lab: lax[ab]
                                       for ab, lab in labels.items()}
    for a, b in _hpairs(t):
        ca, cb = x.on_cells[a], x.on_cells[b]
        bottom = pair_labels[(t.cell_bottom(a), t.cell_bottom(b))]
        on_gens[_name("cell2", a, b)] = {
            lab: label(bottom, ca[u], cb[v])
            for (u, v), lab in pair_labels[(t.cell_top(a), t.cell_top(b))]
            .items()}
    for d in t.objects:
        on_gens[_name("unit", d)] = dict(x.unitors[d])
    for m, (dx, dy) in t.loose.items():
        lm, rm = t.loose_id[dx], t.loose_id[dy]
        sp = x.on_loose[m]
        if (lm, m) in t.loose_comp:
            labels, unit = pair_labels[(lm, m)], x.unitors[dx]
            on_gens[_name("lu", m)] = {
                a: label(labels, unit[sp.left[a]], a) for a in sp.apex}
        if (m, rm) in t.loose_comp:
            labels, unit = pair_labels[(m, rm)], x.unitors[dy]
            on_gens[_name("ru", m)] = {
                a: label(labels, a, unit[sp.right[a]]) for a in sp.apex}
    for (m, n, p), labels in triple_labels.items():
        mn, np = t.loose_comp[(m, n)], t.loose_comp[(n, p)]
        lax_mn, lax_np = x.laxators[(m, n)], x.laxators[(n, p)]
        to_mn, to_np = pair_labels[(m, n)], pair_labels[(n, p)]
        to_la = pair_labels[(mn, p)]
        to_ra = pair_labels.get((m, np), {})
        p12, p23, la, ra = {}, {}, {}, {}
        for ((a, b), c), lab in labels.items():
            p12[lab] = to_mn[(a, b)]
            p23[lab] = to_np[(b, c)]
            la[lab] = label(to_la, lax_mn[(a, b)], c)
            ra[lab] = label(to_ra, a, lax_np[(b, c)])
        on_gens[_name("p12", m, n, p)] = p12
        on_gens[_name("p23", m, n, p)] = p23
        on_gens[_name("lassoc", m, n, p)] = la
        on_gens[_name("rassoc", m, n, p)] = ra
    return SketchModel(sk, on_objects, on_gens)


def sketch_model_to_model(s):
    """Read a model of the underlying theory off a sketch model.

    Raises MarkedSquareNotPullback when a pair sort fails its marking;
    the laxators are transported through the pullback bijections.
    """
    t = s.sketch.theory
    tight_word, cell_word = _words(t)
    on_gens = s.on_generators

    on_objects = {d: s.on_objects[ob_sort(d)] for d in t.objects}
    on_tight = {f: dict(_word_table(s, ob_sort(dx), tight_word[f]))
                for f, (dx, _) in t.tight.items()}
    on_loose = {}
    for m, (dx, dy) in t.loose.items():
        on_loose[m] = Span(on_objects[dx], on_objects[dy],
                           s.on_objects[loose_sort(m)],
                           on_gens[_name("src", m)], on_gens[_name("tgt", m)])
    on_cells = {a: dict(_word_table(s, loose_sort(m), cell_word[a]))
                for a, (_, _, m, _) in t.cells.items()}
    laxators = {}
    for (m, n), mn in t.loose_comp.items():
        p1 = on_gens[_name("p1", m, n)]
        p2 = on_gens[_name("p2", m, n)]
        lax = on_gens[_name("lax", m, n)]
        pairs = {e: (p1[e], p2[e]) for e in s.on_objects[pair_sort(m, n)]}
        dom = pullback_pairs(on_loose[m], on_loose[n])
        if not is_bijection_onto(pairs, dom):
            raise MarkedSquareNotPullback(
                "pair sort of ({},{}) is not the materialized pullback"
                .format(m, n))
        witness = dict(zip(pairs.values(), pairs))
        laxators[(m, n)] = {pair: lax[witness[pair]] for pair in dom}
    unitors = {d: on_gens[_name("unit", d)] for d in t.objects}
    return SpanModel(t, on_objects, on_tight, on_loose, on_cells,
                     laxators, unitors)


def enumerate_sketch_model_morphisms(s1, s2):
    """All natural families between sketch models, in search order.

    One search variable ``(o, e)`` per element e of s1 at the sort o,
    ranging over s2 at o in label order: the sorts that are no marked
    pullback's apex first (the object and loose sorts of a flattened
    theory), in presented order, then the apexes (its pair and triple
    sorts).  Every generator gives a naturality constraint per element,
    and the legs of its marked pullback pin each element of an apex.
    """
    sk = s1.sketch
    gens = sk.presented.generators
    marking = {apex: (l1, l2)
               for apex, l1, l2, _, _ in reversed(sk.marked_pullbacks)}
    free = [o for o in sk.presented.objects if o not in marking]
    derived = [o for o in sk.presented.objects if o in marking]
    layout = Layout([((o,), dict.fromkeys(s1.on_objects[o],
                                          s2.on_objects[o]))
                     for o in free + derived])
    # g's table in s2 sends the image of e to the image of g(e)
    constraints = [(((src, e), (dst, s1.on_generators[g][e])),
                    s2.on_generators[g])
                   for g, (src, dst, _) in gens.items()
                   for e in s1.on_objects[src]]
    for o in derived:
        l1, l2 = marking[o]
        pins = {(s2.on_generators[l1][v], s2.on_generators[l2][v]): v
                for v in s2.on_objects[o]}
        # the images of e's two legs pin the image of e
        constraints += [
            (((gens[l1][1], s1.on_generators[l1][e]),
              (gens[l2][1], s1.on_generators[l2][e]), (o, e)), pins)
            for e in s1.on_objects[o]]
    return [{o: tab for (o,), tab in layout.tables(sol).items()}
            for sol in compile(layout.domains, constraints).run()]
