"""Cartesian models and instances, and the multicategory dictionaries.

A cartesian theory designates its finite products; a cartesian model
sends them to actual products of sets up to bijective comparison maps,
and a cartesian instance has bijective pairing comparisons over them.

Over the truncated operation theory (``prom_trunc``) cartesian models
are exactly multicategories and their cartesian instances are exactly
multifunctors into finite sets; over the opposite finite-set square
theory (``sq_finset_op``) the single-object cartesian models built here
come from semilattice operation tables with actions of all functions
between index sets.

Each mechanism is written once.  ``Multicategory.families`` enumerates
the bounded families of multimorphisms into given objects: the
composable pairs, the associativity check, the read-back's composites
and the terminal fixture all walk it.  Every comparison into a
designated product is built by ``_pairing`` and tested with
``finset.is_bijection_onto``.  The dictionary joins through indexes
built once instead of nested scans, and the cartesian checks report a
projection missing from the theory, or its table missing or not total,
instead of reading it.
"""

import itertools

from .errors import InvalidTheory, TheoryMismatch
from .finset import (FiniteSet, Span, fibers, inverse_table, is_bijection_onto,
                     pair_label)
from .instance import Instance
from .model import SpanModel, find_model_isomorphism
from .theories import builtin_theory, map_blocks, p_arrow
from .theory import PRODUCT_TABLES, THEORY_TABLES


# ---------------------------------------------------------------------------
# comparison maps and validators
# ---------------------------------------------------------------------------

def _pairing(tables, projections, carrier):
    """The comparison e |-> (p1(e), p2(e)) on ``carrier``, a product's set,
    where p1 and p2 are the ``tables`` of its two ``projections``."""
    q1, q2 = projections
    t1, t2 = tables[q1], tables[q2]
    return {e: (t1[e], t2[e]) for e in carrier}


def _products(report, products, projections, what):
    """(factors, product, projections) for each designated product that
    the theory gives ``projections``; each other is reported."""
    for key, product in products.items():
        if key in projections:
            yield key, product, projections[key]
        else:
            report.append("cartesian: {} of {}x{} missing".format(what, *key))


def _report_partial(report, tables, names, source, line):
    """After a comparison failed to read them: report the named tables
    that are missing or not defined on all of ``source``."""
    for q in names:
        table = tables.get(q)
        if table is None or not all(map(table.__contains__, source)):
            report.append(line.format(q))


def validate_cartesian_model(x):
    """Check that a model over a cartesian theory preserves the
    designated products up to bijective comparisons.  A terminal object
    that is not a theory object, a projection missing, or its table
    missing or not total, is reported, and the check that reads it
    skipped."""
    t = x.theory
    c = t.cartesian
    report = []
    if c is None:
        return ["theory carries no cartesian structure"]
    if c.terminal_object not in t.objects:
        report.append("cartesian: unknown terminal object")
    else:
        if len(x.on_objects[c.terminal_object]) != 1:
            report.append("carrier of the terminal object is not a singleton")
        if len(x.on_loose[t.loose_id[c.terminal_object]].apex) != 1:
            report.append("loose unit at the terminal object is not a "
                          "singleton")
    for (d1, d2), p, proj in _products(report, c.product_object,
                                       c.proj_tight, "projections"):
        try:
            pairs = _pairing(x.on_tight, proj, x.on_objects[p])
        except KeyError:
            _report_partial(report, x.on_tight, proj, x.on_objects[p],
                            "tight arrow {} has no total function")
            continue
        if not is_bijection_onto(pairs, list(itertools.product(
                x.on_objects[d1], x.on_objects[d2]))):
            report.append("object comparison at {}x{} is not bijective"
                          .format(d1, d2))
    for (m1, m2), m12, proj in _products(report, c.product_loose,
                                         c.proj_cells, "projection cells"):
        apex = x.on_loose[m12].apex
        try:
            pairs = _pairing(x.on_cells, proj, apex)
        except KeyError:
            _report_partial(report, x.on_cells, proj, apex,
                            "cell {} has no total apex map")
            continue
        if not is_bijection_onto(pairs, list(itertools.product(
                x.on_loose[m1].apex, x.on_loose[m2].apex))):
            report.append("apex comparison at {}x{} is not bijective"
                          .format(m1, m2))
    return list(dict.fromkeys(report))


def validate_cartesian_instance(p):
    """Check that an instance over a cartesian model has bijective
    pairing comparisons at the designated products.  A terminal object
    that is not a theory object, a projection missing, or its tight
    cell missing or not total, is reported, and the check that reads it
    skipped."""
    x = p.model
    c = x.theory.cartesian
    report = []
    if c is None:
        return ["theory carries no cartesian structure"]
    if c.terminal_object not in x.theory.objects:
        report.append("cartesian: unknown terminal object")
    elif len(p.carriers[c.terminal_object]) != 1:
        report.append("carrier over the terminal object is not a singleton")
    for (d1, d2), prod, proj in _products(report, c.product_object,
                                          c.proj_tight, "projections"):
        try:
            pairs = _pairing(p.tight_cells, proj, p.carriers[prod])
        except KeyError:
            _report_partial(report, p.tight_cells, proj, p.carriers[prod],
                            "tight cell at {} not total")
            continue
        if not is_bijection_onto(pairs, list(itertools.product(
                p.carriers[d1], p.carriers[d2]))):
            report.append("instance comparison at {}x{} is not bijective"
                          .format(d1, d2))
    return list(dict.fromkeys(report))


def check_product_actions_determined(p):
    """Recompute the actions of product loose arrows from the factor
    actions through the projection cells and report mismatches.  An
    action missing where the recomputation looks it up is a mismatch.
    A product or projection missing, or a tight cell or a projection
    cell missing or not total, is reported, and the product loose
    arrows that read it skipped; each line once, in the order first met."""
    x = p.model
    t = x.theory
    c = t.cartesian
    if c is None:
        return ["theory carries no cartesian structure"]
    report, actions, no_actions = [], p.actions, {}
    for (m1, m2), m12, (c1, c2) in _products(
            report, c.product_loose, c.proj_cells, "projection cells"):
        f1, f2 = t.cell_left(c1), t.cell_left(c2)
        d = (t.loose_dst(m1), t.loose_dst(m2))
        if d not in c.product_object or d not in c.proj_tight:
            report.append("cartesian: product {}x{} or its projections "
                          "missing".format(*d))
            continue
        proj, prod = c.proj_tight[d], p.carriers[c.product_object[d]]
        a1, a2 = actions.get(m1, no_actions), actions.get(m2, no_actions)
        a12 = actions.get(m12, no_actions)
        domain = p.action_domain(m12)
        try:
            pairs = _pairing(p.tight_cells, proj, prod)
            inverse = dict(zip(pairs.values(), pairs))
            g1, g2 = p.tight_cells[f1], p.tight_cells[f2]
            h1, h2 = x.on_cells[c1], x.on_cells[c2]
            wrong = []
            for e, xi in domain:
                want = inverse.get((a1.get((g1[e], h1[xi])),
                                    a2.get((g2[e], h2[xi]))))
                if want is None or a12.get((e, xi)) != want:
                    wrong.append((e, xi))
        except KeyError:
            line = "tight cell at {} not total"
            _report_partial(report, p.tight_cells, proj, prod, line)
            _report_partial(report, p.tight_cells, (f1, f2),
                            p.carriers[t.loose_src(m12)], line)
            _report_partial(report, x.on_cells, (c1, c2),
                            x.on_loose[m12].apex,
                            "cell {} has no total apex map")
            continue
        report += ["action of {} at ({},{}) is not the paired factor "
                   "action".format(m12, e, xi) for e, xi in wrong]
    return list(dict.fromkeys(report))


# ---------------------------------------------------------------------------
# multicategories
# ---------------------------------------------------------------------------

class Multicategory:
    """A truncated multicategory: multimorphism arities are bounded and
    composites are tabulated only while the result stays in bound."""

    def __init__(self, objects, multimorphisms, identities, comp, truncation):
        self.objects = list(objects)
        # name -> (dom tuple of objects, cod object)
        self.multimorphisms = {n: (tuple(d), c)
                               for n, (d, c) in multimorphisms.items()}
        self.identities = dict(identities)      # object -> unary name
        # (outer, inner names tuple) -> composite name
        self.comp = dict(comp)
        self.truncation = truncation

    def arity(self, name):
        return len(self.multimorphisms[name][0])

    def by_arity(self, n):
        return sorted(m for m, (d, _) in self.multimorphisms.items()
                      if len(d) == n)

    def families(self, cods):
        """The tuples of multimorphisms, one into each object of ``cods``
        in order, whose arities sum to at most the truncation, in the
        order of the product of the table's pools into those objects."""
        into, arity = {}, {}
        for m, (dom, cod) in self.multimorphisms.items():
            into.setdefault(cod, []).append(m)
            arity[m] = len(dom)
        bound = self.truncation
        for family in itertools.product(*[into.get(o, ()) for o in cods]):
            if sum(map(arity.__getitem__, family)) <= bound:
                yield family

    def composable(self):
        """All (outer, inners) pairs whose composite stays in bound."""
        return [(outer, inners)
                for outer, (dom, _) in self.multimorphisms.items() if dom
                for inners in self.families(dom)]


def _regroup(flat, doms):
    """``flat`` cut into consecutive parts, as long as each of ``doms``."""
    pos = 0
    for d in doms:
        yield flat[pos:pos + len(d)]
        pos += len(d)


def validate_multicategory(mc):
    report = []
    for m, (dom, cod) in mc.multimorphisms.items():
        if len(dom) > mc.truncation or cod not in mc.objects \
                or any(o not in mc.objects for o in dom):
            report.append("multimorphism {} ill-typed".format(m))
    for o in mc.objects:
        i = mc.identities.get(o)
        if i is None or mc.multimorphisms.get(i) != ((o,), o):
            report.append("identity of {} ill-formed".format(o))
    if report:
        return report
    composable = mc.composable()
    for outer, inners in composable:
        got = mc.comp.get((outer, inners))
        dom = sum((mc.multimorphisms[i][0] for i in inners), ())
        cod = mc.multimorphisms[outer][1]
        if got is None:
            report.append("missing composite of {} with {}".format(outer, inners))
        elif mc.multimorphisms.get(got) != (dom, cod):
            report.append("composite of {} with {} ill-typed".format(outer, inners))
    if report:
        return report
    for m, (dom, cod) in mc.multimorphisms.items():
        if dom and mc.comp[(m, tuple(mc.identities[o] for o in dom))] != m:
            report.append("right unit fails at {}".format(m))
        if mc.comp.get((mc.identities[cod], (m,))) != m:
            report.append("left unit fails at {}".format(m))
    # associativity on composites that stay tabulated
    for outer, inners in composable:
        once = mc.comp[(outer, inners)]
        doms = [mc.multimorphisms[i][0] for i in inners]
        for flat in mc.families(sum(doms, ())):
            twice_inner = [mc.comp.get((i, part)) if part else i
                           for i, part in zip(inners, _regroup(flat, doms))]
            lhs = mc.comp.get((once, flat))
            rhs = mc.comp.get((outer, tuple(twice_inner)))
            if None not in (lhs, rhs, *twice_inner) and lhs != rhs:
                report.append("associativity fails at {} with {}"
                              .format(outer, flat))
    return report


# ---------------------------------------------------------------------------
# the multicategory <-> model dictionary over prom_trunc
# ---------------------------------------------------------------------------

def _tuple_label(tup):
    if len(tup) == 0:
        return "()"
    if len(tup) == 1:
        return tup[0]
    return pair_label(tup[0], tup[1])


def _mm_label(names):
    return "[" + "|".join(names) + "]"


def multicategory_to_model(mc, t):
    """Encode a multicategory as a model of a prom_trunc theory.

    Object carriers are object tuples, the apex of a loose arrow holds
    one tuple of multimorphisms per block of its monotone map, cells
    reindex blocks, and laxators are multicomposition.
    """
    k = max(t.size_of_object.values())
    if mc.truncation < k:
        raise TheoryMismatch(
            "a multicategory truncated at {} encoded over prom_trunc {}"
            .format(mc.truncation, k))
    obj = {i: "x{}".format(i) for i in range(k + 1)}

    tuples = {i: sorted(itertools.product(mc.objects, repeat=i))
              for i in range(k + 1)}
    on_objects = {obj[i]: FiniteSet([_tuple_label(tp) for tp in tuples[i]])
                  for i in range(k + 1)}

    on_tight = {}
    for f, (a, b, pf) in t.tight_data.items():
        on_tight[f] = {
            _tuple_label(tp): _tuple_label(tuple(tp[v - 1] for v in pf))
            for tp in tuples[a]}

    on_loose, mm_of = {}, {}
    for m, (a, b, pm) in t.loose_data.items():
        blocks = map_blocks(pm, b)
        pools = [mc.by_arity(len(bl)) for bl in blocks]
        apex, left, right, table = [], {}, {}, {}
        for names in itertools.product(*pools):
            src = sum((mc.multimorphisms[n][0] for n in names), ())
            lab = _mm_label(names)
            apex.append(lab)
            table[lab] = names
            left[lab] = _tuple_label(src)
            right[lab] = _tuple_label(tuple(mc.multimorphisms[n][1]
                                            for n in names))
        on_loose[m] = Span(on_objects[obj[a]], on_objects[obj[b]],
                           FiniteSet(apex), left, right)
        mm_of[m] = table

    on_cells = {}
    for cell, (f, g, m, n) in t.cells.items():
        _, _, pg = t.tight_data[g]
        on_cells[cell] = {
            lab: _mm_label(tuple(names[j - 1] for j in pg))
            for lab, names in mm_of[m].items()}

    # a hash join per laxator: each apex, in the order of its families,
    # is indexed once by its left leg
    over = {m: fibers(sp.left, mm_of[m]) for m, sp in on_loose.items()}
    laxators = {}
    for m, n in t.loose_comp:
        _, c, pn = t.loose_data[n]
        n_blocks = map_blocks(pn, c)
        right, nus_of, table = on_loose[m].right, mm_of[n], {}
        for lab_m, mus in mm_of[m].items():
            for lab_n in over[n].get(right[lab_m], ()):
                parts = []
                for outer, block in zip(nus_of[lab_n], n_blocks):
                    inners = tuple(mus[j - 1] for j in block)
                    parts.append(mc.comp[(outer, inners)] if inners else outer)
                table[(lab_m, lab_n)] = _mm_label(tuple(parts))
        laxators[(m, n)] = table

    unitors = {}
    for i in range(k + 1):
        unitors[obj[i]] = {
            _tuple_label(tp): _mm_label(tuple(mc.identities[o] for o in tp))
            for tp in tuples[i]}

    x = SpanModel(t, on_objects, on_tight, on_loose, on_cells,
                  laxators, unitors)
    x.multicategory = mc
    x.mm_of = mm_of
    return x


# prom_trunc(k) by k, each built once per process.  Only _as_prom_trunc
# and multicategories_isomorphic read it, and no model built over one of
# these theories leaves the function that built it, so none is mutated.
_PROM_TRUNC = {}


def _prom_trunc(k):
    t = _PROM_TRUNC.get(k)
    if t is None:
        t = _PROM_TRUNC[k] = builtin_theory("prom_trunc", k)
    return t


def _as_prom_trunc(t):
    """The built ``prom_trunc(k)``, k at most 2, whose tables and
    designated products ``t`` has, so that a theory read back from its
    document is answered as the built one; any other theory raises
    TheoryMismatch."""
    k = len(t.objects) - 1
    if 0 <= k <= 2 and t.cartesian is not None:
        built = _prom_trunc(k)
        if all(getattr(t, a) == getattr(built, a) for a in THEORY_TABLES) \
                and all(getattr(t.cartesian, a) == getattr(built.cartesian, a)
                        for a in PRODUCT_TABLES):
            return built
    raise TheoryMismatch("the model's theory is not prom_trunc(k) for any "
                         "k up to 2")


def model_to_multicategory(x):
    """Read a multicategory off a cartesian model of a prom_trunc theory.
    A theory with the tables of ``prom_trunc(k)`` is read as it, also
    when it was read back from a document.  Any other theory, and
    ``prom_trunc(0)``, which has no object x1 to hold the objects of a
    multicategory, raise TheoryMismatch."""
    t = _as_prom_trunc(x.theory)
    c = t.cartesian
    k = max(t.size_of_object.values())
    if k == 0:
        raise TheoryMismatch("the model's theory is prom_trunc(0), which has "
                             "no object x1 for a multicategory's objects")
    x1 = "x1"
    objects = list(x.on_objects[x1])
    pair_dec = _pairing(x.on_tight, c.proj_tight[(x1, x1)],
                        x.on_objects["x2"]) if k >= 2 else {}
    arrows = [p_arrow(t, n) for n in range(k + 1)]
    multimorphisms, element = {}, {}
    for n, pn in enumerate(arrows):
        sp = x.on_loose[pn]
        for xi in sp.apex:
            e = sp.left[xi]     # an element of x0, x1 or x2: decode it
            dom = () if n == 0 else (e,) if n == 1 else pair_dec[e]
            name = "{}#{}".format(n, xi)
            element[name] = (n, xi)
            multimorphisms[name] = (dom, sp.right[xi])
    identities = {o: "1#{}".format(x.unitors[x1][o]) for o in objects}
    # a nullary multimorphism composed with the empty family is itself
    mc = Multicategory(objects, multimorphisms, identities,
                       {(m, ()): m for m, (dom, _) in multimorphisms.items()
                        if not dom}, k)

    apex_inv = {}
    for outer, inners in mc.composable():
        n, xi = element[outer]
        parts = [element[i] for i in inners]
        if n == 1:
            (a, zm), = parts
            m = arrows[a]
        else:
            (a1, z1), (a2, z2) = parts
            m1, m2 = arrows[a1], arrows[a2]
            m = c.product_loose[(m1, m2)]
            if (m1, m2) not in apex_inv:
                apex_inv[(m1, m2)] = inverse_table(_pairing(
                    x.on_cells, c.proj_cells[(m1, m2)], x.on_loose[m].apex))
            zm = apex_inv[(m1, m2)][(z1, z2)]
        res = x.laxators[(m, arrows[n])][(zm, xi)]
        mc.comp[(outer, inners)] = "{}#{}".format(
            sum(a for a, _ in parts), res)
    return mc


def multicategories_isomorphic(mc1, mc2):
    """Whether two valid multicategories of arity at most 2 are isomorphic:
    unless their arity counts differ, whether ``find_model_isomorphism``
    finds an isomorphism of their encodings over ``prom_trunc``, which
    is one of the multicategories (its legs preserve typing, its unitors
    identities and its laxators composites).  An invalid multicategory
    raises ``InvalidTheory``, an arity above 2 ``IllFormedPresentation``.
    """
    arities = sorted(map(mc1.arity, mc1.multimorphisms))
    if arities != sorted(map(mc2.arity, mc2.multimorphisms)):
        return False
    mc1, mc2 = _renamed(mc1), _renamed(mc2)
    t = _prom_trunc(max(arities, default=0))
    return find_model_isomorphism(multicategory_to_model(mc1, t),
                                  multicategory_to_model(mc2, t)) is not None


def _renamed(mc):
    """A valid multicategory renamed n0, n1, ..., so that no labels of
    its encoding clash, with the composites of composable families."""
    report = validate_multicategory(mc)
    if report:
        raise InvalidTheory("not a valid multicategory: "
                            + "; ".join(report[:3]))
    n = {x: "n{}".format(i)
         for i, x in enumerate([*mc.objects, *mc.multimorphisms])}
    return Multicategory(
        map(n.get, mc.objects),
        {n[m]: (map(n.get, dom), n[cod])
         for m, (dom, cod) in mc.multimorphisms.items()},
        {n[o]: n[mc.identities[o]] for o in mc.objects},
        {(n[o], tuple(map(n.get, inners))): n[mc.comp[(o, inners)]]
         for o, inners in mc.composable()}, mc.truncation)


# ---------------------------------------------------------------------------
# multifunctors
# ---------------------------------------------------------------------------

class Multifunctor:
    """A set-valued multifunctor on a truncated multicategory: finite
    sets of values per object and one table per multimorphism."""

    def __init__(self, mc, on_objects, actions):
        self.mc = mc
        self.on_objects = {o: s for o, s in on_objects.items()}
        # name -> {tuple of values: value}
        self.actions = {m: dict(t) for m, t in actions.items()}


def validate_multifunctor(fm):
    mc = fm.mc
    report = []
    for m, (dom, cod) in mc.multimorphisms.items():
        table = fm.actions.get(m)
        wanted = set(itertools.product(*[fm.on_objects[o] for o in dom]))
        if table is None or set(table.keys()) != wanted:
            report.append("action of {} not total".format(m))
            continue
        if any(v not in fm.on_objects[cod] for v in table.values()):
            report.append("action of {} leaves its value set".format(m))
    if report:
        return report
    for o in mc.objects:
        t = fm.actions[mc.identities[o]]
        if any(t[(v,)] != v for v in fm.on_objects[o]):
            report.append("identity of {} does not act as identity".format(o))
    for (outer, inners), res in mc.comp.items():
        doms = [mc.multimorphisms[i][0] for i in inners]
        for args in itertools.product(
                *[fm.on_objects[o] for o in sum(doms, ())]):
            mids = tuple(fm.actions[i][part]
                         for i, part in zip(inners, _regroup(args, doms)))
            if fm.actions[outer][mids] != fm.actions[res][args]:
                report.append("composition fails at {} with {} on {}"
                              .format(outer, inners, args))
    return report


def _encoded(x):
    """The multicategory that ``multicategory_to_model`` encoded as the
    model ``x``, and the family of multimorphisms each apex element
    stands for.  It attaches them to the model object, and no document
    carries them: a model read back from its document, like any model
    it did not build, raises TheoryMismatch."""
    try:
        return x.multicategory, x.mm_of
    except AttributeError:
        raise TheoryMismatch("the model carries no multicategory: only "
                             "multicategory_to_model attaches one, and a "
                             "model read back from its document has none"
                             ) from None


def instance_to_multifunctor(p):
    """Read a multifunctor off an instance of a multicategory model;
    see ``_encoded`` for the models refused."""
    x = p.model
    t = x.theory
    mc, _ = _encoded(x)
    x1 = "x1"
    over = fibers(p.labels[x1], p.carriers[x1])
    on_objects = {o: sorted(over.get(o, ())) for o in mc.objects}
    inv = {}
    if 2 in {len(d) for d, _ in mc.multimorphisms.values()}:
        inv = inverse_table(_pairing(p.tight_cells, t.cartesian.proj_tight[
            (x1, x1)], p.carriers["x2"]))
    point = next(iter(p.carriers.get("x0", ())), None)
    actions = {}
    for m, (dom, cod) in mc.multimorphisms.items():
        act, lab = p.actions[p_arrow(t, len(dom))], _mm_label((m,))
        table = {}
        for vals in itertools.product(*[on_objects[o] for o in dom]):
            # the element of x0, x1 or x2 that the values stand for
            e = point if not vals else vals[0] if len(vals) == 1 else inv[vals]
            table[vals] = act[(e, lab)]
        actions[m] = table
    return Multifunctor(mc, {o: list(s) for o, s in on_objects.items()},
                        actions)


def multifunctor_to_instance(fm, x):
    """Build the canonical-product instance of a multicategory model
    from a multifunctor (no validation; validators are the oracle); see
    ``_encoded`` for the models refused."""
    mc, mm_of = _encoded(x)
    t = x.theory
    k = max(t.size_of_object.values())

    elems = {0: [()]}
    for i in range(1, k + 1):
        elems[i] = [tp + ((o, v),) for tp in elems[i - 1]
                    for o in mc.objects for v in fm.on_objects[o]]

    def elem_label(tp):
        return _tuple_label(tuple(pair_label(o, v) for o, v in tp))

    # the element tuples of each object, indexed by their label
    carriers, labels, by_label = {}, {}, {}
    for i in range(k + 1):
        ob = "x{}".format(i)
        over = {tp: _tuple_label(tuple(o for o, _ in tp)) for tp in elems[i]}
        carriers[ob] = FiniteSet([elem_label(tp) for tp in elems[i]])
        labels[ob] = {elem_label(tp): over[tp] for tp in elems[i]}
        by_label[i] = fibers(over, elems[i])

    tight_cells = {}
    for f, (a, b, pf) in t.tight_data.items():
        tight_cells[f] = {
            elem_label(tp): elem_label(tuple(tp[v - 1] for v in pf))
            for tp in elems[a]}

    actions = {}
    for m, (a, b, pm) in t.loose_data.items():
        blocks = map_blocks(pm, b)
        table = {}
        for lab, names in mm_of[m].items():
            for tp in by_label[a].get(x.on_loose[m].left[lab], ()):
                out = []
                for mu, block in zip(names, blocks):
                    vals = tuple(tp[i - 1][1] for i in block)
                    out.append((mc.multimorphisms[mu][1],
                                fm.actions[mu][vals]))
                table[(elem_label(tp), lab)] = elem_label(tuple(out))
        actions[m] = table
    return Instance(x, carriers, labels, tight_cells, actions)


def cartesian_elements_check(p):
    """(instance cartesian-valid, elements model cartesian-valid);
    the two must agree."""
    from .elements import elements
    em, _, _ = elements(p)
    return (not validate_cartesian_instance(p),
            not validate_cartesian_model(em))


# ---------------------------------------------------------------------------
# cocartesian example over sq_finset_op: monoid operation tables
# ---------------------------------------------------------------------------

def build_cocartesian_example(t, monoid=None):
    """A single-object cartesian model of a sq_finset_op theory.

    Operations with inputs indexed by [a] are tuples of monoid elements,
    one weight per input; composition multiplies the weights along the
    chain, and every function between index sets acts by reindexing the
    weights (the coduplication/codeletion actions).  The default monoid
    is the two-element join semilattice; passing the one-element monoid
    gives the terminal example.
    """
    if monoid is None:
        monoid = (("0", "1"),
                  {(a, b): max(a, b) for a in "01" for b in "01"}, "0")
    elements, mult, unit = monoid
    k = max(t.size_of_object.values())

    point = "()"
    on_objects = {"s{}".format(i): FiniteSet([point])
                  for i in range(k + 1)}
    on_tight = {f: {point: point} for f in t.tight}

    on_loose, op_of = {}, {}
    for m, (a, b, pm) in t.loose_data.items():
        weights = sorted(itertools.product(elements, repeat=a))
        apex = [_mm_label(w) for w in weights]
        on_loose[m] = Span(on_objects["s{}".format(a)],
                           on_objects["s{}".format(b)],
                           FiniteSet(apex),
                           {z: point for z in apex}, {z: point for z in apex})
        op_of[m] = {_mm_label(w): w for w in weights}

    on_cells = {}
    for cell, (f, g, m, n) in t.cells.items():
        _, _, pf = t.tight_data[f]
        on_cells[cell] = {
            lab: _mm_label(tuple(w[i - 1] for i in pf))
            for lab, w in op_of[m].items()}

    laxators = {}
    for (m, n), mn in t.loose_comp.items():
        _, _, pm = t.loose_data[m]
        table = {}
        for lab_m, w in op_of[m].items():
            for lab_n, v in op_of[n].items():
                table[(lab_m, lab_n)] = _mm_label(
                    tuple(mult[(w[i], v[pm[i] - 1])] for i in range(len(w))))
        laxators[(m, n)] = table

    unitors = {"s{}".format(i): {point: _mm_label((unit,) * i)}
               for i in range(k + 1)}

    x = SpanModel(t, on_objects, on_tight, on_loose, on_cells,
                  laxators, unitors)
    return x
