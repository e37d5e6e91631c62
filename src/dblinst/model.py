"""Lax double functors into spans of finite sets, and their morphisms.

A ``SpanModel`` assigns a finite set to each theory object, a function
to each tight arrow, a span to each loose arrow, an apex map to each
cell, plus laxator and unitor tables.  Validation checks the lax-functor
axioms exhaustively; for partial (truncated) theories only the
tabulated composites are checked.

Morphisms are the strict tight transformations: a function per object
and an apex function per loose arrow, natural in every direction.  They
are enumerated by the element-level search of ``dblinst.search``, one
variable per element of a carrier or apex, listed in the order of their
component tables, so they come out of the search in that order.
"""

from .errors import InvalidMorphism, ModelMismatch, TheoryMismatch
from .finset import (FiniteSet, Span, compose_tables, fibers, identity_table,
                     is_function, pullback_pairs)
from .search import Layout, compile, distinct, violations


class SpanModel:
    def __init__(self, theory, on_objects, on_tight, on_loose, on_cells,
                 laxators, unitors):
        self.theory = theory
        self.on_objects = dict(on_objects)   # object -> FiniteSet
        self.on_tight = dict(on_tight)       # tight -> table
        self.on_loose = dict(on_loose)       # loose -> Span
        self.on_cells = dict(on_cells)       # cell -> apex table
        self.laxators = {k: dict(v) for k, v in laxators.items()}
        self.unitors = {d: dict(v) for d, v in unitors.items()}

    def laxator_domain(self, m, n):
        return pullback_pairs(self.on_loose[m], self.on_loose[n])

    def total_size(self):
        return (sum(len(s) for s in self.on_objects.values())
                + sum(len(s.apex) for s in self.on_loose.values()))

    def __repr__(self):
        return "SpanModel({} over {} objects)".format(
            {d: len(s) for d, s in self.on_objects.items()},
            len(self.theory.objects))


def _shape_report(x):
    """Report the carriers, tight functions and spans of ``x`` that are
    missing or ill-typed: what every other check of ``x`` reads."""
    t = x.theory
    report = []
    for d in t.objects:
        if not isinstance(x.on_objects.get(d), FiniteSet):
            report.append("object {} has no carrier".format(d))
    if report:
        return report
    for f, (s, d) in t.tight.items():
        table = x.on_tight.get(f)
        if table is None or not is_function(table, x.on_objects[s],
                                            x.on_objects[d]):
            report.append("tight arrow {} has no total function".format(f))
    for m, (s, d) in t.loose.items():
        sp = x.on_loose.get(m)
        if not isinstance(sp, Span) or sp.src_set != x.on_objects[s] \
                or sp.dst_set != x.on_objects[d]:
            report.append("loose arrow {} has no well-typed span".format(m))
    return report


def validate_model(x):
    """Exhaustive lax-functor axiom check; returns a report."""
    t = x.theory
    report = _shape_report(x)
    if report:
        return report

    # tight functoriality
    for d in t.objects:
        if x.on_tight[t.tight_id[d]] != identity_table(x.on_objects[d]):
            report.append("tight identity at {} not the identity".format(d))
    for (f, g), h in t.tight_comp.items():
        if compose_tables(x.on_tight[f], x.on_tight[g]) != x.on_tight[h]:
            report.append("tight functoriality fails at ({},{})".format(f, g))

    # cells are span maps over their tight sides
    for a, (f, g, m, n) in t.cells.items():
        table = x.on_cells.get(a)
        top, bot = x.on_loose[m], x.on_loose[n]
        if table is None or not is_function(table, top.apex, bot.apex):
            report.append("cell {} has no total apex map".format(a))
            continue
        for xi in top.apex:
            if bot.left[table[xi]] != x.on_tight[f][top.left[xi]]:
                report.append("cell {} breaks the left leg at {}".format(a, xi))
            if bot.right[table[xi]] != x.on_tight[g][top.right[xi]]:
                report.append("cell {} breaks the right leg at {}".format(a, xi))
    if report:
        return report

    # functoriality for the vertical (tight) composition of cells
    for m, a in t.cell_id_loose.items():
        if x.on_cells[a] != identity_table(x.on_loose[m].apex):
            report.append("identity cell of {} not the identity".format(m))
    for (a, b), c in t.cell_vcomp.items():
        if compose_tables(x.on_cells[a], x.on_cells[b]) != x.on_cells[c]:
            report.append("cell functoriality fails at ({},{})".format(a, b))

    # each laxator domain is joined once per call
    doms = {}

    def laxator_domain(m, n):
        if (m, n) not in doms:
            doms[(m, n)] = x.laxator_domain(m, n)
        return doms[(m, n)]

    # laxators: totality, span-map condition
    for (m, n), mn in t.loose_comp.items():
        lax = x.laxators.get((m, n))
        dom = laxator_domain(m, n)
        if lax is None or set(lax.keys()) != set(dom):
            report.append("laxator at ({},{}) not total on the pullback"
                          .format(m, n))
            continue
        target = x.on_loose[mn]
        for (xi, zeta) in dom:
            v = lax[(xi, zeta)]
            if v not in target.apex:
                report.append("laxator at ({},{}) leaves the target".format(m, n))
            elif target.left[v] != x.on_loose[m].left[xi] \
                    or target.right[v] != x.on_loose[n].right[zeta]:
                report.append("laxator at ({},{}) breaks a leg at ({},{})"
                              .format(m, n, xi, zeta))
    if report:
        return report

    # naturality of laxators with respect to cells
    for (a, b), c in t.cell_hcomp.items():
        m1, m2 = t.cell_top(a), t.cell_top(b)
        n1, n2 = t.cell_bottom(a), t.cell_bottom(b)
        if (m1, m2) not in x.laxators or (n1, n2) not in x.laxators:
            continue
        for (xi, zeta) in laxator_domain(m1, m2):
            lhs = x.on_cells[c][x.laxators[(m1, m2)][(xi, zeta)]]
            rhs = x.laxators[(n1, n2)][(x.on_cells[a][xi], x.on_cells[b][zeta])]
            if lhs != rhs:
                report.append("laxator naturality fails at cells ({},{}) "
                              "on ({},{})".format(a, b, xi, zeta))

    # associativity of laxators: each (xi, zeta) is joined with the
    # fiber of n's left leg over the right end of zeta
    over = {n: fibers(sp.left, sp.apex) for n, sp in x.on_loose.items()}
    for (l, m), lm in t.loose_comp.items():
        right_m = x.on_loose[m].right
        for n in t.loose:
            if (m, n) not in t.loose_comp:
                continue
            mn = t.loose_comp[(m, n)]
            if (lm, n) not in t.loose_comp or (l, mn) not in t.loose_comp:
                continue
            lax_lm, lax_mn = x.laxators[(l, m)], x.laxators[(m, n)]
            lax_lm_n, lax_l_mn = x.laxators[(lm, n)], x.laxators[(l, mn)]
            for (xi, zeta) in laxator_domain(l, m):
                for theta in over[n].get(right_m[zeta], ()):
                    lhs = lax_lm_n[(lax_lm[(xi, zeta)], theta)]
                    rhs = lax_l_mn[(xi, lax_mn[(zeta, theta)])]
                    if lhs != rhs:
                        report.append(
                            "laxator associativity fails at ({},{},{}) "
                            "on ({},{},{})".format(l, m, n, xi, zeta, theta))

    # unitors: legs and unit laws
    for d in t.objects:
        uni = x.unitors.get(d)
        idspan = x.on_loose[t.loose_id[d]]
        if uni is None or not is_function(uni, x.on_objects[d], idspan.apex):
            report.append("unitor at {} not a total function".format(d))
            continue
        for e in x.on_objects[d]:
            if idspan.left[uni[e]] != e or idspan.right[uni[e]] != e:
                report.append("unitor at {} breaks a leg at {}".format(d, e))
    if report:
        return report
    for m, (dsrc, ddst) in t.loose.items():
        lid, rid = t.loose_id[dsrc], t.loose_id[ddst]
        sp = x.on_loose[m]
        if (lid, m) in t.loose_comp:
            for xi in sp.apex:
                got = x.laxators[(lid, m)][(x.unitors[dsrc][sp.left[xi]], xi)]
                if got != xi:
                    report.append("left unit law fails at {} on {}".format(m, xi))
        if (m, rid) in t.loose_comp:
            for xi in sp.apex:
                got = x.laxators[(m, rid)][(xi, x.unitors[ddst][sp.right[xi]])]
                if got != xi:
                    report.append("right unit law fails at {} on {}".format(m, xi))

    # naturality of unitors with respect to tight arrows
    for f, (s, d) in t.tight.items():
        a = t.cell_id_tight.get(f)
        if a is None:
            continue
        for e in x.on_objects[s]:
            if x.on_cells[a][x.unitors[s][e]] != x.unitors[d][x.on_tight[f][e]]:
                report.append("unitor naturality fails at {} on {}".format(f, e))
    return report


def terminal_model(t):
    """The model with every carrier and apex a singleton."""
    pt = FiniteSet(["*"])
    on_objects = {d: pt for d in t.objects}
    on_tight = {f: {"*": "*"} for f in t.tight}
    on_loose = {m: Span(pt, pt, pt, {"*": "*"}, {"*": "*"}) for m in t.loose}
    on_cells = {a: {"*": "*"} for a in t.cells}
    laxators = {pair: {("*", "*"): "*"} for pair in t.loose_comp}
    unitors = {d: {"*": "*"} for d in t.objects}
    return SpanModel(t, on_objects, on_tight, on_loose, on_cells,
                     laxators, unitors)


class ModelMorphism:
    def __init__(self, source, target, on_objects, on_loose):
        self.source = source
        self.target = target
        self.on_objects = {d: dict(tab) for d, tab in on_objects.items()}
        self.on_loose = {m: dict(tab) for m, tab in on_loose.items()}

    @classmethod
    def _of(cls, source, target, tables):
        """The morphism on the tables of a solution (``_layout``), kept
        without the copy that ``__init__`` makes."""
        f = cls.__new__(cls)
        f.source, f.target = source, target
        f.on_objects = {d: tables["ob", d] for d in source.theory.objects}
        f.on_loose = {m: t for (kind, m), t in tables.items() if kind == "lo"}
        return f

    def component_key(self):
        """Canonical sort key: the flattened component tables."""
        return (tuple(sorted((d, tuple(sorted(t.items())))
                             for d, t in self.on_objects.items())),
                tuple(sorted((m, tuple(sorted(t.items())))
                             for m, t in self.on_loose.items())))

    def __eq__(self, other):
        return (isinstance(other, ModelMorphism)
                and self.source is other.source and self.target is other.target
                and self.on_objects == other.on_objects
                and self.on_loose == other.on_loose)

    def __repr__(self):
        return "ModelMorphism({} objects, {} loose components)".format(
            len(self.on_objects), len(self.on_loose))


def validate_model_morphism(al):
    """Report the components that are not total functions, or else the
    constraints of ``_constraints`` that the tables break, so that
    validation and enumeration cannot disagree.  Raises
    ``TheoryMismatch`` when the models live over different theories."""
    x, y = al.source, al.target
    constraints = _constraints(x, y)
    t = x.theory
    report = []
    for d in t.objects:
        tab = al.on_objects.get(d)
        if tab is None or not is_function(tab, x.on_objects[d], y.on_objects[d]):
            report.append("component at object {} not total".format(d))
    for m in t.loose:
        tab = al.on_loose.get(m)
        if tab is None or not is_function(tab, x.on_loose[m].apex,
                                          y.on_loose[m].apex):
            report.append("component at loose arrow {} not total".format(m))
    if report:
        return report
    value = {key + (e,): v for key, tab in _components(al).items()
             for e, v in tab.items()}
    return [template.format(*parts)
            for template, *parts in violations(constraints, value)]


def _refuse_invalid(al):
    """Raise ``InvalidMorphism`` on a non-empty morphism report."""
    report = validate_model_morphism(al)
    if report:
        raise InvalidMorphism(
            "not a model morphism: " + "; ".join(report[:3]))


def identity_morphism(x):
    return ModelMorphism(
        x, x,
        {d: identity_table(s) for d, s in x.on_objects.items()},
        {m: identity_table(sp.apex) for m, sp in x.on_loose.items()})


def compose_model_morphisms(f, g):
    if f.target.on_objects != g.source.on_objects:
        raise ModelMismatch("the target of the first morphism is not the "
                            "source of the second")
    return ModelMorphism(
        f.source, g.target,
        {d: compose_tables(t, g.on_objects[d]) for d, t in f.on_objects.items()},
        {m: compose_tables(t, g.on_loose[m]) for m, t in f.on_loose.items()})


def _layout(a, b):
    """The layout of the search for morphisms a -> b: one variable per
    element, in ``component_key`` order: ``("ob", d, e)`` for the image
    of e at the object d, objects sorted, then ``("lo", m, xi)`` for the
    image of the heteromorphism xi at the loose arrow m, loose arrows
    sorted; elements and values come in label order.  So the search
    yields the morphisms sorted by their component tables."""
    t = a.theory
    return Layout(
        [(("ob", d), dict.fromkeys(a.on_objects[d], b.on_objects[d].labels))
         for d in sorted(t.objects)]
        + [(("lo", m), dict.fromkeys(a.on_loose[m].apex,
                                     b.on_loose[m].apex.labels))
           for m in sorted(t.loose)])


def _constraints(a, b):
    """The constraints of the search for morphisms a -> b, each tagged
    with its line of the ``validate_model_morphism`` report.  Raises
    ``TheoryMismatch`` when the models live over different theories."""
    t = a.theory
    differ = [label for part, label in (
        ("objects", "objects"), ("tight", "tight arrows"),
        ("loose", "loose arrows"), ("cells", "cells"))
        if getattr(t, part) != getattr(b.theory, part)]
    if differ:
        raise TheoryMismatch("the models live over theories with different {}"
                             .format(", ".join(differ)))
    # each check is a table of b that sends the image of the first
    # element read to the image of the second (of a pair, for the
    # laxators).  Tags are report lines, listed in report order; one per
    # tight arrow
    constraints = [((("ob", s, e), ("ob", d, a.on_tight[f][e])),
                    b.on_tight[f],
                    ("naturality fails at tight arrow {}", f))
                   for f, (s, d) in t.tight.items() for e in a.on_objects[s]]
    for m, (s, d) in t.loose.items():
        sp, spb = a.on_loose[m], b.on_loose[m]
        for xi in sp.apex:
            constraints += [
                ((("lo", m, xi), ("ob", s, sp.left[xi])), spb.left,
                 ("left leg broken at {} on {}", m, xi)),
                ((("lo", m, xi), ("ob", d, sp.right[xi])), spb.right,
                 ("right leg broken at {} on {}", m, xi))]
    for c in t.cells:
        m, n = t.cell_top(c), t.cell_bottom(c)
        constraints += [((("lo", m, xi), ("lo", n, a.on_cells[c][xi])),
                         b.on_cells[c],
                         ("naturality fails at cell {} on {}", c, xi))
                        for xi in a.on_loose[m].apex]
    # a pair that breaks a leg is not in the target's pullback
    for (m, n), mn in t.loose_comp.items():
        constraints += [
            ((("lo", m, xi), ("lo", n, zeta),
              ("lo", mn, a.laxators[(m, n)][(xi, zeta)])),
             b.laxators[(m, n)],
             ("laxator compatibility fails at ({},{}) on ({},{})",
              m, n, xi, zeta))
            for xi, zeta in a.laxator_domain(m, n)]
    for d in t.objects:
        lid = t.loose_id[d]
        constraints += [((("ob", d, e), ("lo", lid, a.unitors[d][e])),
                         b.unitors[d],
                         ("unitor compatibility fails at {} on {}", d, e))
                        for e in a.on_objects[d]]
    return constraints


def _components(f):
    """The component tables of a model morphism, keyed by the first two
    parts of their search variables: ``("ob", d)`` and ``("lo", m)``."""
    out = {("ob", d): tab for d, tab in f.on_objects.items()}
    out.update({("lo", m): tab for m, tab in f.on_loose.items()})
    return out


class MorphismSearch:
    """The search for morphisms a -> b, compiled once and run as often
    as needed, optionally over a base.

    Given ``over``, a morphism q: b -> c, a run may ask for the
    morphisms w with w;q = p for a morphism p: a -> c, and with e;w = u
    for morphisms e: s -> a and u: s -> b.  Each variable's value list
    is then cut down before the run: to the q-fibre over its p-image,
    and, on the image of e, to the value that u gives its preimages (to
    none when two preimages disagree).  A cut-down list is a
    subsequence of the full one in the same order, so a run yields the
    morphisms of ``enumerate_model_morphisms(a, b)`` that satisfy the
    conditions, in the order that lists them.  Each morphism is built
    from the component tables that the layout reads off a solution.
    Runs are independent, so one may be started inside another.
    """

    def __init__(self, a, b, over=None):
        self.source, self.target = a, b
        constraints = _constraints(a, b)
        self.layout = _layout(a, b)
        self.problem = compile(self.layout.domains, constraints)
        self._fibres = None
        if over is not None:
            values = {("ob", d): s for d, s in b.on_objects.items()}
            values.update({("lo", m): sp.apex
                           for m, sp in b.on_loose.items()})
            fibres = {key: fibers(tab, values[key])
                      for key, tab in _components(over).items()}
            # per variable: the q-fibres of its component, its component
            # and its element
            self._fibres = [(fibres[kind, c], (kind, c), x)
                         for kind, c, x in self.problem.variables]

    def _values(self, base, pin):
        """The value lists of a run over ``base`` and with ``pin``, or
        None for the compiled ones."""
        if base is None and pin is None:
            return None
        if base is None:
            values = list(self.problem.values)
        else:
            image = _components(base)
            values = [fibres.get(image[key][x], ())
                      for fibres, key, x in self._fibres]
        if pin is not None:
            e, u = pin
            given = _components(u)
            pinned = {}     # position -> the value u gives, or None on a clash
            for key, tab in _components(e).items():
                position, gives = self.layout.position[key], given[key]
                for z, x in tab.items():
                    i, w = position[x], gives[z]
                    if pinned.setdefault(i, w) != w:
                        pinned[i] = None
            for i, w in pinned.items():
                values[i] = (w,) if w is not None and w in values[i] else ()
        return values

    def morphisms(self, base=None, pin=None):
        """Yield the morphisms w: a -> b, with w;q = ``base`` when
        given (only a search built ``over`` q takes one), and e;w = u
        when ``pin`` = (e, u) is given."""
        a, b, tables = self.source, self.target, self.layout.tables
        for sol in self.problem.run(self._values(base, pin)):
            yield ModelMorphism._of(a, b, tables(sol))

    def count(self, base=None, pin=None):
        """The number of morphisms ``morphisms`` yields, counted as
        the search streams them, without building any."""
        return sum(1 for _ in self.problem.run(self._values(base, pin)))


def enumerate_model_morphisms(a, b):
    """All strict morphisms a -> b, sorted by component tables.

    Searched element by element in ``component_key`` order (see
    ``_layout``), so they come out of the search sorted.  Raises
    ``TheoryMismatch`` when the two models live over different
    theories.
    """
    return list(MorphismSearch(a, b).morphisms())


def find_model_isomorphism(a, b):
    """The first morphism a -> b in sorted order with bijective
    components, or None.

    A bijective morphism is an isomorphism: each of its conditions read
    backwards is the same condition on the inverse tables, and each
    pair in the target's laxator domain comes from one in the source's,
    as the object components are injective.  The search is the one of
    ``enumerate_model_morphisms``, after a size check, compiled once
    with constraints that reject a repeated value within a component as
    soon as it is assigned, so it stops at the first isomorphism instead
    of building the whole hom-set.
    """
    t = a.theory
    constraints = _constraints(a, b)
    if any(len(a.on_objects[d]) != len(b.on_objects[d]) for d in t.objects) \
            or any(len(sp.apex) != len(b.on_loose[m].apex)
                   for m, sp in a.on_loose.items()):
        return None
    constraints += distinct(
        [[("ob", d, e) for e in a.on_objects[d]] for d in t.objects]
        + [[("lo", m, xi) for xi in a.on_loose[m].apex] for m in t.loose])
    layout = _layout(a, b)
    for sol in compile(layout.domains, constraints).run():
        return ModelMorphism._of(a, b, layout.tables(sol))
    return None
