"""Explicit finite categories, functors between them, and copresheaves.

A ``FinCategory`` stores its objects, named morphisms with endpoints, an
identity per object, and a total composition table.  Composition is
written diagrammatically throughout: ``comp[(f, g)]`` is "f then g".
"""

from .errors import ModelMismatch
from .finset import (FiniteSet, compose_tables, fibers, identity_table,
                     is_function)
from .search import Layout, compile


class FinCategory:
    """A finite category with a total, tabulated composition."""

    def __init__(self, objects, morphisms, identity, comp):
        self.objects = tuple(objects)
        # name -> (src, dst)
        self.morphisms = dict(morphisms)
        # object -> identity morphism name
        self.identity = dict(identity)
        # (f, g) -> "f then g"
        self.comp = dict(comp)

    def src(self, f):
        return self.morphisms[f][0]

    def dst(self, f):
        return self.morphisms[f][1]

    def compose(self, f, g):
        """``f`` then ``g``; raises ModelMismatch unless both are
        morphisms and ``f`` ends where ``g`` starts."""
        fe, ge = self.morphisms.get(f), self.morphisms.get(g)
        if fe is None or ge is None or fe[1] != ge[0]:
            raise ModelMismatch(
                "morphisms {} and {} do not compose".format(f, g))
        return self.comp[(f, g)]

    def validate(self):
        """Report violations of the category axioms (exhaustive)."""
        return category_report(self.objects, self.morphisms, self.identity,
                               self.comp)


def category_report(objects, arrows, identity, comp, partial=False):
    """Check the category axioms of tabulated arrows; returns a report.

    ``arrows`` maps names to (source, target), ``identity`` objects to
    arrow names and ``comp`` composable pairs to their composite.  In
    order: identities (stopping at the first bad one), endpoints and
    unit laws (an arrow with an unknown endpoint is reported and left
    out of every later check), the endpoints of every table entry,
    missing composites (unless the table is ``partial``, as in a
    truncated theory), and associativity wherever the composites it
    reads are tabulated.  Each arrow is joined only with the arrows out
    of its target, in table order.
    """
    report = []
    known = set(objects)
    for o in objects:
        i = identity.get(o)
        if i is None or arrows.get(i) != (o, o):
            report.append("identity of {} ill-formed".format(o))
            return report
    placed = {}
    for f, (s, d) in arrows.items():
        if s not in known or d not in known:
            report.append("endpoints of {} unknown".format(f))
            continue
        placed[f] = s, d
        if comp.get((identity[s], f)) != f:
            report.append("left unit fails at {}".format(f))
        if comp.get((f, identity[d])) != f:
            report.append("right unit fails at {}".format(f))
    for (f, g), h in comp.items():
        fe, ge = arrows.get(f), arrows.get(g)
        if fe is None or ge is None or fe[1] != ge[0]:
            report.append("table entry ({},{}) not composable".format(f, g))
        elif arrows.get(h) != (fe[0], ge[1]):
            report.append("composite of ({},{}) has wrong endpoints"
                          .format(f, g))
    out = fibers({f: s for f, (s, _) in placed.items()}, placed)
    for f, (_, fd) in placed.items():
        for g in out.get(fd, ()):
            fg = comp.get((f, g))
            if fg is None:
                if not partial:
                    report.append("missing composite ({},{})".format(f, g))
                continue
            for h in out.get(placed[g][1], ()):
                gh = comp.get((g, h))
                if gh is None:
                    continue
                left, right = comp.get((fg, h)), comp.get((f, gh))
                if left is not None and right is not None and left != right:
                    report.append("associativity fails at ({},{},{})"
                                  .format(f, g, h))
    return report


class FinFunctor:
    """A functor between explicit finite categories."""

    def __init__(self, source, target, on_objects, on_morphisms):
        self.source = source
        self.target = target
        self.on_objects = dict(on_objects)
        self.on_morphisms = dict(on_morphisms)

    def validate(self):
        report = []
        c, d = self.source, self.target
        for o in c.objects:
            if self.on_objects.get(o) not in d.objects:
                report.append("object {} not mapped".format(o))
        for f, (s, t) in c.morphisms.items():
            ff = self.on_morphisms.get(f)
            if ff is None or d.morphisms.get(ff) != (self.on_objects[s],
                                                     self.on_objects[t]):
                report.append("morphism {} not mapped over endpoints".format(f))
        if report:
            return report
        for o in c.objects:
            if self.on_morphisms[c.identity[o]] != d.identity[self.on_objects[o]]:
                report.append("identity of {} not preserved".format(o))
        for (f, g), fg in c.comp.items():
            lhs = d.comp[(self.on_morphisms[f], self.on_morphisms[g])]
            if lhs != self.on_morphisms[fg]:
                report.append("composition not preserved at ({},{})".format(f, g))
        return report

    def is_classical_dopf(self):
        """Unique-lifting check: discrete opfibration of categories.

        For every object e of the source and morphism g out of its image,
        exactly one morphism out of e maps to g.  Returns (ok, failures).
        """
        c, d = self.source, self.target
        out = fibers({g: s for g, (s, _) in d.morphisms.items()},
                     sorted(d.morphisms))
        lifts = fibers({u: (s, self.on_morphisms[u])
                        for u, (s, _) in c.morphisms.items()}, c.morphisms)
        failures = []
        for e in c.objects:
            for g in out.get(self.on_objects[e], ()):
                n = len(lifts.get((e, g), ()))
                if n != 1:
                    failures.append((e, g, n))
        return (not failures, failures)


def compose_functors(f, g):
    if f.target is not g.source and f.target.morphisms != g.source.morphisms:
        raise ModelMismatch("the target of the first functor is not the "
                            "source of the second")
    return FinFunctor(
        f.source, g.target,
        {o: g.on_objects[v] for o, v in f.on_objects.items()},
        {m: g.on_morphisms[v] for m, v in f.on_morphisms.items()})


class Copresheaf:
    """A set-valued functor on an explicit finite category."""

    def __init__(self, base, on_objects, on_morphisms):
        self.base = base
        self.on_objects = {o: s if isinstance(s, FiniteSet) else FiniteSet(s)
                           for o, s in on_objects.items()}
        self.on_morphisms = {m: dict(t) for m, t in on_morphisms.items()}

    def validate(self):
        report = []
        b = self.base
        for o in b.objects:
            if o not in self.on_objects:
                report.append("object {} has no value".format(o))
        for f, (s, d) in b.morphisms.items():
            t = self.on_morphisms.get(f)
            if t is None or not is_function(t, self.on_objects[s],
                                            self.on_objects[d]):
                report.append("morphism {} has no total action".format(f))
        if report:
            return report
        for o in b.objects:
            if self.on_morphisms[b.identity[o]] != identity_table(self.on_objects[o]):
                report.append("identity of {} not sent to identity".format(o))
        for (f, g), fg in b.comp.items():
            got = compose_tables(self.on_morphisms[f], self.on_morphisms[g])
            if got != self.on_morphisms[fg]:
                report.append("functoriality fails at ({},{})".format(f, g))
        return report


def enumerate_natural_transformations(c1, c2):
    """All natural transformations between copresheaves on the same base.

    One search variable ``(o, v)`` per element v of c1 at the object o,
    ranging over c2 at o; naturality is checked element by element.
    Transformations come in lexicographic order: objects in base order,
    elements and values in label order.
    """
    base = c1.base
    layout = Layout([((o,), dict.fromkeys(c1.on_objects[o],
                                          c2.on_objects[o].labels))
                     for o in base.objects])
    # f acting in c2 sends the image of v to the image of its pushforward
    constraints = [(((s, v), (d, c1.on_morphisms[f][v])),
                    c2.on_morphisms[f])
                   for f, (s, d) in base.morphisms.items()
                   for v in c1.on_objects[s]]
    return [{o: tab for (o,), tab in layout.tables(sol).items()}
            for sol in compile(layout.domains, constraints).run()]
