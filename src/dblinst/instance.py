"""Instances of a model and their morphisms.

An instance assigns to each theory object a carrier set fibered over
the model's carrier (a labelling function), to each tight arrow a
function over the model's function, and to each loose arrow an action:
an element of the carrier over x together with a heteromorphism out of
x is sent to an element over the heteromorphism's target.

The four instance axioms (functoriality on tight arrows, naturality of
actions at every theory cell, associativity of actions through the
laxators, unitality at the unitors) are checked exhaustively.
"""

from .errors import ModelMismatch
from .finset import (FiniteSet, compose_tables, fibers, identity_table,
                     is_function, pair_label)
from .search import Layout, compile, distinct, violations


class Instance:
    def __init__(self, model, carriers, labels, tight_cells, actions):
        self.model = model
        self.carriers = dict(carriers)          # d -> FiniteSet
        self.labels = {d: dict(t) for d, t in labels.items()}   # d -> carrier -> Xd
        self.tight_cells = {f: dict(t) for f, t in tight_cells.items()}
        self.actions = {m: dict(t) for m, t in actions.items()}  # (h, het) -> h'

    def action_domain(self, m):
        """Pairs (carrier element, heteromorphism) with matching labels.

        Listed by carrier element, then heteromorphism, both in label
        order.  A hash join: the apex is indexed by its left leg, and
        each element is paired with the fiber over its label.
        """
        x = self.model
        src = x.theory.loose_src(m)
        span = x.on_loose[m]
        over = fibers(span.left, span.apex)
        labels = self.labels[src]
        return [(h, xi) for h in self.carriers[src]
                for xi in over.get(labels[h], ())]

    def total_size(self):
        return sum(len(s) for s in self.carriers.values())

    def __repr__(self):
        return "Instance({})".format({d: len(s) for d, s in self.carriers.items()})


def validate_instance(h):
    x = h.model
    t = x.theory
    report = []
    for d in t.objects:
        car = h.carriers.get(d)
        lab = h.labels.get(d)
        if not isinstance(car, FiniteSet) or lab is None \
                or not is_function(lab, car, x.on_objects[d]):
            report.append("carrier at {} not labelled over the model".format(d))
    if report:
        return report
    for f, (s, d) in t.tight.items():
        tab = h.tight_cells.get(f)
        if tab is None or not is_function(tab, h.carriers[s], h.carriers[d]):
            report.append("tight cell at {} not total".format(f))
            continue
        for e in h.carriers[s]:
            if h.labels[d][tab[e]] != x.on_tight[f][h.labels[s][e]]:
                report.append("tight cell at {} breaks labels at {}".format(f, e))
    if report:
        return report
    # functoriality on tight arrows
    for d in t.objects:
        if h.tight_cells[t.tight_id[d]] != identity_table(h.carriers[d]):
            report.append("tight identity at {} not the identity".format(d))
    for (f, g), fg in t.tight_comp.items():
        if compose_tables(h.tight_cells[f], h.tight_cells[g]) != h.tight_cells[fg]:
            report.append("tight functoriality fails at ({},{})".format(f, g))
    # actions: totality and label coherence; each action domain is
    # joined once per call
    doms = {m: h.action_domain(m) for m in t.loose}
    for m, (s, d) in t.loose.items():
        act = h.actions.get(m)
        dom = doms[m]
        if act is None or set(act.keys()) != set(dom):
            report.append("action at {} not total on its domain".format(m))
            continue
        span = x.on_loose[m]
        for (e, xi) in dom:
            v = act[(e, xi)]
            if v not in h.carriers[d]:
                report.append("action at {} leaves the carrier".format(m))
            elif h.labels[d][v] != span.right[xi]:
                report.append("action at {} breaks labels at ({},{})"
                              .format(m, e, xi))
    if report:
        return report
    # naturality of actions at every theory cell
    for a, (f, g, m, n) in t.cells.items():
        act_m, act_n = h.actions[m], h.actions[n]
        cell, tf, tg = x.on_cells[a], h.tight_cells[f], h.tight_cells[g]
        for (e, xi) in doms[m]:
            lhs = tg[act_m[(e, xi)]]
            rhs = act_n[(tf[e], cell[xi])]
            if lhs != rhs:
                report.append("action naturality fails at cell {} on ({},{})"
                              .format(a, e, xi))
    # associativity through the laxators: each (e, xi) is joined with
    # the fiber of n's left leg over the right end of xi
    over = {n: fibers(sp.left, sp.apex) for n, sp in x.on_loose.items()}
    for (m, n), mn in t.loose_comp.items():
        right_m, lax = x.on_loose[m].right, x.laxators[(m, n)]
        act_m, act_n, act_mn = h.actions[m], h.actions[n], h.actions[mn]
        for (e, xi) in doms[m]:
            for zeta in over[n].get(right_m[xi], ()):
                lhs = act_n[(act_m[(e, xi)], zeta)]
                rhs = act_mn[(e, lax[(xi, zeta)])]
                if lhs != rhs:
                    report.append("action associativity fails at ({},{}) "
                                  "on ({},{},{})".format(m, n, e, xi, zeta))
    # unitality at the unitors
    for d in t.objects:
        lid = t.loose_id[d]
        for e in h.carriers[d]:
            if h.actions[lid][(e, x.unitors[d][h.labels[d][e]])] != e:
                report.append("action unitality fails at {} on {}".format(d, e))
    return report


class InstanceMorphism:
    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.components = {d: dict(t) for d, t in components.items()}

    @classmethod
    def _of(cls, source, target, tables):
        """The morphism on the tables of a solution (``_layout``), kept
        without the copy that ``__init__`` makes."""
        mu = cls.__new__(cls)
        mu.source, mu.target = source, target
        mu.components = {d: tables[d,] for d in source.model.theory.objects}
        return mu

    def component_key(self):
        return tuple(sorted((d, tuple(sorted(t.items())))
                            for d, t in self.components.items()))

    def __eq__(self, other):
        return (isinstance(other, InstanceMorphism)
                and self.source is other.source and self.target is other.target
                and self.components == other.components)


def validate_instance_morphism(mu):
    """Report the components that are not total or break labels, or
    else the constraints of ``_constraints`` that they break, so that
    validation and enumeration cannot disagree.  Raises
    ``ModelMismatch`` when h and k live over different models."""
    h, k = mu.source, mu.target
    constraints = _constraints(h, k)
    t = h.model.theory
    report = []
    for d in t.objects:
        tab = mu.components.get(d)
        if tab is None or not is_function(tab, h.carriers[d], k.carriers[d]):
            report.append("component at {} not total".format(d))
            continue
        for e in h.carriers[d]:
            if k.labels[d][tab[e]] != h.labels[d][e]:
                report.append("component at {} breaks labels at {}".format(d, e))
    if report:
        return report
    value = {(d, e): v for d, tab in mu.components.items()
             for e, v in tab.items()}
    return [template.format(*parts)
            for template, *parts in violations(constraints, value)]


def identity_instance_morphism(h):
    return InstanceMorphism(h, h, {d: identity_table(c)
                                   for d, c in h.carriers.items()})


def compose_instance_morphisms(mu, nu):
    if mu.target.carriers != nu.source.carriers:
        raise ModelMismatch("the target of the first morphism is not the "
                            "source of the second")
    return InstanceMorphism(
        mu.source, nu.target,
        {d: compose_tables(t, nu.components[d])
         for d, t in mu.components.items()})


def _model_differences(x, y):
    """What differs between the models x and y, of their carriers,
    tight functions and spans: empty when an instance over one is an
    instance over the other."""
    return [label for part, label in (
        ("on_objects", "carriers"), ("on_tight", "tight functions"),
        ("on_loose", "spans"))
        if x is not y and getattr(x, part) != getattr(y, part)]


def _layout(h, k):
    """The layout of the search for instance morphisms h -> k: one
    variable ``(d, e)`` per element e of h at the object d, objects
    sorted, elements in label order; its values are the elements of k
    in the same label fibre, in label order.  So the search yields the
    morphisms sorted by their component tables."""
    components = []
    for d in sorted(h.model.theory.objects):
        # one value tuple per fibre, shared by the elements over it
        over = {b: tuple(es) for b, es in
                fibers(k.labels[d], k.carriers[d]).items()}
        components.append(((d,), {e: over.get(h.labels[d][e], ())
                                  for e in h.carriers[d]}))
    return Layout(components)


def _constraints(h, k):
    """The constraints of the search for instance morphisms h -> k:
    naturality at tight arrows and equivariance at loose arrows, each
    tagged with its report line.  Raises ``ModelMismatch`` when h and k
    live over models with different carriers, tight functions or spans."""
    differ = _model_differences(h.model, k.model)
    if differ:
        raise ModelMismatch("the instances live over models with different {}"
                            .format(", ".join(differ)))
    t = h.model.theory
    # each check is a table of k that sends the image of the first
    # element read to the image of the second: a tight cell, or the
    # action of one heteromorphism xi, split out of k's action at m once
    acting = {}
    for m, act in k.actions.items():
        for (u, xi), v in act.items():
            acting.setdefault((m, xi), {})[u] = v
    # tags are report lines
    constraints = [(((s, e), (d, h.tight_cells[f][e])), k.tight_cells[f],
                    ("naturality fails at tight arrow {} on {}", f, e))
                   for f, (s, d) in t.tight.items() for e in h.carriers[s]]
    constraints += [(((s, e), (d, h.actions[m][(e, xi)])),
                     acting.setdefault((m, xi), {}),
                     ("equivariance fails at {} on ({},{})", m, e, xi))
                    for m, (s, d) in t.loose.items()
                    for e, xi in h.action_domain(m)]
    return constraints


def enumerate_instance_morphisms(h, k):
    """All instance morphisms h -> k, sorted by component tables.

    Searched element by element in ``component_key`` order (see
    ``_layout``), so they come out of the search sorted.  Raises
    ``ModelMismatch`` when h and k live over different models.
    """
    constraints = _constraints(h, k)
    layout = _layout(h, k)
    return [InstanceMorphism._of(h, k, layout.tables(sol))
            for sol in compile(layout.domains, constraints).run()]


def find_instance_isomorphism(h, k):
    """The first isomorphism h -> k in sorted order (bijective
    components), or None.

    The search is the one of ``enumerate_instance_morphisms``, after a
    check that the label fibres have matching sizes, and rejects a
    repeated value within a label fibre as soon as it is assigned, so
    it returns the first bijective morphism instead of building the
    whole hom-set.
    """
    constraints = _constraints(h, k)
    groups = []
    for d in h.model.theory.objects:
        over_h = fibers(h.labels[d], h.carriers[d])
        over_k = fibers(k.labels[d], k.carriers[d])
        if {b: len(f) for b, f in over_h.items()} != \
                {b: len(f) for b, f in over_k.items()}:
            return None     # no bijection over the labels
        groups += [[(d, e) for e in f] for f in over_h.values()]
    constraints += distinct(groups)
    layout = _layout(h, k)
    for sol in compile(layout.domains, constraints).run():
        return InstanceMorphism._of(h, k, layout.tables(sol))
    return None


def restrict_instance(al, h):
    """Restriction of an instance along a model morphism (substitution).

    Carriers over the source model are the pullbacks
    (x, element of h over alpha(x)), named base element first; actions
    act on the second component through alpha and carry the base
    element along.  Raises ``ModelMismatch`` when h does not live over
    the target of the morphism: when their carriers, tight functions
    or spans differ.
    """
    x = al.source
    if _model_differences(h.model, al.target):
        raise ModelMismatch("instance does not live over the morphism's "
                            "target")
    t = x.theory
    carriers, labels, elems = {}, {}, {}
    for d in t.objects:
        over = fibers(h.labels[d], h.carriers[d])
        elems[d] = {pair_label(e, p): (e, p) for e in x.on_objects[d]
                    for p in over.get(al.on_objects[d][e], ())}
        carriers[d] = FiniteSet(elems[d])
        labels[d] = {lab: e for lab, (e, _) in elems[d].items()}
    tight_cells = {}
    for f, (s, d) in t.tight.items():
        tight_cells[f] = {
            lab: pair_label(x.on_tight[f][e], h.tight_cells[f][p])
            for lab, (e, p) in elems[s].items()}
    actions = {}
    for m, (s, d) in t.loose.items():
        sp = x.on_loose[m]
        apex_over = fibers(sp.left, sp.apex)
        actions[m] = {
            (lab, xi): pair_label(sp.right[xi],
                                  h.actions[m][(p, al.on_loose[m][xi])])
            for lab, (e, p) in elems[s].items()
            for xi in apex_over.get(e, ())}
    return Instance(x, carriers, labels, tight_cells, actions)
