"""The equivalence between instances and discrete opfibrations.

``elements`` turns an instance into a model fibered over the base by
pulling back heteromorphisms along the carrier labellings; its
projection has unique lifts by construction.  ``nabla`` reads an
instance back off a discrete opfibration through the witness
bijections.  Both directions are direct formulas on pairs, no search.
"""

from .errors import NoExtension, NotDiscreteOpfibration, PartialMorphism
from .finset import FiniteSet, Span, fibers, pair_label, pullback_pairs
from .instance import Instance
from .model import (ModelMorphism, SpanModel, _refuse_invalid,
                    validate_model_morphism)


class DopfWitness:
    """Pullback certificates for a discrete opfibration of models.

    For each loose arrow m, ``bijections[m]`` maps a pair (base
    heteromorphism, upstairs element over its source) to the unique
    upstairs heteromorphism lifting it.
    """

    def __init__(self, morphism, bijections):
        self.morphism = morphism
        self.bijections = {m: dict(t) for m, t in bijections.items()}

    def validate(self):
        p = self.morphism
        e_model, b_model = p.source, p.target
        t = e_model.theory
        report = []
        for m, (s, d) in t.loose.items():
            esp, bsp = e_model.on_loose[m], b_model.on_loose[m]
            table = self.bijections.get(m)
            over = fibers(p.on_objects[s], e_model.on_objects[s])
            wanted = {(b, e) for b in bsp.apex
                      for e in over.get(bsp.left[b], ())}
            if table is None or set(table.keys()) != wanted:
                report.append("witness at {} not total on the pullback".format(m))
                continue
            if sorted(table.values()) != sorted(esp.apex):
                report.append("witness at {} not bijective".format(m))
                continue
            for (b, e), lift in table.items():
                if esp.left[lift] != e or p.on_loose[m][lift] != b:
                    report.append("witness at {} does not lift ({},{})"
                                  .format(m, b, e))
        return report


class DopfCheck:
    """Result of the discrete-opfibration predicate."""

    def __init__(self, ok, witness, counterexample):
        self.ok = ok
        self.witness = witness
        self.counterexample = counterexample


def is_discrete_opfibration(p):
    """Check unique lifting of heteromorphisms along lifted sources.

    Returns a DopfCheck: on success the witness records the lift of
    every (base heteromorphism, source element over its source); on
    failure the counterexample is (m, heteromorphism, element, lifts).
    Raises PartialMorphism when a component leaves an element out.
    """
    e_model, b_model = p.source, p.target
    t = e_model.theory
    components = [("object", d, p.on_objects.get(d), e_model.on_objects[d])
                  for d in t.objects]
    components += [("loose arrow", m, p.on_loose.get(m),
                     e_model.on_loose[m].apex) for m in t.loose]
    for kind, name, table, carrier in components:
        if table is None or any(e not in table for e in carrier):
            raise PartialMorphism(
                "component at {} {} not total".format(kind, name))
    bijections = {}
    for m, (s, d) in t.loose.items():
        esp, bsp = e_model.on_loose[m], b_model.on_loose[m]
        # upstairs elements by their image, upstairs heteromorphisms by
        # (projection, left leg)
        over = fibers(p.on_objects[s], e_model.on_objects[s])
        lifts = fibers({em: (p.on_loose[m][em], esp.left[em])
                        for em in esp.apex}, esp.apex)
        table = {}
        for b in bsp.apex:
            for e in over.get(bsp.left[b], ()):
                found = lifts.get((b, e), [])
                if len(found) != 1:
                    return DopfCheck(False, None, (m, b, e, found))
                table[(b, e)] = found[0]
        if len(table) != len(esp.apex):
            # some upstairs heteromorphism is not a lift of anything
            lifted = set(table.values())
            extra = [em for em in esp.apex if em not in lifted]
            return DopfCheck(False, None, (m, None, None, extra))
        bijections[m] = table
    return DopfCheck(True, DopfWitness(p, bijections), None)


def elements(p_inst):
    """The model of elements of an instance with its projection.

    Returns (model, projection morphism, witness).  The loose carriers
    are the action domains (element, base heteromorphism) in canonical
    pair order; cells, laxators and unitors are the unique solutions
    over the base.
    """
    x = p_inst.model
    t = x.theory
    h = p_inst
    on_objects = {d: h.carriers[d] for d in t.objects}
    on_tight = {f: dict(h.tight_cells[f]) for f in t.tight}
    # each action domain is joined once; its pairs name the apex
    doms = {m: h.action_domain(m) for m in t.loose}
    names = {m: [pair_label(e, b) for (e, b) in dom]
             for m, dom in doms.items()}
    on_loose, proj_loose = {}, {}
    for m, (s, d) in t.loose.items():
        dom, labels = doms[m], names[m]
        apex = FiniteSet(labels)
        act = h.actions[m]
        left = {lab: e for lab, (e, _) in zip(labels, dom)}
        right = {lab: act[pair] for lab, pair in zip(labels, dom)}
        on_loose[m] = Span(on_objects[s], on_objects[d], apex, left, right)
        proj_loose[m] = {lab: b for lab, (_, b) in zip(labels, dom)}
    on_cells = {}
    for a, (f, g, m, n) in t.cells.items():
        tf, cell = h.tight_cells[f], x.on_cells[a]
        on_cells[a] = {lab: pair_label(tf[e], cell[b])
                       for lab, (e, b) in zip(names[m], doms[m])}
    laxators = {}
    for (m, n), mn in t.loose_comp.items():
        sp_m, lax = on_loose[m], x.laxators[(m, n)]
        proj_m, proj_n = proj_loose[m], proj_loose[n]
        laxators[(m, n)] = {
            (em, en): pair_label(sp_m.left[em], lax[(proj_m[em], proj_n[en])])
            for em, en in pullback_pairs(sp_m, on_loose[n])}
    unitors = {d: {e: pair_label(e, x.unitors[d][h.labels[d][e]])
                   for e in h.carriers[d]}
               for d in t.objects}
    e_model = SpanModel(t, on_objects, on_tight, on_loose, on_cells,
                        laxators, unitors)
    pi = ModelMorphism(e_model, x,
                       {d: dict(h.labels[d]) for d in t.objects}, proj_loose)
    bijections = {m: {(b, e): lab for lab, (e, b) in zip(names[m], doms[m])}
                  for m in t.loose}
    return e_model, pi, DopfWitness(pi, bijections)


def _checked_witness(p, witness):
    """The witness of p: computed when None, else validated once.
    Raises NotDiscreteOpfibration when p or the witness fails."""
    if witness is None:
        check = is_discrete_opfibration(p)
        if not check.ok:
            raise NotDiscreteOpfibration(str(check.counterexample))
        return check.witness
    problems = witness.validate()
    if problems:
        raise NotDiscreteOpfibration("; ".join(problems))
    return witness


def nabla(p, witness=None):
    """The instance of the base read off a discrete opfibration."""
    return _instance_of(p, _checked_witness(p, witness))


def _instance_of(p, witness):
    """The instance read off p through a checked witness."""
    e_model, b_model = p.source, p.target
    t = e_model.theory
    carriers = {d: e_model.on_objects[d] for d in t.objects}
    labels = {d: dict(p.on_objects[d]) for d in t.objects}
    tight_cells = {f: dict(e_model.on_tight[f]) for f in t.tight}
    actions = {}
    for m in t.loose:
        actions[m] = {
            (e, b): e_model.on_loose[m].right[lift]
            for (b, e), lift in witness.bijections[m].items()}
    return Instance(b_model, carriers, labels, tight_cells, actions)


def dopf_morphism_from_objects(p, q, witness_q, on_objects):
    """Extend object components to a morphism of discrete opfibrations.

    The loose components are forced: the image of an upstairs
    heteromorphism is the unique q-lift of its projection at the mapped
    source.  Raises NoExtension when the result is not a morphism or
    does not commute with the projections.
    """
    e_model, f_model = p.source, q.source
    t = e_model.theory
    for d in t.objects:
        for e in e_model.on_objects[d]:
            if q.on_objects[d][on_objects[d][e]] != p.on_objects[d][e]:
                raise NoExtension(
                    "object component at {} does not commute at {}".format(d, e))
    on_loose = {}
    for m, (s, _) in t.loose.items():
        table = {}
        for em in e_model.on_loose[m].apex:
            b = p.on_loose[m][em]
            e = e_model.on_loose[m].left[em]
            key = (b, on_objects[s][e])
            if key not in witness_q.bijections[m]:
                raise NoExtension(
                    "no lift of {} at the mapped source {}".format(b, key[1]))
            table[em] = witness_q.bijections[m][key]
        on_loose[m] = table
    mor = ModelMorphism(e_model, f_model, on_objects, on_loose)
    problems = validate_model_morphism(mor)
    if problems:
        raise NoExtension("; ".join(problems[:3]))
    return mor


def canonical_elements_comparison(p, witness=None):
    """The canonical isomorphism elements(nabla(p)) -> source of p.

    Identity on objects; on a loose apex it sends the pair (element,
    base heteromorphism) to the witnessed lift.  The pairs and their
    apex labels are read off the witness that ``elements`` returns.
    """
    witness = _checked_witness(p, witness)
    e2, pi2, w2 = elements(_instance_of(p, witness))
    t = p.source.theory
    on_objects = {d: {e: e for e in e2.on_objects[d]} for d in t.objects}
    on_loose = {m: {lab: witness.bijections[m][pair]
                    for pair, lab in w2.bijections[m].items()}
                for m in t.loose}
    return ModelMorphism(e2, p.source, on_objects, on_loose), e2, pi2


def kappa_creates_dopf_check(p, bound=6):
    """Compare the model-level predicate with the classical one on the
    collage functor; the two must agree.  An invalid morphism raises
    ``InvalidMorphism``."""
    from .collage import (close_presented_category, collage_of_model,
                          collage_of_morphism)
    _refuse_invalid(p)
    model_level = is_discrete_opfibration(p).ok
    cl_e = close_presented_category(collage_of_model(p.source), bound)
    cl_b = close_presented_category(collage_of_model(p.target), bound)
    fun = collage_of_morphism(p, cl_e, cl_b)
    classical, _ = fun.is_classical_dopf()
    return model_level, classical
