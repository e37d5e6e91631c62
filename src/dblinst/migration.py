"""Data migration along model morphisms and comprehensive factorization.

Restriction is computed directly on the instance tables.  The two Kan
extensions are computed pointwise on the closed target collage, with
one relation (left) or constraint (right) per source collage
generator.  The source is read by structure and never closed or
named, so ``bound`` limits the target alone and a source whose
collage names clash is answered.  A morphism with a non-empty
``validate_model_morphism`` report raises ``InvalidMorphism``.

Comprehensive factorization splits a model morphism into an initial
morphism followed by a discrete opfibration.  The discrete-opfibration
reflection is the left pushforward of the terminal instance of the
source: one generator per upstairs element, with one relation per
source collage generator, on the same migration context.  Both
presented copresheaves are evaluated by one routine on the explicit
target category.
"""

from collections import Counter

from .collage import (_fibres_and_actions, _generators, _image,
                      close_presented_category, collage_object,
                      collage_of_model, copresheaf_to_instance)
from .elements import elements, is_discrete_opfibration
from .errors import (HomSetTooLarge, MiddleNotCartesian, NotCartesian,
                     NotDiscreteOpfibration, SelfCheckFailed,
                     SquareNotCommutative)
from .fincat import Copresheaf
from .finset import FiniteSet, pair_label
from .instance import restrict_instance
from .model import (ModelMorphism, MorphismSearch, _refuse_invalid,
                    compose_model_morphisms, enumerate_model_morphisms)
from .search import compile
from .words import DEFAULT_BOUND

DEFAULT_MAX_HOM_CARD = 10000


# ---------------------------------------------------------------------------
# pointwise Kan extensions of copresheaves along a functor
# ---------------------------------------------------------------------------

def _evaluate_presented(cat, generators, relations, name, key=None):
    """Evaluate a presented copresheaf on an explicit finite category.

    ``generators`` maps each generator to the object it sits over, and a
    relation ``(g1, w, g2)`` says that ``g1`` acted on by the morphism
    ``w`` is ``g2``.  The value at an object c is the set of pairs
    (g, m), with m a morphism from the location of g to c, modulo the
    congruence the relations generate: (g1, w;h) ~ (g2, h) for every h
    out of the target of w.  A morphism h acts by (g, m) -> (g, m;h).

    Each class is named ``name(g, m)`` after its least member under
    ``key``.  Returns the copresheaf and the naming of pairs.
    """
    out_of = {c: [] for c in cat.objects}
    for mor, (s, _) in cat.morphisms.items():
        out_of[s].append(mor)
    parent = {(g, mor): (g, mor)
              for g, loc in generators.items() for mor in out_of[loc]}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for g1, w, g2 in relations:
        for h in out_of[cat.dst(w)]:
            a, b = find((g1, cat.comp[(w, h)])), find((g2, h))
            if a != b:
                a, b = sorted((a, b), key=key)
                parent[b] = a

    def label(p):
        return name(*find(p))

    rep_of = {c: {} for c in cat.objects}
    for p, up in parent.items():
        if p == up:
            rep_of[cat.dst(p[1])][name(*p)] = p
    on_objects = {c: FiniteSet(reps) for c, reps in rep_of.items()}
    on_morphisms = {h: {lab: label((g, cat.comp[(mor, h)]))
                        for lab, (g, mor) in rep_of[hs].items()}
                    for h, (hs, _) in cat.morphisms.items()}
    return _checked(Copresheaf(cat, on_objects, on_morphisms),
                    "left extension"), label


def _extend_left(cat, along, names, values, tables, max_hom_card):
    """``kan_extend_left`` along F given on generators: ``along`` holds Fc
    by c, and (c, c') and Fu by u: c -> c'; ``names`` writes c into
    class names and orders by it, ties broken by c; ``values`` and
    ``tables`` hold cp(c) and cp(u)."""
    image, sides, arrows = along
    generators = {(c, v): image[c] for c in image for v in values[c]}
    over = Counter(generators.values())
    raw = Counter()
    for gs, gd in cat.morphisms.values():
        raw[gd] += over[gs]
    for d in cat.objects:
        if raw[d] > max_hom_card:
            raise HomSetTooLarge(
                "left extension at {} has {} raw elements".format(d, raw[d]))
    relations = [((us, v), arrows[u], (ud, tables[u][v]))
                 for u, (us, ud) in sides.items() for v in values[us]]
    out, _ = _evaluate_presented(
        cat, generators, relations,
        lambda g, mor: "[{}|{}|{}]".format(names[g[0]], mor, g[1]),
        key=lambda p: (names[p[0][0]], p[0][0], p[1], p[0][1]))
    return out


def _extend_right(cat, along, names, values, tables, max_hom_card):
    """``kan_extend_right`` on the data of ``_extend_left``."""
    image, sides, arrows = along
    hom = {}
    for g, ends in cat.morphisms.items():
        hom.setdefault(ends, []).append(g)
    families = {}
    slot_lists = {}
    for d in cat.objects:
        slots = sorted(((c, g) for c, loc in image.items()
                        for g in hom.get((d, loc), ())),
                       key=lambda s: (names[s[0]], s))
        slot_lists[d] = slots
        # the value at (us, g) pushed along u is the value at (ud, g;Fu)
        constraints = [(((us, g), (ud, cat.comp[(g, arrows[u])])), tables[u])
                       for u, (us, ud) in sides.items()
                       for g in hom.get((d, image[us]), ())]
        found = []
        # a solution lists a value per slot in slot order: it is the family
        for fam in compile([(s, values[s[0]]) for s in slots],
                           constraints).run():
            found.append(fam)
            if len(found) > max_hom_card:
                raise HomSetTooLarge(
                    "right extension at {} exceeds the family cap".format(d))
        families[d] = found

    def label(fam):
        return "[" + "|".join(fam) + "]" if fam else "[()]"

    on_objects = {d: FiniteSet([label(f) for f in families[d]])
                  for d in cat.objects}
    on_morphisms = {}
    for h, (hs, hd) in cat.morphisms.items():
        members = set(families[hd])
        table = {}
        for fam in families[hs]:
            lookup = dict(zip(slot_lists[hs], fam))
            new = tuple(lookup[(c, cat.comp[(h, g)])]
                        for (c, g) in slot_lists[hd])
            if new not in members:
                raise SelfCheckFailed(
                    "right extension: {} sends a family at {} outside the "
                    "families at {}".format(h, hs, hd))
            table[label(fam)] = label(new)
        on_morphisms[h] = table
    return _checked(Copresheaf(cat, on_objects, on_morphisms),
                    "right extension")


def _checked(out, what):
    """``out`` if it is a copresheaf; SelfCheckFailed otherwise."""
    problems = out.validate()
    if problems:
        raise SelfCheckFailed("{} is not a copresheaf: {}".format(
            what, "; ".join(problems[:3])))
    return out


def kan_extend_left(fun, cp, max_hom_card=DEFAULT_MAX_HOM_CARD):
    """Pointwise left Kan extension of a copresheaf along a functor.

    The extension is the copresheaf on the target category presented by
    one generator (c, v) over Fc for every value v in cp(c), with the
    relation (c, v)·Fu = (c', u·v) for every source arrow u: c -> c'.
    Its value at d is the colimit over the comma category of arrows
    into d from the image: the triples (c, g: Fc -> d, v) modulo the
    congruence the relations generate.  Each class is named
    ``[c|g|v]`` after its least triple.  More than ``max_hom_card``
    triples at one object raise ``HomSetTooLarge``.  Relations along
    generating arrows alone generate the same congruence.
    """
    along = fun.on_objects, fun.source.morphisms, fun.on_morphisms
    return _extend_left(fun.target, along, {c: c for c in fun.on_objects},
                        cp.on_objects, cp.on_morphisms, max_hom_card)


def kan_extend_right(fun, cp, max_hom_card=DEFAULT_MAX_HOM_CARD):
    """Pointwise right Kan extension of a copresheaf along a functor.

    The value at d is the set of compatible families: a choice of value
    in cp(c) for every slot, an arrow g: d -> Fc, commuting with every
    arrow of the source category.  The families are searched with one
    variable per slot, slots sorted and values in label order, so they
    come out of the search in sorted order; more than ``max_hom_card``
    families at one object raise ``HomSetTooLarge``.  Commuting with
    generating arrows alone leaves the same families.
    """
    along = fun.on_objects, fun.source.morphisms, fun.on_morphisms
    return _extend_right(fun.target, along, {c: c for c in fun.on_objects},
                         cp.on_objects, cp.on_morphisms, max_hom_card)


# ---------------------------------------------------------------------------
# migration of instances along a model morphism
# ---------------------------------------------------------------------------

class MigrationContext:
    """The closed target collage and the collage functor on generators,
    shared by the migrations along one model morphism.  ``along`` holds
    the image of each source collage object, keyed by (object,
    element), and the endpoints and image class of each source
    generator, keyed by (kind, arrow, element); ``names`` writes a
    source object into class names and slot orders.  An invalid
    morphism raises ``InvalidMorphism``."""

    def __init__(self, al, bound=DEFAULT_BOUND,
                 max_hom_card=DEFAULT_MAX_HOM_CARD):
        _refuse_invalid(al)
        self.max_hom_card = max_hom_card
        self.closure_tgt = close_presented_category(
            collage_of_model(al.target), bound)
        x = al.source
        image = {(d, e): collage_object(d, al.on_objects[d][e])
                 for d in x.theory.objects for e in x.on_objects[d]}
        sides, arrows = {}, {}
        for g, src, dst in _generators(x):
            sides[g] = src, dst
            arrows[g] = self.closure_tgt.word_class(image[src],
                                                    (_image(al, *g),))
        self.along = image, sides, arrows
        self.names = {c: collage_object(*c) for c in image}


def migrate_pullback(al, h, context=None, bound=DEFAULT_BOUND):
    """Restriction of an instance along a model morphism.

    Restriction needs no closed collage: it is ``restrict_instance``.
    ``context`` and ``bound`` are accepted so that the three migrations
    share one signature.
    """
    return restrict_instance(al, h)


def migrate_lan(al, h, context=None, bound=DEFAULT_BOUND):
    """Left pushforward of an instance along a model morphism."""
    ctx = context or MigrationContext(al, bound)
    ext = _extend_left(ctx.closure_tgt.category, ctx.along, ctx.names,
                       *_fibres_and_actions(h), ctx.max_hom_card)
    return copresheaf_to_instance(ext, al.target, ctx.closure_tgt)


def migrate_ran(al, h, context=None, bound=DEFAULT_BOUND):
    """Right pushforward of an instance along a model morphism."""
    ctx = context or MigrationContext(al, bound)
    ext = _extend_right(ctx.closure_tgt.category, ctx.along, ctx.names,
                        *_fibres_and_actions(h), ctx.max_hom_card)
    return copresheaf_to_instance(ext, al.target, ctx.closure_tgt)


# ---------------------------------------------------------------------------
# discrete-opfibration reflection and comprehensive factorization
# ---------------------------------------------------------------------------

def reflect_into_dopf(f, bound=DEFAULT_BOUND):
    """Reflect a model morphism into an instance of its target.

    The reflection is the left pushforward of the terminal instance of
    the source: on the closed target collage of the ``MigrationContext``
    of ``f``, one generator per upstairs element, over its image, and
    one relation per source collage generator.  Evaluation quotients
    the pairs (generator, morphism out of its location) by the
    congruence the relations generate.  An invalid morphism raises
    ``InvalidMorphism``.

    Returns (instance over the target, closed target collage,
    class-of-generator lookup).
    """
    ctx = MigrationContext(f, bound)
    image, sides, arrows = ctx.along
    cat = ctx.closure_tgt.category
    cp, label = _evaluate_presented(
        cat, image,
        [(src, arrows[g], dst) for g, (src, dst) in sides.items()],
        lambda g, mor: "[{}.{}|{}]".format(g[0], g[1], mor))
    inst = copresheaf_to_instance(cp, f.target, ctx.closure_tgt)
    gen_class = {(d, e): pair_label(f.on_objects[d][e],
                                    label(((d, e), cat.identity[loc])))
                 for (d, e), loc in image.items()}
    return inst, ctx.closure_tgt, gen_class


class Factorization:
    """A model morphism split as an initial morphism followed by a
    discrete opfibration, with the lifting witness."""

    def __init__(self, original, middle, initial, opfibration, witness):
        self.original = original
        self.middle = middle
        self.initial = initial
        self.opfibration = opfibration
        self.witness = witness


def comprehensive_factorize(f, bound=DEFAULT_BOUND):
    """Factor a model morphism through the elements of its reflection."""
    x = f.source
    t = x.theory
    inst, _, gen_class = reflect_into_dopf(f, bound)
    middle, pi, witness = elements(inst)
    on_objects = {d: {e: gen_class[(d, e)] for e in x.on_objects[d]}
                  for d in t.objects}
    on_loose = {}
    for m, (s, _) in t.loose.items():
        sp = x.on_loose[m]
        on_loose[m] = {
            xi: pair_label(on_objects[s][sp.left[xi]], f.on_loose[m][xi])
            for xi in sp.apex}
    unit = ModelMorphism(x, middle, on_objects, on_loose)
    composite = compose_model_morphisms(unit, pi)
    if composite.on_objects != f.on_objects \
            or composite.on_loose != f.on_loose:
        raise SelfCheckFailed("factorization does not recompose to the input")
    return Factorization(f, middle, unit, pi, witness)


def cartesian_factorize(f, bound=DEFAULT_BOUND):
    """Comprehensive factorization with a cartesian middle object.

    Both endpoints must be cartesian-valid; the middle object is
    certified cartesian after the fact.
    """
    from .cartesian import validate_cartesian_model
    for side, model in (("source", f.source), ("target", f.target)):
        report = validate_cartesian_model(model)
        if report:
            raise NotCartesian("{} is not cartesian: {}".format(
                side, "; ".join(report[:3])))
    fac = comprehensive_factorize(f, bound)
    report = validate_cartesian_model(fac.middle)
    if report:
        raise MiddleNotCartesian("; ".join(report[:3]))
    return fac


# ---------------------------------------------------------------------------
# orthogonality testing
# ---------------------------------------------------------------------------

class LiftingProblem:
    """A commutative square from a candidate-initial morphism to a
    discrete opfibration: top into the opfibration's domain, bottom out
    of the candidate's codomain."""

    def __init__(self, left, right, top, bottom):
        self.left = left          # e : X -> E
        self.right = right        # q : A -> B
        self.top = top            # u : X -> A
        self.bottom = bottom      # v : E -> B
        if compose_model_morphisms(left, bottom) != \
                compose_model_morphisms(top, right):
            raise SquareNotCommutative(
                "square against {} does not commute".format(right))

    def fillers(self):
        """The fillers w: E -> A, with e;w = u and w;q = v, in the order
        of ``enumerate_model_morphisms``.

        Searched over the base: each element of E takes its values in
        the q-fibre over its v-image, and an element in the image of e
        only the value u gives its preimages, so no other morphism
        E -> A is built or composed.
        """
        search = MorphismSearch(self.left.target, self.right.source,
                                over=self.right)
        return list(search.morphisms(base=self.bottom,
                                     pin=(self.left, self.top)))


def check_initial(e, dopf_corpus):
    """Test a morphism for initiality against a corpus of discrete
    opfibrations: every commutative square must have exactly one filler.

    For each corpus entry q and each top u, the bottoms v that make the
    square commute are searched with v pinned to u;q on the image of e,
    and the fillers of each square are searched over the base and
    counted as they stream (see ``LiftingProblem.fillers``).  Squares
    are met tops first, then bottoms, both in search order.  Each
    search is compiled once and run for every square: the bottoms
    search once per distinct corpus base (the same object), the lifts
    search once per corpus entry.

    The corpus is a sound but incomplete surrogate for the full class;
    an empty report means no violation was found.
    """
    report = []
    # corpus base -> its bottoms search; a SpanModel hashes by identity
    bottoms_over = {}
    for i, q in enumerate(dopf_corpus):
        check = is_discrete_opfibration(q)
        if not check.ok:
            raise NotDiscreteOpfibration(
                "corpus entry {} is not a discrete opfibration; "
                "counterexample {}".format(i, check.counterexample))
        if q.target not in bottoms_over:
            bottoms_over[q.target] = MorphismSearch(e.target, q.target)
        bottoms = bottoms_over[q.target]
        lifts = MorphismSearch(e.target, q.source, over=q)
        for u in enumerate_model_morphisms(e.source, q.source):
            uq = compose_model_morphisms(u, q)
            for v in bottoms.morphisms(pin=(e, uq)):
                n = lifts.count(base=v, pin=(e, u))
                if n != 1:
                    report.append("square against {} has {} fillers"
                                  .format(q, n))
    return report
