"""The collage of a model: a finitely presented category whose
copresheaves are the instances.

Objects are the elements of the model's carriers.  Morphisms are
generated by the tight-arrow images (one generator per non-identity
tight arrow and source element) and by the heteromorphisms (one
generator per loose arrow and apex element), modulo four relation
classes: tight composition, laxator triangles, cell squares, and the
collapse of unitor images to identities.
"""

from .finset import FiniteSet, pair_label
from .fincat import Copresheaf
from .instance import Instance
from .words import ClosedWordCategory


def collage_object(d, x):
    return "{}|{}".format(d, x)


def tight_gen(f, x):
    return "t{" + "{}@{}".format(f, x) + "}"


def het_gen(m, xi):
    return "h{" + "{}@{}".format(m, xi) + "}"


class PresentedCategory:
    def __init__(self, objects, generators, relations):
        self.objects = list(objects)
        # name -> (src, dst, kind) with kind in {"tight", "het", "plain"}
        self.generators = dict(generators)
        # (src, dst, word1, word2)
        self.relations = list(relations)

    def generator_endpoints(self):
        return {g: (s, d) for g, (s, d, _) in self.generators.items()}


def collage_of_model(x):
    """The presented category of elements-and-heteromorphisms of a model."""
    t = x.theory
    objects = [collage_object(d, e)
               for d in t.objects for e in x.on_objects[d]]
    tight_ids = set(t.tight_id.values())

    generators = {}
    for f, (s, d) in t.tight.items():
        if f in tight_ids:
            continue
        for e in x.on_objects[s]:
            generators[tight_gen(f, e)] = (
                collage_object(s, e),
                collage_object(d, x.on_tight[f][e]), "tight")
    for m, (s, d) in t.loose.items():
        sp = x.on_loose[m]
        for xi in sp.apex:
            generators[het_gen(m, xi)] = (
                collage_object(s, sp.left[xi]),
                collage_object(d, sp.right[xi]), "het")

    def tight_word(f, e):
        return () if f in tight_ids else (tight_gen(f, e),)

    relations = []

    def add(src, dst, w1, w2):
        if tuple(w1) != tuple(w2):
            relations.append((src, dst, tuple(w1), tuple(w2)))

    # (1) tight composition
    for (f, g), fg in t.tight_comp.items():
        s = t.tight_src(f)
        for e in x.on_objects[s]:
            mid = x.on_tight[f][e]
            add(collage_object(s, e),
                collage_object(t.tight_dst(g), x.on_tight[fg][e]),
                tight_word(f, e) + tight_word(g, mid),
                tight_word(fg, e))
    # (2) laxator triangles
    for (m, n), mn in t.loose_comp.items():
        spm, spn = x.on_loose[m], x.on_loose[n]
        for (xi, zeta) in x.laxator_domain(m, n):
            add(collage_object(t.loose_src(m), spm.left[xi]),
                collage_object(t.loose_dst(n), spn.right[zeta]),
                (het_gen(m, xi), het_gen(n, zeta)),
                (het_gen(mn, x.laxators[(m, n)][(xi, zeta)]),))
    # (3) cell squares
    for a, (f, g, m, n) in t.cells.items():
        spm = x.on_loose[m]
        for xi in spm.apex:
            add(collage_object(t.loose_src(m), spm.left[xi]),
                collage_object(t.tight_dst(g), x.on_tight[g][spm.right[xi]]),
                (het_gen(m, xi),) + tight_word(g, spm.right[xi]),
                tight_word(f, spm.left[xi]) + (het_gen(n, x.on_cells[a][xi]),))
    # (4) unitor images collapse to identities
    for d in t.objects:
        lid = t.loose_id[d]
        for e in x.on_objects[d]:
            add(collage_object(d, e), collage_object(d, e),
                (het_gen(lid, x.unitors[d][e]),), ())

    seen, unique = set(), []
    for r in relations:
        if r not in seen:
            seen.add(r)
            unique.append(r)
    return PresentedCategory(objects, generators, unique)


def close_presented_category(p, bound, max_classes=10000):
    """Close a presented category to an explicit finite one.

    Returns the closure object; its ``category`` attribute is the
    FinCategory, and ``word_class`` maps generator words to morphisms.
    """
    return ClosedWordCategory(p.objects, p.generator_endpoints(),
                              p.relations, bound, max_classes)


def instance_to_copresheaf(h, closure):
    """The copresheaf on the closed collage with the carrier fibers as
    values and generator actions read off the instance."""
    x = h.model
    t = x.theory
    cat = closure.category
    on_objects, fibers = {}, {}
    for d in t.objects:
        for e in x.on_objects[d]:
            fiber = [p for p in h.carriers[d] if h.labels[d][p] == e]
            on_objects[collage_object(d, e)] = FiniteSet(fiber)
            fibers[collage_object(d, e)] = fiber

    # one table per generator, built with the loops of collage_of_model
    steps = {}
    tight_ids = set(t.tight_id.values())
    for f, (s, _) in t.tight.items():
        if f in tight_ids:
            continue
        for e in x.on_objects[s]:
            steps[tight_gen(f, e)] = h.tight_cells[f]
    for m, (s, _) in t.loose.items():
        sp = x.on_loose[m]
        for xi in sp.apex:
            steps[het_gen(m, xi)] = {
                p: h.actions[m][(p, xi)]
                for p in fibers[collage_object(s, sp.left[xi])]}

    on_morphisms = {}
    for mor, (s, d) in cat.morphisms.items():
        src, word = closure.rep_words[mor]
        table = {p: p for p in fibers[s]}
        for g in word:
            step = steps[g]
            table = {p: step[v] for p, v in table.items()}
        on_morphisms[mor] = table
    return Copresheaf(cat, on_objects, on_morphisms)


def copresheaf_to_instance(c, x, closure):
    """Sum the fibers of a copresheaf on the closed collage back into an
    instance of the model; elements are (base element, value) pairs."""
    t = x.theory
    carriers, labels = {}, {}
    for d in t.objects:
        elems, lab = [], {}
        for e in x.on_objects[d]:
            for v in c.on_objects[collage_object(d, e)]:
                name = pair_label(e, v)
                elems.append(name)
                lab[name] = e
        carriers[d] = FiniteSet(elems)
        labels[d] = lab
    tight_ids = set(t.tight_id.values())
    tight_cells = {}
    for f, (s, d) in t.tight.items():
        table = {}
        for e in x.on_objects[s]:
            if f in tight_ids:
                word = ()
            else:
                word = (tight_gen(f, e),)
            mor = closure.word_class(collage_object(s, e), word)
            for v in c.on_objects[collage_object(s, e)]:
                table[pair_label(e, v)] = pair_label(
                    x.on_tight[f][e], c.on_morphisms[mor][v])
        tight_cells[f] = table
    actions = {}
    for m, (s, d) in t.loose.items():
        sp = x.on_loose[m]
        table = {}
        for xi in sp.apex:
            e = sp.left[xi]
            mor = closure.word_class(collage_object(s, e), (het_gen(m, xi),))
            for v in c.on_objects[collage_object(s, e)]:
                table[(pair_label(e, v), xi)] = pair_label(
                    sp.right[xi], c.on_morphisms[mor][v])
        actions[m] = table
    return Instance(x, carriers, labels, tight_cells, actions)


def collage_object_map(al):
    """Object assignment of the collage of a model morphism."""
    x = al.source
    return {collage_object(d, e): collage_object(d, al.on_objects[d][e])
            for d in x.theory.objects for e in x.on_objects[d]}


def collage_generator_map(al):
    """Generator assignment of the collage of a model morphism: words in
    the target presentation (empty for collapsed identities)."""
    x, y = al.source, al.target
    t = x.theory
    tight_ids = set(t.tight_id.values())
    out = {}
    for f, (s, d) in t.tight.items():
        if f in tight_ids:
            continue
        for e in x.on_objects[s]:
            out[tight_gen(f, e)] = (tight_gen(f, al.on_objects[s][e]),)
    for m in t.loose:
        for xi in x.on_loose[m].apex:
            out[het_gen(m, xi)] = (het_gen(m, al.on_loose[m][xi]),)
    return out


def collage_of_morphism(al, closure_src, closure_tgt):
    """The functor between closed collages induced by a model morphism.

    Generators go to the cited images; the word engine evaluates them to
    morphism classes of the target collage.
    """
    from .fincat import FinFunctor
    obj_map = collage_object_map(al)
    gen_map = collage_generator_map(al)
    cat = closure_src.category
    on_morphisms = {}
    for mor in cat.morphisms:
        src, word = closure_src.rep_words[mor]
        image = []
        for g in word:
            image.extend(gen_map[g])
        on_morphisms[mor] = closure_tgt.word_class(obj_map[src], tuple(image))
    fun = FinFunctor(cat, closure_tgt.category, obj_map, on_morphisms)
    problems = fun.validate()
    assert not problems, "collage of a morphism is not functorial: {}".format(
        problems[:3])
    return fun
