"""The collage of a model: a finitely presented category whose
copresheaves are the instances.

Objects are the elements of the model's carriers.  Morphisms are
generated by the tight-arrow images (one generator per non-identity
tight arrow and source element) and by the heteromorphisms (one
generator per loose arrow and apex element), modulo four relation
classes: tight composition, laxator triangles, cell squares, and the
collapse of unitor images to identities.

Objects are named ``d|e`` and generators ``t{f@e}`` and ``h{m@xi}``;
``_generators`` gives each generator by (kind, arrow, element).
"""

from .errors import NameClash, SelfCheckFailed
from .finset import FiniteSet, fibers, pair_label
from .fincat import Copresheaf
from .instance import Instance
from .words import DEFAULT_MAX_CLASSES, ClosedWordCategory


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


def _generators(x):
    """Each collage generator of a model, in presentation order, as
    ((kind, arrow, element), source, target): the source and the target
    are (object, element) pairs."""
    t = x.theory
    tight_ids = set(t.tight_id.values())
    for f, (s, d) in t.tight.items():
        if f in tight_ids:
            continue
        image = x.on_tight[f]
        for e in x.on_objects[s]:
            yield ("tight", f, e), (s, e), (d, image[e])
    for m, (s, d) in t.loose.items():
        sp = x.on_loose[m]
        for xi in sp.apex:
            yield ("het", m, xi), (s, sp.left[xi]), (d, sp.right[xi])


def _generator_name(kind, arrow, element):
    return (tight_gen if kind == "tight" else het_gen)(arrow, element)


def _image(al, kind, arrow, element):
    """The name of the target collage generator that a model morphism
    sends the source generator of (kind, arrow, element) to."""
    if kind == "tight":
        s = al.source.theory.tight_src(arrow)
        return tight_gen(arrow, al.on_objects[s][element])
    return het_gen(arrow, al.on_loose[arrow][element])


class _Names(dict):
    """Names formatted once each, keyed by structure.  A key outside
    the table, which only an invalid model's value can give, is
    formatted on the spot."""

    def __init__(self, name):
        super().__init__()
        self._name = name

    def __missing__(self, key):
        return self._name(*key)


def collage_of_model(x):
    """The presented category of elements-and-heteromorphisms of a model.
    Raises NameClash when two objects or two generators get one name,
    which a ``|`` or an ``@`` can cause.  Each object name is formatted
    once, keyed by (object, element), and each generator name once,
    keyed by (kind, arrow, element); relations read both tables."""
    t = x.theory
    obj = _Names(collage_object)
    for d in t.objects:
        for e in x.on_objects[d]:
            obj[(d, e)] = collage_object(d, e)
    objects = list(obj.values())
    if len(set(objects)) != len(objects):
        clash = next(o for o in objects if objects.count(o) > 1)
        raise NameClash("two collage objects are named {}".format(clash))
    gen = _Names(_generator_name)
    generators = {}
    for key, src, dst in _generators(x):
        g = gen[key] = _generator_name(*key)
        if g in generators:
            raise NameClash("two collage generators are named {}".format(g))
        generators[g] = (obj[src], obj[dst], key[0])
    tight_ids = set(t.tight_id.values())

    def tight_word(f, e):
        return () if f in tight_ids else (gen[("tight", f, e)],)

    relations = []

    def add(src, dst, w1, w2):
        if w1 != w2:
            relations.append((src, dst, w1, w2))

    # (1) tight composition
    for (f, g), fg in t.tight_comp.items():
        s = t.tight_src(f)
        for e in x.on_objects[s]:
            mid = x.on_tight[f][e]
            add(obj[(s, e)], obj[(t.tight_dst(g), x.on_tight[fg][e])],
                tight_word(f, e) + tight_word(g, mid),
                tight_word(fg, e))
    # (2) laxator triangles
    for (m, n), mn in t.loose_comp.items():
        spm, spn = x.on_loose[m], x.on_loose[n]
        for (xi, zeta) in x.laxator_domain(m, n):
            add(obj[(t.loose_src(m), spm.left[xi])],
                obj[(t.loose_dst(n), spn.right[zeta])],
                (gen[("het", m, xi)], gen[("het", n, zeta)]),
                (gen[("het", mn, x.laxators[(m, n)][(xi, zeta)])],))
    # (3) cell squares
    for a, (f, g, m, n) in t.cells.items():
        spm = x.on_loose[m]
        for xi in spm.apex:
            left, right = spm.left[xi], spm.right[xi]
            add(obj[(t.loose_src(m), left)],
                obj[(t.tight_dst(g), x.on_tight[g][right])],
                (gen[("het", m, xi)],) + tight_word(g, right),
                tight_word(f, left) + (gen[("het", n, x.on_cells[a][xi])],))
    # (4) unitor images collapse to identities
    for d in t.objects:
        lid = t.loose_id[d]
        for e in x.on_objects[d]:
            o = obj[(d, e)]
            add(o, o, (gen[("het", lid, x.unitors[d][e])],), ())

    return PresentedCategory(objects, generators,
                             list(dict.fromkeys(relations)))


def close_presented_category(p, bound, max_classes=DEFAULT_MAX_CLASSES):
    """Close a presented category to an explicit finite one.

    Returns the closure object; its ``category`` attribute is the
    FinCategory, and ``word_class`` maps generator words to morphisms.
    """
    return ClosedWordCategory(p.objects, p.generator_endpoints(),
                              p.relations, bound, max_classes)


def _fibres_and_actions(h):
    """The fibre of an instance over each collage object, and the action
    of each collage generator on the fibre over its source, keyed by
    structure as ``_generators`` keys them."""
    x = h.model
    fibres = {}
    for d in x.theory.objects:
        over = fibers(h.labels[d], h.carriers[d])
        for e in x.on_objects[d]:
            fibres[(d, e)] = over.get(e, ())
    actions = {}
    for g, src, _ in _generators(x):
        kind, arrow, xi = g
        actions[g] = h.tight_cells[arrow] if kind == "tight" else {
            p: h.actions[arrow][(p, xi)] for p in fibres[src]}
    return fibres, actions


def instance_to_copresheaf(h, closure):
    """The copresheaf on the closed collage with the carrier fibers as
    values and generator actions read off the instance."""
    cat = closure.category
    fibres, actions = _fibres_and_actions(h)
    on_objects = {collage_object(*c): FiniteSet(values)
                  for c, values in fibres.items()}
    steps = {_generator_name(*g): step for g, step in actions.items()}
    on_morphisms = {}
    for mor, (s, d) in cat.morphisms.items():
        src, word = closure.rep_words[mor]
        table = {p: p for p in on_objects[s]}
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
    tight_cells = {f: {} for f in t.tight}
    actions = {m: {} for m in t.loose}

    def act(table, word, src, dst, key=lambda p: p):
        source = collage_object(*src)
        mor = c.on_morphisms[closure.word_class(source, word)]
        for v in c.on_objects[source]:
            table[key(pair_label(src[1], v))] = pair_label(dst[1], mor[v])

    # identity tight arrows are not generators: they act by the empty word
    for d, f in t.tight_id.items():
        for e in x.on_objects[d]:
            act(tight_cells[f], (), (d, e), (d, e))
    for (kind, arrow, xi), src, dst in _generators(x):
        word = (_generator_name(kind, arrow, xi),)
        if kind == "tight":
            act(tight_cells[arrow], word, src, dst)
        else:
            act(actions[arrow], word, src, dst, lambda p, xi=xi: (p, xi))
    return Instance(x, carriers, labels, tight_cells, actions)


def collage_generator_map(al):
    """Generator assignment of the collage of a model morphism: words in
    the target presentation."""
    return {_generator_name(*g): (_image(al, *g),)
            for g, _, _ in _generators(al.source)}


def collage_of_morphism(al, closure_src, closure_tgt):
    """The functor between closed collages induced by a model morphism.

    Generators go to the cited images; the word engine evaluates them to
    morphism classes of the target collage.
    """
    from .fincat import FinFunctor
    x = al.source
    obj_map = {collage_object(d, e): collage_object(d, al.on_objects[d][e])
               for d in x.theory.objects for e in x.on_objects[d]}
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
    if problems:
        raise SelfCheckFailed("collage of a morphism is not functorial: {}"
                              .format("; ".join(problems[:3])))
    return fun
