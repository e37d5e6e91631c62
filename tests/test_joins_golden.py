"""Golden joins: every pullback-shaped construction pinned to recorded
values.

The model of elements, ``nabla``, restriction, the discrete-opfibration
check and its witness, the sketch round trip, and the validators of
theories, models, instances and sketch models all join finite tables
along matching legs.  Each case records sorted element names where the
result has elements, and a sha256 of the JSON dump of the result in
the order its tables were built (dicts as lists of entries, in
insertion order), or of the full report list in report order.  So any
change to a table, a name, a counterexample or the order of any of
them shows up here.

Inputs: the standard instance corpus, seeded walking-loose and
walking-square models and instances, and corrupted copies of them with
several violations each.  ``sketch_model_to_model`` is pinned through
its sorted JSON document, because the order of its laxator entries is
not part of its contract.
"""

import copy
import functools
import hashlib
import json
import random

import pytest

from dblinst.elements import (DopfWitness, elements, is_discrete_opfibration,
                              nabla)
from dblinst.errors import MarkedSquareNotPullback
from dblinst.finset import FiniteSet, Span
from dblinst.fixtures import (build_instance, coproduct_instance,
                              standard_instance_corpus, tautological_instance,
                              walking_loose_model, walking_square_model)
from dblinst.instance import Instance, restrict_instance, validate_instance
from dblinst.model import (ModelMorphism, SpanModel, terminal_model,
                           validate_model)
from dblinst.serialize import document_of
from dblinst.sketch import (SketchModel, flatten_theory, model_to_sketch_model,
                            sketch_model_to_model, validate_sketch_model)
from dblinst.theories import builtin_theory
from dblinst.theory import validate_theory


def digest(doc):
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def ordered(obj):
    """A JSON-ready dump that keeps the order every table was built in."""
    if isinstance(obj, dict):
        return [[ordered(k), ordered(v)] for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [ordered(v) for v in obj]
    if isinstance(obj, FiniteSet):
        return list(obj.labels)
    if isinstance(obj, Span):
        return ordered([obj.apex, obj.left, obj.right])
    if isinstance(obj, SpanModel):
        return ordered([obj.on_objects, obj.on_tight, obj.on_loose,
                        obj.on_cells, obj.laxators, obj.unitors])
    if isinstance(obj, Instance):
        return ordered([obj.carriers, obj.labels, obj.tight_cells,
                        obj.actions])
    if isinstance(obj, ModelMorphism):
        return ordered([obj.on_objects, obj.on_loose])
    if isinstance(obj, DopfWitness):
        return ordered(obj.bijections)
    if isinstance(obj, SketchModel):
        return ordered([obj.on_objects, obj.on_generators])
    return obj


def model_names(x):
    return sorted(e for d in x.theory.objects for e in x.on_objects[d]) + \
        sorted(xi for m in x.theory.loose for xi in x.on_loose[m].apex)


def instance_names(h):
    return sorted(e for d in h.model.theory.objects for e in h.carriers[d])


def pinned_report(report):
    return [len(report), digest(report)]


# ---------------------------------------------------------------------------
# seeded inputs


def seeded_loose(seed, n_dom, n_cod, hets_per, width):
    """A walking-loose model and an instance of it with ``width``
    elements per fibre; the seed decides wiring and action targets."""
    rng = random.Random(seed)
    dom = ["a{}".format(i) for i in range(n_dom)]
    cod = ["b{}".format(i) for i in range(n_cod)]
    het = [("h{}.{}".format(i, k), a, rng.choice(cod))
           for i, a in enumerate(dom) for k in range(hets_per)]
    x = walking_loose_model(dom, cod, het)
    carriers, labels, fibre = {}, {}, {}
    for d in ("dom", "cod"):
        carriers[d], labels[d] = [], {}
        for e in x.on_objects[d]:
            fibre[e] = ["{}~{}".format(e, k) for k in range(width)]
            carriers[d] += fibre[e]
            labels[d].update({p: e for p in fibre[e]})
    span = x.on_loose["l"]
    action = {(p, xi): rng.choice(fibre[span.right[xi]])
              for xi in span.apex for p in fibre[span.left[xi]]}
    return x, build_instance(x, carriers, labels, {"l": action})


def seeded_square(seed, k, tops_per):
    """A walking-square model with 2k elements on top of each side and
    k below; every bottom heteromorphism has ``tops_per`` top ones."""
    rng = random.Random(seed)
    bl = ["w{}".format(i) for i in range(k)]
    br = ["z{}".format(i) for i in range(k)]
    tl = ["p{}".format(i) for i in range(2 * k)]
    tr = ["q{}".format(i) for i in range(2 * k)]

    def onto(src, dst):
        images = list(dst) + [rng.choice(dst) for _ in src[len(dst):]]
        rng.shuffle(images)
        return dict(zip(src, images))

    left, right = onto(tl, bl), onto(tr, br)
    bot = [("g{}".format(i), w, rng.choice(br)) for i, w in enumerate(bl)]
    top, square = [], {}
    for name, w, z in bot:
        for j in range(tops_per):
            t = "f{}.{}".format(name, j)
            top.append((t, rng.choice([p for p in tl if left[p] == w]),
                        rng.choice([q for q in tr if right[q] == z])))
            square[t] = name
    return walking_square_model({"tl": tl, "tr": tr, "bl": bl, "br": br},
                                left, right, top, bot, square)


def to_terminal(x):
    return ModelMorphism(
        x, terminal_model(x.theory),
        {d: {e: "*" for e in s} for d, s in x.on_objects.items()},
        {m: {xi: "*" for xi in sp.apex} for m, sp in x.on_loose.items()})


@functools.lru_cache(maxsize=None)
def instance_inputs():
    """(name, model, instance) triples: the corpus and seeded inputs."""
    out = []
    for name, x, instances in standard_instance_corpus():
        for j, h in enumerate(instances):
            out.append(("{}_{}_{}".format(name, len(out), j), x, h))
    for seed, shape in enumerate([(6, 4, 2, 2), (9, 5, 3, 1), (4, 4, 1, 3)]):
        x, h = seeded_loose(seed, *shape)
        out.append(("loose_seed{}".format(seed), x, h))
    for seed, (k, tops) in enumerate([(3, 2), (4, 1), (2, 3)]):
        x = seeded_square(seed, k, tops)
        h = tautological_instance(x)
        out.append(("square_seed{}".format(seed), x, h))
        out.append(("square_seed{}_coproduct".format(seed), x,
                    coproduct_instance(h, h)))
    return out


# ---------------------------------------------------------------------------
# elements, nabla, restriction, discrete opfibrations


def _elements_golden(h):
    e_model, pi, witness = elements(h)
    return model_names(e_model), digest(ordered([e_model, pi, witness]))


def _nabla_golden(h):
    _, pi, witness = elements(h)
    given, found = nabla(pi, witness), nabla(pi)
    return instance_names(given), digest(ordered([given, found]))


def _restrict_golden(h):
    _, pi, _ = elements(h)
    k = restrict_instance(pi, h)
    return instance_names(k), digest(ordered(k))


def _dopf_golden(p):
    check = is_discrete_opfibration(p)
    return [check.ok, digest(ordered(check.witness)),
            ordered(check.counterexample)]


def _witness_golden(h):
    """Witness reports: the genuine witness, one with the lifts at two
    elements exchanged, and one with a lift missing, per loose arrow."""
    _, pi, witness = elements(h)
    reports = [witness.validate()]
    for m, table in witness.bijections.items():
        keys = sorted(table, key=lambda k: (k[1], k[0]))
        if len(keys) < 2:
            continue
        swapped = dict(table)
        swapped[keys[0]], swapped[keys[-1]] = table[keys[-1]], table[keys[0]]
        reports.append(DopfWitness(
            pi, dict(witness.bijections, **{m: swapped})).validate())
        shorter = dict(table)
        del shorter[keys[-1]]
        reports.append(DopfWitness(
            pi, dict(witness.bijections, **{m: shorter})).validate())
    return pinned_report(reports)


def _extra_lift():
    """An upstairs heteromorphism over a base one whose source lies in
    another fibre: every pullback pair has one lift, one lift is left
    over."""
    up = walking_loose_model(["a0", "a1"], ["b"],
                             [("h", "a0", "b"), ("k", "a1", "b")])
    down = walking_loose_model(["x", "y"], ["z"], [("g", "x", "z")])
    on_objects = {"dom": {"a0": "x", "a1": "y"}, "cod": {"b": "z"}}
    return ModelMorphism(up, down, on_objects,
                         {"l": {"h": "g", "k": "g"},
                          "id:dom": dict(on_objects["dom"]),
                          "id:cod": dict(on_objects["cod"])})


def _element_cases():
    cases = {}
    for name, _, h in instance_inputs():
        cases["elements_" + name] = lambda h=h: _elements_golden(h)
        cases["nabla_" + name] = lambda h=h: _nabla_golden(h)
        cases["restrict_" + name] = lambda h=h: _restrict_golden(h)
        cases["dopf_" + name] = lambda h=h: _dopf_golden(elements(h)[1])
        cases["dopf_to_terminal_" + name] = (
            lambda h=h: _dopf_golden(to_terminal(elements(h)[0])))
        cases["witness_" + name] = lambda h=h: _witness_golden(h)
    cases["dopf_extra_lift"] = lambda: _dopf_golden(_extra_lift())
    return cases


# ---------------------------------------------------------------------------
# the sketch round trip


def _sketch_golden(x):
    s = model_to_sketch_model(x, flatten_theory(x.theory))
    back = sketch_model_to_model(s)
    return [digest(ordered(s)), pinned_report(validate_sketch_model(s)),
            digest(document_of(back))]


def _not_a_pullback():
    """A pair sort with one pair duplicated and one missing."""
    x, _ = seeded_loose(1, 4, 3, 2, 1)
    s = model_to_sketch_model(x, flatten_theory(x.theory))
    sort = "P[id:dom,l]"
    gens = dict(s.on_generators)
    p1, p2 = dict(gens["p1[id:dom,l]"]), dict(gens["p2[id:dom,l]"])
    first, last = s.on_objects[sort].labels[0], s.on_objects[sort].labels[-1]
    p1[last], p2[last] = p1[first], p2[first]
    gens["p1[id:dom,l]"], gens["p2[id:dom,l]"] = p1, p2
    bad = SketchModel(s.sketch, s.on_objects, gens)
    with pytest.raises(MarkedSquareNotPullback) as err:
        sketch_model_to_model(bad)
    return [str(err.value), pinned_report(validate_sketch_model(bad))]


def _sketch_cases():
    cases = {}
    seen = set()
    for name, x, _ in instance_inputs():
        if id(x) not in seen:
            seen.add(id(x))
            cases["sketch_" + name] = lambda x=x: _sketch_golden(x)
    cases["sketch_not_a_pullback"] = _not_a_pullback
    return cases


# ---------------------------------------------------------------------------
# validator reports on corrupted inputs


def _with_laxators(x, changes):
    laxators = {k: dict(v) for k, v in x.laxators.items()}
    for pair, table in changes.items():
        laxators[pair].update(table)
    return SpanModel(x.theory, x.on_objects, x.on_tight, x.on_loose,
                     x.on_cells, laxators, x.unitors)


def _doubled_loose():
    """A walking-loose model with two heteromorphisms between each
    related pair, so that laxators can be permuted over fixed legs."""
    return walking_loose_model(
        ["a0", "a1", "a2"], ["b0", "b1"],
        [("h0", "a0", "b0"), ("h1", "a0", "b0"), ("h2", "a1", "b1"),
         ("h3", "a1", "b1"), ("h4", "a2", "b0"), ("h5", "a2", "b0"),
         ("h6", "a2", "b1")])


def _bad_associativity():
    """Laxators permuted over fixed legs on both sides of l: only the
    associativity checks fail, several times each."""
    x = _doubled_loose()
    return _with_laxators(x, {
        ("id:dom", "l"): {("a0", "h0"): "h1", ("a0", "h1"): "h0",
                          ("a2", "h4"): "h5", ("a2", "h5"): "h4"},
        ("l", "id:cod"): {("h2", "b1"): "h3", ("h3", "b1"): "h2"}})


def _bad_laxator_legs():
    """Laxators that leave their target or break a leg, and one laxator
    that is not total on the pullback."""
    x = _doubled_loose()
    bad = _with_laxators(x, {
        ("id:dom", "l"): {("a0", "h0"): "h2", ("a1", "h3"): "nowhere",
                          ("a2", "h6"): "h4"},
        ("l", "id:cod"): {("h4", "b0"): "h6"}})
    del bad.laxators[("id:cod", "id:cod")][("b1", "b1")]
    return bad


def _square_with(on_tight=None, on_cells=None):
    x = seeded_square(4, 3, 2)
    return SpanModel(x.theory, x.on_objects, on_tight or x.on_tight,
                     x.on_loose, on_cells or x.on_cells, x.laxators,
                     x.unitors)


def _bad_tight():
    """Tight tables that are not total."""
    x = _square_with()
    return _square_with(on_tight=dict(
        x.on_tight, **{f: dict(list(x.on_tight[f].items())[1:])
                       for f in ("l", "r")}))


def _bad_cell():
    """The square's cell with two values exchanged: it breaks its legs."""
    x = _square_with()
    cell = next(a for a, (f, g, m, n) in x.theory.cells.items()
                if (m, n) == ("top", "bot"))
    table = dict(x.on_cells[cell])
    top = x.on_loose["top"].apex.labels
    table[top[0]], table[top[-1]] = table[top[-1]], table[top[0]]
    return _square_with(on_cells=dict(x.on_cells, **{cell: table}))


def _bad_unitors():
    """Unitors at two elements exchanged: both break a leg."""
    x, _ = seeded_loose(3, 5, 3, 2, 1)
    unitors = {d: dict(t) for d, t in x.unitors.items()}
    dom = x.on_objects["dom"].labels
    unitors["dom"][dom[0]], unitors["dom"][dom[1]] = dom[1], dom[0]
    return SpanModel(x.theory, x.on_objects, x.on_tight, x.on_loose,
                     x.on_cells, x.laxators, unitors)


def _bad_square_naturality():
    """Two top heteromorphisms over different bottom ones but with the
    same legs, permuted by the laxators: laxator naturality at the
    square's cells fails, and so does associativity."""
    x = walking_square_model(
        {"tl": ["p0", "p1"], "tr": ["q0"], "bl": ["w0"], "br": ["z0"]},
        {"p0": "w0", "p1": "w0"}, {"q0": "z0"},
        [("f0", "p0", "q0"), ("f1", "p0", "q0"), ("f2", "p1", "q0")],
        [("g0", "w0", "z0"), ("g1", "w0", "z0")],
        {"f0": "g0", "f1": "g1", "f2": "g0"})
    return _with_laxators(x, {
        ("id:tl", "top"): {("p0", "f0"): "f1", ("p0", "f1"): "f0"},
        ("top", "id:tr"): {("f0", "q0"): "f1", ("f1", "q0"): "f0"},
        ("id:bl", "bot"): {("w0", "g0"): "g1", ("w0", "g1"): "g0"}})


def _model_report_cases():
    cases = {
        "validate_model_associativity": _bad_associativity,
        "validate_model_laxator_legs": _bad_laxator_legs,
        "validate_model_square_naturality": _bad_square_naturality,
        "validate_model_tight_total": _bad_tight,
        "validate_model_cell_legs": _bad_cell,
        "validate_model_unitor_legs": _bad_unitors,
    }
    return {name: (lambda make=make: validate_model(make()))
            for name, make in cases.items()}


def _with_actions(h, changes, labels=None):
    actions = {m: dict(t) for m, t in h.actions.items()}
    for m, table in changes.items():
        actions[m].update(table)
    return Instance(h.model, h.carriers, labels or h.labels, h.tight_cells,
                    actions)


def _instance_report_cases():
    def associativity():
        """Identity actions moved inside their fibre, onto elements
        that act differently along every heteromorphism: unitality and
        associativity through the laxators fail, several times for one
        element."""
        _, h = seeded_loose(6, 5, 4, 3, 3)
        moves, acts = {}, {}
        act = h.actions["l"]
        cod = h.labels["cod"]
        for e in h.carriers["dom"].labels[::3]:
            lab = h.labels["dom"][e]
            other = next(p for p in h.carriers["dom"]
                         if p != e and h.labels["dom"][p] == lab)
            moves[(e, lab)] = other
            for (p, xi), v in act.items():
                if p == e:
                    acts[(other, xi)] = next(
                        w for w in h.carriers["cod"]
                        if w != v and cod[w] == cod[v])
        return _with_actions(h, {"id:dom": moves, "l": acts})

    def labels():
        """Actions that leave their fibre or their carrier."""
        _, h = seeded_loose(7, 4, 3, 2, 2)
        keys = sorted(h.actions["l"])
        cod = h.carriers["cod"].labels
        return _with_actions(h, {"l": {
            keys[0]: next(v for v in cod if h.labels["cod"][v] !=
                          h.labels["cod"][h.actions["l"][keys[0]]]),
            keys[3]: "nowhere"}})

    def not_total():
        _, h = seeded_loose(8, 3, 3, 1, 2)
        bad = _with_actions(h, {})
        del bad.actions["l"][min(bad.actions["l"])]
        return bad

    def square_naturality():
        """Top actions permuted within their fibres: naturality at the
        square's cell fails."""
        x = seeded_square(9, 3, 2)
        h = coproduct_instance(tautological_instance(x),
                               tautological_instance(x))
        act = h.actions["top"]
        changes = {}
        for (e, xi), v in sorted(act.items()):
            twin = ("(R" + v[2:]) if v.startswith("(L,") else None
            if twin is not None and e.startswith("(L,"):
                changes[(e, xi)] = twin
        return _with_actions(h, {"top": changes})

    def bad_labels():
        _, h = seeded_loose(10, 3, 2, 1, 2)
        labels = {d: dict(t) for d, t in h.labels.items()}
        first = h.carriers["dom"].labels[0]
        labels["dom"][first] = "elsewhere"
        return Instance(h.model, h.carriers, labels, h.tight_cells, h.actions)

    cases = {"associativity": associativity, "labels": labels,
             "not_total": not_total, "square_naturality": square_naturality,
             "carrier_labels": bad_labels}
    return {"validate_instance_" + name:
            (lambda make=make: pinned_report(validate_instance(make())))
            for name, make in cases.items()}


def _sketch_report_cases():
    def corrupt(seed, changes):
        x, _ = seeded_loose(seed, 5, 3, 2, 1)
        s = model_to_sketch_model(x, flatten_theory(x.theory))
        gens = {g: dict(t) for g, t in s.on_generators.items()}
        for g, table in changes(s).items():
            gens[g].update(table)
        return pinned_report(validate_sketch_model(
            SketchModel(s.sketch, s.on_objects, gens)))

    def swap(s, g):
        table = s.on_generators[g]
        keys = sorted(table)
        other = next(k for k in keys if table[k] != table[keys[0]])
        return {keys[0]: table[other], other: table[keys[0]]}

    return {
        "validate_sketch_src": lambda: corrupt(
            11, lambda s: {"src[l]": swap(s, "src[l]")}),
        "validate_sketch_lax": lambda: corrupt(
            12, lambda s: {"lax[id:dom,l]": swap(s, "lax[id:dom,l]"),
                           "tgt[l]": swap(s, "tgt[l]")}),
        "validate_sketch_projections": lambda: corrupt(
            13, lambda s: {"p2[l,id:cod]": swap(s, "p2[l,id:cod]"),
                           "p12[id:dom,l,id:cod]":
                           swap(s, "p12[id:dom,l,id:cod]")}),
    }


def _corrupted_theory(k=2, hcomp=(), vcomp=()):
    t = copy.deepcopy(builtin_theory("monad_trunc", k))
    t.cell_hcomp.update(hcomp)
    t.cell_vcomp.update(vcomp)
    return validate_theory(t)


def _theory_report_cases():
    return {
        "validate_theory_vertical_3": lambda: pinned_report(
            _corrupted_theory(3, vcomp={("mm:0-0:", "mm:1-2:1"): "mm:1-2:2"})),
        "validate_theory_horizontal_3": lambda: pinned_report(
            _corrupted_theory(3, hcomp={("mm:1-1:1", "mm:1-2:1"): "mm:1-2:2"})),
        "validate_theory_interchange": lambda: _corrupted_theory(
            vcomp={("mm:2-1:1.1", "mm:0-1:"): "mm:2-2:1.2"}),
        "validate_theory_vertical": lambda: _corrupted_theory(
            vcomp={("mm:0-0:", "mm:1-2:1"): "mm:1-2:2"}),
        "validate_theory_mixed": lambda: _corrupted_theory(
            hcomp={("mm:1-2:1", "mm:2-2:1.2"): "mm:1-2:2"},
            vcomp={("mm:0-1:", "mm:1-1:1"): "mm:1-2:1",
                   ("mm:0-0:", "mm:2-2:1.1"): "mm:2-2:2.2"}),
    }


@functools.lru_cache(maxsize=None)
def golden_cases():
    cases = {}
    for part in (_element_cases, _sketch_cases, _model_report_cases,
                 _instance_report_cases, _sketch_report_cases,
                 _theory_report_cases):
        cases.update(part())
    return cases


GOLDEN = {
    'dopf_extra_lift':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['l', None, None, ['k']]],
    'dopf_loose_seed0':
        [True,
         'f1734fffc2c1695a1ba59999bf4e54de8f546689b221d6f1c9bd514d09de085a',
         None],
    'dopf_loose_seed1':
        [True,
         '81ed21a3d302767b8dd4425959e7dea1057fca13c885bf4126cb1566706bb232',
         None],
    'dopf_loose_seed2':
        [True,
         '9b1d2845936b337d235e49082a2f47e7628d56dbe4a021ea75ca8596b7e37c23',
         None],
    'dopf_signed_24_0':
        [True,
         '48c6939e3158dd361eae7f8bab2aac74cbde50d14d0987eb520cb7f444689b9d',
         None],
    'dopf_signed_25_1':
        [True,
         '5ce488e5bcb3a52e4450871ad96d5aeddfd5668262e337d6a3077f425da852df',
         None],
    'dopf_signed_26_0':
        [True,
         '7b01530bbe839107a0033b1cca1bfd77d495ab1a8b58021c4adc21b7161faedf',
         None],
    'dopf_signed_27_1':
        [True,
         'c9b318bfdca391b4663f6f0c3da2e2119c3fe96579020c7e04d39e9d7cad7f66',
         None],
    'dopf_signed_28_0':
        [True,
         'd4b0b0dbfde21712bd929a95bc48ee69f1958f50a036a34fd2303ea93bd1ec57',
         None],
    'dopf_signed_29_1':
        [True,
         'd20efa6f633a1f34d61cc655b437021aed8878cf380cf1a280c6ad123b5fb082',
         None],
    'dopf_square_seed0':
        [True,
         '702b5a6080aff576a9ebe2daafff458e9cd198ac71d9058a0d9b82f145c1c37f',
         None],
    'dopf_square_seed0_coproduct':
        [True,
         'b4774ef006d956eb0c50dcfac6edc45b690c5c1dc2b9a4abbf2fa72e61f573c0',
         None],
    'dopf_square_seed1':
        [True,
         '61b061ed4d1ece9089e29b415fa77d141544b8a747155193292c262d13649b31',
         None],
    'dopf_square_seed1_coproduct':
        [True,
         'b5500540a1d5aab962c3adb8ad015aee1b522bba65778d60a404847c5a44fae8',
         None],
    'dopf_square_seed2':
        [True,
         '940feb0ca356d9d0210979548f2b5d8a155e6460174e80f46a14791a457bd955',
         None],
    'dopf_square_seed2_coproduct':
        [True,
         '3b56f7c96b3ef221792346d3041c2daa4747347ef9584382ce7f87d8ed332513',
         None],
    'dopf_terminal_10_0':
        [True,
         '81c524063e138032c4174fcce24fdc24373ac4aeff8ca51998c77a05563c46cd',
         None],
    'dopf_terminal_11_1':
        [True,
         '895c5725faaadec78ea5b4c61d49bd9ddc4489ca2127331b7bbbd82381aae097',
         None],
    'dopf_terminal_6_0':
        [True,
         '15264bf8734dd3401da8f9b91516f71698c62a6417157ab2b043ea064c53341d',
         None],
    'dopf_terminal_7_1':
        [True,
         '4c55b046462f5c0fc23a2c75c16f2f5b15cf16ff6d723844b38313b43e37cc9c',
         None],
    'dopf_terminal_8_0':
        [True,
         '7b37f489bcad4d24ee5f221a225fa0e60fb2e6c0072d16730b9d3f3e42e93847',
         None],
    'dopf_terminal_9_1':
        [True,
         '4c55b046462f5c0fc23a2c75c16f2f5b15cf16ff6d723844b38313b43e37cc9c',
         None],
    'dopf_to_terminal_loose_seed0':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['l', '*', 'a0~0', ['(a0~0,h0.0)', '(a0~0,h0.1)']]],
    'dopf_to_terminal_loose_seed1':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['l', '*', 'a0~0', ['(a0~0,h0.0)', '(a0~0,h0.1)', '(a0~0,h0.2)']]],
    'dopf_to_terminal_loose_seed2':
        [True,
         'e6269e53352b73edf5c119d1b5fb52b4c4e6d8a6cd43809b6a32f4294dab14d2',
         None],
    'dopf_to_terminal_signed_24_0':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['id:*', '*', 'u', ['(u,a)', '(u,id:u)', '(u,p;a;b)', '(u,p;a;b;q)']]],
    'dopf_to_terminal_signed_25_1':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['id:*', '*', '(u,h{sigma@p})',
          ['((u,h{sigma@p}),a)', '((u,h{sigma@p}),id:u)',
           '((u,h{sigma@p}),p;a;b)', '((u,h{sigma@p}),p;a;b;q)']]],
    'dopf_to_terminal_signed_26_0':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['id:*', '*', 'x', ['(x,e;n2)', '(x,id:x)', '(x,n1;e)']]],
    'dopf_to_terminal_signed_27_1':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['id:*', '*', '(x,h{sigma@n1})',
          ['((x,h{sigma@n1}),e;n2)', '((x,h{sigma@n1}),id:x)',
           '((x,h{sigma@n1}),n1;e)']]],
    'dopf_to_terminal_signed_28_0':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['id:*', '*', 's', ['(s,f)', '(s,f;g)', '(s,f;g;r)', '(s,id:s)']]],
    'dopf_to_terminal_signed_29_1':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['id:*', '*', '(s,id:*|s)',
          ['((s,id:*|s),f)', '((s,id:*|s),f;g)', '((s,id:*|s),f;g;r)',
           '((s,id:*|s),id:s)']]],
    'dopf_to_terminal_square_seed0':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['top', '*', 'p0', ['(p0,fg0.0)', '(p0,fg0.1)']]],
    'dopf_to_terminal_square_seed0_coproduct':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['top', '*', '(L,p0)', ['((L,p0),fg0.0)', '((L,p0),fg0.1)']]],
    'dopf_to_terminal_square_seed1':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['top', '*', 'p0', []]],
    'dopf_to_terminal_square_seed1_coproduct':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['top', '*', '(L,p0)', []]],
    'dopf_to_terminal_square_seed2':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['top', '*', 'p0', []]],
    'dopf_to_terminal_square_seed2_coproduct':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['top', '*', '(L,p0)', []]],
    'dopf_to_terminal_terminal_10_0':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['id:*', '*', '0', ['(0,0<1)', '(0,id:0)']]],
    'dopf_to_terminal_terminal_11_1':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['id:*', '*', '(0,id:*|0)',
          ['((0,id:*|0),0<1)', '((0,id:*|0),id:0)']]],
    'dopf_to_terminal_terminal_6_0':
        [True,
         '93089c4128a918eb5898485321421bf2c6d5ca14eb5413c185d2da5257be1db3',
         None],
    'dopf_to_terminal_terminal_7_1':
        [True,
         'd920011b255b66c3793caeb588acafd560a0eabb9519786fac60d5f6d841d59b',
         None],
    'dopf_to_terminal_terminal_8_0':
        [True,
         'f8c9b977948dd72bce02065d8049f574326178e235958266115a95ce5830fa03',
         None],
    'dopf_to_terminal_terminal_9_1':
        [True,
         'd920011b255b66c3793caeb588acafd560a0eabb9519786fac60d5f6d841d59b',
         None],
    'dopf_to_terminal_walking_loose_0_0':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['l', '*', 'V', []]],
    'dopf_to_terminal_walking_loose_1_1':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['l', '*', '(L,V)', []]],
    'dopf_to_terminal_walking_loose_2_0':
        [True,
         '433f6db2398540f02b0fb53bd6a2c6c37a10791694f1b6fe9cee8097fd718ae4',
         None],
    'dopf_to_terminal_walking_loose_3_1':
        [True,
         '9f7ed55b586e25d4b28b931939fb912d4a832df2cf1ee141ec68fc8dba731e3d',
         None],
    'dopf_to_terminal_walking_loose_4_0':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['l', '*', 'a', []]],
    'dopf_to_terminal_walking_loose_5_1':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['l', '*', '(L,a)', []]],
    'dopf_to_terminal_walking_square_18_0':
        [True,
         '72bd862afb05553c37ef3391c3e6cc2d0ed1e4250ccbf61ae35b060101109e5b',
         None],
    'dopf_to_terminal_walking_square_19_1':
        [True,
         'b3f38121782a20524b2e9bafdb9a7b3bcb6d623542fed0ff447b2e6ec6f1dd3a',
         None],
    'dopf_to_terminal_walking_square_20_0':
        [True,
         'f9502314854e290bdf079850dac142d8bf1327933250940e82554ed750e64609',
         None],
    'dopf_to_terminal_walking_square_21_1':
        [True,
         '0e358f7f9577516c3a4b034ee7b15bb01cacc439e9e35ae1dfcbc1c23f13dcb7',
         None],
    'dopf_to_terminal_walking_square_22_0':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['bot', '*', '3', ['(3,b)', '(3,b2)']]],
    'dopf_to_terminal_walking_square_23_1':
        [False,
         '74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b',
         ['bot', '*', '(L,3)', ['((L,3),b)', '((L,3),b2)']]],
    'dopf_to_terminal_walking_tight_12_0':
        [True,
         '732976e1c0c5e1ab653dc708d1c780de7273067726fa079a41c048fc12e92f39',
         None],
    'dopf_to_terminal_walking_tight_13_1':
        [True,
         'f557b5ec7b54ff435ae32b1c93907826afbe0e30bbd5c1ddb57cc9d3e11b7297',
         None],
    'dopf_to_terminal_walking_tight_14_0':
        [True,
         '0ebdfd1de03614053995d22fd99c7cc687158ca5d1a0a62c88f4d11ac1262211',
         None],
    'dopf_to_terminal_walking_tight_15_1':
        [True,
         '211790111743a76d123606e3b1822c832f8216b0882bc16c28fd337582d13f65',
         None],
    'dopf_to_terminal_walking_tight_16_0':
        [True,
         '837a01c7c20551cf98388fde70a4a24f30a93e86944410b5558ae94edcd09209',
         None],
    'dopf_to_terminal_walking_tight_17_1':
        [True,
         'c1df6807a072c41214b9678d96b6c525866bf2a496b391016cd9c7b80f6c6bb1',
         None],
    'dopf_walking_loose_0_0':
        [True,
         'bd7b6fe9ce04f210f9ec098da449575a47baafb158719546c2ace14df5ad6fbd',
         None],
    'dopf_walking_loose_1_1':
        [True,
         'e6c8a1fa78061e3799ab687198ea47d1a14fed84c38453cb1b6c61e1ffe6a6c7',
         None],
    'dopf_walking_loose_2_0':
        [True,
         '20e03e5c807f7c540b1ab17d8753941cd45b16837431b88f8ce8081198366b2f',
         None],
    'dopf_walking_loose_3_1':
        [True,
         '99e116a08751a70b9b569e18da1f9558b3f566940b41a9b0cfc389eff192e23d',
         None],
    'dopf_walking_loose_4_0':
        [True,
         '0665db12694c3f01f77ce201efff62ba03de0a2e160b05807efc9f330610dd1f',
         None],
    'dopf_walking_loose_5_1':
        [True,
         'c17b3c20674931635f97859f3fe199ae1c39a563d5beed079149dc8085e8cdab',
         None],
    'dopf_walking_square_18_0':
        [True,
         '612a2e9acb69806796fefbe9c72ddd6f113a802f43afbd7418b30b32c4165d9e',
         None],
    'dopf_walking_square_19_1':
        [True,
         'fb9a21d31ea5fda2952fd9c6a93d23bc1fd2bffe960b7b69cd992b29b2c01ea3',
         None],
    'dopf_walking_square_20_0':
        [True,
         '00fc1f357a2bdcd2a71bc2b17db7862e0c98ab5833bbea432117fc6f14648df1',
         None],
    'dopf_walking_square_21_1':
        [True,
         'a27cb2a06f4ed323073a8bc2ea8ddbb307988980f9bf56ee4957ba4e8c1f595d',
         None],
    'dopf_walking_square_22_0':
        [True,
         '36e68f8521d8861e9e9d80a3ab5573b99cf11e345316b9380c2b0e244ed0e2e2',
         None],
    'dopf_walking_square_23_1':
        [True,
         '43690fce4a8f1f155ae3e725b05d80f92c77bf0d133d4433be7fb75286819f31',
         None],
    'dopf_walking_tight_12_0':
        [True,
         'f517948005704f816b6f200467ab251bb2a7ee7e29d2dc3df78c2021aa45ff6a',
         None],
    'dopf_walking_tight_13_1':
        [True,
         'f6d4453b97c8495ebcdbd6ab1f4332f1b2aa1963856d801957c1c79a92829276',
         None],
    'dopf_walking_tight_14_0':
        [True,
         '34969b7e09e5c129019d66e7216b34e7ec589723777dfbc6f0eb2ba767054a74',
         None],
    'dopf_walking_tight_15_1':
        [True,
         '18b88d956fd543e7fcabb703fa25ea1fa2e0f7aab9c99ae9caf26b708525cfc8',
         None],
    'dopf_walking_tight_16_0':
        [True,
         'ecb1cebc69da48401d80739bbdbdedf4c8157e006bd63b97b34288a8f21fe217',
         None],
    'dopf_walking_tight_17_1':
        [True,
         '067a4cc04dff63ce206dc4a37b411a1c33fc963ec29b0b553ba83aa81dbf24ec',
         None],
    'elements_loose_seed0':
        [['a0~0', 'a0~1', 'a1~0', 'a1~1', 'a2~0', 'a2~1', 'a3~0', 'a3~1',
          'a4~0', 'a4~1', 'a5~0', 'a5~1', 'b0~0', 'b0~1', 'b1~0', 'b1~1',
          'b2~0', 'b2~1', 'b3~0', 'b3~1', '(a0~0,a0)', '(a0~0,h0.0)',
          '(a0~0,h0.1)', '(a0~1,a0)', '(a0~1,h0.0)', '(a0~1,h0.1)',
          '(a1~0,a1)', '(a1~0,h1.0)', '(a1~0,h1.1)', '(a1~1,a1)',
          '(a1~1,h1.0)', '(a1~1,h1.1)', '(a2~0,a2)', '(a2~0,h2.0)',
          '(a2~0,h2.1)', '(a2~1,a2)', '(a2~1,h2.0)', '(a2~1,h2.1)',
          '(a3~0,a3)', '(a3~0,h3.0)', '(a3~0,h3.1)', '(a3~1,a3)',
          '(a3~1,h3.0)', '(a3~1,h3.1)', '(a4~0,a4)', '(a4~0,h4.0)',
          '(a4~0,h4.1)', '(a4~1,a4)', '(a4~1,h4.0)', '(a4~1,h4.1)',
          '(a5~0,a5)', '(a5~0,h5.0)', '(a5~0,h5.1)', '(a5~1,a5)',
          '(a5~1,h5.0)', '(a5~1,h5.1)', '(b0~0,b0)', '(b0~1,b0)', '(b1~0,b1)',
          '(b1~1,b1)', '(b2~0,b2)', '(b2~1,b2)', '(b3~0,b3)', '(b3~1,b3)'],
         '2eb904f0683b67f64d8f11774cec07e9281685f182354b6f43e3a72d5863badb'],
    'elements_loose_seed1':
        [['a0~0', 'a1~0', 'a2~0', 'a3~0', 'a4~0', 'a5~0', 'a6~0', 'a7~0',
          'a8~0', 'b0~0', 'b1~0', 'b2~0', 'b3~0', 'b4~0', '(a0~0,a0)',
          '(a0~0,h0.0)', '(a0~0,h0.1)', '(a0~0,h0.2)', '(a1~0,a1)',
          '(a1~0,h1.0)', '(a1~0,h1.1)', '(a1~0,h1.2)', '(a2~0,a2)',
          '(a2~0,h2.0)', '(a2~0,h2.1)', '(a2~0,h2.2)', '(a3~0,a3)',
          '(a3~0,h3.0)', '(a3~0,h3.1)', '(a3~0,h3.2)', '(a4~0,a4)',
          '(a4~0,h4.0)', '(a4~0,h4.1)', '(a4~0,h4.2)', '(a5~0,a5)',
          '(a5~0,h5.0)', '(a5~0,h5.1)', '(a5~0,h5.2)', '(a6~0,a6)',
          '(a6~0,h6.0)', '(a6~0,h6.1)', '(a6~0,h6.2)', '(a7~0,a7)',
          '(a7~0,h7.0)', '(a7~0,h7.1)', '(a7~0,h7.2)', '(a8~0,a8)',
          '(a8~0,h8.0)', '(a8~0,h8.1)', '(a8~0,h8.2)', '(b0~0,b0)',
          '(b1~0,b1)', '(b2~0,b2)', '(b3~0,b3)', '(b4~0,b4)'],
         '0af7d69c5ffa9fb7a361f7494f874b7459b5d19339d3792090b8b5818ccf0386'],
    'elements_loose_seed2':
        [['a0~0', 'a0~1', 'a0~2', 'a1~0', 'a1~1', 'a1~2', 'a2~0', 'a2~1',
          'a2~2', 'a3~0', 'a3~1', 'a3~2', 'b0~0', 'b0~1', 'b0~2', 'b1~0',
          'b1~1', 'b1~2', 'b2~0', 'b2~1', 'b2~2', 'b3~0', 'b3~1', 'b3~2',
          '(a0~0,a0)', '(a0~0,h0.0)', '(a0~1,a0)', '(a0~1,h0.0)', '(a0~2,a0)',
          '(a0~2,h0.0)', '(a1~0,a1)', '(a1~0,h1.0)', '(a1~1,a1)',
          '(a1~1,h1.0)', '(a1~2,a1)', '(a1~2,h1.0)', '(a2~0,a2)',
          '(a2~0,h2.0)', '(a2~1,a2)', '(a2~1,h2.0)', '(a2~2,a2)',
          '(a2~2,h2.0)', '(a3~0,a3)', '(a3~0,h3.0)', '(a3~1,a3)',
          '(a3~1,h3.0)', '(a3~2,a3)', '(a3~2,h3.0)', '(b0~0,b0)', '(b0~1,b0)',
          '(b0~2,b0)', '(b1~0,b1)', '(b1~1,b1)', '(b1~2,b1)', '(b2~0,b2)',
          '(b2~1,b2)', '(b2~2,b2)', '(b3~0,b3)', '(b3~1,b3)', '(b3~2,b3)'],
         '09fb89f2b1ac27c6e37c143607152f54c8d096dbe25b86d3c1d8d54953f7ae3a'],
    'elements_signed_24_0':
        [['u', 'v', 'w', '(u,a)', '(u,a;b)', '(u,a;b;q)', '(u,id:u)', '(u,p)',
          '(u,p;a)', '(u,p;a;b)', '(u,p;a;b;q)', '(v,b)', '(v,b;q)',
          '(v,id:v)', '(w,id:w)', '(w,q)'],
         'a51897e4519522b3a29c7f3291d937a705b491411d62049fb0d90a193a25dd8c'],
    'elements_signed_25_1':
        [['(u,h{sigma@p})', '(u,id:*|u)', '(v,h{id:*@a})', '(v,h{sigma@p;a})',
          '(w,h{id:*@p;a;b;q})', '(w,h{id:*@p;a;b})', '(w,h{sigma@a;b;q})',
          '(w,h{sigma@a;b})', '((u,h{sigma@p}),a)', '((u,h{sigma@p}),a;b)',
          '((u,h{sigma@p}),a;b;q)', '((u,h{sigma@p}),id:u)',
          '((u,h{sigma@p}),p)', '((u,h{sigma@p}),p;a)',
          '((u,h{sigma@p}),p;a;b)', '((u,h{sigma@p}),p;a;b;q)',
          '((u,id:*|u),a)', '((u,id:*|u),a;b)', '((u,id:*|u),a;b;q)',
          '((u,id:*|u),id:u)', '((u,id:*|u),p)', '((u,id:*|u),p;a)',
          '((u,id:*|u),p;a;b)', '((u,id:*|u),p;a;b;q)', '((v,h{id:*@a}),b)',
          '((v,h{id:*@a}),b;q)', '((v,h{id:*@a}),id:v)',
          '((v,h{sigma@p;a}),b)', '((v,h{sigma@p;a}),b;q)',
          '((v,h{sigma@p;a}),id:v)', '((w,h{id:*@p;a;b;q}),id:w)',
          '((w,h{id:*@p;a;b;q}),q)', '((w,h{id:*@p;a;b}),id:w)',
          '((w,h{id:*@p;a;b}),q)', '((w,h{sigma@a;b;q}),id:w)',
          '((w,h{sigma@a;b;q}),q)', '((w,h{sigma@a;b}),id:w)',
          '((w,h{sigma@a;b}),q)'],
         '723abd50e13b39e8fbf19c2f84de5e2021f06349956c27e82bf59f539a6bfce8'],
    'elements_signed_26_0':
        [['x', 'y', '(x,e)', '(x,e;n2)', '(x,id:x)', '(x,n1)', '(x,n1;e)',
          '(x,n1;e;n2)', '(y,id:y)', '(y,n2)'],
         '8368e4112a595153a3dd2eb0db860c7886de9aa6afbb4e72980dbdda8332ac42'],
    'elements_signed_27_1':
        [['(x,h{sigma@n1})', '(x,id:*|x)', '(y,h{id:*@e;n2})',
          '(y,h{id:*@n1;e})', '(y,h{sigma@e})', '(y,h{sigma@n1;e;n2})',
          '((x,h{sigma@n1}),e)', '((x,h{sigma@n1}),e;n2)',
          '((x,h{sigma@n1}),id:x)', '((x,h{sigma@n1}),n1)',
          '((x,h{sigma@n1}),n1;e)', '((x,h{sigma@n1}),n1;e;n2)',
          '((x,id:*|x),e)', '((x,id:*|x),e;n2)', '((x,id:*|x),id:x)',
          '((x,id:*|x),n1)', '((x,id:*|x),n1;e)', '((x,id:*|x),n1;e;n2)',
          '((y,h{id:*@e;n2}),id:y)', '((y,h{id:*@e;n2}),n2)',
          '((y,h{id:*@n1;e}),id:y)', '((y,h{id:*@n1;e}),n2)',
          '((y,h{sigma@e}),id:y)', '((y,h{sigma@e}),n2)',
          '((y,h{sigma@n1;e;n2}),id:y)', '((y,h{sigma@n1;e;n2}),n2)'],
         'fb28e6859870e2b0941eb3b0e01bc8e233350706417cd4c86640b6c1e048da2b'],
    'elements_signed_28_0':
        [['s', 't', 'z', '(s,f)', '(s,f;g)', '(s,f;g;r)', '(s,h)', '(s,h;r)',
          '(s,id:s)', '(t,g)', '(t,g;r)', '(t,id:t)', '(z,id:z)', '(z,r)'],
         '29a70113357bba5b0ebe6b11792b35a5cbdf64b41b3d2a75051290ae71156bbb'],
    'elements_signed_29_1':
        [['(s,id:*|s)', '(t,h{id:*@f})', '(z,h{id:*@f;g;r})',
          '(z,h{id:*@f;g})', '(z,h{sigma@h;r})', '(z,h{sigma@h})',
          '((s,id:*|s),f)', '((s,id:*|s),f;g)', '((s,id:*|s),f;g;r)',
          '((s,id:*|s),h)', '((s,id:*|s),h;r)', '((s,id:*|s),id:s)',
          '((t,h{id:*@f}),g)', '((t,h{id:*@f}),g;r)', '((t,h{id:*@f}),id:t)',
          '((z,h{id:*@f;g;r}),id:z)', '((z,h{id:*@f;g;r}),r)',
          '((z,h{id:*@f;g}),id:z)', '((z,h{id:*@f;g}),r)',
          '((z,h{sigma@h;r}),id:z)', '((z,h{sigma@h;r}),r)',
          '((z,h{sigma@h}),id:z)', '((z,h{sigma@h}),r)'],
         '1652df669d7d5c52e662671342ea4a2176d47cc78565ab75c7d73c7f208013f3'],
    'elements_square_seed0':
        [['p0', 'p1', 'p2', 'p3', 'p4', 'p5', 'q0', 'q1', 'q2', 'q3', 'q4',
          'q5', 'w0', 'w1', 'w2', 'z0', 'z1', 'z2', '(p0,fg0.0)', '(p0,fg0.1)',
          '(p0,p0)', '(p1,p1)', '(p2,p2)', '(p3,fg1.1)', '(p3,p3)',
          '(p4,fg1.0)', '(p4,p4)', '(p5,fg2.0)', '(p5,fg2.1)', '(p5,p5)',
          '(q0,q0)', '(q1,q1)', '(q2,q2)', '(q3,q3)', '(q4,q4)', '(q5,q5)',
          '(w0,g0)', '(w0,w0)', '(w1,g1)', '(w1,w1)', '(w2,g2)', '(w2,w2)',
          '(z0,z0)', '(z1,z1)', '(z2,z2)'],
         '2929e6d05dc5af69e79ae8289351a7ff2c755a304a6988dd60114c32ba973a06'],
    'elements_square_seed0_coproduct':
        [['(L,p0)', '(L,p1)', '(L,p2)', '(L,p3)', '(L,p4)', '(L,p5)', '(L,q0)',
          '(L,q1)', '(L,q2)', '(L,q3)', '(L,q4)', '(L,q5)', '(L,w0)', '(L,w1)',
          '(L,w2)', '(L,z0)', '(L,z1)', '(L,z2)', '(R,p0)', '(R,p1)', '(R,p2)',
          '(R,p3)', '(R,p4)', '(R,p5)', '(R,q0)', '(R,q1)', '(R,q2)', '(R,q3)',
          '(R,q4)', '(R,q5)', '(R,w0)', '(R,w1)', '(R,w2)', '(R,z0)', '(R,z1)',
          '(R,z2)', '((L,p0),fg0.0)', '((L,p0),fg0.1)', '((L,p0),p0)',
          '((L,p1),p1)', '((L,p2),p2)', '((L,p3),fg1.1)', '((L,p3),p3)',
          '((L,p4),fg1.0)', '((L,p4),p4)', '((L,p5),fg2.0)', '((L,p5),fg2.1)',
          '((L,p5),p5)', '((L,q0),q0)', '((L,q1),q1)', '((L,q2),q2)',
          '((L,q3),q3)', '((L,q4),q4)', '((L,q5),q5)', '((L,w0),g0)',
          '((L,w0),w0)', '((L,w1),g1)', '((L,w1),w1)', '((L,w2),g2)',
          '((L,w2),w2)', '((L,z0),z0)', '((L,z1),z1)', '((L,z2),z2)',
          '((R,p0),fg0.0)', '((R,p0),fg0.1)', '((R,p0),p0)', '((R,p1),p1)',
          '((R,p2),p2)', '((R,p3),fg1.1)', '((R,p3),p3)', '((R,p4),fg1.0)',
          '((R,p4),p4)', '((R,p5),fg2.0)', '((R,p5),fg2.1)', '((R,p5),p5)',
          '((R,q0),q0)', '((R,q1),q1)', '((R,q2),q2)', '((R,q3),q3)',
          '((R,q4),q4)', '((R,q5),q5)', '((R,w0),g0)', '((R,w0),w0)',
          '((R,w1),g1)', '((R,w1),w1)', '((R,w2),g2)', '((R,w2),w2)',
          '((R,z0),z0)', '((R,z1),z1)', '((R,z2),z2)'],
         '25335c50b75c6d197465094dba56a777e011b8da47342460159c511d458ac70d'],
    'elements_square_seed1':
        [['p0', 'p1', 'p2', 'p3', 'p4', 'p5', 'p6', 'p7', 'q0', 'q1', 'q2',
          'q3', 'q4', 'q5', 'q6', 'q7', 'w0', 'w1', 'w2', 'w3', 'z0', 'z1',
          'z2', 'z3', '(p0,p0)', '(p1,p1)', '(p2,p2)', '(p3,fg1.0)', '(p3,p3)',
          '(p4,p4)', '(p5,fg3.0)', '(p5,p5)', '(p6,fg2.0)', '(p6,p6)',
          '(p7,fg0.0)', '(p7,p7)', '(q0,q0)', '(q1,q1)', '(q2,q2)', '(q3,q3)',
          '(q4,q4)', '(q5,q5)', '(q6,q6)', '(q7,q7)', '(w0,g0)', '(w0,w0)',
          '(w1,g1)', '(w1,w1)', '(w2,g2)', '(w2,w2)', '(w3,g3)', '(w3,w3)',
          '(z0,z0)', '(z1,z1)', '(z2,z2)', '(z3,z3)'],
         'e28644cbc3545c495cf43512229958d48a27c5cd4aef5c309163a09e846bf34b'],
    'elements_square_seed1_coproduct':
        [['(L,p0)', '(L,p1)', '(L,p2)', '(L,p3)', '(L,p4)', '(L,p5)', '(L,p6)',
          '(L,p7)', '(L,q0)', '(L,q1)', '(L,q2)', '(L,q3)', '(L,q4)', '(L,q5)',
          '(L,q6)', '(L,q7)', '(L,w0)', '(L,w1)', '(L,w2)', '(L,w3)', '(L,z0)',
          '(L,z1)', '(L,z2)', '(L,z3)', '(R,p0)', '(R,p1)', '(R,p2)', '(R,p3)',
          '(R,p4)', '(R,p5)', '(R,p6)', '(R,p7)', '(R,q0)', '(R,q1)', '(R,q2)',
          '(R,q3)', '(R,q4)', '(R,q5)', '(R,q6)', '(R,q7)', '(R,w0)', '(R,w1)',
          '(R,w2)', '(R,w3)', '(R,z0)', '(R,z1)', '(R,z2)', '(R,z3)',
          '((L,p0),p0)', '((L,p1),p1)', '((L,p2),p2)', '((L,p3),fg1.0)',
          '((L,p3),p3)', '((L,p4),p4)', '((L,p5),fg3.0)', '((L,p5),p5)',
          '((L,p6),fg2.0)', '((L,p6),p6)', '((L,p7),fg0.0)', '((L,p7),p7)',
          '((L,q0),q0)', '((L,q1),q1)', '((L,q2),q2)', '((L,q3),q3)',
          '((L,q4),q4)', '((L,q5),q5)', '((L,q6),q6)', '((L,q7),q7)',
          '((L,w0),g0)', '((L,w0),w0)', '((L,w1),g1)', '((L,w1),w1)',
          '((L,w2),g2)', '((L,w2),w2)', '((L,w3),g3)', '((L,w3),w3)',
          '((L,z0),z0)', '((L,z1),z1)', '((L,z2),z2)', '((L,z3),z3)',
          '((R,p0),p0)', '((R,p1),p1)', '((R,p2),p2)', '((R,p3),fg1.0)',
          '((R,p3),p3)', '((R,p4),p4)', '((R,p5),fg3.0)', '((R,p5),p5)',
          '((R,p6),fg2.0)', '((R,p6),p6)', '((R,p7),fg0.0)', '((R,p7),p7)',
          '((R,q0),q0)', '((R,q1),q1)', '((R,q2),q2)', '((R,q3),q3)',
          '((R,q4),q4)', '((R,q5),q5)', '((R,q6),q6)', '((R,q7),q7)',
          '((R,w0),g0)', '((R,w0),w0)', '((R,w1),g1)', '((R,w1),w1)',
          '((R,w2),g2)', '((R,w2),w2)', '((R,w3),g3)', '((R,w3),w3)',
          '((R,z0),z0)', '((R,z1),z1)', '((R,z2),z2)', '((R,z3),z3)'],
         'b13a672b0f4d799b2ebfd4268be6c82d15b3c1f253fea8c019da71faf25110ba'],
    'elements_square_seed2':
        [['p0', 'p1', 'p2', 'p3', 'q0', 'q1', 'q2', 'q3', 'w0', 'w1', 'z0',
          'z1', '(p0,p0)', '(p1,p1)', '(p2,fg1.0)', '(p2,fg1.1)', '(p2,fg1.2)',
          '(p2,p2)', '(p3,fg0.0)', '(p3,fg0.1)', '(p3,fg0.2)', '(p3,p3)',
          '(q0,q0)', '(q1,q1)', '(q2,q2)', '(q3,q3)', '(w0,g0)', '(w0,w0)',
          '(w1,g1)', '(w1,w1)', '(z0,z0)', '(z1,z1)'],
         '4fe8ec88185208dea62cde71a558719f913d635537a6489bb98cf43b845488af'],
    'elements_square_seed2_coproduct':
        [['(L,p0)', '(L,p1)', '(L,p2)', '(L,p3)', '(L,q0)', '(L,q1)', '(L,q2)',
          '(L,q3)', '(L,w0)', '(L,w1)', '(L,z0)', '(L,z1)', '(R,p0)', '(R,p1)',
          '(R,p2)', '(R,p3)', '(R,q0)', '(R,q1)', '(R,q2)', '(R,q3)', '(R,w0)',
          '(R,w1)', '(R,z0)', '(R,z1)', '((L,p0),p0)', '((L,p1),p1)',
          '((L,p2),fg1.0)', '((L,p2),fg1.1)', '((L,p2),fg1.2)', '((L,p2),p2)',
          '((L,p3),fg0.0)', '((L,p3),fg0.1)', '((L,p3),fg0.2)', '((L,p3),p3)',
          '((L,q0),q0)', '((L,q1),q1)', '((L,q2),q2)', '((L,q3),q3)',
          '((L,w0),g0)', '((L,w0),w0)', '((L,w1),g1)', '((L,w1),w1)',
          '((L,z0),z0)', '((L,z1),z1)', '((R,p0),p0)', '((R,p1),p1)',
          '((R,p2),fg1.0)', '((R,p2),fg1.1)', '((R,p2),fg1.2)', '((R,p2),p2)',
          '((R,p3),fg0.0)', '((R,p3),fg0.1)', '((R,p3),fg0.2)', '((R,p3),p3)',
          '((R,q0),q0)', '((R,q1),q1)', '((R,q2),q2)', '((R,q3),q3)',
          '((R,w0),g0)', '((R,w0),w0)', '((R,w1),g1)', '((R,w1),w1)',
          '((R,z0),z0)', '((R,z1),z1)'],
         '6ef18c451719b2130bb1b0d0994afeb68c199bd362f99779463a6ff90e1205c5'],
    'elements_terminal_10_0':
        [['0', '1', '(0,0<1)', '(0,id:0)', '(1,id:1)'],
         'e83e881b7f7fdc158d16f82d5c749da09e254eb0a85f207bf506f734ebf0718b'],
    'elements_terminal_11_1':
        [['(0,id:*|0)', '(1,h{id:*@0<1})', '((0,id:*|0),0<1)',
          '((0,id:*|0),id:0)', '((1,h{id:*@0<1}),id:1)'],
         'ee0d4032dd2ceb7ff88cc57e26d8a262983a76615bab73fe1b08f0b6798e8d0e'],
    'elements_terminal_6_0':
        [['s', '(s,s)'],
         'e1db2c4851b6c4b871183508d61372afa436441f62b740435c74582d320ab809'],
    'elements_terminal_7_1':
        [['(s,id:*|s)', '((s,id:*|s),s)'],
         '5f63d10b8998dce7d6ea453c4d59ae326f809fe5be8c56c295acee405cb547e4'],
    'elements_terminal_8_0':
        [['s', 't', '(s,s)', '(t,t)'],
         'ac2efd0d3a54c5a4343a1348cded28494cc562aad9166d96668d278be3b61b42'],
    'elements_terminal_9_1':
        [['(s,id:*|s)', '((s,id:*|s),s)'],
         '5f63d10b8998dce7d6ea453c4d59ae326f809fe5be8c56c295acee405cb547e4'],
    'elements_walking_loose_0_0':
        [['E', 'V', 'Wt', '(E,E)', '(E,w)', '(V,V)', '(Wt,Wt)'],
         'ff772c7a35eeb2e3b04891831d2076ef22585f3731d3c736c6b53e2856b6c6e8'],
    'elements_walking_loose_1_1':
        [['(L,E)', '(L,V)', '(L,Wt)', '(R,E)', '(R,V)', '(R,Wt)', '((L,E),E)',
          '((L,E),w)', '((L,V),V)', '((L,Wt),Wt)', '((R,E),E)', '((R,E),w)',
          '((R,V),V)', '((R,Wt),Wt)'],
         '071d28d621c02c2253f2cddc97447e1da77f921c483c59f83e89efd129160f32'],
    'elements_walking_loose_2_0':
        [['a0', 'a1', 'b0', '(a0,a0)', '(a0,h0)', '(a1,a1)', '(a1,h1)',
          '(b0,b0)'],
         '3f1dde74eff260f93c1b14d998393cd48810e8fdc4d4778d5a70541c458b4a00'],
    'elements_walking_loose_3_1':
        [['(L,a0)', '(L,a1)', '(L,b0)', '(R,a0)', '(R,a1)', '(R,b0)',
          '((L,a0),a0)', '((L,a0),h0)', '((L,a1),a1)', '((L,a1),h1)',
          '((L,b0),b0)', '((R,a0),a0)', '((R,a0),h0)', '((R,a1),a1)',
          '((R,a1),h1)', '((R,b0),b0)'],
         'b883c490df408482ca902d13ab6484e86d362476601c834471c3f8bcb787cdc7'],
    'elements_walking_loose_4_0':
        [['a', 'b', '(a,a)', '(b,b)'],
         'f4a6e106f4a878f6a4bbc3c629eed2165d72188a885db208ba277cf33c15b670'],
    'elements_walking_loose_5_1':
        [['(L,a)', '(L,b)', '(R,a)', '(R,b)', '((L,a),a)', '((L,b),b)',
          '((R,a),a)', '((R,b),b)'],
         '6d26eee88a535b9ee6d8f8b16d9a150797ccf6ac215babd66d9c11d2f93d794f'],
    'elements_walking_square_18_0':
        [['1', '2', '3', '4', '(1,1)', '(1,t)', '(2,2)', '(3,3)', '(3,b)',
          '(4,4)'],
         '57bfa079058e44d5d7d563e7ec2b5a65eb19be17f015d67768d4e26c156c3ab4'],
    'elements_walking_square_19_1':
        [['(L,1)', '(L,2)', '(L,3)', '(L,4)', '(R,1)', '(R,2)', '(R,3)',
          '(R,4)', '((L,1),1)', '((L,1),t)', '((L,2),2)', '((L,3),3)',
          '((L,3),b)', '((L,4),4)', '((R,1),1)', '((R,1),t)', '((R,2),2)',
          '((R,3),3)', '((R,3),b)', '((R,4),4)'],
         '832d1e9f572f7cbea2f7a2a68093cc6e3e88d21f73440ed84310562093c8699a'],
    'elements_walking_square_20_0':
        [['1', '1x', '2', '3', '4', '(1,1)', '(1,t)', '(1x,1x)', '(1x,t2)',
          '(2,2)', '(3,3)', '(3,b)', '(4,4)'],
         '8869d8ba0ce95054eef94c1cef73fa0cf5cd3449d12e0481925ade8d5a8f166e'],
    'elements_walking_square_21_1':
        [['(L,1)', '(L,1x)', '(L,2)', '(L,3)', '(L,4)', '(R,1)', '(R,1x)',
          '(R,2)', '(R,3)', '(R,4)', '((L,1),1)', '((L,1),t)', '((L,1x),1x)',
          '((L,1x),t2)', '((L,2),2)', '((L,3),3)', '((L,3),b)', '((L,4),4)',
          '((R,1),1)', '((R,1),t)', '((R,1x),1x)', '((R,1x),t2)', '((R,2),2)',
          '((R,3),3)', '((R,3),b)', '((R,4),4)'],
         'e48b2dc55ab11f55096559efbaffbd237e4cdcc44b7845b97f760999fd68f151'],
    'elements_walking_square_22_0':
        [['1', '2', '3', '4', '4x', '(1,1)', '(1,t)', '(2,2)', '(3,3)',
          '(3,b)', '(3,b2)', '(4,4)', '(4x,4x)'],
         'a928d7c749c0942427cfd5b9febb44e6308db07f5ace5313cd5dc7ce59cc8ca3'],
    'elements_walking_square_23_1':
        [['(L,1)', '(L,2)', '(L,3)', '(L,4)', '(L,4x)', '(R,1)', '(R,2)',
          '(R,3)', '(R,4)', '(R,4x)', '((L,1),1)', '((L,1),t)', '((L,2),2)',
          '((L,3),3)', '((L,3),b)', '((L,3),b2)', '((L,4),4)', '((L,4x),4x)',
          '((R,1),1)', '((R,1),t)', '((R,2),2)', '((R,3),3)', '((R,3),b)',
          '((R,3),b2)', '((R,4),4)', '((R,4x),4x)'],
         '8ba70cdc14135bbda61e723c4abb7da7e848c8c81a77a64a3c9d5dc294c448dd'],
    'elements_walking_tight_12_0':
        [['p', 'q', 'r', '(p,p)', '(q,q)', '(r,r)'],
         '2e03074a066eeb802159e36673c4bcd8d345a7c6ecf67b0ae143cd83a8404b1b'],
    'elements_walking_tight_13_1':
        [['(L,p)', '(L,q)', '(L,r)', '(R,p)', '(R,q)', '(R,r)', '((L,p),p)',
          '((L,q),q)', '((L,r),r)', '((R,p),p)', '((R,q),q)', '((R,r),r)'],
         '0a74ad7032c1c853ea1f891c1a03d93db69507a28fd12f9544307c5128dcf634'],
    'elements_walking_tight_14_0':
        [['p', 'r', 's', '(p,p)', '(r,r)', '(s,s)'],
         '5d4766c452811d0254dbd1d1598b3994a2e50ca947bfe017993fb9f2136dc90a'],
    'elements_walking_tight_15_1':
        [['(L,p)', '(L,r)', '(L,s)', '(R,p)', '(R,r)', '(R,s)', '((L,p),p)',
          '((L,r),r)', '((L,s),s)', '((R,p),p)', '((R,r),r)', '((R,s),s)'],
         'dc578dbe7ffcf968874d55d55a1a221bb819a8bae96fce517bc770a171c873b9'],
    'elements_walking_tight_16_0':
        [['p', 'p2', 'q', 'q2', '(p,p)', '(p2,p2)', '(q,q)', '(q2,q2)'],
         '89b23f2d36c8d129c44b3ac602b7fc54a37fd166fce07b7b6468967d2c89b92a'],
    'elements_walking_tight_17_1':
        [['(L,p)', '(L,p2)', '(L,q)', '(L,q2)', '(R,p)', '(R,p2)', '(R,q)',
          '(R,q2)', '((L,p),p)', '((L,p2),p2)', '((L,q),q)', '((L,q2),q2)',
          '((R,p),p)', '((R,p2),p2)', '((R,q),q)', '((R,q2),q2)'],
         'a960d85b6afaf3aaed6dbd295dfd5f32328c165da3bf42aeffb39986c92d6098'],
    'nabla_loose_seed0':
        [['a0~0', 'a0~1', 'a1~0', 'a1~1', 'a2~0', 'a2~1', 'a3~0', 'a3~1',
          'a4~0', 'a4~1', 'a5~0', 'a5~1', 'b0~0', 'b0~1', 'b1~0', 'b1~1',
          'b2~0', 'b2~1', 'b3~0', 'b3~1'],
         '67aa80fc669e2298ee299a079777ee21f12780848728a9335f5db5c3c551bf5c'],
    'nabla_loose_seed1':
        [['a0~0', 'a1~0', 'a2~0', 'a3~0', 'a4~0', 'a5~0', 'a6~0', 'a7~0',
          'a8~0', 'b0~0', 'b1~0', 'b2~0', 'b3~0', 'b4~0'],
         'e94830272728f4de150338e6355591a862d380f92d849a8207971616126639df'],
    'nabla_loose_seed2':
        [['a0~0', 'a0~1', 'a0~2', 'a1~0', 'a1~1', 'a1~2', 'a2~0', 'a2~1',
          'a2~2', 'a3~0', 'a3~1', 'a3~2', 'b0~0', 'b0~1', 'b0~2', 'b1~0',
          'b1~1', 'b1~2', 'b2~0', 'b2~1', 'b2~2', 'b3~0', 'b3~1', 'b3~2'],
         '56e0b4a822516dd039a71795f5e44fa8edda8e8a22cde52f707aa0f498dc2720'],
    'nabla_signed_24_0':
        [['u', 'v', 'w'],
         '02aa5fbcd5bb175a7834231464d54327d2cb2309cb782332f8fa432894036af8'],
    'nabla_signed_25_1':
        [['(u,h{sigma@p})', '(u,id:*|u)', '(v,h{id:*@a})', '(v,h{sigma@p;a})',
          '(w,h{id:*@p;a;b;q})', '(w,h{id:*@p;a;b})', '(w,h{sigma@a;b;q})',
          '(w,h{sigma@a;b})'],
         'e07ae05702d0d7b98ba49d61f5521175ab28d7e022f398d72edd84d31f81470a'],
    'nabla_signed_26_0':
        [['x', 'y'],
         '7558bc2674ea6022abae6ac76a9e7bd5f810d50708681c66dafb16958cb446d3'],
    'nabla_signed_27_1':
        [['(x,h{sigma@n1})', '(x,id:*|x)', '(y,h{id:*@e;n2})',
          '(y,h{id:*@n1;e})', '(y,h{sigma@e})', '(y,h{sigma@n1;e;n2})'],
         '6f9362754face85d91d8723c59f98d759426d8b86c4e684304487d089a099656'],
    'nabla_signed_28_0':
        [['s', 't', 'z'],
         '317ce7d57ab228eca676f76cb7d19e252775115efa3f77d0df820a89f5405356'],
    'nabla_signed_29_1':
        [['(s,id:*|s)', '(t,h{id:*@f})', '(z,h{id:*@f;g;r})',
          '(z,h{id:*@f;g})', '(z,h{sigma@h;r})', '(z,h{sigma@h})'],
         '871131fe124b3f136ce892d71574ea3091cf27710625f19e6e6484e7171b9858'],
    'nabla_square_seed0':
        [['p0', 'p1', 'p2', 'p3', 'p4', 'p5', 'q0', 'q1', 'q2', 'q3', 'q4',
          'q5', 'w0', 'w1', 'w2', 'z0', 'z1', 'z2'],
         'a9c625b460f1b891c93c9b8a250abc7a2a557a6989986f92da9d3a365df21956'],
    'nabla_square_seed0_coproduct':
        [['(L,p0)', '(L,p1)', '(L,p2)', '(L,p3)', '(L,p4)', '(L,p5)', '(L,q0)',
          '(L,q1)', '(L,q2)', '(L,q3)', '(L,q4)', '(L,q5)', '(L,w0)', '(L,w1)',
          '(L,w2)', '(L,z0)', '(L,z1)', '(L,z2)', '(R,p0)', '(R,p1)', '(R,p2)',
          '(R,p3)', '(R,p4)', '(R,p5)', '(R,q0)', '(R,q1)', '(R,q2)', '(R,q3)',
          '(R,q4)', '(R,q5)', '(R,w0)', '(R,w1)', '(R,w2)', '(R,z0)', '(R,z1)',
          '(R,z2)'],
         '4261c1e53b1318409624a057535767b76d40591715ab042a7cff9eaa9e00a0e9'],
    'nabla_square_seed1':
        [['p0', 'p1', 'p2', 'p3', 'p4', 'p5', 'p6', 'p7', 'q0', 'q1', 'q2',
          'q3', 'q4', 'q5', 'q6', 'q7', 'w0', 'w1', 'w2', 'w3', 'z0', 'z1',
          'z2', 'z3'],
         '1f212d7955a41755ab0770103e20fbe8e0a3263f66f950ee77bd71c83c306ac7'],
    'nabla_square_seed1_coproduct':
        [['(L,p0)', '(L,p1)', '(L,p2)', '(L,p3)', '(L,p4)', '(L,p5)', '(L,p6)',
          '(L,p7)', '(L,q0)', '(L,q1)', '(L,q2)', '(L,q3)', '(L,q4)', '(L,q5)',
          '(L,q6)', '(L,q7)', '(L,w0)', '(L,w1)', '(L,w2)', '(L,w3)', '(L,z0)',
          '(L,z1)', '(L,z2)', '(L,z3)', '(R,p0)', '(R,p1)', '(R,p2)', '(R,p3)',
          '(R,p4)', '(R,p5)', '(R,p6)', '(R,p7)', '(R,q0)', '(R,q1)', '(R,q2)',
          '(R,q3)', '(R,q4)', '(R,q5)', '(R,q6)', '(R,q7)', '(R,w0)', '(R,w1)',
          '(R,w2)', '(R,w3)', '(R,z0)', '(R,z1)', '(R,z2)', '(R,z3)'],
         'ef8dfdc13983f9e72b376bffe07bd378a544d7654646a487f88c6e9b234df1ba'],
    'nabla_square_seed2':
        [['p0', 'p1', 'p2', 'p3', 'q0', 'q1', 'q2', 'q3', 'w0', 'w1', 'z0',
          'z1'],
         'dfb95938b02c3a58c8c63e36684328212f796b17c99b1c8ae39b93c2857a0cb1'],
    'nabla_square_seed2_coproduct':
        [['(L,p0)', '(L,p1)', '(L,p2)', '(L,p3)', '(L,q0)', '(L,q1)', '(L,q2)',
          '(L,q3)', '(L,w0)', '(L,w1)', '(L,z0)', '(L,z1)', '(R,p0)', '(R,p1)',
          '(R,p2)', '(R,p3)', '(R,q0)', '(R,q1)', '(R,q2)', '(R,q3)', '(R,w0)',
          '(R,w1)', '(R,z0)', '(R,z1)'],
         '7d6850a7bd2a38c8aba2924b289211106fd0173471d3fd1ca8e7c27fc7596891'],
    'nabla_terminal_10_0':
        [['0', '1'],
         'f46dd3761324b9bd225691cff31e4e2f1d426b7665e1cadb99b3be533437b6d0'],
    'nabla_terminal_11_1':
        [['(0,id:*|0)', '(1,h{id:*@0<1})'],
         '1f09d606f5b1aa532f5b7d16b5177f043f71edf1508b4eedaab99e1b63ece8eb'],
    'nabla_terminal_6_0':
        [['s'],
         'd1152ef7bf407a73429a9cb897d22b6810b61a76956670f63fb104a3336a2a81'],
    'nabla_terminal_7_1':
        [['(s,id:*|s)'],
         '31a37350eaf90a264f18c66c0f5d441ac13ba1e68be696cc36658271742f8beb'],
    'nabla_terminal_8_0':
        [['s', 't'],
         'eba0fda6569cbc8207edf474ccad933f133145076c02d6624b5ccf97f7e4bad7'],
    'nabla_terminal_9_1':
        [['(s,id:*|s)'],
         '31a37350eaf90a264f18c66c0f5d441ac13ba1e68be696cc36658271742f8beb'],
    'nabla_walking_loose_0_0':
        [['E', 'V', 'Wt'],
         '35bd4ca069ef8d5a1bf56e3d6d16313cc1ba54f0d70015cfba63512bae4b2649'],
    'nabla_walking_loose_1_1':
        [['(L,E)', '(L,V)', '(L,Wt)', '(R,E)', '(R,V)', '(R,Wt)'],
         '17b0eb373270169023e3254353e92171cc15fe7db1916c38eac0b51ee560fdae'],
    'nabla_walking_loose_2_0':
        [['a0', 'a1', 'b0'],
         '36ebec5f28e0abb36333d7dc5d40feee81f55163c8ff699112265d038341ae39'],
    'nabla_walking_loose_3_1':
        [['(L,a0)', '(L,a1)', '(L,b0)', '(R,a0)', '(R,a1)', '(R,b0)'],
         '3252deb4a4ef38a4764291fe91653a34787aae1f9079d9b3257b37510e288d95'],
    'nabla_walking_loose_4_0':
        [['a', 'b'],
         '92a7c693cf4407dc26d898dcf1d177b5fcfd31d267a92e5864e662b4515af8b2'],
    'nabla_walking_loose_5_1':
        [['(L,a)', '(L,b)', '(R,a)', '(R,b)'],
         '1e748fc73ffd2d0888a5ac435b20fa21c9503b0a8bc310cf18e18a31b87a7092'],
    'nabla_walking_square_18_0':
        [['1', '2', '3', '4'],
         '1bd174d20c61e3be51ef417a7adf599968a41dabfe9453f4944d56dabef8eea3'],
    'nabla_walking_square_19_1':
        [['(L,1)', '(L,2)', '(L,3)', '(L,4)', '(R,1)', '(R,2)', '(R,3)',
          '(R,4)'],
         '65f128892fa39f49303e4bfc5307681eb044dffafccda37044ca6c2dd11d6016'],
    'nabla_walking_square_20_0':
        [['1', '1x', '2', '3', '4'],
         'fb9aa569c454800d1ea8015bc620816e092f03ff7e481e436bf7eaf0c4f340f1'],
    'nabla_walking_square_21_1':
        [['(L,1)', '(L,1x)', '(L,2)', '(L,3)', '(L,4)', '(R,1)', '(R,1x)',
          '(R,2)', '(R,3)', '(R,4)'],
         '1665df660975d818f700f868cadfd196b25ac0fc950e1fccbd6b480f63a3d0dc'],
    'nabla_walking_square_22_0':
        [['1', '2', '3', '4', '4x'],
         '019968edd429aa69b1b03fbb2078d5ace1827354d5efbce87f44b095dffaf1a2'],
    'nabla_walking_square_23_1':
        [['(L,1)', '(L,2)', '(L,3)', '(L,4)', '(L,4x)', '(R,1)', '(R,2)',
          '(R,3)', '(R,4)', '(R,4x)'],
         'dfa60d5aaf5074be89f22773e7eb3adeb3e682685cbb27ad2db4643914463890'],
    'nabla_walking_tight_12_0':
        [['p', 'q', 'r'],
         'a179b5f99a5669aa729c5eb1c9a9dbb2bc87adef9f739d9e05187f0676873eb7'],
    'nabla_walking_tight_13_1':
        [['(L,p)', '(L,q)', '(L,r)', '(R,p)', '(R,q)', '(R,r)'],
         '079e8c8801e9000de3f1651aca29f58c7dbf2d5c76ac40efb9f9691e3dddf6e7'],
    'nabla_walking_tight_14_0':
        [['p', 'r', 's'],
         'a7e9f9693c5cd09f995c886327ef5bbc8a25982ff6914dbfa303dc23be64fc03'],
    'nabla_walking_tight_15_1':
        [['(L,p)', '(L,r)', '(L,s)', '(R,p)', '(R,r)', '(R,s)'],
         '8824aede3da60836e94d07b5298cf48dd70492c2b6330afcada48aba82f0c057'],
    'nabla_walking_tight_16_0':
        [['p', 'p2', 'q', 'q2'],
         '6925011b2d62114795d85a3c240b64b07c848dc0cc054765b5ff6cf3da448943'],
    'nabla_walking_tight_17_1':
        [['(L,p)', '(L,p2)', '(L,q)', '(L,q2)', '(R,p)', '(R,p2)', '(R,q)',
          '(R,q2)'],
         'f59e2ab23645b7daae71cb1e07a7d4236cb6f6c796038b6e2c9ac33307e45d32'],
    'restrict_loose_seed0':
        [['(a0~0,a0~0)', '(a0~0,a0~1)', '(a0~1,a0~0)', '(a0~1,a0~1)',
          '(a1~0,a1~0)', '(a1~0,a1~1)', '(a1~1,a1~0)', '(a1~1,a1~1)',
          '(a2~0,a2~0)', '(a2~0,a2~1)', '(a2~1,a2~0)', '(a2~1,a2~1)',
          '(a3~0,a3~0)', '(a3~0,a3~1)', '(a3~1,a3~0)', '(a3~1,a3~1)',
          '(a4~0,a4~0)', '(a4~0,a4~1)', '(a4~1,a4~0)', '(a4~1,a4~1)',
          '(a5~0,a5~0)', '(a5~0,a5~1)', '(a5~1,a5~0)', '(a5~1,a5~1)',
          '(b0~0,b0~0)', '(b0~0,b0~1)', '(b0~1,b0~0)', '(b0~1,b0~1)',
          '(b1~0,b1~0)', '(b1~0,b1~1)', '(b1~1,b1~0)', '(b1~1,b1~1)',
          '(b2~0,b2~0)', '(b2~0,b2~1)', '(b2~1,b2~0)', '(b2~1,b2~1)',
          '(b3~0,b3~0)', '(b3~0,b3~1)', '(b3~1,b3~0)', '(b3~1,b3~1)'],
         'bc5a03f7ef28c4b2edefbd437d84b10f086a73a252cd5f7df63432eec60f8549'],
    'restrict_loose_seed1':
        [['(a0~0,a0~0)', '(a1~0,a1~0)', '(a2~0,a2~0)', '(a3~0,a3~0)',
          '(a4~0,a4~0)', '(a5~0,a5~0)', '(a6~0,a6~0)', '(a7~0,a7~0)',
          '(a8~0,a8~0)', '(b0~0,b0~0)', '(b1~0,b1~0)', '(b2~0,b2~0)',
          '(b3~0,b3~0)', '(b4~0,b4~0)'],
         '9de2fac90a1c74654a45f0a5805101960e3525c1ef29658dea1dc6f8e24bacd3'],
    'restrict_loose_seed2':
        [['(a0~0,a0~0)', '(a0~0,a0~1)', '(a0~0,a0~2)', '(a0~1,a0~0)',
          '(a0~1,a0~1)', '(a0~1,a0~2)', '(a0~2,a0~0)', '(a0~2,a0~1)',
          '(a0~2,a0~2)', '(a1~0,a1~0)', '(a1~0,a1~1)', '(a1~0,a1~2)',
          '(a1~1,a1~0)', '(a1~1,a1~1)', '(a1~1,a1~2)', '(a1~2,a1~0)',
          '(a1~2,a1~1)', '(a1~2,a1~2)', '(a2~0,a2~0)', '(a2~0,a2~1)',
          '(a2~0,a2~2)', '(a2~1,a2~0)', '(a2~1,a2~1)', '(a2~1,a2~2)',
          '(a2~2,a2~0)', '(a2~2,a2~1)', '(a2~2,a2~2)', '(a3~0,a3~0)',
          '(a3~0,a3~1)', '(a3~0,a3~2)', '(a3~1,a3~0)', '(a3~1,a3~1)',
          '(a3~1,a3~2)', '(a3~2,a3~0)', '(a3~2,a3~1)', '(a3~2,a3~2)',
          '(b0~0,b0~0)', '(b0~0,b0~1)', '(b0~0,b0~2)', '(b0~1,b0~0)',
          '(b0~1,b0~1)', '(b0~1,b0~2)', '(b0~2,b0~0)', '(b0~2,b0~1)',
          '(b0~2,b0~2)', '(b1~0,b1~0)', '(b1~0,b1~1)', '(b1~0,b1~2)',
          '(b1~1,b1~0)', '(b1~1,b1~1)', '(b1~1,b1~2)', '(b1~2,b1~0)',
          '(b1~2,b1~1)', '(b1~2,b1~2)', '(b2~0,b2~0)', '(b2~0,b2~1)',
          '(b2~0,b2~2)', '(b2~1,b2~0)', '(b2~1,b2~1)', '(b2~1,b2~2)',
          '(b2~2,b2~0)', '(b2~2,b2~1)', '(b2~2,b2~2)', '(b3~0,b3~0)',
          '(b3~0,b3~1)', '(b3~0,b3~2)', '(b3~1,b3~0)', '(b3~1,b3~1)',
          '(b3~1,b3~2)', '(b3~2,b3~0)', '(b3~2,b3~1)', '(b3~2,b3~2)'],
         '848ff0b16c6d7b139e825d608b6aa17193ce9600e50e83f7c379a1b3c9adc7c3'],
    'restrict_signed_24_0':
        [['(u,u)', '(v,v)', '(w,w)'],
         '4d577bbbf994b0330d6a946d0baf4886d2388eb8ea96bc886f2b83741c64e53e'],
    'restrict_signed_25_1':
        [['((u,h{sigma@p}),(u,h{sigma@p}))', '((u,h{sigma@p}),(u,id:*|u))',
          '((u,id:*|u),(u,h{sigma@p}))', '((u,id:*|u),(u,id:*|u))',
          '((v,h{id:*@a}),(v,h{id:*@a}))', '((v,h{id:*@a}),(v,h{sigma@p;a}))',
          '((v,h{sigma@p;a}),(v,h{id:*@a}))',
          '((v,h{sigma@p;a}),(v,h{sigma@p;a}))',
          '((w,h{id:*@p;a;b;q}),(w,h{id:*@p;a;b;q}))',
          '((w,h{id:*@p;a;b;q}),(w,h{id:*@p;a;b}))',
          '((w,h{id:*@p;a;b;q}),(w,h{sigma@a;b;q}))',
          '((w,h{id:*@p;a;b;q}),(w,h{sigma@a;b}))',
          '((w,h{id:*@p;a;b}),(w,h{id:*@p;a;b;q}))',
          '((w,h{id:*@p;a;b}),(w,h{id:*@p;a;b}))',
          '((w,h{id:*@p;a;b}),(w,h{sigma@a;b;q}))',
          '((w,h{id:*@p;a;b}),(w,h{sigma@a;b}))',
          '((w,h{sigma@a;b;q}),(w,h{id:*@p;a;b;q}))',
          '((w,h{sigma@a;b;q}),(w,h{id:*@p;a;b}))',
          '((w,h{sigma@a;b;q}),(w,h{sigma@a;b;q}))',
          '((w,h{sigma@a;b;q}),(w,h{sigma@a;b}))',
          '((w,h{sigma@a;b}),(w,h{id:*@p;a;b;q}))',
          '((w,h{sigma@a;b}),(w,h{id:*@p;a;b}))',
          '((w,h{sigma@a;b}),(w,h{sigma@a;b;q}))',
          '((w,h{sigma@a;b}),(w,h{sigma@a;b}))'],
         '764297b5debe207900f75e18d8a19419245895b424f6bb44203fedfdb5589703'],
    'restrict_signed_26_0':
        [['(x,x)', '(y,y)'],
         '318a084297e23dd98132864eb28113385cfac0b1a13e00da80fdaff2c7fe42a0'],
    'restrict_signed_27_1':
        [['((x,h{sigma@n1}),(x,h{sigma@n1}))', '((x,h{sigma@n1}),(x,id:*|x))',
          '((x,id:*|x),(x,h{sigma@n1}))', '((x,id:*|x),(x,id:*|x))',
          '((y,h{id:*@e;n2}),(y,h{id:*@e;n2}))',
          '((y,h{id:*@e;n2}),(y,h{id:*@n1;e}))',
          '((y,h{id:*@e;n2}),(y,h{sigma@e}))',
          '((y,h{id:*@e;n2}),(y,h{sigma@n1;e;n2}))',
          '((y,h{id:*@n1;e}),(y,h{id:*@e;n2}))',
          '((y,h{id:*@n1;e}),(y,h{id:*@n1;e}))',
          '((y,h{id:*@n1;e}),(y,h{sigma@e}))',
          '((y,h{id:*@n1;e}),(y,h{sigma@n1;e;n2}))',
          '((y,h{sigma@e}),(y,h{id:*@e;n2}))',
          '((y,h{sigma@e}),(y,h{id:*@n1;e}))',
          '((y,h{sigma@e}),(y,h{sigma@e}))',
          '((y,h{sigma@e}),(y,h{sigma@n1;e;n2}))',
          '((y,h{sigma@n1;e;n2}),(y,h{id:*@e;n2}))',
          '((y,h{sigma@n1;e;n2}),(y,h{id:*@n1;e}))',
          '((y,h{sigma@n1;e;n2}),(y,h{sigma@e}))',
          '((y,h{sigma@n1;e;n2}),(y,h{sigma@n1;e;n2}))'],
         'c32cfe4b49b423db3def04da2683dc516314b6801af3bb0b292e504b595c431e'],
    'restrict_signed_28_0':
        [['(s,s)', '(t,t)', '(z,z)'],
         '2948bc48f55f16797e4e576711081adbbca25e2954f620be5c40cf71e7638cc7'],
    'restrict_signed_29_1':
        [['((s,id:*|s),(s,id:*|s))', '((t,h{id:*@f}),(t,h{id:*@f}))',
          '((z,h{id:*@f;g;r}),(z,h{id:*@f;g;r}))',
          '((z,h{id:*@f;g;r}),(z,h{id:*@f;g}))',
          '((z,h{id:*@f;g;r}),(z,h{sigma@h;r}))',
          '((z,h{id:*@f;g;r}),(z,h{sigma@h}))',
          '((z,h{id:*@f;g}),(z,h{id:*@f;g;r}))',
          '((z,h{id:*@f;g}),(z,h{id:*@f;g}))',
          '((z,h{id:*@f;g}),(z,h{sigma@h;r}))',
          '((z,h{id:*@f;g}),(z,h{sigma@h}))',
          '((z,h{sigma@h;r}),(z,h{id:*@f;g;r}))',
          '((z,h{sigma@h;r}),(z,h{id:*@f;g}))',
          '((z,h{sigma@h;r}),(z,h{sigma@h;r}))',
          '((z,h{sigma@h;r}),(z,h{sigma@h}))',
          '((z,h{sigma@h}),(z,h{id:*@f;g;r}))',
          '((z,h{sigma@h}),(z,h{id:*@f;g}))',
          '((z,h{sigma@h}),(z,h{sigma@h;r}))',
          '((z,h{sigma@h}),(z,h{sigma@h}))'],
         '4aa56d65961cff0906b22c8036c7945530489beb4f05b90ae2035cd00ef605f4'],
    'restrict_square_seed0':
        [['(p0,p0)', '(p1,p1)', '(p2,p2)', '(p3,p3)', '(p4,p4)', '(p5,p5)',
          '(q0,q0)', '(q1,q1)', '(q2,q2)', '(q3,q3)', '(q4,q4)', '(q5,q5)',
          '(w0,w0)', '(w1,w1)', '(w2,w2)', '(z0,z0)', '(z1,z1)', '(z2,z2)'],
         'f82528d57cfce9c5e6f746055603de4c27453f886d971e2a5022d5e070f9d068'],
    'restrict_square_seed0_coproduct':
        [['((L,p0),(L,p0))', '((L,p0),(R,p0))', '((L,p1),(L,p1))',
          '((L,p1),(R,p1))', '((L,p2),(L,p2))', '((L,p2),(R,p2))',
          '((L,p3),(L,p3))', '((L,p3),(R,p3))', '((L,p4),(L,p4))',
          '((L,p4),(R,p4))', '((L,p5),(L,p5))', '((L,p5),(R,p5))',
          '((L,q0),(L,q0))', '((L,q0),(R,q0))', '((L,q1),(L,q1))',
          '((L,q1),(R,q1))', '((L,q2),(L,q2))', '((L,q2),(R,q2))',
          '((L,q3),(L,q3))', '((L,q3),(R,q3))', '((L,q4),(L,q4))',
          '((L,q4),(R,q4))', '((L,q5),(L,q5))', '((L,q5),(R,q5))',
          '((L,w0),(L,w0))', '((L,w0),(R,w0))', '((L,w1),(L,w1))',
          '((L,w1),(R,w1))', '((L,w2),(L,w2))', '((L,w2),(R,w2))',
          '((L,z0),(L,z0))', '((L,z0),(R,z0))', '((L,z1),(L,z1))',
          '((L,z1),(R,z1))', '((L,z2),(L,z2))', '((L,z2),(R,z2))',
          '((R,p0),(L,p0))', '((R,p0),(R,p0))', '((R,p1),(L,p1))',
          '((R,p1),(R,p1))', '((R,p2),(L,p2))', '((R,p2),(R,p2))',
          '((R,p3),(L,p3))', '((R,p3),(R,p3))', '((R,p4),(L,p4))',
          '((R,p4),(R,p4))', '((R,p5),(L,p5))', '((R,p5),(R,p5))',
          '((R,q0),(L,q0))', '((R,q0),(R,q0))', '((R,q1),(L,q1))',
          '((R,q1),(R,q1))', '((R,q2),(L,q2))', '((R,q2),(R,q2))',
          '((R,q3),(L,q3))', '((R,q3),(R,q3))', '((R,q4),(L,q4))',
          '((R,q4),(R,q4))', '((R,q5),(L,q5))', '((R,q5),(R,q5))',
          '((R,w0),(L,w0))', '((R,w0),(R,w0))', '((R,w1),(L,w1))',
          '((R,w1),(R,w1))', '((R,w2),(L,w2))', '((R,w2),(R,w2))',
          '((R,z0),(L,z0))', '((R,z0),(R,z0))', '((R,z1),(L,z1))',
          '((R,z1),(R,z1))', '((R,z2),(L,z2))', '((R,z2),(R,z2))'],
         '93c859f5ee8ff6449886a72656f6be4bb33af826777fe122a29607a8b40a96d7'],
    'restrict_square_seed1':
        [['(p0,p0)', '(p1,p1)', '(p2,p2)', '(p3,p3)', '(p4,p4)', '(p5,p5)',
          '(p6,p6)', '(p7,p7)', '(q0,q0)', '(q1,q1)', '(q2,q2)', '(q3,q3)',
          '(q4,q4)', '(q5,q5)', '(q6,q6)', '(q7,q7)', '(w0,w0)', '(w1,w1)',
          '(w2,w2)', '(w3,w3)', '(z0,z0)', '(z1,z1)', '(z2,z2)', '(z3,z3)'],
         '54fb927eaf90713931d551cf4dec402262230a296d4564659f417bc9a27d9227'],
    'restrict_square_seed1_coproduct':
        [['((L,p0),(L,p0))', '((L,p0),(R,p0))', '((L,p1),(L,p1))',
          '((L,p1),(R,p1))', '((L,p2),(L,p2))', '((L,p2),(R,p2))',
          '((L,p3),(L,p3))', '((L,p3),(R,p3))', '((L,p4),(L,p4))',
          '((L,p4),(R,p4))', '((L,p5),(L,p5))', '((L,p5),(R,p5))',
          '((L,p6),(L,p6))', '((L,p6),(R,p6))', '((L,p7),(L,p7))',
          '((L,p7),(R,p7))', '((L,q0),(L,q0))', '((L,q0),(R,q0))',
          '((L,q1),(L,q1))', '((L,q1),(R,q1))', '((L,q2),(L,q2))',
          '((L,q2),(R,q2))', '((L,q3),(L,q3))', '((L,q3),(R,q3))',
          '((L,q4),(L,q4))', '((L,q4),(R,q4))', '((L,q5),(L,q5))',
          '((L,q5),(R,q5))', '((L,q6),(L,q6))', '((L,q6),(R,q6))',
          '((L,q7),(L,q7))', '((L,q7),(R,q7))', '((L,w0),(L,w0))',
          '((L,w0),(R,w0))', '((L,w1),(L,w1))', '((L,w1),(R,w1))',
          '((L,w2),(L,w2))', '((L,w2),(R,w2))', '((L,w3),(L,w3))',
          '((L,w3),(R,w3))', '((L,z0),(L,z0))', '((L,z0),(R,z0))',
          '((L,z1),(L,z1))', '((L,z1),(R,z1))', '((L,z2),(L,z2))',
          '((L,z2),(R,z2))', '((L,z3),(L,z3))', '((L,z3),(R,z3))',
          '((R,p0),(L,p0))', '((R,p0),(R,p0))', '((R,p1),(L,p1))',
          '((R,p1),(R,p1))', '((R,p2),(L,p2))', '((R,p2),(R,p2))',
          '((R,p3),(L,p3))', '((R,p3),(R,p3))', '((R,p4),(L,p4))',
          '((R,p4),(R,p4))', '((R,p5),(L,p5))', '((R,p5),(R,p5))',
          '((R,p6),(L,p6))', '((R,p6),(R,p6))', '((R,p7),(L,p7))',
          '((R,p7),(R,p7))', '((R,q0),(L,q0))', '((R,q0),(R,q0))',
          '((R,q1),(L,q1))', '((R,q1),(R,q1))', '((R,q2),(L,q2))',
          '((R,q2),(R,q2))', '((R,q3),(L,q3))', '((R,q3),(R,q3))',
          '((R,q4),(L,q4))', '((R,q4),(R,q4))', '((R,q5),(L,q5))',
          '((R,q5),(R,q5))', '((R,q6),(L,q6))', '((R,q6),(R,q6))',
          '((R,q7),(L,q7))', '((R,q7),(R,q7))', '((R,w0),(L,w0))',
          '((R,w0),(R,w0))', '((R,w1),(L,w1))', '((R,w1),(R,w1))',
          '((R,w2),(L,w2))', '((R,w2),(R,w2))', '((R,w3),(L,w3))',
          '((R,w3),(R,w3))', '((R,z0),(L,z0))', '((R,z0),(R,z0))',
          '((R,z1),(L,z1))', '((R,z1),(R,z1))', '((R,z2),(L,z2))',
          '((R,z2),(R,z2))', '((R,z3),(L,z3))', '((R,z3),(R,z3))'],
         '254c2c64a64a56c0af9ec86659f8a816653293d4b4807ef1e6ff230f6b15e057'],
    'restrict_square_seed2':
        [['(p0,p0)', '(p1,p1)', '(p2,p2)', '(p3,p3)', '(q0,q0)', '(q1,q1)',
          '(q2,q2)', '(q3,q3)', '(w0,w0)', '(w1,w1)', '(z0,z0)', '(z1,z1)'],
         '8d69bfaaedd0c89ab4a705110d211f26f690628eb817bfd0c7f6a67b385dcca1'],
    'restrict_square_seed2_coproduct':
        [['((L,p0),(L,p0))', '((L,p0),(R,p0))', '((L,p1),(L,p1))',
          '((L,p1),(R,p1))', '((L,p2),(L,p2))', '((L,p2),(R,p2))',
          '((L,p3),(L,p3))', '((L,p3),(R,p3))', '((L,q0),(L,q0))',
          '((L,q0),(R,q0))', '((L,q1),(L,q1))', '((L,q1),(R,q1))',
          '((L,q2),(L,q2))', '((L,q2),(R,q2))', '((L,q3),(L,q3))',
          '((L,q3),(R,q3))', '((L,w0),(L,w0))', '((L,w0),(R,w0))',
          '((L,w1),(L,w1))', '((L,w1),(R,w1))', '((L,z0),(L,z0))',
          '((L,z0),(R,z0))', '((L,z1),(L,z1))', '((L,z1),(R,z1))',
          '((R,p0),(L,p0))', '((R,p0),(R,p0))', '((R,p1),(L,p1))',
          '((R,p1),(R,p1))', '((R,p2),(L,p2))', '((R,p2),(R,p2))',
          '((R,p3),(L,p3))', '((R,p3),(R,p3))', '((R,q0),(L,q0))',
          '((R,q0),(R,q0))', '((R,q1),(L,q1))', '((R,q1),(R,q1))',
          '((R,q2),(L,q2))', '((R,q2),(R,q2))', '((R,q3),(L,q3))',
          '((R,q3),(R,q3))', '((R,w0),(L,w0))', '((R,w0),(R,w0))',
          '((R,w1),(L,w1))', '((R,w1),(R,w1))', '((R,z0),(L,z0))',
          '((R,z0),(R,z0))', '((R,z1),(L,z1))', '((R,z1),(R,z1))'],
         '9e37cd5b2d6e08b44a6471922f9e43b3bd640fe538bfbeaae7f219d8109f449c'],
    'restrict_terminal_10_0':
        [['(0,0)', '(1,1)'],
         'c49b4c358aee037fe1a744fbf105e1f60bba098c480b3dffa6238390acdf1947'],
    'restrict_terminal_11_1':
        [['((0,id:*|0),(0,id:*|0))', '((1,h{id:*@0<1}),(1,h{id:*@0<1}))'],
         '66693c4624de596ca58f8980784c8fa529562db194daf11617d58babdfafc22d'],
    'restrict_terminal_6_0':
        [['(s,s)'],
         '350e97fe7f1c5f5b79c42b3edef8f593fe78da028d69cac9f8caae0e8c8659da'],
    'restrict_terminal_7_1':
        [['((s,id:*|s),(s,id:*|s))'],
         '0da2fcecbecad0ec6d2b559dcb142292c37eaacc99cfbefb6379d42df7db88a8'],
    'restrict_terminal_8_0':
        [['(s,s)', '(t,t)'],
         '5e16425e52079bd1b1abeccce2925060ec5004d1bdadc6e461f541149ac262c5'],
    'restrict_terminal_9_1':
        [['((s,id:*|s),(s,id:*|s))'],
         '0da2fcecbecad0ec6d2b559dcb142292c37eaacc99cfbefb6379d42df7db88a8'],
    'restrict_walking_loose_0_0':
        [['(E,E)', '(V,V)', '(Wt,Wt)'],
         '4dbae25bf5c02943f4d1a55f621c201d991bc25c6fe5b93af63bed51f83b061c'],
    'restrict_walking_loose_1_1':
        [['((L,E),(L,E))', '((L,E),(R,E))', '((L,V),(L,V))', '((L,V),(R,V))',
          '((L,Wt),(L,Wt))', '((L,Wt),(R,Wt))', '((R,E),(L,E))',
          '((R,E),(R,E))', '((R,V),(L,V))', '((R,V),(R,V))', '((R,Wt),(L,Wt))',
          '((R,Wt),(R,Wt))'],
         'd669cc43be77af92ab22c0d0006cf54910728b70d768dcdbb29e30ab010e20fe'],
    'restrict_walking_loose_2_0':
        [['(a0,a0)', '(a1,a1)', '(b0,b0)'],
         '88863336ef9c4793d97462faf1f255d732bc6a964eb93c1aad78625195b6128f'],
    'restrict_walking_loose_3_1':
        [['((L,a0),(L,a0))', '((L,a0),(R,a0))', '((L,a1),(L,a1))',
          '((L,a1),(R,a1))', '((L,b0),(L,b0))', '((L,b0),(R,b0))',
          '((R,a0),(L,a0))', '((R,a0),(R,a0))', '((R,a1),(L,a1))',
          '((R,a1),(R,a1))', '((R,b0),(L,b0))', '((R,b0),(R,b0))'],
         '58598e71778724c244f4a010a06e2dfa2f40e4d794681786c1c265565ce3ef3b'],
    'restrict_walking_loose_4_0':
        [['(a,a)', '(b,b)'],
         '9607a45b46c098dd120d3f05c43f75cd5f8f86738671103901028e67006a8ff3'],
    'restrict_walking_loose_5_1':
        [['((L,a),(L,a))', '((L,a),(R,a))', '((L,b),(L,b))', '((L,b),(R,b))',
          '((R,a),(L,a))', '((R,a),(R,a))', '((R,b),(L,b))', '((R,b),(R,b))'],
         '4e99a10e62dd0106da5762fb175c2e189244a3a83108c3480897f53dd01c3ced'],
    'restrict_walking_square_18_0':
        [['(1,1)', '(2,2)', '(3,3)', '(4,4)'],
         '5aab2dac1608f6bc15fa68da12a7794f3b109994c83984ec0b68fcca199158e5'],
    'restrict_walking_square_19_1':
        [['((L,1),(L,1))', '((L,1),(R,1))', '((L,2),(L,2))', '((L,2),(R,2))',
          '((L,3),(L,3))', '((L,3),(R,3))', '((L,4),(L,4))', '((L,4),(R,4))',
          '((R,1),(L,1))', '((R,1),(R,1))', '((R,2),(L,2))', '((R,2),(R,2))',
          '((R,3),(L,3))', '((R,3),(R,3))', '((R,4),(L,4))', '((R,4),(R,4))'],
         'a038f49422c5219e91beab336ded959c0ae52104d334a3728bc2adb33e822dd1'],
    'restrict_walking_square_20_0':
        [['(1,1)', '(1x,1x)', '(2,2)', '(3,3)', '(4,4)'],
         '17797bc877407eb509a3526c47b63238aaa928e872033bfc1544bbe0f88d713d'],
    'restrict_walking_square_21_1':
        [['((L,1),(L,1))', '((L,1),(R,1))', '((L,1x),(L,1x))',
          '((L,1x),(R,1x))', '((L,2),(L,2))', '((L,2),(R,2))', '((L,3),(L,3))',
          '((L,3),(R,3))', '((L,4),(L,4))', '((L,4),(R,4))', '((R,1),(L,1))',
          '((R,1),(R,1))', '((R,1x),(L,1x))', '((R,1x),(R,1x))',
          '((R,2),(L,2))', '((R,2),(R,2))', '((R,3),(L,3))', '((R,3),(R,3))',
          '((R,4),(L,4))', '((R,4),(R,4))'],
         'b70a4d587e00ce26233adb7cdf0b867efea6d01877e211ad9e397c8ff427054a'],
    'restrict_walking_square_22_0':
        [['(1,1)', '(2,2)', '(3,3)', '(4,4)', '(4x,4x)'],
         '66462852d67792aa39d973028320d6a2caece167bf2c786fc8c5e9f991cb056c'],
    'restrict_walking_square_23_1':
        [['((L,1),(L,1))', '((L,1),(R,1))', '((L,2),(L,2))', '((L,2),(R,2))',
          '((L,3),(L,3))', '((L,3),(R,3))', '((L,4),(L,4))', '((L,4),(R,4))',
          '((L,4x),(L,4x))', '((L,4x),(R,4x))', '((R,1),(L,1))',
          '((R,1),(R,1))', '((R,2),(L,2))', '((R,2),(R,2))', '((R,3),(L,3))',
          '((R,3),(R,3))', '((R,4),(L,4))', '((R,4),(R,4))', '((R,4x),(L,4x))',
          '((R,4x),(R,4x))'],
         'a76d1edfffb1a7d0161f558e3bf1c184a2f0fcc3283215e705df112c02dba8b4'],
    'restrict_walking_tight_12_0':
        [['(p,p)', '(q,q)', '(r,r)'],
         '2e77a0c18b3d21d05533bfb25697ac4bf36bcfe9f1a9f39896faea7b8c6845ef'],
    'restrict_walking_tight_13_1':
        [['((L,p),(L,p))', '((L,p),(R,p))', '((L,q),(L,q))', '((L,q),(R,q))',
          '((L,r),(L,r))', '((L,r),(R,r))', '((R,p),(L,p))', '((R,p),(R,p))',
          '((R,q),(L,q))', '((R,q),(R,q))', '((R,r),(L,r))', '((R,r),(R,r))'],
         '955a7e71157a9750583049f5ada7e0bd32bfce612ba5f8f6c23df63f0fb52c64'],
    'restrict_walking_tight_14_0':
        [['(p,p)', '(r,r)', '(s,s)'],
         'fde3c50d62e4974d934c03f6ce7525c520072037d24458f9e4bb15732a54f7f4'],
    'restrict_walking_tight_15_1':
        [['((L,p),(L,p))', '((L,p),(R,p))', '((L,r),(L,r))', '((L,r),(R,r))',
          '((L,s),(L,s))', '((L,s),(R,s))', '((R,p),(L,p))', '((R,p),(R,p))',
          '((R,r),(L,r))', '((R,r),(R,r))', '((R,s),(L,s))', '((R,s),(R,s))'],
         '21da7318510d8768a59bf2a0812f2dd2d987856e04b4b30bc3c0b615db1f4526'],
    'restrict_walking_tight_16_0':
        [['(p,p)', '(p2,p2)', '(q,q)', '(q2,q2)'],
         '01cce9d05d9f31f1e6422b9c1cc17d82beb3a39af625c9714d87743dace8c55f'],
    'restrict_walking_tight_17_1':
        [['((L,p),(L,p))', '((L,p),(R,p))', '((L,p2),(L,p2))',
          '((L,p2),(R,p2))', '((L,q),(L,q))', '((L,q),(R,q))',
          '((L,q2),(L,q2))', '((L,q2),(R,q2))', '((R,p),(L,p))',
          '((R,p),(R,p))', '((R,p2),(L,p2))', '((R,p2),(R,p2))',
          '((R,q),(L,q))', '((R,q),(R,q))', '((R,q2),(L,q2))',
          '((R,q2),(R,q2))'],
         'c36ada53d2ad496f0bebf4e1d348a03b6b8a05c59dc91fee94883c54ded8c528'],
    'sketch_loose_seed0':
        ['c12864256eccb33c32608f10ec292904e1c9138191b166f69c9e0d3b11b39db3',
         [0,
          '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
         'c0a0bd5e48a02c7bca0b12800c1e398cf859ffb753ef0701978343eacb7bf7ed'],
    'sketch_loose_seed1':
        ['8f384e9fbc7a5a7777d383c47e0e462775a517515f42b4a32fa080f6ad84e4dd',
         [0,
          '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
         '8f30eb4b436f4ef6f7dc85ac130f86f248177804187dbf75aca703760276636c'],
    'sketch_loose_seed2':
        ['4f8c5c69d1fe50dd1d373825490bc5609b72983f8ae1ed7f3c83abeb51a7be8d',
         [0,
          '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
         '14fe6799ff13ce89f22efe7a24e4559a275e4bfaeef0bedee1a0bfcab70f08b9'],
    'sketch_not_a_pullback':
        ['pair sort of (id:dom,l) is not the materialized pullback',
         [13,
          'e5552bc7443151ae5b49f619e56a5881947b62eabb332cf94947058af3a25ca7']],
    'sketch_signed_24_0':
        ['76988e065bca7d2587f903b632ee20d5ac2725ace53b90517f258681ecb3ac8f',
         [0,
          '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
         '212c4a6d839fef2442bac96dee5b5cff75a141f0f94b739d4eb1082dbddd95ad'],
    'sketch_signed_26_0':
        ['0645e2c0d96ccddda1fbd373e476b3557846d0a27e5ad2c1e6b51f087b5936b6',
         [0,
          '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
         '0682924ea801ea4da21014ce8c8b31f64c79b5f58c718ee1040b8c362f1f5f82'],
    'sketch_signed_28_0':
        ['a9664b96435a7050e969640410bdb8a35d6953552028e0247b55e61abd5729d4',
         [0,
          '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
         '3965cbde0b75977efe47faccbb12deabcc9ce32dba9c86992b1197a5e665a488'],
    'sketch_square_seed0':
        ['405c7eb987773815b7d95e2b2ce3b5a90b02fb6a27550a6228a9f8b260180548',
         [0,
          '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
         'bb63327f73aecfdba8c689514aad16804484612cb5363b49e9bc61b905af08c8'],
    'sketch_square_seed1':
        ['7e0e0a43adcb9b8cc6921f0a3eab5e65959d8d2608d2d7813bf58441b480e2d2',
         [0,
          '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
         '36132043e30926d2c4628c0180f0062619761a83b805d23488689230dd797d96'],
    'sketch_square_seed2':
        ['81f70e0c8bc38e5162ffe2a443b7e59648b956ff285447b5609d5eb6ee10a386',
         [0,
          '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
         '07c48e088b7cd7b08c87ae5e2b6a94b622a6c77921440f51be2aa607949381f1'],
    'sketch_terminal_10_0':
        ['e4b90c5cad46db585b700d7d34184a5cc494d0c7a1093b917f91f2a92678f20b',
         [0,
          '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
         'f67a2e3ba73a31772a7f94a61f7857d7838e59314e5b7e1d2312b81e75ad9620'],
    'sketch_terminal_6_0':
        ['718bfa7b0ba97aac1cfde3dd74c618fa9c57c38bf32fc45939e6d29d14b53f77',
         [0,
          '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
         '3e8c9f7737bed12e59acc4a5c86f0def7104cbf2fc825a1bd40e8748c382f042'],
    'sketch_terminal_8_0':
        ['34e573329e304cbeb101caedb5b9b61177605c91fd9af91df3e8ac76cca0f383',
         [0,
          '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
         'dd078807a2780f2fb6d30b85139b98a0a318b9cc6b4259eb45b4c0d43084e292'],
    'sketch_walking_loose_0_0':
        ['bf38de99b10199b1c05a561a92c7377b2163fe48f564cdfff00e72d8f0bc395c',
         [0,
          '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
         'f51c4acbbb71ce6d4575308b6c7bdbe6bd8103cf6d242526591be294fc2737a4'],
    'sketch_walking_loose_2_0':
        ['7f25fe7f039e3544813d16c602aaa61d0b2d6af6d508098f2087fb023e010472',
         [0,
          '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
         '3171ecdcd2b6cef16ddea1189c7680877488211c6f9c3a1b4a14037bc6d111d9'],
    'sketch_walking_loose_4_0':
        ['cf054ee6fe30c5de803517af2e966bfd5cf51b2bbcdafc5c9ab1ea939f1d616e',
         [0,
          '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
         '3a5ead7bb5b1138d4bb96630e1d22f8aa5763436dfd82076d64ab952c4bde52f'],
    'sketch_walking_square_18_0':
        ['1c4a0b15b06b2abdbce24e0438098228bd460cfbc88f44c53e64782fc40b96cf',
         [0,
          '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
         'c911bb56877169634ef4000de68fe65a6a286b9ce99769a2c629e4d8fc07094d'],
    'sketch_walking_square_20_0':
        ['5ccc37f1e3768d1039dadba39866d1fecee34792089401b133ae2bdd1c793262',
         [0,
          '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
         'cb3df6cc1ea33bbb2653d26ed1adcc45dbbffcab9ecb97506c573525f3151dca'],
    'sketch_walking_square_22_0':
        ['b4bd8e60440529b8e7089e4ff9075f28877ce76306715741065a1539143ca62a',
         [0,
          '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
         'd94e2b08b66e77b4a99f8ea5b5abadcde78b3646ee9daa9e8557cf718b4d0867'],
    'sketch_walking_tight_12_0':
        ['0d519b5191202917138a82bc9be63cdf05cf4e093b8af4d2d922d6164362f5e3',
         [0,
          '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
         '5309993672da397893d8cff13c9b609f48fc8407e65d05d2a707692154eab9e3'],
    'sketch_walking_tight_14_0':
        ['47df65ce45b121fc1764843cda4c425d7dd5741b371d9cc94ef77ab64d51e463',
         [0,
          '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
         '6e26604db94c555660e088cec4da305e9161170dafe6c9f04655c4f4f52771b8'],
    'sketch_walking_tight_16_0':
        ['bc280b4da38ec75f05d49578d39d5982ca5e02d8d592554b9005466835b723c6',
         [0,
          '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
         'c3d597d5c4ad1a4df9c947054b859d77b16dcbc2001c02b7a034c7250db61836'],
    'validate_instance_associativity':
        [20,
         '9f76623da956c88c85d86893685e1d452e4e452a30b9687846da5eedb2bcc614'],
    'validate_instance_carrier_labels':
        [1, '63c723f9da5b21595409fe4166212644791bad3d203232ca5b126d99bba1e26b'],
    'validate_instance_labels':
        [2, 'ef7b45296c09cae2dea6c825c7bdcdf790546e196378630e2a397d9b1c4188bf'],
    'validate_instance_not_total':
        [1, '30094c1a82a3aa8e2bd3e17e69338b98b898a17cd9eb37bc5b79be404ec0acab'],
    'validate_instance_square_naturality':
        [6, 'fd282b08ac37c0ba9210c67ee785dc4fd9d2ff3eba1a2fe910f68499f631cfab'],
    'validate_model_associativity':
        ['laxator associativity fails at (id:dom,id:dom,l) on (a0,a0,h0)',
         'laxator associativity fails at (id:dom,id:dom,l) on (a0,a0,h1)',
         'laxator associativity fails at (id:dom,id:dom,l) on (a2,a2,h4)',
         'laxator associativity fails at (id:dom,id:dom,l) on (a2,a2,h5)',
         'laxator associativity fails at (l,id:cod,id:cod) on (h2,b1,b1)',
         'laxator associativity fails at (l,id:cod,id:cod) on (h3,b1,b1)'],
    'validate_model_cell_legs':
        ['cell c[l|r|top|bot] breaks the left leg at fg0.0',
         'cell c[l|r|top|bot] breaks the right leg at fg0.0',
         'cell c[l|r|top|bot] breaks the left leg at fg2.1',
         'cell c[l|r|top|bot] breaks the right leg at fg2.1'],
    'validate_model_laxator_legs':
        ['laxator at (id:cod,id:cod) not total on the pullback',
         'laxator at (id:dom,l) breaks a leg at (a0,h0)',
         'laxator at (id:dom,l) leaves the target',
         'laxator at (id:dom,l) breaks a leg at (a2,h6)',
         'laxator at (l,id:cod) breaks a leg at (h4,b0)'],
    'validate_model_square_naturality':
        ['laxator naturality fails at cells '
         '(c[l|l|id:tl|id:bl],c[l|r|top|bot]) on (p1,f2)',
         'laxator naturality fails at cells '
         '(c[l|r|top|bot],c[r|r|id:tr|id:br]) on (f0,q0)',
         'laxator naturality fails at cells '
         '(c[l|r|top|bot],c[r|r|id:tr|id:br]) on (f1,q0)',
         'laxator associativity fails at (id:tl,id:tl,top) on (p0,p0,f0)',
         'laxator associativity fails at (id:tl,id:tl,top) on (p0,p0,f1)',
         'laxator associativity fails at (id:bl,id:bl,bot) on (w0,w0,g0)',
         'laxator associativity fails at (id:bl,id:bl,bot) on (w0,w0,g1)',
         'laxator associativity fails at (top,id:tr,id:tr) on (f0,q0,q0)',
         'laxator associativity fails at (top,id:tr,id:tr) on (f1,q0,q0)'],
    'validate_model_tight_total':
        ['tight arrow l has no total function',
         'tight arrow r has no total function'],
    'validate_model_unitor_legs':
        ['unitor at dom breaks a leg at a0',
         'unitor at dom breaks a leg at a1'],
    'validate_sketch_lax':
        [9, 'e6eb5b770cbd2a21ce41dd9363180d0144314fb4dbeae540dc4a77f2f2154025'],
    'validate_sketch_projections':
        [11,
         '2adcb8bbe7be30c495d94f0cc063e1e8e1d9f4c5e75413c5c72d5db15cf6955b'],
    'validate_sketch_src':
        [4, '9c260c05829c48270053ef5457a7c50f4594e9fd8a02136d678ef9423e917a5c'],
    'validate_theory_horizontal_3':
        [40,
         '8750225265b01a9db4f985835eced861adbe629d2911d01ef63a5000cecf40ba'],
    'validate_theory_interchange':
        ['interchange fails at grid (mm:1-2:2,mm:2-1:1.1;mm:0-0:,mm:0-1:)',
         'interchange fails at grid (mm:2-1:1.1,mm:1-1:1;mm:0-0:,mm:0-1:)',
         'interchange fails at grid (mm:2-2:1.1,mm:2-1:1.1;mm:0-0:,mm:0-1:)',
         'interchange fails at grid (mm:2-2:2.2,mm:2-1:1.1;mm:0-0:,mm:0-1:)'],
    'validate_theory_mixed':
        ['vertical unit fails at mm:2-2:1.1',
         'horizontal unit fails at mm:1-2:1',
         'vertical associativity fails at (mm:0-0:,mm:2-1:1.1,mm:0-1:)',
         'horizontal associativity fails at (mm:1-2:1,mm:2-2:1.1,mm:2-2:1.2)',
         'horizontal associativity fails at (mm:1-2:2,mm:2-2:1.1,mm:2-2:1.2)',
         'horizontal associativity fails at (mm:2-1:1.1,mm:1-2:1,mm:2-2:1.2)',
         'interchange fails at grid (mm:0-0:,mm:0-0:;mm:1-2:1,mm:2-2:1.1)',
         'interchange fails at grid (mm:0-0:,mm:0-0:;mm:1-2:2,mm:2-2:1.1)',
         'interchange fails at grid (mm:0-0:,mm:0-0:;mm:2-1:1.1,mm:1-2:1)',
         'interchange fails at grid (mm:0-0:,mm:0-1:;mm:1-2:1,mm:2-1:1.1)',
         'interchange fails at grid (mm:0-0:,mm:0-1:;mm:1-2:2,mm:2-1:1.1)',
         'interchange fails at grid (mm:0-0:,mm:0-1:;mm:2-1:1.1,mm:1-1:1)',
         'interchange fails at grid (mm:0-1:,mm:1-1:1;mm:1-1:1,mm:1-1:1)',
         'interchange fails at grid (mm:1-1:1,mm:1-1:1;mm:0-1:,mm:1-1:1)'],
    'validate_theory_vertical':
        ['vertical unit fails at mm:1-2:1',
         'vertical associativity fails at (mm:0-0:,mm:1-1:1,mm:0-1:)',
         'interchange fails at grid (mm:0-0:,mm:0-0:;mm:1-2:1,mm:2-2:1.1)',
         'interchange fails at grid (mm:0-0:,mm:0-0:;mm:1-2:2,mm:2-2:1.1)',
         'interchange fails at grid (mm:0-0:,mm:0-0:;mm:2-1:1.1,mm:1-2:1)'],
    'validate_theory_vertical_3':
        [22,
         'df3981016b6d9a14acf5aaeff26f05d6571c770fa9077b0af426a52073ae759a'],
    'witness_loose_seed0':
        [7, 'e7d1e568e65abbd1b96a6fa579864c6db2ebbdcf9f643a951b57828ac7702f0d'],
    'witness_loose_seed1':
        [7, 'cd48b96255316c19da8cdd01660df746fc7a7801fe8642cd07ec5e90a183b922'],
    'witness_loose_seed2':
        [7, '72299ae5e90bcabae8c85d4baa08950487906a3779baa3827d539b9c3e6beb64'],
    'witness_signed_24_0':
        [5, 'af368dbe40add6cbae944d9899fb7927e069443d22700b405f6dff8d7829bbe8'],
    'witness_signed_25_1':
        [5, '3654e3ced8561985781487e8df618cefd7be517c6aaacc76a57aa119bbf39313'],
    'witness_signed_26_0':
        [5, 'd796925c1e9da5e9b2844804a4da8c8f27bbfadd8c3a366c51ae4111d6563aa2'],
    'witness_signed_27_1':
        [5, 'ed335693d83009f64bd0cbdf2997e2b4e641f056f1a8ad5e60c1d587000b8780'],
    'witness_signed_28_0':
        [5, 'f28a983169f7a3375bc948670dd793b1b1701744a6ac48c7f8574d61a2ac9f8a'],
    'witness_signed_29_1':
        [5, '98beb6b97491307841fd842d7aaf4ed76c074d0d6d875bbab986cc78d6e283ef'],
    'witness_square_seed0':
        [13,
         '13c5d00d965ea8b9912adebd19342bd82445a5d9b57b2131ee3a83babf57b371'],
    'witness_square_seed0_coproduct':
        [13,
         'd6bbfbb060bb8e7112f3bf5b8b02dd999bd1d2e63b0a90c4a1cba479f3fda75e'],
    'witness_square_seed1':
        [13,
         '466e8355768673d867dc64aac51bb62374cf7dc1f64b72623eebc1929801944e'],
    'witness_square_seed1_coproduct':
        [13,
         '35cc647c10d1bf02b23152cd9b35ac8591a5f2680761617d82c815aef2c8d164'],
    'witness_square_seed2':
        [13,
         '1acddf937bd4e1e0a03937833cc132039411714a98d84f59e443502581b6b9e7'],
    'witness_square_seed2_coproduct':
        [13,
         '63744ed492dcdb77ec18f807d4b837221f05e92764f129331ca4e8c668a986cb'],
    'witness_terminal_10_0':
        [3, '4880359f558094da8a10f00b4d6066b8c4d7850064a98e7c566845427a97febb'],
    'witness_terminal_11_1':
        [3, '0aa7fe8e1f3238a63ade4dc52fbe295c9323a370fffa720e65df2c87a50599fb'],
    'witness_terminal_6_0':
        [1, 'cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05'],
    'witness_terminal_7_1':
        [1, 'cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05'],
    'witness_terminal_8_0':
        [3, '63ba21df83c2e674487548c571f652c9a8b70da92fb7333939a1de381bbf9557'],
    'witness_terminal_9_1':
        [1, 'cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05'],
    'witness_walking_loose_0_0':
        [3, 'cbc82a428c4144460ba4949205c88d68a7ae62f2e6d64143833c56b8cf34d496'],
    'witness_walking_loose_1_1':
        [7, '3628e0d0e0b3f5e03d15298cf50891e54f59f2bc3c6cd58fdc8761b55a0e107b'],
    'witness_walking_loose_2_0':
        [5, 'd833f1e5d219cff931d36b660167d8e404eb1929269d2d1ad04f879bbdea6f3a'],
    'witness_walking_loose_3_1':
        [7, '3bad091a8666afc6f2652aa0d02e4aa7cbdc091653a4b10989d261e5d7004ae7'],
    'witness_walking_loose_4_0':
        [1, 'cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05'],
    'witness_walking_loose_5_1':
        [5, '58f87487fde2893c02f4f0ad8dc94b1fc28f2d16a092a328ea829752c8ad4c68'],
    'witness_walking_square_18_0':
        [1, 'cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05'],
    'witness_walking_square_19_1':
        [13,
         'a2bccd1c0b7f3a6b6f3ee862f63e230dd141b236120f3636051f39dc9871cec5'],
    'witness_walking_square_20_0':
        [5, '598290b2921e9be3d1ef270fd8a927c191534378f96ee67a2d5a10bfae5f17f8'],
    'witness_walking_square_21_1':
        [13,
         'a03438e8555fe9c7de26d4df734bae2fdd23a6b860211c20f9c2eb8ad694dee6'],
    'witness_walking_square_22_0':
        [5, 'b4278f7dff321936fcbaad5b74080b102c07b634a3f8113ee63d144559978686'],
    'witness_walking_square_23_1':
        [13,
         '4d969a2ce9017ebaa03694b17a92594309e748b729c993c78b39a8b5e5d8cfd1'],
    'witness_walking_tight_12_0':
        [3, '0a5450c66774f8debb418021724f20567d1097e33dbe545e3fce775c412e5b0a'],
    'witness_walking_tight_13_1':
        [5, '8367ba246b226eb31684327387e5b8f2f413bdf059daa2f6c7f882841a7e3bc2'],
    'witness_walking_tight_14_0':
        [3, '784e344417a8bef0bba36c3c7dd00a47e0ff331082a33a89115b8c9425342792'],
    'witness_walking_tight_15_1':
        [5, '493120e3441947e32ebae3b5bb650a3becc26e831ebcc2396cb746848243984b'],
    'witness_walking_tight_16_0':
        [5, '07ea097298a5b8d8b83871862d4cdbbec07af074c78f1914b406e03a9a8a8049'],
    'witness_walking_tight_17_1':
        [5, 'adfe2aa65fc3338327161a4a626eb1feae5cbbff26c43de2cc638b1b729473bd'],
}


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_joins_golden(name):
    assert ordered(golden_cases()[name]()) == GOLDEN[name]


def test_corrupted_reports_have_several_entries():
    """The corrupted inputs exercise what they are meant to."""
    for name, make in _model_report_cases().items():
        assert len(make()) >= 2, name
    assoc = validate_model(_bad_associativity())
    assert sum("associativity" in r for r in assoc) >= 2
    for name in ("validate_theory_interchange", "validate_theory_mixed"):
        report = golden_cases()[name]()
        assert sum(r.startswith("interchange") for r in report) >= 2, name
