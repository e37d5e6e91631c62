"""Golden cartesian layer: the multicategory dictionaries, the cartesian
validators and the marked-cone checks of sketch models, pinned to
recorded values.

Each case records a sha256 of the JSON dump of its result, in the order
its tables were built (dicts as lists of entries, in insertion order),
or of its full report lists in report order.  Documents are pinned as
``document_of`` writes them.  So any change to a table, a name, a
report line or the order of any of them shows up here.

Inputs: the three built-in multicategories encoded over
``prom_trunc(k)`` for k = 0, 1, 2, read back, validated and corrupted;
``terminal_multicategory(n)`` for n = 0 to 3; the join multifunctor on
{0, 1} and seeded corruptions of it; a sample of the two-object action
tables; the cocartesian examples over ``sq_finset_op(k)``; and the
cartesian sketch models of the encodings, valid and with seeded swaps.
"""

import functools
import hashlib
import json
import random

import pytest

from dblinst.cartesian import (Multicategory, Multifunctor, _renamed,
                               build_cocartesian_example,
                               check_product_actions_determined,
                               model_to_multicategory, multicategory_to_model,
                               multifunctor_to_instance,
                               validate_cartesian_instance,
                               validate_cartesian_model,
                               validate_multicategory, validate_multifunctor)
from dblinst.errors import MarkedSquareNotPullback
from dblinst.finset import FiniteSet, Span
from dblinst.fixtures import (builtin_multicategory, tautological_instance,
                              terminal_multicategory)
from dblinst.instance import Instance
from dblinst.model import SpanModel
from dblinst.serialize import document_of
from dblinst.sketch import (SketchModel, flatten_cartesian_theory,
                            model_to_sketch_model, sketch_model_to_model,
                            validate_sketch_model)
from dblinst.theories import builtin_theory
from multicategory_oracles import all_action_tables

MC_NAMES = ["terminal", "join", "two_object"]


def digest(value):
    return hashlib.sha256(json.dumps(ordered(value)).encode()).hexdigest()[:16]


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
    if isinstance(obj, Multicategory):
        return ordered([obj.objects, obj.multimorphisms, obj.identities,
                        obj.comp, obj.truncation])
    if isinstance(obj, SketchModel):
        return ordered([obj.on_objects, obj.on_generators])
    return obj


@functools.lru_cache(maxsize=None)
def prom(k):
    return builtin_theory("prom_trunc", k)


@functools.lru_cache(maxsize=None)
def cartesian_sketch(name, k):
    return flatten_cartesian_theory(builtin_theory(name, k))


def encoding(name, k):
    return multicategory_to_model(builtin_multicategory(name), prom(k))


def cartesian_reports(x, h):
    return [validate_cartesian_model(x), validate_cartesian_instance(h),
            check_product_actions_determined(h)]


def instance_reports(h):
    return [document_of(h), validate_cartesian_instance(h),
            check_product_actions_determined(h)]


def sketch_reports(s):
    """The sketch model's report, and the model read off it or the
    refusal of its pair sorts."""
    try:
        back = document_of(sketch_model_to_model(s))
    except MarkedSquareNotPullback as err:
        back = ["MarkedSquareNotPullback", str(err)]
    return [validate_sketch_model(s), back]


def swapped(table, rng):
    """``table`` with the values at two keys of different values
    exchanged, or None when all its values are equal."""
    keys = list(table)
    pairs = [(a, b) for i, a in enumerate(keys) for b in keys[i + 1:]
             if table[a] != table[b]]
    if not pairs:
        return None
    a, b = rng.choice(pairs)
    out = dict(table)
    out[a], out[b] = table[b], table[a]
    return out


# ---------------------------------------------------------------------------
# the multicategory <-> model dictionary


def tricky_multicategory():
    """``z2_multicategory`` renamed so that the order of the names and
    the order of the labels of their families differ."""
    mc = z2_multicategory()
    new = {"e": "a", "a": "ab", "2e": "a|b", "2a": "b,("}
    return Multicategory(
        mc.objects, {new[m]: t for m, t in mc.multimorphisms.items()},
        {o: new[i] for o, i in mc.identities.items()},
        {(new[o], tuple(map(new.get, inners))): new[r]
         for (o, inners), r in mc.comp.items()}, mc.truncation)


def _encoding_cases():
    for k in (1, 2):
        def tricky(k=k):
            x = multicategory_to_model(tricky_multicategory(), prom(k))
            h = tautological_instance(x)
            return [x, x.mm_of, model_to_multicategory(x)] + \
                cartesian_reports(x, h)

        yield "tricky_{}".format(k), tricky
    for name in MC_NAMES:
        for k in range(3):
            def enc(name=name, k=k):
                x = encoding(name, k)
                return [document_of(x), x.mm_of, x]

            def cart(name=name, k=k):
                x = encoding(name, k)
                return cartesian_reports(x, tautological_instance(x))

            yield "encode_{}_{}".format(name, k), enc
            yield "cartesian_{}_{}".format(name, k), cart
            if k:
                yield ("read_back_{}_{}".format(name, k),
                       lambda name=name, k=k:
                       model_to_multicategory(encoding(name, k)))

        def tables(name=name):
            mc = builtin_multicategory(name)
            return [mc.composable(), list(mc.comp),
                    document_of(_renamed(mc))]

        yield "tables_{}".format(name), tables
    for n in range(4):
        yield ("terminal_comp_{}".format(n),
               lambda n=n: list(terminal_multicategory(n).comp.items()))
    yield ("validate_terminal_3",
           lambda: validate_multicategory(terminal_multicategory(3)))


def z2_multicategory():
    """One object, and a unary and a binary multimorphism per element of
    the group of order 2; composites add the elements."""
    mms = {g: (("o",), "o") for g in "ea"}
    mms.update({"2" + g: (("o", "o"), "o") for g in "ea"})

    def add(*gs):
        return "a" if gs.count("a") % 2 else "e"

    comp = {}
    for g in "ea":
        for h in "ea":
            comp[(g, (h,))] = add(g, h)
            comp[(g, ("2" + h,))] = "2" + add(g, h)
            for i in "ea":
                comp[("2" + g, (h, i))] = "2" + add(g, h, i)
    return Multicategory(["o"], mms, {"o": "e"}, comp, 2)


def corrupted_multicategory(name, seed):
    """A multicategory with one to three composites changed: set to
    another multimorphism, or deleted.  The built-ins type each
    multimorphism uniquely, so only ``z2`` keeps its typing and breaks
    units and associativity."""
    rng = random.Random(seed)
    mc = z2_multicategory() if name == "z2" else builtin_multicategory(name)
    for _ in range(rng.randint(1, 3)):
        key = rng.choice(sorted(mc.comp, key=str))
        if rng.randrange(3):
            mc.comp[key] = rng.choice(sorted(mc.multimorphisms))
        else:
            del mc.comp[key]
    return mc


def _corruption_cases():
    for name in MC_NAMES + ["z2"]:
        for seed in range(10):
            yield ("corrupt_{}_{}".format(name, seed),
                   lambda name=name, seed=seed: validate_multicategory(
                       corrupted_multicategory(name, seed)))
    yield "validate_z2", lambda: validate_multicategory(z2_multicategory())


# ---------------------------------------------------------------------------
# multifunctors and their instances


def join_multifunctor(seed=None):
    """The join semilattice on {0, 1}; a seed changes one to three
    action values to the other value."""
    mc = builtin_multicategory("join")
    actions = {"u": {("0",): "0", ("1",): "1"},
               "n": {(): "0"},
               "b": {(a, b): max(a, b) for a in "01" for b in "01"}}
    if seed is not None:
        rng = random.Random(seed)
        for _ in range(rng.randint(1, 3)):
            m = rng.choice(sorted(actions))
            key = rng.choice(sorted(actions[m]))
            actions[m][key] = "1" if actions[m][key] == "0" else "0"
    return Multifunctor(mc, {"o": ["0", "1"]}, actions)


def _multifunctor_cases():
    def case(fm, x):
        return [validate_multifunctor(fm)] + \
            instance_reports(multifunctor_to_instance(fm, x))

    yield ("multifunctor_join_valid",
           lambda: case(join_multifunctor(), encoding("join", 2)))
    for seed in range(39):
        yield ("multifunctor_join_{}".format(seed),
               lambda seed=seed: case(join_multifunctor(seed),
                                      encoding("join", 2)))
    mc = builtin_multicategory("two_object")
    vals = {"a": ["0", "1"], "b": ["p", "q"]}
    for i, tables in enumerate(all_action_tables(mc, vals)):
        if i % 7 == 0:
            yield ("multifunctor_two_object_{}".format(i),
                   lambda tables=tables: case(Multifunctor(mc, vals, tables),
                                              encoding("two_object", 2)))


# ---------------------------------------------------------------------------
# the cocartesian examples, and sketch models of the encodings


def _sketch_cases():
    one = (("e",), {("e", "e"): "e"}, "e")
    for k in range(3):
        for label, monoid in (("default", None), ("one", one)):
            def cocartesian(k=k, monoid=monoid):
                x = build_cocartesian_example(
                    builtin_theory("sq_finset_op", k), monoid)
                s = model_to_sketch_model(x, cartesian_sketch(
                    "sq_finset_op", k))
                return [document_of(x), validate_cartesian_model(x)] + \
                    sketch_reports(s)

            yield "cocartesian_{}_{}".format(k, label), cocartesian
    for name in MC_NAMES:
        for k in (1, 2):
            def sketch(name=name, k=k, seed=None):
                s = model_to_sketch_model(encoding(name, k),
                                          cartesian_sketch("prom_trunc", k))
                if seed is not None:
                    rng = random.Random(seed)
                    gens = sorted(g for g, t in s.on_generators.items()
                                  if len(set(t.values())) > 1)
                    g = rng.choice(gens)
                    s.on_generators[g] = swapped(s.on_generators[g], rng)
                return sketch_reports(s)

            yield "sketch_{}_{}".format(name, k), sketch
            # the other encodings have one element per sort: no swaps
            for seed in range(8 if name == "two_object" else 0):
                yield ("sketch_{}_{}_swap{}".format(name, k, seed),
                       functools.partial(sketch, seed=seed))


# ---------------------------------------------------------------------------
# projection tables with two values swapped


def projection_swap(name, k, where, seed):
    """The reports of an encoding, or of its tautological instance,
    after two values of one projection table are swapped: a tight
    projection of the model (``tight``), a projection cell of the model
    (``cell``), or a tight projection of the instance (``instance``)."""
    rng = random.Random(seed)
    x = encoding(name, k)
    c = x.theory.cartesian
    if where == "cell":
        projections = c.proj_cells
    else:
        projections = c.proj_tight
    key = rng.choice(sorted(projections))
    table = projections[key][rng.randrange(2)]
    if where == "tight":
        x.on_tight[table] = swapped(x.on_tight[table], rng) or \
            x.on_tight[table]
    elif where == "cell":
        x.on_cells[table] = swapped(x.on_cells[table], rng) or \
            x.on_cells[table]
    h = tautological_instance(x)
    if where == "instance":
        h.tight_cells[table] = swapped(h.tight_cells[table], rng) or \
            h.tight_cells[table]
    return cartesian_reports(x, h)


# swaps after which check_product_actions_determined looks factor
# actions up at labels they do not have: it raised KeyError on them until
# it reported such lookups, and tests/test_cartesian_refusals.py pins that
CRASHING_SWAPS = {"swap_two_object_1_tight_0", "swap_two_object_1_instance_0",
                  "swap_two_object_2_tight_4", "swap_two_object_2_tight_5",
                  "swap_two_object_2_instance_4",
                  "swap_two_object_2_instance_5"}


def _swap_cases():
    for name in MC_NAMES:
        for k in (1, 2):
            for where in ("tight", "cell", "instance"):
                for seed in range(6):
                    label = "swap_{}_{}_{}_{}".format(name, k, where, seed)
                    if label not in CRASHING_SWAPS:
                        yield label, functools.partial(
                            projection_swap, name, k, where, seed)


@functools.lru_cache(maxsize=None)
def cases():
    out = {}
    for group in (_encoding_cases, _corruption_cases, _multifunctor_cases,
                  _sketch_cases, _swap_cases):
        for label, thunk in group():
            assert label not in out, label
            out[label] = thunk
    return out


GOLDEN = {
    'cartesian_join_0': 'f865256c77f3fc9f',
    'cartesian_join_1': 'f865256c77f3fc9f',
    'cartesian_join_2': 'f865256c77f3fc9f',
    'cartesian_terminal_0': 'f865256c77f3fc9f',
    'cartesian_terminal_1': 'f865256c77f3fc9f',
    'cartesian_terminal_2': 'f865256c77f3fc9f',
    'cartesian_two_object_0': 'f865256c77f3fc9f',
    'cartesian_two_object_1': 'f865256c77f3fc9f',
    'cartesian_two_object_2': 'f865256c77f3fc9f',
    'cocartesian_0_default': '003119e2c1e24708',
    'cocartesian_0_one': '003119e2c1e24708',
    'cocartesian_1_default': '60f1bc88e7875267',
    'cocartesian_1_one': 'fea241ff1a78d803',
    'cocartesian_2_default': '81ba10e2dc44f6f2',
    'cocartesian_2_one': 'aff55a3eb328d2d7',
    'corrupt_join_0': 'f5670d0f44ec9aff',
    'corrupt_join_1': 'bf8863bbab591c8e',
    'corrupt_join_2': 'cf1d29db8955dce4',
    'corrupt_join_3': 'a18547ab0339f129',
    'corrupt_join_4': '71555278de8724bc',
    'corrupt_join_5': '04fc24d88e619bd8',
    'corrupt_join_6': '29379ab5fe2d1bb7',
    'corrupt_join_7': 'dc6cfd8b0035c2fc',
    'corrupt_join_8': '4f53cda18c2baa0c',
    'corrupt_join_9': 'ee0d89a3458cc6db',
    'corrupt_terminal_0': '9258506a69a80d9c',
    'corrupt_terminal_1': 'cd3407109855359f',
    'corrupt_terminal_2': '3ccccce0d5cf842a',
    'corrupt_terminal_3': '74a3f43838512340',
    'corrupt_terminal_4': 'f7530486e1565b22',
    'corrupt_terminal_5': '5d04d4a33c08dd7d',
    'corrupt_terminal_6': '8cd19b51b2b14611',
    'corrupt_terminal_7': 'cad4147689f9074b',
    'corrupt_terminal_8': 'e9b661d9606cda40',
    'corrupt_terminal_9': '277c2636bfe2d44d',
    'corrupt_two_object_0': 'a41e4faf833be2b9',
    'corrupt_two_object_1': '4f53cda18c2baa0c',
    'corrupt_two_object_2': '8fafecae4d37e502',
    'corrupt_two_object_3': 'cf9e8de1e3007ec1',
    'corrupt_two_object_4': '3cd835e58ea519e9',
    'corrupt_two_object_5': '79f89b055228642c',
    'corrupt_two_object_6': 'ef5adfae7ee00dd1',
    'corrupt_two_object_7': 'ef5adfae7ee00dd1',
    'corrupt_two_object_8': 'e9a7fd9e019a3df8',
    'corrupt_two_object_9': 'e874d19643cc31cd',
    'corrupt_z2_0': 'dea4e9226a0c6faa',
    'corrupt_z2_1': '752ff193c81fd522',
    'corrupt_z2_2': '482c3ee53a82c363',
    'corrupt_z2_3': 'c0b06505dd4eef5e',
    'corrupt_z2_4': '3a10dc5c53b00fe0',
    'corrupt_z2_5': '96a7a772d82a359f',
    'corrupt_z2_6': '90a9932eac542f55',
    'corrupt_z2_7': '3690a0e6ed5a9aba',
    'corrupt_z2_8': 'd2126f03123cb87b',
    'corrupt_z2_9': 'd2126f03123cb87b',
    'encode_join_0': '4d3f43d3c6deb766',
    'encode_join_1': 'af312224c66ab5a0',
    'encode_join_2': 'c1131d6bede4b11b',
    'encode_terminal_0': '4d3f43d3c6deb766',
    'encode_terminal_1': 'e109209bc3fb4861',
    'encode_terminal_2': '771ea58c99e3f88a',
    'encode_two_object_0': '4d3f43d3c6deb766',
    'encode_two_object_1': '8fc984e7e0bb53cc',
    'encode_two_object_2': '474dcf6efe88b890',
    'multifunctor_join_0': '3f40ca376d7360bf',
    'multifunctor_join_1': '725a78879d1df9ba',
    'multifunctor_join_10': '76038a989714485e',
    'multifunctor_join_11': '321b8dee17cb5517',
    'multifunctor_join_12': 'beaa72a6cf91815a',
    'multifunctor_join_13': '15ceb5487f6c135d',
    'multifunctor_join_14': '725a78879d1df9ba',
    'multifunctor_join_15': '2f33c52b8be103b8',
    'multifunctor_join_16': '3f40ca376d7360bf',
    'multifunctor_join_17': 'fe41bb7c45fcab4e',
    'multifunctor_join_18': '7f958683b6590846',
    'multifunctor_join_19': 'b8df063e16abf3c9',
    'multifunctor_join_2': '2f33c52b8be103b8',
    'multifunctor_join_20': '725a78879d1df9ba',
    'multifunctor_join_21': '76038a989714485e',
    'multifunctor_join_22': '2f33c52b8be103b8',
    'multifunctor_join_23': 'dac0dfa34ab1e0f1',
    'multifunctor_join_24': '76038a989714485e',
    'multifunctor_join_25': '24bd5e9e2a71691a',
    'multifunctor_join_26': '8a0e3c6f2a8edba8',
    'multifunctor_join_27': '2f33c52b8be103b8',
    'multifunctor_join_28': '725a78879d1df9ba',
    'multifunctor_join_29': '1c5850b3de6f31d4',
    'multifunctor_join_3': '725a78879d1df9ba',
    'multifunctor_join_30': '725a78879d1df9ba',
    'multifunctor_join_31': '76038a989714485e',
    'multifunctor_join_32': 'd8cb5d9cf1fa0ea4',
    'multifunctor_join_33': '33b356f1d1d7d39e',
    'multifunctor_join_34': '2f33c52b8be103b8',
    'multifunctor_join_35': 'e265d8c876deac57',
    'multifunctor_join_36': '26de59e6846f79d4',
    'multifunctor_join_37': '1c5850b3de6f31d4',
    'multifunctor_join_38': 'fd3d584b86fd767d',
    'multifunctor_join_4': '76038a989714485e',
    'multifunctor_join_5': '725a78879d1df9ba',
    'multifunctor_join_6': '8a0e3c6f2a8edba8',
    'multifunctor_join_7': '69a701574631c581',
    'multifunctor_join_8': '76038a989714485e',
    'multifunctor_join_9': '321b8dee17cb5517',
    'multifunctor_join_valid': '3f40ca376d7360bf',
    'multifunctor_two_object_0': '8d3c90e1ed9cd2ee',
    'multifunctor_two_object_105': '7ecd1201ded96e6a',
    'multifunctor_two_object_112': '8b2076ab37fa0130',
    'multifunctor_two_object_119': 'f62f260af662e944',
    'multifunctor_two_object_126': '3c49983f4a4d20fa',
    'multifunctor_two_object_133': '5a586c601f1a2a03',
    'multifunctor_two_object_14': '67110b874ca740b7',
    'multifunctor_two_object_140': '0831ad27f0edec56',
    'multifunctor_two_object_147': 'a7ded7ce3f84123c',
    'multifunctor_two_object_154': '9cc8355719a53e43',
    'multifunctor_two_object_161': '659736e31cbb682c',
    'multifunctor_two_object_168': '6178be6018476f83',
    'multifunctor_two_object_175': '87a44f221887aa1a',
    'multifunctor_two_object_182': '3af839011cb8aeb2',
    'multifunctor_two_object_189': 'de879553712a75c3',
    'multifunctor_two_object_196': 'fe2d6a94f5037b3b',
    'multifunctor_two_object_203': '751bbf2a4b1b230b',
    'multifunctor_two_object_21': 'e1653ab880520d97',
    'multifunctor_two_object_210': '6f63bd48a3a6c7ac',
    'multifunctor_two_object_217': 'b31504200cc7b345',
    'multifunctor_two_object_224': '3d42a05bc84555da',
    'multifunctor_two_object_231': 'ee6ca9e59bef60e3',
    'multifunctor_two_object_238': '8e1743dd87a7b569',
    'multifunctor_two_object_245': '91dac982bc7c6daa',
    'multifunctor_two_object_252': '158e22256d8b8317',
    'multifunctor_two_object_28': '353b791e3bbc726d',
    'multifunctor_two_object_35': 'bd1bc52051a341fd',
    'multifunctor_two_object_42': '26c2c2a49b9817ef',
    'multifunctor_two_object_49': '033b7e077012d3ad',
    'multifunctor_two_object_56': '575ad7302bbdf59e',
    'multifunctor_two_object_63': '2c29193ca8a23afd',
    'multifunctor_two_object_7': 'b34d4e6b23dd2750',
    'multifunctor_two_object_70': '346ef48087bd6348',
    'multifunctor_two_object_77': '405f9501e93782fd',
    'multifunctor_two_object_84': 'aa02c3bf5785e39c',
    'multifunctor_two_object_91': '179b6e8745cb212d',
    'multifunctor_two_object_98': '14c6c94ec2b51eaf',
    'read_back_join_1': '771fd63f4a1bad51',
    'read_back_join_2': '1f5ff7d32ca6edc4',
    'read_back_terminal_1': '909a968e8010d35b',
    'read_back_terminal_2': '632b48ed96d398ea',
    'read_back_two_object_1': 'aff5ed9989c8006d',
    'read_back_two_object_2': '29ec0a0e110252ac',
    'sketch_join_1': '9489f901747cf457',
    'sketch_join_2': '524cf545e3f59143',
    'sketch_terminal_1': '9739ddfeb1c58114',
    'sketch_terminal_2': '621e5fc239dd1ce1',
    'sketch_two_object_1': 'b5fe118b86230b22',
    'sketch_two_object_1_swap0': 'b25351ef9625fca9',
    'sketch_two_object_1_swap1': '609b88fafd83c64c',
    'sketch_two_object_1_swap2': '1ae32ce4b3d0ae56',
    'sketch_two_object_1_swap3': '20266b894b619923',
    'sketch_two_object_1_swap4': '20266b894b619923',
    'sketch_two_object_1_swap5': '21dbac81c4f9dbe8',
    'sketch_two_object_1_swap6': 'aef0b1dd3d69cc67',
    'sketch_two_object_1_swap7': '7d1e236015591d65',
    'sketch_two_object_2': 'a37c9cae0c3c466c',
    'sketch_two_object_2_swap0': 'fda2503afcbfe5a5',
    'sketch_two_object_2_swap1': 'd0a1bfe5f565d306',
    'sketch_two_object_2_swap2': '6ca7ce8a82f21bb0',
    'sketch_two_object_2_swap3': 'b9b3a7c52d55daa3',
    'sketch_two_object_2_swap4': '0963616094d4f931',
    'sketch_two_object_2_swap5': '3e7abd4ec6e447cb',
    'sketch_two_object_2_swap6': '1dfba7c6d74808a1',
    'sketch_two_object_2_swap7': 'f9f27043915c99f1',
    'swap_join_1_cell_0': 'f865256c77f3fc9f',
    'swap_join_1_cell_1': 'f865256c77f3fc9f',
    'swap_join_1_cell_2': 'f865256c77f3fc9f',
    'swap_join_1_cell_3': 'f865256c77f3fc9f',
    'swap_join_1_cell_4': 'f865256c77f3fc9f',
    'swap_join_1_cell_5': 'f865256c77f3fc9f',
    'swap_join_1_instance_0': 'f865256c77f3fc9f',
    'swap_join_1_instance_1': 'f865256c77f3fc9f',
    'swap_join_1_instance_2': 'f865256c77f3fc9f',
    'swap_join_1_instance_3': 'f865256c77f3fc9f',
    'swap_join_1_instance_4': 'f865256c77f3fc9f',
    'swap_join_1_instance_5': 'f865256c77f3fc9f',
    'swap_join_1_tight_0': 'f865256c77f3fc9f',
    'swap_join_1_tight_1': 'f865256c77f3fc9f',
    'swap_join_1_tight_2': 'f865256c77f3fc9f',
    'swap_join_1_tight_3': 'f865256c77f3fc9f',
    'swap_join_1_tight_4': 'f865256c77f3fc9f',
    'swap_join_1_tight_5': 'f865256c77f3fc9f',
    'swap_join_2_cell_0': 'f865256c77f3fc9f',
    'swap_join_2_cell_1': 'f865256c77f3fc9f',
    'swap_join_2_cell_2': 'f865256c77f3fc9f',
    'swap_join_2_cell_3': 'f865256c77f3fc9f',
    'swap_join_2_cell_4': 'f865256c77f3fc9f',
    'swap_join_2_cell_5': 'f865256c77f3fc9f',
    'swap_join_2_instance_0': 'f865256c77f3fc9f',
    'swap_join_2_instance_1': 'f865256c77f3fc9f',
    'swap_join_2_instance_2': 'f865256c77f3fc9f',
    'swap_join_2_instance_3': 'f865256c77f3fc9f',
    'swap_join_2_instance_4': 'f865256c77f3fc9f',
    'swap_join_2_instance_5': 'f865256c77f3fc9f',
    'swap_join_2_tight_0': 'f865256c77f3fc9f',
    'swap_join_2_tight_1': 'f865256c77f3fc9f',
    'swap_join_2_tight_2': 'f865256c77f3fc9f',
    'swap_join_2_tight_3': 'f865256c77f3fc9f',
    'swap_join_2_tight_4': 'f865256c77f3fc9f',
    'swap_join_2_tight_5': 'f865256c77f3fc9f',
    'swap_terminal_1_cell_0': 'f865256c77f3fc9f',
    'swap_terminal_1_cell_1': 'f865256c77f3fc9f',
    'swap_terminal_1_cell_2': 'f865256c77f3fc9f',
    'swap_terminal_1_cell_3': 'f865256c77f3fc9f',
    'swap_terminal_1_cell_4': 'f865256c77f3fc9f',
    'swap_terminal_1_cell_5': 'f865256c77f3fc9f',
    'swap_terminal_1_instance_0': 'f865256c77f3fc9f',
    'swap_terminal_1_instance_1': 'f865256c77f3fc9f',
    'swap_terminal_1_instance_2': 'f865256c77f3fc9f',
    'swap_terminal_1_instance_3': 'f865256c77f3fc9f',
    'swap_terminal_1_instance_4': 'f865256c77f3fc9f',
    'swap_terminal_1_instance_5': 'f865256c77f3fc9f',
    'swap_terminal_1_tight_0': 'f865256c77f3fc9f',
    'swap_terminal_1_tight_1': 'f865256c77f3fc9f',
    'swap_terminal_1_tight_2': 'f865256c77f3fc9f',
    'swap_terminal_1_tight_3': 'f865256c77f3fc9f',
    'swap_terminal_1_tight_4': 'f865256c77f3fc9f',
    'swap_terminal_1_tight_5': 'f865256c77f3fc9f',
    'swap_terminal_2_cell_0': 'f865256c77f3fc9f',
    'swap_terminal_2_cell_1': 'f865256c77f3fc9f',
    'swap_terminal_2_cell_2': 'f865256c77f3fc9f',
    'swap_terminal_2_cell_3': 'f865256c77f3fc9f',
    'swap_terminal_2_cell_4': 'f865256c77f3fc9f',
    'swap_terminal_2_cell_5': 'f865256c77f3fc9f',
    'swap_terminal_2_instance_0': 'f865256c77f3fc9f',
    'swap_terminal_2_instance_1': 'f865256c77f3fc9f',
    'swap_terminal_2_instance_2': 'f865256c77f3fc9f',
    'swap_terminal_2_instance_3': 'f865256c77f3fc9f',
    'swap_terminal_2_instance_4': 'f865256c77f3fc9f',
    'swap_terminal_2_instance_5': 'f865256c77f3fc9f',
    'swap_terminal_2_tight_0': 'f865256c77f3fc9f',
    'swap_terminal_2_tight_1': 'f865256c77f3fc9f',
    'swap_terminal_2_tight_2': 'f865256c77f3fc9f',
    'swap_terminal_2_tight_3': 'f865256c77f3fc9f',
    'swap_terminal_2_tight_4': 'f865256c77f3fc9f',
    'swap_terminal_2_tight_5': 'f865256c77f3fc9f',
    'swap_two_object_1_cell_0': 'f865256c77f3fc9f',
    'swap_two_object_1_cell_1': 'f865256c77f3fc9f',
    'swap_two_object_1_cell_2': 'f865256c77f3fc9f',
    'swap_two_object_1_cell_3': 'f865256c77f3fc9f',
    'swap_two_object_1_cell_4': 'f865256c77f3fc9f',
    'swap_two_object_1_cell_5': 'f865256c77f3fc9f',
    'swap_two_object_1_instance_1': 'f865256c77f3fc9f',
    'swap_two_object_1_instance_2': 'f865256c77f3fc9f',
    'swap_two_object_1_instance_3': 'f865256c77f3fc9f',
    'swap_two_object_1_instance_4': 'f865256c77f3fc9f',
    'swap_two_object_1_instance_5': 'f865256c77f3fc9f',
    'swap_two_object_1_tight_1': 'f865256c77f3fc9f',
    'swap_two_object_1_tight_2': 'f865256c77f3fc9f',
    'swap_two_object_1_tight_3': 'f865256c77f3fc9f',
    'swap_two_object_1_tight_4': 'f865256c77f3fc9f',
    'swap_two_object_1_tight_5': 'f865256c77f3fc9f',
    'swap_two_object_2_cell_0': 'f865256c77f3fc9f',
    'swap_two_object_2_cell_1': 'f865256c77f3fc9f',
    'swap_two_object_2_cell_2': 'f865256c77f3fc9f',
    'swap_two_object_2_cell_3': 'f865256c77f3fc9f',
    'swap_two_object_2_cell_4': 'f865256c77f3fc9f',
    'swap_two_object_2_cell_5': 'f865256c77f3fc9f',
    'swap_two_object_2_instance_0': 'f865256c77f3fc9f',
    'swap_two_object_2_instance_1': 'f865256c77f3fc9f',
    'swap_two_object_2_instance_2': 'f865256c77f3fc9f',
    'swap_two_object_2_instance_3': 'f865256c77f3fc9f',
    'swap_two_object_2_tight_0': 'f865256c77f3fc9f',
    'swap_two_object_2_tight_1': 'f865256c77f3fc9f',
    'swap_two_object_2_tight_2': 'f865256c77f3fc9f',
    'swap_two_object_2_tight_3': 'f865256c77f3fc9f',
    'tables_join': 'd1eeca8c5e9a3086',
    'tables_terminal': '8119d6ec772cf133',
    'tables_two_object': '58faee7734571da8',
    'terminal_comp_0': '3f76e68716f17fd5',
    'terminal_comp_1': '3ef2b43087027e87',
    'terminal_comp_2': '42b6587e2d4380ea',
    'terminal_comp_3': '3449f4460ae4ec07',
    'tricky_1': 'c75db94fdc750b92',
    'tricky_2': 'eed645f63d4c2261',
    'validate_terminal_3': '4f53cda18c2baa0c',
    'validate_z2': '4f53cda18c2baa0c',
}


def test_every_case_is_pinned():
    assert sorted(cases()) == sorted(GOLDEN)


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_case_matches_its_golden_digest(label):
    assert digest(cases()[label]()) == GOLDEN[label]
