"""joins: the instance, elements, model-validator, sketch and theory layers.

No closure and no search: every op is a scan or a join over explicit
tables.  Work grows quadratically in the base size here, which is where
indexed joins show.  Reads (the validators) sit beside writes
(``elements``, ``nabla``, ``restrict_instance`` and the sketch
conversions all build new tables), so an index that speeds up reads but
taxes construction shows too.
"""

from dblinst import elements as el
from dblinst import fixtures, instance, model, sketch, theory
from dblinst.theories import builtin_theory

import gen
import oracles
from harness import Op, expect

# (base elements per side, fibre width); two heteromorphisms per dom element
WL_SIZES = [(25, 3), (50, 2), (100, 2), (200, 1)]
WL_HETS = 2
CORRUPT_SIZE = 100        # the size whose corrupted copies are validated
# (total base elements, top heteromorphisms per bottom one)
SQUARE_SIZES = [(48, 2), (96, 2), (198, 1), (396, 1)]
THEORIES = [("terminal", None), ("walking_loose", None),
            ("walking_tight", None), ("walking_square", None),
            ("signed", None), ("involution_cell", None),
            ("monad_trunc", 1), ("monad_trunc", 2), ("prom_trunc", 1),
            ("prom_trunc", 2), ("sq_finset_op", 1)]


def build(rng, workdir):
    ops = []
    for n, width in WL_SIZES:
        ops += _wl_ops(rng, n, width, corrupt=(n == CORRUPT_SIZE))
    for n, tops in SQUARE_SIZES:
        ops += _square_ops(rng, n, tops)
    for name, k in THEORIES:
        t = builtin_theory(name, k)
        label = name if k is None else "{}({})".format(name, k)
        ops.append(Op("joins.validate_theory",
                      {"theory": label, "cells": len(t.cells),
                       "hcomp": len(t.cell_hcomp)},
                      lambda t=t: theory.validate_theory(t), _empty_report))
    return ops, [_pair_label_repro()]


def _empty_report(report):
    return None if report == [] else "unexpected report: {}".format(report[:2])


def _nonempty_report(report):
    return None if report else "no report on a corrupted input"


def _wl_ops(rng, n, width, corrupt):
    x = gen.wl_model(rng, n, n, WL_HETS)
    h = gen.wl_instance(rng, x, width)
    shape = {"N": 2 * n, "hets_per": WL_HETS, "width": width}
    apex = oracles.action_domain_sizes(h)
    restricted = oracles.self_restriction_sizes(h)
    out = {}      # results an op of this pass hands to the later ones

    def run_elements():
        out["elements"] = el.elements(h)
        return out["elements"]

    def check_elements(result):
        e_model, pi, _ = result
        return (expect("apex sizes",
                       {m: len(sp.apex) for m, sp in e_model.on_loose.items()},
                       apex)
                or expect("projection on objects", pi.on_objects, h.labels))

    def check_restrict(k):
        return expect("carrier sizes",
                      {d: len(c) for d, c in k.carriers.items()}, restricted)

    def check_nabla(back):
        return None if oracles.same_instance(back, h) else \
            "nabla(elements(h)) differs from h"

    ops = [
        Op("joins.validate_model", shape, lambda: model.validate_model(x),
           _empty_report),
        Op("joins.validate_instance", shape,
           lambda: instance.validate_instance(h), _empty_report),
        Op("joins.elements", shape, run_elements, check_elements),
        Op("joins.check_dopf", shape,
           lambda: el.is_discrete_opfibration(out["elements"][1]),
           lambda c: None if c.ok else "projection is not a dopf"),
        Op("joins.witness", shape, lambda: out["elements"][2].validate(),
           _empty_report),
        Op("joins.nabla", shape,
           lambda: el.nabla(out["elements"][1], out["elements"][2]),
           check_nabla),
        Op("joins.restrict", shape,
           lambda: instance.restrict_instance(out["elements"][1], h),
           check_restrict),
        _sketch_round_trip(x, shape),
    ]
    if corrupt:
        ops += _corrupt_ops(x, h, shape)
    return ops


def _sketch_round_trip(x, shape):
    def run():
        s = sketch.model_to_sketch_model(x, sketch.flatten_theory(x.theory))
        return sketch.validate_sketch_model(s), sketch.sketch_model_to_model(s)

    def check(result):
        report, back = result
        return _empty_report(report) or (
            None if oracles.same_model(back, x) else
            "sketch round trip changed the model")

    return Op("joins.sketch_round_trip", shape, run, check)


def _corrupt_ops(x, h, shape):
    """Seeded corruptions, each of which a validator must report."""
    bad_model = model.SpanModel(
        x.theory, x.on_objects, x.on_tight, x.on_loose, x.on_cells,
        x.laxators, dict(x.unitors, dom=_swap_two(x.unitors["dom"])))
    bad_actions = dict(h.actions)
    bad_actions["l"] = _move_one(h.actions["l"], h.labels["cod"])
    bad_instance = instance.Instance(x, h.carriers, h.labels, h.tight_cells,
                                     bad_actions)
    to_one = gen.to_terminal(x)
    s = sketch.model_to_sketch_model(x, sketch.flatten_theory(x.theory))
    gens = dict(s.on_generators)
    gens["src[l]"] = _swap_two(gens["src[l]"])
    bad_sketch = sketch.SketchModel(s.sketch, s.on_objects, gens)

    _, pi, witness = el.elements(h)
    table = dict(witness.bijections["l"])
    keys = sorted(table, key=lambda k: k[1])     # lifts at two elements
    table[keys[0]], table[keys[-1]] = table[keys[-1]], table[keys[0]]
    bad_witness = el.DopfWitness(pi, dict(witness.bijections, l=table))

    return [
        Op("joins.validate_model_corrupt", shape,
           lambda: model.validate_model(bad_model), _nonempty_report),
        Op("joins.validate_instance_corrupt", shape,
           lambda: instance.validate_instance(bad_instance), _nonempty_report),
        Op("joins.check_dopf_corrupt", shape,
           lambda: el.is_discrete_opfibration(to_one),
           lambda c: "two lifts accepted as a dopf" if c.ok else None),
        Op("joins.witness_corrupt", shape, lambda: bad_witness.validate(),
           _nonempty_report),
        Op("joins.validate_sketch_corrupt", shape,
           lambda: sketch.validate_sketch_model(bad_sketch), _nonempty_report),
    ]


def _swap_two(table):
    """The table with the values at two keys exchanged: the first key
    and the first later key whose value differs."""
    keys = sorted(table)
    other = next(k for k in keys if table[k] != table[keys[0]])
    out = dict(table)
    out[keys[0]], out[other] = table[other], table[keys[0]]
    return out


def _move_one(action, cod_labels):
    """Send the first action entry into a different cod fibre."""
    key = min(action)
    old = action[key]
    moved = dict(action)
    moved[key] = next(v for v in sorted(cod_labels)
                      if cod_labels[v] != cod_labels[old])
    return moved


def _square_ops(rng, n, tops):
    x = gen.square_model(rng, n, tops)
    h = fixtures.tautological_instance(x)
    shape = {"N": sum(len(s) for s in x.on_objects.values()), "hets_per": tops,
             "width": 1}
    apex = oracles.action_domain_sizes(h)

    def round_trip():
        e_model, pi, witness = el.elements(h)
        got = {m: len(sp.apex) for m, sp in e_model.on_loose.items()}
        return got, el.nabla(pi, witness)

    def check(result):
        got, back = result
        return expect("apex sizes", got, apex) or (
            None if oracles.same_instance(back, h) else
            "nabla(elements(h)) differs from h")

    return [
        Op("joins.square_validate_model", shape,
           lambda: model.validate_model(x), _empty_report),
        Op("joins.square_validate_instance", shape,
           lambda: instance.validate_instance(h), _empty_report),
        Op("joins.square_elements_nabla", shape, round_trip, check),
        _sketch_round_trip(x, dict(shape, kind="square")),
    ]


def _pair_label_repro():
    """ROADMAP item 5: dom {a, "a,h"}, cod {b}, heteromorphisms "h,x" out
    of a and "x" out of "a,h".  The model is valid, so the elements of its
    tautological instance must exist, with one apex element per
    heteromorphism and identity."""
    x = fixtures.walking_loose_model(
        ["a", "a,h"], ["b"], [("h,x", "a", "b"), ("x", "a,h", "b")])
    h = fixtures.tautological_instance(x)
    apex = oracles.action_domain_sizes(h)
    return Op("joins.pair_label_repro", {"N": 3, "hets_per": 1, "width": 1},
              lambda: el.elements(h),
              lambda r: expect("apex sizes", {m: len(sp.apex) for m, sp
                                              in r[0].on_loose.items()}, apex))

