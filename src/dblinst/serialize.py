"""JSON documents for every object the command line reads or writes.

Each document is a single self-describing container with a ``kind`` and
a ``format_version`` field.  Pair-keyed tables become sorted entry
lists so that emission is deterministic and diffs stay readable.
"""

import json
from json.encoder import encode_basestring_ascii as _encode

from .cartesian import Multicategory
from .collage import PresentedCategory
from .elements import DopfWitness
from .errors import MalformedDocument
from .fincat import Copresheaf, FinCategory
from .finset import FiniteSet, Span
from .instance import Instance
from .model import ModelMorphism, SpanModel
from .sketch import LimitSketch
from .theory import CartesianStructure, DoubleTheory

FORMAT_VERSION = 1

_LITERALS = {None: "null", True: "true", False: "false"}


def _check_kind(doc, kind):
    """Refuse a part of a document that is not a ``kind`` document."""
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise MalformedDocument("expected a {!r} document, found {}".format(
            kind, "kind {!r}".format(doc.get("kind")) if isinstance(doc, dict)
            else "a value of type {}".format(type(doc).__name__)))


def _read(doc, kind):
    """Read a part of a document that must be a ``kind`` document."""
    _check_kind(doc, kind)
    return object_of(doc)


def _pairs(table):
    """A dict keyed by tuples as a sorted list of flat entries."""
    return [list(k) + [v] for k, v in sorted(table.items())]


def _unpairs(entries, arity=2):
    return {tuple(e[:arity]): e[arity] for e in entries}


def _table(t):
    return {k: t[k] for k in sorted(t)}


# ---------------------------------------------------------------------------
# theories


def theory_to_doc(t):
    doc = {
        "kind": "theory",
        "format_version": FORMAT_VERSION,
        "objects": list(t.objects),
        "tight": {f: list(e) for f, e in sorted(t.tight.items())},
        "tight_id": _table(t.tight_id),
        "tight_comp": _pairs(t.tight_comp),
        "loose": {m: list(e) for m, e in sorted(t.loose.items())},
        "loose_id": _table(t.loose_id),
        "loose_comp": _pairs(t.loose_comp),
        "cells": {a: list(b) for a, b in sorted(t.cells.items())},
        "cell_id_loose": _table(t.cell_id_loose),
        "cell_id_tight": _table(t.cell_id_tight),
        "cell_vcomp": _pairs(t.cell_vcomp),
        "cell_hcomp": _pairs(t.cell_hcomp),
        "partial": t.partial,
    }
    if t.cartesian is not None:
        c = t.cartesian
        doc["cartesian"] = {
            "terminal_object": c.terminal_object,
            "terminal_tight": _table(c.terminal_tight),
            "product_object": _pairs(c.product_object),
            "proj_tight": [list(k) + [list(v)]
                           for k, v in sorted(c.proj_tight.items())],
            "product_loose": _pairs(c.product_loose),
            "proj_cells": [list(k) + [list(v)]
                           for k, v in sorted(c.proj_cells.items())],
        }
    return doc


def theory_from_doc(doc):
    cartesian = None
    if "cartesian" in doc:
        c = doc["cartesian"]
        cartesian = CartesianStructure(
            c["terminal_object"], c["terminal_tight"],
            _unpairs(c["product_object"]),
            {tuple(e[:2]): tuple(e[2]) for e in c["proj_tight"]},
            _unpairs(c["product_loose"]),
            {tuple(e[:2]): tuple(e[2]) for e in c["proj_cells"]})
    return DoubleTheory(
        doc["objects"],
        {f: tuple(e) for f, e in doc["tight"].items()},
        doc["tight_id"], _unpairs(doc["tight_comp"]),
        {m: tuple(e) for m, e in doc["loose"].items()},
        doc["loose_id"], _unpairs(doc["loose_comp"]),
        {a: tuple(b) for a, b in doc["cells"].items()},
        doc["cell_id_loose"], doc["cell_id_tight"],
        _unpairs(doc["cell_vcomp"]), _unpairs(doc["cell_hcomp"]),
        partial=doc["partial"], cartesian=cartesian)


# ---------------------------------------------------------------------------
# models, morphisms, instances


def _span_to_doc(sp):
    return {"apex": list(sp.apex), "left": _table(sp.left),
            "right": _table(sp.right)}


def model_to_doc(x):
    t = x.theory
    return {
        "kind": "model",
        "format_version": FORMAT_VERSION,
        "theory": theory_to_doc(t),
        "on_objects": {d: list(x.on_objects[d]) for d in t.objects},
        "on_tight": {f: _table(x.on_tight[f]) for f in sorted(t.tight)},
        "on_loose": {m: _span_to_doc(x.on_loose[m]) for m in sorted(t.loose)},
        "on_cells": {a: _table(x.on_cells[a]) for a in sorted(t.cells)},
        "laxators": [[m, n, _pairs(x.laxators[(m, n)])]
                     for (m, n) in sorted(t.loose_comp)],
        "unitors": {d: _table(x.unitors[d]) for d in t.objects},
    }


def model_from_doc(doc):
    t = _read(doc["theory"], "theory")
    on_objects = {d: FiniteSet(e) for d, e in doc["on_objects"].items()}
    on_loose = {}
    for m, sd in doc["on_loose"].items():
        if not isinstance(sd, dict) or not all(
                isinstance(sd.get(f), c)
                for f, c in (("apex", list), ("left", dict), ("right", dict))):
            raise MalformedDocument("a 'model' document's span {!r} needs an "
                                    "'apex' array and 'left' and 'right' "
                                    "objects".format(m))
        s, d = t.loose[m]
        on_loose[m] = Span(on_objects[s], on_objects[d],
                           FiniteSet(sd["apex"]), sd["left"], sd["right"])
    laxators = {(m, n): _unpairs(entries)
                for m, n, entries in doc["laxators"]}
    return SpanModel(t, on_objects, doc["on_tight"], on_loose,
                     doc["on_cells"], laxators, doc["unitors"])


def morphism_to_doc(al):
    return {
        "kind": "model_morphism",
        "format_version": FORMAT_VERSION,
        "source": model_to_doc(al.source),
        "target": model_to_doc(al.target),
        "on_objects": {d: _table(tb) for d, tb in al.on_objects.items()},
        "on_loose": {m: _table(tb) for m, tb in al.on_loose.items()},
    }


def morphism_from_doc(doc):
    return ModelMorphism(_read(doc["source"], "model"),
                         _read(doc["target"], "model"),
                         doc["on_objects"], doc["on_loose"])


def instance_to_doc(h):
    t = h.model.theory
    return {
        "kind": "instance",
        "format_version": FORMAT_VERSION,
        "model": model_to_doc(h.model),
        "carriers": {d: list(h.carriers[d]) for d in t.objects},
        "labels": {d: _table(h.labels[d]) for d in t.objects},
        "tight_cells": {f: _table(h.tight_cells[f]) for f in sorted(t.tight)},
        "actions": [[m, _pairs(h.actions[m])] for m in sorted(t.loose)],
    }


def instance_from_doc(doc):
    x = _read(doc["model"], "model")
    carriers = {d: FiniteSet(e) for d, e in doc["carriers"].items()}
    actions = {m: _unpairs(entries) for m, entries in doc["actions"]}
    return Instance(x, carriers, doc["labels"], doc["tight_cells"], actions)


# ---------------------------------------------------------------------------
# categories, copresheaves, presented categories, sketches


def fincat_to_doc(cat):
    return {
        "kind": "fincategory",
        "format_version": FORMAT_VERSION,
        "objects": list(cat.objects),
        "morphisms": {f: list(e) for f, e in sorted(cat.morphisms.items())},
        "identity": _table(cat.identity),
        "comp": _pairs(cat.comp),
    }


def fincat_from_doc(doc):
    return FinCategory(doc["objects"],
                       {f: tuple(e) for f, e in doc["morphisms"].items()},
                       doc["identity"], _unpairs(doc["comp"]))


def copresheaf_to_doc(cp):
    return {
        "kind": "copresheaf",
        "format_version": FORMAT_VERSION,
        "base": fincat_to_doc(cp.base),
        "on_objects": {d: list(cp.on_objects[d]) for d in cp.base.objects},
        "on_morphisms": {g: _table(tb) for g, tb in
                         sorted(cp.on_morphisms.items())},
    }


def copresheaf_from_doc(doc):
    base = _read(doc["base"], "fincategory")
    return Copresheaf(base,
                      {d: FiniteSet(e) for d, e in doc["on_objects"].items()},
                      doc["on_morphisms"])


def presented_to_doc(p):
    return {
        "kind": "presented_category",
        "format_version": FORMAT_VERSION,
        "objects": list(p.objects),
        "generators": {g: list(e) for g, e in sorted(p.generators.items())},
        "relations": [[src, dst, list(w1), list(w2)]
                      for src, dst, w1, w2 in p.relations],
    }


def presented_from_doc(doc):
    return PresentedCategory(
        doc["objects"],
        {g: tuple(e) for g, e in doc["generators"].items()},
        [(src, dst, tuple(w1), tuple(w2))
         for src, dst, w1, w2 in doc["relations"]])


def sketch_to_doc(sk):
    return {
        "kind": "sketch",
        "format_version": FORMAT_VERSION,
        "presented": presented_to_doc(sk.presented),
        "marked_pullbacks": [list(sq) for sq in sk.marked_pullbacks],
        "marked_products": [
            [apex, [[list(word), dst] for word, dst in legs]]
            for apex, legs in sk.marked_products],
        "theory": theory_to_doc(sk.theory) if hasattr(sk, "theory") else None,
    }


def sketch_from_doc(doc):
    sk = LimitSketch(
        _read(doc["presented"], "presented_category"),
        [tuple(sq) for sq in doc["marked_pullbacks"]],
        [(apex, tuple((tuple(word), dst) for word, dst in legs))
         for apex, legs in doc["marked_products"]])
    if doc.get("theory") is not None:
        sk.theory = _read(doc["theory"], "theory")
    return sk


def multicategory_to_doc(mc):
    return {
        "kind": "multicategory",
        "format_version": FORMAT_VERSION,
        "objects": list(mc.objects),
        "multimorphisms": {n: [list(dom), cod] for n, (dom, cod) in
                           sorted(mc.multimorphisms.items())},
        "identities": _table(mc.identities),
        "comp": [[outer, list(inners), result] for (outer, inners), result
                 in sorted(mc.comp.items())],
        "truncation": mc.truncation,
    }


def multicategory_from_doc(doc):
    return Multicategory(
        doc["objects"],
        {n: (tuple(dom), cod) for n, (dom, cod) in
         doc["multimorphisms"].items()},
        doc["identities"],
        {(outer, tuple(inners)): result
         for outer, inners, result in doc["comp"]},
        doc["truncation"])


def witness_to_doc(w):
    """Written by ``check-dopf --witness``; no reader exists."""
    return {"kind": "dopf_witness", "format_version": FORMAT_VERSION,
            "bijections": {m: [_pairs(t)] for m, t in w.bijections.items()}}


# ---------------------------------------------------------------------------
# container dispatch


_TO_DOC = [
    (Instance, instance_to_doc),
    (ModelMorphism, morphism_to_doc),
    (SpanModel, model_to_doc),
    (DoubleTheory, theory_to_doc),
    (Copresheaf, copresheaf_to_doc),
    (FinCategory, fincat_to_doc),
    (LimitSketch, sketch_to_doc),
    (PresentedCategory, presented_to_doc),
    (Multicategory, multicategory_to_doc),
    (DopfWitness, witness_to_doc),
]

_FROM_DOC = {
    "theory": theory_from_doc,
    "model": model_from_doc,
    "model_morphism": morphism_from_doc,
    "instance": instance_from_doc,
    "fincategory": fincat_from_doc,
    "copresheaf": copresheaf_from_doc,
    "presented_category": presented_from_doc,
    "sketch": sketch_from_doc,
    "multicategory": multicategory_from_doc,
}


def document_of(obj):
    for cls, fn in _TO_DOC:
        if isinstance(obj, cls):
            return fn(obj)
    raise TypeError("no document format for {!r}".format(type(obj)))


# The top-level fields that each kind of document must have, in the
# order its reader reads them, and the kind of each field that holds a
# document of its own.  Optional fields (a theory's ``cartesian``, a
# sketch's ``theory``) are not listed.
_FIELDS = {
    "theory": ("objects", "tight", "tight_id", "tight_comp", "loose",
               "loose_id", "loose_comp", "cells", "cell_id_loose",
               "cell_id_tight", "cell_vcomp", "cell_hcomp", "partial"),
    "model": ("theory", "on_objects", "on_loose", "laxators", "on_tight",
              "on_cells", "unitors"),
    "model_morphism": ("source", "target", "on_objects", "on_loose"),
    "instance": ("model", "carriers", "actions", "labels", "tight_cells"),
    "fincategory": ("objects", "morphisms", "identity", "comp"),
    "copresheaf": ("base", "on_objects", "on_morphisms"),
    "presented_category": ("objects", "generators", "relations"),
    "sketch": ("presented", "marked_pullbacks", "marked_products"),
    "multicategory": ("objects", "multimorphisms", "identities", "comp",
                      "truncation"),
}
_PARTS = {"theory": "theory", "model": "model", "source": "model",
          "target": "model", "base": "fincategory",
          "presented": "presented_category"}
# The type of each top-level field that holds neither a part nor an object.
_TYPES = dict(dict.fromkeys(
    ("objects", "tight_comp", "loose_comp", "cell_vcomp", "cell_hcomp",
     "laxators", "actions", "comp", "relations", "marked_pullbacks",
     "marked_products"), list), partial=bool, truncation=int)


def object_of(doc):
    """Read a document.  A document without one of its kind's required
    top-level fields, or with a part or an entry of the wrong shape,
    raises ``MalformedDocument``, naming the kind and, if known, the
    field; so does a value that is not a document of a known kind."""
    if not isinstance(doc, dict):
        raise MalformedDocument("a document is a JSON object, not a value "
                                "of type {}".format(type(doc).__name__))
    kind = doc.get("kind")
    if kind not in _FROM_DOC:
        raise MalformedDocument("unknown document kind {!r}".format(kind))
    for field in _FIELDS[kind]:
        if field not in doc:
            raise MalformedDocument("a {!r} document has no {!r} field"
                                    .format(kind, field))
        if field in _PARTS:
            _check_kind(doc[field], _PARTS[field])
        elif not isinstance(doc[field], _TYPES.get(field, dict)):
            raise MalformedDocument(
                "a {!r} document's {!r} field holds a value of type {}, "
                "not {}".format(kind, field, type(doc[field]).__name__,
                                _TYPES.get(field, dict).__name__))
    try:
        return _FROM_DOC[kind](doc)
    except (AttributeError, IndexError, KeyError, TypeError,
            ValueError) as e:
        raise MalformedDocument("a {!r} document is malformed: {}: {}"
                                .format(kind, type(e).__name__, e)) from e


def write_document(doc, fh):
    """Write a document to an open text file: keys sorted, indented by
    two, with a trailing newline.

    The bytes are those of ``json.dump(doc, fh, indent=2,
    sort_keys=True)`` followed by a newline, but the document is
    streamed: each string, number or bracket goes to ``fh`` with the
    separator and indentation before it, so no copy of the document is
    ever held as one string.  Strings, ints, ``True``, ``False``,
    ``None``, lists, tuples and dicts with string keys are written; any
    other value, a float included, raises ``TypeError``.
    """
    write = fh.write

    def emit(head, o, pad):
        if isinstance(o, str):
            write(head + _encode(o))
        elif isinstance(o, dict):
            if not o:
                write(head + "{}")
                return
            inner, sep = pad + "  ", head + "{"
            for k in sorted(o):
                if not isinstance(k, str):
                    raise TypeError("document keys must be str, not "
                                    + type(k).__name__)
                emit(sep + inner + _encode(k) + ": ", o[k], inner)
                sep = ","
            write(pad + "}")
        elif isinstance(o, (list, tuple)):
            if not o:
                write(head + "[]")
                return
            inner, sep = pad + "  ", head + "["
            for v in o:
                emit(sep + inner, v, inner)
                sep = ","
            write(pad + "]")
        elif o is None or o is True or o is False:
            write(head + _LITERALS[o])
        elif isinstance(o, int):
            write(head + int.__repr__(o))
        else:
            raise TypeError("no document encoding for "
                            + type(o).__name__)

    emit("", doc, "\n")
    write("\n")


def save_document(doc, path):
    with open(path, "w") as fh:
        write_document(doc, fh)


def load_document(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise MalformedDocument("{}: not valid JSON: {}".format(path, e))
