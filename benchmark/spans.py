"""Per-layer tracing from outside the library.

``Tracer`` installs timing wrappers on the public entry points of each
``dblinst`` layer, in every ``dblinst`` module namespace that binds
them, so nested calls become child spans: for
example ``migrate_lan`` -> ``MigrationContext`` ->
``close_presented_category`` -> ``ClosedWordCategory``.  A span records
its entry point, start, end, parent span, pass and op, and whether it
ended in an exception.  Spans are kept in memory while the run lasts.

Per-element helpers such as ``FiniteSet.__contains__`` and
``pair_label`` get no spans: their call counts would swamp the overhead.
"""

import functools
import importlib
import json
import os
import sys
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _table_space(args, kwargs, result):
    """Sum over search slots of |dst|^|src|: the tables a brute-force
    enumeration of model morphisms would materialise."""
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    space = sum(len(b.on_objects[d]) ** len(a.on_objects[d])
                for d in a.theory.objects)
    space += sum(len(b.on_loose[m].apex) ** len(a.on_loose[m].apex)
                 for m in a.theory.loose)
    return {"model.table_space": space, "model.morphisms_found": len(result),
            "model.enumerate_calls": 1}


def _closure_counts(args, kwargs, result):
    self = args[0]
    return {"words.close_calls": 1,
            "words.classes": len(self.category.morphisms),
            "words.relations": len(_arg(args, kwargs, 3, "relations"))}


def _out_elements(args, kwargs, result):
    return {"migration.out_elements": result.total_size()}


def _saved_bytes(args, kwargs, result):
    return {"serialize.bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _loaded_bytes(args, kwargs, result):
    return {"serialize.bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (module, attribute or Class.method, self-time metric or None, counter)
ENTRY_POINTS = [
    ("dblinst.words", "ClosedWordCategory.__init__", "words.close_s",
     _closure_counts),
    ("dblinst.words", "ClosedWordCategory.word_class", "words.word_class_s",
     lambda a, k, r: {"words.word_class_calls": 1}),
    ("dblinst.collage", "collage_of_model", "collage.collage_s", None),
    ("dblinst.collage", "close_presented_category", None, None),
    ("dblinst.collage", "instance_to_copresheaf", "collage.to_copresheaf_s",
     None),
    ("dblinst.collage", "copresheaf_to_instance", "collage.from_copresheaf_s",
     None),
    ("dblinst.collage", "collage_of_morphism", "collage.morphism_s", None),
    ("dblinst.migration", "MigrationContext.__init__", "migration.context_s",
     None),
    ("dblinst.migration", "migrate_pullback", "migration.pullback_s",
     _out_elements),
    ("dblinst.migration", "migrate_lan", "migration.lan_s", _out_elements),
    ("dblinst.migration", "migrate_ran", "migration.ran_s", _out_elements),
    ("dblinst.migration", "reflect_into_dopf", "migration.reflect_s", None),
    ("dblinst.migration", "comprehensive_factorize", "migration.factorize_s",
     None),
    ("dblinst.migration", "check_initial", "migration.check_initial_s", None),
    ("dblinst.fincat", "FinCategory.validate", "fincat.validate_s", None),
    ("dblinst.fincat", "FinFunctor.validate", "fincat.validate_s", None),
    ("dblinst.fincat", "Copresheaf.validate", "fincat.validate_s", None),
    ("dblinst.fincat", "enumerate_natural_transformations",
     "fincat.enumerate_nat_s", None),
    ("dblinst.signed", "involutive_loop_category", "signed.build_s", None),
    ("dblinst.theory", "validate_theory", "theory.validate_s",
     lambda a, k, r: {"theory.interchange_pairs":
                      len(_arg(a, k, 0, "t").cell_hcomp) ** 2}),
    ("dblinst.model", "validate_model", "model.validate_s", None),
    ("dblinst.model", "validate_model_morphism", "model.validate_morphism_s",
     None),
    ("dblinst.model", "enumerate_model_morphisms", "model.enumerate_s",
     _table_space),
    ("dblinst.model", "find_model_isomorphism", "model.find_iso_s", None),
    ("dblinst.instance", "validate_instance", "instance.validate_s", None),
    ("dblinst.instance", "restrict_instance", "instance.restrict_s", None),
    ("dblinst.instance", "enumerate_instance_morphisms", "instance.enumerate_s",
     lambda a, k, r: {"instance.morphisms_found": len(r)}),
    ("dblinst.instance", "find_instance_isomorphism", "instance.find_iso_s",
     None),
    ("dblinst.elements", "elements", "elements.elements_s",
     lambda a, k, r: {"elements.apex_size":
                      sum(len(sp.apex) for sp in r[0].on_loose.values())}),
    ("dblinst.elements", "is_discrete_opfibration", "elements.check_dopf_s",
     None),
    ("dblinst.elements", "DopfWitness.validate", "elements.witness_s", None),
    ("dblinst.elements", "nabla", "elements.nabla_s", None),
    ("dblinst.sketch", "flatten_theory", "sketch.flatten_s", None),
    ("dblinst.sketch", "model_to_sketch_model", "sketch.to_sketch_s", None),
    ("dblinst.sketch", "validate_sketch_model", "sketch.validate_s", None),
    ("dblinst.sketch", "sketch_model_to_model", "sketch.from_sketch_s", None),
    ("dblinst.sketch", "enumerate_sketch_model_morphisms", "sketch.enumerate_s",
     None),
    ("dblinst.cartesian", "validate_cartesian_model", "cartesian.validate_s",
     None),
    ("dblinst.cartesian", "validate_cartesian_instance", "cartesian.validate_s",
     None),
    ("dblinst.serialize", "load_document", "serialize.load_s", _loaded_bytes),
    ("dblinst.serialize", "object_of", "serialize.load_s", None),
    ("dblinst.serialize", "document_of", "serialize.dump_s", None),
    ("dblinst.serialize", "save_document", "serialize.dump_s", _saved_bytes),
    ("dblinst.cli", "main", "cli.self_s", None),
]

LAYERS = sorted({module.split(".")[1] for module, _, _, _ in ENTRY_POINTS})
COUNTS = ["words.close_calls", "words.word_class_calls", "words.classes",
          "words.relations", "migration.out_elements",
          "theory.interchange_pairs", "model.enumerate_calls",
          "model.morphisms_found", "model.table_space",
          "instance.morphisms_found", "elements.apex_size", "serialize.bytes"]

# span fields
_ENTRY, _START, _END, _PARENT, _PASS, _OP, _ERROR = range(7)


def _layer(entry):
    return ENTRY_POINTS[entry][0].split(".")[1]


class Tracer:
    """Collects spans while installed (``with tracer:``); uninstalled
    between traced passes so untraced passes run the original code."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.passes = 0
        self.op_time = 0.0
        self.uncovered = 0.0
        self._stack = []
        self._op = None
        self._top_level = 0.0
        self._patches = []

    # -- op bookkeeping, called by the pass runner ---------------------------

    def start_op(self, op_id):
        self._op = op_id
        self._top_level = 0.0

    def end_op(self, latency):
        self.op_time += latency
        self.uncovered += max(0.0, latency - self._top_level)

    # -- installation --------------------------------------------------------

    def __enter__(self):
        self.passes += 1
        functions = {}
        for entry, (module, name, _, _) in enumerate(ENTRY_POINTS):
            owner = importlib.import_module(module)
            if "." in name:
                cls_name, name = name.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, name, vars(owner)[name], entry)
            else:
                functions[id(getattr(owner, name))] = entry
        for name, mod in list(sys.modules.items()):
            if name == "dblinst" or name.startswith("dblinst."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in functions and callable(value):
                        self._patch(mod, attr, value, functions[id(value)])
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []
        return False

    def _patch(self, owner, attr, orig, entry):
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self._wrap(orig, entry))

    def _wrap(self, fn, entry):
        counter = ENTRY_POINTS[entry][3]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [entry, clock(), 0.0, stack[-1] if stack else -1,
                    self.passes, self._op, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[_ERROR] = True
                raise
            finally:
                span[_END] = clock()
                stack.pop()
                if span[_PARENT] == -1:
                    self._top_level += span[_END] - span[_START]
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + n
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Self time of every span: its duration minus the durations of
        its children (children are sequential and nested inside it)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        return [span[_END] - span[_START] - c
                for span, c in zip(self.spans, child)]

    def metrics(self):
        """Per-pass layer metrics: self time per metric, counts, errors."""
        totals = dict.fromkeys(COUNTS, 0)
        totals.update(self.counts)
        for layer in LAYERS:
            totals.setdefault(layer + ".errors", 0)
        for module, _, metric, _ in ENTRY_POINTS:
            if metric is not None:
                totals.setdefault(metric, 0.0)
        for span, own in zip(self.spans, self.self_times()):
            metric = ENTRY_POINTS[span[_ENTRY]][2]
            if metric is not None:
                totals[metric] += own
            if span[_ERROR]:
                totals[_layer(span[_ENTRY]) + ".errors"] += 1
        passes = max(self.passes, 1)
        out = {name: value / passes for name, value in totals.items()}
        out["trace.uncovered_share"] = (self.uncovered / self.op_time
                                        if self.op_time else 0.0)
        return out

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for span in self.spans:
                module, name = ENTRY_POINTS[span[_ENTRY]][:2]
                fh.write(json.dumps({
                    "name": "{}.{}".format(module, name),
                    "start": span[_START], "end": span[_END],
                    "parent": span[_PARENT], "pass": span[_PASS],
                    "op": span[_OP], "error": span[_ERROR]}) + "\n")
