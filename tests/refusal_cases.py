"""Refusal cases, each written once, run in process and under
``python -O``, which skips asserts: an input check or a self-check
written as an ``assert`` shows there as a missing refusal.

Each case is a call with no arguments in ``CASES``, labelled with the
name of the test module that asserts on it.  Its outcome is what it
returns (a report, or ``[exit, stdout, stderr]`` of the command line),
or the exception it raises, as ``[type, message]``.  The in-process
tests run the cases through ``in_process``; the ``-O`` twins read the
JSON map from label to outcome that ``python -O refusal_cases.py``
prints, started once per session by ``outcomes_under_O`` in
``conftest.py``.  So this module imports neither pytest nor hypothesis.
"""
import io
import json
import os
import random
import runpy
import sys
import tempfile
import warnings
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import partial
from unittest.mock import patch

from dblinst import collage, migration, search
from dblinst.cartesian import (Multifunctor, check_product_actions_determined,
                               instance_to_multifunctor,
                               model_to_multicategory,
                               multicategories_isomorphic,
                               multicategory_to_model,
                               multifunctor_to_instance,
                               validate_cartesian_instance,
                               validate_cartesian_model)
from dblinst.collage import (close_presented_category, collage_generator_map,
                             collage_of_model)
from dblinst.elements import kappa_creates_dopf_check
from dblinst.errors import DblinstError
from dblinst.fincat import Copresheaf, FinFunctor, compose_functors
from dblinst.finset import FiniteSet, Span, pullback_pairs
from dblinst.fixtures import (build_instance, builtin_multicategory,
                              category_as_model, chain_category,
                              coproduct_instance, cyclic_translation_model,
                              join_multicategory, monad_instance_fixture,
                              signed_cycle_oracle, tautological_instance,
                              terminal_multicategory,
                              two_object_multicategory, walking_loose_model,
                              weighted_graph_schema)
from dblinst.instance import (compose_instance_morphisms,
                              identity_instance_morphism, restrict_instance)
from dblinst.migration import (check_initial, comprehensive_factorize,
                               migrate_lan, migrate_ran, reflect_into_dopf)
from dblinst.model import (ModelMorphism, compose_model_morphisms,
                           enumerate_model_morphisms, identity_morphism,
                           terminal_model, validate_model,
                           validate_model_morphism)
from dblinst.serialize import document_of, object_of, save_document
from dblinst.signed import SignedGraph, quotient_signed_category
from dblinst.theories import builtin_theory, thin_double_theory
from dblinst.words import ClosedWordCategory


def outcome(call, kind=Exception):
    """What ``call()`` returns, or the ``kind`` it raises as
    ``[type, message]``.  Under ``-O`` any exception is an outcome, so
    one case that crashes does not stop the others."""
    try:
        return call()
    except kind as err:
        return [type(err).__name__, str(err)]


def outcomes(cases):
    """label -> outcome of each of ``cases``, run in order."""
    return {label: outcome(call) for label, call in cases.items()}


def within(found, prefix):
    """The outcomes in ``found`` whose labels start with ``prefix``,
    keyed by the rest of their labels."""
    return {label[len(prefix):]: out for label, out in found.items()
            if label.startswith(prefix)}


def in_process(label, kind=DblinstError):
    """The outcome of case ``label`` for a test in this process: any
    exception but a ``kind`` propagates with its traceback."""
    return outcome(CASES[label], kind)


CASES = {}


def add(prefix, cases):
    """Register ``cases``, label -> call, under ``prefix``."""
    CASES.update((prefix + label, call) for label, call in cases.items())


# -- test_cartesian_refusals: what the cartesian layer cannot read ---------
def join_model():
    return multicategory_to_model(join_multicategory(),
                                  builtin_theory("prom_trunc", 2))


def reloaded(obj, edit=None):
    """``obj`` read back from its document, after ``edit`` changed it."""
    doc = json.loads(json.dumps(document_of(obj)))
    if edit is not None:
        edit(doc)
    return object_of(doc)


def _both_checks(h):
    return validate_cartesian_instance(h) + \
        check_product_actions_determined(h)


def _swapped_instance():
    """The tautological instance of the two-object model with the values
    of the first projection of x1 x x1 at (a,a) and (b,a) exchanged."""
    x = multicategory_to_model(two_object_multicategory(),
                               builtin_theory("prom_trunc", 2))
    h = tautological_instance(x)
    table = h.tight_cells["tf:2-1:1"]
    table["(a,a)"], table["(b,a)"] = table["(b,a)"], table["(a,a)"]
    return h


def _without_actions(m):
    h = tautological_instance(join_model())
    del h.actions[m]
    return h


def _join_multifunctor():
    return Multifunctor(join_multicategory(), {"o": ["0", "1"]},
                        {"u": {("0",): "0", ("1",): "1"}, "n": {(): "0"},
                         "b": {(a, b): max(a, b) for a in "01" for b in "01"}})


def deleting(*path):
    """The edit that deletes a document's entry at ``path``."""
    def edit(doc):
        inner = doc
        for key in path[:-1]:
            inner = inner[key]
        del inner[path[-1]]
        return doc
    return edit


def unknown_terminal(doc):
    """Name a terminal object that the model document's theory lacks."""
    doc["theory"]["cartesian"]["terminal_object"] = "zz"
    return doc


def _read_back_prom_trunc_0(name):
    return model_to_multicategory(multicategory_to_model(
        builtin_multicategory(name), builtin_theory("prom_trunc", 0)))


add("cartesian_refusals.", {
    "model_tight_partial": lambda: validate_cartesian_model(reloaded(
        join_model(), deleting("on_tight", "tf:2-1:1", "(o,o)"))),
    "model_tight_missing": lambda: validate_cartesian_model(reloaded(
        join_model(), deleting("on_tight", "tf:2-1:1"))),
    "model_cell_partial": lambda: validate_cartesian_model(reloaded(
        join_model(), deleting("on_cells", "c[tf:2-1:1|tf:2-1:1|"
                              "lf:2-2:1.2|lf:1-1:1]", "[u|u]"))),
    "model_unknown_terminal": lambda: validate_cartesian_model(reloaded(
        join_model(), unknown_terminal)),
    "instance_unknown_terminal": lambda: validate_cartesian_instance(reloaded(
        tautological_instance(join_model()),
        lambda doc: unknown_terminal(doc["model"]))),
    "instance_tight_partial": lambda: _both_checks(reloaded(
        tautological_instance(join_model()),
        deleting("tight_cells", "tf:2-1:1", "(o,o)"))),
    "instance_labels_swapped": lambda: _both_checks(_swapped_instance()),
    "instance_product_action_missing": lambda: _both_checks(
        _without_actions("lf:2-2:1.2")),
    "instance_factor_action_missing": lambda: _both_checks(
        _without_actions("lf:1-1:1")),
    "actions_without_products": lambda: check_product_actions_determined(
        monad_instance_fixture()[1]),
    "read_back_reloaded_to_multifunctor": lambda: instance_to_multifunctor(
        tautological_instance(reloaded(join_model()))),
    "read_back_reloaded_to_instance": lambda: multifunctor_to_instance(
        _join_multifunctor(), reloaded(join_model())),
    **{"read_back_prom_trunc_0_" + name: partial(_read_back_prom_trunc_0, name)
       for name in ("terminal", "join", "two_object")}})


# -- test_cartesian: a multicategory of arity 3 has no prom_trunc theory ---
add("cartesian.", {"arity_above_two": lambda: multicategories_isomorphic(
    terminal_multicategory(3), terminal_multicategory(3))})


# -- test_cli: a repeated label through the command line -------------------
def _repeated_label():
    """``[exit, stdout, stderr]`` of ``python -m dblinst.cli
    validate-model`` on a document with a repeated label, run in this
    process through the module's ``__main__`` entry."""
    doc = document_of(weighted_graph_schema())
    doc["on_objects"]["dom"] = ["E", "V", "E"]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        path = os.path.join(tmp, "repeated.json")
        save_document(doc, path)
        # runpy warns when a test has imported the module already
        warnings.filterwarnings("ignore", ".* found in sys.modules")
        with patch.object(sys, "argv", ["dblinst", "validate-model", path]), \
                redirect_stdout(out), redirect_stderr(err):
            try:
                runpy.run_module("dblinst.cli", run_name="__main__")
            except SystemExit as done:
                return [done.code, out.getvalue(), err.getvalue()]


add("cli.", {"repeated_label": _repeated_label})


# -- test_closure_certificate: corrupted coset tables ----------------------
def closing_without_the_last_merge(make):
    """Close ``make()`` with its last identification dropped: the table
    stays complete, but one relation no longer holds at one class."""
    identify = ClosedWordCategory._identify
    calls = []

    def counted(self, a, b):
        calls.append(None)
        identify(self, a, b)

    def dropping(self, a, b):
        calls.append(None)
        if len(calls) != last:
            identify(self, a, b)

    ClosedWordCategory._identify = counted
    try:
        make()
        last = len(calls)
        calls.clear()
        ClosedWordCategory._identify = dropping
        return make()
    finally:
        ClosedWordCategory._identify = identify


def closing_without_an_edge(make):
    """Close ``make()`` with one out-edge of its last class removed
    before the category is read off."""
    build = ClosedWordCategory._build

    def dropping(self, words):
        n = next(n for n in reversed(list(words)) if self._edges[n])
        self._edges[n].popitem()
        return build(self, words)

    ClosedWordCategory._build = dropping
    try:
        return make()
    finally:
        ClosedWordCategory._build = build


def chain_16():
    """136 morphism names: above the size the closure once skipped."""
    return close_presented_category(
        collage_of_model(category_as_model(chain_category(16))), 4)


def _weighted_graph_closure():
    return close_presented_category(
        collage_of_model(weighted_graph_schema()), 4)


add("closure_certificate.", {
    "{}.{}".format(kind, name): partial(corrupt, make)
    for kind, corrupt in (("dropped_identification",
                           closing_without_the_last_merge),
                          ("missing_edge", closing_without_an_edge))
    for name, make in (("chain_16", chain_16),
                       ("weighted_graph", _weighted_graph_closure))})


# -- test_elements: the kappa check of a morphism that is not one ----------
def unitor_breaking_morphism():
    """The identity of wl({a0} -> {b0}) into wl({a0, a1} -> {b0}),
    except that the unitor image of a0 is a1's.  The unitor generator
    collapses to an identity, so a collage functor built from
    representative words never maps it."""
    x = walking_loose_model(["a0"], ["b0"], [("h", "a0", "b0")])
    y = walking_loose_model(["a0", "a1"], ["b0"], [("h", "a0", "b0")])
    return ModelMorphism(x, y, {"dom": {"a0": "a0"}, "cod": {"b0": "b0"}},
                         {"l": {"h": "h"}, "id:dom": {"a0": "a1"},
                          "id:cod": {"b0": "b0"}})


add("elements.", {"kappa_check_of_a_non_morphism": lambda:
                  kappa_creates_dopf_check(unitor_breaking_morphism(),
                                           bound=4)})


# -- test_fincat: compositions that do not meet ----------------------------
def _chain_inclusion():
    return FinFunctor(chain_category(2), chain_category(3),
                      {"0": "0", "1": "2"},
                      {"id:0": "id:0", "id:1": "id:2", "0<1": "0<2"})


add("fincat.compose.", {
    "0<1_0<1": lambda: chain_category(3).compose("0<1", "0<1"),
    "0<1_ghost": lambda: chain_category(3).compose("0<1", "ghost"),
    "ghost_0<1": lambda: chain_category(3).compose("ghost", "0<1"),
    "functors": lambda: compose_functors(_chain_inclusion(),
                                         _chain_inclusion())})


# -- test_finset: ill-typed and uncomposable spans -------------------------
def ill_typed_spans():
    """Spans with one set given as a list, each with the message it is
    refused with."""
    s, t, a = FiniteSet(["s"]), FiniteSet(["t"]), FiniteSet(["p"])
    legs = {"p": "s"}, {"p": "t"}
    return [((["s"], t, a) + legs, "^the source of a span is not a finite "
                                   "set$"),
            ((s, ["t"], a) + legs, "^the target of a span is not a finite "
                                   "set$"),
            ((s, t, ["p"]) + legs, "^the apex of a span is not a finite set$")]


def uncomposable_spans():
    """Two spans whose middle sets differ."""
    return (Span(FiniteSet(["s"]), FiniteSet(["m0"]), FiniteSet(["p"]),
                 {"p": "s"}, {"p": "m0"}),
            Span(FiniteSet(["m0", "m1"]), FiniteSet(["t"]), FiniteSet(["u"]),
                 {"u": "m0"}, {"u": "t"}))


add("finset.", {"ill_typed_span.{}".format(i): partial(Span, *args)
                for i, (args, _) in enumerate(ill_typed_spans())})
add("finset.", {"uncomposable_spans": lambda: pullback_pairs(
    *uncomposable_spans())})


# -- test_fixtures: builders called outside their domain -------------------
def loose_model():
    """The walking-loose model with one loose arrow h: a -> b."""
    return walking_loose_model(["a"], ["b"], [("h", "a", "b")])


add("fixtures.", {
    "instance_without_its_action": lambda: build_instance(
        loose_model(), {"dom": ["p"], "cod": ["q"]},
        {"dom": {"p": "a"}, "cod": {"q": "b"}}, {}),
    "coproduct_of_different_models": lambda: coproduct_instance(
        tautological_instance(loose_model()),
        tautological_instance(loose_model())),
    "translation_not_an_involution": lambda: cyclic_translation_model(4, 1),
    "two_loops_at_a_vertex": lambda: signed_cycle_oracle(SignedGraph(
        ["u"], [("p", "u", "u", -1), ("q", "u", "u", +1)]), -1)})


# -- test_instance: composing or restricting across models -----------------
def _wider_model():
    return walking_loose_model(["a", "c"], ["b"], [("h", "a", "b")])


add("instance.", {
    "compose_model_morphisms": lambda: compose_model_morphisms(
        identity_morphism(loose_model()), identity_morphism(_wider_model())),
    "compose_instance_morphisms": lambda: compose_instance_morphisms(
        identity_instance_morphism(tautological_instance(loose_model())),
        identity_instance_morphism(tautological_instance(_wider_model()))),
    "restrict": lambda: restrict_instance(
        identity_morphism(loose_model()),
        tautological_instance(_wider_model()))})


# -- test_migration: an uncertified corpus entry, and corrupted outputs ----
def weighted_graph_unit():
    x = weighted_graph_schema()
    f = enumerate_model_morphisms(x, terminal_model(x.theory))[0]
    return f, comprehensive_factorize(f, bound=4).initial


def seeded_fold(seed):
    """A fold of walking-loose models onto two elements a side, and an
    instance of its source with two elements per fibre, both seeded."""
    rng = random.Random(seed)
    goals = [("g{}".format(i), "a{}".format(i % 2), rng.choice(["b0", "b1"]))
             for i in range(4)]
    y = walking_loose_model(["a0", "a1"], ["b0", "b1"], goals)
    on_dom = {"s{}".format(i): "a{}".format(i % 2) for i in range(4)}
    on_cod = {"c{}".format(i): "b{}".format(i % 2) for i in range(3)}
    het, on_het = [], {}
    for s, a in on_dom.items():
        for g, ga, gb in goals:
            if ga == a:
                name = "u{}.{}".format(s, g)
                ends = [c for c, b in on_cod.items() if b == gb]
                het.append((name, s, rng.choice(ends)))
                on_het[name] = g
    x = walking_loose_model(list(on_dom), list(on_cod), het)
    al = ModelMorphism(x, y, {"dom": on_dom, "cod": on_cod},
                       {"l": on_het, "id:dom": dict(on_dom),
                        "id:cod": dict(on_cod)})
    fibre = {e: ["{}~{}".format(e, k) for k in range(2)]
             for d in ("dom", "cod") for e in x.on_objects[d]}
    carriers = {d: [p for e in x.on_objects[d] for p in fibre[e]]
                for d in ("dom", "cod")}
    labels = {d: {p: e for e in x.on_objects[d] for p in fibre[e]}
              for d in ("dom", "cod")}
    span = x.on_loose["l"]
    action = {(p, xi): rng.choice(fibre[span.right[xi]])
              for xi in span.apex for p in fibre[span.left[xi]]}
    return al, build_instance(x, carriers, labels, {"l": action})


@contextmanager
def patched(module, name, value):
    old = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, old)


def _identity_breaking_copresheaf(base, on_objects, on_morphisms):
    """The copresheaf, except that the identity of the first object with
    two values sends the first to the second."""
    cp = Copresheaf(base, on_objects, on_morphisms)
    o = next(o for o in base.objects if len(cp.on_objects[o]) >= 2)
    first, second = list(cp.on_objects[o])[:2]
    cp.on_morphisms[base.identity[o]][first] = second
    return cp


def _family_dropping_compile():
    """A ``compile`` for Π whose runs leave out their last family at
    every object after the first."""
    calls = []

    def dropping(domains, constraints):
        problem = search.compile(domains, constraints)
        calls.append(None)
        if len(calls) == 1:
            return problem

        class Dropping:
            def run(self):
                return iter(list(problem.run())[:-1])
        return Dropping()
    return dropping


def _recomposing_elsewhere(a, b):
    composite = compose_model_morphisms(a, b)
    d = next(d for d, table in composite.on_objects.items() if table)
    table = dict(composite.on_objects[d])
    table[next(iter(table))] = "elsewhere"
    return ModelMorphism(composite.source, composite.target,
                         dict(composite.on_objects, **{d: table}),
                         composite.on_loose)


def corrupted_self_check(case):
    """Run one migration, factorization or collage functor with its
    output corrupted by a patch, so that its self-check fails."""
    al, h = seeded_fold(0)
    corruption, run = {
        "sigma": (patched(migration, "Copresheaf",
                          _identity_breaking_copresheaf),
                  lambda: migrate_lan(al, h, bound=4)),
        "reflection": (patched(migration, "Copresheaf",
                               _identity_breaking_copresheaf),
                       lambda: reflect_into_dopf(al, bound=4)),
        "pi": (patched(migration, "Copresheaf", _identity_breaking_copresheaf),
               lambda: migrate_ran(al, h, bound=4)),
        "pi_family": (patched(migration, "compile",
                              _family_dropping_compile()),
                      lambda: migrate_ran(al, h, bound=4)),
        "factorization": (patched(migration, "compose_model_morphisms",
                                  _recomposing_elsewhere),
                          lambda: comprehensive_factorize(al, bound=4)),
        "collage_functor": (patched(collage, "collage_generator_map",
                                    lambda p: dict.fromkeys(
                                        collage_generator_map(p), ())),
                            lambda: kappa_creates_dopf_check(al, bound=4)),
    }[case]
    with corruption:
        return run()


def _check_initial_uncertified():
    f, unit = weighted_graph_unit()
    return check_initial(unit, [f])


add("migration.", {"check_initial_uncertified": _check_initial_uncertified})
add("migration.self_check.", {
    case: partial(corrupted_self_check, case)
    for case in ("sigma", "reflection", "pi", "pi_family", "factorization",
                 "collage_functor")})


# -- test_model: a morphism across theories --------------------------------
def _morphism_across_theories():
    x = loose_model()
    y = terminal_model(builtin_theory("terminal"))
    return validate_model_morphism(ModelMorphism(
        x, y, {d: dict.fromkeys(s, "*") for d, s in x.on_objects.items()},
        {m: dict.fromkeys(sp.apex, "*") for m, sp in x.on_loose.items()}))


add("model.", {"morphism_across_theories": _morphism_across_theories})


# -- test_signed: ill-formed relations and edges ---------------------------
def _signed_relation(relation):
    return quotient_signed_category(
        SignedGraph(["v"], [("p", "v", "v", -1)]), [relation], 4)


ILL_FORMED_EDGES = [(("p", "u", "v", 2), "edge p has sign 2, not +1 or -1"),
                    (("p", "u", "w", 1), "edge p has undeclared endpoint w")]


def signed_model_on(edge):
    """The validated quotient of the graph on u and v with one ``edge``."""
    return validate_model(quotient_signed_category(
        SignedGraph(["u", "v"], [edge]), [], 4))


add("signed.", {
    "relation_changes_the_sign": partial(_signed_relation,
                                         ("v", "v", ("p",), ())),
    "relation_names_an_unknown_edge": partial(_signed_relation,
                                              ("v", "v", ("p", "q"), ())),
    **{"ill_formed_edge.{}".format(i): partial(signed_model_on, edge)
       for i, (edge, _) in enumerate(ILL_FORMED_EDGES)}})


# -- test_theories: missing or unclosed cell boundaries --------------------
def rebuilt_theory(name, k=None, drop=(), extra=()):
    """A built-in thin theory rebuilt from its tables and its cell
    boundaries, less ``drop`` and plus ``extra``."""
    t = builtin_theory(name, k)
    boundaries = [b for b in t.cells.values() if b not in drop]
    return thin_double_theory(t.objects, t.tight, t.tight_id, t.tight_comp,
                              t.loose, t.loose_id, t.loose_comp,
                              boundaries + list(extra), t.cartesian)


REFUSED_BOUNDARIES = [
    ("walking_loose", None, [("id:dom", "id:cod", "l", "l")], [],
     "missing identity boundary for loose l"),
    ("walking_tight", None, [("t", "t", "id:top", "id:bot")], [],
     "missing identity boundary for tight t"),
    ("signed", None, [], [("id:*", "id:*", "sigma", "id:*")],
     "thin theory not closed under horizontal pasting at "
     "(c[id:*|id:*|sigma|id:*],c[id:*|id:*|sigma|sigma])"),
    ("prom_trunc", 2, [("tf:0-0:", "tf:1-0:", "lf:0-1:", "lf:0-0:")], [],
     "thin theory not closed under vertical pasting at "
     "(c[tf:0-0:|tf:1-2:1.1|lf:0-1:|lf:0-2:],"
     "c[tf:0-0:|tf:2-0:|lf:0-2:|lf:0-0:])")]
add("theories.boundary.", {
    name: partial(rebuilt_theory, name, k, drop, extra)
    for name, k, drop, extra, _ in REFUSED_BOUNDARIES})


# -- test_words: name clashes and ill-formed presentations -----------------
def _morphisms(*presentation):
    return ClosedWordCategory(*presentation).category.morphisms


add("words.", {
    # the generator ``a;b`` and the composite of ``a`` and ``b`` get one name
    "name_clash": partial(_morphisms, ["x", "y", "z"], {
        "a": ("x", "y"), "b": ("y", "z"), "a;b": ("x", "z")}, [], 4),
    "undeclared_target": partial(_morphisms, ["x"], {"a": ("x", "w")}, [], 4),
    "undeclared_source": partial(_morphisms, ["x"], {"a": ("w", "x")}, [], 4),
    "zero_bound": partial(_morphisms, ["x"], {"a": ("x", "x")}, [], 0)})


if __name__ == "__main__":
    json.dump(outcomes(CASES), sys.stdout, default=repr)
