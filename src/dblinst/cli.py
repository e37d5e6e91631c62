"""Command-line interface.

One verb per invocation; every input and output is a self-describing
JSON document.  Exit status 0 means success with an empty report, 1
means the requested check produced report entries, and 2 means the
computation could not be carried out (parse errors, non-finite
closures, unknown verbs).
"""

import argparse
import os
import sys

from .errors import DblinstError, InvalidTheory, MalformedDocument
from . import fixtures as fx
from .serialize import (document_of, load_document, object_of,
                        save_document, write_document, FORMAT_VERSION)
from .signed import walking_feedback_loop
from .theories import builtin_theory
from .words import DEFAULT_BOUND


def _emit_report(args, entries, extra=None):
    entries = list(entries)
    if args.json_report:
        doc = {"kind": "report", "format_version": FORMAT_VERSION,
               "ok": not entries, "entries": entries}
        doc.update(extra or {})
        write_document(doc, sys.stdout)
    else:
        for entry in entries:
            print(entry)
        if not entries:
            print("ok")
    return 1 if entries else 0


def _write(args, obj):
    doc = document_of(obj)
    if args.output:
        save_document(doc, args.output)
    else:
        write_document(doc, sys.stdout)
    return 0


def _load(path, kinds):
    doc = load_document(path)
    if not isinstance(doc, dict):
        raise MalformedDocument("{}: not a JSON object".format(path))
    if doc.get("kind") not in kinds:
        raise MalformedDocument("{}: expected one of {}, found {!r}"
                           .format(path, sorted(kinds), doc.get("kind")))
    return object_of(doc)


# ---------------------------------------------------------------------------
# verbs


def cmd_validate_theory(args):
    from .theory import validate_theory
    return _emit_report(args, validate_theory(_load(args.file, {"theory"})))


def cmd_validate_model(args):
    from .model import validate_model
    return _emit_report(args, validate_model(_load(args.file, {"model"})))


def cmd_validate_instance(args):
    from .instance import validate_instance
    return _emit_report(args,
                        validate_instance(_load(args.file, {"instance"})))


def cmd_collage(args):
    from .collage import collage_of_model
    return _write(args, collage_of_model(_load(args.file, {"model"})))


def cmd_close_category(args):
    from .collage import close_presented_category
    p = _load(args.file, {"presented_category"})
    closure = close_presented_category(p, args.bound)
    return _write(args, closure.category)


def cmd_to_copresheaf(args):
    from .collage import (close_presented_category, collage_of_model,
                          instance_to_copresheaf)
    h = _load(args.file, {"instance"})
    closure = close_presented_category(collage_of_model(h.model),
                                       args.bound)
    return _write(args, instance_to_copresheaf(h, closure))


def cmd_from_copresheaf(args):
    from .collage import (close_presented_category, collage_of_model,
                          copresheaf_to_instance)
    cp = _load(args.file, {"copresheaf"})
    x = _load(args.model, {"model"})
    closure = close_presented_category(collage_of_model(x), args.bound)
    return _write(args, copresheaf_to_instance(cp, x, closure))


def cmd_elements(args):
    from .elements import elements
    _, pi, _ = elements(_load(args.file, {"instance"}))
    return _write(args, pi)


def cmd_nabla(args):
    from .elements import nabla
    return _write(args, nabla(_load(args.file, {"model_morphism"})))


def cmd_check_dopf(args):
    from .elements import is_discrete_opfibration
    check = is_discrete_opfibration(_load(args.file, {"model_morphism"}))
    entries = [] if check.ok else \
        ["not a discrete opfibration: {}".format(check.counterexample)]
    extra = None
    if check.ok and args.witness:
        save_document(document_of(check.witness), args.witness)
        extra = {"witness": args.witness}
    return _emit_report(args, entries, extra)


def cmd_migrate(args):
    from .migration import (DEFAULT_MAX_HOM_CARD, MigrationContext,
                            migrate_lan, migrate_pullback, migrate_ran)
    al = _load(args.along, {"model_morphism"})
    h = _load(args.file, {"instance"})
    if args.mode == "delta":
        return _write(args, migrate_pullback(al, h))
    max_hom_card = int(os.environ.get("DBLINST_MAX_HOM_CARD",
                                      DEFAULT_MAX_HOM_CARD))
    ctx = MigrationContext(al, args.bound, max_hom_card)
    fn = migrate_lan if args.mode == "sigma" else migrate_ran
    return _write(args, fn(al, h, context=ctx))


def cmd_factorize(args):
    from .migration import cartesian_factorize, comprehensive_factorize
    f = _load(args.file, {"model_morphism"})
    factorize = cartesian_factorize if args.cartesian else \
        comprehensive_factorize
    fac = factorize(f, bound=args.bound)
    stem = args.output or os.path.splitext(args.file)[0]
    save_document(document_of(fac.initial), stem + ".initial.json")
    save_document(document_of(fac.opfibration), stem + ".dopf.json")
    return 0


def cmd_check_initial(args):
    from .migration import check_initial
    e = _load(args.file, {"model_morphism"})
    corpus = []
    for name in sorted(os.listdir(args.corpus)):
        if name.endswith(".json"):
            corpus.append(_load(os.path.join(args.corpus, name),
                                {"model_morphism"}))
    return _emit_report(args, check_initial(e, corpus))


def cmd_check_cartesian(args):
    from .cartesian import validate_cartesian_instance, validate_cartesian_model
    from .instance import validate_instance
    from .model import SpanModel, validate_model
    obj = _load(args.file, {"model", "instance"})
    # the cartesian checks read only what validation finds there
    if isinstance(obj, SpanModel):
        report = validate_model(obj) or validate_cartesian_model(obj)
    else:
        report = validate_model(obj.model) or validate_instance(obj) \
            or validate_cartesian_instance(obj)
    return _emit_report(args, report)


def cmd_flatten(args):
    from .sketch import flatten_cartesian_theory, flatten_theory
    from .theory import validate_theory
    t = _load(args.file, {"theory"})
    report = validate_theory(t)
    if report:
        raise InvalidTheory("{} is not a valid theory: {}".format(
            args.file, "; ".join(report[:3])))
    flatten = flatten_cartesian_theory if args.cartesian else flatten_theory
    return _write(args, flatten(t))


def cmd_count_morphisms(args):
    from .model import MorphismSearch
    a = _load(args.source, {"model"})
    b = _load(args.target, {"model"})
    print(MorphismSearch(a, b).count())
    return 0


# ---------------------------------------------------------------------------
# fixtures


def _one(stem, build, *args):
    return lambda: {stem + ".json": build(*args)}


# fixture name -> builder of {file name: object}; ``--help`` lists the
# names in this order
_FIXTURES = {name: _one(name, builtin_theory, name) for name in (
    "terminal", "walking_loose", "walking_tight", "walking_square",
    "signed", "involution_cell")}
_FIXTURES.update((name, _one(name + "2", builtin_theory, name, 2))
                 for name in ("monad_trunc", "prom_trunc", "sq_finset_op"))
_FIXTURES.update({
    "weighted_graph": lambda: {
        "weighted_graph.json": fx.weighted_graph_schema(),
        "weighted_graph_instance.json": fx.weighted_graph_instance()},
    "profunctor_instance": lambda: dict(zip(
        ("profunctor_model.json", "profunctor_instance.json"),
        fx.profunctor_instance_fixture())),
    "monad_instance": lambda: dict(zip(
        ("monad_model.json", "monad_instance.json"),
        fx.monad_instance_fixture())),
    "cyclic_pair": _one("cyclic_pair", fx.cyclic_quotient_morphism),
    "signed_models": lambda: {
        "signed_model_{}.json".format(i): m
        for i, m in enumerate(fx.signed_fixture_models())},
    "negloop1": _one("negloop1", walking_feedback_loop, -1),
    "posloop1": _one("posloop1", walking_feedback_loop, +1),
})
_FIXTURES.update(("multicategory_" + name,
                  _one("multicategory_" + name, fx.builtin_multicategory,
                       name))
                 for name in ("terminal", "join", "two_object"))
FIXTURE_NAMES = tuple(_FIXTURES)


def cmd_fixtures(args):
    for fname, obj in sorted(_FIXTURES[args.name]().items()):
        path = os.path.join(args.directory, fname)
        save_document(document_of(obj), path)
        print(path)
    return 0


# ---------------------------------------------------------------------------
# dispatch


_OUTPUT = (("--output", "-o"), {"default": None})
_REPORT = (("--json-report",), {"action": "store_true"})
_BOUND = (("--bound",), {"type": int, "default": DEFAULT_BOUND})
_FILE = (("file",), {})
_CARTESIAN = (("--cartesian",), {"action": "store_true"})

# verb -> (handler, shared flags, extra arguments); ``--help`` lists the
# verbs in this order
VERBS = {
    "validate-theory": (cmd_validate_theory, (_REPORT,), (_FILE,)),
    "validate-model": (cmd_validate_model, (_REPORT,), (_FILE,)),
    "validate-instance": (cmd_validate_instance, (_REPORT,), (_FILE,)),
    "collage": (cmd_collage, (_OUTPUT,), (_FILE,)),
    "close-category": (cmd_close_category, (_OUTPUT, _BOUND), (_FILE,)),
    "to-copresheaf": (cmd_to_copresheaf, (_OUTPUT, _BOUND), (_FILE,)),
    "from-copresheaf": (cmd_from_copresheaf, (_OUTPUT, _BOUND), (
        _FILE, (("--model",), {"required": True}))),
    "elements": (cmd_elements, (_OUTPUT,), (_FILE,)),
    "nabla": (cmd_nabla, (_OUTPUT,), (_FILE,)),
    "check-dopf": (cmd_check_dopf, (_REPORT,), (
        _FILE, (("--witness",), {"default": None}))),
    "migrate": (cmd_migrate, (_OUTPUT, _BOUND), (
        _FILE,
        (("--mode",), {"choices": ("delta", "sigma", "pi"),
                       "required": True}),
        (("--along",), {"required": True}))),
    "factorize": (cmd_factorize, (_OUTPUT, _BOUND), (_FILE, _CARTESIAN)),
    "check-initial": (cmd_check_initial, (_REPORT,), (
        _FILE, (("--corpus",), {"required": True}))),
    "check-cartesian": (cmd_check_cartesian, (_REPORT,), (_FILE,)),
    "flatten": (cmd_flatten, (_OUTPUT,), (_FILE, _CARTESIAN)),
    "count-morphisms": (cmd_count_morphisms, (), (
        (("source",), {}), (("target",), {}))),
    "fixtures": (cmd_fixtures, (), (
        (("action",), {"choices": ("emit",)}),
        (("name",), {"choices": FIXTURE_NAMES}),
        (("--directory",), {"default": "."}))),
}


def build_parser(verb=None):
    """The parser of every verb, or of ``verb`` alone.

    A one-verb parser parses that verb's argv, and prints its help and
    its usage errors, with the same bytes as the full parser: the
    top-level usage line still lists every verb.
    """
    parser = argparse.ArgumentParser(
        prog="dblinst",
        description="Finite models, instances, and migrations of double "
                    "theories.")
    if verb is None:
        sub, verbs = parser.add_subparsers(dest="verb"), VERBS
    else:
        sub = parser.add_subparsers(
            dest="verb", metavar="{" + ",".join(VERBS) + "}")
        verbs = {verb: VERBS[verb]}
    for name, (handler, flags, extras) in verbs.items():
        p = sub.add_parser(name)
        for names, kw in flags + extras:
            p.add_argument(*names, **kw)
        p.set_defaults(fn=handler)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # a call that names a verb builds only that verb's parser
    parser = build_parser(argv[0] if argv and argv[0] in VERBS else None)
    args = parser.parse_args(argv)
    if args.verb is None:
        parser.print_help()
        return 2
    try:
        return args.fn(args)
    except (DblinstError, OSError) as e:
        print("error: {}".format(e), file=sys.stderr)
        return 2
    except (ValueError, KeyError, AssertionError) as e:
        print("error: {!r}".format(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
