"""cli: the serialize and cli layers, in process.

Every op is one ``dblinst.cli.main(argv)`` call on JSON documents
written in setup: it loads, computes and writes once.  Every object is
fresh and used once, so per-object set-up cost cannot amortise.  The
documents are ``fixtures emit`` for every fixture name, plus seeded
walking-loose documents.  Checks read the written files with the json
module only: exit codes, counts, and elements -> nabla documents equal
to their inputs.
"""

import contextlib
import io
import json
import os

from dblinst import cli
from dblinst.cartesian import multicategory_to_model
from dblinst.collage import (close_presented_category, collage_of_model,
                             instance_to_copresheaf)
from dblinst.elements import elements
from dblinst.fixtures import (join_multicategory, representable_instances,
                              tautological_instance)
from dblinst.migration import comprehensive_factorize
from dblinst.model import terminal_model
from dblinst.serialize import document_of, save_document
from dblinst.theories import builtin_theory

import gen
import oracles
from harness import Op, expect

THEORY_DOCS = ["terminal", "walking_loose", "walking_tight", "walking_square",
               "signed", "involution_cell", "monad_trunc2", "prom_trunc2"]
MODEL_DOCS = ["weighted_graph", "profunctor_model", "monad_model",
              "signed_model_0", "signed_model_1", "signed_model_2"]
INSTANCE_DOCS = ["weighted_graph_instance", "profunctor_instance",
                 "monad_instance"]
# (base elements per side, fibre width) of the seeded documents
WL_SIZES = [(20, 2), (50, 2), (100, 1)]
WL_HETS = 2
SMALL = (3, 2, 1, 2)          # dom, cod, hets per element, width: closures
FOLD = (4, 3, 2, 2, 1)        # source dom/cod, target dom/cod, hets
BOUND = 4
MAX_CLASSES = 10000       # the closure cap, passed explicitly at its default


def invoke(*argv):
    """Run one CLI verb in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def _save(obj, path):
    save_document(document_of(obj), path)
    return path


def _op(kind, shape, argv, code, check=None, error=None):
    """An op expecting exit ``code``; ``check`` sees (stdout) and returns
    a cause or None.  Exit code 2 is also what ``cli.main`` returns when
    the library crashes with a KeyError, ValueError, OSError or
    AssertionError, so an op expecting 2 names the ``error`` message the
    typed ``DblinstError`` prints."""
    def verdict(result):
        got, out, err = result
        if got != code:
            return "exit {} (expected {}): {}".format(
                got, code, (err or out).strip()[:120])
        if error is not None and error not in err:
            return "wrong error (expected {!r}): {}".format(
                error, err.strip()[:120])
        return check(out) if check else None
    return Op(kind, shape, lambda: invoke(*argv), verdict)


def _ok(out):
    return None if out.strip() == "ok" else "printed {!r}".format(out[:80])


def build(rng, workdir):
    fx = os.path.join(workdir, "fixtures")
    os.makedirs(fx)
    for name in cli.FIXTURE_NAMES:
        code, _, err = invoke("fixtures", "emit", name, "--directory", fx)
        if code != 0:
            raise RuntimeError("fixtures emit {} failed: {}".format(name, err))
    docs = {os.path.splitext(n)[0]: os.path.join(fx, n) for n in os.listdir(fx)}
    out = os.path.join(workdir, "out")
    os.makedirs(out)

    ops = []
    for name in THEORY_DOCS:
        ops.append(_op("cli.validate_theory", {"doc": name},
                       ["validate-theory", docs[name]], 0, _ok))
        ops.append(_op("cli.flatten", {"doc": name},
                       ["flatten", docs[name], "-o",
                        os.path.join(out, "sketch.json")], 0))
    ops.append(_op("cli.flatten_cartesian", {"doc": "prom_trunc2"},
                   ["flatten", docs["prom_trunc2"], "--cartesian", "-o",
                    os.path.join(out, "sketch.json")], 0))
    for name in MODEL_DOCS:
        ops.append(_op("cli.validate_model", {"doc": name},
                       ["validate-model", docs[name]], 0, _ok))
    for name in INSTANCE_DOCS:
        ops.append(_op("cli.validate_instance", {"doc": name},
                       ["validate-instance", docs[name]], 0, _ok))
    ops.append(_op("cli.wrong_kind", {"doc": "weighted_graph_instance"},
                   ["validate-model", docs["weighted_graph_instance"]], 2,
                   error="expected one of ['model'], found 'instance'"))
    for n, width in WL_SIZES:
        ops += _seeded_ops(rng, n, width, workdir, out)
    ops += _closure_ops(rng, workdir, out)
    ops += _migration_ops(rng, workdir, out)
    ops += _cartesian_ops(docs, workdir)
    x = gen.wl_model(rng, 3, 1, 1)
    ops.append(_op("cli.count_morphisms", {"N": 3, "hets_per": 1},
                   ["count-morphisms", _save(x, os.path.join(workdir, "self.json")),
                    os.path.join(workdir, "self.json")], 0,
                   lambda text: expect("count", text.strip(), "27")))
    ops.append(_op("cli.fixtures_emit", {"doc": "weighted_graph"},
                   ["fixtures", "emit", "weighted_graph", "--directory", out], 0))
    return ops, []


def _seeded_ops(rng, n, width, workdir, out):
    """Validation and the instance <-> opfibration round trip on seeded
    walking-loose documents, with corrupted copies that must be reported."""
    x = gen.wl_model(rng, n, n, WL_HETS)
    h = gen.wl_instance(rng, x, width)
    stem = os.path.join(workdir, "wl{}".format(n))
    model_doc, inst_doc = _save(x, stem + "-model.json"), _save(h, stem + ".json")
    pi_doc = _save(elements(h)[1], stem + "-pi.json")
    to_one = _save(gen.to_terminal(x), stem + "-to-one.json")
    bad_model = _corrupt(model_doc, stem + "-bad-model.json",
                         _break_unitor)
    bad_inst = _corrupt(inst_doc, stem + "-bad.json", _break_action)
    shape = {"N": 2 * n, "hets_per": WL_HETS, "width": width}
    apex = oracles.action_domain_sizes(h)["l"]
    inst_json = _read(inst_doc)

    def check_elements(_):
        doc = _read(os.path.join(out, "pi.json"))
        return expect("apex size", len(doc["source"]["on_loose"]["l"]["apex"]),
                      apex)

    def check_nabla(_):
        return None if _read(os.path.join(out, "back.json")) == inst_json else \
            "nabla document differs from the elements input"

    return [
        _op("cli.validate_model", shape, ["validate-model", model_doc], 0, _ok),
        _op("cli.validate_model_corrupt", shape,
            ["validate-model", bad_model, "--json-report"], 1),
        _op("cli.validate_instance", shape, ["validate-instance", inst_doc],
            0, _ok),
        _op("cli.validate_instance_corrupt", shape,
            ["validate-instance", bad_inst], 1),
        _op("cli.elements", shape,
            ["elements", inst_doc, "-o", os.path.join(out, "pi.json")], 0,
            check_elements),
        _op("cli.nabla", shape,
            ["nabla", pi_doc, "-o", os.path.join(out, "back.json")], 0,
            check_nabla),
        _op("cli.check_dopf", shape, ["check-dopf", pi_doc, "--json-report"], 0,
            lambda text: None if json.loads(text)["ok"] else "dopf rejected"),
        _op("cli.check_dopf_corrupt", shape, ["check-dopf", to_one], 1),
    ]


def _closure_ops(rng, workdir, out):
    """Verbs that close a small collage, with explicit bounds."""
    n_dom, n_cod, hets, width = SMALL
    x = gen.wl_model(rng, n_dom, n_cod, hets)
    h = gen.wl_instance(rng, x, width)
    stem = os.path.join(workdir, "small")
    model_doc, inst_doc = _save(x, stem + "-model.json"), _save(h, stem + ".json")
    presented = _save(collage_of_model(x), stem + "-collage.json")
    closure = close_presented_category(collage_of_model(x), BOUND, MAX_CLASSES)
    cp_doc = _save(instance_to_copresheaf(h, closure), stem + "-cp.json")
    morphisms = oracles.wl_collage_morphisms(x)
    generators = morphisms     # one per heteromorphism and loose identity
    sizes = {d: len(h.carriers[d]) for d in ("dom", "cod")}
    shape = {"N": n_dom + n_cod, "hets_per": hets, "width": width,
             "bound": BOUND}

    def count(path, key):
        return lambda _: expect(key, len(_read(os.path.join(out, path))[key]),
                                morphisms if key == "morphisms" else generators)

    def carrier_sizes(_):
        doc = _read(os.path.join(out, "inst.json"))
        return expect("carrier sizes",
                      {d: len(c) for d, c in doc["carriers"].items()}, sizes)

    def fibre_total(_):
        doc = _read(os.path.join(out, "cp.json"))
        return expect("fibre total", sum(len(v) for v in doc["on_objects"]
                                         .values()), sum(sizes.values()))

    return [
        _op("cli.collage", shape,
            ["collage", model_doc, "-o", os.path.join(out, "presented.json")], 0,
            count("presented.json", "generators")),
        _op("cli.close_category", shape,
            ["close-category", presented, "--bound", BOUND, "-o",
             os.path.join(out, "cat.json")], 0, count("cat.json", "morphisms")),
        _op("cli.close_category_bound_1", dict(shape, bound=1),
            ["close-category", presented, "--bound", 1], 2,
            error="new morphism classes still appear at word length 1"),
        _op("cli.to_copresheaf", shape,
            ["to-copresheaf", inst_doc, "--bound", BOUND, "-o",
             os.path.join(out, "cp.json")], 0, fibre_total),
        _op("cli.from_copresheaf", shape,
            ["from-copresheaf", cp_doc, "--model", model_doc, "--bound", BOUND,
             "-o", os.path.join(out, "inst.json")], 0, carrier_sizes),
    ]


def _migration_ops(rng, workdir, out):
    """migrate along a fold, factorize a model over the terminal model,
    and check the unit's initiality against a corpus directory."""
    al = gen.fold_morphism(rng, *FOLD)
    stem = os.path.join(workdir, "fold")
    along = _save(al, stem + ".json")
    hx = _save(tautological_instance(al.source), stem + "-src.json")
    hy = _save(tautological_instance(al.target), stem + "-tgt.json")
    src_sizes = {d: len(al.source.on_objects[d]) for d in ("dom", "cod")}
    tgt_sizes = {d: len(al.target.on_objects[d]) for d in ("dom", "cod")}
    x = al.target
    f = gen.to_terminal(x)
    f_doc = _save(f, stem + "-to-one.json")
    initial = _save(comprehensive_factorize(f, BOUND).initial,
                    stem + "-unit.json")
    middle = oracles.comma_components(x)
    corpus = os.path.join(workdir, "corpus")
    os.makedirs(corpus)
    one = terminal_model(x.theory)
    for i, inst in enumerate(representable_instances(one, bound=BOUND)):
        _save(elements(inst)[1], os.path.join(corpus, "dopf{}.json".format(i)))
    shape = {"N": sum(src_sizes.values()), "M": sum(tgt_sizes.values()),
             "bound": BOUND}

    def sizes(want):
        def check(_):
            doc = _read(os.path.join(out, "migrated.json"))
            return expect("carrier sizes",
                          {d: len(c) for d, c in doc["carriers"].items()}, want)
        return check

    def middle_sizes(_):
        doc = _read(os.path.join(out, "fac.dopf.json"))
        return expect("middle sizes",
                      {d: len(e) for d, e in doc["source"]["on_objects"].items()},
                      middle)

    fac = os.path.join(out, "fac")
    return [
        _op("cli.migrate_delta", shape,
            ["migrate", hy, "--mode", "delta", "--along", along, "--bound",
             BOUND, "-o", os.path.join(out, "migrated.json")], 0,
            sizes(src_sizes)),
        _op("cli.migrate_sigma", shape,
            ["migrate", hx, "--mode", "sigma", "--along", along, "--bound",
             BOUND, "-o", os.path.join(out, "migrated.json")], 0,
            sizes(src_sizes)),
        _op("cli.migrate_pi", shape,
            ["migrate", hx, "--mode", "pi", "--along", along, "--bound",
             BOUND, "-o", os.path.join(out, "migrated.json")], 0,
            sizes(tgt_sizes)),
        _op("cli.factorize", shape,
            ["factorize", f_doc, "--bound", BOUND, "-o", fac], 0, middle_sizes),
        _op("cli.check_initial", dict(shape, corpus=len(os.listdir(corpus))),
            ["check-initial", initial, "--corpus", corpus], 0, _ok),
    ]


def _cartesian_ops(docs, workdir):
    x = multicategory_to_model(join_multicategory(),
                               builtin_theory("prom_trunc", 2))
    path = _save(x, os.path.join(workdir, "join-model.json"))
    return [
        _op("cli.check_cartesian", {"doc": "join_multicategory"},
            ["check-cartesian", path], 0, _ok),
        _op("cli.check_cartesian_none", {"doc": "weighted_graph"},
            ["check-cartesian", docs["weighted_graph"]], 1),
    ]


def _corrupt(src, dst, mutate):
    doc = _read(src)
    mutate(doc)
    with open(dst, "w") as fh:
        json.dump(doc, fh)
    return dst


def _break_unitor(doc):
    """Send the unitor of the first dom element to another element."""
    table = doc["unitors"]["dom"]
    first, second = sorted(table)[:2]
    table[first] = table[second]


def _break_action(doc):
    """Send the first action of l into another cod fibre."""
    entries = dict(doc["actions"])["l"]
    labels = doc["labels"]["cod"]
    old = entries[0][2]
    entries[0][2] = next(v for v in sorted(labels) if labels[v] != labels[old])
