"""Partial tables, foreign models and truncations the cartesian layer
cannot read: each ends in a report line or a ``TheoryMismatch``, never
in a ``KeyError`` or an ``AttributeError``, also under ``python -O``.
And the ``prom_trunc`` theories the multicategory dictionary builds once
per process stay equal to fresh builds.
"""

import json
import os
import subprocess
import sys

import pytest

import dblinst
from dblinst import cartesian
from dblinst.cartesian import (Multifunctor, check_product_actions_determined,
                               instance_to_multifunctor,
                               model_to_multicategory,
                               multicategories_isomorphic,
                               multicategory_to_model,
                               multifunctor_to_instance,
                               validate_cartesian_instance,
                               validate_cartesian_model)
from dblinst.errors import DblinstError
from dblinst.fixtures import (builtin_multicategory, join_multicategory,
                              monad_instance_fixture, tautological_instance,
                              two_object_multicategory)
from dblinst.serialize import document_of, object_of, theory_to_doc
from dblinst.theories import builtin_theory

MC_NAMES = ["terminal", "join", "two_object"]


def join_model():
    return multicategory_to_model(join_multicategory(),
                                  builtin_theory("prom_trunc", 2))


def reloaded(obj, edit=None):
    """``obj`` read back from its document, after ``edit`` changed it."""
    doc = json.loads(json.dumps(document_of(obj)))
    if edit is not None:
        edit(doc)
    return object_of(doc)


def both_checks(h):
    return validate_cartesian_instance(h) + \
        check_product_actions_determined(h)


def swapped_instance():
    """The tautological instance of the two-object model with the values
    of the first projection of x1 x x1 at (a,a) and (b,a) exchanged."""
    x = multicategory_to_model(two_object_multicategory(),
                               builtin_theory("prom_trunc", 2))
    h = tautological_instance(x)
    table = h.tight_cells["tf:2-1:1"]
    table["(a,a)"], table["(b,a)"] = table["(b,a)"], table["(a,a)"]
    return h


def without_actions(m):
    h = tautological_instance(join_model())
    del h.actions[m]
    return h


def join_multifunctor():
    return Multifunctor(join_multicategory(), {"o": ["0", "1"]},
                        {"u": {("0",): "0", ("1",): "1"}, "n": {(): "0"},
                         "b": {(a, b): max(a, b) for a in "01" for b in "01"}})


def _delete(*path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


def cases():
    """label -> the call to make."""
    out = {
        "model_tight_partial": lambda: validate_cartesian_model(reloaded(
            join_model(), _delete("on_tight", "tf:2-1:1", "(o,o)"))),
        "model_tight_missing": lambda: validate_cartesian_model(reloaded(
            join_model(), _delete("on_tight", "tf:2-1:1"))),
        "model_cell_partial": lambda: validate_cartesian_model(reloaded(
            join_model(), _delete("on_cells", "c[tf:2-1:1|tf:2-1:1|"
                                  "lf:2-2:1.2|lf:1-1:1]", "[u|u]"))),
        "instance_tight_partial": lambda: both_checks(reloaded(
            tautological_instance(join_model()),
            _delete("tight_cells", "tf:2-1:1", "(o,o)"))),
        "instance_labels_swapped": lambda: both_checks(swapped_instance()),
        "instance_product_action_missing": lambda: both_checks(
            without_actions("lf:2-2:1.2")),
        "instance_factor_action_missing": lambda: both_checks(
            without_actions("lf:1-1:1")),
        "actions_without_products": lambda: check_product_actions_determined(
            monad_instance_fixture()[1]),
        "read_back_reloaded_to_multifunctor": lambda: instance_to_multifunctor(
            tautological_instance(reloaded(join_model()))),
        "read_back_reloaded_to_instance": lambda: multifunctor_to_instance(
            join_multifunctor(), reloaded(join_model())),
    }
    for name in MC_NAMES:
        out["read_back_prom_trunc_0_" + name] = \
            lambda name=name: model_to_multicategory(multicategory_to_model(
                builtin_multicategory(name), builtin_theory("prom_trunc", 0)))
    return out


def outcomes():
    """label -> the report a case returns, or the typed error it raises."""
    out = {}
    for label, call in cases().items():
        try:
            out[label] = call()
        except DblinstError as err:
            out[label] = [type(err).__name__, str(err)]
    return out


NOT_PROM_TRUNC_0 = ["TheoryMismatch", "the model's theory is prom_trunc(0), "
                    "which has no object x1 for a multicategory's objects"]
NO_MULTICATEGORY = ["TheoryMismatch", "the model carries no multicategory: "
                    "only multicategory_to_model attaches one, and a model "
                    "read back from its document has none"]


def _mismatch(m, e, xi):
    return "action of {} at ({},{}) is not the paired factor action".format(
        m, e, xi)


EXPECTED = {
    "model_tight_partial": ["tight arrow tf:2-1:1 has no total function"],
    "model_tight_missing": ["tight arrow tf:2-1:1 has no total function"],
    "model_cell_partial": [
        "cell c[tf:2-1:1|tf:2-1:1|lf:2-2:1.2|lf:1-1:1] has no total apex map"],
    # reported once by each check, which skips what reads the table
    "instance_tight_partial": ["tight cell at tf:2-1:1 not total"] * 2,
    # the pairing stays a bijection; the factor actions are looked up at
    # labels they do not have
    "instance_labels_swapped": [
        _mismatch("lf:2-2:1.2", "(a,a)", "[ia|ia]"),
        _mismatch("lf:2-2:1.2", "(b,a)", "[ib|ia]")],
    # lf:2-2:1.2 is the product of three pairs of loose arrows, and
    # lf:1-1:1 the product of two: each line is reported once
    "instance_product_action_missing": [
        _mismatch("lf:2-2:1.2", "(o,o)", "[u|u]")],
    "instance_factor_action_missing": [
        _mismatch("lf:1-1:1", "o", "[u]"),
        _mismatch("lf:1-2:2", "o", "[n|u]"),
        _mismatch("lf:1-2:1", "o", "[u|n]"),
        _mismatch("lf:2-2:1.2", "(o,o)", "[u|u]")],
    "actions_without_products": ["theory carries no cartesian structure"],
    "read_back_reloaded_to_multifunctor": NO_MULTICATEGORY,
    "read_back_reloaded_to_instance": NO_MULTICATEGORY,
    "read_back_prom_trunc_0_terminal": NOT_PROM_TRUNC_0,
    "read_back_prom_trunc_0_join": NOT_PROM_TRUNC_0,
    "read_back_prom_trunc_0_two_object": NOT_PROM_TRUNC_0,
}


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_each_case_ends_in_a_report_or_a_typed_refusal(label):
    try:
        got = cases()[label]()
    except DblinstError as err:
        got = [type(err).__name__, str(err)]
    assert got == EXPECTED[label]


def test_the_same_under_python_O():
    """``python -O`` skips asserts; every case ends the same there."""
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    package_root = os.path.dirname(os.path.dirname(dblinst.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, tests_dir,
                      os.environ.get("PYTHONPATH")])))
    code = ("import json, test_cartesian_refusals as t\n"
            "print(json.dumps(t.outcomes()))\n")
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout) == EXPECTED


def test_each_prom_trunc_is_built_once_and_never_changed():
    """The dictionary's ``prom_trunc`` theories are built once per
    process; after isomorphism checks and read-backs over them, each is
    still equal to a fresh build."""
    mcs = [builtin_multicategory(name) for name in MC_NAMES]
    for k in (1, 2):
        for mc in mcs:
            back = model_to_multicategory(
                multicategory_to_model(mc, builtin_theory("prom_trunc", k)))
            assert multicategories_isomorphic(back, back)
    for mc1 in mcs:
        for mc2 in mcs:
            multicategories_isomorphic(mc1, mc2)
    assert {1, 2} <= set(cartesian._PROM_TRUNC)
    assert cartesian._prom_trunc(2) is cartesian._PROM_TRUNC[2]
    for k, t in cartesian._PROM_TRUNC.items():
        assert theory_to_doc(t) == theory_to_doc(builtin_theory("prom_trunc",
                                                                k))
