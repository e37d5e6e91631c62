"""Partial tables, foreign models and truncations the cartesian layer
cannot read: each ends in a report line or a ``TheoryMismatch``, never
in a ``KeyError`` or an ``AttributeError``, also under ``python -O``.
And the ``prom_trunc`` theories the multicategory dictionary builds once
per process stay equal to fresh builds.
"""

import pytest

from dblinst import cartesian
from dblinst.cartesian import (model_to_multicategory,
                               multicategories_isomorphic,
                               multicategory_to_model)
from dblinst.fixtures import builtin_multicategory
from dblinst.serialize import theory_to_doc
from dblinst.theories import builtin_theory
from refusal_cases import in_process, within

MC_NAMES = ["terminal", "join", "two_object"]


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
    # the terminal checks are skipped, the product checks still run
    "model_unknown_terminal": ["cartesian: unknown terminal object"],
    "instance_unknown_terminal": ["cartesian: unknown terminal object"],
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
    assert in_process("cartesian_refusals." + label) == EXPECTED[label]


def test_the_same_under_python_O(outcomes_under_O):
    """``python -O`` skips asserts; every case ends the same there."""
    assert within(outcomes_under_O, "cartesian_refusals.") == EXPECTED


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
