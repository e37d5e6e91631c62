"""The fixture builders refuse inputs outside their domain with a typed
``DblinstError``, also under ``python -O``, which skips asserts."""

import pytest

from dblinst.fixtures import (coproduct_instance, cyclic_translation_model,
                              signed_cycle_oracle, tautological_instance)
from dblinst.signed import SignedGraph
from refusal_cases import in_process, loose_model, within


EXPECTED = {
    "instance_without_its_action": ["NotAFunction",
                                    "action table required for l"],
    "coproduct_of_different_models": [
        "ModelMismatch", "a coproduct of instances of different models"],
    "translation_not_an_involution": [
        "IllFormedPresentation", "translation by 1 is not an involution of "
        "Z/4"],
    "two_loops_at_a_vertex": [
        "FreeCategoryNotFinite", "a vertex has two loops, so its "
        "involutive-loop quotient is infinite"],
}


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_each_refusal_is_typed(label):
    assert in_process("fixtures." + label) == EXPECTED[label]


def test_the_same_under_python_O(outcomes_under_O):
    assert within(outcomes_under_O, "fixtures.") == EXPECTED


def test_inputs_in_their_domain_are_built_as_before():
    assert signed_cycle_oracle(SignedGraph(
        ["u", "v"], [("p", "u", "u", -1), ("e", "u", "v", +1)]), -1) == 1
    x = cyclic_translation_model(4, 2)
    assert x.on_cells["alpha"] == {"0": "2", "1": "3", "2": "0", "3": "1"}
    h = tautological_instance(loose_model())
    assert len(coproduct_instance(h, h).carriers["dom"]) == 2
