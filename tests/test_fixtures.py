"""The fixture builders refuse inputs outside their domain with a typed
``DblinstError``, also under ``python -O``, which skips asserts."""

import json
import os
import subprocess
import sys

import pytest

import dblinst
from dblinst.errors import DblinstError
from dblinst.fixtures import (build_instance, coproduct_instance,
                              cyclic_translation_model, signed_cycle_oracle,
                              tautological_instance, walking_loose_model)
from dblinst.signed import SignedGraph


def _loose_model():
    return walking_loose_model(["a"], ["b"], [("h", "a", "b")])


def cases():
    """label -> the call to make."""
    return {
        "instance_without_its_action": lambda: build_instance(
            _loose_model(), {"dom": ["p"], "cod": ["q"]},
            {"dom": {"p": "a"}, "cod": {"q": "b"}}, {}),
        "coproduct_of_different_models": lambda: coproduct_instance(
            tautological_instance(_loose_model()),
            tautological_instance(_loose_model())),
        "translation_not_an_involution": lambda: cyclic_translation_model(
            4, 1),
        "two_loops_at_a_vertex": lambda: signed_cycle_oracle(SignedGraph(
            ["u"], [("p", "u", "u", -1), ("q", "u", "u", +1)]), -1),
    }


def outcomes():
    """label -> the typed error each case raises, or its result."""
    out = {}
    for label, call in cases().items():
        try:
            out[label] = repr(call())
        except DblinstError as err:
            out[label] = [type(err).__name__, str(err)]
    return out


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
    with pytest.raises(DblinstError) as err:
        cases()[label]()
    assert [type(err.value).__name__, str(err.value)] == EXPECTED[label]


def test_the_same_under_python_O():
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    package_root = os.path.dirname(os.path.dirname(dblinst.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, tests_dir,
                      os.environ.get("PYTHONPATH")])))
    code = "import json, test_fixtures as t\nprint(json.dumps(t.outcomes()))\n"
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout) == EXPECTED


def test_inputs_in_their_domain_are_built_as_before():
    assert signed_cycle_oracle(SignedGraph(
        ["u", "v"], [("p", "u", "u", -1), ("e", "u", "v", +1)]), -1) == 1
    x = cyclic_translation_model(4, 2)
    assert x.on_cells["alpha"] == {"0": "2", "1": "3", "2": "0", "3": "1"}
    h = tautological_instance(_loose_model())
    assert len(coproduct_instance(h, h).carriers["dom"]) == 2
