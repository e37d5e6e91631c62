"""The shared ``python -O`` run of the refusal cases: a crash is one
case's outcome, and a run that dies fails every twin with its stderr."""

from refusal_cases import outcomes

pytest_plugins = ["pytester"]


def test_an_unexpected_exception_is_the_outcome_of_its_case():
    assert outcomes({"crashes": lambda: {}["ghost"],
                     "returns": lambda: ["a report line"]}) == {
        "crashes": ["KeyError", "'ghost'"],
        "returns": ["a report line"]}


def test_a_run_that_dies_fails_every_twin(pytester):
    """Two twins read a session fixture whose run exits with status 1."""
    pytester.makepyfile(
        "import pytest\n"
        "from conftest import run_under_O\n"
        "@pytest.fixture(scope='session')\n"
        "def outcomes_under_O():\n"
        "    return run_under_O('-c', 'import sys; sys.exit(\"boom\")')\n"
        "def test_one(outcomes_under_O):\n"
        "    pass\n"
        "def test_two(outcomes_under_O):\n"
        "    pass\n")
    result = pytester.runpytest_inprocess("-p", "no:cacheprovider",
                                          "-p", "no:hypothesispytest",
                                          "--tb=short")
    result.assert_outcomes(errors=2)
    result.stdout.fnmatch_lines(
        [line for test in ("test_one", "test_two") for line in (
            "*ERROR at setup of {}*".format(test),
            "E   RuntimeError: python -O exited with 1:", "E   boom")])
