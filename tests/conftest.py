"""The one ``python -O`` run of the refusal cases, which the ``-O``
twins read: the tier-1 command runs without the flag."""

import json
import os
import subprocess
import sys

import pytest

import dblinst

TESTS = os.path.dirname(os.path.abspath(__file__))


def run_under_O(*args):
    """The JSON that ``python -O *args`` prints, with the library and
    this directory importable.  A run that exits non-zero raises
    ``RuntimeError`` with the end of its stderr."""
    package_root = os.path.dirname(os.path.dirname(dblinst.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        package_root, TESTS, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", *args], env=env,
                          capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise RuntimeError("python -O exited with {}:\n{}".format(
            done.returncode, done.stderr[-2000:]))
    return json.loads(done.stdout)


@pytest.fixture(scope="session")
def outcomes_under_O():
    """label -> outcome of every case of ``refusal_cases.py``, run once
    per session under ``python -O``.  When that run dies, every twin
    that reads it errors with its stderr."""
    return run_under_O(os.path.join(TESTS, "refusal_cases.py"))
