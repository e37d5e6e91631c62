"""Smoke test: every demo script under ``scripts/`` runs to exit 0."""

import os
import subprocess
import sys

import pytest

import dblinst

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = sorted(name for name in os.listdir(os.path.join(ROOT, "scripts"))
                 if name.endswith(".py"))


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_exits_zero(name):
    package_root = os.path.dirname(os.path.dirname(dblinst.__file__))
    paths = [package_root, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
