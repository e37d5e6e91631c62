import os
import subprocess
import sys

import dblinst
from dblinst.fincat import (Copresheaf, FinCategory, FinFunctor,
                            compose_functors, enumerate_natural_transformations)
from dblinst.finset import FiniteSet
from dblinst.fixtures import chain_category, parallel_pair_category


def walking_arrow():
    return chain_category(2)


def test_chain_category_validates():
    for n in range(1, 5):
        assert chain_category(n).validate() == []


def test_parallel_pair_validates():
    assert parallel_pair_category().validate() == []


def test_validate_catches_broken_composition():
    cat = chain_category(3)
    cat.comp[("0<1", "1<2")] = "id:0"
    assert cat.validate() != []


def test_functor_validation():
    c2, c3 = chain_category(2), chain_category(3)
    inc = FinFunctor(c2, c3, {"0": "0", "1": "1"},
                     {"id:0": "id:0", "id:1": "id:1", "0<1": "0<1"})
    assert inc.validate() == []
    bad = FinFunctor(c2, c3, {"0": "0", "1": "2"},
                     {"id:0": "id:0", "id:1": "id:2", "0<1": "0<1"})
    assert bad.validate() != []


def test_compose_functors():
    c2, c3, c4 = chain_category(2), chain_category(3), chain_category(4)
    f = FinFunctor(c2, c3, {"0": "0", "1": "2"},
                   {"id:0": "id:0", "id:1": "id:2", "0<1": "0<2"})
    g = FinFunctor(c3, c4, {"0": "1", "1": "2", "2": "3"},
                   {"id:0": "id:1", "id:1": "id:2", "id:2": "id:3",
                    "0<1": "1<2", "1<2": "2<3", "0<2": "1<3"})
    fg = compose_functors(f, g)
    assert fg.validate() == []
    assert fg.on_objects == {"0": "1", "1": "3"}


def refused_compositions():
    """What each refused composition raises: the error's class and
    message, or ``returned`` when it returns."""
    c2, c3 = chain_category(2), chain_category(3)
    f = FinFunctor(c2, c3, {"0": "0", "1": "2"},
                   {"id:0": "id:0", "id:1": "id:2", "0<1": "0<2"})
    out = []
    for call in (lambda: c3.compose("0<1", "0<1"),
                 lambda: c3.compose("0<1", "ghost"),
                 lambda: c3.compose("ghost", "0<1"),
                 lambda: compose_functors(f, f)):
        try:
            call()
            out.append("returned")
        except Exception as e:
            out.append("{}: {}".format(type(e).__name__, e))
    return out


REFUSED_COMPOSITIONS = [
    "ModelMismatch: morphisms 0<1 and 0<1 do not compose",
    "ModelMismatch: morphisms 0<1 and ghost do not compose",
    "ModelMismatch: morphisms ghost and 0<1 do not compose",
    "ModelMismatch: the target of the first functor is not the source of "
    "the second"]


def test_compositions_that_do_not_meet_are_refused():
    assert chain_category(3).compose("0<1", "1<2") == "0<2"
    assert refused_compositions() == REFUSED_COMPOSITIONS


def test_compositions_that_do_not_meet_are_refused_also_without_asserts():
    """``python -O`` skips asserts, so this composes in a subprocess
    with that flag."""
    package_root = os.path.dirname(os.path.dirname(dblinst.__file__))
    paths = [package_root, os.path.dirname(os.path.abspath(__file__)),
             os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = ("from test_fincat import refused_compositions\n"
            "print('\\n'.join(refused_compositions()))\n")
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == REFUSED_COMPOSITIONS


def test_classical_dopf_check():
    # two disjoint lifts of the walking arrow over itself: a dopf
    base = walking_arrow()
    total = FinCategory(
        ["a0", "a1", "b0", "b1"],
        {"id:a0": ("a0", "a0"), "id:a1": ("a1", "a1"),
         "id:b0": ("b0", "b0"), "id:b1": ("b1", "b1"),
         "fa": ("a0", "a1"), "fb": ("b0", "b1")},
        {"a0": "id:a0", "a1": "id:a1", "b0": "id:b0", "b1": "id:b1"},
        {("id:a0", "id:a0"): "id:a0", ("id:a1", "id:a1"): "id:a1",
         ("id:b0", "id:b0"): "id:b0", ("id:b1", "id:b1"): "id:b1",
         ("id:a0", "fa"): "fa", ("fa", "id:a1"): "fa",
         ("id:b0", "fb"): "fb", ("fb", "id:b1"): "fb"})
    assert total.validate() == []
    proj = FinFunctor(total, base,
                      {"a0": "0", "a1": "1", "b0": "0", "b1": "1"},
                      {"id:a0": "id:0", "id:a1": "id:1", "id:b0": "id:0",
                       "id:b1": "id:1", "fa": "0<1", "fb": "0<1"})
    assert proj.validate() == []
    ok, problems = proj.is_classical_dopf()
    assert ok and problems == []
    # folding the chain onto one object breaks unique lifting
    bad = FinFunctor(base, base, {"0": "0", "1": "0"},
                     {"id:0": "id:0", "id:1": "id:0", "0<1": "id:0"})
    assert bad.validate() == []
    ok, problems = bad.is_classical_dopf()
    assert not ok and problems


def test_copresheaf_validation_and_nat_transformations():
    cat = parallel_pair_category()
    c1 = Copresheaf(cat,
                    {"a": FiniteSet(["x"]), "b": FiniteSet(["u", "v"])},
                    {"id:a": {"x": "x"}, "id:b": {"u": "u", "v": "v"},
                     "f": {"x": "u"}, "g": {"x": "v"}})
    assert c1.validate() == []
    c2 = Copresheaf(cat,
                    {"a": FiniteSet(["y"]), "b": FiniteSet(["w"])},
                    {"id:a": {"y": "y"}, "id:b": {"w": "w"},
                     "f": {"y": "w"}, "g": {"y": "w"}})
    assert c2.validate() == []
    nts = enumerate_natural_transformations(c1, c2)
    assert len(nts) == 1
    nts_back = enumerate_natural_transformations(c2, c1)
    # w must go somewhere both f and g hit compatibly with x |-> y: none
    assert len(nts_back) == 0


def test_validate_reports_a_missing_composite():
    cat = chain_category(3)
    del cat.comp[("0<1", "1<2")]
    assert cat.validate() == ["missing composite (0<1,1<2)"]
