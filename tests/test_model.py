from operator import setitem

import pytest

from dblinst import model as model_module
from dblinst.finset import FiniteSet, Span
from dblinst.fixtures import (category_as_model, chain_category,
                              codiscrete_monad_model,
                              cyclic_translation_model, signed_fixture_models,
                              standard_instance_corpus, walking_loose_model, walking_tight_model, weighted_graph_schema)
from dblinst.model import (ModelMorphism, SpanModel, compose_model_morphisms,
                           enumerate_model_morphisms, find_model_isomorphism,
                           identity_morphism, terminal_model, validate_model,
                           validate_model_morphism)
from dblinst.theories import builtin_theory
from refusal_cases import in_process


def test_terminal_models_validate():
    for name in ("terminal", "walking_loose", "walking_tight",
                 "walking_square", "signed"):
        t = builtin_theory(name)
        assert validate_model(terminal_model(t)) == []


def test_corpus_models_validate():
    for _, x, _ in standard_instance_corpus():
        assert validate_model(x) == []


def test_cyclic_models_validate():
    assert validate_model(cyclic_translation_model(4, 2)) == []
    assert validate_model(cyclic_translation_model(2, 0)) == []
    assert validate_model(cyclic_translation_model(6, 3)) == []


def test_broken_laxator_is_reported():
    x = category_as_model(chain_category(3))
    x.laxators[("id:*", "id:*")][("0<1", "1<2")] = "0<1"
    assert validate_model(x) != []


def test_broken_cell_is_reported():
    x = walking_tight_model(["p", "q"], ["r", "s"], {"p": "r", "q": "s"})
    a = x.theory.cell_id_tight["t"]
    x.on_cells[a] = {"p": "s", "q": "s"}
    assert validate_model(x) != []


def test_identity_and_composition_of_morphisms():
    x = weighted_graph_schema()
    i = identity_morphism(x)
    assert validate_model_morphism(i) == []
    assert compose_model_morphisms(i, i) == i


def test_morphism_enumeration_counts():
    # spans with 2 and 1 heteromorphisms over matching endpoints
    x = walking_loose_model(["a0", "a1"], ["b0"],
                            [("h0", "a0", "b0"), ("h1", "a1", "b0")])
    y = walking_loose_model(["a"], ["b"], [("h", "a", "b")])
    assert len(enumerate_model_morphisms(x, y)) == 1
    # two choices of object image, heteromorphism forced along them
    back = enumerate_model_morphisms(y, x)
    assert len(back) == 2
    for al in back:
        assert validate_model_morphism(al) == []


def test_find_model_isomorphism_detects_relabelling():
    x = walking_tight_model(["p", "q"], ["r"], {"p": "r", "q": "r"})
    y = walking_tight_model(["u", "v"], ["w"], {"u": "w", "v": "w"})
    iso = find_model_isomorphism(x, y)
    assert iso is not None
    z = walking_tight_model(["p"], ["r"], {"p": "r"})
    assert find_model_isomorphism(x, z) is None


def test_find_model_isomorphism_is_the_first_isomorphism():
    """The lazy search returns the first morphism of the sorted hom-set
    whose bijective components invert to a morphism."""
    tight = [walking_tight_model(top, bot, fn) for top, bot, fn in (
        (["p", "q", "s"], ["r", "t"], {"p": "r", "q": "t", "s": "r"}),
        (["u", "v", "w"], ["x", "y"], {"u": "y", "v": "x", "w": "y"}),
        (["p", "q", "s"], ["r", "t"], {"p": "r", "q": "r", "s": "r"}))]
    pairs = [(x, y) for x in tight for y in tight]
    for _, x, _ in standard_instance_corpus():
        pairs.append((x, x))
    pairs.append((weighted_graph_schema(), weighted_graph_schema()))
    for x, y in pairs:
        isos = [f for f in enumerate_model_morphisms(x, y)
                if all(sorted(t.values()) == list(y.on_objects[d])
                       for d, t in f.on_objects.items())
                and all(sorted(t.values()) == list(y.on_loose[m].apex)
                        for m, t in f.on_loose.items())]
        found = find_model_isomorphism(x, y)
        assert (found is None) == (not isos)
        if isos:
            assert found == isos[0]


def test_find_model_isomorphism_stops_at_the_first_hit(monkeypatch):
    """Five elements over one point have 3125 endomorphisms; finding an
    automorphism must not build them all."""
    built = []

    class Counting(model_module.ModelMorphism):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(model_module, "ModelMorphism", Counting)
    top = ["p{}".format(i) for i in range(5)]
    x = walking_tight_model(top, ["r"], {p: "r" for p in top})
    assert find_model_isomorphism(x, x) is not None
    assert len(built) < 10


def test_signed_models_have_multiplicative_signs():
    for x in signed_fixture_models():
        assert validate_model(x) == []
        cat = x.arrow_category
        for (f, g), fg in cat.comp.items():
            assert x.arrow_sign[fg] == x.arrow_sign[f] * x.arrow_sign[g]


def test_terminal_model_is_terminal():
    t = builtin_theory("walking_loose")
    one = terminal_model(t)
    x = weighted_graph_schema()
    assert len(enumerate_model_morphisms(x, one)) == 1


def test_search_depth_does_not_grow_with_the_elements():
    """One search variable per element: 1500 elements and 1500
    heteromorphisms are far deeper than Python's recursion limit."""
    n = 1500
    x = walking_loose_model(["a{}".format(i) for i in range(n)], ["b"],
                            [("h{}".format(i), "a{}".format(i), "b")
                             for i in range(n)])
    assert len(enumerate_model_morphisms(x, terminal_model(x.theory))) == 1


def test_morphism_that_breaks_legs_is_reported_not_raised():
    # swapping the two heteromorphisms breaks both left legs, so their
    # laxator pairs leave the target's pullback
    x = walking_loose_model(["a0", "a1"], ["b0"],
                            [("h0", "a0", "b0"), ("h1", "a1", "b0")])
    ident = identity_morphism(x)
    swap = ModelMorphism(x, x, ident.on_objects,
                         dict(ident.on_loose, l={"h0": "h1", "h1": "h0"}))
    assert validate_model_morphism(swap) == [
        "left leg broken at l on h0", "left leg broken at l on h1",
        "laxator compatibility fails at (id:dom,l) on (a0,h0)",
        "laxator compatibility fails at (id:dom,l) on (a1,h1)"]


ACROSS_THEORIES = ["TheoryMismatch", "the models live over theories with "
                   "different objects, tight arrows, loose arrows, cells"]


def test_validating_a_morphism_across_theories_is_a_typed_error(
        outcomes_under_O):
    """Refused with ``TheoryMismatch``, also under ``python -O``, which
    skips asserts."""
    label = "model.morphism_across_theories"
    assert in_process(label) == ACROSS_THEORIES
    assert outcomes_under_O[label] == ACROSS_THEORIES


# ---------------------------------------------------------------------------
# each report line of validate_model, pinned by one corruption


def _two_parallel_heteromorphisms():
    return walking_loose_model(["a0", "a1"], ["b0"],
                               [("h1", "a0", "b0"), ("h2", "a0", "b0")])


def _idempotent_monoid_model():
    """A walking-tight model whose identity spans carry the monoid
    {1, z} with z;z = z, and whose tight arrow acts on them as the
    identity; sending 1 to z still keeps every law but the unitors'
    naturality."""
    t = builtin_theory("walking_tight")
    top, bot = FiniteSet(["p"]), FiniteSet(["r"])
    mult = {("1", "1"): "1", ("1", "z"): "z", ("z", "1"): "z",
            ("z", "z"): "z"}
    elements = FiniteSet(["1", "z"])
    on_loose = {m: Span(s, s, elements, dict.fromkeys(elements, e),
                        dict.fromkeys(elements, e))
                for m, s, e in (("id:top", top, "p"), ("id:bot", bot, "r"))}
    return SpanModel(
        t, {"top": top, "bot": bot},
        {"id:top": {"p": "p"}, "id:bot": {"r": "r"}, "t": {"p": "r"}},
        on_loose, {a: {"1": "1", "z": "z"} for a in t.cells},
        {pair: dict(mult) for pair in t.loose_comp},
        {"top": {"p": "1"}, "bot": {"r": "1"}})


MODEL_CORRUPTIONS = {
    "object has no carrier": (
        _two_parallel_heteromorphisms,
        lambda x: x.on_objects.pop("cod"),
        "object cod has no carrier"),
    "loose arrow has no well-typed span": (
        _two_parallel_heteromorphisms,
        lambda x: setitem(x.on_loose, "l", x.on_loose["id:dom"]),
        "loose arrow l has no well-typed span"),
    "tight identity not the identity": (
        _two_parallel_heteromorphisms,
        lambda x: setitem(x.on_tight, "id:dom", {"a0": "a0", "a1": "a0"}),
        "tight identity at dom not the identity"),
    "tight functoriality fails": (
        codiscrete_monad_model,
        lambda x: setitem(x.on_tight, "t2", {"a": "a", "b": "b"}),
        "tight functoriality fails at (t1,t1)"),
    "cell has no total apex map": (
        lambda: walking_tight_model(["p"], ["r"], {"p": "r"}),
        lambda x: setitem(x.on_cells, x.theory.cell_id_tight["t"], {}),
        "cell c[t|t|id:top|id:bot] has no total apex map"),
    "identity cell not the identity": (
        _two_parallel_heteromorphisms,
        lambda x: setitem(x.on_cells, x.theory.cell_id_loose["l"],
                       {"h1": "h2", "h2": "h1"}),
        "identity cell of l not the identity"),
    "cell functoriality fails": (
        lambda: cyclic_translation_model(4, 2),
        lambda x: setitem(x.on_cells, "alpha",
                       {str(i): str((i + 1) % 4) for i in range(4)}),
        "cell functoriality fails at (alpha,alpha)"),
    "unitor not a total function": (
        _two_parallel_heteromorphisms,
        lambda x: setitem(x.unitors, "dom", {"a0": "a0"}),
        "unitor at dom not a total function"),
    "left unit law fails": (
        _two_parallel_heteromorphisms,
        lambda x: setitem(x.laxators[("id:dom", "l")], ("a0", "h1"), "h2"),
        "left unit law fails at l on h1"),
    "right unit law fails": (
        _two_parallel_heteromorphisms,
        lambda x: setitem(x.laxators[("l", "id:cod")], ("h1", "b0"), "h2"),
        "right unit law fails at l on h1"),
    "unitor naturality fails": (
        _idempotent_monoid_model,
        lambda x: setitem(x.on_cells, x.theory.cell_id_tight["t"],
                       {"1": "z", "z": "z"}),
        "unitor naturality fails at t on p"),
}


@pytest.mark.parametrize("case", sorted(MODEL_CORRUPTIONS))
def test_one_corruption_gives_its_report_line_first(case):
    build, corrupt, first = MODEL_CORRUPTIONS[case]
    x = build()
    assert validate_model(x) == []
    corrupt(x)
    assert validate_model(x)[0] == first
