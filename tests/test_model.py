
from dblinst.fixtures import (category_as_model, chain_category,
                              cyclic_translation_model, signed_fixture_models,
                              standard_instance_corpus, walking_loose_model, walking_tight_model, weighted_graph_schema)
from dblinst.model import (compose_model_morphisms, enumerate_model_morphisms,
                           find_model_isomorphism, identity_morphism,
                           terminal_model, validate_model,
                           validate_model_morphism)
from dblinst.theories import builtin_theory


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
