import pytest

from dblinst.errors import HomSetNotFinite, HomSetTooLarge, IllFormedRelation
from dblinst.words import ClosedWordCategory
from refusal_cases import in_process


def test_free_category_on_a_chain():
    gens = {"f": ("a", "b"), "g": ("b", "c")}
    cl = ClosedWordCategory(["a", "b", "c"], gens, [], 6)
    cat = cl.category
    assert len(cat.morphisms) == 6  # three identities, f, g, f;g
    assert cl.word_class("a", ("f", "g")) == "f;g"
    assert cat.compose("f", "g") == "f;g"
    assert cat.validate() == []


def test_cyclic_group_closure():
    gens = {"r": ("*", "*")}
    cl = ClosedWordCategory(["*"], gens, [("*", "*", ("r", "r", "r"), ())], 8)
    cat = cl.category
    assert len(cat.morphisms) == 3
    r2 = cl.word_class("*", ("r", "r"))
    assert cat.compose("r", r2) == cat.identity["*"]


def test_idempotent_relation():
    gens = {"e": ("*", "*")}
    cl = ClosedWordCategory(["*"], gens, [("*", "*", ("e", "e"), ("e",))], 8)
    assert len(cl.category.morphisms) == 2
    assert cl.category.compose("e", "e") == "e"


def test_commuting_square_identifies_paths():
    gens = {"f": ("a", "b"), "g": ("a", "c"), "h": ("b", "d"),
            "k": ("c", "d")}
    rel = [("a", "d", ("f", "h"), ("g", "k"))]
    cl = ClosedWordCategory(["a", "b", "c", "d"], gens, rel, 8)
    assert cl.word_class("a", ("f", "h")) == cl.word_class("a", ("g", "k"))
    # 4 identities + 4 generators + 1 shared diagonal
    assert len(cl.category.morphisms) == 9


def test_free_loop_is_not_finite():
    with pytest.raises(HomSetNotFinite):
        ClosedWordCategory(["*"], {"r": ("*", "*")}, [], 5)


def test_closure_cap_counts_congruence_classes():
    # Z/5: five classes, all found by level 4 of bound 8
    z5 = (["x"], {"g": ("x", "x")}, [("x", "x", ("g",) * 5, ())], 8)
    with pytest.raises(HomSetTooLarge) as exc:
        ClosedWordCategory(*z5, max_classes=4)
    assert str(exc.value) == "5 congruence classes exceed cap"
    cl = ClosedWordCategory(*z5, max_classes=5)
    assert len(cl.category.morphisms) == 5


NAME_CLASH = ["NameClash", "two closure morphisms are named a;b"]
UNDECLARED = ["IllFormedPresentation", "generator a has undeclared endpoint w"]
ILL_FORMED = {"undeclared_target": UNDECLARED,
              "undeclared_source": UNDECLARED,
              "zero_bound": ["IllFormedPresentation",
                             "word bound 0 is below 1"]}


def test_a_generator_named_like_a_composite_is_a_name_clash():
    assert in_process("words.name_clash") == NAME_CLASH


def test_a_name_clash_is_refused_also_without_asserts(outcomes_under_O):
    assert outcomes_under_O["words.name_clash"] == NAME_CLASH


def test_an_undeclared_endpoint_or_a_zero_bound_is_refused():
    for label, expected in ILL_FORMED.items():
        assert in_process("words." + label) == expected


def test_ill_formed_presentations_are_refused_also_without_asserts(
        outcomes_under_O):
    for label, expected in ILL_FORMED.items():
        assert outcomes_under_O["words." + label] == expected


def test_ill_formed_relation_rejected():
    gens = {"f": ("a", "b")}
    with pytest.raises(IllFormedRelation):
        ClosedWordCategory(["a", "b"], gens,
                           [("a", "b", ("f", "f"), ("f",))], 5)
    with pytest.raises(IllFormedRelation):
        ClosedWordCategory(["a", "b"], gens, [("a", "a", ("f",), ())], 5)


def test_a_word_that_does_not_compose_is_refused_before_it_is_traced():
    cl = ClosedWordCategory(["x", "y"], {"a": ("x", "y"), "b": ("y", "x")},
                            [("x", "x", ("a", "b"), ())], 4)
    morphisms, nodes = dict(cl.category.morphisms), len(cl._target)
    for src, word in (("x", ("a", "a")), ("y", ("a",)), ("z", ())):
        with pytest.raises(IllFormedRelation, match="does not compose from"):
            cl.word_class(src, word)
    assert (cl.category.morphisms, len(cl._target)) == (morphisms, nodes)
    assert cl.word_class("x", ("a", "b", "a")) == "a"


def test_representatives_are_shortlex_deterministic():
    gens = {"f": ("a", "a"), "g": ("a", "a")}
    rel = [("a", "a", ("f", "f"), ()), ("a", "a", ("g",), ("f",))]
    cl = ClosedWordCategory(["a"], gens, rel, 8)
    assert sorted(cl.category.morphisms) == ["f", "id:a"]


def test_closure_satisfies_every_relation():
    # r^3 = 1 and r^2 = 1 force r = r^3 = 1
    gens = {"r": ("*", "*")}
    rel = [("*", "*", ("r", "r", "r"), ()), ("*", "*", ("r", "r"), ())]
    cl = ClosedWordCategory(["*"], gens, rel, 4)
    assert sorted(cl.category.morphisms) == ["id:*"]
    assert cl.word_class("*", ("r",)) == "id:*"


def test_identifications_through_identity_generators():
    # g = 1 turns f;g;f = 1 into f;f = 1
    gens = {"f": ("*", "*"), "g": ("*", "*")}
    rel = [("*", "*", ("g",), ()), ("*", "*", ("f", "g", "f"), ())]
    cl = ClosedWordCategory(["*"], gens, rel, 5)
    assert sorted(cl.category.morphisms) == ["f", "id:*"]
    assert cl.category.compose("f", "f") == "id:*"


def test_relations_are_traced_past_the_checked_level():
    gens = {"a": ("*", "*"), "b": ("*", "*")}
    presentations = [
        # b = 1 and b = a;b give a = 1 once b = 1 is traced from a
        [("*", "*", ("b",), ("a", "b")), ("*", "*", ("b",), ())],
        # a;b = b traced from a gives a;a;b = b, so b = 1 and then a = 1
        [("*", "*", ("a", "b"), ("b",)), ("*", "*", ("a", "a", "b"), ())],
    ]
    for rel in presentations:
        cl = ClosedWordCategory(["*"], gens, rel, 1)
        assert sorted(cl.category.morphisms) == ["id:*"]


# One object, four generators: every normal form has length at most 1,
# but the identification that shows it only follows from relations
# traced at longer words.
LATE_IDENTIFICATION = (
    ["o"], {g: ("o", "o") for g in ("g0", "g1", "g2", "g3")},
    [("o", "o", ("g1", "g2", "g0"), ()),
     ("o", "o", ("g0", "g2"), ("g0", "g3")),
     ("o", "o", ("g1", "g1", "g3"), ("g1", "g2")),
     ("o", "o", ("g3",), ("g3", "g3", "g3"))])


def test_late_identification_closes_at_bound_five():
    cl = ClosedWordCategory(*LATE_IDENTIFICATION, 5)
    assert sorted(cl.category.morphisms) == ["g0", "id:o"]
    assert cl.category.validate() == []


@pytest.mark.xfail(strict=True, raises=HomSetNotFinite,
                   reason="known defect: the identification follows from "
                          "relations traced at words more than one generator "
                          "longer than the checked level")
def test_late_identification_closes_at_bound_two():
    cl = ClosedWordCategory(*LATE_IDENTIFICATION, 2)
    assert sorted(cl.category.morphisms) == ["g0", "id:o"]
