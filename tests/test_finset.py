import pytest
from hypothesis import given, strategies as st

from dblinst.errors import DuplicateLabel, NotAFunction
from dblinst.finset import (FiniteSet, Span, compose_tables, identity_table,
                            inverse_table, is_bijection, is_function,
                            pair_label, product_set, pullback_pairs)
from refusal_cases import ill_typed_spans, in_process, within

labels = st.lists(st.text(alphabet="abcxyz01", min_size=1, max_size=3),
                  min_size=1, max_size=5, unique=True)


def test_finite_set_orders_labels():
    s = FiniteSet(["b", "a", "c"])
    assert s.labels == ("a", "b", "c")
    assert "a" in s and "d" not in s
    assert len(s) == 3


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabel, match="^label 'a' is repeated"):
        FiniteSet(["b", "a", "c", "a"])


@pytest.mark.parametrize("left, right, match", [
    ({"p": "s"}, {"p": "t", "q": "t"}, "^left leg "),
    ({"p": "s", "q": "x"}, {"p": "t", "q": "t"}, "^left leg "),
    ({"p": "s", "q": "s"}, {"p": "t", "q": "t", "r": "t"}, "^right leg ")])
def test_span_legs_must_be_total_functions(left, right, match):
    with pytest.raises(NotAFunction, match=match):
        Span(FiniteSet(["s"]), FiniteSet(["t"]), FiniteSet(["p", "q"]),
             left, right)


@pytest.mark.parametrize("args, match", ill_typed_spans())
def test_span_sets_must_be_finite_sets(args, match):
    with pytest.raises(NotAFunction, match=match):
        Span(*args)


UNCOMPOSABLE = ["ModelMismatch", "the target of a span is not the source of "
                "the span it is composed with"]


def test_spans_that_do_not_compose_are_refused():
    assert in_process("finset.uncomposable_spans") == UNCOMPOSABLE


def test_ill_typed_and_uncomposable_spans_are_refused_without_asserts(
        outcomes_under_O):
    # each message is its pattern in ill_typed_spans less ^ and $
    assert within(outcomes_under_O, "finset.") == dict(
        {"ill_typed_span.{}".format(i): ["NotAFunction", match[1:-1]]
         for i, (_, match) in enumerate(ill_typed_spans())},
        uncomposable_spans=UNCOMPOSABLE)


@given(labels, labels)
def test_pair_label_injective(xs, ys):
    pairs = [(x, y) for x in xs for y in ys]
    assert len({pair_label(x, y) for x, y in pairs}) == len(pairs)


@given(labels)
def test_identity_table_is_identity(xs):
    s = FiniteSet(xs)
    ident = identity_table(s)
    assert is_bijection(ident, s, s)
    assert compose_tables(ident, ident) == ident


def _random_table(draw, src, dst):
    return {x: draw(st.sampled_from(dst.labels)) for x in src}


@given(st.data(), labels, labels, labels)
def test_compose_tables_associative(data, xs, ys, zs):
    a, b, c = FiniteSet(xs), FiniteSet(ys), FiniteSet(zs)
    f = _random_table(data.draw, a, b)
    g = _random_table(data.draw, b, c)
    h = _random_table(data.draw, c, a)
    assert compose_tables(compose_tables(f, g), h) == \
        compose_tables(f, compose_tables(g, h))


def test_inverse_table_round_trip():
    s = FiniteSet(["a", "b"])
    t = FiniteSet(["x", "y"])
    f = {"a": "y", "b": "x"}
    assert compose_tables(f, inverse_table(f)) == identity_table(s)
    with pytest.raises(NotAFunction, match="not injective"):
        inverse_table({"a": "x", "b": "x"})


def test_is_function_totality():
    s, t = FiniteSet(["a", "b"]), FiniteSet(["x"])
    assert is_function({"a": "x", "b": "x"}, s, t)
    assert not is_function({"a": "x"}, s, t)
    assert not is_function({"a": "x", "b": "z"}, s, t)
    # a key outside the source, even with every source key present
    assert not is_function({"a": "x", "b": "x", "c": "x"}, s, t)
    assert not is_function({"a": "x", "c": "x"}, s, t)
    # a missing key
    assert not is_function({"b": "x"}, s, t)
    assert not is_function({}, s, t)
    # a value outside the target
    assert not is_function({"a": "z", "b": "x"}, s, t)
    # the empty table is the function out of the empty set
    empty = FiniteSet([])
    assert is_function({}, empty, t)
    assert is_function({}, empty, empty)
    assert not is_function({"a": "x"}, empty, t)
    # labels are strings, so a non-string value is never in the target
    assert not is_function({"a": "x", "b": 0}, s, t)
    assert not is_function({"a": "x", "b": None}, s, t)
    assert not is_function({"x": 0}, t, FiniteSet(["0"]))


def test_pullback_pairs_matches_brute_force():
    mid = FiniteSet(["m0", "m1"])
    left = Span(FiniteSet(["s"]), mid, FiniteSet(["p", "q"]),
                {"p": "s", "q": "s"}, {"p": "m0", "q": "m1"})
    right = Span(mid, FiniteSet(["t"]), FiniteSet(["u", "v"]),
                 {"u": "m0", "v": "m0"}, {"u": "t", "v": "t"})
    pairs = pullback_pairs(left, right)
    brute = [(xi, zeta) for xi in left.apex for zeta in right.apex
             if left.right[xi] == right.left[zeta]]
    assert pairs == brute == [("p", "u"), ("p", "v")]


def test_product_set_cardinality():
    a, b = FiniteSet(["1", "2"]), FiniteSet(["x", "y", "z"])
    assert len(product_set(a, b)) == 6
