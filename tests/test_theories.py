import re

import pytest
from hypothesis import given, strategies as st

from dblinst.errors import InvalidTheory
from dblinst.theories import (all_maps, builtin_theory, compose_maps,
                              map_blocks, monotone_maps, ordinal_sum, p_arrow)
from dblinst.theory import validate_theory
from refusal_cases import REFUSED_BOUNDARIES, rebuilt_theory, within

THIN = ["terminal", "walking_loose", "walking_tight", "walking_square",
        "signed", "involution_cell"]


@pytest.mark.parametrize("name", THIN)
def test_thin_theories_validate(name):
    assert validate_theory(builtin_theory(name)) == []


@pytest.mark.parametrize("k", [0, 1, 2])
def test_power_theories_validate(k):
    assert validate_theory(builtin_theory("monad_trunc", k)) == []
    assert validate_theory(builtin_theory("prom_trunc", k)) == []


def test_sq_finset_op_validates():
    assert validate_theory(builtin_theory("sq_finset_op", 2)) == []


def test_promonoid_cell_counts():
    assert len(builtin_theory("prom_trunc", 0).cells) == 1
    assert len(builtin_theory("prom_trunc", 1).cells) == 5
    assert len(builtin_theory("prom_trunc", 2).cells) == 49
    assert len(builtin_theory("sq_finset_op", 2).cells) == 249


def test_power_theories_are_cartesian():
    for name, prefix in (("prom_trunc", "x"), ("sq_finset_op", "s")):
        t = builtin_theory(name, 2)
        assert t.cartesian is not None
        assert t.cartesian.terminal_object == prefix + "0"
        assert t.cartesian.product_object[(prefix + "1", prefix + "1")] == \
            prefix + "2"


def test_p_arrow_is_the_nary_operation():
    t = builtin_theory("prom_trunc", 2)
    for n in range(3):
        m = p_arrow(t, n)
        assert t.loose[m] == ("x{}".format(n), "x1")


def test_monotone_map_counts():
    assert len(monotone_maps(0, 3)) == 1
    assert len(monotone_maps(2, 2)) == 3
    assert len(monotone_maps(3, 2)) == 4
    assert len(all_maps(2, 2)) == 4
    assert len(all_maps(2, 3)) == 9


sizes = st.integers(min_value=0, max_value=3)


@given(st.data(), sizes, sizes, sizes, sizes)
def test_compose_maps_associative(data, a, b, c, d):
    f = data.draw(st.sampled_from(all_maps(a, max(b, 1))))
    g = data.draw(st.sampled_from(all_maps(b, max(c, 1))))
    h = data.draw(st.sampled_from(all_maps(c, max(d, 1))))
    if b == 0:
        f = ()
    if c == 0:
        g = ()
    if d == 0:
        h = ()
    if (b and not len(g) == b) or (c and not len(h) == c):
        return
    assert compose_maps(compose_maps(f, g), h) == \
        compose_maps(f, compose_maps(g, h))


@given(st.data(), sizes, sizes)
def test_map_blocks_partition(data, a, b):
    if b == 0:
        return
    phi = data.draw(st.sampled_from(all_maps(a, b)))
    blocks = map_blocks(phi, b)
    flat = [i for block in blocks for i in block]
    assert sorted(flat) == list(range(1, a + 1))
    for j, block in enumerate(blocks, start=1):
        assert all(phi[i - 1] == j for i in block)


@given(st.data(), sizes, sizes, sizes, sizes)
def test_ordinal_sum_respects_composition(data, a, b, c, d):
    if b == 0 or d == 0:
        return
    f = data.draw(st.sampled_from(all_maps(a, b)))
    g = data.draw(st.sampled_from(all_maps(c, d)))
    s = ordinal_sum(f, g, b)
    assert len(s) == a + c
    assert s[:a] == f and all(v > b for v in s[a:] if c)


@pytest.mark.parametrize("name, k, drop, extra, message", REFUSED_BOUNDARIES)
def test_missing_or_unclosed_boundaries_are_invalid(name, k, drop, extra,
                                                    message):
    with pytest.raises(InvalidTheory, match="^{}$".format(re.escape(message))):
        rebuilt_theory(name, k, drop, extra)


def test_missing_or_unclosed_boundaries_are_invalid_also_without_asserts(
        outcomes_under_O):
    assert within(outcomes_under_O, "theories.boundary.") == {
        name: ["InvalidTheory", message]
        for name, *_, message in REFUSED_BOUNDARIES}


@pytest.mark.parametrize("table, kind", [("cell_id_loose", "vertical"),
                                         ("cell_id_tight", "horizontal")])
def test_identity_cell_of_an_unknown_arrow_is_reported(table, kind):
    t = builtin_theory("walking_loose")
    getattr(t, table)["ghost"] = next(iter(t.cells))
    assert validate_theory(t) == [
        "{} identity cell of ghost ill-formed".format(kind)]


@pytest.mark.parametrize("table,line", [
    ("proj_tight", "cartesian: projections of x0xx0 ill-formed"),
    ("proj_cells",
     "cartesian: projection cells of lf:0-0:xlf:0-0: ill-formed")])
def test_a_missing_projection_is_reported(table, line):
    from dblinst.serialize import object_of, theory_to_doc
    doc = theory_to_doc(builtin_theory("prom_trunc", 1))
    del doc["cartesian"][table][0]
    assert validate_theory(object_of(doc)) == [line]
