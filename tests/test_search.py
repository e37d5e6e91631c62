"""The search engine on its own: table constraints against the callables
they stand for, on seeded random small problems, and one compiled
problem run many times.

A problem has up to five variables, each with a value list drawn from
three labels, and up to four random constraints: total two-variable tables and
partial three-variable tables, each also written as the lambda it
replaces.  Both forms must give the same assignments in the same order
as a brute-force filter of the product of the value lists, with and
without ``distinct`` constraints mixed in, and ``violations`` must give
the same tags in the same order on random complete assignments.
"""

import itertools
import random

import pytest

from dblinst.fixtures import (signed_fixture_models, standard_instance_corpus,
                              walking_loose_model, weighted_graph_schema)
from dblinst.instance import (enumerate_instance_morphisms,
                              identity_instance_morphism,
                              validate_instance_morphism)
from dblinst.model import (MorphismSearch, ModelMorphism,
                           enumerate_model_morphisms, identity_morphism,
                           terminal_model, validate_model_morphism)
from dblinst.search import Layout, compile, distinct, violations
from dblinst.signed import walking_feedback_loop

VALUES = ["p", "q", "r"]


def random_problem(rng):
    """(domains, table constraints, the same constraints as lambdas)."""
    names = ["v{}".format(i) for i in range(rng.randint(1, 5))]
    domains = [(v, rng.sample(VALUES, rng.randint(0 if rng.random() < 0.1
                                                  else 1, 3)))
               for v in names]
    tables, lambdas = [], []
    for c in range(rng.randint(0, 4)):
        arity = rng.choice((2, 3))
        reads = tuple(rng.choice(names) for _ in range(arity))
        tag = ("constraint {} on {}", c, ",".join(reads))
        # mostly values the last variable read can take, so that some
        # assignments survive
        targets = dict(domains)[reads[-1]] or VALUES
        if arity == 2:
            table = {v: rng.choice(targets) for v in VALUES}
            check = lambda u, v, tb=table: tb[u] == v
        else:
            table = {(u, w): rng.choice(targets)
                     for u, w in itertools.product(VALUES, repeat=2)
                     if rng.random() < 0.7}
            check = lambda u, w, v, tb=table: tb.get((u, w)) == v
        tables.append((reads, table, tag))
        lambdas.append((reads, check, tag))
    return domains, tables, lambdas


def brute_force(domains, constraints):
    """Every assignment of the product in lexicographic order, kept when
    every constraint's callable form holds."""
    names = [v for v, _ in domains]
    found = []
    for values in itertools.product(*[vs for _, vs in domains]):
        sol = dict(zip(names, values))
        if all(check(*[sol[v] for v in reads])
               for reads, check, *_ in constraints):
            found.append(sol)
    return found


def random_groups(rng, domains):
    names = [v for v, _ in domains]
    return [rng.sample(names, rng.randint(1, len(names)))
            for _ in range(rng.randint(1, 2))]


@pytest.mark.parametrize("seed", range(60))
def test_tables_give_the_assignments_of_their_lambdas(seed):
    rng = random.Random(seed)
    domains, tables, lambdas = random_problem(rng)
    want = as_tuples(domains, brute_force(domains, lambdas))
    assert list(compile(domains, lambdas).run()) == want
    assert list(compile(domains, tables).run()) == want


@pytest.mark.parametrize("seed", range(60))
def test_tables_mixed_with_distinct(seed):
    rng = random.Random(1000 + seed)
    domains, tables, lambdas = random_problem(rng)
    extra = distinct(random_groups(rng, domains))
    want = as_tuples(domains, brute_force(domains, lambdas + extra))
    assert list(compile(domains, lambdas + extra).run()) == want
    # the callables listed first, and the tables after them
    assert list(compile(domains, extra + tables).run()) == want


@pytest.mark.parametrize("seed", range(60))
def test_violations_of_tables_and_of_lambdas_agree(seed):
    rng = random.Random(2000 + seed)
    domains, tables, lambdas = random_problem(rng)
    for _ in range(10):
        value = {v: rng.choice(VALUES) for v, _ in domains}
        want = list(dict.fromkeys(tag for reads, check, tag in lambdas
                                  if not check(*[value[v] for v in reads])))
        assert violations(lambdas, value) == want
        assert violations(tables, value) == want


def test_a_three_variable_table_fails_off_its_keys():
    domains = [("a", ["p", "q"]), ("b", ["p"]), ("c", ["p", "q"])]
    table = {("p", "p"): "q"}
    assert list(compile(domains, [(("a", "b", "c"), table)]).run()) == \
        [("p", "p", "q")]
    assert violations([(("a", "b", "c"), table, "off")],
                      {"a": "q", "b": "p", "c": "p"}) == ["off"]


def test_a_two_variable_table_may_read_one_variable_twice():
    domains = [("a", ["p", "q", "r"])]
    fixed = {"p": "q", "q": "q", "r": "p"}
    assert list(compile(domains, [(("a", "a"), fixed)]).run()) == [("q",)]


def test_no_variables_give_one_empty_assignment():
    problem = compile([], [])
    assert list(problem.run()) == [()]
    assert [dict(zip(problem.variables, sol)) for sol in problem.run()] == \
        [{}]


def as_tuples(domains, found):
    return [tuple(sol[v] for v, _ in domains) for sol in found]


def random_subsequence(rng, values):
    return [v for v in values if rng.random() < 0.6]


@pytest.mark.parametrize("seed", range(60))
def test_a_compiled_problem_runs_narrowed_value_lists(seed):
    rng = random.Random(3000 + seed)
    domains, tables, lambdas = random_problem(rng)
    extra = distinct(random_groups(rng, domains))
    problem = compile(domains, tables + extra)
    assert list(problem.run()) == \
        as_tuples(domains, brute_force(domains, lambdas + extra))
    for _ in range(5):
        narrowed = [(v, random_subsequence(rng, vs)) for v, vs in domains]
        assert list(problem.run([vs for _, vs in narrowed])) == \
            as_tuples(narrowed, brute_force(narrowed, lambdas + extra))
    # a run without values is the compiled problem again
    assert list(problem.run()) == \
        as_tuples(domains, brute_force(domains, lambdas + extra))


@pytest.mark.parametrize("seed", range(30))
def test_interleaved_runs_of_one_problem_are_independent(seed):
    rng = random.Random(4000 + seed)
    domains, tables, _ = random_problem(rng)
    problem = compile(domains, tables)
    narrowed = [random_subsequence(rng, vs) for _, vs in domains]
    want_full = list(problem.run())
    want_narrowed = list(problem.run(narrowed))
    full, part = problem.run(), problem.run(narrowed)
    got_full, got_narrowed = [], []
    # step the two runs alternately, and start a third inside them
    for a, b in itertools.zip_longest(full, part):
        if a is not None:
            got_full.append(a)
        if b is not None:
            got_narrowed.append(b)
        assert list(problem.run(narrowed)) == want_narrowed
    assert got_full == want_full
    assert got_narrowed == want_narrowed


def _model_pairs():
    """The model pairs of the search goldens."""
    by_theory = {}
    for name, x, _ in standard_instance_corpus():
        if name != "signed":
            by_theory.setdefault(name, []).append(x)
    for models in by_theory.values():
        yield from itertools.product(models, repeat=2)
    fold = walking_loose_model(["a0", "a1"], ["b0"],
                               [("h0", "a0", "b0"), ("h1", "a1", "b0")])
    one = walking_loose_model(["a"], ["b"], [("h", "a", "b")])
    yield fold, one
    yield one, fold
    wg = weighted_graph_schema()
    yield wg, terminal_model(wg.theory)
    yield wg, wg
    for x in signed_fixture_models():
        for sign in (+1, -1):
            yield walking_feedback_loop(sign), x


def test_streamed_count_is_the_hom_set_size():
    for a, b in _model_pairs():
        assert MorphismSearch(a, b).count() == \
            len(enumerate_model_morphisms(a, b))


def test_one_search_counts_and_lists_alike_across_runs():
    """A search runs again after a run and beside another run of
    itself: its morphisms are those of ``enumerate_model_morphisms``
    each time, in the same order."""
    for a, b in _model_pairs():
        search = MorphismSearch(a, b)
        want = enumerate_model_morphisms(a, b)
        first, second = search.morphisms(), search.morphisms()
        assert list(zip(first, second)) == list(zip(want, want))
        assert search.count() == len(want)
        assert list(search.morphisms()) == want


def random_components(rng):
    """Up to four components in search order, each (key, {element:
    value list}), some with no elements or with empty value lists."""
    components = []
    for c in range(rng.randint(0, 4)):
        name = "c{}".format(c)
        key = ("ob", name) if rng.random() < 0.5 else (name,)
        elements = rng.sample(["e0", "e1", "e2", "e3"], rng.randint(0, 4))
        components.append((key, {e: rng.sample(VALUES, rng.randint(0, 3))
                                 for e in elements}))
    return components


@pytest.mark.parametrize("seed", range(60))
def test_a_layout_reads_what_plain_slicing_reads(seed):
    rng = random.Random(seed)
    components = random_components(rng)
    layout = Layout(components)
    assert layout.domains == [(key + (e,), vs) for key, values in components
                              for e, vs in values.items()]
    solution = tuple(rng.choice(VALUES) for _ in layout.domains)
    tables, positions, start = {}, {}, 0
    for key, values in components:
        elements = list(values)
        stop = start + len(elements)
        tables[key] = dict(zip(elements, solution[start:stop]))
        positions[key] = dict(zip(elements, range(start, stop)))
        start = stop
    got = layout.tables(solution)
    assert got == tables
    assert [(key, list(tab)) for key, tab in got.items()] == \
        [(key, list(tab)) for key, tab in tables.items()]
    assert layout.position == positions


def test_the_morphism_validators_build_no_layout(monkeypatch):
    """Validation reads only the tagged constraints: with no layout, and
    so no value list, to be built, both validators give the reports
    they give otherwise, with and without report lines; the search
    itself still builds one."""
    corpus = standard_instance_corpus()

    def refuse(self, components):
        raise AssertionError("a layout was built")

    want = []      # (validator, morphism, its report)
    for _, x, insts in corpus:
        for f in enumerate_model_morphisms(x, x)[:4]:
            bad = ModelMorphism(x, x, f.on_objects, f.on_loose)
            for tab in bad.on_loose.values():
                for xi in list(tab)[:1]:
                    tab[xi] = min(tab.values())
            want.append((validate_model_morphism, bad,
                         validate_model_morphism(bad)))
        for h in insts:
            want += [(validate_instance_morphism, mu,
                      validate_instance_morphism(mu))
                     for mu in enumerate_instance_morphisms(h, h)[:4]]
    reports = [report for _, _, report in want]
    assert any(reports) and not all(reports)
    monkeypatch.setattr(Layout, "__init__", refuse)
    for validate, g, report in want:
        assert validate(g) == report
    for _, x, insts in corpus:
        assert validate_model_morphism(identity_morphism(x)) == []
        for h in insts:
            assert validate_instance_morphism(
                identity_instance_morphism(h)) == []
        with pytest.raises(AssertionError, match="a layout was built"):
            enumerate_model_morphisms(x, x)
