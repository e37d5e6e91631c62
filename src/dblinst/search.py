"""One backtracking search behind every hom-set enumeration and every
isomorphism test, of multicategories too (through their models).

A variable is one element of a component, for example ``("ob", d, e)``
for the image of the element e of the carrier at d.  Each constraint
names the variables it reads and is checked as soon as the last of them
is assigned, so a hom-set is searched element by element and no table
product is ever built.  The search keeps an explicit stack: its
recursion depth does not grow with the number of variables.

A constraint's check is data wherever it can be.  A dict is a table:
with two variables read it holds when ``table[v0] == v1``, with three
when ``table.get((v0, v1)) == v2``.  Anything else is called with the
values read and holds when it returns true; only ``distinct``, which
reads a varying number of values, needs that.  The search checks the
tables inline, before any call.

A problem is compiled once (``compile``): its constraints are sorted
into per-level lists then, and each run only walks them, so a search
run many times over one problem, with narrowed value lists, sorts
nothing again.  A run yields each solution as a tuple of values in
variable order; a ``Layout`` names the variables after the components
of a search and reads each component's table off a solution.

A constraint may carry a third element, a tag for the condition it
stands for: the search ignores it, and ``violations`` lists the tags
a complete assignment breaks, so a validator checks the same conditions.
"""

from functools import cached_property
from operator import itemgetter


class Problem:
    """A search problem compiled once and run as often as needed.

    ``variables`` and ``values`` hold the variable list and each
    variable's value tuple, in the order given to ``compile``.
    """

    def __init__(self, domains, constraints):
        self.variables = tuple([v for v, _ in domains])
        # each value list is walked once per assignment before it: read
        # it into a tuple once (a tuple given is kept as it is)
        self.values = tuple([tuple(vs) for _, vs in domains])
        position = {v: i for i, v in enumerate(self.variables)}
        pairs = [[] for _ in domains]
        triples = [[] for _ in domains]
        calls = [[] for _ in domains]
        for constraint in constraints:    # a tag, if any, is constraint[2]
            reads, check = constraint[0], constraint[1]
            if not isinstance(check, dict):
                where = [position[v] for v in reads]
                calls[max(where)].append((itemgetter(*where), check))
            elif len(reads) == 2:
                j, k = position[reads[0]], position[reads[1]]
                pairs[j if j > k else k].append((j, k, check))
            else:
                j, k, l = position[reads[0]], position[reads[1]], \
                    position[reads[2]]
                triples[max(j, k, l)].append((j, k, l, check))
        self._levels = list(zip(pairs, triples, calls))

    def run(self, values=None):
        """Yield every solution as a tuple of values in variable order,
        in lexicographic order of the variable list and value lists.

        ``values``, when given, replaces the value lists, one per
        variable; each should be a subsequence of the compiled list in
        the same order, so a run yields the solutions of the full
        problem that take those values, in the same order.  Each run
        keeps its own state, so runs of one problem may be interleaved.
        """
        if values is None:
            values = self.values
        levels = self._levels
        last = len(levels) - 1
        if last < 0:
            yield ()
            return
        chosen = [None] * (last + 1)
        # stack[i] iterates over the values still to try at variable i
        stack = [iter(values[0])]
        while stack:
            i = len(stack) - 1
            pairs_i, triples_i, calls_i = levels[i]
            for chosen[i] in stack[i]:
                for j, k, table in pairs_i:
                    if table[chosen[j]] != chosen[k]:
                        break
                else:
                    for j, k, l, table in triples_i:
                        if table.get((chosen[j], chosen[k])) != chosen[l]:
                            break
                    else:
                        for read, check in calls_i:
                            if not check(*read(chosen)):
                                break
                        else:
                            # every constraint due at i holds
                            if i < last:
                                break
                            yield tuple(chosen)
            else:
                stack.pop()  # no value left: backtrack
                continue
            stack.append(iter(values[i + 1]))


def compile(domains, constraints):
    """Compile a search problem.

    ``domains`` is an ordered list of (variable, collection of allowed
    values) pairs and ``constraints`` a list of (variables read, check)
    pairs, each optionally tagged.  A check is a table, a dict read by
    two variables (``table[v0] == v1``, so it must hold every value v0
    can take) or by three (``table.get((v0, v1)) == v2``), or else a
    callable, called with the values of the variables it reads, in that
    order.  A constraint reads at least two variables: a condition on
    one variable belongs in its value list.

    The constraints due at a variable are sorted here into lists per
    level: the two-variable tables, the three-variable tables and the
    callables, checked in that order.  Every check is a pure predicate,
    so the order in which they run changes no solution.
    """
    return Problem(domains, constraints)


class Layout:
    """Where the components of a search lie in its solutions, built
    from (key, values) per component in search order: ``key`` a tuple,
    ``values`` a dict from each element, in order, to its value list.
    The variables are ``key + (e,)`` for each element e of each key."""

    def __init__(self, components):
        domains = self.domains = []   # (variable, value list), for compile
        self._slices = []   # (key, elements, start, stop) per component
        for key, values in components:
            start = len(domains)
            for e, vs in values.items():
                domains.append((key + (e,), vs))
            self._slices.append((key, tuple(values), start, len(domains)))

    def tables(self, solution):
        """Each component's table in ``solution``, by key, in search order."""
        return {key: dict(zip(es, solution[i:j]))
                for key, es, i, j in self._slices}

    @cached_property
    def position(self):
        """Each element's position in a solution, by component key;
        built when first read, as only pinned runs read it."""
        return {key: {e: n for n, e in enumerate(es, i)}
                for key, es, i, _ in self._slices}


def violations(constraints, value):
    """The tags of the constraints that ``value``, a dict from each
    variable read to its value, breaks: each tag once, in the order of
    its first break.  Tables are read directly, as in ``Problem.run``."""
    broken = {}
    for reads, check, tag in constraints:
        if not isinstance(check, dict):
            holds = check(*[value[v] for v in reads])
        elif len(reads) == 2:
            holds = check[value[reads[0]]] == value[reads[1]]
        else:
            holds = check.get((value[reads[0]], value[reads[1]])) == \
                value[reads[2]]
        if not holds:
            broken.setdefault(tag)
    return list(broken)


def distinct(groups):
    """Constraints that the variables of each group take distinct values.

    Each variable after the first of its group reads the ones before it,
    so a repeated value is rejected as soon as it is assigned.  Adding
    these to a search only removes non-injective assignments: the
    others come in the same order.
    """
    return [(tuple(group[:i + 1]), lambda *v: v[-1] not in v[:-1])
            for group in groups for i in range(1, len(group))]
