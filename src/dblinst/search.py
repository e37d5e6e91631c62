"""One backtracking search behind every hom-set enumeration.

A variable is one element of a component, for example ``("ob", d, e)``
for the image of the element e of the carrier at d.  Each constraint
names the variables it reads and is checked as soon as the last of them
is assigned, so a hom-set is searched element by element and no table
product is ever built.  The search keeps an explicit stack: its
recursion depth does not grow with the number of variables.

A constraint's check is data wherever it can be.  A dict is a table:
with two variables read it holds when ``table[v0] == v1``, with three
when ``table.get((v0, v1)) == v2``.  Anything else is called with the
values read and holds when it returns true; ``distinct`` and conditions
on a variable number of values need that.  The search checks the
tables inline, before any call.

A constraint may carry a third element, a tag for the condition it
stands for: the search ignores it, and ``violations`` lists the tags
a complete assignment breaks, so a validator checks the same conditions.
"""

from operator import itemgetter


def solutions(domains, constraints):
    """Yield every assignment that satisfies all constraints.

    ``domains`` is an ordered list of (variable, collection of allowed
    values) pairs and ``constraints`` a list of (variables read, check)
    pairs, each optionally tagged.  A check is a table, a dict read by
    two variables (``table[v0] == v1``, so it must hold every value v0
    can take) or by three (``table.get((v0, v1)) == v2``), or else a
    callable, called with the values of the variables it reads, in that
    order.  A constraint reads at least two variables: a condition on
    one variable belongs in its value list.  Assignments are dicts from
    variables to values, yielded in lexicographic order of the variable
    list and of each value list.

    The constraints due at a variable are sorted once into lists per
    level: the two-variable tables, the three-variable tables and the
    callables, checked in that order.  Every check is a pure predicate,
    so the order in which they run changes no assignment yielded.
    """
    position = {v: i for i, (v, _) in enumerate(domains)}
    pairs = [[] for _ in domains]
    triples = [[] for _ in domains]
    calls = [[] for _ in domains]
    for constraint in constraints:    # a tag, if any, is constraint[2]
        reads, check = constraint[0], constraint[1]
        where = [position[v] for v in reads]
        due = max(where)
        if not isinstance(check, dict):
            calls[due].append((itemgetter(*where), check))
        elif len(where) == 2:
            pairs[due].append((where[0], where[1], check))
        else:
            triples[due].append((where[0], where[1], where[2], check))
    if not domains:
        yield {}
        return
    # each value list is walked once per assignment before it: read it
    # into a tuple once
    values = [tuple(vs) for _, vs in domains]
    n = len(values)
    chosen = [None] * n
    # stack[i] iterates over the values still to try at variable i
    stack = [iter(values[0])]
    while stack:
        i = len(stack) - 1
        pairs_i, triples_i, calls_i = pairs[i], triples[i], calls[i]
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
                        break  # every constraint due at i holds
        else:
            stack.pop()  # no value left: backtrack
            continue
        if i + 1 < n:
            stack.append(iter(values[i + 1]))
        else:
            yield dict(zip(position, chosen))


def violations(constraints, value):
    """The tags of the constraints that ``value``, a dict from each
    variable read to its value, breaks: each tag once, in the order of
    its first break.  Tables are read directly, as in ``solutions``."""
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
