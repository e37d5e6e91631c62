"""One backtracking search behind every hom-set enumeration.

A variable is one element of a component, for example ``("ob", d, e)``
for the image of the element e of the carrier at d.  Each constraint
names the variables it reads and is checked as soon as the last of them
is assigned, so a hom-set is searched element by element and no table
product is ever built.  The search keeps an explicit stack: its
recursion depth does not grow with the number of variables.

A constraint may carry a third element, a tag for the condition it
stands for: the search ignores it, and ``violations`` lists the tags
a complete assignment breaks, so a validator checks the same conditions.
"""

from operator import itemgetter


def solutions(domains, constraints):
    """Yield every assignment that satisfies all constraints.

    ``domains`` is an ordered list of (variable, collection of allowed
    values) pairs and ``constraints`` a list of (variables read, check)
    pairs, each optionally tagged; a check is called with the values of
    the variables it reads, in that order.  A constraint reads at least
    two variables: a condition on one variable belongs in its value
    list.  Assignments are dicts from variables to values, yielded in
    lexicographic order of the variable list and of each value list.
    """
    position = {v: i for i, (v, _) in enumerate(domains)}
    due = [[] for _ in domains]
    for constraint in constraints:    # a tag, if any, is constraint[2]
        reads, check = constraint[0], constraint[1]
        where = itemgetter(*reads)(position)
        due[max(where)].append((itemgetter(*where), check))
    if not domains:
        yield {}
        return
    chosen = [None] * len(domains)
    # stack[i] iterates over the values still to try at variable i
    stack = [iter(domains[0][1])]
    while stack:
        i = len(stack) - 1
        for chosen[i] in stack[i]:
            for read, check in due[i]:
                if not check(*read(chosen)):
                    break
            else:
                break  # every constraint due at i holds
        else:
            stack.pop()  # no value left: backtrack
            continue
        if len(stack) < len(domains):
            stack.append(iter(domains[len(stack)][1]))
        else:
            yield dict(zip(position, chosen))


def violations(constraints, value):
    """The tags of the constraints that ``value``, a dict from each
    variable read to its value, breaks: each tag once, in the order of
    its first break."""
    return list(dict.fromkeys(
        tag for reads, check, tag in constraints
        if not check(*map(value.__getitem__, reads))))


def distinct(groups):
    """Constraints that the variables of each group take distinct values.

    Each variable after the first of its group reads the ones before it,
    so a repeated value is rejected as soon as it is assigned.  Adding
    these to a search only removes non-injective assignments: the
    others come in the same order.
    """
    return [(tuple(group[:i + 1]), lambda *v: v[-1] not in v[:-1])
            for group in groups for i in range(1, len(group))]
