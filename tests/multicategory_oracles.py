"""Brute-force oracles for the multicategory tests.

Each one enumerates a whole space and filters it, with no search, so
the library's answers can be checked against it on small inputs.
"""

import itertools


def all_action_tables(mc, on_objects):
    """Every assignment of raw action tables for the given value sets
    (the common search space for instances and multifunctors)."""
    slots = sorted(mc.multimorphisms)
    per_slot = []
    for m in slots:
        dom, cod = mc.multimorphisms[m]
        keys = sorted(itertools.product(*[on_objects[o] for o in dom]))
        values = list(on_objects[cod])
        per_slot.append([dict(zip(keys, choice)) for choice in
                         itertools.product(values, repeat=len(keys))])
    for combo in itertools.product(*per_slot):
        yield dict(zip(slots, combo))


def _bijections(xs, ys):
    """Every bijection from the list xs onto the list ys, as a dict."""
    if len(xs) != len(ys):
        return
    for image in itertools.permutations(ys):
        yield dict(zip(xs, image))


def isomorphic_by_brute_force(mc1, mc2):
    """Whether some bijection on objects and some arity-preserving
    bijection on multimorphisms carry the typing, the identities and
    the composites of every composable family of mc1 onto mc2."""
    arities = sorted({mc1.arity(m) for m in mc1.multimorphisms}
                     | {mc2.arity(m) for m in mc2.multimorphisms})
    per_arity = [list(_bijections(mc1.by_arity(n), mc2.by_arity(n)))
                 for n in arities]
    for ob in _bijections(mc1.objects, mc2.objects):
        for parts in itertools.product(*per_arity):
            mm = {m: n for part in parts for m, n in part.items()}
            if all(mc2.multimorphisms[mm[m]] ==
                   (tuple(ob[o] for o in dom), ob[cod])
                   for m, (dom, cod) in mc1.multimorphisms.items()) \
                    and all(mc2.identities[ob[o]] == mm[i]
                            for o, i in mc1.identities.items()) \
                    and all(mc2.comp.get((mm[outer],
                                          tuple(mm[i] for i in inners)))
                            == mm[mc1.comp[(outer, inners)]]
                            for outer, inners in mc1.composable()):
                return True
    return False
