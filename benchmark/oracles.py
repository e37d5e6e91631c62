"""Expected answers derived without the code under test.

Each function computes, from the generated inputs alone, a count or a
table that the library must reproduce: closed forms from the
mathematics (collage sizes, monotone maps, Yoneda), small direct graph
computations (paths in a signed DAG, connected components of a comma
category), or structural equalities.  None of them calls a library
routine that an op times.
"""

import itertools
import math


def pair(a, b):
    """The documented label of a pair element, ``(a,b)``."""
    return "({},{})".format(a, b)


def wl_collage_morphisms(x):
    """|dom| + |cod| + |het|: identities plus one arrow per heteromorphism
    (walking-loose collages have no composable pairs of heteromorphisms)."""
    return (len(x.on_objects["dom"]) + len(x.on_objects["cod"])
            + len(x.on_loose["l"].apex))


def chain_collage_morphisms(n):
    """The collage of chain(n) as a model is chain(n): n(n+1)/2 arrows."""
    return n * (n + 1) // 2


def cyclic_quotient_order(n, q):
    """n / |<q>|: the cell identifies a with a + q in Z/n."""
    subgroup, k = {0}, q % n
    while k not in subgroup:
        subgroup.add(k)
        k = (k + q) % n
    return n // len(subgroup)


def chain_model_morphisms(n, m):
    """Functors chain(n) -> chain(m) are monotone maps: C(n+m-1, n)."""
    return math.comb(n + m - 1, n)


def tight_morphisms(x, y):
    """Morphisms of walking-tight models, summed over bottom maps beta:
    each top element t may go to any t' with f'(t') = beta(f(t))."""
    f, g = x.on_tight["t"], y.on_tight["t"]
    bot_x, bot_y = list(x.on_objects["bot"]), list(y.on_objects["bot"])
    fibre = {u: sum(1 for v in g.values() if v == u) for u in bot_y}
    total = 0
    for images in itertools.product(bot_y, repeat=len(bot_x)):
        beta = dict(zip(bot_x, images))
        count = 1
        for t in x.on_objects["top"]:
            count *= fibre[beta[f[t]]]
        total += count
    return total


def _dag_order(graph):
    """Vertices of a signed graph in a topological order of its non-loop
    edges."""
    indeg = {v: 0 for v in graph.vertices}
    for _, s, d, _ in graph.edges:
        if s != d:
            indeg[d] += 1
    order, ready = [], [v for v in graph.vertices if indeg[v] == 0]
    while ready:
        v = ready.pop()
        order.append(v)
        for _, s, d, _ in graph.edges:
            if s == v and d != v:
                indeg[d] -= 1
                if indeg[d] == 0:
                    ready.append(d)
    return order


def signed_arrows(graph):
    """(arrow count, longest reduced word) of the involutive-loop quotient.

    An arrow is a path of non-loop edges with, at each visited vertex
    carrying a loop, the loop either present or not (loops square to
    the identity)."""
    loops = {s for _, s, d, _ in graph.edges if s == d}
    count, longest = {}, {}
    for v in _dag_order(graph):
        c = 2 if v in loops else 1
        incoming = [s for _, s, d, _ in graph.edges if d == v and s != v]
        count[v] = c * (1 + sum(count[s] for s in incoming))
        longest[v] = (v in loops) + max([longest[s] + 1 for s in incoming],
                                        default=0)
    return sum(count.values()), max(longest.values())


def comma_components(x):
    """Carrier sizes of the middle object of x -> 1 for a walking-loose
    model x: dom keeps |dom|; cod gets the connected components of the
    graph joining (a, het) to b along every heteromorphism a -> b."""
    parent = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    for a in x.on_objects["dom"]:
        find(("a", a))
    for b in x.on_objects["cod"]:
        find(("b", b))
    span = x.on_loose["l"]
    for xi in span.apex:
        ra, rb = find(("a", span.left[xi])), find(("b", span.right[xi]))
        parent[ra] = rb
    roots = {find(v) for v in list(parent)}
    return {"dom": len(x.on_objects["dom"]), "cod": len(roots)}


def fibre_counts(al, side):
    """Number of source elements over each target element of ``side``."""
    counts = {e: 0 for e in al.target.on_objects[side]}
    for v in al.on_objects[side].values():
        counts[v] += 1
    return counts


def label_counts(h, side):
    counts = {e: 0 for e in h.model.on_objects[side]}
    for e in h.labels[side].values():
        counts[e] += 1
    return counts


def action_domain_sizes(h):
    """|{(p, xi) : left(xi) = label(p)}| for every loose arrow."""
    x = h.model
    out = {}
    for m, (s, _) in x.theory.loose.items():
        outgoing = {}
        for xi in x.on_loose[m].apex:
            e = x.on_loose[m].left[xi]
            outgoing[e] = outgoing.get(e, 0) + 1
        out[m] = sum(outgoing.get(h.labels[s][p], 0) for p in h.carriers[s])
    return out


def self_restriction_sizes(h):
    """Carrier sizes of h restricted along the projection of its own
    elements: sum over base elements of the squared fibre size."""
    out = {}
    for d, labels in h.labels.items():
        fibre = {}
        for e in labels.values():
            fibre[e] = fibre.get(e, 0) + 1
        out[d] = sum(n * n for n in fibre.values())
    return out


def same_instance(a, b):
    """Table-for-table equality of two instances."""
    return (a.carriers == b.carriers and a.labels == b.labels
            and a.tight_cells == b.tight_cells and a.actions == b.actions)


def same_model(a, b):
    """Table-for-table equality of two models."""
    return (a.on_objects == b.on_objects and a.on_tight == b.on_tight
            and a.on_loose == b.on_loose and a.on_cells == b.on_cells
            and a.laxators == b.laxators and a.unitors == b.unitors)


def is_instance_isomorphism(components, h, k):
    """Bijective, label-preserving components that commute with every
    action and tight cell."""
    for d, table in components.items():
        if sorted(table) != sorted(h.carriers[d]) or \
                sorted(table.values()) != sorted(k.carriers[d]):
            return False
        if any(k.labels[d][v] != h.labels[d][p] for p, v in table.items()):
            return False
    t = h.model.theory
    for m, (s, d) in t.loose.items():
        for (p, xi), v in h.actions[m].items():
            if k.actions[m].get((components[s][p], xi)) != components[d][v]:
                return False
    for f, (s, d) in t.tight.items():
        for p, v in h.tight_cells[f].items():
            if k.tight_cells[f][components[s][p]] != components[d][v]:
                return False
    return True


def is_model_isomorphism(f, x, y):
    """Components that are bijections onto y's sets and commute with
    every tight function and every span leg."""
    def bijection(table, dom, cod):
        return (sorted(table) == sorted(dom)
                and sorted(table.values()) == sorted(cod))

    t = x.theory
    if not all(bijection(f.on_objects[d], x.on_objects[d], y.on_objects[d])
               for d in t.objects):
        return False
    for g, (s, d) in t.tight.items():
        if any(y.on_tight[g][f.on_objects[s][a]] != f.on_objects[d][b]
               for a, b in x.on_tight[g].items()):
            return False
    for m, (s, d) in t.loose.items():
        fm, xs, ys = f.on_loose[m], x.on_loose[m], y.on_loose[m]
        if not bijection(fm, xs.apex, ys.apex):
            return False
        if any(ys.left[fm[e]] != f.on_objects[s][xs.left[e]] or
               ys.right[fm[e]] != f.on_objects[d][xs.right[e]] for e in xs.apex):
            return False
    return True
