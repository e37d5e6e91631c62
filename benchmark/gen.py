"""Seeded input generators.

Every generator takes a ``random.Random`` and returns plain library
objects built through the public fixture builders.  Sizes are always
explicit arguments, so the seed decides wiring and labels but never how
much work an input carries.  Labels avoid the delimiters the library
formats into names (``( ) , ; @ | [ ] { }``).
"""

from dblinst.fincat import Copresheaf, FinFunctor
from dblinst.fixtures import (build_instance, chain_category, walking_loose_model,
                              walking_square_model, walking_tight_model)
from dblinst.model import ModelMorphism, terminal_model
from dblinst.signed import SignedGraph


def names(prefix, n):
    return ["{}{}".format(prefix, i) for i in range(n)]


def wl_model(rng, n_dom, n_cod, hets_per):
    """A walking-loose model with ``hets_per`` heteromorphisms out of
    every dom element, each to a seeded cod element."""
    dom, cod = names("a", n_dom), names("b", n_cod)
    het = [("h{}.{}".format(i, k), a, rng.choice(cod))
           for i, a in enumerate(dom) for k in range(hets_per)]
    return walking_loose_model(dom, cod, het)


def wl_instance(rng, x, width):
    """An instance of a walking-loose model with ``width`` elements in
    every fibre and seeded action targets."""
    carriers, labels, fibre = {}, {}, {}
    for d in ("dom", "cod"):
        carriers[d], labels[d] = [], {}
        for e in x.on_objects[d]:
            fibre[e] = ["{}~{}".format(e, k) for k in range(width)]
            carriers[d] += fibre[e]
            labels[d].update({p: e for p in fibre[e]})
    span = x.on_loose["l"]
    action = {(p, xi): rng.choice(fibre[span.right[xi]])
              for xi in span.apex for p in fibre[span.left[xi]]}
    return build_instance(x, carriers, labels, {"l": action})


def relabel_instance(rng, h):
    """The same instance with every carrier element renamed by a seeded
    bijection."""
    x = h.model
    rename = {}
    for d in ("dom", "cod"):
        elems = list(h.carriers[d])
        fresh = ["r{}.{}".format(d, i) for i in range(len(elems))]
        rng.shuffle(fresh)
        rename.update(zip(elems, fresh))
    carriers = {d: [rename[p] for p in h.carriers[d]] for d in ("dom", "cod")}
    labels = {d: {rename[p]: e for p, e in h.labels[d].items()}
              for d in ("dom", "cod")}
    action = {(rename[p], xi): rename[v]
              for (p, xi), v in h.actions["l"].items()}
    return build_instance(x, carriers, labels, {"l": action})


def indegree_profile(h):
    """Sorted (label, in-degree) pairs over the cod carrier: invariant
    under isomorphisms of instances, which preserve labels and actions."""
    deg = {v: 0 for v in h.carriers["cod"]}
    for v in h.actions["l"].values():
        deg[v] += 1
    return sorted((h.labels["cod"][v], n) for v, n in deg.items())


def non_isomorphic_variant(h):
    """The instance with one action value moved within its fibre so that
    the in-degree profile changes; the pair is then non-isomorphic."""
    x = h.model
    base = indegree_profile(h)
    action = dict(h.actions["l"])
    for key in sorted(action):
        old = action[key]
        for new in h.carriers["cod"]:
            if new == old or h.labels["cod"][new] != h.labels["cod"][old]:
                continue
            action[key] = new
            k = build_instance(
                x, {d: list(h.carriers[d]) for d in ("dom", "cod")},
                h.labels, {"l": action})
            if indegree_profile(k) != base:
                return k
            action[key] = old
    raise ValueError("instance has no fibre wide enough to vary")


def fold_morphism(rng, n_dom, n_cod, m_dom, m_cod, hets_per):
    """A surjective morphism wl(N) -> wl(M) of walking-loose models.

    The target has ``hets_per`` heteromorphisms out of each dom element.
    The source has one heteromorphism for every (dom element, target
    heteromorphism out of its image), ending at a seeded preimage of
    the target heteromorphism's end."""
    tgt = wl_model(rng, m_dom, m_cod, hets_per)
    t_dom, t_cod = list(tgt.on_objects["dom"]), list(tgt.on_objects["cod"])
    on_dom = _surjection(rng, names("s", n_dom), t_dom)
    on_cod = _surjection(rng, names("c", n_cod), t_cod)
    pre_cod = {b: [c for c, v in on_cod.items() if v == b] for b in t_cod}
    tspan = tgt.on_loose["l"]
    het, on_het = [], {}
    for a, image in sorted(on_dom.items()):
        for g in tspan.apex:
            if tspan.left[g] != image:
                continue
            name = "u{}.{}".format(a, g)
            het.append((name, a, rng.choice(pre_cod[tspan.right[g]])))
            on_het[name] = g
    src = walking_loose_model(list(on_dom), list(on_cod), het)
    return ModelMorphism(src, tgt, {"dom": on_dom, "cod": on_cod},
                       {"l": on_het, "id:dom": dict(on_dom),
                        "id:cod": dict(on_cod)})


def to_terminal(x):
    """The unique morphism from a model to the terminal model."""
    return ModelMorphism(
        x, terminal_model(x.theory),
        {d: {e: "*" for e in s} for d, s in x.on_objects.items()},
        {m: {xi: "*" for xi in sp.apex} for m, sp in x.on_loose.items()})


def _surjection(rng, src, dst):
    """A seeded surjection src -> dst (needs len(src) >= len(dst))."""
    images = list(dst) + [rng.choice(dst) for _ in range(len(src) - len(dst))]
    rng.shuffle(images)
    return dict(zip(src, images))


def signed_dag(rng, n_vertices, n_edges, n_loops):
    """A signed graph with at most one loop per vertex whose non-loop
    edges form a DAG, so its involutive-loop quotient is finite.

    The shape is fixed by the sizes (a path, then edges skipping one,
    two, ... positions; alternating signs; loops on every other
    position), because the closure and the search cost depend on it;
    the seed decides which vertex sits at which position."""
    order = names("v", n_vertices)
    rng.shuffle(order)
    pairs = [(i, i + k) for k in range(1, n_vertices)
             for i in range(n_vertices - k)]
    edges = [("e{}".format(j), order[i], order[k], 1 - 2 * (j % 2))
             for j, (i, k) in enumerate(pairs[:n_edges])]
    spots = list(range(0, n_vertices, 2)) + list(range(1, n_vertices, 2))
    edges += [("l{}".format(j), order[i], order[i], 2 * (j % 2) - 1)
              for j, i in enumerate(spots[:n_loops])]
    return SignedGraph(names("v", n_vertices), edges)


def tight_model(rng, n_top, n_bot):
    """A walking-tight model: a function top -> bot with fibres as equal
    as possible; the seed decides which top element lies in which fibre,
    so every seed gives an isomorphic search."""
    top, bot = names("t", n_top), names("u", n_bot)
    images = [bot[i % n_bot] for i in range(n_top)]
    rng.shuffle(images)
    return walking_tight_model(top, bot, dict(zip(top, images)))


def square_model(rng, n_base, tops_per):
    """A walking-square model with ``n_base`` elements in total (rounded
    down to a multiple of 6).

    The tight functions l and r are seeded surjections onto bottom sets
    of half the size; the bottom span has one heteromorphism per bl
    element, and every bottom heteromorphism has ``tops_per`` top
    heteromorphisms over it, ending in the fibres of l and r."""
    k = max(1, n_base // 6)
    bl, br = names("w", k), names("z", k)
    tl, tr = names("p", 2 * k), names("q", 2 * k)
    left, right = _surjection(rng, tl, bl), _surjection(rng, tr, br)
    bot = [("g{}".format(i), w, rng.choice(br)) for i, w in enumerate(bl)]
    top, square = [], {}
    for name, w, z in bot:
        over_w = [p for p in tl if left[p] == w]
        over_z = [q for q in tr if right[q] == z]
        for j in range(tops_per):
            t = "f{}.{}".format(name, j)
            top.append((t, rng.choice(over_w), rng.choice(over_z)))
            square[t] = name
    sets = {"tl": tl, "tr": tr, "bl": bl, "br": br}
    return walking_square_model(sets, left, right, top, bot, square)


def chain_functor(values, m):
    """The monotone map [n] -> [m] with the given values, as a functor of
    chain categories."""
    src, tgt = chain_category(len(values)), chain_category(m)
    on_morphisms = {f: _chain_arrow(values[int(s)], values[int(d)])
                    for f, (s, d) in src.morphisms.items()}
    return FinFunctor(src, tgt, {str(i): str(v) for i, v in enumerate(values)},
                      on_morphisms)


def _chain_arrow(i, j):
    return "id:{}".format(i) if i == j else "{}<{}".format(i, j)


def chain_copresheaf(rng, sizes):
    """A copresheaf on chain(len(sizes)) with seeded maps between the
    given set sizes."""
    n = len(sizes)
    sets = [["x{}.{}".format(j, k) for k in range(s)] for j, s in enumerate(sizes)]
    step = [{v: rng.choice(sets[j + 1]) for v in sets[j]} for j in range(n - 1)]
    on_morphisms = {}
    for i in range(n):
        for j in range(i, n):
            table = {v: v for v in sets[i]}
            for k in range(i, j):
                table = {v: step[k][w] for v, w in table.items()}
            on_morphisms[_chain_arrow(i, j)] = table
    return Copresheaf(chain_category(n),
                      {str(j): sets[j] for j in range(n)}, on_morphisms)


def representable_on_chain(n, i):
    """The representable copresheaf Hom(i, -) on chain(n)."""
    on_objects = {str(j): [_chain_arrow(i, j)] if j >= i else []
                  for j in range(n)}
    on_morphisms = {}
    for j in range(n):
        for k in range(j, n):
            on_morphisms[_chain_arrow(j, k)] = (
                {_chain_arrow(i, j): _chain_arrow(i, k)} if j >= i else {})
    return Copresheaf(chain_category(n), on_objects, on_morphisms)
