"""Builtin finite double theories.

Most small theories here are *thin*: they carry at most one cell per
boundary, so the cell composition tables can be derived mechanically
from the boundary algebra.  The truncated families encode their tight
and loose arrows as explicit finite functions:

* ``monad_trunc(k)``: one object, tight powers t^0..t^k, and cells the
  weakly monotone maps between the powers (composition of cells is
  ordinal sum vertically and map composition horizontally).
* ``prom_trunc(k)``: objects x^0..x^k, tight arrows the coordinate
  selections (functions, contravariantly), loose arrows the monotone
  maps, with designated product structure.
* ``sq_finset_op(k)``: skeletal finite sets of size <= k, all functions
  as loose arrows, functions reversed as tight arrows, cells the
  commuting squares; carries the coproduct-as-product structure.

One builder, ``_family``, makes every family of arrows named by value
tuples: the cells of the first, the tight and loose arrows of the rest.
"""

import itertools

from .errors import IllFormedPresentation, InvalidTheory
from .finset import fibers
from .theory import CartesianStructure, DoubleTheory


# ---------------------------------------------------------------------------
# thin theories: cells determined by their boundary


def _cell_name(f, g, m, n):
    return "c[{}|{}|{}|{}]".format(f, g, m, n)


def thin_double_theory(objects, tight, tight_id, tight_comp,
                       loose, loose_id, loose_comp, boundaries,
                       cartesian=None):
    """Build a theory whose cells are exactly the given boundaries.

    ``boundaries`` is an iterable of (left, right, top, bottom) tuples.
    It must contain the identity boundary of every arrow, and the
    boundary of every pasting of two of its cells whose tight and loose
    composites are tabulated; otherwise ``InvalidTheory`` names the
    missing identity or the pair that does not paste.
    """
    boundaries = sorted(set(boundaries))
    cells = {_cell_name(*b): b for b in boundaries}
    by_boundary = {b: name for name, b in cells.items()}

    def cell(b, missing, *parts):
        if b not in by_boundary:
            raise InvalidTheory(missing.format(*parts))
        return by_boundary[b]

    cell_id_loose = {m: cell((tight_id[x], tight_id[y], m, m),
                             "missing identity boundary for loose {}", m)
                     for m, (x, y) in loose.items()}
    cell_id_tight = {f: cell((f, f, loose_id[x], loose_id[y]),
                             "missing identity boundary for tight {}", f)
                     for f, (x, y) in tight.items()}
    vcomp, hcomp = {}, {}
    for a, (f1, g1, m1, n1) in cells.items():
        for b, (f2, g2, m2, n2) in cells.items():
            if n1 == m2:    # vertically composable
                lf = tight_comp.get((f1, f2))
                rf = tight_comp.get((g1, g2))
                if lf is not None and rf is not None:
                    vcomp[(a, b)] = cell(
                        (lf, rf, m1, n2), "thin theory not closed under "
                        "vertical pasting at ({},{})", a, b)
            if g1 == f2:    # horizontally composable
                top = loose_comp.get((m1, m2))
                bot = loose_comp.get((n1, n2))
                if top is not None and bot is not None:
                    hcomp[(a, b)] = cell(
                        (f1, g2, top, bot), "thin theory not closed under "
                        "horizontal pasting at ({},{})", a, b)
    return DoubleTheory(objects, tight, tight_id, tight_comp,
                        loose, loose_id, loose_comp,
                        cells, cell_id_loose, cell_id_tight,
                        vcomp, hcomp, cartesian=cartesian)


def _arrows(objects, arrows=None, composites=None):
    """One side of a small theory: the identity ``id:o`` of each
    object, then ``arrows`` (name -> (src, dst)); the composition
    table holds the unit laws, then the other ``composites``."""
    ident = {o: "id:" + o for o in objects}
    table = {i: (o, o) for o, i in ident.items()}
    comp = {(i, i): i for i in ident.values()}
    for f, (x, y) in (arrows or {}).items():
        table[f] = (x, y)
        comp[(ident[x], f)] = f
        comp[(f, ident[y])] = f
    comp.update(composites or {})
    return table, ident, comp


def _small_theory(objects, tight=None, loose=None, tight_comp=None,
                  loose_comp=None, cells=()):
    """A thin theory from its non-identity arrows, its non-unit
    composites and the boundaries of its non-identity cells."""
    tight, tid, tcomp = _arrows(objects, tight, tight_comp)
    loose, lid, lcomp = _arrows(objects, loose, loose_comp)
    identities = [(tid[x], tid[y], m, m) for m, (x, y) in loose.items()]
    identities += [(f, f, lid[x], lid[y]) for f, (x, y) in tight.items()]
    return thin_double_theory(objects, tight, tid, tcomp, loose, lid, lcomp,
                              identities + list(cells))


# ---------------------------------------------------------------------------
# the small named theories


def terminal_theory():
    return _small_theory(["*"])


def walking_loose_theory():
    """Two objects and a single nonidentity loose arrow between them."""
    return _small_theory(["dom", "cod"], loose={"l": ("dom", "cod")})


def walking_tight_theory():
    """Two objects and a single nonidentity tight arrow between them."""
    return _small_theory(["top", "bot"], tight={"t": ("top", "bot")})


def walking_square_theory():
    """Four objects, two tights, two looses, one filling cell."""
    return _small_theory(["tl", "tr", "bl", "br"],
                         tight={"l": ("tl", "bl"), "r": ("tr", "br")},
                         loose={"top": ("tl", "tr"), "bot": ("bl", "br")},
                         cells=[("l", "r", "top", "bot")])


def signed_theory():
    """One object; loose arrows form the two-element sign group."""
    return _small_theory(["*"], loose={"sigma": ("*", "*")},
                         loose_comp={("sigma", "sigma"): "id:*"})


def involution_cell_theory():
    """One object with a single nonidentity globular cell squaring to
    the identity cell.

    The cell monoid is the two-element group under both pastings (the
    shared unit forces the two compositions to agree).  Models of this
    theory are one-object categories equipped with a central involution
    given by translation; it powers the collage quotient fixtures.
    """
    objects = ["*"]
    tight, tid, tcomp = _arrows(objects)
    loose, lid, lcomp = _arrows(objects)
    cid, alpha = "c[id]", "alpha"
    cells = {cid: ("id:*", "id:*", "id:*", "id:*"),
             alpha: ("id:*", "id:*", "id:*", "id:*")}
    table = {(cid, cid): cid, (cid, alpha): alpha,
             (alpha, cid): alpha, (alpha, alpha): cid}
    return DoubleTheory(objects, tight, tid, tcomp, loose, lid, lcomp,
                        cells, {"id:*": cid}, {"id:*": cid},
                        dict(table), dict(table))


# ---------------------------------------------------------------------------
# monotone maps and finite functions, encoded as value tuples


def monotone_maps(i, j):
    """Weakly increasing tuples of length i with values in 1..j."""
    return list(itertools.combinations_with_replacement(range(1, j + 1), i))


def all_maps(i, j):
    """All tuples of length i with values in 1..j."""
    return list(itertools.product(range(1, j + 1), repeat=i))


def compose_maps(f, g):
    """Apply f: [a]->[b] then g: [b]->[c] (both value tuples)."""
    return tuple(g[v - 1] for v in f)


def ordinal_sum(f, g, shift):
    """Block sum of f: [a]->[b] and g: [c]->[d]; ``shift`` = b."""
    return f + tuple(v + shift for v in g)


def map_blocks(phi, b):
    """Preimages of 1..b under a value tuple, in coordinate order."""
    return [[i + 1 for i, v in enumerate(phi) if v == j]
            for j in range(1, b + 1)]


def _check_bound(family, k, top=None):
    """Refuse a truncation bound that ``family`` is not built at."""
    if k is None or k < 0 or (top is not None and k > top):
        raise IllFormedPresentation(
            "{} needs a truncation bound from 0{}, got {}".format(
                family, "" if top is None else " to {}".format(top), k))


def _fn_name(prefix, a, b, values):
    return "{}:{}-{}:{}".format(prefix, a, b, ".".join(str(v) for v in values))


def _family(k, prefix, ob, maps, compose):
    """The arrows from size a to size b, for a, b in 0..k, that are
    named by the value tuples ``maps(a, b)``.

    Returns the arrows (name -> (ob(a), ob(b))), their data (name ->
    (a, b, values)), the index by data, the identities (ob(a) -> the
    arrow of 1..a) and the composition table: an arrow a -> b and an
    arrow b -> c compose to the arrow of ``compose`` of their values.
    """
    arrows, data = {}, {}
    for a in range(k + 1):
        for b in range(k + 1):
            for values in maps(a, b):
                name = _fn_name(prefix, a, b, values)
                arrows[name] = (ob(a), ob(b))
                data[name] = (a, b, values)
    by_data = {v: n for n, v in data.items()}
    ident = {ob(a): by_data[(a, a, tuple(range(1, a + 1)))]
             for a in range(k + 1)}
    comp = {}
    for f, (a, b, pf) in data.items():
        for g, (b2, c, pg) in data.items():
            if b == b2:
                comp[(f, g)] = by_data[(a, c, compose(pf, pg))]
    return arrows, data, by_data, ident, comp


# ---------------------------------------------------------------------------
# monad_trunc


def monad_trunc_theory(k):
    """Tight monad powers t^0..t^k with monotone-map cells."""
    _check_bound("monad_trunc", k)
    objects = ["x"]
    tight = {"t{}".format(i): ("x", "x") for i in range(k + 1)}
    tid = {"x": "t0"}
    tcomp = {("t{}".format(i), "t{}".format(j)): "t{}".format(i + j)
             for i in range(k + 1) for j in range(k + 1) if i + j <= k}
    loose, lid, lcomp = _arrows(objects)

    sides, data, by_data, cell_id_tight, hcomp = _family(
        k, "mm", "t{}".format, monotone_maps, compose_maps)
    cells = {a: (f, g, "id:x", "id:x") for a, (f, g) in sides.items()}
    cell_id_loose = {"id:x": cell_id_tight["t0"]}
    vcomp = {}
    for a, (i1, j1, p1) in data.items():
        for b, (i2, j2, p2) in data.items():
            if i1 + i2 <= k and j1 + j2 <= k:
                vcomp[(a, b)] = by_data[(i1 + i2, j1 + j2,
                                         ordinal_sum(p1, p2, j1))]
    return DoubleTheory(objects, tight, tid, tcomp, loose, lid, lcomp,
                        cells, cell_id_loose, cell_id_tight,
                        vcomp, hcomp, partial=(k >= 1))


# ---------------------------------------------------------------------------
# prom_trunc and sq_finset_op


def _power_theory(k, obj_prefix, loose_maps, block_respecting):
    """Common builder for the two finite-function theories.

    Objects are ``<prefix>0..<prefix>k`` standing for sizes 0..k.  A
    tight arrow from size a to size b is a function [b] -> [a] (read
    contravariantly: coordinate selection for products, reversal for
    the opposite orientation).  A loose arrow from a to b is a function
    [a] -> [b], drawn from ``loose_maps``.  Cells are the commuting
    squares: (f, g, m, n) is a cell iff m after f equals n then g as
    functions; with ``block_respecting`` set, the tight side must
    additionally restrict to an order isomorphism from each block of
    the bottom onto the matching block of the top (the cells generated
    by products and identities, with no hidden permutation or
    diagonal).
    """
    ob = (obj_prefix + "{}").format
    objects = [ob(i) for i in range(k + 1)]

    # (f then g)* = f* after g*: [c] -> [b] -> [a]
    tight, tdata, t_by_data, tid, tcomp = _family(
        k, "tf", ob, lambda a, b: all_maps(b, a),
        lambda pf, pg: compose_maps(pg, pf))
    loose, ldata, l_by_data, lid, lcomp = _family(
        k, "lf", ob, loose_maps, compose_maps)

    def square_ok(pf, pg, pm, pn, b, b1):
        if compose_maps(pf, pm) != compose_maps(pn, pg):
            return False
        if not block_respecting:
            return True
        top_blocks = map_blocks(pm, b)
        return all([pf[i - 1] for i in block] == top_blocks[pg[j - 1] - 1]
                   for j, block in enumerate(map_blocks(pn, b1), start=1))

    t_from = fibers({f: d[0] for f, d in tdata.items()}, tdata)
    l_from = fibers({m: d[0] for m, d in ldata.items()}, ldata)
    l_hom = fibers({m: d[:2] for m, d in ldata.items()}, ldata)
    boundaries = []
    for f, (u, a1, pf) in tdata.items():
        for m in l_from.get(u, ()):
            _, v, pm = ldata[m]
            for g in t_from.get(v, ()):
                _, b1, pg = tdata[g]
                # the bottom is forced on the image of f*; enumerate the rest
                for n in l_hom.get((a1, b1), ()):
                    if square_ok(pf, pg, pm, ldata[n][2], v, b1):
                        boundaries.append((f, g, m, n))

    # designated products: sizes add, witnesses are block inclusions
    def projections(a, b):
        return (t_by_data[(a + b, a, tuple(range(1, a + 1)))],
                t_by_data[(a + b, b, tuple(range(a + 1, a + b + 1)))])

    sizes = [(a, b) for a in range(k + 1) for b in range(k + 1 - a)]
    product_object = {(ob(a), ob(b)): ob(a + b) for a, b in sizes}
    proj_tight = {(ob(a), ob(b)): projections(a, b) for a, b in sizes}
    product_loose, proj_cells = {}, {}
    for m1, (a1, b1, p1) in ldata.items():
        for m2, (a2, b2, p2) in ldata.items():
            if a1 + a2 <= k and b1 + b2 <= k:
                m12 = l_by_data[(a1 + a2, b1 + b2, ordinal_sum(p1, p2, b1))]
                product_loose[(m1, m2)] = m12
                fa1, fa2 = projections(a1, a2)
                fb1, fb2 = projections(b1, b2)
                proj_cells[(m1, m2)] = (_cell_name(fa1, fb1, m12, m1),
                                        _cell_name(fa2, fb2, m12, m2))
    terminal_tight = {ob(a): t_by_data[(a, 0, ())] for a in range(k + 1)}
    cart = CartesianStructure(ob(0), terminal_tight, product_object,
                              proj_tight, product_loose, proj_cells)
    t = thin_double_theory(objects, tight, tid, tcomp,
                           loose, lid, lcomp, boundaries, cartesian=cart)
    t.size_of_object = {ob(i): i for i in range(k + 1)}
    t.tight_data, t.loose_data = tdata, ldata
    return t


def prom_trunc_theory(k):
    """Finite-product powers of one object with monotone loose arrows.

    The loose arrow from x^n to x is the n-ary operation proarrow; all
    other loose arrows are its product-induced relatives.
    """
    _check_bound("prom_trunc", k, 2)    # beyond 2 the tables are unmanageable
    return _power_theory(k, "x", monotone_maps, block_respecting=True)


def sq_finset_op_theory(k):
    """Squares of skeletal finite sets of size <= k, tight side reversed."""
    _check_bound("sq_finset_op", k, 2)
    return _power_theory(k, "s", all_maps, block_respecting=False)


def p_arrow(t, n):
    """The n-ary operation proarrow x^n -> x of a prom_trunc theory."""
    phi = tuple(1 for _ in range(n))
    return _fn_name("lf", n, 1, phi)


# ---------------------------------------------------------------------------
# dispatch


def builtin_theory(name, k=None):
    """Look up a named theory; truncated families take a bound k."""
    simple = {
        "terminal": terminal_theory,
        "walking_loose": walking_loose_theory,
        "walking_tight": walking_tight_theory,
        "walking_square": walking_square_theory,
        "signed": signed_theory,
        "involution_cell": involution_cell_theory,
    }
    if name in simple:
        return simple[name]()
    family = {
        "monad_trunc": monad_trunc_theory,
        "prom_trunc": prom_trunc_theory,
        "sq_finset_op": sq_finset_op_theory,
    }
    if name in family:
        return family[name](k)
    raise ValueError("unknown builtin theory: {}".format(name))
