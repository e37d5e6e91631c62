"""Finite strict double theories with fully tabulated composition.

A ``DoubleTheory`` is a finite strict double category: objects, tight
arrows (composed diagrammatically, ``f then g``), loose arrows with a
strict tabulated composition, and cells filling squares.  A cell has a
boundary (left tight, right tight, top loose, bottom loose): it maps its
top loose arrow to its bottom one over the two tight sides.

Truncated families (monad powers, finite product powers) are *partial*
theories: composites that would leave the truncation are simply absent
from the tables and the theory carries a ``partial`` flag.  Validation
only checks tabulated composites in that case.

Horizontal composition of cells is vertical composition on the
transpose (f, g, m, n) -> (m, n, f, g), which swaps tight and loose
arrows, so ``validate_theory`` checks each cell structure once and
runs that check on the cells and on their transpose.
"""

from .fincat import category_report
from .finset import fibers


class CartesianStructure:
    """Designated finite products for a double theory.

    Products are extra data, not a search: the theory declares its
    terminal object, binary product objects with tight projections, and
    binary products of loose arrows with projection cells.  Validation
    checks by search that every pairing exists and is unique.
    """

    def __init__(self, terminal_object, terminal_tight, product_object,
                 proj_tight, product_loose, proj_cells):
        self.terminal_object = terminal_object
        self.terminal_tight = dict(terminal_tight)      # d -> tight d -> 1
        self.product_object = dict(product_object)      # (d1,d2) -> d1xd2
        self.proj_tight = dict(proj_tight)              # (d1,d2) -> (p1,p2)
        self.product_loose = dict(product_loose)        # (m1,m2) -> m1xm2
        self.proj_cells = dict(proj_cells)              # (m1,m2) -> (c1,c2)


class DoubleTheory:
    def __init__(self, objects, tight, tight_id, tight_comp,
                 loose, loose_id, loose_comp,
                 cells, cell_id_loose, cell_id_tight,
                 cell_vcomp, cell_hcomp,
                 partial=False, cartesian=None):
        self.objects = tuple(objects)
        self.tight = dict(tight)            # name -> (src, dst)
        self.tight_id = dict(tight_id)      # object -> name
        self.tight_comp = dict(tight_comp)  # (f, g) -> "f then g"
        self.loose = dict(loose)            # name -> (src, dst)
        self.loose_id = dict(loose_id)      # object -> name
        self.loose_comp = dict(loose_comp)  # (m, n) -> m (.) n
        # name -> (left tight, right tight, top loose, bottom loose)
        self.cells = dict(cells)
        self.cell_id_loose = dict(cell_id_loose)  # m -> identity cell for vcomp
        self.cell_id_tight = dict(cell_id_tight)  # f -> identity cell for hcomp
        self.cell_vcomp = dict(cell_vcomp)
        self.cell_hcomp = dict(cell_hcomp)
        self.partial = partial
        self.cartesian = cartesian

    # -- accessors -----------------------------------------------------------

    def tight_src(self, f):
        return self.tight[f][0]

    def tight_dst(self, f):
        return self.tight[f][1]

    def loose_src(self, m):
        return self.loose[m][0]

    def loose_dst(self, m):
        return self.loose[m][1]

    def cell_left(self, a):
        return self.cells[a][0]

    def cell_right(self, a):
        return self.cells[a][1]

    def cell_top(self, a):
        return self.cells[a][2]

    def cell_bottom(self, a):
        return self.cells[a][3]

    def __repr__(self):
        return "DoubleTheory(objects={}, tight={}, loose={}, cells={})".format(
            len(self.objects), len(self.tight), len(self.loose), len(self.cells))


def validate_theory(t):
    """Exhaustive strict-double-category axiom check; returns a report."""
    report = []
    for kind, arrows, ident, comp in (
            ("tight", t.tight, t.tight_id, t.tight_comp),
            ("loose", t.loose, t.loose_id, t.loose_comp)):
        report += ["{}: {}".format(kind, entry) for entry in category_report(
            t.objects, arrows, ident, comp, t.partial)]
    for d, m in t.loose_id.items():
        if t.loose.get(m) != (d, d):
            report.append("loose identity of {} has wrong endpoints".format(d))
    if report:
        return report

    # cell boundaries
    for a, (f, g, m, n) in t.cells.items():
        ok = (f in t.tight and g in t.tight and m in t.loose and n in t.loose
              and t.tight[f] == (t.loose_src(m), t.loose_src(n))
              and t.tight[g] == (t.loose_dst(m), t.loose_dst(n)))
        if not ok:
            report.append("cell {} has inconsistent boundary".format(a))
    if report:
        return report

    # identity cells and composition, on the cells and on their transpose
    across = {a: (m, n, f, g) for a, (f, g, m, n) in t.cells.items()}
    for view in (("vertical", t.cells, t.loose, t.tight_id, t.cell_id_loose),
                 ("horizontal", across, t.tight, t.loose_id, t.cell_id_tight)):
        _check_identity_cells(report, *view)
    for d in t.objects:
        if t.cell_id_loose.get(t.loose_id[d]) != t.cell_id_tight.get(t.tight_id[d]):
            report.append("identity cells disagree at object {}".format(d))
    for view in (("vertical", t.cells, t.tight_comp, t.cell_id_loose,
                  t.cell_vcomp),
                 ("horizontal", across, t.loose_comp, t.cell_id_tight,
                  t.cell_hcomp)):
        _check_composition(report, *view, t.partial)

    # associativity of both cell compositions (on tabulated entries);
    # each table is indexed by its first argument, so a pair (a, b) is
    # joined only with the entries (b, c) that exist.  Failures at one
    # pair are reported in cell order of c.
    position = {c: i for i, c in enumerate(t.cells)}
    v_after, h_after = _by_first(t.cell_vcomp), _by_first(t.cell_hcomp)
    for kind, comp, after in (("vertical", t.cell_vcomp, v_after),
                              ("horizontal", t.cell_hcomp, h_after)):
        for (a, b), ab in comp.items():
            fails = []
            for c, bc in after.get(b, {}).items():
                if c in position and (ab, c) in comp \
                        and (a, bc) in comp and comp[(ab, c)] != comp[(a, bc)]:
                    fails.append((position[c], c))
            report.extend("{} associativity fails at ({},{},{})"
                          .format(kind, a, b, c) for _, c in sorted(fails))

    # interchange on all tabulated 2x2 grids: for a horizontal pair
    # (a, b), the rows (c, d) below it have (a, c) and (b, d) tabulated,
    # so c ranges over v_after[a] and d over h_after[c] and v_after[b].
    # Failures at one pair are reported in the table order of (c, d).
    h_position = {k: i for i, k in enumerate(t.cell_hcomp)}
    vget, hget = t.cell_vcomp.get, t.cell_hcomp.get
    for (a, b), ab in t.cell_hcomp.items():
        below_b = v_after.get(b, {})
        fails = []
        for c, ac in v_after.get(a, {}).items():
            row = h_after.get(c)
            if not row:
                continue
            for d in row.keys() & below_b.keys():
                abcd = vget((ab, row[d]))
                if abcd is None:
                    continue
                acbd = hget((ac, below_b[d]))
                if acbd is not None and acbd != abcd:
                    fails.append((h_position[(c, d)], c, d))
        report.extend("interchange fails at grid ({},{};{},{})"
                      .format(a, b, c, d) for _, c, d in sorted(fails))

    if t.cartesian is not None:
        _check_cartesian(report, t)
    return report


def _check_identity_cells(report, kind, cells, tops, side_id, cell_id):
    """The identity cell of each arrow ``m`` along the top of ``cells``
    is (id of its source, id of its target, m, m)."""
    for m, a in cell_id.items():
        ends = tops.get(m)
        if ends is None or cells.get(a) != (side_id[ends[0]],
                                            side_id[ends[1]], m, m):
            report.append("{} identity cell of {} ill-formed".format(kind, m))


def _check_composition(report, kind, cells, side_comp, cell_id, comp,
                       partial):
    """Each cell is joined with the cells whose top is its bottom, in
    cell order: their composite in ``comp`` has the composites of the
    sides in ``side_comp`` as sides, and identity cells are its units."""
    below = fibers({a: bnd[2] for a, bnd in cells.items()}, cells)
    for a, (fa, ga, ma, na) in cells.items():
        for b in below.get(na, ()):
            fb, gb, _, nb = cells[b]
            lf, rf = side_comp.get((fa, fb)), side_comp.get((ga, gb))
            if lf is None or rf is None:
                continue
            c = comp.get((a, b))
            if c is None:
                if not partial:
                    report.append("missing {} composite ({},{})"
                                  .format(kind, a, b))
                continue
            if cells.get(c) != (lf, rf, ma, nb):
                report.append("{} composite ({},{}) has wrong boundary"
                              .format(kind, a, b))
        ia, ib = cell_id.get(ma), cell_id.get(na)
        if ia and comp.get((ia, a)) != a:
            report.append("{} unit fails at {}".format(kind, a))
        if ib and comp.get((a, ib)) != a:
            report.append("{} unit fails at {}".format(kind, a))


def _by_first(comp):
    """A composition table indexed by its first argument: a -> {b: ab}."""
    index = {}
    for (a, b), ab in comp.items():
        index.setdefault(a, {})[b] = ab
    return index


def _check_cartesian(report, t):
    """Terminal maps, pairings and cell pairings, found through tight
    arrows indexed by (source, target) and cells by (top, bottom)."""
    c = t.cartesian
    if c.terminal_object not in t.objects:
        report.append("cartesian: unknown terminal object")
        return
    hom = fibers(t.tight, t.tight)
    into = fibers({f: d for f, (_, d) in t.tight.items()}, t.tight)
    for d in t.objects:
        f = c.terminal_tight.get(d)
        if f is None or t.tight.get(f) != (d, c.terminal_object):
            report.append("cartesian: terminal arrow at {} ill-formed".format(d))
            continue
        # uniqueness of the map to the terminal object
        if len(hom[(d, c.terminal_object)]) != 1:
            report.append("cartesian: map {} -> terminal not unique".format(d))
    for (d1, d2), p in c.product_object.items():
        p1, p2 = c.proj_tight.get((d1, d2), (None, None))
        if t.tight.get(p1) != (p, d1) or t.tight.get(p2) != (p, d2):
            report.append("cartesian: projections of {}x{} ill-formed"
                          .format(d1, d2))
            continue
        for f in into.get(d1, ()):
            fs = t.tight[f][0]
            for g in hom.get((fs, d2), ()):
                pairs = [h for h in hom.get((fs, p), ())
                         if t.tight_comp.get((h, p1)) == f
                         and t.tight_comp.get((h, p2)) == g]
                if len(pairs) != 1:
                    report.append("cartesian: pairing of ({},{}) not unique"
                                  .format(f, g))
    spans = fibers({a: (bnd[2], bnd[3]) for a, bnd in t.cells.items()},
                   t.cells)
    over = fibers({a: bnd[3] for a, bnd in t.cells.items()}, t.cells)
    for (m1, m2), m12 in c.product_loose.items():
        c1, c2 = c.proj_cells.get((m1, m2), (None, None))
        ok = (t.cells.get(c1) is not None and t.cells.get(c2) is not None
              and t.cell_top(c1) == m12 and t.cell_bottom(c1) == m1
              and t.cell_top(c2) == m12 and t.cell_bottom(c2) == m2)
        if not ok:
            report.append("cartesian: projection cells of {}x{} ill-formed"
                          .format(m1, m2))
            continue
        for a in over.get(m1, ()):
            top = t.cell_top(a)
            for b in spans.get((top, m2), ()):
                pairs = [h for h in spans.get((top, m12), ())
                         if t.cell_vcomp.get((h, c1)) == a
                         and t.cell_vcomp.get((h, c2)) == b]
                if len(pairs) > 1:
                    report.append("cartesian: cell pairing of ({},{}) ambiguous"
                                  .format(a, b))
                # a missing pairing can be legitimate in a truncated theory
                elif not pairs and not t.partial:
                    report.append("cartesian: cell pairing of ({},{}) missing"
                                  .format(a, b))
