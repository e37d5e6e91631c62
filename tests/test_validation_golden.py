"""Golden validation reports: corrupted theories, reports pinned in order.

Each case builds a built-in theory, breaks one thing in it, and records
the whole report of ``validate_theory``, line by line and in order.  So
any change to what the validator checks, to the order it checks in, or
to the wording of an entry shows up here.

Corruptions:
- a tight or a loose composite changed to a parallel arrow, removed,
  changed to an unknown name, or given wrong endpoints;
- a broken left unit;
- a vertical or a horizontal cell composite removed, or changed to a
  cell with another boundary;
- a second terminal map, pairing or cell pairing, made by cloning an
  arrow or a cell together with every table entry that it takes part
  in.  Where the arrow has a retraction through it, the clone also
  breaks associativity, and the report says so first.

A corruption that does not apply to a theory (no parallel arrow, no
non-identity loose arrow, no pairing out of a non-identity) has no
case.
"""

import pytest

from dblinst.theories import builtin_theory
from dblinst.theory import validate_theory


def _tables(t, kind):
    if kind == "tight":
        return t.tight, t.tight_id, t.tight_comp
    return t.loose, t.loose_id, t.loose_comp


def _entry(t, kind, parallel=False):
    """The first table entry whose first factor is not an identity,
    preferring entries of two non-identities; with ``parallel``, only
    entries whose composite has another arrow parallel to it."""
    arrows, ident, comp = _tables(t, kind)
    ids = set(ident.values())

    def ok(e):
        h = comp[e]
        return not parallel or any(k != h and arrows[k] == arrows[h]
                                   for k in arrows)
    both = [e for e in comp if e[0] not in ids and e[1] not in ids and ok(e)]
    one = [e for e in comp if e[0] not in ids and ok(e)]
    return (both or one)[0]


def change(t, kind):
    arrows, _, comp = _tables(t, kind)
    e = _entry(t, kind, parallel=True)
    h = comp[e]
    comp[e] = next(k for k in arrows if k != h and arrows[k] == arrows[h])


def remove(t, kind):
    del _tables(t, kind)[2][_entry(t, kind)]


def unknown_composite(t, kind):
    _tables(t, kind)[2][_entry(t, kind)] = "ghost"


def wrong_endpoints(t, kind):
    arrows, _, comp = _tables(t, kind)
    e = _entry(t, kind)
    comp[e] = next(k for k in arrows if arrows[k] != arrows[comp[e]])


def broken_unit(t, kind):
    arrows, ident, comp = _tables(t, kind)
    ids = set(ident.values())
    f = next(k for k in arrows if k not in ids)
    s = arrows[f][0]
    comp[(ident[s], f)] = next(
        (k for k in arrows if k != f and arrows[k] == arrows[f]), ident[s])


def _cell_entry(t, kind):
    """The first vertical or horizontal composition entry, preferring
    entries of two non-identity cells."""
    table = t.cell_vcomp if kind == "vertical" else t.cell_hcomp
    ids = set(t.cell_id_loose.values()) | set(t.cell_id_tight.values())
    both = [e for e in table if not ids & set(e)]
    return table, (both or list(table))[0]


def remove_cell_composite(t, kind):
    table, e = _cell_entry(t, kind)
    del table[e]


def wrong_cell_composite(t, kind):
    table, e = _cell_entry(t, kind)
    table[e] = next(a for a in t.cells if t.cells[a] != t.cells[table[e]])


def _clone(table, ids, old, new):
    """Add ``new`` as a copy of ``old`` to a composition table: each
    entry with ``old`` as a factor is copied with ``new`` in its place,
    and composes to ``new`` when the other factor is an identity."""
    for (a, b), ab in list(table.items()):
        if a == old:
            table[(new, b)] = new if b in ids else ab
        if b == old:
            table[(a, new)] = new if a in ids else ab
        if a == b == old:
            table[(new, new)] = ab


def _clone_tight(t, f, new):
    t.tight[new] = t.tight[f]
    _clone(t.tight_comp, set(t.tight_id.values()), f, new)


def duplicate_terminal_map(t, kind):
    c = t.cartesian
    d = next(d for d in t.objects if d != c.terminal_object)
    _clone_tight(t, c.terminal_tight[d], "dup")


def duplicate_pairing(t, kind):
    c = t.cartesian
    ids = set(t.tight_id.values())
    pair, p = next((pair, p) for pair, p in c.product_object.items()
                   if not ids & set(c.proj_tight[pair]))
    h = next(h for h, (_, d) in t.tight.items() if d == p and h not in ids)
    _clone_tight(t, h, "dup")


def duplicate_cell_pairing(t, kind):
    c = t.cartesian
    id_cells = set(t.cell_id_loose.values()) | set(t.cell_id_tight.values())
    pair = next(pair for pair in c.product_loose
                if not id_cells & set(c.proj_cells[pair]))
    a = next(a for a, bnd in t.cells.items()
             if bnd[3] == c.product_loose[pair] and a not in id_cells)
    t.cells["dup"] = t.cells[a]
    _clone(t.cell_vcomp, set(t.cell_id_loose.values()), a, "dup")
    _clone(t.cell_hcomp, set(t.cell_id_tight.values()), a, "dup")


CORRUPTIONS = {fn.__name__: fn for fn in (
    change, remove, unknown_composite, wrong_endpoints, broken_unit,
    remove_cell_composite, wrong_cell_composite, duplicate_terminal_map,
    duplicate_pairing, duplicate_cell_pairing)}


def corrupted_report(name, k, kind, corruption):
    t = builtin_theory(name, k)
    CORRUPTIONS[corruption](t, kind)
    return validate_theory(t)


GOLDEN = {
    ('prom_trunc', 2, 'tight', 'change'): [
        'tight: associativity fails at (tf:2-1:1,tf:1-2:1.1,tf:2-1:2)',
        'tight: associativity fails at (tf:2-1:1,tf:1-2:1.1,tf:2-2:1.1)',
        'tight: associativity fails at (tf:2-1:1,tf:1-2:1.1,tf:2-2:2.1)',
        'tight: associativity fails at (tf:2-1:1,tf:1-2:1.1,tf:2-2:2.2)',
        'tight: associativity fails at (tf:2-2:1.1,tf:2-1:1,tf:1-2:1.1)',
        'tight: associativity fails at (tf:2-2:1.1,tf:2-1:2,tf:1-2:1.1)',
        'tight: associativity fails at (tf:2-2:2.1,tf:2-1:1,tf:1-2:1.1)',
        'tight: associativity fails at (tf:2-2:2.1,tf:2-1:2,tf:1-2:1.1)',
    ],
    ('prom_trunc', 2, 'tight', 'remove'): [
        'tight: missing composite (tf:1-2:1.1,tf:2-0:)',
    ],
    ('prom_trunc', 2, 'tight', 'unknown_composite'): [
        'tight: composite of (tf:1-2:1.1,tf:2-0:) has wrong endpoints',
        'tight: associativity fails at (tf:1-2:1.1,tf:2-1:1,tf:1-0:)',
        'tight: associativity fails at (tf:1-2:1.1,tf:2-1:2,tf:1-0:)',
    ],
    ('prom_trunc', 2, 'tight', 'wrong_endpoints'): [
        'tight: composite of (tf:1-2:1.1,tf:2-0:) has wrong endpoints',
        'tight: associativity fails at (tf:1-2:1.1,tf:2-1:1,tf:1-0:)',
        'tight: associativity fails at (tf:1-2:1.1,tf:2-1:2,tf:1-0:)',
    ],
    ('prom_trunc', 2, 'tight', 'broken_unit'): [
        'tight: left unit fails at tf:1-0:',
        'tight: composite of (tf:1-1:1,tf:1-0:) has wrong endpoints',
        'tight: associativity fails at (tf:1-1:1,tf:1-2:1.1,tf:2-0:)',
        'tight: associativity fails at (tf:1-2:1.1,tf:2-1:1,tf:1-0:)',
        'tight: associativity fails at (tf:1-2:1.1,tf:2-1:2,tf:1-0:)',
        'tight: associativity fails at (tf:2-1:1,tf:1-1:1,tf:1-0:)',
        'tight: associativity fails at (tf:2-1:2,tf:1-1:1,tf:1-0:)',
    ],
    ('prom_trunc', 2, 'loose', 'change'): [
        'loose: associativity fails at (lf:1-2:1,lf:2-1:1.1,lf:1-2:1)',
        'loose: associativity fails at (lf:1-2:1,lf:2-2:1.1,lf:2-2:1.1)',
        'loose: associativity fails at (lf:1-2:1,lf:2-2:2.2,lf:2-2:1.1)',
        'loose: associativity fails at (lf:1-2:2,lf:2-2:1.1,lf:2-2:1.1)',
        'loose: associativity fails at (lf:2-1:1.1,lf:1-2:1,lf:2-2:1.1)',
    ],
    ('prom_trunc', 2, 'loose', 'remove'): [
        'loose: missing composite (lf:0-1:,lf:1-2:1)',
    ],
    ('prom_trunc', 2, 'loose', 'unknown_composite'): [
        'loose: composite of (lf:0-1:,lf:1-2:1) has wrong endpoints',
        'loose: associativity fails at (lf:0-1:,lf:1-2:2,lf:2-2:1.1)',
        'loose: associativity fails at (lf:0-2:,lf:2-1:1.1,lf:1-2:1)',
    ],
    ('prom_trunc', 2, 'loose', 'wrong_endpoints'): [
        'loose: composite of (lf:0-1:,lf:1-2:1) has wrong endpoints',
        'loose: associativity fails at (lf:0-1:,lf:1-2:2,lf:2-2:1.1)',
        'loose: associativity fails at (lf:0-2:,lf:2-1:1.1,lf:1-2:1)',
    ],
    ('prom_trunc', 2, 'loose', 'broken_unit'): [
        'loose: left unit fails at lf:0-1:',
        'loose: composite of (lf:0-0:,lf:0-1:) has wrong endpoints',
        'loose: associativity fails at (lf:0-0:,lf:0-2:,lf:2-1:1.1)',
    ],
    ('prom_trunc', 2, 'vertical', 'remove_cell_composite'): [
        'missing vertical composite (c[tf:0-0:|tf:1-2:1.1|lf:0-1:|lf:0-2:],c[tf:0-0:|tf:2-0:|lf:0-2:|lf:0-0:])',
        'cartesian: cell pairing of (c[tf:0-0:|tf:1-0:|lf:0-1:|lf:0-0:],c[tf:0-0:|tf:1-2:1.1|lf:0-1:|lf:0-2:]) missing',
        'cartesian: cell pairing of (c[tf:0-0:|tf:1-2:1.1|lf:0-1:|lf:0-2:],c[tf:0-0:|tf:1-0:|lf:0-1:|lf:0-0:]) missing',
    ],
    ('prom_trunc', 2, 'vertical', 'wrong_cell_composite'): [
        'vertical composite (c[tf:0-0:|tf:1-2:1.1|lf:0-1:|lf:0-2:],c[tf:0-0:|tf:2-0:|lf:0-2:|lf:0-0:]) has wrong boundary',
        'vertical associativity fails at (c[tf:0-0:|tf:1-2:1.1|lf:0-1:|lf:0-2:],c[tf:0-0:|tf:2-1:1|lf:0-2:|lf:0-1:],c[tf:0-0:|tf:1-0:|lf:0-1:|lf:0-0:])',
        'vertical associativity fails at (c[tf:0-0:|tf:1-2:1.1|lf:0-1:|lf:0-2:],c[tf:0-0:|tf:2-1:2|lf:0-2:|lf:0-1:],c[tf:0-0:|tf:1-0:|lf:0-1:|lf:0-0:])',
        'cartesian: cell pairing of (c[tf:0-0:|tf:1-0:|lf:0-1:|lf:0-0:],c[tf:0-0:|tf:1-2:1.1|lf:0-1:|lf:0-2:]) missing',
        'cartesian: cell pairing of (c[tf:0-0:|tf:1-2:1.1|lf:0-1:|lf:0-2:],c[tf:0-0:|tf:1-0:|lf:0-1:|lf:0-0:]) missing',
    ],
    ('prom_trunc', 2, 'horizontal', 'remove_cell_composite'): [
        'missing horizontal composite (c[tf:0-0:|tf:1-0:|lf:0-1:|lf:0-0:],c[tf:1-0:|tf:2-0:|lf:1-2:1|lf:0-0:])',
    ],
    ('prom_trunc', 2, 'horizontal', 'wrong_cell_composite'): [
        'horizontal composite (c[tf:0-0:|tf:1-0:|lf:0-1:|lf:0-0:],c[tf:1-0:|tf:2-0:|lf:1-2:1|lf:0-0:]) has wrong boundary',
        'horizontal associativity fails at (c[tf:0-0:|tf:1-0:|lf:0-1:|lf:0-0:],c[tf:1-0:|tf:2-0:|lf:1-2:2|lf:0-0:],c[tf:2-0:|tf:2-0:|lf:2-2:1.1|lf:0-0:])',
        'horizontal associativity fails at (c[tf:0-0:|tf:2-0:|lf:0-2:|lf:0-0:],c[tf:2-0:|tf:1-0:|lf:2-1:1.1|lf:0-0:],c[tf:1-0:|tf:2-0:|lf:1-2:1|lf:0-0:])',
        'interchange fails at grid (c[tf:0-0:|tf:1-0:|lf:0-1:|lf:0-0:],c[tf:1-0:|tf:2-1:2|lf:1-2:1|lf:0-1:];c[tf:0-0:|tf:0-0:|lf:0-0:|lf:0-0:],c[tf:0-0:|tf:1-0:|lf:0-1:|lf:0-0:])',
        'interchange fails at grid (c[tf:0-0:|tf:1-0:|lf:0-1:|lf:0-0:],c[tf:1-0:|tf:2-2:2.2|lf:1-2:1|lf:0-2:];c[tf:0-0:|tf:0-0:|lf:0-0:|lf:0-0:],c[tf:0-0:|tf:2-0:|lf:0-2:|lf:0-0:])',
        'interchange fails at grid (c[tf:0-0:|tf:1-1:1|lf:0-1:|lf:0-1:],c[tf:1-1:1|tf:2-1:1|lf:1-2:1|lf:1-1:1];c[tf:0-0:|tf:1-0:|lf:0-1:|lf:0-0:],c[tf:1-0:|tf:1-0:|lf:1-1:1|lf:0-0:])',
        'interchange fails at grid (c[tf:0-0:|tf:1-1:1|lf:0-1:|lf:0-1:],c[tf:1-1:1|tf:2-2:2.1|lf:1-2:1|lf:1-2:2];c[tf:0-0:|tf:1-0:|lf:0-1:|lf:0-0:],c[tf:1-0:|tf:2-0:|lf:1-2:2|lf:0-0:])',
        'interchange fails at grid (c[tf:0-0:|tf:1-2:1.1|lf:0-1:|lf:0-2:],c[tf:1-2:1.1|tf:2-2:1.1|lf:1-2:1|lf:2-2:1.2];c[tf:0-0:|tf:2-0:|lf:0-2:|lf:0-0:],c[tf:2-0:|tf:2-0:|lf:2-2:1.2|lf:0-0:])',
    ],
    ('sq_finset_op', 1, 'tight', 'remove'): [
        'tight: right unit fails at tf:1-0:',
        'tight: missing composite (tf:1-0:,tf:0-0:)',
    ],
    ('sq_finset_op', 1, 'tight', 'unknown_composite'): [
        'tight: right unit fails at tf:1-0:',
        'tight: composite of (tf:1-0:,tf:0-0:) has wrong endpoints',
    ],
    ('sq_finset_op', 1, 'tight', 'wrong_endpoints'): [
        'tight: right unit fails at tf:1-0:',
        'tight: composite of (tf:1-0:,tf:0-0:) has wrong endpoints',
    ],
    ('sq_finset_op', 1, 'tight', 'broken_unit'): [
        'tight: left unit fails at tf:1-0:',
        'tight: composite of (tf:1-1:1,tf:1-0:) has wrong endpoints',
    ],
    ('sq_finset_op', 1, 'loose', 'remove'): [
        'loose: right unit fails at lf:0-1:',
        'loose: missing composite (lf:0-1:,lf:1-1:1)',
    ],
    ('sq_finset_op', 1, 'loose', 'unknown_composite'): [
        'loose: right unit fails at lf:0-1:',
        'loose: composite of (lf:0-1:,lf:1-1:1) has wrong endpoints',
    ],
    ('sq_finset_op', 1, 'loose', 'wrong_endpoints'): [
        'loose: right unit fails at lf:0-1:',
        'loose: composite of (lf:0-1:,lf:1-1:1) has wrong endpoints',
    ],
    ('sq_finset_op', 1, 'loose', 'broken_unit'): [
        'loose: left unit fails at lf:0-1:',
        'loose: composite of (lf:0-0:,lf:0-1:) has wrong endpoints',
    ],
    ('sq_finset_op', 1, 'vertical', 'remove_cell_composite'): [
        'missing vertical composite (c[tf:1-0:|tf:1-1:1|lf:1-1:1|lf:0-1:],c[tf:0-0:|tf:1-0:|lf:0-1:|lf:0-0:])',
        'cartesian: cell pairing of (c[tf:1-0:|tf:1-0:|lf:1-1:1|lf:0-0:],c[tf:1-0:|tf:1-1:1|lf:1-1:1|lf:0-1:]) missing',
        'cartesian: cell pairing of (c[tf:1-0:|tf:1-1:1|lf:1-1:1|lf:0-1:],c[tf:1-0:|tf:1-0:|lf:1-1:1|lf:0-0:]) missing',
    ],
    ('sq_finset_op', 1, 'vertical', 'wrong_cell_composite'): [
        'vertical composite (c[tf:1-0:|tf:1-1:1|lf:1-1:1|lf:0-1:],c[tf:0-0:|tf:1-0:|lf:0-1:|lf:0-0:]) has wrong boundary',
        'cartesian: cell pairing of (c[tf:1-0:|tf:1-0:|lf:1-1:1|lf:0-0:],c[tf:1-0:|tf:1-1:1|lf:1-1:1|lf:0-1:]) missing',
        'cartesian: cell pairing of (c[tf:1-0:|tf:1-1:1|lf:1-1:1|lf:0-1:],c[tf:1-0:|tf:1-0:|lf:1-1:1|lf:0-0:]) missing',
    ],
    ('sq_finset_op', 1, 'horizontal', 'remove_cell_composite'): [
        'missing horizontal composite (c[tf:0-0:|tf:1-0:|lf:0-1:|lf:0-0:],c[tf:1-0:|tf:1-1:1|lf:1-1:1|lf:0-1:])',
    ],
    ('sq_finset_op', 1, 'horizontal', 'wrong_cell_composite'): [
        'horizontal composite (c[tf:0-0:|tf:1-0:|lf:0-1:|lf:0-0:],c[tf:1-0:|tf:1-1:1|lf:1-1:1|lf:0-1:]) has wrong boundary',
    ],
    ('monad_trunc', 2, 'tight', 'change'): [
        'vertical composite (mm:0-1:,mm:0-1:) has wrong boundary',
        'vertical composite (mm:0-1:,mm:1-1:1) has wrong boundary',
        'vertical composite (mm:0-1:,mm:2-1:1.1) has wrong boundary',
        'vertical composite (mm:1-1:1,mm:0-1:) has wrong boundary',
        'vertical composite (mm:1-1:1,mm:1-1:1) has wrong boundary',
        'vertical composite (mm:2-1:1.1,mm:0-1:) has wrong boundary',
    ],
    ('monad_trunc', 2, 'tight', 'remove'): [
    ],
    ('monad_trunc', 2, 'tight', 'unknown_composite'): [
        'tight: composite of (t1,t1) has wrong endpoints',
    ],
    ('monad_trunc', 2, 'tight', 'broken_unit'): [
        'tight: left unit fails at t1',
        'tight: associativity fails at (t0,t1,t1)',
        'tight: associativity fails at (t1,t0,t1)',
    ],
    ('monad_trunc', 2, 'vertical', 'remove_cell_composite'): [
    ],
    ('monad_trunc', 2, 'vertical', 'wrong_cell_composite'): [
        'vertical composite (mm:0-1:,mm:0-1:) has wrong boundary',
        'interchange fails at grid (mm:0-0:,mm:0-1:;mm:0-1:,mm:1-1:1)',
        'interchange fails at grid (mm:0-0:,mm:0-1:;mm:0-2:,mm:2-1:1.1)',
        'interchange fails at grid (mm:0-1:,mm:1-1:1;mm:0-0:,mm:0-1:)',
        'interchange fails at grid (mm:0-2:,mm:2-1:1.1;mm:0-0:,mm:0-1:)',
    ],
    ('monad_trunc', 2, 'horizontal', 'remove_cell_composite'): [
    ],
    ('monad_trunc', 2, 'horizontal', 'wrong_cell_composite'): [
        'horizontal composite (mm:0-1:,mm:1-2:1) has wrong boundary',
        'horizontal associativity fails at (mm:0-1:,mm:1-2:2,mm:2-2:1.1)',
        'horizontal associativity fails at (mm:0-2:,mm:2-1:1.1,mm:1-2:1)',
        'interchange fails at grid (mm:0-1:,mm:1-1:1;mm:0-0:,mm:0-1:)',
    ],
    ('walking_square', None, 'tight', 'remove'): [
        'tight: right unit fails at l',
        'tight: missing composite (l,id:bl)',
    ],
    ('walking_square', None, 'tight', 'unknown_composite'): [
        'tight: right unit fails at l',
        'tight: composite of (l,id:bl) has wrong endpoints',
    ],
    ('walking_square', None, 'tight', 'wrong_endpoints'): [
        'tight: right unit fails at l',
        'tight: composite of (l,id:bl) has wrong endpoints',
    ],
    ('walking_square', None, 'tight', 'broken_unit'): [
        'tight: left unit fails at l',
        'tight: composite of (id:tl,l) has wrong endpoints',
    ],
    ('walking_square', None, 'loose', 'remove'): [
        'loose: right unit fails at top',
        'loose: missing composite (top,id:tr)',
    ],
    ('walking_square', None, 'loose', 'unknown_composite'): [
        'loose: right unit fails at top',
        'loose: composite of (top,id:tr) has wrong endpoints',
    ],
    ('walking_square', None, 'loose', 'wrong_endpoints'): [
        'loose: right unit fails at top',
        'loose: composite of (top,id:tr) has wrong endpoints',
    ],
    ('walking_square', None, 'loose', 'broken_unit'): [
        'loose: left unit fails at top',
        'loose: composite of (id:tl,top) has wrong endpoints',
    ],
    ('walking_square', None, 'vertical', 'remove_cell_composite'): [
        'missing vertical composite (c[id:bl|id:bl|id:bl|id:bl],c[id:bl|id:bl|id:bl|id:bl])',
        'vertical unit fails at c[id:bl|id:bl|id:bl|id:bl]',
        'vertical unit fails at c[id:bl|id:bl|id:bl|id:bl]',
    ],
    ('walking_square', None, 'vertical', 'wrong_cell_composite'): [
        'vertical composite (c[id:bl|id:bl|id:bl|id:bl],c[id:bl|id:bl|id:bl|id:bl]) has wrong boundary',
        'vertical unit fails at c[id:bl|id:bl|id:bl|id:bl]',
        'vertical unit fails at c[id:bl|id:bl|id:bl|id:bl]',
    ],
    ('walking_square', None, 'horizontal', 'remove_cell_composite'): [
        'missing horizontal composite (c[id:bl|id:bl|id:bl|id:bl],c[id:bl|id:bl|id:bl|id:bl])',
        'horizontal unit fails at c[id:bl|id:bl|id:bl|id:bl]',
        'horizontal unit fails at c[id:bl|id:bl|id:bl|id:bl]',
    ],
    ('walking_square', None, 'horizontal', 'wrong_cell_composite'): [
        'horizontal composite (c[id:bl|id:bl|id:bl|id:bl],c[id:bl|id:bl|id:bl|id:bl]) has wrong boundary',
        'horizontal unit fails at c[id:bl|id:bl|id:bl|id:bl]',
        'horizontal unit fails at c[id:bl|id:bl|id:bl|id:bl]',
    ],
    ('prom_trunc', 2, 'tight', 'duplicate_terminal_map'): [
        'tight: associativity fails at (tf:1-2:1.1,tf:2-1:1,dup)',
        'tight: associativity fails at (tf:1-2:1.1,tf:2-1:2,dup)',
    ],
    ('prom_trunc', 2, 'tight', 'duplicate_pairing'): [
        'tight: associativity fails at (tf:1-2:1.1,tf:2-1:1,dup)',
        'tight: associativity fails at (tf:1-2:1.1,tf:2-1:2,dup)',
        'tight: associativity fails at (dup,tf:2-1:1,dup)',
        'tight: associativity fails at (dup,tf:2-1:2,dup)',
        'tight: associativity fails at (dup,tf:2-2:2.1,tf:2-2:2.1)',
    ],
    ('prom_trunc', 2, 'tight', 'duplicate_cell_pairing'): [
        'vertical associativity fails at (c[tf:0-0:|tf:1-2:1.1|lf:0-1:|lf:0-2:],c[tf:0-0:|tf:2-1:1|lf:0-2:|lf:0-1:],dup)',
        'vertical associativity fails at (c[tf:0-0:|tf:1-2:1.1|lf:0-1:|lf:0-2:],c[tf:0-0:|tf:2-1:2|lf:0-2:|lf:0-1:],dup)',
        'vertical associativity fails at (dup,c[tf:0-0:|tf:2-1:1|lf:0-2:|lf:0-1:],dup)',
        'vertical associativity fails at (dup,c[tf:0-0:|tf:2-1:2|lf:0-2:|lf:0-1:],dup)',
        'vertical associativity fails at (dup,c[tf:0-0:|tf:2-2:2.1|lf:0-2:|lf:0-2:],c[tf:0-0:|tf:2-2:2.1|lf:0-2:|lf:0-2:])',
        'cartesian: cell pairing of (c[tf:0-0:|tf:1-1:1|lf:0-1:|lf:0-1:],c[tf:0-0:|tf:1-1:1|lf:0-1:|lf:0-1:]) ambiguous',
    ],
    ('sq_finset_op', 1, 'tight', 'duplicate_terminal_map'): [
        'cartesian: map s1 -> terminal not unique',
        'cartesian: pairing of (tf:1-0:,dup) not unique',
        'cartesian: pairing of (dup,tf:1-0:) not unique',
        'cartesian: pairing of (dup,tf:1-1:1) not unique',
        'cartesian: pairing of (tf:1-1:1,dup) not unique',
    ],
}


@pytest.mark.parametrize("case", list(GOLDEN), ids=lambda c: "-".join(
    str(part) for part in c))
def test_corrupted_theory_reports(case):
    assert corrupted_report(*case) == GOLDEN[case]
