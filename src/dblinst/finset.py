"""Finite sets, functions-as-tables, and spans of sets.

Everything downstream works with explicitly labelled finite sets.  A
function is stored as a dict from source labels to target labels; a span
is a pair of such tables out of an apex set.  Element order is always
label order, so constructions that pick representatives are
deterministic.  Joins go through ``fibers`` indexes, and every test
that a comparison map is a bijection onto a materialized limit goes
through ``is_bijection_onto``.
"""

from .errors import DuplicateLabel, ModelMismatch, NotAFunction


def pair_label(a, b):
    """Canonical label for an element of a materialized pullback/product."""
    return "({},{})".format(a, b)


class FiniteSet:
    """An ordered finite set of distinct string labels."""

    def __init__(self, labels):
        labels = [str(x) for x in labels]
        self._members = frozenset(labels)
        if len(self._members) != len(labels):
            labels.sort()
            raise DuplicateLabel("label {!r} is repeated in a finite set"
                                 .format(next(a for a, b in
                                              zip(labels, labels[1:])
                                              if a == b)))
        self.labels = tuple(sorted(labels))

    def __contains__(self, x):
        return x in self._members

    def __iter__(self):
        return iter(self.labels)

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return isinstance(other, FiniteSet) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return "FiniteSet({})".format(list(self.labels))


def identity_table(s):
    """Identity function on a FiniteSet, as a table."""
    return {x: x for x in s}


def compose_tables(f, g):
    """Composite table x |-> g[f[x]] (apply f first)."""
    return {x: g[fx] for x, fx in f.items()}


def is_function(table, src, dst):
    """Check that ``table`` is a total function src -> dst."""
    # set operations on the frozensets the FiniteSets hold, run in C
    return (table.keys() == src._members
            and dst._members.issuperset(table.values()))


def is_bijection(table, src, dst):
    return is_function(table, src, dst) and is_bijection_onto(table, dst)


def inverse_table(table):
    """Invert a bijective table."""
    inv = {v: k for k, v in table.items()}
    if len(inv) != len(table):
        raise NotAFunction("a table to invert is not injective")
    return inv


class Span:
    """A span of finite sets: src_set <- apex -> dst_set."""

    def __init__(self, src_set, dst_set, apex, left, right):
        if not isinstance(src_set, FiniteSet):
            raise NotAFunction("the source of a span is not a finite set")
        if not isinstance(dst_set, FiniteSet):
            raise NotAFunction("the target of a span is not a finite set")
        if not isinstance(apex, FiniteSet):
            raise NotAFunction("the apex of a span is not a finite set")
        if not is_function(left, apex, src_set):
            raise NotAFunction("left leg of a span is not a total function "
                               "from its apex to its source")
        if not is_function(right, apex, dst_set):
            raise NotAFunction("right leg of a span is not a total function "
                               "from its apex to its target")
        self.src_set = src_set
        self.dst_set = dst_set
        self.apex = apex
        self.left = dict(left)
        self.right = dict(right)

    def __eq__(self, other):
        return (isinstance(other, Span)
                and self.src_set == other.src_set
                and self.dst_set == other.dst_set
                and self.apex == other.apex
                and self.left == other.left
                and self.right == other.right)

    def __repr__(self):
        return "Span(apex={})".format(list(self.apex.labels))


def fibers(table, keys):
    """Index a table by its values.

    Returns a dict from each value of ``table`` on ``keys`` to the list
    of those keys that map to it, in the order the keys are given.  A
    join looks up the fiber over a value instead of scanning every key,
    and lists its matches in the order the scan would have.  Indexes
    are built per call and never stored, so they cannot go stale when a
    table is changed after construction.
    """
    index = {}
    for k in keys:
        v = table[k]
        if v in index:
            index[v].append(k)
        else:
            index[v] = [k]
    return index


def pullback_pairs(left_span, right_span):
    """Matching pairs of apex elements for a composable pair of spans.

    Returns the list of (xi, zeta) with right leg of ``left_span`` at xi
    equal to the left leg of ``right_span`` at zeta, in lexicographic
    order.  This is the materialized domain of a laxator.  It is a hash
    join: the apex of ``right_span`` is indexed by its left leg, and
    each xi is paired with the fiber over its right leg.  Spans that do
    not compose raise ModelMismatch.
    """
    if left_span.dst_set != right_span.src_set:
        raise ModelMismatch("the target of a span is not the source of the "
                            "span it is composed with")
    over = fibers(right_span.left, right_span.apex)
    right = left_span.right
    return [(xi, zeta) for xi in left_span.apex
            for zeta in over.get(right[xi], ())]


def product_set(a, b):
    """Cartesian product of two finite sets with canonical pair labels."""
    return FiniteSet([pair_label(x, y) for x in a for y in b])


def is_bijection_onto(table, limit):
    """Whether a comparison ``table`` is a bijection onto ``limit``, a
    sized collection of distinct elements such as a materialized product
    or pullback: its values are distinct and are those of ``limit``."""
    values = set(table.values())
    return (len(values) == len(table) == len(limit)
            and values.issuperset(limit))
