"""Bounded closure of finitely presented categories by coset enumeration.

A Todd-Coxeter coset table (Carmody & Walters, "The Todd-Coxeter
procedure and left Kan extensions", 1991) with one root per object: a
node is a class of generator words out of its root, and its edges
compose with one more generator.  Processing a node defines its
out-edges, traces every relation starting at its object from it and
identifies the two ends; identifying two nodes identifies their
successors, so every identification follows from the relations.

``bound`` caps normal-form length.  Level ``n`` is checked once every
class whose least known word is at most ``n + 1`` long is processed, as
relations traced there can still collapse classes of length ``n``; each
round ends with the one least-word scan that finds nothing left to
process, level ``n`` is checked on the previous round's words, and the
next round starts from that scan.
Closure succeeds at the first level with no class left, so every
shortlex-least word is shorter than ``bound``.  More than
``max_classes`` classes up to a level raise HomSetTooLarge; classes left
at length ``bound`` raise HomSetNotFinite, also in the rare finite
presentation that needs relations traced at longer words.  Classes are
named by their shortlex-least words, found by a breadth-first search in
generator declaration order, so all downstream tables are deterministic.

Every closure is certified before its category is read off, with no
size cut-off and also under ``python -O``: every live class has each
out-edge of its object, to a live class, and every relation at its
object, traced from it, ends at one class.  Identifications follow from
the relations by construction, so tracing is then the action of the
presented category, and the composition read off it is associative and
unital.  The check is linear in classes times relations; a failure
raises ``SelfCheckFailed``.  Each least word extends the least word of
a class listed before it by one generator, so each composite is one
step from the composite with that prefix.
"""

from collections import deque

from .errors import (HomSetNotFinite, HomSetTooLarge, IllFormedPresentation,
                     IllFormedRelation, NameClash, SelfCheckFailed)
from .fincat import FinCategory

_WORD_SEP = ";"
DEFAULT_BOUND = 8
DEFAULT_MAX_CLASSES = 10000


class ClosedWordCategory:
    """The result of closing a presentation: an explicit finite category
    together with the map from generator words to morphism names.

    ``category`` is the FinCategory of the least-word classes,
    ``rep_words`` maps each morphism name to its (source, least word),
    and ``word_class`` names the class of any composable word.  The
    coset table behind them is certified when it closes (see the module
    docstring), so a corrupted table raises ``SelfCheckFailed`` instead
    of returning."""

    def __init__(self, objects, generators, relations, bound,
                 max_classes=DEFAULT_MAX_CLASSES):
        if bound < 1:
            raise IllFormedPresentation(
                "word bound {} is below 1".format(bound))
        self.objects = list(objects)
        self.generators = dict(generators)
        self._out = {o: [] for o in self.objects}
        for g, (s, d) in self.generators.items():
            undeclared = [o for o in (s, d) if o not in self._out]
            if undeclared:
                raise IllFormedPresentation(
                    "generator {} has undeclared endpoint {}"
                    .format(g, undeclared[0]))
            self._out[s].append(g)
        self._dst = {g: d for g, (_, d) in self.generators.items()}
        self._relations = {}
        for r in relations:
            src, _, w1, w2 = self._check_relation(r)
            self._relations.setdefault(src, []).append((w1, w2))
        self._target, self._edges, self._parent, self._done = [], [], [], []
        self._root = {o: self._new(o) for o in self.objects}
        self._build(self._close(bound, max_classes))

    # -- presentation sanity ------------------------------------------------

    def _check_relation(self, rel):
        src, dst, w1, w2 = rel
        for w in (w1, w2):
            end = self._end(src, w)
            if end is None:
                raise IllFormedRelation(
                    "word {} does not start at {}".format(list(w), src))
            if end != dst:
                raise IllFormedRelation(
                    "relation words are not parallel at {}".format(list(w)))
        return (src, dst, tuple(w1), tuple(w2))

    def _end(self, src, gens):
        """The object a word ends at, or None if it does not compose."""
        generators, at = self.generators, src
        for g in gens:
            info = generators.get(g)
            if info is None or info[0] != at:
                return None
            at = info[1]
        return at

    # -- coset table ----------------------------------------------------------

    def _new(self, obj):
        self._target.append(obj)
        self._edges.append({})
        self._parent.append(len(self._parent))
        self._done.append(False)
        return len(self._parent) - 1

    def _find(self, n):
        parent = self._parent
        root = n
        while parent[root] != root:
            root = parent[root]
        while parent[n] != root:
            parent[n], n = root, parent[n]
        return root

    def _trace(self, n, word):
        """End of ``word`` traced from node ``n``, defining missing edges."""
        parent, edges_of, dst = self._parent, self._edges, self._dst
        for g in word:
            if parent[n] != n:
                n = self._find(n)
            edges = edges_of[n]
            m = edges.get(g)
            if m is None:
                m = edges[g] = self._new(dst[g])
            n = m
        return n if parent[n] == n else self._find(n)

    def _identify(self, a, b):
        parent, done, edges_of, find = \
            self._parent, self._done, self._edges, self._find
        pending = [(a, b)]
        while pending:
            a, b = pending.pop()
            if parent[a] != a:
                a = find(a)
            if parent[b] != b:
                b = find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            done[a] = done[a] or done[b]
            edges = edges_of[a]
            for g, m in edges_of[b].items():
                if g in edges:
                    pending.append((edges[g], m))
                else:
                    edges[g] = m
            edges_of[b] = None

    def _process(self, n):
        n = self._find(n)
        obj = self._target[n]
        edges = self._edges[n]
        for g in self._out[obj]:
            if g not in edges:
                edges[g] = self._new(self._dst[g])
        trace = self._trace
        for w1, w2 in self._relations.get(obj, ()):
            a = trace(n, w1)
            b = trace(n, w2)
            if a != b:
                self._identify(a, b)
        self._done[self._find(n)] = True

    def _least_words(self):
        """Live nodes in shortlex order, each with its least known word."""
        parent, edges_of, target, out, find = \
            self._parent, self._edges, self._target, self._out, self._find
        words = {}
        for o, root in self._root.items():
            if parent[root] != root:
                root = find(root)
            words[root] = (o, ())
            queue = deque([root])
            while queue:
                n = queue.popleft()
                src, gens = words[n]
                edges = edges_of[n]
                for g in out[target[n]]:
                    m = edges.get(g)
                    if m is not None:
                        if parent[m] != m:
                            m = find(m)
                        if m not in words:
                            words[m] = (src, gens + (g,))
                            queue.append(m)
        return words

    def _process_up_to(self, length, words):
        """Process every class with a least known word up to ``length``,
        starting from ``words``, the least words of the table as it
        stands; returns the least words of the scan that found none
        left."""
        while True:
            todo = [n for n, (_, gens) in words.items()
                    if len(gens) <= length and not self._done[n]]
            if not todo:
                return words
            for n in todo:
                if not self._done[self._find(n)]:
                    self._process(n)
            words = self._least_words()

    def _close(self, bound, max_classes):
        words = self._process_up_to(1, self._least_words())
        for length in range(1, bound + 1):
            known = sum(1 for _, gens in words.values() if len(gens) <= length)
            if known > max_classes:
                raise HomSetTooLarge(
                    "{} congruence classes exceed cap".format(known))
            words = self._process_up_to(length + 1, words)
            if not any(len(gens) == length for _, gens in words.values()):
                return words
        raise HomSetNotFinite(
            "new morphism classes still appear at word length {}".format(bound))

    # -- certificate and explicit category -----------------------------------

    def _certify(self, words):
        """Check the closed table: every live class has each out-edge of
        its object, to a live class, and every relation at its object,
        traced from it, ends at one class.  Returns the successor of each
        live class along each generator.  Raises SelfCheckFailed."""
        parent, edges_of, target, out, find = \
            self._parent, self._edges, self._target, self._out, self._find
        step = {}
        for n in words:
            edges, row = edges_of[n], {}
            for g in out[target[n]]:
                m = edges.get(g)
                if m is not None and parent[m] != m:
                    m = find(m)
                if m not in words:
                    raise SelfCheckFailed(
                        "closure class {} has no live successor along {}"
                        .format(_word_name(*words[n]), g))
                row[g] = m
            step[n] = row
        relations = self._relations
        for n in words:
            for w1, w2 in relations.get(target[n], ()):
                a = b = n
                for g in w1:
                    a = step[a][g]
                for g in w2:
                    b = step[b][g]
                if a != b:
                    raise SelfCheckFailed(
                        "relation {} = {} fails at closure class {}".format(
                            list(w1), list(w2), _word_name(*words[n])))
        return step

    def _build(self, words):
        step = self._certify(words)
        names, identity = {}, {}
        self._name = name_of = {}
        self.rep_words = {}   # morphism name -> (src, generator word)
        by_src = {o: [] for o in self.objects}
        node_of = {}
        for n, (src, gens) in words.items():
            name = _word_name(src, gens)
            if name in names:
                raise NameClash("two closure morphisms are named {}"
                                .format(name))
            names[name] = (src, self._target[n])
            name_of[n] = name
            self.rep_words[name] = (src, gens)
            by_src[src].append(n)
            node_of[(src, gens)] = n
            if not gens:
                identity[src] = name
        # each least word extends a least word listed before it by one
        # generator, so n1 composed with it is one step from n1 composed
        # with that prefix
        tree = {o: [(n, node_of[(o, words[n][1][:-1])], words[n][1][-1])
                    for n in nodes[1:]]
                for o, nodes in by_src.items()}
        comp = {}
        for n1, name1 in name_of.items():
            o = self._target[n1]
            row = {by_src[o][0]: n1}
            comp[(name1, name_of[by_src[o][0]])] = name1
            for n2, prefix, g in tree[o]:
                m = row[n2] = step[row[prefix]][g]
                comp[(name1, name_of[n2])] = name_of[m]
        self.category = FinCategory(self.objects, names, identity, comp)

    def word_class(self, src, gens):
        """Morphism name of a generator word starting at ``src``."""
        if src not in self._root or self._end(src, gens) is None:
            raise IllFormedRelation(
                "word {} does not compose from {}".format(list(gens), src))
        return self._name[self._trace(self._root[src], gens)]


def _word_name(src, gens):
    """The morphism name of a least word: ``id:src`` or its generators
    joined by ``;``."""
    return "id:{}".format(src) if not gens else _WORD_SEP.join(gens)
