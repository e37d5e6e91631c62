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
process, and level ``n`` is checked on the previous round's words.
Closure succeeds at the first level with no class left, so every
shortlex-least word is shorter than ``bound``.  More than
``max_classes`` classes up to a level raise HomSetTooLarge; classes left
at length ``bound`` raise HomSetNotFinite, also in the rare finite
presentation that needs relations traced at longer words.  Classes are
named by their shortlex-least words, found by a breadth-first search in
generator declaration order, so all downstream tables are deterministic.
"""

from collections import deque

from .errors import (HomSetNotFinite, HomSetTooLarge, IllFormedPresentation,
                     IllFormedRelation, NameClash)
from .fincat import FinCategory

_WORD_SEP = ";"
DEFAULT_BOUND = 8
DEFAULT_MAX_CLASSES = 10000


class ClosedWordCategory:
    """The result of closing a presentation: an explicit finite category
    together with the map from generator words to morphism names."""

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
            path = self._path(src, tuple(w))
            if path is None:
                raise IllFormedRelation(
                    "word {} does not start at {}".format(list(w), src))
            if path[-1] != dst:
                raise IllFormedRelation(
                    "relation words are not parallel at {}".format(list(w)))
        return (src, dst, tuple(w1), tuple(w2))

    def _path(self, src, gens):
        """Objects visited by a word, or None if not composable."""
        path = [src]
        for g in gens:
            info = self.generators.get(g)
            if info is None or info[0] != path[-1]:
                return None
            path.append(info[1])
        return path

    # -- coset table ----------------------------------------------------------

    def _new(self, obj):
        self._target.append(obj)
        self._edges.append({})
        self._parent.append(len(self._parent))
        self._done.append(False)
        return len(self._parent) - 1

    def _find(self, n):
        root = n
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[n] != root:
            self._parent[n], n = root, self._parent[n]
        return root

    def _step(self, n, g):
        """Successor of node ``n`` along ``g``, defined if missing."""
        edges = self._edges[self._find(n)]
        if g not in edges:
            edges[g] = self._new(self.generators[g][1])
        return self._find(edges[g])

    def _trace(self, n, word):
        for g in word:
            n = self._step(n, g)
        return n

    def _identify(self, a, b):
        pending = [(a, b)]
        while pending:
            a, b = sorted(map(self._find, pending.pop()))
            if a == b:
                continue
            self._parent[b] = a
            self._done[a] = self._done[a] or self._done[b]
            edges = self._edges[a]
            for g, m in self._edges[b].items():
                if g in edges:
                    pending.append((edges[g], m))
                else:
                    edges[g] = m
            self._edges[b] = None

    def _process(self, n):
        obj = self._target[n]
        for g in self._out[obj]:
            self._step(n, g)
        for w1, w2 in self._relations.get(obj, ()):
            self._identify(self._trace(n, w1), self._trace(n, w2))
        self._done[self._find(n)] = True

    def _least_words(self):
        """Live nodes in shortlex order, each with its least known word."""
        words = {}
        for o, root in self._root.items():
            queue = deque([self._find(root)])
            words[queue[0]] = (o, ())
            while queue:
                n = queue.popleft()
                src, gens = words[n]
                edges = self._edges[n]
                for g in self._out[self._target[n]]:
                    if g in edges:
                        m = self._find(edges[g])
                        if m not in words:
                            words[m] = (src, gens + (g,))
                            queue.append(m)
        return words

    def _process_up_to(self, length):
        """Process every class with a least known word up to ``length``;
        returns the least words of the scan that found none left."""
        while True:
            words = self._least_words()
            todo = [n for n, (_, gens) in words.items()
                    if len(gens) <= length and not self._done[n]]
            if not todo:
                return words
            for n in todo:
                if not self._done[self._find(n)]:
                    self._process(n)

    def _close(self, bound, max_classes):
        words = self._process_up_to(1)
        for length in range(1, bound + 1):
            known = sum(1 for _, gens in words.values() if len(gens) <= length)
            if known > max_classes:
                raise HomSetTooLarge(
                    "{} congruence classes exceed cap".format(known))
            words = self._process_up_to(length + 1)
            if not any(len(gens) == length for _, gens in words.values()):
                return words
        raise HomSetNotFinite(
            "new morphism classes still appear at word length {}".format(bound))

    # -- explicit category ---------------------------------------------------

    def _build(self, words):
        names, identity = {}, {}
        self._name = {}
        self.rep_words = {}   # morphism name -> (src, generator word)
        by_src = {o: [] for o in self.objects}
        for n, (src, gens) in words.items():
            name = "id:{}".format(src) if not gens else _WORD_SEP.join(gens)
            if name in names:
                raise NameClash("two closure morphisms are named {}"
                                .format(name))
            names[name] = (src, self._target[n])
            self._name[n] = name
            self.rep_words[name] = (src, gens)
            by_src[src].append(n)
            if not gens:
                identity[src] = name
        comp = {}
        for n1, name1 in self._name.items():
            for n2 in by_src.get(self._target[n1], ()):
                comp[(name1, self._name[n2])] = \
                    self._name[self._trace(n1, words[n2][1])]
        self.category = FinCategory(self.objects, names, identity, comp)
        if len(names) <= 120:
            problems = self.category.validate()
            assert not problems, "closure produced a non-category: {}".format(problems)

    def word_class(self, src, gens):
        """Morphism name of a generator word starting at ``src``."""
        if src not in self._root or self._path(src, tuple(gens)) is None:
            raise IllFormedRelation(
                "word {} does not compose from {}".format(list(gens), src))
        return self._name[self._trace(self._root[src], gens)]
