"""Signed graphs and signed categories as models of the sign theory.

A model of the sign theory is a category together with a sign (+1/-1)
on each arrow, multiplicative under composition: the even arrows sit in
the apex of the loose identity, the odd arrows in the apex of the
nonidentity loose arrow, and the laxators are composition.

Free signed categories on a graph are finite only when the graph is
acyclic; graphs with cycles can still produce finite signed categories
through explicit relations (for the fixtures: involutive loop edges).
"""

from math import prod

from .errors import (FreeCategoryNotFinite, HomSetNotFinite,
                     IllFormedPresentation, IllFormedRelation)
from .finset import FiniteSet, Span, pullback_pairs
from .model import SpanModel
from .theories import signed_theory
from .words import ClosedWordCategory


class SignedGraph:
    def __init__(self, vertices, edges):
        """``edges`` is a list of (name, src, dst, sign) with sign +1/-1;
        any other sign, or an undeclared endpoint, raises
        ``IllFormedPresentation``."""
        self.vertices = list(vertices)
        self.edges = list(edges)
        for name, src, dst, sign in self.edges:
            undeclared = [v for v in (src, dst) if v not in self.vertices]
            if undeclared:
                raise IllFormedPresentation(
                    "edge {} has undeclared endpoint {}"
                    .format(name, undeclared[0]))
            if sign not in (+1, -1):
                raise IllFormedPresentation(
                    "edge {} has sign {}, not +1 or -1".format(name, sign))

    def loops(self):
        return [(n, s, d, sg) for n, s, d, sg in self.edges if s == d]


def _model_from_closure(graph, closure):
    """Package a closed signed word category as a model."""
    theory = signed_theory()
    cat = closure.category
    sign_of_edge = {name: sign for name, _, _, sign in graph.edges}
    sign = {f: prod(sign_of_edge[g] for g in closure.rep_words[f][1])
            for f in cat.morphisms}

    vertices = FiniteSet(graph.vertices)
    spans = {}
    for m, parity in (("id:*", +1), ("sigma", -1)):
        arrows = FiniteSet(f for f in cat.morphisms if sign[f] == parity)
        spans[m] = Span(vertices, vertices, arrows,
                        {f: cat.src(f) for f in arrows},
                        {f: cat.dst(f) for f in arrows})
    laxators = {(m, n): {(f, g): cat.comp[(f, g)]
                         for f, g in pullback_pairs(spans[m], spans[n])}
                for m in spans for n in spans}
    unitors = {"*": {v: cat.identity[v] for v in vertices}}
    on_cells = {theory.cell_id_loose[m]: {f: f for f in spans[m].apex}
                for m in spans}
    model = SpanModel(theory, {"*": vertices}, {"id:*": {v: v for v in vertices}},
                      spans, on_cells, laxators, unitors)
    model.arrow_category = cat
    model.arrow_sign = sign
    model.word_closure = closure
    return model


def quotient_signed_category(graph, relations, bound):
    """Signed category presented by a graph and sign-preserving relations.

    Relations are (src, dst, word1, word2) over edge names; each side
    must have the same sign parity, so the sign descends to the
    quotient.  A relation over an unknown edge or changing the sign
    raises IllFormedRelation.
    """
    sign_of_edge = {name: sign for name, _, _, sign in graph.edges}
    for _, _, w1, w2 in relations:
        unknown = set(w1).union(w2) - sign_of_edge.keys()
        if unknown:
            raise IllFormedRelation("relation names unknown edges {}"
                                    .format(sorted(unknown)))
        if prod(sign_of_edge[g] for g in w1) != \
                prod(sign_of_edge[g] for g in w2):
            raise IllFormedRelation("relation {} = {} does not preserve the "
                                    "sign".format(list(w1), list(w2)))
    gens = {name: (src, dst) for name, src, dst, _ in graph.edges}
    try:
        closure = ClosedWordCategory(graph.vertices, gens, relations, bound)
    except HomSetNotFinite as e:
        raise FreeCategoryNotFinite(str(e))
    return _model_from_closure(graph, closure)


def free_signed_category(graph, max_path_len):
    """The free signed category on a graph, as a model of the sign theory.

    Errors with FreeCategoryNotFinite when paths of length
    ``max_path_len`` exist (the graph has a long path or a cycle).
    """
    return quotient_signed_category(graph, [], max_path_len)


def involutive_loop_category(graph, bound):
    """Quotient of the free signed category making every loop edge an
    involution; finite whenever the graph minus its loops is acyclic.

    This is the finite stand-in for graphs with feedback: each loop
    survives as a nontrivial endo-arrow squaring to the identity, so
    feedback loops remain visible to model-morphism search.
    """
    relations = [(v, v, (name, name), ())
                 for name, v, _, _ in graph.loops()]
    return quotient_signed_category(graph, relations, bound)


def walking_feedback_loop(sign):
    """The walking feedback loop of length 1 with the given sign.

    One object with a single nonidentity endo-arrow of the requested
    sign, squaring to the identity (the smallest signed category
    containing a loop of that sign).
    """
    graph = SignedGraph(["*"], [("loop", "*", "*", sign)])
    return involutive_loop_category(graph, 4)


def model_morphism_from_graph_map(source_model, target_model, vertex_map,
                                  edge_map):
    """The morphism of free/quotient signed categories induced by a
    graph map (vertices to vertices, edges to edge words)."""
    from .model import ModelMorphism
    src_cat = source_model.arrow_category
    tgt = target_model.word_closure

    def image(name):
        src, gens = source_model.word_closure.rep_words[name]
        word = tuple(h for g in gens for h in edge_map[g])
        return tgt.word_class(vertex_map[src], word)

    tables = {"id:*": {}, "sigma": {}}
    for f in src_cat.morphisms:
        parity = "id:*" if source_model.arrow_sign[f] == +1 else "sigma"
        tables[parity][f] = image(f)
    return ModelMorphism(source_model, target_model,
                         {"*": dict(vertex_map)}, tables)
