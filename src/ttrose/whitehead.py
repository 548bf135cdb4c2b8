"""Simple vertex-labeled graphs: Whitehead graphs, index lists, isomorphism.

The same small-graph type serves the local and stable Whitehead graphs
of a map (vertices are direction labels), the purple part of a
lamination train track structure, and abstract target graphs.  All
instances here are tiny (at most a dozen vertices), so isomorphism is
exhaustive search with degree pruning and canonical forms are computed
by minimizing over permutations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Sequence

Vertex = Hashable


def _norm_edge(u: Vertex, v: Vertex) -> tuple:
    if u == v:
        raise ValueError(f"loop edge at {u!r}")
    try:
        a, b = sorted((u, v))
    except TypeError:
        a, b = sorted((u, v), key=repr)
    return (a, b)


@dataclass(frozen=True)
class WhiteheadGraph:
    """A finite simple graph on labeled vertices."""

    vertices: frozenset
    edges: frozenset

    @staticmethod
    def build(vertices: Iterable[Vertex], edges: Iterable[Sequence[Vertex]]) -> "WhiteheadGraph":
        vs = frozenset(vertices)
        es = set()
        for e in edges:
            u, v = e
            ne = _norm_edge(u, v)
            if ne[0] not in vs or ne[1] not in vs:
                raise ValueError(f"edge {e!r} uses a vertex outside the vertex set")
            es.add(ne)
        return WhiteheadGraph(vs, frozenset(es))

    def degree(self, v: Vertex) -> int:
        return sum(1 for e in self.edges if v in e)

    def neighbors(self, v: Vertex) -> set:
        out = set()
        for a, b in self.edges:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return out

    def components(self) -> list[frozenset]:
        """Connected components, sorted for determinism."""
        seen: set = set()
        comps = []
        adj = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        for v in sorted(self.vertices, key=repr):
            if v in seen:
                continue
            stack = [v]
            comp = set()
            while stack:
                x = stack.pop()
                if x in comp:
                    continue
                comp.add(x)
                stack.extend(adj[x] - comp)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        return len(self.components()) == 1

    def sorted_edges(self) -> list[tuple]:
        return sorted(self.edges, key=repr)


def index_list(graph: WhiteheadGraph) -> list[Fraction]:
    """One entry 1 - k/2 per connected component with k vertices.

    Sorted ascending so lists compare as multisets.
    """
    return sorted(Fraction(1) - Fraction(len(c), 2) for c in graph.components())


def _degree_profile(graph: WhiteheadGraph) -> dict:
    degs = {v: graph.degree(v) for v in graph.vertices}
    profile = {}
    for v in graph.vertices:
        nd = tuple(sorted(degs[w] for w in graph.neighbors(v)))
        profile[v] = (degs[v], nd)
    return profile


def find_isomorphism(g1: WhiteheadGraph, g2: WhiteheadGraph) -> dict | None:
    """A vertex bijection realizing an isomorphism, or None."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None
    p1, p2 = _degree_profile(g1), _degree_profile(g2)
    if sorted(p1.values()) != sorted(p2.values()):
        return None
    order = sorted(g1.vertices, key=lambda v: (p1[v], repr(v)))
    candidates = {v: [w for w in g2.vertices if p2[w] == p1[v]] for v in order}
    adj1 = {v: g1.neighbors(v) for v in g1.vertices}
    adj2 = {v: g2.neighbors(v) for v in g2.vertices}
    mapping: dict = {}
    used: set = set()

    def extend(i: int):
        if i == len(order):
            return dict(mapping)
        v = order[i]
        for w in sorted(candidates[v], key=repr):
            if w in used:
                continue
            if any((v2 in adj1[v]) != (w2 in adj2[w]) for v2, w2 in mapping.items()):
                continue
            mapping[v] = w
            used.add(w)
            res = extend(i + 1)
            if res is not None:
                return res
            del mapping[v]
            used.discard(w)
        return None

    return extend(0)


def canonical_edge_tuple(n: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Canonical form of a graph on vertices 0..n-1: the lexicographically
    least sorted edge tuple over all vertex relabelings.

    Exhaustive over n! permutations; fine for n <= 9 given degree-class
    pruning in the callers (catalog generation batches by invariants).
    """
    edge_list = [tuple(sorted(e)) for e in edges]
    best: tuple | None = None
    for perm in itertools.permutations(range(n)):
        img = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edge_list))
        if best is None or img < best:
            best = img
    assert best is not None
    return best
