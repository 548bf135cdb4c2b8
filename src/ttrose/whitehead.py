"""Simple vertex-labeled graphs: Whitehead graphs, index lists, relabelings.

The same small-graph type serves the local and stable Whitehead graphs
of a map (vertices are direction labels), the purple part of a
lamination train track structure, and abstract target graphs.  All
instances here are tiny (at most a dozen vertices).  Relabeling
problems (the labeled copies of a target, the isomorphism classes of
the catalog) are answered by the orbit of a graph's edge tuple under
the symmetric group, walked one adjacent transposition at a time.
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


def relabelings(n: int, edges: Iterable[tuple[int, int]]) -> list[tuple[tuple[int, int], ...]]:
    """Every distinct sorted edge tuple that relabeling the vertices
    0..n-1 makes of the graph, the graph's own tuple first.

    Breadth-first search under the n-1 adjacent transpositions, which
    generate the symmetric group, so the cost grows with the orbit (n!
    over the number of automorphisms), not with n!.  Every image shares
    one tuple object per vertex pair.
    """
    pair = {p: p for p in itertools.combinations(range(n), 2)}
    swaps = []
    for i in range(n - 1):
        t = list(range(n))
        t[i], t[i + 1] = i + 1, i
        swaps.append({(a, b): pair[min(t[a], t[b]), max(t[a], t[b])] for a, b in pair})
    start = tuple(sorted(pair[tuple(sorted(e))] for e in edges))
    seen = {start}
    orbit = [start]
    for g in orbit:
        for swap in swaps:
            img = tuple(sorted(swap[e] for e in g))
            if img not in seen:
                seen.add(img)
                orbit.append(img)
    return orbit
