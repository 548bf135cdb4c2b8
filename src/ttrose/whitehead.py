"""Simple vertex-labeled graphs: Whitehead graphs, index lists, relabelings.

The same small-graph type serves the local and stable Whitehead graphs
of a map (vertices are direction labels), the purple part of a
lamination train track structure, and abstract target graphs.  All
instances here are tiny (at most a dozen vertices).  Relabeling
problems (the labeled copies of a target, the catalog's isomorphism
classes, the K-orbits of a slice of structures) are orbits of an edge
bitmask, walked breadth first under generators acting by tables: two
generate every permutation of a set of labels.
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


def pair_bits(labels: Sequence[int]) -> dict[tuple[int, int], int]:
    """Each pair of the sorted labels' bit in an edge mask, the least pair
    the highest bit: of two edge sets of one size, the larger mask is the
    earlier sorted tuple."""
    pairs = list(itertools.combinations(labels, 2))
    return {p: 1 << (len(pairs) - 1 - i) for i, p in enumerate(pairs)}


def mask_pairs(mask: int, bits: dict[tuple[int, int], int]) -> tuple[tuple[int, int], ...]:
    """The pairs whose bits are set in the mask, sorted."""
    return tuple(p for p, bit in bits.items() if mask & bit)


def relabeling_generators(labels: Sequence[int]) -> list[dict[int, int]]:
    """The transposition of the first two labels and the cycle through all
    of them, each as the image of every label it moves: they generate every
    permutation of the labels (the cycle is left out for two labels, where
    it is the transposition, and both for fewer)."""
    if len(labels) < 2:
        return []
    swap = {labels[0]: labels[1], labels[1]: labels[0]}
    if len(labels) == 2:
        return [swap]
    return [swap, dict(zip(labels, [*labels[1:], labels[0]]))]


Action = tuple[int, dict[int, int]]


def mask_action(perm: dict[int, int], bits: dict[tuple[int, int], int]) -> Action:
    """How the permutation of labels sending each key of perm to its value,
    and fixing the others, acts on edge masks: the bits of the pairs in
    bits that it moves, and the image bit of each; other bits are kept."""
    table = {}
    for (u, v), bit in bits.items():
        if u in perm or v in perm:
            a, b = perm.get(u, u), perm.get(v, v)
            image = bits[(a, b) if a < b else (b, a)]
            if image != bit:
                table[bit] = image
    return sum(table), table


def mask_image(mask: int, action: Action) -> int:
    """The image of an edge mask under a mask_action."""
    support, table = action
    moved = mask & support
    image = mask ^ moved
    while moved:
        low = moved & -moved
        image |= table[low]
        moved ^= low
    return image


def mask_orbit(start: int, actions: Sequence[Action]) -> dict[int, tuple[int, int] | None]:
    """The orbit of an edge mask under the group the actions generate,
    breadth first from start, each member with the (parent, index of the
    action) that first reached it, start with None.  The cost grows with
    the orbit, not with the group."""
    orbit: dict[int, tuple[int, int] | None] = {start: None}
    queue = [start]
    for mask in queue:
        for g, action in enumerate(actions):
            image = mask_image(mask, action)
            if image not in orbit:
                orbit[image] = (mask, g)
                queue.append(image)
    return orbit
