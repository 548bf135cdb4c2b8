"""Simple vertex-labeled graphs and the package's two traversals.

The same small-graph type serves the local and stable Whitehead graphs
of a map (vertices are direction labels), the purple part of a
lamination train track structure, and abstract target graphs.
tarjan_scc finds strongly connected components: a graph's connected
components, and those of the birecurrency digraph and of the ID diagram
(hundreds of thousands of arcs).  mask_orbit walks an orbit breadth
first: of an edge bitmask under relabelings acting by tables, two of
which generate every permutation of a set of labels (the labeled copies
of a target, the catalog's isomorphism classes, the K-orbits of a slice
of structures), and of a component index under EPP.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

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
        """Connected components, ordered by their first vertex in repr
        order: the strongly connected components with each edge taken both
        ways, one per root of the walk."""
        order = sorted(self.vertices, key=repr)
        position = {v: i for i, v in enumerate(order)}
        arcs: list[list[int]] = [[] for _ in order]
        for a, b in self.edges:
            arcs[position[a]].append(position[b])
            arcs[position[b]].append(position[a])
        return [frozenset(order[i] for i in comp) for comp in tarjan_scc(arcs)]

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        return len(self.components()) == 1

    def sorted_edges(self) -> list[tuple]:
        return sorted(self.edges, key=repr)


def tarjan_scc(arcs: Sequence[Sequence[int]]) -> list[list[int]]:
    """Iterative Tarjan on the nodes 0..len(arcs)-1; components in reverse
    topological order.  Each node on the walk keeps an iterator over its
    arcs and its place on the node stack.  A node that joins a component
    gets an index past every other, so a later arc into it lowers no
    lowlink and no on-stack flag is needed."""
    num_nodes = len(arcs)
    index_of = [-1] * num_nodes
    lowlink = [0] * num_nodes
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(num_nodes):
        if index_of[root] >= 0:
            continue
        index_of[root] = lowlink[root] = counter
        counter += 1
        work = [(root, iter(arcs[root]), len(stack))]
        stack.append(root)
        while work:
            v, successors, place = work[-1]
            for w in successors:
                if index_of[w] < 0:
                    index_of[w] = lowlink[w] = counter
                    counter += 1
                    work.append((w, iter(arcs[w]), len(stack)))
                    stack.append(w)
                    break
                if index_of[w] < lowlink[v]:
                    lowlink[v] = index_of[w]
            else:
                work.pop()
                low = lowlink[v]
                if work:
                    parent = work[-1][0]
                    if low < lowlink[parent]:
                        lowlink[parent] = low
                if low == index_of[v]:
                    comp = stack[place:]
                    del stack[place:]
                    for w in comp:
                        index_of[w] = num_nodes
                    sccs.append(comp)
    return sccs


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


def mask_orbit(start: int, actions: Sequence,
               image: Callable = mask_image) -> dict[int, tuple[int, int] | None]:
    """The orbit of start under the group the actions generate, breadth
    first, each member with the (parent, index of the action) that first
    reached it, start with None.  image(member, action) is the action on
    a member, by default a mask_action's on an edge mask.  The cost grows
    with the orbit, not with the group."""
    orbit: dict[int, tuple[int, int] | None] = {start: None}
    queue = [start]
    for member in queue:
        for g, action in enumerate(actions):
            found = image(member, action)
            if found not in orbit:
                orbit[found] = (member, g)
                queue.append(found)
    return orbit
