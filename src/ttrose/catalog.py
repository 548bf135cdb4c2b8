"""Catalog of connected simplicial n-vertex graphs up to isomorphism.

Exhaustive edge-subset enumeration with isomorphism rejection, feasible
for the desk-scale sizes used here (n = 5 instantly, n = 7 in minutes).
Entries carry a canonical edge tuple so catalogs are stable across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .whitehead import WhiteheadGraph, canonical_edge_tuple, find_isomorphism


@dataclass(frozen=True)
class GraphCatalogEntry:
    id: str
    num_vertices: int
    edges: tuple[tuple[int, int], ...]  # canonical form on vertices 0..n-1

    def graph(self) -> WhiteheadGraph:
        return WhiteheadGraph.build(range(self.num_vertices), self.edges)

    def to_json(self) -> dict:
        return {"id": self.id, "vertices": self.num_vertices,
                "edges": [list(e) for e in self.edges]}


def _is_connected(n: int, adj: list[set[int]]) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _invariant(n: int, edges: tuple[tuple[int, int], ...]) -> tuple:
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    degs = [len(adj[v]) for v in range(n)]
    profile = sorted((degs[v], tuple(sorted(degs[w] for w in adj[v]))) for v in range(n))
    triangles = sum(1 for a, b in edges for c in adj[a] if c in adj[b])
    return (len(edges), tuple(sorted(degs)), tuple(profile), triangles)


def connected_simplicial_graphs(n: int) -> list[GraphCatalogEntry]:
    """One entry per isomorphism class of connected simple graphs on n
    vertices, ordered by edge count then canonical form."""
    pairs = list(itertools.combinations(range(n), 2))
    buckets: dict[tuple, list[tuple[tuple[tuple[int, int], ...], WhiteheadGraph]]] = {}
    for mask in range(1 << len(pairs)):
        edges = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        if len(edges) < n - 1:
            continue
        adj: list[set[int]] = [set() for _ in range(n)]
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        if any(not adj[v] for v in range(n)) or not _is_connected(n, adj):
            continue
        key = _invariant(n, edges)
        bucket = buckets.setdefault(key, [])
        graph = WhiteheadGraph.build(range(n), edges)
        if any(find_isomorphism(graph, rep) is not None for _, rep in bucket):
            continue
        bucket.append((edges, graph))
    reps = [edges for bucket in buckets.values() for edges, _ in bucket]
    canon = sorted(canonical_edge_tuple(n, edges) for edges in reps)
    return [GraphCatalogEntry(f"G{n}.{i:02d}", n, edges)
            for i, edges in enumerate(canon, start=1)]
