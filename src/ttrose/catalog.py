"""Catalog of connected simplicial n-vertex graphs up to isomorphism.

Edge sets are walked as masks in order with a table of those already
seen: the first unseen connected one opens a class, and its orbit under
the transposition of vertices 0 and 1 and the cycle through all of them
is marked seen.  n = 5 takes a fraction of a second and n = 7 about
10 s on 2 CPUs; n = 9 (rank 5) is refused.
Entries carry a canonical edge tuple so catalogs are stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .whitehead import (WhiteheadGraph, mask_action, mask_orbit, mask_pairs, pair_bits,
                        relabeling_generators)

MAX_VERTICES = 7


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


def connected_simplicial_graphs(n: int) -> list[GraphCatalogEntry]:
    """One entry per isomorphism class of connected simple graphs on n
    vertices, ordered by canonical form: the least sorted edge tuple
    over all relabelings, which is the largest mask of the orbit.
    ValueError below 1 vertex, or past MAX_VERTICES where the table of
    edge sets seen would take 2^36 bytes at n = 9."""
    if n < 1:
        raise ValueError(f"a graph needs at least one vertex, not {n}")
    if n > MAX_VERTICES:
        raise ValueError(f"the graph catalog stops at {MAX_VERTICES} vertices "
                         f"(rank {(MAX_VERTICES + 1) // 2}), not {n}")
    bits = pair_bits(range(n))
    relabelings = [mask_action(g, bits) for g in relabeling_generators(range(n))]
    seen = bytearray(1 << len(bits))
    canon = []
    for mask in range(len(seen)):
        if seen[mask] or mask.bit_count() < n - 1:
            continue
        adj: list[set[int]] = [set() for _ in range(n)]
        for a, b in mask_pairs(mask, bits):
            adj[a].add(b)
            adj[b].add(a)
        if any(not adj[v] for v in range(n)) or not _is_connected(n, adj):
            continue
        orbit = mask_orbit(mask, relabelings)
        for image in orbit:
            seen[image] = 1
        canon.append(mask_pairs(max(orbit), bits))
    return [GraphCatalogEntry(f"G{n}.{i:02d}", n, edges)
            for i, edges in enumerate(sorted(canon), start=1)]
