"""Catalog of connected simplicial n-vertex graphs up to isomorphism.

Edge sets are walked as masks in order with a table of those already
seen: each unseen one with at least n - 1 edges opens a class, its orbit
under the transposition of vertices 0 and 1 and the cycle through all of
them is marked seen, and connectivity is decided once per class.  n = 5
takes a fraction of a second and n = 7 about 10 s on 2 CPUs; n = 9
(rank 5) is refused.
Entries carry a canonical edge tuple so catalogs are stable across runs.
"""

from __future__ import annotations

from ._record import record
from .whitehead import (WhiteheadGraph, mask_action, mask_orbit, mask_pairs, pair_bits,
                        relabeling_generators)

MAX_VERTICES = 7


@record
class GraphCatalogEntry:
    id: str
    num_vertices: int
    edges: tuple[tuple[int, int], ...]  # canonical form on vertices 0..n-1

    def graph(self) -> WhiteheadGraph:
        return WhiteheadGraph.build(range(self.num_vertices), self.edges)

    def to_json(self) -> dict:
        return {"id": self.id, "vertices": self.num_vertices,
                "edges": [list(e) for e in self.edges]}


def connected_simplicial_graphs(n: int) -> list[GraphCatalogEntry]:
    """One entry per isomorphism class of connected simple graphs on n
    vertices with at least one edge (none at n = 1: the walk starts at mask 1),
    ordered by canonical form: the least sorted edge tuple over all
    relabelings, which is the largest mask of the orbit.
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
    for mask in range(1, len(seen)):
        if seen[mask] or mask.bit_count() < n - 1:
            continue
        orbit = mask_orbit(mask, relabelings)
        for image in orbit:
            seen[image] = 1
        edges = mask_pairs(max(orbit), bits)
        if WhiteheadGraph.build(range(n), edges).is_connected():
            canon.append(edges)
    return [GraphCatalogEntry(f"G{n}.{i:02d}", n, edges)
            for i, edges in enumerate(sorted(canon), start=1)]
