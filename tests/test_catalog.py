import pytest

from oracles import canonical_edge_tuple, find_isomorphism, relabelings_by_permutations
from ttrose.catalog import connected_simplicial_graphs
from ttrose.whitehead import mask_action, mask_orbit, mask_pairs, pair_bits


def test_connected_graph_counts():
    # known counts of connected simple graphs up to isomorphism
    assert len(connected_simplicial_graphs(3)) == 2
    assert len(connected_simplicial_graphs(4)) == 6
    assert len(connected_simplicial_graphs(5)) == 21
    assert len(connected_simplicial_graphs(6)) == 112
    # a graph with an isolated vertex is not an entry
    assert connected_simplicial_graphs(1) == []
    # no vertices at all is refused, not an IndexError
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"^a graph needs at least one vertex, not {n}$"):
            connected_simplicial_graphs(n)
    # the table of edge sets seen would take 2^36 bytes at n = 9
    with pytest.raises(ValueError,
                       match=r"^the graph catalog stops at 7 vertices \(rank 4\), not 9$"):
        connected_simplicial_graphs(9)


def test_entries_are_connected_and_distinct():
    for n in range(2, 6):
        entries = connected_simplicial_graphs(n)
        for e in entries:
            g = e.graph()
            assert len(g.vertices) == n
            assert g.is_connected()
            # an entry is the least of its relabelings, which are exactly
            # the images under all n! permutations, and the largest mask of
            # its orbit
            bits = pair_bits(range(n))
            swaps = [mask_action({a: a + 1, a + 1: a}, bits) for a in range(n - 1)]
            orbit = mask_orbit(sum(bits[p] for p in e.edges), swaps)
            assert {mask_pairs(m, bits) for m in orbit} == relabelings_by_permutations(n, e.edges)
            assert e.edges == mask_pairs(max(orbit), bits) == canonical_edge_tuple(n, e.edges)
        for i, e1 in enumerate(entries):
            for e2 in entries[i + 1:]:
                assert find_isomorphism(e1.graph(), e2.graph()) is None


def test_catalog_is_stable():
    first = connected_simplicial_graphs(5)
    second = connected_simplicial_graphs(5)
    assert [e.edges for e in first] == [e.edges for e in second]
    assert [e.id for e in first] == [f"G5.{i:02d}" for i in range(1, 22)]

