from ttrose.catalog import connected_simplicial_graphs
from ttrose.whitehead import find_isomorphism


def test_connected_graph_counts():
    # known counts of connected simple graphs up to isomorphism
    assert len(connected_simplicial_graphs(3)) == 2
    assert len(connected_simplicial_graphs(4)) == 6
    assert len(connected_simplicial_graphs(5)) == 21


def test_entries_are_connected_and_distinct():
    entries = connected_simplicial_graphs(5)
    for e in entries:
        g = e.graph()
        assert len(g.vertices) == 5
        assert g.is_connected()
    for i, e1 in enumerate(entries):
        for e2 in entries[i + 1:]:
            assert find_isomorphism(e1.graph(), e2.graph()) is None


def test_catalog_is_stable():
    first = connected_simplicial_graphs(5)
    second = connected_simplicial_graphs(5)
    assert [e.edges for e in first] == [e.edges for e in second]
    assert [e.id for e in first] == [f"G5.{i:02d}" for i in range(1, 22)]
