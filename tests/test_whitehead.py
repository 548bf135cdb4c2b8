import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_isomorphic, random_connected_graph
from ttrose.whitehead import WhiteheadGraph, canonical_edge_tuple, find_isomorphism


def test_components():
    g = WhiteheadGraph.build(range(5), [(0, 1), (2, 3)])
    assert sorted(map(sorted, g.components())) == [[0, 1], [2, 3], [4]]
    assert not g.is_connected()
    assert WhiteheadGraph.build(range(3), [(0, 1), (1, 2)]).is_connected()


def test_isomorphism_basics():
    p4 = WhiteheadGraph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    p4_relable = WhiteheadGraph.build(range(4), [(2, 0), (0, 3), (3, 1)])
    star = WhiteheadGraph.build(range(4), [(0, 1), (0, 2), (0, 3)])
    assert find_isomorphism(p4, p4_relable) is not None
    assert find_isomorphism(p4, star) is None
    phi = find_isomorphism(p4, p4_relable)
    assert phi is not None
    mapped = {tuple(sorted((phi[u], phi[v]), key=repr)) for u, v in p4.edges}
    assert mapped == {tuple(sorted(e, key=repr)) for e in p4_relable.edges}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_isomorphism_agrees_with_naive_search(seed):
    rng = random.Random(seed)
    n = rng.randrange(3, 7)
    g1 = random_connected_graph(rng, n, rng.randrange(0, 4))
    g2 = random_connected_graph(rng, n, rng.randrange(0, 4))
    assert (find_isomorphism(g1, g2) is not None) == naive_isomorphic(g1, g2)
    # relabeled copies are always isomorphic
    perm = list(range(n))
    rng.shuffle(perm)
    g3 = WhiteheadGraph.build(range(n), [(perm[u], perm[v]) for u, v in g1.edges])
    assert find_isomorphism(g1, g3) is not None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_canonical_form_is_relabeling_invariant(seed):
    rng = random.Random(seed)
    n = rng.randrange(3, 6)
    g = random_connected_graph(rng, n, rng.randrange(0, 3))
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = [(perm[u], perm[v]) for u, v in g.edges]
    assert canonical_edge_tuple(n, g.edges) == canonical_edge_tuple(n, relabeled)
