import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (canonical_edge_tuple, find_isomorphism, naive_isomorphic,
                     random_connected_graph, relabelings_by_permutations)
from ttrose.whitehead import WhiteheadGraph, relabelings


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
    n = rng.randrange(3, 7)
    g = random_connected_graph(rng, n, rng.randrange(0, 4))
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = [(perm[u], perm[v]) for u, v in g.edges]
    assert canonical_edge_tuple(n, g.edges) == canonical_edge_tuple(n, relabeled)
    # the orbit walked by adjacent transpositions is every image under
    # the n! relabelings, each once, and its least element is the
    # canonical form
    orbit = relabelings(n, g.edges)
    assert len(orbit) == len(set(orbit))
    assert set(orbit) == relabelings_by_permutations(n, g.edges)
    assert orbit[0] == tuple(sorted(g.edges))
    assert min(orbit) == canonical_edge_tuple(n, g.edges) == min(relabelings(n, relabeled))


def test_relabelings_of_symmetric_graphs():
    # orbit size n! / |Aut|: the rank-8 star has 15 images, the 7-cycle
    # 7! / 14, K4 one and the empty graph on 3 vertices one
    assert len(relabelings(15, [(0, i) for i in range(1, 15)])) == 15
    assert len(relabelings(7, [(i, (i + 1) % 7) for i in range(7)])) == 360
    assert relabelings(4, [(a, b) for a in range(4) for b in range(a + 1, 4)]) == \
        [((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
    assert relabelings(3, []) == [()]
