import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (canonical_edge_tuple, components_by_bfs, find_isomorphism, group_closure,
                     naive_isomorphic, random_connected_graph, relabelings_by_permutations)
from ttrose.catalog import connected_simplicial_graphs
from ttrose.diagram import _base_slice
from ttrose.rose import all_directions
from ttrose.whitehead import (WhiteheadGraph, mask_action, mask_orbit, mask_pairs, pair_bits,
                              relabeling_generators)


def _mask(bits, edges):
    return sum(bits[tuple(sorted(e))] for e in edges)


def _swaps(labels, bits):
    """The actions of the swaps of adjacent labels in a range, which
    generate every permutation of it: the oracle for the library's two
    relabeling generators."""
    return [mask_action({a: a + 1, a + 1: a}, bits) for a in labels[:-1]]


def test_components():
    g = WhiteheadGraph.build(range(5), [(0, 1), (2, 3)])
    assert sorted(map(sorted, g.components())) == [[0, 1], [2, 3], [4]]
    assert not g.is_connected()
    assert WhiteheadGraph.build(range(3), [(0, 1), (1, 2)]).is_connected()
    with pytest.raises(ValueError, match=r"^edge \(0, 2\) uses a vertex outside the vertex set$"):
        WhiteheadGraph.build([0, 1], [(0, 2)])


def test_components_match_breadth_first_search():
    # at most as many edges as vertices leaves isolated vertices common, and
    # the names mix types that do not compare, so the edges sort by repr
    rng = random.Random(11)
    names = [0, 1, 2, 3, 2.5, "a", "b", (0, 1), None]
    for _ in range(300):
        vertices = rng.sample(names, rng.randrange(len(names) + 1))
        pairs = list(itertools.combinations(vertices, 2))
        edges = rng.sample(pairs, rng.randint(0, min(len(pairs), len(vertices))))
        g = WhiteheadGraph.build(vertices, edges)
        assert g.components() == components_by_bfs(g)
        assert g.is_connected() == (len(components_by_bfs(g)) <= 1)


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
    # the n! relabelings, each once, the graph's own first; its largest
    # mask decodes to the canonical form
    bits = pair_bits(range(n))
    swaps = _swaps(range(n), bits)
    orbit = mask_orbit(_mask(bits, g.edges), swaps)
    assert {mask_pairs(m, bits) for m in orbit} == relabelings_by_permutations(n, g.edges)
    assert next(iter(orbit)) == _mask(bits, g.edges) and orbit[_mask(bits, g.edges)] is None
    assert mask_pairs(max(orbit), bits) == canonical_edge_tuple(n, g.edges)
    assert set(mask_orbit(_mask(bits, relabeled), swaps)) == set(orbit)
    # each later member is its recorded parent's image under the recorded
    # swap, and the parent was reached first
    members = list(orbit)
    for i, (mask, step) in enumerate(orbit.items()):
        if step is not None:
            parent, k = step
            swap = {k: k + 1, k + 1: k}
            image = [(swap.get(a, a), swap.get(b, b)) for a, b in mask_pairs(parent, bits)]
            assert members.index(parent) < i and _mask(bits, image) == mask


def test_mask_action_tables_only_the_pairs_it_moves():
    # the swap of 2 and 3 on 0..4 moves the 6 pairs with one end in {2, 3};
    # (2, 3) itself and the pairs away from both keep their bits
    bits = pair_bits(range(5))
    support, table = mask_action({2: 3, 3: 2}, bits)
    moved = {p for p in bits if len({2, 3} & set(p)) == 1}
    assert support == _mask(bits, moved) and len(table) == 6
    assert all(table[bits[a, b]] == bits[tuple(sorted({2: 3, 3: 2}.get(d, d) for d in (a, b)))]
               for a, b in moved)
    # a pair outside the bits is not imaged: the walk under swaps of 1..4
    # keeps the bit of (0, 1), as the base slice keeps its red edge's
    purple = {p: bit for p, bit in bits.items() if p[0] > 0}
    start = bits[0, 1] + bits[1, 2]
    orbit = mask_orbit(start, _swaps(range(1, 5), purple))
    assert len(orbit) == 6 and all(m & bits[0, 1] for m in orbit)


def test_relabelings_of_symmetric_graphs():
    # orbit size n! / |Aut|: the rank-8 star has 15 images, the 7-cycle
    # 7! / 14, K4 one and the empty graph on 3 vertices one
    def orbit(n, edges):
        bits = pair_bits(range(n))
        return [mask_pairs(m, bits)
                for m in mask_orbit(_mask(bits, edges), _swaps(range(n), bits))]

    assert len(orbit(15, [(0, i) for i in range(1, 15)])) == 15
    assert len(orbit(7, [(i, (i + 1) % 7) for i in range(7)])) == 360
    assert orbit(4, [(a, b) for a in range(4) for b in range(a + 1, 4)]) == \
        [((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
    assert orbit(3, []) == [()]


def test_relabeling_generators_generate_every_permutation():
    # the transposition of the first two labels and the cycle through all
    # of them: all (2r - 1)! permutations of 2..2r, the labels of a
    # rank-r target in the base slice, from two generators
    for rank in (2, 3, 4):
        labels = range(2, 2 * rank + 1)
        generators = relabeling_generators(labels)
        assert len(generators) == 2
        closure = group_closure(generators, labels)
        assert closure == set(itertools.permutations(labels))
        assert len(closure) == math.factorial(2 * rank - 1)
    assert relabeling_generators(range(1)) == []
    assert relabeling_generators(range(2)) == [{0: 1, 1: 0}]


def test_relabeling_walk_reaches_the_adjacent_swap_orbit():
    # the two generators reach what the swaps of adjacent labels reach:
    # every relabeling of each 5- and 6-vertex catalog graph, and the
    # labeled copies of each rank-3 target on 2..6 that its base slice
    # holds, the red edge {1, 3} kept
    for n in (5, 6):
        bits = pair_bits(range(n))
        relabelings = [mask_action(g, bits) for g in relabeling_generators(range(n))]
        for entry in connected_simplicial_graphs(n):
            mask = _mask(bits, entry.edges)
            assert set(mask_orbit(mask, relabelings)) == set(mask_orbit(mask, _swaps(range(n), bits)))
    bits = pair_bits(all_directions(3))
    purple = {p: bit for p, bit in bits.items() if p[0] > 1}
    for entry in connected_simplicial_graphs(5):
        start = bits[1, 3] + _mask(bits, [(u + 2, v + 2) for u, v in entry.edges])
        masks = _base_slice(entry.graph(), 3).masks
        orbit = mask_orbit(start, _swaps(range(2, 7), purple))
        assert masks[0] == start and len(masks) == len(orbit) and set(masks) == set(orbit)
