"""Lamination train track structures, their validation, and birecurrency."""

import gc
import itertools
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    EXAMPLE_MAP,
    birecurrent_by_every_scc,
    epp_structure,
    make_structure,
    map_realizes_images_smoothly,
    matches_target,
    node_head,
    pi_graph,
    random_connected_graph,
    random_structure,
    realize_edge_path_smooth,
    trapped_direction,
)
from ttrose.catalog import connected_simplicial_graphs
from ttrose.diagram import epp_elements, star_target, enumerate_structures
from ttrose.ltt import (
    BLACK,
    LttStructure,
    brute_force_birecurrent,
    is_birecurrent,
    ltt_to_dot,
    transition_digraph,
    validate_ltt,
)
from ttrose.maps import LttRegimeError, RoseMap, ltt_of_map
from ttrose.rose import parse_word, turn

A, A_, B, B_, C, C_ = 1, 2, 3, 4, 5, 6


@pytest.fixture(scope="module")
def example_structure():
    return ltt_of_map(EXAMPLE_MAP)


def test_structure_of_example_map(example_structure):
    G = example_structure
    assert G.red_vertex == B_
    assert G.red_edge == turn(A, B_)
    assert G.purple_edges == {turn(A, C), turn(A_, B), turn(A_, C), turn(A_, C_),
                              turn(B, C_)}
    assert G.black_edges() == [(1, 2), (3, 4), (5, 6)]
    assert G.twice_achieved == A_
    assert validate_ltt(G).ok


def test_example_structure_is_birecurrent(example_structure):
    assert is_birecurrent(example_structure)
    assert brute_force_birecurrent(example_structure)


def test_regime_guard_rejects_wrong_periodic_count():
    with pytest.raises(LttRegimeError):
        ltt_of_map(RoseMap.identity(3))  # every direction fixed
    two_nonperiodic = RoseMap.from_strings(2, {"a": "bab", "b": "b"})
    with pytest.raises(LttRegimeError):
        ltt_of_map(two_nonperiodic)


def test_validation_flags():
    # two red edges
    G = LttStructure(3, B_, frozenset({(1, 4), (4, 5), (2, 3), (2, 5), (2, 6), (3, 6), (1, 5)}))
    rep = validate_ltt(G)
    assert not rep.ok and any(v.startswith("ltt4") for v in rep.violations)
    with pytest.raises(ValueError, match=r"^structure has 2 red edges, expected exactly 1$"):
        G.red_edge

    # no red edge
    G = LttStructure(3, B_, frozenset({(1, 3), (2, 5), (3, 6)}))
    with pytest.raises(ValueError, match=r"^structure has 0 red edges, expected exactly 1$"):
        G.red_edge

    # a red vertex, and an edge, past the 2r directions
    rep = validate_ltt(LttStructure(2, 5, frozenset({(1, 2), (2, 3)})))
    assert rep.violations == ("rank: red vertex 5 out of range 1..4",)
    rep = validate_ltt(LttStructure(2, 1, frozenset({(1, 3), (2, 9), (3, 4)})))
    assert "rank: edge (2,9) out of range" in rep.violations

    # colored loop
    G = LttStructure(3, B_, frozenset({(1, 4), (3, 3), (2, 5)}))
    rep = validate_ltt(G)
    assert any("loop" in v for v in rep.violations)

    # red edge joining a bar pair: the twice-achieved direction would be red
    G = make_structure(3, B_, (B, B_), [(1, 5), (2, 3), (2, 5), (2, 6), (3, 6)])
    rep = validate_ltt(G)
    assert any(v.startswith("red_pair") for v in rep.violations)

    # a direction met by no colored edge (here c = 5)
    G = make_structure(3, B_, (A, B_), [(2, 3), (2, 6), (3, 6)])
    rep = validate_ltt(G)
    assert any(v.startswith("tt1/tt3") for v in rep.violations)


def test_dot_export_mentions_all_edges(example_structure):
    dot = ltt_to_dot(example_structure)
    assert dot.count("--") == 3 + 6
    assert "color=red" in dot and "color=purple" in dot


def test_smooth_realization_of_example(example_structure):
    assert map_realizes_images_smoothly(EXAMPLE_MAP, example_structure)
    path = realize_edge_path_smooth(example_structure, parse_word("bac'", 3))
    kinds = [kind for _, _, kind in path]
    assert kinds == [BLACK, "colored", BLACK, "colored", BLACK]
    with pytest.raises(ValueError):
        realize_edge_path_smooth(example_structure, (B, B))  # {b',b} is not colored


def test_pi_graph_and_target_matching(example_structure):
    pi = pi_graph(example_structure)
    assert len(pi.vertices) == 5 and len(pi.edges) == 5
    from ttrose.maps import stable_whitehead_graph
    sw = stable_whitehead_graph(EXAMPLE_MAP)
    assert pi.edges == sw.edges
    assert not matches_target(example_structure, star_target(3))


def test_star_structures_match_star_target():
    for G in enumerate_structures(star_target(3), 3)[:5]:
        assert matches_target(G, star_target(3))
        assert not is_birecurrent(G)
        assert not brute_force_birecurrent(G)


def test_trapped_structures_are_not_birecurrent():
    trapped = 0
    for entry in connected_simplicial_graphs(5):
        for G in enumerate_structures(entry.graph(), 3):
            if trapped_direction(G) is not None:
                assert not is_birecurrent(G), str(G)
                trapped += 1
    assert trapped > 0


def test_single_pair_toy_cycle():
    # one black and one colored edge on a single bar pair support a 2-cycle
    toy = make_structure(1, 1, (1, 2), [])
    assert brute_force_birecurrent(toy)
    assert is_birecurrent(toy)


def test_transition_digraph_arcs_alternate(example_structure):
    td = transition_digraph(example_structure)
    for k, outs in enumerate(td.arcs):
        edge_id, orient = td.nodes[k]
        for k2 in outs:
            edge_id2, orient2 = td.nodes[k2]
            assert (td.edges[edge_id][2] == BLACK) != (td.edges[edge_id2][2] == BLACK)
            assert (edge_id2, orient2) != (edge_id, 1 - orient)
            assert node_head(td, k) in td.edges[edge_id2][:2]


@pytest.mark.parametrize("seed", range(6))
def test_birecurrency_is_epp_invariant(seed):
    rng = random.Random(seed)
    target = random_connected_graph(rng, 5, rng.randrange(0, 4))
    G = random_structure(rng, target, 3)
    sigma = rng.choice(epp_elements(3))
    assert is_birecurrent(G) == is_birecurrent(epp_structure(sigma, G))


@pytest.mark.parametrize("seed", range(4))
def test_oracle_agreement_on_random_rank3_structures(seed):
    rng = random.Random(1000 + seed)
    target = random_connected_graph(rng, 5, rng.randrange(0, 5))
    for _ in range(25):
        G = random_structure(rng, target, 3)
        assert is_birecurrent(G) == brute_force_birecurrent(G)


def test_one_component_decides_as_every_component():
    # the component of direction 1 alone decides birecurrency: on seeded
    # random colored sets at ranks 1-6, bar-pair turns (self-loops of H)
    # and edges off the rose among them, it agrees with the search over
    # every strongly connected component, on both outcomes
    rng = random.Random(34)
    cases = [LttStructure(1, 1, frozenset()),  # H has no arc
             LttStructure(1, 1, frozenset({(1, 2)})),  # H has two self-loops
             LttStructure(2, 1, frozenset({(1, 2), (3, 4), (1, 5)}))]  # (1, 5) is off the rose
    for _ in range(20_000):
        rank = rng.randint(1, 6)
        n = 2 * rank
        turns = list(itertools.combinations(range(1, n + 1), 2))
        colored = set(rng.sample(turns, rng.randint(0, min(len(turns), 3 * n))))
        if rng.random() < 0.05:
            colored.add((rng.randint(1, n), n + 1))
        cases.append(LttStructure(rank, rng.randint(1, n), frozenset(colored)))
    decided = [is_birecurrent(G) for G in cases]
    assert decided == [birecurrent_by_every_scc(G) for G in cases]
    assert decided[:3] == [False, True, False]
    assert 5_000 < sum(decided) < 15_000


@st.composite
def _colored_sets(draw):
    """Any structure at ranks 1-4 whose colored pairs u < w lie on the
    rose: valid or not, with any number of red edges."""
    rank = draw(st.integers(1, 4))
    n = 2 * rank
    pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True).map(sorted)
    colored = frozenset(map(tuple, draw(st.lists(pair, max_size=n + 2))))
    sigma = draw(st.sampled_from(epp_elements(rank)))
    return LttStructure(rank, draw(st.integers(1, n)), colored), sigma


@settings(max_examples=300, deadline=None)
@given(_colored_sets())
@example((LttStructure(1, 1, frozenset()), (1, 2)))  # no colored edge: no arc in H
@example((LttStructure(3, 2, frozenset()), (1, 2, 3, 4, 5, 6)))
@example((LttStructure(1, 1, frozenset({(1, 2)})), (2, 1)))  # H has a self-loop
@example((LttStructure(2, 3, frozenset({(3, 4), (1, 2), (1, 3)})),
          (3, 4, 1, 2)))  # red edge on a bar pair
@example((LttStructure(2, 1, frozenset({(1, 3), (1, 4), (2, 3), (2, 4)})),
          (2, 1, 4, 3)))  # several reds
@example((ltt_of_map(EXAMPLE_MAP), (3, 4, 6, 5, 1, 2)))
def test_birecurrency_matches_oracle_on_any_colored_set(case):
    G, sigma = case
    verdict = is_birecurrent(G)
    assert verdict == brute_force_birecurrent(G), str(G)
    assert is_birecurrent(epp_structure(sigma, G)) == verdict


def test_birecurrency_retains_no_structure():
    # long sweeps must not grow memory: nothing outlives the calls
    target = next(e.graph() for e in connected_simplicial_graphs(5) if e.id == "G5.02")
    structures = enumerate_structures(target, 3)
    assert sum(map(is_birecurrent, structures)) > 0
    refs = [weakref.ref(G) for G in structures]
    del structures
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_map_structures_are_valid_and_carry_the_stable_graph():
    # every structure built from a train track map must validate and its
    # purple part must be exactly the map's stable Whitehead graph
    from ttrose.maps import stable_whitehead_graph
    rng = random.Random(2718)
    corpus = [EXAMPLE_MAP]
    while len(corpus) < 25:
        from oracles import random_clean_composite
        m, _ = random_clean_composite(rng, rng.choice((2, 3, 4)), rng.randrange(2, 7))
        try:
            ltt_of_map(m)
        except (LttRegimeError, ValueError):
            continue
        corpus.append(m)
    for m in corpus:
        G = ltt_of_map(m)
        sw = stable_whitehead_graph(m)
        assert pi_graph(G).edges == sw.edges
        assert G.red_vertex not in sw.vertices
        # full validity is guaranteed once the stable graph has the shape
        # of a candidate target: connected on all 2r-1 periodic directions
        if len(sw.vertices) == 2 * m.rank - 1 and sw.is_connected():
            assert validate_ltt(G).ok, validate_ltt(G).violations


def test_rank2_pipeline_smoke():
    # r = 2: targets are connected 3-vertex graphs (path and triangle)
    from ttrose.diagram import enumerate_structures as enum, target_verdict
    from ttrose.whitehead import WhiteheadGraph
    path3 = WhiteheadGraph.build(range(3), [(0, 1), (1, 2)])
    triangle = WhiteheadGraph.build(range(3), [(0, 1), (1, 2), (0, 2)])
    for target in (path3, triangle):
        structures = enum(target, 2)
        assert structures
        for G in structures:
            assert is_birecurrent(G) == brute_force_birecurrent(G)
        result = target_verdict(target, 2)
        assert result.verdict in ("UnachievedByBirecurrency",
                                  "UnachievedByIrreducibilityPotential",
                                  "Inconclusive")
