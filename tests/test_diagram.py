"""Structure enumeration, the preliminary and ID diagrams, the
irreducibility potential test, EPP reduction, and loop verification."""

import copy
import itertools
import random
import sys

import pytest

from oracles import (
    assignment_oracle_structures,
    check_am,
    closed_walks,
    edge_rows,
    edge_table,
    epp_classes_of_structures,
    epp_orbits,
    epp_structure,
    generating_triples,
    group_closure,
    is_admissible,
    make_structure,
    move_det,
    move_kind,
    move_sources,
    orbits_by_elements,
    preliminary_by_destination,
    preliminary_of,
    random_connected_graph,
    sort_key,
    stabilizer_of_1_and_3,
)
from ttrose.catalog import connected_simplicial_graphs
from ttrose.diagram import (
    INCONCLUSIVE,
    UNACHIEVED_BIRECURRENCY,
    UNACHIEVED_IRREDUCIBILITY,
    IdDiagram,
    InvalidTargetGraph,
    _base_slice,
    _carry,
    _k_generators,
    _members,
    _rank_tables,
    _RankTables,
    build_preliminary,
    diagram_to_dot,
    diagram_to_json,
    enumerate_structures,
    epp_classes,
    epp_elements,
    find_loops,
    id_diagram,
    irreducibility_potential_test,
    iter_structures,
    star_target,
    structures_at,
    target_from_json,
    target_verdict,
    validate_target,
)
from ttrose.ltt import LttStructure, is_birecurrent, validate_ltt
from ttrose.maps import verify_loop
from ttrose.moves import GeneratingTriple, entering_generator
from ttrose.rose import Generator, all_directions, bar, format_direction, turn
from ttrose.whitehead import (WhiteheadGraph, mask_action, mask_image, mask_orbit, mask_pairs,
                              pair_bits, tarjan_scc)


# the eight rank-4 targets of the benchmark's verdict_r4 workload, among
# them K5 with two pendants on one vertex (adjacent and non-adjacent twins),
# the 7-cycle (dihedral automorphisms and no twins), and the star on 7
# vertices plus two disjoint edges between leaves (160 components)
RANK4 = {name: WhiteheadGraph.build(range(7), edges) for name, edges in {
    "broom": [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (5, 6)],
    "star_p1": [(0, i) for i in range(1, 7)] + [(1, 2)],
    "star_p2": [(0, i) for i in range(1, 7)] + [(1, 2), (3, 4)],
    "star_p3": [(0, i) for i in range(1, 7)] + [(1, 2), (3, 4), (5, 6)],
    "k5_2pend": [(a, b) for a in range(5) for b in range(a + 1, 5)] + [(4, 5), (4, 6)],
    "k24_pend": [(a, b) for a in (0, 1) for b in (2, 3, 4, 5)] + [(0, 6)],
    "k34": [(a, b) for a in (0, 1, 2) for b in (3, 4, 5, 6)],
    "c7": [(i, (i + 1) % 7) for i in range(7)],
}.items()}
K5_2PEND, C7, STAR_P2 = RANK4["k5_2pend"], RANK4["c7"], RANK4["star_p2"]
P7 = WhiteheadGraph.build(range(7), [(i, i + 1) for i in range(6)])
# the complete graphs at ranks 6 and 7, whose keys take two words
K11, K13 = (WhiteheadGraph.build(range(n), itertools.combinations(range(n), 2)) for n in (11, 13))
# the spider S(2,2,1^4): two legs of length 2 and four of length 1 at
# vertex 0, a rank-5 target IP flags outside the paper's families
SPIDER = WhiteheadGraph.build(range(9), [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (0, 6), (0, 7),
                                         (0, 8)])


@pytest.fixture(scope="module")
def catalog5():
    return connected_simplicial_graphs(5)


@pytest.fixture(scope="module")
def squeeze(catalog5):
    """Verdicts for the three smallest catalog entries used repeatedly."""
    return {e.id: target_verdict(e.graph(), 3) for e in catalog5[:4]}


def test_rank_1_has_no_target_graphs():
    # one vertex, no edges: a verdict there would be vacuous, so it is refused
    with pytest.raises(ValueError, match="^rank 1 has no candidate target graphs") as exc:
        validate_target(WhiteheadGraph.build([0], []), 1)
    assert not isinstance(exc.value, InvalidTargetGraph)  # a rank error, not a graph error
    validate_target(star_target(2), 2)


def test_target_validation():
    with pytest.raises(InvalidTargetGraph):
        validate_target(WhiteheadGraph.build(range(3), [(0, 1), (1, 2)]), 3)
    with pytest.raises(InvalidTargetGraph):
        validate_target(WhiteheadGraph.build(range(5), [(0, 1), (2, 3), (3, 4)]), 3)
    validate_target(star_target(3), 3)


def test_target_from_json_refuses_a_nan_vertex():
    # NaN != NaN: json gives every NaN in a document one float object, so
    # [NaN, NaN] would pass a loop check by equality, and [NaN, 1] and
    # [1, NaN] would sort apart into two edges
    nan = float("nan")
    for data in ({"edges": [[nan, nan], [nan, 1], [1, 2]]},
                 {"edges": [[nan, 1], [1, nan], [1, 2]]},
                 {"vertices": [nan], "edges": [[0, 1]]}):
        with pytest.raises(InvalidTargetGraph, match="^a vertex must not be NaN$"):
            target_from_json(data)
    inf = float("inf")  # inf == inf, so it is an ordinary vertex
    assert len(target_from_json({"edges": [[inf, 1], [1, inf], [1, 2]]}).edges) == 2


def test_star_enumeration_counts():
    raw = enumerate_structures(star_target(3), 3)
    assert len(raw) == 120
    assert not any(is_birecurrent(G) for G in raw)
    assert enumerate_structures(star_target(3), 3, admissible_only=True) == []


def test_star_enumeration_matches_assignment_oracle():
    for rank in (3, 4):
        oracle = assignment_oracle_structures(star_target(rank), rank)
        assert set(enumerate_structures(star_target(rank), rank)) == oracle


def test_generic_enumeration_matches_assignment_oracle(catalog5):
    # as sorted lists, so a structure produced twice fails too
    def matches(target, rank):
        oracle = assignment_oracle_structures(target, rank)
        return enumerate_structures(target, rank) == sorted(oracle, key=sort_key)

    assert all(matches(entry.graph(), 3) for entry in catalog5)
    assert matches(K5_2PEND, 4)
    assert matches(C7, 4)


def test_star_raw_epp_classes():
    raw = enumerate_structures(star_target(3), 3)
    classes = epp_classes_of_structures(raw)
    assert sorted(len(c) for c in classes) == [24, 24, 24, 48]
    assert sum(len(c) for c in classes) == 120


def test_enumeration_is_epp_closed(catalog5):
    target = catalog5[1].graph()
    structures = set(enumerate_structures(target, 3))
    for sigma in epp_elements(3)[:8]:
        assert {epp_structure(sigma, G) for G in structures} == structures


def test_preliminary_diagram_edges_are_admissible(catalog5):
    target = catalog5[1].graph()
    prelim = build_preliminary(target, 3)
    # positions by identity: an edge holds the node objects, not equal copies
    position = {id(G): i for i, G in enumerate(prelim.nodes)}
    assert prelim.edges
    for e in prelim.edges:
        assert id(e.source) in position and id(e.dest) in position
        assert is_admissible(e)
        assert check_am(e).all_pass()
        assert [t for t in generating_triples(e.dest)
                if (move_kind(t), move_det(t)) == (move_kind(e), move_det(e))] == [e]
    # edges are in node-position order, source first, and no pair repeats
    ends = [(position[id(e.source)], position[id(e.dest)]) for e in prelim.edges]
    assert all(p < q for p, q in zip(ends, ends[1:]))
    # components: nodes in position order, components in order of their first node
    comps = [list(comp.nodes) for comp in id_diagram(target, 3, preliminary=prelim).components]
    assert len(comps) > 1
    assert all(c == sorted(c) for c in comps)
    assert all(c[0] < d[0] for c, d in zip(comps, comps[1:]))
    # Tarjan emits SCCs in reverse topological order, {c, d} before {a, b}
    # here, and the components still come out in node order
    a, b, c, d = prelim.nodes[:4]
    chain_edges = tuple(GeneratingTriple(prelim.edges[0].gen, s, t)
                        for s, t in ((a, b), (b, a), (b, c), (c, d), (d, c)))
    chain = preliminary_of(3, (a, b, c, d), chain_edges)
    assert chain.nodes == (a, b, c, d)
    assert [comp.nodes for comp in id_diagram(target, 3, preliminary=chain).components] \
        == [(0, 1), (2, 3)]


def test_preliminary_rejects_an_incomplete_enumeration(catalog5):
    nodes = enumerate_structures(catalog5[1].graph(), 3, admissible_only=True)
    edge = next(e for e in build_preliminary(catalog5[1].graph(), 3, nodes=nodes).edges
                if e.source != e.dest)
    with pytest.raises(RuntimeError, match="admissible source missing"):
        build_preliminary(catalog5[1].graph(), 3, nodes=[G for G in nodes if G != edge.source])


def test_turn_masks_order_edge_sets_of_one_size_as_sorted_tuples():
    # the larger mask is the earlier sorted tuple, so carried nodes sort on
    # one integer; a set with one turn swapped shares most of its prefix
    rng = random.Random(11)
    for rank in (2, 3, 4, 6):
        bits = pair_bits(all_directions(rank))
        turns = list(bits)
        for _ in range(300):
            a = rng.sample(turns, rng.randrange(1, len(turns)))
            b = rng.sample(turns, len(a)) if rng.random() < 0.5 else (
                a[1:] + [rng.choice([e for e in turns if e not in a] or a[:1])])
            assert (sum(bits[e] for e in a) > sum(bits[e] for e in b)) == (sorted(a) < sorted(b))
            assert mask_pairs(sum(bits[e] for e in a), bits) == tuple(sorted(a))


def test_preliminary_refuses_the_nodes_of_another_target(catalog5):
    # a move source that lies in no slice of the target is not an excluded
    # structure: the node list is some other target's
    nodes = enumerate_structures(catalog5[1].graph(), 3, admissible_only=True)
    with pytest.raises(RuntimeError, match="admissible source missing"):
        build_preliminary(catalog5[2].graph(), 3, nodes=nodes)


def _slice_orbits(target, rank) -> set[frozenset[LttStructure]]:
    """The K-orbits of the structures with red vertex 1 and red edge {1, 3},
    from the enumeration and every element of K."""
    slice_ = [G for G in enumerate_structures(target, rank)
              if (G.red_vertex, G.red_edge) == (1, (1, 3))]
    return {frozenset(slice_[i] for i in orbit)
            for orbit in orbits_by_elements(stabilizer_of_1_and_3(rank), slice_)}


# the K-orbits of the structures with red vertex 1 and red edge {1, 3},
# all of them and the admissible ones
K_ORBITS = {"G5.02": (18, 1), "k5_2pend": (26, 14)}


@pytest.mark.parametrize("name, rank", [("G5.02", 3), ("k5_2pend", 4)])
def test_verdict_decides_birecurrency_on_the_base_slice(monkeypatch, catalog5, name, rank):
    # once per K-orbit of the structures with red vertex 1 and red edge
    # {1, 3}: K commutes with birecurrency, the slice maps carry these
    # verdicts to the 2r(2r - 2) slices, and the preliminary diagram looks
    # excluded sources up instead of rechecking
    import ttrose.diagram
    target = K5_2PEND if name == "k5_2pend" else next(
        e for e in catalog5 if e.id == name).graph()
    expected = _slice_orbits(target, rank)
    orbits, admissible = K_ORBITS[name]
    decided, decide = [], ttrose.diagram.birecurrent_turns

    def recording(r, colored):
        colored = tuple(colored)
        assert r == rank
        decided.append(LttStructure(rank, 1, frozenset(colored)))
        return decide(r, colored)

    monkeypatch.setattr(ttrose.diagram, "birecurrent_turns", recording)
    result = target_verdict(target, rank)
    assert result.diagram is not None
    assert len(expected) == len(decided) == orbits
    assert sorted(len(orbit & set(decided)) for orbit in expected) == [1] * orbits
    assert sum(is_birecurrent(G) for G in decided) == admissible


@pytest.mark.parametrize("name, rank", [("G5.02", 3), ("k5_2pend", 4)])
def test_verdict_generates_moves_once_per_representative(monkeypatch, catalog5, name, rank):
    # once per admissible K-orbit of the structures with red vertex 1 and
    # red edge {1, 3}: an element of K carries the representative's moves
    # to the moves into the rest of its orbit, and the slice maps carry
    # those to the moves into the other slices
    import ttrose.diagram
    target = K5_2PEND if name == "k5_2pend" else next(
        e for e in catalog5 if e.id == name).graph()
    expected = [orbit for orbit in _slice_orbits(target, rank)
                if is_birecurrent(next(iter(orbit)))]
    _, admissible = K_ORBITS[name]
    destinations, generate = [], ttrose.diagram.sources_into

    def recording(u, a, purple):
        G = LttStructure(rank, u, frozenset(purple) | {turn(u, bar(a))})
        destinations.append(G)
        sources = generate(u, a, purple)
        assert [(red, end, part | {turn(red, end)}) for red, end, part in sources] \
            == move_sources(G)
        return sources

    monkeypatch.setattr(ttrose.diagram, "sources_into", recording)
    result = target_verdict(target, rank)
    assert result.diagram is not None
    assert len(expected) == len(destinations) == admissible
    assert sorted(len(orbit & set(destinations)) for orbit in expected) == [1] * admissible


@pytest.mark.parametrize("name", ["k5_2pend", "p7"])
def test_verdict_decodes_no_node_and_builds_no_move(monkeypatch, name):
    # the verdict reads node keys and rows only: the SCC pass the rows,
    # the IP test the red vertices off the keys.  It builds no structure at
    # all: birecurrency and the moves read each representative's turns
    import ttrose.diagram
    import ttrose.moves
    target = P7 if name == "p7" else RANK4[name]
    calls = {"decode": 0, "move": 0, "structure": 0}

    def counting(kind, build):
        def counted(*args, **kwargs):
            calls[kind] += 1
            return build(*args, **kwargs)
        return counted

    monkeypatch.setattr(ttrose.diagram, "_decode", counting("decode", ttrose.diagram._decode))
    monkeypatch.setattr(ttrose.diagram, "GeneratingTriple", counting("move", GeneratingTriple))
    monkeypatch.setattr(ttrose.moves, "GeneratingTriple", counting("move", GeneratingTriple))
    # every structure, wherever it is built
    monkeypatch.setattr(LttStructure, "__init__", counting("structure", LttStructure.__init__))
    result = target_verdict(target, 4)
    prelim = result.diagram.preliminary
    assert (calls["decode"], calls["move"]) == (0, 0)
    assert calls["structure"] == 0
    # nothing is cached: the diagram holds only its fields
    assert set(vars(prelim)) == set(prelim.__match_args__)
    # the structures are decoded once, when first read
    assert len(prelim.nodes) == len(prelim.keys) == result.num_admissible
    assert prelim.nodes is prelim.nodes and calls["decode"] == 1


def test_json_edges_read_kind_and_det_off_the_generators(catalog5):
    # diagram_to_json labels each edge from the generators entering its
    # two nodes; the decoded moves derive the same from the structures
    for target, rank in [(e.graph(), 3) for e in catalog5] + [(K5_2PEND, 4), (STAR_P2, 4)]:
        diagram = id_diagram(target, rank, build_preliminary(target, rank))
        prelim = diagram.preliminary
        assert all(e.gen == entering_generator(e.dest) for e in prelim.edges)
        expected = [{"source": i, "dest": j, "kind": move_kind(e),
                     "gen": {"a": format_direction(e.gen.a), "u": format_direction(e.gen.u)},
                     "det": list(map(format_direction, move_det(e)))}
                    for (i, j), e in zip(prelim.edge_ends(), prelim.edges)]
        assert diagram_to_json(diagram)["edges"] == expected


def _counting_generators(monkeypatch) -> list[int]:
    """A one-item list that counts the Generators built from now on."""
    built = [0]
    post_init = Generator.__post_init__

    def counted(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(Generator, "__post_init__", counted)
    return built


def test_entering_builds_one_generator_per_red_end(monkeypatch):
    # entering_generator reads each node's generator off its structure once
    # per (red vertex, red-edge end), so P7's 33,792 nodes share at most
    # 2r(2r-2) = 48 generator objects
    prelim = target_verdict(P7, 4).diagram.preliminary
    nodes = prelim.nodes
    built = _counting_generators(monkeypatch)
    entering = prelim.entering
    assert len(entering) == len(nodes) == 33792
    assert built[0] == len(set(map(id, entering))) <= 48
    assert entering == tuple(map(entering_generator, nodes))


def test_find_loops_reads_no_cached_view(monkeypatch):
    # each loop edge's generator is read off the destination find_loops
    # decodes, one per distinct edge of a call's loops; the diagram's
    # structures and generators are never cached
    diagram = target_verdict(P7, 4).diagram
    prelim = diagram.preliminary
    built = _counting_generators(monkeypatch)
    edges = 0
    for comp in diagram.components:
        loops = find_loops(prelim, comp, 2)
        edges += len({id(e) for lp in loops for e in lp})
    assert built[0] == edges > 0
    assert set(vars(prelim)) == set(prelim.__match_args__)


def _rank3_and_rank4_targets(catalog5):
    return ([(e.id, e.graph(), 3) for e in catalog5]
            + [(name, graph, 4) for name, graph in RANK4.items()] + [("p7", P7, 4)])


def _slice_structures(base, rank) -> list[LttStructure]:
    bits = pair_bits(all_directions(rank))
    return [LttStructure(rank, 1, frozenset(mask_pairs(mask, bits))) for mask in base.masks]


def test_base_slice_k_orbits_match_every_element_of_k(catalog5):
    # the orbits found with K's generators are the orbits under all of K's
    # elements; orbits smaller than K have a stabilizer, as some of G5.04's,
    # G5.18's, G5.19's and the broom's do.  Rank 5 is the first where K
    # permutes three pairs, so its generators are the flip of pair 3, the
    # swap of pairs 3 and 4 and the cycle of pairs 3, 4 and 5: the star's
    # 9 structures fall into orbits of sizes 1, 1, 1 and 6, and the star
    # plus one edge between leaves has orbits of 1, 3, 6, 12 and 24 of the
    # 48; K_{4,5} has 12 admissible orbits of 3 to 12 members, so lifts
    # composed of the flip, the swap and the cycle are checked.  Only
    # admissible members are carried, so only they have a lift
    rank5 = [("star9", star_target(5), 5), ("star9_p1", WhiteheadGraph.build(
        range(9), [(0, i) for i in range(1, 9)] + [(1, 2)]), 5),
        ("k45", WhiteheadGraph.build(range(9), [(a, b) for a in range(4) for b in range(4, 9)]), 5)]
    not_free = set()
    for name, target, rank in _rank3_and_rank4_targets(catalog5) + rank5:
        base = _base_slice(target, rank)
        structures = _slice_structures(base, rank)
        assert all(validate_ltt(G) and G.red_edge == (1, 3) for G in structures)
        assert base.index == {mask: i for i, mask in enumerate(base.masks)}
        stabilizer = stabilizer_of_1_and_3(rank)
        orbits: dict[int, set[int]] = {}
        for i, rep in enumerate(base.reps):
            orbits.setdefault(rep, set()).add(i)
        assert set(map(frozenset, orbits.values())) == orbits_by_elements(stabilizer, structures)
        assert sum(map(len, orbits.values())) == len(structures)
        assert all(len(stabilizer) % len(orbit) == 0 for orbit in orbits.values())
        for G, rep, lift, birecurrent in zip(structures, base.reps, base.lifts,
                                             base.birecurrent):
            if birecurrent:
                assert lift in stabilizer and epp_structure(lift, structures[rep]) == G
            else:
                assert lift is None
        if any(len(orbit) < len(stabilizer) for orbit in orbits.values()):
            not_free.add(name)
        sizes = sorted(map(len, orbits.values()))
        if name == "broom":
            assert (len(structures), len(orbits)) == (210, 45)
        if name == "star9":
            assert (len(stabilizer), sizes) == (48, [1, 1, 1, 6])
        if name == "star9_p1":
            assert (len(structures), len(orbits), set(sizes)) == (252, 27, {1, 3, 6, 12, 24})
        if name == "k45":
            admissible = sorted(len(orbit) for orbit in orbits.values() if base.birecurrent[min(orbit)])
            assert (len(structures), len(orbits), admissible) == (126, 15, [3] * 4 + [6, 8] + [12] * 6)
    assert {"G5.04", "G5.18", "G5.19", "broom", "star9", "star9_p1", "k45"} <= not_free


def test_birecurrency_is_constant_on_every_k_orbit(catalog5):
    # decided once per orbit, so every member is checked against its own
    for _, target, rank in _rank3_and_rank4_targets(catalog5):
        base = _base_slice(target, rank)
        for G, birecurrent in zip(_slice_structures(base, rank), base.birecurrent):
            assert is_birecurrent(G) == birecurrent


def test_preliminary_ends_are_the_positions_of_each_edges_structures(catalog5):
    targets = [(e.graph(), 3) for e in catalog5] + [(K5_2PEND, 4), (STAR_P2, 4)]
    for target, rank in targets:
        prelim = build_preliminary(target, rank)
        assert prelim.rows == edge_rows(prelim.nodes, prelim.edges)
        position = {G: i for i, G in enumerate(prelim.nodes)}
        assert list(prelim.edge_ends()) == [(position[e.source], position[e.dest])
                                            for e in prelim.edges]


def test_preliminary_matches_the_per_destination_oracle(catalog5):
    # nodes and edges as tuples, so order counts; the random rank-4 targets
    # have at most 1,260 relabelings (an automorphism group of order 4 or
    # more), which keeps the oracle's one move call per node to seconds.
    # The spider's 7,680 nodes are the one rank-5 diagram: rank 5 is the
    # first where K has the flip, the swap and the cycle
    targets = [(e.graph(), 3) for e in catalog5] + [(K5_2PEND, 4), (C7, 4)]
    rng = random.Random(3)
    bits = pair_bits(range(7))
    swaps = [mask_action({a: a + 1, a + 1: a}, bits) for a in range(6)]
    while len(targets) < len(catalog5) + 6:
        target = random_connected_graph(rng, 7, rng.randrange(7))
        if len(mask_orbit(sum(bits[tuple(sorted(e))] for e in target.edges), swaps)) <= 1260:
            targets.append((target, 4))
    targets.append((SPIDER, 5))
    for target, rank in targets:
        built, (oracle, moves) = build_preliminary(target, rank), preliminary_by_destination(target, rank)
        assert (built.keys, built.rows) == (oracle.keys, oracle.rows)
        assert (built.nodes, built.edges) == (oracle.nodes, moves)


def test_edge_tables_image_structures_as_epp_does(catalog5):
    # edge_table, the tuple route the rank tables are checked against:
    # one table per element over the edges the structures use, imaging
    # each structure as epp_structure does; every structure at rank 2, and at
    # ranks 3 and 4 a stride through the enumeration, which crosses every
    # slice, keeps the 2^r r! elements to a second
    targets = [(WhiteheadGraph.build(range(3), [(0, 1), (1, 2)]), 2, 1),
               (WhiteheadGraph.build(range(3), [(0, 1), (1, 2), (0, 2)]), 2, 1)]
    targets += [(e.graph(), 3, 17) for e in catalog5] + [(K5_2PEND, 4, 29)]
    for target, rank, stride in targets:
        structures = enumerate_structures(target, rank)[::stride]
        used = {e for G in structures for e in G.colored}
        for sigma in epp_elements(rank):
            image = edge_table(sigma, used).__getitem__
            for G in structures:
                assert LttStructure(rank, sigma[G.red_vertex - 1],
                                    frozenset(map(image, G.colored))) == epp_structure(sigma, G)


def test_rank_tables_carry_turn_positions_as_the_tuple_route_does(catalog5):
    # on fresh tables at ranks 2-7: each slice map's lane of the high bits
    # and of each position's image bit against edge_table over every turn,
    # lanes of whole 8-byte words just wide enough for a key, each turn's
    # pair_bit entries against its bit; on the star at ranks 2-7, the 21
    # rank-3 targets, the 7-cycle and the complete graphs at ranks 6 and 7,
    # each member's positions against its mask's pairs and _carry's keys,
    # member by member, against the per-slice sums of image bits
    for rank in range(2, 8):
        tables = _RankTables(rank)
        turns, bits, width, full = tables.turns, tables.bits, tables.width, tables.full
        assert [bits[e] for e in turns] == [1 << p for p in range(width)]
        high, position_bits, size = tables.lanes
        assert size % 8 == 0 and size * 8 - 64 < width + (2 * rank).bit_length() <= size * 8
        assert len(position_bits) == width
        count = len(tables.maps)
        lanes = [p.to_bytes(size * count, sys.byteorder) for p in (high, *position_bits)]
        for k, sigma in enumerate(tables.maps.values()):
            lane = [int.from_bytes(p[k * size:(k + 1) * size], sys.byteorder) for p in lanes]
            image = edge_table(sigma, turns)
            assert lane[0] == sigma[0] << width | full
            assert lane[1:] == [bits[image[e]] for e in turns]
        pair_bit = tables.pair_bit
        assert all(pair_bit[a][b] == pair_bit[b][a] == bits[a, b] for a, b in turns)
    targets = [(star_target(rank), rank) for rank in range(2, 8)]
    targets += [(e.graph(), 3) for e in catalog5] + [(C7, 4), (K11, 6), (K13, 7)]
    for target, rank in targets:
        tables, base = _rank_tables(rank), _base_slice(target, rank)
        members = _members(base, admissible_only=False)
        assert len(members) == len(base.masks)
        for positions, mask in zip(members, base.masks):
            assert tuple(map(tables.turns.__getitem__, positions)) == mask_pairs(mask, tables.bits)
        admissible = [m for m, birecurrent in zip(members, base.birecurrent) if birecurrent]
        assert _members(base, admissible_only=True) == admissible
        slices = [(sigma[0] << tables.width | tables.full, tables.image_bits(sigma))
                  for sigma in tables.maps.values()]
        assert _carry(rank, members) == [top - sum(map(image.__getitem__, P))
                                         for P in members for top, image in slices]


def test_structures_at_decodes_each_position_as_the_slice_maps_carry_it(catalog5):
    # structures_at numbers slice k's image of base member b of m at
    # k*m + b: at every position it decodes epp_structure's image of the
    # member under slice map k, with the member's birecurrency, and its
    # admissible structures, sorted, are iter_structures' admissible ones;
    # a position outside the slices raises
    targets = [(catalog5[1].graph(), 3), (C7, 4), (K11, 6)]
    assert catalog5[1].id == "G5.02"
    for target, rank in targets:
        base = _base_slice(target, rank)
        members, m = _slice_structures(base, rank), len(base.masks)
        maps = list(_rank_tables(rank).maps.values())
        samples = structures_at(base, rank, range(len(maps) * m))
        assert samples == [(epp_structure(sigma, G), birecurrent) for sigma in maps
                           for G, birecurrent in zip(members, base.birecurrent)]
        admissible = sorted((G for G, birecurrent in samples if birecurrent), key=sort_key)
        assert admissible == list(iter_structures(target, rank, admissible_only=True))
        for outside in (-1, len(maps) * m):
            with pytest.raises(IndexError):
                structures_at(base, rank, [0, outside])


def test_components_are_the_arc_bearing_sccs_of_the_whole_diagram(catalog5):
    # the components come from Tarjan on the quotient by EPP and one
    # forward walk each; Tarjan on every node and edge gives the same node
    # lists in the same order.  The quotient's arcs are the edges' orbit
    # pairs, and at rank 3 a node's orbit is its EPP orbit.  G5.07 has one
    # K-orbit, so every arc of its quotient is a self-arc
    targets = [(e.id, e.graph(), 3) for e in catalog5] + [(name, g, 4) for name, g in RANK4.items()]
    targets += [("p7", P7, 4), ("spider", SPIDER, 5)]
    for name, target, rank in targets:
        diagram = target_verdict(target, rank).diagram
        if diagram is None:
            continue
        prelim = diagram.preliminary
        rows, orbit = prelim.rows, prelim.orbit
        sccs = sorted(sorted(comp) for comp in tarjan_scc(rows)
                      if len(comp) > 1 or comp[0] in rows[comp[0]])
        assert [list(comp.nodes) for comp in diagram.components] == sccs, name
        arcs = {(p, q) for p, row in enumerate(prelim.quotient) for q in row}
        assert arcs == {(orbit[i], orbit[j]) for i, j in prelim.edge_ends()}, name
        if rank == 3:
            fibres: dict[int, set[int]] = {}
            for i, q in enumerate(orbit):
                fibres.setdefault(q, set()).add(i)
            assert set(map(frozenset, fibres.values())) \
                == orbits_by_elements(epp_elements(3), prelim.nodes), name
        if name == "G5.07":
            assert prelim.quotient == ((0,),) and len(diagram.components) == 1


def test_component_edges_are_the_oracles_moves_inside_it(squeeze):
    # read off the rows inside each component, the edges are the moves the
    # per-destination oracle finds with both ends in it, in the oracle's
    # order; the star on 7 vertices plus two disjoint edges has 160
    # components
    for target, rank in [(squeeze["G5.02"].diagram.target, 3), (STAR_P2, 4)]:
        diagram = id_diagram(target, rank, build_preliminary(target, rank))
        prelim = diagram.preliminary
        oracle, moves = preliminary_by_destination(target, rank)
        assert oracle.nodes == prelim.nodes and len(diagram.components) > 1
        move_at = dict(zip(prelim.edge_ends(), prelim.edges))
        for comp in diagram.components:
            inside = {prelim.nodes[i] for i in comp.nodes}
            assert [move_at[e] for e in prelim.edge_ends(comp.nodes)] \
                == [e for e in moves if e.source in inside and e.dest in inside]


def test_verdict_counts_match_the_enumeration(catalog5):
    targets = [(e.graph(), 3) for e in catalog5]
    targets += [(WhiteheadGraph.build(range(3), [(0, 1), (1, 2)]), 2),
                (WhiteheadGraph.build(range(3), [(0, 1), (1, 2), (0, 2)]), 2),
                (K5_2PEND, 4), (C7, 4)]
    for target, rank in targets:
        result = target_verdict(target, rank)
        assert result.num_structures == len(enumerate_structures(target, rank))
        assert result.num_admissible == len(enumerate_structures(target, rank,
                                                                 admissible_only=True))


def test_components_are_strongly_connected(squeeze):
    diagram = squeeze["G5.02"].diagram
    for comp in diagram.components:
        adjacency = {}
        for i, j in diagram.preliminary.edge_ends(comp.nodes):
            adjacency.setdefault(i, set()).add(j)
        for start in comp.nodes:
            seen = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in adjacency.get(x, ()):
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            assert seen == set(comp.nodes)


def test_census_soundness(squeeze):
    diagram = squeeze["G5.02"].diagram
    for comp in diagram.components:
        assert comp.red_label_census == {diagram.preliminary.nodes[i].red_vertex
                                         for i in comp.nodes}


def test_verdicts(squeeze):
    assert squeeze["G5.01"].verdict == UNACHIEVED_BIRECURRENCY
    assert squeeze["G5.02"].verdict == UNACHIEVED_IRREDUCIBILITY
    assert squeeze["G5.03"].verdict == INCONCLUSIVE
    assert squeeze["G5.04"].verdict == INCONCLUSIVE


def test_complete_graph_is_not_flagged(catalog5):
    k5 = next(e for e in catalog5 if len(e.edges) == 10).graph()
    assert target_verdict(k5, 3).verdict == INCONCLUSIVE


def test_ip_test_depends_only_on_census(squeeze):
    diagram = squeeze["G5.02"].diagram
    ip = irreducibility_potential_test(diagram)
    assert ip.overall_unachieved
    for passed, comp in zip(ip.per_component, diagram.components):
        assert passed == (comp.pairs_covered() == {1, 2, 3})
    ok_diagram = squeeze["G5.04"].diagram
    assert not irreducibility_potential_test(ok_diagram).overall_unachieved


def test_verdict_is_invariant_under_target_relabeling(catalog5):
    rng = random.Random(5)
    target = catalog5[13].graph()
    perm = list(range(5))
    rng.shuffle(perm)
    relabeled = WhiteheadGraph.build(range(5), [(perm[u], perm[v]) for u, v in target.edges])
    r1 = target_verdict(target, 3)
    r2 = target_verdict(relabeled, 3)
    assert (r1.verdict, r1.num_structures, r1.num_admissible) == \
        (r2.verdict, r2.num_structures, r2.num_admissible)
    assert len(r1.diagram.components) == len(r2.diagram.components)


def test_diagram_commutes_with_epp(squeeze):
    prelim = squeeze["G5.02"].diagram.preliminary
    edges = {(e.source, e.dest, e.gen.a, e.gen.u, move_kind(e), move_det(e))
             for e in prelim.edges}
    for sigma in epp_elements(3)[:6]:
        mapped = {(epp_structure(sigma, s), epp_structure(sigma, d),
                   sigma[a - 1], sigma[u - 1], kind,
                   tuple(sorted((sigma[det[0] - 1], sigma[det[1] - 1]))))
                  for (s, d, a, u, kind, det) in edges}
        assert mapped == edges


def test_flagged_graph_component_shapes(squeeze):
    mid = squeeze["G5.02"].diagram
    assert len(mid.components) == 12
    assert all(len(c.nodes) == 2 and len(list(mid.preliminary.edge_ends(c.nodes))) == 4
               for c in mid.components)
    assert all(len(c.red_label_census) == 2 and len(c.pairs_covered()) == 2
               for c in mid.components)
    assert len(epp_classes(mid)) == 1


def _decoded(diagram, comp) -> tuple[list[LttStructure], list[GeneratingTriple]]:
    """The component's nodes and edges, as structures and moves."""
    prelim = diagram.preliminary
    inside = set(comp.nodes)
    return [prelim.nodes[i] for i in comp.nodes], [
        e for (i, j), e in zip(prelim.edge_ends(), prelim.edges) if i in inside and j in inside]


def _epp_carries(sigma, comp, other) -> bool:
    """sigma maps the nodes and the edges (source, dest, gen) of comp, each
    given as its decoded nodes and edges, onto other's."""
    (nodes, edges), (other_nodes, other_edges) = comp, other
    if {epp_structure(sigma, G) for G in nodes} != set(other_nodes):
        return False
    mapped = {(epp_structure(sigma, e.source), epp_structure(sigma, e.dest),
               Generator(e.gen.rank, a=sigma[e.gen.a - 1], u=sigma[e.gen.u - 1]))
              for e in edges}
    return mapped == {(e.source, e.dest, e.gen) for e in other_edges}


@pytest.mark.parametrize("gid, num_components, num_classes",
                         [("G5.02", 12, 1), ("G5.11", 16, 2)])
def test_epp_classes_match_full_component_isomorphism(catalog5, gid, num_components,
                                                      num_classes):
    # classes keyed by node orbits agree with the full check on nodes and edges
    entry = next(e for e in catalog5 if e.id == gid)
    diagram = target_verdict(entry.graph(), 3).diagram
    comps = [_decoded(diagram, comp) for comp in diagram.components]
    classes = epp_classes(diagram)
    assert (len(comps), len(classes)) == (num_components, num_classes)
    assert sorted(i for c in classes for i in c) == list(range(len(comps)))
    sigmas = epp_elements(3)
    for cls in classes:
        first = comps[cls[0]]
        for i in cls:
            assert any(_epp_carries(s, first, comps[i]) for s in sigmas)
    for c1, c2 in itertools.combinations(classes, 2):
        nodes2 = set(comps[c2[0]][0])
        assert not any({epp_structure(s, G) for G in comps[c1[0]][0]} == nodes2
                       for s in sigmas)


def _check_against_node_set_orbits(diagram) -> list[list[int]]:
    classes = epp_classes(diagram)
    oracle = epp_orbits(diagram.rank, [_decoded(diagram, comp)[0]
                                       for comp in diagram.components])
    assert classes == oracle
    return classes


def test_epp_classes_match_node_set_orbits_rank3(catalog5):
    diagrams = [target_verdict(e.graph(), 3).diagram for e in catalog5]
    diagrams = [d for d in diagrams if d is not None]
    assert len(diagrams) == 20  # one of the 21 targets has no birecurrent structure
    total = sum(len(_check_against_node_set_orbits(d)) for d in diagrams)
    assert total > len(diagrams)  # some diagram has more than one class


def test_epp_classes_match_node_set_orbits_rank4():
    # the classes are the components over one SCC of the quotient by
    # EPP, imaging no node; the oracle images every node of each class's
    # first component by every element of EPP.  The star on 7 vertices
    # plus two edges between leaves has 160 components in 3 classes, P7
    # 577 in 3
    counts = {}
    for name, target in [*RANK4.items(), ("p7", P7)]:
        diagram = target_verdict(target, 4).diagram
        counts[name] = (len(diagram.components), len(_check_against_node_set_orbits(diagram)))
    assert counts["star_p2"] == (160, 3) and counts["p7"] == (577, 3)


def test_epp_classes_refuse_a_diagram_not_closed_under_epp(squeeze):
    diagram = squeeze["G5.02"].diagram
    assert (len(diagram.components), len(epp_classes(diagram))) == (12, 1)
    broken = IdDiagram(diagram.rank, diagram.target, diagram.preliminary,
                       diagram.components[1:], diagram.over)
    with pytest.raises(RuntimeError, match="lies in no component"):
        epp_classes(broken)


def test_verdict_and_epp_classes_decompose_the_quotient_once(monkeypatch):
    # id_diagram keeps each node's SCC of the quotient on the diagram, and
    # epp_classes reads it there: one Tarjan pass for both
    import ttrose.diagram
    calls = []

    def counted(arcs):
        calls.append(arcs)
        return tarjan_scc(arcs)

    monkeypatch.setattr(ttrose.diagram, "tarjan_scc", counted)
    diagram = target_verdict(STAR_P2, 4).diagram
    assert len(epp_classes(diagram)) == 3
    assert calls == [diagram.preliminary.quotient]


def test_over_labels_component_nodes_by_their_epp_class(catalog5):
    # a node's label is >= 0 exactly when it lies in a component, each
    # component's nodes share one, and two components share one exactly
    # when epp_classes puts them in one class
    targets = [(e.graph(), 3) for e in catalog5] + [(STAR_P2, 4), (P7, 4), (SPIDER, 5)]
    for target, rank in targets:
        diagram = target_verdict(target, rank).diagram
        if diagram is None:
            continue
        over, components = diagram.over, diagram.components
        assert len(over) == len(diagram.preliminary.keys)
        assert {i for i, c in enumerate(over) if c >= 0} \
            == {i for comp in components for i in comp.nodes}
        labels = [{over[i] for i in comp.nodes} for comp in components]
        assert all(len(label) == 1 for label in labels)
        classes: dict[int, list[int]] = {}
        for i, (label,) in enumerate(labels):
            classes.setdefault(label, []).append(i)
        assert sorted(classes.values()) == sorted(epp_classes(diagram))


def test_k_generators_generate_k():
    # a flip, a swap and a cycle of bar pairs 3..r, fewer when the run is
    # too short for them to differ: they generate K, 384 elements at rank 6
    for rank in range(2, 7):
        generators = _k_generators(rank)
        assert len(generators) == min(rank - 2, 3)
        assert group_closure(generators, all_directions(rank)) == set(stabilizer_of_1_and_3(rank))
    assert len(stabilizer_of_1_and_3(6)) == 384


def _data_only(value) -> bool:
    """Whether value is built of ints, tuples, lists and dicts alone."""
    if isinstance(value, (list, tuple)):
        return all(map(_data_only, value))
    if isinstance(value, dict):
        return all(map(_data_only, value)) and all(map(_data_only, value.values()))
    return type(value) is int


def test_warm_rank_tables_change_nothing(monkeypatch, catalog5):
    # the 21 rank-3 targets and the eight rank-4 ones decided in catalog
    # order, in reverse order, and with the tables rebuilt before each
    # target give the same keys, rows, components and verdicts
    import ttrose.diagram
    targets = [(e.graph(), 3) for e in catalog5] + [(g, 4) for g in RANK4.values()]

    def decide(target, rank):
        result = target_verdict(target, rank)
        diagram = result.diagram
        return (result.verdict, result.num_structures, result.num_admissible,
                diagram and (diagram.preliminary.keys, diagram.preliminary.rows),
                diagram and diagram.components)

    forward = [decide(*t) for t in targets]
    assert [decide(*t) for t in reversed(targets)] == forward[::-1]
    cold = []
    for t in targets:
        _rank_tables.cache_clear()
        cold.append(decide(*t))
    assert cold == forward
    # a second verdict at a rank builds no slice map
    builds = []

    def counted(rank):
        builds.append(rank)
        return slice_maps(rank)

    slice_maps = ttrose.diagram._slice_maps
    monkeypatch.setattr(ttrose.diagram, "_slice_maps", counted)
    _rank_tables.cache_clear()
    for target, rank in targets[:2] + targets[-2:]:
        decide(target, rank)
    assert builds == [3, 4]
    # once one verdict at a rank has built its diagram and its EPP
    # classes, the tables are whole: the other verdicts and EPP classes at
    # the rank write nothing to them, and they hold data, no function a
    # caller could swap out of the module
    for rank in (3, 4):
        _rank_tables.cache_clear()
        diagrams = (target_verdict(target, r).diagram for target, r in targets if r == rank)
        epp_classes(next(d for d in diagrams if d))
        tables = _rank_tables(rank)
        before = copy.deepcopy(vars(tables))
        for diagram in diagrams:
            if diagram:
                epp_classes(diagram)
        assert vars(tables) == before
        assert _data_only(list(vars(tables).values()))


def test_slice_map_products_match_direct_composition():
    # factor against composing directly, g o sigma_k' = sigma_k'' o kappa
    # with kappa in K, for every slice key k' and, as g, every slice map
    # (the products) and every element of K (the lifts); and each source
    # key's products are factor's, for every slice map in order
    for rank in range(2, 6):
        tables = _rank_tables(rank)
        maps, stabilizer = tables.maps, stabilizer_of_1_and_3(rank)
        assert len(maps) == 2 * rank * (2 * rank - 2)
        for key, sigma in maps.items():
            assert tuple(sigma[d - 1] for d in tables.back[key]) == tables.identity
        for g in [*maps.values(), *stabilizer]:
            for key1, sigma1 in maps.items():
                key2, kappa = tables.factor(g, key1)
                assert tuple(maps[key2][d - 1] for d in kappa) == tuple(g[d - 1] for d in sigma1)
                assert kappa in stabilizer
        assert list(tables.products) == list(tables.sources)
        for key1, products in tables.products.items():
            assert products == [tables.factor(sigma, key1) for sigma in maps.values()]


def test_move_sources_lie_in_the_source_slices(catalog5):
    # a move into a base structure has u = 1 and a = bar(3) = 4, so its
    # source has red vertex 1 or 4 and a red-edge end that is neither:
    # every move source of every base structure lies in one of the 2(2r-3)
    # slices the rank tables hold products for, and the stars at ranks
    # 2-5, the 21 rank-3 targets, the eight rank-4 ones and the spider
    # reach every one of them
    targets = [(star_target(rank), rank) for rank in range(2, 6)] + [(SPIDER, 5)]
    targets += [(e.graph(), 3) for e in catalog5] + [(g, 4) for g in RANK4.values()]
    reached: dict[int, set] = {}
    for target, rank in targets:
        keys = reached.setdefault(rank, set())
        for G in _slice_structures(_base_slice(target, rank), rank):
            keys.update((red, end) for red, end, _ in move_sources(G))
    for rank, keys in reached.items():
        sources = _rank_tables(rank).sources
        assert len(sources) == len(set(sources)) == 2 * (2 * rank - 3)
        assert keys == set(sources)


def test_move_sources_of_every_node_are_placed_in_the_base_slice(catalog5):
    # placed as _preliminary places a base structure's move sources, through
    # back[k], the inverse of the slice map sigma_k, and pair_bit: each move
    # source of each node lands on a base-slice mask, birecurrent exactly
    # when the source is a node.  The nodes lie in every slice, and so do
    # their move sources, not only in the 2(2r-3) source slices
    targets = [(e.graph(), 3) for e in catalog5] + [(g, 4) for g in RANK4.values()]
    reached: dict[int, set] = {}
    for target, rank in targets:
        tables, base = _rank_tables(rank), _base_slice(target, rank)
        pair_bit, keys = tables.pair_bit, reached.setdefault(rank, set())
        nodes = set(build_preliminary(target, rank).nodes)
        for G in nodes:
            for red, end, colored in move_sources(G):
                back = tables.back[red, end]
                mask = sum(pair_bit[back[u - 1]][back[v - 1]] for u, v in colored)
                assert mask in base.index, (G, red, end)
                assert base.birecurrent[base.index[mask]] \
                    == (LttStructure(rank, red, colored) in nodes), (G, red, end)
                keys.add((red, end))
    for rank, keys in reached.items():
        assert keys == set(_rank_tables(rank).maps)


def test_epp_classes_map_r_images_per_component(monkeypatch):
    # a class is the components over one SCC of the quotient by EPP, so
    # classing them images no node under EPP (46,080 elements at rank 6):
    # no orbit is walked and no turn mask imaged
    import ttrose.diagram
    import ttrose.whitehead
    diagram = target_verdict(K11, 6).diagram
    images = []

    def counting(mask, action):
        images.append(mask)
        return mask_image(mask, action)

    monkeypatch.setattr(ttrose.whitehead, "mask_image", counting)
    monkeypatch.setattr(ttrose.diagram, "mask_orbit", lambda *args: images.append(args))
    assert len(epp_classes(diagram)) == 1
    assert images == []


def test_loops_and_reports(squeeze):
    diagram = squeeze["G5.04"].diagram
    comp = diagram.components[0]
    loops = find_loops(diagram.preliminary, comp, 4)
    assert loops
    for lp in loops[:40]:
        report = verify_loop(lp)
        assert report.train_track  # diagram loops compose without cancellation here
    with pytest.raises(ValueError):
        verify_loop([])
    open_edge = next(e for e in _decoded(diagram, comp)[1] if e.source != e.dest)
    with pytest.raises(ValueError):
        verify_loop([open_edge])  # not closed
    with pytest.raises(ValueError):
        verify_loop([open_edge, open_edge])  # not consecutive


def test_verify_loop_reports_each_composite_fault_once():
    G = make_structure(2, 1, (1, 3), [(2, 3), (2, 4)])
    first = GeneratingTriple(Generator(2, a=3, u=1), G, G)  # a -> ba
    # then b -> a'b: a -> a'ba is not a train track, and nothing asks for its structure
    report = verify_loop([first, GeneratingTriple(Generator(2, a=2, u=3), G, G)])
    assert not report.train_track and not report.basepoint_matches
    assert report.details == ("composite is not a train track (illegal turn (1, 3))",
                              "composite moves directions [1] besides the last u=3")
    # then a -> b'a: the composite is the identity, a train track with no structure
    report = verify_loop([first, GeneratingTriple(Generator(2, a=4, u=1), G, G)])
    assert report.train_track and not report.basepoint_matches
    assert report.details[-1] == ("composite has no structure: expected exactly 1 "
                                  "nonperiodic direction, found 0: []")


def test_loops_of_every_component_match_a_search_of_the_whole_diagram(squeeze):
    # a closed walk never leaves its node's strongly connected component,
    # so searching the component alone misses none of them
    diagram = squeeze["G5.02"].diagram
    assert len(diagram.components) == 12
    prelim = diagram.preliminary
    for comp in diagram.components:
        loops = find_loops(prelim, comp, 3)
        assert len(loops) == len(set(loops))
        assert set(loops) == closed_walks(prelim.edges, prelim.nodes[comp.nodes[0]], 3)


def test_find_loops_decodes_only_the_edges_of_its_loops(monkeypatch, squeeze):
    # one move per distinct edge of the loops it returns, each loop edge
    # being one of them; the diagram's nodes and edges are never all decoded
    import ttrose.diagram
    diagram = target_verdict(squeeze["G5.04"].diagram.target, 3).diagram
    prelim = diagram.preliminary
    built = []

    def recording(*args):
        built.append(GeneratingTriple(*args))
        return built[-1]

    monkeypatch.setattr(ttrose.diagram, "GeneratingTriple", recording)
    found = 0
    for comp in diagram.components:
        del built[:]
        loops = find_loops(prelim, comp, 4)
        found += len(loops)
        assert {id(e) for lp in loops for e in lp} == set(map(id, built))
        assert len(set(built)) == len(built)
    assert found and not {"nodes", "edges"} & set(vars(prelim))


def test_find_loops_reaches_past_the_recursion_limit(catalog5):
    # G5.17's component 0 is one node with a self-loop, so it has one loop
    # of each length; a walk that recursed once per edge stopped near 1,000
    target = next(e.graph() for e in catalog5 if e.id == "G5.17")
    diagram = target_verdict(target, 3).diagram
    comp = diagram.components[0]
    assert len(comp.nodes) == 1
    loops = find_loops(diagram.preliminary, comp, 1100)
    assert [len(lp) for lp in loops] == list(range(1, 1101))


def test_dot_export_is_deterministic(squeeze):
    diagram = squeeze["G5.02"].diagram
    assert diagram_to_dot(diagram) == diagram_to_dot(diagram)
    assert "digraph" in diagram_to_dot(diagram)


def test_example_decomposition_realizes_a_diagram_loop():
    # the worked example map, ideally decomposed, must trace a loop of
    # admissible edges in the diagram of its own stable Whitehead graph,
    # and verify_loop must confirm the whole report
    from oracles import EXAMPLE_MAP
    from ttrose.maps import (FoldDecomposition, identity_permutation, ltt_of_map,
                             stable_whitehead_graph, stallings_fold_decomposition,
                             validate_ideal_decomposition)

    dec = stallings_fold_decomposition(EXAMPLE_MAP)
    assert validate_ideal_decomposition(dec).ok
    gens = dec.generators
    n = len(gens)
    structures = []
    for k in range(n + 1):
        rotated = gens[k:] + gens[:k]
        f_k = FoldDecomposition(3, rotated, identity_permutation(3)).composite
        structures.append(ltt_of_map(f_k))
    assert structures[0] == structures[n]

    target = stable_whitehead_graph(EXAMPLE_MAP)
    diagram = id_diagram(target, 3, build_preliminary(target, 3))
    by_key = {}
    for e in diagram.preliminary.edges:
        by_key.setdefault((e.source, e.dest, e.gen), []).append(e)
    loop = []
    for k in range(1, n + 1):
        matches = by_key.get((structures[k - 1], structures[k], gens[k - 1]))
        assert matches, f"step {k} is not a diagram edge"
        loop.append(matches[0])
    report = verify_loop(loop)
    assert report.train_track
    assert report.ideal.ok
    assert report.basepoint_matches


def test_preliminary_nodes_match_assignment_oracle(catalog5):
    from ttrose.ltt import is_birecurrent as birec
    target = catalog5[1].graph()
    prelim = build_preliminary(target, 3)
    oracle_nodes = {G for G in assignment_oracle_structures(target, 3) if birec(G)}
    assert set(prelim.nodes) == oracle_nodes


def test_five_cycle_is_not_flagged():
    cycle = WhiteheadGraph.build(range(5), [(i, (i + 1) % 5) for i in range(5)])
    assert target_verdict(cycle, 3).verdict == INCONCLUSIVE
