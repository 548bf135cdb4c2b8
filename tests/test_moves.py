"""Extensions, switches, induced maps, and the admissible map checklist."""

import itertools
import random

import pytest

from oracles import (EXAMPLE_MAP, MissingImageEdge, check_am, generating_triples,
                     induced_colored_map, is_admissible, make_structure, move_det, move_kind)
from ttrose.diagram import build_preliminary, enumerate_structures, star_target
from ttrose.ltt import validate_ltt
from ttrose.maps import ltt_of_map
from ttrose.moves import GeneratingTriple, determining_edges, entering_generator
from ttrose.rose import Generator, bar, turn
from ttrose.catalog import connected_simplicial_graphs

A, A_, B, B_, C, C_ = 1, 2, 3, 4, 5, 6


@pytest.fixture(scope="module")
def example_structure():
    return ltt_of_map(EXAMPLE_MAP)


def _move(G, kind, det):
    """The move of that kind and determining edge into G, None when its
    source would be invalid."""
    found = [t for t in generating_triples(G) if (move_kind(t), move_det(t)) == (kind, det)]
    assert len(found) <= 1
    return found[0] if found else None


def test_determining_edges_of_example(example_structure):
    # red edge [a,b'] so the twice-achieved direction is a'; its purple edges
    assert determining_edges(example_structure) == [turn(A_, B), turn(A_, C),
                                                    turn(A_, C_)]


def test_determining_edges_reject_bar_pair_red_edge():
    G = make_structure(3, B_, (B, B_), [(1, 5), (2, 3), (2, 5), (2, 6), (3, 6)])
    with pytest.raises(ValueError):
        determining_edges(G)


def test_extension_moves_only_the_red_edge(example_structure):
    det = turn(A_, C)
    t = _move(example_structure, "extension", det)
    assert move_kind(t) == "extension"
    assert t.gen == Generator(3, a=A_, u=B_)
    assert t.source.red_vertex == example_structure.red_vertex
    assert t.source.purple_edges == example_structure.purple_edges
    assert t.source.red_edge == turn(B_, C)
    # determinism: repeated calls give the identical triple
    assert _move(example_structure, "extension", det) == t


def test_extension_rejects_bar_partner_attachment(example_structure):
    # d_l = b would make the red edge {b',b}
    assert _move(example_structure, "extension", turn(A_, B)) is None


def test_switch_relabels_and_recolors(example_structure):
    det = turn(A_, C)
    t = _move(example_structure, "switch", det)
    assert move_kind(t) == "switch"
    assert t.gen == Generator(3, a=A_, u=B_)
    assert t.source.red_vertex == A_   # the old twice-achieved direction
    assert t.source.red_edge == turn(A_, C)
    # purple edges: a' is renamed to b' throughout the purple part
    expected = {turn(A, C), turn(B_, B), turn(B_, C), turn(B_, C_), turn(B, C_)}
    assert t.source.purple_edges == expected
    assert _move(example_structure, "switch", det) == t


def test_switch_rejects_bar_partner_attachment():
    # structure whose twice-achieved direction has a purple edge to its bar
    G = make_structure(3, B_, (A, B_), [(A_, A), (A_, B), (A_, C), (A_, C_), (B, C)])
    assert _move(G, "switch", turn(A_, A)) is None
    # the extension for the same determining edge exists and is a self-loop
    t = _move(G, "extension", turn(A_, A))
    assert t.source == G


def test_fold_example_triple_reconstruction():
    # the x -> xz fold: with x=a, y=b, z=c the destination has red vertex a',
    # red edge [a',c], and purple edges [c',b],[c',b'],[c',c],[a,b]
    dest = make_structure(3, A_, (A_, C), [(C_, B), (C_, B_), (C_, C), (A, B)])
    assert dest.twice_achieved == C_
    det = turn(C_, B_)
    t = _move(dest, "switch", det)
    assert t.gen == Generator(3, a=C_, u=A_)
    # the source is the destination with c' renamed to a' in the purple part
    # and the determining edge left behind as the red edge
    assert t.source.red_vertex == C_
    assert t.source.red_edge == turn(C_, B_)
    assert t.source.purple_edges == {(A_, B), (A_, B_), (A_, C), (A, B)}

    induced = induced_colored_map(t)
    assert induced.vertex_image(A_) == C_
    image_of = dict(induced.edge_map)
    assert image_of[turn(A_, B)] == turn(C_, B)
    assert image_of[turn(A_, B_)] == turn(C_, B_)
    assert image_of[turn(A_, C)] == turn(C_, C)
    assert image_of[turn(C_, B_)] == turn(C_, B_)  # old red lands on purple


def test_induced_map_missing_edge():
    dest = make_structure(3, A_, (A_, C), [(C_, B), (C_, B_), (C_, C), (A, B)])
    t = _move(dest, "switch", turn(C_, B_))
    corrupted = make_structure(3, A_, (A_, C), [(C_, B), (C_, C), (A, B)])
    bad = GeneratingTriple(t.gen, t.source, corrupted)
    with pytest.raises(MissingImageEdge):
        induced_colored_map(bad)


def test_checklist_on_star_based_extension():
    # extensions out of a star structure have everything but birecurrency
    t = None
    for G in enumerate_structures(star_target(3), 3):
        for det in determining_edges(G):
            t = _move(G, "extension", det)
            if t is not None:
                break
        if t is not None:
            break
    assert t is not None
    record = check_am(t)
    assert not record.i_birecurrent
    assert record.ii_unachieved_in_illegal_turn
    assert record.iii_red_placement
    assert record.iv_images_purple
    assert record.v_red_edge_unique_at_red_vertex
    assert record.vi_generator_shape
    assert record.vii_purple_isomorphism
    assert not is_admissible(t)


def test_checklist_flags_mismatched_generator(example_structure):
    det = turn(A_, C)
    t = _move(example_structure, "extension", det)
    wrong = GeneratingTriple(Generator(3, a=A_, u=C_), t.source, t.dest)
    record = check_am(wrong)
    assert not record.vi_generator_shape
    assert not is_admissible(wrong)


def test_equivalence_on_all_destination_determined_triples():
    # over every admissible (source, dest) pair with the generator the
    # destination determines, the checklist passes iff the triple is an
    # admissible extension or switch
    target = connected_simplicial_graphs(5)[1].graph()
    nodes = enumerate_structures(target, 3, admissible_only=True)
    prelim = build_preliminary(target, 3, nodes=nodes)
    edge_keys = {(e.source, e.dest) for e in prelim.edges}
    for dest in nodes:
        gen = entering_generator(dest)
        for source in nodes:
            t = GeneratingTriple(gen, source, dest)
            assert check_am(t).all_pass() == is_admissible(t)
            if check_am(t).all_pass():
                assert (source, dest) in edge_keys


def test_purple_edges_map_injectively_on_diagram_edges():
    target = connected_simplicial_graphs(5)[1].graph()
    prelim = build_preliminary(target, 3)
    assert prelim.edges
    for e in prelim.edges:
        induced = induced_colored_map(e)  # raises if not injective/onto
        purple_images = [img for (src, img) in induced.edge_map
                         if src in e.source.purple_edges]
        assert len(purple_images) == len(set(purple_images))


def _expected_sources(G, det):
    """The two sources a determining edge gives, built from the definitions:
    the extension keeps the red vertex and the purple part; the switch makes
    the twice-achieved direction a the red vertex and renames a to u in the
    purple part."""
    u, a = G.red_vertex, G.twice_achieved
    d_l = det[1] if det[0] == a else det[0]
    renamed = [tuple(u if x == a else x for x in e) for e in G.purple_edges]
    return {"extension": make_structure(G.rank, u, (u, d_l), G.purple_edges),
            "switch": make_structure(G.rank, a, (a, d_l), renamed)}


def _check_moves(G):
    """Assert that generating_triples(G) is, as an ordered list, the valid
    sources built by hand; return how many sources were built and how many
    of them were invalid."""
    expected, refused = [], 0
    for det in determining_edges(G):
        for source in _expected_sources(G, det).values():
            if bar(source.red_vertex) in source.red_edge or not validate_ltt(source).ok:
                refused += 1
            else:
                expected.append(GeneratingTriple(entering_generator(G), source, G))
    assert generating_triples(G) == expected, str(G)
    return len(expected) + refused, refused


def test_moves_refuse_exactly_the_invalid_sources():
    # every structure of the 21 rank-3 targets, every determining edge,
    # both moves: a move is left out iff its source is invalid
    checked = refused = 0
    for entry in connected_simplicial_graphs(5):
        for G in enumerate_structures(entry.graph(), 3):
            built, invalid = _check_moves(G)
            checked += built
            refused += invalid
    assert refused and checked > refused


def test_moves_refuse_exactly_the_invalid_sources_at_rank_4():
    # seeded random valid rank-4 structures; the purple part is any graph on
    # the seven other directions, so some leave the red edge's purple end
    # with no purple edge
    rng = random.Random(20261018)
    structures = checked = refused = bare = 0
    while structures < 3000:
        red = rng.randrange(1, 9)
        others = [d for d in range(1, 9) if d != red]
        attach = rng.choice([d for d in others if d != bar(red)])
        purple = [e for e in itertools.combinations(others, 2) if rng.random() < 0.3]
        G = make_structure(4, red, (red, attach), purple)
        if not validate_ltt(G).ok:
            continue
        built, invalid = _check_moves(G)
        structures += 1
        checked += built
        refused += invalid
        bare += not any(attach in e for e in purple)
    assert bare and refused and checked > refused


def test_moves_refuse_a_bare_old_red_end():
    # valid, but no purple edge meets a, the red edge's purple end: every
    # move takes the red edge off a and leaves it bare
    G = make_structure(3, B_, (A, B_), [(A_, B), (A_, C), (A_, C_), (B, C)])
    assert validate_ltt(G).ok
    dets = determining_edges(G)
    assert dets == [turn(A_, B), turn(A_, C), turn(A_, C_)]
    for det in dets:
        for kind, source in _expected_sources(G, det).items():
            assert not validate_ltt(source).ok
            assert _move(G, kind, det) is None
