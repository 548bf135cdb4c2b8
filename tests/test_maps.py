"""Direction maps, gates, turn closures, train track checks, and the
Whitehead graphs of the worked example map."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    EXAMPLE_MAP,
    closure_by_iteration,
    compose_generators,
    gates_by_definition,
    periodic_by_definition,
    random_clean_composite,
    random_generator,
    substitute_and_reduce,
)
from ttrose.maps import (
    FoldDecomposition,
    RoseMap,
    apply_map,
    compose,
    generator_map,
    identity_permutation,
    local_whitehead_graph,
    permutation_rose_map,
    stable_whitehead_graph,
)
from ttrose.rose import Generator, parse_word, turn
from ttrose.whitehead import index_list, WhiteheadGraph
from fractions import Fraction

# direction letters at rank 3: a=1 a'=2 b=3 b'=4 c=5 c'=6

A, A_, B, B_, C, C_ = 1, 2, 3, 4, 5, 6


def test_apply_edge_image():
    image, cancelled = apply_map(EXAMPLE_MAP, [B])
    assert image == parse_word("bac'", 3)
    assert not cancelled


def test_apply_identity_and_reversal():
    ident = RoseMap.identity(3)
    assert apply_map(ident, (1, 3, 6)) == ((1, 3, 6), False)
    m = RoseMap.from_strings(2, {"a": "ab", "b": "b"})
    assert apply_map(m, [A_]) == ((B_, A_), False)


def test_direction_map_of_example():
    dg = EXAMPLE_MAP.direction_map
    assert dg[B_] == C
    assert dg[A] == A
    assert dg == {A: A, A_: A_, B: B, B_: C, C: C, C_: C_}


def test_identity_direction_map():
    dg = RoseMap.identity(4).direction_map
    assert all(dg[d] == d for d in range(1, 9))


def test_periodic_and_fixed_of_example():
    periodic, fixed = EXAMPLE_MAP.periodic, EXAMPLE_MAP.fixed
    assert periodic == fixed == {A, A_, B, C, C_}


def test_direction_cycle_map_is_periodic_not_fixed():
    m = permutation_rose_map(2, (3, 4, 2, 1))  # one 4-cycle on directions
    periodic, fixed = m.periodic, m.fixed
    assert periodic == {1, 2, 3, 4}
    assert fixed == frozenset()


def test_gates_of_example():
    assert EXAMPLE_MAP.gates == (
        frozenset({A}), frozenset({A_}), frozenset({B}),
        frozenset({B_, C}), frozenset({C_}))


def test_gates_identity_and_generator():
    assert all(len(g) == 1 for g in RoseMap.identity(3).gates)
    gen = Generator(3, a=C, u=A)
    non_singleton = [g for g in generator_map(gen).gates if len(g) > 1]
    assert non_singleton == [frozenset({A, C})]


def test_closure_of_example():
    closure = EXAMPLE_MAP.taken_turns
    assert closure == {turn(A, B_), turn(A_, C_), turn(B, A_),
                       turn(B, C_), turn(C, A_), turn(A, C)}


def test_closure_matches_iteration_oracle_on_example():
    assert EXAMPLE_MAP.taken_turns == closure_by_iteration(EXAMPLE_MAP)


@pytest.mark.parametrize("seed", range(8))
def test_closure_matches_iteration_oracle_on_random_composites(seed):
    rng = random.Random(seed)
    rank = rng.choice((3, 4))
    while True:
        m, _ = random_clean_composite(rng, rank, rng.randrange(2, 7))
        if m.illegal_turn is None:
            break
    assert m.taken_turns == closure_by_iteration(m)


def test_train_track_verdicts():
    assert EXAMPLE_MAP.illegal_turn is None
    assert RoseMap.identity(3).illegal_turn is None
    bad = RoseMap.from_strings(2, {"a": "ab", "b": "b'a'"})
    assert bad.illegal_turn == turn(A_, B)
    # the witness is real: the second iterate cancels
    _, cancelled = apply_map(bad, apply_map(bad, [A])[0])
    assert cancelled


def test_train_track_maps_do_not_cancel_under_iteration():
    rng = random.Random(7)
    checked = 0
    while checked < 10:
        m, _ = random_clean_composite(rng, 3, rng.randrange(2, 6))
        if m.illegal_turn is not None:
            continue
        checked += 1
        for d in range(1, 7):
            word = (d,)
            for _ in range(4):
                word, cancelled = apply_map(m, word)
                assert not cancelled


def test_whitehead_graphs_of_example():
    lw = local_whitehead_graph(EXAMPLE_MAP)
    sw = stable_whitehead_graph(EXAMPLE_MAP)
    assert lw.vertices == frozenset({A, A_, B, B_, C, C_})
    assert lw.edges == {turn(A, B_), turn(A_, C_), turn(B, A_), turn(B, C_),
                        turn(C, A_), turn(A, C)}
    assert sw.vertices == frozenset({A, A_, B, C, C_})
    assert sw.edges == lw.edges - {turn(A, B_)}
    assert index_list(sw) == [Fraction(-3, 2)]


def test_whitehead_graph_rejects_non_train_track():
    bad = RoseMap.from_strings(2, {"a": "ab", "b": "b'a'"})
    with pytest.raises(ValueError):
        local_whitehead_graph(bad)


def test_index_list_formula():
    two_triangles = WhiteheadGraph.build(range(6), [(0, 1), (1, 2), (3, 4), (4, 5)])
    assert index_list(two_triangles) == [Fraction(-1, 2), Fraction(-1, 2)]
    path7 = WhiteheadGraph.build(range(7), [(i, i + 1) for i in range(6)])
    assert index_list(path7) == [Fraction(3, 2) - 4]


def test_compose_identity_laws():
    ident = RoseMap.identity(3)
    assert compose(ident, EXAMPLE_MAP) == EXAMPLE_MAP
    assert compose(EXAMPLE_MAP, ident) == EXAMPLE_MAP


def test_compose_small_example():
    outer = RoseMap.from_strings(2, {"a": "ab", "b": "b"})
    inner = RoseMap.from_strings(2, {"a": "a", "b": "ba"})
    composite = compose(outer, inner)
    assert composite.images == (parse_word("ab", 2), parse_word("bab", 2))


def test_compose_rank_mismatch():
    with pytest.raises(ValueError):
        compose(RoseMap.identity(2), RoseMap.identity(3))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compose_agrees_with_string_substitution(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    rank = rng.choice((2, 3, 4))
    outer, _ = compose_generators([random_generator(rng, rank) for _ in range(3)], rank)
    inner, _ = compose_generators([random_generator(rng, rank) for _ in range(3)], rank)
    composite = compose(outer, inner)
    for i, word in enumerate(inner.images):
        assert composite.images[i] == substitute_and_reduce(outer, word)


def test_gates_are_stable_under_one_more_refinement():
    rng = random.Random(3)
    for _ in range(12):
        m, _ = random_clean_composite(rng, 3, rng.randrange(2, 7))
        parts = m.gates
        dg = m.direction_map
        gate_of = {d: i for i, g in enumerate(parts) for d in g}
        refined = {}
        for d in range(1, 7):
            refined.setdefault((gate_of[d], gate_of[dg[d]]), set()).add(d)
        assert frozenset(frozenset(v) for v in refined.values()) == \
            frozenset(frozenset(g) for g in parts)


def test_gates_match_their_definition():
    maps = [EXAMPLE_MAP, RoseMap.identity(3), permutation_rose_map(2, (3, 4, 2, 1)),
            generator_map(Generator(3, a=C, u=A))]
    rng = random.Random(5)
    for _ in range(24):
        rank = rng.choice((2, 3, 4))
        maps.append(random_clean_composite(rng, rank, rng.randrange(1, 8))[0])
    for m in maps:
        assert m.gates == gates_by_definition(m)
        assert m.periodic == periodic_by_definition(m)


def test_closure_identity_and_single_generator():
    assert RoseMap.identity(3).taken_turns == frozenset()
    gen = generator_map(Generator(3, a=C, u=A))
    assert gen.taken_turns == closure_by_iteration(gen)


@pytest.mark.parametrize("call, message", [
    (lambda: RoseMap(3, ((A,), (B,))), "expected 3 edge images, got 2"),
    (lambda: RoseMap(3, ((A, B, B_), (B,), (C,))), "image of edge 1 is not tight: abb'"),
    # a -> b, b -> b sends ab' to bb', which cancels
    (lambda: compose(RoseMap(3, ((B,), (B,), (C,))), RoseMap(3, ((A, B_), (B,), (C,)))),
     "composition collapses an edge (not a homotopy equivalence)"),
    (lambda: Generator(3, a=A, u=A), "generator needs a independent of u, got a=1, u=1"),
    (lambda: Generator(3, a=A_, u=A), "generator needs a independent of u, got a=2, u=1"),
    (lambda: permutation_rose_map(2, (1, 3, 2, 4)),
     "not a bar-equivariant direction permutation: (1, 3, 2, 4)"),
    (lambda: FoldDecomposition(3, (Generator(2, a=1, u=3),), identity_permutation(3)),
     "generator rank mismatch in decomposition"),
], ids=["image_count", "untight_image", "collapsing_compose", "generator_a_is_u",
        "generator_a_is_bar_u", "permutation_breaks_bar_pairs", "generator_of_another_rank"])
def test_refusals_say_what_is_wrong(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
