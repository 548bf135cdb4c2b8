"""Stallings fold decompositions and the ideal decomposition checker."""

import itertools
import random

import pytest

from oracles import (
    compose_generators,
    fold_decomposition_by_search,
    random_clean_composite,
    random_generator,
)
from ttrose.diagram import find_loops, target_verdict
from ttrose.maps import (
    FoldDecomposition,
    NotProperFullFolds,
    RoseMap,
    compose,
    generator_map,
    identity_permutation,
    permutation_rose_map,
    stallings_fold_decomposition,
    validate_ideal_decomposition,
    verify_loop,
)
from ttrose.rose import Generator, all_directions, bar, is_tight, turns_of
from ttrose.whitehead import WhiteheadGraph


def test_single_generator_decomposes_to_itself():
    gen = Generator(3, a=1, u=3)  # b -> ab
    dec = stallings_fold_decomposition(generator_map(gen))
    assert dec.generators == (gen,)
    assert dec.has_trivial_permutation()


def test_two_generator_composite_recovered_in_order():
    # a -> ab then b -> bc, encoded on reversed orientations
    g1 = Generator(3, a=4, u=2)   # a' -> b'a', i.e. a -> ab
    g2 = Generator(3, a=6, u=4)   # b' -> c'b', i.e. b -> bc
    m, cancelled = compose_generators([g1, g2], 3)
    assert not cancelled
    dec = stallings_fold_decomposition(m)
    assert dec.generators == (g1, g2)
    assert dec.composite == m


@pytest.mark.parametrize("seed", range(30))
def test_fold_round_trip_random(seed):
    rng = random.Random(seed)
    rank = rng.choice((3, 4, 5))
    m, _ = random_clean_composite(rng, rank, rng.randrange(2, 9))
    dec = stallings_fold_decomposition(m)
    assert dec.composite == m


def test_shared_prefix_needs_non_lexicographic_fold_choice():
    # both non-fixed petals start with c; only the fold against c itself
    # is a proper full fold
    m = RoseMap.from_strings(3, {"a": "ca", "b": "cb", "c": "c"})
    dec = stallings_fold_decomposition(m)
    assert dec.composite == m
    assert {str(g) for g in dec.generators} == {"a -> ca", "b -> cb"}


def test_genuinely_partial_fold_is_rejected():
    # tightened composite whose foldable turns all have two-sided proper
    # overlap; no proper full fold exists at the first step
    m = RoseMap(3, ((1, 6, 4), (3, 6, 4), (3, 5, 5)))
    with pytest.raises(NotProperFullFolds) as exc:
        stallings_fold_decomposition(m)
    assert "partial" in str(exc.value)


def test_non_homotopy_equivalence_is_rejected():
    # a and b have one image, so folding turn {a, b} identifies whole edges
    for images in ({"a": "ab", "b": "ab"}, {"a": "b", "b": "b"}):
        with pytest.raises(NotProperFullFolds) as exc:
            stallings_fold_decomposition(RoseMap.from_strings(2, images))
        assert exc.value.description == ("maximal fold of turn (1, 3) is improper; "
                                         "quotient would not be a rose")


def test_final_permutation_recovered():
    sigma = (3, 4, 1, 2)  # swap the two petals of a rank-2 rose
    gen = Generator(2, a=1, u=3)
    m = compose(permutation_rose_map(2, sigma), generator_map(gen))
    dec = stallings_fold_decomposition(m)
    assert dec.composite == m
    assert not dec.has_trivial_permutation()


def _fold_outcome(decompose, m: RoseMap):
    """The generators and final permutation, or the failing step and its
    description."""
    try:
        dec = decompose(m)
    except NotProperFullFolds as exc:
        return exc.step, exc.description
    return dec.generators, dec.final_permutation


def _all_maps(rank: int, max_len: int):
    """Every map whose petal images are tight words of at most max_len letters."""
    words = [w for n in range(1, max_len + 1)
             for w in itertools.product(all_directions(rank), repeat=n) if is_tight(w)]
    return [RoseMap(rank, images) for images in itertools.product(words, repeat=rank)]


def _random_products(seed: int, count: int):
    """Products of 1-10 random generators at ranks 2-4, tightened, so some
    cancel; a random signed permutation of the petals follows 30% of them."""
    rng = random.Random(seed)
    for _ in range(count):
        rank = rng.randrange(2, 5)
        m, _ = compose_generators([random_generator(rng, rank)
                                   for _ in range(rng.randrange(1, 11))], rank)
        if rng.random() < 0.3:
            perm = [0] * (2 * rank)
            for i, j in enumerate(rng.sample(range(1, rank + 1), rank), start=1):
                d = rng.choice((2 * j - 1, 2 * j))
                perm[2 * i - 2], perm[2 * i - 1] = d, bar(d)
            m = compose(permutation_rose_map(rank, perm), m)
        yield m


@pytest.mark.parametrize("maps", [
    lambda: _all_maps(2, 4),
    lambda: _all_maps(3, 2),
    lambda: _random_products(0, 3000),
], ids=["rank2_len4", "rank3_len2", "random_products"])
def test_first_fold_path_matches_the_search_over_every_order(maps):
    # folding is confluent, so the first branch of the search decides it:
    # same generators and permutation, or same failing step and message
    outcomes = set()
    for m in maps():
        outcome = _fold_outcome(stallings_fold_decomposition, m)
        assert outcome == _fold_outcome(fold_decomposition_by_search, m), m
        outcomes.add(type(outcome[0]))
    assert outcomes == {int, tuple}  # some maps fail at a step, some decompose


def test_folding_builds_one_map_per_generator_taken(monkeypatch):
    # a step scans its turns and builds only the map of the proper fold it
    # takes, and the final permutation is read off the images without a map
    maps = _all_maps(3, 2)
    built = [0]
    post_init = RoseMap.__post_init__

    def counted(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(RoseMap, "__post_init__", counted)
    taken = 0
    for m in maps:
        done, _ = _fold_outcome(stallings_fold_decomposition, m)
        taken += done if isinstance(done, int) else len(done)
    assert built[0] == taken > 0


def test_a_loop_check_composes_each_generator_once(monkeypatch):
    # the composite is composed on first read and shared by the train track,
    # ideal decomposition and basepoint checks: one compose per generator of
    # the loop, and one for the final permutation; its taken turns are closed
    # once, reading the turns of each of its 3 petal images
    g504 = WhiteheadGraph.build(range(5), [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    diagram = target_verdict(g504, 3).diagram
    calls = {"compose": 0, "turns_of": 0}

    def counted(name, call):
        def wrapped(*args):
            calls[name] += 1
            return call(*args)
        return wrapped

    monkeypatch.setattr("ttrose.maps.compose", counted("compose", compose))
    monkeypatch.setattr("ttrose.maps.turns_of", counted("turns_of", turns_of))
    lengths = set()
    for loop in find_loops(diagram.preliminary, diagram.components[0], 3):
        calls.update(compose=0, turns_of=0)
        verify_loop(loop)
        assert calls == {"compose": len(loop) + 1, "turns_of": 3}
        lengths.add(len(loop))
    assert lengths == {1, 2, 3}


def test_ideal_validation_rejects_empty():
    report = validate_ideal_decomposition(
        FoldDecomposition(3, (), identity_permutation(3)))
    assert not report.ok
    assert not report.nonempty


def test_ideal_validation_flags_untouched_edges():
    gen = Generator(3, a=1, u=3)
    dec = FoldDecomposition(3, (gen,) * 4, identity_permutation(3))
    report = validate_ideal_decomposition(dec)
    assert not report.am_viii_a
    assert not report.am_viii_b
    assert "never twice-achieved" in " ".join(report.details)


def test_ideal_validation_flags_nontrivial_permutation():
    gen = Generator(2, a=1, u=3)
    dec = FoldDecomposition(2, (gen,), (3, 4, 1, 2))
    report = validate_ideal_decomposition(dec)
    assert not report.trivial_permutation


def test_ideal_validation_composite_fix_clause():
    # u-indices cover both petals but the composite moves extra directions
    g1 = Generator(2, a=1, u=3)
    g2 = Generator(2, a=3, u=1)
    report = validate_ideal_decomposition(
        FoldDecomposition(2, (g1, g2), identity_permutation(2)))
    assert report.nonempty
    report_single = validate_ideal_decomposition(
        FoldDecomposition(2, (g1,), identity_permutation(2)))
    assert report_single.composite_fixes_all_but_last_u
    # a -> ba, then a -> b'a: the composite is the identity, so it fixes
    # the last unachieved direction too
    report_identity = validate_ideal_decomposition(
        FoldDecomposition(2, (g2, Generator(2, a=4, u=1)), identity_permutation(2)))
    assert not report_identity.composite_fixes_all_but_last_u
    assert "composite fixes the last unachieved direction 1 as well" in report_identity.details
