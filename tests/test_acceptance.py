"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

A1  golden analysis of the worked example map
A2  star targets unachieved by birecurrency at ranks 3, 4, 5
A3  rank-3 star census up to edge pair permutations: 4 raw classes,
    2 once the structures trapped on one bar pair are removed
A4  rank-3 catalog sweep: 21 graphs, exactly 3 unachieved
A5  red-label census fingerprints of the two non-star flagged graphs
A6  birecurrency checker agrees with the brute-force covering-cycle oracle
A7  checklist I-VII equivalence with admissible extensions/switches
A8  fold decomposition round-trips on random generator compositions
A9  edge images realize as smooth paths in their structures
"""

import random
import time

import pytest

from oracles import (
    EXAMPLE_MAP,
    check_am,
    epp_classes_of_structures,
    generating_triples,
    is_admissible,
    map_realizes_images_smoothly,
    purple_vertices,
    random_clean_composite,
    random_connected_graph,
    random_structure,
    trapped_direction,
)
from ttrose.catalog import connected_simplicial_graphs
from ttrose.diagram import (
    INCONCLUSIVE,
    UNACHIEVED_BIRECURRENCY,
    UNACHIEVED_IRREDUCIBILITY,
    enumerate_structures,
    epp_classes,
    star_target,
    target_verdict,
)
from ttrose.ltt import brute_force_birecurrent, is_birecurrent
from ttrose.maps import (
    LttRegimeError,
    local_whitehead_graph,
    ltt_of_map,
    stable_whitehead_graph,
    stallings_fold_decomposition,
)
from ttrose.rose import bar, edge_index, turn

A, A_, B, B_, C, C_ = 1, 2, 3, 4, 5, 6


def _criterion(cid, description, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {cid} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE {cid} ({description}): PASS")


@pytest.fixture(scope="module")
def catalog5():
    return connected_simplicial_graphs(5)


@pytest.fixture(scope="module")
def sweep3(catalog5):
    start = time.perf_counter()
    results = {e.id: target_verdict(e.graph(), 3) for e in catalog5}
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_a1_golden_map_analysis():
    def body():
        start = time.perf_counter()
        fixed = EXAMPLE_MAP.fixed
        dg = EXAMPLE_MAP.direction_map
        lw = local_whitehead_graph(EXAMPLE_MAP)
        sw = stable_whitehead_graph(EXAMPLE_MAP)
        G = ltt_of_map(EXAMPLE_MAP)
        elapsed = time.perf_counter() - start
        assert fixed == {A, A_, B, C, C_}
        assert dg[B_] == C
        assert lw.edges == {turn(A, B_), turn(A_, C_), turn(B, A_),
                            turn(B, C_), turn(C, A_), turn(A, C)}
        assert sw.edges == lw.edges - {turn(A, B_)}
        assert G.red_vertex == B_
        assert elapsed < 1.0
    _criterion("A1", "golden map analysis", body)


def test_a2_star_targets_unachieved():
    def body():
        for rank, budget in ((3, 1.0), (4, 1.0), (5, 60.0)):
            start = time.perf_counter()
            admissible = enumerate_structures(star_target(rank), rank,
                                              admissible_only=True)
            verdict = target_verdict(star_target(rank), rank).verdict
            elapsed = time.perf_counter() - start
            assert admissible == []
            assert verdict == UNACHIEVED_BIRECURRENCY
            assert elapsed < budget, f"rank {rank} took {elapsed:.2f}s"
    _criterion("A2", "star targets unachieved by birecurrency", body)


def _star_case(G):
    """Which EPP-invariant case of the rank-3 star a structure lies in:
    R the red vertex, c the star's center, a the red edge's purple end."""
    R, a = G.red_vertex, G.attach_vertex
    degree = {d: 0 for d in purple_vertices(G)}
    for u, v in G.purple_edges:
        degree[u] += 1
        degree[v] += 1
    c = max(degree, key=degree.get)
    if c == bar(R):
        return "c=R'"
    if a == c:
        return "a=c"
    if a == bar(c):
        return "a=c'"
    return "a=leaf"


def test_a3_star_census_rank3():
    def body():
        raw = enumerate_structures(star_target(3), 3)
        assert all(not is_birecurrent(G) for G in raw)
        # raw census, derived case by case: c=R' (6 red vertices x 4
        # attachments); otherwise 6 x 4 centers x (a=c: 1, a=c': 1, a one
        # of the two remaining leaves: 2)
        classes = epp_classes_of_structures(raw)
        sizes = {}
        for cls in classes:
            cases = {_star_case(G) for G in cls}
            assert len(cases) == 1, f"class mixes cases {cases}"
            sizes[cases.pop()] = len(cls)
        assert sizes == {"c=R'": 24, "a=c": 24, "a=c'": 24, "a=leaf": 48}
        # the paper's census: drop the structures trapped on one bar pair
        # (the leaf c' whose only colored edge goes to c)
        untrapped = [G for G in raw if trapped_direction(G) is None]
        assert 0 < len(untrapped) < len(raw)
        classes = epp_classes_of_structures(untrapped)
        assert len(classes) == 2, f"found {len(classes)} classes"
        assert {_star_case(cls[0]) for cls in classes} == {"c=R'", "a=c'"}
    _criterion("A3", "rank-3 star census: 4 raw EPP classes (24/24/24/48), "
                     "2 once trapped structures are removed", body)


def test_a4_rank3_sweep(catalog5, sweep3):
    def body():
        results, elapsed = sweep3
        assert len(catalog5) == 21
        verdicts = {gid: r.verdict for gid, r in results.items()}
        by_birecurrency = [g for g, v in verdicts.items() if v == UNACHIEVED_BIRECURRENCY]
        by_ip = [g for g, v in verdicts.items() if v == UNACHIEVED_IRREDUCIBILITY]
        inconclusive = [g for g, v in verdicts.items() if v == INCONCLUSIVE]
        assert len(by_birecurrency) == 1
        assert len(by_ip) == 2
        assert len(inconclusive) == 18
        assert elapsed < 600.0
    _criterion("A4", "rank-3 sweep flags exactly 3 of 21", body)


def test_a5_census_fingerprints(sweep3):
    def body():
        results, _ = sweep3
        flagged = [gid for gid, r in results.items()
                   if r.verdict == UNACHIEVED_IRREDUCIBILITY]
        assert len(flagged) == 2
        all_pairs = {1, 2, 3}

        def censuses(gid):
            return [comp.red_label_census for comp in results[gid].diagram.components]

        for gid in flagged:
            assert len(epp_classes(results[gid].diagram)) == 1  # components all EPP-isomorphic

        def omits_exactly_one_pair(gid):
            return all(len(all_pairs - {edge_index(d) for d in c}) == 1
                       for c in censuses(gid))

        def labels_exactly_two_pairs(gid):
            return all(len({edge_index(d) for d in c}) == 2 for c in censuses(gid))

        assignments = [(m, r) for m in flagged for r in flagged if m != r
                       and omits_exactly_one_pair(m) and labels_exactly_two_pairs(r)]
        assert assignments, "no assignment of the two fingerprints fits"
    _criterion("A5", "census fingerprints of the flagged graphs", body)


def test_a6_birecurrency_oracle_agreement(catalog5):
    def body():
        total = 0
        for entry in catalog5:
            for G in enumerate_structures(entry.graph(), 3):
                assert is_birecurrent(G) == brute_force_birecurrent(G), str(G)
                total += 1
        assert total == 17472

        rng = random.Random(20250809)
        sampled = 0
        while sampled < 500:
            target = random_connected_graph(rng, 7, rng.randrange(0, 7))
            G = random_structure(rng, target, 4)
            assert is_birecurrent(G) == brute_force_birecurrent(G), str(G)
            sampled += 1
    _criterion("A6", "birecurrency equals the brute-force oracle", body)


def test_a7_checklist_equivalence(catalog5):
    def body():
        triples = 0
        for entry in catalog5:
            nodes = enumerate_structures(entry.graph(), 3, admissible_only=True)
            for dest in nodes:
                for t in generating_triples(dest):
                    triples += 1
                    assert check_am(t).all_pass() == is_admissible(t), str(t)
        assert triples > 10000
    _criterion("A7", "checklist I-VII matches admissible moves", body)


def test_a8_fold_round_trip():
    def body():
        rng = random.Random(424242)
        for _ in range(1000):
            rank = rng.choice((3, 4, 5))
            m, _ = random_clean_composite(rng, rank, rng.randrange(2, 9))
            dec = stallings_fold_decomposition(m)
            assert dec.composite == m
    _criterion("A8", "fold decomposition round-trips", body)


def test_a9_smooth_realization():
    def body():
        corpus = [EXAMPLE_MAP]
        rng = random.Random(31415)
        while len(corpus) < 40:
            m, _ = random_clean_composite(rng, rng.choice((3, 4)), rng.randrange(2, 7))
            try:
                ltt_of_map(m)
            except LttRegimeError:
                continue
            corpus.append(m)
        for m in corpus:
            assert map_realizes_images_smoothly(m, ltt_of_map(m))
    _criterion("A9", "edge images realize smoothly", body)
