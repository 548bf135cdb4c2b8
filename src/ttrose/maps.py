"""Tight self-maps of roses and their combinatorial analysis, the one
module that knows them.

A map is stored by the image words of the positively oriented petals;
images of reversed petals are derived.  Its direction map, gates,
periodic and fixed directions, closure of taken turns and illegal turn
are read on first use and cached on the map.  On top of them sit the
Whitehead graphs, Stallings fold decompositions into proper full folds
of roses (the generators of ideal decompositions), the structure of a
train track map and the check of a diagram loop's composite.  No verdict
module imports this one, so only analyze-map, export map-ltt and
check-graph --max-loop-len load it.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from functools import cached_property

from ._record import record
from .ltt import LttStructure
from .rose import (
    Direction,
    Generator,
    Turn,
    Word,
    all_directions,
    bar,
    check_direction,
    check_rank,
    edge_index,
    format_direction,
    format_word,
    forward_direction,
    is_forward,
    is_tight,
    parse_word,
    reverse_word,
    tighten,
    turn,
    turns_of,
)
from .whitehead import WhiteheadGraph


@record
class RoseMap:
    """A tight graph self-map of the r-petaled rose.

    ``images[i-1]`` is the edge-path word of g(E_i).  Every image must
    be nontrivial and tight; the image of a reversed petal is the
    reversed bar-word and is never stored.  The train track data derived
    from the images are cached properties, each computed on first read;
    equality, hash and repr see only the fields.
    """

    rank: int
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        check_rank(self.rank)
        if len(self.images) != self.rank:
            raise ValueError(f"expected {self.rank} edge images, got {len(self.images)}")
        for i, word in enumerate(self.images, start=1):
            if not word:
                raise ValueError(f"image of edge {i} is trivial")
            for d in word:
                check_direction(d, self.rank)
            if not is_tight(word):
                raise ValueError(f"image of edge {i} is not tight: {format_word(word)}")

    @staticmethod
    def from_strings(rank: int, words: Mapping[str, str]) -> "RoseMap":
        """Petal images keyed by letter; words that are not a mapping, a
        letter past the rank, a petal with no image, or an image that is
        not a string, is a ValueError."""
        check_rank(rank)
        if not isinstance(words, Mapping):
            raise ValueError(f"expected an object of petal images, not {words!r}")
        letters = [format_direction(forward_direction(i)) for i in range(1, rank + 1)]
        if unknown := sorted(words.keys() - set(letters)):
            raise ValueError(f"no petal {unknown[0]!r} at rank {rank}")
        if missing := [letter for letter in letters if letter not in words]:
            raise ValueError(f"no image for petal {missing[0]!r}")
        words = [words[letter] for letter in letters]
        for letter, word in zip(letters, words):
            if not isinstance(word, str):
                raise ValueError(f"the image of petal {letter!r} is not a string: {word!r}")
        return RoseMap(rank, tuple(parse_word(w, rank) for w in words))

    @staticmethod
    def from_json(data) -> "RoseMap":
        """The map of an object {"rank": r, "images": {letter: word}};
        any other value, an unknown or a missing key is a ValueError."""
        if not isinstance(data, dict):
            raise ValueError('expected an object with "rank" and "images"')
        if unknown := sorted(data.keys() - {"rank", "images"}):
            raise ValueError(f'unknown key "{unknown[0]}"')
        if missing := [key for key in ("rank", "images") if key not in data]:
            raise ValueError(f'missing key "{missing[0]}"')
        return RoseMap.from_strings(data["rank"], data["images"])

    @staticmethod
    def identity(rank: int) -> "RoseMap":
        return RoseMap(rank, tuple((forward_direction(i),) for i in range(1, rank + 1)))

    def word_of(self, d: Direction) -> Word:
        """Image word of the oriented edge whose initial direction is d."""
        word = self.images[edge_index(d) - 1]
        return word if is_forward(d) else reverse_word(word)

    def __str__(self) -> str:
        parts = []
        for i, word in enumerate(self.images, start=1):
            parts.append(f"{format_direction(forward_direction(i))} -> {format_word(word)}")
        return ", ".join(parts)

    @cached_property
    def direction_map(self) -> dict[Direction, Direction]:
        """Dg: each direction to the initial direction of its image."""
        return {d: self.word_of(d)[0] for d in all_directions(self.rank)}

    @cached_property
    def _stable_power(self) -> dict[Direction, Direction]:
        """Dg^n on the n = 2r directions.  Within n steps every direction
        reaches its cycle of Dg, so the image is the periodic directions; the
        fibers of Dg^k only coarsen as k grows, and their number, the size of
        the image, stops falling by k = n, so the fibers are the gates."""
        dg = self.direction_map
        power = {d: d for d in dg}
        for _ in range(len(dg)):
            power = {d: dg[x] for d, x in power.items()}
        return power

    @cached_property
    def periodic(self) -> frozenset[Direction]:
        """The image of Dg^(2r)."""
        return frozenset(self._stable_power.values())

    @cached_property
    def fixed(self) -> frozenset[Direction]:
        """The directions Dg fixes."""
        return frozenset(d for d, x in self.direction_map.items() if x == d)

    @cached_property
    def gates(self) -> tuple[frozenset[Direction], ...]:
        """The fibers of Dg^(2r)."""
        fibers: dict[Direction, set[Direction]] = {}
        for d, x in self._stable_power.items():
            fibers.setdefault(x, set()).add(d)
        return tuple(sorted((frozenset(f) for f in fibers.values()), key=min))

    @cached_property
    def taken_turns(self) -> frozenset[Turn]:
        """Least set of turns containing those of the edge images and closed
        under the induced turn map.  A turn whose directions Dg identifies
        has no image; it lies in one gate, so it is an illegal turn."""
        dg = self.direction_map
        current: set[Turn] = set()
        for word in self.images:
            current |= turns_of(word)
        frontier = set(current)
        while frontier:
            frontier = {turn(dg[d1], dg[d2]) for d1, d2 in frontier if dg[d1] != dg[d2]} - current
            current |= frontier
        return frozenset(current)

    @cached_property
    def illegal_turn(self) -> Turn | None:
        """The least taken turn whose two directions share a gate, that is
        a Dg^(2r) image; None exactly for a train track map."""
        power = self._stable_power
        return next((t for t in sorted(self.taken_turns) if power[t[0]] == power[t[1]]), None)


def apply_map(m: RoseMap, path: Sequence[int]) -> tuple[Word, bool]:
    """Image of a tight path under m, tightened; the flag records whether
    tightening removed letters."""
    raw: list[int] = []
    for d in path:
        raw.extend(m.word_of(d))
    return tighten(raw)


def compose(outer: RoseMap, inner: RoseMap) -> RoseMap:
    """outer o inner, with tightened edge images."""
    if outer.rank != inner.rank:
        raise ValueError(f"rank mismatch: {outer.rank} vs {inner.rank}")
    images = []
    for word in inner.images:
        image, _ = apply_map(outer, word)
        if not image:
            raise ValueError("composition collapses an edge (not a homotopy equivalence)")
        images.append(image)
    return RoseMap(inner.rank, tuple(images))


def local_whitehead_graph(m: RoseMap) -> WhiteheadGraph:
    """Vertices are the directions meeting a taken turn; edges the taken
    turns themselves."""
    if m.illegal_turn is not None:
        raise ValueError(f"not a train track map (illegal turn {m.illegal_turn})")
    closure = m.taken_turns
    return WhiteheadGraph.build({d for t in closure for d in t}, closure)


def stable_whitehead_graph(m: RoseMap) -> WhiteheadGraph:
    lw = local_whitehead_graph(m)
    periodic = m.periodic
    vertices = lw.vertices & periodic
    edges = [e for e in lw.edges if e[0] in periodic and e[1] in periodic]
    return WhiteheadGraph.build(vertices, edges)


# --- generators and fold decompositions --------------------------------


def generator_map(g: Generator) -> RoseMap:
    """The fold g as a self-map of the rose."""
    images = [(forward_direction(i),) for i in range(1, g.rank + 1)]
    images[edge_index(g.u) - 1] = (g.a, g.u) if is_forward(g.u) else (bar(g.u), bar(g.a))
    return RoseMap(g.rank, tuple(images))


def is_direction_permutation(rank: int, perm: Sequence[int]) -> bool:
    n = 2 * rank
    if len(perm) != n or sorted(perm) != list(range(1, n + 1)):
        return False
    return all(perm[bar(d) - 1] == bar(perm[d - 1]) for d in range(1, n + 1))


def identity_permutation(rank: int) -> tuple[int, ...]:
    return tuple(range(1, 2 * rank + 1))


def permutation_rose_map(rank: int, perm: Sequence[int]) -> RoseMap:
    if not is_direction_permutation(rank, perm):
        raise ValueError(f"not a bar-equivariant direction permutation: {perm}")
    return RoseMap(rank, tuple((perm[forward_direction(i) - 1],) for i in range(1, rank + 1)))


@record
class FoldDecomposition:
    """A factorization m = perm o g_n o ... o g_1 into proper full folds
    of roses followed by an edge-index homeomorphism."""

    rank: int
    generators: tuple[Generator, ...]
    final_permutation: tuple[int, ...]

    def __post_init__(self) -> None:
        check_rank(self.rank)
        for g in self.generators:
            if g.rank != self.rank:
                raise ValueError("generator rank mismatch in decomposition")
        if not is_direction_permutation(self.rank, self.final_permutation):
            raise ValueError("final permutation is not a bar-equivariant direction bijection")

    @cached_property
    def composite(self) -> RoseMap:
        """perm o g_n o ... o g_1, composed on first read."""
        current = RoseMap.identity(self.rank)
        for g in self.generators:
            current = compose(generator_map(g), current)
        return compose(permutation_rose_map(self.rank, self.final_permutation), current)

    def has_trivial_permutation(self) -> bool:
        return self.final_permutation == identity_permutation(self.rank)


class NotProperFullFolds(Exception):
    """The Stallings fold decomposition cannot be carried out with proper
    full folds of roses."""

    def __init__(self, step: int, description: str):
        self.step = step
        self.description = description
        super().__init__(f"fold step {step}: {description}")


def stallings_fold_decomposition(m: RoseMap) -> FoldDecomposition:
    """Fold m along the first proper full fold in canonical turn order
    until no turn is foldable, then read the final permutation off the
    one-letter images.

    Raises NotProperFullFolds at the first foldable state with no proper
    full fold (its first turn is partial or improper), or when the images
    left are not one letter per petal.  With no turn foldable the 2r
    first letters are distinct, so one-letter images are a bar-equivariant
    permutation of the directions.

    The order of the folds cannot change the outcome.  A proper full fold
    at {x, y}, where W(x) is a proper prefix of W(y), replaces W(y) by
    W(x)^-1 W(y) and W(y bar) by its inverse: it depends only on the
    bar-closed set of image words, and shortens them.  Folds on disjoint
    words commute.  Of two folds into one word, x > y and x' > y, the
    shorter of W(x), W(x') is a prefix of the longer, and folding the
    longer along the shorter joins the two branches; x > y with y > z,
    and folds into both y and y bar, join the same way.  So folding
    terminates and is locally confluent, and by Newman's lemma every
    order ends at the same words: whether they are one letter per petal
    does not depend on the order.
    """
    rank, residual, gens = m.rank, m, []
    while True:
        first: dict[Direction, list[Direction]] = {}
        for d in all_directions(rank):
            first.setdefault(residual.word_of(d)[0], []).append(d)
        # each group is in ascending order, so its pairs are turns
        turns = sorted(t for group in first.values() for t in itertools.combinations(group, 2))
        if not turns:
            break
        for t in turns:
            full, part = sorted(t, key=lambda d: len(residual.word_of(d)))
            short, long = residual.word_of(full), residual.word_of(part)
            if len(short) < len(long) and long[:len(short)] == short:
                break
        else:
            d1, d2 = turns[0]
            kind = "improper" if residual.word_of(d1) == residual.word_of(d2) else "partial"
            raise NotProperFullFolds(len(gens), f"maximal fold of turn {turns[0]} is {kind}; "
                                                "quotient would not be a rose")
        remainder = long[len(short):]
        images = list(residual.images)
        images[edge_index(part) - 1] = remainder if is_forward(part) else reverse_word(remainder)
        gens.append(Generator(rank, a=full, u=part))
        residual = RoseMap(rank, tuple(images))
    if any(len(w) != 1 for w in residual.images):
        raise NotProperFullFolds(len(gens), "residual map has no foldable turn but is not a "
                                            "homeomorphism; input is not a homotopy equivalence")
    return FoldDecomposition(rank, tuple(gens),
                             tuple(residual.word_of(d)[0] for d in all_directions(rank)))


@record
class IdealDecompositionReport:
    """Clause-by-clause check of the ideal decomposition conditions."""

    nonempty: bool
    trivial_permutation: bool
    composite_fixes_all_but_last_u: bool
    rotationless_proxy: bool  # all periodic directions of the composite fixed
    am_viii_a: bool  # every petal index occurs as some e^u_k
    am_viii_b: bool  # every petal index occurs as some e^a_k
    details: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (self.nonempty and self.trivial_permutation
                and self.composite_fixes_all_but_last_u and self.rotationless_proxy
                and self.am_viii_a and self.am_viii_b)


def validate_ideal_decomposition(dec: FoldDecomposition) -> IdealDecompositionReport:
    details: list[str] = []
    if not dec.generators:
        return IdealDecompositionReport(False, False, False, False, False, False,
                                        ("decomposition has no generators",))
    trivial_perm = dec.has_trivial_permutation()
    if not trivial_perm:
        details.append("final homeomorphism permutes edge indices")

    composite = dec.composite
    fixed, last_u = composite.fixed, dec.generators[-1].u
    moved = [d for d in all_directions(dec.rank) if d != last_u and d not in fixed]
    fixes = not moved and last_u not in fixed
    if moved:
        details.append(f"composite moves directions {moved} besides the last u={last_u}")
    elif not fixes:
        details.append(f"composite fixes the last unachieved direction {last_u} as well")

    periodic = composite.periodic
    rotationless = periodic == fixed
    if not rotationless:
        details.append(f"periodic but unfixed directions: {sorted(periodic - fixed)}")

    u_indices = {edge_index(g.u) for g in dec.generators}
    a_indices = {edge_index(g.a) for g in dec.generators}
    all_idx = set(range(1, dec.rank + 1))
    viii_a = u_indices == all_idx
    viii_b = a_indices == all_idx
    if not viii_a:
        details.append(f"edge pairs never unachieved: {sorted(all_idx - u_indices)}")
    if not viii_b:
        details.append(f"edge pairs never twice-achieved: {sorted(all_idx - a_indices)}")

    return IdealDecompositionReport(True, trivial_perm, fixes, rotationless,
                                    viii_a, viii_b, tuple(details))


class LttRegimeError(ValueError):
    """The map is outside the one-nonperiodic-direction regime."""


def ltt_of_map(m: RoseMap) -> LttStructure:
    """The structure G(g): colored edges are the taken turns and the red
    vertex is the nonperiodic direction, so an edge is purple exactly when
    both its endpoints are periodic; black edges by bar pairing.

    Requires a train track map with exactly one nonperiodic direction.
    """
    if m.illegal_turn is not None:
        raise LttRegimeError(f"not a train track map (illegal turn {m.illegal_turn})")
    nonperiodic = sorted(set(all_directions(m.rank)) - m.periodic)
    if len(nonperiodic) != 1:
        raise LttRegimeError(
            f"expected exactly 1 nonperiodic direction, found {len(nonperiodic)}: {nonperiodic}")
    return LttStructure(m.rank, nonperiodic[0], m.taken_turns)


@record
class LoopReport:
    train_track: bool
    ideal: IdealDecompositionReport
    basepoint_matches: bool
    details: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.train_track and self.ideal.ok and self.basepoint_matches


def verify_loop(edges: Sequence[GeneratingTriple]) -> LoopReport:
    """Compose the loop's generators and check the composite: train track,
    ideal decomposition clauses (including the loop-level property VIII and
    the rotationless proxy), and that its structure is the basepoint.  The
    moves.GeneratingTriple annotation is a string, never evaluated."""
    if not edges:
        raise ValueError("empty loop")
    for e1, e2 in zip(edges, edges[1:]):
        if e1.dest != e2.source:
            raise ValueError("loop edges are not consecutive")
    if edges[-1].dest != edges[0].source:
        raise ValueError("edge sequence is not closed")
    rank = edges[0].gen.rank
    gens = tuple(e.gen for e in edges)
    dec = FoldDecomposition(rank, gens, identity_permutation(rank))
    composite = dec.composite
    details: list[str] = []
    train_track = composite.illegal_turn is None
    if not train_track:
        details.append(f"composite is not a train track (illegal turn {composite.illegal_turn})")
    ideal = validate_ideal_decomposition(dec)
    details.extend(ideal.details)
    matches = False
    if train_track:  # else ltt_of_map would report the illegal turn again
        try:
            matches = ltt_of_map(composite) == edges[0].source
            if not matches:
                details.append("structure of the composite differs from the basepoint")
        except LttRegimeError as exc:
            details.append(f"composite has no structure: {exc}")
    return LoopReport(train_track, ideal, matches, tuple(details))
