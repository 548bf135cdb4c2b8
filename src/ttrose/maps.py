"""Tight self-maps of roses and their combinatorial analysis.

A map is stored by the image words of the positively oriented petals;
images of reversed petals are derived.  On top of that sit the direction
map, gates, the closure of taken turns, the train track test, Whitehead
graphs, and Stallings fold decompositions into proper full folds of
roses (the generators of ideal decompositions).
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .rose import (
    Direction,
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


@dataclass(frozen=True)
class RoseMap:
    """A tight graph self-map of the r-petaled rose.

    ``images[i-1]`` is the edge-path word of g(E_i).  Every image must
    be nontrivial and tight; the image of a reversed petal is the
    reversed bar-word and is never stored.
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


def direction_map(m: RoseMap) -> dict[Direction, Direction]:
    """Dg: each direction to the initial direction of its image."""
    return {d: m.word_of(d)[0] for d in all_directions(m.rank)}


def _stable_power(dg: Mapping[Direction, Direction]) -> dict[Direction, Direction]:
    """Dg^n on the n = 2r directions.  Within n steps every direction
    reaches its cycle of Dg, so the image is the periodic directions; the
    fibers of Dg^k only coarsen as k grows, and their number, the size of
    the image, stops falling by k = n, so the fibers are the gates."""
    power = {d: d for d in dg}
    for _ in range(len(dg)):
        power = {d: dg[x] for d, x in power.items()}
    return power


def periodic_and_fixed_directions(m: RoseMap) -> tuple[frozenset[int], frozenset[int]]:
    dg = direction_map(m)
    fixed = frozenset(d for d, x in dg.items() if x == d)
    return frozenset(_stable_power(dg).values()), fixed


def gates(m: RoseMap) -> tuple[frozenset[int], ...]:
    """The fibers of Dg^(2r)."""
    fibers: dict[int, set[int]] = {}
    for d, x in _stable_power(direction_map(m)).items():
        fibers.setdefault(x, set()).add(d)
    return tuple(sorted((frozenset(f) for f in fibers.values()), key=min))


def turns_taken_closure(m: RoseMap) -> frozenset[Turn]:
    """Least set of turns containing those of the edge images and closed
    under the induced turn map.  A turn whose directions Dg identifies has
    no image; it lies in one gate, so is_train_track reports it illegal."""
    dg = direction_map(m)
    current: set[Turn] = set()
    for word in m.images:
        current |= turns_of(word)
    frontier = set(current)
    while frontier:
        frontier = {turn(dg[d1], dg[d2]) for d1, d2 in frontier if dg[d1] != dg[d2]} - current
        current |= frontier
    return frozenset(current)


@dataclass(frozen=True)
class TrainTrackVerdict:
    ok: bool
    witness: Turn | None  # an illegal taken turn when not ok

    def __bool__(self) -> bool:
        return self.ok


def is_train_track(m: RoseMap) -> TrainTrackVerdict:
    """True iff no taken turn is illegal (its two directions share a gate)."""
    gate_of: dict[int, int] = {}
    for i, g in enumerate(gates(m)):
        for d in g:
            gate_of[d] = i
    for t in sorted(turns_taken_closure(m)):
        if gate_of[t[0]] == gate_of[t[1]]:
            return TrainTrackVerdict(False, t)
    return TrainTrackVerdict(True, None)


def local_whitehead_graph(m: RoseMap) -> WhiteheadGraph:
    """Vertices are the directions meeting a taken turn; edges the taken
    turns themselves."""
    verdict = is_train_track(m)
    if not verdict.ok:
        raise ValueError(f"not a train track map (illegal turn {verdict.witness})")
    closure = turns_taken_closure(m)
    return WhiteheadGraph.build({d for t in closure for d in t}, closure)


def stable_whitehead_graph(m: RoseMap) -> WhiteheadGraph:
    lw = local_whitehead_graph(m)
    periodic, _ = periodic_and_fixed_directions(m)
    vertices = lw.vertices & periodic
    edges = [e for e in lw.edges if e[0] in periodic and e[1] in periodic]
    return WhiteheadGraph.build(vertices, edges)


# --- generators and fold decompositions --------------------------------


@dataclass(frozen=True)
class Generator:
    """A proper full fold of roses: the oriented edge with initial
    direction u maps over (edge of a)(edge of u); all other edges map
    identically."""

    rank: int
    a: Direction
    u: Direction

    def __post_init__(self) -> None:
        check_rank(self.rank)
        check_direction(self.a, self.rank)
        check_direction(self.u, self.rank)
        if self.a == self.u or self.a == bar(self.u):
            raise ValueError(f"generator needs a independent of u, got a={self.a}, u={self.u}")

    def as_rose_map(self) -> RoseMap:
        images = []
        for i in range(1, self.rank + 1):
            fwd = forward_direction(i)
            if i == edge_index(self.u):
                if is_forward(self.u):
                    images.append((self.a, self.u))
                else:
                    images.append((bar(self.u), bar(self.a)))
            else:
                images.append((fwd,))
        return RoseMap(self.rank, tuple(images))

    def __str__(self) -> str:
        u_txt, a_txt = format_direction(self.u), format_direction(self.a)
        return f"{u_txt} -> {a_txt}{u_txt}"


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


@dataclass(frozen=True)
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

    def compose_all(self) -> RoseMap:
        current = RoseMap.identity(self.rank)
        for g in self.generators:
            current = compose(g.as_rose_map(), current)
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


def _common_prefix_len(w1: Sequence[int], w2: Sequence[int]) -> int:
    n = min(len(w1), len(w2))
    for i in range(n):
        if w1[i] != w2[i]:
            return i
    return n


def _fold_candidates(residual: RoseMap):
    """Foldable turns of the residual map, classified.

    Yields (turn, kind, data) in canonical turn order, where kind is
    'proper' (data is the Generator plus the folded residual map),
    'partial' or 'improper'.
    """
    first: dict[int, list[int]] = {}
    for d in all_directions(residual.rank):
        first.setdefault(residual.word_of(d)[0], []).append(d)
    turns = []
    for group in first.values():
        for d1, d2 in itertools.combinations(sorted(group), 2):
            turns.append(turn(d1, d2))
    for t in sorted(turns):
        d1, d2 = t
        w1, w2 = residual.word_of(d1), residual.word_of(d2)
        p = _common_prefix_len(w1, w2)
        if p == len(w1) and p == len(w2):
            yield t, "improper", None
        elif p < len(w1) and p < len(w2):
            yield t, "partial", None
        else:
            full, part = (d1, d2) if p == len(w1) else (d2, d1)
            remainder = residual.word_of(part)[p:]
            new_images = list(residual.images)
            j = edge_index(part)
            new_images[j - 1] = remainder if is_forward(part) else reverse_word(remainder)
            gen = Generator(residual.rank, a=full, u=part)
            yield t, "proper", (gen, RoseMap(residual.rank, tuple(new_images)))


def _finish_permutation(rank: int, images: tuple[Word, ...]) -> tuple[int, ...] | None:
    if any(len(w) != 1 for w in images):
        return None
    perm = [0] * (2 * rank)
    for i in range(1, rank + 1):
        d = images[i - 1][0]
        perm[forward_direction(i) - 1] = d
        perm[forward_direction(i)] = bar(d)
    return tuple(perm) if is_direction_permutation(rank, perm) else None


def stallings_fold_decomposition(m: RoseMap) -> FoldDecomposition:
    """Fold m along the first proper full fold in canonical turn order
    until no turn is foldable, then read the final permutation off the
    one-letter images.

    Raises NotProperFullFolds at the first foldable state with no proper
    full fold (its first turn is partial or improper), or when the images
    left are not one letter per petal.

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
    residual, gens = m, []
    while (first := next(candidates := _fold_candidates(residual), None)) is not None:
        # the generator folds lazily, so only the proper fold taken is built
        proper = next((data for _, kind, data in itertools.chain([first], candidates)
                       if kind == "proper"), None)
        if proper is None:
            t, kind, _ = first
            raise NotProperFullFolds(len(gens), f"maximal fold of turn {t} is {kind}; "
                                                "quotient would not be a rose")
        gen, residual = proper
        gens.append(gen)
    perm = _finish_permutation(residual.rank, residual.images)
    if perm is None:
        raise NotProperFullFolds(len(gens), "residual map has no foldable turn but is not a "
                                            "homeomorphism; input is not a homotopy equivalence")
    return FoldDecomposition(m.rank, tuple(gens), perm)


@dataclass(frozen=True)
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

    composite = dec.compose_all()
    dg = direction_map(composite)
    last_u = dec.generators[-1].u
    fixes = all(dg[d] == d for d in all_directions(dec.rank) if d != last_u)
    if fixes and dg[last_u] == last_u:
        fixes = False
        details.append(f"composite fixes the last unachieved direction {last_u} as well")
    elif not fixes:
        moved = sorted(d for d in all_directions(dec.rank) if d != last_u and dg[d] != d)
        details.append(f"composite moves directions {moved} besides the last u={last_u}")

    periodic, fixed = periodic_and_fixed_directions(composite)
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
