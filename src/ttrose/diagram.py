"""Ideal decomposition diagrams and the Irreducibility Potential Test.

For a candidate target graph on 2r-1 vertices we enumerate every
indexed pair-labeled structure realizing it, keep the birecurrent ones
as nodes, and extract the maximal strongly connected subgraphs of the
extension and switch moves between them.  Birecurrency and the moves are
decided on one representative per orbit of one base slice (red vertex 1,
red edge {1, 3}) under K, the edge pair permutations fixing directions 1
and 3, and carried by edge pair permutations to the rest of the orbit
and to every other slice.  Tarjan runs once, on the diagram's quotient
by EPP, one node per admissible K-orbit; each component is one forward
walk through the nodes over one of its SCCs, the ID diagram keeps the
SCC each node lies over, and an EPP class is the components over one
SCC.  A component passes the Irreducibility Potential Test when every
edge pair labels the red vertex of some node; if no component passes
(in particular if there are no components at all), no ideally
decomposed representative exists and the target is unachieved.  The
verdict runs on integers: each node is one key, each edge the positions
of its two nodes, kept as each node's sorted row of destinations, and
structures and moves are decoded only when a caller reads them; the
verdict itself decodes none, since birecurrency and the moves read each
representative's turns.  A base structure is carried as the positions
of its turns' bits, and the keys of all its images are one integer, a
lane of whole 8-byte words per slice map: per-rank high bits less the
sum of per-rank lane entries at those positions.  The integers are
written in native byte order and read back at once, with one memoryview
cast while a key fits one word (rank 5 and below) and int.from_bytes
per lane past that; only the preliminary diagram, their one reader,
tables the images' positions among the sorted keys.  The tables that
depend on the rank alone (the turn bits, the slice maps, their inverses
and lanes, the generator actions, and the products of the 2(2r-3)
slices a move source can lie in) are each built whole once per rank per
process, and no verdict writes to them: `ttrose sweep` and the tests
reuse them from target to target, a lone `check-graph` builds them once.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections.abc import Iterable, Iterator, Sequence
from functools import cache, cached_property

from ._record import record
from .ltt import LttStructure, birecurrent_turns
from .moves import GeneratingTriple, entering_generator, sources_into
from .rose import (MAX_RANK, Generator, Turn, all_directions, bar, check_rank, edge_index,
                   format_direction, turn)
from .whitehead import (WhiteheadGraph, mask_action, mask_orbit, pair_bits, relabeling_generators,
                        tarjan_scc)

UNACHIEVED_BIRECURRENCY = "UnachievedByBirecurrency"
UNACHIEVED_IRREDUCIBILITY = "UnachievedByIrreducibilityPotential"
INCONCLUSIVE = "Inconclusive"


class InvalidTargetGraph(ValueError):
    """The candidate graph is not connected, simplicial, on 2r-1 vertices."""


def check_target_rank(rank: int) -> int:
    """The rank, if candidate targets live there: at rank 1 the target is
    a lone vertex with nothing to realize, so any verdict is vacuous."""
    if check_rank(rank) < 2:
        raise ValueError(f"rank {rank} has no candidate target graphs, use 2 to {MAX_RANK}")
    return rank


def validate_target(target: WhiteheadGraph, rank: int) -> None:
    check_target_rank(rank)
    expected = 2 * rank - 1
    if len(target.vertices) != expected:
        raise InvalidTargetGraph(
            f"target has {len(target.vertices)} vertices, rank {rank} needs {expected}")
    if not target.is_connected():
        raise InvalidTargetGraph("target graph is not connected")


def target_from_json(data: dict) -> WhiteheadGraph:
    """The graph of {"edges": [[u, v], ...]} with optional "vertices";
    InvalidTargetGraph when the data does not describe a simple graph, or
    has any other key."""
    if isinstance(data, dict) and (unknown := sorted(data.keys() - {"edges", "vertices"}, key=str)):
        raise InvalidTargetGraph(f'unknown key "{unknown[0]}"')
    if not isinstance(data, dict) or not isinstance(data.get("edges"), list):
        raise InvalidTargetGraph('expected a JSON object with an "edges" list')
    if not isinstance(data.get("vertices", []), list):
        raise InvalidTargetGraph('"vertices" must be a list')
    if not all(isinstance(e, list) and len(e) == 2 for e in data["edges"]):
        raise InvalidTargetGraph("every edge must be a list of two vertices")
    edges = [tuple(e) for e in data["edges"]]
    named = [*data.get("vertices", ()), *itertools.chain(*edges)]
    # True == 1, so a boolean vertex would merge silently with 1 (or 0)
    if any(isinstance(v, bool) for v in named):
        raise InvalidTargetGraph("a vertex must not be a boolean")
    # NaN != NaN, so [NaN, NaN] would pass the loop check and [NaN, 1],
    # [1, NaN] would be two edges
    if any(isinstance(v, float) and v != v for v in named):
        raise InvalidTargetGraph("a vertex must not be NaN")
    try:
        vertices = set(data.get("vertices", ()))
        for e in edges:
            vertices.update(e)
        return WhiteheadGraph.build(vertices, edges)
    except (TypeError, ValueError) as exc:  # unhashable vertex, loop edge
        raise InvalidTargetGraph(str(exc)) from None


def target_to_json(target: WhiteheadGraph) -> dict:
    return {
        "vertices": sorted(target.vertices, key=repr),
        "edges": [list(e) for e in target.sorted_edges()],
    }


def star_target(rank: int) -> WhiteheadGraph:
    """The graph of 2r-2 edges adjoined at a single vertex, on 2r-1 vertices."""
    n = 2 * rank - 1
    return WhiteheadGraph.build(range(n), [(0, i) for i in range(1, n)])


# --- structure enumeration ------------------------------------------------


def _slice_maps(rank: int) -> dict[tuple[int, int], tuple[int, ...]]:
    """One EPP element per ordered pair (red, end) from different bar pairs,
    sending 1, 2, 3, 4 to red, bar(red), end, bar(end), the other pairs in order."""
    heads = [(red, bar(red), end, bar(end))
             for red, end in itertools.permutations(all_directions(rank), 2) if end != bar(red)]
    return {(h[0], h[2]): h + tuple(d for d in all_directions(rank) if d not in h) for h in heads}


def _positions(mask: int) -> tuple[int, ...]:
    """The positions of the mask's set bits, highest first: a turn mask's
    turns in sorted order, through _RankTables.turns."""
    out = []
    while mask:
        p = mask.bit_length() - 1
        out.append(p)
        mask ^= 1 << p
    return tuple(out)


def _k_generators(rank: int) -> list[dict[int, int]]:
    """Generators of K, the signed permutations of bar pairs 3..r, each as
    the image of every direction it moves: the flip of pair 3, then the
    swap of pairs 3 and 4 and the cycle of pairs 3..r with orientation
    kept, as relabeling_generators gives them on the pairs.  None at rank 2."""
    if rank < 3:
        return []
    return [{5: 6, 6: 5}] + [{2 * i - e: 2 * j - e for i, j in g.items() for e in (1, 0)}
                             for g in relabeling_generators(range(3, rank + 1))]


class _RankTables:
    """What the verdict reads that depends on the rank alone, as data,
    each table built whole and never written to by a verdict: what every
    verdict reads at once, the rest on first read, so a target that fails
    birecurrency builds no slice map.  One factoring, g o sigma_k' =
    sigma_k'' o kappa, builds the products and serves the lifts in K.  A
    turn is carried by its position p, the exponent of its bit 1 << p, so
    a member is the tuple of its turns' positions and its images' turn
    masks, lane by lane, the sum of the lanes' entries at them."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.identity = tuple(all_directions(rank))
        self.bits = pair_bits(self.identity)  # each turn's bit
        self.width = len(self.bits)  # of a node key's turn mask
        self.full = (1 << self.width) - 1
        # the relabelings of 2..2r and K, on the purple turns of the base slice
        purple = {e: bit for e, bit in self.bits.items() if e[0] > 1}
        self.relabelings = [mask_action(g, purple)
                            for g in relabeling_generators(range(2, 2 * rank + 1))]
        self.k_generators = _k_generators(rank)
        self.k_actions = [mask_action(g, purple) for g in self.k_generators]

    @cached_property
    def turns(self) -> tuple[Turn, ...]:
        """The turn at each position."""
        return tuple(reversed(self.bits))

    @cached_property
    def pair_bit(self) -> list[list[int]]:
        """The bit of the turn {a, b} at [a][b] and [b][a]."""
        pair_bit = [[0] * (2 * self.rank + 1) for _ in range(2 * self.rank + 1)]
        for (a, b), bit in self.bits.items():
            pair_bit[a][b] = pair_bit[b][a] = bit
        return pair_bit

    @cached_property
    def maps(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Each slice map sigma_k, by its slice key k = (red vertex, red-edge end)."""
        return _slice_maps(self.rank)

    @cached_property
    def back(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Each slice map's inverse."""
        return {key: tuple(sigma.index(d) + 1 for d in self.identity)
                for key, sigma in self.maps.items()}

    @cached_property
    def sources(self) -> tuple[tuple[int, int], ...]:
        """The keys of products, in the order of maps: the 2(2r-3) slices a
        move source can lie in.  A move into a base structure has u = 1 and
        a = bar(3) = 4, so its source's red vertex is 1 or 4 and its red
        edge's end, a purple neighbour of 4, neither (nor 2 for an extension
        or 3 for a switch, no slice key).  K fixes 1 to 4, so it keeps them."""
        return tuple(key for key in self.maps if key[0] in (1, 4) and key[1] not in (1, 4))

    @cached_property
    def lanes(self) -> tuple[int, list[int], int]:
        """The slice maps' images side by side in one integer, lane k for
        slice map k in the order of maps: the high bits (slice map k's red
        vertex above the full turn mask in lane k), each position's image
        bit (slice map k's image of the turn there, in lane k) and the lane
        size in bytes.  A lane is whole 8-byte words wide enough for a key,
        and lane k is bytes k*size to (k+1)*size of the integer written in
        native byte order.  Every lane's high bits exceed any turn mask, so
        taking a member's image bits off them borrows from no other lane."""
        size = 8 * -(-(self.width + (2 * self.rank).bit_length()) // 64)
        shifts = [8 * size * k for k in range(len(self.maps))]
        if sys.byteorder == "big":
            shifts.reverse()
        high, bits = 0, [0] * self.width
        for shift, sigma in zip(shifts, self.maps.values()):
            high |= (sigma[0] << self.width | self.full) << shift
            for p, bit in enumerate(self.image_bits(sigma)):
                bits[p] |= bit << shift
        return high, bits, size

    @cached_property
    def products(self) -> dict[tuple[int, int], list[tuple[tuple[int, int], tuple]]]:
        """By a source key k', the factor (k'', kappa) of sigma_k o sigma_k'
        for every slice map sigma_k, in the order of maps."""
        return {key1: [self.factor(sigma, key1) for sigma in self.maps.values()]
                for key1 in self.sources}

    def image_bits(self, perm: Sequence[int]) -> list[int]:
        """The bit of perm's image of the turn at each position, perm given
        as the image of each direction."""
        pair_bit = self.pair_bit
        return [pair_bit[perm[u - 1]][perm[v - 1]] for u, v in self.turns]

    def factor(self, g: Sequence[int], key1: tuple[int, int]) -> tuple[tuple[int, int], tuple]:
        """The slice key k'' and the kappa in K with g o sigma_k' =
        sigma_k'' o kappa, for an EPP element g given as the image of each
        direction: sigma_k' sends 1 and 3 to k', so k'' is g of k'."""
        key2 = (g[key1[0] - 1], g[key1[1] - 1])
        inverse = self.back[key2]
        return key2, tuple([inverse[g[d - 1] - 1] for d in self.maps[key1]])


_rank_tables = cache(_RankTables)  # one table set per rank per process


@record
class BaseSlice:
    """The structures with red vertex 1 and red edge {1, 3}, by index, split
    into orbits under K; K maps the slice onto itself."""
    masks: tuple[int, ...]  # each structure's turn mask
    index: dict[int, int]  # the index of each turn mask
    reps: tuple[int, ...]  # the index of its orbit's representative
    # for an admissible structure, an element of K carrying the
    # representative onto it; None for the others, which are never carried
    lifts: tuple[tuple[int, ...] | None, ...]
    birecurrent: tuple[bool, ...]  # decided once per orbit


def _base_slice(target: WhiteheadGraph, rank: int) -> BaseSlice:
    """One structure per labeled copy of the target on 2..2r (vertex k in
    sorted order labeled k + 2), in the order the walk under the
    transposition of labels 2 and 3 and the cycle through 2..2r reaches
    them.  EPP commutes with birecurrency, so it is decided on one
    representative per K-orbit, walked under the flip of pair 3, the swap
    of pairs 3 and 4 and the cycle of pairs 3..r, and the slice maps carry
    the slice one-to-one onto the disjoint others.  Both walks act on turn
    masks through the purple turns, so the red edge {1, 3} keeps its bit.
    Birecurrency reads each representative's turns off its mask, and only
    admissible members get a lift, since only they are carried."""
    validate_target(target, rank)
    tables = _rank_tables(rank)
    pair_bit, generators, identity = tables.pair_bit, tables.k_generators, tables.identity
    verts = sorted(target.vertices, key=repr)
    label = {v: i + 2 for i, v in enumerate(verts)}
    start = pair_bit[1][3] + sum(pair_bit[label[u]][label[v]] for u, v in target.edges)
    # one labeled copy per distinct edge set, so automorphisms of the
    # target never repeat a purple graph
    masks = tuple(mask_orbit(start, tables.relabelings))
    index = {mask: i for i, mask in enumerate(masks)}
    reps = [-1] * len(masks)
    lifts: list[tuple[int, ...] | None] = [None] * len(masks)
    elements = {identity: identity}  # one tuple per element of K, however many members share it
    birecurrent = [False] * len(masks)
    for rep, mask in enumerate(masks):
        if reps[rep] >= 0:
            continue
        decided = birecurrent_turns(rank, map(tables.turns.__getitem__, _positions(mask)))
        for member, step in mask_orbit(mask, tables.k_actions).items():
            i = index[member]
            reps[i] = rep
            if not decided:
                continue
            birecurrent[i] = True
            if step is None:
                lifts[i] = identity
            else:
                parent, k = step
                t = tuple(generators[k].get(d, d) for d in lifts[index[parent]])
                lifts[i] = elements.setdefault(t, t)
    return BaseSlice(masks, index, tuple(reps), tuple(lifts), tuple(birecurrent))


# A node is keyed by one integer: its red vertex in the bits above the
# turn mask, then the complemented turn mask, so keys sort as the
# structures do (red vertex, then sorted colored edges).


def _decode(rank: int, keys: Iterable[int]) -> Iterator[LttStructure]:
    """The structure of each node key, each decoded as it is read."""
    tables = _rank_tables(rank)
    turn, width, full = tables.turns.__getitem__, tables.width, tables.full
    return (LttStructure(rank, key >> width, frozenset(map(turn, _positions(~key & full))))
            for key in keys)


def _carry(rank: int, members: Sequence[tuple[int, ...]]) -> list[int]:
    """The key of each slice map's image of each base-slice structure,
    given by its turns' positions, member by member and each member's
    slice by slice in the order of maps: slice k of member b at b*S + k,
    for S slice maps.  A member's S keys are one subtraction on the lanes;
    the slices are disjoint, so no two keys are equal."""
    tables = _rank_tables(rank)
    high, bits, size = tables.lanes
    bit, length, order = bits.__getitem__, size * len(tables.maps), sys.byteorder
    packed = memoryview(b"".join([(high - sum(map(bit, P))).to_bytes(length, order)
                                  for P in members]))
    if size == 8:
        return packed.cast("Q").tolist()
    return [int.from_bytes(packed[i:i + size], order) for i in range(0, len(packed), size)]


def _members(base: BaseSlice, admissible_only: bool) -> list[tuple[int, ...]]:
    """The positions of the turns of each base-slice structure, or of each
    admissible one, read off its turn mask."""
    return [_positions(mask) for mask, birecurrent in zip(base.masks, base.birecurrent)
            if birecurrent or not admissible_only]


def enumerate_structures(target: WhiteheadGraph, rank: int,
                         admissible_only: bool = False) -> list[LttStructure]:
    """All distinct indexed pair-labeled structures whose purple part is a
    labeled copy of the target, over every label assignment respecting the
    bar pairing and every red edge attachment away from the red vertex's
    bar partner, in sorted order; only the birecurrent ones when requested.
    structures_at samples them without enumerating them."""
    return list(iter_structures(target, rank, admissible_only))


def iter_structures(target: WhiteheadGraph, rank: int,
                    admissible_only: bool = False) -> Iterator[LttStructure]:
    """enumerate_structures' structures, each decoded from its sorted key
    as it is read; the target is checked at once."""
    base = _base_slice(target, rank)
    return _decode(rank, sorted(_carry(rank, _members(base, admissible_only))))


def structures_at(base: BaseSlice, rank: int,
                  positions: Iterable[int]) -> list[tuple[LttStructure, bool]]:
    """Slice map k's image of base member b of m at each position k*m + b,
    decoded alone, with base.birecurrent[b]: EPP carries it.  The
    numbering is slice-major, where _carry's is member-major: each sample
    carries its one member and reads lane k.  A position outside 0 to
    S*m - 1, for S slice maps, raises IndexError."""
    m, count = len(base.masks), len(_rank_tables(rank).maps)
    at = [divmod(p, m) for p in positions]
    if not all(0 <= k < count for k, _ in at):
        raise IndexError("structure position out of range")
    keys = _carry(rank, [_positions(base.masks[b]) for _, b in at])
    return list(zip(_decode(rank, [keys[i * count + k] for i, (k, _) in enumerate(at)]),
                    [base.birecurrent[b] for _, b in at]))


# --- edge pair permutations (EPP) -----------------------------------------


def epp_elements(rank: int) -> list[tuple[int, ...]]:
    """All edge pair permutations as direction maps: permute the petal
    indices and optionally flip orientation within each pair."""
    out = []
    for perm in itertools.permutations(range(1, rank + 1)):
        for flips in itertools.product((False, True), repeat=rank):
            sigma = [0] * (2 * rank)
            for i in range(1, rank + 1):
                j = perm[i - 1]
                fwd, bwd = 2 * j - 1, 2 * j
                if flips[i - 1]:
                    fwd, bwd = bwd, fwd
                sigma[2 * i - 2] = fwd
                sigma[2 * i - 1] = bwd
            out.append(tuple(sigma))
    return out


# --- the preliminary diagram and its strongly connected components --------


@record
class PreliminaryDiagram:
    """Nodes by their keys, in sorted order, and each node's row: the
    positions of its edges' destinations, in sorted order.  An edge is its
    (source, destination) pair; edges are ordered by source, then by
    destination.  The quotient by a group the edges commute with (EPP, or
    the trivial group): each node's orbit, and each orbit's row, the sorted
    orbits that its nodes' edges reach.  The structures and the moves are
    decoded from these when first read."""
    rank: int
    keys: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    orbit: tuple[int, ...]
    quotient: tuple[tuple[int, ...], ...]

    def edge_ends(self, nodes: Sequence[int] | None = None) -> Iterator[tuple[int, int]]:
        """Each edge's (source, destination) positions, in edge order; only
        those with both ends among the given nodes, in sorted order, when
        given."""
        if nodes is None:
            for i, row in enumerate(self.rows):
                for j in row:
                    yield i, j
            return
        inside = set(nodes)
        for i in nodes:
            for j in self.rows[i]:
                if j in inside:
                    yield i, j

    @cached_property
    def nodes(self) -> tuple[LttStructure, ...]:
        return tuple(_decode(self.rank, self.keys))

    @cached_property
    def entering(self) -> tuple[Generator, ...]:
        """The generator entering each node, as entering_generator reads it
        off the node's structure, one object per generator."""
        ends = [(G.red_vertex, G.attach_vertex) for G in self.nodes]
        gens = {e: entering_generator(G) for e, G in dict(zip(ends, self.nodes)).items()}
        return tuple(map(gens.__getitem__, ends))

    @cached_property
    def edges(self) -> tuple[GeneratingTriple, ...]:
        """Each edge as a move, whose generator is the one entering its
        destination."""
        nodes, entering = self.nodes, self.entering
        return tuple(GeneratingTriple(entering[j], nodes[i], nodes[j]) for i, j in self.edge_ends())


def build_preliminary(target: WhiteheadGraph, rank: int,
                      nodes: Sequence[LttStructure] | None = None) -> PreliminaryDiagram:
    """Nodes are the admissible structures; each move into a node is an
    edge whenever its source is admissible.  Edges are ordered by their
    source's, then their destination's, position.  A given node list is
    checked against the admissible structures, not used: one that differs
    raises RuntimeError."""
    prelim = _preliminary(rank, _base_slice(target, rank))
    if nodes is not None and tuple(nodes) != prelim.nodes:
        raise RuntimeError("admissible source missing from the enumeration")
    return prelim


def _preliminary(rank: int, base: BaseSlice) -> PreliminaryDiagram:
    """The moves commute with EPP, so the moves into the admissible base
    structures B_b, each source written as sigma_k'(B_b'), give every edge:
    the moves into sigma_k(B_b) are sigma_k of those, and the source
    sigma_k(sigma_k'(B_b')) is sigma_k''(kappa(B_b')) for the slice k'' of
    sigma_k o sigma_k' and kappa in K, the stabilizer of directions 1 and 3.
    The moves into B_b = t(R), for its orbit's representative R, are t of
    the moves into R in the same way, so only the representatives' moves
    are generated, from their purple turns.  The quotient by EPP has a
    node per admissible K-orbit, in the order of the representatives, and
    an arc from the source's orbit into R's for each move into a
    representative R, self-arcs too."""
    tables = _rank_tables(rank)
    pair_bit = tables.pair_bit
    admissible = [i for i, birecurrent in enumerate(base.birecurrent) if birecurrent]
    slot = {i: b for b, i in enumerate(admissible)}
    members = _members(base, admissible_only=True)
    n = len(members)
    # the quotient node of each representative (its orbit's first member)
    # and of each admissible member, by b
    number: dict[int, int] = {}
    orbit_of = [number.setdefault(base.reps[i], len(number)) for i in admissible]
    # the sorted keys, each image's position by its slice's key and b, and
    # each node's quotient node
    carried = _carry(rank, members)
    order = sorted(range(len(carried)), key=carried.__getitem__)
    keys = tuple(map(carried.__getitem__, order))
    position = {key: [0] * n for key in tables.maps}
    by_slice = list(position.values())
    orbit = [0] * len(keys)
    count = len(tables.maps)
    for i, x in enumerate(order):
        b, k = divmod(x, count)
        by_slice[k][b] = i
        orbit[i] = orbit_of[b]
    del carried, order
    images: dict[tuple[int, ...], list[int]] = {}  # kappa -> b of kappa(B_b) by b

    def image_of(kappa: tuple[int, ...]) -> list[int]:
        if kappa not in images:
            weight = tables.image_bits(kappa).__getitem__
            images[kappa] = [slot[base.index[sum(map(weight, P))]] for P in members]
        return images[kappa]

    # by the quotient node of each representative R: (k', b') for each
    # move into R from an admissible sigma_k'(B_b'), and the arcs into it
    # R has red vertex 1 and twice-achieved direction bar(3) = 4; sigma_k'^-1
    # sends a source's red edge {red, end} to {1, 3}
    moves: list[list[tuple[tuple[int, int], int]]] = [[] for _ in number]
    reach: list[set[int]] = [set() for _ in number]
    turns, red_edge = tables.turns, pair_bit[1][3]
    for q, i in enumerate(number):
        purple = [e for e in map(turns.__getitem__, members[slot[i]]) if e[0] != 1]
        for red, end, part in sources_into(1, 4, purple):
            back = tables.back[red, end]  # sigma_k'^-1, placing the source in the base slice
            source = base.index.get(
                red_edge + sum(pair_bit[back[u - 1]][back[v - 1]] for u, v in part))
            if source is None:
                # construction preserves the purple graph up to labels, so
                # an excluded source maps back to a non-birecurrent base one
                raise RuntimeError("admissible source missing from the enumeration")
            if base.birecurrent[source]:
                moves[q].append(((red, end), slot[source]))
                reach[orbit_of[slot[source]]].add(q)
    quotient = tuple(tuple(sorted(row)) for row in reach)
    # (b, b') for each move into B_b from an admissible sigma_k'(B_b'), by k'
    arcs: dict[tuple[int, int], list[tuple[int, int]]] = {}
    lifted: dict[tuple[int, ...], dict] = {}  # t -> k' -> (k'', kappa's images)
    for b, i in enumerate(admissible):
        t = base.lifts[i]
        by_key = lifted.setdefault(t, {})
        for key, b2 in moves[orbit_of[b]]:
            if key not in by_key:
                key2, kappa = tables.factor(t, key)
                by_key[key] = key2, image_of(kappa)
            key2, image = by_key[key]
            arcs.setdefault(key2, []).append((b, image[b2]))
    # each node's destinations, as the int objects position holds, so the
    # rows share them; the generator is the one entering dest, and the two
    # moves and the determining edges give distinct sources, so no row
    # repeats a destination.  position and products are in the order of maps
    rows: list[list[int]] = [[] for _ in keys]
    for key1, pairs in arcs.items():
        for dest, (key2, kappa) in zip(position.values(), tables.products[key1]):
            source, image = position[key2], image_of(kappa)
            for b, b2 in pairs:
                rows[source[image[b2]]].append(dest[b])
    return PreliminaryDiagram(rank, keys, tuple(tuple(sorted(row)) for row in rows),
                              tuple(orbit), quotient)


@record
class DiagramComponent:
    """A strongly connected component: its nodes' positions in the
    preliminary diagram, and the red vertices of its nodes."""
    nodes: tuple[int, ...]
    red_label_census: frozenset[int]

    def pairs_covered(self) -> frozenset[int]:
        return frozenset(edge_index(d) for d in self.red_label_census)


@record
class IdDiagram:
    rank: int
    target: WhiteheadGraph
    preliminary: PreliminaryDiagram
    components: tuple[DiagramComponent, ...]
    # each node's SCC of the quotient, numbered in tarjan_scc's order
    # among those that carry an arc, or -1 over one that carries none
    over: tuple[int, ...]


def id_diagram(target: WhiteheadGraph, rank: int, preliminary: PreliminaryDiagram) -> IdDiagram:
    """Disjoint union of the maximal strongly connected subgraphs of the
    preliminary diagram that carry an edge (two or more nodes, or one with
    a self-loop), each in node order, ordered by their first node.  Each
    lies over an SCC C of the quotient that carries an arc, and is the
    forward walk from its least node through the nodes over C: the group
    carries edges to edges, so (1) every node over C has an edge into each
    orbit of C its own orbit has an arc to; (2) so a node over C in a sink
    SCC of the nodes over C reaches all of C inside that SCC, and these
    nodes are closed under the group, so they are every node over C; (3)
    so every SCC over C is a sink there, and the walk reaches exactly it."""
    keys, rows = preliminary.keys, preliminary.rows
    width = _rank_tables(rank).width
    quotient, scc = preliminary.quotient, [-1] * len(preliminary.quotient)
    arced = (comp for comp in tarjan_scc(quotient)
             if len(comp) > 1 or comp[0] in quotient[comp[0]])
    for c, comp in enumerate(arced):
        for q in comp:
            scc[q] = c
    over = tuple(map(scc.__getitem__, preliminary.orbit))
    components = []
    label = list(over)  # and -1 once walked
    for start, c in enumerate(label):
        if c < 0:
            continue
        label[start] = -1
        comp = [start]
        for i in comp:
            for j in rows[i]:
                if label[j] == c:
                    label[j] = -1
                    comp.append(j)
        comp.sort()
        components.append(DiagramComponent(tuple(comp), frozenset(keys[i] >> width for i in comp)))
    return IdDiagram(rank, target, preliminary, tuple(components), over)


# --- irreducibility potential test and EPP reduction ----------------------


@record
class IpTestResult:
    per_component: tuple[bool, ...]

    @property
    def overall_unachieved(self) -> bool:
        """No component covers every edge pair."""
        return not any(self.per_component)


def irreducibility_potential_test(diagram: IdDiagram) -> IpTestResult:
    all_pairs = frozenset(range(1, diagram.rank + 1))
    return IpTestResult(tuple(comp.pairs_covered() == all_pairs for comp in diagram.components))


def epp_classes(diagram: IdDiagram) -> list[list[int]]:
    """Indices of EPP-isomorphic components, each class sorted, classes in
    order of their least index.  A component meets every orbit of its SCC
    of the quotient, so EPP carries it onto any other over that SCC, and
    components over two SCCs differ in their orbits: a class is the
    components over one SCC.  Components that leave uncovered a node over
    an SCC with an arc raise RuntimeError: the diagram is not closed under
    EPP."""
    over = diagram.over
    if sum(len(comp.nodes) for comp in diagram.components) != len(over) - over.count(-1):
        raise RuntimeError("a node over an SCC of the quotient lies in no component")
    classes: dict[int, list[int]] = {}
    for i, comp in enumerate(diagram.components):
        classes.setdefault(over[comp.nodes[0]], []).append(i)
    return list(classes.values())


# --- loops -----------------------------------------------------------------


def find_loops(preliminary: PreliminaryDiagram, comp: DiagramComponent,
               max_len: int) -> list[tuple[GeneratingTriple, ...]]:
    """Closed edge paths based at the component's first node, up to the
    given length, in depth-first order.  A closed walk never leaves its
    node's strongly connected component, so it walks the rows inside the
    component only.  The walk keeps its own stack, so a long loop needs no
    recursion.  Only the edges of the loops found, and their nodes, are
    decoded, each once."""
    rows, inside, node = preliminary.rows, set(comp.nodes), comp.nodes[0]
    loops: list[tuple[tuple[int, int], ...]] = []
    path: list[tuple[int, int]] = []

    def successors(i: int) -> Iterator[tuple[int, int]]:
        return ((i, j) for j in (rows[i] if len(path) < max_len else ()) if j in inside)

    stack = [successors(node)]  # the edges not yet tried at each node of the path
    while stack:
        e = next(stack[-1], None)
        if e is None:
            stack.pop()
            if path:
                path.pop()
            continue
        path.append(e)
        if e[1] == node:
            loops.append(tuple(path))
        stack.append(successors(e[1]))
    edges = {e for loop in loops for e in loop}
    used = sorted({i for e in edges for i in e})
    structure = dict(zip(used, _decode(preliminary.rank, [preliminary.keys[i] for i in used])))
    moves = {(i, j): GeneratingTriple(entering_generator(structure[j]), structure[i], structure[j])
             for i, j in edges}
    return [tuple(map(moves.__getitem__, loop)) for loop in loops]


# --- verdicts ---------------------------------------------------------------


@record
class VerdictResult:
    """A verdict and the base slice it decided birecurrency on, for structures_at."""
    verdict: str
    num_structures: int
    num_admissible: int
    diagram: IdDiagram | None
    ip: IpTestResult | None
    base: BaseSlice | None = None


def target_verdict(target: WhiteheadGraph, rank: int) -> VerdictResult:
    """UnachievedByBirecurrency when no admissible structure exists, else
    UnachievedByIrreducibilityPotential when the test fails for every
    component, else Inconclusive (the tests are necessary, not sufficient)."""
    base = _base_slice(target, rank)
    num_structures = 2 * rank * (2 * rank - 2) * len(base.masks)  # one copy per slice
    if not any(base.birecurrent):
        return VerdictResult(UNACHIEVED_BIRECURRENCY, num_structures, 0, None, None, base)
    diagram = id_diagram(target, rank, _preliminary(rank, base))
    ip = irreducibility_potential_test(diagram)
    verdict = UNACHIEVED_IRREDUCIBILITY if ip.overall_unachieved else INCONCLUSIVE
    return VerdictResult(verdict, num_structures, len(diagram.preliminary.keys), diagram, ip, base)


# --- export -----------------------------------------------------------------


def _node_id(G: LttStructure) -> str:
    import hashlib

    digest = hashlib.sha256(json.dumps(G.to_json(), sort_keys=True).encode()).hexdigest()
    return digest[:10]


def _labeled_edges(prelim: PreliminaryDiagram, ends: Iterable[tuple[int, int]]
                   ) -> Iterator[tuple[int, int, str, Generator, Turn]]:
    """Each edge's source and destination positions, kind, generator and
    determining edge, read off the generators entering its two nodes: a
    node's red vertex is its entering generator's u, and its red edge's
    purple end is bar of its a.  The edge is an extension when the
    source's red vertex is the edge generator's u and a switch when it is
    its a (moves.sources_into gives every source one of the two); its
    determining edge joins that a to the source's red edge's purple end."""
    entering = prelim.entering
    for i, j in ends:
        gen, source = entering[j], entering[i]
        kind = "extension" if source.u == gen.u else "switch"
        yield i, j, kind, gen, turn(gen.a, bar(source.a))


def diagram_to_json(diagram: IdDiagram) -> dict:
    prelim = diagram.preliminary
    return {
        "rank": diagram.rank,
        "target": target_to_json(diagram.target),
        "nodes": [G.to_json() for G in prelim.nodes],
        "edges": [
            {
                "source": i,
                "dest": j,
                "kind": kind,
                "gen": {"a": format_direction(gen.a), "u": format_direction(gen.u)},
                "det": list(map(format_direction, det)),
            }
            for i, j, kind, gen, det in _labeled_edges(prelim, prelim.edge_ends())
        ],
        "components": [
            {
                "nodes": list(comp.nodes),
                "red_label_census": sorted(format_direction(d)
                                           for d in comp.red_label_census),
                "pairs_covered": sorted(comp.pairs_covered()),
            }
            for comp in diagram.components
        ],
    }


def diagram_to_dot(diagram: IdDiagram, name: str = "id_diagram") -> str:
    """Components with hashed node ids; a legend comment line spells out
    each node's structure."""
    prelim = diagram.preliminary
    comps = diagram.components
    nodes = prelim.nodes
    ids = {i: _node_id(nodes[i]) for comp in comps for i in comp.nodes}
    lines = [f'digraph "{name}" {{']
    for ci, comp in enumerate(comps):
        lines.append(f'  subgraph cluster_{ci} {{ label="component {ci}";')
        lines.extend(f'    "{ids[i]}" [shape=box];' for i in comp.nodes)
        lines.append("  }")
    ends = (e for comp in comps for e in prelim.edge_ends(comp.nodes))
    for i, j, kind, gen, _ in _labeled_edges(prelim, ends):
        lines.append(f'  "{ids[i]}" -> "{ids[j]}" [label="{kind[:3]} {gen}"];')
    lines.append("}")
    lines.extend(f"// {ids[i]} = {nodes[i]}" for comp in comps for i in comp.nodes)
    return "\n".join(lines) + "\n"
