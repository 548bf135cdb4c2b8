"""Independent oracles and random generators shared by the test suite.

Everything here re-derives answers straight from the definitions
(exhaustive assignment, direct iteration of maps, unpruned isomorphism
search) so that the library's faster code paths are checked against
implementations that share none of their shortcuts.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, make_dataclass

from ttrose.diagram import PreliminaryDiagram, enumerate_structures, epp_elements
from ttrose.ltt import BLACK, LttStructure, TransitionDigraph, is_birecurrent
from ttrose.maps import FoldDecomposition, NotProperFullFolds, RoseMap, apply_map, generator_map
from ttrose.moves import GeneratingTriple, entering_generator, sources_into
from ttrose.rose import Direction, Generator, Turn, all_directions, bar, turn, turns_of
from ttrose.whitehead import WhiteheadGraph, tarjan_scc


def closure_by_iteration(m: RoseMap, max_power: int | None = None) -> frozenset:
    """Union of the turns of g^k(e) over oriented edges, by literally
    iterating the map until the union stabilizes."""
    if max_power is None:
        max_power = 4 * m.rank + 4
    words = {d: (d,) for d in all_directions(m.rank)}
    total: set = set()
    for _ in range(max_power):
        new_words = {}
        for d, w in words.items():
            image, cancelled = apply_map(m, w)
            assert not cancelled, "iterate cancelled: not a train track map"
            new_words[d] = image
        words = new_words
        round_turns: set = set()
        for w in words.values():
            round_turns |= turns_of(w)
        if round_turns <= total:
            return frozenset(total)
        total |= round_turns
    return frozenset(total)


def gates_by_definition(m: RoseMap) -> tuple[frozenset[int], ...]:
    """Directions d1, d2 share a gate when Dg^k(d1) = Dg^k(d2) for some
    k <= 2r, checked pair by pair with Dg read off the edge images."""
    n = 2 * m.rank
    orbit = {}
    for d in all_directions(m.rank):
        x, orbit[d] = d, []
        for _ in range(n):
            x = m.word_of(x)[0]
            orbit[d].append(x)
    parts = {frozenset(d2 for d2 in orbit if any(a == b for a, b in zip(orbit[d], orbit[d2])))
             for d in orbit}
    return tuple(sorted(parts, key=min))


def periodic_by_definition(m: RoseMap) -> frozenset[int]:
    """The directions that Dg, read off the edge images, returns to
    themselves within 2r steps."""
    periodic = set()
    for d in all_directions(m.rank):
        x = d
        for _ in range(2 * m.rank):
            x = m.word_of(x)[0]
            if x == d:
                periodic.add(d)
    return frozenset(periodic)


def components_by_bfs(graph: WhiteheadGraph) -> list[frozenset]:
    """Connected components by breadth-first search over the edge list,
    each grown from its first vertex in repr order."""
    seen: set = set()
    comps = []
    for start in sorted(graph.vertices, key=repr):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for v in comp:
            for edge in graph.edges:
                if v in edge:
                    w = edge[1] if edge[0] == v else edge[0]
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
        comps.append(frozenset(comp))
    return comps


def substitute_and_reduce(outer: RoseMap, word) -> tuple:
    """Word substitution with scan-and-restart free reduction (independent
    of the stack-based tighten)."""
    letters: list[int] = []
    for d in word:
        letters.extend(outer.word_of(d))
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if letters[i + 1] == bar(letters[i]):
                del letters[i:i + 2]
                changed = True
                break
    return tuple(letters)


def make_structure(rank: int, red_vertex: Direction, red_edge: Sequence[int],
                   purple_edges: Iterable[Sequence[int]]) -> LttStructure:
    """A structure in the usual (r;3/2-r) shape: one red edge at the red
    vertex plus a purple graph on the other directions."""
    colored = frozenset(tuple(sorted(e)) for e in (red_edge, *purple_edges))
    return LttStructure(rank, red_vertex, colored)


def assignment_oracle_structures(target: WhiteheadGraph, rank: int) -> set[LttStructure]:
    """Every structure for the target, produced by brute force over all
    injections of direction labels onto the target's vertices."""
    dirs = list(all_directions(rank))
    verts = sorted(target.vertices, key=repr)
    out: set[LttStructure] = set()
    for labels in itertools.permutations(dirs, len(verts)):
        label_of = dict(zip(verts, labels))
        red = next(d for d in dirs if d not in labels)
        purple = [turn(label_of[u], label_of[v]) for u, v in target.edges]
        for attach in labels:
            if attach == bar(red):
                continue
            out.add(make_structure(rank, red, turn(red, attach), purple))
    return out


def trapped_direction(G: LttStructure) -> int | None:
    """The least direction x whose only colored edge is [x, bar(x)], or None.

    Trap lemma: if such an x exists, G is not birecurrent.  Proof: a
    smooth path alternates black and colored edges, so after crossing the
    black edge from bar(x) to x it must leave x along [x, bar(x)], and then
    leave bar(x) along the black edge again; from then on it never leaves
    these two edges.  A birecurrent line crosses that black edge towards x,
    and so never crosses the red edge after that.

    Reads only the colored edges and the bar pairing.
    """
    at: dict[int, set[int]] = {d: set() for d in all_directions(G.rank)}
    for u, v in G.colored:
        at[u].add(v)
        at[v].add(u)
    for x in sorted(at):
        if at[x] == {bar(x)}:
            return x
    return None


# --- birecurrency over every component -------------------------------------


def birecurrent_by_every_scc(G: LttStructure) -> bool:
    """Birecurrency by the SCC criterion on the digraph H of directions,
    with an arc u -> bar(w) for each colored {u, w} traversed u -> w, over
    every strongly connected component: some SCC has an internal arc and
    covers every edge (d or bar(d) in it for each bar pair, and u, bar(w)
    or w, bar(u) in it for each colored {u, w})."""
    n = 2 * G.rank  # direction d is node d - 1, so bar is xor 1
    arcs: list[list[int]] = [[] for _ in range(n)]
    needs = []
    for u, w in G.colored:
        if not (1 <= u <= n and 1 <= w <= n):
            return False  # an edge off the rose lies on no smooth cycle
        u, w = u - 1, w - 1
        arcs[u].append(w ^ 1)
        arcs[w].append(u ^ 1)
        needs.append((1 << u | 1 << (w ^ 1), 1 << w | 1 << (u ^ 1)))
    evens = ((1 << n) - 1) // 3  # one bit per bar pair
    for comp in tarjan_scc(arcs):
        if len(comp) == 1 and comp[0] not in arcs[comp[0]]:
            continue  # a lone black edge supports no biinfinite line
        S = sum(1 << h for h in comp)
        if ((S | S >> 1) & evens) == evens and all(
                S & a == a or S & b == b for a, b in needs):
            return True
    return False


# --- structure and transition-digraph helpers -------------------------------


def purple_vertices(G: LttStructure) -> frozenset[int]:
    return frozenset(d for d in all_directions(G.rank) if d != G.red_vertex)


def node_head(td: TransitionDigraph, idx: int) -> int:
    """The direction a node of the transition digraph points into."""
    edge_id, orient = td.nodes[idx]
    u, v, _ = td.edges[edge_id]
    return v if orient == 0 else u


# --- the purple subgraph and smooth realization -----------------------------


def pi_graph(G: LttStructure) -> WhiteheadGraph:
    """The potential ideal Whitehead graph: purple vertices and edges."""
    return WhiteheadGraph.build(purple_vertices(G), G.purple_edges)


def matches_target(G: LttStructure, target: WhiteheadGraph) -> bool:
    """Does the purple subgraph realize the target graph, forgetting labels?"""
    return find_isomorphism(pi_graph(G), target) is not None


def realize_edge_path_smooth(G: LttStructure, word: Sequence[int]) -> list[tuple[int, int, str]]:
    """The smooth path in G corresponding to an edge path of the rose.

    An edge path e_1 .. e_k lifts to black [d_1, bar d_1], colored
    [bar d_1, d_2], black [d_2, bar d_2], ...; it exists iff every turn
    crossed is a colored edge of G.  Raises ValueError otherwise.
    """
    if not word:
        return []
    path: list[tuple[int, int, str]] = []
    for i, d in enumerate(word):
        path.append((d, bar(d), BLACK))
        if i + 1 < len(word):
            t = turn(bar(d), word[i + 1])
            if t not in G.colored:
                raise ValueError(f"turn {t} is not a colored edge of the structure")
            path.append((bar(d), word[i + 1], "colored"))
    return path


def map_realizes_images_smoothly(m: RoseMap, G: LttStructure) -> bool:
    """Every edge-image word of m lifts to a smooth path in G."""
    try:
        for word in m.images:
            realize_edge_path_smooth(G, word)
    except ValueError:
        return False
    return True


# --- EPP orbits of whole node sets ----------------------------------------
#
# The library classes ID-diagram components by their SCC of the
# diagram's quotient by EPP (diagram.epp_classes); this maps every node of
# every set by every element instead.


def sort_key(G: LttStructure) -> tuple:
    """The order of the enumeration and of the diagram's nodes: red vertex,
    then sorted colored edges."""
    return (G.rank, G.red_vertex, tuple(sorted(G.colored)))


def epp_structure(sigma: Sequence[int], G: LttStructure) -> LttStructure:
    """The structure's image under an edge pair permutation, given as the
    image of each direction: its red vertex and every colored edge mapped."""
    colored = frozenset(tuple(sorted((sigma[u - 1], sigma[v - 1]))) for u, v in G.colored)
    return LttStructure(G.rank, sigma[G.red_vertex - 1], colored)


def edge_table(sigma: Sequence[int], edges: Iterable[Turn]) -> dict[Turn, Turn]:
    """sigma's image of each of the edges, sorted: the tuple route the
    library's per-rank lanes and inverse tables are checked against."""
    table = {}
    for u, v in edges:
        a, b = sigma[u - 1], sigma[v - 1]
        table[u, v] = (a, b) if a < b else (b, a)
    return table


def epp_orbits(rank: int, node_sets: Sequence[Sequence[LttStructure]]) -> list[list[int]]:
    """Indices of the node sets grouped by EPP orbit: two sets share a
    class exactly when some element carries one onto the other.  A set
    joins the first class whose first set some element carries onto it,
    every element tried, node by node, once it sends the first set's
    first node into the set.  Classes come in order of their first set."""
    sigmas = epp_elements(rank)
    classes: list[list[int]] = []
    for i, nodes in enumerate(node_sets):
        found = frozenset(nodes)
        for members in classes:
            first = node_sets[members[0]]
            if len(first) == len(found) and any(
                    epp_structure(s, first[0]) in found
                    and {epp_structure(s, G) for G in first} == found for s in sigmas):
                members.append(i)
                break
        else:
            classes.append([i])
    return classes


def epp_classes_of_structures(structures: Sequence[LttStructure]) -> list[list[LttStructure]]:
    """Group structures into EPP orbits, each class's members in sort_key order."""
    if not structures:
        return []
    classes = epp_orbits(structures[0].rank, [(G,) for G in structures])
    return [sorted((structures[i] for i in c), key=sort_key) for c in classes]


def stabilizer_of_1_and_3(rank: int) -> list[tuple[int, ...]]:
    """K: every EPP element that fixes directions 1 and 3."""
    return [sigma for sigma in epp_elements(rank) if (sigma[0], sigma[2]) == (1, 3)]


def group_closure(generators: Sequence[dict[int, int]], points: Sequence[int]
                  ) -> set[tuple[int, ...]]:
    """Every element of the group the generators generate, each generator
    the image of every point it moves, as the tuple of images of the
    points: products of generators, breadth first from the identity."""
    identity = tuple(points)
    elements = {identity}
    queue = [identity]
    for sigma in queue:
        for g in generators:
            image = tuple(g.get(x, x) for x in sigma)
            if image not in elements:
                elements.add(image)
                queue.append(image)
    return elements


def orbits_by_elements(elements: Sequence[Sequence[int]],
                       structures: Sequence[LttStructure]) -> set[frozenset[int]]:
    """The orbits of the structures under a group, as sets of indices, by
    imaging every structure under every one of the group's elements."""
    index = {G: i for i, G in enumerate(structures)}
    return {frozenset(index[epp_structure(sigma, G)] for sigma in elements) for G in structures}


def edge_rows(nodes: Sequence[LttStructure],
              edges: Sequence[GeneratingTriple]) -> tuple[tuple[int, ...], ...]:
    """Each node's sorted destination positions, by looking every edge's
    end structures up among the nodes."""
    index = {G: i for i, G in enumerate(nodes)}
    rows: list[list[int]] = [[] for _ in nodes]
    for e in edges:
        rows[index[e.source]].append(index[e.dest])
    return tuple(tuple(sorted(row)) for row in rows)


def node_key(G: LttStructure) -> int:
    """A node's key as the preliminary diagram stores it: the red vertex
    above the complement of the turn mask, in which the least turn of the
    2r directions has the highest bit."""
    turns = list(itertools.combinations(all_directions(G.rank), 2))
    mask = sum(1 << (len(turns) - 1 - turns.index(e)) for e in G.colored)
    return G.red_vertex << len(turns) | ((1 << len(turns)) - 1 - mask)


def preliminary_of(rank: int, nodes: Sequence[LttStructure],
                   edges: Sequence[GeneratingTriple]) -> PreliminaryDiagram:
    """The preliminary diagram on the nodes, in their order, with the
    edges: the nodes' keys and each node's row of destinations.  Its
    quotient is by the trivial group: each node is its own orbit, and the
    rows are the quotient's."""
    rows = edge_rows(nodes, edges)
    return PreliminaryDiagram(rank, tuple(map(node_key, nodes)), rows, tuple(range(len(nodes))),
                              rows)


def move_sources(G: LttStructure) -> list[tuple[Direction, Direction, frozenset[Turn]]]:
    """The source of every move into G, which must pass validate_ltt, as
    its red vertex, the purple end of its red edge and its colored edges,
    in the order of sources_into."""
    return [(red, end, part | {turn(red, end)})
            for red, end, part in sources_into(G.red_vertex, G.twice_achieved, G.purple_edges)]


def move_kind(t: GeneratingTriple) -> str | None:
    """'extension' when the source's red vertex is the generator's
    pre-unachieved direction u, 'switch' when it is the pre-twice-achieved
    one a."""
    if t.source.red_vertex == t.gen.u:
        return "extension"
    if t.source.red_vertex == t.gen.a:
        return "switch"
    return None


def move_det(t: GeneratingTriple) -> Turn:
    """The destination's determining purple edge that yields the triple:
    from the twice-achieved direction to the purple end of the source's
    red edge (the endpoint both moves attach the red edge to)."""
    return turn(t.dest.twice_achieved, t.source.attach_vertex)


def generating_triples(G: LttStructure) -> list[GeneratingTriple]:
    """Every move into G, in move_sources' order; all of them share the
    generator entering G."""
    gen = entering_generator(G)
    return [GeneratingTriple(gen, LttStructure(G.rank, red, colored), G)
            for red, _, colored in move_sources(G)]


def preliminary_by_destination(target: WhiteheadGraph, rank: int
                               ) -> tuple[PreliminaryDiagram, tuple[GeneratingTriple, ...]]:
    """The preliminary diagram move by move, and its edges as the moves
    found: every move into every admissible structure, kept when its
    source is admissible, so one generating_triples call per node; a
    source outside the node list that is birecurrent raises RuntimeError."""
    nodes = enumerate_structures(target, rank, admissible_only=True)
    index = {G: i for i, G in enumerate(nodes)}
    moves = []
    for j, dest in enumerate(nodes):
        for t in generating_triples(dest):
            if t.source in index:
                moves.append((index[t.source], j, t))
            elif is_birecurrent(t.source):
                raise RuntimeError("admissible source missing from the enumeration")
    moves.sort(key=lambda m: m[:2])
    edges = tuple(t for _, _, t in moves)
    return preliminary_of(rank, nodes, edges), edges


# --- the admissible map checklist I-VII ------------------------------------
#
# The library decides admissibility by the moves alone (build_preliminary);
# this is the property-by-property checklist that A7 holds them against.


class InducedMapError(ValueError):
    """No induced map of colored subgraphs exists for the triple."""


class MissingImageEdge(InducedMapError):
    def __init__(self, edge: Turn):
        self.edge = edge
        super().__init__(f"image edge {edge} does not exist in the destination")


@dataclass(frozen=True)
class InducedColoredMap:
    vertex_map: tuple[int, ...]  # image of direction d at index d-1
    edge_map: tuple[tuple[Turn, Turn], ...]

    def vertex_image(self, d: int) -> int:
        return self.vertex_map[d - 1]


def closed_walks(edges: Sequence[GeneratingTriple], node: LttStructure,
                 max_len: int) -> set[tuple[GeneratingTriple, ...]]:
    """Every walk of at most max_len edges from node back to node, grown
    one edge at a time by scanning the whole edge list."""
    walks: list[tuple[GeneratingTriple, ...]] = [()]
    closed = set()
    for _ in range(max_len):
        walks = [w + (e,) for w in walks for e in edges
                 if e.source == (w[-1].dest if w else node)]
        closed.update(w for w in walks if w[-1].dest == node)
    return closed


def induced_colored_map(t: GeneratingTriple) -> InducedColoredMap:
    """The map of colored subgraphs induced by the triple's generator.

    Vertices map by the direction map (u to a, everything else fixed);
    every colored edge of the source must land on a colored edge of the
    destination, and the purple parts must correspond isomorphically.
    """
    n = 2 * t.gen.rank
    vm = list(range(1, n + 1))
    vm[t.gen.u - 1] = t.gen.a

    dest_purple = t.dest.purple_edges
    edge_map: list[tuple[Turn, Turn]] = []
    purple_images: list[Turn] = []
    for x, y in sorted(t.source.colored):
        ix, iy = vm[x - 1], vm[y - 1]
        if ix == iy:
            raise InducedMapError(f"colored edge ({x},{y}) maps degenerately")
        image = turn(ix, iy)
        if image not in t.dest.colored:
            raise MissingImageEdge(image)
        edge_map.append(((x, y), image))
        if t.source.red_vertex not in (x, y):  # ltt2: purple off the red vertex
            purple_images.append(image)

    image_vertices = {vm[d - 1] for d in purple_vertices(t.source)}
    if image_vertices != purple_vertices(t.dest):
        raise InducedMapError("purple vertices do not map onto the destination's")
    if len(purple_images) != len(set(purple_images)):
        raise InducedMapError("purple edges do not map injectively")
    if set(purple_images) != set(dest_purple):
        raise InducedMapError("purple edges do not map onto the destination's")
    return InducedColoredMap(tuple(vm), tuple(edge_map))


def _purple_maps_isomorphically(t: GeneratingTriple) -> bool:
    try:
        induced_colored_map(t)
    except InducedMapError:
        return False
    return True


@dataclass(frozen=True)
class AmChecklist:
    """Admissible map properties I-VII for a single triple.

    Property VIII concerns a whole ideal decomposition loop and lives in
    validate_ideal_decomposition.
    """

    i_birecurrent: bool
    ii_unachieved_in_illegal_turn: bool
    iii_red_placement: bool
    iv_images_purple: bool
    v_red_edge_unique_at_red_vertex: bool
    vi_generator_shape: bool
    vii_purple_isomorphism: bool

    def all_pass(self) -> bool:
        return all((self.i_birecurrent, self.ii_unachieved_in_illegal_turn,
                    self.iii_red_placement, self.iv_images_purple,
                    self.v_red_edge_unique_at_red_vertex, self.vi_generator_shape,
                    self.vii_purple_isomorphism))


def _red_edge_unique_at_red_vertex(G: LttStructure) -> bool:
    return sum(G.red_vertex in e for e in G.colored) == 1


def check_am(t: GeneratingTriple) -> AmChecklist:
    gen, src, dst = t.gen, t.source, t.dest
    i = is_birecurrent(src) and is_birecurrent(dst)
    ii = src.red_vertex in (gen.u, gen.a)

    try:
        red_edge_dst = dst.red_edge
    except ValueError:
        red_edge_dst = None
    placement = red_edge_dst == turn(gen.u, bar(gen.a)) if gen.a != bar(gen.u) else False
    iii = dst.red_vertex == gen.u and placement

    n = 2 * gen.rank
    vm = list(range(1, n + 1))
    vm[gen.u - 1] = gen.a
    iv = True
    for x, y in src.colored:
        ix, iy = vm[x - 1], vm[y - 1]
        if ix == iy or turn(ix, iy) not in dst.purple_edges:
            iv = False
            break

    v = _red_edge_unique_at_red_vertex(src) and _red_edge_unique_at_red_vertex(dst)
    vi = gen.a not in (gen.u, bar(gen.u)) and iii
    vii = _purple_maps_isomorphically(t)
    return AmChecklist(i, ii, iii, iv, v, vi, vii)


def is_admissible(t: GeneratingTriple) -> bool:
    """True iff both structures are birecurrent and the triple is the
    extension or switch determined by some purple edge of the destination."""
    if not (is_birecurrent(t.source) and is_birecurrent(t.dest)):
        return False
    try:
        return t in generating_triples(t.dest)
    except ValueError:
        return False


def naive_isomorphic(g1: WhiteheadGraph, g2: WhiteheadGraph) -> bool:
    """Unpruned isomorphism search over all vertex bijections."""
    v1 = sorted(g1.vertices, key=repr)
    v2 = sorted(g2.vertices, key=repr)
    if len(v1) != len(v2) or len(g1.edges) != len(g2.edges):
        return False
    e1 = {frozenset(e) for e in g1.edges}
    for perm in itertools.permutations(v2):
        phi = dict(zip(v1, perm))
        if {frozenset((phi[a], phi[b])) for a, b in e1} == {frozenset(e) for e in g2.edges}:
            return True
    return False


def neighbors(graph: WhiteheadGraph, v) -> set:
    return {b if a == v else a for a, b in graph.edges if v in (a, b)}


def _degree_profile(graph: WhiteheadGraph) -> dict:
    degs = {v: len(neighbors(graph, v)) for v in graph.vertices}
    return {v: (degs[v], tuple(sorted(degs[w] for w in neighbors(graph, v))))
            for v in graph.vertices}


def find_isomorphism(g1: WhiteheadGraph, g2: WhiteheadGraph) -> dict | None:
    """A vertex bijection realizing an isomorphism, or None: backtracking
    over vertices matched by degree profile."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None
    p1, p2 = _degree_profile(g1), _degree_profile(g2)
    if sorted(p1.values()) != sorted(p2.values()):
        return None
    order = sorted(g1.vertices, key=lambda v: (p1[v], repr(v)))
    candidates = {v: [w for w in g2.vertices if p2[w] == p1[v]] for v in order}
    adj1 = {v: neighbors(g1, v) for v in g1.vertices}
    adj2 = {v: neighbors(g2, v) for v in g2.vertices}
    mapping: dict = {}
    used: set = set()

    def extend(i: int):
        if i == len(order):
            return dict(mapping)
        v = order[i]
        for w in sorted(candidates[v], key=repr):
            if w in used:
                continue
            if any((v2 in adj1[v]) != (w2 in adj2[w]) for v2, w2 in mapping.items()):
                continue
            mapping[v] = w
            used.add(w)
            res = extend(i + 1)
            if res is not None:
                return res
            del mapping[v]
            used.discard(w)
        return None

    return extend(0)


def relabelings_by_permutations(n: int, edges) -> set[tuple[tuple[int, int], ...]]:
    """The sorted edge tuple of the graph under each of the n! relabelings
    of 0..n-1, as a set."""
    return {tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
            for perm in itertools.permutations(range(n))}


def canonical_edge_tuple(n: int, edges) -> tuple[tuple[int, int], ...]:
    """The lexicographically least sorted edge tuple over all n!
    relabelings of 0..n-1: the definition of a catalog entry's edges."""
    return min(relabelings_by_permutations(n, edges))


def random_generator(rng: random.Random, rank: int) -> Generator:
    dirs = list(all_directions(rank))
    u = rng.choice(dirs)
    a = rng.choice([d for d in dirs if d not in (u, bar(u))])
    return Generator(rank, a=a, u=u)


def compose_generators(gens, rank: int) -> tuple[RoseMap, bool]:
    """Composite of a generator sequence plus a flag recording whether any
    cancellation happened along the way."""
    current = RoseMap.identity(rank)
    cancelled = False
    for g in gens:
        gm = generator_map(g)
        images = []
        for word in current.images:
            image, flag = apply_map(gm, word)
            cancelled = cancelled or flag
            images.append(image)
        current = RoseMap(rank, tuple(images))
    return current, cancelled


def random_clean_composite(rng: random.Random, rank: int, length: int,
                           max_tries: int = 200) -> tuple[RoseMap, tuple[Generator, ...]]:
    """A random composite of generators whose composition never cancels
    (the regime in which fold decompositions must succeed)."""
    for _ in range(max_tries):
        gens = tuple(random_generator(rng, rank) for _ in range(length))
        m, cancelled = compose_generators(gens, rank)
        if not cancelled:
            return m, gens
    raise AssertionError("could not sample a cancellation-free composite")


def fold_moves(residual: RoseMap):
    """(turn, kind, generator, folded map) for each pair of directions
    whose images share a first letter, in canonical turn order.  The kind
    comes from the common prefix of the two image words: equal words make
    an improper fold, one word a proper prefix of the other a proper full
    fold, and anything else a partial one; only a proper full fold has a
    generator and a folded map, the others have None."""
    words = {d: residual.word_of(d) for d in all_directions(residual.rank)}
    for d1, d2 in itertools.combinations(words, 2):
        w1, w2 = words[d1], words[d2]
        common = next((i for i, (x, y) in enumerate(zip(w1, w2)) if x != y), min(len(w1), len(w2)))
        if common == 0:
            continue
        if w1 == w2:
            yield (d1, d2), "improper", None, None
        elif common < min(len(w1), len(w2)):
            yield (d1, d2), "partial", None, None
        else:
            # the shorter word W(full) folds off the front of W(part)
            full, part = (d1, d2) if len(w1) < len(w2) else (d2, d1)
            rest = words[part][common:]
            folded = {**words, part: rest, bar(part): tuple(bar(x) for x in reversed(rest))}
            images = tuple(folded[d] for d in range(1, 2 * residual.rank + 1, 2))
            yield (d1, d2), "proper", Generator(residual.rank, a=full, u=part), \
                RoseMap(residual.rank, images)


def fold_decomposition_by_search(m: RoseMap) -> FoldDecomposition:
    """Greedily fold illegal turns into proper full folds of roses: the
    depth-first search over every fold order that
    stallings_fold_decomposition replaces with its first branch.

    Folding choices are searched depth-first in canonical turn order, so
    the result is deterministic and a decomposition is found whenever one
    exists.  Raises NotProperFullFolds when every choice sequence hits a
    partial or improper maximal fold (or the residual map fails to close
    up into a homeomorphism).
    """
    failure: list[tuple[int, str]] = []

    def note_failure(step: int, description: str) -> None:
        if not failure:
            failure.append((step, description))

    def search(residual: RoseMap, gens: list[Generator], step: int) -> FoldDecomposition | None:
        candidates = list(fold_moves(residual))
        if not candidates:
            if any(len(w) != 1 for w in residual.images):
                note_failure(step, "residual map has no foldable turn but is not a homeomorphism; "
                                   "input is not a homotopy equivalence")
                return None
            # no two one-letter images start alike, so they permute the directions
            perm = tuple(residual.word_of(d)[0] for d in all_directions(m.rank))
            return FoldDecomposition(m.rank, tuple(gens), perm)
        proper = [c for c in candidates if c[1] == "proper"]
        if not proper:
            t, kind, _, _ = candidates[0]
            note_failure(step, f"maximal fold of turn {t} is {kind}; quotient would not be a rose")
            return None
        for _, _, gen, folded in proper:
            gens.append(gen)
            result = search(folded, gens, step + 1)
            if result is not None:
                return result
            gens.pop()
        t = proper[0][0]
        note_failure(step, f"every proper full fold from turn {t} onwards dead-ends")
        return None

    result = search(m, [], 0)
    if result is None:
        step, description = failure[0] if failure else (0, "no decomposition found")
        raise NotProperFullFolds(step, description)
    return result


def random_connected_graph(rng: random.Random, n: int, extra: int) -> WhiteheadGraph:
    verts = list(range(n))
    rng.shuffle(verts)
    edges = set()
    for i in range(1, n):
        edges.add(tuple(sorted((verts[i], verts[rng.randrange(i)]))))
    pool = [p for p in itertools.combinations(range(n), 2) if p not in edges]
    rng.shuffle(pool)
    edges.update(pool[:extra])
    return WhiteheadGraph.build(range(n), edges)


def random_structure(rng: random.Random, target: WhiteheadGraph, rank: int) -> LttStructure:
    dirs = list(all_directions(rank))
    red = rng.choice(dirs)
    labels = [d for d in dirs if d != red]
    rng.shuffle(labels)
    label_of = dict(zip(sorted(target.vertices, key=repr), labels))
    purple = [turn(label_of[u], label_of[v]) for u, v in target.edges]
    attach = rng.choice([d for d in labels if d != bar(red)])
    return make_structure(rank, red, turn(red, attach), purple)


EXAMPLE_MAP = RoseMap.from_strings(3, {
    "a": "abacbabac'abacbaba",
    "b": "bac'",
    "c": "ca'b'a'b'a'b'c'a'b'a'c",
})


def dataclass_twin(cls: type) -> type:
    """The @dataclass(frozen=True) class a record stands in for: its name,
    fields, defaults and __post_init__."""
    own = vars(cls)
    namespace = {"__post_init__": own["__post_init__"]} if "__post_init__" in own else {}
    spec = [(name, object, field(default=own[name])) if name in own else (name, object)
            for name in cls.__match_args__]
    return make_dataclass(cls.__qualname__, spec, frozen=True, namespace=namespace)
