"""Lamination train track structures and the Birecurrency Condition.

A structure merges the rose (black edges, one per petal) with a colored
local Whitehead graph on the 2r direction labels: 2r-1 purple vertices
and one red vertex.  By ltt2 a colored edge is red exactly when it meets
the red vertex and purple otherwise, so a structure stores its colored
edges as plain turns and reads their colors off the red vertex.  Smooth
paths alternate between black and colored edges; a structure is
birecurrent when one smooth biinfinite line can cross every edge
infinitely often in both directions.  We decide it on the digraph H on
the 2r directions, with an arc u -> bar(w) for each colored edge {u, w}
traversed u -> w: the transition digraph on directed edges, with each
colored edge contracted into the black edge that follows it.  One
strongly connected component of H decides it, the one of direction 1:
bar carries H onto its reverse, so the components of 1 and of bar(1)
cover alike, and a covering one holds one of them (see
birecurrent_turns).  A brute-force covering-cycle search on the full
transition digraph is the oracle it is tested against.
"""

from __future__ import annotations

from collections.abc import Iterable

from ._record import record
from .maps import RoseMap, is_train_track, periodic_and_fixed_directions, turns_taken_closure
from .rose import Direction, Turn, all_directions, bar, format_direction

PURPLE = "purple"
RED = "red"
BLACK = "black"


@record
class LttStructure:
    """A pair-labeled colored train track graph on the directions 1..2r.

    Black edges are implicit (one per bar pair), and the colored edges
    are sorted turns whose color the red vertex decides (see _color).  The
    colored edge set may describe an invalid structure; validate_ltt
    reports violations.
    """

    rank: int
    red_vertex: Direction
    colored: frozenset[Turn]

    # --- derived pieces -------------------------------------------------

    def _color(self, e: Turn) -> str:
        """ltt2: a colored edge is red exactly when it meets the red vertex."""
        return RED if self.red_vertex in e else PURPLE

    @property
    def purple_edges(self) -> frozenset[Turn]:
        return frozenset(e for e in self.colored if self._color(e) == PURPLE)

    @property
    def red_edges(self) -> tuple[Turn, ...]:
        return tuple(sorted(e for e in self.colored if self._color(e) == RED))

    @property
    def red_edge(self) -> Turn:
        reds = self.red_edges
        if len(reds) != 1:
            raise ValueError(f"structure has {len(reds)} red edges, expected exactly 1")
        return reds[0]

    def black_edges(self) -> list[Turn]:
        return [(2 * i - 1, 2 * i) for i in range(1, self.rank + 1)]

    @property
    def attach_vertex(self) -> Direction:
        """The purple endpoint of the red edge (the label bar(d^a))."""
        u, v = self.red_edge
        return v if u == self.red_vertex else u

    @property
    def twice_achieved(self) -> Direction:
        """d^a: the bar partner of the red edge's purple endpoint."""
        return bar(self.attach_vertex)

    def all_edges(self) -> list[tuple[int, int, str]]:
        """Black plus colored edges in canonical order."""
        out = [(u, v, BLACK) for u, v in self.black_edges()]
        out.extend((*e, self._color(e)) for e in self.colored)
        return sorted(out)

    def __str__(self) -> str:
        red = ",".join(f"[{format_direction(u)},{format_direction(v)}]" for u, v in self.red_edges)
        purple = ",".join(f"[{format_direction(u)},{format_direction(v)}]"
                          for u, v in sorted(self.purple_edges))
        return (f"ltt(rank={self.rank}, red vertex {format_direction(self.red_vertex)}, "
                f"red {red}, purple {purple})")

    # --- serialization --------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "red_vertex": format_direction(self.red_vertex),
            "colored_edges": [
                {"u": format_direction(e[0]), "v": format_direction(e[1]), "color": self._color(e)}
                for e in sorted(self.colored)
            ],
        }


@record
class LttValidation:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def validate_ltt(G: LttStructure) -> LttValidation:
    """Check ltt3, ltt(*)4 and tt1-tt3, plus the red-edge placement
    needed for the twice-achieved direction to be purple; ltt2 holds by
    construction, since the red vertex decides each edge's color."""
    v: list[str] = []
    n = 2 * G.rank
    if not 1 <= G.red_vertex <= n:
        v.append(f"rank: red vertex {G.red_vertex} out of range 1..{n}")
        return LttValidation(False, tuple(v))
    for u, w in sorted(G.colored):
        if not (1 <= u <= n and 1 <= w <= n):
            v.append(f"rank: edge ({u},{w}) out of range")
        if u == w:
            v.append(f"ltt3/tt2: colored loop at {u}")
    reds = G.red_edges
    if len(reds) != 1:
        v.append(f"ltt4: expected a unique red edge, found {len(reds)}")
    elif G.red_vertex in reds[0] and bar(G.red_vertex) in reds[0]:
        v.append("red_pair: red edge joins the red vertex to its bar partner "
                 "(the twice-achieved direction would be red)")
    incident = {d: 0 for d in all_directions(G.rank)}
    for u, w in G.colored:
        if 1 <= u <= n and 1 <= w <= n and u != w:
            incident[u] += 1
            incident[w] += 1
    bare = sorted(d for d, k in incident.items() if k == 0)
    if bare:
        v.append(f"tt1/tt3: directions {bare} meet no colored edge")
    return LttValidation(not v, tuple(v))


# --- construction from a train track map --------------------------------


class LttRegimeError(ValueError):
    """The map is outside the one-nonperiodic-direction regime."""


def ltt_of_map(m: RoseMap) -> LttStructure:
    """The structure G(g): colored edges are the taken turns and the red
    vertex is the nonperiodic direction, so an edge is purple exactly when
    both its endpoints are periodic; black edges by bar pairing.

    Requires a train track map with exactly one nonperiodic direction.
    """
    verdict = is_train_track(m)
    if not verdict.ok:
        raise LttRegimeError(f"not a train track map (illegal turn {verdict.witness})")
    periodic, _ = periodic_and_fixed_directions(m)
    nonperiodic = sorted(set(all_directions(m.rank)) - set(periodic))
    if len(nonperiodic) != 1:
        raise LttRegimeError(
            f"expected exactly 1 nonperiodic direction, found {len(nonperiodic)}: {nonperiodic}")
    return LttStructure(m.rank, nonperiodic[0], frozenset(turns_taken_closure(m)))


# --- transition digraph and birecurrency --------------------------------
#
# The transition digraph has the directed versions of every edge (black
# and colored) as nodes; an arc e -> f exists when head(e) = tail(f),
# exactly one of e, f is black, and f is not the reverse of e.  A smooth
# non-backtracking path is exactly a walk in it.  Every colored node has
# one successor, so is_birecurrent works on the contraction H, one node
# per direction (the black edge entered there); the full digraph serves
# only brute_force_birecurrent, the oracle H is checked against.


@record
class TransitionDigraph:
    edges: tuple[tuple[int, int, str], ...]      # undirected edges, canonical order
    nodes: tuple[tuple[int, int], ...]           # (edge_id, orientation)
    arcs: tuple[tuple[int, ...], ...]            # adjacency by node index


def transition_digraph(G: LttStructure) -> TransitionDigraph:
    edges = tuple(G.all_edges())
    nodes = tuple((i, o) for i in range(len(edges)) for o in (0, 1))
    ends = [edges[i][:2] if o == 0 else edges[i][1::-1] for i, o in nodes]  # (tail, head)
    by_tail: dict[int, list[int]] = {}
    for k, (tail, _) in enumerate(ends):
        by_tail.setdefault(tail, []).append(k)
    black = [edges[i][2] == BLACK for i, _ in nodes]
    # smooth paths alternate black/colored and never backtrack at once
    arcs = tuple(tuple(k2 for k2 in by_tail.get(ends[k][1], ())
                       if black[k2] != black[k] and nodes[k2] != (i, 1 - o))
                 for k, (i, o) in enumerate(nodes))
    return TransitionDigraph(edges, nodes, arcs)


def is_birecurrent(G: LttStructure) -> bool:
    """Decide birecurrency on the digraph H of directions, by the strongly
    connected component of direction 1 alone (birecurrent_turns proves it
    enough); an edge off the rose lies on no smooth cycle."""
    n = 2 * G.rank
    if not all(1 <= u <= n and 1 <= w <= n for u, w in G.colored):
        return False
    return birecurrent_turns(G.rank, G.colored)


def birecurrent_turns(rank: int, colored: Iterable[Turn]) -> bool:
    """Is the structure with these colored turns, all on the rank's rose,
    birecurrent?  The red vertex plays no part.

    In the transition digraph, a colored edge u -> w has one successor,
    the black edge w -> bar(w), and a black edge entering h has as
    successors the colored edges leaving h; the no-backtracking rule
    never fires, because consecutive edges alternate black and colored.
    Contracting each colored node into its successor leaves H: node h
    is the black edge entered at h, and each colored {u, w} gives the
    arcs u -> bar(w) and w -> bar(u).  G is birecurrent iff some strongly
    connected component S of H has an internal arc (a self-loop counts)
    and covers every edge: d or bar(d) in S for each bar pair, and
    u, bar(w) in S or w, bar(u) in S for each colored {u, w}.

    One component decides it, S(1), the directions both reached from 1
    and reaching 1.  A covering S holds 1 or bar(1), so it is S(1) or
    S(bar(1)).  The map d -> bar(d) carries H onto its reverse (the arc
    u -> bar(w) onto bar(u) -> w, the reverse of w -> bar(u)), so it
    carries S(1) onto S(bar(1)), an internal arc onto one, and each
    clause onto itself: S(bar(1)) covers exactly when S(1) does.  S(1)
    has an internal arc exactly when 1 has a successor in it."""
    n = 2 * rank  # direction d is node d - 1, so bar is xor 1
    succ, pred = [0] * n, [0] * n
    needs = []
    for u, w in colored:
        u, w = u - 1, w - 1
        succ[u] |= 1 << (w ^ 1)
        succ[w] |= 1 << (u ^ 1)
        pred[w ^ 1] |= 1 << u
        pred[u ^ 1] |= 1 << w
        needs.append((1 << u | 1 << (w ^ 1), 1 << w | 1 << (u ^ 1)))
    S = _reached(succ) & _reached(pred)
    evens = ((1 << n) - 1) // 3  # one bit per bar pair
    return bool(succ[0] & S) and ((S | S >> 1) & evens) == evens and all(
        S & a == a or S & b == b for a, b in needs)


def _reached(arcs: list[int]) -> int:
    """The nodes node 0 reaches, itself included, by arcs given as each
    node's bitmask of successors."""
    reached = todo = 1
    while todo:
        h = todo.bit_length() - 1
        todo ^= 1 << h
        new = arcs[h] & ~reached
        reached |= new
        todo |= new
    return reached


def brute_force_birecurrent(G: LttStructure) -> bool:
    """Oracle: search for a closed smooth non-backtracking edge path of
    length at most twice the number of directed edges, covering every
    edge of G.

    Such a cycle, repeated, is a biinfinite line crossing every edge
    infinitely often in both time directions, so its existence is
    equivalent to birecurrency.  Any covering cycle crosses the first
    edge, so the search may start there.
    """
    td = transition_digraph(G)
    num_edges = len(td.edges)
    num_nodes = len(td.nodes)
    bound = 2 * num_nodes
    if num_edges == 0:
        return False
    full = (1 << num_edges) - 1

    reverse_arcs: list[list[int]] = [[] for _ in range(num_nodes)]
    for k, out in enumerate(td.arcs):
        for k2 in out:
            reverse_arcs[k2].append(k)

    for start in (0, 1):  # both directions of edge 0
        # shortest arc-distance from each node back to start
        dist_back = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for k in frontier:
                for k2 in reverse_arcs[k]:
                    if k2 not in dist_back:
                        dist_back[k2] = dist_back[k] + 1
                        nxt.append(k2)
            frontier = nxt
        # a covering cycle through start needs every edge mutually reachable
        reach_fwd = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for k in frontier:
                for k2 in td.arcs[k]:
                    if k2 not in reach_fwd:
                        reach_fwd.add(k2)
                        nxt.append(k2)
            frontier = nxt
        usable = reach_fwd & set(dist_back)
        if len({td.nodes[k][0] for k in usable}) != num_edges:
            continue

        start_mask = 1 << td.nodes[start][0]
        seen = {(start, start_mask)}
        frontier = [(start, start_mask)]
        depth = 0
        found = False
        while frontier and depth < bound and not found:
            depth += 1
            nxt = []
            for node, mask in frontier:
                for k2 in td.arcs[node]:
                    if k2 not in dist_back or depth + dist_back[k2] > bound:
                        continue
                    mask2 = mask | (1 << td.nodes[k2][0])
                    if mask2 == full:
                        # close up along a shortest path back to start
                        found = True
                        break
                    state = (k2, mask2)
                    if state not in seen:
                        seen.add(state)
                        nxt.append(state)
                if found:
                    break
            frontier = nxt
        if found:
            return True
    return False


# --- DOT export ----------------------------------------------------------


def ltt_to_dot(G: LttStructure, name: str = "ltt") -> str:
    lines = [f'graph "{name}" {{']
    lines.append("  layout=circo;")
    for d in all_directions(G.rank):
        color = "red" if d == G.red_vertex else "purple"
        lines.append(f'  "{format_direction(d)}" [color={color}, fontcolor={color}];')
    for u, v, kind in G.all_edges():
        style = "color=black, penwidth=2" if kind == BLACK else f"color={kind}"
        lines.append(f'  "{format_direction(u)}" -- "{format_direction(v)}" [{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
