"""Generating triples: the extension and switch moves between structures.

Given a destination structure, its red vertex and red edge determine
the generator entering it; each purple edge at the twice-achieved
direction then determines one extension and one switch producing a
candidate source structure.  sources_into, the one move generator, gives
every move's source that is a valid structure, from the destination's
red vertex, twice-achieved direction and purple turns, so it needs no
structure.  A triple is admissible exactly when it is such a move and
both of its structures are birecurrent.
"""

from __future__ import annotations

from collections.abc import Collection

from ._record import record
from .ltt import LttStructure
from .rose import Direction, Generator, Turn, bar, turn


@record
class GeneratingTriple:
    """(generator fold, source structure, destination structure)."""

    gen: Generator
    source: LttStructure
    dest: LttStructure


def entering_generator(G: LttStructure) -> Generator:
    """The generator determined by the red vertex and red edge of G:
    u is the red vertex, a the bar partner of the red edge's purple end."""
    return Generator(G.rank, a=G.twice_achieved, u=G.red_vertex)


def determining_edges(G: LttStructure) -> list[Turn]:
    """Purple edges at the twice-achieved direction, in canonical order."""
    return _determining(G.red_vertex, G.twice_achieved, G.purple_edges)


def _determining(u: Direction, a: Direction, purple: Collection[Turn]) -> list[Turn]:
    if a == u:
        raise ValueError("red edge joins a bar pair; run validate_ltt on this structure")
    return sorted(e for e in purple if a in e)


def sources_into(u: Direction, a: Direction, purple: Collection[Turn]
                 ) -> list[tuple[Direction, Direction, frozenset[Turn]]]:
    """The source of every move into the structure with red vertex u,
    twice-achieved direction a (so red edge {u, bar(a)}) and these purple
    turns, as its red vertex, the purple end of its red edge, which is
    {red vertex, end}, and its purple part: for each determining edge
    {a, d_l} in order, the extension and then the switch.  The extension
    keeps the red vertex u and the purple part and attaches the red edge
    {u, d_l}; the switch makes a the red vertex, attaches the red edge
    {a, d_l} and renames a to u in the purple part.

    Both moves keep every colored edge but the red one, so a source is
    invalid exactly when its red edge joins a bar pair (d_l = bar(u) for
    the extension, d_l = bar(a) for the switch) or it leaves bare the red
    edge's old purple end bar(a); those moves are left out."""
    dets = _determining(u, a, purple)
    old_end = bar(a)
    if not any(old_end in e for e in purple):
        # no determining edge is {a, bar(a)}, the one that would put a new
        # red edge at bar(a), so every move leaves bar(a) bare
        return []
    kept = frozenset(purple)
    renamed = frozenset(turn(u if x == a else x, u if y == a else y) for x, y in purple)
    out = []
    for x, y in dets:
        d_l = y if x == a else x
        if d_l != bar(u):
            out.append((u, d_l, kept))
        if d_l != old_end:
            out.append((a, d_l, renamed))
    return out
