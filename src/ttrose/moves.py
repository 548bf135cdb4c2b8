"""Generating triples: the extension and switch moves between structures.

Given a destination structure, its red vertex and red edge determine
the generator entering it; each purple edge at the twice-achieved
direction then determines one extension and one switch producing a
candidate source structure.  A triple is admissible exactly when it is
a birecurrent extension or switch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ltt import LttStructure
from .maps import Generator
from .rose import Turn, bar, format_direction, turn


class MoveRejected(ValueError):
    """The requested move would produce an invalid source structure."""


@dataclass(frozen=True)
class GeneratingTriple:
    """(generator fold, source structure, destination structure)."""

    gen: Generator
    source: LttStructure
    dest: LttStructure

    @property
    def kind(self) -> str | None:
        """'extension' when the source red vertex is the pre-unachieved
        direction, 'switch' when it is the pre-twice-achieved one."""
        if self.source.red_vertex == self.gen.u:
            return "extension"
        if self.source.red_vertex == self.gen.a:
            return "switch"
        return None

    @property
    def det(self) -> Turn:
        """The destination's determining purple edge that yields this
        triple: from the twice-achieved direction to the purple end of the
        source's red edge (the endpoint both moves attach the red edge to)."""
        return turn(self.dest.twice_achieved, self.source.attach_vertex)


def entering_generator(G: LttStructure) -> Generator:
    """The generator determined by the red vertex and red edge of G:
    u is the red vertex, a the bar partner of the red edge's purple end."""
    return Generator(G.rank, a=G.twice_achieved, u=G.red_vertex)


def determining_edges(G: LttStructure) -> list[Turn]:
    """Purple edges at the twice-achieved direction, in canonical order."""
    a = G.twice_achieved
    if a == G.red_vertex:
        raise ValueError("red edge joins a bar pair; run validate_ltt on this structure")
    out = sorted(e for e in G.purple_edges if a in e)
    return out


def _det_other_end(G: LttStructure, det: Turn) -> int:
    a = G.twice_achieved
    if det not in G.purple_edges:
        raise ValueError(f"determining edge {det} is not a purple edge of the structure")
    if a not in det:
        raise ValueError(f"determining edge {det} is not incident to the twice-achieved "
                         f"direction {a}")
    return det[1] if det[0] == a else det[0]


def _checked_source(gen: Generator, source: LttStructure, dest: LttStructure) -> GeneratingTriple:
    """Both moves keep every colored edge but the red one, and the callers
    refuse a red edge onto a bar pair, so from a valid destination the
    only way to an invalid source is a bare direction: the red edge's old
    purple end, when no colored edge of the source meets it."""
    old_end = dest.attach_vertex
    if not any(old_end in (x, y) for x, y, _ in source.colored):
        raise MoveRejected(f"move leaves direction {format_direction(old_end)} "
                           f"with no colored edge")
    return GeneratingTriple(gen, source, dest)


def extension(G: LttStructure, det: Turn) -> GeneratingTriple:
    """The extension determined by a purple edge at the twice-achieved
    direction: delete the red edge interior, then attach a new red edge
    from the red vertex to the determining edge's other endpoint.  The
    purple part is unchanged.  G must pass validate_ltt."""
    d_l = _det_other_end(G, det)
    u = G.red_vertex
    if d_l == bar(u):
        raise MoveRejected(f"extension red edge would join the bar pair of {u}")
    source = LttStructure.make(G.rank, u, turn(u, d_l), G.purple_edges)
    return _checked_source(entering_generator(G), source, G)


def switch(G: LttStructure, det: Turn) -> GeneratingTriple:
    """The switch determined by a purple edge at the twice-achieved
    direction: start from the purple part, attach the red edge at the
    determining edge's other endpoint, and exchange the labels of the
    red vertex and the twice-achieved direction.  The new red vertex is
    the old twice-achieved direction.  G must pass validate_ltt."""
    d_l = _det_other_end(G, det)
    u = G.red_vertex
    a = G.twice_achieved
    if d_l == bar(a):
        raise MoveRejected(f"switch red edge would join the bar pair of {a}")
    relabeled = []
    for x, y in G.purple_edges:
        x2 = u if x == a else x
        y2 = u if y == a else y
        relabeled.append((x2, y2))
    source = LttStructure.make(G.rank, a, turn(a, d_l), relabeled)
    return _checked_source(entering_generator(G), source, G)
