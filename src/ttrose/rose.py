"""Directions, turns, and tight edge-path words on an r-petaled rose.

The rose with r petals has one vertex and r oriented edges E_1 .. E_r.
Directions (germs of oriented edges at the vertex) are encoded as the
integers 1 .. 2r: direction 2i-1 is E_i read forwards, 2i is E_i read
backwards.  The reversal involution is therefore a parity flip, and an
edge path is just a sequence of direction letters.
"""

from __future__ import annotations

from collections.abc import Sequence

from ._record import record

Direction = int
Turn = tuple[int, int]
Word = tuple[int, ...]

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
MAX_RANK = len(_LETTERS)


def check_rank(rank: int) -> int:
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:  # True == 1
        raise ValueError(f"rank must be a positive integer, got {rank!r}")
    if rank > MAX_RANK:
        raise ValueError(f"rank {rank} exceeds the supported maximum {MAX_RANK}")
    return rank


def all_directions(rank: int) -> range:
    return range(1, 2 * rank + 1)


def check_direction(d: Direction, rank: int) -> Direction:
    if not isinstance(d, int) or not 1 <= d <= 2 * rank:
        raise ValueError(f"direction {d!r} out of range 1..{2 * rank}")
    return d


def bar(d: Direction) -> Direction:
    """Reversal involution: 2i-1 <-> 2i."""
    return d + 1 if d % 2 == 1 else d - 1


def is_forward(d: Direction) -> bool:
    return d % 2 == 1


def edge_index(d: Direction) -> int:
    """Index i of the petal E_i underlying direction d (1-based)."""
    return (d + 1) // 2


def forward_direction(i: int) -> Direction:
    """Direction of E_i read forwards."""
    return 2 * i - 1


def turn(d1: Direction, d2: Direction) -> Turn:
    """Canonical (sorted) form of the unordered pair {d1, d2}.

    Degenerate pairs are rejected: a turn consists of two distinct
    directions.
    """
    if d1 == d2:
        raise ValueError(f"degenerate turn {{{d1},{d2}}}")
    return (d1, d2) if d1 < d2 else (d2, d1)


@record
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

    def __str__(self) -> str:
        u_txt, a_txt = format_direction(self.u), format_direction(self.a)
        return f"{u_txt} -> {a_txt}{u_txt}"


def reverse_word(word: Sequence[int]) -> Word:
    """The same path traversed backwards: reverse and flip every letter."""
    return tuple(bar(d) for d in reversed(word))


def tighten(word: Sequence[int]) -> tuple[Word, bool]:
    """Reduce a word by cancelling adjacent (d, bar(d)) pairs.

    Returns the unique reduced word together with a flag recording
    whether any cancellation occurred.
    """
    out: list[int] = []
    cancelled = False
    for d in word:
        if out and out[-1] == bar(d):
            out.pop()
            cancelled = True
        else:
            out.append(d)
    return tuple(out), cancelled


def is_tight(word: Sequence[int]) -> bool:
    return all(word[i + 1] != bar(word[i]) for i in range(len(word) - 1))


def turns_of(word: Sequence[int]) -> frozenset[Turn]:
    """Turns crossed by a tight edge path: {bar(e_i), e_{i+1}} at each joint."""
    if not is_tight(word):
        raise ValueError("turns_of requires a tight path")
    return frozenset(turn(bar(word[i]), word[i + 1]) for i in range(len(word) - 1))


# --- text form ---------------------------------------------------------
#
# E_i forwards prints as a lowercase letter; the reverse as the letter
# followed by a prime; parse_word also reads a leading minus as reverse.


def format_direction(d: Direction) -> str:
    letter = _LETTERS[edge_index(d) - 1]
    return letter if is_forward(d) else letter + "'"


def format_word(word: Sequence[int]) -> str:
    return "".join(format_direction(d) for d in word)


def parse_word(text: str, rank: int) -> Word:
    """Parse a word like ``"bac'"`` or ``"b a -c"`` into direction letters.

    Both reverse markers are always accepted: a trailing prime and a
    leading minus.
    """
    out: list[int] = []
    negate = False
    for ch in text:
        if ch.isspace():
            continue
        if ch == "-":
            if negate:
                raise ValueError(f"dangling '-' in {text!r}")
            negate = True
        elif ch == "'":
            if not out or negate:
                raise ValueError(f"dangling prime in {text!r}")
            out[-1] = bar(out[-1])
        elif ch in _LETTERS:
            i = _LETTERS.index(ch) + 1
            if i > rank:
                raise ValueError(f"letter {ch!r} is outside rank {rank}")
            d = forward_direction(i)
            out.append(bar(d) if negate else d)
            negate = False
        else:
            raise ValueError(f"unexpected character {ch!r} in word {text!r}")
    if negate:
        raise ValueError(f"dangling '-' in {text!r}")
    return tuple(out)
