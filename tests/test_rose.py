import pytest
from hypothesis import given
from hypothesis import strategies as st

from ttrose.rose import (
    bar,
    check_direction,
    format_word,
    is_tight,
    parse_word,
    reverse_word,
    tighten,
    turn,
    turns_of,
)

words = st.integers(2, 5).flatmap(
    lambda r: st.lists(st.integers(1, 2 * r), max_size=30))


def test_bar_pairing_convention():
    assert bar(1) == 2
    assert bar(2) == 1
    assert bar(bar(5)) == 5


@given(st.integers(1, 12))
def test_bar_is_fixed_point_free_involution(d):
    assert bar(d) != d
    assert bar(bar(d)) == d
    # 2i-1 pairs with 2i
    assert {d, bar(d)} == {2 * ((d + 1) // 2) - 1, 2 * ((d + 1) // 2)}


def test_tighten_examples():
    assert tighten([]) == ((), False)
    assert tighten([1, 2]) == ((), True)
    assert tighten([1, 3, 4, 5]) == ((1, 5), True)


@given(words)
def test_tighten_is_idempotent_and_tight(w):
    reduced, cancelled = tighten(w)
    assert is_tight(reduced)
    assert cancelled == (len(reduced) != len(w))
    assert tighten(reduced) == (reduced, False)


@given(words)
def test_tighten_commutes_with_reversal(w):
    assert tighten(reverse_word(w))[0] == reverse_word(tighten(w)[0])


def test_turns_of_examples():
    assert turns_of([1]) == frozenset()
    # b -> b a c' crosses {b',a} and {a',c'}
    assert turns_of(parse_word("bac'", 3)) == {turn(4, 1), turn(2, 6)}
    word = parse_word("abacbabac'abacbaba", 3)
    assert turns_of(word) == {turn(2, 3), turn(4, 1), turn(2, 5), turn(6, 3),
                              turn(2, 6), turn(5, 1)}


@given(words)
def test_turns_are_reversal_invariant(w):
    tight, _ = tighten(w)
    assert turns_of(tight) == turns_of(reverse_word(tight))


def test_turn_is_canonical_and_nondegenerate():
    assert turn(5, 2) == (2, 5)
    try:
        turn(3, 3)
    except ValueError:
        pass
    else:
        raise AssertionError("degenerate turn accepted")


def test_parse_and_format_round_trip():
    w = parse_word("ab'c-a", 3)
    assert w == (1, 4, 5, 2)
    assert format_word(w) == "ab'ca'"
    assert parse_word("a-bc-a", 3) == w
    # the spaced, leading-minus spelling the docstring promises
    assert parse_word("b a -c", 3) == parse_word("bac'", 3) == (3, 1, 6)


@pytest.mark.parametrize("call, message", [
    (lambda: parse_word("a--b", 3), "dangling '-' in 'a--b'"),
    (lambda: parse_word("ab-", 3), "dangling '-' in 'ab-'"),
    (lambda: parse_word("'a", 3), "dangling prime in \"'a\""),
    (lambda: parse_word("abd", 3), "letter 'd' is outside rank 3"),
    (lambda: parse_word("a1", 3), "unexpected character '1' in word 'a1'"),
    (lambda: check_direction(7, 3), "direction 7 out of range 1..6"),
    (lambda: turns_of((1, 3, 4)), "turns_of requires a tight path"),
], ids=["double_minus", "trailing_minus", "leading_prime", "letter_past_rank",
        "unexpected_character", "direction_out_of_range", "turns_of_untight"])
def test_refusals_say_what_is_wrong(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
