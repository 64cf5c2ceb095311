import pytest
from hypothesis import given, strategies as st

from handlecoset.word_algebra import (GeneratorSymbol, GroupPresentation,
                                      Word, concat, free_reduce, invert,
                                      power)

A, B, C = 0, 1, 2


def w(*letters):
    return Word(tuple(letters))


def naive_reduce(letters):
    """Repeated-scan reducer; oracle for free_reduce."""
    letters = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            (a, s), (b, t) = letters[i], letters[i + 1]
            if a == b and s == -t:
                del letters[i:i + 2]
                changed = True
                break
    return tuple(letters)


letters_st = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),
              st.sampled_from((1, -1))),
    max_size=16).map(tuple)
words_st = letters_st.map(free_reduce)


def test_free_reduce_adjacent_cancellation():
    assert free_reduce([(A, 1), (A, -1), (B, 1)]) == w((B, 1))


def test_free_reduce_identity():
    assert free_reduce([]) == Word()
    assert Word().is_identity


def test_free_reduce_cascade():
    # hand-reduced: a b b^-1 a^-1 a -> a
    raw = [(A, 1), (B, 1), (B, -1), (A, -1), (A, 1)]
    assert free_reduce(raw) == w((A, 1))
    assert free_reduce(raw).letters == naive_reduce(raw)


@given(letters_st)
def test_free_reduce_matches_naive_reducer(raw):
    assert free_reduce(raw).letters == naive_reduce(raw)


@given(letters_st)
def test_free_reduce_idempotent(raw):
    once = free_reduce(raw)
    assert free_reduce(once.letters) == once


def test_invert_examples():
    assert invert(w((A, 1), (B, 1))) == w((B, -1), (A, -1))
    assert invert(Word()) == Word()
    assert invert(w((A, 1), (B, -1), (A, 1))) == w((A, -1), (B, 1), (A, -1))


@given(words_st)
def test_invert_involution(word):
    assert invert(invert(word)) == word


@given(words_st, words_st)
def test_invert_antihomomorphism(u, v):
    assert invert(concat(u, v)) == concat(invert(v), invert(u))


@given(words_st)
def test_word_times_inverse_is_identity(word):
    assert concat(word, invert(word)).is_identity


def test_concat_examples():
    assert concat(w((A, 1)), w((A, -1))) == Word()
    assert concat(w((A, 1), (B, 1)), w((B, -1), (C, 1))) == w((A, 1), (C, 1))
    assert concat(w((A, 1)), Word()) == w((A, 1))


@given(words_st, words_st, words_st)
def test_concat_associative(u, v, x):
    assert concat(concat(u, v), x) == concat(u, concat(v, x))


def test_power():
    assert power(w((A, 1)), 3) == w((A, 1), (A, 1), (A, 1))
    assert power(w((A, 1)), -2) == w((A, -1), (A, -1))
    assert power(w((A, 1), (B, 1)), 0) == Word()


def test_word_rejects_unreduced():
    with pytest.raises(ValueError):
        Word(((A, 1), (A, -1)))
    with pytest.raises(ValueError):
        Word(((A, 2),))


def two_loop_validate(letters):
    """Word's validation as two passes, the reference for its one pass:
    every letter first, then every adjacent pair."""
    for idx, sign in letters:
        if idx < 0 or sign not in (1, -1):
            raise ValueError(f"bad letter {(idx, sign)!r}")
    for (i, s), (j, t) in zip(letters, letters[1:]):
        if i == j and s == -t:
            raise ValueError("word is not freely reduced")


def outcome(check, letters):
    try:
        check(letters)
    except Exception as exc:
        return type(exc), str(exc)
    return None


# mostly well-formed letters over a small alphabet, so cancelling pairs
# are common, mixed with bad indices and signs, wrong arities and non-pairs
any_letters_st = st.lists(st.one_of(
    st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from((1, -1))),
    st.tuples(st.integers(min_value=-2, max_value=2),
              st.integers(min_value=-2, max_value=2)),
    st.tuples(st.integers(min_value=0, max_value=2)),
    st.tuples(st.integers(), st.integers(), st.integers()),
    st.none(), st.text(max_size=3)), max_size=12).map(tuple)


@given(any_letters_st)
def test_word_validates_like_the_two_pass_reference(letters):
    assert outcome(Word, letters) == outcome(two_loop_validate, letters)


def test_a_bad_letter_wins_over_a_cancelling_pair():
    with pytest.raises(ValueError, match="bad letter"):
        Word(((A, 1), (A, -1), (B, 0)))


def test_generator_symbol_names():
    assert GeneratorSymbol("t_1").name == "t_1"
    for bad in ("", "1a", "a-b", "a b"):
        with pytest.raises(ValueError):
            GeneratorSymbol(bad)


def test_presentation_invariants():
    a = GeneratorSymbol("a")
    with pytest.raises(ValueError):
        GroupPresentation((a, GeneratorSymbol("a")))
    with pytest.raises(ValueError):
        GroupPresentation((a,), (Word(),))  # empty relator
    with pytest.raises(ValueError):
        GroupPresentation((a,), (w((B, 1)),))  # unknown index
    with pytest.raises(ValueError):
        GroupPresentation(())
