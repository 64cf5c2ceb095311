import random
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from handlecoset import word_algebra
from handlecoset.knot_input import parse_word
from handlecoset import selftest
from handlecoset.selftest import _random_word, peval, pinv, pmul
from handlecoset.word_algebra import (GeneratorSymbol, GroupPresentation,
                                      Word, act, column_letters, concat,
                                      cycle_type, free_reduce, invert,
                                      perm_compose, perm_inverse, perm_power,
                                      power, root, shared_letter)

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


@given(words_st)
def test_columns_encode_each_letter(word):
    # column 2i for (i, +1) and 2i + 1 for (i, -1), compiled once when
    # the word is built, and as frozen as the letters
    assert word.columns == tuple(2 * i + (0 if s > 0 else 1) for i, s in word)
    assert word.max_generator_index() == max((i for i, _ in word), default=-1)
    assert [column_letters(col + 1)[col] for col in word.columns] == list(word.letters)
    with pytest.raises(AttributeError):
        word.columns = ()
    assert word.columns == Word(word.letters).columns


def test_built_words_share_their_letters():
    # a parsed word, its inverse and a free reduction hold the one shared
    # pair of each column, not a pair per letter
    pres = GroupPresentation((GeneratorSymbol("a"), GeneratorSymbol("b")))
    word = parse_word("a b^-1 a^-1 b a^2 b^-3", pres)
    for u in (word, invert(word), concat(word, word), free_reduce(word.letters)):
        assert all(x is shared_letter(*x) for x in u.letters)


def test_a_parsed_word_keeps_two_slots_per_letter():
    # 10,000 letters: a word keeps its letters and its columns, 8 B a slot;
    # a fresh (i, s) pair per letter would add about 64 B a letter
    pres = GroupPresentation((GeneratorSymbol("a"), GeneratorSymbol("b")))
    parse_word("a b^-1", pres)  # the shared pairs exist before the count
    text = " ".join(["a b^-1 a^-1 b"] * 2500)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        word = parse_word(text, pres)
        inverse = invert(word)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(word) == len(inverse) == 10_000
    assert kept < 2 * 24 * len(word), kept


def test_invert_grows_no_letter_table():
    # a word may name any generator index; its inverse does not extend the
    # shared table to that index
    before = len(column_letters(0))
    far = Word(((10**9, 1), (3, -1)))
    assert invert(far) == Word(((3, 1), (10**9, -1)))
    assert len(column_letters(0)) == before


class _YieldingList(list):
    """A list whose len() hands the interpreter to another thread after it
    has read the length, so a thread that grows a table from its length
    meets the others mid-growth."""

    def __len__(self):
        n = super().__len__()
        time.sleep(0)
        return n


def test_the_letter_table_grows_safely_under_threads(monkeypatch):
    # threads that grow the shared table from empty at once each get a
    # table whose column c holds the letter of c, however their steps
    # interleave; a lost or doubled step would shift every later letter
    wrong = []

    def grow(start, step):
        start.wait(timeout=10)
        for ncols in range(1, 64, step):
            column_letters(ncols)
        wrong.extend(c for c, x in enumerate(column_letters(64))
                     if x != (c >> 1, (-1) ** c))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(word_algebra, "_LETTERS", _YieldingList())
            start = threading.Barrier(4)
            threads = [threading.Thread(target=grow, args=(start, step))
                       for step in (1, 1, 2, 3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong


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


def test_permutation_steps_match_the_oracles():
    # selftest's pmul, pinv, peval and cycle_type are written apart from
    # the package's steps, and serve as their oracles
    rng = random.Random(7)
    for _ in range(500):
        d = rng.randint(1, 9)
        p, q = (tuple(rng.sample(range(d), d)) for _ in range(2))
        assert perm_compose(p, q) == pmul(p, q)
        assert perm_inverse(p) == pinv(p)
        assert cycle_type(p) == selftest.cycle_type(p)
        k = rng.randint(0, 30)
        slow = tuple(range(d))
        for _ in range(k):
            slow = pmul(slow, p)
        assert perm_power(p, k) == slow
        gens = tuple(tuple(rng.sample(range(d), d)) for _ in range(3))
        word = _random_word(rng, 3, 12)
        # an image's 0-based tuples, and a coset table's 1-based lists
        action = [x for g in gens for x in (g, pinv(g))]
        assert tuple(act(action, word.columns, range(d))) == peval(word, gens)
        lists = [[0] + [x + 1 for x in column] for column in action]
        assert act(lists, word.columns, range(d + 1)) == \
            [0] + [x + 1 for x in peval(word, gens)]
        points = rng.choices(range(d), k=rng.randint(0, 4))
        assert act(action, word.columns, points) == \
            [peval(word, gens)[x] for x in points]


def test_perm_power_squares(monkeypatch):
    # k - 1 compositions for k <= 3, as a relator u^k of a Coxeter
    # presentation needs, and at most 2 log2(k) beyond
    calls = [0]

    def counted(p, q):
        calls[0] += 1
        return pmul(p, q)

    monkeypatch.setattr(word_algebra, "perm_compose", counted)
    p = (1, 2, 0, 4, 3)
    for k in range(200):
        calls[0] = 0
        assert perm_power(p, k) == peval(Word(((0, 1),) * k), (p,))
        if k <= 3:
            assert calls[0] == max(k - 1, 0)
        assert calls[0] <= 2 * k.bit_length()


def test_root_names_each_orbit_by_its_least_point():
    rng = random.Random(3)
    for _ in range(200):
        d = rng.randint(1, 9)
        gens = [tuple(rng.sample(range(d), d)) for _ in range(rng.randint(0, 3))]
        parent = list(range(d))
        for g in gens:
            for x, y in enumerate(g):
                a, b = sorted((root(parent, x), root(parent, y)))
                parent[b] = a
        for x in range(d):
            orbit, stack = {x}, [x]
            while stack:
                y = stack.pop()
                for g in gens:
                    for z in (g[y], pinv(g)[y]):
                        if z not in orbit:
                            orbit.add(z)
                            stack.append(z)
            assert root(parent, x) == min(orbit)
