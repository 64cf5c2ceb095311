import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from brute import (GROUP_CORPUS, INPUT_CORPUS, _random_word, coxeter_skg,
                   cycle_type, peval, pinv, pmul, two_bridge_skg)
from handlecoset import word_algebra
from handlecoset.coset_enumeration import enumerate_cosets
from handlecoset.knot_input import format_word, parse_input, parse_word
from handlecoset.word_algebra import (GeneratorSymbol, GroupPresentation,
                                      Word, act, concat,
                                      free_reduce, invert, perm_compose,
                                      perm_inverse, perm_inverse_and_type,
                                      perm_power, power, root, squared_generator)

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
    # column 2i for (i, +1) and 2i + 1 for (i, -1): the stored form of a
    # word, frozen, and the letters are decoded from it
    assert word.columns == tuple(2 * i + (0 if s > 0 else 1) for i, s in word)
    assert word.max_generator_index() == max((i for i, _ in word), default=-1)
    with pytest.raises(AttributeError):
        word.columns = ()
    assert word.columns == Word(word.letters).columns


def test_a_parsed_word_keeps_one_slot_per_letter():
    # 10,000 letters: a word keeps its columns alone, 8 B a slot, and so
    # does its inverse; letters as well would add another 8 B a letter,
    # and a fresh (i, s) pair per letter about 64 B
    pres = GroupPresentation((GeneratorSymbol("a"), GeneratorSymbol("b")))
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
    assert kept < 24 * len(word), kept


def test_a_presentation_compares_without_decoding_letters(monkeypatch):
    # words compare their columns, so == on presentations decodes no
    # letter; hash reads the letters and agrees between equal presentations
    decoded = [0]
    letter_of = word_algebra.letter_of

    def counted(col):
        decoded[0] += 1
        return letter_of(col)

    monkeypatch.setattr(word_algebra, "letter_of", counted)
    for text in (two_bridge_skg(13, 5), coxeter_skg(8, [1])):
        pres, twin = (parse_input(text).presentation for _ in range(2))
        first = hash(pres)
        assert decoded[0] > 0
        assert hash(pres) == first
        decoded[0] = 0
        assert pres == twin and pres.relators == twin.relators
        assert decoded[0] == 0
        assert hash(twin) == first == hash((pres.generators, pres.relators))


def test_invert_grows_no_letter_table():
    # a word may name any generator index
    far = Word(((10**9, 1), (3, -1)))
    assert invert(far) == Word(((3, 1), (10**9, -1)))


def assert_built_like_the_constructor(word):
    """A word made without the constructor's check: freely
    reduced columns (no col beside col ^ 1), and the word Word builds from
    its letters under ==, hash, repr and pickle."""
    cols = word.columns
    assert type(cols) is tuple and all(type(c) is int and c >= 0 for c in cols)
    assert all(a != b ^ 1 for a, b in zip(cols, cols[1:])), cols
    twin = Word(word.letters)
    assert twin == word and hash(twin) == hash(word) and repr(twin) == repr(word)
    assert twin.columns == cols
    assert pickle.dumps(twin) == pickle.dumps(word)
    back = pickle.loads(pickle.dumps(word))
    assert back == word and back.columns == cols


def built_from(words, names, pres):
    """What each word-making function makes of the words: inverse, concatenations with
    each other and the inverses, powers, a free reduction of their letters
    and their inverse letters, and the parse of their texts and of the
    text of one beside another's inverse."""
    words = list(words)
    for u in words:
        yield invert(u)
        yield free_reduce(u.letters + invert(u).letters[:len(u) // 2])
        yield parse_word(format_word(u, names), pres)
        for k in (-3, -1, 0, 2):
            yield power(u, k)
        for v in words[:4]:
            yield concat(u, v)
            yield concat(u, invert(v), u)
            yield parse_word(f"{format_word(u, names)} {format_word(invert(v), names)}",
                             pres)


def _corpus():
    """(label, skg) of every GROUP_CORPUS and INPUT_CORPUS case."""
    return ([(case.name, case.skg) for case in GROUP_CORPUS]
            + [(case.label, case.skg) for case in INPUT_CORPUS])


@pytest.mark.parametrize("text", [t for _, t in _corpus()], ids=[n for n, _ in _corpus()])
def test_made_words_match_the_constructor(text):
    parsed = parse_input(text)
    pres = parsed.presentation
    names = pres.generator_names
    words = [*pres.relators, *parsed.p_generators, *(parsed.p_plus_generators or ()),
             *([parsed.n_word] if parsed.n_word is not None else [])]
    table = enumerate_cosets(pres, parsed.p_generators)
    witnesses = [table.witness(c) for c in range(1, min(table.index, 200) + 1)]
    for word in words + witnesses + list(built_from(words + witnesses[-8:], names, pres)):
        assert_built_like_the_constructor(word)


NAMES = ("a", "b", "c")
ABC = GroupPresentation(tuple(map(GeneratorSymbol, NAMES)))


@given(words_st, words_st, letters_st, st.integers(min_value=-4, max_value=4))
def test_made_words_match_the_constructor_on_random_words(u, v, raw, k):
    assert_built_like_the_constructor(free_reduce(raw))
    for word in (u, v, *built_from([u, v], NAMES, ABC), power(concat(u, v), k)):
        assert_built_like_the_constructor(word)


def test_squared_generator():
    # a relator x^2 or x^-2 makes x its own inverse; no other word does
    assert squared_generator(w((B, 1), (B, 1))) == B
    assert squared_generator(w((C, -1), (C, -1))) == C
    for word in (Word(), w((A, 1)), w((A, 1), (B, 1)), w((A, 1), (A, 1), (A, 1)),
                 w((B, 1), (A, 1), (A, 1), (B, -1))):
        assert squared_generator(word) is None


def test_word_rejects_unreduced():
    with pytest.raises(ValueError):
        Word(((A, 1), (A, -1)))
    with pytest.raises(ValueError):
        Word(((A, 2),))


def is_letter(x):
    """A pair of ints (bools are not), the index >= 0 and the sign +-1."""
    return (isinstance(x, tuple) and len(x) == 2
            and all(type(y) is int for y in x) and x[0] >= 0 and abs(x[1]) == 1)


def two_loop_validate(letters):
    """Word's validation as two loops, the reference for the constructor:
    every letter first, then every adjacent pair."""
    for x in letters:
        if not is_letter(x):
            raise ValueError(f"bad letter {x!r}")
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
# are common, mixed with bad indices and signs, wrong arities, non-pairs,
# and pairs of floats, bools and strings
any_letters_st = st.lists(st.one_of(
    st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from((1, -1))),
    st.tuples(st.integers(min_value=-2, max_value=2),
              st.integers(min_value=-2, max_value=2)),
    st.tuples(st.integers(min_value=0, max_value=2)),
    st.tuples(st.integers(), st.integers(), st.integers()),
    st.tuples(st.sampled_from((0.0, 0.5, 1.0, True, "a")), st.sampled_from((1, -1))),
    st.tuples(st.integers(min_value=0, max_value=2),
              st.sampled_from((1.0, -1.0, True, "+"))),
    st.none(), st.text(max_size=3)), max_size=12).map(tuple)


@given(any_letters_st)
def test_word_validates_like_the_two_pass_reference(letters):
    assert outcome(Word, letters) == outcome(two_loop_validate, letters)


@given(any_letters_st)
def test_free_reduce_checks_letters_as_the_constructor_does(letters):
    # a bad letter anywhere is refused, even one that would cancel
    if all(map(is_letter, letters)):
        assert free_reduce(letters).letters == naive_reduce(letters)
    else:
        bad = next(x for x in letters if not is_letter(x))
        assert outcome(free_reduce, letters) == (ValueError, f"bad letter {bad!r}")


@pytest.mark.parametrize("letter", [
    (0.5, 1), (1.0, 1), (0, 1.0), (0, -1.0), (True, 1), (0, True),
    ("a", 1), (0, "+"), "ab", "a", None, 3, (), (0,), (0, 1, 1), (None, 1)])
def test_a_letter_is_a_pair_of_ints(letter):
    # a word with a float index would raise TypeError from
    # max_generator_index and CosetTable.trace; each such letter is refused
    for build in (Word, free_reduce):
        with pytest.raises(ValueError) as caught:
            build(((A, 1), letter))
        assert str(caught.value) == f"bad letter {letter!r}"


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
    # brute's pmul, pinv, peval and cycle_type are written apart from
    # the package's steps, and serve as their oracles, also for the one
    # walk that reads an inverse and a cycle type together
    rng = random.Random(7)
    for _ in range(500):
        d = rng.randint(1, 9)
        p, q = (tuple(rng.sample(range(d), d)) for _ in range(2))
        assert perm_compose(p, q) == pmul(p, q)
        assert perm_inverse(p) == pinv(p)
        assert perm_inverse_and_type(p) == (pinv(p), cycle_type(p))
        k = rng.randint(0, 30)
        slow = tuple(range(d))
        for _ in range(k):
            slow = pmul(slow, p)
        assert perm_power(p, k) == slow
        gens = tuple(tuple(rng.sample(range(d), d)) for _ in range(3))
        word = _random_word(rng, 3, 12)
        # an image's 0-based tuples, and a coset table's 1-based lists
        action = [x for g in gens for x in (g, pinv(g))]
        assert act(action, word.columns, range(d)) == peval(word, gens)
        lists = [[0] + [x + 1 for x in column] for column in action]
        assert act(lists, word.columns, range(d + 1)) == \
            (0,) + tuple(x + 1 for x in peval(word, gens))
        points = rng.choices(range(d), k=rng.randint(0, 4))
        assert act(action, word.columns, points) == \
            tuple(peval(word, gens)[x] for x in points)


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
