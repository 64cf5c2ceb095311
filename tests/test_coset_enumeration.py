import gc
import hashlib
import itertools
import random
import tracemalloc
from array import array

import pytest

from brute import (GROUP_CORPUS, INPUT_CORPUS, coxeter_skg, cycle_type, mulclose,
                   respell_squares, twist_spun_skg, two_bridge_skg)
from handlecoset.cli import run
from handlecoset.coset_enumeration import (CosetTable, EnumerationLimits,
                                           _Enumeration, _verify, enumerate_cosets)
from handlecoset.errors import CosetRangeError, ResourceExhausted
from handlecoset.knot_input import format_word, parse_input, parse_word
from handlecoset import word_algebra
from handlecoset.word_algebra import (GeneratorSymbol, GroupPresentation, Word, invert,
                                      perm_inverse)


def load(text):
    parsed = parse_input(text)
    return parsed.presentation


C4 = load("group: a\nrel: a^4\nP: 1\norientable: true")
S3 = load("group: a b\nrel: a^2\nrel: b^3\nrel: a b a b\nP: 1\norientable: true")
FREE1 = load("group: t\nP: 1\norientable: true")


def word(text, pres):
    return parse_word(text, pres)


def test_index_c4_mod_a2():
    table = enumerate_cosets(C4, [word("a^2", C4)])
    assert table.index == 2


def test_index_s3_mod_a():
    table = enumerate_cosets(S3, [word("a", S3)])
    assert table.index == 3


def test_index_whole_group():
    table = enumerate_cosets(FREE1, [word("t", FREE1)])
    assert table.index == 1


def test_trace_examples():
    table = enumerate_cosets(C4, [word("a^2", C4)])
    assert table.trace(1, Word()) == 1
    assert table.trace(1, word("a", C4)) == 2
    assert table.trace(2, word("a", C4)) == 1
    s3_table = enumerate_cosets(S3, [word("a", S3)])
    assert s3_table.trace(1, word("b^3", S3)) == 1  # relator closure
    with pytest.raises(CosetRangeError):
        s3_table.trace(0, Word())
    with pytest.raises(CosetRangeError):
        s3_table.trace(5, Word())
    for coset in (0, 4):  # 0 is the columns' placeholder slot
        with pytest.raises(CosetRangeError):
            s3_table.trace(coset, Word(((0, 1),)))
    foreign = Word(((0, 1), (2, -1)))  # S3 has generators 0 and 1 only
    with pytest.raises(ValueError, match="outside this table's alphabet"):
        s3_table.trace(1, foreign)
    with pytest.raises(ValueError, match="outside this table's alphabet"):
        s3_table.permutation(foreign)
    # a word's permutation sends every coset where trace does
    w = word("a b^-1 a", S3)
    assert s3_table.permutation(w) == \
        [0] + [s3_table.trace(c, w) for c in range(1, s3_table.index + 1)]


def test_membership_examples():
    t2 = enumerate_cosets(FREE1, [word("t^2", FREE1)])
    assert not t2.membership(word("t", FREE1))
    assert t2.membership(Word())
    s3_table = enumerate_cosets(S3, [word("a", S3)])
    assert s3_table.membership(word("a", S3))


def test_trace_composes():
    rng = random.Random(3)
    table = enumerate_cosets(S3, [word("a", S3)])
    from handlecoset.word_algebra import concat, free_reduce
    for _ in range(200):
        u = free_reduce([(rng.randrange(2), rng.choice((1, -1)))
                         for _ in range(rng.randint(0, 5))])
        v = free_reduce([(rng.randrange(2), rng.choice((1, -1)))
                         for _ in range(rng.randint(0, 5))])
        c = rng.randint(1, table.index)
        assert table.trace(c, concat(u, v)) == table.trace(table.trace(c, u), v)
        assert table.trace(c, Word()) == c


def test_witnesses():
    table = enumerate_cosets(S3, [word("a", S3)])
    assert table.witness(1).is_identity
    for c in range(1, table.index + 1):
        assert table.trace(1, table.witness(c)) == c
        assert table.unwitness(c) == table.trace(1, invert(table.witness(c)))
    assert [table.inverse(c) for c in table.orbit_sizes] == [1, 2]
    # unwitness, and so inverse, once read -1 and -3 as cosets from the
    # end and 0 as the placeholder slot, and raised IndexError at 4
    for method in (table.witness, table.unwitness, table.inverse):
        for c in (0, -1, -3, table.index + 1):
            with pytest.raises(CosetRangeError, match=f"^coset {c} out of range 1..3$"):
                method(c)


def _spelled_tables():
    """(id, skg text, subgroup words) for every GROUP_CORPUS subgroup, the
    P and P+ of every INPUT_CORPUS input, and Coxeter S5 over <s2>."""
    out = []
    for case in GROUP_CORPUS:
        for k, words in enumerate(case.subgroups):
            out.append((f"{case.name}-{k}", case.skg, words))
    for case in INPUT_CORPUS:
        parsed = parse_input(case.skg)
        names = parsed.presentation.generator_names
        for side, words in (("P", parsed.p_generators),
                            ("P+", parsed.p_plus_generators)):
            if words is not None:
                out.append((f"{case.label}-{side}", case.skg,
                            [format_word(w, names) for w in words]))
    out.append(("s5", coxeter_skg(5, [2]), ["s2"]))
    return out


@pytest.mark.parametrize("text,words", [t[1:] for t in _spelled_tables()],
                         ids=[t[0] for t in _spelled_tables()])
def test_witness_texts_spell_each_witness(text, words):
    pres = load(text)
    names = pres.generator_names
    table = enumerate_cosets(pres, [word(w, pres) for w in words])
    every = range(1, table.index + 1)
    texts = table.witness_texts(every, names)
    assert texts == {c: format_word(table.witness(c), names) for c in every}
    # some of the cosets, in any order, get the same texts
    some = list(every)[::-3]
    assert table.witness_texts(some, names) == {c: texts[c] for c in some}


@pytest.mark.parametrize("text,words", [t[1:] for t in _spelled_tables()],
                         ids=[t[0] for t in _spelled_tables()])
def test_translates_trace_each_witness(text, words):
    pres = load(text)
    table = enumerate_cosets(pres, [word(w, pres) for w in words])
    every = range(1, table.index + 1)
    for start in sorted({1, (table.index + 1) // 2, table.index}):
        assert table.translates(start) == \
            [0] + [table.trace(start, table.witness(c)) for c in every]
    for start in (0, table.index + 1):
        with pytest.raises(CosetRangeError):
            table.translates(start)


def test_witness_texts_merge_runs():
    c5 = load("group: a\nrel: a^5\nP: 1\norientable: true")
    table = enumerate_cosets(c5, [])
    assert table.witness_texts(range(1, 6), ["a"]) == \
        {1: "1", 2: "a", 3: "a^-1", 4: "a^2", 5: "a^-2"}
    assert table.witness_texts([], ["a"]) == {}
    for c in (0, 6):
        with pytest.raises(CosetRangeError):
            table.witness_texts([1, c], ["a"])


def test_witness_texts_past_the_shared_letter_table():
    # a word over a larger alphabet, built first, leaves no state behind
    # that a smaller table's texts would read past
    big = GroupPresentation(tuple(GeneratorSymbol(f"x{i}") for i in range(40)))
    assert word("x39^-1 x0", big).max_generator_index() == 39
    table = enumerate_cosets(S3, [word("a", S3)])
    names = S3.generator_names
    every = range(1, table.index + 1)
    assert table.witness_texts(every, names) == \
        {c: format_word(table.witness(c), names) for c in every}


def test_standardized_numbering_is_bfs():
    # for C5 with trivial subgroup, BFS by columns a, a^-1 gives
    # 1, a, a^-1, a^2, a^-2
    c5 = load("group: a\nrel: a^5\nP: 1\norientable: true")
    table = enumerate_cosets(c5, [])
    a = word("a", c5)
    assert table.trace(1, a) == 2
    assert table.trace(1, word("a^-1", c5)) == 3
    assert table.trace(1, word("a^2", c5)) == 4
    assert table.trace(1, word("a^-2", c5)) == 5
    assert table.witness(3) == word("a^-1", c5)


def test_fuzz_subgroup_index_against_regular_representation():
    # trivial-subgroup enumeration gives the right regular action; closing
    # its generator columns brute-force gives an independent order and
    # subgroup-index oracle for random presentations
    from handlecoset.word_algebra import GeneratorSymbol, free_reduce
    rng = random.Random(20260809)
    gens = (GeneratorSymbol("x"), GeneratorSymbol("y"))

    def rand_word(maxlen):
        return free_reduce([(rng.randrange(2), rng.choice((1, -1)))
                            for _ in range(rng.randint(1, maxlen))])

    checked = 0
    attempts = 0
    while checked < 40 and attempts < 400:
        attempts += 1
        relators = tuple(w for w in (rand_word(6) for _ in range(rng.randint(1, 4))) if w)
        if not relators:
            continue
        pres = GroupPresentation(gens, relators)
        try:
            regular = enumerate_cosets(pres, [], EnumerationLimits(2000, 20000))
        except ResourceExhausted:
            continue
        order = regular.index
        columns = [tuple(regular.trace(c, Word(((i, 1),))) - 1
                         for c in range(1, order + 1)) for i in range(2)]
        assert len(mulclose(columns)) == order  # simply transitive action
        sub = [w for w in (rand_word(4) for _ in range(rng.randint(1, 2))) if w]
        sub_perms = []
        for w in sub:
            sub_perms.append(tuple(regular.trace(c, w) - 1 for c in range(1, order + 1)))
        expected = order // len(mulclose(sub_perms + [tuple(range(order))]))
        assert enumerate_cosets(pres, sub).index == expected
        checked += 1
    assert checked == 40


def test_fuzz_subgroup_index_with_an_involution():
    # as above, with an x^2 or y^-2 relator in every presentation, so one
    # column is shared; the respelled presentation shares none and must
    # give the same standardized table
    from handlecoset.word_algebra import GeneratorSymbol, free_reduce
    rng = random.Random(20261018)
    gens = (GeneratorSymbol("x"), GeneratorSymbol("y"))

    def rand_word(maxlen):
        return free_reduce([(rng.randrange(2), rng.choice((1, -1)))
                            for _ in range(rng.randint(1, maxlen))])

    checked = 0
    attempts = 0
    while checked < 40 and attempts < 400:
        attempts += 1
        relators = [w for w in (rand_word(6) for _ in range(rng.randint(0, 3))) if w]
        i = rng.randrange(2)
        relators.insert(rng.randint(0, len(relators)), Word(((i, 1 - 2 * i),) * 2))
        pres = GroupPresentation(gens, tuple(relators))
        try:
            regular = enumerate_cosets(pres, [], EnumerationLimits(2000, 20000))
        except ResourceExhausted:
            continue
        assert regular._action[2 * i] is regular._action[2 * i + 1]
        order = regular.index
        columns = [tuple(regular.trace(c, Word(((j, 1),))) - 1
                         for c in range(1, order + 1)) for j in range(2)]
        assert len(mulclose(columns)) == order  # simply transitive action
        sub = [w for w in (rand_word(4) for _ in range(rng.randint(1, 2))) if w]
        sub_perms = [tuple(regular.trace(c, w) - 1 for c in range(1, order + 1))
                     for w in sub]
        expected = order // len(mulclose(sub_perms + [tuple(range(order))]))
        table = enumerate_cosets(pres, sub)
        assert table.index == expected
        other = enumerate_cosets(respell_squares(pres), sub)
        assert (other._action, other._tree) == (table._action, table._tree)
        checked += 1
    assert checked == 40


def test_published_benchmark_indices():
    # two classic enumeration benchmarks with well-known answers
    cox = load("group: a b\nrel: a^6\nrel: b^6\nrel: a b a b\n"
               "rel: a^2 b^2 a^2 b^2\n"
               "rel: a^3 b^3 a^3 b^3 a^3 b^3 a^3 b^3 a^3 b^3\n"
               "P: 1\norientable: true")
    assert enumerate_cosets(cox, [word("a", cox)]).index == 500
    b24 = load("group: a b\nrel: a^4\nrel: b^4\n"
               "rel: a b a b a b a b\n"
               "rel: a^-1 b a^-1 b a^-1 b a^-1 b\n"
               "rel: a^2 b a^2 b a^2 b a^2 b\n"
               "rel: a b^2 a b^2 a b^2 a b^2\n"
               "rel: a^2 b^2 a^2 b^2 a^2 b^2 a^2 b^2\n"
               "rel: a^-1 b a b a^-1 b a b a^-1 b a b a^-1 b a b\n"
               "rel: a b^-1 a b a b^-1 a b a b^-1 a b a b^-1 a b\n"
               "P: 1\norientable: true")
    assert enumerate_cosets(b24, [word("a", b24)]).index == 1024
    assert enumerate_cosets(b24, []).index == 4096


def test_resource_exhaustion():
    free2 = load("group: a b\nP: 1\norientable: true")
    with pytest.raises(ResourceExhausted) as info:
        enumerate_cosets(free2, [word("a", free2)], EnumerationLimits(100, 1000))
    assert info.value.live_cosets >= 100
    assert info.value.limits.max_live_cosets == 100


def test_limits_validation():
    with pytest.raises(ValueError):
        EnumerationLimits(0, 10)
    with pytest.raises(ValueError):
        EnumerationLimits(10, 5)
    # a float or a bool is no count of cosets, though it passes the bounds
    for live, total, bad in ((2.5, 5, 2.5), (True, 5, True), (10, 20.0, 20.0),
                             (10, True, True), (10.0, 20, 10.0)):
        with pytest.raises(ValueError, match=f"^limits must be integers, got {bad}$"):
            EnumerationLimits(live, total)
    defaults = EnumerationLimits()
    assert defaults.max_live_cosets == 1_000_000
    assert defaults.max_total_defined == 10_000_000


def test_rejects_foreign_words():
    table = enumerate_cosets(C4, [])
    with pytest.raises(ValueError):
        table.trace(1, Word(((5, 1),)))
    with pytest.raises(ValueError):
        enumerate_cosets(C4, [Word(((3, 1),))])


# ---------------------------------------------------------------------------
# the finished table's checks, and counts pinned from the list-of-rows
# enumerator this one replaced (same definition order, same tables; the
# Coxeter counts since re-pinned for the shared involution columns)
# ---------------------------------------------------------------------------

def _copy(table):
    return CosetTable(table.subgroup_generators, table.n_generators,
                      [list(column) for column in table._action],
                      array("i", table._tree), table.total_defined)


def test_verify_accepts_an_intact_copy():
    parsed = parse_input(coxeter_skg(5, [1]))
    table = enumerate_cosets(parsed.presentation, parsed.p_generators)
    _verify(_copy(table), parsed.presentation, parsed.p_generators)


def test_verify_rejects_a_corrupted_column():
    table = _copy(enumerate_cosets(S3, []))
    table._action[2][1] = table._action[2][2]
    with pytest.raises(AssertionError, match="not a permutation"):
        _verify(table, S3, [])


def test_verify_rejects_a_broken_inverse():
    table = _copy(enumerate_cosets(S3, []))
    inverse = table._action[3]  # b^-1, still a permutation after the swap
    inverse[1], inverse[2] = inverse[2], inverse[1]
    with pytest.raises(AssertionError, match="not inverse-consistent"):
        _verify(table, S3, [])


def test_verify_rejects_a_relator_that_does_not_close():
    table = enumerate_cosets(S3, [])
    wider = GroupPresentation(S3.generators, S3.relators + (word("a b", S3),))
    with pytest.raises(AssertionError, match="relator does not close"):
        _verify(table, wider, [])


def test_verify_rejects_a_subgroup_generator_moving_coset_1():
    table = enumerate_cosets(S3, [word("a", S3)])
    with pytest.raises(AssertionError, match="moved coset 1"):
        _verify(table, S3, [word("b", S3)])


def test_verify_rejects_a_bad_witness_parent():
    # a tree column whose inverse takes coset c past c: the climb from c
    # would not come down to coset 1
    table = _copy(enumerate_cosets(S3, []))
    action = table._action
    c, col = next((c, col) for c in range(2, table.index + 1)
                  for col in range(len(action)) if action[col ^ 1][c] > c)
    table._tree[c] = col
    with pytest.raises(AssertionError, match="witness tree"):
        _verify(table, S3, [])


@pytest.mark.parametrize("col, a", [(2, None), (4, None), (-4, None), (0, [2, 1, 0])],
                         ids=["parent-is-child", "past-the-end", "negative", "parent-0"])
def test_verify_rejects_a_tree_column(col, a):
    # in S3 mod <b>, b fixes coset 2, so b's column makes coset 2 its own
    # parent; column 4 names no generator, and -4 would read as a's
    # column from the end, with parent 1.  An involution a that swaps 0
    # and 2 passes the column and relator checks, but a climb through it
    # passes coset 1 and stays at 0
    b = [word("b", S3)]
    table = _copy(enumerate_cosets(S3, b))
    assert table.index == 2 and table.trace(2, b[0]) == 2
    if a is not None:
        table._action[0] = table._action[1] = a
    table._tree[2] = col
    with pytest.raises(AssertionError, match="^witness tree is inconsistent$"):
        _verify(table, S3, b)


def test_verify_rejects_every_column_that_moves_coset_0():
    # the column check alone does not see a column that moves the
    # placeholder coset 0, but some relator or subgroup word traced
    # through 0, or through the coset that now goes to 0, always fails:
    # each generator of every GROUP_CORPUS P table of index <= 5 gets
    # each such permutation, with its inverse column (the same list for
    # an involution), and _verify refuses all 938 tables
    tried = 0
    for case in GROUP_CORPUS:
        parsed = parse_input(case.skg)
        pres, words = parsed.presentation, parsed.p_generators
        table = enumerate_cosets(pres, words)
        if table.index > 5:
            continue
        for i in range(table.n_generators):
            for a in itertools.permutations(range(table.index + 1)):
                if a[0] == 0:
                    continue
                action = list(table._action)
                shared = action[2 * i] is action[2 * i + 1]
                action[2 * i] = list(a)
                action[2 * i + 1] = action[2 * i] if shared else list(perm_inverse(a))
                bad = CosetTable(words, table.n_generators, action, table._tree,
                                 table.total_defined)
                with pytest.raises(AssertionError):
                    _verify(bad, pres, words)
                tried += 1
    assert tried == 938


def test_finished_table_bytes_per_coset():
    # what the finished S8 <s1> table keeps, as traced by tracemalloc: its
    # columns' lists and their int objects, and the witness tree at one
    # array entry per coset.  HLT runs untraced, since tracing makes it
    # several times slower; standardization builds all the table keeps
    parsed = parse_input(coxeter_skg(8, [1]))
    run = _Enumeration(parsed.presentation, parsed.p_generators, EnumerationLimits())
    standardize = run._standardize
    run._standardize = lambda: None  # stop run() after HLT
    run.run()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = CosetTable(parsed.p_generators, len(parsed.presentation.generators),
                           *standardize())
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    _verify(table, parsed.presentation, parsed.p_generators)
    assert table.index == 20160
    assert kept / table.index <= 100


def test_verify_rejects_a_negative_entry():
    # -1 reads as the last coset in a Python list, so the inverse check
    # alone would pass; the range check rejects it
    table = _copy(enumerate_cosets(S3, []))
    column = table._action[2]
    column[column.index(table.index)] = -1
    with pytest.raises(AssertionError, match="not a permutation"):
        _verify(table, S3, [])


def test_verify_rejects_an_entry_past_the_end():
    # b's column names coset index + 1, which b^-1 has no entry for
    table = _copy(enumerate_cosets(S3, []))
    table._action[2][1] = table.index + 1
    with pytest.raises(AssertionError, match="not a permutation"):
        _verify(table, S3, [])


def test_verify_rejects_an_entry_that_is_not_an_int():
    # min() and sorted() both raise TypeError on None
    table = _copy(enumerate_cosets(S3, []))
    table._action[2][1] = None
    with pytest.raises(AssertionError, match="not a permutation"):
        _verify(table, S3, [])


def test_verify_rejects_a_short_inverse_column():
    # b is intact, so b^-1[b[c]] runs past the end of b^-1 at the coset
    # b sends to index
    table = _copy(enumerate_cosets(S3, []))
    table._action[3].pop()
    assert sorted(table._action[2]) == list(range(table.index + 1))
    with pytest.raises(AssertionError, match="not inverse-consistent"):
        _verify(table, S3, [])


def test_verify_rejects_a_long_inverse_column():
    table = _copy(enumerate_cosets(S3, []))
    table._action[3].append(1)  # b^-1 still inverts b on every coset
    with pytest.raises(AssertionError, match="not a permutation"):
        _verify(table, S3, [])


def test_verify_rejects_a_shared_column_that_is_not_an_involution():
    # a's two letters share one list; make it b's permutation, not a's
    table = _copy(enumerate_cosets(S3, []))
    table._action[0] = table._action[1] = table._action[2]
    with pytest.raises(AssertionError, match="not inverse-consistent"):
        _verify(table, S3, [])


def test_verify_composes_x2_on_two_lists():
    # a's columns in the regular table of C4 are two lists, so a^2 is
    # checked as a relator, and it moves every coset
    table = enumerate_cosets(C4, [])
    wider = GroupPresentation(C4.generators, C4.relators + (word("a^2", C4),))
    with pytest.raises(AssertionError, match="relator does not close"):
        _verify(table, wider, [])


def test_verify_rejects_a_power_relator_that_does_not_close():
    # a b has order 2 in S3, so (a b)^3 = a b moves every coset
    table = enumerate_cosets(S3, [])
    wider = GroupPresentation(S3.generators,
                              S3.relators + (word("a b a b a b", S3),))
    with pytest.raises(AssertionError, match="relator does not close"):
        _verify(table, wider, [])


def _power_table(images, m):
    """A hand-built table of <b, c | b^m> on the cosets 1..n, n =
    len(images), b sending k to images[k - 1] and c the cycle
    (1 2 ... n), and its presentation.  Each coset k > 1 hangs off
    coset k - 1 by c, so every check but the relator's passes."""
    n = len(images)
    b = [0, *images]
    b_inv = [0] * len(b)
    for k, d in enumerate(b):
        b_inv[d] = k
    c, c_inv = [0, *range(2, n + 1), 1], [0, n, *range(1, n)]
    tree = array("i", [0, 0] + [2] * (n - 1))  # column 2 is c
    pres = GroupPresentation((GeneratorSymbol("b"), GeneratorSymbol("c")),
                             (Word(((0, 1),) * m),))
    return CosetTable([], 2, [b, b_inv, c, c_inv], tree, n), pres


def test_verify_rejects_a_relator_that_fails_on_one_cycle_only():
    # b = (1 2)(3 4 5 6): b^6 fixes cosets 1 and 2 but moves 3..6, so a
    # check that followed only the cycle of coset 1 would pass
    table, pres = _power_table([2, 1, 4, 5, 6, 3], 6)
    with pytest.raises(AssertionError, match="relator does not close"):
        _verify(table, pres, [])


def test_verify_closes_a_power_iff_every_cycle_length_divides_it():
    rng = random.Random(11)
    for _ in range(300):
        n, m = rng.randint(1, 9), rng.randint(1, 40)
        images = rng.sample(range(1, n + 1), n)
        table, pres = _power_table(images, m)
        if all(m % k == 0 for k in cycle_type(tuple(x - 1 for x in images))):
            _verify(table, pres, [])
        else:
            with pytest.raises(AssertionError, match="relator does not close"):
                _verify(table, pres, [])


def test_verify_power_cost_without_a_timer(monkeypatch):
    # b^4001 on a 4001-cycle: raising b's column to the 4001st power took
    # 4000 compositions one at a time; by squaring it takes at most 24
    compose, calls = word_algebra.perm_compose, [0]

    def counted(p, q):
        calls[0] += 1
        return compose(p, q)

    monkeypatch.setattr(word_algebra, "perm_compose", counted)
    table, pres = _power_table([*range(2, 4002), 1], 4001)
    _verify(table, pres, [])
    assert 0 < calls[0] <= 2 * (4001).bit_length()


def _table_digest(table):
    h = hashlib.sha256()
    for c in range(1, table.index + 1):
        row = [table.trace(c, Word(((i, s),)))
               for i in range(table.n_generators) for s in (1, -1)]
        h.update(f"{row} {table.witness(c).letters}\n".encode())
    return h.hexdigest()[:16]


COX500 = ("group: a b\nrel: a^6\nrel: b^6\nrel: a b a b\nrel: a^2 b^2 a^2 b^2\n"
          "rel: a^3 b^3 a^3 b^3 a^3 b^3 a^3 b^3 a^3 b^3\nP: a\norientable: true")


@pytest.mark.parametrize("text, index, defined, digest", [
    (COX500, 500, 2010, "2d80463efa8f7398"),  # coincidences on the way
    (coxeter_skg(7, [1]), 2520, 2960, "9e5e97778f740c56"),
    (coxeter_skg(8, [1]), 20160, 25845, None),
])
def test_pinned_tables(text, index, defined, digest):
    parsed = parse_input(text)
    table = enumerate_cosets(parsed.presentation, parsed.p_generators)
    assert (table.index, table.total_defined) == (index, defined)
    if digest is not None:
        assert _table_digest(table) == digest


D5 = "group: r s\nrel: r^5\nrel: s^-2\nrel: r s r s\nP: s^-1\norientable: true\n"


@pytest.mark.parametrize("text", [coxeter_skg(6, [1]), coxeter_skg(7, [1]), D5],
                         ids=["s6", "s7", "d5"])
def test_involutory_generators_keep_the_table(text):
    # an involutory generator's letters share one self-inverse column; the
    # same relation spelled y x x y^-1 shares none, and both spellings give
    # the same standardized table and witness tree
    parsed = parse_input(text)
    pres, words = parsed.presentation, parsed.p_generators
    aliased = enumerate_cosets(pres, words)
    plain = enumerate_cosets(respell_squares(pres), words)
    assert aliased.index == plain.index
    assert aliased._action == plain._action
    assert aliased._tree == plain._tree
    involution = 2 * (len(pres.generators) - 1)  # s_(n-1), or s in D_5
    assert aliased._action[involution] is aliased._action[involution + 1]
    assert plain._action[involution] is not plain._action[involution + 1]
    assert aliased.total_defined < plain.total_defined  # S7: 2960 < 5370


TREFOIL = "group: a b\nrel: a b^-1 a^-1 b^-1 a b\nP: a\norientable: true\n"
KNOT_13_5 = ("group: a b\nrel: a b a b^-1 a^-1 b^-1 a b a^-1 b^-1 a^-1 b a b^-1 "
             "a^-1 b^-1 a b a b^-1 a^-1 b a b a^-1 b^-1\nP: a\norientable: true\n")


@pytest.mark.parametrize("text, limits, live, defined", [
    (KNOT_13_5, EnumerationLimits(200_000, 2_000_000), 200_000, 200_000),
    (TREFOIL, EnumerationLimits(3000, 4000), 3000, 3075),  # after merges
    # a merge frees room for the next definition within the same scan
    (COX500, EnumerationLimits(55, 550), 55, 56),
])
def test_pinned_exhaustion(text, limits, live, defined):
    parsed = parse_input(text)
    with pytest.raises(ResourceExhausted) as info:
        enumerate_cosets(parsed.presentation, parsed.p_generators, limits)
    assert (info.value.live_cosets, info.value.total_defined) == (live, defined)


SWEEP_DIGEST = "b4be9e55ce77e8222a7536fca6055f32afe990d0d878c696e11298277f24fb1b"
SWEEP_INPUTS = [("cox500", COX500), ("s5", coxeter_skg(5, [1])),
                ("tau3-b(3,1)", twist_spun_skg(3, 1, 3)), ("b(5,3)", two_bridge_skg(5, 3))]


def test_exhaustion_is_pinned_at_every_budget():
    # P of four inputs under every live budget in 1..120, the total budget
    # equal to it and then ten times it: 960 runs, each a row of the index
    # and cosets defined, or of ResourceExhausted's two counts.  614 runs
    # exhaust, 582 of them in a definition inside a scan and 32 in the
    # fill after it, so both callers of _Enumeration.define are pinned
    rows = []
    for name, text in SWEEP_INPUTS:
        parsed = parse_input(text)
        for live in range(1, 121):
            for total in (live, 10 * live):
                limits = EnumerationLimits(live, total)
                try:
                    table = enumerate_cosets(parsed.presentation, parsed.p_generators, limits)
                except ResourceExhausted as e:
                    rows.append((name, live, total, e.live_cosets, e.total_defined))
                else:
                    rows.append((name, live, total, "index", table.index,
                                 table.total_defined))
    assert len(rows) == 960 and sum(len(row) == 5 for row in rows) == 614
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == SWEEP_DIGEST


D4_CASE3 = ("group: r s\nrel: r^4\nrel: s^2\nrel: r s r s\n"
            "P: r^2 , s\nP+: r^2\nn: s\norientable: false\n")
S7_CASE3 = coxeter_skg(7, [1, 3]).replace("orientable: true",
                                       "P+: s1\nn: s3\norientable: false")


@pytest.mark.parametrize("name, text, subgroup, record", [
    ("d8", next(c.skg for c in GROUP_CORPUS if c.name == "d8"), "P",
     '{"command":"enumerate","cosets_defined":2,"index":2,"input":"d8","subgroup":"P"}'),
    ("q8", next(c.skg for c in GROUP_CORPUS if c.name == "q8"), "P",
     '{"command":"enumerate","cosets_defined":2,"index":2,"input":"q8","subgroup":"P"}'),
    ("d4-case3", D4_CASE3, "P+",
     '{"command":"enumerate","cosets_defined":4,"index":4,"input":"d4-case3","subgroup":"P+"}'),
    ("s7-p1", coxeter_skg(7, [1]), "P",
     '{"command":"enumerate","cosets_defined":2960,"index":2520,"input":"s7-p1","subgroup":"P"}'),
    ("s7-p2-5", coxeter_skg(7, [2, 5]), "P",
     '{"command":"enumerate","cosets_defined":1451,"index":1260,"input":"s7-p2-5","subgroup":"P"}'),
    ("s7-case3", S7_CASE3, "P",
     '{"command":"enumerate","cosets_defined":1455,"index":1260,"input":"s7-case3","subgroup":"P"}'),
])
def test_pinned_enumerate_records(tmp_path, capsys, name, text, subgroup, record):
    path = tmp_path / f"{name}.skg"
    path.write_text(text, encoding="utf-8")
    rec = tmp_path / "record.json"
    assert run(["enumerate", str(path), "--subgroup", subgroup,
                "--records", str(rec)]) == 0
    capsys.readouterr()
    assert rec.read_bytes() == (record + "\n").encode()
