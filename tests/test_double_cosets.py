import random

import pytest

from brute import (BROKEN_INPUTS, GROUP_CORPUS, INPUT_CORPUS, coxeter_skg,
                   orbit_partition)
from handlecoset.coset_enumeration import enumerate_cosets
from handlecoset.double_cosets import (UnorderedPair, dc_all, dc_id,
                                       dc_invert, dc_twist, nest_slots,
                                       slot_count)
from handlecoset.errors import PreconditionUnverified, TableMismatch
from handlecoset.handle_classifier import (ClassifierContext, ValidationCheck,
                                           ValidationReport, validate)
from handlecoset.knot_input import parse_input, parse_word
from handlecoset.word_algebra import Word, concat, free_reduce, invert

S3_TEXT = "group: a b\nrel: a^2\nrel: b^3\nrel: a b a b\nP: a\norientable: true"
D8_CASE3 = ("group: r s\nrel: r^4\nrel: s^2\nrel: r s r s\n"
            "P: r^2 , s\nP+: r^2\nn: s\norientable: false")


def setup_s3():
    parsed = parse_input(S3_TEXT)
    table = enumerate_cosets(parsed.presentation, parsed.p_generators)
    return parsed, table


def test_dc_id_s3_examples():
    parsed, table = setup_s3()
    acting = parsed.p_generators
    d_b = dc_id(table, acting, parse_word("b", parsed.presentation))
    d_a = dc_id(table, acting, parse_word("a", parsed.presentation))
    assert d_b.orbit == (2, 3)
    assert d_a.orbit == (1,)
    assert d_a == dc_id(table, acting, Word())


def test_dc_id_index_one():
    parsed = parse_input("group: t\nP: t\norientable: true")
    table = enumerate_cosets(parsed.presentation, parsed.p_generators)
    classes = {dc_id(table, parsed.p_generators,
                     parse_word(text, parsed.presentation))
               for text in ("1", "t", "t^5", "t^-3")}
    assert len(classes) == 1


def test_dc_all_s3():
    parsed, table = setup_s3()
    orbits = dc_all(table, parsed.p_generators)
    assert sorted(o.orbit_size for o in orbits) == [1, 2]
    assert sum(o.orbit_size for o in orbits) == table.index


def test_dc_all_dihedral_p_plus_central():
    parsed = parse_input(D8_CASE3)
    table = enumerate_cosets(parsed.presentation, parsed.p_plus_generators)
    orbits = dc_all(table, parsed.p_plus_generators)
    assert len(orbits) == 4
    assert all(o.orbit_size == 1 for o in orbits)


def test_dc_invert_examples():
    parsed, table = setup_s3()
    acting = parsed.p_generators
    d_one = dc_id(table, acting, Word())
    assert dc_invert(table, acting, d_one) == d_one
    d_b = dc_id(table, acting, parse_word("b", parsed.presentation))
    assert dc_invert(table, acting, d_b) == d_b
    # cyclic group of order 5, trivial subgroup: inverse of a is a^4
    c5 = parse_input("group: a\nrel: a^5\nP: 1\norientable: true")
    t5 = enumerate_cosets(c5.presentation, c5.p_generators)
    d_a = dc_id(t5, c5.p_generators, parse_word("a", c5.presentation))
    d_a4 = dc_id(t5, c5.p_generators, parse_word("a a a a", c5.presentation))
    assert dc_invert(t5, c5.p_generators, d_a) == d_a4


def case3_context():
    parsed = parse_input(D8_CASE3)
    return parsed, ClassifierContext.build(parsed)


def test_dc_twist_examples():
    parsed, ctx = case3_context()
    table, acting = ctx.p_plus_table, parsed.p_plus_generators
    d_r = dc_id(table, acting, parse_word("r", parsed.presentation))
    assert dc_twist(table, acting, parsed.n_word, d_r, ctx.report) == d_r
    d_one = dc_id(table, acting, Word())
    assert dc_twist(table, acting, parsed.n_word, d_one, ctx.report) == d_one


def test_dc_twist_empty_n_is_identity():
    parsed = parse_input("group: a\nrel: a^4\nP: a^2\nP+: a^2\nn: 1\n"
                         "orientable: false")
    ctx = ClassifierContext.build(parsed)
    table, acting = ctx.p_plus_table, parsed.p_plus_generators
    for d in dc_all(table, acting):
        assert dc_twist(table, acting, parsed.n_word, d, ctx.report) == d


def test_dc_twist_requires_validation():
    parsed, ctx = case3_context()
    table, acting = ctx.p_plus_table, parsed.p_plus_generators
    d = dc_id(table, acting, Word())
    with pytest.raises(PreconditionUnverified):
        dc_twist(table, acting, parsed.n_word, d, None)
    # a report with unknown twist checks must also be rejected
    from handlecoset.coset_enumeration import EnumerationLimits
    vague = validate(parse_input("group: a b\nP: a\nP+: a\nn: b\n"
                                 "orientable: false"),
                     EnumerationLimits(8, 8))
    with pytest.raises(PreconditionUnverified):
        dc_twist(table, acting, parsed.n_word, d, vague)


def test_table_mismatch():
    parsed, table = setup_s3()
    other = enumerate_cosets(parsed.presentation, parsed.p_generators)
    d = dc_id(table, parsed.p_generators, Word())
    with pytest.raises(TableMismatch):
        dc_invert(other, parsed.p_generators, d)


def test_dc_functions_reject_foreign_acting_words():
    # a table keeps one partition, under the words it was enumerated
    # against; other words, even for the same subgroup, are refused
    parsed, ctx = case3_context()
    table, acting = ctx.p_plus_table, parsed.p_plus_generators
    d = dc_id(table, list(acting), Word())
    for foreign in (parsed.p_generators, (), list(acting) * 2):
        calls = [lambda: dc_id(table, foreign, Word()),
                 lambda: dc_all(table, foreign),
                 lambda: dc_invert(table, foreign, d),
                 lambda: dc_twist(table, foreign, parsed.n_word, d, ctx.report)]
        for call in calls:
            with pytest.raises(ValueError, match="must be the table.s subgroup generators"):
                call()


def test_unordered_pair_is_unordered():
    parsed, table = setup_s3()
    acting = parsed.p_generators
    x = dc_id(table, acting, Word())
    y = dc_id(table, acting, parse_word("b", parsed.presentation))
    assert UnorderedPair(x, y) == UnorderedPair(y, x)
    assert UnorderedPair(x, y).first == x  # sorted by canonical
    nested1 = UnorderedPair(UnorderedPair(y, x), UnorderedPair(x, x))
    nested2 = UnorderedPair(UnorderedPair(x, x), UnorderedPair(x, y))
    assert nested1 == nested2


@pytest.mark.parametrize("twisted, core_oriented, value, slots", [
    (False, True, "D", ["D"]),
    (True, True, ("D", "tD"), ["D", "tD"]),
    (False, False, ("D", "iD"), ["D", "iD"]),
    (True, False, (("D", "tD"), ("iD", "tiD")), ["D", "tD", "iD", "tiD"]),
])
def test_nest_slots_fills_slots_in_order(twisted, core_oriented, value, slots):
    # a slot is named by the maps applied to D: i for inverse, t for
    # twist; the names sort in slot order, so key_pair keeps each pair
    # in slot order
    made = []

    def slot(inverted, of):
        made.append("i" * inverted + "D" if of is None else "t" + of)
        return made[-1]

    assert nest_slots(slot, twisted, core_oriented) == value
    assert made == slots  # each slot made once, in slot order
    assert len(slots) == slot_count(twisted, core_oriented)


def test_invert_matches_word_inversion():
    rng = random.Random(43)
    parsed, table = setup_s3()
    acting = parsed.p_generators
    ngens = len(parsed.presentation.generators)
    for _ in range(100):
        g = free_reduce([(rng.randrange(ngens), rng.choice((1, -1)))
                         for _ in range(rng.randint(0, 6))])
        assert dc_invert(table, acting, dc_id(table, acting, g)) == \
            dc_id(table, acting, invert(g))


def test_twist_matches_conjugation_word():
    rng = random.Random(44)
    parsed, ctx = case3_context()
    table, acting = ctx.p_plus_table, parsed.p_plus_generators
    n = parsed.n_word
    ngens = len(parsed.presentation.generators)
    for _ in range(100):
        g = free_reduce([(rng.randrange(ngens), rng.choice((1, -1)))
                         for _ in range(rng.randint(0, 6))])
        assert dc_twist(table, acting, n, dc_id(table, acting, g), ctx.report) \
            == dc_id(table, acting, concat(n, g, n))


# every case-3 input, and d4-bad-n, whose n = r does not normalize P+ = <s>
TWIST_INPUTS = [(c.label, c.skg) for c in INPUT_CORPUS
                if parse_input(c.skg).n_word is not None]
TWIST_INPUTS += [(label, text) for label, text, _ in BROKEN_INPUTS
                 if label == "d4-bad-n"]


@pytest.mark.parametrize("text", [t for _, t in TWIST_INPUTS],
                         ids=[label for label, _ in TWIST_INPUTS])
def test_twist_images_are_the_classes_of_n_w_n(text):
    # one list over every coset, built once per n, whether or not n
    # normalizes P+
    parsed = parse_input(text)
    table = enumerate_cosets(parsed.presentation, parsed.p_plus_generators)
    n = parsed.n_word
    images = table.twist(n)
    assert images == [0] + [table.labels[table.trace(1, concat(n, table.witness(c), n))]
                            for c in range(1, table.index + 1)]
    assert table.twist(Word(n.letters)) is images


def test_dc_twist_can_move_classes():
    # D6 with P+ = <r^3> central and n = s: conjugation sends r to r^-1,
    # which lies in the coset P+ r^2, so the twist swaps two classes
    parsed = parse_input("group: r s\nrel: r^6\nrel: s^2\nrel: r s r s\n"
                         "P: r^3 , s\nP+: r^3\nn: s\norientable: false")
    ctx = ClassifierContext.build(parsed)
    table, acting = ctx.p_plus_table, parsed.p_plus_generators
    assert table.index == 6
    d_r = dc_id(table, acting, parse_word("r", parsed.presentation))
    d_r2 = dc_id(table, acting, parse_word("r^2", parsed.presentation))
    assert d_r != d_r2
    assert dc_twist(table, acting, parsed.n_word, d_r, ctx.report) == d_r2
    assert dc_twist(table, acting, parsed.n_word, d_r2, ctx.report) == d_r
    moved = sum(1 for d in dc_all(table, acting)
                if dc_twist(table, acting, parsed.n_word, d, ctx.report) != d)
    assert moved == 4


def test_warm_dc_functions_hash_no_word(monkeypatch):
    # S6 with P = <s1, s2, s4>, P+ = <s1, s2> and n = s4: once the
    # partition and the images are filled in, a round of dc_id, dc_invert
    # and dc_twist over every double coset finds the partition and n's
    # twist images without hashing a Word (dc_twist used to hash n)
    parsed = parse_input(coxeter_skg(6, [1, 2, 4], [1, 2], 4))
    ctx = ClassifierContext.build(parsed)
    table, acting, n = ctx.p_plus_table, parsed.p_plus_generators, parsed.n_word

    def round_trip() -> int:
        dcs = dc_all(table, acting)
        for d in dcs:
            assert dc_id(table, acting, d.representative()) == d
            dc_invert(table, acting, d)
            dc_twist(table, acting, n, d, ctx.report)
        return len(dcs)

    round_trip()  # warm
    hashes = 0
    word_hash = Word.__hash__

    def counting_hash(self):
        nonlocal hashes
        hashes += 1
        return word_hash(self)

    monkeypatch.setattr(Word, "__hash__", counting_hash)
    assert round_trip() == 34
    assert hashes == 0


def test_dc_orbits_can_have_size_two():
    # D6 with non-central P+ = <s>: P+ r P+ covers two cosets
    parsed = parse_input("group: r s\nrel: r^6\nrel: s^2\nrel: r s r s\n"
                         "P: s , r^3\nP+: s\nn: r^3 s\norientable: false")
    ctx = ClassifierContext.build(parsed)
    table, acting = ctx.p_plus_table, parsed.p_plus_generators
    assert table.index == 6
    sizes = sorted(o.orbit_size for o in dc_all(table, acting))
    assert sizes == [1, 1, 2, 2]


def _oracle_tables():
    """(label, presentation, subgroup words) over every GROUP_CORPUS
    subgroup and the Coxeter presentations of S5 and S6 with several P."""
    for case in GROUP_CORPUS:
        pres = parse_input(case.skg).presentation
        for words_text in case.subgroups:
            yield case.name, pres, [parse_word(t, pres) for t in words_text]
    for n in (5, 6):
        for p in ([1], [2], [1, 3], [2, 3], [1, 2, 4]):
            parsed = parse_input(coxeter_skg(n, p))
            yield f"s{n}-{p}", parsed.presentation, list(parsed.p_generators)


# the twist identity dc_twist(D) = class of n w n (w the witness of D)
# holds for every word n, so the walk is exercised with n that need not
# normalize the subgroup, under a report whose twist checks are marked passed
TWIST_REPORT = ValidationReport(tuple(
    ValidationCheck(name, "pass", "")
    for name in ("twist_normalizes_p_plus", "n_squared_in_p_plus")))


def test_label_arrays_match_orbit_search():
    for label, pres, words in _oracle_tables():
        table = enumerate_cosets(pres, words)
        dcs = dc_all(table, words)
        reference = orbit_partition(table, words)
        assert [d.orbit for d in dcs] == reference, label
        assert [(d.canonical, d.orbit_size) for d in dcs] == \
            [(o[0], len(o)) for o in reference], label
        for orbit in reference:
            for c in orbit:
                assert dc_id(table, words, table.witness(c)).canonical == orbit[0]
        ngens = len(pres.generators)
        twisters = [Word(((i, 1),)) for i in range(ngens)] + \
            [free_reduce([(ngens - 1, -1), (0, -1), (0, -1)])]
        for d in dcs:
            w = d.representative()
            assert dc_invert(table, words, d) == dc_id(table, words, invert(w)), label
            for n in twisters:
                assert dc_twist(table, words, n, d, TWIST_REPORT) == \
                    dc_id(table, words, concat(n, w, n)), (label, n)


def test_ids_compare_by_table_and_canonical():
    for label, pres, words in _oracle_tables():
        table = enumerate_cosets(pres, words)
        other = enumerate_cosets(pres, words)
        dcs = dc_all(table, words)
        again = [dc_id(table, words, d.representative()) for d in dcs]
        for d, e in zip(dcs, again):
            assert d == e and hash(d) == hash(e) and d is not e
        for d in dcs:
            for e in dcs:
                assert (d == e) == (d.canonical == e.canonical), label
                if d == e:
                    assert hash(d) == hash(e)
        assert len(set(dcs) | set(again)) == len(dcs)
        # equal tables, equal canonical indices, still different ids
        for d, e in zip(dcs, dc_all(other, words)):
            assert d.canonical == e.canonical and d != e, label
        assert dcs[0] != dcs[0].canonical
