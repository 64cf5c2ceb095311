import copy
import hashlib
import itertools
import pickle
import random
import re

import pytest

from brute import (AFFINE_DEGREES, CERTIFICATE_DEGREES, INPUT_CORPUS, coxeter_skg,
                   two_bridge_skg)
from handlecoset import handle_classifier
from handlecoset.coset_enumeration import (CosetTable, EnumerationLimits,
                                           enumerate_cosets)
from handlecoset.double_cosets import (DoubleCosetId, UnorderedPair,
                                       dc_id, dc_invert, dc_twist, key_leaves,
                                       slot_count)
from handlecoset.errors import (CaseMismatch, InfiniteIndex, MissingPPlus,
                                PreconditionUnverified, ResourceExhausted,
                                TableMismatch)
from handlecoset.finite_quotient import quotient_separate
from handlecoset.handle_classifier import (CaseLabel, ClassifierContext,
                                           HandleInvariant, ValidationCheck,
                                           ValidationReport, candidate_invariant,
                                           class_listing,
                                           enumerate_classes, equivalent,
                                           handle_invariant,
                                           image_member,
                                           local_oriented_cord_invariant,
                                           nonsurjectivity_witness,
                                           oriented_cord_invariant)
from handlecoset.knot_input import case_words, parse_input, parse_word
from handlecoset.word_algebra import Word, free_reduce, invert

UNKNOTTED = "group: t\nP: t\norientable: true"
T2 = "group: t\nP: t^2\norientable: true"
S3 = "group: a b\nrel: a^2\nrel: b^3\nrel: a b a b\nP: a\norientable: true"
D8_CASE3 = ("group: r s\nrel: r^4\nrel: s^2\nrel: r s r s\n"
            "P: r^2 , s\nP+: r^2\nn: s\norientable: false")
C4_CASE3 = "group: a\nrel: a^4\nP: a^2\nP+: a^2\nn: 1\norientable: false"


def ctx_of(text):
    parsed = parse_input(text)
    return parsed, ClassifierContext.build(parsed)


def test_oriented_cord_invariant_unknotted():
    parsed, ctx = ctx_of(UNKNOTTED)
    values = {oriented_cord_invariant(ctx, parse_word(t, parsed.presentation))
              for t in ("1", "t", "t^7", "t^-2")}
    assert len(values) == 1


def test_oriented_cord_invariant_s3():
    parsed, ctx = ctx_of(S3)
    b = parse_word("b", parsed.presentation)
    aba = parse_word("a b a", parsed.presentation)
    assert oriented_cord_invariant(ctx, b) == oriented_cord_invariant(ctx, aba)
    assert oriented_cord_invariant(ctx, Word()) != oriented_cord_invariant(ctx, b)


def test_local_oriented_cord_invariant_dihedral():
    parsed, ctx = ctx_of(D8_CASE3)
    r = parse_word("r", parsed.presentation)
    r3 = parse_word("r^3", parsed.presentation)
    s = parse_word("s", parsed.presentation)
    # brute force gives P+ r P+ = {r, r^3}, so r and r^3 agree
    assert local_oriented_cord_invariant(ctx, r) == \
        local_oriented_cord_invariant(ctx, r3)
    assert local_oriented_cord_invariant(ctx, r) != \
        local_oriented_cord_invariant(ctx, s)
    assert local_oriented_cord_invariant(ctx, Word()).canonical == 1


def test_local_oriented_cord_invariant_needs_p_plus():
    parsed, ctx = ctx_of(UNKNOTTED)
    with pytest.raises(MissingPPlus):
        local_oriented_cord_invariant(ctx, Word())


def test_handle_invariant_unknotted_single_pair():
    parsed, ctx = ctx_of(UNKNOTTED)
    values = {handle_invariant(ctx, CaseLabel.CASE1, False,
                               parse_word(t, parsed.presentation))
              for t in ("1", "t", "t^-4")}
    assert len(values) == 1


def test_handle_invariant_s3_reversal_pair():
    parsed, ctx = ctx_of(S3)
    b = parse_word("b", parsed.presentation)
    inv = handle_invariant(ctx, CaseLabel.CASE1, False, b)
    assert inv.value.first == inv.value.second  # b^-1 lands in the same class
    assert inv.kind == "unordered-core"


def test_handle_invariant_case3_oriented_dihedral():
    parsed, ctx = ctx_of(D8_CASE3)
    r = parse_word("r", parsed.presentation)
    inv = handle_invariant(ctx, CaseLabel.CASE3, True, r)
    d_r = local_oriented_cord_invariant(ctx, r)
    assert inv.value == UnorderedPair(d_r, d_r)
    assert inv.kind == "case3-oriented-core"


def test_case2_same_computation_as_case1():
    parsed, ctx = ctx_of(S3)
    rng = random.Random(5)
    for _ in range(25):
        g = free_reduce([(rng.randrange(2), rng.choice((1, -1)))
                         for _ in range(rng.randint(0, 6))])
        for core in (True, False):
            one = handle_invariant(ctx, CaseLabel.CASE1, core, g)
            two = handle_invariant(ctx, CaseLabel.CASE2, core, g)
            assert one.value == two.value
            assert one == two  # shared kinds: only the echoed label differs
            assert two.case is CaseLabel.CASE2


def test_equivalent_examples():
    parsed, ctx = ctx_of(S3)
    b = parse_word("b", parsed.presentation)
    assert equivalent(ctx, CaseLabel.CASE1, True, b, b)
    assert equivalent(ctx, CaseLabel.CASE1, False, b, invert(b))
    assert not equivalent(ctx, CaseLabel.CASE1, True, b, Word())


def test_image_member_case1():
    parsed, ctx = ctx_of(S3)
    b = parse_word("b", parsed.presentation)
    built = handle_invariant(ctx, CaseLabel.CASE1, False, b)
    assert image_member(ctx, CaseLabel.CASE1, False, built)
    assert image_member(ctx, CaseLabel.CASE1, True,
                        handle_invariant(ctx, CaseLabel.CASE1, True, b))


def test_image_member_rejects_t2_candidate():
    parsed, ctx = ctx_of(T2)
    acting = parsed.p_generators
    d_t = dc_id(ctx.p_table, acting, parse_word("t", parsed.presentation))
    d_1 = dc_id(ctx.p_table, acting, Word())
    candidate = HandleInvariant(CaseLabel.CASE1, False, UnorderedPair(d_t, d_1))
    assert not image_member(ctx, CaseLabel.CASE1, False, candidate)


def test_image_member_rejects_dihedral_case3_candidate():
    parsed, ctx = ctx_of(D8_CASE3)
    acting = parsed.p_plus_generators
    d_s = dc_id(ctx.p_plus_table, acting, parse_word("s", parsed.presentation))
    d_1 = dc_id(ctx.p_plus_table, acting, Word())
    candidate = HandleInvariant(CaseLabel.CASE3, True, UnorderedPair(d_s, d_1))
    assert not image_member(ctx, CaseLabel.CASE3, True, candidate)


def test_candidate_slots_follow_nest_slots():
    # the words D, n D n, D^-1, n D^-1 n fill the four Case-3 slots
    parsed, ctx = ctx_of(D8_CASE3)
    words = [parse_word(t, parsed.presentation)
             for t in ("r", "s r s", "r^-1", "s r^-1 s")]
    built = candidate_invariant(ctx, CaseLabel.CASE3, False, words)
    assert built == handle_invariant(ctx, CaseLabel.CASE3, False, words[0])
    assert image_member(ctx, CaseLabel.CASE3, False, built)
    with pytest.raises(ValueError, match="has 4 slots, not 3"):
        candidate_invariant(ctx, CaseLabel.CASE3, False, words[:3])


def test_one_partition_per_table(monkeypatch):
    # cases 1 and 2 work over the P table's one set of labels, which
    # dc_id and oriented_cord_invariant read too
    built = []
    labels = CosetTable.labels.func

    def counting_labels(table):
        built.append(table)
        return labels(table)

    monkeypatch.setattr(CosetTable.labels, "func", counting_labels)
    parsed, ctx = ctx_of(S3)
    b = parse_word("b", parsed.presentation)
    for case in (CaseLabel.CASE1, CaseLabel.CASE2):
        for core in (True, False):
            handle_invariant(ctx, case, core, b)
            equivalent(ctx, case, core, b, Word())
            enumerate_classes(ctx, case, core)
    dc_id(ctx.p_table, parsed.p_generators, b)
    oriented_cord_invariant(ctx, b)
    assert built == [ctx.p_table]


def test_image_member_tag_and_table_checks():
    parsed, ctx = ctx_of(S3)
    b = parse_word("b", parsed.presentation)
    built = handle_invariant(ctx, CaseLabel.CASE1, False, b)
    with pytest.raises(CaseMismatch):
        image_member(ctx, CaseLabel.CASE1, True, built)
    other = ClassifierContext.build(parsed)
    with pytest.raises(TableMismatch):
        image_member(other, CaseLabel.CASE1, False, built)


def test_handle_invariant_rejects_a_value_of_the_wrong_shape():
    parsed, ctx = ctx_of(S3)
    b = parse_word("b", parsed.presentation)
    d = dc_id(ctx.p_table, parsed.p_generators, b)
    with pytest.raises(ValueError):
        HandleInvariant(CaseLabel.CASE1, True, UnorderedPair(d, d))
    with pytest.raises(ValueError):
        HandleInvariant(CaseLabel.CASE1, False, d)


def test_handle_invariant_checks_the_case3_shapes():
    parsed, ctx = ctx_of(D8_CASE3)
    d = dc_id(ctx.p_plus_table, parsed.p_plus_generators, Word())
    with pytest.raises(ValueError):
        HandleInvariant(CaseLabel.CASE3, True, d)
    with pytest.raises(ValueError):
        HandleInvariant(CaseLabel.CASE3, False, UnorderedPair(d, d))
    assert HandleInvariant(CaseLabel.CASE3, False, UnorderedPair(
        UnorderedPair(d, d), UnorderedPair(d, d))).double_cosets() == (d,) * 4


def test_a_pair_of_two_shapes_is_a_value_error():
    # over the D8 P+ table: a double coset beside a pair, at any depth
    parsed, ctx = ctx_of(D8_CASE3)
    d = dc_id(ctx.p_plus_table, parsed.p_plus_generators, Word())
    pair = UnorderedPair(d, d)
    with pytest.raises(ValueError, match=r"differ in shape: D and \{D, D\}$"):
        UnorderedPair(d, pair)
    with pytest.raises(ValueError, match=r"differ in shape: \{D, D\} and D$"):
        HandleInvariant(CaseLabel.CASE3, False, UnorderedPair(pair, d))
    with pytest.raises(ValueError, match=r"\{D, D\} and \{\{D, D\}, \{D, D\}\}$"):
        HandleInvariant(CaseLabel.CASE3, False,
                        UnorderedPair(pair, UnorderedPair(pair, pair)))


@pytest.mark.parametrize("status", ["fail", "unknown"])
@pytest.mark.parametrize("check", ["twist_normalizes_p_plus", "n_squared_in_p_plus"])
def test_every_case3_query_checks_the_twist(check, status):
    parsed, ctx = ctx_of(D8_CASE3)
    r = parse_word("r", parsed.presentation)
    candidate = handle_invariant(ctx, CaseLabel.CASE3, False, r)
    checks = tuple(ValidationCheck(c.name, status, c.detail) if c.name == check else c
                   for c in ctx.report.checks)
    bad = ClassifierContext(ctx.input, ctx.p_table, ctx.p_plus_table,
                            ValidationReport(checks))
    assert not bad.report.twist_verified
    queries = [lambda: handle_invariant(bad, CaseLabel.CASE3, True, r),
               lambda: equivalent(bad, CaseLabel.CASE3, False, r, Word()),
               lambda: image_member(bad, CaseLabel.CASE3, False, candidate),
               lambda: enumerate_classes(bad, CaseLabel.CASE3, True),
               lambda: nonsurjectivity_witness(bad, CaseLabel.CASE3, False)]
    for query in queries * 2:  # the second round finds the case resolved
        with pytest.raises(PreconditionUnverified):
            query()
    assert "_case" not in vars(bad)  # so no list of value keys either
    d = candidate.double_cosets()[0]
    with pytest.raises(PreconditionUnverified):
        dc_twist(ctx.p_plus_table, parsed.p_plus_generators, parsed.n_word, d, None)


def test_every_case3_query_needs_the_p_plus_table():
    # the public constructor takes p_plus_table=None on a non-orientable
    # input, whose report passes; every Case-3 query then raises
    # MissingPPlus
    parsed, ctx = ctx_of(D8_CASE3)
    r = parse_word("r", parsed.presentation)
    candidate = handle_invariant(ctx, CaseLabel.CASE3, False, r)
    bare = ClassifierContext(ctx.input, ctx.p_table, None, ctx.report)
    queries = [lambda core: handle_invariant(bare, CaseLabel.CASE3, core, r),
               lambda core: equivalent(bare, CaseLabel.CASE3, core, r, Word()),
               lambda core: image_member(bare, CaseLabel.CASE3, core, candidate),
               lambda core: enumerate_classes(bare, CaseLabel.CASE3, core),
               lambda core: class_listing(bare, CaseLabel.CASE3, core),
               lambda core: candidate_invariant(bare, CaseLabel.CASE3, core, [r] * 4),
               lambda core: nonsurjectivity_witness(bare, CaseLabel.CASE3, core),
               lambda core: local_oriented_cord_invariant(bare, r)]
    for query in queries * 2:  # a refused case is not cached
        for core in (True, False):
            with pytest.raises(MissingPPlus, match="no P\\+ table"):
                query(core)
    assert "_case" not in vars(bare)


@pytest.mark.parametrize("check", ["twist_normalizes_p_plus", "n_squared_in_p_plus"])
def test_a_refused_twist_builds_no_twist_list(monkeypatch, check):
    # the report is checked before the O(index) twist list is built, and
    # a refused case is not cached, so neither round builds one
    parsed, ctx = ctx_of(D8_CASE3)
    r = parse_word("r", parsed.presentation)
    checks = tuple(ValidationCheck(c.name, "fail", c.detail) if c.name == check else c
                   for c in ctx.report.checks)
    bad = ClassifierContext(ctx.input, ctx.p_table, ctx.p_plus_table,
                            ValidationReport(checks))
    built = []
    twist = CosetTable.twist

    def counting_twist(table, n):
        built.append(n)
        return twist(table, n)

    monkeypatch.setattr(CosetTable, "twist", counting_twist)
    for _ in range(2):
        for core in (True, False):
            with pytest.raises(PreconditionUnverified):
                handle_invariant(bad, CaseLabel.CASE3, core, r)
            with pytest.raises(PreconditionUnverified):
                enumerate_classes(bad, CaseLabel.CASE3, core)
    assert built == []


def test_a_verified_twist_builds_one_twist_list(monkeypatch):
    # the table keeps no twist list, so the context's case is what keeps
    # every query on it to one O(index) build
    parsed, ctx = ctx_of(D8_CASE3)
    r = parse_word("r", parsed.presentation)
    built = []
    twist = CosetTable.twist

    def counting_twist(table, n):
        built.append(n)
        return twist(table, n)

    monkeypatch.setattr(CosetTable, "twist", counting_twist)
    for _ in range(2):
        for core in (True, False):
            value = handle_invariant(ctx, CaseLabel.CASE3, core, r)
            assert equivalent(ctx, CaseLabel.CASE3, core, r, r)
            assert image_member(ctx, CaseLabel.CASE3, core, value)
            enumerate_classes(ctx, CaseLabel.CASE3, core)
            class_listing(ctx, CaseLabel.CASE3, core)
            candidate_invariant(ctx, CaseLabel.CASE3, core,
                                [r] * slot_count(True, core))
            nonsurjectivity_witness(ctx, CaseLabel.CASE3, core)
    assert built == [parsed.n_word]


@pytest.mark.parametrize("text, case", [
    (coxeter_skg(5, [1, 2]), CaseLabel.CASE1),
    (coxeter_skg(5, [1, 2, 4], [1, 2], 4), CaseLabel.CASE3),
], ids=["case1", "case3"])
def test_warm_queries_hash_at_most_one_word_each(monkeypatch, text, case):
    # a query resolves its case on the context once; after that neither
    # the acting words nor n are hashed to find the partition or the twist
    parsed, ctx = ctx_of(text)
    assert len(case_words(parsed, case)[0]) >= 2
    rng = random.Random(5)
    words = [free_reduce([(rng.randrange(4), rng.choice((1, -1)))
                          for _ in range(rng.randint(0, 12))]) for _ in range(8)]

    def queries() -> int:
        count = 0
        for core in (True, False):
            for g, h in zip(words, words[1:]):
                inv = handle_invariant(ctx, case, core, g)
                equivalent(ctx, case, core, g, h)
                image_member(ctx, case, core, inv)
                count += 3
        return count

    queries()  # warm: partitions, inverse and twist images
    hashes = 0
    word_hash = Word.__hash__

    def counting_hash(self):
        nonlocal hashes
        hashes += 1
        return word_hash(self)

    monkeypatch.setattr(Word, "__hash__", counting_hash)
    count = queries()
    assert hashes <= count, f"{hashes} Word hashes in {count} queries"


def test_enumerate_classes_counts():
    parsed, ctx = ctx_of(UNKNOTTED)
    assert len(enumerate_classes(ctx, CaseLabel.CASE1, True)) == 1
    parsed, ctx = ctx_of(S3)
    assert len(enumerate_classes(ctx, CaseLabel.CASE1, True)) == 2
    assert len(enumerate_classes(ctx, CaseLabel.CASE1, False)) == 2
    parsed, ctx = ctx_of(D8_CASE3)
    oriented = enumerate_classes(ctx, CaseLabel.CASE3, True)
    assert len(oriented) == 4
    for inv, _rep in oriented:
        assert inv.value.first == inv.value.second  # twist fixes every class


def test_enumerate_classes_representatives_reproduce_values():
    for text in (S3, D8_CASE3, C4_CASE3, T2):
        parsed, ctx = ctx_of(text)
        for label, core in itertools.product(parsed.cases, (True, False)):
            for inv, rep in enumerate_classes(ctx, label, core):
                assert handle_invariant(ctx, label, core, rep) == inv
                # the CLI prints this witness as the class representative
                assert rep == inv.double_cosets()[0].representative()


def test_nonsurjectivity_witnesses():
    parsed, ctx = ctx_of(UNKNOTTED)
    assert nonsurjectivity_witness(ctx, CaseLabel.CASE1, False) is None
    assert nonsurjectivity_witness(ctx, CaseLabel.CASE1, True) is None
    parsed, ctx = ctx_of(T2)
    witness = nonsurjectivity_witness(ctx, CaseLabel.CASE1, False)
    assert witness is not None
    assert not image_member(ctx, CaseLabel.CASE1, False, witness)
    parsed, ctx = ctx_of(D8_CASE3)
    for core in (True, False):
        witness = nonsurjectivity_witness(ctx, CaseLabel.CASE3, core)
        assert witness is not None
        assert not image_member(ctx, CaseLabel.CASE3, core, witness)
    # P+ = P != G: the degenerate-twist branch
    parsed, ctx = ctx_of(C4_CASE3)
    witness = nonsurjectivity_witness(ctx, CaseLabel.CASE3, True)
    assert witness is not None
    assert not image_member(ctx, CaseLabel.CASE3, True, witness)
    # P+ = G: the single value is hit, so there is no witness
    parsed, ctx = ctx_of("group: t\nrel: t^3\nP: t\nP+: t\nn: 1\norientable: false")
    for core in (True, False):
        assert nonsurjectivity_witness(ctx, CaseLabel.CASE3, core) is None


def test_context_build_rejects_invalid_input():
    bad = parse_input("group: r s\nrel: r^4\nrel: s^2\nrel: r s r s\n"
                      "P: r^2\nP+: s\nn: r\norientable: false")
    with pytest.raises(PreconditionUnverified):
        ClassifierContext.build(bad)


def test_build_proves_infinite_index_before_any_enumeration():
    # the S_d walk runs before any enumeration; on the trefoil a transitive
    # image of degree 3 proves that P has infinite index, so no coset is
    # defined and the message ends at the ranks
    parsed = parse_input(two_bridge_skg(3, 1))
    with pytest.raises(InfiniteIndex) as info:
        ClassifierContext.build(parsed, EnumerationLimits(2000, 20000))
    exc = info.value
    assert isinstance(exc, ResourceExhausted)
    assert (exc.limits, exc.live_cosets, exc.total_defined) == (None, 0, 0)
    assert (exc.subgroup, exc.degree, exc.h_rank, exc.p_rank) == ("P", 3, 2, 1)
    assert not hasattr(exc, "dihedral")
    assert str(exc) == ("P has infinite index: in a transitive permutation "
                        "image of degree 3, the point stabilizer H has H^ab of "
                        "rank 2 over Q and the intersection of P with H spans "
                        "rank 1")


FREE2 = "group: a b\nP: a\norientable: true"
S5_TRIVIAL = coxeter_skg(5, [1]).replace("P: s1", "P: 1")


def _count_enumerations(monkeypatch) -> list:
    """The limits of every enumeration subgroup_table runs from now on."""
    calls = []

    def counted(pres, words, budget):
        calls.append(budget)
        return enumerate_cosets(pres, words, budget)

    monkeypatch.setattr(handle_classifier, "enumerate_cosets", counted)
    return calls


@pytest.mark.parametrize("text, limits, enumerations, outcome", [
    (two_bridge_skg(3, 1), None, 0, "S_d"),
    (FREE2, None, 0, "S_d"),
    (two_bridge_skg(7, 1), None, 0, "affine"),
    (two_bridge_skg(17, 1), None, 1, "exhausted"),
    (coxeter_skg(5, [1]), None, 1, 60),
    (S5_TRIVIAL, EnumerationLimits(400, 4000), 1, 120),
], ids=["trefoil", "free2", "b(7,1)", "b(17,1)", "S5", "S5-trivial-P"])
def test_subgroup_table_runs_the_cheapest_step_first(monkeypatch, text, limits,
                                                     enumerations, outcome):
    # the S_d walk, then the affine walk, then one enumeration under the
    # full limits: count the enumerations each input reaches, without a
    # timer; an integer outcome is the index of the table that comes back
    calls = _count_enumerations(monkeypatch)
    parsed = parse_input(text)
    limits = limits or EnumerationLimits(2000, 20000)
    if isinstance(outcome, int):
        assert handle_classifier.subgroup_table(parsed, "P", limits).index == outcome
    else:
        with pytest.raises(ResourceExhausted) as info:
            handle_classifier.subgroup_table(parsed, "P", limits)
        exc = info.value
        if outcome == "exhausted":
            assert type(exc) is ResourceExhausted and exc.limits == limits
        else:
            assert isinstance(exc, InfiniteIndex)
            assert (exc.degree in AFFINE_DEGREES) == (outcome == "affine")
            assert (exc.degree in CERTIFICATE_DEGREES) == (outcome == "S_d")
            assert exc.limits is None
    assert calls == [limits] * enumerations


def test_build_without_a_certificate_runs_the_full_budget():
    # b(17, 1) = T(2, 17) has no certificate in S_2..S_5 nor among the
    # affine images at m = 7, 11, 13 (its first one is the dihedral image
    # at m = 17), so the build runs out of the full budget and says no
    # more than that
    parsed = parse_input(two_bridge_skg(17, 1))
    limits = EnumerationLimits(2000, 20000)
    with pytest.raises(ResourceExhausted) as info:
        ClassifierContext.build(parsed, limits)
    assert type(info.value) is ResourceExhausted
    assert info.value.limits == limits


@pytest.mark.parametrize("text, subgroup, degree, h_rank", [
    # on the trefoil P = <a, b a b^-1> has finite index, but P+ = <a> has
    # not: P+ gets the same certificate walk as P, before any enumeration
    ("group: a b\nrel: a b a b^-1 a^-1 b^-1\nP: a , b a b^-1\nP+: a\n"
     "n: b a b^-1\norientable: false", "P+", 3, 2),
    # b(7, 1) = T(2, 7) has no certificate in S_2..S_5; its 7-colourings
    # map it onto the dihedral group D_7, its affine image with s = -1
    (two_bridge_skg(7, 1), "P", 7, 4),
], ids=["trefoil-p-plus", "b(7,1)"])
def test_infinite_index_names_the_subgroup_and_the_image(text, subgroup, degree, h_rank):
    with pytest.raises(InfiniteIndex) as info:
        ClassifierContext.build(parse_input(text), EnumerationLimits(2000, 20000))
    exc = info.value
    assert (exc.subgroup, exc.degree, exc.h_rank, exc.p_rank) == (subgroup, degree, h_rank, 1)
    assert not hasattr(exc, "dihedral")
    # either walk certifies before any enumeration, so no limits are quoted
    assert (exc.limits, exc.live_cosets, exc.total_defined) == (None, 0, 0)
    # one wording for both walks
    assert str(exc).startswith(f"{subgroup} has infinite index: in a transitive "
                               f"permutation image of degree {degree},")
    assert str(exc).endswith(f"{subgroup} with H spans rank 1")


def test_build_without_a_certificate_enumerates_once(monkeypatch):
    # S5 with trivial P needs 139 live cosets: no finite image certifies
    # anything, so the build runs one enumeration under the full limits,
    # and its table is the one enumerate_cosets gives under them
    calls = _count_enumerations(monkeypatch)
    parsed = parse_input(S5_TRIVIAL)
    limits = EnumerationLimits(400, 4000)
    ctx = ClassifierContext.build(parsed, limits)
    assert calls == [limits]
    table = enumerate_cosets(parsed.presentation, (), limits)
    assert ctx.p_table.index == table.index == 120
    assert ctx.p_table.total_defined == table.total_defined
    assert ctx.p_table._action == table._action


# -- invariants as keys, ids only for display --------------------------------

def _corpus_invariants():
    """(context, case, core_oriented, cord, invariant) over every
    INPUT_CORPUS input, case and orientation: the representative of each
    class, then six seeded cords."""
    for k, item in enumerate(INPUT_CORPUS):
        parsed, ctx = ctx_of(item.skg)
        rng = random.Random(k)
        ngens = len(parsed.presentation.generators)
        for case in parsed.cases:
            for core in (True, False):
                words = [rep for _inv, rep in enumerate_classes(ctx, case, core)]
                words += [free_reduce([(rng.randrange(ngens), rng.choice((1, -1)))
                                       for _ in range(rng.randint(0, 8))])
                          for _ in range(6)]
                for g in words:
                    yield ctx, case, core, g, handle_invariant(ctx, case, core, g)


def _object_value(ctx, case, core_oriented, g):
    """g's value as ids and pairs, built from dc_id, dc_invert and dc_twist."""
    acting, n = case_words(ctx.input, case)
    table = ctx.p_table if n is None else ctx.p_plus_table

    def oriented(d):
        return d if n is None else UnorderedPair(d, dc_twist(table, acting, n, d, ctx.report))

    d = dc_id(table, acting, g)
    if core_oriented:
        return oriented(d)
    return UnorderedPair(oriented(d), oriented(dc_invert(table, acting, d)))


# sha256 of the reprs _corpus_invariants yields, one a line, and two of
# them, as the values built of ids printed them
CORPUS_REPRS_SHA256 = "296c541abe6ff574ea3856d2be3f4b4bb41092b33e3f652bff994eef977c7972"
PINNED_REPRS = {
    ("s3-synthetic", CaseLabel.CASE1, False, "b"):
        "HandleInvariant(case=<CaseLabel.CASE1: 1>, core_oriented=False, value="
        "{DoubleCosetId(canonical=2, orbit_size=2), DoubleCosetId(canonical=2, "
        "orbit_size=2)})",
    ("d6-split-case3", CaseLabel.CASE3, False, "r"):
        "HandleInvariant(case=<CaseLabel.CASE3: 3>, core_oriented=False, value="
        "{{DoubleCosetId(canonical=2, orbit_size=1), DoubleCosetId(canonical=3, "
        "orbit_size=1)}, {DoubleCosetId(canonical=2, orbit_size=1), "
        "DoubleCosetId(canonical=3, orbit_size=1)}})",
}


def test_the_view_is_the_value_ids_built():
    reprs = []
    for ctx, case, core, g, inv in _corpus_invariants():
        assert inv.value == _object_value(ctx, case, core, g)
        rebuilt = HandleInvariant(case, core, inv.value)
        assert rebuilt == inv and hash(rebuilt) == hash(inv)
        assert image_member(ctx, case, core, inv)
        text = repr(inv)
        for twin in (pickle.loads(pickle.dumps(inv)), copy.deepcopy(inv)):
            assert repr(twin) == text
        reprs.append(text)
    assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == CORPUS_REPRS_SHA256
    for (label, case, core, cord), text in PINNED_REPRS.items():
        item = next(item for item in INPUT_CORPUS if item.label == label)
        parsed, ctx = ctx_of(item.skg)
        g = parse_word(cord, parsed.presentation)
        assert repr(handle_invariant(ctx, case, core, g)) == text


@pytest.mark.parametrize("text", [S3, D8_CASE3], ids=["s3", "d8"])
def test_queries_build_no_ids(monkeypatch, text):
    # the queries work on keys; an id or a pair is built only when a
    # value is shown, so a query that builds one has lost its speed
    parsed, ctx = ctx_of(text)
    built = []

    def counting(init):
        def counted(self, *args):
            built.append(type(self).__name__)
            init(self, *args)
        return counted

    for cls in (DoubleCosetId, UnorderedPair):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    rng = random.Random(3)
    words = [free_reduce([(rng.randrange(2), rng.choice((1, -1)))
                          for _ in range(rng.randint(0, 8))]) for _ in range(8)]
    for case in parsed.cases:
        for core in (True, False):
            slots = slot_count(case is CaseLabel.CASE3, core)
            for g, h in zip(words, words[1:]):
                inv = handle_invariant(ctx, case, core, g)
                equivalent(ctx, case, core, g, h)
                assert image_member(ctx, case, core, inv)
                candidate = candidate_invariant(ctx, case, core, [g, h][:slots] * (slots // 2 or 1))
                image_member(ctx, case, core, candidate)
            enumerate_classes(ctx, case, core)
    assert built == []
    repr(inv)  # the display view is built of ids, which are counted
    assert "DoubleCosetId" in built


def test_a_value_over_two_tables_is_a_table_mismatch():
    for text, case, acting in ((S3, CaseLabel.CASE1, "p_generators"),
                               (D8_CASE3, CaseLabel.CASE3, "p_plus_generators")):
        parsed, ctx = ctx_of(text)
        other = ClassifierContext.build(parsed)
        table, other_table = ((c.p_plus_table if case is CaseLabel.CASE3 else c.p_table)
                              for c in (ctx, other))
        words = getattr(parsed, acting)
        mine = dc_id(table, words, Word())
        theirs = dc_id(other_table, words, Word())
        pair = UnorderedPair(mine, theirs)
        if case is CaseLabel.CASE3:  # the stray id sits one pair deep
            pair = UnorderedPair(UnorderedPair(mine, mine), pair)
        with pytest.raises(TableMismatch, match="different tables"):
            HandleInvariant(case, False, pair)
        assert HandleInvariant(case, True, UnorderedPair(mine, mine) if case is
                               CaseLabel.CASE3 else mine).table is table


# -- value keys, built once per double coset ----------------------------------

KEY_INPUTS = ([(c.label, c.skg) for c in INPUT_CORPUS]
              + [("s6-coxeter-case3", coxeter_skg(6, [1, 3], [1], 3))])


@pytest.mark.parametrize("text", [text for _, text in KEY_INPUTS],
                         ids=[label for label, _ in KEY_INPUTS])
def test_stored_keys_are_the_values_of_a_fresh_context(text):
    # a query stores the key of its double coset's value under the
    # canonical coset, one list per orientation, and nothing under a
    # coset that is not canonical
    parsed, ctx = ctx_of(text)
    for case in parsed.cases:
        for core in (True, False):
            table = ctx._case.table
            canonical = table.orbit_sizes
            for c in canonical:
                inv = handle_invariant(ctx, case, core, table.witness(c))
                assert inv.key is ctx._case.keys[not core][c]
            enumerate_classes(ctx, case, core)
            keys = ctx._case.keys[not core]
            assert len(keys) == table.index + 1
            fresh = ClassifierContext.build(parsed)._case
            for c in range(table.index + 1):
                if c in canonical:
                    assert keys[c] == handle_classifier._value(fresh, core, c), (case, core, c)
                    # one key object serves every double coset of its value
                    assert all(keys[d] is keys[c] for d in key_leaves(keys[c]))
                else:
                    assert keys[c] is None, (case, core, c)


@pytest.mark.parametrize("text", [S3, D8_CASE3, coxeter_skg(5, [1, 2, 4], [1, 2], 4)],
                         ids=["s3", "d8", "s5-case3"])
def test_a_second_pass_builds_no_value(monkeypatch, text):
    # a value is built once per double coset and orientation; a query
    # that meets it again reads its key back and calls nest_slots no more
    parsed, ctx = ctx_of(text)
    ngens = len(parsed.presentation.generators)
    rng = random.Random(30)
    words = [free_reduce([(rng.randrange(ngens), rng.choice((1, -1)))
                          for _ in range(rng.randint(0, 10))]) for _ in range(10)]
    cases = parsed.cases
    witnesses = [nonsurjectivity_witness(ctx, case, core)
                 for case in cases for core in (True, False)]
    calls = []
    nest = handle_classifier.nest_slots

    def counting(*args):
        calls.append(args)
        return nest(*args)

    def queries():
        out = []
        for case in cases:
            for core in (True, False):
                for g, h in zip(words, words[1:]):
                    inv = handle_invariant(ctx, case, core, g)
                    out += [inv, equivalent(ctx, case, core, g, h),
                            image_member(ctx, case, core, inv)]
                for witness in witnesses:
                    if witness is not None and witness.kind == inv.kind:
                        out.append(image_member(ctx, case, core, witness))
        return out

    monkeypatch.setattr(handle_classifier, "nest_slots", counting)
    first = queries()
    assert calls and False in first  # values were built, a witness refused
    calls.clear()
    assert queries() == first
    assert calls == []


def test_a_value_names_canonical_cosets_only():
    # S3 over <a> has the double cosets {1} and {2, 3}; coset 3, -1 or 9
    # names no double coset, so it makes no id, and no value
    parsed, ctx = ctx_of(S3)
    table = ctx.p_table
    assert dict(table.orbit_sizes) == {1: 1, 2: 2}
    for c in (3, -1, 9):
        with pytest.raises(ValueError, match="not canonical"):
            DoubleCosetId(table, c)


def test_a_candidate_stores_only_keys_of_canonical_integers():
    # True == 1 is no coset, and DoubleCosetId refuses it; image_member
    # reads the coset off the labels, so the key stored for coset 1 is
    # the integer 1
    parsed, ctx = ctx_of(S3)
    with pytest.raises(ValueError, match="^coset True is not canonical in its table$"):
        DoubleCosetId(ctx.p_table, True)
    one = HandleInvariant(CaseLabel.CASE1, True, DoubleCosetId(ctx.p_table, 1))
    assert image_member(ctx, CaseLabel.CASE1, True, one)
    assert type(ctx._case.keys[0][1]) is int
    assert repr(handle_invariant(ctx, CaseLabel.CASE1, True, Word())) == (
        "HandleInvariant(case=<CaseLabel.CASE1: 1>, core_oriented=True, "
        "value=DoubleCosetId(canonical=1, orbit_size=1))")


# -- one check decides which cases fit an input --------------------------------

def _entry_points(ctx, g, candidate):
    """Every entry point that takes a case, each asked about the cord g
    and the oriented-core candidate on ctx (quotient_separate on its
    input), with the case as its one argument."""
    words = [g] * len(candidate.double_cosets())
    return {
        "handle_invariant": lambda case: handle_invariant(ctx, case, False, g),
        "equivalent": lambda case: equivalent(ctx, case, False, g, invert(g)),
        "image_member": lambda case: image_member(ctx, case, True, candidate),
        "enumerate_classes": lambda case: enumerate_classes(ctx, case, True),
        "class_listing": lambda case: class_listing(ctx, case, False),
        "candidate_invariant": lambda case: candidate_invariant(ctx, case, True, words),
        "nonsurjectivity_witness": lambda case: nonsurjectivity_witness(ctx, case, False),
        "quotient_separate": lambda case: quotient_separate(ctx.input, case, True, g,
                                                            Word(), 3),
    }


# sha256 of "<case> <entry point> <repr of its answer>", one a line, over
# both inputs and every fitting case, as the answers were before the
# input decided which cases fit it
FITTING_ANSWERS_SHA256 = "0a4b77bcdb8eea9df6ec249fb92469778c91ac17ac783c0a0eaa118424aee71c"


def test_every_entry_point_refuses_a_case_that_does_not_fit_alike():
    lines = []
    for text, cord, other in ((S3, "b", CaseLabel.CASE3), (D8_CASE3, "r", CaseLabel.CASE1)):
        parsed, ctx = ctx_of(text)
        g = parse_word(cord, parsed.presentation)
        candidate = handle_invariant(ctx, parsed.cases[0], True, g)
        want = "an orientable" if other is CaseLabel.CASE1 else "a non-orientable"
        refused = [(other, f"case {other.value} needs {want} surface input")]
        refused += [(v, f"{v!r} is not a CaseLabel") for v in (1, 3, None, "3")]
        contexts = [ctx]
        if not parsed.surface_orientable:
            # the mismatch comes before MissingPPlus and PreconditionUnverified
            checks = tuple(ValidationCheck(c.name, "fail", c.detail)
                           if c.name == "n_squared_in_p_plus" else c
                           for c in ctx.report.checks)
            contexts += [ClassifierContext(parsed, ctx.p_table, None, ctx.report),
                         ClassifierContext(parsed, ctx.p_table, ctx.p_plus_table,
                                           ValidationReport(checks))]
        for bad in contexts:
            for name, point in _entry_points(bad, g, candidate).items():
                for value, message in refused:
                    with pytest.raises(CaseMismatch, match=f"^{re.escape(message)}$"):
                        point(value)
        # a fitting case answers as before
        points = _entry_points(ctx, g, candidate)
        lines += [f"{case.value} {name} {point(case)!r}"
                  for case in parsed.cases for name, point in points.items()]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == FITTING_ANSWERS_SHA256
