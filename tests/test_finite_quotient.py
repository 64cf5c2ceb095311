import copy
import itertools
import pickle
import random
import time
from fractions import Fraction
from functools import partial
from math import gcd

import pytest
from hypothesis import given, strategies as st

from brute import (AFFINE_DEGREES, BROKEN_INPUTS, CERTIFICATE_DEGREES, GROUP_CORPUS,
                   INPUT_CORPUS, braid_closure_skg, TWO_BRIDGE_13, _random_word, _related_word,
                   _resolved_groups, classifier_values, coxeter_skg, cycle_type, lexicographic_filter, mulclose, peval,
                   pinv, pmul, rebased, subgroup_of, twist_spun_skg, two_bridge_skg)
from handlecoset import finite_quotient
from handlecoset.double_cosets import nest_slots
from handlecoset.errors import InfiniteIndex, PreconditionUnverified
from handlecoset.finite_quotient import (HOM_LIMIT, MAX_SEPARATE_DEGREE,
                                         PermutationAssignment,
                                         SeparationVerdict, _affine_images,
                                         _affine_row,
                                         find_homomorphisms, index_certificate,
                                         infinite_index_certificate,
                                         quotient_separate, _extend_basis,
                                         _partners, _search, _separates)
from handlecoset.handle_classifier import CaseLabel, ClassifierContext, validate
from handlecoset.knot_input import case_words, parse_input, parse_word, serialize
from handlecoset.word_algebra import (GeneratorSymbol, GroupPresentation, Word, act,
                                      concat, free_reduce, invert,
                                      perm_inverse, power)

C2 = parse_input("group: a\nrel: a^2\nP: 1\norientable: true").presentation
C3 = parse_input("group: a\nrel: a^3\nP: 1\norientable: true").presentation
S3_INPUT = parse_input("group: a b\nrel: a^2\nrel: b^3\nrel: a b a b\n"
                       "P: a\norientable: true", label="s3")
T2_INPUT = parse_input("group: t\nP: t^2\norientable: true", label="t2")
# Schubert presentations <a, b | a w = w b> of the 2-bridge knots b(3,1)
# and b(5,3), the trefoil and the figure eight
TREFOIL = parse_input("group: a b\nrel: a b a b^-1 a^-1 b^-1\n"
                      "P: a\norientable: true").presentation
FIGURE_EIGHT = parse_input(two_bridge_skg(5, 3)).presentation
# the Schubert formula at p = 5 with the even q = 2: not a knot group, since
# its Fox derivative along a, t^2 - 2t + 2, is not symmetric; a one-relator
# group all the same
SCHUBERT_5_2 = parse_input("group: a b\nrel: a b a b^-1 a^-1 b^-1 a b a^-1 b^-1\n"
                           "P: a\norientable: true").presentation
# a 3-generator Wirtinger presentation of the trefoil: x3 = x1^-1 x2 x1,
# and x2 = x3^-1 x1 x3 written inverted and rotated; the first pairs x3
# with x2, the second x2 with x1, so x3 reaches x1 only through the
# union-find
WIRTINGER_TREFOIL = parse_input("group: x1 x2 x3\nrel: x3^-1 x1^-1 x2 x1\n"
                                "rel: x1^-1 x3 x2 x3^-1\n"
                                "P: x1\norientable: true").presentation
D8_CASE3 = parse_input("group: r s\nrel: r^4\nrel: s^2\nrel: r s r s\n"
                       "P: r^2 , s\nP+: r^2\nn: s\norientable: false",
                       label="d8")


def test_homs_c2_degree2():
    homs = find_homomorphisms(C2, 2)
    images = [h.images[0] for h in homs]
    assert (0, 1) in images  # identity
    assert (1, 0) in images  # the transposition
    assert len(homs) == 2


def test_homs_c3_degree2():
    homs = find_homomorphisms(C3, 2)
    assert [h.images[0] for h in homs] == [(0, 1)]  # only the identity


def test_homs_s3_degree3_include_faithful():
    homs = find_homomorphisms(S3_INPUT.presentation, 3)
    found = False
    for h in homs:
        a_img, b_img = h.images
        a_moved = sum(1 for i, x in enumerate(a_img) if i != x)
        b_moved = sum(1 for i, x in enumerate(b_img) if i != x)
        if a_moved == 2 and b_moved == 3:
            found = True
    assert found
    # all returned assignments satisfy the relators
    for h in homs:
        for rel in S3_INPUT.presentation.relators:
            assert peval(rel, h.images) == (0, 1, 2)


def test_homs_deterministic_and_limited():
    first = find_homomorphisms(S3_INPUT.presentation, 3)
    second = find_homomorphisms(S3_INPUT.presentation, 3)
    assert first == second
    # the first HOM_LIMIT images of _search's stream, where it is longer:
    # the free group on 2 generators has 5 * 24 images in S_4
    free2 = parse_input(_free_group(2)).presentation
    for pres, degree in ((S3_INPUT.presentation, 3), (free2, 3), (free2, 4)):
        assert find_homomorphisms(pres, degree) == \
            list(itertools.islice(_search(pres, degree), HOM_LIMIT))
    assert len(find_homomorphisms(free2, 4)) == HOM_LIMIT


def _fixes(action, rel, x):
    """True iff the word rel maps point x to itself; action[i] is the pair
    (image of generator i, its inverse)."""
    y = x
    for i, s in rel:
        y = action[i][s < 0][y]
    return y == x


def lexicographic_homs(pres, degree):
    """Every generator-image tuple that satisfies every relator, lazily,
    in lexicographic order of itertools.product over all permutations:
    the images in S_degree before any are identified up to conjugacy.
    Relators are traced point by point, up to the first moved point."""
    perms = list(itertools.permutations(range(degree)))
    inverse = {p: pinv(p) for p in perms}
    for images in itertools.product(perms, repeat=len(pres.generators)):
        action = [(p, inverse[p]) for p in images]
        if all(_fixes(action, rel, x) for rel in pres.relators for x in range(degree)):
            yield images


def test_partners_of_knot_groups():
    # the Schubert relator a w b^-1 w^-1 pairs b with a on every knot
    for p, q in TWO_BRIDGE_13:
        assert _partners(parse_input(two_bridge_skg(p, q)).presentation) == (0, 0), (p, q)
    assert _partners(WIRTINGER_TREFOIL) == (0, 0, 0)
    # the same relators in another order, and each one inverted
    generators = WIRTINGER_TREFOIL.generators
    assert _partners(GroupPresentation(
        generators, WIRTINGER_TREFOIL.relators[::-1])) == (0, 0, 0)
    assert _partners(GroupPresentation(
        generators, tuple(map(invert, WIRTINGER_TREFOIL.relators)))) == (0, 0, 0)


@pytest.mark.parametrize("n", range(3, 9), ids=[f"S{n}-coxeter" for n in range(3, 9)])
def test_partners_of_coxeter_generators(n):
    # s_i has the relator s_i^2, so it is its own inverse: (s_i s_j)^3
    # reads as s_i (s_j s_i) s_j (s_j s_i)^-1 and joins s_j to s_i, and
    # every s_i of S_n joins s_1, also with the relators reversed or
    # inverted
    pres = parse_input(coxeter_skg(n, [1])).presentation
    for relators in (pres.relators, pres.relators[::-1],
                     tuple(map(invert, pres.relators))):
        assert _partners(GroupPresentation(pres.generators, relators)) == (0,) * (n - 1)


def test_partners_with_one_sign_on_both_generators():
    # a c b c^-1 says b = c^-1 a^-1 c: b is conjugate to a^-1, which has
    # a's cycle type, so b joins a although neither is its own inverse
    pres = parse_input("group: a b c\nrel: a c b c^-1\nP: a\n"
                       "orientable: true").presentation
    assert _partners(pres) == (0, 0, 2)
    assert _partners(GroupPresentation(pres.generators,
                                       (invert(pres.relators[0]),))) == (0, 0, 2)


def _partners_by_slices(pres):
    """_partners as an oracle: each rotation's second half compared with
    its first, reversed and inverted, as whole tuples, O(L^2) in a
    relator's length L."""
    squares = {r.letters[0][0] for r in pres.relators
               if len(r) == 2 and r.letters[0] == r.letters[1]}
    root = list(range(len(pres.generators)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for rel in pres.relators:
        half, odd = divmod(len(rel), 2)
        if odd:
            continue
        w = tuple((i, 0 if i in squares else s) for i, s in rel.letters) * 2
        for r in range(len(rel)):
            if w[r + half + 1:r + 2 * half] == \
                    tuple((i, -s) for i, s in reversed(w[r + 1:r + half])):
                a, b = sorted((find(w[r][0]), find(w[r + half][0])))
                root[b] = a
    return tuple(find(i) for i in range(len(root)))


PARTNER_INPUTS = ([(c.label, c.skg) for c in INPUT_CORPUS]
                  + [(f"b({p},{q})", two_bridge_skg(p, q)) for p, q in TWO_BRIDGE_13]
                  + [(f"S{n}-coxeter", coxeter_skg(n, [1])) for n in range(3, 9)])


@pytest.mark.parametrize("label, text", PARTNER_INPUTS,
                         ids=[label for label, _ in PARTNER_INPUTS])
def test_partners_match_the_slice_oracle(label, text):
    pres = parse_input(text).presentation
    assert _partners(pres) == _partners_by_slices(pres)


def test_partners_match_the_slice_oracle_on_random_relators():
    # relators of the shape x u y u^-1 around random noise, some of them
    # over self-inverse generators, so that both joins and near misses occur
    rng = random.Random(30)
    for _ in range(300):
        ngens = rng.randint(2, 5)
        relators = [Word(((i, 1), (i, 1))) for i in range(ngens) if rng.random() < 0.3]
        for _ in range(rng.randint(1, 3)):
            u = [(rng.randrange(ngens), rng.choice((1, -1)))
                 for _ in range(rng.randint(0, 4))]
            x, y = ((rng.randrange(ngens), rng.choice((1, -1))) for _ in range(2))
            letters = [x] + u + [y] + [(i, -s) for i, s in reversed(u)]
            if rng.random() < 0.3:  # break the shape at one letter
                k = rng.randrange(len(letters))
                letters[k] = (rng.randrange(ngens), letters[k][1])
            if rng.random() < 0.5:
                k = rng.randrange(len(letters))
                letters = letters[k:] + letters[:k]
            rel = free_reduce(letters)
            if rel.letters:
                relators.append(rel)
        pres = GroupPresentation(tuple(GeneratorSymbol(f"g{i}") for i in range(ngens)),
                                 tuple(relators))
        assert _partners(pres) == _partners_by_slices(pres), pres


@pytest.mark.parametrize("relators, partners", [
    # every rotation of a^50000 b^50000 fails at the letters beside its
    # middle; compared as whole halves, this one relator took O(L^2)
    ("rel: a^50000 b^50000", (0, 1)),
    # a and b are their own inverses, so every rotation of (a b)^25001
    # matches to its ends; the first joins b to a, and the rest are
    # skipped, as their two generators are joined already
    ("rel: a^2\nrel: b^2\nrel: " + "a b " * 25001, (0, 0)),
], ids=["a50000-b50000", "ab-25001-self-inverse"])
def test_partners_is_linear_on_long_relators(relators, partners):
    pres = parse_input(f"group: a b\n{relators}\nP: a\norientable: true").presentation
    start = time.perf_counter()
    assert _partners(pres) == partners
    assert time.perf_counter() - start < 1.0


# a a b^-1 a has the shape x u y^-1 v, but v is not u^-1: it says b = a^3,
# and a 3-cycle a gives b the identity
B_IS_A_CUBED = parse_input("group: a b\nrel: a a b^-1 a\nP: a\norientable: true").presentation


# s3 and d8 have an involution u, but their relators x u y u^-1 pair a
# generator only with itself
@pytest.mark.parametrize("pres", [S3_INPUT.presentation, D8_CASE3.presentation,
                                  T2_INPUT.presentation, B_IS_A_CUBED],
                         ids=["s3", "d8", "t2", "b-is-a-cubed"])
def test_no_partners_without_a_conjugating_relator(pres):
    assert _partners(pres) == tuple(range(len(pres.generators)))


# the brute-force reference evaluates every tuple of the product, so the
# 3-generator input stops at degree 5 (degree 6 would take 12 s)
@pytest.mark.parametrize("pres,top", [(TREFOIL, 6), (SCHUBERT_5_2, 6),
                                      (FIGURE_EIGHT, 6),
                                      (S3_INPUT.presentation, 6),
                                      (WIRTINGER_TREFOIL, 5)],
                         ids=["trefoil", "schubert-5-2", "figure-eight", "s3",
                              "wirtinger-trefoil"])
def test_homs_match_reference_search(pres, top):
    capped = 0
    for degree, limit in [(d, limit) for d in range(1, top + 1) for limit in (5, HOM_LIMIT)] + \
            [(d, 10**6) for d in range(1, 5)]:
        homs = list(itertools.islice(_search(pres, degree), limit))
        assert [h.images for h in homs] == lexicographic_filter(pres, degree, limit)
        assert all(h.degree == degree for h in homs)
        for h in homs:
            for rel in pres.relators:
                assert peval(rel, h.images) == tuple(range(degree))
        capped += len(homs) == limit
    assert capped  # the limit binds at least once, so its handling is tested


COVERAGE_INPUTS = [("trefoil", TREFOIL), ("schubert-5-2", SCHUBERT_5_2),
                   ("figure-eight", FIGURE_EIGHT), ("s3", S3_INPUT.presentation)] + \
    [(c.label, parse_input(c.skg).presentation) for c in INPUT_CORPUS
     if len(parse_input(c.skg).presentation.generators) == 2]


@pytest.mark.parametrize("pres", [pres for _, pres in COVERAGE_INPUTS],
                         ids=[label for label, _ in COVERAGE_INPUTS])
def test_every_image_is_listed_up_to_conjugacy(pres):
    # below the cap, each homomorphism into S_d is conjugate to a listed one
    for degree in range(1, 5):
        homs = list(_search(pres, degree))
        assert len(homs) < HOM_LIMIT  # so the default search lists them all
        listed = {h.images for h in homs}
        assert len(listed) == len(homs)
        full = list(lexicographic_homs(pres, degree))
        assert listed <= set(full)
        perms = list(itertools.permutations(range(degree)))
        for images in full:
            assert any(tuple(pmul(pmul(pinv(s), p), s) for p in images) in listed
                       for s in perms), (degree, images)


def test_separate_t2_parity():
    g1 = parse_word("t", T2_INPUT.presentation)
    verdict = quotient_separate(T2_INPUT, CaseLabel.CASE1, True, g1, Word(),
                                max_degree=2)
    assert verdict is SeparationVerdict.DISTINCT


# (braid word on n strands, the Schubert form of its closure or None,
# uncapped _search counts at S_1..S_4).  Each stabilisation (a Markov
# move) of the trefoil adds a strand and a crossing, so two generators.
# S_5 is left out: uncapped on 9 generators it costs over a second
BRAIDS = [(2, [1] * 3, (3, 1), [1, 2, 5, 16]),
          (3, [1] * 3 + [2], (3, 1), [1, 2, 5, 16]),
          (4, [1] * 3 + [2, 3], (3, 1), [1, 2, 5, 16]),
          (3, [1, -2] * 2, (5, 3), [1, 2, 3, 8]),
          (2, [1] * 5, (5, 1), [1, 2, 3, 5]),
          (3, [1, 2] * 4, None, [1, 2, 5, 24])]


@pytest.mark.parametrize("n, word, schubert, counts", BRAIDS,
                         ids=["trefoil", "trefoil-7", "trefoil-9", "figure-eight",
                              "T(2,5)", "T(3,4)"])
def test_braid_closures_list_what_their_schubert_forms_list(n, word, schubert, counts):
    # a knot's images into S_d, up to conjugacy of its meridian x1, do not
    # depend on the presentation: the Wirtinger form of a braid closure
    # with 5 to 11 generators lists as many as the 2-generator Schubert
    # form; T(3, 4) is not 2-bridge
    pres = parse_input(braid_closure_skg(n, word)).presentation
    assert len(pres.generators) == n + len(word)
    assert [len(list(_search(pres, d))) for d in range(1, 5)] == counts
    if schubert is not None:
        pres = parse_input(two_bridge_skg(*schubert)).presentation
        assert [len(list(_search(pres, d))) for d in range(1, 5)] == counts


def test_separate_equal_words_unknown():
    g = parse_word("t", T2_INPUT.presentation)
    assert quotient_separate(T2_INPUT, CaseLabel.CASE1, True, g, g,
                             max_degree=3) is SeparationVerdict.UNKNOWN


def test_separate_s3():
    b = parse_word("b", S3_INPUT.presentation)
    assert quotient_separate(S3_INPUT, CaseLabel.CASE1, True, b, Word(),
                             max_degree=3) is SeparationVerdict.DISTINCT


def test_separate_case3():
    r = parse_word("r", D8_CASE3.presentation)
    s = parse_word("s", D8_CASE3.presentation)
    assert quotient_separate(D8_CASE3, CaseLabel.CASE3, True, r, s,
                             max_degree=4) is SeparationVerdict.DISTINCT
    # slide-equivalent words can never be separated
    r_slid = parse_word("r^2 r s s", D8_CASE3.presentation)
    assert quotient_separate(D8_CASE3, CaseLabel.CASE3, True, r, r_slid,
                             max_degree=4) is SeparationVerdict.UNKNOWN


@pytest.mark.parametrize("text, g1, g2, check", [
    # d4-bad-n: n = r conjugates P+ = <s> out of itself
    (next(t for label, t, _ in BROKEN_INPUTS if label == "d4-bad-n"), "1", "s",
     "twist_normalizes_p_plus"),
    # n = a with a^2 outside P+ = 1; a and a^-1 agree in every image of
    # degree <= 3, where a has order at most 2
    ("group: a\nrel: a^4\nP: a\nP+: 1\nn: a\norientable: false", "a", "a^-1",
     "n_squared_in_p_plus"),
], ids=["d4-bad-n", "c4-bad-n-squared"])
def test_separate_refuses_n_that_fails_a_twist_check(text, g1, g2, check):
    # a check that fails in an image fails in the group: validate agrees
    input = parse_input(text)
    assert check in {c.name for c in validate(input).failures}
    words = [parse_word(g, input.presentation) for g in (g1, g2)]
    for core_oriented in (True, False):
        with pytest.raises(PreconditionUnverified,
                           match=f"^{check} fails in a permutation image of degree 4$"):
            quotient_separate(input, CaseLabel.CASE3, core_oriented, *words)


def test_separate_rejects_a_foreign_generator():
    # S3 has generators 0 and 1; generator 5 used to index past the
    # homomorphism's action and raise a bare IndexError
    for g1, g2 in ((Word(((5, 1),)), Word()), (Word(), Word(((5, -1),)))):
        with pytest.raises(ValueError, match="outside the presentation"):
            quotient_separate(S3_INPUT, CaseLabel.CASE1, True, g1, g2)


def test_degree_validation():
    # the library bounds the degree itself: 0 used to give UNKNOWN without
    # a search, and 9 to list all 9! permutations; a float used to fail in
    # range() with a TypeError, and True to stand in an image as its degree
    for degree in (0, MAX_SEPARATE_DEGREE + 1, 2.5, 2.0, True):
        with pytest.raises(ValueError, match="degree must be in 1..8"):
            find_homomorphisms(C2, degree)
        with pytest.raises(ValueError, match="degree must be in 1..8"):
            quotient_separate(T2_INPUT, CaseLabel.CASE1, True, Word(), Word(),
                              max_degree=degree)


def _brute_separates(input, case, core_oriented, g1, g2, family):
    """True iff some generator-image tuple of the family gives g1 and g2
    different invariant values, each value computed by the oracle's
    element-level double cosets."""
    case3 = case is CaseLabel.CASE3
    acting = input.p_plus_generators if case3 else input.p_generators
    for images in family:
        h_set = subgroup_of(acting, images)
        n_img = peval(input.n_word, images) if case3 else None
        values = [classifier_values([peval(g, images)], h_set, case3,
                                    core_oriented, n_img) for g in (g1, g2)]
        if values[0] != values[1]:
            return True
    return False


def lexicographic_family(pres, max_degree, limit):
    """The first `limit` lexicographic_homs of each degree up to max_degree."""
    return [images for degree in range(1, max_degree + 1)
            for images in itertools.islice(lexicographic_homs(pres, degree), limit)]


SEPARATE_INPUTS = [(c.label, c.skg, c.sample_cord) for c in INPUT_CORPUS]


@pytest.mark.parametrize("label,skg,sample", SEPARATE_INPUTS,
                         ids=[label for label, *_ in SEPARATE_INPUTS])
def test_separate_matches_brute_force_images(label, skg, sample):
    input = parse_input(skg, label=label)
    rng = random.Random(f"separate-{label}")
    ngens = len(input.presentation.generators)
    # every image of degree <= 4, uncapped
    families = {d: lexicographic_family(input.presentation, d, 10**9) for d in (3, 4)}
    verdicts = set()
    for case in input.cases:
        for core_oriented in (True, False):
            for k in range(8):
                # the sample cord moves under the inverse and the twist in
                # the inputs where some image of degree <= 4 lets them act
                g1 = parse_word(sample, input.presentation) if k < 2 \
                    else _random_word(rng, ngens)
                g2 = _related_word(rng, input, case, core_oriented, g1,
                                   moved=k % 4 == 1) \
                    if k % 2 else _random_word(rng, ngens)
                max_degree = 3 + k % 2
                expected = _brute_separates(input, case, core_oriented, g1, g2,
                                            families[max_degree])
                verdict = quotient_separate(input, case, core_oriented, g1, g2,
                                            max_degree=max_degree)
                assert (verdict is SeparationVerdict.DISTINCT) == expected, \
                    (case, core_oriented, g1, g2)
                verdicts.add(verdict)
    assert SeparationVerdict.UNKNOWN in verdicts
    # the unknotted input has P = G, and C5 has no non-trivial image of
    # degree <= 4; every other input gets a separated pair
    if label not in ("unknotted", "c5-trivial"):
        assert SeparationVerdict.DISTINCT in verdicts


def _transitive(hom):
    orbit, stack = {0}, [0]
    while stack:
        x = stack.pop()
        for image in hom.images:
            if image[x] not in orbit:
                orbit.add(image[x])
                stack.append(image[x])
    return len(orbit) == hom.degree


def _bench_shapes(n):
    """The P and P+ of every classes-coxeter and queries-coxeter query
    shape that fits S_n: each <s_i>, each <s_a, s_b> with a and b not
    adjacent, and the four pinned queries-coxeter P with their P+."""
    gens = range(1, n)
    shapes = [[i] for i in gens] + [[a, b] for a in gens for b in gens if b > a + 1]
    shapes += [[1, 2, 3, 4, 5], [2, 3, 4, 5], [3, 4, 5], [1, 2, 3, 5], [1, 2, 3]]
    return [p for p in shapes if max(p) < n]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_no_certificate_on_coxeter_groups(n):
    # S_n is finite, so every subgroup has finite index.  Every build now
    # reads the S_d and affine images before it enumerates, so the walk may
    # not certify infinite index for the subgroup of any bench query
    # shape, read at point 0 as subgroup_table reads them
    data = parse_input(coxeter_skg(n, [1]))
    presentation = data.presentation
    for p in _bench_shapes(n):
        words = parse_input(coxeter_skg(n, p)).p_generators
        assert infinite_index_certificate(data, words) is None, p
    # and there is no affine image to read: s_i^2 leaves only s = -1, and
    # (s_i s_(i+1))^3 then says 3 (c_(i+1) - c_i) = 0, so at m != 3 every
    # c is constant, and a constant c is conjugate to 0, which is not listed
    assert [hom for m in AFFINE_DEGREES
            for hom in _affine_images(presentation, m)] == []
    if n > 5:
        return
    # no transitive image of degree <= 5 may certify infinite index for
    # any P.  The S_d images come up to conjugacy, so each is read at
    # every base point, which covers every image
    homs = [hom for degree in range(1, 6)
            for hom in _search(presentation, degree)]
    transitive = sum(map(_transitive, homs))
    assert transitive == {4: 8, 5: 14}[n]
    for p in ([1], [2], [1, 3]):
        words = parse_input(coxeter_skg(n, p)).p_generators
        for hom in homs:
            for point in range(hom.degree):
                assert index_certificate(rebased(hom, point), presentation,
                                         words) is None, (p, hom, point)


# the first certificate for each knot of TWO_BRIDGE_13, in its order, as
# (degree, h_rank, p_rank): the images in S_2..S_5 certify all but the
# torus knots T(2, p) = b(p, +-1), which first map onto the dihedral
# group D_p, the affine images with s = -1 at m = p
CERTIFICATE = [(3, 2, 1), (3, 2, 1), (4, 2, 1), (5, 3, 1), (5, 3, 1),
               (4, 2, 1), (5, 2, 1), (5, 2, 1), (7, 4, 1), (7, 4, 1),
               (5, 2, 1), (5, 2, 1), (3, 2, 1), (3, 2, 1), (3, 2, 1),
               (3, 2, 1), (3, 2, 1), (3, 2, 1), (4, 2, 1), (5, 2, 1),
               (4, 2, 1), (5, 2, 1), (11, 6, 1), (11, 6, 1), (5, 2, 1),
               (4, 2, 1), (5, 2, 1), (4, 2, 1), (4, 2, 1), (4, 2, 1),
               (4, 2, 1), (5, 3, 1), (4, 2, 1), (13, 7, 1), (13, 7, 1),
               (4, 2, 1), (5, 3, 1), (4, 2, 1), (4, 2, 1), (4, 2, 1)]


def test_certificates_on_two_bridge_knots():
    assert len(TWO_BRIDGE_13) == len(CERTIFICATE) == 40
    for (p, q), expected in zip(TWO_BRIDGE_13, CERTIFICATE):
        data = parse_input(two_bridge_skg(p, q))
        cert = infinite_index_certificate(data, data.p_generators)
        assert cert is not None, (p, q)
        assert (cert.degree, cert.h_rank, cert.p_rank) == expected, (p, q)
        degree, h_rank, p_rank = expected
        if degree in AFFINE_DEGREES:
            assert degree == p and abs(q) == 1 and (h_rank, p_rank) == ((p + 1) // 2, 1)
            # every meridian goes to a reflection x -> c - x of D_p
            assert all((image[x] + x) % p == image[0]
                       for image in cert.hom.images for x in range(p)), (p, q)
        else:
            assert degree in CERTIFICATE_DEGREES and 0 <= p_rank < h_rank


# the Schubert knots with p <= 41 that the certificate walk leaves
# uncertified: the torus knots b(p, +-1) from p = 17 on, whose dihedral
# images need m = p, and six more
UNCERTIFIED_41 = {(p, s * q) for p, qs in [(17, [1]), (19, [1]), (23, [1]), (29, [1]),
                                           (31, [1, 13, 19]), (37, [1]), (41, [1, 31, 37])]
                  for q in qs for s in (1, -1)}


def test_the_certificate_floor_holds_up_to_p_41():
    # a floor, not a pin: every knot outside UNCERTIFIED_41 keeps a
    # certificate for P = <a>, and a walk that certifies more passes too
    knots = [(p, q) for p in range(3, 42, 2) for q in range(-p + 1, p)
             if q % 2 and gcd(p, abs(q)) == 1]
    assert len(knots) == 356 and len(UNCERTIFIED_41) == 22 and UNCERTIFIED_41 <= set(knots)
    for p, q in knots:
        if (p, q) not in UNCERTIFIED_41:
            data = parse_input(two_bridge_skg(p, q))
            assert infinite_index_certificate(data, data.p_generators) is not None, (p, q)


def _free_group(n):
    """.skg text of the free group on n generators with P = G."""
    gens = [f"x{i}" for i in range(n)]
    return f"group: {' '.join(gens)}\nP: {' , '.join(gens)}\norientable: true"


@pytest.mark.parametrize("skg", [two_bridge_skg(17, 1), coxeter_skg(8, [1]),
                                 _free_group(6), _free_group(8)],
                         ids=["b(17,1)", "S8", "free6", "free8"])
def test_search_without_a_certificate_stays_cheap(skg):
    # every build that the S_d walk leaves undecided pays for the affine
    # walk as well before it enumerates: the knot b(17, 1), whose first
    # affine image is at m = 17, pays for both without a certificate, and
    # so does the finite S8 with P = <s1>.  A free group with P = G has no
    # certificate and an affine image for every c, (m^(n-1) - 1)/(m - 1)
    # per s up to conjugacy, so the listing must stop at the cap
    data = parse_input(skg)
    start = time.perf_counter()
    assert infinite_index_certificate(data, data.p_generators) is None
    assert time.perf_counter() - start < 2.0


def test_an_affine_slice_stops_at_the_cap():
    # the free group on 8 generators has about 13^6 affine images per s at
    # m = 13: its slice keeps the first HOM_LIMIT of them, in the order
    # _affine_images yields them, and says it is incomplete.  The
    # trefoil's two images at m = 7 make a complete slice
    free8 = parse_input(_free_group(8))
    homs, complete = finite_quotient._listing(free8, "AGL", 13)
    assert len(homs) == HOM_LIMIT and not complete
    assert homs == tuple(itertools.islice(_affine_images(free8.presentation, 13), HOM_LIMIT))
    trefoil = parse_input(two_bridge_skg(3, 1))
    homs, complete = finite_quotient._listing(trefoil, "AGL", 7)
    assert len(homs) == 2 and complete
    assert homs == tuple(_affine_images(trefoil.presentation, 7))


@pytest.mark.parametrize("p, steps", [
    (3, 2), (7, len(CERTIFICATE_DEGREES) + 1),
    (17, len(CERTIFICATE_DEGREES) + len(AFFINE_DEGREES))])
def test_walk_reads_s_d_then_d_m_and_stops_at_a_certificate(monkeypatch, p, steps):
    # b(3, 1) is certified in S_3, b(7, 1) by an affine image at m = 7,
    # and b(17, 1) nowhere: the walk searches S_2..S_5 under the cap, then
    # lists the affine images at m = 7, 11, 13, which _listing caps as it
    # reads them, and no search follows the one that certifies
    searched = []
    for name, kind in (("_search", "S_d"), ("_affine_images", "affine")):
        def recorded(pres, *args, kind=kind, search=getattr(finite_quotient, name)):
            searched.append((kind, *args))
            return search(pres, *args)

        monkeypatch.setattr(finite_quotient, name, recorded)
    data = parse_input(two_bridge_skg(p, 1))
    cert = infinite_index_certificate(data, data.p_generators)
    walk = [("S_d", d) for d in CERTIFICATE_DEGREES]
    walk += [("affine", m) for m in AFFINE_DEGREES]
    assert searched == walk[:steps]
    assert (cert is None) == (p == 17)
    if cert is not None:
        assert cert.degree == searched[-1][1]


def _dihedral_group(m):
    """The elements of D_m, generated by x -> x + 1 and x -> -x on Z/m,
    in sorted order: 2m of them from m = 3 on, m on Z/1 and Z/2, where
    x -> -x is the identity."""
    elements = sorted(mulclose([tuple((x + 1) % m for x in range(m)),
                                tuple(-x % m for x in range(m))]))
    assert len(elements) == (2 * m if m > 2 else m)
    return elements


def test_only_the_identity_of_a_dihedral_group_fixes_0_and_1():
    # a relator read in D_m, or in AGL(1, m) for m prime, is trivial once
    # it fixes 0 and 1.  _affine_row reads exactly those two points: a
    # relator of exponent sum 0 maps 0 to s^-1 (row . c) and has the
    # multiplier s^0 = 1, which the row checks
    for m in range(1, AFFINE_DEGREES[-1] + 1):
        fixing = [p for p in _dihedral_group(m) if p[:2] == tuple(range(min(m, 2)))]
        assert fixing == [tuple(range(m))], m
    for m in (3, 5) + AFFINE_DEGREES:
        affine = [tuple((u * x + t) % m for x in range(m))
                  for u in range(1, m) for t in range(m)]
        assert [p for p in affine if p[:2] == (0, 1)] == [tuple(range(m))], m
    m, rel = 7, TREFOIL.relators[0]
    for s in range(2, m):
        row = _affine_row(rel.columns, s, m, 2)
        for c in itertools.product(range(m), repeat=2):
            image = peval(rel, [tuple((s * x + ci) % m for x in range(m)) for ci in c])
            assert (image[1] - image[0]) % m == 1
            assert image[0] == pow(s, -1, m) * (row[0] * c[0] + row[1] * c[1]) % m
            assert (image == tuple(range(m))) == (image[0] == 0), (s, c)


# up to affine maps the trefoil (determinant 3) has one 3-colouring and the
# figure eight (determinant 5) one 5-colouring, and neither has a
# p-colouring for another p in 3, 5, 7, 11, 13; the one-relator
# SCHUBERT_5_2, whose Fox derivative t^2 - 2t + 2 is not that of a knot,
# has one 5-colouring and no other
@pytest.mark.parametrize("pres, colourings", [
    (TREFOIL, {3: 1}), (SCHUBERT_5_2, {5: 1}), (FIGURE_EIGHT, {5: 1}),
    (S3_INPUT.presentation, {}), (WIRTINGER_TREFOIL, {3: 1})],
    ids=["trefoil", "schubert-5-2", "figure-eight", "s3", "wirtinger-trefoil"])
def test_dihedral_homs_match_reference_search(pres, colourings):
    # the homomorphisms into D_m that send every generator to a reflection
    # x -> c_i - x are the affine images with s = -1.  Against a
    # brute-force search of D_m, uncapped, each listed one is such a
    # homomorphism, and each such homomorphism with a non-constant c is
    # conjugate by an affine map x -> u x + t to exactly one listed one;
    # a constant c maps onto Z/2 and is not listed
    for m in (3, 5, 7) + AFFINE_DEGREES:
        elements = _dihedral_group(m)
        reflections = [p for p in elements if all((p[x] + x) % m == p[0] for x in range(m))]
        expected = {images for images in
                    itertools.product(reflections, repeat=len(pres.generators))
                    if all(peval(rel, images) == elements[0] for rel in pres.relators)}
        listed = [h.images for h in _affine_images(pres, m)
                  if h.images[0][1] == (h.images[0][0] - 1) % m]
        assert set(listed) <= expected, m
        affine = [tuple((u * x + t) % m for x in range(m))
                  for u in range(1, m) for t in range(m)]
        for images in expected:
            conjugates = {tuple(pmul(pmul(pinv(g), p), g) for p in images) for g in affine}
            hits = [h for h in listed if h in conjugates]
            assert len(hits) == (len({p[0] for p in images}) > 1), (m, images)
        assert len(listed) == colourings.get(m, 0), m


def _affine_reference(pres, m):
    """Every tuple of maps x -> s x + c_i on Z/m, one s != 1 for all
    generators, that satisfies every relator, by brute force over every
    unit s and every c: each tuple of images mapped to its c."""
    found = {}
    for s in range(2, m):
        for c in itertools.product(range(m), repeat=len(pres.generators)):
            images = tuple(tuple((s * x + ci) % m for x in range(m)) for ci in c)
            if all(peval(rel, images) == tuple(range(m)) for rel in pres.relators):
                found[images] = c
    return found


# the images listed at m = 3, 5, 7: one for each s whose inverse is a
# root mod m of the Alexander polynomial, t^2 - t + 1 for the trefoil,
# t^2 - 3t + 1 for the figure eight b(5, 3) and 2t^2 - 3t + 2 for b(7, 3);
# s3's a and b, of orders 2 and 3, share no multiplier s != 1; in the free
# product <a, b | a^3> s must be a cube root of 1, 2 or 4 mod 7, and c_b is
# free
C3_FREE_PRODUCT = parse_input("group: a b\nrel: a^3\nP: a\norientable: true").presentation
AFFINE_INPUTS = [("trefoil", TREFOIL, {3: 1, 5: 0, 7: 2}),
                 ("figure-eight", FIGURE_EIGHT, {3: 0, 5: 1, 7: 0}),
                 ("b(7,3)", parse_input(two_bridge_skg(7, 3)).presentation,
                  {3: 0, 5: 0, 7: 1}),
                 ("s3", S3_INPUT.presentation, {3: 0, 5: 0, 7: 0}),
                 ("c3-free-product", C3_FREE_PRODUCT, {3: 0, 5: 0, 7: 2}),
                 ("wirtinger-trefoil", WIRTINGER_TREFOIL, {3: 1, 5: 0, 7: 2})]


@pytest.mark.parametrize("pres, counts", [(pres, counts) for _, pres, counts in AFFINE_INPUTS],
                         ids=[label for label, *_ in AFFINE_INPUTS])
def test_affine_images_match_reference_search(pres, counts):
    # uncapped, the images listed are homomorphisms of the brute-force
    # reference, and every one of its images with a non-constant c is
    # conjugate by an affine map x -> u x + t to exactly one listed image
    for m in (3, 5, 7):
        identity = tuple(range(m))
        expected = _affine_reference(pres, m)
        homs = list(_affine_images(pres, m))
        assert all(h.degree == m for h in homs)
        listed = [h.images for h in homs]
        assert set(listed) <= set(expected), m
        for images in listed:
            # each relator fixes every point, and c (the image of 0) has
            # c_0 = 0 and its first nonzero entry 1
            assert all(peval(rel, images) == identity for rel in pres.relators)
            c = [image[0] for image in images]
            assert c[0] == 0 and next(filter(None, c)) == 1, (m, c)
        affine = [tuple((u * x + t) % m for x in range(m))
                  for u in range(1, m) for t in range(m)]
        for images, c in expected.items():
            conjugates = {tuple(pmul(pmul(pinv(g), p), g) for p in images) for g in affine}
            hits = [h for h in listed if h in conjugates]
            assert len(hits) == (len(set(c)) > 1), (m, c)
        assert len(listed) == counts[m], m
        for cap in (0, 1, 2, 5):
            assert [h.images for h in itertools.islice(_affine_images(pres, m), cap)] \
                == listed[:cap]


@pytest.mark.parametrize("case", GROUP_CORPUS, ids=[c.name for c in GROUP_CORPUS])
def test_an_image_carries_its_action(case):
    # every image the S_1..S_5 searches and the affine listings give keeps
    # generator i's permutation at 2i and its inverse at 2i + 1, the
    # Word.columns order, and a copy rebuilds the same list
    pres = parse_input(case.skg).presentation
    homs = [hom for d in range(1, 6) for hom in itertools.islice(_search(pres, d), HOM_LIMIT)]
    homs += [hom for m in AFFINE_DEGREES
             for hom in itertools.islice(_affine_images(pres, m), HOM_LIMIT)]
    assert homs
    for hom in homs:
        for twin in (hom, pickle.loads(pickle.dumps(hom)), copy.deepcopy(hom)):
            action = twin.action
            assert len(action) == 2 * len(pres.generators)
            assert action[0::2] == hom.images
            identity = tuple(range(hom.degree))
            for p, p_inv in zip(action[0::2], action[1::2]):
                assert tuple(p_inv[x] for x in p) == identity


def _count_holds(monkeypatch, name="_holds"):
    """Count the calls of finite_quotient's function `name`: _holds
    checks one candidate against its relators, _affine_row reads one
    relator's row, perm_inverse_and_type walks one permutation's cycles,
    perm_inverse reads one permutation's inverse, perm_compose composes
    two permutations, _subgroup lists one image's acting subgroup,
    _fixes_a_point tests one listed image for a common fixed point."""
    holds, calls = getattr(finite_quotient, name), [0]

    def counted(*args):
        calls[0] += 1
        return holds(*args)

    monkeypatch.setattr(finite_quotient, name, counted)
    return calls


def test_search_cost_without_a_timer(monkeypatch):
    # the relator checks of the S_d searches of degree <= 6 on S8 with
    # P = <s1>: 4.09M when generator 0 ran over all of S_d, 256k when it
    # takes one permutation per cycle type, 7,547 since every s_i, its
    # own inverse by s_i^2, joins s_1 and draws from one cycle type
    presentation = parse_input(coxeter_skg(8, [1])).presentation
    calls = _count_holds(monkeypatch)
    for degree in range(1, 7):
        find_homomorphisms(presentation, degree)
    assert calls[0] < 15_000


@pytest.mark.parametrize("skg, rows, images", [
    (coxeter_skg(8, [1]), 106, 0), (two_bridge_skg(13, 1), 25, 1)],
    ids=["S8", "b(13,1)"])
def test_affine_walk_cost_without_a_timer(monkeypatch, skg, rows, images):
    # the listings at m = 7, 11, 13, which every build the S_d walk leaves
    # undecided reads: one row per relator for each s until a relator's
    # multiplier fails.  On S8 with P = <s1>, s_1^2 fails every s but -1
    # at its first row, and -1 reads all 28 relators: 106 rows, where
    # reading each s to the end would make 700; the one-relator b(13, 1)
    # reads 25 and lists its D_13 image alone.  Neither lists an image
    # with a constant c
    presentation = parse_input(skg).presentation
    calls = _count_holds(monkeypatch, "_affine_row")
    listed = [hom for m in AFFINE_DEGREES
              for hom in itertools.islice(_affine_images(presentation, m), HOM_LIMIT)]
    assert calls[0] <= rows
    assert len(listed) == images


def test_dihedral_walk_cycle_types_without_a_timer(monkeypatch):
    # the certificate walk on S8 with P = <s1>: its S_2..S_5 searches
    # group each generator's candidates by cycle type.  That took 162
    # cycle-type reads while each candidate was read apart, and 97 walks
    # (perm_inverse_and_type) plus a read for each of the 10 images that
    # fixed a partnered level once the walks grouped them; now the 97
    # walks record each type's index, and the search reads no inverse
    # and no type apart.  The walk's second half once searched D_6..D_13
    # and read 176 more; the affine listings that replace it solve for c
    # and read none
    data = parse_input(coxeter_skg(8, [1]))
    calls = {name: _count_holds(monkeypatch, name)
             for name in ("perm_inverse_and_type", "perm_inverse")}
    for m in AFFINE_DEGREES:
        list(itertools.islice(_affine_images(data.presentation, m), HOM_LIMIT))
    assert calls["perm_inverse_and_type"][0] == 0
    assert infinite_index_certificate(data, data.p_generators) is None
    assert calls["perm_inverse_and_type"][0] == 97
    assert calls["perm_inverse"][0] == 0


def test_knot_search_cost_without_a_timer(monkeypatch):
    # the relator checks of the default searches of S_1..S_6 on the 40
    # knots: 31,360; with those of the D_6..D_13 search the walk once made,
    # 433,278 when b ran over every candidate and 74,970 when it drew only
    # from the cycle type of a's image
    calls = _count_holds(monkeypatch)
    for p, q in TWO_BRIDGE_13:
        presentation = parse_input(two_bridge_skg(p, q)).presentation
        for degree in range(1, 7):
            find_homomorphisms(presentation, degree)
    assert calls[0] < 120_000


def test_knot_search_walks_without_a_timer(monkeypatch):
    # the default searches of S_1..S_6 on the 40 knots once read each
    # candidate's inverse (perm_inverse, 42,976 calls) and its cycle type
    # (cycle_type, 36,028) apart, d! and more of each per degree.  Now one
    # walk of a permutation's cycles reads both, and serves its inverse
    # as well: (d! + involutions) / 2 walks per degree, 496 a knot.  The
    # least permutation of each cycle type, generator 0's candidates,
    # comes from that walk too, so no inverse is read apart
    calls = {name: _count_holds(monkeypatch, name)
             for name in ("perm_inverse_and_type", "perm_inverse")}
    for p, q in TWO_BRIDGE_13:
        presentation = parse_input(two_bridge_skg(p, q)).presentation
        for degree in range(1, 7):
            find_homomorphisms(presentation, degree)
    assert calls["perm_inverse_and_type"][0] == 40 * 496
    assert calls["perm_inverse"][0] == 0


def _least_of_each_type(degree, least=1):
    """The least permutation of each cycle type of S_degree with no cycle
    shorter than `least`, in lexicographic order: cycles x -> x + 1 on
    consecutive points, by increasing length."""
    if degree == 0:
        return [()]
    return [tuple(range(1, k)) + (0,) + tuple(x + k for x in rest)
            for k in range(least, degree + 1)
            for rest in _least_of_each_type(degree - k, k)]


def _listing_oracle(pres, degree, limit):
    """_search's listing as it was built before the one walk: every
    permutation of S_degree with its inverse from perm_inverse, all of
    them grouped through brute's cycle_type, generator 0's candidates
    from their own formula, and each image made by the public
    constructor."""
    ngens = len(pres.generators)
    points = range(degree)
    candidates = [(p, perm_inverse(p)) for p in itertools.permutations(points)]
    levels = [[(p, perm_inverse(p)) for p in _least_of_each_type(degree)]]
    levels += [candidates] * (ngens - 1)
    partnered = {}
    for k, j in enumerate(_partners(pres)):
        if j < k:
            partnered.setdefault(j, []).append(k)
    by_type = {}
    for c in candidates:
        by_type.setdefault(cycle_type(c[0]), []).append(c)
    ready = [[] for _ in range(ngens)]
    for rel in pres.relators:
        ready[rel.max_generator_index()].append(rel.columns)
    found = []
    action = [tuple(points)] * (2 * ngens)

    def extend(k):
        if k == ngens:
            found.append(PermutationAssignment(degree, tuple(action[0::2])))
            return
        for p, p_inv in levels[k]:
            if len(found) >= limit:
                return
            action[2 * k], action[2 * k + 1] = p, p_inv
            if all(act(action, columns, points) == tuple(points) for columns in ready[k]):
                for later in partnered.get(k, ()):
                    levels[later] = by_type[cycle_type(p)]
                extend(k + 1)

    extend(0)
    return found


LISTING_INPUTS = ([(f"b({p},{q})", two_bridge_skg(p, q)) for p, q in TWO_BRIDGE_13]
                  + [(f"tau3 b({p},{q})", twist_spun_skg(p, q, 3)) for p, q in TWO_BRIDGE_13]
                  + [(f"S{n}-coxeter", coxeter_skg(n, [1])) for n in range(3, 9)]
                  + [(c.label, c.skg) for c in INPUT_CORPUS]
                  + [(c.name, c.skg) for c in GROUP_CORPUS])


@pytest.mark.parametrize("label, text", LISTING_INPUTS,
                         ids=[label for label, _ in LISTING_INPUTS])
def test_search_lists_what_the_two_walk_construction_lists(label, text):
    # the same images, in the same order, with the same action tuples, at
    # S_1..S_6 under HOM_LIMIT and uncapped up to S_5; each image is the
    # one the public constructor builds under ==, hash, repr and pickle
    pres = parse_input(text).presentation
    runs = [(d, HOM_LIMIT) for d in range(1, 7)] + [(d, 10**9) for d in range(1, 6)]
    for degree, limit in runs:
        homs = list(itertools.islice(_search(pres, degree), limit))
        expected = _listing_oracle(pres, degree, limit)
        assert [h.images for h in homs] == [h.images for h in expected], (degree, limit)
        assert [h.action for h in homs] == [h.action for h in expected], (degree, limit)
        for hom, public in zip(homs, expected):
            assert hom.degree == public.degree == degree
            assert hom == public and hash(hom) == hash(public)
            assert repr(hom) == repr(public)
            for twin in (pickle.loads(pickle.dumps(hom)), pickle.loads(pickle.dumps(public))):
                assert twin == hom == public and twin.action == public.action


# partner roots after generator 0 (_partners): c draws from b's cycle
# type, and in the second d from c's, where b and c run over all of S_d
PARTNER_INPUTS = [
    ("group: a b c\nrel: a^3\nrel: a^-1 b a c^-1\nP: a\norientable: true", (0, 1, 1)),
    ("group: a b c d\nrel: a^2\nrel: b^-1 c b d^-1\nrel: a b a b\nP: a\norientable: true",
     (0, 1, 2, 2)),
]


@pytest.mark.parametrize("text, partners", PARTNER_INPUTS, ids=["partners-011", "partners-0122"])
def test_search_draws_from_a_later_partners_type(text, partners):
    # the brute-force filter, which prunes by no cycle type, lists the
    # same images in the same order at S_1..S_5 under caps 5 and 64, and
    # uncapped up to S_4
    pres = parse_input(text).presentation
    assert _partners(pres) == partners
    runs = [(d, cap) for d in range(1, 6) for cap in (5, 64)] + [(d, 10**9) for d in range(1, 5)]
    for degree, limit in runs:
        homs = list(itertools.islice(_search(pres, degree), limit))
        assert [h.images for h in homs] == lexicographic_filter(pres, degree, limit), \
            (degree, limit)


def fraction_rank(rows):
    """The rank over Q of the integer rows, by Gaussian elimination in
    Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@given(st.data())
def test_integer_elimination_matches_fractions(data):
    width = data.draw(st.integers(1, 6), label="width")
    entry = st.integers(-3, 3) | st.integers(-10**12, 10**12)
    row = st.lists(entry, min_size=width, max_size=width) | st.just([0] * width)
    rows = data.draw(st.lists(row, max_size=10), label="rows")
    if rows:  # repeated rows
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=3), label="repeats")
    # index_certificate extends one basis twice: relator rows, then K's
    split = data.draw(st.integers(0, len(rows)), label="split")
    consumed = []
    basis = []
    _extend_basis(basis, rows[:split], width)
    _extend_basis(basis, (consumed.append(r) or r for r in rows[split:]), width)
    rank = fraction_rank(rows)
    assert len(basis) == rank
    # once the first `full` rows span Q^width, one more row is read and
    # the rest are not
    if rank == width:
        full = next(k for k in range(len(rows) + 1) if fraction_rank(rows[:k]) == width)
        assert len(consumed) == min(max(full - split, 0) + 1, len(rows) - split)
    pivots = [col for col, _ in basis]
    for i, (col, b) in enumerate(basis):
        assert min(b) == col and all(b.values())
        assert gcd(*b.values()) == 1
        assert not set(pivots[:i]) & set(b)


def _tree_certificate(hom, pres, subgroup):
    """index_certificate's (h_rank, p_rank), or None, by the textbook
    route: abelianised Reidemeister-Schreier over a breadth-first
    Schreier tree from point 0, one symbol per non-tree edge, with both
    ranks taken by fraction_rank."""
    tree, order = set(), [0]
    for x in order:  # grows while it is walked
        for col, perm in enumerate(hom.action):
            y = perm[x]
            if y not in order:
                order.append(y)
                tree.add((x, col >> 1) if col % 2 == 0 else (y, col >> 1))
    if len(order) < hom.degree:
        return None
    symbol = {}
    for x in range(hom.degree):
        for i in range(len(pres.generators)):
            if (x, i) not in tree:
                symbol[x, i] = len(symbol)

    def rewrite(word, x):
        row = [0] * len(symbol)
        for i, sign in word.letters:
            if sign < 0:
                x = hom.images[i].index(x)
            if (x, i) in symbol:
                row[symbol[x, i]] += sign
            if sign > 0:
                x = hom.images[i][x]
        return row, x

    relators = [rewrite(rel, x)[0] for rel in pres.relators for x in range(hom.degree)]
    path, orbit, rows = {0: [0] * len(symbol)}, [0], []
    for o in orbit:  # grows while it is walked
        for w in subgroup:
            traced, end = rewrite(w, o)
            row = [a + b for a, b in zip(path[o], traced)]
            if end in path:
                rows.append([a - b for a, b in zip(row, path[end])])
            else:
                path[end] = row
                orbit.append(end)
    relator_rank, rank = fraction_rank(relators), fraction_rank(relators + rows)
    if rank == len(symbol):
        return None
    return len(symbol) - relator_rank, rank - relator_rank


def _certificate_subjects():
    """(name, presentation, subgroup words) for every GROUP_CORPUS
    subgroup, the P and P+ of every INPUT_CORPUS input, and P = <a> in
    each knot of TWO_BRIDGE_13 and in its 3-twist-spin."""
    subjects = [(case.name, pres, words)
                for case, pres, subgroups in _resolved_groups() for words in subgroups]
    for case in INPUT_CORPUS:
        data = parse_input(case.skg)
        subjects += [(case.label, data.presentation, words)
                     for words in (data.p_generators, data.p_plus_generators)
                     if words is not None]
    for p, q in TWO_BRIDGE_13:
        for name, skg in ((f"b({p},{q})", two_bridge_skg(p, q)),
                          (f"tau3 b({p},{q})", twist_spun_skg(p, q, 3))):
            data = parse_input(skg)
            subjects.append((name, data.presentation, data.p_generators))
    return subjects


def test_certificates_match_tree_reidemeister_schreier():
    # every image the certificate walk can read, S_1..S_5 and the affine
    # images, at every base point: the cycle-space ranks must equal the
    # Schreier tree's
    compared = certified = 0
    for name, pres, words in _certificate_subjects():
        homs = [hom for d in range(1, CERTIFICATE_DEGREES[-1] + 1)
                for hom in itertools.islice(_search(pres, d), HOM_LIMIT)]
        homs += [hom for m in AFFINE_DEGREES
                 for hom in itertools.islice(_affine_images(pres, m), HOM_LIMIT)]
        for hom in homs:
            for point in range(hom.degree):
                image = rebased(hom, point)
                cert = index_certificate(image, pres, words)
                ranks = None if cert is None else (cert.h_rank, cert.p_rank)
                assert ranks == _tree_certificate(image, pres, words), (name, image, point)
                compared += 1
                certified += cert is not None
    assert compared > 20_000 and certified > 2_000


REGRESSION_INPUTS = [(f"b({p},{q})", two_bridge_skg(p, q), 6) for p, q in TWO_BRIDGE_13] + \
    [(c.label, c.skg, 5) for c in INPUT_CORPUS]


def test_no_pair_separated_by_lexicographic_images_is_lost():
    # the capped search listed the first HOM_LIMIT images of each degree
    # in lexicographic order; every pair those images separate must still
    # be separated
    rng = random.Random("lexicographic-images")
    separated = 0
    for label, skg, max_degree in REGRESSION_INPUTS:
        input = parse_input(skg, label=label)
        case = input.cases[0]
        family = lexicographic_family(input.presentation, max_degree, HOM_LIMIT)
        ngens = len(input.presentation.generators)
        for k in range(4):
            g1, g2 = _random_word(rng, ngens, 10), _random_word(rng, ngens, 10)
            if _brute_separates(input, case, k % 2 == 0, g1, g2, family):
                separated += 1
                assert quotient_separate(input, case, k % 2 == 0, g1, g2, max_degree) \
                    is SeparationVerdict.DISTINCT, (label, g1, g2)
    assert separated >= 100


def _named_value(hom, acting, n, core_oriented):
    """The invariant of a cord inside hom's image, as a function of the
    cord word's columns: quotient_separate's comparison before it became
    a membership test.  Each slot's double coset HxH is closed in full
    and named by its least permutation; n's image must pass validate's
    twist checks, else PreconditionUnverified names the first that
    fails.  Its arithmetic is brute's, apart from the package's
    permutation steps."""
    action, identity = hom.action, tuple(range(hom.degree))

    def image(columns):
        x = identity
        for c in columns:
            x = pmul(x, action[c])
        return x

    subgens = [image(w) for w in acting]
    named = {}  # element -> least element of its HxH

    def dc(x):
        if x not in named:
            # Hx is the closure of {x} under y -> s*y, and HxH that of Hx
            # under y -> y*s
            seen, stack = {x}, [x]
            while stack:
                y = stack.pop()
                for s in subgens:
                    z = pmul(s, y)
                    if z not in seen:
                        seen.add(z)
                        stack.append(z)
            stack = list(seen)
            while stack:
                y = stack.pop()
                for s in subgens:
                    z = pmul(y, s)
                    if z not in seen:
                        seen.add(z)
                        stack.append(z)
            named.update(dict.fromkeys(seen, min(seen)))
        return named[x]

    n_image = None if n is None else image(n)
    if n is not None:
        n_inv, one = pinv(n_image), dc(identity)
        checks = {"twist_normalizes_p_plus": [
                      pmul(pmul(a, s), b)
                      for s in subgens for a, b in ((n_image, n_inv), (n_inv, n_image))],
                  "n_squared_in_p_plus": [pmul(n_image, n_image)]}
        for name, elements in checks.items():
            if any(dc(x) != one for x in elements):
                raise PreconditionUnverified(
                    f"{name} fails in a permutation image of degree {hom.degree}")

    def slot(x, inverted, of):
        if inverted:
            x = pinv(x)
        return dc(x if of is None else pmul(pmul(n_image, x), n_image))

    return lambda g: nest_slots(partial(slot, image(g)), n is not None, core_oriented)


def _searched(input, max_degree):
    """_search's listings under HOM_LIMIT at degrees 1..max_degree, made
    independently of the lists that the separations read (_listing)."""
    return [tuple(itertools.islice(_search(input.presentation, degree),
                                   finite_quotient.HOM_LIMIT))
            for degree in range(1, max_degree + 1)]


def _first_separating_degrees(input, case, core_oriented, pairs, listings):
    """For each pair of cord words, the least degree at which an image in
    listings (_searched) gives the two words different values, None if
    there is none: quotient_separate without the skip, every listed image
    compared, each value named by the oracle _named_value."""
    acting, n = case_words(input, case)
    acting = [w.columns for w in acting]
    n = None if n is None else n.columns
    pairs = [(g1.columns, g2.columns) for g1, g2 in pairs]
    first = [None] * len(pairs)
    for homs in listings:
        for hom in homs:
            value = _named_value(hom, acting, n, core_oriented)
            for i, (c1, c2) in enumerate(pairs):
                if first[i] is None and value(c1) != value(c2):
                    first[i] = hom.degree
    return first


def _unskipped_images(listings):
    """The images in listings (_searched) that a pair no image separates
    is compared in: those of degree d, less, when the listing of degree
    d - 1 is below the cap, those whose generators all fix some one
    point."""
    unskipped = []
    complete = True
    for homs in listings:
        unskipped += [hom for hom in homs if not complete or not any(
            all(p[x] == x for p in hom.images) for x in range(hom.degree))]
        complete = len(homs) < finite_quotient.HOM_LIMIT
    return unskipped


SKIP_INPUTS = [(f"b({p},{q})", two_bridge_skg(p, q)) for p, q in TWO_BRIDGE_13] + \
    [(c.label, c.skg) for c in INPUT_CORPUS]


@pytest.mark.parametrize("limit", [HOM_LIMIT, 3], ids=["default-cap", "cap-3"])
def test_skipped_images_change_no_verdict(monkeypatch, limit):
    # an image whose generators all fix one point is an image of one degree
    # less plus that point, so quotient_separate skips it when the lower
    # degree was listed in full; its verdict must be that of the full loop,
    # and the images it compares those the rule leaves, also when a cap of
    # 3 binds at low degrees and so switches the skip off above them
    monkeypatch.setattr(finite_quotient, "HOM_LIMIT", limit)
    compared = []

    def recorded(hom, *args):
        compared.append(hom)
        return _separates(hom, *args)

    monkeypatch.setattr(finite_quotient, "_separates", recorded)
    rng = random.Random(f"skip-{limit}")
    verdicts = set()
    for label, skg in SKIP_INPUTS:
        input = parse_input(skg, label=label)
        ngens = len(input.presentation.generators)
        top = 7 if ngens == 2 else 6
        listings = _searched(input, top)
        unskipped = _unskipped_images(listings)
        for case, core_oriented in itertools.product(input.cases, (True, False)):
            words = [_random_word(rng, ngens) for _ in range(4)]
            pairs = [(g1, _related_word(rng, input, case, core_oriented, g1, moved))
                     for g1, moved in zip(words, (False, True))] + [tuple(words[2:])]
            firsts = _first_separating_degrees(input, case, core_oriented, pairs, listings)
            for (g1, g2), first in zip(pairs, firsts):
                max_degree = rng.choice((6, top))
                compared.clear()
                verdict = quotient_separate(input, case, core_oriented, g1, g2,
                                            max_degree)
                expected = first is not None and first <= max_degree
                assert (verdict is SeparationVerdict.DISTINCT) == expected, \
                    (label, case, core_oriented, g1, g2, max_degree)
                # an unseparated pair is compared in every unskipped image
                # up to max_degree, a separated one in a prefix of them
                upto = [h for h in unskipped if h.degree <= max_degree]
                assert compared == (upto if not expected else upto[:len(compared)]), \
                    (label, max_degree)
                verdicts.add(verdict)
    assert verdicts == set(SeparationVerdict)


def test_separation_cost_without_a_timer(monkeypatch):
    # the images compared for the equivalent pairs g, p g q (p and q
    # powers of a) of the 40 knots at max_degree 6: 3,442 when every
    # listed image was compared, 1,694 since those whose generators fix
    # one common point are skipped
    calls = _count_holds(monkeypatch, "_separates")
    rng = random.Random("separation-cost")
    for p, q in TWO_BRIDGE_13:
        input = parse_input(two_bridge_skg(p, q))
        g = _random_word(rng, 2, 10)
        h = concat(power(Word(((0, 1),)), rng.randint(-3, 3)), g,
                   power(Word(((0, 1),)), rng.randint(-3, 3)))
        assert quotient_separate(input, CaseLabel.CASE1, True, g, h, 6) \
            is SeparationVerdict.UNKNOWN
    assert calls[0] < 2_000


def test_the_skip_runs_once_per_listed_image(monkeypatch):
    # each of the 40 knots is built (the build proves P = <a> of infinite
    # index) and then separates the equivalent pair g, a^i g a^j of
    # test_separation_cost_without_a_timer twice: the fixed-point test
    # runs once per image _search lists at degrees 2..6, 3,402 in all,
    # since the input keeps the lists it filtered (it ran 6,884 times
    # when every separation tested every listed image)
    calls = _count_holds(monkeypatch, "_fixes_a_point")
    rng = random.Random("separation-cost")
    listed = 0
    for p, q in TWO_BRIDGE_13:
        input = parse_input(two_bridge_skg(p, q))
        with pytest.raises(InfiniteIndex):
            ClassifierContext.build(input)
        g = _random_word(rng, 2, 10)
        h = concat(power(Word(((0, 1),)), rng.randint(-3, 3)), g,
                   power(Word(((0, 1),)), rng.randint(-3, 3)))
        for _ in range(2):
            assert quotient_separate(input, CaseLabel.CASE1, True, g, h, 6) \
                is SeparationVerdict.UNKNOWN
        listed += sum(len(list(itertools.islice(_search(input.presentation, d), HOM_LIMIT)))
                      for d in range(2, 7))
    assert calls[0] == listed == 3_402


def _outcome(compare):
    """compare()'s result, or the message of the PreconditionUnverified it
    raises."""
    try:
        return compare()
    except PreconditionUnverified as e:
        return str(e)


AGREEMENT_INPUTS = ([(c.name, c.skg) for c in GROUP_CORPUS]
                    + [(c.label, c.skg) for c in INPUT_CORPUS]
                    + [(f"b({p},{q})", two_bridge_skg(p, q)) for p, q in TWO_BRIDGE_13]
                    + [(label, text) for label, text, _ in BROKEN_INPUTS
                       if label == "d4-bad-n"])


# the inputs whose listed images separate none of these pairs: the
# unknotted one, where P = G; F21, whose one image of degree <= 6 is Z/3,
# onto which P maps; and the torus knots T(2, p) for the primes p = 7,
# 11 and 13, whose dihedral images D_p need p points
NO_SMALL_SEPARATION = {"unknotted", "f21", "b(7,-1)", "b(7,1)", "b(11,-1)", "b(11,1)",
                       "b(13,-1)", "b(13,1)"}


@pytest.mark.parametrize("label,skg", AGREEMENT_INPUTS,
                         ids=[label for label, _ in AGREEMENT_INPUTS])
def test_membership_test_agrees_with_named_double_cosets(label, skg):
    # in every listed image of degree <= 5 (<= 6 on two generators), for
    # every case and orientation, _separates says "distinct" exactly when
    # the oracle names the two cords' values differently, and raises the
    # oracle's PreconditionUnverified text in the same images.  The pairs:
    # two random ones, a slide by the acting subgroup, a slide of the moved
    # cord (inverted or twisted), and on Case 3 the twist n g n
    input = parse_input(skg, label=label)
    pres = input.presentation
    ngens = len(pres.generators)
    top = 6 if ngens == 2 else 5
    homs = [hom for d in range(1, top + 1)
            for hom in itertools.islice(_search(pres, d), HOM_LIMIT)]
    rng = random.Random(f"agreement-{label}")
    outcomes = set()
    for case, core_oriented in itertools.product(input.cases, (True, False)):
        acting, n = case_words(input, case)
        acting = [w.columns for w in acting]
        words = [_random_word(rng, ngens, 8) for _ in range(5)]
        pairs = [(words[0], words[1]), (words[2], words[3]),
                 (words[4], _related_word(rng, input, case, core_oriented, words[4], False)),
                 (words[0], _related_word(rng, input, case, core_oriented, words[0], True))]
        if n is not None:
            pairs.append((words[1], concat(n, words[1], n)))
        n = None if n is None else n.columns
        pairs = [(g1.columns, g2.columns) for g1, g2 in pairs]
        for hom in homs:
            value = _outcome(lambda: _named_value(hom, acting, n, core_oriented))
            for c1, c2 in pairs:
                expected = value if isinstance(value, str) else value(c1) != value(c2)
                got = _outcome(lambda: _separates(hom, acting, n, core_oriented, c1, c2))
                assert got == expected, (label, case, core_oriented, hom, c1, c2)
                outcomes.add(got)
    assert False in outcomes
    assert (True in outcomes) == (label not in NO_SMALL_SEPARATION)
    if label == "d4-bad-n":
        assert "twist_normalizes_p_plus fails in a permutation image of degree 4" \
            in outcomes


def test_one_subgroup_listing_per_compared_image(monkeypatch):
    # the equivalent pairs of test_separation_cost_without_a_timer: each
    # compared image lists H, the image of P = <a>, once, and composes
    # at most 3 |H| times, |H| to list H and 2 |H| to test the one slot;
    # closing the double coset of a slot would take |HxH| steps and more
    listings = _count_holds(monkeypatch, "_subgroup")
    compositions = _count_holds(monkeypatch, "perm_compose")
    sizes = []

    def compared(hom, acting, *args):
        before = compositions[0]
        distinct = _separates(hom, acting, *args)
        images = [act(hom.action, w, range(hom.degree)) for w in acting]
        size = len(mulclose(images))
        assert compositions[0] - before <= 3 * size
        sizes.append(size)
        return distinct

    monkeypatch.setattr(finite_quotient, "_separates", compared)
    rng = random.Random("separation-cost")
    for p, q in TWO_BRIDGE_13:
        input = parse_input(two_bridge_skg(p, q))
        g = _random_word(rng, 2, 10)
        h = concat(power(Word(((0, 1),)), rng.randint(-3, 3)), g,
                   power(Word(((0, 1),)), rng.randint(-3, 3)))
        assert quotient_separate(input, CaseLabel.CASE1, True, g, h, 6) \
            is SeparationVerdict.UNKNOWN
    assert len(sizes) == listings[0] < 2_000
    assert compositions[0] <= 3 * sum(sizes)


def test_an_input_keeps_its_listings(monkeypatch):
    # b(13, 1) has no certificate in S_2..S_5, so the build's walk searches
    # all four before it reads the affine slices, up to its certificate at
    # m = 13; a separation after it reuses those four and searches only
    # S_6, and no reader lists S_1
    searched, solved = [], []
    search, solve = finite_quotient._search, finite_quotient._affine_images

    def recorded(pres, degree):
        searched.append(degree)
        return search(pres, degree)

    def recorded_affine(pres, m):
        solved.append(m)
        return solve(pres, m)

    monkeypatch.setattr(finite_quotient, "_search", recorded)
    monkeypatch.setattr(finite_quotient, "_affine_images", recorded_affine)
    input = parse_input(two_bridge_skg(13, 1))
    with pytest.raises(InfiniteIndex):
        ClassifierContext.build(input)
    assert searched == [2, 3, 4, 5]
    g = parse_word("a b", input.presentation)
    assert quotient_separate(input, CaseLabel.CASE1, True, g, g) is SeparationVerdict.UNKNOWN
    assert searched == [2, 3, 4, 5, 6]
    assert set(input._listings) == {("S", d) for d in range(2, 7)} | \
        {("AGL", m) for m in AFFINE_DEGREES}
    # a fresh parse, a pickle and a copy are equal inputs that start cold
    for twin in (parse_input(two_bridge_skg(13, 1)), pickle.loads(pickle.dumps(input)),
                 copy.copy(input), copy.deepcopy(input)):
        assert twin == input and twin._listings == {}
        searched.clear()
        assert quotient_separate(twin, CaseLabel.CASE1, True, g, g, max_degree=2) \
            is SeparationVerdict.UNKNOWN
        assert searched == [2]
    # the walks for P and for P+ of one non-orientable input share them:
    # D8 is finite, so both walks read every slice, S_d and AGL(1, m)
    # alike, and each slice is listed once
    searched.clear()
    solved.clear()
    ClassifierContext.build(parse_input(serialize(D8_CASE3)))
    assert searched == list(CERTIFICATE_DEGREES)
    assert solved == list(AFFINE_DEGREES)
