import itertools

import pytest

from handlecoset.errors import CaseMismatch
from handlecoset.finite_quotient import (SeparationVerdict,
                                         find_homomorphisms,
                                         quotient_separate)
from handlecoset.handle_classifier import CaseLabel
from handlecoset.knot_input import parse_input, parse_word
from handlecoset.selftest import peval
from handlecoset.word_algebra import Word

C2 = parse_input("group: a\nrel: a^2\nP: 1\norientable: true").presentation
C3 = parse_input("group: a\nrel: a^3\nP: 1\norientable: true").presentation
S3_INPUT = parse_input("group: a b\nrel: a^2\nrel: b^3\nrel: a b a b\n"
                       "P: a\norientable: true", label="s3")
T2_INPUT = parse_input("group: t\nP: t^2\norientable: true", label="t2")
# Schubert presentations <a, b | a w = w b> of the 2-bridge knots b(3,1), b(5,2)
TREFOIL = parse_input("group: a b\nrel: a b a b^-1 a^-1 b^-1\n"
                      "P: a\norientable: true").presentation
FIGURE_EIGHT = parse_input("group: a b\nrel: a b a b^-1 a^-1 b^-1 a b a^-1 b^-1\n"
                           "P: a\norientable: true").presentation
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
    capped = find_homomorphisms(S3_INPUT.presentation, 3, limit=4)
    assert capped == first[:4]


def reference_homs(pres, degree, limit):
    """The first `limit` generator-image tuples, in lexicographic order of
    itertools.product over lexicographic permutations, that satisfy every
    relator."""
    perms = list(itertools.permutations(range(degree)))
    identity = perms[0]
    found = []
    for images in itertools.product(perms, repeat=len(pres.generators)):
        if len(found) >= limit:
            break
        if all(peval(rel, images) == identity for rel in pres.relators):
            found.append(images)
    return found


@pytest.mark.parametrize("pres", [TREFOIL, FIGURE_EIGHT, S3_INPUT.presentation],
                         ids=["trefoil", "figure-eight", "s3"])
def test_homs_match_reference_search(pres):
    capped = 0
    for degree, limit in [(d, 64) for d in range(1, 6)] + [(d, 10**6) for d in range(1, 5)]:
        homs = find_homomorphisms(pres, degree, limit)
        assert [h.images for h in homs] == reference_homs(pres, degree, limit)
        assert all(h.degree == degree for h in homs)
        for h in homs:
            for rel in pres.relators:
                assert peval(rel, h.images) == tuple(range(degree))
        capped += len(homs) == limit
    assert capped  # the limit binds at least once, so its handling is tested


def test_separate_t2_parity():
    g1 = parse_word("t", T2_INPUT.presentation)
    verdict = quotient_separate(T2_INPUT, CaseLabel.CASE1, True, g1, Word(),
                                max_degree=2)
    assert verdict is SeparationVerdict.DISTINCT


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


def test_separate_case_mismatch():
    with pytest.raises(CaseMismatch):
        quotient_separate(S3_INPUT, CaseLabel.CASE3, True, Word(), Word())


def test_degree_validation():
    with pytest.raises(ValueError):
        find_homomorphisms(C2, 0)
