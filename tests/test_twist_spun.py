"""Zeeman's twist-spun 2-knots: complete tables in the paper's domain.

The k-twist-spin of a 2-bridge knot b(p, q) has the knot group with a^k
made central, and P = <a>.  For k = 2 the quotient by the central a^2
is the dihedral group D_p: a acts on Z/p as x -> -x and b as x -> 2 - x.
Since a^2 lies in P, the cosets and double cosets of P in G are those of
P's image in D_p, so that model decides every class exactly.
"""

import random

import pytest

from brute import (TWO_BRIDGE_13, _random_word, _related_word, classifier_key,
                   classifier_values, mulclose, peval, subgroup_of, twist_spun_skg)
from handlecoset import (CaseLabel, ClassifierContext, enumerate_classes,
                         equivalent, parse_input)
from handlecoset.errors import InfiniteIndex

CASES = [(label, core) for label in (CaseLabel.CASE1, CaseLabel.CASE2)
         for core in (True, False)]


def _dihedral_model(p: int):
    return (tuple((-x) % p for x in range(p)), tuple((2 - x) % p for x in range(p)))


def test_twist_spun_squares_match_the_dihedral_model():
    pairs = 0
    for k, (p, q) in enumerate(TWO_BRIDGE_13):
        data = parse_input(twist_spun_skg(p, q, 2), label=f"tau2-b{p}-{q}")
        model = _dihedral_model(p)
        identity = tuple(range(p))
        for rel in data.presentation.relators:
            assert peval(rel, model) == identity, (p, q)
        ctx = ClassifierContext.build(data)
        assert ctx.p_table.index == p, (p, q)
        elements = mulclose(model)
        h_set = subgroup_of(data.p_generators, model)
        rng = random.Random(k)
        for label, core in CASES:
            classes = enumerate_classes(ctx, label, core)
            assert len(classes) == len(classifier_values(elements, h_set, False, core)) \
                == (p + 1) // 2, (p, q, label, core)
            for _ in range(15):
                g = _random_word(rng, 2)
                draw = rng.random()
                h = _related_word(rng, data, label, core, g, moved=draw < 0.25) \
                    if draw < 0.5 else _random_word(rng, 2)
                brute = [classifier_key(peval(w, model), h_set, False, core)
                         for w in (g, h)]
                assert equivalent(ctx, label, core, g, h) == (brute[0] == brute[1]), \
                    (p, q, label, core, g, h)
                pairs += 1
    assert pairs == 2400


# (p, q, k): index |G : P| and the class counts, oriented / unoriented core
PINNED = [
    (3, 1, 3, 8, 4, 3),      # tau^3 trefoil: Sigma_3 has pi_1 = Q8
    (3, 1, 5, 120, 32, 17),  # tau^5 trefoil: the Poincare sphere
    (5, 1, 3, 120, 44, 23),  # tau^3 T(2,5): the Poincare sphere
]


@pytest.mark.parametrize("p, q, k, index, oriented, unoriented", PINNED,
                         ids=["tau3-trefoil", "tau5-trefoil", "tau3-T(2,5)"])
def test_twist_spun_class_counts(p, q, k, index, oriented, unoriented):
    ctx = ClassifierContext.build(parse_input(twist_spun_skg(p, q, k)))
    assert ctx.p_table.index == index
    for label in (CaseLabel.CASE1, CaseLabel.CASE2):
        assert len(enumerate_classes(ctx, label, True)) == oriented
        assert len(enumerate_classes(ctx, label, False)) == unoriented
    # case 2 is case 1 under another label, value for value
    for core in (True, False):
        one = enumerate_classes(ctx, CaseLabel.CASE1, core)
        two = enumerate_classes(ctx, CaseLabel.CASE2, core)
        assert [(inv.key, w) for inv, w in one] == [(inv.key, w) for inv, w in two]


def test_twist_spun_figure_eight_has_infinite_index():
    # tau^3 of the figure eight b(5, 3) is certified by an image in S_4
    with pytest.raises(InfiniteIndex) as caught:
        ClassifierContext.build(parse_input(twist_spun_skg(5, 3, 3)))
    assert caught.value.subgroup == "P"
    assert caught.value.degree == 4
