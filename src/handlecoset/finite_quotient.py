"""Finite-quotient separation: sound but incomplete inequivalence tests.

When coset enumeration is out of reach, map the group onto permutation
groups of small degree and compare the handle invariants inside the
finite image.  Double-coset equality is preserved by any homomorphism,
so a difference in some image certifies inequivalence; agreement proves
nothing.  Inside a finite image everything is brute force over
permutations, deliberately independent of the enumeration engine; only
the encoding of words as action columns is shared with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

from .coset_enumeration import _columns
from .errors import CaseMismatch
from .handle_classifier import CaseLabel
from .knot_input import SurfaceKnotInput
from .word_algebra import GroupPresentation, Word

Perm = tuple[int, ...]


@dataclass(frozen=True)
class PermutationAssignment:
    """Images of the presentation's generators in the symmetric group S_degree.

    Only produced by find_homomorphisms, which guarantees every relator
    evaluates to the identity permutation.
    """

    degree: int
    images: tuple[Perm, ...]


class SeparationVerdict(Enum):
    DISTINCT = "distinct"
    UNKNOWN = "unknown"


def perm_compose(p: Perm, q: Perm) -> Perm:
    """Apply p, then q (matching left-to-right word evaluation)."""
    return tuple(q[x] for x in p)


def perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _trace(action: list[Perm], columns: tuple[int, ...], x: int) -> int:
    """Image of point x under a word compiled by _columns: action[2i] is the
    image of generator i and action[2i + 1] its inverse."""
    for c in columns:
        x = action[c][x]
    return x


def _holds(action: list[Perm], relators: list[tuple[int, ...]], points: range) -> bool:
    """True iff every compiled relator fixes every point; stops at the first
    point that moves."""
    for columns in relators:
        for x in points:
            if _trace(action, columns, x) != x:
                return False
    return True


def eval_word(images: tuple[Perm, ...], degree: int, word: Word) -> Perm:
    action: list[Perm] = []
    for p in images:
        action += (p, perm_inverse(p))
    columns = _columns(word)
    return tuple(_trace(action, columns, x) for x in range(degree))


@lru_cache(maxsize=None)
def _search(pres: GroupPresentation, degree: int, limit: int) -> tuple[PermutationAssignment, ...]:
    ngens = len(pres.generators)
    perms = tuple(itertools.permutations(range(degree)))  # lexicographic
    candidates = tuple((p, perm_inverse(p)) for p in perms)
    points = range(degree)
    # a relator becomes checkable once its highest generator is assigned
    ready: list[list[tuple[int, ...]]] = [[] for _ in range(ngens)]
    for rel in pres.relators:
        ready[rel.max_generator_index()].append(_columns(rel))

    found: list[PermutationAssignment] = []
    action: list[Perm] = [tuple(range(degree))] * (2 * ngens)

    def extend(k: int) -> None:
        if len(found) >= limit:
            return
        if k == ngens:
            found.append(PermutationAssignment(degree, tuple(action[0::2])))
            return
        checks = ready[k]
        for p, p_inv in candidates:
            action[2 * k] = p
            action[2 * k + 1] = p_inv
            if _holds(action, checks, points):
                extend(k + 1)
            if len(found) >= limit:
                return

    extend(0)
    return tuple(found)


def find_homomorphisms(pres: GroupPresentation, degree: int,
                       limit: int = 64) -> list[PermutationAssignment]:
    """Backtracking search for homomorphisms into S_degree.

    Generator images are tried in lexicographic order, so the output
    order is deterministic; at most `limit` assignments are returned and
    each one satisfies every relator.  An empty list is a valid result.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if limit < 0:
        raise ValueError("limit must be >= 0")
    return list(_search(pres, degree, limit))


@lru_cache(maxsize=100_000)
def _double_coset_min(subgens: tuple[Perm, ...], x: Perm) -> Perm:
    """Minimal element of (subgroup) x (subgroup), by closure from x."""
    moves = []
    for s in subgens:
        moves.append(("L", s))
        moves.append(("L", perm_inverse(s)))
        moves.append(("R", s))
        moves.append(("R", perm_inverse(s)))
    seen = {x}
    stack = [x]
    while stack:
        y = stack.pop()
        for side, s in moves:
            z = perm_compose(s, y) if side == "L" else perm_compose(y, s)
            if z not in seen:
                seen.add(z)
                stack.append(z)
    return min(seen)


def _image_invariant(hom: PermutationAssignment, subgroup_words: tuple[Word, ...],
                     n_word: Optional[Word], case3: bool, core_oriented: bool,
                     g: Word):
    degree = hom.degree
    subgens = tuple(eval_word(hom.images, degree, w) for w in subgroup_words)
    gp = eval_word(hom.images, degree, g)

    def dc(x: Perm) -> Perm:
        return _double_coset_min(subgens, x)

    if not case3:
        if core_oriented:
            return dc(gp)
        return frozenset({dc(gp), dc(perm_inverse(gp))})

    np = eval_word(hom.images, degree, n_word)

    def trio(x: Perm) -> frozenset:
        return frozenset({dc(x), dc(perm_compose(perm_compose(np, x), np))})

    if core_oriented:
        return trio(gp)
    return frozenset({trio(gp), trio(perm_inverse(gp))})


def quotient_separate(input: SurfaceKnotInput, case: CaseLabel,
                      core_oriented: bool, g1: Word, g2: Word,
                      max_degree: int = 6,
                      hom_limit: int = 64) -> SeparationVerdict:
    """Try to certify that g1 and g2 carry inequivalent 1-handles.

    DISTINCT only when some homomorphism onto a permutation group of
    degree <= max_degree gives the two words different invariants there;
    UNKNOWN otherwise.  Never claims equivalence.
    """
    case3 = not case.requires_orientable
    if case3 != (not input.surface_orientable):
        raise CaseMismatch(f"case {case.value} does not match the input's orientability")
    if case3:
        subgroup_words = input.p_plus_generators
        n_word = input.n_word
    else:
        subgroup_words = input.p_generators
        n_word = None
    for degree in range(1, max_degree + 1):
        for hom in _search(input.presentation, degree, hom_limit):
            v1 = _image_invariant(hom, subgroup_words, n_word, case3,
                                  core_oriented, g1)
            v2 = _image_invariant(hom, subgroup_words, n_word, case3,
                                  core_oriented, g2)
            if v1 != v2:
                return SeparationVerdict.DISTINCT
    return SeparationVerdict.UNKNOWN
