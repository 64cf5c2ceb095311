"""Finite-quotient separation: sound but incomplete inequivalence tests.

When coset enumeration is out of reach, map the group onto permutation
groups of small degree and compare the handle invariants inside the
finite image.  Double-coset equality is preserved by any homomorphism,
so a difference in some image certifies inequivalence; agreement proves
nothing.  Inside a finite image everything is brute force over
permutations, deliberately independent of the enumeration engine.  Two
things are shared with the rest of the package: the encoding of words
as action columns, and the case dispatch (handle_classifier.case_words),
which picks the acting words and the twist word.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional

from .coset_enumeration import _columns
from .handle_classifier import CaseLabel, case_words
from .knot_input import SurfaceKnotInput
from .word_algebra import GroupPresentation, Word

Perm = tuple[int, ...]
Columns = tuple[int, ...]  # a word compiled by _columns

# the search lists all d! permutations of each degree d up to this bound
MAX_SEPARATE_DEGREE = 8
# assignments kept per degree, in lexicographic order of generator images
HOM_LIMIT = 64


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
    return tuple(map(q.__getitem__, p))


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


def _check_degree(degree: int) -> None:
    if not 1 <= degree <= MAX_SEPARATE_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_SEPARATE_DEGREE}, got {degree}")


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
                       limit: int = HOM_LIMIT) -> list[PermutationAssignment]:
    """Backtracking search for homomorphisms into S_degree.

    Generator images are tried in lexicographic order, so the output
    order is deterministic; at most `limit` assignments are returned and
    each one satisfies every relator.  An empty list is a valid result.
    The degree must lie in 1..MAX_SEPARATE_DEGREE.
    """
    _check_degree(degree)
    if limit < 0:
        raise ValueError("limit must be >= 0")
    return list(_search(pres, degree, limit))


def _image_value(hom: PermutationAssignment, acting: list[Columns],
                 n: Optional[Columns], core_oriented: bool) -> Callable[[Columns], object]:
    """The invariant of a cord inside hom's image, as a function of the
    cord word compiled by _columns.  The generator action and the images
    of the acting words and of n are built once, so every cord evaluated
    through the result shares them.  A double coset is named by its
    least permutation."""
    action: list[Callable[[int], int]] = []
    for p in hom.images:
        action += (p.__getitem__, perm_inverse(p).__getitem__)
    identity = tuple(range(hom.degree))

    def image(columns: Columns) -> Perm:
        x = identity
        for c in columns:
            x = tuple(map(action[c], x))
        return x

    subgens = [image(w) for w in acting]
    right_moves = [s.__getitem__ for s in subgens]

    def dc(x: Perm) -> Perm:
        # Hx is the closure of {x} under y -> s*y, and HxH that of Hx under
        # y -> y*s; in a finite group the inverse moves are products of
        # these, so neither closure needs them
        seen = {x}
        stack = [x]
        while stack:
            y_of = stack.pop().__getitem__
            for s in subgens:
                z = tuple(map(y_of, s))
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
        stack = list(seen)
        while stack:
            y = stack.pop()
            for s_of in right_moves:
                z = tuple(map(s_of, y))
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
        return min(seen)

    if n is None:
        oriented = dc
    else:
        n_image = image(n)

        def oriented(x: Perm) -> frozenset:
            return frozenset({dc(x), dc(perm_compose(perm_compose(n_image, x), n_image))})

    def value(g: Columns):
        x = image(g)
        if core_oriented:
            return oriented(x)
        return frozenset({oriented(x), oriented(perm_inverse(x))})

    return value


def quotient_separate(input: SurfaceKnotInput, case: CaseLabel,
                      core_oriented: bool, g1: Word, g2: Word,
                      max_degree: int = 6) -> SeparationVerdict:
    """Try to certify that g1 and g2 carry inequivalent 1-handles.

    DISTINCT only when some homomorphism onto a permutation group of
    degree <= max_degree gives the two words different invariants there;
    UNKNOWN otherwise.  Never claims equivalence.  Raises CaseMismatch
    if the case does not fit the input's surface, and ValueError if
    max_degree lies outside 1..MAX_SEPARATE_DEGREE.
    """
    acting, n = case_words(input, case)
    _check_degree(max_degree)
    acting_columns = [_columns(w) for w in acting]
    n_columns = None if n is None else _columns(n)
    c1, c2 = _columns(g1), _columns(g2)
    for degree in range(1, max_degree + 1):
        for hom in _search(input.presentation, degree, HOM_LIMIT):
            value = _image_value(hom, acting_columns, n_columns, core_oriented)
            if value(c1) != value(c2):
                return SeparationVerdict.DISTINCT
    return SeparationVerdict.UNKNOWN
