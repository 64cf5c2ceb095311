"""Brute-force oracles for the tests: the corpus and the property suite.

Every table-driven computation in the package is cross-checked here
against brute force in concrete finite permutation groups: explicit
models of cyclic, dihedral, symmetric, alternating and quaternion groups
whose arithmetic never touches the enumeration engine.  This module is
the tests' one oracle home; the package imports none of it.  It holds:

- the permutation arithmetic (pmul, pinv, peval, mulclose, cycle_type,
  lexicographic_filter, subgroup_of, double_coset,
  double_coset_partition, classifier_key, classifier_values);
- orbit_partition, a plain orbit search over a finished table through
  its public trace alone;
- the presentations: two_bridge_skg (the Schubert presentations of
  2-bridge knots), TWO_BRIDGE_13 (the Schubert pairs with p <= 13),
  twist_spun_skg (Zeeman's twist-spun 2-knots) and coxeter_skg (the
  Coxeter presentations of S_n);
- the corpora GROUP_CORPUS, INPUT_CORPUS and BROKEN_INPUTS, and the
  property checks: those in CHECKS, each of which test_acceptance runs
  as a test of its own, and the four that only its criterion tests run,
  with more trials or a time bound (check_enumeration_order_index,
  check_double_coset_partition, check_representative_independence,
  check_quotient_soundness).

The benchmark keeps its own oracle in bench/oracle.py.  This module is
not named oracle, so that it cannot shadow that one once a test puts
bench/ on sys.path.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Callable, Optional

from handlecoset import cli
from handlecoset.coset_enumeration import enumerate_cosets
from handlecoset.double_cosets import dc_all, dc_id, dc_invert, dc_twist
from handlecoset.finite_quotient import (CERTIFICATE_WALK, HOM_LIMIT,
                                         PermutationAssignment,
                                         SeparationVerdict, _affine_images, _search,
                                         find_homomorphisms, index_certificate,
                                         quotient_separate)
from handlecoset.handle_classifier import (ClassifierContext, equivalent,
                                           enumerate_classes, handle_invariant,
                                           image_member,
                                           local_oriented_cord_invariant,
                                           nonsurjectivity_witness,
                                           oriented_cord_invariant, validate)
from handlecoset.knot_input import (CaseLabel, SurfaceKnotInput, parse_input,
                                    parse_word, serialize)
from handlecoset.word_algebra import GroupPresentation, Word, concat, free_reduce, invert

Perm = tuple[int, ...]

# the degrees of the slices that the certificate walk reads
# (CERTIFICATE_WALK), in its order: those of S_d, then the primes m of
# AGL(1, m)
CERTIFICATE_DEGREES = tuple(d for kind, d in CERTIFICATE_WALK if kind == "S")
AFFINE_DEGREES = tuple(m for kind, m in CERTIFICATE_WALK if kind == "AGL")


# ---------------------------------------------------------------------------
# brute-force permutation arithmetic (independent of the enumeration engine)
# ---------------------------------------------------------------------------

def pmul(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple(q[x] for x in p)


def pinv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def peval(word: Word, gens: tuple[Perm, ...]) -> Perm:
    """Evaluate a Word against permutation images of the generators."""
    acc = tuple(range(len(gens[0])))
    for i, s in word:
        acc = pmul(acc, gens[i] if s > 0 else pinv(gens[i]))
    return acc


def mulclose(gens) -> frozenset:
    """All products of the generators (and their inverses come for free
    in a finite closure)."""
    gens = list(gens)
    identity = tuple(range(len(gens[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = pmul(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return frozenset(seen)


def rebased(hom, point: int):
    """hom conjugated by the transposition (0 point): point becomes point 0."""
    t = [point if x == 0 else 0 if x == point else x for x in range(hom.degree)]
    images = tuple(pmul(pmul(t, p), t) for p in hom.images)
    return PermutationAssignment(hom.degree, images)


def cycle_type(p: Perm) -> tuple[int, ...]:
    """The cycle lengths of p, in increasing order."""
    seen, lengths = set(), []
    for start in range(len(p)):
        x, length = start, 0
        while x not in seen:
            seen.add(x)
            x, length = p[x], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def lexicographic_filter(pres: GroupPresentation, degree: int, limit: int) -> list:
    """The first `limit` generator-image tuples that satisfy every
    relator, in lexicographic order of itertools.product: generator 0
    over the least permutation of each cycle type, found as the min over
    the permutations of that type, and every other generator over all
    permutations.  A relator is evaluated once the images of all its
    generators are chosen, and a prefix that fails one is not extended,
    since no extension can satisfy it; nothing else is pruned, so every
    generator runs over all of its candidates whatever its relators say
    about its cycle type."""
    perms = list(itertools.permutations(range(degree)))
    by_type: dict = {}
    for p in perms:
        by_type.setdefault(cycle_type(p), []).append(p)
    leaders = sorted(min(members) for members in by_type.values())
    ready: list = [[] for _ in pres.generators]
    for rel in pres.relators:
        ready[rel.max_generator_index()].append(rel)
    found: list = []

    def extend(images: tuple) -> None:
        k = len(images)
        if k == len(ready):
            found.append(images)
            return
        for p in leaders if k == 0 else perms:
            if len(found) >= limit:
                return
            prefix = images + (p,)
            if all(peval(rel, prefix) == perms[0] for rel in ready[k]):
                extend(prefix)

    extend(())
    return found


def subgroup_of(words, model: tuple[Perm, ...]) -> frozenset:
    """The subgroup the words generate in the model (trivial for no words)."""
    identity = tuple(range(len(model[0])))
    return mulclose([peval(w, model) for w in words] + [identity])


def double_coset(h_set, g: Perm) -> frozenset:
    return frozenset(pmul(pmul(h, g), k) for h in h_set for k in h_set)


def double_coset_partition(elements, h_set):
    """The right H-cosets split into double cosets, as a set of frozensets
    of cosets, together with the map element -> its coset."""
    coset_of = {g: frozenset(pmul(h, g) for h in h_set) for g in elements}
    return ({frozenset(coset_of[x] for x in double_coset(h_set, g))
             for g in elements}, coset_of)


def classifier_key(x: Perm, h_set, case3: bool, core_oriented: bool,
                   n_img: Optional[Perm] = None):
    """The invariant value of one element, as a comparable object."""
    def oriented(y: Perm):
        if not case3:
            return double_coset(h_set, y)
        return frozenset({double_coset(h_set, y),
                          double_coset(h_set, pmul(pmul(n_img, y), n_img))})

    return oriented(x) if core_oriented else frozenset({oriented(x), oriented(pinv(x))})


def classifier_values(elements, h_set, case3: bool, core_oriented: bool,
                      n_img: Optional[Perm] = None) -> set:
    """All invariant values over the group elements, as comparable objects."""
    return {classifier_key(g, h_set, case3, core_oriented, n_img) for g in elements}


def orbit_partition(table, acting):
    """Orbits of the cosets 1..index under right multiplication by the
    acting words, by a plain search with one table.trace per move; sorted
    tuples in increasing order of their least coset.  Each word acts as a
    permutation of a finite set, so forward moves alone close an orbit."""
    orbits, seen = [], set()
    for start in range(1, table.index + 1):
        if start in seen:
            continue
        orbit, stack = {start}, [start]
        while stack:
            c = stack.pop()
            for w in acting:
                d = table.trace(c, w)
                if d not in orbit:
                    orbit.add(d)
                    stack.append(d)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


def _cycle(n: int) -> Perm:
    return tuple(range(1, n)) + (0,)


def _negate(n: int) -> Perm:
    return tuple((-i) % n for i in range(n))


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupCase:
    """A finite group presentation with a faithful permutation model."""

    name: str
    skg: str
    model: tuple[Perm, ...]  # aligned with the presentation's generators
    order: int               # known group order
    subgroups: tuple[tuple[str, ...], ...]  # word strings generating each


GROUP_CORPUS: tuple[GroupCase, ...] = (
    GroupCase("c4", "group: a\nrel: a^4\nP: a^2\norientable: true",
              (_cycle(4),), 4, (("a^2",), ("a",))),
    GroupCase("c5", "group: a\nrel: a^5\nP: 1\norientable: true",
              (_cycle(5),), 5, (("a",),)),
    GroupCase("c6", "group: a\nrel: a^6\nP: a^2\norientable: true",
              (_cycle(6),), 6, (("a^2",), ("a^3",))),
    GroupCase("c12", "group: a\nrel: a^12\nP: a^3\norientable: true",
              (_cycle(12),), 12, (("a^3",), ("a^4",))),
    GroupCase("klein4", "group: a b\nrel: a^2\nrel: b^2\nrel: a b a b\n"
              "P: a\norientable: true",
              ((1, 0, 2, 3), (0, 1, 3, 2)), 4, (("a",), ("a b",))),
    GroupCase("c2xc4", "group: a b\nrel: a^2\nrel: b^4\nrel: a b a b^-1\n"
              "P: b\norientable: true",
              ((1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2)), 8,
              (("b",), ("a",), ("a b^2",))),
    GroupCase("s3", "group: a b\nrel: a^2\nrel: b^3\nrel: a b a b\n"
              "P: a\norientable: true",
              ((1, 0, 2), (1, 2, 0)), 6, (("a",), ("b",))),
    GroupCase("s4", "group: a b\nrel: a^2\nrel: b^3\n"
              "rel: a b a b a b a b\nP: a b\norientable: true",
              ((1, 0, 2, 3), (0, 2, 3, 1)), 24, (("a b",), ("a",), ("b",))),
    GroupCase("a4", "group: a b\nrel: a^2\nrel: b^3\nrel: a b a b a b\n"
              "P: b\norientable: true",
              ((1, 0, 3, 2), (0, 2, 3, 1)), 12, (("b",), ("a",))),
    GroupCase("d4", "group: r s\nrel: r^4\nrel: s^2\nrel: r s r s\n"
              "P: r^2 , s\norientable: true",
              (_cycle(4), _negate(4)), 8,
              (("r^2", "s"), ("r^2",), ("r",), ("s",))),
    GroupCase("d6", "group: r s\nrel: r^6\nrel: s^2\nrel: r s r s\n"
              "P: r\norientable: true",
              (_cycle(6), _negate(6)), 12, (("r",), ("r^2", "s"), ("s",))),
    GroupCase("d8", "group: r s\nrel: r^8\nrel: s^2\nrel: r s r s\n"
              "P: r^2 , s\norientable: true",
              (_cycle(8), _negate(8)), 16, (("r",), ("r^4",), ("r^2", "s"))),
    GroupCase("d12", "group: r s\nrel: r^12\nrel: s^2\nrel: r s r s\n"
              "P: r^3 , s\norientable: true",
              (_cycle(12), _negate(12)), 24, (("r",), ("r^3", "s"))),
    # regular representation of the quaternion group on 1,-1,i,-i,j,-j,k,-k
    GroupCase("q8", "group: a b\nrel: a^4\nrel: a^2 b^-2\nrel: b^-1 a b a\n"
              "P: a\norientable: true",
              ((2, 3, 1, 0, 7, 6, 4, 5), (4, 5, 6, 7, 1, 0, 3, 2)), 8,
              (("a",), ("a^2",), ("b",))),
    # the Frobenius group Z/7 x| Z/3 as x -> 2x and x -> 2x + 1 mod 7; with
    # t = a^-1 b (x -> x + 1) the third relator is a^-1 t a = t^2.  It is
    # its own image in AGL(1, 7), so the certificate walk reads an affine
    # image of it
    GroupCase("f21", "group: a b\nrel: a^3\nrel: b^3\n"
              "rel: a^-2 b a b^-1 a b^-1 a\nP: a\norientable: true",
              ((0, 2, 4, 6, 1, 3, 5), (1, 3, 5, 0, 2, 4, 6)), 21,
              (("a",), ("a^-1 b",))),
)


@dataclass(frozen=True)
class InputCase:
    """A classifier input, optionally backed by a permutation model."""

    label: str
    skg: str
    sample_cord: str
    model: Optional[tuple[Perm, ...]] = None


INPUT_CORPUS: tuple[InputCase, ...] = (
    InputCase("unknotted", "group: t\nP: t\norientable: true", "t t"),
    InputCase("t2", "group: t\nP: t^2\norientable: true", "t"),
    # the image Z/3 with trivial P is the smallest where inversion moves
    # a double coset (t against t^-1), for both orientations of surface
    InputCase("t3", "group: t\nP: t^3\norientable: true", "t"),
    InputCase("t3-case3", "group: t\nP: t^3\nP+: t^3\nn: 1\norientable: false",
              "t"),
    # the modular group Z/2 * Z/3 with P of index 2 (the kernel of a -> 1,
    # b -> 0 onto Z/2): the one infinite non-abelian input
    InputCase("c2c3-index2",
              "group: a b\nrel: a^2\nrel: b^3\nP: b , a b a\norientable: true",
              "a"),
    InputCase("s3-synthetic",
              "group: a b\nrel: a^2\nrel: b^3\nrel: a b a b\n"
              "P: a\norientable: true", "b",
              ((1, 0, 2), (1, 2, 0))),
    InputCase("q8-p",
              "group: a b\nrel: a^4\nrel: a^2 b^-2\nrel: b^-1 a b a\n"
              "P: a\norientable: true", "b",
              ((2, 3, 1, 0, 7, 6, 4, 5), (4, 5, 6, 7, 1, 0, 3, 2))),
    InputCase("s4-p",
              "group: a b\nrel: a^2\nrel: b^3\nrel: a b a b a b a b\n"
              "P: a b\norientable: true", "b",
              ((1, 0, 2, 3), (0, 2, 3, 1))),
    InputCase("c5-trivial", "group: a\nrel: a^5\nP: 1\norientable: true", "a",
              (_cycle(5),)),
    InputCase("d8-case3",
              "group: r s\nrel: r^4\nrel: s^2\nrel: r s r s\n"
              "P: r^2 , s\nP+: r^2\nn: s\norientable: false", "r",
              (_cycle(4), _negate(4))),
    InputCase("d6-case3",
              "group: r s\nrel: r^6\nrel: s^2\nrel: r s r s\n"
              "P: r , s\nP+: r\nn: s\norientable: false", "r",
              (_cycle(6), _negate(6))),
    # P+ = <r^3> is central, and conjugation by s genuinely permutes the
    # six double cosets (r-classes swap with r^2-classes)
    InputCase("d6-split-case3",
              "group: r s\nrel: r^6\nrel: s^2\nrel: r s r s\n"
              "P: r^3 , s\nP+: r^3\nn: s\norientable: false", "r",
              (_cycle(6), _negate(6))),
    # non-central P+ = <s>: double-coset orbits of size 2 over the table
    InputCase("d6-flip-case3",
              "group: r s\nrel: r^6\nrel: s^2\nrel: r s r s\n"
              "P: s , r^3\nP+: s\nn: r^3 s\norientable: false", "r",
              (_cycle(6), _negate(6))),
    InputCase("c4-case3",
              "group: a\nrel: a^4\nP: a^2\nP+: a^2\nn: 1\norientable: false",
              "a", (_cycle(4),)),
)

# inputs that must fail validation, with the check expected to fail
BROKEN_INPUTS: tuple[tuple[str, str, str], ...] = (
    ("d4-wrong-pplus",
     "group: r s\nrel: r^4\nrel: s^2\nrel: r s r s\n"
     "P: r^2\nP+: s\nn: r\norientable: false", "p_plus_in_p"),
    ("d4-bad-n",
     "group: r s\nrel: r^4\nrel: s^2\nrel: r s r s\n"
     "P: r , s\nP+: s\nn: r\norientable: false", "twist_normalizes_p_plus"),
)


def respell_squares(pres: GroupPresentation) -> GroupPresentation:
    """The presentation with each relator x^2 or x^-2 spelled y x x y^-1,
    y the next generator: the same group, but the enumerator shares a
    column only for an x^2 relator, so none of its columns is shared.
    Needs two generators wherever there is such a relator."""
    relators = []
    for rel in pres.relators:
        if len(rel) == 2 and rel.letters[0] == rel.letters[1]:
            x = rel.letters[0]
            y = (x[0] + 1) % len(pres.generators)
            rel = Word(((y, 1), x, x, (y, -1)))
        relators.append(rel)
    return GroupPresentation(pres.generators, tuple(relators))


def two_bridge_skg(p: int, q: int) -> str:
    """.skg text of the Schubert presentation <a, b | a w = w b> of the
    2-bridge knot b(p, q), P = <a> (a meridian): w = b^e1 a^e2 ... a^e(p-1)
    with e_i = (-1)^floor(i q / p)."""
    letters = [("b" if i % 2 else "a", -1 if (i * q) // p % 2 else 1)
               for i in range(1, p)]
    inverse = [(g, -e) for g, e in reversed(letters)]
    relator = [("a", 1)] + letters + [("b", -1)] + inverse
    text = " ".join(g if e == 1 else f"{g}^{e}" for g, e in relator)
    return f"group: a b\nrel: {text}\nP: a\norientable: true\n"


# every Schubert pair (p, q) with p <= 13: p and q odd, 0 < |q| < p, coprime
TWO_BRIDGE_13 = [(p, q) for p in range(3, 14, 2) for q in range(-p + 1, p)
                 if q % 2 and gcd(p, abs(q)) == 1]


def twist_spun_skg(p: int, q: int, k: int) -> str:
    """.skg text of Zeeman's k-twist-spin of b(p, q): the Schubert
    presentation of two_bridge_skg plus the relator a^k b a^-k b^-1,
    which makes a^k central; P = <a>, a meridian."""
    head, tail = two_bridge_skg(p, q).split("P: ")
    return f"{head}rel: a^{k} b a^-{k} b^-1\nP: {tail}"


def coxeter_skg(n: int, p: list[int], p_plus: Optional[list[int]] = None,
                n_gen: Optional[int] = None) -> str:
    """.skg text of the Coxeter presentation of S_n on s1..s(n-1): every
    s_i^2, then (s_i s_j)^m for i < j (m = 3 if adjacent, else 2), with
    P generated by the listed s_i.  Given p_plus and n_gen, the surface
    is non-orientable with P+ = <s_i : i in p_plus> and n = s_(n_gen)."""
    lines = ["group: " + " ".join(f"s{i}" for i in range(1, n))]
    lines += [f"rel: s{i}^2" for i in range(1, n)]
    lines += ["rel: " + " ".join([f"s{i} s{j}"] * (3 if j == i + 1 else 2))
              for i in range(1, n) for j in range(i + 1, n)]
    lines.append("P: " + " , ".join(f"s{i}" for i in p))
    if p_plus is None:
        lines.append("orientable: true")
    else:
        lines += ["P+: " + " , ".join(f"s{i}" for i in p_plus),
                  f"n: s{n_gen}", "orientable: false"]
    return "\n".join(lines) + "\n"


def _cases_for(input: SurfaceKnotInput) -> tuple[tuple[CaseLabel, bool], ...]:
    """(case, core_oriented) for every case that fits the input."""
    return tuple(itertools.product(input.cases, (True, False)))


@lru_cache(maxsize=None)
def _resolved_groups():
    """(case, presentation, subgroups) per GROUP_CORPUS case; the subgroups
    are the trivial one, then the case's own, as tuples of words."""
    out = []
    for case in GROUP_CORPUS:
        parsed = parse_input(case.skg, label=case.name)
        subgroups = ((),) + tuple(
            tuple(parse_word(w, parsed.presentation) for w in words)
            for words in case.subgroups)
        out.append((case, parsed.presentation, subgroups))
    return tuple(out)


@lru_cache(maxsize=None)
def _resolved_inputs():
    out = []
    for case in INPUT_CORPUS:
        parsed = parse_input(case.skg, label=case.label)
        ctx = ClassifierContext.build(parsed)
        out.append((case, parsed, ctx))
    return tuple(out)


def _random_word(rng: random.Random, ngens: int, maxlen: int = 6) -> Word:
    length = rng.randint(0, maxlen)
    return free_reduce([(rng.randrange(ngens), rng.choice((1, -1)))
                        for _ in range(length)])


def _random_subgroup_word(rng: random.Random, gens, max_factors: int = 8) -> Word:
    gens = list(gens)
    if not gens:
        return Word()
    parts = []
    for _ in range(rng.randint(0, max_factors)):
        w = rng.choice(gens)
        parts.append(w if rng.random() < 0.5 else invert(w))
    return concat(*parts)


def _related_word(rng: random.Random, input: SurfaceKnotInput, case: CaseLabel,
                  core_oriented: bool, g: Word, moved: bool) -> Word:
    """A word the exact invariant cannot tell from g: a slide p g' q with
    p, q in the acting subgroup.  g' is g, or if moved, its inverse
    (unoriented cores) or n g n (Case 3 oriented cores)."""
    case3 = case is CaseLabel.CASE3
    acting = input.p_plus_generators if case3 else input.p_generators
    choices = [g]
    if not core_oriented:
        choices.append(invert(g))
    if case3 and core_oriented:
        choices.append(concat(input.n_word, g, input.n_word))
    return concat(_random_subgroup_word(rng, acting), choices[-1] if moved else g,
                  _random_subgroup_word(rng, acting))


def _sides(ctx: ClassifierContext):
    """(table, acting words) pairs to exercise: P, plus P+ when present."""
    sides = [(ctx.p_table, ctx.input.p_generators)]
    if ctx.p_plus_table is not None:
        sides.append((ctx.p_plus_table, ctx.input.p_plus_generators))
    return sides


# ---------------------------------------------------------------------------
# checks; each returns a detail string and raises AssertionError on failure
# ---------------------------------------------------------------------------

def check_corpus_models() -> str:
    for case, pres, subgroups in _resolved_groups():
        identity = tuple(range(len(case.model[0])))
        for rel in pres.relators:
            assert peval(rel, case.model) == identity, \
                f"{case.name}: model violates a relator"
        assert len(mulclose(case.model)) == case.order, \
            f"{case.name}: model order is not {case.order}"
    return f"{len(GROUP_CORPUS)} models satisfy their relators at the right order"


def check_enumeration_order_index() -> str:
    runs = 0
    for case, pres, subgroups in _resolved_groups():
        for words in subgroups:
            expected = case.order // len(subgroup_of(words, case.model))
            table = enumerate_cosets(pres, words)
            assert table.index == expected, \
                f"{case.name}: subgroup index {table.index} != {expected}"
            runs += 1
    return f"{runs} enumerations match brute-force orders and indices"


def check_enumeration_table_invariants() -> str:
    checked = 0
    for case, pres, subgroups in _resolved_groups():
        for words in subgroups:
            table = enumerate_cosets(pres, words)
            n = table.index
            for col_letter in [(i, s) for i in range(len(pres.generators))
                               for s in (1, -1)]:
                image = [table.trace(c, Word((col_letter,))) for c in range(1, n + 1)]
                assert sorted(image) == list(range(1, n + 1))
            for rel in pres.relators:
                assert all(table.trace(c, rel) == c for c in range(1, n + 1))
            for w in words:
                assert table.membership(w)
            assert table.witness(1).is_identity
            for c in range(1, n + 1):
                assert table.trace(1, table.witness(c)) == c
            checked += 1
    return f"{checked} tables satisfy permutation, closure and witness invariants"


def check_enumeration_determinism(seed: int) -> str:
    """A shuffled presentation and subgroup, and the presentation with its
    x^2 relators respelled so that no column is shared, give the same
    standardized table."""
    rng = random.Random(seed)
    compared = respelled = 0
    for case, pres, subgroups in _resolved_groups():
        unaliased = respell_squares(pres)
        letters = [(i, s) for i in range(len(pres.generators)) for s in (1, -1)]
        for words in subgroups:
            base = enumerate_cosets(pres, words)
            relators = list(pres.relators)
            rng.shuffle(relators)
            shuffled_pres = type(pres)(pres.generators, tuple(relators))
            shuffled_words = list(words)
            rng.shuffle(shuffled_words)
            others = [enumerate_cosets(shuffled_pres, shuffled_words)]
            if unaliased != pres:
                others.append(enumerate_cosets(unaliased, words))
                respelled += 1
            for other in others:
                assert base.index == other.index
                for c in range(1, base.index + 1):
                    assert base.witness(c) == other.witness(c)
                    for letter in letters:
                        assert base.trace(c, Word((letter,))) == other.trace(c, Word((letter,)))
            compared += 1
    return (f"{compared} shuffled and {respelled} respelled re-runs produced "
            "identical standardized tables")


def check_double_coset_partition() -> str:
    checked = 0
    for case, pres, subgroups in _resolved_groups():
        elements = mulclose(case.model)
        for words in subgroups:
            table = enumerate_cosets(pres, words)
            h_set = subgroup_of(words, case.model)
            brute, coset_of = double_coset_partition(elements, h_set)
            # the witness map must biject table cosets onto the model's cosets
            bridge = {c: coset_of[peval(table.witness(c), case.model)]
                      for c in range(1, table.index + 1)}
            assert len(set(bridge.values())) == table.index == \
                len(elements) // len(h_set), f"{case.name}: bad coset bridge"
            table_side = {frozenset(bridge[c] for c in orbit.orbit)
                          for orbit in dc_all(table, words)}
            assert table_side == brute, f"{case.name}: partitions differ"
            checked += 1
    # pinned sanity value: S3 with subgroup <a> has orbits of sizes 1 and 2
    _case, pres, subgroups = next(g for g in _resolved_groups() if g[0].name == "s3")
    a = subgroups[1]  # <a>, after the trivial subgroup
    sizes = sorted(o.orbit_size for o in dc_all(enumerate_cosets(pres, a), a))
    assert sizes == [1, 2], f"s3/<a> orbit sizes {sizes}"
    return f"{checked} double-coset partitions equal brute force"


def check_representative_independence(trials: int, seed: int) -> str:
    total = 0
    for k, (case, parsed, ctx) in enumerate(_resolved_inputs()):
        rng = random.Random(seed + k)
        ngens = len(parsed.presentation.generators)
        for table, acting in _sides(ctx):
            for _ in range(trials):
                g = _random_word(rng, ngens)
                p = _random_subgroup_word(rng, acting)
                q = _random_subgroup_word(rng, acting)
                assert dc_id(table, acting, concat(p, g, q)) == \
                    dc_id(table, acting, g), f"{case.label}: slide changed the class"
                total += 1
    return f"{total} random slides left dc_id unchanged"


def check_involutions() -> str:
    total = 0
    for case, parsed, ctx in _resolved_inputs():
        for table, acting in _sides(ctx):
            orbits = dc_all(table, acting)
            assert sum(o.orbit_size for o in orbits) == table.index
            for d in orbits:
                once = dc_invert(table, acting, d)
                assert once == dc_id(table, acting, invert(d.representative())), \
                    f"{case.label}: inversion disagrees with the inverted witness"
                assert dc_invert(table, acting, once) == d
                total += 1
        if ctx.p_plus_table is not None:
            table, acting, n = ctx.p_plus_table, parsed.p_plus_generators, parsed.n_word
            for d in dc_all(table, acting):
                once = dc_twist(table, acting, n, d, ctx.report)
                assert once == dc_id(table, acting, concat(n, d.representative(), n)), \
                    f"{case.label}: twist disagrees with n w n on the witness"
                twice = dc_twist(table, acting, n, once, ctx.report)
                assert twice == d, f"{case.label}: twist is not an involution"
                total += 1
    return (f"{total} double cosets verified against their witnesses "
            f"and under invert^2 = twist^2 = id")


def check_image_characterization() -> str:
    accepted = 0
    rejected = 0
    for case, parsed, ctx in _resolved_inputs():
        for label, core in _cases_for(parsed):
            for inv, _rep in enumerate_classes(ctx, label, core):
                assert image_member(ctx, label, core, inv), \
                    f"{case.label}: enumerated class rejected"
                accepted += 1
            witness = nonsurjectivity_witness(ctx, label, core)
            if witness is not None:
                assert not image_member(ctx, label, core, witness), \
                    f"{case.label}: witness not rejected"
                rejected += 1
    by_label = {case.label: ctx for case, _parsed, ctx in _resolved_inputs()}
    must_exist = (("t2", CaseLabel.CASE1, False),
                  ("d8-case3", CaseLabel.CASE3, True))
    for label, case_label, core in must_exist:
        assert nonsurjectivity_witness(by_label[label], case_label, core) is not None, \
            f"{label}: expected a non-surjectivity witness"
    return f"{accepted} classes accepted, {rejected} witnesses rejected"


def check_trivial_sanity() -> str:
    ctx = next(ctx for case, _p, ctx in _resolved_inputs()
               if case.label == "unknotted")
    n_cords = len(dc_all(ctx.p_table, ctx.input.p_generators))
    n_oriented = len(enumerate_classes(ctx, CaseLabel.CASE1, True))
    n_handles = len(enumerate_classes(ctx, CaseLabel.CASE1, False))
    assert n_cords == n_oriented == n_handles == 1, \
        (n_cords, n_oriented, n_handles)
    return "one class of cords, oriented-core handles and handles"


def check_classifier_count_oracle() -> str:
    checked = 0
    for case, parsed, ctx in _resolved_inputs():
        if case.model is None:
            continue
        elements = mulclose(case.model)
        case3 = not parsed.surface_orientable
        words = parsed.p_plus_generators if case3 else parsed.p_generators
        h_set = subgroup_of(words, case.model)
        n_img = peval(parsed.n_word, case.model) if case3 else None
        for label, core in _cases_for(parsed):
            brute_count = len(classifier_values(elements, h_set, case3, core, n_img))
            classes = enumerate_classes(ctx, label, core)
            assert len(classes) == brute_count, \
                f"{case.label} case{label.value} core={core}: " \
                f"{len(classes)} classes vs brute {brute_count}"
            checked += 1
    return f"{checked} class counts equal the element-level brute force"


def check_classifier_invariances(trials: int, seed: int) -> str:
    total = 0
    for k, (case, parsed, ctx) in enumerate(_resolved_inputs()):
        rng = random.Random(seed * 7 + k)
        ngens = len(parsed.presentation.generators)
        for label, core in _cases_for(parsed):
            acting = parsed.p_plus_generators if label is CaseLabel.CASE3 \
                else parsed.p_generators
            for _ in range(trials):
                g = _random_word(rng, ngens)
                p = _random_subgroup_word(rng, acting)
                q = _random_subgroup_word(rng, acting)
                base = handle_invariant(ctx, label, core, g)
                assert handle_invariant(ctx, label, core, concat(p, g, q)) == base
                if not core:
                    assert handle_invariant(ctx, label, core, invert(g)) == base
                if label is CaseLabel.CASE3 and core:
                    swapped = concat(parsed.n_word, g, parsed.n_word)
                    assert handle_invariant(ctx, label, core, swapped) == base
                total += 1
        if parsed.surface_orientable:
            for _ in range(trials // 4 + 1):
                g = _random_word(rng, ngens)
                for core in (True, False):
                    one = handle_invariant(ctx, CaseLabel.CASE1, core, g)
                    two = handle_invariant(ctx, CaseLabel.CASE2, core, g)
                    assert one.value == two.value
    return f"{total} invariance trials (slides, reversal, orientation swap)"


def check_equivalence_relation(seed: int) -> str:
    total = 0
    for k, (case, parsed, ctx) in enumerate(_resolved_inputs()):
        rng = random.Random(seed * 13 + k)
        ngens = len(parsed.presentation.generators)
        label, core = _cases_for(parsed)[0]
        sample = [_random_word(rng, ngens) for _ in range(6)]
        for g in sample:
            assert equivalent(ctx, label, core, g, g)
            total += 1
        for g1 in sample:
            for g2 in sample:
                forward = equivalent(ctx, label, core, g1, g2)
                assert forward == equivalent(ctx, label, core, g2, g1)
                if forward:
                    for g3 in sample:
                        if equivalent(ctx, label, core, g2, g3):
                            assert equivalent(ctx, label, core, g1, g3)
                total += 1
    return f"{total} reflexivity/symmetry/transitivity samples"


def check_equivalence_vs_brute(pairs: int, seed: int) -> str:
    """equivalent agrees with the element-level key and with comparing
    handle_invariant values, on seeded pairs about half of which are
    related by _related_word, in every case of every modelled input."""
    total = 0
    for k, (case, parsed, ctx) in enumerate(_resolved_inputs()):
        if case.model is None:
            continue
        rng = random.Random(seed * 17 + k)
        ngens = len(parsed.presentation.generators)
        case3 = not parsed.surface_orientable
        h_set = subgroup_of(parsed.p_plus_generators if case3 else parsed.p_generators,
                            case.model)
        n_img = peval(parsed.n_word, case.model) if case3 else None
        for label, core in _cases_for(parsed):
            for _ in range(pairs):
                g = _random_word(rng, ngens)
                draw = rng.random()
                h = _related_word(rng, parsed, label, core, g, moved=draw < 0.25) \
                    if draw < 0.5 else _random_word(rng, ngens)
                brute = [classifier_key(peval(w, case.model), h_set, case3, core, n_img)
                         for w in (g, h)]
                verdict = equivalent(ctx, label, core, g, h)
                where = f"{case.label} case{label.value} core={core}"
                assert verdict == (brute[0] == brute[1]), f"{where}: brute force differs"
                assert verdict == (handle_invariant(ctx, label, core, g)
                                   == handle_invariant(ctx, label, core, h)), \
                    f"{where}: the values differ"
                total += 1
    return f"{total} pairs: equivalent agrees with brute force and with the values"


def check_roundtrip() -> str:
    for case, parsed, _ctx in _resolved_inputs():
        again = parse_input(serialize(parsed), label=parsed.label)
        assert again == parsed, f"{case.label}: round trip changed the input"
    return f"{len(INPUT_CORPUS)} inputs survive serialize/parse round trips"


def check_validation_vs_brute() -> str:
    checked = 0
    for case, parsed, ctx in _resolved_inputs():
        if case.model is None or parsed.surface_orientable:
            continue
        h = subgroup_of(parsed.p_generators, case.model)
        h_plus = subgroup_of(parsed.p_plus_generators, case.model)
        n_img = peval(parsed.n_word, case.model)
        ok_d = all(pmul(pmul(n_img, peval(w, case.model)), pinv(n_img)) in h_plus
                   and pmul(pmul(pinv(n_img), peval(w, case.model)), n_img) in h_plus
                   for w in parsed.p_plus_generators)
        ok_e = pmul(n_img, n_img) in h_plus
        ratio = len(h) // len(h_plus)  # |P : P+| when P+ <= P
        named = {c.name: c.status for c in ctx.report.checks}
        assert (named["twist_normalizes_p_plus"] == "pass") == ok_d
        assert (named["n_squared_in_p_plus"] == "pass") == ok_e
        assert (named["p_plus_index_in_p"] == "pass") == (h_plus <= h and ratio <= 2)
        details = {c.name: c.detail for c in ctx.report.checks}
        if h_plus <= h:
            assert details["p_plus_index_in_p"] == f"|P : P+| = {ratio}"
        checked += 1
    for label, skg, failing in BROKEN_INPUTS:
        report = validate(parse_input(skg, label=label))
        named = {c.name: c.status for c in report.checks}
        assert named[failing] == "fail", f"{label}: expected {failing} to fail"
    return f"{checked} validated inputs and {len(BROKEN_INPUTS)} broken ones agree with brute force"


def check_quotient_soundness(pairs: int, seed: int, max_degree: int = 3) -> str:
    inputs = _resolved_inputs()
    total = 0
    while total < pairs:
        case, parsed, ctx = inputs[total % len(inputs)]
        rng = random.Random(seed * 31 + total)
        ngens = len(parsed.presentation.generators)
        cases = _cases_for(parsed)
        label, core = cases[0] if total % 2 == 0 else cases[-1]
        g1 = _random_word(rng, ngens)
        draw = rng.random()
        if draw < 0.5:
            # half of these move g by the inverse or the twist first
            g2 = _related_word(rng, parsed, label, core, g1, moved=draw < 0.25)
        else:
            g2 = _random_word(rng, ngens)
        exact_equal = equivalent(ctx, label, core, g1, g2)
        verdict = quotient_separate(parsed, label, core, g1, g2,
                                    max_degree=max_degree)
        if exact_equal:
            assert verdict is SeparationVerdict.UNKNOWN, \
                f"{case.label}: separated an equivalent pair"
        else:
            # agreement direction: DISTINCT must imply exact inequivalence
            assert verdict in (SeparationVerdict.UNKNOWN, SeparationVerdict.DISTINCT)
        total += 1
    return f"{total} pairs; no equivalent pair was ever separated"


def check_quotient_determinism(seed: int, max_degree: int = 5) -> str:
    """Repeated searches and verdicts agree, and find_homomorphisms lists
    what the lexicographic filter, which knows nothing of conjugate
    partners, does, in order, under the default cap: on a seeded 2-bridge
    knot, whose Schubert relator makes b conjugate to a, and on the
    Coxeter presentation of S5, whose s_i are their own inverses and all
    join s_1, at every degree up to max_degree; and on every
    GROUP_CORPUS group up to degree 4, where a generator with no x^2
    relator (b of a4 = <a, b | a^2, b^3, (a b)^3>) must join no other."""
    rng = random.Random(seed)
    p = rng.choice(range(5, 14, 2))
    q = rng.choice([q for q in range(-p + 1, p) if q % 2 and gcd(p, abs(q)) == 1])
    subjects = [(f"b({p},{q})", parse_input(two_bridge_skg(p, q)).presentation,
                 max_degree),
                ("S5-coxeter", parse_input(coxeter_skg(5, [1])).presentation,
                 max_degree)]
    subjects += [(case.name, pres, 4) for case, pres, _subgroups in _resolved_groups()]
    for name, pres, top in subjects:
        for degree in range(1, top + 1):
            homs = find_homomorphisms(pres, degree)
            assert [h.images for h in homs] == lexicographic_filter(pres, degree, HOM_LIMIT), \
                f"{name}: the images in S_{degree} differ from the lexicographic filter"
    s3 = next(g for g in _resolved_groups() if g[0].name == "s3")
    homs_a = find_homomorphisms(s3[1], 3)
    homs_b = find_homomorphisms(s3[1], 3)  # each call searches afresh
    assert homs_a == homs_b
    # each parse is a fresh input, whose listings are searched afresh
    t2, twin = (parse_input("group: t\nP: t^2\norientable: true") for _ in range(2))
    g1 = parse_word("t", t2.presentation)
    g2 = Word()
    v1 = quotient_separate(t2, CaseLabel.CASE1, True, g1, g2, max_degree=2)
    v2 = quotient_separate(twin, CaseLabel.CASE1, True, g1, g2, max_degree=2)
    assert v1 == v2 == SeparationVerdict.DISTINCT
    return "repeated searches returned identical homomorphisms and verdicts; " \
        f"b({p},{q}) and S5-coxeter matched the lexicographic filter at degrees " \
        f"1..{max_degree}, {len(subjects) - 2} corpus groups at degrees 1..4"


def check_infinite_index_certificate() -> str:
    """No finite-index subgroup gets a certificate of infinite index:
    every GROUP_CORPUS subgroup (the trivial one too) and the P and P+ of
    every INPUT_CORPUS input, over every image, uncapped, of the kinds a
    build reads before it enumerates: _search's in S_d up to the last of
    CERTIFICATE_DEGREES, and _affine_images' for m in AFFINE_DEGREES.  Both
    come up to conjugacy (the affine ones by x -> u x + t), so each is read
    at every base point (u x fixes 0, so it keeps the stabilizer of 0)."""
    subjects = [(case.name, pres, words)
                for case, pres, subgroups in _resolved_groups() for words in subgroups]
    for case, parsed, _ctx in _resolved_inputs():
        subjects.append((case.label, parsed.presentation, parsed.p_generators))
        if parsed.p_plus_generators is not None:
            subjects.append((case.label, parsed.presentation,
                             parsed.p_plus_generators))
    images = affine = 0
    for name, pres, words in subjects:
        homs = [hom for d in range(1, CERTIFICATE_DEGREES[-1] + 1)
                for hom in _search(pres, d)]
        sd = len(homs)
        homs += [hom for m in AFFINE_DEGREES for hom in _affine_images(pres, m)]
        for hom in homs:
            for point in range(hom.degree):
                assert index_certificate(rebased(hom, point), pres, words) is None, \
                    f"{name}: certificate of infinite index for a finite-index " \
                    f"subgroup from {hom.images} at point {point}"
        images += len(homs)
        affine += len(homs) - sd
    return (f"{images} images ({affine} affine) of {len(subjects)} finite-index "
            f"subgroups, no certificate of infinite index")


def _check_class_texts(record: dict, ctx: ClassifierContext) -> int:
    """Parse every representative text of a `classes` record back, with
    parse_word, and trace it: each must lie in the double coset listed
    beside it, and a class's own representative in the first double
    coset of its value.  This checks the texts, built in one walk of
    the witness tree, without format_word.  Returns how many it read."""
    pres = ctx.input.presentation
    dc = local_oriented_cord_invariant if record["case"] == 3 else oriented_cord_invariant

    def leaves(value) -> list:
        if "pair" in value:
            return [d for v in value["pair"] for d in leaves(v)]
        return [value]

    checked = 0
    for entry in record["classes"]:
        ids = leaves(entry["value"]["value"])
        for text, canonical in ([(entry["representative"], ids[0]["canonical"])]
                                + [(d["representative"], d["canonical"]) for d in ids]):
            got = dc(ctx, parse_word(text, pres)).canonical
            assert got == canonical, (f"{ctx.input.label}: {text!r} traces into "
                                      f"double coset {got}, not {canonical}")
            checked += 1
    return checked


def check_record_determinism() -> str:
    compared = texts = 0
    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sink):
        for case, parsed, ctx in _resolved_inputs():
            path = os.path.join(tmp, case.label + ".skg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(case.skg + "\n")
            case_no = "3" if not parsed.surface_orientable else "1"
            commands = (
                ["classes", path, "--case", case_no, "--core-oriented"],
                ["classes", path, "--case", case_no],
                ["invariant", path, "--case", case_no, "--cord", case.sample_cord],
            )
            for argv in commands:
                blobs = []
                for run_idx in (0, 1):
                    records = os.path.join(tmp, f"out{run_idx}.jsonl")
                    code = cli.run(argv + ["--records", records])
                    assert code == 0, f"{case.label}: {argv} exited {code}"
                    with open(records, "rb") as fh:
                        blobs.append(fh.read())
                assert blobs[0] == blobs[1], f"{case.label}: records differ"
                compared += 1
                if argv[0] == "classes":
                    texts += _check_class_texts(json.loads(blobs[0]), ctx)
    return (f"{compared} command reruns produced byte-identical records; "
            f"{texts} class representative texts traced into their double cosets")


SEED = 20260809

# every oracle property that no criterion test runs, in run order;
# test_acceptance runs each as a test of its own
CHECKS: tuple[tuple[str, Callable[[], str]], ...] = (
    ("corpus-models", check_corpus_models),
    ("enumeration-table-invariants", check_enumeration_table_invariants),
    ("enumeration-determinism", lambda: check_enumeration_determinism(SEED)),
    ("involutions", check_involutions),
    ("image-characterization", check_image_characterization),
    ("trivial-group-sanity", check_trivial_sanity),
    ("classifier-count-oracle", check_classifier_count_oracle),
    ("classifier-invariances", lambda: check_classifier_invariances(50, SEED)),
    ("equivalence-relation", lambda: check_equivalence_relation(SEED)),
    ("equivalence-vs-brute", lambda: check_equivalence_vs_brute(24, SEED)),
    ("input-roundtrip", check_roundtrip),
    ("validation-vs-brute", check_validation_vs_brute),
    ("quotient-determinism", lambda: check_quotient_determinism(SEED)),
    ("infinite-index-certificate", check_infinite_index_certificate),
    ("record-determinism", check_record_determinism),
)

