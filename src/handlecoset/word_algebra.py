"""Freely reduced words over a finite generator alphabet.

Every group element handled by this package is a word: a sequence of
signed generator letters with no adjacent x x^-1 pair.  Letters store
generator indices, not names; names live only in the presentation, so
words compare and hash cheaply.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

Letter = tuple[int, int]  # (generator index, sign in {+1, -1})

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class GeneratorSymbol:
    """A named generator; names match [A-Za-z][A-Za-z0-9_]*."""

    name: str

    def __post_init__(self):
        if not _NAME.match(self.name):
            raise ValueError(f"invalid generator name: {self.name!r}")


@dataclass(frozen=True)
class Word:
    """A freely reduced word; the empty word is the identity element."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        # one pass; a bad letter anywhere wins over a cancelling pair
        reduced = True
        j = t = None  # the previous letter
        for i, s in self.letters:
            if i < 0 or s not in (1, -1):
                raise ValueError(f"bad letter {(i, s)!r}")
            if i == j and s == -t:
                reduced = False
            j, t = i, s
        if not reduced:
            raise ValueError("word is not freely reduced")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def max_generator_index(self) -> int:
        """Largest generator index used, or -1 for the empty word."""
        return max((i for i, _ in self.letters), default=-1)


def free_reduce(letters: Iterable[Letter]) -> Word:
    """Cancel adjacent inverse pairs until none remain.

    A single stack pass; free reduction is confluent, so the result does
    not depend on cancellation order.
    """
    out: list[Letter] = []
    for idx, sign in letters:
        if out and out[-1][0] == idx and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((idx, sign))
    return Word(tuple(out))


def invert(w: Word) -> Word:
    """Reverse the letters and flip every sign."""
    return Word(tuple((i, -s) for i, s in reversed(w.letters)))


def concat(*words: Word) -> Word:
    """Freely reduced concatenation of any number of words."""
    return free_reduce(letter for w in words for letter in w.letters)


def power(w: Word, k: int) -> Word:
    """k-fold power of w; negative k uses the inverse, k = 0 is the identity."""
    base = w if k >= 0 else invert(w)
    return concat(*([base] * abs(k)))


@dataclass(frozen=True)
class GroupPresentation:
    """A finite presentation: generator symbols plus freely reduced relators.

    Relators must be nonempty; generator names must be pairwise distinct.
    """

    generators: tuple[GeneratorSymbol, ...]
    relators: tuple[Word, ...] = ()

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a presentation needs at least one generator")
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate generator names: {', '.join(dupes)}")
        n = len(self.generators)
        for rel in self.relators:
            if rel.is_identity:
                raise ValueError("relators must be nonempty")
            if rel.max_generator_index() >= n:
                raise ValueError("relator uses a generator index outside the presentation")

    @property
    def generator_names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)
