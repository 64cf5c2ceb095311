"""Freely reduced words over a finite generator alphabet.

Every group element handled by this package is a word: a sequence of
signed generator letters with no adjacent x x^-1 pair.  Letters store
generator indices, not names; names live only in the presentation, so
words compare and hash cheaply.

This module owns the encoding of letters as action columns: a word
compiles its letters to columns once, when it is built (Word.columns),
and the parser, invert and coset-table witnesses build their words from
one shared (i, s) pair per column (column_letters).  It also owns the
permutation steps that coset tables and finite images share: act reads
a word's columns over many points, on a table's 1-based lists or an
image's 0-based tuples, and root names an orbit by its least point.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

Letter = tuple[int, int]  # (generator index, sign in {+1, -1})
Perm = tuple[int, ...]  # p[x] is the image of point x

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class _Frozen:
    """Base of the package's immutable value types.

    A subclass names its constructor's parameters in _fields and sets
    its fields with object.__setattr__ in __init__.  One rule gives ==,
    hash, pickle and copy: _key, the tuple of the _fields' values, is
    what == and hash compare and what the constructor is called with to
    rebuild an instance.  Only the classes hashed as cache keys
    (generators, words, presentations) spell _key out, reading their
    fields directly, where the getattr loop would cost.  Assigning or
    deleting any attribute raises AttributeError, and repr shows the
    _fields.  These are plain classes, not frozen dataclasses, because
    every CLI process imports the package: dataclasses imports inspect
    and execs each class's methods, which took about 80% of the
    package's import time.  (A NamedTuple costs a sixth of a frozen
    dataclass at import.)
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return type(self), self._key()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class GeneratorSymbol(_Frozen):
    """A named generator; names match [A-Za-z][A-Za-z0-9_]*."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        if not _NAME.match(name):
            raise ValueError(f"invalid generator name: {name!r}")
        object.__setattr__(self, "name", name)

    def _key(self):
        return (self.name,)


class Word(_Frozen):
    """A freely reduced word; the empty word is the identity element.

    columns holds each letter's action column, compiled once here: 2i
    for (i, +1) and 2i + 1 for (i, -1), so col ^ 1 is the inverse
    letter's.  Coset tables and finite images read a word through it.
    It follows from letters, so repr, == and hash leave it out, and
    pickle rebuilds it through the constructor."""

    _fields = ("letters",)
    __slots__ = _fields + ("columns",)

    def __init__(self, letters: tuple[Letter, ...] = ()):
        # one pass; a bad letter anywhere wins over a cancelling pair
        reduced = True
        j = t = None  # the previous letter
        columns = []
        for i, s in letters:
            if i < 0 or s not in (1, -1):
                raise ValueError(f"bad letter {(i, s)!r}")
            if i == j and s == -t:
                reduced = False
            j, t = i, s
            columns.append(2 * i + (s < 0))
        if not reduced:
            raise ValueError("word is not freely reduced")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "columns", tuple(columns))

    def _key(self):
        return (self.letters,)

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
        return max(self.columns, default=-1) >> 1


# the letter of each action column, one pair shared by every word built
# from it; a fresh pair costs about 64 B, eight times its slot in a word.
# It grows a generator at a time, to the largest alphabet parsed or
# enumerated, so col < len(table) implies col ^ 1 < len(table)
_LETTERS: list[Letter] = []


def column_letters(ncols: int) -> list[Letter]:
    """The shared letter of every action column below ncols, indexed by
    column; callers only read it.  The table grows into a new list, never
    in place, so a thread that reads or grows it meanwhile still holds a
    correct table."""
    global _LETTERS
    table = _LETTERS
    if len(table) < ncols:
        table = _LETTERS = table + [(i, s)
                                    for i in range(len(table) >> 1, (ncols + 1) >> 1)
                                    for s in (1, -1)]
    return table


def shared_letter(i: int, s: int) -> Letter:
    """The shared pair (i, s), for a generator index i >= 0 and s = +-1."""
    col = 2 * i + (s < 0)
    table = _LETTERS
    if col >= len(table):
        table = column_letters(col + 1)
    return table[col]


def free_reduce(letters: Iterable[Letter]) -> Word:
    """Cancel adjacent inverse pairs until none remain.

    A single stack pass; free reduction is confluent, so the result does
    not depend on cancellation order.  The word keeps the letter objects
    it is given.
    """
    out: list[Letter] = []
    for letter in letters:
        idx, sign = letter
        if out and out[-1][0] == idx and out[-1][1] == -sign:
            out.pop()
        else:
            out.append(letter)
    return Word(tuple(out))


def invert(w: Word) -> Word:
    """Reverse the letters and flip every sign.  The letters are the
    shared ones wherever the table reaches, and it is not grown here: a
    word may name any generator index."""
    columns, table = w.columns, _LETTERS
    if max(columns, default=-1) < len(table):
        return Word(tuple([table[col ^ 1] for col in reversed(columns)]))
    return Word(tuple((i, -s) for i, s in reversed(w.letters)))


def concat(*words: Word) -> Word:
    """Freely reduced concatenation of any number of words."""
    return free_reduce(letter for w in words for letter in w.letters)


def power(w: Word, k: int) -> Word:
    """k-fold power of w; negative k uses the inverse, k = 0 is the identity."""
    base = w if k >= 0 else invert(w)
    return concat(*([base] * abs(k)))


def act(action: Sequence, columns: Iterable[int], points: Iterable[int]) -> list[int]:
    """The images of the points, in order, under a word's columns read
    left to right (Word.columns), where action[col][x] is the image of x
    under column col."""
    images = list(points)
    for col in columns:
        images = list(map(action[col].__getitem__, images))
    return images


def perm_compose(p: Perm, q: Perm) -> Perm:
    """Apply p, then q (matching left-to-right word evaluation)."""
    return tuple(map(q.__getitem__, p))


def perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def perm_power(p: Perm, k: int) -> Perm:
    """p applied k >= 0 times, by repeated squaring: at most 2 log2(k)
    compositions, and k - 1 of them for k <= 3."""
    if k < 2:
        return tuple(p) if k else tuple(range(len(p)))
    half = perm_power(perm_compose(p, p), k >> 1)
    return perm_compose(half, p) if k & 1 else half


def cycle_type(p: Perm) -> tuple[int, ...]:
    """The cycle lengths of p, in increasing order."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if not seen[start]:
            x, length = start, 0
            while not seen[x]:
                seen[x] = True
                x, length = p[x], length + 1
            lengths.append(length)
    lengths.sort()
    return tuple(lengths)


def root(parent: list[int], c: int) -> int:
    """c's root in a union-find forest, pointing c's path straight at it.
    Callers link a larger root under a smaller, so a root is its set's least."""
    r = c
    while parent[r] != r:
        r = parent[r]
    while parent[c] != r:
        parent[c], c = r, parent[c]
    return r


class GroupPresentation(_Frozen):
    """A finite presentation: generator symbols plus freely reduced relators.

    Relators must be nonempty; generator names must be pairwise distinct.
    """

    __slots__ = _fields = ("generators", "relators")

    def __init__(self, generators: tuple[GeneratorSymbol, ...],
                 relators: tuple[Word, ...] = ()):
        if not generators:
            raise ValueError("a presentation needs at least one generator")
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate generator names: {', '.join(dupes)}")
        n = len(generators)
        for rel in relators:
            if rel.is_identity:
                raise ValueError("relators must be nonempty")
            if rel.max_generator_index() >= n:
                raise ValueError("relator uses a generator index outside the presentation")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relators", relators)

    def _key(self):
        return (self.generators, self.relators)

    @property
    def generator_names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)
