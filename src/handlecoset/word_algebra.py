"""Freely reduced words over a finite generator alphabet.

Every group element handled by this package is a word: a sequence of
signed generator letters with no adjacent x x^-1 pair.  Letters store
generator indices, not names; names live only in the presentation, so
words compare and hash cheaply.

This module owns the encoding of letters as action columns: a word is
stored as its columns (Word.columns), column_of and letter_of turn a
letter into its column and back, and the parser, free_reduce, invert,
concat, power and coset-table witnesses build their words from columns.
squared_generator is the one rule by which a relator x^2 or x^-2 makes
x its own inverse.  It also owns the permutation steps that coset tables
and finite images share: act reads a word's columns over many points, on
a table's 1-based lists or an image's 0-based tuples, one perm_compose
per column; root names an orbit by its least point; and
perm_inverse_and_type, the one reader of cycle types, reads a
permutation's inverse and cycle type off one walk of its cycles.
"""

from __future__ import annotations

import re
from operator import itemgetter, xor
from typing import Iterable, Iterator, Optional, Sequence

Letter = tuple[int, int]  # (generator index, sign in {+1, -1})
Perm = tuple[int, ...]  # p[x] is the image of point x

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class _Frozen:
    """Base of the package's immutable value types.

    A subclass names its constructor's parameters in _fields and sets
    its fields with object.__setattr__ in __init__.  One rule gives ==,
    hash, pickle and copy: _key, the tuple of the _fields' values, is
    what == and hash compare and what the constructor is called with to
    rebuild an instance.  Generators, words and presentations spell _key
    out, reading their fields directly, where the getattr loop would
    cost.  Assigning or deleting any attribute raises AttributeError, and
    repr shows the _fields.  These are plain classes, not frozen
    dataclasses, because every CLI process imports the package:
    dataclasses imports inspect and execs each class's methods, which
    took about 80% of the package's import time.  (A NamedTuple costs a
    sixth of a frozen dataclass at import.)
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

    A word is stored as its action columns alone, one per letter: 2i for
    (i, +1) and 2i + 1 for (i, -1), so col ^ 1 is the inverse letter's.
    Coset tables and finite images read a word through them.  letters is
    a view decoded from the columns, and repr, hash and pickle read the
    word through it; == compares the columns, which say the same.  The
    constructor checks the letters it is given; the functions below that
    make words reduce their columns (_of), with no check."""

    _fields = ("letters",)
    __slots__ = ("columns",)

    def __init__(self, letters: tuple[Letter, ...] = ()):
        # every letter first: a bad letter anywhere wins over a cancelling pair
        columns = tuple(map(column_of, letters))
        if any(a == b ^ 1 for a, b in zip(columns, columns[1:])):
            raise ValueError("word is not freely reduced")
        object.__setattr__(self, "columns", columns)

    @classmethod
    def _of(cls, columns: tuple[int, ...]) -> "Word":
        """The word of freely reduced columns, unchecked."""
        w = object.__new__(cls)
        object.__setattr__(w, "columns", columns)
        return w

    @property
    def letters(self) -> tuple[Letter, ...]:
        return tuple(map(letter_of, self.columns))

    def _key(self):
        return (self.letters,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.columns == other.columns

    __hash__ = _Frozen.__hash__

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Letter]:
        return map(letter_of, self.columns)

    def __bool__(self) -> bool:
        return bool(self.columns)

    @property
    def is_identity(self) -> bool:
        return not self.columns

    def max_generator_index(self) -> int:
        """Largest generator index used, or -1 for the empty word."""
        return max(self.columns, default=-1) >> 1


def column_of(letter: Letter) -> int:
    """The action column of a letter (i, s).  A letter is a pair of ints,
    the generator index i >= 0 and the sign s = +-1; anything else is a
    ValueError."""
    try:
        i, s = letter
    except (TypeError, ValueError):
        raise ValueError(f"bad letter {letter!r}") from None
    if type(i) is not int or i < 0 or type(s) is not int or s not in (1, -1):
        raise ValueError(f"bad letter {letter!r}")
    return 2 * i + (s < 0)


def letter_of(col: int) -> Letter:
    """The letter (i, s) of action column col, the inverse of column_of."""
    return col >> 1, -1 if col & 1 else 1


def reduce_columns(columns: Iterable[int]) -> Word:
    """The word of the action columns once adjacent inverse pairs are
    cancelled, in a single stack pass; free reduction is confluent, so
    the result does not depend on cancellation order.  Columns with no
    adjacent pair col, col ^ 1 (no neighbours whose xor is 1, a check
    at C speed) skip the pass.  The columns are not checked."""
    columns = list(columns)
    if 1 not in map(xor, columns, columns[1:]):
        return Word._of(tuple(columns))
    out: list[int] = []
    for col in columns:
        if out and out[-1] == col ^ 1:
            out.pop()
        else:
            out.append(col)
    return Word._of(tuple(out))


def free_reduce(letters: Iterable[Letter]) -> Word:
    """Cancel adjacent inverse pairs until none remain; each letter is
    checked as the constructor checks it."""
    return reduce_columns(map(column_of, letters))


def invert(w: Word) -> Word:
    """Reverse the letters and flip every sign."""
    return Word._of(tuple([col ^ 1 for col in reversed(w.columns)]))


def concat(*words: Word) -> Word:
    """Freely reduced concatenation of any number of words."""
    return reduce_columns(col for w in words for col in w.columns)


def power(w: Word, k: int) -> Word:
    """k-fold power of w; negative k uses the inverse, k = 0 is the identity."""
    base = w if k >= 0 else invert(w)
    return concat(*([base] * abs(k)))


def squared_generator(w: Word) -> Optional[int]:
    """i when w is x_i^2 or x_i^-2, a relator that makes x_i its own
    inverse; None for any other word."""
    c = w.columns
    return c[0] >> 1 if len(c) == 2 and c[0] == c[1] else None


def act(action: Sequence, columns: Iterable[int], points: Iterable[int]) -> tuple[int, ...]:
    """The images of the points, in order, under a word's columns read
    left to right (Word.columns), where action[col][x] is the image of x
    under column col: the points composed with each column in turn."""
    images = tuple(points)
    for col in columns:
        images = perm_compose(images, action[col])
    return images


def perm_compose(p: Perm, q: Perm) -> Perm:
    """Apply p, then q (matching left-to-right word evaluation): q read at
    every entry of p by one itemgetter, which returns a lone item bare."""
    if len(p) > 1:
        return itemgetter(*p)(q)
    return tuple(q[x] for x in p)


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


def perm_inverse_and_type(p: Perm) -> tuple[Perm, tuple[int, ...]]:
    """perm_inverse(p) and p's cycle type, its cycle lengths in increasing
    order, from one walk of p's cycles: each step x -> p[x] records x as
    the inverse's image of p[x]."""
    inverse = [-1] * len(p)
    lengths = []
    for start in range(len(p)):
        if inverse[start] < 0:
            prev, x, length = start, p[start], 1
            while x != start:
                inverse[x] = prev
                prev, x, length = x, p[x], length + 1
            inverse[start] = prev
            lengths.append(length)
    lengths.sort()
    return tuple(inverse), tuple(lengths)


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

    Relators must be nonempty; generator names must be pairwise distinct."""

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
