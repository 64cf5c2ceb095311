"""Double cosets H\\G/H over a coset table, with the two induced maps.

A double coset HgH is represented as the orbit of the H-coset of g under
right multiplication by the acting subgroup's generators.  With the
standardized tables this gives a canonical identifier (the minimal coset
index in the orbit), stable across runs.  The package only ever uses
symmetric double cosets: the acting words generate the same subgroup the
table was enumerated against (P or P+).

Two maps descend to double cosets and are computed through witness words:
inversion (core reversal), and the twist g -> n g n, well defined once
the validation checks for n have passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .coset_enumeration import CosetTable
from .errors import PreconditionUnverified, TableMismatch
from .knot_input import ValidationReport
from .word_algebra import Word, concat, invert


@dataclass(frozen=True)
class DoubleCosetId:
    """Canonical identifier of one double coset over a fixed table.

    Two ids over the same table are equal iff their canonical (minimal)
    coset indices are equal; ids over different tables never compare
    equal.
    """

    table: CosetTable
    orbit: tuple[int, ...]  # sorted coset indices, closed under the action

    def __post_init__(self):
        if not self.orbit or list(self.orbit) != sorted(set(self.orbit)):
            raise ValueError("orbit must be a nonempty sorted set of cosets")

    @property
    def canonical(self) -> int:
        return self.orbit[0]

    @property
    def orbit_size(self) -> int:
        return len(self.orbit)

    def representative(self) -> Word:
        """Witness word of the canonical coset."""
        return self.table.witness(self.canonical)

    def sort_key(self):
        return (self.canonical,)

    def __repr__(self):
        return f"DoubleCosetId(canonical={self.canonical}, orbit_size={self.orbit_size})"


PairElement = Union[DoubleCosetId, "UnorderedPair"]


@dataclass(frozen=True)
class UnorderedPair:
    """Two elements compared without order; nested pairs sort lexicographically."""

    first: PairElement
    second: PairElement

    def __post_init__(self):
        if self.second.sort_key() < self.first.sort_key():
            first, second = self.second, self.first
            object.__setattr__(self, "first", first)
            object.__setattr__(self, "second", second)

    @property
    def elements(self) -> tuple[PairElement, PairElement]:
        return (self.first, self.second)

    def sort_key(self):
        return (self.first.sort_key(), self.second.sort_key())

    def __repr__(self):
        return f"{{{self.first!r}, {self.second!r}}}"


def _require_same_table(table: CosetTable, d: DoubleCosetId) -> None:
    if d.table is not table:
        raise TableMismatch("double coset belongs to a different table")


def dc_id(table: CosetTable, acting: Sequence[Word], g: Word) -> DoubleCosetId:
    """Double coset of g: orbit of its coset under the acting subgroup.

    The acting words must lie in the table's subgroup for the result to
    be a double coset of that subgroup; then the output is unchanged
    under g -> p g q with p, q in the subgroup.
    """
    start = table.trace(1, g)
    moves = [w for w in acting if w] + [invert(w) for w in acting if w]
    seen = {start}
    stack = [start]
    while stack:
        c = stack.pop()
        for w in moves:
            d = table.trace(c, w)
            if d not in seen:
                seen.add(d)
                stack.append(d)
    return DoubleCosetId(table, tuple(sorted(seen)))


def dc_all(table: CosetTable, acting: Sequence[Word]) -> tuple[DoubleCosetId, ...]:
    """Partition of all cosets 1..index into double-coset orbits.

    Returned sorted by canonical index; orbit sizes sum to the table's
    index.
    """
    n = table.index
    parent = list(range(n + 1))

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    for w in acting:
        if not w:
            continue
        for c in range(1, n + 1):
            a, b = find(c), find(table.trace(c, w))
            if a != b:
                if a > b:
                    a, b = b, a
                parent[b] = a
    orbits: dict[int, list[int]] = {}
    for c in range(1, n + 1):
        orbits.setdefault(find(c), []).append(c)
    return tuple(DoubleCosetId(table, tuple(members))
                 for _, members in sorted(orbits.items()))


def dc_invert(table: CosetTable, acting: Sequence[Word],
              d: DoubleCosetId) -> DoubleCosetId:
    """Image of the double coset under g -> g^-1; an involution."""
    _require_same_table(table, d)
    return dc_id(table, acting, invert(table.witness(d.canonical)))


def dc_twist(table: CosetTable, acting: Sequence[Word], n: Word,
             d: DoubleCosetId, report: ValidationReport) -> DoubleCosetId:
    """Image of the double coset under g -> n g n.

    Requires a validation report whose twist checks passed: n must
    normalize the subgroup (so the map is well defined on double cosets)
    and n^2 must lie in it (so the map is an involution).
    """
    if report is None or not report.twist_verified:
        raise PreconditionUnverified(
            "the twist map needs a validation report with the "
            "normalization and n^2 checks passed")
    _require_same_table(table, d)
    return dc_id(table, acting, concat(n, table.witness(d.canonical), n))
