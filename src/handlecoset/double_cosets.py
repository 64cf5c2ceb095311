"""Double cosets H\\G/H over a coset table, with the two induced maps.

A double coset HgH is the orbit of the H-coset of g under right
multiplication by the generators H's table was enumerated against.  The
table owns the orbits and both maps (CosetTable.labels, orbit_sizes,
inverse and twist); this module names them.  A double coset is named by
its canonical coset, the minimal coset of its orbit: with the
standardized tables a canonical identifier, stable across runs.  dc_id
is one trace plus one lookup; the dc_* functions name H by those acting
words and refuse any others.

Two maps descend to double cosets: inversion (core reversal), and the
twist g -> n g n, well defined once the validation checks for n have
passed (require_twist_verified).

nest_slots is the one definition of an invariant value's shape: how its
double cosets nest in unordered pairs; finite_quotient reads a cord's
slots in a finite image off its slot calls.  A value is held as a key, its
canonical integers nested by key_pair, and two keys over one table are
equal exactly when the values are.  key_view builds the display view of
a key, DoubleCosetIds paired by UnorderedPair, for repr and copies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from .coset_enumeration import CosetTable
from .errors import PreconditionUnverified, TableMismatch
from .word_algebra import Word, _Frozen

if TYPE_CHECKING:
    from .handle_classifier import ValidationReport


def _check(table: CosetTable, acting: Sequence[Word],
           d: Optional[DoubleCosetId] = None) -> None:
    """Refuse dc_* arguments that do not name the table's own double
    cosets: a d over another table, or other acting words."""
    if d is not None and d.table is not table:
        raise TableMismatch("double coset belongs to a different table")
    if tuple(acting) != table.subgroup_generators:
        raise ValueError("acting words must be the table's subgroup generators")


class DoubleCosetId(_Frozen):
    """Canonical identifier of one double coset over a fixed table.

    Two ids over the same table are equal iff their canonical (minimal)
    coset indices are equal; ids over different tables never compare
    equal.
    """

    __slots__ = _fields = ("table", "canonical", "orbit_size")

    def __init__(self, table: CosetTable, canonical: int, orbit_size: int):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "orbit_size", orbit_size)

    @property
    def orbit(self) -> tuple[int, ...]:
        """The orbit's cosets in increasing order (a scan of the labels)."""
        labels = self.table.labels
        return tuple(c for c in range(1, len(labels)) if labels[c] == self.canonical)

    def representative(self) -> Word:
        """Witness word of the canonical coset."""
        return self.table.witness(self.canonical)

    def sort_key(self) -> int:
        return self.canonical

    def __eq__(self, other):
        if not isinstance(other, DoubleCosetId):
            return NotImplemented
        return self.canonical == other.canonical and self.table is other.table

    def __hash__(self):
        return hash(self.canonical)

    def __repr__(self):
        return f"DoubleCosetId(canonical={self.canonical}, orbit_size={self.orbit_size})"


PairElement = Union[DoubleCosetId, "UnorderedPair"]


class UnorderedPair(_Frozen):
    """Two elements compared without order; nested pairs sort lexicographically."""

    __slots__ = _fields = ("first", "second")

    def __init__(self, first: PairElement, second: PairElement):
        try:
            swap = second.sort_key() < first.sort_key()
        except TypeError:  # a double coset against a pair, at some depth
            raise ValueError(f"pair elements differ in shape: {_shape(first)} "
                             f"and {_shape(second)}") from None
        if swap:
            first, second = second, first
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    def sort_key(self):
        return (self.first.sort_key(), self.second.sort_key())

    def __repr__(self):
        return f"{{{self.first!r}, {self.second!r}}}"


def _shape(element: PairElement) -> str:
    if isinstance(element, DoubleCosetId):
        return "D"
    return f"{{{_shape(element.first)}, {_shape(element.second)}}}"


def key_pair(a, b):
    """The one pairing of values: the sorted tuple of two keys (canonical
    integers, or keys of pairs), which nest_slots nests with.
    UnorderedPair sorts the same way, so a view's sort_key() is the key
    it was built from."""
    return (a, b) if a <= b else (b, a)


def key_leaves(key) -> tuple[int, ...]:
    """A key's canonical integers, left to right."""
    return (key,) if isinstance(key, int) else key_leaves(key[0]) + key_leaves(key[1])


def key_view(table: CosetTable, key) -> PairElement:
    """The display view of a key over its table: each canonical integer's
    DoubleCosetId, paired by UnorderedPair; its sort_key() is the key.
    The view of a canonical integer is the one place an id is built."""
    if isinstance(key, int):
        return DoubleCosetId(table, key, table.orbit_sizes[key])
    return UnorderedPair(key_view(table, key[0]), key_view(table, key[1]))


def slot_count(twisted: bool, core_oriented: bool) -> int:
    """How many double cosets nest_slots nests: 1, 2 or 4."""
    return (2 if twisted else 1) * (1 if core_oriented else 2)


def nest_slots(slot: Callable, twisted: bool, core_oriented: bool):
    """A value's key: its slot_count slots, nested by key_pair in slot
    order.  The slots are D, then twist(D) when the case has a twist,
    then the same for D^-1 when the core is unoriented.
    slot(inverted, None) is D or D^-1, slot(inverted, s) the twist of
    slot s; each is called once."""
    d = slot(False, None)
    if twisted:
        d = key_pair(d, slot(False, d))
    if core_oriented:
        return d
    e = slot(True, None)
    if twisted:
        e = key_pair(e, slot(True, e))
    return key_pair(d, e)


def dc_id(table: CosetTable, acting: Sequence[Word], g: Word) -> DoubleCosetId:
    """Double coset of g: the label of its coset.

    The acting words must be the table's subgroup generators (else
    ValueError); the output is unchanged under g -> p g q with p, q in
    the subgroup.
    """
    _check(table, acting)
    return key_view(table, table.labels[table.trace(1, g)])


def dc_all(table: CosetTable, acting: Sequence[Word]) -> tuple[DoubleCosetId, ...]:
    """All cosets 1..index, split into double-coset orbits.

    Returned sorted by canonical index; orbit sizes sum to the table's
    index.
    """
    _check(table, acting)
    return tuple(key_view(table, c) for c in table.orbit_sizes)


def dc_invert(table: CosetTable, acting: Sequence[Word],
              d: DoubleCosetId) -> DoubleCosetId:
    """Image of the double coset under g -> g^-1; an involution."""
    _check(table, acting, d)
    return key_view(table, table.inverse(d.canonical))


def require_twist_verified(report: Optional[ValidationReport]) -> None:
    """The twist g -> n g n needs a validation report whose twist checks
    passed: n must normalize the subgroup (so the map is well defined on
    double cosets) and n^2 must lie in it (so the map is an involution)."""
    if report is None or not report.twist_verified:
        raise PreconditionUnverified(
            "the twist map needs a validation report with the "
            "normalization and n^2 checks passed")


def dc_twist(table: CosetTable, acting: Sequence[Word], n: Word,
             d: DoubleCosetId, report: ValidationReport) -> DoubleCosetId:
    """Image of the double coset under g -> n g n; see
    require_twist_verified for what the report must show."""
    require_twist_verified(report)
    _check(table, acting, d)
    return key_view(table, table.twist(n)[d.canonical])
