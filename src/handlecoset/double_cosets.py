"""Double cosets H\\G/H over a coset table, with the two induced maps.

A double coset HgH is the orbit of the H-coset of g under right
multiplication by the generators H's table was enumerated against.  A
union-find over their permutations, each the composition of its
letters' columns, gives a label array holding, for every coset, the
minimal coset of its orbit: with the standardized tables a canonical
identifier, stable across runs.  The table keeps this one partition, so
dc_id is one trace plus one lookup; the dc_* functions name H by those
acting words and refuse any others.

Two maps descend to double cosets: inversion (core reversal), and the
twist g -> n g n, well defined once the validation checks for n have
passed.  A double coset's inverse is filled in on first use by a climb
from its canonical coset up the witness tree (CosetTable.unwitness).
The twist is one list over all cosets: the coset of n w(c) is 1 n traced
along w(c), all in one walk down the tree (CosetTable.translates), and a
lookup in n's permutation appends the last n.

nest_slots is the one definition of an invariant value's shape: how its
double cosets nest in unordered pairs.  A value is held as a key, its
canonical integers nested by key_pair, and two keys over one table are
equal exactly when the values are.  key_view builds the display view of
a key, DoubleCosetIds paired by UnorderedPair, for repr and copies.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from .coset_enumeration import CosetTable
from .errors import PreconditionUnverified, TableMismatch
from .word_algebra import Word, _Frozen

if TYPE_CHECKING:
    from .handle_classifier import ValidationReport


class Partition:
    """Double-coset orbits of one table under its subgroup generators.

    label[c] is the minimal coset of c's orbit (label[0] = 0), size maps
    each canonical coset to its orbit size in increasing canonical order,
    inv maps a canonical coset to that of the inverse double coset (filled
    in on first use), and twist(table, n)[c], for every coset c, is the
    canonical coset of n w n, w any word of coset c (built once per n).
    The table keeps its partition, so a partition holds no reference
    back to it: that cycle would keep a dropped table alive until the
    cyclic garbage collector ran.
    """

    def __init__(self, table: CosetTable):
        parent = list(range(table.index + 1))

        def find(c: int) -> int:
            root = c
            while parent[root] != root:
                root = parent[root]
            while parent[c] != root:
                parent[c], c = root, parent[c]
            return root

        for w in table.subgroup_generators:
            if not w:
                continue
            for c, d in enumerate(table.permutation(w)):
                if c != d:
                    a, b = find(c), find(d)
                    if a > b:
                        a, b = b, a
                    parent[b] = a  # the root stays the orbit's minimum
        self.label = [find(c) for c in range(table.index + 1)]
        # a canonical coset is the first of its orbit met in 1..index
        self.size = Counter(self.label[1:])
        self.inv: dict[int, int] = {}
        # compared by n's equality: a word hashes its letters on every
        # call, and a table meets one n in practice
        self._twists: list[tuple[Word, list[int]]] = []

    def id(self, table: CosetTable, canonical: int) -> "DoubleCosetId":
        return DoubleCosetId(table, canonical, self.size[canonical])

    def inverse(self, table: CosetTable, canonical: int) -> int:
        image = self.inv.get(canonical)
        if image is None:
            image = self.inv[canonical] = self.label[table.unwitness(canonical)]
        return image

    def twist(self, table: CosetTable, n: Word) -> list[int]:
        """n's twist images over the table, found without hashing n; the
        table must be the one this partition was built from."""
        for m, images in self._twists:
            if m == n:
                return images
        after = table.permutation(n)
        label = self.label
        images = [label[after[x]] for x in table.translates(after[1])]
        self._twists.append((n, images))
        return images


def partition(table: CosetTable) -> Partition:
    """The table's partition, built on first use."""
    part = table._partition
    if part is None:
        part = table._partition = Partition(table)
    return part


def _partition_for(table: CosetTable, acting: Sequence[Word],
                   d: Optional[DoubleCosetId] = None) -> Partition:
    """The table's partition, once the dc_* arguments pass their checks."""
    if d is not None and d.table is not table:
        raise TableMismatch("double coset belongs to a different table")
    if tuple(acting) != table.subgroup_generators:
        raise ValueError("acting words must be the table's subgroup generators")
    return partition(table)


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
        label = partition(self.table).label
        return tuple(c for c in range(1, len(label)) if label[c] == self.canonical)

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
    DoubleCosetId, paired by UnorderedPair; its sort_key() is the key."""
    if isinstance(key, int):
        return partition(table).id(table, key)
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
    part = _partition_for(table, acting)
    return part.id(table, part.label[table.trace(1, g)])


def dc_all(table: CosetTable, acting: Sequence[Word]) -> tuple[DoubleCosetId, ...]:
    """Partition of all cosets 1..index into double-coset orbits.

    Returned sorted by canonical index; orbit sizes sum to the table's
    index.
    """
    part = _partition_for(table, acting)
    return tuple(part.id(table, c) for c in part.size)


def dc_invert(table: CosetTable, acting: Sequence[Word],
              d: DoubleCosetId) -> DoubleCosetId:
    """Image of the double coset under g -> g^-1; an involution."""
    part = _partition_for(table, acting, d)
    return part.id(table, part.inverse(table, d.canonical))


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
    part = _partition_for(table, acting, d)
    return part.id(table, part.twist(table, n)[d.canonical])
