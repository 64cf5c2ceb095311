"""Classification of cords and 1-handles by double-coset invariants.

A 1-handle enters here purely as a cord word g in the knot group, and
the three case labels fix which peripheral subgroup and which extra
symmetry apply:

  Case 1: surface oriented, handle orientable.  Oriented cores are
          classified by the double coset PgP; unoriented handles by the
          unordered pair {PgP, Pg^-1P}.
  Case 2: surface oriented, handle non-orientable.  Computationally
          identical to Case 1; the label is carried through.
  Case 3: surface non-orientable.  Everything happens over P+; the
          orientation swap at the endpoints acts as the twist g -> n g n,
          so oriented cores give {P+gP+, P+ngnP+} and unoriented handles
          the unordered pair of the two oriented-core values for g and
          g^-1.

The input fixes the one subgroup a context works over (P, or P+ on a
non-orientable surface): ClassifierContext._case.  That table owns its
double cosets and the inverse and twist maps on them (CosetTable.labels,
inverse, twist), and the case refuses to build the twist until the
report shows it verified.  nest_slots fixes every value's shape;
queries build and compare values as keys, and a HandleInvariant builds
its view of ids (key_view) only for display.  A value depends only on
its double coset, so the case also keeps the keys it has built, one
list over the cosets per core orientation, each key stored under every
double coset of its value (_key): a query traces each cord word and
reads its value by one list index.

Degenerate cord words (the empty word, words tracing into the subgroup)
are legal; they model cords that can be isotoped into the boundary
neighborhood.

The peripheral tables come from subgroup_table, and the side conditions
on P+ and n that make the twist well defined are checked here beside
them (validate), so every way to a table, and every reason one is
missing, lives in this module.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Iterator, NamedTuple, Optional, Sequence, Union

from .coset_enumeration import CosetTable, EnumerationLimits, enumerate_cosets
from .double_cosets import (DoubleCosetId, PairElement, UnorderedPair, dc_id,
                            key_leaves, key_view, nest_slots,
                            require_twist_verified, slot_count)
from .errors import (CaseMismatch, InfiniteIndex, MissingPPlus,
                     PreconditionUnverified, ResourceExhausted, TableMismatch)
from .finite_quotient import infinite_index_certificate
from .knot_input import CaseLabel, SurfaceKnotInput, case_words, format_word
from .word_algebra import Word, _Frozen, concat, invert, power

# a table, or the ResourceExhausted (InfiniteIndex included) that refused it
_TableOrRefusal = Union[CosetTable, ResourceExhausted]


def subgroup_table(input: SurfaceKnotInput, name: str,
                   limits: Optional[EnumerationLimits] = None) -> CosetTable:
    """The coset table of the input's subgroup P or P+, as name says.

    Raises MissingPPlus for "P+" on an input without a P+ section.  The
    steps run cheapest first, and the first that decides ends the build:

    1. the certificate walk over the input's listing of finite images,
       its slices of S_d, then of AGL(1, m), each listed once per input
       (finite_quotient.infinite_index_certificate), before any
       enumeration; a certificate raises InfiniteIndex, naming the
       subgroup, that quotes no enumeration;
    2. one enumeration under the limits, which raises a plain
       ResourceExhausted if they run out.
    """
    words = input.p_generators if name == "P" else input.p_plus_generators
    if words is None:
        raise MissingPPlus("this input has no P+ section")
    cert = infinite_index_certificate(input, words)
    if cert is not None:
        raise InfiniteIndex(name, cert)
    return enumerate_cosets(input.presentation, words, limits)


class ValidationCheck(_Frozen):
    __slots__ = _fields = ("name", "status", "detail")

    def __init__(self, name: str, status: str, detail: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "status", status)  # "pass" | "fail" | "unknown"
        object.__setattr__(self, "detail", detail)


_CHECK_NAMES = (
    "p_plus_in_p",
    "n_in_p",
    "n_vs_p_plus",
    "twist_normalizes_p_plus",
    "n_squared_in_p_plus",
    "p_plus_index_in_p",
)

_TWIST_CHECKS = {"twist_normalizes_p_plus", "n_squared_in_p_plus"}


class ValidationReport(_Frozen):
    """Outcome of the side-condition checks; a check is "unknown" only
    when the table it needs was refused, and its detail is then the
    refusal's message."""

    _fields = ("checks",)  # no __slots__: twist_verified's cache needs a __dict__

    def __init__(self, checks: tuple[ValidationCheck, ...]):
        object.__setattr__(self, "checks", checks)

    @property
    def failures(self) -> tuple[ValidationCheck, ...]:
        return tuple(c for c in self.checks if c.status == "fail")

    @property
    def ok(self) -> bool:
        return not self.failures

    @cached_property
    def twist_verified(self) -> bool:
        """True when the checks guarding the n-twist map all passed."""
        named = {c.name: c.status for c in self.checks}
        return all(named.get(name) == "pass" for name in _TWIST_CHECKS)


def _membership_check(table: _TableOrRefusal, name: str,
                      words: Sequence[tuple[Word, str]]) -> ValidationCheck:
    if isinstance(table, ResourceExhausted):
        return ValidationCheck(name, "unknown", str(table))
    for word, shown in words:
        if not table.membership(word):
            return ValidationCheck(name, "fail", f"{shown} is not in the subgroup")
    return ValidationCheck(name, "pass", "all traces close at coset 1")


def _index_check(p_table: _TableOrRefusal, p_plus_table: _TableOrRefusal,
                 p_plus_in_p: ValidationCheck) -> ValidationCheck:
    """|P : P+| <= 2, read off the indices |G : P+| = |G : P| |P : P+|."""
    name = "p_plus_index_in_p"
    if isinstance(p_table, ResourceExhausted):
        return ValidationCheck(name, "unknown", str(p_table))
    if isinstance(p_plus_table, InfiniteIndex):
        return ValidationCheck(name, "fail", f"|P : P+| is infinite; {p_plus_table}")
    if isinstance(p_plus_table, ResourceExhausted):
        return ValidationCheck(name, "unknown", str(p_plus_table))
    if p_plus_in_p.status != "pass":
        return ValidationCheck(name, "fail", "P+ is not in P")
    k = p_plus_table.index // p_table.index
    return ValidationCheck(name, "pass" if k <= 2 else "fail", f"|P : P+| = {k}")


def _validate_with_tables(input: SurfaceKnotInput,
                          p_table: Optional[_TableOrRefusal],
                          p_plus_table: Optional[_TableOrRefusal]
                          ) -> ValidationReport:
    """Run the side-condition checks against the P and P+ tables, which
    an orientable input does not need."""
    if input.surface_orientable:
        checks = tuple(ValidationCheck(name, "pass", "vacuous: surface is orientable")
                       for name in _CHECK_NAMES)
        return ValidationReport(checks)

    names = input.presentation.generator_names
    n = input.n_word
    n_text = format_word(n, names)
    pp_words = [(w, format_word(w, names)) for w in input.p_plus_generators]

    checks = [_membership_check(p_table, "p_plus_in_p", pp_words),
              _membership_check(p_table, "n_in_p", [(n, n_text)])]

    if isinstance(p_plus_table, ResourceExhausted):
        checks.append(ValidationCheck("n_vs_p_plus", "unknown", str(p_plus_table)))
    else:
        in_pp = p_plus_table.membership(n)
        checks.append(ValidationCheck(
            "n_vs_p_plus", "pass",
            f"observed: {n_text} is {'in' if in_pp else 'not in'} P+"))

    n_inv = invert(n)
    conjugates = []
    for w, shown in pp_words:
        conjugates.append((concat(n, w, n_inv), f"{n_text} ({shown}) {n_text}^-1"))
        conjugates.append((concat(n_inv, w, n), f"{n_text}^-1 ({shown}) {n_text}"))
    checks.append(_membership_check(
        p_plus_table, "twist_normalizes_p_plus", conjugates))
    checks.append(_membership_check(
        p_plus_table, "n_squared_in_p_plus", [(power(n, 2), f"({n_text})^2")]))
    checks.append(_index_check(p_table, p_plus_table, checks[0]))
    return ValidationReport(tuple(checks))


def validate(input: SurfaceKnotInput,
             limits: Optional[EnumerationLimits] = None) -> ValidationReport:
    """Build the peripheral tables with subgroup_table and run all
    side-condition checks.  Never raises ResourceExhausted: a check that
    needs a refused table comes back "unknown", with the message of the
    ResourceExhausted (InfiniteIndex included) as its detail."""
    if input.surface_orientable:
        return _validate_with_tables(input, None, None)

    def table(name: str) -> _TableOrRefusal:
        try:
            return subgroup_table(input, name, limits)
        except ResourceExhausted as exc:
            return exc

    return _validate_with_tables(input, table("P"), table("P+"))


def _kind_of(case: CaseLabel, core_oriented: bool) -> str:
    if case is CaseLabel.CASE3:
        return "case3-oriented-core" if core_oriented else "case3"
    return "oriented-core" if core_oriented else "unordered-core"


class HandleInvariant(_Frozen):
    """Case-tagged invariant value: a table and a key over it.

    kind is "oriented-core" or "unordered-core" in Cases 1/2, which share
    their kinds, and "case3-oriented-core" or "case3" in Case 3; case and
    core_oriented fix it, and repr leaves it out.  Equality compares kind,
    key and table (by identity) only; the case label rides along for
    reporting.  The constructor checks the view it is given and keeps
    its table and key; value is always the key's view (key_view).
    """

    # no __slots__: _of and the cached value fill in the __dict__
    _fields = ("case", "core_oriented", "value")

    def __init__(self, case: CaseLabel, core_oriented: bool, value: PairElement):
        # the leftmost id holds the table, which a key does not; its depth
        # is the shape, since UnorderedPair pairs only equal shapes
        leaf, size = value, 1
        while isinstance(leaf, UnorderedPair):
            leaf, size = leaf.first, 2 * size
        kind = _kind_of(case, core_oriented)
        if not (isinstance(leaf, DoubleCosetId)
                and size == slot_count(case is CaseLabel.CASE3, core_oriented)):
            raise ValueError(f"value shape does not match kind {kind!r}")
        key = value.sort_key()
        if key_view(leaf.table, key) != value:
            raise TableMismatch("value pairs double cosets of different tables")
        if not all(c in leaf.table.orbit_sizes for c in key_leaves(key)):
            raise ValueError("value names a coset that is not canonical in its table")
        self.__dict__.update(case=case, core_oriented=core_oriented, kind=kind,
                             table=leaf.table, key=key)

    @classmethod
    def _of(cls, case: CaseLabel, core_oriented: bool, table: CosetTable,
            key) -> "HandleInvariant":
        """An invariant from its table and key, as the queries build it:
        no check, and no view until one is asked for."""
        inv = object.__new__(cls)
        f = inv.__dict__  # item by item: update() with keywords costs more
        f["case"], f["core_oriented"], f["kind"], f["table"], f["key"] = (
            case, core_oriented, _kind_of(case, core_oriented), table, key)
        return inv

    @cached_property
    def value(self) -> PairElement:
        return key_view(self.table, self.key)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.key == other.key and self.kind == other.kind
                and self.table is other.table)

    def __hash__(self):
        # a DoubleCosetId hashes as its canonical integer: hash((value, kind))
        return hash((self.key, self.kind))

    def double_cosets(self) -> tuple[DoubleCosetId, ...]:
        """All double-coset ids inside the value, left to right."""
        return tuple(key_view(self.table, c) for c in key_leaves(self.key))


class ClassifierContext(_Frozen):
    """An input together with its enumerated tables and validation report.

    Build once, query many times; a query changes nothing but caches:
    _case is the one case table every query works over, with the value
    keys queries have built on it.
    """

    # no __slots__: the cached _case needs a __dict__
    _fields = ("input", "p_table", "p_plus_table", "report")

    def __init__(self, input: SurfaceKnotInput, p_table: CosetTable,
                 p_plus_table: Optional[CosetTable], report: ValidationReport):
        object.__setattr__(self, "input", input)
        object.__setattr__(self, "p_table", p_table)
        object.__setattr__(self, "p_plus_table", p_plus_table)
        object.__setattr__(self, "report", report)

    @classmethod
    def build(cls, input: SurfaceKnotInput,
              limits: Optional[EnumerationLimits] = None) -> "ClassifierContext":
        """Build the P (and P+) tables with subgroup_table under the
        limits, which raises InfiniteIndex or ResourceExhausted, and
        validate; a failed side-condition check raises
        PreconditionUnverified."""
        p_table = subgroup_table(input, "P", limits)
        p_plus_table = None
        if not input.surface_orientable:
            p_plus_table = subgroup_table(input, "P+", limits)
        report = _validate_with_tables(input, p_table, p_plus_table)
        if not report.ok:
            failed = "; ".join(f"{c.name}: {c.detail}" for c in report.failures)
            raise PreconditionUnverified(f"input failed validation: {failed}")
        return cls(input, p_table, p_plus_table, report)

    @cached_property
    def _case(self) -> _Case:
        """P's table in Cases 1 and 2; in Case 3, P+'s with the twist n,
        built only once the report shows the twist verified.  A refused
        case is not cached, so every query on the context refuses."""
        if self.input.surface_orientable:
            table, n, twist = self.p_table, None, None
        else:
            table, n = self.p_plus_table, self.input.n_word
            if table is None:
                raise MissingPPlus("this context has no P+ table")
            require_twist_verified(self.report)
            twist = table.twist(n)
        return _Case(table, n, twist, [None, None])


def oriented_cord_invariant(ctx: ClassifierContext, g: Word) -> DoubleCosetId:
    """Equivalence class of an oriented cord: the double coset PgP."""
    return dc_id(ctx.p_table, ctx.input.p_generators, g)


def local_oriented_cord_invariant(ctx: ClassifierContext, g: Word) -> DoubleCosetId:
    """Class of an oriented cord with local orientations: P+gP+.

    The cord word must come from path choices compatible with the local
    orientations; that is the caller's responsibility.
    """
    if ctx.p_plus_table is None:
        raise MissingPPlus("this context has no P+ table")
    return dc_id(ctx.p_plus_table, ctx.input.p_plus_generators, g)


class _Case(NamedTuple):
    """A context's case table, n, n's twist (CosetTable.twist) and the
    value keys built so far (_key).  keys[0] serves oriented cores and
    keys[1] unoriented ones; each is None until its orientation's first
    query, then a list over the cosets 0..index whose entry at a
    canonical coset is its value's key once built, else None.  A list
    needs no bound beyond the index, and two threads can only write
    equal keys."""

    table: CosetTable
    n: Optional[Word]
    twist: Optional[list[int]]
    keys: list


def _resolve(ctx: ClassifierContext, case: CaseLabel) -> _Case:
    """ctx's case table, for a case that fits its surface."""
    if (case is CaseLabel.CASE3) == ctx.input.surface_orientable:
        case_words(ctx.input, case)  # raises the CaseMismatch
    return ctx._case


def _value(r: _Case, core_oriented: bool, c: int):
    """The key of the double coset c's value over r: canonical integers
    paired by key_pair.  Queries read it through _key."""
    def slot(inverted: bool, of: Optional[int]) -> int:
        if of is not None:
            return r.twist[of]
        return r.table.inverse(c) if inverted else c

    return nest_slots(slot, r.n is not None, core_oriented)


def _key(r: _Case, core_oriented: bool, c: int):
    """The key of the double coset c's value over r: _value's, built on
    the first call for any double coset of that value and this
    orientation, and read back after.  Every double coset of a value has
    that same value, so one key is stored under all of them."""
    keys = r.keys[not core_oriented]
    if keys is None:
        keys = r.keys[not core_oriented] = [None] * (r.table.index + 1)
    key = keys[c]
    if key is None:
        key = _value(r, core_oriented, c)
        for d in key_leaves(key):
            keys[d] = key
    return key


def _least(key) -> int:
    """A key's leftmost canonical integer, its least (key_pair sorts)."""
    while isinstance(key, tuple):
        key = key[0]
    return key


def handle_invariant(ctx: ClassifierContext, case: CaseLabel,
                     core_oriented: bool, g: Word) -> HandleInvariant:
    """Invariant of the 1-handle carried by the cord word g."""
    r = _resolve(ctx, case)
    return HandleInvariant._of(case, core_oriented, r.table, _key(
        r, core_oriented, r.table.labels[r.table.trace(1, g)]))


def equivalent(ctx: ClassifierContext, case: CaseLabel, core_oriented: bool,
               g1: Word, g2: Word) -> bool:
    """True iff the two cord words carry equivalent 1-handles."""
    r = _resolve(ctx, case)
    label, trace = r.table.labels, r.table.trace
    return (_key(r, core_oriented, label[trace(1, g1)])
            == _key(r, core_oriented, label[trace(1, g2)]))


def image_member(ctx: ClassifierContext, case: CaseLabel, core_oriented: bool,
                 candidate: HandleInvariant) -> bool:
    """Decide whether a candidate value is realized by some 1-handle.

    The value of a double coset D always contains D, and every double
    coset of a value has that same value, so a candidate is realized iff
    it is the value of its first double coset, read through the table's
    labels, so that every stored key is built from the table's own
    canonical integers.
    """
    r = _resolve(ctx, case)
    if candidate.kind != _kind_of(case, core_oriented):
        raise CaseMismatch("candidate carries a different kind of value")
    if candidate.table is not r.table:
        raise TableMismatch("candidate was built over a different table")
    key = candidate.key
    return _key(r, core_oriented, r.table.labels[_least(key)]) == key


def _classes(r: _Case, core_oriented: bool) -> Iterator[tuple[Any, int]]:
    """(value key, least canonical coset) of every class over r, in
    increasing order of that coset.  Every double coset of a value has
    that same value, so a value is listed once, at its least double
    coset."""
    for c in r.table.orbit_sizes:  # canonical cosets in increasing order
        key = _key(r, core_oriented, c)
        if _least(key) == c:
            yield key, c


def enumerate_classes(ctx: ClassifierContext, case: CaseLabel,
                      core_oriented: bool) -> list[tuple[HandleInvariant, Word]]:
    """All equivalence classes, each with a representative cord word.

    Exactly the image of the invariant map, without duplicates, ordered
    by the canonical index of each value's least double coset; a class's
    representative is the witness of that coset.
    """
    r = _resolve(ctx, case)
    return [(HandleInvariant._of(case, core_oriented, r.table, key), r.table.witness(c))
            for key, c in _classes(r, core_oriented)]


def class_listing(ctx: ClassifierContext, case: CaseLabel, core_oriented: bool
                  ) -> tuple[str, list[tuple[Any, int]], dict[int, int], dict[int, str]]:
    """The classes of enumerate_classes, without an invariant or a word
    per class: (kind, the (value key, least canonical coset)
    of each class, each canonical coset's orbit size, each canonical
    coset's witness text).  One walk of the witness tree spells the
    texts (CosetTable.witness_texts, as format_word spells a witness);
    every canonical coset is a leaf of some class's value, since a
    double coset's value contains it.  A plain tuple: its one caller,
    the classes command, unpacks it at once (a NamedTuple class would
    cost only ~0.1 ms to create; _Case is one)."""
    r = _resolve(ctx, case)
    size = r.table.orbit_sizes
    return (_kind_of(case, core_oriented), list(_classes(r, core_oriented)), size,
            r.table.witness_texts(size, ctx.input.presentation.generator_names))


def candidate_invariant(ctx: ClassifierContext, case: CaseLabel,
                        core_oriented: bool, words: Sequence[Word]) -> HandleInvariant:
    """The value whose slots, in nest_slots order, are the double cosets
    of the words, one per slot (else ValueError), realized or not."""
    r = _resolve(ctx, case)
    twisted = r.n is not None
    size = slot_count(twisted, core_oriented)
    if len(words) != size:
        raise ValueError(f"this kind of value has {size} slots, not {len(words)}")
    slots = iter([r.table.labels[r.table.trace(1, w)] for w in words])
    return HandleInvariant._of(case, core_oriented, r.table,
                               nest_slots(lambda *_: next(slots), twisted, core_oriented))


def nonsurjectivity_witness(ctx: ClassifierContext, case: CaseLabel,
                            core_oriented: bool) -> Optional[HandleInvariant]:
    """A candidate value no 1-handle realizes, when one must exist.

    Cases 1/2 with oriented cores have a bijective invariant, so the
    answer there is always None.  Otherwise the witness pairs the class
    of a word outside the relevant subgroup with the class of the
    identity; image_member rejects it.
    """
    r = _resolve(ctx, case)
    if r.n is None and core_oriented:
        return None  # bijective map
    if r.n is not None and not r.table.membership(r.n):
        g = r.n  # n witnesses P+ != P: {class(n), class(1)} is never hit
    elif r.table.index > 1:
        # any word outside P works, or outside P+ when the twist degenerates
        g = r.table.witness(2)
    else:
        return None  # P = G or P+ = G: the single value is hit
    # the slots alternate between the class of g and the class of 1
    slots = slot_count(r.n is not None, core_oriented)
    return candidate_invariant(ctx, case, core_oriented, [g, Word()] * (slots // 2))
