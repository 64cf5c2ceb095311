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

Degenerate cord words (the empty word, words tracing into the subgroup)
are legal; they model cords that can be isotoped into the boundary
neighborhood.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .coset_enumeration import CosetTable, EnumerationLimits, enumerate_cosets
from .double_cosets import (DoubleCosetId, UnorderedPair, dc_all, dc_id,
                            dc_invert, dc_twist)
from .errors import (CaseMismatch, InfiniteIndex, MissingPPlus,
                     PreconditionUnverified, ResourceExhausted, TableMismatch)
from .finite_quotient import infinite_index_certificate
from .knot_input import (CaseLabel, SurfaceKnotInput, ValidationReport,
                         case_words, validate_with_tables)
from .word_algebra import GroupPresentation, Word

InvariantValue = Union[DoubleCosetId, UnorderedPair]

# subgroup_table's first enumeration gets this fraction of the caller's budget
PROBE_FRACTION = 8


def subgroup_table(pres: GroupPresentation, name: str, words: Sequence[Word],
                   limits: Optional[EnumerationLimits] = None) -> CosetTable:
    """The coset table of the subgroup the words generate, named (P or
    P+) in InfiniteIndex.

    Enumerates first under 1/PROBE_FRACTION of each limit (at least 1).
    A probe that completes is the table a full-budget run gives,
    defined-coset count included: enumeration reads its budget only when
    about to break it.  A probe that runs out asks
    infinite_index_certificate for a proof of infinite index and raises
    InfiniteIndex if it finds one.  Otherwise the full limits run, and
    raise a plain ResourceExhausted if they run out too.
    """
    if limits is None:
        limits = EnumerationLimits()
    probe = EnumerationLimits(max(1, limits.max_live_cosets // PROBE_FRACTION),
                              max(1, limits.max_total_defined // PROBE_FRACTION))
    try:
        return enumerate_cosets(pres, words, probe)
    except ResourceExhausted as exc:
        cert = infinite_index_certificate(pres, words)
        if cert is not None:
            raise InfiniteIndex(probe, exc.live_cosets, exc.total_defined,
                                name, cert.degree, cert.h_rank, cert.p_rank,
                                cert.hom.dihedral) from None
    return enumerate_cosets(pres, words, limits)


def validate(input: SurfaceKnotInput,
             limits: Optional[EnumerationLimits] = None) -> ValidationReport:
    """Build the peripheral tables with subgroup_table and run all
    side-condition checks.  Never raises ResourceExhausted (InfiniteIndex
    included): the checks that need that table come back "unknown"."""
    if input.surface_orientable:
        return validate_with_tables(input, None, None)

    def table(name: str, words: Sequence[Word]) -> Optional[CosetTable]:
        try:
            return subgroup_table(input.presentation, name, words, limits)
        except ResourceExhausted:
            return None

    return validate_with_tables(input, table("P", input.p_generators),
                                table("P+", input.p_plus_generators))


def _kind_of(case: CaseLabel, core_oriented: bool) -> str:
    if case is CaseLabel.CASE3:
        return "case3-oriented-core" if core_oriented else "case3"
    return "oriented-core" if core_oriented else "unordered-core"


@dataclass(frozen=True, eq=False)
class HandleInvariant:
    """Case-tagged invariant value.

    kind "oriented-core": a single double coset (Cases 1/2, oriented core)
    kind "unordered-core": pair {D, D^-1} (Cases 1/2)
    kind "case3-oriented-core": pair {D, twist(D)} over P+
    kind "case3": unordered pair of two such pairs

    Cases 1 and 2 share their kinds, and equality compares kind and value
    only; the case label rides along for reporting.
    """

    case: CaseLabel
    core_oriented: bool
    value: InvariantValue
    kind: str = field(init=False, repr=False)  # fixed by case and core_oriented

    def __post_init__(self):
        kind = _kind_of(self.case, self.core_oriented)
        object.__setattr__(self, "kind", kind)
        v = self.value
        if kind == "oriented-core":
            ok = isinstance(v, DoubleCosetId)
        elif kind in ("unordered-core", "case3-oriented-core"):
            ok = isinstance(v, UnorderedPair) and \
                all(isinstance(e, DoubleCosetId) for e in v.elements)
        else:
            ok = isinstance(v, UnorderedPair) and \
                all(isinstance(e, UnorderedPair) and
                    all(isinstance(d, DoubleCosetId) for d in e.elements)
                    for e in v.elements)
        if not ok:
            raise ValueError(f"value shape does not match kind {kind!r}")

    def __eq__(self, other):
        if not isinstance(other, HandleInvariant):
            return NotImplemented
        return self.kind == other.kind and self.value == other.value

    def __hash__(self):
        return hash((self.kind, self.value))

    def double_cosets(self) -> tuple[DoubleCosetId, ...]:
        """All double-coset ids inside the value, left to right."""
        out: list[DoubleCosetId] = []

        def walk(v):
            if isinstance(v, DoubleCosetId):
                out.append(v)
            else:
                walk(v.first)
                walk(v.second)

        walk(self.value)
        return tuple(out)


@dataclass(frozen=True)
class ClassifierContext:
    """An input together with its enumerated tables and validation report.

    Build once, query many times; all queries are read-only.
    """

    input: SurfaceKnotInput
    p_table: CosetTable
    p_plus_table: Optional[CosetTable]
    report: ValidationReport

    @classmethod
    def build(cls, input: SurfaceKnotInput,
              limits: Optional[EnumerationLimits] = None) -> "ClassifierContext":
        """Build the P (and P+) tables with subgroup_table under the
        limits, which raises InfiniteIndex or ResourceExhausted, and
        validate; a failed side-condition check raises
        PreconditionUnverified."""
        pres = input.presentation
        p_table = subgroup_table(pres, "P", input.p_generators, limits)
        p_plus_table = None
        if not input.surface_orientable:
            p_plus_table = subgroup_table(pres, "P+", input.p_plus_generators,
                                          limits)
        report = validate_with_tables(input, p_table, p_plus_table)
        if not report.ok:
            failed = "; ".join(f"{c.name}: {c.detail}" for c in report.failures)
            raise PreconditionUnverified(f"input failed validation: {failed}")
        return cls(input, p_table, p_plus_table, report)


def case_table(ctx: ClassifierContext, case: CaseLabel
               ) -> tuple[CosetTable, Sequence[Word], Optional[Word]]:
    """The table, acting words and twist word a case works over:
    case_words(ctx.input, case) with the P+ table for Case 3 and the P
    table for Cases 1 and 2."""
    acting, n = case_words(ctx.input, case)
    if n is None:
        return ctx.p_table, acting, None
    if ctx.p_plus_table is None:
        raise MissingPPlus("this context has no P+ table")
    return ctx.p_plus_table, acting, n


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


def _value(ctx: ClassifierContext, core_oriented: bool, table: CosetTable,
           acting: Sequence[Word], n: Optional[Word],
           d: DoubleCosetId) -> InvariantValue:
    """The invariant value of a double coset d over case_table(ctx, case),
    which is (table, acting, n); n is None outside Case 3."""
    if n is None:
        if core_oriented:
            return d
        return UnorderedPair(d, dc_invert(table, acting, d))

    def with_twist(x: DoubleCosetId) -> UnorderedPair:
        return UnorderedPair(x, dc_twist(table, acting, n, x, ctx.report))

    if core_oriented:
        return with_twist(d)
    return UnorderedPair(with_twist(d), with_twist(dc_invert(table, acting, d)))


def handle_invariant(ctx: ClassifierContext, case: CaseLabel,
                     core_oriented: bool, g: Word) -> HandleInvariant:
    """Invariant of the 1-handle carried by the cord word g."""
    table, acting, n = case_table(ctx, case)
    d = dc_id(table, acting, g)
    return HandleInvariant(case, core_oriented,
                           _value(ctx, core_oriented, table, acting, n, d))


def equivalent(ctx: ClassifierContext, case: CaseLabel, core_oriented: bool,
               g1: Word, g2: Word) -> bool:
    """True iff the two cord words carry equivalent 1-handles."""
    return (handle_invariant(ctx, case, core_oriented, g1)
            == handle_invariant(ctx, case, core_oriented, g2))


def image_member(ctx: ClassifierContext, case: CaseLabel, core_oriented: bool,
                 candidate: HandleInvariant) -> bool:
    """Decide whether a candidate value is realized by some 1-handle.

    The value of a double coset D always contains D, so a candidate is
    realized iff it is the value of one of its own double cosets.
    """
    table, acting, n = case_table(ctx, case)
    if candidate.kind != _kind_of(case, core_oriented):
        raise CaseMismatch("candidate carries a different kind of value")
    ids = candidate.double_cosets()
    if any(d.table is not table for d in ids):
        raise TableMismatch("candidate was built over a different table")
    return any(_value(ctx, core_oriented, table, acting, n, d) == candidate.value
               for d in ids)


def enumerate_classes(ctx: ClassifierContext, case: CaseLabel,
                      core_oriented: bool) -> list[tuple[HandleInvariant, Word]]:
    """All equivalence classes, each with a representative cord word.

    Exactly the image of the invariant map, without duplicates, ordered
    by the canonical index of the first double coset reached.  Every
    double coset of a value has that same value, so the first one reached
    is the value's least, and the representative is its witness.
    """
    table, acting, n = case_table(ctx, case)
    out: list[tuple[HandleInvariant, Word]] = []
    seen: set[HandleInvariant] = set()
    for d in dc_all(table, acting):
        inv = HandleInvariant(case, core_oriented,
                              _value(ctx, core_oriented, table, acting, n, d))
        if inv not in seen:
            seen.add(inv)
            out.append((inv, d.representative()))
    return out


def nonsurjectivity_witness(ctx: ClassifierContext, case: CaseLabel,
                            core_oriented: bool) -> Optional[HandleInvariant]:
    """A candidate value no 1-handle realizes, when one must exist.

    Cases 1/2 with oriented cores have a bijective invariant, so the
    answer there is always None.  Otherwise the witness pairs the class
    of a word outside the relevant subgroup with the class of the
    identity; image_member rejects it.
    """
    table, acting, n = case_table(ctx, case)
    d_one = dc_id(table, acting, Word())

    if n is None:
        if core_oriented or table.index == 1:
            return None  # bijective map, or P = G
        d_out = dc_id(table, acting, table.witness(2))
        return HandleInvariant(case, False, UnorderedPair(d_out, d_one))

    if not table.membership(n):
        # n witnesses P+ != P: {class(n), class(1)} is never hit
        pair = UnorderedPair(dc_id(table, acting, n), d_one)
    elif table.index > 1:
        # the twist by n degenerates; any word outside P+ works
        pair = UnorderedPair(dc_id(table, acting, table.witness(2)), d_one)
    else:
        return None  # P+ = G: the single value is hit
    if core_oriented:
        return HandleInvariant(case, True, pair)
    return HandleInvariant(case, False, UnorderedPair(pair, pair))
