"""Exception types shared across the package."""


class HandleCosetError(Exception):
    """Base class for every domain error raised by this package."""


class SkgSyntaxError(HandleCosetError):
    """Malformed .skg text or word syntax; carries a 1-based position."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


class UsageError(HandleCosetError):
    """A command-line option or argument is unusable; no input position."""


class DuplicateGenerator(SkgSyntaxError):
    """A generator name appears twice on the group line."""


class UnknownGenerator(SkgSyntaxError):
    """A word uses a name that is not a generator of the presentation."""


class MissingSection(HandleCosetError):
    """A required section of the input file is absent."""

    def __init__(self, section: str, why: str = ""):
        detail = f"missing required section {section!r}"
        if why:
            detail += f" ({why})"
        super().__init__(detail)
        self.section = section


class ResourceExhausted(HandleCosetError):
    """Coset enumeration hit its limits before completing.

    Inconclusive in itself: the index may be infinite, or merely larger
    than the budget.  Only the InfiniteIndex subclass is a proof of
    infinite index; a plain ResourceExhausted must never be read as one.
    limits is None exactly on an InfiniteIndex, which is proved before
    any enumeration.
    """

    def __init__(self, limits, live_cosets: int, total_defined: int,
                 what: str = "coset enumeration exhausted its budget"):
        if limits is not None:
            what += (f" ({live_cosets} live cosets, {total_defined} defined; "
                     f"limits: {limits.max_live_cosets} live / "
                     f"{limits.max_total_defined} total)")
        super().__init__(what)
        self.limits = limits
        self.live_cosets = live_cosets
        self.total_defined = total_defined


class InfiniteIndex(ResourceExhausted):
    """P or P+ has infinite index, proved in a finite image of the group.

    Raised by handle_classifier.subgroup_table with the certificate cert
    (a finite_quotient.IndexCertificate) for the named subgroup: a
    transitive permutation image of the given degree has a point
    stabilizer H with H^ab of rank h_rank over Q, of which the
    intersection of the subgroup with H spans only p_rank.  Every image
    is found before any enumeration: the message ends at the ranks,
    limits is None and no coset was defined.
    """

    def __init__(self, subgroup: str, cert):
        self.subgroup = subgroup
        self.degree = cert.degree
        self.h_rank = cert.h_rank
        self.p_rank = cert.p_rank
        super().__init__(None, 0, 0,
                         f"{subgroup} has infinite index: in a transitive permutation "
                         f"image of degree {self.degree}, the point stabilizer H has H^ab "
                         f"of rank {self.h_rank} over Q and the intersection of {subgroup} "
                         f"with H spans rank {self.p_rank}")


class CosetRangeError(HandleCosetError):
    """A coset index outside 1..index was passed to a table query."""

    def __init__(self, coset: int, index: int):
        super().__init__(f"coset {coset} out of range 1..{index}")
        self.coset = coset
        self.index = index


class MissingPPlus(HandleCosetError):
    """An operation needed the positive peripheral subgroup table, absent here."""


class CaseMismatch(HandleCosetError):
    """The requested case is inconsistent with the input's orientability."""


class PreconditionUnverified(HandleCosetError):
    """A computation was requested without the validation it depends on."""


class TableMismatch(HandleCosetError):
    """A candidate value was built over a different coset table."""
