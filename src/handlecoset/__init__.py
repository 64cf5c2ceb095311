"""Double-coset invariants for cords and 1-handles attached to surface-knots.

The package takes a knot group presentation together with generating
words for its peripheral subgroups, enumerates cosets (Todd-Coxeter),
and classifies cords and 1-handles through canonical double-coset
invariants, with a finite-quotient fallback for separating pairs when
enumeration is out of reach and for proving infinite index.
"""

from .coset_enumeration import (CosetTable, EnumerationLimits,
                                enumerate_cosets)
from .double_cosets import (DoubleCosetId, UnorderedPair, dc_all, dc_id,
                            dc_invert, dc_twist)
from .errors import (CaseMismatch, CosetRangeError, DuplicateGenerator,
                     HandleCosetError, InfiniteIndex, MissingPPlus,
                     MissingSection, PreconditionUnverified, ResourceExhausted,
                     SkgSyntaxError, TableMismatch, UnknownGenerator,
                     UsageError)
from .finite_quotient import (PermutationAssignment, SeparationVerdict,
                              find_homomorphisms, quotient_separate)
from .handle_classifier import (ClassifierContext, HandleInvariant,
                                ValidationCheck, ValidationReport,
                                candidate_invariant, enumerate_classes,
                                equivalent, handle_invariant, image_member,
                                local_oriented_cord_invariant,
                                nonsurjectivity_witness,
                                oriented_cord_invariant, validate)
from .knot_input import (CaseLabel, SurfaceKnotInput, format_word,
                         parse_input, parse_word, serialize)
from .word_algebra import (GeneratorSymbol, GroupPresentation, Word, concat,
                           free_reduce, invert, power)

__version__ = "0.1.0"

__all__ = [
    "CaseLabel", "CaseMismatch", "ClassifierContext", "CosetRangeError",
    "CosetTable", "DoubleCosetId", "DuplicateGenerator", "EnumerationLimits",
    "GeneratorSymbol", "GroupPresentation", "HandleCosetError",
    "HandleInvariant", "InfiniteIndex", "MissingPPlus", "MissingSection",
    "PermutationAssignment", "PreconditionUnverified", "ResourceExhausted",
    "SeparationVerdict", "SkgSyntaxError", "SurfaceKnotInput", "TableMismatch",
    "UnknownGenerator", "UnorderedPair", "UsageError", "ValidationCheck",
    "ValidationReport",
    "Word", "candidate_invariant", "concat", "dc_all", "dc_id", "dc_invert", "dc_twist",
    "enumerate_classes", "enumerate_cosets", "equivalent",
    "find_homomorphisms", "format_word", "free_reduce", "handle_invariant",
    "image_member", "invert", "local_oriented_cord_invariant",
    "nonsurjectivity_witness", "oriented_cord_invariant", "parse_input",
    "parse_word", "power", "quotient_separate", "serialize", "validate",
]
