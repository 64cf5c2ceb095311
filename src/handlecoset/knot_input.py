"""Surface-knot group input: data model, cases, .skg parsing, validation.

An input bundles a knot group presentation with words generating the
peripheral subgroup P, and, for a non-orientable surface, words for the
positive peripheral subgroup P+ together with a word n standing for the
image of an orientation-reversing peripheral loop.  None of this is
derived from geometry here; the words are trusted input, and cord words
are assumed to have been computed with path choices compatible with the
local orientations they encode.

The .skg format is line oriented (UTF-8):

    group: <name> <name> ...      exactly once, first non-comment line
    rel: <word>                   zero or more
    P: <word> , <word> , ...      exactly once
    P+: <word> , ...              only for non-orientable input
    n: <word>                     only for non-orientable input
    orientable: true|false        exactly once
    # comment; blank lines are ignored

A word is whitespace-separated tokens, each a generator name optionally
suffixed ^<integer> (negative allowed); the empty word is written 1.
Exponents expand letter by letter, so a word whose expansion exceeds
MAX_WORD_LETTERS is a syntax error at the token that crosses it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from typing import Optional, Sequence

from .coset_enumeration import CosetTable
from .errors import (CaseMismatch, DuplicateGenerator, MissingSection,
                     SkgSyntaxError, UnknownGenerator)
from .word_algebra import (GeneratorSymbol, GroupPresentation, Word, concat,
                           free_reduce, invert, power)

_TOKEN = re.compile(r"\S+")
# a word may expand (before free reduction) to at most this many letters
MAX_WORD_LETTERS = 100_000


@dataclass(frozen=True)
class SurfaceKnotInput:
    """Parsed surface-knot group data."""

    presentation: GroupPresentation
    p_generators: tuple[Word, ...]
    p_plus_generators: Optional[tuple[Word, ...]]
    n_word: Optional[Word]
    surface_orientable: bool
    label: str = ""

    def __post_init__(self):
        if self.surface_orientable:
            if self.p_plus_generators is not None:
                raise ValueError("orientable input must not carry P+ generators")
        else:
            if self.p_plus_generators is None or self.n_word is None:
                raise ValueError("non-orientable input needs P+ generators and n")


class CaseLabel(Enum):
    CASE1 = 1  # oriented surface, orientable handle
    CASE2 = 2  # oriented surface, non-orientable handle
    CASE3 = 3  # non-orientable surface

    @property
    def requires_orientable(self) -> bool:
        return self is not CaseLabel.CASE3


def case_words(input: SurfaceKnotInput,
               case: CaseLabel) -> tuple[Sequence[Word], Optional[Word]]:
    """The acting words and twist word a case works with: the P+
    generators and n for Case 3, the P generators and None for Cases 1
    and 2.  Raises CaseMismatch if the case does not fit the input's
    surface."""
    if case.requires_orientable != input.surface_orientable:
        want = "an orientable" if case.requires_orientable else "a non-orientable"
        raise CaseMismatch(f"case {case.value} needs {want} surface input")
    if case is CaseLabel.CASE3:
        return input.p_plus_generators, input.n_word
    return input.p_generators, None


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    status: str  # "pass" | "fail" | "unknown"
    detail: str


_CHECK_NAMES = (
    "p_plus_in_p",
    "n_in_p",
    "n_vs_p_plus",
    "twist_normalizes_p_plus",
    "n_squared_in_p_plus",
)

_TWIST_CHECKS = {"twist_normalizes_p_plus", "n_squared_in_p_plus"}


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the side-condition checks; "unknown" only after a
    coset enumeration hit its resource limits."""

    checks: tuple[ValidationCheck, ...]

    @property
    def failures(self) -> tuple[ValidationCheck, ...]:
        return tuple(c for c in self.checks if c.status == "fail")

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def twist_verified(self) -> bool:
        """True when the checks guarding the n-twist map all passed."""
        named = {c.name: c.status for c in self.checks}
        return all(named.get(name) == "pass" for name in _TWIST_CHECKS)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _parse_word_tokens(segment: str, line_no: int, col_offset: int,
                       name_to_index: dict[str, int]) -> Word:
    letters: list[tuple[int, int]] = []
    saw_token = False
    for match in _TOKEN.finditer(segment):
        token = match.group(0)
        col = col_offset + match.start()
        saw_token = True
        if token == "1":
            continue
        base, caret, exponent = token.partition("^")
        if base not in name_to_index:
            raise UnknownGenerator(line_no, col, f"unknown generator {base!r}")
        k = 1
        if caret:
            try:
                k = int(exponent)
            except ValueError:
                raise SkgSyntaxError(line_no, col,
                                     f"bad exponent in token {token!r}") from None
        if len(letters) + abs(k) > MAX_WORD_LETTERS:
            raise SkgSyntaxError(line_no, col, f"word expands to more than "
                                 f"{MAX_WORD_LETTERS} letters")
        idx = name_to_index[base]
        sign = 1 if k >= 0 else -1
        letters.extend([(idx, sign)] * abs(k))
    if not saw_token:
        raise SkgSyntaxError(line_no, col_offset, "expected a word")
    return free_reduce(letters)


def parse_word(text: str, presentation: GroupPresentation) -> Word:
    """Parse a single word in .skg word syntax over the presentation."""
    name_to_index = {n: i for i, n in enumerate(presentation.generator_names)}
    return _parse_word_tokens(text, 1, 1, name_to_index)


def _parse_word_list(segment: str, line_no: int, col_offset: int,
                     name_to_index: dict[str, int]) -> tuple[Word, ...]:
    words = []
    cursor = col_offset
    for part in segment.split(","):
        words.append(_parse_word_tokens(part, line_no, cursor, name_to_index))
        cursor += len(part) + 1
    return tuple(words)


def parse_input(text: str, label: str = "") -> SurfaceKnotInput:
    """Parse .skg file content into a SurfaceKnotInput."""
    generators: list[GeneratorSymbol] = []
    name_to_index: dict[str, int] = {}
    relators: list[Word] = []
    p_gens: Optional[tuple[Word, ...]] = None
    pp_gens: Optional[tuple[Word, ...]] = None
    pp_line = 0
    n_word: Optional[Word] = None
    n_line = 0
    orientable: Optional[bool] = None
    seen_group = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise SkgSyntaxError(line_no, 1, "expected '<key>: <value>'")
        keyword = key.strip()
        rest_col = len(key) + 2  # 1-based column where the value starts
        if not seen_group and keyword != "group":
            raise SkgSyntaxError(line_no, 1,
                                 "'group:' must be the first non-comment line")

        if keyword == "group":
            if seen_group:
                raise SkgSyntaxError(line_no, 1, "'group:' may appear only once")
            seen_group = True
            for match in _TOKEN.finditer(rest):
                name = match.group(0)
                col = rest_col + match.start()
                if name in name_to_index:
                    raise DuplicateGenerator(line_no, col,
                                             f"duplicate generator {name!r}")
                try:
                    symbol = GeneratorSymbol(name)
                except ValueError as exc:
                    raise SkgSyntaxError(line_no, col, str(exc)) from None
                name_to_index[name] = len(generators)
                generators.append(symbol)
            if not generators:
                raise SkgSyntaxError(line_no, rest_col,
                                     "at least one generator is required")
        elif keyword == "rel":
            word = _parse_word_tokens(rest, line_no, rest_col, name_to_index)
            if word.is_identity:
                raise SkgSyntaxError(line_no, rest_col,
                                     "relator reduces to the identity")
            relators.append(word)
        elif keyword == "P":
            if p_gens is not None:
                raise SkgSyntaxError(line_no, 1, "'P:' may appear only once")
            p_gens = _parse_word_list(rest, line_no, rest_col, name_to_index)
        elif keyword == "P+":
            if pp_gens is not None:
                raise SkgSyntaxError(line_no, 1, "'P+:' may appear only once")
            pp_gens = _parse_word_list(rest, line_no, rest_col, name_to_index)
            pp_line = line_no
        elif keyword == "n":
            if n_word is not None:
                raise SkgSyntaxError(line_no, 1, "'n:' may appear only once")
            n_word = _parse_word_tokens(rest, line_no, rest_col, name_to_index)
            n_line = line_no
        elif keyword == "orientable":
            if orientable is not None:
                raise SkgSyntaxError(line_no, 1,
                                     "'orientable:' may appear only once")
            value = rest.strip()
            if value == "true":
                orientable = True
            elif value == "false":
                orientable = False
            else:
                raise SkgSyntaxError(line_no, rest_col,
                                     "expected 'true' or 'false'")
        else:
            raise SkgSyntaxError(line_no, 1, f"unknown section {keyword!r}")

    if not seen_group:
        raise MissingSection("group:")
    if p_gens is None:
        raise MissingSection("P:")
    if orientable is None:
        raise MissingSection("orientable:")
    if orientable:
        if pp_gens is not None:
            raise SkgSyntaxError(pp_line, 1,
                                 "'P+:' is not allowed when orientable: true")
        if n_word is not None:
            raise SkgSyntaxError(n_line, 1,
                                 "'n:' is not allowed when orientable: true")
    else:
        if pp_gens is None:
            raise MissingSection("P+:", "required for non-orientable input")
        if n_word is None:
            raise MissingSection("n:", "required for non-orientable input")

    presentation = GroupPresentation(tuple(generators), tuple(relators))
    return SurfaceKnotInput(presentation, p_gens, pp_gens, n_word,
                            orientable, label)


def format_word(word: Word, names: Sequence[str]) -> str:
    """Render a word in .skg syntax; the empty word renders as '1'."""
    if word.is_identity:
        return "1"
    parts = []
    for (i, s), run in groupby(word):
        k = s * len(list(run))
        parts.append(names[i] if k == 1 else f"{names[i]}^{k}")
    return " ".join(parts)


def serialize(input: SurfaceKnotInput) -> str:
    """Write an input back out as .skg text (inverse of parse_input)."""
    names = input.presentation.generator_names
    lines = ["group: " + " ".join(names)]
    for rel in input.presentation.relators:
        lines.append("rel: " + format_word(rel, names))
    lines.append("P: " + " , ".join(format_word(w, names)
                                    for w in input.p_generators))
    if input.p_plus_generators is not None:
        lines.append("P+: " + " , ".join(format_word(w, names)
                                         for w in input.p_plus_generators))
    if input.n_word is not None:
        lines.append("n: " + format_word(input.n_word, names))
    lines.append("orientable: " + ("true" if input.surface_orientable else "false"))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _membership_check(table: Optional[CosetTable], name: str,
                      words: Sequence[tuple[Word, str]],
                      unknown_detail: str) -> ValidationCheck:
    if table is None:
        return ValidationCheck(name, "unknown", unknown_detail)
    for word, shown in words:
        if not table.membership(word):
            return ValidationCheck(name, "fail", f"{shown} is not in the subgroup")
    return ValidationCheck(name, "pass", "all traces close at coset 1")


def validate_with_tables(input: SurfaceKnotInput,
                         p_table: Optional[CosetTable],
                         p_plus_table: Optional[CosetTable]) -> ValidationReport:
    """Run the side-condition checks against already enumerated tables.

    A missing table marks the checks that need it as "unknown".
    """
    if input.surface_orientable:
        checks = tuple(ValidationCheck(name, "pass", "vacuous: surface is orientable")
                       for name in _CHECK_NAMES)
        return ValidationReport(checks)

    names = input.presentation.generator_names
    n = input.n_word
    n_text = format_word(n, names)
    pp_words = [(w, format_word(w, names)) for w in input.p_plus_generators]

    checks = []
    checks.append(_membership_check(
        p_table, "p_plus_in_p", pp_words,
        "P-table enumeration hit resource limits"))
    checks.append(_membership_check(
        p_table, "n_in_p", [(n, n_text)],
        "P-table enumeration hit resource limits"))

    if p_plus_table is None:
        unknown = "P+-table enumeration hit resource limits"
        checks.append(ValidationCheck("n_vs_p_plus", "unknown", unknown))
        checks.append(ValidationCheck("twist_normalizes_p_plus", "unknown", unknown))
        checks.append(ValidationCheck("n_squared_in_p_plus", "unknown", unknown))
        return ValidationReport(tuple(checks))

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
        p_plus_table, "twist_normalizes_p_plus", conjugates, ""))
    checks.append(_membership_check(
        p_plus_table, "n_squared_in_p_plus",
        [(power(n, 2), f"({n_text})^2")], ""))
    return ValidationReport(tuple(checks))
