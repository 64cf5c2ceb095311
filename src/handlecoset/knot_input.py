"""Surface-knot group input: data model, cases, .skg parsing and writing.

An input bundles a knot group presentation with words generating the
peripheral subgroup P, and, for a non-orientable surface, words for the
positive peripheral subgroup P+ together with a word n standing for the
image of an orientation-reversing peripheral loop.  None of this is
derived from geometry here; the words are trusted input, and cord words
are assumed to have been computed with path choices compatible with the
local orientations they encode.  The side conditions on P+ and n are
checked against the coset tables, by handle_classifier.validate.
The input alone decides which of the three cases fit it
(SurfaceKnotInput.cases), and case_words is the one check that refuses
a case that does not; every entry point that takes a case goes through
them.

The .skg format is line oriented (UTF-8):

    group: <name> <name> ...      exactly once, first non-comment line
    rel: <word>                   zero or more
    P: <word> , <word> , ...      exactly once
    P+: <word> , ...              only for non-orientable input
    n: <word>                     only for non-orientable input
    orientable: true|false        exactly once
    # comment; blank lines are ignored

A word is whitespace-separated tokens, each a generator name or
name^k, k an optional minus sign and one or more ASCII digits 0-9
(-?[0-9]+, nothing else: no plus sign, underscore or other digits);
the empty word is written 1.
Exponents expand letter by letter, so a word whose expansion exceeds
MAX_WORD_LETTERS is a syntax error at the token that crosses it.

parse_input reports the first error it meets, in this order: an error
met while reading a line, in file order; then a missing group:, P: or
orientable:; then P+: and n: checked against orientable: (present when
it is true, or absent when it is false), P+: first.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import chain, groupby
from typing import Any, Optional, Sequence

from .errors import (CaseMismatch, DuplicateGenerator, MissingSection,
                     SkgSyntaxError, UnknownGenerator)
from .word_algebra import (GeneratorSymbol, GroupPresentation, Word, _Frozen,
                           reduce_columns)

_TOKEN = re.compile(r"\S+")
# the one integer grammar: a word's exponents, and every count typed on
# the command line (cli._integer)
_INTEGER = re.compile(r"-?[0-9]+")
# a word may expand (before free reduction) to at most this many letters
MAX_WORD_LETTERS = 100_000
_OVER_BUDGET = f"word expands to more than {MAX_WORD_LETTERS} letters"


class CaseLabel(Enum):
    CASE1 = 1  # oriented surface, orientable handle
    CASE2 = 2  # oriented surface, non-orientable handle
    CASE3 = 3  # non-orientable surface


class SurfaceKnotInput(_Frozen):
    """Surface-knot group data, exactly as parse_input can produce it.

    cases holds the case labels that fit the input, Cases 1 and 2 on
    an orientable surface and Case 3 on a non-orientable one: the one
    place the package decides which cases fit (case_words reads it).
    _listings keeps the input's one listing of finite images, keyed by
    slice, as the certificate walk and the separations first read it
    (finite_quotient._listing): ("S", d) holds images into S_d and
    ("AGL", m) images into AGL(1, m), each slice with a flag for whether
    it holds every image of its kind.  Like Word.columns, both are
    derived: repr, ==, hash, pickle and copy leave them out, so a copy
    derives cases again and starts with no listing."""

    _fields = ("presentation", "p_generators", "p_plus_generators",
               "n_word", "surface_orientable", "label")
    __slots__ = _fields + ("cases", "_listings")

    def __init__(self, presentation: GroupPresentation, p_generators: tuple[Word, ...],
                 p_plus_generators: Optional[tuple[Word, ...]], n_word: Optional[Word],
                 surface_orientable: bool, label: str = ""):
        if surface_orientable:
            if p_plus_generators is not None:
                raise ValueError("orientable input must not carry P+ generators")
            if n_word is not None:
                raise ValueError("orientable input must not carry n")
        elif p_plus_generators is None or n_word is None:
            raise ValueError("non-orientable input needs P+ generators and n")
        if not p_generators or p_plus_generators == ():
            raise ValueError("P and P+ need a word each; the trivial subgroup is (Word(),)")
        words = p_generators + (() if surface_orientable else p_plus_generators + (n_word,))
        if max(w.max_generator_index() for w in words) >= len(presentation.generators):
            raise ValueError("P, P+ or n uses a generator index outside the presentation")
        if max(map(len, words + presentation.relators)) > MAX_WORD_LETTERS:
            raise ValueError(f"a word is longer than {MAX_WORD_LETTERS} letters")
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "p_generators", p_generators)
        object.__setattr__(self, "p_plus_generators", p_plus_generators)
        object.__setattr__(self, "n_word", n_word)
        object.__setattr__(self, "surface_orientable", surface_orientable)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "cases", (CaseLabel.CASE1, CaseLabel.CASE2)
                           if surface_orientable else (CaseLabel.CASE3,))
        object.__setattr__(self, "_listings", {})


def case_words(input: SurfaceKnotInput,
               case: CaseLabel) -> tuple[Sequence[Word], Optional[Word]]:
    """The acting words and twist word a case works with: the P+
    generators and n for Case 3, the P generators and None for Cases 1
    and 2.  This is the package's one check that a case fits an input:
    it raises CaseMismatch for any case outside input.cases, a label of
    the other surface and a value that is no CaseLabel alike, and every
    entry point that takes a case refuses through it."""
    if case not in input.cases:
        want = "a non-orientable" if case is CaseLabel.CASE3 else "an orientable"
        raise CaseMismatch(f"case {case.value} needs {want} surface input"
                           if isinstance(case, CaseLabel) else f"{case!r} is not a CaseLabel")
    # a fitting case works over P+ and n exactly when the input has them
    return input.p_plus_generators or input.p_generators, input.n_word


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _token_columns(names: Sequence[str]) -> dict[str, tuple[int, ...]]:
    """Every token that spells at most one letter, mapped to its action
    columns: each name to (2i,), each name^-1 to (2i + 1,) and 1 to ()."""
    columns: dict[str, tuple[int, ...]] = {"1": ()}
    for i, name in enumerate(names):
        columns[name] = (2 * i,)
        columns[name + "^-1"] = (2 * i + 1,)
    return columns


def _parse_word_tokens(segment: str, line_no: int, col_offset: int,
                       token_columns: dict[str, tuple[int, ...]]) -> Word:
    """Parse one word.  A word of at most MAX_WORD_LETTERS tokens, each
    in token_columns, is read with one lookup per token.  Any other word
    goes through the token loop, which parses each token where it meets
    it, where a bad token is reported, and checks the letter budget at
    every token, before it expands."""
    # str.split() and _TOKEN cut the same tokens; maxsplit keeps a line
    # of a million tokens from being cut whole before the loop refuses it
    tokens = segment.split(maxsplit=MAX_WORD_LETTERS)
    if not tokens:
        raise SkgSyntaxError(line_no, col_offset, "expected a word")
    if len(tokens) <= MAX_WORD_LETTERS:
        try:
            columns = list(chain.from_iterable(map(token_columns.__getitem__, tokens)))
        except KeyError:  # a token with an exponent, or a bad one
            pass
        else:
            return reduce_columns(columns)
    columns = []
    for match in _TOKEN.finditer(segment):
        token = match.group(0)
        k, letters = 1, token_columns.get(token)
        if letters is None:
            col = col_offset + match.start()
            base, _, exponent = token.partition("^")
            if not token_columns.get(base):  # "1" spells no generator
                raise UnknownGenerator(line_no, col, f"unknown generator {base!r}")
            if not _INTEGER.fullmatch(exponent):
                raise SkgSyntaxError(line_no, col, f"bad exponent in token {token!r}")
            # the digits past the sign and leading zeros, so that int()
            # never meets a string past its 4,300-digit limit; more
            # digits than the budget has means more letters than it
            digits = exponent.lstrip("-").lstrip("0")
            if len(digits) > len(str(MAX_WORD_LETTERS)):
                raise SkgSyntaxError(line_no, col, _OVER_BUDGET)
            k = int(digits or "0")
            letters = (token_columns[base][0] | (exponent[0] == "-"),)
        if len(columns) + k * len(letters) > MAX_WORD_LETTERS:
            raise SkgSyntaxError(line_no, col_offset + match.start(), _OVER_BUDGET)
        columns.extend(letters * k)
    return reduce_columns(columns)


def parse_word(text: str, presentation: GroupPresentation) -> Word:
    """Parse a single word in .skg word syntax over the presentation."""
    return _parse_word_tokens(text, 1, 1, _token_columns(presentation.generator_names))


def _parse_word_list(segment: str, line_no: int, col_offset: int,
                     token_columns: dict[str, tuple[int, ...]],
                     sep: str) -> tuple[Word, ...]:
    """The words of segment split at sep, each error at its column in
    the whole segment."""
    words = []
    cursor = col_offset
    for part in segment.split(sep):
        words.append(_parse_word_tokens(part, line_no, cursor, token_columns))
        cursor += len(part) + 1
    return tuple(words)


def parse_word_list(text: str, presentation: GroupPresentation,
                    sep: str) -> tuple[Word, ...]:
    """Parse words separated by sep, as one line of text."""
    return _parse_word_list(text, 1, 1, _token_columns(presentation.generator_names), sep)


def parse_input(text: str, label: str = "") -> SurfaceKnotInput:
    """Parse .skg file content into a SurfaceKnotInput."""
    generators: dict[str, GeneratorSymbol] = {}
    token_columns: dict[str, tuple[int, ...]] = {}  # built once group: is read
    relators: list[Word] = []
    seen: dict[str, int] = {}  # each section but rel -> the line it is on
    sections: dict[str, Any] = {}  # P, P+, n and orientable -> what they hold

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise SkgSyntaxError(line_no, 1, "expected '<key>: <value>'")
        keyword = key.strip()
        rest_col = len(key) + 2  # 1-based column where the value starts
        if "group" not in seen and keyword != "group":
            raise SkgSyntaxError(line_no, 1,
                                 "'group:' must be the first non-comment line")
        if keyword in seen:
            raise SkgSyntaxError(line_no, 1, f"'{keyword}:' may appear only once")
        if keyword != "rel":
            seen[keyword] = line_no

        if keyword == "group":
            for match in _TOKEN.finditer(rest):
                name = match.group(0)
                col = rest_col + match.start()
                if name in generators:
                    raise DuplicateGenerator(line_no, col,
                                             f"duplicate generator {name!r}")
                try:
                    generators[name] = GeneratorSymbol(name)
                except ValueError as exc:
                    raise SkgSyntaxError(line_no, col, str(exc)) from None
            if not generators:
                raise SkgSyntaxError(line_no, rest_col,
                                     "at least one generator is required")
            token_columns = _token_columns(list(generators))
        elif keyword == "rel":
            word = _parse_word_tokens(rest, line_no, rest_col, token_columns)
            if word.is_identity:
                raise SkgSyntaxError(line_no, rest_col,
                                     "relator reduces to the identity")
            relators.append(word)
        elif keyword in ("P", "P+"):
            sections[keyword] = _parse_word_list(rest, line_no, rest_col, token_columns, ",")
        elif keyword == "n":
            sections[keyword] = _parse_word_tokens(rest, line_no, rest_col, token_columns)
        elif keyword == "orientable":
            if rest.strip() not in ("true", "false"):
                raise SkgSyntaxError(line_no, rest_col,
                                     "expected 'true' or 'false'")
            sections[keyword] = rest.strip() == "true"
        else:
            raise SkgSyntaxError(line_no, 1, f"unknown section {keyword!r}")

    for section in ("group", "P", "orientable"):
        if section not in seen:
            raise MissingSection(f"{section}:")
    orientable = sections["orientable"]
    for section in ("P+", "n"):
        if orientable and section in seen:
            raise SkgSyntaxError(seen[section], 1, f"'{section}:' is not "
                                 "allowed when orientable: true")
        if not orientable and section not in seen:
            raise MissingSection(f"{section}:", "required for non-orientable input")

    presentation = GroupPresentation(tuple(generators.values()), tuple(relators))
    return SurfaceKnotInput(presentation, sections["P"], sections.get("P+"),
                            sections.get("n"), orientable, label)


def run_token(name: str, exponent: int) -> str:
    """The .skg token of a run of equal letters: the generator's name,
    raised to the run's length, negated for a run of inverse letters;
    the name alone for a single positive letter."""
    return name if exponent == 1 else f"{name}^{exponent}"


def format_word(word: Word, names: Sequence[str]) -> str:
    """Render a word in .skg syntax, one run_token per run of equal
    letters; the empty word renders as '1'."""
    if word.is_identity:
        return "1"
    return " ".join(run_token(names[i], s * len(list(run)))
                    for (i, s), run in groupby(word.letters))


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

