"""Command-line front end.

One query per invocation.  Human-readable output goes to stdout; passing
--records PATH additionally writes one machine-readable JSON line per
query (overwriting the file).  Machine records are deterministic: same
input and version give byte-identical output, so wall-clock timing is
printed only on the human stream.

Exit codes: 0 success, 1 domain error (message names the failing check),
2 syntax or usage error, 3 no table: enumeration resource exhaustion, or
a proof that P or P+ has infinite index (errors.InfiniteIndex; the
message says which).

run() does the front matter of every command: it reads the input file,
hands it to the command as `_cmd_<name>(args, input)`, writes the
record the command returns before the first human line, prints the
lines and returns the command's exit code.  A command only computes
its _Report, so a new command or per-run output adds only its own logic.

Library callers use run(argv), which returns the exit code.  main(), the
console script's entry, flushes stdout and stderr and ends the process
with os._exit: every file a command opens is closed before run()
returns and nothing is registered with atexit, so tearing down the
heap and the modules would only cost time.  A reader that closes stdout
early (`| head`) ends the command quietly with exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional

from .coset_enumeration import EnumerationLimits
from .double_cosets import key_leaves, slot_count
from .errors import (HandleCosetError, MissingSection, ResourceExhausted,
                     SkgSyntaxError, UsageError)
from .finite_quotient import (MAX_SEPARATE_DEGREE, SeparationVerdict,
                              quotient_separate)
from .handle_classifier import (ClassifierContext, candidate_invariant,
                                class_listing, equivalent, handle_invariant,
                                image_member, subgroup_table, validate)
from .knot_input import (_INTEGER, CaseLabel, case_words, format_word,
                         parse_input, parse_word, parse_word_list)
from .word_algebra import Word

ENV_MAX_COSETS = "HANDLE_COSET_MAX_COSETS"


def _integer(text: str) -> int:
    """A count as the user typed it, read in the grammar of a .skg
    exponent, -?[0-9]+; int() alone also takes 4_0, +5, " 7 " and
    digits of other scripts."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError("must be an integer")
    try:
        return int(text)
    except ValueError:  # past int()'s limit on digits
        raise argparse.ArgumentTypeError("has too many digits") from None


def _limits(max_cosets: Optional[int] = None) -> EnumerationLimits:
    source = "--max-cosets"
    if max_cosets is None:
        env = os.environ.get(ENV_MAX_COSETS)
        if env is not None:
            source = ENV_MAX_COSETS
            try:
                max_cosets = _integer(env)
            except argparse.ArgumentTypeError as exc:
                raise UsageError(f"{ENV_MAX_COSETS} {exc}")
    if max_cosets is None:
        return EnumerationLimits()
    if max_cosets < 1:
        raise UsageError(f"{source} must be positive")
    return EnumerationLimits(max_live_cosets=max_cosets,
                             max_total_defined=10 * max_cosets)


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is dropped
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise UsageError(f"cannot read {path}: not valid UTF-8")
    return parse_input(text, label=Path(path).stem)


def _context(input, case: CaseLabel) -> ClassifierContext:
    """The input's context, built only once case_words has found that
    the case fits the input: a mismatch is reported before any table is
    built."""
    case_words(input, case)  # raises the CaseMismatch
    return ClassifierContext.build(input, _limits())


def _cords(args, presentation, expected: int) -> list[Word]:
    words = [parse_word(text, presentation) for text in args.cord]
    if len(words) != expected:
        raise UsageError(f"expected {expected} --cord option(s), got {len(words)}")
    return words


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _value_json(key, orbit_size, texts) -> str:
    """A value's JSON text, read off its key: a canonical coset, or a
    pair of keys, as key_pair sorts them, which is the order of the
    value's own pairs.  Spelled as json.dumps spells the object with
    sort_keys and compact separators; every string goes through _JSON."""
    if isinstance(key, int):
        return (f'{{"canonical":{key},"orbit_size":{orbit_size[key]},'
                f'"representative":{_JSON.encode(texts[key])}}}')
    return '{"pair":[' + ",".join(_value_json(k, orbit_size, texts) for k in key) + "]}"


def _result_head(kind: str, case: CaseLabel, core_oriented: bool) -> str:
    """The text of a value's record, {case, core_oriented, kind, value},
    up to the value; the value and a closing brace complete it."""
    return _JSON.encode({"kind": kind, "case": case.value,
                         "core_oriented": core_oriented})[:-1] + ',"value":'


def _value_text(key, texts) -> str:
    if isinstance(key, int):
        return f"[{texts[key]}]"
    return "{" + ", ".join(_value_text(k, texts) for k in key) + "}"


class _Report(NamedTuple):
    """What a command reports to run(): its record, its human lines and
    its exit code.  Given `field`, that field of the record is streamed
    from `pieces` (see _emit)."""
    record: dict
    lines: Iterable[str]
    code: int = 0
    field: Optional[str] = None
    pieces: Iterable[str] = ()


def _emit(args, report: _Report) -> None:
    """Write the report's record; run() calls this before any human
    output, so the record survives a reader that closes stdout early.

    Given a `field`, that field's value is the JSON text the `pieces`
    spell, written one piece at a time: the head is encoded with 0 in its
    place and the pieces are written where the 0 was, so a stream of
    pieces is never held whole (`classes` writes one piece per entry: on
    Coxeter S8 with P = <s1>, case 1, `classes --records` peaks at 21.9 MB
    of RSS, 34.5 MB when the record was built whole).  The bytes are
    those of json.dumps of the whole record with sort_keys and compact
    separators: a string value escapes its quotes, so the text
    '"field":0' can only be the key.  Without --records the pieces are
    never read."""
    if not args.records:
        return
    record, field = report.record, report.field
    text = _JSON.encode(record if field is None else dict(record, **{field: 0}))
    try:
        with open(args.records, "w", encoding="utf-8") as fh:
            if field is not None:
                head, key, text = text.partition(f'"{field}":0')
                fh.write(head + key[:-1])
                fh.writelines(report.pieces)
            fh.write(text + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {args.records}: {exc.strerror}")


def _entries(classes, head: str, orbit_size, texts) -> Iterator[str]:
    """The `classes` record's list of entries, one piece per entry,
    {representative, value: the value's record}, spelled from text."""
    yield "["
    for k, (key, c) in enumerate(classes):
        yield (f'{"," if k else ""}{{"representative":{_JSON.encode(texts[c])},'
               f'"value":{head}{_value_json(key, orbit_size, texts)}}}}}')
    yield "]"


def _defined(ctx: ClassifierContext) -> int:
    total = ctx.p_table.total_defined
    if ctx.p_plus_table is not None:
        total += ctx.p_plus_table.total_defined
    return total


def _case_record(args, input, ctx: Optional[ClassifierContext], **fields) -> dict:
    """A case query's record: the head every one shares (command, input,
    case, core_oriented, and cosets_defined when a context was built),
    then its own fields."""
    record = {"command": args.command, "input": input.label, "case": args.case,
              "core_oriented": args.core_oriented, **fields}
    if ctx is not None:
        record["cosets_defined"] = _defined(ctx)
    return record


def _heading(args) -> str:
    return f"case {args.case}, {'' if args.core_oriented else 'un'}oriented core"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args, input) -> _Report:
    report = validate(input, _limits())
    failures = len(report.failures)
    return _Report({"command": "validate", "input": input.label,
                    "checks": [{"name": c.name, "status": c.status,
                                "detail": c.detail} for c in report.checks]},
                   [*(f"[{c.status}] {c.name}: {c.detail}" for c in report.checks),
                    f"{len(report.checks)} checks, {failures} failed"],
                   0 if failures == 0 else 1)


def _cmd_enumerate(args, input) -> _Report:
    start = time.perf_counter()
    table = subgroup_table(input, args.subgroup, _limits(args.max_cosets))
    elapsed = time.perf_counter() - start
    return _Report({"command": "enumerate", "input": input.label,
                    "subgroup": args.subgroup, "index": table.index,
                    "cosets_defined": table.total_defined},
                   [f"subgroup {args.subgroup}: index {table.index}",
                    f"cosets defined: {table.total_defined}",
                    f"time: {elapsed:.3f}s"])


def _cmd_invariant(args, input) -> _Report:
    case = CaseLabel(args.case)
    g = _cords(args, input.presentation, 1)[0]
    start = time.perf_counter()
    ctx = _context(input, case)
    inv = handle_invariant(ctx, case, args.core_oriented, g)
    elapsed = time.perf_counter() - start
    names = input.presentation.generator_names
    # a climb per leaf: witness_texts would walk every coset up to the last
    texts = {c: format_word(inv.table.witness(c), names) for c in key_leaves(inv.key)}
    return _Report({"command": "invariant", "input": input.label,
                    "words": list(args.cord), "cosets_defined": _defined(ctx)},
                   [_heading(args), f"invariant: {_value_text(inv.key, texts)}",
                    f"time: {elapsed:.3f}s ({_defined(ctx)} cosets defined)"],
                   field="result",
                   pieces=(_result_head(inv.kind, case, args.core_oriented),
                           _value_json(inv.key, inv.table.orbit_sizes, texts), "}"))


def _cmd_equiv(args, input) -> _Report:
    case = CaseLabel(args.case)
    g1, g2 = _cords(args, input.presentation, 2)
    ctx = _context(input, case)
    verdict = "equivalent" if equivalent(ctx, case, args.core_oriented, g1, g2) \
        else "inequivalent"
    return _Report(_case_record(args, input, ctx, words=list(args.cord),
                                verdict=verdict), [verdict])


def _cmd_classes(args, input) -> _Report:
    """List the classes; the record's entries and the lines are
    generators, so no entry is built without --records and neither the
    record nor the listing is ever held whole."""
    case = CaseLabel(args.case)
    ctx = _context(input, case)
    kind, classes, orbit_size, texts = class_listing(ctx, case, args.core_oriented)
    lines = (f"  class {k}: representative {texts[c]}  value {_value_text(key, texts)}"
             for k, (key, c) in enumerate(classes, start=1))
    return _Report(_case_record(args, input, ctx, count=len(classes)),
                   chain([f"{_heading(args)}: {len(classes)} classes"], lines),
                   field="classes",
                   pieces=_entries(classes, _result_head(kind, case, args.core_oriented),
                                   orbit_size, texts))


def _cmd_image_check(args, input) -> _Report:
    case = CaseLabel(args.case)
    words = parse_word_list(args.candidate, input.presentation, ";")
    expected = slot_count(case is CaseLabel.CASE3, args.core_oriented)
    if len(words) != expected:
        raise UsageError(f"--candidate needs {expected} words for case {case.value}"
                         f"{' with oriented core' if args.core_oriented else ''}")
    ctx = _context(input, case)
    candidate = candidate_invariant(ctx, case, args.core_oriented, words)
    verdict = "in-image" if image_member(ctx, case, args.core_oriented, candidate) \
        else "not-in-image"
    return _Report(_case_record(args, input, ctx,
                                words=[p.strip() for p in args.candidate.split(";")],
                                verdict=verdict), [verdict])


def _cmd_separate(args, input) -> _Report:
    case = CaseLabel(args.case)
    g1, g2 = _cords(args, input.presentation, 2)
    verdict = quotient_separate(input, case, args.core_oriented, g1, g2,
                                max_degree=args.max_degree)
    text = "distinct" if verdict is SeparationVerdict.DISTINCT else "unknown"
    return _Report(_case_record(args, input, None, words=list(args.cord),
                                max_degree=args.max_degree, verdict=text), [text])


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handlecoset",
        description="Classify cords and 1-handles attached to surface-knots "
                    "by double-coset invariants of the knot group.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help, cords=None):
        """A subcommand reading `file`; given `cords`, it takes --case,
        --core-oriented and, if `cords` is not 0, repeatable --cord."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--records", metavar="PATH",
                       help="write a machine-readable JSON record to PATH")
        p.add_argument("file")
        if cords is not None:
            p.add_argument("--case", type=_integer, choices=[1, 2, 3], required=True)
            p.add_argument("--core-oriented", action="store_true")
            if cords:
                p.add_argument("--cord", action="append", default=[],
                               metavar="WORD", help="cord word (repeatable)")
        return p

    add("validate", _cmd_validate, "run the input side-condition checks")
    p = add("enumerate", _cmd_enumerate, "enumerate cosets of P or P+")
    p.add_argument("--subgroup", choices=["P", "P+"], default="P")
    p.add_argument("--max-cosets", type=_integer, default=None, metavar="N")
    add("invariant", _cmd_invariant, "invariant of one cord word", 1)
    add("equiv", _cmd_equiv, "decide equivalence of two cord words", 2)
    add("classes", _cmd_classes, "list all equivalence classes", 0)
    p = add("image-check", _cmd_image_check,
            "check whether a candidate value is realized by a 1-handle", 0)
    p.add_argument("--candidate", required=True, metavar="W1;W2[;...]",
                   help="semicolon-separated cord words building the candidate")

    p = add("separate", _cmd_separate,
            "try to separate two cords in finite quotients", 2)
    p.add_argument("--max-degree", type=_integer, default=6, metavar="D",
                   choices=range(1, MAX_SEPARATE_DEGREE + 1),
                   help=f"largest permutation degree searched, 1..{MAX_SEPARATE_DEGREE}")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        report = args.func(args, _load(args.file))
        _emit(args, report)
        for line in report.lines:
            print(line)
        return report.code
    except HandleCosetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (3 if isinstance(exc, ResourceExhausted) else
                2 if isinstance(exc, (SkgSyntaxError, MissingSection, UsageError)) else 1)


def main() -> None:
    """The console script: run(), then flush both streams and end the
    process without tearing down the heap."""
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        code = 1  # the reader went away (say `| head`): stop quietly
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
