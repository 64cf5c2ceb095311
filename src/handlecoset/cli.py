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
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Iterable, Optional

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

def _value_json(key, orbit_size, texts) -> dict:
    """A value's record, read off its key: a canonical coset, or a pair
    of keys, as key_pair sorts them, which is the order of the value's
    own pairs."""
    if isinstance(key, int):
        return {"canonical": key, "orbit_size": orbit_size[key],
                "representative": texts[key]}
    return {"pair": [_value_json(k, orbit_size, texts) for k in key]}


def _value_text(key, texts) -> str:
    if isinstance(key, int):
        return f"[{texts[key]}]"
    return "{" + ", ".join(_value_text(k, texts) for k in key) + "}"


_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _emit(args, record: dict, classes: Optional[Iterable[dict]] = None) -> None:
    """Write the record; commands call this before any human output, so
    the record survives a reader that closes stdout early.

    The record is written as a stream: given `classes`, an iterable of
    entries, the head is encoded with an empty `classes` list, and the
    entries are written into it one at a time, so neither the list of
    entries nor the whole text is ever held (on Coxeter S8 with P = <s1>,
    case 1, `classes --records` peaks at 21.9 MB of RSS, 34.5 MB when
    the record was built whole).  The bytes are those of json.dumps of
    the whole record with sort_keys and compact separators: a string
    value escapes its quotes, so the text '"classes":[' can only be the
    key.  Without --records the entries are never built."""
    if not getattr(args, "records", None):
        return
    text = _JSON.encode(record if classes is None else dict(record, classes=[]))
    try:
        with open(args.records, "w", encoding="utf-8") as fh:
            if classes is not None:
                head, key, text = text.partition('"classes":[')  # text opens "]"
                fh.write(head + key)
                for k, entry in enumerate(classes):
                    fh.write(("," if k else "") + _JSON.encode(entry))
            fh.write(text + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {args.records}: {exc.strerror}")


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


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    input = _load(args.file)
    report = validate(input, _limits())
    _emit(args, {"command": "validate", "input": input.label,
                 "checks": [{"name": c.name, "status": c.status,
                             "detail": c.detail} for c in report.checks]})
    for check in report.checks:
        print(f"[{check.status}] {check.name}: {check.detail}")
    failures = len(report.failures)
    print(f"{len(report.checks)} checks, {failures} failed")
    return 0 if failures == 0 else 1


def _cmd_enumerate(args) -> int:
    input = _load(args.file)
    start = time.perf_counter()
    table = subgroup_table(input, args.subgroup, _limits(args.max_cosets))
    elapsed = time.perf_counter() - start
    _emit(args, {"command": "enumerate", "input": input.label,
                 "subgroup": args.subgroup, "index": table.index,
                 "cosets_defined": table.total_defined})
    print(f"subgroup {args.subgroup}: index {table.index}")
    print(f"cosets defined: {table.total_defined}")
    print(f"time: {elapsed:.3f}s")
    return 0


def _cmd_invariant(args) -> int:
    input = _load(args.file)
    case = CaseLabel(args.case)
    g = _cords(args, input.presentation, 1)[0]
    start = time.perf_counter()
    ctx = _context(input, case)
    inv = handle_invariant(ctx, case, args.core_oriented, g)
    elapsed = time.perf_counter() - start
    names = input.presentation.generator_names
    # a climb per leaf: witness_texts would walk every coset up to the last
    texts = {c: format_word(inv.table.witness(c), names) for c in key_leaves(inv.key)}
    _emit(args, {"command": "invariant", "input": input.label,
                 "words": list(args.cord),
                 "result": {"kind": inv.kind, "case": case.value,
                            "core_oriented": args.core_oriented,
                            "value": _value_json(inv.key, inv.table.orbit_sizes, texts)},
                 "cosets_defined": _defined(ctx)})
    core = "oriented core" if args.core_oriented else "unoriented core"
    print(f"case {case.value}, {core}")
    print(f"invariant: {_value_text(inv.key, texts)}")
    print(f"time: {elapsed:.3f}s ({_defined(ctx)} cosets defined)")
    return 0


def _cmd_equiv(args) -> int:
    input = _load(args.file)
    case = CaseLabel(args.case)
    g1, g2 = _cords(args, input.presentation, 2)
    ctx = _context(input, case)
    verdict = "equivalent" if equivalent(ctx, case, args.core_oriented, g1, g2) \
        else "inequivalent"
    _emit(args, _case_record(args, input, ctx, words=list(args.cord), verdict=verdict))
    print(verdict)
    return 0


def _cmd_classes(args) -> int:
    """List the classes; the record's entries are a generator that _emit
    consumes one at a time, so no entry is built without --records and
    the record is never held whole."""
    input = _load(args.file)
    case = CaseLabel(args.case)
    ctx = _context(input, case)
    kind, classes, orbit_size, texts = class_listing(ctx, case, args.core_oriented)
    head = {"kind": kind, "case": case.value, "core_oriented": args.core_oriented}
    _emit(args, _case_record(args, input, ctx, count=len(classes)),
          ({"representative": texts[c],
            "value": dict(head, value=_value_json(key, orbit_size, texts))}
           for key, c in classes))
    core = "oriented core" if args.core_oriented else "unoriented core"
    print(f"case {case.value}, {core}: {len(classes)} classes")
    for k, (key, c) in enumerate(classes, start=1):
        print(f"  class {k}: representative {texts[c]}  "
              f"value {_value_text(key, texts)}")
    return 0


def _cmd_image_check(args) -> int:
    input = _load(args.file)
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
    _emit(args, _case_record(args, input, ctx,
                             words=[p.strip() for p in args.candidate.split(";")],
                             verdict=verdict))
    print(verdict)
    return 0


def _cmd_separate(args) -> int:
    input = _load(args.file)
    case = CaseLabel(args.case)
    g1, g2 = _cords(args, input.presentation, 2)
    verdict = quotient_separate(input, case, args.core_oriented, g1, g2,
                                max_degree=args.max_degree)
    text = "distinct" if verdict is SeparationVerdict.DISTINCT else "unknown"
    _emit(args, _case_record(args, input, None, words=list(args.cord),
                             max_degree=args.max_degree, verdict=text))
    print(text)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handlecoset",
        description="Classify cords and 1-handles attached to surface-knots "
                    "by double-coset invariants of the knot group.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--records", metavar="PATH",
                       help="write a machine-readable JSON record to PATH")
        return p

    p = add("validate", _cmd_validate, help="run the input side-condition checks")
    p.add_argument("file")

    p = add("enumerate", _cmd_enumerate, help="enumerate cosets of P or P+")
    p.add_argument("file")
    p.add_argument("--subgroup", choices=["P", "P+"], default="P")
    p.add_argument("--max-cosets", type=_integer, default=None, metavar="N")

    def case_options(p, cords: int):
        p.add_argument("--case", type=_integer, choices=[1, 2, 3], required=True)
        p.add_argument("--core-oriented", action="store_true")
        if cords:
            p.add_argument("--cord", action="append", default=[],
                           metavar="WORD", help="cord word (repeatable)")

    p = add("invariant", _cmd_invariant, help="invariant of one cord word")
    p.add_argument("file")
    case_options(p, 1)

    p = add("equiv", _cmd_equiv, help="decide equivalence of two cord words")
    p.add_argument("file")
    case_options(p, 2)

    p = add("classes", _cmd_classes, help="list all equivalence classes")
    p.add_argument("file")
    case_options(p, 0)

    p = add("image-check", _cmd_image_check,
            help="check whether a candidate value is realized by a 1-handle")
    p.add_argument("file")
    case_options(p, 0)
    p.add_argument("--candidate", required=True, metavar="W1;W2[;...]",
                   help="semicolon-separated cord words building the candidate")

    p = add("separate", _cmd_separate,
            help="try to separate two cords in finite quotients")
    p.add_argument("file")
    case_options(p, 2)
    p.add_argument("--max-degree", type=_integer, default=6, metavar="D",
                   choices=range(1, MAX_SEPARATE_DEGREE + 1),
                   help=f"largest permutation degree searched, 1..{MAX_SEPARATE_DEGREE}")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    try:
        return args.func(args)
    except ResourceExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SkgSyntaxError, MissingSection, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HandleCosetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (say `| head`): point stdout at devnull so
        # the flush at interpreter exit cannot raise again, and stop
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
