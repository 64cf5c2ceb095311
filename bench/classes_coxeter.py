"""Workload `classes-coxeter`: the CLI `classes --records`, one process per query.

A round is seventeen queries on Coxeter presentations of S7 and S8 with
a small P, covering cases 1, 2 and 3 and both core orientations:
sixteen S7 queries and one of two pinned S8 queries, in turn (S8 with
P = <s1>, and S8 with P = <s1, s3>, P+ = <s1>, n = s3).  An S8 query
takes as long as the sixteen S7 ones, and its cost moves by a third
with the choice of generator, so a seeded choice would make runs with
different seeds measure different work.  The seed picks the S7
generators.  This is the build-dominated path: HLT enumeration,
table verification, the double-coset partition, and the JSON records.

A run is a whole number of rounds, fixed by `--seconds` alone, so every
run has the same sample count and its tail is the same percentile.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Optional

import corpus
import oracle
from common import OUT, Workload, python, rss_mb

ROUND_S = 7.5  # a round's time at the nominal machine speed


@dataclass(frozen=True)
class Query:
    n: int
    p: tuple[int, ...]
    p_plus: Optional[tuple[int, ...]]
    n_gen: Optional[int]
    case: int
    oriented: bool

    @property
    def label(self) -> str:
        sub = "-".join(map(str, self.p))
        if self.p_plus:
            sub += "_plus" + "-".join(map(str, self.p_plus)) + f"_n{self.n_gen}"
        core = "o" if self.oriented else "u"
        return f"S{self.n}_P{sub}_c{self.case}{core}"

    @property
    def kind(self) -> str:
        if self.case == 3:
            return "case3-oriented-core" if self.oriented else "case3"
        return "oriented-core" if self.oriented else "unordered-core"

    def skg(self) -> str:
        return corpus.coxeter_skg(self.n, list(self.p),
                                  list(self.p_plus) if self.p_plus else None,
                                  self.n_gen)

    def argv(self, path: str, records: str) -> list[str]:
        argv = ["classes", path, "--case", str(self.case), "--records", records]
        return argv + (["--core-oriented"] if self.oriented else [])


def _queries(seed: int) -> list[Query]:
    """Two seeded S7 variants of each of eight query shapes, then the two
    pinned S8 queries."""
    rng = random.Random(seed)
    s7 = []
    for _ in range(2):
        i, j = rng.randint(1, 6), rng.randint(1, 6)
        a = rng.randint(1, 6)
        b = rng.choice([k for k in range(1, 7) if abs(k - a) > 1])
        c = rng.randint(1, 6)
        d = rng.choice([k for k in range(1, 7) if abs(k - c) > 1])
        pair = tuple(sorted((a, b)))
        s7 += [Query(7, (i,), None, None, 1, True),
               Query(7, (j,), None, None, 1, False),
               Query(7, (j,), None, None, 2, True),
               Query(7, (i,), None, None, 2, False),
               Query(7, pair, None, None, 1, True),
               Query(7, pair, None, None, 2, False),
               Query(7, tuple(sorted((c, d))), (c,), d, 3, True),
               Query(7, tuple(sorted((c, d))), (c,), d, 3, False)]
    return s7 + [Query(8, (1,), None, None, 1, False),
                 Query(8, (1, 3), (1,), 3, 3, True)]


class ClassesCoxeter(Workload):
    name = "classes-coxeter"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.records: dict[int, bytes] = {}    # query slot -> first records
        self.ops_of_slot: dict[int, list[int]] = {}
        self.workdir = None

    # -- set-up ------------------------------------------------------------
    def setup(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
        OUT.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"{self.name}-", dir=OUT)
        self.queries = _queries(self.seed)
        self.paths = []
        for k, q in enumerate(self.queries):
            path = os.path.join(self.workdir, f"{k}-{q.label}.skg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(q.skg())
            self.paths.append(path)

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def rounds(self, seconds: float) -> list:
        """Rounds as lists of query slots: the S7 queries with an S8 one
        among them, the two S8 queries in turn."""
        s7 = list(range(16))
        return [s7[:8] + [16 + r % 2] + s7[8:]
                for r in range(max(1, round(seconds / ROUND_S)))]

    # -- timed loop ----------------------------------------------------------
    def run_round(self, slots, clock) -> None:
        records = os.path.join(self.workdir, "records.json")
        for slot in slots:
            q = self.queries[slot]
            op = self.attempted
            self.attempted += 1
            argv = ["-m", "handlecoset.cli"] + q.argv(self.paths[slot], records)
            clock.start()
            done = python(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            clock.stop()
            if done.returncode != 0:
                self._fail(op, f"{q.label}: exit {done.returncode}: "
                               f"{done.stderr.decode(errors='replace')[-300:]}")
                continue
            with open(records, "rb") as fh:
                data = fh.read()
            self.ops_of_slot.setdefault(slot, []).append(op)
            first = self.records.setdefault(slot, data)
            if data != first:
                self._fail(op, f"{q.label}: --records differ between repeats")

    def peak_rss_mb(self) -> float:
        return rss_mb(resource.RUSAGE_CHILDREN)

    # -- oracle --------------------------------------------------------------
    def check(self) -> None:
        counts: dict[tuple, int] = {}
        for slot, data in self.records.items():
            q = self.queries[slot]
            problem = _check_records(q, json.loads(data), counts)
            if problem:
                for op in self.ops_of_slot[slot]:
                    self._fail(op, f"{q.label}: {problem}")

    def extra(self) -> dict:
        # a verified classification decides every pair of cords of its input
        answered = self.attempted - len(self.failed)
        return {"decided_share": answered / self.attempted,
                "queries": [q.label for q in self.queries]}

    # -- traced run ------------------------------------------------------------
    def traced_round(self, slots, tracer) -> None:
        from handlecoset import (CaseLabel, ClassifierContext, cli, dc_all,
                                 enumerate_classes, enumerate_cosets,
                                 parse_input)
        records = os.path.join(self.workdir, "records-traced.json")
        for slot in slots:
            q = self.queries[slot]
            with tracer.operation():
                with tracer.span("knot_input.parse_input"):
                    data = parse_input(q.skg(), label=q.label)
                subgroups = [data.p_generators]
                if q.case == 3:
                    subgroups.append(data.p_plus_generators)
                for sub in subgroups:
                    with tracer.span("coset_enumeration.enumerate_cosets"):
                        table = enumerate_cosets(data.presentation, sub)
                    tracer.count("coset_enumeration.cosets_defined", table.total_defined)
                    tracer.count("coset_enumeration.index", table.index)
                with tracer.span("handle_classifier.build"):
                    ctx = ClassifierContext.build(data)
                with tracer.span("handle_classifier.enumerate_classes"):
                    classes = enumerate_classes(ctx, CaseLabel(q.case), q.oriented)
                tracer.count("handle_classifier.classes", len(classes))
                if q.case == 3:
                    table, acting = ctx.p_plus_table, data.p_plus_generators
                else:
                    table, acting = ctx.p_table, data.p_generators
                with tracer.span("double_cosets.dc_all"):
                    dcs = dc_all(table, acting)
                tracer.count("double_cosets.double_cosets", len(dcs))
                tracer.count("double_cosets.cosets_partitioned", table.index)
                with open(os.devnull, "w") as sink, tracer.span("cli.run"), \
                        contextlib.redirect_stdout(sink):
                    code = cli.run(q.argv(self.paths[slot], records))
                if code != 0:
                    raise RuntimeError(f"{q.label}: cli.run returned {code}")
                with open(records, "rb") as fh:
                    data = fh.read()
                if slot in self.records and data != self.records[slot]:
                    self._fail(self.ops_of_slot[slot][0],
                               f"{q.label}: in-process --records differ from the CLI's")
                tracer.count("cli.records_bytes", len(data))
                with tracer.span("process.startup"):
                    python(["-c", "import handlecoset.cli"], check=True)


def _check_records(q: Query, rec: dict, counts: dict) -> str:
    """Compare one `classes` record with the permutation model; '' if it agrees."""
    if (rec.get("command"), rec.get("case"), rec.get("core_oriented")) != \
            ("classes", q.case, q.oriented):
        return "record header does not match the query"
    images = oracle.coxeter_images(q.n)
    model = oracle.YoungSubgroup(q.n, list(q.p_plus if q.case == 3 else q.p))
    n_perm = images[f"s{q.n_gen}"] if q.case == 3 else None
    key = (q.n, q.p, q.p_plus, q.n_gen, q.kind)
    if key not in counts:
        counts[key] = oracle.class_count(q.kind, model, n_perm)
        if q.kind == "oriented-core" and counts[key] != oracle.burnside_count(model):
            return "oracle disagrees with Burnside's count"
    classes = rec["classes"]
    if rec["count"] != len(classes) or len(classes) != counts[key]:
        return f"{rec['count']} classes, the permutation model has {counts[key]}"

    def value_key(value):
        if "pair" in value:
            return oracle.pair(*(value_key(v) for v in value["pair"]))
        g = oracle.evaluate(value["representative"], images)
        if value["orbit_size"] != model.orbit_size(g):
            raise ValueError("orbit_size disagrees with the model")
        return model.key(g)

    seen = set()
    for entry in classes:
        if entry["value"]["kind"] != q.kind:
            return "a class carries the wrong kind"
        rep = oracle.evaluate(entry["representative"], images)
        want = oracle.invariant_key(q.kind, rep, model, n_perm)
        try:
            got = value_key(entry["value"]["value"])
        except ValueError as exc:
            return str(exc)
        if got != want:
            return f"class of {entry['representative']!r} has the wrong value"
        if want in seen:
            return "two listed classes are equivalent"
        seen.add(want)
    return ""
