"""Workload `knots`: separation on 2-bridge knot groups, the paper's domain.

Each operation gets a fresh Schubert presentation <a, b | a w = w b> of
a 2-bridge knot with P = <a>.  It first tries ClassifierContext.build
under a budget of BUDGET live cosets (P has infinite index, so this
always ends in ResourceExhausted), then runs quotient_separate at the
default max_degree 6 on two cord pairs of the knot: one equivalent by
construction (g against p g q, p and q powers of a) and one random pair.
No complete coset table exists here; the time goes to coset enumeration
up to its budget and to the homomorphism search.

A round is the pinned table of every Schubert presentation with p <= 13
(40 of them), in seeded order with seeded cord words.  The search cost
differs twentyfold between presentations, so a seeded draw of knots
would make runs with different seeds measure different work.  With
p <= 11 the cheap presentations made up half the table and the median
latency fell in the gap between the cheap and the dear ones, where it
jumped between runs; with p <= 13 it falls among the dear ones.  There is
only one round: presentations must not repeat within a run, or later
operations would time cache hits of finite_quotient that no CLI user
gets.  A run of `--seconds` takes the first seconds / ITEM_S
presentations of the seeded order, the whole table from 24 s on.
"""

from __future__ import annotations

import gc
import random
import resource

import corpus
import oracle
from common import Workload, rss_mb

P_MAX = 13
BUDGET = 200_000  # live cosets; the total-defined cap is ten times that
MAX_DEGREE = 6
ITEM_S = 0.6  # an operation's time at the nominal machine speed, roughly


def _words(rng: random.Random) -> tuple[str, str, str, str]:
    g = corpus.random_word(rng, ["a", "b"], rng.randint(4, 12))
    h = corpus.conjugate_in(rng, g, ["a"], 3)
    return (g, h, corpus.random_word(rng, ["a", "b"], rng.randint(4, 12)),
            corpus.random_word(rng, ["a", "b"], rng.randint(4, 12)))


class RepeatedPresentation(Exception):
    """The run handed the program a presentation it had already seen."""


def _clear_caches() -> None:
    """Start every operation cold, as a fresh CLI process would.  The
    caller also empties the garbage collector before each operation, so
    that no operation pays for a collection of the garbage of earlier
    ones; that cut the spread of one knot's time between runs by a
    third."""
    from handlecoset import finite_quotient
    for name in ("_search", "_double_coset_min"):
        clear = getattr(getattr(finite_quotient, name, None), "cache_clear", None)
        if clear is not None:
            clear()


class Knots(Workload):
    name = "knots"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.results: list[tuple] = []
        self.seen: set = set()

    def setup(self) -> None:
        rng = random.Random(self.seed)
        table = corpus.knot_table(P_MAX)
        rng.shuffle(table)
        self.items = [(p, q, corpus.two_bridge_skg(p, q), _words(rng))
                      for p, q in table]

    def rounds(self, seconds: float) -> list:
        return [self.items[:max(1, int(seconds / ITEM_S))]]

    def _fresh(self, data) -> None:
        if data.presentation in self.seen:
            raise RepeatedPresentation(data.presentation)
        self.seen.add(data.presentation)

    def run_round(self, items, clock) -> None:
        from handlecoset import (CaseLabel, ClassifierContext,
                                 EnumerationLimits, ResourceExhausted,
                                 parse_input, parse_word, quotient_separate)
        limits = EnumerationLimits(BUDGET, 10 * BUDGET)
        for p, q, skg, (g, h, g1, g2) in items:
            op = self.attempted
            self.attempted += 1
            _clear_caches()
            gc.collect()
            clock.start()
            try:
                data = parse_input(skg)
                self._fresh(data)
                try:
                    ClassifierContext.build(data, limits)
                    built = True
                except ResourceExhausted:
                    built = False
                pres = data.presentation
                verdicts = tuple(
                    quotient_separate(data, CaseLabel.CASE1, True,
                                      parse_word(x, pres), parse_word(y, pres),
                                      max_degree=MAX_DEGREE).value
                    for x, y in ((g, h), (g1, g2)))
            except RepeatedPresentation:
                raise
            except Exception as exc:  # any exception is a failed operation
                clock.stop()
                self._fail(op, f"b({p},{q}): {exc!r}")
                continue
            clock.stop()
            if built:
                self._fail(op, f"b({p},{q}): the build completed on an infinite index")
            self.results.append((op, p, q, skg, (g, h, g1, g2), verdicts))

    def peak_rss_mb(self) -> float:
        return rss_mb(resource.RUSAGE_SELF)

    def check(self) -> None:
        self.missed = 0
        for op, p, q, skg, (g, h, g1, g2), (v_eq, v_rand) in self.results:
            relator = next(line[4:] for line in skg.splitlines()
                           if line.startswith("rel:"))
            if v_eq != "unknown":
                self._fail(op, f"b({p},{q}): equivalent pair reported {v_eq}")
            found = oracle.separating_quotient(relator, g1, g2, MAX_DEGREE)
            if v_rand == "distinct" and not found:
                self._fail(op, f"b({p},{q}): 'distinct' with no separating quotient")
            elif v_rand == "unknown" and found:
                self.missed += 1

    def extra(self) -> dict:
        pairs = 2 * len(self.results)
        decided = sum(v != "unknown" for *_, verdicts in self.results
                      for v in verdicts)
        return {"decided_share": decided / pairs if pairs else 0.0,
                "pairs": pairs,
                "random_pairs_separable_but_unknown": self.missed,
                "build_budget_live_cosets": BUDGET}

    def traced_round(self, items, tracer) -> None:
        from handlecoset import (CaseLabel, ClassifierContext,
                                 EnumerationLimits, ResourceExhausted,
                                 enumerate_cosets, find_homomorphisms,
                                 parse_input, parse_word, quotient_separate)
        limits = EnumerationLimits(BUDGET, 10 * BUDGET)
        for p, q, skg, (g, h, g1, g2) in items:
            _clear_caches()
            gc.collect()
            with tracer.operation():
                with tracer.span("knot_input.parse_input"):
                    data = parse_input(skg)
                pres = data.presentation
                try:
                    with tracer.span("coset_enumeration.enumerate_cosets"):
                        enumerate_cosets(pres, data.p_generators, limits)
                    raise RuntimeError(f"b({p},{q}): enumeration completed")
                except ResourceExhausted as exc:
                    tracer.count("coset_enumeration.cosets_defined", exc.total_defined)
                    tracer.count("coset_enumeration.exhausted")
                try:
                    with tracer.span("handle_classifier.build"):
                        ClassifierContext.build(data, limits)
                except ResourceExhausted:
                    pass
                for degree in range(1, MAX_DEGREE + 1):
                    with tracer.span("finite_quotient.find_homomorphisms"):
                        homs = find_homomorphisms(pres, degree)
                    tracer.count("finite_quotient.homs_found", len(homs))
                for x, y in ((g, h), (g1, g2)):
                    wx, wy = parse_word(x, pres), parse_word(y, pres)
                    with tracer.span("finite_quotient.quotient_separate"):
                        verdict = quotient_separate(data, CaseLabel.CASE1, True,
                                                    wx, wy, max_degree=MAX_DEGREE)
                    if verdict.value == "distinct":
                        tracer.count("finite_quotient.distinct")
