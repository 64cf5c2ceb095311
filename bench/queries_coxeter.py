"""Workload `queries-coxeter`: point queries against prebuilt contexts.

Set-up builds four pinned contexts on S8 with a large P or P+ (a block
S6, S5 or S4 of consecutive s_i, index 56 to 1680, cases 1 and 2; and
case 3 with P = S4 x S2, P+ = S4, n the S2 generator).  The timed loop
then mixes handle_invariant (both orientations), equivalent (half the
pairs equivalent by construction) and image_member (realised values and
the non-surjectivity witness) on seeded cord words of 8 to 128 letters.  All of its time is double-coset search, inversion
and twist; coset enumeration happens only in set-up, so work moved into
the build shows as a trade between setup_s and ops_per_s.
"""

from __future__ import annotations

import random
import resource
from dataclasses import dataclass
from typing import Optional

import corpus
import oracle
from common import Workload, rss_mb

POOL = 64  # distinct rounds of words; later rounds repeat them in order
ROUND_S = 0.005  # a round's time at the nominal machine speed
REALISED = object()  # stands for the invariant computed earlier in the round


@dataclass
class Context:
    case: int
    p: list[int]
    p_plus: Optional[list[int]]
    n_gen: Optional[int]
    skg: str = ""


def _contexts() -> list[Context]:
    """The pinned contexts.  Where a block sits changes the cost of a
    query on random words by a fifth, so it is not left to the seed."""
    ctxs = [Context(1, [1, 2, 3, 4, 5], None, None),     # S6, index 56
            Context(2, [2, 3, 4, 5], None, None),        # S5, index 336
            Context(1, [3, 4, 5], None, None),           # S4, index 1680
            Context(3, [1, 2, 3, 5], [1, 2, 3], 5)]      # S4 x S2 over S4
    for c in ctxs:
        c.skg = corpus.coxeter_skg(8, c.p, c.p_plus, c.n_gen)
    return ctxs


def _words(rng: random.Random, ctx: Context) -> list[tuple[str, str, str]]:
    """POOL triples (g, a word equivalent to g, a random word).  The
    lengths of g and of the random word run evenly over 8..128 letters in
    seeded order, so every seed has the same mix of lengths."""
    names = [f"s{i}" for i in range(1, 8)]
    p_names = [f"s{i}" for i in (ctx.p_plus or ctx.p)]
    lengths = [8 + 120 * i // (POOL - 1) for i in range(POOL)]
    rng.shuffle(lengths)
    out = []
    for r in range(POOL):
        g = corpus.random_word(rng, names, lengths[r])
        out.append((g, corpus.conjugate_in(rng, g, p_names, 6),
                    corpus.random_word(rng, names, lengths[(r + POOL // 2) % POOL])))
    return out


class QueriesCoxeter(Workload):
    name = "queries-coxeter"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.first: list[list] = []   # results of the first pass over the pool
        self.pairs = self.decided = 0  # equivalent calls, and those answered

    # -- set-up ------------------------------------------------------------
    def setup(self) -> None:
        from handlecoset import (CaseLabel, ClassifierContext,
                                 nonsurjectivity_witness, parse_input,
                                 parse_word)
        rng = random.Random(self.seed)
        self.specs = _contexts()
        self.built = []
        for spec in self.specs:
            data = parse_input(spec.skg)
            ctx = ClassifierContext.build(data)
            case = CaseLabel(spec.case)
            witnesses = {o: nonsurjectivity_witness(ctx, case, o)
                         for o in (True, False)}
            self.built.append((ctx, case, witnesses))
        self.pool_text = list(zip(*(_words(rng, spec) for spec in self.specs)))
        self.pool = [[tuple(parse_word(w, ctx.input.presentation) for w in words)
                      for words, (ctx, _, _) in zip(rnd, self.built)]
                     for rnd in self.pool_text]

    def rounds(self, seconds: float) -> list:
        return list(range(max(1, round(seconds / ROUND_S))))

    # -- timed loop ----------------------------------------------------------
    def _ops(self, r: int):
        """The operations of round r as (function, arguments) pairs; an
        image_member argument REALISED is the value handle_invariant
        returned earlier in the round for the same core orientation."""
        from handlecoset import equivalent, handle_invariant, image_member
        oriented = r % 2 == 0
        for (ctx, case, wit), (g, h_eq, h_rand) in zip(self.built,
                                                       self.pool[r % POOL]):
            yield handle_invariant, (ctx, case, True, g)
            yield handle_invariant, (ctx, case, False, g)
            yield equivalent, (ctx, case, oriented, g, h_eq)
            yield equivalent, (ctx, case, oriented, g, h_rand)
            yield image_member, (ctx, case, False, REALISED)
            yield image_member, (ctx, case, False, wit[False])
            if case.value == 3:
                yield image_member, (ctx, case, True, REALISED)
                yield image_member, (ctx, case, True, wit[True])

    def run_round(self, r: int, clock) -> None:
        from handlecoset import equivalent, handle_invariant
        results = []
        values = {}
        for fn, args in self._ops(r):
            if args[-1] is REALISED:
                args = args[:-1] + (values.get(args[2]),)
            op = self.attempted
            self.attempted += 1
            self.pairs += fn is equivalent
            clock.start()
            try:
                result = fn(*args)
            except Exception as exc:  # any exception is a failed operation
                clock.stop()
                self._fail(op, f"{fn.__name__}: {exc!r}")
                results.append(None)
                continue
            clock.stop()
            if fn is handle_invariant:
                values[args[2]] = result
            elif fn is equivalent:
                self.decided += 1
            results.append(result)
        if r < POOL:
            self.first.append(results)
        elif results != self.first[r % POOL]:
            for k, (a, b) in enumerate(zip(results, self.first[r % POOL])):
                if a != b:
                    self._fail(self.attempted - len(results) + k,
                               f"round {r}: answer {k} differs from round {r % POOL}")

    def peak_rss_mb(self) -> float:
        return rss_mb(resource.RUSAGE_SELF)

    # -- oracle --------------------------------------------------------------
    def check(self) -> None:
        images = oracle.coxeter_images(8)
        op = 0
        for r, results in enumerate(self.first):
            expected = list(self._expected(r, images))
            if len(expected) != len(results):
                raise RuntimeError("oracle and loop disagree on the round shape")
            for k, (want, got) in enumerate(zip(expected, results)):
                ok = want(got) if callable(want) else got is want
                if not ok:
                    self._fail(op + k, f"round {r}, answer {k}: wrong")
            op += len(results)

    def _expected(self, r: int, images):
        oriented = r % 2 == 0
        for spec, (g, h_eq, h_rand) in zip(self.specs, self.pool_text[r]):
            model = oracle.YoungSubgroup(8, spec.p_plus or spec.p)
            n_perm = images[f"s{spec.n_gen}"] if spec.n_gen else None
            if spec.case == 3:
                kinds = {True: "case3-oriented-core", False: "case3"}
            else:
                kinds = {True: "oriented-core", False: "unordered-core"}
            gp, hp, rp = (oracle.evaluate(w, images) for w in (g, h_eq, h_rand))

            def key(perm, o, kinds=kinds, model=model, n_perm=n_perm):
                return oracle.invariant_key(kinds[o], perm, model, n_perm)

            def matches(perm, o, kinds=kinds, model=model, key=key):
                want = key(perm, o)
                return lambda inv: (inv is not None and inv.kind == kinds[o]
                                    and _value_key(inv.value, model, images) == want)

            yield matches(gp, True)
            yield matches(gp, False)
            yield key(gp, oriented) == key(hp, oriented)
            yield key(gp, oriented) == key(rp, oriented)
            yield True
            yield False
            if spec.case == 3:
                yield True
                yield False

    def extra(self) -> dict:
        # with a complete table every equivalent() answer is a proof
        return {"decided_share": self.decided / self.pairs}

    # -- traced run ------------------------------------------------------------
    def traced_setup(self, tracer) -> None:
        from handlecoset import (ClassifierContext, enumerate_cosets,
                                 parse_input)
        for spec in self.specs:
            with tracer.operation("setup"):
                with tracer.span("knot_input.parse_input"):
                    data = parse_input(spec.skg)
                subgroups = [data.p_generators]
                if spec.case == 3:
                    subgroups.append(data.p_plus_generators)
                for sub in subgroups:
                    with tracer.span("coset_enumeration.enumerate_cosets"):
                        table = enumerate_cosets(data.presentation, sub)
                    tracer.count("coset_enumeration.cosets_defined", table.total_defined)
                    tracer.count("coset_enumeration.index", table.index)
                with tracer.span("handle_classifier.build"):
                    ClassifierContext.build(data)

    def traced_round(self, r: int, tracer) -> None:
        from handlecoset import dc_id, dc_invert, dc_twist, handle_invariant
        values = {}
        for fn, args in self._ops(r):
            if args[-1] is REALISED:
                args = args[:-1] + (values.get(args[2]),)
            with tracer.operation(), tracer.span(f"handle_classifier.{fn.__name__}"):
                result = fn(*args)
            if fn is handle_invariant:
                values[args[2]] = result
        for (ctx, case, _), (g, _, _) in zip(self.built, self.pool[r % POOL]):
            if case.value == 3:
                table, acting = ctx.p_plus_table, ctx.input.p_plus_generators
            else:
                table, acting = ctx.p_table, ctx.input.p_generators
            with tracer.operation(), tracer.span("double_cosets.dc_id"):
                d = dc_id(table, acting, g)
            with tracer.operation(), tracer.span("double_cosets.dc_invert"):
                dc_invert(table, acting, d)
            if case.value == 3:
                with tracer.operation(), tracer.span("double_cosets.dc_twist"):
                    dc_twist(table, acting, ctx.input.n_word, d, ctx.report)


def _value_key(value, model, images):
    """Oracle key of an invariant value, read through its representatives."""
    from handlecoset import DoubleCosetId
    if isinstance(value, DoubleCosetId):
        names = {i: f"s{i + 1}" for i in range(7)}
        perm = tuple(range(8))
        for i, s in value.representative():
            perm = oracle.compose(perm, images[names[i]])  # s_i is an involution
        return model.key(perm)
    return oracle.pair(_value_key(value.first, model, images),
                       _value_key(value.second, model, images))
