"""Benchmark of handlecoset: end-to-end metrics, or per-layer ones when traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from the
checkout's `src/`.  Each workload is a closed loop with one client:
operations run one after another, in rounds of a fixed mix.  A run is a
fixed number of rounds, set by `--seconds` alone, so that every run does
the same amount of work.  Operation times are scaled to the nominal
machine speed by a reference timed between operations (common.Clock);
the raw wall times are printed beside them.  Every answer is checked
against an independent oracle after the loop; any wrong answer,
unexpected exception or exit code counts as a failed operation and
makes the run exit with status 1.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json.  With `--trace 1` the run does
a quarter of the rounds untraced and checked, then runs each operation
again twice through each layer's public functions, with a span around
every call and without, and reports the per-layer metrics of
BENCHMARK.json instead.  Spans and the full result go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, ROOT, SRC, Clock, import_seconds  # noqa: E402
from reference import NOMINAL_S  # noqa: E402

SETUP_REPEATS = 7
TRACED_SHARE = 0.25  # of --seconds, for the rounds of a traced run

# The end-to-end metric, and the workload, each layer metric should move.
SHOULD_MOVE = {
    "knot_input.parse_input_s": "latency_p50_ms on classes-coxeter (a small share)",
    "coset_enumeration.enumerate_cosets_s":
        "latency_* and peak_rss_mb on classes-coxeter and knots; setup_s on queries-coxeter",
    "coset_enumeration.cosets_defined":
        "latency_* and peak_rss_mb on classes-coxeter and knots; setup_s on queries-coxeter",
    "coset_enumeration.index_per_defined":
        "latency_* on classes-coxeter; setup_s on queries-coxeter",
    "coset_enumeration.exhausted": "latency_* and peak_rss_mb on knots",
    "handle_classifier.build_s": "latency_* on classes-coxeter; setup_s on queries-coxeter",
    "handle_classifier.enumerate_classes_s": "latency_* on classes-coxeter",
    "handle_classifier.classes": "latency_* on classes-coxeter",
    "double_cosets.dc_all_s": "latency_* on classes-coxeter",
    "double_cosets.double_cosets": "latency_* on classes-coxeter",
    "double_cosets.mean_orbit_size": "latency_* on classes-coxeter",
    "handle_classifier.handle_invariant_us": "ops_per_s and latency_* on queries-coxeter",
    "handle_classifier.equivalent_us": "ops_per_s and latency_* on queries-coxeter",
    "handle_classifier.image_member_us": "ops_per_s and latency_* on queries-coxeter",
    "double_cosets.dc_id_us": "ops_per_s and latency_* on queries-coxeter",
    "double_cosets.dc_invert_us": "ops_per_s and latency_* on queries-coxeter",
    "double_cosets.dc_twist_us": "ops_per_s and latency_* on queries-coxeter",
    "finite_quotient.find_homomorphisms_s": "latency_* on knots",
    "finite_quotient.homs_found": "latency_* on knots; decided_share on knots",
    "finite_quotient.compare_s": "latency_* and decided_share on knots",
    "finite_quotient.distinct": "latency_* and decided_share on knots",
    "cli.run_s": "latency_* on classes-coxeter",
    "cli.overhead_s": "latency_* on classes-coxeter",
    "cli.records_bytes": "latency_* on classes-coxeter",
    "process.startup_s": "latency_* on classes-coxeter",
    "trace.overhead_s": "none: span recording time per round",
}


def workloads():
    from classes_coxeter import ClassesCoxeter
    from knots import Knots
    from queries_coxeter import QueriesCoxeter
    return {w.name: w for w in (ClassesCoxeter, QueriesCoxeter, Knots)}


def machine(seed: int) -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "seed": seed, "cpu": platform.processor() or platform.machine()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(caches.glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                facts[f"l{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return facts


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), and its value; the maximum if there are too few."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100
    pct = math.floor(100 * (n - 10) / n)
    return xs[max(math.ceil(pct * n / 100) - 1, 0)], pct


def measure_setup(work) -> tuple[float, dict]:
    """Import time in fresh interpreters plus the workload's one-off work,
    each the median of several repeats, scaled to the nominal speed: an
    import by the reference timed in its own interpreter, the one-off
    work by the run's speed."""
    imports = [import_seconds("handlecoset") for _ in range(SETUP_REPEATS)]
    clock = Clock()
    for _ in range(SETUP_REPEATS):
        clock.start()
        work.setup()
        clock.stop()
    one_off = clock.scaled()
    detail = {"import_s": statistics.median(s * NOMINAL_S / r for s, r in imports),
              "one_off_s": statistics.median(one_off),
              "raw_s": statistics.median(s for s, _ in imports)
              + statistics.median(clock.raw()),
              "speed": clock.speed()}
    return detail["import_s"] + detail["one_off_s"], detail


def timed_loop(work, rounds: list) -> tuple[Clock, float]:
    clock = Clock()
    start = time.perf_counter()
    for rnd in rounds:
        work.run_round(rnd, clock)
    return clock, time.perf_counter() - start


def per_layer(tracer, overhead_s: float) -> dict[str, float]:
    times = tracer.self_times()

    def med(name: str, scale: float = 1.0) -> float:
        per_op = times.get(name)
        return statistics.median(per_op.values()) * scale if per_op else 0.0

    def count(name: str) -> float:
        return tracer.counts.get(name, 0)

    cli_overhead = []
    for op, run_s in times.get("cli.run", {}).items():
        work = sum(times.get(n, {}).get(op, 0.0) for n in
                   ("handle_classifier.build", "handle_classifier.enumerate_classes"))
        cli_overhead.append(run_s - work)
    defined = tracer.counts.get("coset_enumeration.cosets_defined", 0)
    dcs = tracer.counts.get("double_cosets.double_cosets", 0)
    return {
        "knot_input.parse_input_s": med("knot_input.parse_input"),
        "coset_enumeration.enumerate_cosets_s": med("coset_enumeration.enumerate_cosets"),
        "coset_enumeration.cosets_defined": count("coset_enumeration.cosets_defined"),
        "coset_enumeration.index_per_defined":
            tracer.counts.get("coset_enumeration.index", 0) / defined if defined else 0.0,
        "coset_enumeration.exhausted": count("coset_enumeration.exhausted"),
        "handle_classifier.build_s": med("handle_classifier.build"),
        "handle_classifier.enumerate_classes_s": med("handle_classifier.enumerate_classes"),
        "handle_classifier.classes": count("handle_classifier.classes"),
        "double_cosets.dc_all_s": med("double_cosets.dc_all"),
        "double_cosets.double_cosets": count("double_cosets.double_cosets"),
        "double_cosets.mean_orbit_size":
            tracer.counts.get("double_cosets.cosets_partitioned", 0) / dcs if dcs else 0.0,
        "handle_classifier.handle_invariant_us":
            med("handle_classifier.handle_invariant", 1e6),
        "handle_classifier.equivalent_us": med("handle_classifier.equivalent", 1e6),
        "handle_classifier.image_member_us": med("handle_classifier.image_member", 1e6),
        "double_cosets.dc_id_us": med("double_cosets.dc_id", 1e6),
        "double_cosets.dc_invert_us": med("double_cosets.dc_invert", 1e6),
        "double_cosets.dc_twist_us": med("double_cosets.dc_twist", 1e6),
        "finite_quotient.find_homomorphisms_s": med("finite_quotient.find_homomorphisms"),
        "finite_quotient.homs_found": count("finite_quotient.homs_found"),
        "finite_quotient.compare_s": med("finite_quotient.quotient_separate"),
        "finite_quotient.distinct": count("finite_quotient.distinct"),
        "cli.run_s": med("cli.run"),
        "cli.overhead_s": statistics.median(cli_overhead) if cli_overhead else 0.0,
        "cli.records_bytes": count("cli.records_bytes"),
        "process.startup_s": med("process.startup"),
        "trace.overhead_s": overhead_s,
    }


def run_untraced(work, seconds: float) -> tuple[dict, dict]:
    setup_s, setup_detail = measure_setup(work)
    clock, wall = timed_loop(work, work.rounds(seconds))
    peak_rss = work.peak_rss_mb()  # before the checks and statistics allocate
    work.check()
    lat, raw = clock.scaled(), clock.raw()
    tail_value, tail_pct = tail(lat)
    values = {"setup_s": setup_s,
              "ops_per_s": len(lat) / sum(lat),
              "latency_p50_ms": statistics.median(lat) * 1e3,
              "latency_tail_ms": tail_value * 1e3,
              "peak_rss_mb": peak_rss}
    raw_values = {"setup_s": setup_detail["raw_s"],
                  "ops_per_s": len(raw) / sum(raw),
                  "latency_p50_ms": statistics.median(raw) * 1e3,
                  "latency_tail_ms": tail(raw)[0] * 1e3}
    result = {"wall_s": wall, "samples": len(lat), "tail_percentile": tail_pct,
              "speed": clock.speed(), "setup": setup_detail, "raw": raw_values}
    if len(lat) <= 1000:
        result["latencies_s"] = lat
    return values, result


def run_traced(work, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """A quarter of the rounds untraced and checked, then the same
    operations through the layers' functions, each twice in a row: once
    with spans and once without, the order alternating, so that the
    machine's drift cancels out of the difference."""
    from tracing import NullTracer, Tracer
    work.setup()
    rounds = work.rounds(seconds * TRACED_SHARE)
    clock, wall = timed_loop(work, rounds)
    work.check()
    # a round that is a list of operations is traced one operation at a time
    pieces = [piece for rnd in rounds
              for piece in ([[op] for op in rnd] if isinstance(rnd, list) else [rnd])]
    work.traced_round(pieces[0], NullTracer())  # warm-up: the heap grows once
    tracer, bare = Tracer(), NullTracer()
    if hasattr(work, "traced_setup"):
        work.traced_setup(tracer)
    setup_counts, tracer.counts = tracer.counts, {}
    walls = {tracer: 0.0, bare: 0.0}
    for k, piece in enumerate(pieces):
        for t in ((tracer, bare) if k % 2 else (bare, tracer)):
            start = time.perf_counter()
            work.traced_round(piece, t)
            walls[t] += time.perf_counter() - start
    # counts from the rounds are reported per round, set-up's as they are
    for name, value in tracer.counts.items():
        setup_counts[name] = setup_counts.get(name, 0) + value / len(rounds)
    tracer.counts = setup_counts
    tracer.write(spans_path)
    values = per_layer(tracer, (walls[tracer] - walls[bare]) / len(rounds))
    return values, {"wall_s": wall, "speed": clock.speed(),
                    "bare_wall_s": walls[bare], "traced_wall_s": walls[tracer]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "handlecoset" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    table = workloads()
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(table)}", file=sys.stderr)
        return 2
    os.environ.pop("HANDLE_COSET_MAX_COSETS", None)
    compileall.compile_dir(str(SRC), quiet=1)  # the build: byte-code, once
    sys.path.insert(0, str(SRC))
    import handlecoset
    if Path(handlecoset.__file__).resolve().parent != SRC / "handlecoset":
        print("error: imported handlecoset from outside the checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = table[args.workload](args.seed)
    facts = machine(args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            values, result = run_traced(work, args.seconds,
                                        OUT / f"spans-{stem}.jsonl")
        else:
            values, result = run_untraced(work, args.seconds)
    finally:
        work.close()

    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    attempted, failed = work.attempted, len(work.failed)
    result.update(workload=args.workload, trace=args.trace, seconds=args.seconds,
                  machine=facts, **work.extra(), attempted=attempted,
                  failed=failed, fail_share=failed / attempted,
                  messages=work.messages, metrics=metrics)
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, {attempted} operations, "
          f"machine speed {result['speed']:.3f} of nominal")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    for name, m in metrics.items():
        note = ""
        if args.trace:
            note = f"  -> {SHOULD_MOVE[name]}"
        elif name in result["raw"]:
            note = f"  (raw {result['raw'][name]:.6g})"
        if name == "latency_p50_ms":
            note += f"  median of {result['samples']} samples"
        elif name == "latency_tail_ms":
            note += f"  p{result['tail_percentile']} of {result['samples']} samples"
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"  fail_share = {result['fail_share']:.6g} ratio  ({failed} of {attempted})")
    print(f"  decided_share = {result['decided_share']:.6g} ratio")
    for message in work.messages:
        print(f"FAILED: {message}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
