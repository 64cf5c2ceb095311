"""Smoke test of the benchmark's traced rounds (`bench/run.py --trace 1`).

The traced rounds call the layers' public functions directly, the
dc_* ones with their acting words included, so a library change that
breaks one of those calls breaks the traced benchmark.  This runs one
traced piece of every workload, the first of its first round, as
bench/run.py cuts rounds into pieces, without a tracer.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import classes_coxeter
    monkeypatch.setattr(classes_coxeter, "OUT", tmp_path)
    import run
    import tracing
    return run.workloads(), tracing


@pytest.mark.parametrize("name", ["classes-coxeter", "queries-coxeter", "knots"])
def test_traced_round_runs(bench, name):
    workloads, tracing = bench
    work = workloads[name](seed=7)
    work.setup()
    try:
        rnd = work.rounds(1.0)[0]
        piece = [rnd[0]] if isinstance(rnd, list) else rnd
        work.traced_round(piece, tracing.NullTracer())
    finally:
        work.close()
    assert not work.failed, work.messages
