"""Pieces shared by the workloads: paths, the package import and timing."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from array import array
from pathlib import Path

from reference import NOMINAL_S, reference_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's sources first,
    and no inherited budget override, so every run uses the defaults."""
    env = dict(os.environ)
    env.pop("HANDLE_COSET_MAX_COSETS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def python(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                          timeout=150, **kwargs)


def import_seconds(module: str) -> tuple[float, float]:
    """Time to import `module` in a fresh interpreter, measured inside it,
    and the time of the reference there, just before and after."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); "
            "from reference import reference_s; import time; r = reference_s(); "
            f"t = time.perf_counter(); import {module}; d = time.perf_counter() - t; "
            "print(d, (r + reference_s()) / 2)")
    done = python(["-c", code], capture_output=True, text=True, check=True)
    seconds, ref = map(float, done.stdout.split())
    return seconds, ref


def rss_mb(who: int) -> float:
    """Peak resident set of this process or of its waited-for children."""
    return resource.getrusage(who).ru_maxrss / 1024.0


REFERENCE_EVERY_S = 0.1


class Clock:
    """Times operations, and samples the reference between them.

    The speed of a shared host drifts, by up to 2x within an hour and by
    a third from one second to the next, and every operation slows with
    it.  So operation times are reported scaled to the nominal machine,
    on which the reference takes NOMINAL_S: each is multiplied by the
    run's mean speed, NOMINAL_S over a reference sample, averaged over
    the samples.  A sample runs before an operation when
    the last one is more than REFERENCE_EVERY_S old, and once at the
    end; it is never inside an operation's time.
    """

    def __init__(self):
        self.op_s, self.ref_s = array("d"), array("d")
        self._last = self._start = 0.0

    def _sample(self) -> None:
        self.ref_s.append(reference_s())
        self._last = time.perf_counter()

    def start(self) -> None:
        if not self.ref_s or time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            self._sample()
        self._start = time.perf_counter()

    def stop(self) -> None:
        self.op_s.append(time.perf_counter() - self._start)

    def speed(self) -> float:
        """The machine's mean speed over the run, relative to the nominal."""
        if self._last < self._start:
            self._sample()
        return NOMINAL_S * sum(1 / r for r in self.ref_s) / len(self.ref_s)

    def raw(self) -> list[float]:
        return self.op_s.tolist()

    def scaled(self) -> list[float]:
        speed = self.speed()
        return [x * speed for x in self.op_s]


class Workload:
    """Failure bookkeeping shared by the workloads.

    A workload also provides setup(), rounds(seconds) -> the list of
    rounds that make up a run of about that length on the nominal
    machine, run_round(round, clock) timing each operation between
    clock.start() and clock.stop(), check(), extra() -> dict,
    peak_rss_mb(), traced_round(round, tracer), optionally
    traced_setup(tracer), and close().
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed: set[int] = set()
        self.messages: list[str] = []

    def _fail(self, op: int, message: str) -> None:
        self.failed.add(op)
        if len(self.messages) < 20:
            self.messages.append(message)

    def close(self) -> None:
        pass
