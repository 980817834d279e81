"""Shared pieces of the benchmark: the checkout context, sample
statistics, the probe that measures host speed, and the span tracer
that wraps calls into isharp."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from collections import Counter, deque
from pathlib import Path

import oracle as O

CHILD_TIMEOUT_S = 60


class Context:
    """Paths of the checkout under test and the environment of every
    child process: the checkout's own src/ and the bundled dataset."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.data = self.src / "isharp" / "data" / "tables.jsonl"
        self.tables = O.load_tables(self.data)
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "ISHARP_DATA")}
        self.env["PYTHONPATH"] = str(self.src)

    def child(self, args) -> subprocess.CompletedProcess:
        """Run the interpreter with args; waits for the child to end."""
        return subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)

    def timed_child(self, args) -> float:
        """Wall seconds of one child that must exit 0."""
        t0 = time.perf_counter()
        proc = self.child(args)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"child {args} failed: {proc.stderr.decode()[-500:]}")
        return dt

    def src_lines(self) -> int:
        """Non-blank lines of src/isharp/*.py."""
        return sum(1 for path in sorted((self.src / "isharp").glob("*.py"))
                   for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


class Samples:
    """Unit times with a fixed-size uniform reservoir, so memory does not
    grow with the number of units a fast machine completes."""

    def __init__(self, rng, cap: int = 20000):
        self.rng, self.cap = rng, cap
        self.n, self.total, self.xs = 0, 0.0, []

    def add(self, x: float) -> None:
        self.n += 1
        self.total += x
        if len(self.xs) < self.cap:
            self.xs.append(x)
        else:
            j = self.rng.randrange(self.n)
            if j < self.cap:
                self.xs[j] = x

    def quantile(self, q: float) -> float:
        if len(self.xs) == 1:
            return self.xs[0]
        cuts = statistics.quantiles(self.xs, n=100, method="inclusive")
        return cuts[round(q * 100) - 1]

    def median(self) -> float:
        return statistics.median(self.xs)


def interpreter_loop() -> float:
    """Seconds of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    d: dict = {}
    x = 0
    for i in range(3000):
        d[i & 255] = (i, x)
        x = (x * 31 + i) % 1000003
    return time.perf_counter() - t0


class Probe:
    """A fixed probe that isharp cannot move, timed during the run.

    On a shared host the speed of the interpreter swings by a third for
    seconds to minutes at a time, and the workloads follow it.  A unit's
    wall time divided by `median`, the median of the probe's last
    `window` timings, is the unit's time in probe units: a ratio that
    does not depend on how fast the host is at that moment."""

    def __init__(self, probe, every_s: float, window: int):
        self.probe, self.every_s = probe, every_s
        self.recent: deque = deque(maxlen=window)
        self.timings: list[float] = []
        self.last = float("-inf")
        self.median = 1.0

    def tick(self) -> None:
        """Time the probe when the last timing is at least every_s old."""
        if time.perf_counter() - self.last < self.every_s:
            return
        t = self.probe()
        self.last = time.perf_counter()
        self.timings.append(t)
        self.recent.append(t)
        self.median = statistics.median(self.recent)


class NullTracer:
    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    """Spans around the benchmark's calls into isharp.

    Each span is (unit, name, start_ns, end_ns), with name
    "<module>.<function>" and the index of the enclosing unit as its
    parent.  Totals
    cover every span; the first `keep` spans are kept for writing out."""

    def __init__(self, keep: int = 5000):
        self.unit = 0
        self.unit_ns = 0
        self.keep = keep
        self.totals: Counter = Counter()
        self.spans: list = []

    def end_unit(self, seconds: float) -> None:
        """Close the current unit, the parent of the spans since the last."""
        self.unit_ns += int(seconds * 1e9)
        self.unit += 1

    def call(self, name, fn, *args):
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter_ns()
            self.totals[name] += t1 - t0
            if len(self.spans) < self.keep:
                self.spans.append((self.unit, name, t0, t1))

    def module_ns(self) -> Counter:
        out: Counter = Counter()
        for name, ns in self.totals.items():
            out[name.split(".")[0]] += ns
        return out
