"""The four workloads.  Each is a closed loop with one client: the next
unit starts only after the previous one has returned and been checked.

A workload builds its inputs from its seed in __init__ (not timed), and
step() runs one unit, checks every answer against the oracle or the
golden CLI corpus, and returns the seconds the unit spent in isharp.
Oracle checks run outside that time.
"""

from __future__ import annotations

import math
import random
import resource
import subprocess
import time

import cli_corpus
import oracle as O
from harness import Probe, Samples, interpreter_loop
from isharp import datasets
from isharp.invariants import deduce
from isharp.knots import parse_knot
from isharp.slopes import Slope, neg_cf, triad
from isharp.surgery import surgery_dim
from isharp.verify import check_identities, verify_all


class Workload:
    name = ""
    unit = ""
    min_units = 1  # a run completes at least this many units
    cycle = 1  # and stops only after a multiple of this many

    def __init__(self, ctx, rng):
        self.ctx, self.rng = ctx, rng
        self.attempted = self.failed = self.defects = 0
        self.failures: list[str] = []  # the first few, for the report

    def check(self, ok: bool, what, known_defect: bool = False) -> None:
        """Count one checked operation.  A failure on a known-defect
        input counts as failed but not as a wrong answer."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.defects += known_defect
            if len(self.failures) < 20:
                self.failures.append(str(what)[:300])

    def probe(self) -> Probe:
        """The probe that unit times are divided by: by default a fixed
        pure-Python loop, timed every 50 ms (so once per unit when the
        units are longer)."""
        return Probe(interpreter_loop, 0.05, 9)

    def cache_entries(self) -> int:
        return len(datasets.default().deduce_cache)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def report(self) -> list[str]:
        """Extra human-readable lines for this workload."""
        return []


# ---------------------------------------------------------------------------

class CliMix(Workload):
    """One `isharp` subprocess per query, over shuffled passes of the
    50-query pool; a run covers whole passes and at least 150 calls."""

    name = "cli_mix"
    unit = "one CLI subprocess call, from spawn to exit"
    # 15 calls beyond p90; with 100, one slow stretch of the host moved p90 by a fifth
    min_units = 150

    def __init__(self, ctx, rng):
        super().__init__(ctx, rng)
        self.pool = cli_corpus.queries(ctx.tables)
        self.golden = cli_corpus.load_golden(ctx.root / "bench" / cli_corpus.GOLDEN_FILE)
        self.cycle = len(self.pool)
        self.order: list = []

    def step(self, tr) -> float:
        if not self.order:
            self.order = list(self.pool)
            self.rng.shuffle(self.order)
        q = self.order.pop()
        t0 = time.perf_counter()
        try:
            proc = tr.call("cli.main", self.ctx.child, ["-m", "isharp.cli", *q.argv])
        except subprocess.TimeoutExpired:
            self.check(False, f"{q.argv[:2]}: timed out")
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        why = cli_corpus.judge(q, self.golden, proc.returncode,
                               proc.stdout.decode("utf-8", "replace"),
                               proc.stderr.decode("utf-8", "replace"))
        self.check(why is None, f"{' '.join(q.argv)[:80]}: {why}", q.defect is not None)
        return dt

    def probe(self) -> Probe:
        # a bare interpreter start before every call
        return Probe(lambda: self.ctx.timed_child(["-c", "pass"]), 0.0, 5)

    def cache_entries(self) -> int:
        return 0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# ---------------------------------------------------------------------------

# Decimal digits of q (or of |p| at q = 1), each with its share of the
# draws in percent.  No record of real sweeps exists to base the mix on,
# so the shares are an assumption: they are inversely proportional to the
# class's mean step time at the commit that added the benchmark (28 us at
# one digit, 102 us at 40, on a 2-core shared host), so each class takes
# about an eighth of the unit time and neither the small slopes nor the
# huge ones dominate the mean.  The run's report prints the shares as
# measured.
MAGNITUDES = {1: 18, 2: 18, 3: 17, 5: 15, 10: 12, 20: 8, 30: 7, 40: 5}


def sweep_knots(tables) -> list[O.Knot]:
    """Dataset knots with pinned nu and r0, the family atoms, L-space
    cables over torus knots, and the mirrors of all of these."""
    ks = O.dataset_knots(tables)
    ks += [O.torus(p, q) for p in range(2, 6) for q in range(p + 1, p + 7)
           if math.gcd(p, q) == 1]
    ks += [O.twist(n) for n in range(1, 17)]
    ks += [O.pretzel_odd32(n) for n in range(1, 9)]
    ks += [O.pretzel_n33(n) for n in range(1, 11)]
    for a, b in ((2, 3), (2, 5), (3, 4), (2, 7), (3, 5)):
        g = O.torus_genus(a, b)
        for q in (2, 3):
            for j in range(1, 5):
                p = q * (2 * g - 1) + j
                if math.gcd(p, q) == 1:
                    ks.append(O.lspace_cable(p, q, f"T({a},{b})", g)[0])
    return ks + [k.mirror() for k in ks]


def sweep_slope(rng):
    """(p, q, negative continued fraction or None for inf, digits):
    0 and inf 5% each (digits 0), integers 20% and fractions 70%, the
    latter two with digits drawn by MAGNITUDES."""
    r = rng.random()
    if r < 0.05:
        return 0, 1, [0], 0
    if r < 0.10:
        return 1, 0, None, 0
    digits = rng.choices(list(MAGNITUDES), list(MAGNITUDES.values()))[0]
    if r < 0.30:
        p = rng.choice((-1, 1)) * rng.randint(10 ** (digits - 1), 10 ** digits)
        return p, 1, [p], digits
    coeffs = O.random_cf(rng, digits, 9)
    p, q = O.eval_cf(coeffs)
    return p, q, coeffs, digits


class SlopeSweep(Workload):
    """Warm closed form: surgery_dim, triad when q >= 2, and neg_cf on
    seeded (knot, slope) pairs with the deduce cache already filled."""

    name = "slope_sweep"
    unit = "one (knot, slope) step: surgery_dim, triad when q >= 2, neg_cf"

    def __init__(self, ctx, rng):
        super().__init__(ctx, rng)
        self.ds = datasets.default()
        self.knots = [(k, parse_knot(k.text)) for k in sweep_knots(ctx.tables)]
        for _, expr in self.knots:
            deduce(expr, self.ds)
        # unit times by digits of the slope; its own generator, so the
        # reservoirs do not change the seeded inputs
        reservoir_rng = random.Random(0)
        self.by_digits = {d: Samples(reservoir_rng, 2000) for d in (0, *MAGNITUDES)}

    def step(self, tr) -> float:
        k, expr = self.knots[self.rng.randrange(len(self.knots))]
        p, q, coeffs, digits = sweep_slope(self.rng)
        s = Slope(p, q)
        t0 = time.perf_counter()
        dim = tr.call("surgery.surgery_dim", surgery_dim, expr, s, "trivial", self.ds)
        t = tr.call("slopes.triad", triad, s) if q >= 2 else None
        cf = tr.call("slopes.neg_cf", neg_cf, s) if q else None
        dt = time.perf_counter() - t0
        self.by_digits[digits].add(dt)
        ok = O.dim_ok(dim.to_json(), *O.surgery_dims(k, p, q)) and cf == coeffs
        if t is not None:
            ok = ok and O.triad_ok(coeffs, (t.ab.p, t.ab.q), (t.cd.p, t.cd.q),
                                   (t.ef.p, t.ef.q), t.sum_case)
        self.check(ok, f"{k.text} at {p}/{q}")
        return dt

    def report(self) -> list[str]:
        """Median wall time and share of unit time of each slope class."""
        total = sum(s.total for s in self.by_digits.values())
        return [f"  slopes {'0 and inf' if d == 0 else f'{d}-digit':<9} {s.n:8d} steps, "
                f"p50 {1e6 * s.median():9.2f} us, {100 * s.total / total:5.1f} % of unit time"
                for d, s in self.by_digits.items() if s.n]


# ---------------------------------------------------------------------------

SUM_SIZES = (25, 50, 100, 200, 400, 800)
CABLE_DEPTHS = (2, 4, 8, 16, 32)
# genus-one records with a stored Alexander polynomial and tau: a sum of these
# convolves its polynomial through every summand
SUM_ATOMS = ("3_1", "4_1", "5_2")


def sum_series(rng, tau) -> list[tuple[str, int, int]]:
    """(text, size, tau) of connected sums: equal shares of each atom,
    each mirrored at random, in seeded order."""
    out = []
    for n in SUM_SIZES:
        parts, total = [], 0
        for i in range(n):
            atom = SUM_ATOMS[i % len(SUM_ATOMS)]
            mirrored = rng.random() < 0.5
            parts.append(f"m({atom})" if mirrored else atom)
            total += -tau[atom] if mirrored else tau[atom]
        rng.shuffle(parts)
        out.append((" # ".join(parts), n, total))
    return out


def cable_series(rng) -> list[tuple[O.Knot, int, int, int]]:
    """(knot, depth, p, q): nested (p,2)-cables over a torus knot with
    p = 2(2g - 1) + 1, 3 or 5, plus a seeded surgery slope p/q."""
    out = []
    for depth in CABLE_DEPTHS:
        a, b = rng.choice(((2, 3), (2, 5), (3, 4)))
        g, text = O.torus_genus(a, b), f"T({a},{b})"
        for _ in range(depth):
            k, g = O.lspace_cable(2 * (2 * g - 1) + rng.choice((1, 3, 5)), 2, text, g)
            text = k.text
        q = rng.randint(1, 5)
        p = rng.choice((-1, 1)) * rng.randint(1, 10 ** 6)
        d = math.gcd(p, q)
        out.append((k, depth, p // d, q // d))
    return out


class DeduceScaling(Workload):
    """Cold deduction on a size series: parse, deduce on an empty deduce
    cache, and (for the cables) the dimension at a seeded slope."""

    name = "deduce_scaling"
    unit = "one pass over the size series (6 sums to n = 800, 5 cables to depth 32)"

    def __init__(self, ctx, rng):
        super().__init__(ctx, rng)
        self.ds = datasets.default()
        self.sums = sum_series(rng, O.tau_table(ctx.tables))
        self.cables = cable_series(rng)
        self.per_size: dict[str, list[float]] = {}

    def _cold(self, tr, text):
        self.ds.deduce_cache.clear()
        t0 = time.perf_counter()
        expr = tr.call("knots.parse_knot", parse_knot, text)
        bundle = tr.call("invariants.deduce", deduce, expr, self.ds)
        return expr, bundle, t0

    def step(self, tr) -> float:
        total = 0.0
        for text, n, tau in self.sums:
            _, bundle, t0 = self._cold(tr, text)
            dt = time.perf_counter() - t0
            total += dt
            self.per_size.setdefault(f"sum{n}", []).append(dt)
            self.check(bundle.to_json()["tau"] == tau, f"tau of sum{n}")
        for k, depth, p, q in self.cables:
            expr, bundle, t0 = self._cold(tr, k.text)
            dim = tr.call("surgery.surgery_dim", surgery_dim, expr, Slope(p, q),
                          "trivial", self.ds)
            dt = time.perf_counter() - t0
            total += dt
            self.per_size.setdefault(f"cable{depth}", []).append(dt)
            inv = bundle.to_json()
            self.check((inv["nu"], inv["r0"]) == (k.nu, k.r0)
                       and O.dim_ok(dim.to_json(), *O.surgery_dims(k, p, q)),
                       f"cable{depth} at {p}/{q}")
        return total

    def report(self) -> list[str]:
        return [f"  {name:<14} {1e3 * min(xs):10.2f} ms (fastest of {len(xs)})"
                for name, xs in self.per_size.items()]


# ---------------------------------------------------------------------------

class VerifyTables(Workload):
    """Load a fresh bundled dataset, then verify_all and check_identities
    (cold deduction with use_stored=False)."""

    name = "verify_tables"
    unit = "datasets.load + verify_all + check_identities on a fresh dataset"

    def __init__(self, ctx, rng):
        super().__init__(ctx, rng)
        self.last = None

    def step(self, tr) -> float:
        t0 = time.perf_counter()
        ds = tr.call("datasets.load", datasets.load)
        cells = tr.call("verify.verify_all", verify_all, ds)
        ids = tr.call("verify.check_identities", check_identities, ds)
        dt = time.perf_counter() - t0
        self.last = ds
        self.check(cells_ok(cells.cells, self.ctx.tables) and not ids.failed
                   and len(ids.cells) == 1, "verify report")
        return dt

    def cache_entries(self) -> int:
        return len(self.last.deduce_cache) if self.last is not None else 0


def cells_ok(cells, tables) -> bool:
    """Every cell passes, and every re-derived T1, T3 and T4 value equals
    the value stored in the raw record file."""
    seen = set()
    for c in cells:
        if not c.ok:
            return False
        if c.section == "T1":
            row = tables["T1"][c.key]
            expect = str((row["nu"], row["r0"]))
        elif c.section == "T3" and tables["T3"][c.key][c.cell] is not None:
            expect = str(tables["T3"][c.key][c.cell])
        elif c.section == "T4":
            expect = str(tables["T4"][c.key]["dim"])
        else:
            continue
        if c.got != expect:
            return False
        seen.add((c.section, c.key))
    want = {(t, k) for t in ("T1", "T4") for k in tables[t]}
    want |= {("T3", k) for k, row in tables["T3"].items() if row["nu"] is not None}
    return want <= seen


WORKLOADS = {w.name: w for w in (CliMix, SlopeSweep, DeduceScaling, VerifyTables)}
