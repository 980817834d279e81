"""Per-layer probes for the traced run.

Each probe times calls into the public functions of one isharp module
from outside, on inputs built from the run's seed.  The same probes run
in the traced run of every workload, so a layer metric means the same
thing whichever workload reports it; the workload column of WORKLOADS.md
says which end-to-end metric each one explains.
"""

from __future__ import annotations

import io
import re
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import cli_corpus
import oracle as O
import workloads as W
from isharp import cli, datasets
from isharp.invariants import deduce
from isharp.knots import format_knot, parse_knot, structural
from isharp.slopes import Slope, neg_cf, triad
from isharp.surgery import branched_cover_dim, census_dim, homeo_identities, surgery_dim
from isharp.values import Val
from isharp.verify import check_census, check_identities, identity_instances, verify_all

REPS = 5


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def _median_us(fn, items):
    """Median microseconds of fn(*item) over the items."""
    return 1e6 * statistics.median(_timed(fn, *item)[0] for item in items)


def startup(ctx, out):
    interp, imp = [], []
    for _ in range(REPS):
        interp.append(ctx.timed_child(["-c", "pass"]))
        imp.append(ctx.timed_child(["-c", "import isharp.cli"]))
    base = 1e3 * statistics.median(interp)
    out["startup.interpreter_ms"] = base, "ms"
    out["startup.import_ms"] = 1e3 * statistics.median(imp) - base, "ms"


def dataset_load(out):
    parse, index, integrity, cross = [], [], [], []
    for _ in range(REPS):
        t0 = time.perf_counter()
        text = resources.files("isharp").joinpath("data/tables.jsonl").read_text("utf-8")
        entries = [datasets.parse_record_line(line, i)
                   for i, line in enumerate(text.splitlines(), start=1) if line.strip()]
        t1 = time.perf_counter()
        ds = datasets.Dataset(entries)
        t2 = time.perf_counter()
        ds.check_integrity()
        t3 = time.perf_counter()
        ds.cross_check_census()
        t4 = time.perf_counter()
        for xs, dt in ((parse, t1 - t0), (index, t2 - t1), (integrity, t3 - t2), (cross, t4 - t3)):
            xs.append(1e3 * dt)
    out["datasets.parse_ms"] = statistics.median(parse), "ms"
    out["datasets.index_ms"] = statistics.median(index), "ms"
    out["datasets.integrity_ms"] = statistics.median(integrity), "ms"
    out["datasets.cross_check_ms"] = statistics.median(cross), "ms"
    out["datasets.records"] = len(entries), "count"
    out["datasets.knots"] = len(ds.knot_names()), "count"


def cli_command(ctx, out):
    """In-process cli.main over the cli_mix pool, dataset preloaded; the
    second pass is timed so the deduce cache is warm."""
    datasets.default()
    argvs = [list(q.argv) for q in cli_corpus.queries(ctx.tables) if q.defect is None]
    for _ in range(2):
        times = []
        for argv in argvs:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                try:
                    cli.main(argv)
                except SystemExit:
                    pass
                times.append(time.perf_counter() - t0)
    out["cli.command_ms.p50"] = 1e3 * statistics.median(times), "ms"


def knots_and_deduce(ctx, rng, out):
    ds = datasets.default()
    sums = W.sum_series(rng, O.tau_table(ctx.tables))
    cables = W.cable_series(rng)
    texts = {f"sum{n}": text for text, n, _ in sums}
    texts.update({f"cable{depth}": k.text for k, depth, _, _ in cables})
    out["knots.parse_us"] = _median_us(parse_knot, [(t,) for t in texts.values()]), "us"
    exprs = {name: parse_knot(t) for name, t in texts.items()}
    for name in ("sum800", "cable32"):
        out[f"knots.structural_ms.{name}"] = 1e3 * statistics.median(
            _timed(structural, exprs[name], ds)[0] for _ in range(3)), "ms"
    out["knots.format_ms.sum800"] = 1e3 * statistics.median(
        _timed(format_knot, exprs["sum800"])[0] for _ in range(REPS)), "ms"
    cold = {}
    for name in ("sum100", "sum200", "sum400", "sum800", "cable8", "cable16", "cable32"):
        ds.deduce_cache.clear()
        cold[name] = _timed(deduce, exprs[name], ds)[0]
        out[f"invariants.deduce_ms.{name}"] = 1e3 * cold[name], "ms"
    out["invariants.growth.sum"] = cold["sum800"] / cold["sum400"], "ratio"
    out["invariants.growth.cable"] = cold["cable32"] / cold["cable16"], "ratio"
    out["values.meet_us"] = _meet_us([exprs["sum100"], exprs["cable8"]], ds), "us"
    ds.deduce_cache.clear()


def _meet_us(exprs, ds, cap=5000):
    """Mean microseconds of Val.meet over the pairs that cold deductions
    of exprs pass to it (captured by wrapping the method for the
    duration, then replayed)."""
    pairs = []
    original = Val.meet

    def spy(self, other):
        if len(pairs) < cap:
            pairs.append((self, other))
        return original(self, other)

    Val.meet = spy
    try:
        for expr in exprs:
            ds.deduce_cache.clear()
            deduce(expr, ds)
    finally:
        Val.meet = original

    def replay():
        for a, b in pairs:
            a.meet(b)
    return 1e6 * statistics.median(_timed(replay)[0] for _ in range(REPS)) / len(pairs)


def closed_form(ctx, rng, out):
    ds = datasets.default()
    knots = [(k, parse_knot(k.text)) for k in W.sweep_knots(ctx.tables)]
    for _, expr in knots:
        deduce(expr, ds)
    out["invariants.deduce_warm_us"] = _median_us(deduce, [(e, ds) for _, e in knots]), "us"
    small = [Slope(*O.eval_cf(O.random_cf(rng, rng.randint(1, 3), 9))) for _ in range(len(knots))]
    out["surgery.closed_form_us"] = _median_us(
        surgery_dim, [(e, s, "trivial", ds) for (_, e), s in zip(knots, small)]), "us"
    huge = [Slope(*O.eval_cf(O.random_cf(rng, rng.randint(30, 40), 9))) for _ in range(200)]
    for label, slopes in (("small", small), ("huge", huge)):
        out[f"slopes.neg_cf_us.{label}"] = _median_us(neg_cf, [(s,) for s in slopes]), "us"
        out[f"slopes.triad_us.{label}"] = _median_us(triad, [(s,) for s in slopes]), "us"


def surgery_routes(ctx, out):
    per_index = []
    for _ in range(3):
        ds = datasets.load(check=False)  # empty deduce cache
        per_index.append(_timed(lambda: [census_dim(i, ds) for i in range(20)])[0] / 20)
    out["surgery.census_dim_ms"] = 1e3 * statistics.median(per_index), "ms"
    ds = datasets.default()
    covers = [(parse_knot(k),) for k in ctx.tables["T5"]]
    covers += [(parse_knot(row["knot"]),) for row in ctx.tables["T7"].values()]
    for (k,) in covers:
        branched_cover_dim(k, ds)
    out["surgery.dcover_us"] = _median_us(lambda k: branched_cover_dim(k, ds), covers), "us"
    lhs = list(dict.fromkeys(lhs for lhs, _ in identity_instances(ds)))
    out["surgery.homeo_identities_us"] = _median_us(
        lambda k, s: homeo_identities(k, s, ds), lhs), "us"


def verify_layers(out):
    all_ms, census_ms, ids_ms = [], [], []
    for _ in range(3):
        dt, report = _timed(verify_all, datasets.load())
        all_ms.append(1e3 * dt)
        census_ms.append(1e3 * _timed(check_census, datasets.load())[0])
        dt, ids = _timed(check_identities, datasets.load())
        ids_ms.append(1e3 * dt)
    out["verify.all_ms"] = statistics.median(all_ms), "ms"
    out["verify.census_ms"] = statistics.median(census_ms), "ms"
    out["verify.identities_ms"] = statistics.median(ids_ms), "ms"
    out["verify.cells"] = len(report.cells), "count"
    m = re.fullmatch(r"(\d+) equal", ids.cells[-1].expected)
    out["verify.identity_instances"] = int(m.group(1)) if m else 0, "count"
    out["verify.failed"] = len(report.failed) + len(ids.failed), "count"


def measure(ctx, rng) -> dict:
    """Every probe; returns {metric name: (value, unit)}."""
    out: dict = {}
    startup(ctx, out)
    dataset_load(out)
    cli_command(ctx, out)
    knots_and_deduce(ctx, rng, out)
    closed_form(ctx, rng, out)
    surgery_routes(ctx, out)
    verify_layers(out)
    return out
