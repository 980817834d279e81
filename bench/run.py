"""isharp benchmark: one command, four workloads.

    python3 bench/run.py --workload cli_mix --seed 1 --seconds 30 --trace 0

`--workload all` runs the four workloads one after another, each in its
own interpreter.  Run from the root of a checkout.  The program under test is the
checkout's own src/isharp; the run stops with a non-zero exit code and
no result when it is missing.  With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 it alternates
untraced and traced units (the difference is the tracing overhead) and
then runs the per-layer probes.  Human-readable lines come first; the
last line of stdout is one JSON object.  Each run also writes its full
record to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import Context, NullTracer, Samples, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5  # set-ups before the timed loop, and as many again after it
HARD_STOP_S = 120  # no unit starts this long after the run began, whatever min_units says
SPAN_MODULES = ("slopes", "knots", "invariants", "surgery", "datasets", "verify", "cli")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="isharp benchmark")
    ap.add_argument("--workload", required=True, help="a workload, or 'all' for each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_checkout():
    """Put the checkout's src/ first on the path and make sure isharp
    comes from there; exits non-zero when it does not."""
    src = ROOT / "src"
    if not (src / "isharp" / "__init__.py").is_file():
        sys.exit(f"no isharp sources under {src}")
    os.environ.pop("ISHARP_DATA", None)
    sys.path.insert(0, str(src))
    import isharp
    if Path(isharp.__file__).resolve().parent != (src / "isharp").resolve():
        sys.exit(f"isharp imported from {isharp.__file__}, not from {src}")


def setup_samples(ctx) -> list[float]:
    """Wall times of fresh interpreters that import isharp and load the
    bundled dataset with its checks."""
    code = "import isharp.cli as c; c.datasets.default()"
    return [ctx.timed_child(["-c", code]) for _ in range(SETUP_REPS)]


def run_units(work, seconds, tracer, rng, hard_stop):
    """Closed loop: one unit at a time until the time is up and the
    workload's minimum and cycle are met.  With a tracer, odd units are
    traced and even units are not, and at least one of each runs.
    Returns the untraced and traced unit times in probe units (wall time
    over the median of the workload's probe), the untraced wall times
    and the probe."""
    min_units = work.min_units if tracer is None else max(work.min_units, 2)
    plain, traced, wall = Samples(rng), Samples(rng), Samples(rng)
    null = NullTracer()
    probe = work.probe()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        tr = tracer if tracer is not None and i % 2 else null
        probe.tick()
        dt = work.step(tr)
        if tr is null:
            plain.add(dt / probe.median)
            wall.add(dt)
        else:
            traced.add(dt / probe.median)
            tracer.end_unit(dt)
        i += 1
        now = time.perf_counter()
        if now > hard_stop:
            break
        if now >= deadline and i >= min_units and i % work.cycle == 0:
            break
    return plain, traced, wall, probe


def end_to_end(rel, setup_s, rss_mb) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "op_rel.p50": (rel.median(), "ratio"),
        "op_rel.p90": (rel.quantile(0.9), "ratio"),
        "op_rel.mean": (rel.total / rel.n, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def wall_metrics(wall, probe) -> dict:
    """The unit wall times and the probe's, as measured."""
    return {
        "wall.op_ms.p50": (1e3 * wall.median(), "ms"),
        "wall.op_ms.p90": (1e3 * wall.quantile(0.9), "ms"),
        "wall.ops_per_s": (wall.n / wall.total, "1/s"),
        "probe_ms.p50": (1e3 * statistics.median(probe.timings), "ms"),
    }


# each workload's headline wall-time numbers under their own names
ALIASES = {
    "cli_mix": [("cli_ms.p50", "wall.op_ms.p50", 1, "ms"),
                ("cli_ms.p90", "wall.op_ms.p90", 1, "ms")],
    "slope_sweep": [("dims_per_s", "wall.ops_per_s", 1, "ops/s")],
    "deduce_scaling": [("deduce_s", "wall.op_ms.p50", 1e-3, "s")],
    "verify_tables": [("verify_s", "wall.op_ms.p50", 1e-3, "s")],
}


def run_all(names, args) -> int:
    """Each workload in a fresh interpreter, one after another."""
    code = 0
    for name in names:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    hard_stop = time.perf_counter() + HARD_STOP_S
    import_checkout()
    import layers
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(WORKLOADS, args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    ctx = Context(ROOT)
    rng = random.Random(f"{args.workload}:{args.seed}")

    from isharp import datasets
    datasets.default()
    setup = setup_samples(ctx)
    work = WORKLOADS[args.workload](ctx, rng)
    tracer = Tracer() if args.trace else None
    plain, traced, wall, probe = run_units(work, args.seconds, tracer,
                                           random.Random(args.seed), hard_stop)
    # set-ups on both sides of the loop, so slow drift of a shared machine
    # moves the median less
    setup_s = statistics.median(setup + setup_samples(ctx))
    e2e = end_to_end(plain, setup_s, work.peak_rss_mb())
    walls = wall_metrics(wall, probe)
    correct = work.failed == work.defects
    error_rate = work.failed / work.attempted

    lines = [f"workload {work.name}  seed {args.seed}  trace {args.trace}",
             f"  unit: {work.unit}",
             f"  units timed: {plain.n} untraced"
             + (f", {traced.n} traced" if args.trace else "")]
    lines += [f"  {name:<14} {value:14.4f} {unit}" for name, (value, unit) in e2e.items()]
    lines += [f"  {name:<14} {value:14.4f} {unit}" for name, (value, unit) in walls.items()]
    for alias, name, scale, unit in ALIASES[work.name]:
        lines.append(f"  {alias:<14} {scale * walls[name][0]:14.4f} {unit}  (= {name})")
    lines.append(f"  error_rate     {error_rate:14.4f} ratio  ({work.failed} of "
                 f"{work.attempted} failed, {work.defects} on known-defect inputs)")
    lines.append(f"  correct        {correct}")
    lines += [f"  failure: {f}" for f in work.failures]
    lines += work.report()
    src_lines = ctx.src_lines()
    lines.append(f"  src_nonblank_lines {src_lines}")

    if args.trace:
        layer = {"invariants.cache_entries": (work.cache_entries(), "count")}
        traced_e2e = end_to_end(traced, setup_s, work.peak_rss_mb())
        overhead = 100 * (traced_e2e["op_rel.p50"][0] / e2e["op_rel.p50"][0] - 1)
        lines.append(f"  traced units:  op_rel.p50 {traced_e2e['op_rel.p50'][0]:.4f}, "
                     f"op_rel.p90 {traced_e2e['op_rel.p90'][0]:.4f}, "
                     f"op_rel.mean {traced_e2e['op_rel.mean'][0]:.4f}")
        lines.append(f"  tracing overhead {overhead:+.2f} % on op_rel.p50")
        layer.update(walls)
        layer["trace.overhead_pct"] = overhead, "%"
        by_module = tracer.module_ns()
        for module in SPAN_MODULES:
            layer[f"self_pct.{module}"] = 100 * by_module[module] / tracer.unit_ns, "%"
        layer["self_pct.bench"] = 100 * (1 - sum(by_module.values()) / tracer.unit_ns), "%"
        layer["error_rate"] = error_rate, "ratio"
        layer["src.nonblank_lines"] = src_lines, "count"
        layer.update(layers.measure(ctx, random.Random(f"layers:{args.seed}")))
        lines += [f"  {name:<34} {value:14.4f} {unit}" for name, (value, unit) in layer.items()]
        metrics, wanted = layer, spec["per_layer"]
    else:
        metrics, wanted = e2e, spec["end_to_end"]

    missing = [m["name"] for m in wanted
               if m["name"] not in metrics or metrics[m["name"]][1] != m["unit"]]
    if missing or len(metrics) != len(wanted):
        sys.exit(f"metrics do not match BENCHMARK.json: {missing or sorted(metrics)}")

    result = {"correct": correct, "attempted": work.attempted, "failed": work.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{work.name}_seed{args.seed}_trace{args.trace}"
    record = dict(result, workload=work.name, seed=args.seed, seconds=args.seconds,
                  src_nonblank_lines=src_lines,
                  wall={name: {"value": value, "unit": unit}
                        for name, (value, unit) in walls.items()},
                  report=lines)
    (out_dir / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(out_dir / f"spans_{stem}.jsonl", "w", encoding="utf-8") as fh:
            for unit, name, t0, t1 in tracer.spans:
                fh.write(json.dumps({"unit": unit, "name": name, "start_ns": t0,
                                     "end_ns": t1}) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
