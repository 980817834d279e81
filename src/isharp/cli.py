"""Command-line surface: every operation, machine-readable output.

Structured JSON is the default output; --pretty switches to human tables.
Exit codes: 0 success, 1 domain error, 2 usage error, 3 integrity failure.
A reader that closes stdout before the answer is written (a broken pipe)
gets exit 1 and one stderr line, never a traceback.

Each call is one short process, so start-up and shutdown are part of
every answer.  The process entry run() flushes stdout and stderr and
ends with os._exit, skipping the interpreter's module teardown (no
atexit handlers, no finalizers), unless a tracer or profiler watches
the process and must write its results at exit.

The module imports only what parsing the arguments and loading the
dataset need; each cmd_* function imports the modules it calls, so
`cf` and `triad` never import the deduction engine, and only the
commands that read census rows pay for the census cross-check.  No
subcommand imports `dataclasses` (nor the `inspect`, `ast` and `dis`
modules it loads): the records are slotted classes on values.Record,
and the bundled data is read as a plain file, not through
importlib.resources.  tests/test_cli.py::test_import_layout holds both
rules.  The domain errors of every module subclass ValueError, and
integrity failures subclass DatasetError, so main() maps exit codes
without importing the modules that raise them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import datasets
from .datasets import DatasetError, IntegrityError

# subcommands that never read the record file (nor --data)
DATA_FREE = ("cf", "triad")
# the tables whose rows the census cross-check compares
CENSUS_TABLES = ("T2", "T6", "T7", "T8")


def emit(obj, pretty: bool):
    if pretty:
        print(_pretty(obj))
    else:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _pretty(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for k in obj:
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_pretty(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines)
    if isinstance(obj, list):
        return "\n".join(
            _pretty(v, indent) if isinstance(v, (dict, list)) else f"{pad}- {v}"
            for v in obj)
    return f"{pad}{obj}"


def _bundle_json(b, trace: bool):
    out = b.to_json()
    if trace:
        out["trace"] = [t.to_json() for t in b.trace]
    return out


def cmd_dim(args, ds):
    from .invariants import deduce
    from .surgery import Surgery, manifold_dim, parse_manifold

    m = parse_manifold(args.manifold)
    result = manifold_dim(m, ds)
    out = result.to_json()
    out["manifold"] = str(m)
    if not args.graded:
        out.pop("graded", None)
    if args.trace and isinstance(m, Surgery):
        b = deduce(m.knot, ds)
        out["trace"] = [t.to_json() for t in b.trace]
    emit(out, args.pretty)


def cmd_invariants(args, ds):
    from .invariants import deduce, sl_upper_bound
    from .knots import parse_knot

    k = parse_knot(args.knot)
    b = deduce(k, ds)
    out = _bundle_json(b, args.trace)
    bound, violation = sl_upper_bound(k, ds)
    if bound is not None:
        out["sl_max_bound"] = int(bound) if bound.denominator == 1 else [bound.numerator, bound.denominator]
        if violation:
            out["sl_max_violation"] = True
    emit(out, args.pretty)


def cmd_triad(args):
    from .slopes import format_cf, neg_cf, parse_slope, triad

    s = parse_slope(args.slope)
    t = triad(s)
    emit({"slope": str(s), "cf": format_cf(neg_cf(s)), "ab": str(t.ab),
          "cd": str(t.cd), "ef": str(t.ef), "sum_case": t.sum_case}, args.pretty)


def cmd_cf(args):
    from .slopes import format_cf, neg_cf, parse_slope

    s = parse_slope(args.slope)
    emit({"slope": str(s), "cf": format_cf(neg_cf(s))}, args.pretty)


def cmd_cable(args, ds):
    from .invariants import lspace_cable, lspace_knot_invariants
    from .knots import Cable, format_knot, genus, parse_knot

    k = parse_knot(args.knot)
    cable = Cable(args.p, args.q, k)
    status = lspace_cable(args.p, args.q, k, ds)
    out = {"cable": format_knot(cable),
           "lspace": status,
           "genus": genus(cable, ds).to_json()}
    if status:
        nu, r0 = lspace_knot_invariants(cable, ds)
        out.update({"nu": nu, "r0": r0})
    emit(out, args.pretty)


def cmd_sum(args, ds):
    from .invariants import deduce
    from .knots import make_sum, parse_knot

    summands = [parse_knot(t) for t in args.knots]
    k = make_sum(summands)
    b = deduce(k, ds)
    emit(_bundle_json(b, args.trace), args.pretty)


def cmd_census(args, ds):
    from .surgery import census_dim

    if args.index == "all":
        rows = []
        for i in range(20):
            entry = ds.lookup("T2", i)
            out = census_dim(i, ds).to_json()
            out.update({"index": i, "name": entry.payload["name"]})
            rows.append(out)
        emit(rows, args.pretty)
        return
    i = int(args.index)
    entry = ds.lookup("T2", i)
    out = census_dim(i, ds).to_json()
    out.update({"index": i, "name": entry.payload["name"]})
    emit(out, args.pretty)


def cmd_dcover(args, ds):
    from .knots import format_knot, parse_knot
    from .surgery import branched_cover_dim

    k = parse_knot(args.knot)
    out = branched_cover_dim(k, ds).to_json()
    out["manifold"] = f"dcover({format_knot(k)})"
    emit(out, args.pretty)


def cmd_verify(args, ds):
    from .verify import (
        check_census,
        check_identities,
        check_integer_surgery_table,
        check_spectral,
        rederive_nu_tau,
        rederive_r0,
        spectral_covers,
        spectral_rows,
        verify_all,
    )

    target = args.target
    if target == "all":
        report = verify_all(ds)
    elif target == "identities":
        report = check_identities(ds)
    elif target == "T3":
        report = rederive_nu_tau(ds)
    elif target == "T1":
        _, report = rederive_r0(ds)
    elif target == "T4":
        report = check_integer_surgery_table(ds)
    elif target in CENSUS_TABLES:
        full = check_census(ds)
        report = type(full)([c for c in full.cells if c.section == target])
    elif target == "T5":
        covers = spectral_covers(ds)
        report = check_spectral(ds, covers)
    else:
        raise DatasetError(f"nothing to verify for {target!r}")
    if args.pretty:
        for c in report.cells:
            print(c.line())
        if target == "T5":
            print("branched double covers of the non-thin knots:")
            for row in spectral_rows(ds, covers):
                t = row.get("tight_candidate")
                extra = (f"  (candidate {t['value']} vs {t['khbar_dim']}: {t['status']})"
                         if t else "")
                dim = json.dumps(row["dim"], sort_keys=True, separators=(",", ":"))
                print(f"  {row['knot']}: dim {dim}"
                      f"  vs reduced odd Khovanov {row['khbar_dim']}"
                      f"  -> {row['noncollapse']}{extra}")
        print(f"{report.passed}/{len(report.cells)} passed")
    else:
        emit(report.to_json(), False)
    if report.failed:
        raise IntegrityError(f"{len(report.failed)} of {len(report.cells)} cells failed")


def cmd_identities(args, ds):
    from .knots import format_knot, parse_knot
    from .slopes import parse_slope
    from .surgery import homeo_identities

    k = parse_knot(args.knot)
    s = parse_slope(args.slope)
    rows = [{"knot": format_knot(rk), "slope": str(rs)}
            for rk, rs in homeo_identities(k, s, ds)]
    emit(rows, args.pretty)


def cmd_export(args, ds):
    if args.table in CENSUS_TABLES:
        ds.cross_check_census()
    print(ds.export_tsv(args.table), end="")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="isharp",
        description="Exact dimensions of framed instanton homology for "
                    "surgeries, branched double covers, and census manifolds.")
    ap.add_argument("--data", help="path to an alternate record file")
    ap.add_argument("--pretty", action="store_true", help="human-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="dimension of a manifold description")
    p.add_argument("manifold", help='e.g. "surg(6_2; -9/1)", "lens(9,2)", '
                                    '"dcover(9_49)", "census(7)"')
    p.add_argument("--graded", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("invariants", help="deduced invariants of a knot")
    p.add_argument("knot")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("triad", help="surgery triad of a slope")
    p.add_argument("slope")
    p.set_defaults(func=cmd_triad)

    p = sub.add_parser("cf", help="negative continued fraction of a slope")
    p.add_argument("slope")
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("cable", help="is the (p,q)-cable an instanton L-space knot")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("knot")
    p.set_defaults(func=cmd_cable)

    p = sub.add_parser("sum", help="invariants of a connected sum")
    p.add_argument("knots", nargs="+")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("census", help="census manifold dimension")
    p.add_argument("index", help="0..19 or 'all'")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("dcover", help="branched double cover dimension")
    p.add_argument("knot")
    p.set_defaults(func=cmd_dcover)

    p = sub.add_parser("verify", help="re-derive table cells and cross-checks")
    p.add_argument("target", nargs="?", default="all",
                   choices=["all", "identities", "T1", "T2", "T3", "T4",
                            "T5", "T6", "T7", "T8"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("identities", help="registered surgery re-descriptions")
    p.add_argument("knot")
    p.add_argument("slope")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("export", help="tab-separated dump of a table")
    p.add_argument("table", choices=["T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8"])
    p.set_defaults(func=cmd_export)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command in DATA_FREE:
            args.func(args)
        else:
            ds = datasets.load(args.data) if args.data else datasets.default()
            args.func(args, ds)
    except DatasetError as e:  # IntegrityError included
        print(f"integrity error: {e}", file=sys.stderr)
        return 3
    except (KeyError, ValueError) as e:  # every module's domain errors
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def _observed() -> bool:
    """True while a trace function, a profile function or a sys.monitoring
    tool (3.12+) watches the process: each writes its results at exit."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(i) is not None for i in range(6))


def run() -> None:
    """The process entry of `isharp` and `python -m isharp.cli`: main(),
    then a flush and os._exit, so no call pays for interpreter teardown.

    argparse's SystemExit becomes its code.  On a broken pipe stdout is
    pointed at os.devnull, so that no later flush fails again (the recipe
    in the `signal` docs).  Any other exception, and any process a tracer
    or profiler watches, leave through the interpreter's own exit.
    """
    try:
        try:
            code = main()
        except SystemExit as e:  # argparse: 2 on a usage error, 0 after -h
            code = e.code
        if sys.stdout is not None:  # None when fd 1 was closed at start
            sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)  # stdout
        code = 1
        try:
            print("error: stdout was closed before the answer was written (broken pipe)",
                  file=sys.stderr, flush=True)
        except OSError:  # stderr is the closed pipe
            os.dup2(devnull, 2)
    if _observed():
        sys.exit(code)
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
