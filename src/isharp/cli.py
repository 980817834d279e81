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

One command table, COMMANDS, drives both ways of reading argv.
main() first matches a well-formed argv straight against it (the
global --pretty and --data PATH, the command, its flags and
positionals, with "--" ending the options) and builds the namespace
argparse would build.  Anything else (-h, a usage error, --data=x, an
abbreviated flag, a negative number without "--") goes to the argparse
parser build_parser() generates from the same table, which prints the
help and usage text; main(argv) then raises SystemExit, with code 0
after -h and 2 on a usage error.  So an answered call never imports
argparse, nor the gettext and locale modules it loads.

A call compiles only the modules its command runs.  At module top
this one imports values alone, for the errors main() maps to exit
codes; main() imports the loader only for a command that reads data,
and each cmd_* function imports the modules it calls.  So `cf` and
`triad` add only slopes, and `dim` on a surgery, a lens space or a
cover adds dimension but neither surgery nor slopes.  A module
__getattr__ (PEP 562) still resolves isharp.cli.datasets.  No module
imports isharp.cli: under `python -m` that would compile it twice.  No
command imports `dataclasses`, and the bundled data is read as a plain
file.  tests/test_cli.py::test_import_layout holds these rules.  Every
module's domain errors subclass ValueError, and integrity failures
DatasetError, so main() maps exit codes without importing their modules.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from .values import DatasetError, IntegrityError

# subcommands that never read the record file (nor --data)
DATA_FREE = ("cf", "triad")
TABLES = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8")
# the tables whose rows the census cross-check compares
CENSUS_TABLES = ("T2", "T6", "T7", "T8")


def __getattr__(name):
    if name == "datasets":
        from . import datasets
        return datasets
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _bundle_json(b, knot: str, trace: bool):
    """The bundle as JSON, naming the knot as the caller wrote it."""
    out = b.to_json()
    out["knot"] = knot
    if trace:
        out["trace"] = [t.to_json() for t in b.trace]
    return out


def cmd_dim(args, ds):
    from .dimension import Census, Surgery, manifold_dim, parse_manifold
    from .invariants import deduce

    m = parse_manifold(args.manifold)
    if isinstance(m, Census):
        from .surgery import census_dim
        result = census_dim(m.index, ds)
    else:
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
    from .knots import format_knot, parse_knot

    k = parse_knot(args.knot)
    b = deduce(k, ds)
    out = _bundle_json(b, format_knot(k), args.trace)
    bound, violation = sl_upper_bound(k, ds)
    if bound is not None:
        out["sl_max_bound"] = bound
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
    from .knots import format_knot, genus, make_cable, parse_knot

    k = parse_knot(args.knot)
    cable = make_cable(args.p, args.q, k)
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
    from .knots import format_knot, make_sum, parse_knot

    summands = [parse_knot(t) for t in args.knots]
    k = make_sum(summands)
    b = deduce(k, ds)
    emit(_bundle_json(b, format_knot(k), args.trace), args.pretty)


def cmd_census(args, ds):
    from .surgery import census_dim

    def row(i):
        name = ds.lookup("T2", i).payload["name"]
        return {**census_dim(i, ds).to_json(), "index": i, "name": name}

    emit([row(i) for i in range(20)] if args.index == "all" else row(int(args.index)),
         args.pretty)


def cmd_dcover(args, ds):
    from .dimension import branched_cover_dim
    from .knots import format_knot, parse_knot

    k = parse_knot(args.knot)
    out = branched_cover_dim(k, ds).to_json()
    out["manifold"] = f"dcover({format_knot(k)})"
    emit(out, args.pretty)


def cmd_verify(args, ds):
    from .verify import verify_target

    report = verify_target(args.target, ds)
    if args.pretty:
        print(report.pretty())
    else:
        emit(report.to_json(), False)
    if report.failed:
        raise IntegrityError(f"{len(report.failed)} of {len(report.cells)} cells failed")


def cmd_identities(args, ds):
    from .knots import format_knot, parse_knot
    from .surgery import homeo_identities
    from .values import parse_slope

    k = parse_knot(args.knot)
    s = parse_slope(args.slope)
    rows = [{"knot": format_knot(rk), "slope": str(rs)}
            for rk, rs in homeo_identities(k, s, ds)]
    emit(rows, args.pretty)


def cmd_export(args, ds):
    if args.table in CENSUS_TABLES:
        ds.cross_check_census()
    print(ds.export_tsv(args.table), end="")


# The command table: name -> (handler, help, positionals, flags).  A
# positional is (dest, argparse keywords: type, nargs, default, choices,
# help); a flag is a store_true option without help.  _match reads argv
# straight against it, and build_parser turns each row into a subparser.
COMMANDS = {
    "dim": (cmd_dim, "dimension of a manifold description",
            (("manifold", {"help": 'e.g. "surg(6_2; -9/1)", "lens(9,2)", '
                                   '"dcover(9_49)", "census(7)"'}),),
            ("--graded", "--trace")),
    "invariants": (cmd_invariants, "deduced invariants of a knot",
                   (("knot", {}),), ("--trace",)),
    "triad": (cmd_triad, "surgery triad of a slope", (("slope", {}),), ()),
    "cf": (cmd_cf, "negative continued fraction of a slope", (("slope", {}),), ()),
    "cable": (cmd_cable, "is the (p,q)-cable an instanton L-space knot",
              (("p", {"type": int}), ("q", {"type": int}), ("knot", {})), ()),
    "sum": (cmd_sum, "invariants of a connected sum",
            (("knots", {"nargs": "+"}),), ("--trace",)),
    "census": (cmd_census, "census manifold dimension",
               (("index", {"help": "0..19 or 'all'"}),), ()),
    "dcover": (cmd_dcover, "branched double cover dimension", (("knot", {}),), ()),
    "verify": (cmd_verify, "re-derive table cells and cross-checks",
               (("target", {"nargs": "?", "default": "all",
                            "choices": ("all", "identities", *TABLES)}),), ()),
    "identities": (cmd_identities, "registered surgery re-descriptions",
                   (("knot", {}), ("slope", {})), ()),
    "export": (cmd_export, "tab-separated dump of a table",
               (("table", {"choices": TABLES}),), ()),
}


def build_parser():
    """The argparse parser of the command table: it prints -h and the
    usage errors, for the argv that _match declines."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="isharp",
        description="Exact dimensions of framed instanton homology for "
                    "surgeries, branched double covers, and census manifolds.")
    ap.add_argument("--data", help="path to an alternate record file")
    ap.add_argument("--pretty", action="store_true", help="human-readable output")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (func, text, positionals, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for dest, kw in positionals:
            p.add_argument(dest, **kw)
        for flag in flags:
            p.add_argument(flag, action="store_true")
        p.set_defaults(func=func)
    return ap


def _match(argv):
    """The namespace build_parser().parse_args(argv) would return, read
    straight from the command table; None when argv is anything but
    well formed: -h, a usage error, --data=x, an abbreviated flag, an
    argument that begins with "-" and comes before "--".  Those are left
    to argparse."""
    data, pretty, i, n = None, False, 0, len(argv)
    while i < n and argv[i] in ("--pretty", "--data"):
        if argv[i] == "--pretty":
            pretty, i = True, i + 1
        elif i + 1 < n and not argv[i + 1].startswith("-"):
            data, i = argv[i + 1], i + 2
        else:
            return None
    if i == n or argv[i] not in COMMANDS:
        return None
    command = argv[i]
    func, _, positionals, flags = COMMANDS[command]
    ns = {"data": data, "pretty": pretty, "command": command, "func": func}
    ns.update((flag[2:], False) for flag in flags)
    values, closed = [], False  # closed: a flag followed the positionals
    for j in range(i + 1, n):
        a = argv[j]
        if a == "--":
            rest = argv[j + 1:]
            if closed or not rest or "--" in rest:
                return None
            values.extend(rest)
            break
        if a in flags:
            ns[a[2:]] = True
            closed = bool(values)
        elif a.startswith("-") or closed:
            return None
        else:
            values.append(a)
    for dest, kw in positionals:
        nargs = kw.get("nargs")
        if nargs == "+":
            if not values:
                return None
            value, values = values, []
        elif nargs == "?":
            value = values.pop(0) if values else kw["default"]
        elif values:
            value = values.pop(0)
        else:
            return None
        if "type" in kw:
            try:
                value = kw["type"](value)
            except ValueError:
                return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        ns[dest] = value
    return None if values else SimpleNamespace(**ns)


def main(argv=None) -> int:
    """Run one command line; the exit code.  argparse, reached only
    for -h and usage errors, raises SystemExit (0 after -h, 2 on a
    usage error)."""
    if argv is None:
        argv = sys.argv[1:]
    args = _match(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        if args.command in DATA_FREE:
            args.func(args)
        else:
            from . import datasets
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
