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

This module is the dispatcher every call compiles: the command table
COMMANDS, the argv matcher, main(), run() and emit().  Each command
runs in a module of its own, cmd_<command>, which imports at its top
exactly what that command runs; main() imports that one module, and
the loader for a command that reads data.  Besides isharp, cli and
values (the errors main() maps to exit codes), a call compiles:

  cf, triad               cmd_cf or cmd_triad, slopes
  invariants, sum, cable  its cmd_ module, datasets, knots, invariants
  dim, dcover             its cmd_ module, datasets, knots, invariants,
                          dimension; dim "census(i)" adds surgery
  census, identities      its cmd_ module, the modules of dim, surgery
  verify                  cmd_verify, verify and everything below it
  export                  cmd_export, datasets; a census table adds verify

A well-formed argv is matched straight against COMMANDS (the global
--pretty and --data PATH, the command, its flags and positionals, with
"--" ending the options) into the namespace argparse would build.
Anything else (-h, a usage error, --data=x, an abbreviated flag, a
negative number without "--") goes to the argparse parser cli_text
builds from the same table, which prints the help and usage text;
main(argv) then raises SystemExit, with code 0 after -h and 2 on a
usage error.  cli_text also renders --pretty, so no other call
compiles it or imports argparse.

No module imports isharp.cli: under `python -m` that would compile it
twice.  A module __getattr__ (PEP 562) resolves isharp.cli.datasets.
No isharp module imports `dataclasses`, `typing` or `__future__`, and
the bundled data is read as a plain file.  tests/test_cli.py::
test_import_layout holds these rules.  Every module's domain errors
subclass ValueError, and integrity failures DatasetError, so main()
maps exit codes without importing their modules.
"""

import json
import os
import sys
from types import SimpleNamespace

from .values import DatasetError

# subcommands that never read the record file (nor --data)
DATA_FREE = ("cf", "triad")
TABLES = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8")


def _module(name):
    """isharp.<name>, imported on first use.  Through __import__, as an
    import statement does, so that `-X importtime` lists it (it does not
    see importlib.import_module)."""
    name = f"{__package__}.{name}"
    __import__(name)
    return sys.modules[name]


def __getattr__(name):
    if name == "datasets":
        return _module("datasets")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def emit(obj, pretty: bool):
    if pretty:
        print(_module("cli_text").pretty(obj))
    else:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


# The command table: name -> (help, positionals, flags); the command runs
# in cmd_<name>.  A positional is (dest, argparse keywords: type, nargs,
# default, choices, help); a flag is a store_true option without help.
# _match reads argv straight against it, and cli_text.build_parser turns
# each row into a subparser.
COMMANDS = {
    "dim": ("dimension of a manifold description",
            (("manifold", {"help": 'e.g. "surg(6_2; -9/1)", "lens(9,2)", '
                                   '"dcover(9_49)", "census(7)"'}),),
            ("--graded", "--trace")),
    "invariants": ("deduced invariants of a knot", (("knot", {}),), ("--trace",)),
    "triad": ("surgery triad of a slope", (("slope", {}),), ()),
    "cf": ("negative continued fraction of a slope", (("slope", {}),), ()),
    "cable": ("is the (p,q)-cable an instanton L-space knot",
              (("p", {"type": int}), ("q", {"type": int}), ("knot", {})), ()),
    "sum": ("invariants of a connected sum", (("knots", {"nargs": "+"}),), ("--trace",)),
    "census": ("census manifold dimension", (("index", {"help": "0..19 or 'all'"}),), ()),
    "dcover": ("branched double cover dimension", (("knot", {}),), ()),
    "verify": ("re-derive table cells and cross-checks",
               (("target", {"nargs": "?", "default": "all",
                            "choices": ("all", "identities", *TABLES)}),), ()),
    "identities": ("registered surgery re-descriptions", (("knot", {}), ("slope", {})), ()),
    "export": ("tab-separated dump of a table", (("table", {"choices": TABLES}),), ()),
}


def _match(argv):
    """The namespace argparse would return for argv, read straight from
    the command table; None when argv is anything but well formed: -h, a
    usage error, --data=x, an abbreviated flag, an argument that begins
    with "-" and comes before "--".  Those are left to argparse."""
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
    _, positionals, flags = COMMANDS[command]
    ns = {"data": data, "pretty": pretty, "command": command}
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
        args = _module("cli_text").build_parser(COMMANDS).parse_args(argv)
    try:
        command = _module(f"cmd_{args.command}")
        if args.command in DATA_FREE:
            command.run(args, emit)
        else:
            datasets = _module("datasets")
            ds = datasets.load(args.data) if args.data else datasets.default()
            command.run(args, ds, emit)
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
