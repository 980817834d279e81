"""The CLI's human-readable text: the argparse parser, which prints -h
and the usage errors, and the --pretty rendering.  Only those calls
import this module, so an answered JSON call never compiles it nor
imports argparse and the gettext and locale modules argparse loads."""

import argparse


def build_parser(commands):
    """The argparse parser of the command table cli.COMMANDS: it prints
    -h and the usage errors, for the argv that cli._match declines."""
    ap = argparse.ArgumentParser(
        prog="isharp",
        description="Exact dimensions of framed instanton homology for "
                    "surgeries, branched double covers, and census manifolds.")
    ap.add_argument("--data", help="path to an alternate record file")
    ap.add_argument("--pretty", action="store_true", help="human-readable output")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (text, positionals, flags) in commands.items():
        p = sub.add_parser(name, help=text)
        for dest, kw in positionals:
            p.add_argument(dest, **kw)
        for flag in flags:
            p.add_argument(flag, action="store_true")
    return ap


def pretty(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for k in obj:
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(pretty(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines)
    if isinstance(obj, list):
        return "\n".join(
            pretty(v, indent) if isinstance(v, (dict, list)) else f"{pad}- {v}"
            for v in obj)
    return f"{pad}{obj}"
