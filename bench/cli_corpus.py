"""The query pool of the cli_mix workload and its expected outputs.

Every query has a golden record (stdout bytes, first stderr line, exit
code) captured by record_golden.py, and most also have an oracle check
that does not depend on isharp.  The two known-defect queries are judged
by the oracle and the documented CLI contract only, never by their
recorded output, so a defect stays visible until it is fixed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Callable, Optional

import oracle as O

GOLDEN_FILE = "golden_cli.json"

# 1500 nested mirrors, which the CLI must reject without a traceback
DEEP_MIRROR = "m(" * 1500 + "3_1" + ")" * 1500


@dataclass(frozen=True)
class Query:
    argv: tuple
    check: Optional[Callable] = None  # (exit code, stdout, stderr) -> bool
    defect: Optional[str] = None  # set on known-defect queries

    @property
    def key(self) -> str:
        return json.dumps(self.argv)


def _json_check(pred):
    def check(code, out, err):
        if code != 0:
            return False
        try:
            return bool(pred(json.loads(out)))
        except (ValueError, KeyError, TypeError):
            return False
    return check


def _dim(allowed, euler):
    return _json_check(lambda o: O.dim_ok(o, allowed, euler))


def _surg(k: O.Knot, slope: str, *flags):
    p, q = O.parse_slope_text(slope)
    argv = ("dim", f"surg({k.text}; {slope})", *flags)
    return Query(argv, _dim(*O.surgery_dims(k, p, q)))


def _invariants(k: O.Knot, *flags, tau=None):
    def pred(o):
        return (o["nu"], o["r0"]) == (k.nu, k.r0) and (tau is None or o["tau"] == tau)
    return Query(("invariants", k.text, *flags), _json_check(pred))


def _slope_argv(cmd, p, q):
    text = f"{p}/{q}"
    return (cmd, "--", text) if p < 0 else (cmd, text)


def _cf_query(coeffs):
    p, q = O.eval_cf(coeffs)
    expect = "[" + ",".join(map(str, coeffs)) + "]"
    return Query(_slope_argv("cf", p, q), _json_check(lambda o: o["cf"] == expect))


def _triad_query(coeffs):
    p, q = O.eval_cf(coeffs)

    def pred(o):
        slopes = [O.parse_slope_text(o[k]) for k in ("ab", "cd", "ef")]
        return O.triad_ok(coeffs, *slopes, o["sum_case"])
    return Query(_slope_argv("triad", p, q), _json_check(pred))


def _sum_query(*texts, tau):
    return Query(("sum", *texts), _json_check(lambda o: o["tau"] == tau))


def _error(code):
    """A documented error: the exit code, no stdout, a message on stderr."""
    def check(c, out, err):
        return c == code and out == "" and err.strip() != ""
    return check


def _clean_failure(code, out, err):
    """Exit code 1 or 2 with a one-line message and no traceback."""
    return code in (1, 2) and len(err.strip().splitlines()) == 1 and "Traceback" not in err


def _stored_dims(dim) -> set:
    """A stored dimension: one value, or a list of candidates."""
    return set(dim) if isinstance(dim, list) else {dim}


def queries(tables) -> list[Query]:
    """The 50 queries of the pool, in a fixed order."""
    named = {k.text: k for k in O.dataset_knots(tables)}
    tau = O.tau_table(tables)
    t2, t5, t7 = tables["T2"], tables["T5"], tables["T7"]

    def census(i, *flags):
        row = t2[str(i)]
        return Query(("dim", f"census({i})", *flags), _dim(_stored_dims(row["dim"]), row["h1"]))

    def dcover(key, row, *flags):
        euler = row.get("det", row.get("h1"))
        return Query(("dim", f"dcover({key})", *flags), _dim(_stored_dims(row["dim"]), euler))

    cab, g_cab = O.lspace_cable(3, 2, "m(3_1)", 1)
    cab5, _ = O.lspace_cable(5, 2, "T(2,3)", 1)
    cab16, g16 = O.lspace_cable(16, 3, "T(3,4)", O.torus_genus(3, 4))
    rng = random.Random("cli_mix pool")
    big_triad = O.random_cf(rng, 30, 9)
    big_cf = O.random_cf(rng, 40, 9)
    return [
        _surg(named["6_2"], "-9/1", "--graded"),
        _surg(named["5_2"].mirror(), "7/3"),
        _surg(O.torus(2, 5), "41/4", "--graded"),
        _surg(named["4_1"], "1/2"),
        _surg(named["8_20"], "0"),
        _surg(O.pretzel_odd32(3), "-17/5", "--graded"),
        _surg(O.twist(7), "22/7"),
        _surg(named["3_1"], "inf"),
        _surg(named["8_19"], "11"),
        _surg(named["7_4"].mirror(), "-31/6", "--trace"),
        _surg(O.pretzel_n33(7), "5/2"),
        _surg(named["K12n242"], "18"),
        replace(_surg(cab, "19"),
                defect="the manifold parser splits the cable's ';' (exact 19 expected)"),
        Query(("dim", "lens(9,2)"), _dim({9}, 9)),
        Query(("dim", "lens(17,5)", "--graded"), _dim({17}, 17)),
        dcover("10_154", t5["10_154"]),
        dcover("9_49", t7["0"]),
        dcover("10_124", t5["10_124"], "--graded"),
        census(7),
        census(0),
        census(14, "--graded"),
        _invariants(named["5_2"].mirror(), tau=-tau["5_2"]),
        _invariants(named["8_19"], "--trace", tau=tau["8_19"]),
        _invariants(O.pretzel_n33(7), "--trace", tau=0),
        Query(("invariants", "7_7")),
        _invariants(cab5),
        Query(("invariants", "3_1 # m(3_1)", "--trace"),
              _json_check(lambda o: (o["nu"], o["tau"]) == (0, 0))),
        Query(("invariants", DEEP_MIRROR), _clean_failure,
              defect="deep nesting ends in an uncaught RecursionError traceback"),
        _triad_query([3, 2]),
        _triad_query([-4, 2, 2, 3]),
        _triad_query([4, 2, 2, 2, 2, 2, 2, 3, 5]),
        _triad_query(big_triad),
        _cf_query([1, 2, 2]),
        _cf_query([-1, 2, 2, 3]),
        _cf_query(big_cf),
        Query(("cable", "3", "2", "m(3_1)"),
              _json_check(lambda o: o["lspace"] is True and o["genus"] == g_cab
                          and o["nu"] == o["r0"] == cab.nu)),
        Query(("cable", "16", "3", "T(3,4)"),
              _json_check(lambda o: o["lspace"] is True and o["genus"] == g16
                          and o["nu"] == o["r0"] == cab16.nu)),
        Query(("cable", "1", "2", "m(3_1)"),
              _json_check(lambda o: o["lspace"] is False
                          and o["genus"] == O.cable_genus(1, 2, 1))),
        _sum_query("3_1", "m(3_1)", tau=0),
        _sum_query("3_1", "3_1", "5_2", tau=2 * tau["3_1"] + tau["5_2"]),
        _sum_query("4_1", "6_1", "m(8_8)", tau=tau["4_1"] + tau["6_1"] - tau["8_8"]),
        Query(("identities", "--", "6_2", "-9")),
        Query(("identities", "--", "P(4,3,-3)", "-2")),
        Query(("identities", "m(3_1)", "7/4")),
        Query(("export", "T1")),
        Query(("export", "T4")),
        Query(("dim", "surg(7_7; 1)"), _error(1)),
        Query(("triad", "3"), _error(1)),
        Query(("invariants", "X_1"), _error(1)),
        Query(("export", "T9"), _error(2)),
    ]


def first_line(text: str) -> str:
    return text.splitlines()[0] if text else ""


def judge(q: Query, golden: dict, code: int, out: str, err: str) -> Optional[str]:
    """None when the call is correct, else the reason it failed."""
    if q.defect is not None:
        return None if q.check(code, out, err) else f"known defect: {q.defect}"
    g = golden.get(q.key)
    if g is None:
        return "no golden record"
    if (code, out, first_line(err)) != (g["exit"], g["stdout"], g["stderr_first_line"]):
        return "differs from golden record"
    if q.check is not None and not q.check(code, out, err):
        return "oracle mismatch"
    return None


def load_golden(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return {json.dumps(tuple(e["argv"])): e for e in json.load(fh)["entries"]}
