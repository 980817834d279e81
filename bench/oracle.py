"""Expected answers computed without isharp.

The benchmark checks every answer it times against values made here.
Nothing in this module imports isharp: tabulated invariants come from the
raw record file read as JSON lines, family invariants from the formulas
the paper states, cable invariants from a genus recurrence, and slope
facts from plain integer continued-fraction arithmetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Knot:
    """A knot text with its known nu and r0.

    w_shaped is True only when the knot is known to be W-shaped (slice,
    or stored as W); it decides the zero-surgery answer when nu = 0.
    """

    text: str
    nu: int
    r0: int
    w_shaped: bool = False

    def mirror(self) -> "Knot":
        # nu negates under mirroring, r0 and the profile shape are kept
        return Knot(f"m({self.text})", -self.nu, self.r0, self.w_shaped)


def load_tables(path) -> dict:
    """{table: {key: payload}} straight from the record file."""
    tables: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                tables.setdefault(rec["table"], {})[str(rec["key"])] = rec["payload"]
    return tables


def dataset_knots(tables) -> list[Knot]:
    """Every record knot whose nu and r0 are pinned: the T1 rows (which
    must agree with T4), and records flagged as instanton L-space knots
    with a known genus, where nu = r0 = 2g - 1."""
    records = tables["KNOT"]
    out = []
    for key, row in tables["T1"].items():
        t4 = tables["T4"].get(key)
        if t4 is not None and (t4["nu"], t4["r0"]) != (row["nu"], row["r0"]):
            raise ValueError(f"T1 and T4 disagree on {key}")
        rec = records[key]
        w = rec.get("instanton", {}).get("shape") == "W" or rec["flags"].get("slice") is True
        out.append(Knot(key, row["nu"], row["r0"], w))
    for key, rec in records.items():
        if (key not in tables["T1"] and rec.get("flags", {}).get("instanton_lspace")
                and isinstance(rec.get("genus"), int)):
            v = 2 * rec["genus"] - 1
            out.append(Knot(key, v, v))
    return out


def tau_table(tables) -> dict[str, int]:
    return {k: row["tau"] for k, row in tables["T3"].items() if row["tau"] is not None}


# -- family formulas --------------------------------------------------------

def torus(p: int, q: int) -> Knot:
    """Positive torus knot T(p,q): nu = r0 = pq - p - q."""
    v = p * q - p - q
    return Knot(f"T({p},{q})", v, v)


def torus_genus(p: int, q: int) -> int:
    return (p - 1) * (q - 1) // 2


def twist(n: int) -> Knot:
    """Twist knot with n half-twists: r0 = n, nu = 0 (n even) or -1 (n odd)."""
    return Knot(f"Tw({n})", 0 if n % 2 == 0 else -1, n)


def pretzel_odd32(n: int) -> Knot:
    """P(2n-1,3,2): nu = 2n - 1, r0 = 6n - 1."""
    return Knot(f"P({2 * n - 1},3,2)", 2 * n - 1, 6 * n - 1)


def pretzel_n33(n: int) -> Knot:
    """The slice pretzel P(n,3,-3): nu = 0, r0 = 4, W-shaped."""
    return Knot(f"P({n},3,-3)", 0, 4, True)


def cable_genus(p: int, q: int, g: int) -> int:
    """Seifert genus of the (p,q)-cable of a genus-g knot."""
    return (abs(p) - 1) * (q - 1) // 2 + q * g


def lspace_cable(p: int, q: int, companion: str, g: int) -> tuple[Knot, int]:
    """The (p,q)-cable of an instanton L-space knot of genus g, with
    p/q > 2g - 1: an L-space knot again, so nu = r0 = 2g' - 1."""
    if p <= q * (2 * g - 1) or math.gcd(p, q) != 1:
        raise ValueError(f"({p},{q}) is not an L-space cable slope over genus {g}")
    g2 = cable_genus(p, q, g)
    return Knot(f"Cab({p},{q};{companion})", 2 * g2 - 1, 2 * g2 - 1), g2


# -- dimensions -------------------------------------------------------------

def surgery_dims(k: Knot, p: int, q: int) -> tuple[set, int]:
    """(allowed dimensions, euler) for the p/q surgery on k.

    One allowed value means the answer must be exact.  At slope 0 with
    nu = 0 and no known shape both r0 and r0 + 2 are possible, and any
    non-empty subset of them is a sound answer."""
    if q == 0:
        return {1}, 1
    if p == 0:
        if k.nu != 0:
            return {k.r0 + abs(k.nu)}, 0
        return ({k.r0 + 2} if k.w_shaped else {k.r0, k.r0 + 2}), 0
    return {q * k.r0 + abs(p - q * k.nu)}, abs(p)


def dim_ok(out: dict, allowed: set, euler: int) -> bool:
    """Check a dimension in isharp's JSON shape against the oracle."""
    if out.get("euler") != euler:
        return False
    if out.get("kind") == "exact":
        d = out["dim"]
        graded = out.get("graded")
        if graded is not None and graded != [(d + euler) // 2, (d - euler) // 2]:
            return False
        return d in allowed
    if out.get("kind") == "candidates":
        return len(allowed) > 1 and set(out["candidates"]) <= allowed
    return False


# -- slopes -----------------------------------------------------------------

def eval_cf(coeffs) -> tuple[int, int]:
    """(p, q) of the negative continued fraction a0 - 1/(a1 - 1/(...))."""
    if any(a < 2 for a in coeffs[1:]):
        raise ValueError(f"tail coefficient below 2 in {coeffs}")
    num, den = coeffs[-1], 1
    for a in reversed(coeffs[:-1]):
        num, den = a * num - den, num
    return num, den


def random_cf(rng, digits: int, a0_range: int) -> list[int]:
    """A negative continued fraction whose denominator q >= 2 first
    reaches a target drawn from 2..10**digits; tail coefficients are
    drawn from 2..9 so the length stays proportional to the number of
    digits."""
    coeffs = [rng.randint(-a0_range, a0_range)]
    target = rng.randint(2, 10 ** digits)
    q2, q1 = 0, 1
    while q1 < target:
        a = rng.randint(2, 9)
        coeffs.append(a)
        q2, q1 = q1, a * q1 - q2
    return coeffs


def parse_slope_text(text: str) -> tuple[int, int]:
    if text == "inf":
        return 1, 0
    p, _, q = text.partition("/")
    return int(p), int(q or 1)


def triad_ok(coeffs, ab, cd, ef, case: str) -> bool:
    """The surgery triad of [a0..an] = p/q (n >= 1): c/d is the
    penultimate convergent, a/b = (p - c)/(q - d), every pair of the
    three slopes has determinant +-1, and e/f completes the stated sum."""
    p, q = eval_cf(coeffs)
    c, d = eval_cf(coeffs[:-1])
    a, b = p - c, q - d
    (ta, tb), (tc, td), (e, f) = ab, cd, ef
    if (ta, tb) != (a, b) or (tc, td) != (c, d) or f < 0:
        return False
    if abs(p * d - q * c) != 1 or abs(a * d - b * c) != 1 or abs(p * b - q * a) != 1:
        return False
    if case == "ab=cd+ef":
        return (a, b) == (c + e, d + f)
    return case == "cd=ab+ef" and (c, d) == (a + e, b + f)
