"""Re-derivation of every derivable table cell, plus cross-checks.

The re-derivation mode never reads stored nu/tau/r0 values: nu and tau
come from structural flags through the deduction rules, and r0 comes from
the registered routes (torus/twist/pretzel families, two-bridge surgery
identities, and the constraint chain through the pretzel P(5,5,-3)).
"""

import json

from .dimension import DimensionError, DimResult, branched_cover_dim, surgery_dim
from .invariants import deduce
from .knots import (
    Cable,
    KnotError,
    Named,
    Pretzel,
    TwoBridge,
    Unknot,
    equivalent_atoms,
    format_knot,
    parse_knot,
    structural,
)
from .surgery import census_routes, homeo_identities, verify_identity
from .values import DatasetError, Inconsistency, IntegrityError, Record, Slope


class Cell(Record):
    __slots__ = ("section", "key", "cell", "expected", "got", "ok")

    def __init__(self, section: str, key: str, cell: str, expected: str, got: str,
                 ok: bool):
        self._fill(section, key, cell, expected, got, ok)

    def to_json(self):
        return {"section": self.section, "key": self.key, "cell": self.cell,
                "expected": self.expected, "got": self.got, "ok": self.ok}

    def line(self) -> str:
        mark = "pass" if self.ok else "FAIL"
        return f"[{mark}] {self.section} {self.key} {self.cell}: expected {self.expected}, got {self.got}"


class Report:
    """The cells of one verification run, in the order they were checked,
    and the notes its human-readable form prints after them."""

    __slots__ = ("cells", "notes")

    def __init__(self, cells=None, notes=()):
        self.cells = [] if cells is None else cells
        self.notes = notes

    def add(self, section, key, cell, expected, got, ok=None):
        expected_s, got_s = str(expected), str(got)
        if ok is None:
            ok = expected_s == got_s
        self.cells.append(Cell(section, str(key), cell, expected_s, got_s, ok))

    @property
    def failed(self) -> list:
        return [c for c in self.cells if not c.ok]

    @property
    def passed(self) -> int:
        return len(self.cells) - len(self.failed)

    def extend(self, other: "Report"):
        self.cells.extend(other.cells)

    def to_json(self):
        return {
            "total": len(self.cells),
            "passed": self.passed,
            "failed": [c.to_json() for c in self.failed],
        }

    def pretty(self) -> str:
        """One line per cell, then the notes, then the pass count."""
        return "\n".join([*(c.line() for c in self.cells), *self.notes,
                          f"{self.passed}/{len(self.cells)} passed"])


# ---------------------------------------------------------------------------
# Census routes (the cross-check behind Dataset.cross_check_census)
# ---------------------------------------------------------------------------

def census_route_failures(ds) -> list[str]:
    """One line per registered census route that disagrees with the
    stored row (the route cells of check_census)."""
    return [f"census {c.key} via {c.cell}: stored {c.expected}, computed {c.got}"
            for c in check_census(ds).failed if c.section != "T2"]


# ---------------------------------------------------------------------------
# Re-derivation of the nu/tau table from structural flags
# ---------------------------------------------------------------------------

def rederive_nu_tau(ds) -> Report:
    """Re-derive every nu/tau cell from structural flags alone.

    The two knots whose nu the tables leave open must come out as the
    interval [-1, 1] and nothing else may stay inexact."""
    report = Report()
    for key, entry in ds.table("T3").items():
        expr = Unknot() if key == "0_1" else Named(key)
        b = deduce(expr, ds, use_stored=False)
        stored_nu = entry.payload["nu"]
        stored_tau = entry.payload["tau"]
        if stored_nu is None:
            ok = (not b.nu.is_exact and b.nu.lo == -1 and b.nu.hi == 1)
            report.add("T3", key, "nu", "interval [-1,1]", b.nu, ok)
        else:
            report.add("T3", key, "nu", stored_nu, b.nu)
        report.add("T3", key, "tau", stored_tau, b.tau)
    return report


# ---------------------------------------------------------------------------
# Re-derivation of r0 through the registered routes
# ---------------------------------------------------------------------------

# two-bridge surgery identities pinning r0: knot -> (integer slope, partner)
IDENTITY_ROUTES = {
    "6_2": (-9, "m(5_2)"),
    "7_3": (7, "m(5_2)"),
    "7_4": (1, "m(5_2)"),
    "8_2": (-13, "m(5_2)"),
    "8_3": (1, "m(5_2)"),
    "8_4": (-7, "m(6_1)"),
}


def rederive_r0(ds) -> tuple[dict, Report]:
    """Re-derive (nu, r0) for every knot in the main table without stored
    instanton data; returns {name: (nu, r0)} and the comparison report."""
    report = Report()
    derived: dict[str, tuple[int, int]] = {}

    def flags_bundle(name):
        return deduce(Named(name), ds, use_stored=False)

    # family routes resolve through aliases inside the rule engine
    for name in ("3_1", "4_1", "5_1", "5_2", "6_1", "7_1", "7_2", "8_1",
                 "8_5", "8_19", "8_20"):
        b = flags_bundle(name)
        if not (b.nu.is_exact and b.r0.is_exact):
            report.add("T1", name, "r0", "exact family value", b.r0, False)
            continue
        derived[name] = (b.nu.value(), b.r0.value())

    # two-bridge identity routes
    for name, (n, partner_text) in IDENTITY_ROUTES.items():
        partner = parse_knot(partner_text)
        b = flags_bundle(name)
        nu = b.nu.value()
        slope = Slope(n, 1)
        matches = [rhs for rhs in homeo_identities(Named(name), slope, ds)
                   if rhs[0] == partner or format_knot(rhs[0]) == partner_text]
        if not matches:
            report.add("T1", name, "r0", f"identity with {partner_text}", "no match", False)
            continue
        rhs_knot, rhs_slope = matches[0]
        pb = deduce(rhs_knot, ds, use_stored=False)
        dim = rhs_slope.q * pb.r0.value() + abs(rhs_slope.p - rhs_slope.q * pb.nu.value())
        derived[name] = (nu, dim - abs(n - nu))

    # the chain through P(5,5,-3)
    chain = _chain_r0(ds, derived["6_2"])
    derived.update(chain)

    for key, entry in ds.table("T1").items():
        got = derived.get(key)
        expected = (entry.payload["nu"], entry.payload["r0"])
        report.add("T1", key, "nu,r0", expected, got)
    return derived, report


def alexander_zero_surgery_floor(coeffs: tuple[int, ...]) -> int:
    """Lower bound for dim of the zero-surgery invariant (mu bundle) of a
    genus <= 2 knot from its symmetric polynomial coefficients; the actual
    dimension is this value plus a nonnegative multiple of 4."""
    a = list(coeffs) + [0, 0, 0]
    if any(c != 0 for c in a[3:]):
        raise KnotError("floor formula needs genus <= 2 coefficients")
    return 4 * abs(a[2]) + 2 * abs(a[1] + 2 * a[2])


def _chain_r0(ds, inv_6_2: tuple[int, int]) -> dict[str, tuple[int, int]]:
    """Derive r0 for 6_3, 8_6, 8_8 from the homeomorphisms
    S^3_{-1}(K_n) = S^3_{-1/n}(P(5,5,-3)) (K_1, K_-1, K_2, K_-2 being
    6_2, 6_3, 8_6, 8_8) together with exact-triangle bounds and the
    polynomial floor for the zero-surgery of 8_8."""
    nu62, r062 = inv_6_2
    d_minus1 = r062 + abs(-1 - nu62)  # = dim of -1-surgery on 6_2 = on P

    # exact triangles through the 3-sphere bound consecutive integer slopes
    d0_candidates = [d for d in (d_minus1 - 1, d_minus1 + 1) if d % 2 == 0 and d >= 0]

    # zero-surgery floor for 8_8: slice, genus 2, known polynomial
    rec = ds.knot_record("8_8")
    floor = alexander_zero_surgery_floor(rec.structural.alexander)  # mu bundle
    d_half_min = floor + 2 - 1  # trivial bundle adds 2, the triangle drops 1

    solutions = []
    for d0 in d0_candidates:
        for d1 in (d0 - 1, d0 + 1):
            if d1 < 1:
                continue
            # triangle (0-, 1/2-, 1-surgery of P): d_half <= d0 + d1, and
            # the floor forces d_half in {d_half_min + 4k}
            for k in range(0, 4):
                d_half = d_half_min + 4 * k
                if abs(d0 - d1) <= d_half <= d0 + d1:
                    solutions.append((d0, d1, d_half))
    if len(solutions) != 1:
        raise IntegrityError(f"chain through P(5,5,-3) is not forced: {solutions}")
    d0, d1, d_half = solutions[0]

    # a W-shaped P would make every nonzero-slope dimension q*r0 + |p|,
    # which is inconsistent with the values just forced
    r0_w = d_minus1 - 1
    if 2 * r0_w + 1 == d_half:
        raise IntegrityError("chain cannot decide the shape of P(5,5,-3)")
    # so P is V-shaped with nu <= -1 (the profile falls from 0 to -1),
    # giving r0 - nu = d0 and dim at -1/2 equal to 2 d0 - 1
    d_mhalf = 2 * d0 - 1

    out = {}
    nu63 = deduce(Named("6_3"), ds, use_stored=False).nu.value()
    out["6_3"] = (nu63, d1 - abs(-1 - nu63))
    nu86 = deduce(Named("8_6"), ds, use_stored=False).nu.value()
    out["8_6"] = (nu86, d_mhalf - abs(-1 - nu86))
    nu88 = deduce(Named("8_8"), ds, use_stored=False).nu.value()
    out["8_8"] = (nu88, d_half - abs(-1 - nu88))
    return out


# ---------------------------------------------------------------------------
# Closed-form checks of the remaining tables
# ---------------------------------------------------------------------------

def check_integer_surgery_table(ds) -> Report:
    """Recompute every tabulated integer-surgery dimension from stored
    (nu, r0) through the closed form."""
    report = Report()
    for key, entry in ds.table("T4").items():
        n, dim = entry.payload["n"], entry.payload["dim"]
        result = surgery_dim(Named(key), Slope(n, 1), "trivial", ds)
        report.add("T4", key, f"dim@{n}", dim, result)
    return report


def check_census(ds) -> Report:
    report = Report()
    for key, entry in sorted(ds.table("T2").items(), key=lambda kv: int(kv[0])):
        stored = DimResult.of_stored(entry.payload["dim"], entry.payload["h1"])
        routes = census_routes(int(key), ds)
        for table, route, computed in routes:
            try:
                stored.meet(computed)
                ok = True
            except Inconsistency:
                ok = False
            report.add(table, key, route, stored, computed, ok)
        report.add("T2", key, "routes", entry.payload["dim"],
                   entry.payload["dim"], bool(routes))
    return report


def _noncollapse(result: DimResult, khbar_dim: int) -> str:
    """Whether every admitted cover dimension lies below the reduced odd
    Khovanov rank ("confirmed"), none does ("collapses"), or it is open."""
    values = result.values()
    if values is None:
        return "open"
    if all(v < khbar_dim for v in values):
        return "confirmed"
    if all(v >= khbar_dim for v in values):
        return "collapses"
    return "open"


def spectral_covers(ds) -> dict:
    """The branched-double-cover dimension of every T5 knot, by key; pass
    it to check_spectral and spectral_rows to compute each cover once."""
    return {key: branched_cover_dim(parse_knot(key), ds) for key in ds.table("T5")}


def spectral_rows(ds, covers: dict) -> list[dict]:
    """Per-knot status for the branched-double-cover comparison table."""
    rows = []
    for key, entry in ds.table("T5").items():
        p = entry.payload
        result = covers[key]
        values = result.values()
        row = {
            "knot": key,
            "det": p["det"],
            "khbar_dim": p["khbar_dim"],
            "dim": result.to_json(),
            "noncollapse": _noncollapse(result, p["khbar_dim"]),
        }
        if values is not None and len(values) > 1:
            # candidate values are possible, not confirmed; flag the tightest
            row["tight_candidate"] = {
                "value": max(values),
                "khbar_dim": p["khbar_dim"],
                "status": "possible",
            }
        rows.append(row)
    return rows


def check_spectral(ds, covers: dict) -> Report:
    report = Report()
    for key, entry in ds.table("T5").items():
        stored = entry.payload["dim"]
        computed = covers[key]
        noncollapse = _noncollapse(computed, entry.payload["khbar_dim"])
        if stored is None:
            ok = computed.values() is None and computed.hi is None
            report.add("T5", key, "dim", "undetermined", computed, ok)
            report.add("T5", key, "noncollapse", "open", noncollapse)
        else:
            expected = DimResult.of_stored(stored, entry.payload["det"])
            ok = (computed.values() == expected.values()
                  and computed.euler == expected.euler)
            report.add("T5", key, "dim", expected, computed, ok)
            report.add("T5", key, "noncollapse", "confirmed", noncollapse)
    return report


# ---------------------------------------------------------------------------
# Homeomorphism identity sweep
# ---------------------------------------------------------------------------

# the parameter bound of the identity sweep
IDENTITY_BOUND = 50


def identity_instances(ds):
    """Instances of every registered identity, with parameters up to
    IDENTITY_BOUND; check_identities skips the ones with a side whose
    dimension the data do not determine."""
    bound = IDENTITY_BOUND
    out = []
    # two-bridge codes from the alias registry, plus the twist-knot family
    codes = set()
    for name in ds.knot_names():
        for x in equivalent_atoms(Named(name), ds):
            if isinstance(x, TwoBridge):
                codes.update(((x.a, x.b), (-x.a, -x.b)))
    for n in range(1, bound + 1):
        codes.add((2, 2 * n))
        codes.add((-2, 2 * n))
        codes.add((-2, -2 * n))
        codes.add((2, -2 * n))
    for a, b in sorted(codes):
        if b == 0 or b % 2:
            continue
        n = b // 2
        if abs(n) > bound or abs(a) > 2 * bound:
            continue
        k = TwoBridge(a, b)
        slopes = ([Slope(4 * n - 1, 1), Slope(4 * n + 1, 1)] if a % 2
                  else [Slope(1, 1), Slope(-1, 1)])
        for s in slopes:
            for rhs in homeo_identities(k, s, ds):
                out.append(((k, s), rhs))
    # pretzel shift
    for n in range(-bound, bound + 1):
        k = Pretzel(n, 3, -3)
        for s in (Slope(-2, 1), Slope(2, 1)):
            for rhs in homeo_identities(k, s, ds):
                out.append(((k, s), rhs))
    # cable identities on instanton L-space companions
    for companion_text in ("m(3_1)", "m(5_1)", "T(3,4)", "P(-2,3,7)"):
        companion = parse_knot(companion_text)
        g = structural(companion, ds).genus.value()
        for q in (2, 3):
            for p in range(q * (2 * g - 1) + 1, q * (2 * g - 1) + bound):
                if p % q == 0:
                    continue
                cable = Cable(p, q, companion)
                for eps in (-1, 1):
                    s = Slope(p * q + eps, 1)
                    for rhs in homeo_identities(cable, s, ds):
                        out.append((((cable, s)), rhs))
    return out


def check_identities(ds) -> Report:
    report = Report()
    count = equal = 0
    for lhs, rhs in identity_instances(ds):
        try:
            r = verify_identity(lhs, rhs, ds)
        except DimensionError:
            continue
        count += 1
        if r.status == "equal":
            equal += 1
        else:
            report.add("identities", r.lhs, r.rhs, "equal", r.status, False)
    report.add("identities", "sweep", f"|parameters| <= {IDENTITY_BOUND}",
               f"{count} equal", f"{equal} equal", count == equal and count > 0)
    return report


def _spectral_line(row: dict) -> str:
    t = row.get("tight_candidate")
    extra = f"  (candidate {t['value']} vs {t['khbar_dim']}: {t['status']})" if t else ""
    dim = json.dumps(row["dim"], sort_keys=True, separators=(",", ":"))
    return (f"  {row['knot']}: dim {dim}  vs reduced odd Khovanov {row['khbar_dim']}"
            f"  -> {row['noncollapse']}{extra}")


def verify_target(target: str, ds) -> Report:
    """The report of `isharp verify TARGET`: "all", "identities", or one
    table T1-T8.  The T5 report's notes are the branched-double-cover
    rows of the non-thin knots."""
    if target == "all":
        return verify_all(ds)
    if target == "identities":
        return check_identities(ds)
    if target == "T1":
        return rederive_r0(ds)[1]
    if target == "T3":
        return rederive_nu_tau(ds)
    if target == "T4":
        return check_integer_surgery_table(ds)
    if target == "T5":
        covers = spectral_covers(ds)
        return Report(check_spectral(ds, covers).cells,
                      ["branched double covers of the non-thin knots:",
                       *map(_spectral_line, spectral_rows(ds, covers))])
    if target in ("T2", "T6", "T7", "T8"):
        return Report([c for c in check_census(ds).cells if c.section == target])
    raise DatasetError(f"nothing to verify for {target!r}")


def verify_all(ds) -> Report:
    """Every re-derivable cell of every table, one pass/fail row per cell."""
    report = Report()
    report.extend(rederive_nu_tau(ds))
    _, t1 = rederive_r0(ds)
    report.extend(t1)
    report.extend(check_integer_surgery_table(ds))
    report.extend(check_census(ds))
    report.extend(check_spectral(ds, spectral_covers(ds)))
    return report
