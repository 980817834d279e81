"""Re-derivation of every derivable table cell, plus cross-checks.

CHECKS names each check of `verify all` once, in report order, with the
tables it verifies; each check reads its table in one pass.  The
re-derivations run on ds.untabulated(), which holds no stored
nu/tau/r0: nu and tau come from structural flags through the deduction
rules, and r0 from the rules where they pin it, else from solve_pairs,
which inverts the closed form on known dimensions: the exact partners
of the identities that surgery.integer_identities registers, and for
6_3, 8_6 and 8_8 the chain through P(5,5,-3).  A T1 cell that no route
pins fails; a route input the data cannot give raises IntegrityError
naming it.  check_census meets the census routes in turn, as
dimension.census_dim does.  The identity sweep reads its instances from
integer_identities too, and verify_identity compares their sides.
verify_all first deduces every KNOT record on the tabulated data and
bounds its sl_max and its mirror's by 2 tau - 1, so a record its own
rules contradict, or whose sl_max exceeds that bound, raises
IntegrityError naming it.
"""

import json

from .datasets import CENSUS_TABLES
from .dimension import (DimensionError, DimResult, Surgery, branched_cover_dim, census_routes,
                        surgery_dim)
from .invariants import Bundle, deduce, sl_upper_bound
from .knots import (Cable, KnotError, KnotExpr, Named, Pretzel, TwoBridge, Unknot,
                    equivalent_atoms, make_twist, parse_knot, structural)
from .surgery import integer_identities
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
# Re-derivation of the nu/tau table from structural flags
# ---------------------------------------------------------------------------

def rederive_nu_tau(ds) -> Report:
    """Re-derive every nu/tau cell from structural flags alone.

    The two knots whose nu the tables leave open must come out as the
    interval [-1, 1] and nothing else may stay inexact."""
    report = Report()
    for key, entry in ds.table("T3").items():
        expr = Unknot() if key == "0_1" else Named(key)
        b = deduce(expr, ds.untabulated())
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
# Re-derivation of r0: the rules, then the solver over known dimensions
# ---------------------------------------------------------------------------

def solve_pairs(b: Bundle, known) -> list[tuple[int, int]]:
    """Every admissible (nu, r0) in b, in order of r0, whose closed form
    q r0 + |p - q nu| passes each (slope, admits) in known: a non-zero
    slope, and a DimResult or a predicate on d.  As d >= q r0 >= q |nu|,
    r0 runs up to d/q for the least top d of a finite DimResult; with
    none, the answer is empty."""
    tops = [a.values()[-1] // s.q for s, a in known if isinstance(a, DimResult) and a.values()]
    tests = [(s, a.contains if isinstance(a, DimResult) else a) for s, a in known]
    return [(n, r) for r in range(min(tops, default=-1) + 1) for n in range(-r, r + 1, 2)
            if b.nu.contains(n) and b.r0.contains(r)
            and all(test(s.q * r + abs(s.p - s.q * n)) for s, test in tests)]


def rederive_r0(ds) -> Report:
    """Deduce (nu, r0) for every T1 knot on ds.untabulated() and compare
    them with the table.  Where the rules leave one inexact, each
    identity of n-surgery on the knot whose partner has an exact
    dimension is a constraint at n, and one surviving pair pins both;
    6_3, 8_6 and 8_8 come from the chain through P(5,5,-3)."""
    report = Report()
    derived: dict[str, tuple[int, int]] = {}
    view = ds.untabulated()
    for key in ds.table("T1"):
        b = deduce(Named(key), view)
        if b.nu.is_exact and b.r0.is_exact:
            derived[key] = (b.nu.value(), b.r0.value())
            continue
        known = []
        for n, partner, slope in integer_identities(Named(key), view):
            try:
                dim = surgery_dim(partner, slope, "trivial", view)
            except DimensionError as e:
                raise IntegrityError(f"T1 route: {e}") from None
            if dim.is_exact:
                known.append((Slope(n, 1), dim))
        pairs = solve_pairs(b, known)
        if len(pairs) == 1:
            derived[key] = pairs[0]

    if "6_2" in derived:  # the chain through P(5,5,-3) starts at 6_2
        derived.update(_chain_r0(view, derived["6_2"]))

    for key, entry in ds.table("T1").items():
        report.add("T1", key, "nu,r0", (entry.payload["nu"], entry.payload["r0"]),
                   derived.get(key))
    return report


def alexander_zero_surgery_floor(coeffs: tuple[int, ...]) -> int:
    """Lower bound for dim of the zero-surgery invariant (mu bundle) of a
    genus <= 2 knot from its symmetric polynomial coefficients; the actual
    dimension is this value plus a nonnegative multiple of 4."""
    a = list(coeffs) + [0, 0, 0]
    if any(c != 0 for c in a[3:]):
        raise KnotError("floor formula needs genus <= 2 coefficients")
    return 4 * abs(a[2]) + 2 * abs(a[1] + 2 * a[2])


def _chain_r0(view, inv_6_2: tuple[int, int]) -> dict[str, tuple[int, int]]:
    """Derive r0 for 6_3, 8_6, 8_8 from S^3_{-1}(K_n) = S^3_{-1/n}(P(5,5,-3))
    (K_1, K_-1, K_2, K_-2 being 6_2, 6_3, 8_6, 8_8): solve_pairs keeps
    each (nu, r0) of P whose dimension is that of -1-surgery on 6_2 at -1
    and passes 8_8's polynomial floor at 1/2, and K_n has r0 = d - |-1 - nu|
    for P's one dimension d at -1/n.  view holds no stored values."""
    nu62, r062 = inv_6_2
    alexander = view.knot_record("8_8").structural.alexander
    if alexander is None or any(alexander[3:]):
        raise IntegrityError(f"T1 route: 8_8 has no genus <= 2 alexander polynomial: {alexander}")
    # the mu-bundle floor of 8_8's zero-surgery, then steps of 4; the
    # trivial bundle adds 2, the triangle to -1-surgery drops 1
    d_half_min = alexander_zero_surgery_floor(alexander) + 2 - 1
    try:
        minus1 = DimResult.exact(r062 + abs(-1 - nu62), 1)
    except Inconsistency as e:  # 6_2's r0 came from an identity the data break
        raise IntegrityError(f"T1 route: -1-surgery on 6_2: {e}") from None
    pairs = solve_pairs(deduce(Pretzel(5, 5, -3), view), [
        (Slope(-1, 1), minus1),
        (Slope(1, 2), lambda d: d >= d_half_min and (d - d_half_min) % 4 == 0)])
    out = {}
    for name, s in (("6_3", Slope(1, 1)), ("8_6", Slope(-1, 2)), ("8_8", Slope(1, 2))):
        nu = deduce(Named(name), view).nu
        if not nu.is_exact:
            raise IntegrityError(f"T1 route: nu of {name} is not exact: {nu}")
        dims = {s.q * r + abs(s.p - s.q * n) for n, r in pairs}
        if len(dims) != 1:
            raise IntegrityError(f"chain through P(5,5,-3) is not forced at {s}: {pairs}")
        out[name] = (nu.value(), dims.pop() - abs(-1 - nu.value()))
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
    """One cell per census route, met in turn with the stored dimension as
    census_dim meets them: each route is compared with what the stored
    value and the routes before it leave."""
    report = Report()
    for key, entry in ds.table("T2").items():
        known = DimResult.of_stored(entry.payload["dim"], entry.payload["h1"])
        routes = census_routes(int(key), ds)
        for table, route, computed in routes:
            try:
                met, ok = known.meet(computed), True
            except Inconsistency:
                met, ok = known, False
            report.add(table, key, route, known, computed, ok)
            known = met
        report.add("T2", key, "routes", entry.payload["dim"],
                   entry.payload["dim"], bool(routes))
    return report


def _noncollapse(result: DimResult, khbar_dim: int) -> str:
    """Whether every admitted cover dimension lies below the reduced odd
    Khovanov rank ("confirmed"), none does ("collapses"), or it is open."""
    ends = result.values() or (result.state.lo, result.state.hi)
    lo, hi = ends[0], ends[-1]
    if hi is not None and hi < khbar_dim:
        return "confirmed"
    return "collapses" if lo >= khbar_dim else "open"


def check_spectral(ds) -> Report:
    """Two cells per T5 knot, its cover dimension and whether the spectral
    sequence is shown not to collapse; the notes print each cover next to
    the reduced odd Khovanov rank.  Each cover is computed once."""
    report = Report(notes=["branched double covers of the non-thin knots:"])
    for key, entry in ds.table("T5").items():
        stored, khbar_dim = entry.payload["dim"], entry.payload["khbar_dim"]
        computed = branched_cover_dim(Named(key), ds)
        noncollapse = _noncollapse(computed, khbar_dim)
        if stored is None:
            ok = computed.values() is None and computed.state.hi is None
            report.add("T5", key, "dim", "undetermined", computed, ok)
            report.add("T5", key, "noncollapse", "open", noncollapse)
        else:
            expected = DimResult.of_stored(stored, entry.payload["det"])
            ok = (computed.values() == expected.values()
                  and computed.euler == expected.euler)
            report.add("T5", key, "dim", expected, computed, ok)
            report.add("T5", key, "noncollapse", "confirmed", noncollapse)
        values = computed.values()
        # candidate values are possible, not confirmed; flag the tightest
        tight = (f"  (candidate {max(values)} vs {khbar_dim}: possible)"
                 if values is not None and len(values) > 1 else "")
        dim = json.dumps(computed.to_json(), sort_keys=True, separators=(",", ":"))
        report.notes.append(f"  {key}: dim {dim}  vs reduced odd Khovanov {khbar_dim}"
                            f"  -> {noncollapse}{tight}")
    return report


# ---------------------------------------------------------------------------
# Homeomorphism identity sweep
# ---------------------------------------------------------------------------

# the parameter bound of the identity sweep
IDENTITY_BOUND = 50


def identity_instances(ds):
    """Every registered identity of an integer surgery on the swept knots:
    the two-bridge codes of the alias registry and of the twist family,
    P(n,3,-3), and cables of instanton L-space companions, with
    parameters up to IDENTITY_BOUND; check_identities skips the ones with
    a side whose dimension the data do not determine."""
    bound = IDENTITY_BOUND
    atoms = [x for name in ds.knot_names() for x in equivalent_atoms(Named(name), ds)]
    atoms += [make_twist(n) for n in range(1, 2 * bound + 1)]
    codes = {c for x in atoms if isinstance(x, TwoBridge) for c in ((x.a, x.b), (-x.a, -x.b))}
    swept = [TwoBridge(a, b) for a, b in sorted(codes)
             if b != 0 and abs(b) <= 2 * bound and abs(a) <= 2 * bound]
    swept += [Pretzel(n, 3, -3) for n in range(-bound, bound + 1)]
    for companion_text in ("m(3_1)", "m(5_1)", "T(3,4)", "P(-2,3,7)"):
        companion = parse_knot(companion_text)
        genus = structural(companion, ds).genus
        if not genus.is_exact:
            raise IntegrityError(f"identity sweep: genus of {companion_text} is not exact: {genus}")
        g = genus.value()
        swept += [Cable(p, q, companion) for q in (2, 3)
                  for p in range(q * (2 * g - 1) + 1, q * (2 * g - 1) + bound) if p % q]
    return [((k, Slope(n, 1)), (partner, slope)) for k in swept
            for n, partner, slope in integer_identities(k, ds)]


class IdentityReport(Record):
    """status is "equal", "compatible" or "contradiction"."""

    __slots__ = ("lhs", "rhs", "lhs_dim", "rhs_dim", "status")

    def __init__(self, lhs: str, rhs: str, lhs_dim: DimResult, rhs_dim: DimResult,
                 status: str):
        self._fill(lhs, rhs, lhs_dim, rhs_dim, status)


def verify_identity(lhs: tuple[KnotExpr, Slope], rhs: tuple[KnotExpr, Slope],
                    ds) -> IdentityReport:
    """Compare the dimensions and |H1| of two surgery descriptions."""
    ld = surgery_dim(lhs[0], lhs[1], "trivial", ds)
    rd = surgery_dim(rhs[0], rhs[1], "trivial", ds)
    try:
        ld.meet(rd)  # raises on different euler or disjoint dimensions
        status = "equal" if ld.is_exact and ld == rd else "compatible"
    except Inconsistency:
        status = "contradiction"
    return IdentityReport(str(Surgery(*lhs)), str(Surgery(*rhs)), ld, rd, status)


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


# the checks of `verify all`, in report order, each with the tables it verifies
CHECKS = ((("T3",), rederive_nu_tau), (("T1",), rederive_r0),
          (("T4",), check_integer_surgery_table), (CENSUS_TABLES, check_census),
          (("T5",), check_spectral))


def verify_target(target: str, ds) -> Report:
    """The report of `isharp verify TARGET`: "all", "identities", or one
    table T1-T8, whose cells its check gives, with the check's notes (the
    T5 report's are the branched-double-cover rows of the non-thin knots)."""
    if target == "all":
        return verify_all(ds)
    if target == "identities":
        return check_identities(ds)
    for tables, check in CHECKS:
        if target in tables:
            report = check(ds)
            return Report([c for c in report.cells if c.section == target], report.notes)
    raise DatasetError(f"nothing to verify for {target!r}")


def verify_all(ds) -> Report:
    """Every re-derivable cell of every table, one pass/fail row per cell,
    after deducing every KNOT record on the tabulated data and checking
    its stored sl_max, and its mirror's, against 2 tau - 1 (a record the
    rules contradict, or whose sl_max exceeds that bound, raises
    IntegrityError naming it)."""
    for name in ds.knot_names():
        sl_upper_bound(Named(name), ds)  # deduces the record first
        sl_upper_bound(Named(name, True), ds)
    return Report([c for _, check in CHECKS for c in check(ds).cells])
