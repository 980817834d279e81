"""Dimensions of every manifold description: surgeries, lens spaces,
branched double covers and census manifolds.

The closed form for a p/q surgery is  q * r0 + |p - q * nu|  (with the
zero-surgery exceptions for W-shaped knots); lens spaces are L-spaces;
a branched double cover has dimension det when its knot's reduced odd
Khovanov homology is thin, or else that of the surgery description its
T5 row registers.  census_dim meets a census manifold's stored dimension
with every registered route (a T6 surgery, a T7 branched cover, a T8
exact triangle through triad_bounds), and manifold_dim answers each of
the four kinds.  Each answer is a DimResult, read through its state and
euler (|H1|), values(), is_exact, dim or to_json().

parse_manifold reads with the knot grammar, its slope in place by the
scanner's slope production.
"""

import math

from .datasets import CENSUS_INDICES
from .invariants import Bundle, deduce
from .knots import (Cable, KnotExpr, Named, Sum, _Parser, canonical, format_knot, mirror,
                    parse_knot, resolve, structural)
from .values import Inconsistency, IntegrityError, Record, Slope, Val, Value, parse_slope


class DimensionError(ValueError):
    """The available data do not determine the requested dimension."""


# ---------------------------------------------------------------------------
# Manifold descriptions
# ---------------------------------------------------------------------------

class Surgery(Record):
    """p/q surgery on a knot; bundle is "trivial" or, at slope 0 only, "mu"."""

    __slots__ = ("knot", "slope", "bundle")

    def __init__(self, knot: KnotExpr, slope: Slope, bundle: str = "trivial"):
        if bundle not in ("trivial", "mu"):
            raise ValueError(f"bad bundle {bundle!r}")
        if bundle == "mu" and not (slope.q == 1 and slope.p == 0):
            raise ValueError("the mu bundle is only meaningful at slope 0")
        self._fill(knot, slope, bundle)

    def __str__(self):
        tail = "; mu" if self.bundle == "mu" else ""
        return f"surg({format_knot(self.knot)}; {self.slope}{tail})"


class Lens(Record):
    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if not (p > q >= 1) or math.gcd(p, q) != 1:
            raise ValueError(f"lens space needs p > q >= 1 coprime, got ({p},{q})")
        self._fill(p, q)

    def __str__(self):
        return f"lens({self.p},{self.q})"


class BranchedCover(Record):
    __slots__ = ("knot",)

    def __init__(self, knot: KnotExpr):
        self._fill(knot)

    def __str__(self):
        return f"dcover({format_knot(self.knot)})"


class Census(Record):
    __slots__ = ("index",)

    def __init__(self, index: int):
        if index not in CENSUS_INDICES:
            raise ValueError(f"census index {index} out of range 0..19")
        self._fill(index)

    def __str__(self):
        return f"census({self.index})"


ManifoldDesc = Surgery | Lens | BranchedCover | Census


def parse_manifold(text: str) -> ManifoldDesc:
    """Grammar: surg(K; p/q[; mu]) | lens(p,q) | dcover(K) | census(i),
    with K in the knot grammar."""
    ps = _Parser(text)
    ps.skip_ws()
    head = next((h for h in ("surg", "lens", "dcover", "census")
                 if text.startswith(h + "(", ps.pos)), None)
    if head is None:
        ps.error("expected a manifold description")
    ps.expect(head + "(")
    if head == "lens":
        m = Lens(*ps.int_args(2))
    elif head == "census":
        m = Census(*ps.int_args(1))
    else:
        knot = ps.sum_expr()
        if head == "dcover":
            m = BranchedCover(knot)
        else:
            ps.expect(";")
            slope = ps.slope()
            bundle = "trivial"
            if ps.peek() == ";":
                ps.expect(";")
                ps.expect("mu")
                bundle = "mu"
            m = Surgery(knot, slope, bundle)
        ps.expect(")")
    ps.end()
    return m


# ---------------------------------------------------------------------------
# Dimension results
# ---------------------------------------------------------------------------

class DimResult(Value):
    """Exact dimension, finite candidate set, or interval with parity.

    state is the sorted tuple of admissible dimensions (one value when
    exact) or, for more than 64 of them or no upper end, a Val interval.
    euler is |H1| for rational homology spheres and 0 otherwise; every
    admissible d satisfies d >= euler and d = euler (mod 2).  A result is
    read through state, values() (None for an interval), is_exact, dim
    and to_json(), which adds the kind and the grading split
    ((d + euler)/2, (d - euler)/2) of an exact d.
    """

    _fields = ("state", "euler")
    __slots__ = ()

    def __new__(cls, state: tuple[int, ...] | Val, euler: int = 0):
        return super().__new__(cls, (state, euler))

    @staticmethod
    def exact(d: int, euler: int) -> "DimResult":
        """The one dimension d, checked as of_candidates((d,), euler) is."""
        euler = abs(euler)
        if d < euler or (d - euler) % 2 != 0:
            raise Inconsistency(f"dimension {d} incompatible with euler {euler}")
        return DimResult((d,), euler)

    @staticmethod
    def of_candidates(values, euler: int) -> "DimResult":
        euler = abs(euler)
        values = tuple(sorted(set(values)))
        if not values:
            raise Inconsistency("empty candidate set")
        for d in values:
            if d < euler or (d - euler) % 2 != 0:
                raise Inconsistency(f"dimension {d} incompatible with euler {euler}")
        return DimResult(values, euler)

    @staticmethod
    def of_stored(dim, euler: int) -> "DimResult":
        """A stored table cell: one dimension or a list of candidates."""
        return DimResult.of_candidates(dim if isinstance(dim, list) else (dim,), euler)

    @staticmethod
    def of_interval(lo: int, hi: int | None, euler: int) -> "DimResult":
        """The dimensions in [lo, hi] (hi None: unbounded) that euler admits;
        listed as candidates when there are at most 64 of them."""
        euler = abs(euler)
        val = Val(max(lo, euler), hi, euler % 2)
        cands = val.candidates(64)  # sorted, and each one euler admits
        return DimResult(val if cands is None else tuple(cands), euler)

    def values(self) -> tuple[int, ...] | None:
        return None if isinstance(self.state, Val) else self.state

    @property
    def is_exact(self) -> bool:
        return isinstance(self.state, tuple) and len(self.state) == 1

    @property
    def dim(self) -> int | None:
        return self.state[0] if self.is_exact else None

    def contains(self, d: int) -> bool:
        return self.state.contains(d) if isinstance(self.state, Val) else d in self.state

    def meet(self, other: "DimResult") -> "DimResult":
        if self.euler != other.euler:
            raise Inconsistency(f"euler mismatch: {self.euler} vs {other.euler}")
        interval = isinstance(self.state, Val)
        if interval and isinstance(other.state, Val):
            val = self.state.meet(other.state)
            return DimResult.of_interval(val.lo, val.hi, self.euler)
        a, b = (other, self) if interval else (self, other)
        keep = [d for d in a.state if b.contains(d)]
        if not keep:
            raise Inconsistency(f"no dimension in {a} lies in {b}")
        return DimResult.of_candidates(keep, self.euler)

    def to_json(self):
        state, euler = self.state, self.euler
        if isinstance(state, Val):
            return {"kind": "interval", "euler": euler, **state.to_json()}
        if len(state) > 1:
            return {"kind": "candidates", "euler": euler, "candidates": list(state)}
        d, = state
        return {"kind": "exact", "euler": euler, "dim": d,
                "graded": [(d + euler) // 2, (d - euler) // 2]}

    def __str__(self):
        state = self.state
        if isinstance(state, Val):
            hi = "inf" if state.hi is None else state.hi
            return f"[{state.lo},{hi}] {'odd' if state.parity else 'even'}"
        return str(state[0]) if len(state) == 1 else "{" + ",".join(map(str, state)) + "}"


# the 3-sphere, an L-space: built once and shared, since results are immutable
SPHERE = DimResult.exact(1, 1)


# ---------------------------------------------------------------------------
# The surgery formula
# ---------------------------------------------------------------------------

def _require_bounded(val: Val, what: str, knot) -> Val:
    if val.lo is None or val.hi is None:
        raise DimensionError(f"{what} of {knot} is not determined: {val}")
    return val


def surgery_dim(k: KnotExpr, s: Slope, bundle: str, ds) -> DimResult:
    """Dimension of the p/q surgery; the infinite slope gives the
    3-sphere, SPHERE.

    A warm step is one probe of the deduce cache and, when the bundle
    pins one (nu, r0) pair, the closed form d = q r0 + |p - q nu|, built
    by one tuple.__new__ call that skips the checks of exact(): Bundle
    admits a pair only with r0 = nu (mod 2) and r0 >= |nu|, so with
    q >= 1, d >= q |nu| + |p - q nu| >= |p| and d = q (r0 - nu) + p =
    p (mod 2), the two conditions exact() tests.  At slope 0 the form
    reads d = r0 + |nu|, even and >= 0, the answer of either bundle when
    nu is exact and non-zero.  Every other bundle goes to _formula_dim,
    and every other slope-0 case to zero_surgery_dim."""
    p, q = s[0], s[1]
    if not q:
        return SPHERE
    b = deduce(k, ds)
    pairs = b.pairs
    if pairs and len(pairs) == 1:
        (n, r), = pairs
        if p or n and b.nu.lo == b.nu.hi:  # a nu with pairs is bounded
            return tuple.__new__(DimResult, ((q * r + abs(p - q * n),), abs(p)))
    if p == 0:
        return zero_surgery_dim(k, bundle, ds)
    return _formula_dim(b, s, k)


def _formula_dim(b: Bundle, s: Slope, knot=None) -> DimResult:
    """The closed form q * r0 + |p - q * nu| at a finite slope s with
    p != 0; errors name knot, or else the knot b names.

    With (nu, r0) pairs the result is the set of the form's values over
    them, and without pairs the form runs on the intervals.  The euler
    characteristic is |p|."""
    p, q = s[0], s[1]
    pairs = b.pairs
    if pairs:  # enumeration over the admissible (nu, r0) lattice
        return DimResult.of_candidates({q * r + abs(p - q * n) for n, r in pairs}, p)

    # interval propagation: |p - q nu| is piecewise linear in nu, so its
    # extremes over an interval sit at the endpoints or at the interior
    # critical point p/q
    nu = _require_bounded(b.nu, "nu", knot or b.knot)
    r0 = _require_bounded(b.r0, "r0", knot or b.knot)
    lo_abs, hi_abs = _abs_range(p, q, nu)
    return DimResult.of_interval(q * r0.lo + lo_abs, q * r0.hi + hi_abs, p)


def _abs_range(p: int, q: int, nu: Val) -> tuple[int, int]:
    ends = [abs(p - q * x) for x in (nu.lo, nu.hi)]
    lo, hi = min(ends), max(ends)
    if nu.lo * q <= p <= nu.hi * q:  # nu.lo <= p/q <= nu.hi, with q >= 1
        # the minimum sits at the admissible integer nearest the critical
        # point on one side or the other; with a parity constraint that
        # can be one step beyond floor(p/q) or ceil(p/q)
        below, above = p // q, -((-p) // q)
        if nu.parity is not None:
            below -= (below - nu.parity) % 2
            above += (above - nu.parity) % 2
        for n in (below, above):
            if nu.contains(n):
                lo = min(lo, abs(p - q * n))
    return lo, hi


def zero_surgery_dim(k: KnotExpr, bundle: str, ds) -> DimResult:
    """Zero-surgery dimensions: an exact non-zero nu (V-shaped, by R14)
    gives r0 + |nu| for either bundle; W-shaped knots (nu = 0) give r0
    (mu bundle) and r0 + 2 (trivial); with nu = 0 and shape V or unknown
    the trivial bundle gives r0 (V) or the candidate pair {r0, r0 + 2},
    and the mu bundle is undetermined unless its dimension is tabulated."""
    b = deduce(k, ds)
    euler = 0
    if b.nu.is_exact and b.nu.value() != 0:
        nu = abs(b.nu.value())
        r0 = _require_bounded(b.r0, "r0", k)
        # R14 gives r0 the parity of nu, so every r0 + |nu| is even
        return DimResult.of_interval(r0.lo + nu, r0.hi + nu, euler)
    if not b.nu.is_exact:
        raise DimensionError(f"nu of {k} is not determined: {b.nu}")
    r0 = _require_bounded(b.r0, "r0", k)
    if not r0.is_exact:
        raise DimensionError(f"r0 of {k} is not pinned at slope 0: {r0}")
    r = r0.value()
    if b.shape == "W":
        return DimResult.exact(r if bundle == "mu" else r + 2, euler)
    # nu = 0, V-shaped or of unknown shape: the trivial bundle gives r0
    # (V) or one of r0, r0 + 2; the mu bundle is open unless tabulated
    if bundle == "trivial":
        return DimResult.of_candidates([r] if b.shape == "V" else [r, r + 2], euler)
    if b.mu0_dim is not None:
        return DimResult.exact(b.mu0_dim, euler)
    return DimResult.of_interval(0, None, euler)


def lens_dim(p: int, q: int) -> DimResult:
    """Lens spaces are instanton L-spaces: dimension p, all even-graded."""
    Lens(p, q)  # validates
    return DimResult.exact(p, p)


def branched_cover_dim(k: KnotExpr, ds) -> DimResult:
    """Dimension for the double cover of the 3-sphere branched over k.

    Thin reduced odd Khovanov homology, or a T5 rank equal to det, forces
    the dimension to equal the determinant; otherwise the surgery
    description sigma2 of the knot's T5 row is used, and a route the data
    leave undetermined names that row; with neither, only the
    Euler-characteristic bound remains."""
    st = structural(k, ds)
    det = st.determinant
    thin = st.thin_odd_khovanov
    rec, mirrored, _ = resolve(canonical(k, ds), ds)
    row = ds.table("T5").get(rec.name) if rec is not None else None
    cover = row.payload if row is not None else {}
    if det is not None and (thin or cover.get("khbar_dim") == det):
        return DimResult.exact(det, det)
    if cover.get("sigma2") is not None:
        # the registered surgery description, mirrored with the knot
        where = f"T5 row {rec.name}: sigma2"
        route = _parse_cell(where, parse_manifold, cover["sigma2"], ds)
        if not isinstance(route, Surgery):
            raise IntegrityError(f"{where} {route} is not a surgery description")
        where = f"{where} {route}"
        if mirrored:
            route = Surgery(mirror(route.knot), -route.slope, route.bundle)
        try:
            result = surgery_dim(route.knot, route.slope, route.bundle, ds)
        except DimensionError as e:  # a route the data leave undetermined
            raise IntegrityError(f"{where}: {e}") from None
        if det is not None and result.euler != det:
            raise IntegrityError(
                f"registered cover description {route} has euler {result.euler}, "
                f"but det({format_knot(k)}) = {det}")
        return result
    if det is None:
        raise DimensionError(f"no route to the branched double cover of {format_knot(k)}")
    return DimResult.of_interval(det, None, det)


def _parse_cell(where: str, parse, text: str, ds):
    """parse(text) for a stored cell; a cell that does not parse, or that
    names a knot with no KNOT row in ds, is an IntegrityError that names
    its row."""
    try:
        cell = parse(text)
    except ValueError as e:
        raise IntegrityError(f"{where}: {e}") from None
    parts = [cell]
    while parts:
        x = parts.pop()
        if isinstance(x, (Surgery, BranchedCover)):
            parts.append(x.knot)
        elif isinstance(x, Cable):
            parts.append(x.companion)
        elif isinstance(x, Sum):
            parts.extend(x.summands)
        elif isinstance(x, Named) and ds.knot_record(x.name) is None:
            raise IntegrityError(f"{where}: no knot record {x.name}")
    return cell


# ---------------------------------------------------------------------------
# Census manifolds
# ---------------------------------------------------------------------------

def census_dim(index: int, ds) -> DimResult:
    """Dimension of a census manifold via its registered routes, cross
    checked against the stored value."""
    Census(index)  # validates the range
    stored = ds.table("T2")[str(index)]
    result = DimResult.of_stored(stored.payload["dim"], stored.payload["h1"])
    for _, route, computed in census_routes(index, ds):
        try:
            result = result.meet(computed)
        except Inconsistency as e:
            raise IntegrityError(f"census {index}: route {route} disagrees: {e}") from None
    return result


def census_routes(index: int, ds) -> list[tuple[str, str, DimResult]]:
    """Every registered computation route for one census manifold, as
    (table, label, dimension); a route the data leave undetermined, or a
    T8 component whose stored dim or h1 its route rules out, names its row."""
    out = []
    t6, t7, t8 = (ds.table(table).get(str(index)) for table in ("T6", "T7", "T8"))
    try:
        if t6 is not None:
            where = f"T6 row {index}"
            desc = Surgery(_parse_cell(where, parse_knot, t6.payload["knot"], ds),
                           _parse_cell(where, parse_slope, t6.payload["slope"], ds))
            out.append(("T6", str(desc), surgery_dim(desc.knot, desc.slope, desc.bundle, ds)))
        if t7 is not None:
            where = f"T7 row {index}"
            desc = BranchedCover(_parse_cell(where, parse_knot, t7.payload["knot"], ds))
            out.append(("T7", str(desc), branched_cover_dim(desc.knot, ds)))
        if t8 is not None:
            where = f"T8 row {index}"
            components = t8.payload["components"]
            parts = [_parse_cell(where, parse_manifold, c["desc"], ds) for c in components]
            for m in parts:  # an earlier census manifold only, so that no route cycles
                if isinstance(m, Census) and m.index >= index:
                    raise IntegrityError(f"{where}: component {m} does not come before "
                                         f"census({index})")
            dims = [manifold_dim(m, ds) for m in parts]
            for c, d in zip(components, dims):
                for field, ok, computed in (("dim", d.contains(c["dim"]), d),
                                            ("h1", c["h1"] == d.euler, d.euler)):
                    if not ok:
                        raise IntegrityError(f"{where}: component {c['desc']}: stored "
                                             f"{field} {c[field]}, computed {computed}")
            label = " / ".join(c["desc"] for c in components)
            out.append(("T8", f"triad({label})", triad_bounds(*dims, t8.payload["h1"])))
    except DimensionError as e:
        raise IntegrityError(f"{where}: {e}") from None
    return out


def triad_bounds(dA: DimResult, dB: DimResult, h1C: int) -> DimResult:
    """Constrain the third dimension of a surgery triad.

    Exactness gives |dA - dB| <= dC <= dA + dB; the Euler characteristic
    forces dC >= h1C and dC = h1C (mod 2).  Returns an exact value when a
    single candidate survives; an empty intersection is an inconsistency.
    """
    a_vals, b_vals = dA.values(), dB.values()
    if a_vals is None or b_vals is None:
        raise DimensionError("triad propagation needs exact or candidate inputs")
    lo = min(abs(a - b) for a in a_vals for b in b_vals)
    hi = max(a + b for a in a_vals for b in b_vals)
    lo = max(lo, h1C)
    try:
        return DimResult.of_interval(lo, hi, h1C)
    except Inconsistency:
        raise Inconsistency(
            f"no dimension in [{lo},{hi}] matches |H1| = {h1C} and its parity") from None


def manifold_dim(m: ManifoldDesc, ds) -> DimResult:
    """Dimension of a surgery, a lens space, a branched double cover or a
    census manifold."""
    if isinstance(m, Surgery):
        return surgery_dim(m.knot, m.slope, m.bundle, ds)
    if isinstance(m, Lens):
        return lens_dim(m.p, m.q)
    if isinstance(m, BranchedCover):
        return branched_cover_dim(m.knot, ds)
    return census_dim(m.index, ds)
