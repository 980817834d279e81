"""Dimension computation for 3-manifold descriptions.

The closed form for a p/q surgery is  q * r0 + |p - q * nu|  (with the
zero-surgery exceptions for W-shaped knots); lens spaces, branched double
covers of thin knots, census manifolds with registered routes, and exact
surgery triads are layered on top.  Results carry the Euler characteristic
|H1| (for rational homology spheres) and the induced grading split.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from .datasets import IntegrityError
from .invariants import Bundle, deduce
from .knots import (Cable, KnotExpr, Pretzel, Twist, TwoBridge, _Parser, _pretzel_n33,
                    _two_bridge_from_twist, canonical, equivalent_atoms, format_knot,
                    make_cable, mirror, parse_knot, registered_record, structural)
from .slopes import Slope, parse_slope, reduce
from .values import Inconsistency, Record, Val


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
        if not 0 <= index <= 19:
            raise ValueError(f"census index {index} out of range 0..19")
        self._fill(index)

    def __str__(self):
        return f"census({self.index})"


ManifoldDesc = Union[Surgery, Lens, BranchedCover, Census]


def parse_manifold(text: str) -> ManifoldDesc:
    """Grammar: surg(K; p/q[; mu]) | lens(p,q) | dcover(K) | census(i),
    with K in the knot grammar."""
    ps = _Parser(text)
    ps.skip_ws()
    head = next((h for h in ("surg", "lens", "dcover", "census")
                 if text.startswith(h + "(", ps.pos)), None)
    if head is None:
        raise ValueError(f"cannot parse manifold description {text.strip()!r}")
    ps.expect(head)
    if head == "lens":
        m = Lens(*ps.int_args(2))
    elif head == "census":
        m = Census(*ps.int_args(1))
    else:
        ps.expect("(")
        knot = ps.sum_expr()
        if head == "dcover":
            m = BranchedCover(knot)
        else:
            ps.expect(";")
            slope = parse_slope(ps.token())
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

class DimResult(Record):
    """Exact dimension, finite candidate set, or interval with parity.

    The state is either the sorted tuple of admissible dimensions (one
    value when exact) or, when there are too many to list, a Val
    interval.  euler is |H1| for rational homology spheres and 0
    otherwise; every admissible d satisfies d >= euler and
    d = euler (mod 2), and the grading splits as ((d + euler)/2,
    (d - euler)/2) when d is exact.
    """

    __slots__ = ("state", "euler")

    def __init__(self, state: Union[tuple[int, ...], Val], euler: int = 0):
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "euler", euler)

    @staticmethod
    def exact(d: int, euler: int) -> "DimResult":
        return DimResult.of_candidates((d,), euler)

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
    def of_interval(lo, hi, euler: int) -> "DimResult":
        """The dimensions in [lo, hi] (hi None: unbounded) that euler admits;
        listed as candidates when there are at most 64 of them."""
        euler = abs(euler)
        val = Val(euler if lo is None or lo < euler else lo, hi, euler % 2)
        cands = val.candidates(64)  # sorted, and each one euler admits
        return DimResult(val if cands is None else tuple(cands), euler)

    def values(self) -> Optional[tuple[int, ...]]:
        return None if isinstance(self.state, Val) else self.state

    @property
    def kind(self) -> str:
        if isinstance(self.state, Val):
            return "interval"
        return "exact" if len(self.state) == 1 else "candidates"

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    @property
    def dim(self) -> Optional[int]:
        return self.state[0] if self.is_exact else None

    @property
    def candidates(self) -> Optional[tuple[int, ...]]:
        return self.state if self.kind == "candidates" else None

    @property
    def lo(self) -> Optional[int]:
        return self.state.lo if self.kind == "interval" else None

    @property
    def hi(self) -> Optional[int]:
        return self.state.hi if self.kind == "interval" else None

    @property
    def parity(self) -> Optional[int]:
        return self.state.parity if self.kind == "interval" else None

    @property
    def graded(self) -> Optional[tuple[int, int]]:
        if not self.is_exact:
            return None
        return ((self.dim + self.euler) // 2, (self.dim - self.euler) // 2)

    def contains(self, d: int) -> bool:
        return self.state.contains(d) if self.kind == "interval" else d in self.state

    def meet(self, other: "DimResult") -> "DimResult":
        if self.euler != other.euler:
            raise Inconsistency(f"euler mismatch: {self.euler} vs {other.euler}")
        if self.kind == other.kind == "interval":
            val = self.state.meet(other.state)
            return DimResult.of_interval(val.lo, val.hi, self.euler)
        a, b = (other, self) if self.kind == "interval" else (self, other)
        keep = [d for d in a.state if b.contains(d)]
        if not keep:
            raise Inconsistency(f"no dimension in {a} lies in {b}")
        return DimResult.of_candidates(keep, self.euler)

    def to_json(self):
        kind = self.kind
        out = {"kind": kind, "euler": self.euler}
        if kind == "exact":
            out["dim"] = self.dim
            out["graded"] = list(self.graded)
        elif kind == "candidates":
            out["candidates"] = list(self.state)
        else:
            out.update(self.state.to_json())
        return out

    def __str__(self):
        if self.kind == "exact":
            return str(self.dim)
        if self.kind == "candidates":
            return "{" + ",".join(map(str, self.candidates)) + "}"
        hi = "inf" if self.hi is None else str(self.hi)
        par = " even" if self.parity == 0 else " odd"
        return f"[{self.lo},{hi}]{par}"


# ---------------------------------------------------------------------------
# The surgery formula
# ---------------------------------------------------------------------------

def _require_bounded(val: Val, what: str, knot) -> Val:
    if val.lo is None or val.hi is None:
        raise DimensionError(f"{what} of {knot} is not determined: {val}")
    return val


def surgery_dim(k: KnotExpr, s: Slope, bundle: str, ds) -> DimResult:
    """Dimension of the p/q surgery: q * r0 + |p - q * nu| away from the
    zero-surgery exceptions; slope 0 dispatches to zero_surgery_dim and
    the infinite slope gives the 3-sphere."""
    if s.is_infinite:
        return DimResult.exact(1, 1)
    if s.p == 0:
        return zero_surgery_dim(k, bundle, ds)
    return _formula_dim(deduce(k, ds), s, k)


def _formula_dim(b: Bundle, s: Slope, knot=None) -> DimResult:
    """The closed form at s; errors name knot, or else the knot b names."""
    p, q = s.p, s.q
    nu = _require_bounded(b.nu, "nu", knot or b.knot)
    r0 = _require_bounded(b.r0, "r0", knot or b.knot)
    euler = abs(p)
    if b.pairs:
        # enumeration over the admissible (nu, r0) lattice
        return DimResult.of_candidates({q * r + abs(p - q * n) for n, r in b.pairs}, euler)

    # interval propagation: |p - q nu| is piecewise linear in nu, so its
    # extremes over an interval sit at the endpoints or at the interior
    # critical point p/q
    lo_abs, hi_abs = _abs_range(p, q, nu)
    lo = q * r0.lo + lo_abs
    hi = None if r0.hi is None else q * r0.hi + hi_abs
    return DimResult.of_interval(lo, hi, euler)


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
    """Zero-surgery dimensions: V-shaped knots give r0 + |nu| for either
    bundle; W-shaped knots give r0 (mu bundle) and r0 + 2 (trivial); with
    nu = 0 and unknown shape the trivial bundle gives the candidate pair
    {r0, r0 + 2} and the mu bundle is undetermined unless tabulated."""
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

    Thin reduced odd Khovanov homology forces the dimension to equal the
    determinant; otherwise a registered surgery description is used; with
    neither, only the Euler-characteristic bound remains."""
    st = structural(k, ds)
    det = st.determinant
    thin = st.flag("thin_odd_khovanov")
    rec, mirrored = registered_record(canonical(k, ds), ds)
    khbar = rec.khbar_dim if rec is not None else None
    if det is not None and (thin or (khbar is not None and khbar == det)):
        return DimResult.exact(det, det)
    if rec is not None and rec.sigma2 is not None:
        # the registered surgery description, mirrored with the knot
        route = _parse_cell(f"knot record {rec.name}: sigma2", parse_manifold, rec.sigma2)
        if mirrored and isinstance(route, Surgery):
            route = Surgery(mirror(route.knot), -route.slope, route.bundle)
        result = manifold_dim(route, ds)
        if det is not None and result.euler != det:
            raise IntegrityError(
                f"registered cover description {route} has euler {result.euler}, "
                f"but det({format_knot(k)}) = {det}")
        return result
    if det is None:
        raise DimensionError(f"no route to the branched double cover of {format_knot(k)}")
    return DimResult.of_interval(det, None, det)


def census_dim(index: int, ds) -> DimResult:
    """Dimension of a census manifold via its registered routes, cross
    checked against the stored value."""
    Census(index)  # validates the range
    stored = ds.lookup("T2", index)
    result = DimResult.of_stored(stored.payload["dim"], stored.payload["h1"])
    for _, route, computed in census_routes(index, ds):
        try:
            result = result.meet(computed)
        except Inconsistency as e:
            raise IntegrityError(f"census {index}: route {route} disagrees: {e}") from None
    return result


def census_routes(index: int, ds) -> list[tuple[str, str, DimResult]]:
    """Every registered computation route for one census manifold, as
    (table, label, dimension)."""
    out = []
    t6 = ds.table("T6").get(str(index))
    if t6 is not None:
        where = f"T6 row {index}"
        desc = Surgery(_parse_cell(where, parse_knot, t6.payload["knot"]),
                       _parse_cell(where, parse_slope, t6.payload["slope"]))
        out.append(("T6", str(desc), surgery_dim(desc.knot, desc.slope, desc.bundle, ds)))
    t7 = ds.table("T7").get(str(index))
    if t7 is not None:
        desc = BranchedCover(_parse_cell(f"T7 row {index}", parse_knot, t7.payload["knot"]))
        out.append(("T7", str(desc), branched_cover_dim(desc.knot, ds)))
    t8 = ds.table("T8").get(str(index))
    if t8 is not None:
        parts = [manifold_dim(_parse_cell(f"T8 row {index}", parse_manifold, c["desc"]), ds)
                 for c in t8.payload["components"]]
        computed = triad_bounds(parts[0], parts[1], t8.payload["h1"])
        label = " / ".join(c["desc"] for c in t8.payload["components"])
        out.append(("T8", f"triad({label})", computed))
    return out


def _parse_cell(where: str, parse, text: str):
    """parse(text) for a stored cell; a cell that does not parse is an
    IntegrityError that names its row."""
    try:
        return parse(text)
    except ValueError as e:
        raise IntegrityError(f"{where}: {e}") from None


def manifold_dim(m: ManifoldDesc, ds) -> DimResult:
    if isinstance(m, Surgery):
        return surgery_dim(m.knot, m.slope, m.bundle, ds)
    if isinstance(m, Lens):
        return lens_dim(m.p, m.q)
    if isinstance(m, BranchedCover):
        return branched_cover_dim(m.knot, ds)
    if isinstance(m, Census):
        return census_dim(m.index, ds)
    raise TypeError(f"not a manifold description: {m!r}")


# ---------------------------------------------------------------------------
# Exact-triangle propagation
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Homeomorphism identities between surgery descriptions
# ---------------------------------------------------------------------------

def _tb_codes_for(atoms: list[KnotExpr]) -> list[tuple[int, int]]:
    """Two-bridge codes (a, b) among atoms, the presentations of one knot:
    its two-bridge presentations, then the code of its first twist one."""
    codes = [(x.a, x.b) for x in atoms if isinstance(x, TwoBridge)]
    tw = next((x for x in atoms if isinstance(x, Twist)), None)
    if tw is not None:
        tb = _two_bridge_from_twist(tw)
        codes.append((tb.a, tb.b))
    return list(dict.fromkeys(codes))  # first occurrence order


def homeo_identities(k: KnotExpr, s: Slope, ds) -> list[tuple[KnotExpr, Slope]]:
    """All registered re-descriptions of the surgery (k, s): the three
    two-bridge twist-region identities, the pretzel shift
    (-2 on P(n,3,-3) vs +2 on P(n+3,3,-3)), and the two cable identities
    relating slopes (pq +- 1)/q^2 on a companion to pq +- 1 on its cable.
    """
    out: list[tuple[KnotExpr, Slope]] = []
    atoms = equivalent_atoms(k, ds)

    # two-bridge identities
    for a, b in _tb_codes_for(atoms):
        if b == 0 or b % 2 != 0:
            continue
        n = b // 2
        if a % 2 != 0:
            m2 = a  # odd twist region, 2m+1 crossings
            if not s.is_infinite and s.is_integer and s.p == 4 * n - 1:
                out.append((canonical(TwoBridge(2, m2), ds), reduce(4 * n - 1, n)))
            if not s.is_infinite and s.is_integer and s.p == 4 * n + 1:
                out.append((canonical(TwoBridge(-2, m2), ds), reduce(-(4 * n + 1), n)))
        else:
            m2 = a  # even twist region, 2m crossings
            if s == Slope(1, 1):
                out.append((canonical(TwoBridge(-2, m2), ds), reduce(-1, n)))
            if s == Slope(-1, 1):
                out.append((canonical(TwoBridge(2, m2), ds), reduce(-1, n)))

    # pretzel shift, once per P(n,3,-3) presentation
    shifts = []
    for x in atoms:
        n = _pretzel_n33(x) if isinstance(x, Pretzel) else None
        if n is not None:
            shifts.append(-n if x.mirrored else n)
    for n in dict.fromkeys(shifts):
        if s == Slope(-2, 1):
            out.append((Pretzel(n + 3, 3, -3), Slope(2, 1)))
        if s == Slope(2, 1):
            out.append((Pretzel(n - 3, 3, -3), Slope(-2, 1)))

    # cable identities: integer surgery on the cable ...
    if isinstance(k, Cable) and s.is_integer:
        for eps in (-1, 1):
            if s.p == k.p * k.q + eps:
                out.append((k.companion, reduce(s.p, k.q * k.q)))
    # ... matches the corresponding fractional surgery on the companion
    if not s.is_infinite and s.q >= 4:
        q = math.isqrt(s.q)
        if q * q == s.q:
            for eps in (-1, 1):
                if (s.p - eps) % q == 0:
                    p = (s.p - eps) // q
                    if math.gcd(abs(p), q) == 1:
                        out.append((make_cable(p, q, k), Slope(s.p, 1)))

    return out


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
    name = lambda pair: f"surg({format_knot(pair[0])}; {pair[1]})"
    return IdentityReport(name(lhs), name(rhs), ld, rd, status)
