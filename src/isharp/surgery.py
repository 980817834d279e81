"""Dimension computation for 3-manifold descriptions.

The closed form for a p/q surgery is  q * r0 + |p - q * nu|  (with the
zero-surgery exceptions for W-shaped knots); lens spaces, branched double
covers of thin knots, census manifolds with registered routes, and exact
surgery triads are layered on top.  Results carry the Euler characteristic
|H1| (for rational homology spheres) and the induced grading split.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import datasets
from .datasets import IntegrityError
from .invariants import Bundle, deduce
from .knots import KnotError, KnotExpr, Unknot, format_knot, mirror, parse_knot, structural
from .slopes import Slope, parse_slope, reduce, triad
from .values import Inconsistency, Val


class DimensionError(ValueError):
    """The available data do not determine the requested dimension."""


# ---------------------------------------------------------------------------
# Manifold descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Surgery:
    knot: KnotExpr
    slope: Slope
    bundle: str = "trivial"  # "trivial" or "mu"; "mu" only at slope 0

    def __post_init__(self):
        if self.bundle not in ("trivial", "mu"):
            raise ValueError(f"bad bundle {self.bundle!r}")
        if self.bundle == "mu" and not (self.slope.q == 1 and self.slope.p == 0):
            raise ValueError("the mu bundle is only meaningful at slope 0")

    def __str__(self):
        tail = "; mu" if self.bundle == "mu" else ""
        return f"surg({format_knot(self.knot)}; {self.slope}{tail})"


@dataclass(frozen=True)
class Lens:
    p: int
    q: int

    def __post_init__(self):
        import math
        if not (self.p > self.q >= 1) or math.gcd(self.p, self.q) != 1:
            raise ValueError(f"lens space needs p > q >= 1 coprime, got ({self.p},{self.q})")

    def __str__(self):
        return f"lens({self.p},{self.q})"


@dataclass(frozen=True)
class BranchedCover:
    knot: KnotExpr

    def __str__(self):
        return f"dcover({format_knot(self.knot)})"


@dataclass(frozen=True)
class Census:
    index: int

    def __post_init__(self):
        if not 0 <= self.index <= 19:
            raise ValueError(f"census index {self.index} out of range 0..19")

    def __str__(self):
        return f"census({self.index})"


@dataclass(frozen=True)
class Opaque:
    name: str
    h1: Optional[int]  # None marks infinite first homology

    def __str__(self):
        return f"opaque({self.name}; {self.h1 if self.h1 is not None else 'inf'})"


ManifoldDesc = Union[Surgery, Lens, BranchedCover, Census, Opaque]


def parse_manifold(text: str) -> ManifoldDesc:
    """Grammar: surg(K; p/q[; mu]) | lens(p,q) | dcover(K) | census(i)."""
    text = text.strip()
    if text.startswith("surg(") and text.endswith(")"):
        inner = text[5:-1]
        parts = [p.strip() for p in inner.split(";")]
        if len(parts) not in (2, 3):
            raise ValueError(f"bad surgery description {text!r}")
        knot = parse_knot(parts[0])
        slope = parse_slope(parts[1])
        bundle = "trivial"
        if len(parts) == 3:
            if parts[2] != "mu":
                raise ValueError(f"bad bundle {parts[2]!r} in {text!r}")
            bundle = "mu"
        return Surgery(knot, slope, bundle)
    if text.startswith("lens(") and text.endswith(")"):
        p, q = (int(x) for x in text[5:-1].split(","))
        return Lens(p, q)
    if text.startswith("dcover(") and text.endswith(")"):
        return BranchedCover(parse_knot(text[7:-1]))
    if text.startswith("census(") and text.endswith(")"):
        return Census(int(text[7:-1]))
    if text.startswith("opaque(") and text.endswith(")"):
        name, _, h1 = text[7:-1].partition(";")
        return Opaque(name.strip(), None if h1.strip() == "inf" else int(h1))
    raise ValueError(f"cannot parse manifold description {text!r}")


# ---------------------------------------------------------------------------
# Dimension results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimResult:
    """Exact dimension, finite candidate set, or interval with parity.

    euler is |H1| for rational homology spheres and 0 otherwise; the
    grading splits as ((d + euler)/2, (d - euler)/2) when d is exact.
    """

    kind: str  # "exact" | "candidates" | "interval"
    dim: Optional[int] = None
    candidates: Optional[tuple[int, ...]] = None
    lo: Optional[int] = None
    hi: Optional[int] = None
    parity: Optional[int] = None
    euler: int = 0

    @staticmethod
    def exact(d: int, euler: int) -> "DimResult":
        if d < abs(euler) or (d - euler) % 2 != 0:
            raise Inconsistency(f"dimension {d} incompatible with euler {euler}")
        return DimResult(kind="exact", dim=d, euler=abs(euler))

    @staticmethod
    def of_candidates(values, euler: int) -> "DimResult":
        values = tuple(sorted(set(int(v) for v in values)))
        if not values:
            raise Inconsistency("empty candidate set")
        if len(values) == 1:
            return DimResult.exact(values[0], euler)
        return DimResult(kind="candidates", candidates=values, euler=abs(euler))

    @staticmethod
    def of_interval(lo, hi, parity, euler: int) -> "DimResult":
        # the Euler characteristic forces d >= |euler| and d = euler (mod 2)
        euler = abs(euler)
        if parity is None:
            parity = euler % 2
        elif parity != euler % 2:
            raise Inconsistency(f"parity {parity} clashes with euler {euler}")
        lo = euler if lo is None else max(int(lo), euler)
        val = Val.between(lo, hi, parity)
        cands = val.candidates()
        if cands is not None:
            return DimResult.of_candidates([int(c) for c in cands], euler)
        return DimResult(kind="interval",
                         lo=None if val.lo is None else int(val.lo),
                         hi=None if val.hi is None else int(val.hi),
                         parity=parity, euler=euler)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def values(self) -> Optional[tuple[int, ...]]:
        if self.kind == "exact":
            return (self.dim,)
        if self.kind == "candidates":
            return self.candidates
        return None

    @property
    def graded(self) -> Optional[tuple[int, int]]:
        if not self.is_exact:
            return None
        return ((self.dim + self.euler) // 2, (self.dim - self.euler) // 2)

    def meet(self, other: "DimResult") -> "DimResult":
        if self.euler != other.euler:
            raise Inconsistency(f"euler mismatch: {self.euler} vs {other.euler}")
        a, b = self.values(), other.values()
        if a is not None and b is not None:
            common = set(a) & set(b)
            if not common:
                raise Inconsistency(f"disjoint dimension sets {a} and {b}")
            return DimResult.of_candidates(common, self.euler)
        if a is None and b is not None:
            return other.meet(self)
        if a is not None:  # b is an interval
            keep = [v for v in a if other._contains(v)]
            if not keep:
                raise Inconsistency(f"no candidate in {a} lies in {other}")
            return DimResult.of_candidates(keep, self.euler)
        lo = max(x for x in (self.lo, other.lo, 0) if x is not None)
        hi = min((x for x in (self.hi, other.hi) if x is not None), default=None)
        parity = self.parity if self.parity is not None else other.parity
        return DimResult.of_interval(lo, hi, parity, self.euler)

    def _contains(self, v: int) -> bool:
        if self.kind == "interval":
            if self.lo is not None and v < self.lo:
                return False
            if self.hi is not None and v > self.hi:
                return False
            return self.parity is None or v % 2 == self.parity
        return v in self.values()

    def to_json(self):
        out = {"kind": self.kind, "euler": self.euler}
        if self.kind == "exact":
            out["dim"] = self.dim
            out["graded"] = list(self.graded)
        elif self.kind == "candidates":
            out["candidates"] = list(self.candidates)
        else:
            out.update({"lo": self.lo, "hi": self.hi, "parity": self.parity})
        return out

    def __str__(self):
        if self.kind == "exact":
            return str(self.dim)
        if self.kind == "candidates":
            return "{" + ",".join(map(str, self.candidates)) + "}"
        lo = "0" if self.lo is None else str(self.lo)
        hi = "inf" if self.hi is None else str(self.hi)
        par = "" if self.parity is None else (" even" if self.parity == 0 else " odd")
        return f"[{lo},{hi}]{par}"


# ---------------------------------------------------------------------------
# The surgery formula
# ---------------------------------------------------------------------------

def _require_bounded(val: Val, what: str, knot: str) -> Val:
    if val.lo is None or val.hi is None:
        raise DimensionError(f"{what} of {knot} is not determined: {val}")
    return val


def _int_candidates(val: Val, limit: int = 40) -> Optional[list[int]]:
    """All integers a bounded integer-valued Val can take."""
    if val.lo is None or val.hi is None:
        return None
    lo = -((-val.lo.numerator) // val.lo.denominator)
    hi = val.hi.numerator // val.hi.denominator
    step = 1
    if val.parity is not None:
        if lo % 2 != val.parity:
            lo += 1
        step = 2
    out = list(range(lo, hi + 1, step))
    return out if 0 < len(out) <= limit else None


def surgery_dim(k: KnotExpr, s: Slope, bundle: str = "trivial",
                dataset=None) -> DimResult:
    """Dimension of the p/q surgery: q * r0 + |p - q * nu| away from the
    zero-surgery exceptions; slope 0 dispatches to zero_surgery_dim and
    the infinite slope gives the 3-sphere."""
    ds = dataset if dataset is not None else datasets.default()
    if s.is_infinite:
        return DimResult.exact(1, 1)
    if s.p == 0:
        return zero_surgery_dim(k, bundle, ds)
    b = deduce(k, ds)
    return _formula_dim(b, s)


def _formula_dim(b: Bundle, s: Slope) -> DimResult:
    p, q = s.p, s.q
    nu = _require_bounded(b.nu, "nu", b.knot)
    r0 = _require_bounded(b.r0, "r0", b.knot)
    euler = abs(p)

    nu_c = _int_candidates(nu)
    r0_c = _int_candidates(r0)
    if nu_c is not None and r0_c is not None and len(nu_c) * len(r0_c) <= 400:
        dims = set()
        for n in nu_c:
            for r in r0_c:
                if (r - n) % 2 != 0 or r < abs(n):
                    continue  # r0 and nu always share parity, r0 >= |nu|
                dims.add(q * r + abs(p - q * n))
        if dims:
            return DimResult.of_candidates(dims, euler)

    # interval propagation: |p - q nu| is piecewise linear in nu, so its
    # extremes over an interval sit at the endpoints or at the interior
    # critical point p/q
    lo_abs, hi_abs = _abs_range(p, q, nu)
    lo = q * int(r0.lo) + lo_abs
    hi = None if r0.hi is None else q * int(r0.hi) + hi_abs
    parity = abs(p) % 2 if (r0.parity is not None and nu.parity is not None
                            and r0.parity == nu.parity) else None
    return DimResult.of_interval(lo, hi, parity, euler)


def _abs_range(p: int, q: int, nu: Val) -> tuple[int, int]:
    ends = [abs(p - q * int(x)) for x in (nu.lo, nu.hi)]
    lo, hi = min(ends), max(ends)
    if nu.lo <= Fraction(p, q) <= nu.hi:
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


def zero_surgery_dim(k: KnotExpr, bundle: str = "trivial", dataset=None) -> DimResult:
    """Zero-surgery dimensions: V-shaped knots give r0 + |nu| for either
    bundle; W-shaped knots give r0 (mu bundle) and r0 + 2 (trivial); with
    nu = 0 and unknown shape the trivial bundle gives the candidate pair
    {r0, r0 + 2} and the mu bundle is undetermined unless tabulated."""
    ds = dataset if dataset is not None else datasets.default()
    b = deduce(k, ds)
    euler = 0
    if b.nu.is_exact and b.nu.value() != 0:
        nu = abs(b.nu.int_value())
        r0 = _require_bounded(b.r0, "r0", b.knot)
        cands = _int_candidates(r0)
        if cands is not None:
            return DimResult.of_candidates([r + nu for r in cands], euler)
        return DimResult.of_interval(int(r0.lo) + nu, int(r0.hi) + nu, None, euler)
    if not b.nu.is_exact:
        raise DimensionError(f"nu of {b.knot} is not determined: {b.nu}")
    r0 = _require_bounded(b.r0, "r0", b.knot)
    if not r0.is_exact:
        raise DimensionError(f"r0 of {b.knot} is not pinned at slope 0: {r0}")
    r = r0.int_value()
    if b.shape == "W":
        return DimResult.exact(r if bundle == "mu" else r + 2, euler)
    if b.shape == "V":
        # nu = 0 and V-shaped: the trivial bundle gives r0; the mu-bundle
        # dimension is not determined by the closed form
        if bundle == "trivial":
            return DimResult.exact(r, euler)
        if b.mu0_dim is not None:
            return DimResult.exact(b.mu0_dim, euler)
        return DimResult.of_interval(0, None, 0, euler)
    # shape unknown
    if bundle == "trivial":
        return DimResult.of_candidates([r, r + 2], euler)
    if b.mu0_dim is not None:
        return DimResult.exact(b.mu0_dim, euler)
    return DimResult.of_interval(0, None, 0, euler)


def lens_dim(p: int, q: int) -> DimResult:
    """Lens spaces are instanton L-spaces: dimension p, all even-graded."""
    Lens(p, q)  # validates
    return DimResult.exact(p, p)


def branched_cover_dim(k: KnotExpr, dataset=None) -> DimResult:
    """Dimension for the double cover of the 3-sphere branched over k.

    Thin reduced odd Khovanov homology forces the dimension to equal the
    determinant; otherwise a registered surgery description is used; with
    neither, only the Euler-characteristic bound remains."""
    ds = dataset if dataset is not None else datasets.default()
    st = structural(k, ds)
    det = st.determinant
    thin = st.flag("thin_odd_khovanov")
    khbar = _khbar_dim(k, ds)
    if det is not None and (thin or (khbar is not None and khbar == det)):
        return DimResult.exact(det, det)
    route = _sigma2_route(k, ds)
    if route is not None:
        result = manifold_dim(route, ds)
        if det is not None and result.euler != det:
            raise IntegrityError(
                f"registered cover description {route} has euler {result.euler}, "
                f"but det({format_knot(k)}) = {det}")
        return result
    if det is None:
        raise DimensionError(f"no route to the branched double cover of {format_knot(k)}")
    return DimResult.of_interval(det, None, det % 2, det)


def _record_for(k: KnotExpr, ds):
    from .knots import resolve_atom
    try:
        hit = resolve_atom(k, ds)
    except KnotError:
        return None, False
    if hit is None:
        return None, False
    return ds.knot_record(hit[0]), hit[1]


def _sigma2_route(k: KnotExpr, ds):
    rec, mirrored = _record_for(k, ds)
    if rec is None or rec.sigma2 is None:
        return None
    route = parse_manifold(rec.sigma2)
    if mirrored and isinstance(route, Surgery):
        route = Surgery(mirror(route.knot), -route.slope, route.bundle)
    return route


def _khbar_dim(k: KnotExpr, ds):
    rec, _ = _record_for(k, ds)
    return rec.khbar_dim if rec is not None else None


def census_dim(index: int, dataset=None) -> DimResult:
    """Dimension of a census manifold via its registered routes, cross
    checked against the stored value."""
    ds = dataset if dataset is not None else datasets.default()
    Census(index)  # validates the range
    stored = ds.lookup("T2", index)
    expected = _stored_dim_result(stored.payload["dim"], stored.payload["h1"])
    result = expected
    for route, computed in census_routes(index, ds):
        try:
            result = result.meet(computed)
        except Inconsistency as e:
            raise IntegrityError(f"census {index}: route {route} disagrees: {e}") from None
    return result


def census_routes(index: int, ds) -> list[tuple[str, DimResult]]:
    """Every registered computation route for one census manifold."""
    out = []
    t6 = ds.table("T6").get(str(index))
    if t6 is not None:
        desc = Surgery(parse_knot(t6.payload["knot"]), parse_slope(t6.payload["slope"]))
        out.append((str(desc), surgery_dim(desc.knot, desc.slope, dataset=ds)))
    t7 = ds.table("T7").get(str(index))
    if t7 is not None:
        desc = BranchedCover(parse_knot(t7.payload["knot"]))
        out.append((str(desc), branched_cover_dim(desc.knot, ds)))
    t8 = ds.table("T8").get(str(index))
    if t8 is not None:
        parts = [manifold_dim(parse_manifold(c["desc"]), ds)
                 for c in t8.payload["components"]]
        computed = triad_bounds(parts[0], parts[1], t8.payload["h1"])
        label = " / ".join(c["desc"] for c in t8.payload["components"])
        out.append((f"triad({label})", computed))
    return out


def _stored_dim_result(dim, h1: int) -> DimResult:
    if isinstance(dim, list):
        return DimResult.of_candidates(dim, h1)
    return DimResult.exact(dim, h1)


def manifold_dim(m: ManifoldDesc, dataset=None) -> DimResult:
    ds = dataset if dataset is not None else datasets.default()
    if isinstance(m, Surgery):
        return surgery_dim(m.knot, m.slope, m.bundle, ds)
    if isinstance(m, Lens):
        return lens_dim(m.p, m.q)
    if isinstance(m, BranchedCover):
        return branched_cover_dim(m.knot, ds)
    if isinstance(m, Census):
        return census_dim(m.index, ds)
    if isinstance(m, Opaque):
        if m.h1 is None:
            raise DimensionError(f"no dimension information for {m}")
        return DimResult.of_interval(m.h1, None, m.h1 % 2, m.h1)
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
        return DimResult.of_interval(lo, hi, h1C % 2, h1C)
    except Inconsistency:
        raise Inconsistency(
            f"no dimension in [{lo},{hi}] matches |H1| = {h1C} and its parity") from None


# ---------------------------------------------------------------------------
# Homeomorphism identities between surgery descriptions
# ---------------------------------------------------------------------------

def _tb_codes_for(k: KnotExpr, ds) -> list[tuple[int, int]]:
    """Two-bridge codes (a, b) known to present exactly this knot."""
    from .knots import Named, TwoBridge, Twist, resolve_atom

    codes = []
    if isinstance(k, TwoBridge):
        codes.append((k.a, k.b))
    tw = k if isinstance(k, Twist) else None
    try:
        hit = resolve_atom(k, ds)
    except KnotError:
        hit = None
    if hit is not None:
        name, mirrored = hit
        for a, b, m in ds.tb_codes(name):
            if m == mirrored:
                codes.append((a, b))
        rec = ds.knot_record(name)
        if tw is None and rec is not None:
            for alias in rec.aliases:
                if alias.startswith("Tw("):
                    tw = Twist(int(alias[3:-1]), mirrored)
    if tw is not None:
        # the twist-knot family codes: K(2, 2n) has 2n-1 half-twists and
        # K(-2, 2n) has 2n
        a, b = (2, tw.n + 1) if tw.n % 2 == 1 else (-2, tw.n)
        codes.append((a, b) if not tw.mirrored else (-a, -b))
    seen, out = set(), []
    for c in codes:
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


def _tb_expr(a: int, b: int, ds) -> KnotExpr:
    from .knots import TwoBridge, resolve_atom, Named

    tb = TwoBridge(a, b)
    try:
        hit = resolve_atom(tb, ds)
    except KnotError:
        hit = None
    if hit is not None:
        name, mirrored = hit
        return Named(name, mirrored) if name != "0_1" else Unknot()
    return tb


def homeo_identities(k: KnotExpr, s: Slope, dataset=None) -> list[tuple[KnotExpr, Slope]]:
    """All registered re-descriptions of the surgery (k, s): the three
    two-bridge twist-region identities, the pretzel shift
    (-2 on P(n,3,-3) vs +2 on P(n+3,3,-3)), and the two cable identities
    relating slopes (pq +- 1)/q^2 on a companion to pq +- 1 on its cable.
    """
    from .knots import Cable, Pretzel, _pretzel_n33
    import math

    ds = dataset if dataset is not None else datasets.default()
    out: list[tuple[KnotExpr, Slope]] = []

    # two-bridge identities
    for a, b in _tb_codes_for(k, ds):
        if b == 0 or b % 2 != 0:
            continue
        n = b // 2
        if a % 2 != 0:
            m2 = a  # odd twist region, 2m+1 crossings
            if not s.is_infinite and s.is_integer and s.p == 4 * n - 1:
                out.append((_tb_expr(2, m2, ds), reduce(4 * n - 1, n)))
            if not s.is_infinite and s.is_integer and s.p == 4 * n + 1:
                out.append((_tb_expr(-2, m2, ds), reduce(-(4 * n + 1), n)))
        else:
            m2 = a  # even twist region, 2m crossings
            if s == Slope(1, 1):
                out.append((_tb_expr(-2, m2, ds), reduce(-1, n)))
            if s == Slope(-1, 1):
                out.append((_tb_expr(2, m2, ds), reduce(-1, n)))

    # pretzel shift
    if isinstance(k, Pretzel):
        n = _pretzel_n33(k)
        if n is not None:
            if k.mirrored:
                n = -n
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
                        out.append((Cable(p, q, k), Slope(s.p, 1)))

    return out


@dataclass(frozen=True)
class IdentityReport:
    lhs: str
    rhs: str
    lhs_dim: DimResult
    rhs_dim: DimResult
    status: str  # "equal" | "compatible" | "contradiction"

    def to_json(self):
        return {"lhs": self.lhs, "rhs": self.rhs,
                "lhs_dim": self.lhs_dim.to_json(), "rhs_dim": self.rhs_dim.to_json(),
                "status": self.status}


def verify_identity(lhs: tuple[KnotExpr, Slope], rhs: tuple[KnotExpr, Slope],
                    dataset=None) -> IdentityReport:
    """Compare the dimensions and |H1| of two surgery descriptions."""
    ds = dataset if dataset is not None else datasets.default()
    ld = surgery_dim(lhs[0], lhs[1], dataset=ds)
    rd = surgery_dim(rhs[0], rhs[1], dataset=ds)
    if ld.euler != rd.euler:
        status = "contradiction"
    elif ld.is_exact and rd.is_exact:
        status = "equal" if ld.dim == rd.dim else "contradiction"
    else:
        try:
            ld.meet(rd)
            status = "compatible"
        except Inconsistency:
            status = "contradiction"
    name = lambda pair: f"surg({format_knot(pair[0])}; {pair[1]})"
    return IdentityReport(name(lhs), name(rhs), ld, rd, status)
