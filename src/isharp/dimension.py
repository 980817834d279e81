"""Dimensions of surgeries, lens spaces and branched double covers.

The closed form for a p/q surgery is  q * r0 + |p - q * nu|  (with the
zero-surgery exceptions for W-shaped knots); lens spaces and branched
double covers of thin knots, or of knots whose T5 row registers a surgery
description, are answered here too.  Each answer is a DimResult, read
through its state and euler (|H1|), values(), is_exact, dim or to_json().

A `dim` call on a surgery, a lens space or a cover compiles this module.
parse_manifold reads with the knot grammar, its slope in place by the
scanner's slope production; census(i) is answered one layer up, in surgery.
"""

import math

from .invariants import Bundle, deduce
from .knots import (Cable, KnotExpr, Named, Sum, _Parser, canonical, format_knot, mirror,
                    registered_record, structural)
from .values import Inconsistency, IntegrityError, Record, Slope, Val, _new


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

class DimResult(Record):
    """Exact dimension, finite candidate set, or interval with parity.

    state is the sorted tuple of admissible dimensions (one value when
    exact) or, for more than 64 of them or no upper end, a Val interval.
    euler is |H1| for rational homology spheres and 0 otherwise; every
    admissible d satisfies d >= euler and d = euler (mod 2).  A result is
    read through state, values() (None for an interval), is_exact, dim
    and to_json(), which adds the kind and the grading split
    ((d + euler)/2, (d - euler)/2) of an exact d.
    """

    __slots__ = ("state", "euler")

    def __init__(self, state: tuple[int, ...] | Val, euler: int = 0):
        _set_state(self, state)
        _set_euler(self, euler)

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


_set_state, _set_euler = DimResult.state.__set__, DimResult.euler.__set__


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
    if not s.q:
        return DimResult.exact(1, 1)
    if s.p == 0:
        return zero_surgery_dim(k, bundle, ds)
    return _formula_dim(deduce(k, ds), s, k)


def _formula_dim(b: Bundle, s: Slope, knot=None) -> DimResult:
    """The closed form at a finite slope s with p != 0; errors name knot,
    or else the knot b names.

    One pinned (nu, r0) pair gives one number, several give the set of
    their values, and without pairs the form runs on the intervals.  The
    euler characteristic is |p|.

    A value from pairs is built without the checks of exact() and
    of_candidates(): Bundle admits a pair only with r0 = nu (mod 2) and
    r0 >= |nu|, so with q >= 1 every d = q r0 + |p - q nu| satisfies
    d >= q |nu| + |p - q nu| >= |p| and d = q (r0 - nu) + p = p (mod 2),
    which are the two conditions those checks test."""
    p, q = s.p, s.q
    pairs = b.pairs
    if pairs:  # nu and r0 are bounded
        if len(pairs) == 1:
            (n, r), = pairs
            state = (q * r + abs(p - q * n),)
        else:  # enumeration over the admissible (nu, r0) lattice
            state = tuple(sorted({q * r + abs(p - q * n) for n, r in pairs}))
        result = _new(DimResult)
        _set_state(result, state)
        _set_euler(result, abs(p))
        return result

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

    Thin reduced odd Khovanov homology, or a T5 rank equal to det, forces
    the dimension to equal the determinant; otherwise the surgery
    description sigma2 of the knot's T5 row is used; with neither, only
    the Euler-characteristic bound remains."""
    st = structural(k, ds)
    det = st.determinant
    thin = st.flag("thin_odd_khovanov")
    rec, mirrored = registered_record(canonical(k, ds), ds)
    row = ds.table("T5").get(rec.name) if rec is not None else None
    cover = row.payload if row is not None else {}
    if det is not None and (thin or cover.get("khbar_dim") == det):
        return DimResult.exact(det, det)
    if cover.get("sigma2") is not None:
        # the registered surgery description, mirrored with the knot
        where = f"T5 row {rec.name}: sigma2"
        route = _parse_cell(where, parse_manifold, cover["sigma2"], ds)
        if isinstance(route, Census):
            raise IntegrityError(f"{where} {route} is not a surgery, lens or cover description")
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


def manifold_dim(m: ManifoldDesc, ds) -> DimResult:
    """Dimension of a surgery, a lens space or a branched double cover;
    surgery.manifold_dim answers census(i) too, from its routes."""
    if isinstance(m, Surgery):
        return surgery_dim(m.knot, m.slope, m.bundle, ds)
    if isinstance(m, Lens):
        return lens_dim(m.p, m.q)
    if isinstance(m, BranchedCover):
        return branched_cover_dim(m.knot, ds)
    raise TypeError(f"not a surgery, lens or cover description: {m!r}")
