"""Census manifolds, surgery triads and homeomorphism identities: the
dimension routes that read the census tables or compare two surgeries.

census_dim meets a census manifold's stored dimension with every
registered route (a T6 surgery, a T7 branched cover, a T8 exact triad),
and manifold_dim extends dimension.manifold_dim to census(i).  The
identities re-describe one surgery as another, and verify_identity
compares their dimensions.  The closed form, lens spaces and branched
covers live one layer down, in dimension, which a `dim` call on a
surgery compiles without this module; their names are re-exported here.
"""

import math

from . import dimension
# re-exported: the closed-form names are defined in dimension
from .dimension import (BranchedCover, Census, DimensionError, DimResult, Lens,
                        ManifoldDesc, Surgery, _parse_cell, branched_cover_dim, lens_dim,
                        parse_manifold, surgery_dim, zero_surgery_dim)
from .knots import (Cable, KnotExpr, Pretzel, Twist, TwoBridge, _pretzel_n33,
                    _two_bridge_from_twist, canonical, equivalent_atoms, format_knot,
                    make_cable, parse_knot)
from .values import Inconsistency, IntegrityError, Record, Slope, parse_slope, reduce


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


def manifold_dim(m: ManifoldDesc, ds) -> DimResult:
    """dimension.manifold_dim, and census(i) through census_dim."""
    if isinstance(m, Census):
        return census_dim(m.index, ds)
    return dimension.manifold_dim(m, ds)


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
