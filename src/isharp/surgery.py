"""Census manifolds, surgery triads and homeomorphism identities: the
dimension routes that read the census tables or compare two surgeries.

census_dim meets a census manifold's stored dimension with every
registered route (a T6 surgery, a T7 branched cover, a T8 exact triad),
and manifold_dim extends dimension.manifold_dim to census(i).  The
identities re-describe one surgery as another: integer_identities lists
those of every integer surgery on a knot, each slope written there once,
homeo_identities those of one surgery, and verify_identity compares
their dimensions, naming each side as its Surgery prints.  The
closed form, lens spaces and branched covers live one layer down, in
dimension, which a `dim` call on a surgery compiles without this module.
"""

import math

from . import dimension
from .dimension import (BranchedCover, Census, DimensionError, DimResult, Surgery,
                        _parse_cell, branched_cover_dim, parse_manifold, surgery_dim)
from .knots import (Cable, KnotExpr, Pretzel, Twist, TwoBridge, _pretzel_n33,
                    _two_bridge_from_twist, canonical, equivalent_atoms, make_cable,
                    parse_knot)
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


def manifold_dim(m: dimension.ManifoldDesc, ds) -> DimResult:
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


def integer_identities(k: KnotExpr, ds) -> list[tuple[int, KnotExpr, Slope]]:
    """(n, partner, slope) for every registered re-description of
    n-surgery on k, the one place each identity states its slope: the
    two-bridge twist-region identities, then the pretzel shift (-2 on
    P(n,3,-3) vs +2 on P(n+3,3,-3)), then pq +- 1 on a cable vs
    (pq +- 1)/q^2 on its companion."""
    out: list[tuple[int, KnotExpr, Slope]] = []
    atoms = equivalent_atoms(k, ds)

    for a, b in _tb_codes_for(atoms):
        if b == 0 or b % 2 != 0:
            continue
        n = b // 2
        if a % 2 != 0:  # odd twist region, 2m+1 crossings
            out += [(4 * n - 1, canonical(TwoBridge(2, a), ds), reduce(4 * n - 1, n)),
                    (4 * n + 1, canonical(TwoBridge(-2, a), ds), reduce(-(4 * n + 1), n))]
        else:  # even twist region, 2m crossings
            out += [(1, canonical(TwoBridge(-2, a), ds), reduce(-1, n)),
                    (-1, canonical(TwoBridge(2, a), ds), reduce(-1, n))]

    # once per P(n,3,-3) presentation
    shifts = []
    for x in atoms:
        n = _pretzel_n33(x) if isinstance(x, Pretzel) else None
        if n is not None:
            shifts.append(-n if x.mirrored else n)
    for n in dict.fromkeys(shifts):
        out += [(-2, Pretzel(n + 3, 3, -3), Slope(2, 1)),
                (2, Pretzel(n - 3, 3, -3), Slope(-2, 1))]

    if isinstance(k, Cable):
        out += [(k.p * k.q + eps, k.companion, reduce(k.p * k.q + eps, k.q * k.q))
                for eps in (-1, 1)]
    return out


def homeo_identities(k: KnotExpr, s: Slope, ds) -> list[tuple[KnotExpr, Slope]]:
    """All registered re-descriptions of the surgery (k, s): those of
    integer_identities at s, then, for s = (pq +- 1)/q^2, pq +- 1 on the
    (p, q) cable of k."""
    out = [(partner, slope) for n, partner, slope in integer_identities(k, ds)
           if s.is_integer and s.p == n]
    if s.q >= 4:
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
    return IdentityReport(str(Surgery(*lhs)), str(Surgery(*rhs)), ld, rd, status)
