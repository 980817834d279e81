"""Homeomorphism identities: the registry of surgery re-descriptions.

integer_identities lists those of every integer surgery on a knot, each
slope written there once; homeo_identities lists those of one surgery;
verify_identity compares the dimensions of the two sides, naming each
side as its Surgery prints.  Every dimension route, census manifolds
included, lives one layer down, in dimension.
"""

import math

# this module uses neither branched_cover_dim nor census_dim: they stay
# importable from it only because bench/layers.py imports them from here
from .dimension import DimResult, Surgery, branched_cover_dim, census_dim, surgery_dim
from .knots import (Cable, KnotExpr, Pretzel, TwoBridge, _pretzel_n33, canonical,
                    equivalent_atoms, make_cable)
from .values import Inconsistency, Record, Slope, reduce


def integer_identities(k: KnotExpr, ds) -> list[tuple[int, KnotExpr, Slope]]:
    """(n, partner, slope) for every registered re-description of
    n-surgery on k, the one place each identity states its slope: the
    two-bridge twist-region identities, then the pretzel shift (-2 on
    P(n,3,-3) vs +2 on P(n+3,3,-3)), then pq +- 1 on a cable vs
    (pq +- 1)/q^2 on its companion."""
    out: list[tuple[int, KnotExpr, Slope]] = []
    atoms = equivalent_atoms(k, ds)

    for x in atoms:
        if not isinstance(x, TwoBridge) or x.b == 0 or x.b % 2 != 0:
            continue
        a, n = x.a, x.b // 2
        if a % 2 != 0:  # odd twist region, 2m+1 crossings
            out += [(4 * n - 1, canonical(TwoBridge(2, a), ds), reduce(4 * n - 1, n)),
                    (4 * n + 1, canonical(TwoBridge(-2, a), ds), reduce(-(4 * n + 1), n))]
        else:  # even twist region, 2m crossings
            out += [(1, canonical(TwoBridge(-2, a), ds), reduce(-1, n)),
                    (-1, canonical(TwoBridge(2, a), ds), reduce(-1, n))]

    # once per P(n,3,-3) presentation
    shifts = [_pretzel_n33(x) for x in atoms if isinstance(x, Pretzel)]
    for n in dict.fromkeys(n for n in shifts if n is not None):
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
