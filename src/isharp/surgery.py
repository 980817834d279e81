"""Homeomorphism identities: the registry of surgery re-descriptions.

integer_identities lists those of every integer surgery on a knot, each
slope written there once; homeo_identities lists those of one surgery.
They are facts about the knots alone, so this module imports knots and
values only; verify.verify_identity compares the two sides.  For the
benchmark, branched_cover_dim, census_dim and surgery_dim resolve to
dimension's on first access (PEP 562).
"""

import math
from importlib import import_module

from .knots import (Cable, KnotExpr, Pretzel, TwoBridge, _pretzel_n33, canonical,
                    equivalent_atoms, make_cable)
from .values import Slope, reduce


def __getattr__(name):
    if name in ("branched_cover_dim", "census_dim", "surgery_dim"):
        return getattr(import_module(".dimension", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
