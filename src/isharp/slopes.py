"""Exact surgery-slope arithmetic: negative continued fractions and the
surgery-triad construction.

Slopes are reduced pairs p/q with q >= 1, plus the single infinite slope
1/0, which p/0 reduces to for every p != 0.  That core (Slope, SlopeError,
INFINITY, reduce, and parse_slope over values.Scanner) is defined in values,
which every call compiles; only `cf` and `triad` compile this module.
Continued fractions here are the *negative* expansions

    [a0, a1, ..., an] = a0 - 1/(a1 - 1/(... - 1/an))

with a_i >= 2 for i >= 1 (a0 arbitrary); every rational has exactly one
such expansion.  All arithmetic is exact integer arithmetic.

Consecutive convergents satisfy q_i p_{i-1} - p_i q_{i-1} = 1, and their
denominators strictly increase because the tail coefficients are >= 2.
So the penultimate convergent c/d of p/q (q >= 2) is the unique solution
of q c - p d = 1 with 0 < d < q: d = (-p)^-1 mod q.  `triad` uses this to
build the surgery triad from one modular inverse instead of the whole
expansion, and checks that identity once: it proves all three slopes of
the triad reduced.  Slope and Triad are values.Values, records stored as
tuples, so triad builds each of the three slopes and the Triad with one
tuple.__new__ call, skipping the checks of Slope.__new__ that the
identity proves.
"""

from .values import Slope, SlopeError, Value, reduce


# Longest negative continued fraction neg_cf writes out.  The expansion
# of p/q can be as long as the partial quotients of its ordinary one add
# up to (1/10^20 has 10^20 terms), so without a bound one call could run
# for ever and exhaust memory.  Slopes with 40-digit numerators and
# denominators typically need a hundred terms or fewer.
MAX_CF_TERMS = 100_000


def neg_cf(s: Slope) -> list[int]:
    """The unique negative continued fraction of a finite slope.

    a0 = ceil(p/q); then recurse on the reciprocal of a0 - p/q until the
    remainder vanishes.  The tail coefficients all come out >= 2.  With
    p = k q + r (0 < r < q) the coefficient is k + 1 and the reciprocal of
    (k + 1) - p/q is q/(q - r), so each step is one divmod.  Raises
    SlopeError when the expansion is longer than MAX_CF_TERMS.
    """
    p, q = s[0], s[1]
    if not q:
        raise SlopeError("no continued fraction for the infinite slope")
    coeffs = []
    for _ in range(MAX_CF_TERMS):
        a, r = divmod(p, q)
        if not r:
            coeffs.append(a)
            return coeffs
        coeffs.append(a + 1)
        p, q = q, q - r
    raise SlopeError(f"the negative continued fraction of {s} has more than "
                     f"{MAX_CF_TERMS} terms")


def eval_cf(coeffs: list[int]) -> Slope:
    """Exact value of [a0, a1, ..., an]: the last convergent p_n/q_n.

    (p_-1, q_-1) = (1, 0), (p_0, q_0) = (a0, 1), and
    (p_i, q_i) = (a_i p_{i-1} - p_{i-2}, a_i q_{i-1} - q_{i-2}); raises
    SlopeError on an empty list or a tail coefficient below 2.
    """
    if not coeffs:
        raise SlopeError("empty continued fraction")
    p1, q1, p, q = 1, 0, coeffs[0], 1
    for a in coeffs[1:]:
        if a < 2:
            raise SlopeError(f"tail coefficient {a} < 2 in {coeffs}")
        p1, q1, p, q = p, q, a * p - p1, a * q - q1
    return reduce(p, q)


def format_cf(coeffs: list[int]) -> str:
    return "[" + ",".join(str(a) for a in coeffs) + "]"


class Triad(Value):
    """The surgery triad of a non-integral finite slope p/q.

    ab and cd are the slopes sitting in exact triangles with p/q, and ef is
    the third slope of the companion triangle; sum_case ("ab=cd+ef" or
    "cd=ab+ef") records which of (a,b) = (c+e, d+f) or (c,d) = (a+e, b+f)
    holds.
    """

    _fields = ("ab", "cd", "ef", "sum_case")
    __slots__ = ()

    def __new__(cls, ab: Slope, cd: Slope, ef: Slope, sum_case: str):
        return super().__new__(cls, (ab, cd, ef, sum_case))


def triad(s: Slope) -> Triad:
    """Construct the surgery triad of a finite slope with q >= 2.

    With [a0,...,an] the negative continued fraction of p/q and (p_i, q_i)
    its convergents:  a/b = (p_n - p_{n-1})/(q_n - q_{n-1}),
    c/d = p_{n-1}/q_{n-1}, and e/f is their difference, normalized so that
    f >= 0 (with f = 0 only for e/f = 1/0).

    The penultimate convergent is found without the expansion: it is the
    unique solution of q c - p d = 1 with 0 < d < q.  The determinant
    identity gives q c - p d = 1, and the convergent denominators strictly
    increase (every tail coefficient is >= 2), so 0 < q_{n-1} < q_n = q;
    d is the one residue of (-p)^-1 mod q in that range.

    c comes from divmod(1 + p d, q), and a non-zero remainder raises
    SlopeError: that one check is q c - p d = 1 itself, and it proves
    every slope of the triad reduced.  With a = p - c and b = q - d,
    b c - a d = q c - p d = 1; and d e - c f = -1 when b > d, +1 when
    b < d, while e/f = 1/0 when b = d.  So a common divisor of (a, b),
    (c, d) or (e, f) divides 1.  The signs hold by construction:
    0 < d < q gives b, d >= 1, and f = |b - d| >= 0, with f = 0 only at
    1/0.  So each of the three slopes and the Triad is built by one
    tuple.__new__ call, without the gcd Slope(p, q) would run on each
    slope; Triad's own constructor checks nothing.
    """
    p, q = s[0], s[1]
    if q <= 1:
        raise SlopeError(f"no triad for integer or infinite slope {s}")
    d = pow(-p, -1, q)
    c, r = divmod(1 + p * d, q)
    if r:
        raise SlopeError(f"determinant check q c - p d = 1 fails for {s} at d = {d}")
    a, b = p - c, q - d
    if b == d:
        e, f = 1, 0
        case = "cd=ab+ef" if a + e == c and b + f == d else "ab=cd+ef"
    elif b > d:
        e, f = a - c, b - d
        case = "ab=cd+ef"
    else:
        e, f = c - a, d - b
        case = "cd=ab+ef"
    new = tuple.__new__
    return new(Triad, (new(Slope, (a, b)), new(Slope, (c, d)), new(Slope, (e, f)), case))
