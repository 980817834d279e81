"""Rule-based deduction of the concordance invariants nu, tau, r0, the
shape of the integer-surgery dimension profile, and delta = r0 - nu.

Every narrowing step is recorded in a trace as (rule id, detail), and
RULES holds each rule's statement.  Rule priority is fixed: stored table
data (R1) outranks family formulas, which outrank bound-tightening (R14);
contradictions between rules raise Inconsistency naming both trace
entries, never resolve silently.  The twelve rules are R1-R6 and
R9-R14: R9 covers the positive torus knots and R14 the case |tau| = g_s,
so ids R7 and R8 stay unused.  R14 is one pass that reaches its fixed
point, in the order _tighten gives; it runs nu from tau before and after
tau from nu, since tau from nu can move tau's ends onto tau's parity,
and r0 >= |nu| again after |nu| <= r0.

Every entry point takes the Dataset it reads as ds, and each dataset
caches the bundles of deduce once per canonical form of the knot, the
form a bundle names, and the answers of lspace_cable once per canonical
form of the cable, each under its text (knots.memo).  On
ds.untabulated() R1 finds no stored value, and deduction re-derives.
"""


from .knots import (
    Cable,
    KnotExpr,
    Pretzel,
    Sum,
    Unknot,
    _pretzel_n33,
    _pretzel_odd32,
    canonical,
    equivalent_atoms,
    format_knot,
    make_cable,
    memo,
    mirror,
    registered_record,
    structural,
    twist_form,
)
from .values import Inconsistency, IntegrityError, Record, Val

# rule id -> statement it applies
RULES = {
    "R1": "tabulated invariant values",
    "R2": "mirror rule: nu and tau negate, r0 is fixed",
    "R3": "smoothly slice knots have nu = tau = 0 and are W-shaped",
    "R4": "amphichiral knots have nu = tau = 0",
    "R5": "quasipositive knots have tau equal to the slice genus",
    "R6": "alternating knots have tau = -signature/2",
    "R9": "instanton L-space knots have nu = r0 = 2g - 1",
    "R10": "twist knots: r0 = n, nu = 0 (n even) or -1 (n odd)",
    "R11": "the slice pretzels P(n,3,-3) have nu = 0 and r0 = 4",
    "R12": "the pretzels P(2n-1,3,2) have nu = 2n-1 and r0 = 6n-1",
    "R13": "connected sums: tau adds, nu adds up to +-1 slack, "
           "W-shaped summands are absorbed",
    "R14": "interval tightening via |2 tau - nu| <= 1, the slice-genus "
           "bound, r0 >= |nu|, and parity",
}


class TraceEntry(Record):
    __slots__ = ("rule", "detail")

    def __init__(self, rule: str, detail: str):
        self._fill(rule, detail)

    def to_json(self):
        return {"rule": self.rule, "statement": RULES[self.rule], "detail": self.detail}


class Bundle(Record):
    """Deduced invariant state for one knot expression: nu, tau, r0, the
    shape ("V" / "W" / "unknown"), the pinned mu-bundle zero-surgery
    dimension, and the trace of the steps that narrowed them.

    Immutable, so deduce can cache one bundle and hand it to every
    caller; the engine works on a _Draft and freezes it at the end.

    pairs is derived from nu and r0: every admissible integer pair
    (nu, r0), with r0 = nu (mod 2) and r0 >= |nu|, or None when either
    state admits no integer or more than 40, or the lattice has more
    than 400 points."""

    _fields = ("knot", "nu", "tau", "r0", "shape", "mu0_dim", "trace")
    __slots__ = _fields + ("pairs",)

    def __init__(self, knot: str, nu: Val = Val(), tau: Val = Val(), r0: Val = Val(),
                 shape: str = "unknown", mu0_dim: int | None = None,
                 trace: tuple = ()):
        self._fill(knot, nu, tau, r0, shape, mu0_dim, tuple(trace))
        nus, r0s = nu.candidates(40), r0.candidates(40)
        pairs = None
        if nus is not None and r0s is not None and len(nus) * len(r0s) <= 400:
            pairs = tuple((n, r) for n in nus for r in r0s if (r - n) % 2 == 0 and r >= abs(n))
        object.__setattr__(self, "pairs", pairs)

    @property
    def delta(self) -> Val:
        # delta = r0 - nu is a nonnegative even integer for every knot
        return (self.r0 - self.nu).meet(Val(0, None, 0))

    def to_json(self, trace: bool = False):
        out = {
            "knot": self.knot,
            "nu": self.nu.to_json(),
            "tau": self.tau.to_json(),
            "r0": self.r0.to_json(),
            "shape": self.shape,
            "delta": self.delta.to_json(),
        }
        if trace:
            out["trace"] = [t.to_json() for t in self.trace]
        return out


class _Draft:
    """The engine's working state for one bundle: the rules narrow it in
    place and append to its trace, and freeze() makes the Bundle."""

    __slots__ = Bundle._fields

    def __init__(self, knot: str):
        self.knot = knot
        self.nu = self.tau = self.r0 = Val()
        self.shape = "unknown"
        self.mu0_dim = None
        self.trace = []

    def freeze(self) -> Bundle:
        return Bundle(self.knot, self.nu, self.tau, self.r0, self.shape, self.mu0_dim,
                      self.trace)

    def narrow(self, fieldname: str, value: Val, rule: str, detail: str = "") -> None:
        current: Val = getattr(self, fieldname)
        try:
            merged = current.meet(value)
        except Inconsistency as e:
            prior = [t for t in self.trace if t.detail.startswith(fieldname)]
            blame = prior[-1].rule if prior else "input data"
            raise Inconsistency(
                f"{self.knot}: rule {rule} gives {fieldname} = {value}, "
                f"contradicting {blame} ({current}): {e}"
            ) from None
        if merged != current:
            setattr(self, fieldname, merged)
            self.trace.append(TraceEntry(rule, f"{fieldname} = {merged} {detail}".rstrip()))

    def set_shape(self, shape: str, rule: str, detail: str = "") -> None:
        if shape == "unknown" or shape == self.shape:
            return
        if self.shape != "unknown" and self.shape != shape:
            raise Inconsistency(f"{self.knot}: rule {rule} gives shape {shape}, "
                                f"contradicting earlier {self.shape}")
        self.shape = shape
        self.trace.append(TraceEntry(rule, f"shape = {shape} {detail}".rstrip()))

    def adopt(self, src, mirrored: bool, rule: str, detail: str) -> None:
        """Narrow to src, a KnotRecord or a draft, negating nu and tau
        when src is the mirror's: r0 and the shape are kept."""
        for fieldname in ("nu", "tau", "r0"):
            v = getattr(src, fieldname)
            if not v.is_unknown:
                self.narrow(fieldname, -v if mirrored and fieldname != "r0" else v, rule, detail)
        self.set_shape(src.shape or "unknown", rule, detail)
        if self.mu0_dim is None:
            self.mu0_dim = src.mu0_dim


def deduce(k: KnotExpr, ds) -> Bundle:
    """Run the rules to a fixed point over the expression.

    On ds.untabulated() no tabulated nu/tau/r0 is read (structural flags
    stay available); the table verifier re-derives the tables there.
    The result is cached per dataset under the canonical text of k and
    of its canonical form, which the Bundle names, and every caller gets
    the same immutable Bundle.  A warm call is one probe of that cache
    under k's text; memo runs only when k has no text rendered yet, or
    the cache no entry under it.
    """
    try:
        return ds.deduce_cache[k._text]
    except (AttributeError, KeyError):
        return memo(ds.deduce_cache, k, ds, _deduce)


def _deduce(k, ds) -> Bundle:
    try:
        if isinstance(k, Sum):
            b = _deduce_sum(k, ds)
        else:
            b = _Draft(format_knot(k))
            _apply_atom_rules(b, k, ds)
            # the mirror pass: every rule applies to the mirror as well
            mk = mirror(k)
            mb = _Draft(format_knot(mk))
            _apply_atom_rules(mb, mk, ds)
            b.adopt(mb, True, "R2", f"(from {mb.knot})")
        _tighten(b, structural(k, ds).slice_genus)
    except Inconsistency as e:
        # the rules are theorems: on a registered knot they contradict
        # one another only when its record or its aliases are wrong
        rec = registered_record(k, ds)[0]
        if rec is None:
            raise
        raise IntegrityError(f"knot record {rec.name} or its aliases: {e}") from None
    return b.freeze()


def _apply_atom_rules(b: _Draft, k, ds) -> None:
    s = structural(k, ds)

    # R1: stored table values of the record the canonical atom names
    rec, mirrored = registered_record(k, ds)
    if rec is not None:
        b.adopt(rec, mirrored, "R1", f"({rec.name})")

    # R3 - R6 and R9 run once per knot: they read the structural data,
    # which every presentation shares, not the presentations
    _slice_rule(b, s)

    # R4: amphichiral
    if s.amphichiral:
        b.narrow("nu", Val.exact(0), "R4")
        b.narrow("tau", Val.exact(0), "R4")

    # R5: quasipositive (positive knots are quasipositive)
    if s.quasipositive or s.positive:
        if s.slice_genus.is_exact:
            b.narrow("tau", Val.exact(s.slice_genus.value()), "R5")

    # R6: alternating (a knot's signature is even: the loader rejects an odd one)
    if s.alternating and s.signature is not None:
        b.narrow("tau", Val.exact(-s.signature // 2), "R6")

    # R9: instanton L-space knots; the family data flag every T(p,q) with
    # p > 0 as one, and 2g - 1 = pq - p - q, so R9 covers the positive torus knots
    if _lspace_status(k, b, s, ds) is True and s.genus.is_exact:
        v = 2 * s.genus.value() - 1
        b.narrow("nu", Val.exact(v), "R9")
        b.narrow("r0", Val.exact(v), "R9")

    for expr in equivalent_atoms(k, ds):
        _apply_family_rules(b, expr)


def _apply_family_rules(b: _Draft, k) -> None:
    # R10: twist knots
    tw = twist_form(k)
    if tw is not None and not tw[1]:
        n = tw[0]
        b.narrow("r0", Val.exact(n), "R10")
        b.narrow("nu", Val.exact(0 if n % 2 == 0 else -1), "R10")

    # R11 / R12: pretzel families
    if isinstance(k, Pretzel):
        n33 = _pretzel_n33(k)
        if n33 is not None:
            b.narrow("nu", Val.exact(0), "R11")
            b.narrow("r0", Val.exact(4), "R11")
            b.set_shape("W", "R11")
        n = _pretzel_odd32(k)
        if n is not None and n > 0:
            b.narrow("nu", Val.exact(2 * n - 1), "R12")
            b.narrow("r0", Val.exact(6 * n - 1), "R12")


def _slice_rule(b: _Draft, s) -> None:
    """R3: slice genus 0."""
    if s.slice_genus == Val.exact(0):
        b.narrow("nu", Val.exact(0), "R3")
        b.narrow("tau", Val.exact(0), "R3")
        b.set_shape("W", "R3")


def _deduce_sum(k: Sum, ds) -> _Draft:
    parts = [deduce(s, ds) for s in k.summands]
    b = _Draft(format_knot(k))

    tau = Val.exact(0)
    for p in parts:
        tau = tau + p.tau
    b.narrow("tau", tau, "R13", "(tau adds over summands)")

    live = [p for p in parts if p.shape != "W"]
    absorbed = len(parts) - len(live)
    if absorbed:
        b.trace.append(TraceEntry("R13", f"absorbed {absorbed} W-shaped summand(s)"))
    if not live:
        b.narrow("nu", Val.exact(0), "R13", "(all summands W-shaped)")
    else:
        total = Val.exact(0)
        for p in live:
            total = total + p.nu
        slack = len(live) - 1
        b.narrow("nu", Val(
            None if total.lo is None else total.lo - slack,
            None if total.hi is None else total.hi + slack), "R13",
            f"(sum with slack {slack})")

    _slice_rule(b, structural(k, ds))
    return b


def _tighten(b: _Draft, slice_genus: Val) -> None:
    """R14 in one pass, which reaches its fixed point:
    1. |nu| <= 2 g_s - 1, or nu = 0 when g_s = 0 (with step 3 this gives
       |tau| <= g_s too);
    2. a W-shaped profile forces nu = 0;
    3. |2 tau - nu| <= 1, as nu from tau, tau from nu, and nu from tau
       again, since tau from nu can move tau's ends onto its parity;
    4. r0 >= |nu| and r0 = nu (mod 2);
    5. when r0 has an upper bound, |nu| <= r0.hi with r0's parity, and
       then steps 3 and 4 again, since step 3 can raise the least |nu|;
    6. an exact nonzero nu forces a V-shaped profile."""
    if slice_genus.hi is not None:
        g = max(2 * slice_genus.hi - 1, 0)
        b.narrow("nu", Val(-g, g), "R14", "(slice-genus bound)")
    if b.shape == "W":
        b.narrow("nu", Val.exact(0), "R14", "(W-shaped)")
    _nu_tau(b)
    b.narrow("r0", Val(b.nu.min_abs(), None, b.nu.parity), "R14", "(r0 >= |nu|, parity)")
    if b.r0.hi is not None:
        b.narrow("nu", Val(-b.r0.hi, b.r0.hi, b.r0.parity), "R14", "(|nu| <= r0, parity)")
        _nu_tau(b)
        b.narrow("r0", Val(b.nu.min_abs(), None, b.nu.parity), "R14", "(r0 >= |nu|, parity)")
    if b.nu.is_exact and b.nu.value() != 0:
        b.set_shape("V", "R14", "(nu != 0)")


def _nu_tau(b: _Draft) -> None:
    """|2 tau - nu| <= 1: nu from tau, tau from nu, nu from tau."""
    _nu_from_tau(b)
    if not b.nu.is_unknown:
        # tau is an integer, so (nu - 1)/2 <= tau <= (nu + 1)/2 rounds
        # inward: ceil((nu.lo - 1)/2) = nu.lo // 2, floor((nu.hi + 1)/2)
        lo = None if b.nu.lo is None else b.nu.lo // 2
        hi = None if b.nu.hi is None else (b.nu.hi + 1) // 2
        b.narrow("tau", Val(lo, hi), "R14", "(|2 tau - nu| <= 1)")
        _nu_from_tau(b)


def _nu_from_tau(b: _Draft) -> None:
    if not b.tau.is_unknown:
        lo = None if b.tau.lo is None else 2 * b.tau.lo - 1
        hi = None if b.tau.hi is None else 2 * b.tau.hi + 1
        b.narrow("nu", Val(lo, hi), "R14", "(|2 tau - nu| <= 1)")


def _lspace_status(k, b, s, ds):
    """instanton L-space knot status: True / False / None (unknown)."""
    if isinstance(k, Unknot):
        return False
    if s.instanton_lspace is not None:
        return s.instanton_lspace
    if isinstance(k, Cable):
        return lspace_cable(k.p, k.q, k.companion, ds)
    # nu = r0 = 2g - 1 > 0 is equivalent to having a positive L-space surgery
    if b.nu.is_exact and b.r0.is_exact and s.genus.is_exact:
        target = 2 * s.genus.value() - 1
        return b.nu.value() == b.r0.value() == target and target > 0
    return None


# ---------------------------------------------------------------------------
# Direct operations on the invariants
# ---------------------------------------------------------------------------

def sl_upper_bound(k: KnotExpr, ds) -> int | None:
    """The upper bound 2 tau - 1 on the maximum self-linking number, or
    None when tau is not exact.  Only KNOT records store sl_max, so a
    stored value above the bound is an IntegrityError naming its record."""
    tau = deduce(k, ds).tau
    if not tau.is_exact:
        return None
    bound = 2 * tau.value() - 1
    sl_max = structural(k, ds).sl_max
    if sl_max is not None and sl_max > bound:
        rec, mirrored = registered_record(canonical(k, ds), ds)
        field = "mirror_sl_max" if mirrored else "sl_max"
        raise IntegrityError(f"knot record {rec.name}: {field} {sl_max} exceeds "
                             f"2 tau - 1 = {bound}")
    return bound


def lspace_cable(p: int, q: int, k: KnotExpr, ds):
    """Whether the (p,q)-cable of k is an instanton L-space knot:
    true iff k is one and p/q > 2g(k) - 1.  None when undecidable.
    Raises KnotError, as make_cable does, unless q >= 2 and
    gcd(p, q) = 1.

    The answer is cached per dataset under the canonical text of the
    cable make_cable(p, q, k): it reads only the cached bundle and
    structural data of k, so a cable chain checks each layer once."""
    return memo(ds.lspace_cache, make_cable(p, q, k), ds, _lspace_cable)


def _lspace_cable(c, ds):
    if not isinstance(c, Cable):
        # a cable of U is T(p,q), or U when |p| = 1: the family data flag
        # T(p,q) an instanton L-space knot exactly when p > 0
        return not isinstance(c, Unknot) and structural(c, ds).instanton_lspace
    k = c.companion
    b = deduce(k, ds)
    s = structural(k, ds)
    status = _lspace_status(k, b, s, ds)
    if status is False:
        return False
    if status is None or not s.genus.is_exact:
        return None
    return c.p > c.q * (2 * s.genus.value() - 1)  # p/q > 2g - 1, with q >= 2
