"""Rule-based deduction of the concordance invariants nu, tau, r0, the
shape of the integer-surgery dimension profile, and delta = r0 - nu.

Every narrowing step is recorded in a trace as (rule id, statement,
detail).  Rule priority is fixed: stored table data (R1) outranks family
formulas, which outrank bound-tightening (R14); contradictions between
rules raise Inconsistency naming both trace entries, never resolve
silently.

Every entry point takes the Dataset it reads as ds, and each dataset
caches the bundles of deduce and the answers of lspace_cable once per
canonical form of the knot (knots.memo), the form a bundle names.
"""


from .knots import (
    Cable,
    KnotError,
    KnotExpr,
    Pretzel,
    Sum,
    Torus,
    Twist,
    Unknot,
    _pretzel_n33,
    _pretzel_odd32,
    equivalent_atoms,
    format_knot,
    memo,
    mirror,
    registered_record,
    structural,
)
from .values import Inconsistency, Record, Val

# rule id -> statement it applies
RULES = {
    "R1": "tabulated invariant values",
    "R2": "mirror rule: nu and tau negate, r0 is fixed",
    "R3": "smoothly slice knots have nu = tau = 0 and are W-shaped",
    "R4": "amphichiral knots have nu = tau = 0",
    "R5": "quasipositive knots have tau equal to the slice genus",
    "R6": "alternating knots have tau = -signature/2",
    "R7": "|tau| = g_s > 0 forces nu = sign(tau) (2 g_s - 1)",
    "R8": "positive torus knots have nu = r0 = pq - p - q",
    "R9": "instanton L-space knots have nu = r0 = 2g - 1",
    "R10": "twist knots: r0 = n, nu = 0 (n even) or -1 (n odd)",
    "R11": "the slice pretzels P(n,3,-3) have nu = 0 and r0 = 4",
    "R12": "the pretzels P(2n-1,3,2) have nu = 2n-1 and r0 = 6n-1",
    "R13": "connected sums: tau adds, nu adds up to +-1 slack, "
           "W-shaped summands are absorbed",
    "R14": "interval tightening via |2 tau - nu| <= 1, the slice-genus "
           "bound, r0 >= |nu|, and parity",
}

# R14 stops here even short of a fixed point, and says so in the trace;
# no deduction of the bundled tables or identities needs more than two
TIGHTEN_ROUNDS = 8


class TraceEntry(Record):
    __slots__ = ("rule", "statement", "detail")

    def __init__(self, rule: str, statement: str, detail: str):
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "statement", statement)
        object.__setattr__(self, "detail", detail)

    def to_json(self):
        return {"rule": self.rule, "statement": self.statement, "detail": self.detail}


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
            self.trace.append(TraceEntry(rule, RULES[rule],
                                         f"{fieldname} = {merged} {detail}".rstrip()))

    def set_shape(self, shape: str, rule: str, detail: str = "") -> None:
        if shape == "unknown" or shape == self.shape:
            return
        if self.shape != "unknown" and self.shape != shape:
            raise Inconsistency(f"{self.knot}: rule {rule} gives shape {shape}, "
                                f"contradicting earlier {self.shape}")
        self.shape = shape
        self.trace.append(TraceEntry(rule, RULES[rule], f"shape = {shape} {detail}".rstrip()))


def deduce(k: KnotExpr, ds, use_stored: bool = True) -> Bundle:
    """Run the rules to a fixed point over the expression.

    With use_stored=False the engine ignores every tabulated nu/tau/r0
    (structural flags stay available); this is the re-derivation mode the
    table verifier runs in.  The result is cached per dataset under the
    canonical form of k, which the Bundle names, and every caller gets
    the same immutable Bundle.
    """
    return memo(ds.deduce_cache, k, ds, _deduce, use_stored)


def _deduce(k, ds, use_stored) -> Bundle:
    if isinstance(k, Sum):
        b = _deduce_sum(k, ds, use_stored)
    else:
        b = _Draft(format_knot(k))
        _apply_atom_rules(b, k, ds, use_stored)
        # the mirror pass: every rule applies to the mirror as well, and
        # nu, tau negate while r0 is preserved
        mk = mirror(k)
        mb = _Draft(format_knot(mk))
        _apply_atom_rules(mb, mk, ds, use_stored)
        for fieldname in ("nu", "tau"):
            v = getattr(mb, fieldname)
            if not v.is_unknown:
                b.narrow(fieldname, -v, "R2", f"(from {mb.knot})")
        if not mb.r0.is_unknown:
            b.narrow("r0", mb.r0, "R2", f"(from {mb.knot})")
        if mb.shape != "unknown":
            # the profile reflects under mirroring, so the shape is preserved
            b.set_shape(mb.shape, "R2", f"(from {mb.knot})")
        if b.mu0_dim is None:
            b.mu0_dim = mb.mu0_dim
    _tighten(b, k, ds)
    return b.freeze()


def _apply_atom_rules(b: _Draft, k, ds, use_stored) -> None:
    s = structural(k, ds)

    # R1: stored table values of the record the canonical atom names
    rec, mirrored = registered_record(k, ds)
    if use_stored and rec is not None:
        inst, name = rec.instanton, rec.name
        if not inst.nu.is_unknown:
            b.narrow("nu", -inst.nu if mirrored else inst.nu, "R1", f"({name})")
        if not inst.tau.is_unknown:
            b.narrow("tau", -inst.tau if mirrored else inst.tau, "R1", f"({name})")
        if not inst.r0.is_unknown:
            b.narrow("r0", inst.r0, "R1", f"({name})")
        if inst.shape is not None:
            b.set_shape(inst.shape, "R1", f"({name})")
        if inst.mu0_dim is not None:
            b.mu0_dim = inst.mu0_dim

    for expr in equivalent_atoms(k, ds):
        _apply_family_rules(b, expr, s, ds, use_stored)


def _apply_family_rules(b: _Draft, k, s, ds, use_stored) -> None:

    # R3: slice
    if s.flag("slice") or (s.slice_genus.is_exact and s.slice_genus.value() == 0):
        b.narrow("nu", Val.exact(0), "R3")
        b.narrow("tau", Val.exact(0), "R3")
        b.set_shape("W", "R3")

    # R4: amphichiral
    if s.flag("amphichiral"):
        b.narrow("nu", Val.exact(0), "R4")
        b.narrow("tau", Val.exact(0), "R4")

    # R5: quasipositive (positive knots are quasipositive)
    if s.flag("quasipositive") or s.flag("positive"):
        if s.slice_genus.is_exact:
            b.narrow("tau", Val.exact(s.slice_genus.value()), "R5")

    # R6: alternating (a knot's signature is even: the loader rejects an odd one)
    if s.flag("alternating") and s.signature is not None:
        b.narrow("tau", Val.exact(-s.signature // 2), "R6")

    # R8: torus knots (the mirror pass covers the negative ones)
    if isinstance(k, Torus) and k.p > 0:
        v = k.p * k.q - k.p - k.q
        b.narrow("nu", Val.exact(v), "R8")
        b.narrow("r0", Val.exact(v), "R8")

    # R9: instanton L-space knots
    if _lspace_status(k, b, s, ds, use_stored) is True and s.genus.is_exact:
        v = 2 * s.genus.value() - 1
        b.narrow("nu", Val.exact(v), "R9")
        b.narrow("r0", Val.exact(v), "R9")

    # R10: twist knots
    if isinstance(k, Twist) and not k.mirrored:
        b.narrow("r0", Val.exact(k.n), "R10")
        b.narrow("nu", Val.exact(0 if k.n % 2 == 0 else -1), "R10")

    # R11 / R12: pretzel families
    if isinstance(k, Pretzel):
        n33 = _pretzel_n33(k)
        if n33 is not None:
            b.narrow("nu", Val.exact(0), "R11")
            b.narrow("r0", Val.exact(4), "R11")
            b.set_shape("W", "R11")
        if not k.mirrored:
            n = _pretzel_odd32(k)
            if n is not None:
                b.narrow("nu", Val.exact(2 * n - 1), "R12")
                b.narrow("r0", Val.exact(6 * n - 1), "R12")


def _deduce_sum(k: Sum, ds, use_stored) -> _Draft:
    parts = [deduce(s, ds, use_stored) for s in k.summands]
    b = _Draft(format_knot(k))

    tau = Val.exact(0)
    for p in parts:
        tau = tau + p.tau
    b.narrow("tau", tau, "R13", "(tau adds over summands)")

    live = [p for p in parts if p.shape != "W"]
    absorbed = len(parts) - len(live)
    if absorbed:
        b.trace.append(TraceEntry("R13", RULES["R13"],
                                  f"absorbed {absorbed} W-shaped summand(s)"))
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

    st = structural(k, ds)
    if st.flag("slice"):
        b.narrow("nu", Val.exact(0), "R3")
        b.narrow("tau", Val.exact(0), "R3")
        b.set_shape("W", "R3")
    return b


def _tighten(b: _Draft, k, ds) -> None:
    """R14 to a fixed point, or for TIGHTEN_ROUNDS rounds: mutual nu/tau
    bounds, genus bound, r0 bounds."""
    s = structural(k, ds)
    for _ in range(TIGHTEN_ROUNDS):
        before = (b.nu, b.tau, b.r0, b.shape)

        if s.slice_genus.hi is not None:
            g = max(2 * s.slice_genus.hi - 1, 0)
            b.narrow("nu", Val(-g, g), "R14", "(slice-genus bound)")
        if not b.tau.is_unknown:
            lo = None if b.tau.lo is None else 2 * b.tau.lo - 1
            hi = None if b.tau.hi is None else 2 * b.tau.hi + 1
            b.narrow("nu", Val(lo, hi), "R14", "(|2 tau - nu| <= 1)")
        if not b.nu.is_unknown:
            # tau is an integer, so (nu - 1)/2 <= tau <= (nu + 1)/2 rounds
            # inward: ceil((nu.lo - 1)/2) = nu.lo // 2, floor((nu.hi + 1)/2)
            lo = None if b.nu.lo is None else b.nu.lo // 2
            hi = None if b.nu.hi is None else (b.nu.hi + 1) // 2
            b.narrow("tau", Val(lo, hi), "R14", "(|2 tau - nu| <= 1)")
        if s.slice_genus.hi is not None:
            g = s.slice_genus.hi
            b.narrow("tau", Val(-g, g), "R14", "(slice-genus bound)")

        # r0 >= |nu|, r0 >= 0, parity r0 = parity nu
        b.narrow("r0", Val(b.nu.min_abs(), None, b.nu.parity), "R14", "(r0 >= |nu|, parity)")
        if b.r0.is_exact:
            b.narrow("nu", Val(-b.r0.value(), b.r0.value(), b.r0.parity),
                     "R14", "(|nu| <= r0, parity)")

        # R7 (needs tau and g_s): |tau| = g_s > 0 pins nu
        if (b.tau.is_exact and s.slice_genus.is_exact
                and abs(b.tau.value()) == s.slice_genus.value() != 0):
            g = s.slice_genus.value()
            sign = 1 if b.tau.value() > 0 else -1
            b.narrow("nu", Val.exact(sign * (2 * g - 1)), "R7")

        # shape bookkeeping: nonzero nu forces a V-shaped profile,
        # W-shaped forces nu = 0
        if b.nu.is_exact and b.nu.value() != 0:
            b.set_shape("V", "R14", "(nu != 0)")
        if b.shape == "W":
            b.narrow("nu", Val.exact(0), "R14", "(W-shaped)")

        if (b.nu, b.tau, b.r0, b.shape) == before:
            break
    else:
        b.trace.append(TraceEntry("R14", RULES["R14"],
                                  f"(no fixed point after {TIGHTEN_ROUNDS} rounds)"))


def _lspace_status(k, b, s, ds, use_stored: bool = True):
    """instanton L-space knot status: True / False / None (unknown)."""
    if isinstance(k, Unknot):
        return False
    if s.flag("instanton_lspace") is not None:
        return s.flag("instanton_lspace")
    if isinstance(k, Torus):
        return k.p > 0
    if isinstance(k, Cable):
        return lspace_cable(k.p, k.q, k.companion, ds, use_stored)
    # nu = r0 = 2g - 1 > 0 is equivalent to having a positive L-space surgery
    if b.nu.is_exact and b.r0.is_exact and s.genus.is_exact:
        target = 2 * s.genus.value() - 1
        return b.nu.value() == b.r0.value() == target and target > 0
    return None


# ---------------------------------------------------------------------------
# Direct operations on the invariants
# ---------------------------------------------------------------------------

def sl_upper_bound(k: KnotExpr, ds):
    """Upper bound 2 tau - 1 for the maximum self-linking number.

    Returns (bound, violation) where violation is True when a stored
    maximum self-linking number exceeds the bound."""
    b = deduce(k, ds)
    if not b.tau.is_exact:
        return None, False
    bound = 2 * b.tau.value() - 1
    s = structural(k, ds)
    violation = s.sl_max is not None and s.sl_max > bound
    return bound, violation


def lspace_cable(p: int, q: int, k: KnotExpr, ds, use_stored: bool = True):
    """Whether the (p,q)-cable of k is an instanton L-space knot:
    true iff k is one and p/q > 2g(k) - 1.  None when undecidable.

    The answer is cached per dataset under the canonical form of k: it
    reads only the cached bundle and structural data of k, so a cable
    chain checks each layer once."""
    return memo(ds.lspace_cache, k, ds, _lspace_cable, p, q, use_stored)


def _lspace_cable(k, ds, p, q, use_stored):
    if isinstance(k, Unknot):
        return p > 1  # the cable is T(p,q): positive, or the unknot when p = 1
    b = deduce(k, ds, use_stored)
    s = structural(k, ds)
    status = _lspace_status(k, b, s, ds, use_stored)
    if status is False:
        return False
    if status is None or not s.genus.is_exact:
        return None
    return p > q * (2 * s.genus.value() - 1)  # p/q > 2g - 1, with q >= 2


def lspace_knot_invariants(k: KnotExpr, ds) -> tuple[int, int]:
    """(nu, r0) = (2g - 1, 2g - 1) for an instanton L-space knot."""
    b = deduce(k, ds)
    s = structural(k, ds)
    if _lspace_status(k, b, s, ds) is not True or not s.genus.is_exact:
        raise KnotError(f"{format_knot(k)} is not a known instanton L-space knot "
                        "with known genus")
    v = 2 * s.genus.value() - 1
    return (v, v)
