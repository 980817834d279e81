"""The value lattice against brute-force set semantics on small lattices.

The property under test is soundness: every value the inputs admit lies
in the result, and an operation raises Inconsistency only when no value
is admitted.  Where the operation is exact (meets, intervals, candidate
lists, the least |x|) the result admits nothing more either.  And a set
of integers has one state: equal sets give equal values.
"""

import copy
import math
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isharp import datasets
from isharp.invariants import Bundle, deduce
from isharp.knots import parse_knot
from isharp.dimension import (DimensionError, DimResult, _abs_range, _formula_dim,
                              _require_bounded, triad_bounds)
from isharp.values import INFINITY, Inconsistency, Slope, Val
from isharp.verify import solve_pairs
from test_slopes import uniform_slopes

# wider than every finite bound the strategies below produce
WINDOW = range(0, 500)


def members(r: DimResult, window=WINDOW) -> set:
    return {d for d in window if r.contains(d)}


def test_of_candidates_rejects_values_the_euler_characteristic_forbids():
    with pytest.raises(Inconsistency):
        DimResult.of_candidates([3, 5], 5)  # 3 < |H1|
    with pytest.raises(Inconsistency):
        DimResult.of_candidates([5, 6], 5)  # 6 has the wrong parity
    with pytest.raises(Inconsistency):
        DimResult.of_stored([9, 11], -11)
    assert DimResult.of_candidates([12, 10, 12], 10).values() == (10, 12)


@st.composite
def dim_results(draw, euler, finite=False):
    """An exact value, a candidate set or an interval admitted by euler."""
    admissible = st.integers(0, 40).map(lambda k: euler + 2 * k)
    kind = draw(st.sampled_from(["exact", "candidates"] if finite
                                else ["exact", "candidates", "interval"]))
    if kind == "exact":
        return DimResult.exact(draw(admissible), euler)
    if kind == "candidates":
        return DimResult.of_candidates(draw(st.sets(admissible, min_size=1, max_size=6)), euler)
    lo = draw(st.integers(-4, 60))
    hi = draw(st.none() | st.integers(max(lo, euler) + 1, 400))
    return DimResult.of_interval(lo, hi, euler)


@given(st.integers(-6, 60), st.none() | st.integers(-6, 400), st.integers(-7, 7))
@settings(max_examples=300, deadline=None)
def test_of_interval_is_the_admitted_set(lo, hi, euler):
    assume(hi is None or lo <= hi)
    e = abs(euler)
    truth = {d for d in WINDOW if d >= lo and (hi is None or d <= hi)
             and d >= e and (d - e) % 2 == 0}
    if not truth:
        with pytest.raises(Inconsistency):
            DimResult.of_interval(lo, hi, euler)
        return
    r = DimResult.of_interval(lo, hi, euler)
    assert r.euler == e and members(r) == truth
    assert (r.values() is None) == (hi is None or len(truth) > 64)


@given(st.integers(0, 6).flatmap(lambda e: st.tuples(dim_results(e), dim_results(e))))
@settings(max_examples=400, deadline=None)
def test_dim_meet_is_the_intersection(pair):
    a, b = pair
    truth = members(a) & members(b)
    if not truth:
        with pytest.raises(Inconsistency):
            a.meet(b)
        return
    assert members(a.meet(b)) == truth == members(b.meet(a))


@given(st.integers(0, 6).flatmap(dim_results), st.integers(0, 6).flatmap(dim_results))
@settings(max_examples=100, deadline=None)
def test_dim_meet_refuses_mismatched_euler(a, b):
    assume(a.euler != b.euler)
    with pytest.raises(Inconsistency):
        a.meet(b)


@given(st.integers(0, 6).flatmap(lambda e: dim_results(e, finite=True)),
       st.integers(0, 6).flatmap(lambda e: dim_results(e, finite=True)),
       st.integers(0, 14))
@settings(max_examples=300, deadline=None)
def test_triad_bounds_are_sound(a, b, h1):
    # exactness: the third dimension lies within |dA - dB| .. dA + dB
    truth = {c for x in a.values() for y in b.values()
             for c in range(abs(x - y), x + y + 1) if c >= h1 and (c - h1) % 2 == 0}
    try:
        r = triad_bounds(a, b, h1)
    except Inconsistency:
        assert not truth
        return
    assert r.euler == h1 and truth <= members(r)


small_ints = st.integers(-10, 10)


@st.composite
def vals(draw):
    lo, hi = draw(st.none() | small_ints), draw(st.none() | small_ints)
    assume(lo is None or hi is None or lo <= hi)
    try:
        return Val(lo, hi, draw(st.sampled_from([None, 0, 1])))
    except Inconsistency:
        assume(False)


GRID = range(-12, 13)


@given(vals(), vals())
@settings(max_examples=400, deadline=None)
def test_val_meet_is_the_intersection(a, b):
    truth = {x for x in GRID if a.contains(x) and b.contains(x)}
    if not truth:
        with pytest.raises(Inconsistency):
            a.meet(b)
        return
    m = a.meet(b)
    assert {x for x in GRID if m.contains(x)} == truth


@given(vals())
@settings(max_examples=400, deadline=None)
def test_val_min_abs_is_the_least_absolute_value(v):
    # finite ends lie in [-10, 10], so the least |x| is taken on GRID
    assert v.min_abs() == min(abs(x) for x in GRID if v.contains(x))


@given(small_ints, small_ints, st.sampled_from([None, 0, 1]))
@example(0, 5, 1)
@example(3, 3, 0)
@settings(max_examples=400, deadline=None)
def test_val_has_one_form_per_set_of_integers(lo, hi, parity):
    # a state equals the one whose ends are the least and greatest values
    # it admits; one that admits none names the ends it was given
    assume(lo <= hi)
    admitted = [x for x in range(lo, hi + 1) if parity is None or x % 2 == parity]
    if not admitted:
        with pytest.raises(Inconsistency, match=f"^exact value {lo} violates parity {parity}$"):
            Val(lo, hi, parity)
        return
    assert Val(lo, hi, parity) == Val(min(admitted), max(admitted), parity)


@given(st.none() | small_ints, st.none() | small_ints, st.sampled_from([None, 0, 1]),
       st.integers(1, 12))
@settings(max_examples=400, deadline=None)
def test_val_candidates_lists_every_admitted_integer(lo, hi, parity, limit):
    assume(lo is None or hi is None or lo < hi)
    v = Val(lo, hi, parity)
    got = v.candidates(limit)
    if lo is None or hi is None:
        assert got is None
        return
    truth = [n for n in range(-12, 13) if v.contains(n)]
    assert got == (truth if 0 < len(truth) <= limit else None)
    assert all(type(n) is int for n in got or ())


def test_val_candidates_of_a_state_wider_than_sys_maxsize():
    # len() of such a range raises OverflowError, so candidates counts first
    for v in (Val(0, 10 ** 20), Val(-10 ** 40, 10 ** 40, 1)):
        assert v.candidates(64) is None
    assert Val(10 ** 40, 10 ** 40 + 4, 0).candidates(3) == [10 ** 40, 10 ** 40 + 2, 10 ** 40 + 4]
    assert DimResult.of_interval(1, 10 ** 40, 1).values() is None


DS = datasets.load()
PRESENTATIONS = sorted({*DS.knot_names(), *DS.table("ALIAS")})
knot_texts = st.recursive(
    st.sampled_from(PRESENTATIONS)
    | st.integers(1, 12).map(lambda n: f"T(2,{2 * n + 1})")
    | st.integers(1, 9).map(lambda n: f"Tw({n})")
    | st.integers(1, 6).map(lambda n: f"P({2 * n - 1},3,2)"),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from([3, 5, -3, 7]), inner).map(lambda t: f"Cab({t[0]},2;{t[1]})"),
        st.lists(inner, min_size=2, max_size=3).map(" # ".join),
        inner.map(lambda t: f"m({t})")),
    max_leaves=5)


@given(knot_texts)
@settings(max_examples=200, deadline=None)
def test_deduction_commutes_with_the_mirror(text):
    # R2: nu and tau negate under the mirror; r0, the shape and the pinned
    # mu-bundle dimension are kept
    fresh = datasets.load()
    for data in (fresh, fresh.untabulated()):
        b = deduce(parse_knot(text), data)
        mb = deduce(parse_knot(f"m({text})"), data)
        assert ((mb.nu, mb.tau, mb.r0, mb.shape, mb.mu0_dim)
                == (-b.nu, -b.tau, b.r0, b.shape, b.mu0_dim)), (text, data is fresh)


@given(st.floats()
       | st.sampled_from([Fraction(1, 2), Fraction(4, 2), Decimal(1), "1", True, 1j]))
@settings(max_examples=100, deadline=None)
def test_a_non_rational_end_raises(x):
    for build in (lambda: Val(x, None), lambda: Val(None, x), lambda: Val(x, x, 0),
                  lambda: Val.exact(x), lambda: Val(x, None, 0),
                  lambda: Val(None, x, 1)):
        with pytest.raises(TypeError):
            build()


@st.composite
def bounded(draw, lo_min, width):
    lo = draw(st.integers(lo_min, lo_min + 30))
    hi = draw(st.integers(lo, lo + width))
    parity = draw(st.sampled_from([None, 0, 1]))
    try:
        return Val(lo, hi, parity)
    except Inconsistency:
        assume(False)


@given(bounded(-30, 60), bounded(0, 80), st.integers(-40, 40).filter(bool),
       st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_closed_form_is_sound_on_both_branches(nu, r0, p, q):
    # large lattices exceed the enumeration caps and take the interval branch
    assume(math.gcd(abs(p), q) == 1)
    truth = {q * r + abs(p - q * n)
             for n in range(int(nu.lo), int(nu.hi) + 1) if nu.contains(n)
             for r in range(int(r0.lo), int(r0.hi) + 1)
             if r0.contains(r) and r >= abs(n) and (r - n) % 2 == 0}
    try:
        r = _formula_dim(Bundle("K", nu=nu, r0=r0), Slope(p, q))
    except Inconsistency:
        assert not truth
        return
    assert truth <= members(r, range(0, 800))


def _nested_formula_dim(b: Bundle, s: Slope) -> DimResult:
    """The closed form as it enumerated before bundles carried their
    (nu, r0) pairs: the reference for the pairs comprehension."""
    p, q = s.p, s.q
    nu = _require_bounded(b.nu, "nu", b.knot)
    r0 = _require_bounded(b.r0, "r0", b.knot)
    euler = abs(p)
    nu_c = nu.candidates(40)
    r0_c = r0.candidates(40)
    if nu_c is not None and r0_c is not None and len(nu_c) * len(r0_c) <= 400:
        dims = set()
        for n in nu_c:
            for r in r0_c:
                if (r - n) % 2 != 0 or r < abs(n):
                    continue
                dims.add(q * r + abs(p - q * n))
        if dims:
            return DimResult.of_candidates(dims, euler)
    lo_abs, hi_abs = _abs_range(p, q, nu)
    lo = q * r0.lo + lo_abs
    hi = None if r0.hi is None else q * r0.hi + hi_abs
    return DimResult.of_interval(lo, hi, euler)


def _outcome(f, *args):
    try:
        return f(*args)
    except (Inconsistency, DimensionError) as e:
        return type(e), str(e)


@st.composite
def lattice_states(draw):
    """Bounded states from empty to past the 40-candidate cap, and now
    and then an unbounded one."""
    ends = st.integers(-120, 120)
    lo = draw(ends)
    hi = draw(st.none() | st.just(lo) | ends.filter(lambda x: x >= lo)
              | st.integers(0, 100).map(lambda w: lo + w))
    try:
        return Val(lo, hi, draw(st.sampled_from([None, 0, 1])))
    except Inconsistency:
        assume(False)


@given(lattice_states(), lattice_states(), st.integers(-60, 60).filter(bool),
       st.integers(1, 5))
# empty lattice (r0 < |nu| throughout), 400 pairs, 403 pairs, 41 candidates
@example(Val.exact(9), Val(1, 7, 1), 5, 1)
@example(Val(0, 39), Val(0, 9), 7, 2)
@example(Val(0, 12), Val(0, 30), 7, 2)
@example(Val(-40, 40, 0), Val(40, 42, 0), -3, 1)
@settings(max_examples=500, deadline=None)
def test_pairs_enumeration_equals_the_nested_loops(nu, r0, p, q):
    assume(math.gcd(abs(p), q) == 1)
    b = Bundle("K", nu=nu, r0=r0)
    assert _outcome(_formula_dim, b, Slope(p, q)) == _outcome(_nested_formula_dim, b, Slope(p, q))


def _closed_form_reference(b: Bundle, s: Slope) -> DimResult:
    """The closed form with no exact path: the set of its values over the
    bundle's (nu, r0) pairs, or else its least and greatest value over
    every admitted nu with r0 at its ends."""
    p, q = s.p, s.q
    if b.pairs:
        return DimResult.of_candidates({q * r + abs(p - q * n) for n, r in b.pairs}, p)
    for what, val in (("nu", b.nu), ("r0", b.r0)):
        if val.lo is None or val.hi is None:
            raise DimensionError(f"{what} of {b.knot} is not determined: {val}")
    ends = [abs(p - q * n) for n in range(b.nu.lo, b.nu.hi + 1) if b.nu.contains(n)]
    return DimResult.of_interval(q * b.r0.lo + min(ends), q * b.r0.hi + max(ends), p)


@st.composite
def one_pair_bundles(draw):
    n = draw(st.integers(-60, 60))
    return Bundle("K", nu=Val.exact(n), r0=Val.exact(abs(n) + 2 * draw(st.integers(0, 30))))


closed_form_slopes = (st.sampled_from([Slope(0, 1), INFINITY])
                      | st.integers(-10 ** 40, 10 ** 40).map(lambda p: Slope(p, 1))
                      | uniform_slopes(st.integers(1, 40)))


@given(one_pair_bundles()
       | st.builds(lambda nu, r0: Bundle("K", nu=nu, r0=r0), lattice_states(), lattice_states()),
       closed_form_slopes)
# one pair, three pairs, intervals only (403 pairs), r0 unbounded
@example(Bundle("K", nu=Val.exact(3), r0=Val(1, 3, 1)), Slope(10 ** 40 + 1, 10 ** 40))
@example(Bundle("K", nu=Val.exact(1), r0=Val(1, 5, 1)), INFINITY)
@example(Bundle("K", nu=Val(0, 12), r0=Val(0, 30)), Slope(0, 1))
@example(Bundle("K", nu=Val(0, 12), r0=Val(0, None)), Slope(7, 2))
@settings(max_examples=500, deadline=None)
def test_fast_exact_path_is_the_closed_form(b, s):
    assert _outcome(_formula_dim, b, s) == _outcome(_closed_form_reference, b, s)


@given(st.integers(-10 ** 40, 10 ** 40) | st.integers(-20, 20),
       st.integers(-10 ** 40, 10 ** 40) | st.integers(-20, 20))
@settings(max_examples=300, deadline=None)
def test_exact_is_one_candidate(d, euler):
    assert _outcome(DimResult.exact, d, euler) == _outcome(DimResult.of_candidates, (d,), euler)


def test_bundle_pairs_respect_the_caps():
    assert Bundle("K", nu=Val.exact(9), r0=Val(1, 7, 1)).pairs == ()
    assert len(Bundle("K", nu=Val(0, 39), r0=Val(0, 9)).pairs) == 30
    assert Bundle("K", nu=Val(0, 12), r0=Val(0, 30)).pairs is None  # 403
    assert Bundle("K", nu=Val(0, 40), r0=Val.exact(40)).pairs is None
    assert Bundle("K", nu=Val(0, 1)).pairs is None  # r0 unknown
    assert Bundle("K", nu=Val.exact(-1), r0=Val(0, 3)).pairs == ((-1, 1), (-1, 3))


def test_bundle_pairs_are_invisible():
    b = Bundle("K", nu=Val.exact(1), r0=Val(1, 5, 1), shape="V")
    fresh = Bundle("K", nu=Val.exact(1), r0=Val(1, 5, 1), shape="V")
    assert b.pairs == ((1, 1), (1, 3), (1, 5)) and "pairs" not in repr(b)
    for copied in (copy.deepcopy(b), pickle.loads(pickle.dumps(b)), copy.copy(b),
                   b.replace(), fresh):
        assert copied == b and hash(copied) == hash(b) and repr(copied) == repr(b)
        assert copied.pairs == b.pairs
    # a replaced field recomputes the derived slot
    assert b.replace(nu=Val.exact(3)).pairs == ((3, 3), (3, 5))
    with pytest.raises(TypeError):
        Bundle("K", pairs=())
    with pytest.raises(AttributeError):
        b.pairs = ()


# --- the solver that inverts the closed form ------------------------------

solver_slopes = (st.tuples(st.integers(-12, 12).filter(bool), st.integers(1, 4))
                 .filter(lambda t: math.gcd(abs(t[0]), t[1]) == 1).map(lambda t: Slope(*t)))


@st.composite
def around(draw, x):
    """A state that admits x: either end open or a few steps away, with
    or without x's parity."""
    lo = draw(st.none() | st.integers(0, 6).map(lambda w: x - w))
    hi = draw(st.none() | st.integers(0, 6).map(lambda w: x + w))
    return Val(lo, hi, draw(st.sampled_from([None, x % 2])))


@st.composite
def known_at_truth(draw, n, r):
    """A constraint at a random non-zero slope that the pair (n, r)
    passes: its exact dimension, a candidate set, an open interval or a
    predicate."""
    s = draw(solver_slopes)
    d = _formula_dim(Bundle("K", nu=Val.exact(n), r0=Val.exact(r)), s).dim
    kind = draw(st.sampled_from(["exact", "candidates", "interval", "predicate"]))
    if kind == "exact":
        return s, DimResult.exact(d, s.p)
    if kind == "candidates":
        more = draw(st.sets(st.integers(0, 10).map(lambda k: abs(s.p) + 2 * k), max_size=4))
        return s, DimResult.of_candidates({d, *more}, s.p)
    if kind == "interval":
        return s, DimResult.of_interval(d - 2 * draw(st.integers(0, 5)), None, s.p)
    return s, lambda x, d=d: x % 4 == d % 4


@st.composite
def solver_cases(draw):
    """An admissible pair (n, r), bundle states that admit it, and
    constraints that it passes."""
    n = draw(st.integers(-20, 20))
    r = abs(n) + 2 * draw(st.integers(0, 10))
    return ((n, r), draw(around(n)), draw(around(r)),
            draw(st.lists(known_at_truth(n, r), min_size=1, max_size=3)))


@given(solver_cases())
@settings(max_examples=300, deadline=None)
def test_solver_keeps_the_true_pair(case):
    # every dimension computed forward from (nu, r0) admits it, so the
    # answer holds the pair once one constraint is exact at its slope
    (n, r), nu, r0, known = case
    s = known[0][0]
    exact = (s, _formula_dim(Bundle("K", nu=Val.exact(n), r0=Val.exact(r)), s))
    assert (n, r) in solve_pairs(Bundle("K", nu=nu, r0=r0), [exact, *known])


@st.composite
def small_known(draw):
    """A constraint of dimension at most 42 at a slope with |p| <= 12:
    a finite DimResult, an open interval or a predicate."""
    s = draw(solver_slopes)
    dims = st.integers(0, 15).map(lambda k: abs(s.p) + 2 * k)
    kind = draw(st.sampled_from(["finite", "interval", "predicate"]))
    if kind == "finite":
        return s, DimResult.of_candidates(draw(st.sets(dims, min_size=1, max_size=4)), s.p)
    if kind == "interval":
        return s, DimResult.of_interval(draw(dims), None, s.p)
    m = draw(st.integers(2, 5))
    return s, lambda x, m=m, k=draw(st.integers(0, 4)): x % m == k % m


@given(lattice_states(), lattice_states(), st.lists(small_known(), min_size=1, max_size=3))
@example(Val(), Val(0, None), [(Slope(-1, 1), DimResult.exact(5, 1)),
                               (Slope(1, 2), lambda d: d >= 13 and (d - 13) % 4 == 0)])
@settings(max_examples=300, deadline=None)
def test_solver_is_brute_force_over_the_lattice(nu, r0, known):
    # d >= q r0 >= r0 >= |nu| and every finite top is at most 42, so the
    # window below holds every pair a bounded constraint admits
    def admits(a, d):
        return a.contains(d) if isinstance(a, DimResult) else a(d)

    brute = [(n, r) for r in range(45) for n in range(-r, r + 1, 2)
             if nu.contains(n) and r0.contains(r)
             and all(admits(a, s.q * r + abs(s.p - s.q * n)) for s, a in known)]
    bounded = any(isinstance(a, DimResult) and a.values() for _, a in known)
    assert solve_pairs(Bundle("K", nu=nu, r0=r0), known) == (brute if bounded else [])
