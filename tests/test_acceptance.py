"""Acceptance suite: one test per criterion, exact arithmetic throughout
(tolerance 0 everywhere), with one printed pass line per criterion."""

import math
import random
from fractions import Fraction

import pytest

from isharp import datasets
from isharp.invariants import deduce
from isharp.knots import Pretzel, make_twist, mirror, parse_knot
from isharp.dimension import branched_cover_dim, census_dim, surgery_dim
from isharp.slopes import eval_cf, neg_cf, triad
from isharp.values import Slope, reduce
from isharp.verify import (
    check_census,
    check_identities,
    check_integer_surgery_table,
    check_spectral,
    rederive_nu_tau,
    rederive_r0,
    verify_all,
    verify_identity,
)

SEED = 20260810


@pytest.fixture(scope="module")
def ds():
    return datasets.load()


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: PASS — {text}")


# -- criterion 1: table reproduction ------------------------------------------

def test_criterion_1_table_reproduction(ds):
    t3 = rederive_nu_tau(ds)
    assert not t3.failed, [c.line() for c in t3.failed]
    # exactly the two open knots stay as nu intervals
    open_nu = [c.key for c in t3.cells if c.cell == "nu" and "interval" in c.expected]
    assert sorted(open_nu) == ["7_7", "8_13"]

    t1 = rederive_r0(ds)
    assert not t1.failed, [c.line() for c in t1.failed]
    assert len(t1.cells) == 20

    t4 = check_integer_surgery_table(ds)
    assert not t4.failed, [c.line() for c in t4.failed]
    pinned = {("6_2", -9): 13, ("7_3", 7): 11, ("7_4", 1): 7, ("8_2", -13): 19,
              ("8_3", 1): 9, ("8_4", -7): 15, ("6_3", -1): 7, ("8_6", -1): 11,
              ("8_8", -1): 13}
    for (name, n), dim in pinned.items():
        got = surgery_dim(parse_knot(name), Slope(n, 1), "trivial", ds)
        assert got.dim == dim, (name, n, got)
    report(1, f"{len(t3.cells) + len(t1.cells) + len(t4.cells)} cells re-derived; "
              "only nu(7_7), nu(8_13) stay intervals")


# -- criterion 2: census reproduction -----------------------------------------

def test_criterion_2_census(ds):
    for i in range(20):
        stored = ds.table("T2")[str(i)].payload["dim"]
        got = census_dim(i, ds)
        if isinstance(stored, list):
            assert list(got.values()) == stored, i
        else:
            assert got.dim == stored, i
    assert census_dim(7, ds).values() == (10, 12)

    routes = check_census(ds)
    assert not routes.failed, [c.line() for c in routes.failed]
    by_table = {}
    for c in routes.cells:
        by_table.setdefault(c.section, set()).add(c.key)
    assert len(by_table["T6"]) == 12
    assert len(by_table["T7"]) == 8
    assert len(by_table["T8"]) == 3
    report(2, "all 20 census rows, 12 surgery + 8 cover + 3 triad routes agree")


# -- criterion 3: family formulas ----------------------------------------------

def _random_slopes(rng, count, qmax=12, pmax=400, nonzero=True):
    out = []
    while len(out) < count:
        p = rng.randint(-pmax, pmax)
        q = rng.randint(1, qmax)
        if (nonzero and p == 0) or math.gcd(abs(p), q) != 1:
            continue
        out.append(Slope(p, q))
    return out


def test_criterion_3_family_formulas(ds):
    rng = random.Random(SEED)
    checked = 0
    for n in range(1, 101):
        slopes = _random_slopes(rng, 200)
        tw, p33, p32 = make_twist(n), Pretzel(n, 3, -3), Pretzel(2 * n - 1, 3, 2)
        torus = parse_knot(f"T(2,{2 * n + 1})")  # an instanton L-space knot
        g = n  # genus of T(2, 2n+1)
        for s in slopes:
            p, q = s.p, s.q
            if n % 2 == 0:
                assert surgery_dim(tw, s, "trivial", ds).dim == q * n + abs(p)
            else:
                assert surgery_dim(tw, s, "trivial", ds).dim == q * n + abs(p + q)
            assert surgery_dim(p33, s, "trivial", ds).dim == 4 * q + abs(p)
            assert surgery_dim(p32, s, "trivial", ds).dim == \
                (6 * n - 1) * q + abs(p - (2 * n - 1) * q)
            expected = p if Fraction(p, q) >= 2 * g - 1 else 2 * q * (2 * g - 1) - p
            assert surgery_dim(torus, s, "trivial", ds).dim == expected
            checked += 4
    # a few L-space knots beyond the (2, odd) torus family
    for text, g in [("T(3,4)", 3), ("T(3,5)", 4), ("P(-2,3,7)", 5), ("k5_1", 11),
                    ("Cab(3,2;m(3_1))", 3)]:
        k = parse_knot(text)
        for s in _random_slopes(rng, 50):
            expected = s.p if Fraction(s.p, s.q) >= 2 * g - 1 else 2 * s.q * (2 * g - 1) - s.p
            assert surgery_dim(k, s, "trivial", ds).dim == expected
            checked += 1
    # the formulas with nonzero nu also cover the zero slope
    for n in (1, 3, 9):
        assert surgery_dim(make_twist(2 * n - 1), Slope(0, 1), "trivial", ds).dim == 2 * n
        assert surgery_dim(Pretzel(2 * n - 1, 3, 2), Slope(0, 1), "trivial", ds).dim \
            == (6 * n - 1) + (2 * n - 1)
        checked += 2
    report(3, f"{checked} family-formula dimensions match the closed forms")


# -- criterion 4: spectral-sequence table ----------------------------------------

def test_criterion_4_spectral_table(ds):
    expected = {
        "10_124": 1, "10_139": 5, "10_145": 5, "10_152": None,
        "10_153": 5, "10_154": (13, 15), "10_161": 7,
    }
    for knot, want in expected.items():
        got = branched_cover_dim(parse_knot(knot), ds).to_json()
        if want is None:
            assert got["kind"] == "interval" and got["hi"] is None, knot
        elif isinstance(want, tuple):
            assert tuple(got.get("candidates", ())) == want, knot
        else:
            assert got.get("dim") == want, knot
    t5 = check_spectral(ds)
    assert not t5.failed, [c.line() for c in t5.failed]
    noncollapse = {c.key: c.got for c in t5.cells if c.cell == "noncollapse"}
    assert set(noncollapse) == set(expected)
    for knot, status in noncollapse.items():
        if knot == "10_152":
            assert status == "open"
        else:
            assert status == "confirmed", knot
    tight = [note for note in t5.notes if "(candidate" in note]
    assert len(tight) == 1
    assert tight[0].startswith("  10_154: ")
    assert tight[0].endswith("  (candidate 15 vs 17: possible)")
    report(4, "cover dimensions (1, 5, 5, open, 5, {13,15}, 7); the strict "
              "inequality is confirmed except 10_152, with 15 vs 17 only possible")


# -- criterion 5: property suites at 10^5 ----------------------------------------

N_PROPERTY = 10**5


def _random_reduced(rng, pmax=10**4, qmin=2, qmax=10**4):
    while True:
        p = rng.randint(-pmax, pmax)
        q = rng.randint(qmin, qmax)
        if math.gcd(abs(p), q) == 1:
            return p, q


def test_criterion_5a_triad_identities(ds):
    rng = random.Random(SEED + 1)
    for _ in range(N_PROPERTY):
        p, q = _random_reduced(rng)
        s = Slope(p, q)
        t = triad(s)
        a, b = t.ab.p, t.ab.q
        c, d = t.cd.p, t.cd.q
        e, f = t.ef.p, t.ef.q
        assert (p, q) == (a + c, b + d)
        assert b * c - a * d == 1 and p * b - q * a == 1 and q * c - p * d == 1
        fl, ce = p // q, -(-p // q)
        assert fl * b <= a and a * q < p * b  # floor <= a/b < p/q
        assert p * d < c * q and c <= ce * d  # p/q < c/d <= ceil
        if f > 0:
            assert fl * f <= e <= ce * f
        else:
            assert b == d == 1 and e == 1
    report("5a", f"triad determinant/sum/ordering identities on {N_PROPERTY} slopes")


def test_criterion_5b_cf_roundtrip(ds):
    rng = random.Random(SEED + 2)
    for _ in range(N_PROPERTY):
        p, q = _random_reduced(rng)
        s = Slope(p, q)
        cf = neg_cf(s)
        assert all(a >= 2 for a in cf[1:])
        assert eval_cf(cf) == s
    for n in range(-10**4, 10**4 + 1):
        assert neg_cf(Slope(n, 1)) == [n]
    report("5b", f"continued-fraction round-trip on {N_PROPERTY} slopes "
                 "plus every integer in [-10^4, 10^4]")


def test_criterion_5c_convergent_determinants(ds):
    rng = random.Random(SEED + 3)
    for _ in range(N_PROPERTY):
        p, q = _random_reduced(rng)
        cf = neg_cf(Slope(p, q))
        pairs = [(1, 0), (cf[0], 1)]  # the convergents (p_i, q_i), i = -1, 0, ..., n
        for a in cf[1:]:
            (p2, q2), (p1, q1) = pairs[-2], pairs[-1]
            pairs.append((a * p1 - p2, a * q1 - q2))
        prev_q = 0
        for i in range(1, len(pairs)):
            (p0, q0), (p1, q1) = pairs[i - 1], pairs[i]
            assert q1 * p0 - p1 * q0 == 1
            if i >= 2:
                assert q1 > prev_q
            prev_q = q1
    report("5c", f"convergent determinant identity on {N_PROPERTY} slopes")


TABLE_KNOTS = ["3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3", "7_1", "7_2",
               "7_3", "7_4", "8_1", "8_2", "8_3", "8_4", "8_5", "8_6", "8_8",
               "8_19", "8_20"]


def _invariants_by_name(ds):
    out = {}
    for name in TABLE_KNOTS:
        b = deduce(parse_knot(name), ds)
        out[name] = (b.nu.value(), b.r0.value())
    return out


def test_criterion_5d_parity_and_5e_mirror(ds):
    rng = random.Random(SEED + 4)
    inv = _invariants_by_name(ds)
    for _ in range(N_PROPERTY):
        name = rng.choice(TABLE_KNOTS)
        nu, r0 = inv[name]
        p, q = _random_reduced(rng, pmax=10**3, qmin=1, qmax=100)
        if p == 0:
            continue
        d = q * r0 + abs(p - q * nu)
        assert d % 2 == abs(p) % 2  # parity: d = |p| (mod 2)
        d_mirror = q * r0 + abs(-p - q * (-nu))
        assert d_mirror == d  # mirror symmetry of the closed form
    # the same two facts through the public interface on a sample
    for _ in range(500):
        name = rng.choice(TABLE_KNOTS)
        p, q = _random_reduced(rng, pmax=200, qmin=1, qmax=20)
        if p == 0:
            continue
        k, s = parse_knot(name), Slope(p, q)
        r = surgery_dim(k, s, "trivial", ds)
        assert r.dim % 2 == abs(p) % 2
        assert surgery_dim(mirror(k), -s, "trivial", ds).dim == r.dim
    report("5d/5e", f"dimension parity and mirror symmetry on {N_PROPERTY} pairs")


def test_criterion_5f_triad_splitting(ds):
    rng = random.Random(SEED + 5)
    inv = _invariants_by_name(ds)
    for _ in range(N_PROPERTY):
        name = rng.choice(TABLE_KNOTS)
        nu, r0 = inv[name]
        p, q = _random_reduced(rng, pmax=10**3, qmin=2, qmax=10**3)
        if abs(p) == 1:
            continue  # the corners would touch the zero surgery
        s = Slope(p, q)
        t = triad(s)

        def f(sl):
            return sl.q * r0 + abs(sl.p - sl.q * nu)

        assert f(s) == f(t.ab) + f(t.cd)
    report("5f", f"triad splitting dim(p/q) = dim(a/b) + dim(c/d) on {N_PROPERTY} slopes")


def test_criterion_5g_bundle_bounds(ds):
    checked = 0
    exprs = [parse_knot(n) for n in ds.knot_names()]
    exprs += [make_twist(n) for n in range(1, 101)]
    exprs += [Pretzel(n, 3, -3) for n in range(-50, 51)]
    exprs += [Pretzel(2 * n - 1, 3, 2) for n in range(1, 51)]
    exprs += [mirror(parse_knot(n)) for n in TABLE_KNOTS]
    for k in exprs:
        b = deduce(k, ds)
        if b.nu.is_exact and b.tau.is_exact:
            assert abs(2 * b.tau.value() - b.nu.value()) <= 1, b.knot
            checked += 1
        if b.nu.is_exact and b.r0.is_exact:
            nu, r0 = b.nu.value(), b.r0.value()
            assert r0 >= abs(nu) and (r0 - nu) % 2 == 0, b.knot
            delta = b.delta.value()
            assert delta >= 0 and delta % 2 == 0, b.knot
            checked += 1
    assert checked > 300
    report("5g", f"|2 tau - nu| <= 1, r0 >= |nu|, delta even >= 0 on {checked} exact bundles")


# -- criterion 6: homeomorphism cross-checks --------------------------------------

def test_criterion_6_homeo_identities(ds):
    rep = check_identities(ds)
    assert not rep.failed, [c.line() for c in rep.failed]
    sweep = rep.cells[-1]
    for n in range(1, 51):
        r = verify_identity((make_twist(2 * n - 1), Slope(-1, 1)),
                            (parse_knot("3_1"), reduce(-1, n)), ds)
        assert r.status == "equal" and r.lhs_dim.dim == 2 * n - 1, n
    report(6, f"identity sweep ({sweep.got}) plus the twist chain at every n <= 50")


# -- criterion 7: oracle equivalence ------------------------------------------------

def test_criterion_7_recursive_oracle(ds):
    rng = random.Random(SEED + 7)

    def oracle(nu, r0, s, memo):
        """Split along surgery triads down to integer slopes and 1/0."""
        key = (s.p, s.q)
        if key in memo:
            return memo[key]
        if s.is_infinite:
            d = 1
        elif s.is_integer:
            d = r0 + abs(s.p - nu)
        else:
            t = triad(s)
            d = oracle(nu, r0, t.ab, memo) + oracle(nu, r0, t.cd, memo)
        memo[key] = d
        return d

    inv = _invariants_by_name(ds)
    inv["0_1"] = (0, 0)
    checked = 0
    for name, (nu, r0) in inv.items():
        memo = {}
        k = parse_knot(name if name != "0_1" else "U")
        for _ in range(10**3):
            p, q = _random_reduced(rng, pmax=10**3, qmin=1, qmax=50)
            if p == 0:
                continue
            s = Slope(p, q)
            assert oracle(nu, r0, s, memo) == surgery_dim(k, s, "trivial", ds).dim, (name, s)
            checked += 1
    report(7, f"recursive triad oracle equals the closed form on {checked} "
              "(knot, slope) pairs with q <= 50")
