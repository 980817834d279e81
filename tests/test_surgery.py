import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isharp import datasets
from isharp.invariants import Bundle, deduce
from isharp.knots import Cable, Named, Pretzel, Unknot, format_knot, mirror, parse_knot
from isharp.slopes import neg_cf, triad
from isharp.dimension import (
    BranchedCover,
    Census,
    DimensionError,
    DimResult,
    Lens,
    Surgery,
    _abs_range,
    _formula_dim,
    branched_cover_dim,
    census_dim,
    lens_dim,
    manifold_dim,
    parse_manifold,
    surgery_dim,
    triad_bounds,
    zero_surgery_dim,
)
from isharp.surgery import homeo_identities, integer_identities
from isharp.values import (INFINITY, DatasetError, Inconsistency, IntegrityError, Slope, Val,
                           parse_slope, reduce)
from isharp.verify import verify_identity, verify_target


@pytest.fixture(scope="module")
def ds():
    return datasets.load()


def dim(text, slope_text, ds, bundle="trivial"):
    return surgery_dim(parse_knot(text), parse_slope(slope_text), bundle, ds)


# --- the closed form ----------------------------------------------------------

def test_surgery_dim_table_values(ds):
    assert dim("3_1", "-5/1", ds).dim == 5
    assert dim("P(-2,3,7)", "35/2", ds).dim == 35
    assert dim("5_1", "-3/1", ds).dim == 3  # slope = nu gives r0
    assert dim("6_1", "1/1", ds).dim == 5


def test_surgery_dim_euler_and_grading(ds):
    r = dim("6_2", "-9/1", ds)
    assert (r.dim, r.euler, tuple(r.to_json()["graded"])) == (13, 9, (11, 2))
    r = dim("4_1", "1/2", ds)
    assert (r.dim, r.euler) == (5, 1)


def test_surgery_dim_infinite_slope(ds):
    r = dim("8_5", "inf", ds)
    assert (r.dim, r.euler) == (1, 1)


def test_surgery_dim_interval_inputs(ds):
    # r0 of 10_139 is only pinned to {7, 9}
    r = dim("10_139", "13/1", ds)
    assert r.values() == (13, 15)
    with pytest.raises(DimensionError):
        dim("7_7", "3/1", ds)  # r0 unknown


def test_zero_surgery_cases(ds):
    assert zero_surgery_dim(parse_knot("6_1"), "trivial", ds).dim == 6
    assert zero_surgery_dim(parse_knot("6_1"), "mu", ds).dim == 4
    assert zero_surgery_dim(parse_knot("4_1"), "mu", ds).dim == 2
    assert zero_surgery_dim(parse_knot("4_1"), "trivial", ds).values() == (2, 4)
    # V-shaped with nu != 0: both bundles agree
    assert zero_surgery_dim(parse_knot("3_1"), "trivial", ds).dim == 2
    r = zero_surgery_dim(parse_knot("Tw(8)"), "mu", ds)  # shape unknown, no pin
    assert r.values() is None and r.state.hi is None


def test_lens_dim(ds):
    assert lens_dim(9, 2).dim == 9
    assert lens_dim(5, 1).dim == 5
    assert lens_dim(2, 1).dim == 2
    assert tuple(lens_dim(9, 2).to_json()["graded"]) == (9, 0)
    with pytest.raises(ValueError):
        lens_dim(2, 2)


def test_lens_agrees_with_unknot_surgery(ds):
    for p, q in [(5, 1), (9, 2), (35, 4), (7, 3)]:
        assert dim("U", f"{p}/{q}", ds).dim == p == lens_dim(p, q).dim


def test_branched_cover_dim(ds):
    assert branched_cover_dim(parse_knot("9_49"), ds).dim == 25
    assert branched_cover_dim(parse_knot("10_139"), ds).dim == 5
    assert branched_cover_dim(parse_knot("10_154"), ds).values() == (13, 15)
    r = branched_cover_dim(parse_knot("10_152"), ds)
    assert r.values() is None and (r.state.lo, r.state.hi, r.state.parity) == (11, None, 1)
    # thin knots: dimension equals the determinant
    assert branched_cover_dim(parse_knot("8_21"), ds).dim == 15


def test_a_sum_of_alternating_knots_and_a_pretzel_have_their_determinant_covers(ds):
    # a sum of alternating knots alternates, so its cover has dimension det
    cover = lambda text: branched_cover_dim(parse_knot(text), ds).to_json()
    assert cover("3_1 # 4_1") == {"kind": "exact", "euler": 15, "dim": 15, "graded": [15, 0]}
    assert cover("3_1 # 3_1") == {"kind": "exact", "euler": 9, "dim": 9, "graded": [9, 0]}
    # 8_19 is not alternating: only the euler bound of det 9 remains
    interval = lambda lo: {"kind": "interval", "euler": lo, "lo": lo, "hi": None, "parity": 1}
    assert cover("3_1 # 8_19") == interval(9)
    # K12n242 = P(-2,3,7): det |-6 + 21 - 14| = 1, its strands of both signs
    assert cover("K12n242") == cover("P(-2,3,7)") == interval(1)


def test_a_mirror_has_the_cover_dimension_of_its_knot(ds, monkeypatch):
    # the cover of m(K) is the cover of K with its orientation reversed;
    # a registered surgery description runs mirrored, at the negated slope
    from isharp import dimension
    mirrored = []

    def counting(k):
        mirrored.append(k)
        return mirror(k)

    monkeypatch.setattr(dimension, "mirror", counting)
    texts = [*ds.table("T5"), *(row.payload["knot"] for row in ds.table("T7").values())]
    assert len(texts) == 15
    for text in texts:
        k = parse_knot(text)
        assert branched_cover_dim(mirror(k), ds) == branched_cover_dim(k, ds), text
    # the six T5 knots that a registered description answers take it mirrored
    assert len(mirrored) == 6


def test_noncollapse_compares_every_admitted_dimension_with_khbar():
    from isharp.verify import _noncollapse
    assert _noncollapse(DimResult.exact(15, 1), 17) == "confirmed"
    assert _noncollapse(DimResult.of_candidates([13, 15], 1), 17) == "confirmed"
    assert _noncollapse(DimResult.exact(17, 1), 17) == "collapses"
    assert _noncollapse(DimResult.of_candidates([17, 19], 1), 17) == "collapses"
    assert _noncollapse(DimResult.of_candidates([15, 17], 1), 17) == "open"
    # an interval (more than 64 values, or no upper end) answers by its ends
    for lo, hi, khbar, answer in ((11, None, 17, "open"), (101, None, 17, "collapses"),
                                  (1, 1001, 17, "open"), (101, 1001, 17, "collapses"),
                                  (1, 1001, 1003, "confirmed")):
        r = DimResult.of_interval(lo, hi, 1)
        assert r.values() is None and _noncollapse(r, khbar) == answer, (lo, hi, khbar)
    # a bounded interval of at most 64 values is a candidate set
    assert _noncollapse(DimResult.of_interval(19, 25, 1), 17) == "collapses"


def test_interval_branch_reaches_parity_shifted_minimum():
    # 13 x 31 (nu, r0) pairs exceed the enumeration cap, so the interval
    # branch runs; with nu odd and slope 14, neither floor nor ceil of
    # p/q is admissible, yet nu = r0 = 15 gives dimension 16
    b = Bundle("K", nu=Val(7, 31, 1), r0=Val(15, 75, 1))
    assert _abs_range(14, 1, b.nu) == (1, 17)
    r = _formula_dim(b, Slope(14, 1))
    assert min(r.values()) == 16


@st.composite
def _bounded_nu(draw):
    lo = draw(st.integers(-12, 12))
    hi = draw(st.integers(lo, lo + 16))
    parity = draw(st.sampled_from([None, 0, 1]))
    if parity is not None and lo == hi and lo % 2 != parity:
        hi += 1
    return Val(lo, hi, parity)


@given(_bounded_nu(), st.integers(-40, 40), st.integers(1, 6))
@settings(max_examples=400, deadline=None)
def test_abs_range_lower_bound_is_the_exact_minimum(nu, p, q):
    admissible = [n for n in range(int(nu.lo), int(nu.hi) + 1) if nu.contains(n)]
    assert _abs_range(p, q, nu)[0] == min(abs(p - q * n) for n in admissible)


# digit counts of the pairs and slopes the closed-form property draws
_DIGITS = st.sampled_from([1, 2, 5, 30, 35, 40])


@st.composite
def _one_pair_steps(draw):
    """A bundle whose states admit one (nu, r0) pair, up to 40 digits
    wide, a finite slope and a bundle, "mu" only at slope 0.  One state
    may admit more values, which the other's parity or r0 >= |nu| rules
    out."""
    digits = draw(_DIGITS)
    n = draw(st.integers(-10 ** digits, 10 ** digits))
    r = abs(n) + 2 * draw(st.integers(0, 4) | st.integers(0, 10 ** draw(_DIGITS)))
    nu, r0 = Val.exact(n), Val.exact(r)
    widen = draw(st.sampled_from(["none", "nu", "r0"]))
    if widen == "r0":  # r0's neighbours have the other parity
        r0 = Val(r - draw(st.integers(0, 1)), r + draw(st.integers(0, 1)))
    elif widen == "nu":  # so do nu's, and a nu beyond r0 = |n| breaks r0 >= |nu|
        out = draw(st.integers(0, 3)) if r == abs(n) else 0
        lo = n - draw(st.integers(0, 1)) - (out if n <= 0 else 0)
        hi = n + draw(st.integers(0, 1)) + (out if n >= 0 else 0)
        nu = Val(lo, hi)
    if draw(st.booleans()):
        return Bundle("K", nu=nu, r0=r0), Slope(0, 1), draw(st.sampled_from(["trivial", "mu"]))
    q = draw(st.integers(1, 10 ** draw(_DIGITS)))
    p = draw(st.integers(1, 10 ** draw(_DIGITS))) * draw(st.sampled_from([-1, 1]))
    return Bundle("K", nu=nu, r0=r0), reduce(p, q), "trivial"


@pytest.fixture(scope="module")
def served():
    """A loaded dataset whose deduce cache a test may fill by hand."""
    return datasets.load()


def _attempt(f, *args):
    try:
        return f(*args)
    except ValueError as e:  # every isharp error, compared by type and message
        return type(e), str(e)


@given(step=_one_pair_steps())
@settings(max_examples=400, deadline=None)
def test_the_unchecked_closed_form_equals_the_checked_build(served, step):
    # surgery_dim builds a one-pair result without the checks of exact();
    # those checks must pass on it, at slope 0 too when nu is exact and
    # non-zero, and every other slope-0 bundle is zero_surgery_dim's
    b, s, bundle = step
    (n, r), = b.pairs
    k = Named("K")
    served.deduce_cache[format_knot(k)] = b
    result = _attempt(surgery_dim, k, s, bundle, served)
    if s.p == 0 and not (n and b.nu.is_exact):
        assert result == _attempt(zero_surgery_dim, k, bundle, served)
        return
    checked = DimResult.exact(s.q * r + abs(s.p - s.q * n), s.p)
    assert type(result) is DimResult and result == checked
    assert result.to_json() == checked.to_json()


def _differential_knots(ds) -> list:
    """Every KNOT name and ALIAS code, family knots and L-space cables,
    and the mirror of each."""
    texts = [*ds.knot_names(), *ds.table("ALIAS"),
             "T(3,4)", "T(3,5)", "T(4,7)", "T(5,11)",
             "Cab(3,2;m(3_1))", "Cab(5,2;T(2,3))", "Cab(7,2;T(2,5))",
             "Cab(13,2;Cab(3,2;m(3_1)))", "Cab(19,2;P(-2,3,7))"]
    for n in (1, 2, 3, 4, 7, 10, 25):
        texts += [f"T(2,{2 * n + 1})", f"Tw({n})", f"P({2 * n - 1},3,2)", f"P({n},3,-3)"]
    knots = [parse_knot(text) for text in texts]
    return knots + [mirror(k) for k in knots]


@pytest.mark.parametrize("slope, bundle", [
    (Slope(0, 1), "trivial"), (Slope(0, 1), "mu"), (Slope(1, 1), "trivial"),
    (Slope(-1, 1), "trivial"), (Slope(7, 3), "trivial"), (Slope(-31, 6), "trivial"),
    (reduce(4 * 10 ** 39 + 1, 3 * 10 ** 39 + 7), "trivial")])
def test_surgery_dim_is_the_general_path(ds, slope, bundle):
    # surgery_dim answers one-pair bundles itself; zero_surgery_dim at
    # slope 0 and _formula_dim elsewhere answer every bundle
    for k in _differential_knots(ds):
        general = (lambda: zero_surgery_dim(k, bundle, ds)) if slope.p == 0 else \
            (lambda: _formula_dim(deduce(k, ds), slope, k))
        got, want = _attempt(surgery_dim, k, slope, bundle, ds), _attempt(general)
        assert type(got) is type(want) and got == want, format_knot(k)


def _python_calls(f, *args) -> list[str]:
    """The Python functions one call of f runs, f included, in call order."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        f(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_a_warm_fractional_step_runs_four_python_calls(ds):
    # a warm one-pair surgery_dim is one probe of the deduce cache and the
    # closed form in its own body, at slope 0 too when nu != 0; triad
    # builds its record and its slopes in place, and the infinite slope
    # answers the one shared 3-sphere result
    k, s = parse_knot("3_1"), Slope(7, 3)
    for slope in (s, Slope(0, 1)):
        surgery_dim(k, slope, "trivial", ds)
        assert _python_calls(surgery_dim, k, slope, "trivial", ds) == ["surgery_dim", "deduce"]
    assert _python_calls(triad, s) == ["triad"]
    assert _python_calls(neg_cf, s) == ["neg_cf"]
    assert _python_calls(surgery_dim, k, INFINITY, "trivial", ds) == ["surgery_dim"]


def test_census_dim_rows(ds):
    assert census_dim(5, ds).dim == 5
    assert census_dim(7, ds).values() == (10, 12)
    assert census_dim(0, ds).dim == 25
    for i in range(20):
        r = census_dim(i, ds)
        stored = ds.table("T2")[str(i)].payload["dim"]
        if isinstance(stored, list):
            assert list(r.values()) == stored
        else:
            assert r.dim == stored


def test_manifold_dim_answers_each_census_manifold_as_census_dim_does(ds):
    for i in range(20):
        assert manifold_dim(Census(i), ds) == census_dim(i, ds), i
        assert manifold_dim(parse_manifold(f"census({i})"), ds) == census_dim(i, ds), i


def test_triad_bounds(ds):
    assert triad_bounds(DimResult.exact(5, 5), DimResult.exact(7, 5), 10).values() == (10, 12)
    assert triad_bounds(DimResult.exact(3, 3), DimResult.exact(15, 15), 18).dim == 18
    assert triad_bounds(DimResult.exact(5, 5), DimResult.exact(25, 25), 30).dim == 30
    with pytest.raises(Inconsistency):
        triad_bounds(DimResult.exact(2, 2), DimResult.exact(3, 3), 9)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda ds: Surgery(Unknot(), Slope(0, 1), "x"), ValueError, "bad bundle 'x'",
                 id="unknown-bundle"),
    pytest.param(lambda ds: Surgery(Unknot(), Slope(1, 1), "mu"), ValueError,
                 "the mu bundle is only meaningful at slope 0", id="mu-bundle-off-slope-0"),
    pytest.param(lambda ds: DimResult.of_candidates([], 1), Inconsistency,
                 "empty candidate set", id="no-candidates"),
    pytest.param(lambda ds: Val(0, 2).value(), ValueError, "value of non-exact [0,2]",
                 id="value-of-an-interval"),
    pytest.param(lambda ds: verify_target("T9", ds), DatasetError,
                 "nothing to verify for 'T9'", id="unknown-verify-target"),
    pytest.param(lambda ds: triad_bounds(DimResult.of_interval(1, None, 1),
                                         DimResult.exact(1, 1), 1),
                 DimensionError, "triad propagation needs exact or candidate inputs",
                 id="triad-of-an-interval"),
])
def test_library_guards_refuse_bad_arguments(call, error, message, ds):
    # the CLI never passes these, so only a library caller meets them
    with pytest.raises(error) as e:
        call(ds)
    assert (type(e.value), str(e.value)) == (error, message)


def test_manifold_parsing_roundtrip(ds):
    for text in ["surg(6_2; -9/1)", "surg(4_1; 0/1; mu)", "lens(9,2)",
                 "dcover(10_154)", "census(7)", "surg(Cab(3,2;m(3_1)); 19/1)",
                 "surg(Cab(3,2;3_1 # 4_1); 0/1; mu)"]:
        m = parse_manifold(text)
        assert str(m) == text
    for text in ["surg(6_2; -9/1)", "surg(4_1; 0/1; mu)", "lens(9,2)",
                 "dcover(10_154)", "census(7)"]:
        manifold_dim(parse_manifold(text), ds)  # computable


def test_cable_surgery_parses_and_answers(ds):
    m = parse_manifold("surg(Cab(3,2;m(3_1)); 19)")
    assert m == Surgery(Cable(3, 2, parse_knot("m(3_1)")), Slope(19, 1))
    r = manifold_dim(m, ds)
    assert (r.dim, r.euler) == (19, 19)


def test_manifold_parser_refuses_malformed_and_opaque_input():
    for text in ["opaque(X; 5)", "surg(3_1; 5/1", "surg(3_1; 5/1) extra",
                 "surg(3_1; 0/1; nu)", "surg(3_1)", "lens(9)", "census(x)", ""]:
        with pytest.raises(ValueError):
            parse_manifold(text)


# --- homeomorphism identities ---------------------------------------------------

def test_homeo_two_bridge_odd(ds):
    out = homeo_identities(parse_knot("TB(-3,-4)"), Slope(-9, 1), ds)
    assert any(str(s) == "9/2" and "5_2" in str(k) for k, s in out)


def test_homeo_two_bridge_even(ds):
    # one positive clasp twist region: -1-surgery matches -1/n on the trefoil
    out = homeo_identities(parse_knot("TB(2,4)"), Slope(-1, 1), ds)
    assert any(str(s) == "-1/2" for _, s in out)


def test_homeo_pretzel_shift(ds):
    out = homeo_identities(Pretzel(4, 3, -3), Slope(2, 1), ds)
    assert (Pretzel(1, 3, -3), Slope(-2, 1)) in out


@pytest.mark.parametrize("name, code, shifted", [
    ("6_1", "P(1,3,-3)", "P(4,3,-3)"), ("m(6_1)", "m(P(1,3,-3))", "P(2,3,-3)"),
    ("8_20", "P(2,3,-3)", "P(5,3,-3)"), ("m(8_20)", "m(P(2,3,-3))", "P(1,3,-3)")])
def test_homeo_pretzel_shift_reads_every_presentation(name, code, shifted, ds):
    # the identities of a knot do not depend on how it is written
    for slope in (Slope(2, 1), Slope(-2, 1)):
        out = homeo_identities(parse_knot(name), slope, ds)
        assert out == homeo_identities(parse_knot(code), slope, ds), slope
    assert homeo_identities(parse_knot(name), Slope(-2, 1), ds) == [(parse_knot(shifted), Slope(2, 1))]


def test_homeo_cable(ds):
    c = Cable(3, 2, parse_knot("m(3_1)"))
    out = homeo_identities(c, Slope(5, 1), ds)
    assert (parse_knot("m(3_1)"), Slope(5, 4)) in out
    out = homeo_identities(parse_knot("m(3_1)"), Slope(5, 4), ds)
    assert (c, Slope(5, 1)) in out


def test_verify_identity_reports(ds):
    r = verify_identity((parse_knot("6_2"), Slope(-9, 1)),
                        (parse_knot("m(5_2)"), Slope(9, 2)), ds)
    assert r.status == "equal" and r.lhs_dim.dim == 13
    r = verify_identity((parse_knot("7_4"), Slope(1, 1)),
                        (parse_knot("m(5_2)"), Slope(1, 2)), ds)
    assert r.status == "equal" and r.lhs_dim.dim == 7
    r = verify_identity((parse_knot("3_1"), Slope(3, 1)),
                        (parse_knot("3_1"), Slope(5, 1)), ds)
    assert r.status == "contradiction"


def test_check_spectral_computes_each_cover_once(ds, monkeypatch):
    from isharp import verify
    calls = []

    def counting(k, dataset):
        calls.append(k)
        return branched_cover_dim(k, dataset)

    monkeypatch.setattr(verify, "branched_cover_dim", counting)
    report = verify.check_spectral(ds)
    assert len(calls) == len(ds.table("T5")) == 7
    assert report.passed == len(report.cells) == 14
    # the pretty report prints the spectral notes from the same covers
    from isharp.cli import main
    calls.clear()
    assert main(["--pretty", "verify", "T5"]) == 0
    assert len(calls) == 7


def test_rules_and_identities_pin_every_t1_key_but_the_chain(ds, monkeypatch):
    # without the chain through P(5,5,-3), rederive_r0 pins the other 17
    # T1 keys, also when 6_2 loses its two-bridge alias: the rules still
    # reach 6_2 through its pretzel alias P(-1,-3,-2)
    from isharp import verify
    monkeypatch.setattr(verify, "_chain_r0", lambda view, inv_6_2: {})
    for dropped in ((), ("ALIAS", "TB(-3,-4)")):
        entries = [e for e in ds.entries if (e.table, e.key) != dropped]
        report = verify.rederive_r0(datasets.Dataset(entries))
        failed = [(c.key, c.got) for c in report.failed]
        assert failed == [(k, "None") for k in ("6_3", "8_6", "8_8")], dropped
        assert report.passed == 17


def test_the_chain_through_p553_is_forced_by_the_solver(ds, monkeypatch):
    # 6_2's dimension 5 at -1 and 8_8's floor at 1/2 leave three (nu, r0)
    # of P(5,5,-3), all V-shaped (nu != 0); the W candidate (0, 4) gives
    # 9 at 1/2, below the floor 13.  All three give one dimension at 1,
    # -1/2 and 1/2: that of -1-surgery on 6_3, 8_6 and 8_8
    from isharp import verify
    solve, survivors = verify.solve_pairs, []

    def recording(b, known):
        survivors.append(solve(b, known))
        return survivors[-1]

    monkeypatch.setattr(verify, "solve_pairs", recording)
    view = ds.untabulated()
    b = deduce(parse_knot("6_2"), view)
    r0s = verify._chain_r0(view, (b.nu.value(), b.r0.value()))
    assert survivors == [[(-3, 3), (-2, 4), (-1, 5)]]
    dims = {name: r0 + abs(-1 - nu) for name, (nu, r0) in r0s.items()}
    assert dims == {"6_3": 7, "8_6": 11, "8_8": 13}
    for name, d in dims.items():
        assert dim(name, "-1", ds).dim == d, name
        assert r0s[name] == (ds.table("T1")[name].payload["nu"],
                             ds.table("T1")[name].payload["r0"]), name
    # an r0 of 6_2 that no -1-surgery dimension admits names the route
    with pytest.raises(IntegrityError, match=r"^T1 route: -1-surgery on 6_2: dimension -1 "
                                             "incompatible with euler 1$"):
        verify._chain_r0(view, (-1, -1))


def test_t1_reads_the_identities_without_the_sweep_bound(ds, monkeypatch):
    # each T1 knot's identities come with their slopes, so the sweep's
    # parameter bound does not limit the T1 route
    from isharp import verify
    monkeypatch.setattr(verify, "IDENTITY_BOUND", 0)
    report = verify.rederive_r0(ds)
    assert (report.passed, report.failed) == (20, [])


def test_integer_identities_list_every_family_with_its_slope(ds):
    # 6_1 is TB(-2,4) and P(1,3,-3): two twist-region identities, then
    # the pretzel shift; a cable has its two at pq - 1 and pq + 1
    def listed(text):
        return [(n, str(k), str(s)) for n, k, s in integer_identities(parse_knot(text), ds)]
    assert listed("6_1") == [(1, "m(3_1)", "-1/2"), (-1, "4_1", "-1/2"),
                             (-2, "P(4,3,-3)", "2/1"), (2, "P(-2,3,-3)", "-2/1")]
    assert listed("Cab(5,2;T(2,3))") == [(9, "T(2,3)", "9/4"), (11, "T(2,3)", "11/4")]
    for text in ("6_1", "7_3", "Cab(5,2;T(2,3))"):
        for n, k, s in integer_identities(parse_knot(text), ds):
            assert (k, s) in homeo_identities(parse_knot(text), Slope(n, 1), ds)


def test_twist_chain(ds):
    for n in range(1, 101):
        r = verify_identity((parse_knot(f"Tw({2 * n - 1})"), Slope(-1, 1)),
                            (parse_knot("3_1"), reduce(-1, n)), ds)
        assert r.status == "equal" and r.lhs_dim.dim == 2 * n - 1


# --- structural properties of the closed form -----------------------------------

TABLE_KNOTS = ["3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3", "7_1", "7_2",
               "7_3", "7_4", "8_1", "8_2", "8_3", "8_4", "8_5", "8_6", "8_8",
               "8_19", "8_20"]

slope_strategy = st.tuples(
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=1, max_value=30),
).filter(lambda pq: pq[0] != 0 and math.gcd(abs(pq[0]), pq[1]) == 1)


@given(st.sampled_from(TABLE_KNOTS), slope_strategy)
@settings(max_examples=300, deadline=None)
def test_parity_and_mirror_symmetry(name, pq):
    ds = datasets.default()
    s = Slope(*pq)
    k = parse_knot(name)
    r = surgery_dim(k, s, "trivial", ds)
    assert r.dim % 2 == abs(s.p) % 2
    assert r.dim >= abs(s.p)
    rm = surgery_dim(mirror(k), -s, "trivial", ds)
    assert rm.dim == r.dim and rm.euler == r.euler


@given(st.sampled_from(TABLE_KNOTS), slope_strategy.filter(lambda pq: pq[1] >= 2))
@settings(max_examples=300, deadline=None)
def test_triad_splitting(name, pq):
    ds = datasets.default()
    s = Slope(*pq)
    if abs(s.p) == 1:
        return  # the split needs both corners away from the zero surgery
    t = triad(s)
    k = parse_knot(name)
    b = deduce(k, ds)
    nu, r0 = b.nu.value(), b.r0.value()

    def formula(sl):
        return sl.q * r0 + abs(sl.p - sl.q * nu)

    assert formula(s) == formula(t.ab) + formula(t.cd)


@given(st.sampled_from(["T(2,3)", "T(2,5)", "T(3,4)", "T(3,5)", "P(-2,3,7)", "k5_1"]),
       slope_strategy)
@settings(max_examples=200, deadline=None)
def test_lspace_piecewise_form(name, pq):
    from isharp.knots import genus
    ds = datasets.default()
    s = Slope(*pq)
    k = parse_knot(name)
    g = genus(k, ds).value()
    expected = s.p if Fraction(s.p, s.q) >= 2 * g - 1 else 2 * s.q * (2 * g - 1) - s.p
    assert surgery_dim(k, s, "trivial", ds).dim == expected
