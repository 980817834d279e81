import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isharp import datasets, invariants, knots
from isharp.invariants import deduce, lspace_cable, lspace_knot_invariants, sl_upper_bound
from isharp.knots import KnotError, Unknot, format_knot, make_sum, mirror, parse_knot
from isharp.values import Inconsistency, Val


@pytest.fixture(scope="module")
def ds():
    return datasets.load(check=False)


def bundle(text, ds, **kw):
    return deduce(parse_knot(text), ds, **kw)


# --- deduce -----------------------------------------------------------------

def test_deduce_8_19(ds):
    b = bundle("8_19", ds)
    assert (b.nu, b.tau, b.r0) == (Val.exact(5), Val.exact(3), Val.exact(5))


def test_deduce_7_7_interval(ds):
    b = bundle("7_7", ds)
    assert b.tau == Val.exact(0)
    assert (b.nu.lo, b.nu.hi) == (-1, 1) and not b.nu.is_exact


def test_deduce_mirror_pair_sum_is_slice(ds):
    b = bundle("T(2,3) # m(T(2,3))", ds)
    assert b.nu == Val.exact(0)
    assert b.tau == Val.exact(0)
    assert b.shape == "W"


def test_deduce_twist_five(ds):
    b = bundle("Tw(5)", ds)
    assert b.nu == Val.exact(-1)
    assert b.r0 == Val.exact(5)


def test_deduce_twist_family_even(ds):
    for n in (8, 10, 40):
        b = bundle(f"Tw({n})", ds)
        assert b.nu == Val.exact(0) and b.r0 == Val.exact(n)


def test_deduce_pretzel_families(ds):
    b = bundle("P(9,3,-3)", ds)
    assert (b.nu, b.r0, b.shape) == (Val.exact(0), Val.exact(4), "W")
    b = bundle("P(7,3,2)", ds)  # n = 4
    assert (b.nu, b.r0) == (Val.exact(7), Val.exact(23))


def test_deduce_mirror_rule(ds):
    for text in ["3_1", "5_2", "7_3", "8_19", "Tw(7)", "P(5,3,2)"]:
        b = bundle(text, ds)
        m = bundle(f"m({text})", ds)
        assert m.nu == -b.nu and m.tau == -b.tau and m.r0 == b.r0


def test_round_cap_is_traced(monkeypatch):
    # 3_1 needs two R14 rounds: one narrows, the next confirms the fixed point
    capped = "(no fixed point after 1 rounds)"
    b = deduce(parse_knot("3_1"), datasets.load(check=False))
    assert all(capped not in t.detail for t in b.trace)
    monkeypatch.setattr(invariants, "TIGHTEN_ROUNDS", 1)
    short = deduce(parse_knot("3_1"), datasets.load(check=False))
    assert (short.nu, short.tau, short.r0) == (b.nu, b.tau, b.r0)
    assert short.trace[-1].rule == "R14" and short.trace[-1].detail == capped
    assert short.trace[:-1] == b.trace


def test_deduce_trace_has_rules_and_statements(ds):
    b = bundle("8_19", ds)
    rules = {t.rule for t in b.trace}
    assert rules & {"R1", "R8"}
    assert all(t.statement for t in b.trace)


def test_deduce_sum_intervals(ds):
    b = bundle("3_1 # 3_1", ds)
    assert b.tau == Val.exact(-2)
    assert b.nu == Val.exact(-3)  # interval [-3,-1] sharpened by |2tau - nu| <= 1
    b = bundle("3_1 # 4_1", ds)
    assert b.tau == Val.exact(-1)
    # the shape of 4_1 is unknown, so no absorption: only [-2, -1] follows
    assert (b.nu.lo, b.nu.hi) == (-2, -1)


def test_deduce_w_absorption(ds):
    b = bundle("8_19 # 6_1", ds)  # 6_1 is W-shaped
    assert b.nu == Val.exact(5)
    assert b.tau == Val.exact(3)


def test_deduce_hands_out_an_immutable_bundle(ds):
    b = bundle("m(5_2) # 8_19", ds)
    assert isinstance(b.trace, tuple) and b.trace
    with pytest.raises(AttributeError):
        b.nu = Val.exact(0)
    with pytest.raises(AttributeError):
        b.trace.append(b.trace[0])
    assert bundle("m(5_2) # 8_19", ds) is b  # the cached bundle
    fresh = deduce(parse_knot("m(5_2) # 8_19"), datasets.load(check=False))
    assert fresh is not b and fresh == b and fresh.to_json() == b.to_json()


def test_inconsistent_input_raises(ds):
    import copy
    bad = copy.deepcopy(ds.knot_record("8_19"))
    # pretend the table said nu = -5: the torus rule must then contradict it
    from isharp.datasets import InstantonFields
    bad = bad.replace(instanton=InstantonFields(nu=Val.exact(-5)))
    ds2 = datasets.load(check=False)
    ds2._knots["8_19"] = bad
    with pytest.raises(Inconsistency):
        deduce(parse_knot("8_19"), ds2)


def test_rederive_matches_stored_for_every_small_knot(ds):
    for key, entry in ds.table("T3").items():
        b = bundle(key if key != "0_1" else "U", ds, use_stored=False)
        nu, tau = entry.payload["nu"], entry.payload["tau"]
        assert b.tau == Val.exact(tau), key
        if nu is None:
            assert (b.nu.lo, b.nu.hi) == (-1, 1), key
        else:
            assert b.nu == Val.exact(nu), key


# --- direct operations --------------------------------------------------------

def test_sl_upper_bound(ds):
    bound, violation = sl_upper_bound(parse_knot("8_19"), ds)
    assert bound == 5 and not violation
    bound, violation = sl_upper_bound(parse_knot("U"), ds)
    assert bound == -1 and not violation
    bound, violation = sl_upper_bound(parse_knot("m(3_1)"), ds)
    assert bound == 1 and not violation


def test_lspace_cable(ds):
    assert lspace_cable(3, 2, parse_knot("m(3_1)"), ds) is True
    assert lspace_cable(1, 2, parse_knot("m(3_1)"), ds) is False
    assert lspace_cable(7, 2, parse_knot("4_1"), ds) is False


def test_lspace_cable_of_the_unknot_is_its_torus_knot(ds):
    # Cab(p,q;U) is T(p,q): an L-space knot when positive, not the unknot
    for companion in (Unknot(), parse_knot("P(-1,3,2)")):
        assert lspace_cable(3, 2, companion, ds) is True
        assert lspace_cable(5, 3, companion, ds) is True
        assert lspace_cable(1, 2, companion, ds) is False
        assert lspace_cable(-3, 2, companion, ds) is False
        assert lspace_cable(-1, 2, companion, ds) is False


def _with_knot_rows(instanton: dict):
    """The bundled data plus one KNOT row per name in instanton, holding
    only the stored invariants given for it."""
    rows = [datasets.TableEntry("KNOT", name, {"instanton": inv}, "test")
            for name, inv in instanton.items()]
    return datasets.Dataset([*datasets.load(check=False).entries, *rows])


def test_r14_rounds_tau_inward_to_integers():
    # tau is an integer, so (nu - 1)/2 <= tau <= (nu + 1)/2 rounds inward
    ds = _with_knot_rows({"9_99": {"nu": 2, "r0": 2}, "9_98": {"nu": {"lo": -3, "hi": 0}}})
    for text, tau in (("9_99", 1), ("m(9_99)", -1)):
        b = bundle(text, ds)
        assert b.tau == Val.exact(tau) and type(b.tau.value()) is int, text
        assert sl_upper_bound(parse_knot(text), ds) == (2 * tau - 1, False)
    for text, tau in (("9_98", Val(-2, 0)), ("m(9_98)", Val(0, 2))):
        for use_stored in (True, False):
            b = bundle(text, ds, use_stored=use_stored)
            assert b.tau == (tau if use_stored else Val()), (text, use_stored)
            assert sl_upper_bound(parse_knot(text), ds) == (None, False)


def test_lspace_knot_invariants(ds):
    assert lspace_knot_invariants(parse_knot("P(-2,3,7)"), ds) == (9, 9)
    assert lspace_knot_invariants(parse_knot("T(3,4)"), ds) == (5, 5)
    assert lspace_knot_invariants(parse_knot("Cab(3,2;m(3_1))"), ds) == (5, 5)
    with pytest.raises(KnotError):
        lspace_knot_invariants(parse_knot("4_1"), ds)


def test_cold_cable_chain_checks_each_layer_once(monkeypatch):
    ds = datasets.load(check=False)  # empty caches
    text = "T(2,3)"
    for _ in range(32):
        text = f"Cab(3,2;{text})"
    keys = []
    original = invariants._lspace_cable

    def counting(k, ds, p, q, use_stored):
        keys.append((p, q, format_knot(k), use_stored))
        return original(k, ds, p, q, use_stored)

    monkeypatch.setattr(invariants, "_lspace_cable", counting)
    deduce(parse_knot(text), ds)
    # one check per cable layer of the chain and of its mirror
    assert len(keys) == len(set(keys)) <= 2 * 32


def _cable_chain(depth, lspace):
    """depth nested (p, 2)-cables over T(2,3): p = 3 throughout, or
    p = 4g - 1 over a companion of genus g, which keeps every layer an
    instanton L-space knot."""
    text, g = "T(2,3)", 1
    for _ in range(depth):
        p = 4 * g - 1 if lspace else 3
        text, g = f"Cab({p},2;{text})", 2 * g + (p - 1) // 2
    return text


# sha256 of the bundle's JSON, trace included, recorded before mirror
# images were kept on the expressions
CHAIN_DIGESTS = {
    (8, False): "d76eddb5bd729031", (16, False): "9c8b0d84578d8b2f",
    (32, False): "cfe7867a7b6585ab", (8, True): "580c0c77f1217599",
    (16, True): "5b322fa6ebb75f1b", (32, True): "9a18913555e83495",
}


def test_cold_cable_chain_builds_each_mirror_once(monkeypatch):
    built = []
    original = knots._mirror

    def counting(k):
        built.append(k)
        return original(k)

    monkeypatch.setattr(knots, "_mirror", counting)
    for (depth, lspace), digest in CHAIN_DIGESTS.items():
        built.clear()
        chain = _cable_chain(depth, lspace)
        b = deduce(parse_knot(chain), datasets.load(check=False))
        # the bundle names the canonical chain; label it as the CLI does
        out = {**b.to_json(), "knot": chain}
        out["trace"] = [t.to_json() for t in b.trace]
        text = json.dumps(out, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, (depth, lspace)
        # one mirror per layer of the chain, plus the few atoms the rules
        # mirror on the way (a quadratic pass made 1095 at depth 32)
        assert len(built) <= depth + 8, (depth, lspace, len(built))
    assert b.nu == b.r0 == Val.exact(24595658764946068821)


# --- bundle invariants over all records ---------------------------------------

def test_bounds_hold_on_every_exact_bundle(ds):
    for name in ds.knot_names():
        b = bundle(name, ds)
        if b.nu.is_exact and b.r0.is_exact:
            nu, r0 = b.nu.value(), b.r0.value()
            assert r0 >= abs(nu), name
            assert (r0 - nu) % 2 == 0, name
            d = b.delta
            assert d.value() >= 0 and d.value() % 2 == 0, name
        if b.nu.is_exact and b.tau.is_exact:
            assert abs(2 * b.tau.value() - b.nu.value()) <= 1, name


def test_tau_additive_over_sums(ds):
    cases = [("3_1", "5_2"), ("8_19", "7_3"), ("4_1", "6_1")]
    for a, b_ in cases:
        s = bundle(f"{a} # {b_}", ds)
        ba, bb = bundle(a, ds), bundle(b_, ds)
        assert s.tau == ba.tau + bb.tau


@given(st.sampled_from(["3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3", "7_1",
                        "7_3", "8_2", "8_5", "8_19", "8_20"]),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_repeated_sum_nu_bound(name, n, ):
    ds = datasets.default()
    k = parse_knot(name)
    b1 = deduce(k, ds)
    bn = deduce(make_sum([k] * n) if n > 1 else k, ds)
    nu = b1.nu.value()
    # nu of the n-fold sum lies within n*nu +- (n-1)
    assert bn.nu.lo >= n * nu - (n - 1)
    assert bn.nu.hi <= n * nu + (n - 1)
