import hashlib
import itertools
import json
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isharp import datasets, invariants, knots
from isharp.invariants import RULES, _Draft, _tighten, deduce, lspace_cable, sl_upper_bound
from isharp.knots import KnotError, Unknot, format_knot, make_sum, mirror, parse_knot
from isharp.values import Inconsistency, IntegrityError, Val


@pytest.fixture(scope="module")
def ds():
    return datasets.load()


def bundle(text, ds):
    return deduce(parse_knot(text), ds)


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


def test_deduce_trace_has_rules_and_statements(ds):
    b = bundle("8_19", ds)
    rules = {t.rule for t in b.trace}
    assert "R1" in rules
    assert all(t.to_json()["statement"] for t in b.trace)


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
    fresh = deduce(parse_knot("m(5_2) # 8_19"), datasets.load())
    assert fresh is not b and fresh == b and fresh.to_json() == b.to_json()


def test_inconsistent_input_raises(ds):
    import copy
    bad = copy.deepcopy(ds.knot_record("8_19"))
    # pretend the table said nu = -5: the torus rule must then contradict it
    bad = bad.replace(nu=Val.exact(-5), tau=Val(), r0=Val(), shape=None, mu0_dim=None)
    ds2 = datasets.load()
    ds2._knots["8_19"] = bad
    # a rule that contradicts a record is a fault in the data, named by record
    with pytest.raises(IntegrityError, match=r"^knot record 8_19 or its aliases: 8_19: rule R9 "):
        deduce(parse_knot("8_19"), ds2)


def test_rederive_matches_stored_for_every_small_knot(ds):
    for key, entry in ds.table("T3").items():
        b = bundle(key if key != "0_1" else "U", ds.untabulated())
        nu, tau = entry.payload["nu"], entry.payload["tau"]
        assert b.tau == Val.exact(tau), key
        if nu is None:
            assert (b.nu.lo, b.nu.hi) == (-1, 1), key
        else:
            assert b.nu == Val.exact(nu), key


# --- direct operations --------------------------------------------------------

def test_sl_upper_bound(ds):
    assert sl_upper_bound(parse_knot("8_19"), ds) == 5
    assert sl_upper_bound(parse_knot("U"), ds) == -1
    assert sl_upper_bound(parse_knot("m(3_1)"), ds) == 1


def test_lspace_cable(ds):
    assert lspace_cable(3, 2, parse_knot("m(3_1)"), ds) is True
    assert lspace_cable(1, 2, parse_knot("m(3_1)"), ds) is False
    assert lspace_cable(7, 2, parse_knot("4_1"), ds) is False


def test_lspace_cable_of_the_unknot_is_its_torus_knot(ds):
    # Cab(p,q;U) is T(p,q): an L-space knot when positive, not the unknot
    for companion in (Unknot(), parse_knot("P(-1,3,2)")):
        for p, q in itertools.product(range(-9, 10), range(2, 6)):
            if math.gcd(p, q) == 1:
                assert lspace_cable(p, q, companion, ds) is (p > 1), (p, q, companion)


def test_lspace_cable_of_no_cable_raises(ds):
    # the parameters of a cable that does not exist fail make_cable's check
    for p, q in ((3, 1), (3, 0), (3, -2), (4, 2), (0, 3), (6, 9)):
        for companion in (Unknot(), parse_knot("m(3_1)")):
            with pytest.raises(KnotError, match="cable needs q >= 2 and gcd"):
                lspace_cable(p, q, companion, ds)


def _with_knot_rows(instanton: dict):
    """The bundled data plus one KNOT row per name in instanton, holding
    only the stored invariants given for it."""
    rows = [datasets.TableEntry("KNOT", name, {"instanton": inv}, "test")
            for name, inv in instanton.items()]
    return datasets.Dataset([*datasets.load().entries, *rows])


def test_r14_rounds_tau_inward_to_integers():
    # tau is an integer, so (nu - 1)/2 <= tau <= (nu + 1)/2 rounds inward
    ds = _with_knot_rows({"9_99": {"nu": 2, "r0": 2}, "9_98": {"nu": {"lo": -3, "hi": 0}}})
    for text, tau in (("9_99", 1), ("m(9_99)", -1)):
        b = bundle(text, ds)
        assert b.tau == Val.exact(tau) and type(b.tau.value()) is int, text
        assert sl_upper_bound(parse_knot(text), ds) == 2 * tau - 1
    for text, tau in (("9_98", Val(-2, 0)), ("m(9_98)", Val(0, 2))):
        for tabulated in (True, False):
            b = bundle(text, ds if tabulated else ds.untabulated())
            assert b.tau == (tau if tabulated else Val()), (text, tabulated)
            assert sl_upper_bound(parse_knot(text), ds) is None


def test_r14_bounds_nu_by_any_upper_bound_on_r0():
    # |nu| <= r0 <= 3 gives nu in [-3, 3], tau in [-2, 2] and delta <= 6
    b = _Draft("K")
    b.r0 = Val(0, 3)
    _tighten(b, Val())
    frozen = b.freeze()
    assert (frozen.nu, frozen.tau, frozen.delta) == (Val(-3, 3), Val(-2, 2), Val(0, 6, 0))
    ds = _with_knot_rows({"9_97": {"r0": {"lo": 0, "hi": 3}}})
    for text, tabulated in (("9_97", True), ("m(9_97)", True), ("9_97", False)):
        out = bundle(text, ds if tabulated else ds.untabulated()).to_json()
        want = ({"nu": {"lo": -3, "hi": 3}, "tau": {"lo": -2, "hi": 2},
                 "delta": {"lo": 0, "hi": 6, "parity": 0}} if tabulated
                else {"nu": None, "tau": None, "delta": {"lo": 0, "hi": None, "parity": 0}})
        assert {f: out[f] for f in want} == want, (text, tabulated)


def test_lspace_knot_invariants(ds):
    # R9: an instanton L-space knot has nu = r0 = 2g - 1
    for text, v in (("P(-2,3,7)", 9), ("T(3,4)", 5), ("Cab(3,2;m(3_1))", 5)):
        b = bundle(text, ds)
        assert (b.nu, b.r0) == (Val.exact(v), Val.exact(v)), text


def test_cold_cable_chain_checks_each_layer_once(monkeypatch):
    ds = datasets.load()  # empty caches
    text = "T(2,3)"
    for _ in range(32):
        text = f"Cab(3,2;{text})"
    keys = []
    original = invariants._lspace_cable

    def counting(c, ds):
        keys.append(format_knot(c))
        return original(c, ds)

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
        b = deduce(parse_knot(chain), datasets.load())
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


# --- the rule set and R14 -------------------------------------------------------

def _ablation_corpus(ds):
    """Every dataset knot, family knots the table does not register, their
    mirrors, and 300 pairwise sums of the first 25 atoms."""
    atoms = [parse_knot("U" if name == "0_1" else name) for name in ds.knot_names()]
    atoms += [parse_knot(text) for text in (
        "T(2,9)", "T(3,7)", "T(4,5)", "T(5,6)", "Tw(3)", "Tw(6)", "Tw(9)", "Tw(12)",
        "P(-2,3,7)", "P(-2,3,9)", "P(7,3,2)", "P(9,3,2)", "P(5,3,-3)", "P(11,3,-3)",
        "Cab(3,2;T(2,3))", "Cab(5,2;T(2,3))", "Cab(3,2;m(3_1))", "Cab(7,2;4_1)",
        "Cab(2,3;8_19)", "Cab(1,2;5_2)")]
    atoms += [mirror(k) for k in atoms]
    return atoms + [make_sum([a, b]) for a, b in itertools.combinations(atoms[:25], 2)]


def test_the_untabulated_view_is_the_data_without_stored_invariants(tmp_path):
    # the view deduces as the record file without its T1, T3 and T4 rows
    # and every KNOT row's instanton payload does, cites no stored value
    # and has caches of its own
    ds = datasets.load()
    path = tmp_path / "untabulated.jsonl"
    with open(datasets.BUNDLED_PATH, encoding="utf-8") as bundled, \
            open(path, "w", encoding="utf-8") as fh:
        for line in map(json.loads, bundled):
            if line["table"] in ("T1", "T3", "T4"):
                continue
            if line["table"] == "KNOT":
                line["payload"].pop("instanton", None)
            fh.write(json.dumps(line) + "\n")
    stripped = datasets.load(str(path))
    deduce(parse_knot("Cab(3,2;8_19) # 7_7"), ds)
    caches = [dict(ds.deduce_cache), dict(ds.structural_cache), dict(ds.lspace_cache)]
    view = ds.untabulated()
    assert view is ds.untabulated()
    corpus = _ablation_corpus(ds) + [parse_knot(code) for code in ds.table("ALIAS")]
    for k in corpus + [mirror(k) for k in corpus]:
        b = deduce(k, view)
        assert b == deduce(k, stripped), format_knot(k)
        assert "R1" not in {t.rule for t in b.trace}, format_knot(k)
        for p, q in ((3, 2), (5, 2), (-3, 2), (7, 3)):
            assert lspace_cable(p, q, k, view) == lspace_cable(p, q, k, stripped)
    assert [ds.deduce_cache, ds.structural_cache, ds.lspace_cache] == caches


def _answers(corpus):
    ds = datasets.load()  # empty caches
    out = []
    for k in corpus:
        for data in (ds, ds.untabulated()):
            try:
                b = deduce(k, data)
                out.append((b.nu, b.tau, b.r0, b.shape))
            except Inconsistency as e:
                out.append(str(e))
    return out


def test_no_rule_is_redundant(ds, monkeypatch):
    # switch off one rule at a time: every rule must change some answer
    corpus = _ablation_corpus(ds)
    full = _answers(corpus)
    narrow, set_shape = _Draft.narrow, _Draft.set_shape
    redundant = []
    for rule in RULES:
        monkeypatch.setattr(_Draft, "narrow", lambda self, f, v, r, d="":
                            r == rule or narrow(self, f, v, r, d))
        monkeypatch.setattr(_Draft, "set_shape", lambda self, sh, r, d="":
                            r == rule or set_shape(self, sh, r, d))
        if _answers(corpus) == full:
            redundant.append(rule)
    assert not redundant, f"no answer over {len(corpus)} expressions needs {redundant}"


@st.composite
def _vals(draw, lo=-5, hi=5, parity=True):
    """A Val state: exact, bounded, half-bounded or unknown, with or
    without a parity."""
    a, b = sorted(draw(st.lists(st.integers(lo, hi), min_size=2, max_size=2)))
    kind = draw(st.sampled_from(["exact", "bounded", "lo", "hi", "unknown"]))
    ends = {"exact": (a, a), "bounded": (a, b), "lo": (a, None), "hi": (None, b),
            "unknown": (None, None)}[kind]
    p = draw(st.sampled_from([None, 0, 1])) if parity else None
    try:
        return Val(*ends, p)
    except Inconsistency:
        assume(False)


def _r14_triples(nu, tau, r0, shape, g_s):
    """Every integer (nu, tau, r0) in a box around the drawn ends that lies
    in the given states and meets R14's constraints."""
    for n in range(-12, 13):
        if not nu.contains(n) or (shape == "W" and n != 0):
            continue
        if g_s.hi is not None and abs(n) > max(2 * g_s.hi - 1, 0):
            continue
        for t in range(n // 2, (n + 1) // 2 + 1):  # |2 tau - nu| <= 1
            if not tau.contains(t) or (g_s.hi is not None and abs(t) > g_s.hi):
                continue
            for r in range(abs(n), 13, 2):  # r0 >= |nu|, r0 = nu (mod 2)
                if r0.contains(r):
                    yield n, t, r


@given(_vals(), _vals(), _vals(-2, 9), st.sampled_from(["unknown", "V", "W"]),
       _vals(0, 4, parity=False))
# |nu| <= r0 <= 2 and tau odd pin nu = 2, so r0 >= |nu| must run again
@example(Val(-1, None), Val(None, None, 1), Val(0, 2, 0), "unknown", Val(0, None))
@settings(max_examples=600, deadline=None)
def test_r14_reaches_its_fixed_point_in_one_sound_pass(nu, tau, r0, shape, g_s):
    b = _Draft("K")
    b.nu, b.tau, b.r0, b.shape = nu, tau, r0, shape
    admissible = list(_r14_triples(nu, tau, r0, shape, g_s))
    try:
        _tighten(b, g_s)
    except Inconsistency:
        assert not admissible
        return
    for n, t, r in admissible:
        assert b.nu.contains(n) and b.tau.contains(t) and b.r0.contains(r), (n, t, r)
    state, steps = (b.nu, b.tau, b.r0, b.shape), len(b.trace)
    _tighten(b, g_s)  # a second pass neither narrows nor raises
    assert (b.nu, b.tau, b.r0, b.shape) == state and len(b.trace) == steps
