"""One answer per knot, whatever its presentation.

A registered alias code and the name it resolves to are one knot, so
they get the same deduction, structural data, self-linking bound and
dimensions, with and without the tabulated invariants.  So do the
presentations of a family knot, registered or not: Tw(n), its
two-bridge code TB(a,b), that diagram turned over, TB(b,a), and the
other codes of its fraction (TB(-2,7) and TB(7,-2) are Tw(7)); and a
pretzel's strands in any order, where the mirror m(P(a,b,c)) is
P(-a,-b,-c).  So do a connected sum with its summands in any order, and
m(m(K)); the mirror m(K) gets the negated nu and tau, and a sum whose
summands pair with presentations of their mirrors is slice.  A
presentation of the unknot (P(-1,3,2), or a two-bridge code with
|ab - 1| = 1) gets the unknot's answers, drops out of a sum, and a
cable of it is the torus knot it is.  All of them share one canonical form, and with it
one deduction, but for the other codes of an unregistered knot, each of
which keeps its own.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isharp import datasets, invariants
from isharp.invariants import deduce, sl_upper_bound
from isharp.knots import (KnotError, Named, TwoBridge, Unknot, canonical, format_knot, mirror,
                          parse_knot, resolve, structural)
from isharp.dimension import DimensionError, branched_cover_dim, surgery_dim
from isharp.values import Inconsistency, Slope, Val

DS = datasets.load()


# The (name, mirrored) that resolve gives each of 44 family codes
# and its mirror.  The ALIAS rows register one code per knot class; the
# other codes here present a row's knot or its mirror (T(2,3), the mirror
# of the row T(-2,3); TB(-2,3), the knot of p/q = 7/4 that Tw(3) is), or
# are the same expression as a row (Tw(1) is TB(2,2)), and resolve
# through the row's class.
RESOLVED = {
    "T(2,3)": (("3_1", True), ("3_1", False)),
    "T(2,5)": (("5_1", True), ("5_1", False)),
    "T(2,7)": (("7_1", True), ("7_1", False)),
    "TB(2,-3)": (("5_2", True), ("5_2", False)),
    "TB(-2,-4)": (("5_2", True), ("5_2", False)),
    "TB(2,-4)": (("6_1", True), ("6_1", False)),
    "TB(-2,-5)": (("6_1", True), ("6_1", False)),
    "TB(2,-5)": (("7_2", True), ("7_2", False)),
    "P(1,3,2)": (("6_2", True), ("6_2", False)),
    "P(-1,3,2)": (("0_1", False), ("0_1", False)),
    "TB(2,2)": (("3_1", False), ("3_1", True)),
    "Tw(1)": (("3_1", False), ("3_1", True)),
    "Tw(2)": (("4_1", False), ("4_1", False)),
    "TB(-2,2)": (("4_1", False), ("4_1", False)),
    "TB(-2,-3)": (("4_1", False), ("4_1", False)),
    "Tw(3)": (("5_2", False), ("5_2", True)),
    "Tw(4)": (("6_1", False), ("6_1", True)),
    "P(1,3,-3)": (("6_1", False), ("6_1", True)),
    "TB(-3,-4)": (("6_2", False), ("6_2", True)),
    "Tw(5)": (("7_2", False), ("7_2", True)),
    "TB(-3,4)": (("7_3", False), ("7_3", True)),
    "TB(-4,-4)": (("7_4", False), ("7_4", True)),
    "Tw(6)": (("8_1", False), ("8_1", True)),
    "TB(-3,-6)": (("8_2", False), ("8_2", True)),
    "TB(-4,4)": (("8_3", False), ("8_3", False)),
    "TB(-5,-4)": (("8_4", False), ("8_4", True)),
    "P(3,3,2)": (("8_5", False), ("8_5", True)),
    "T(3,4)": (("8_19", False), ("8_19", True)),
    "P(2,3,-3)": (("8_20", False), ("8_20", True)),
    "T(3,5)": (("10_124", False), ("10_124", True)),
    "P(-2,3,7)": (("K12n242", False), ("K12n242", True)),
    # TB(b,a) is the diagram of TB(a,b) turned over, one knot
    "TB(4,2)": (("5_2", False), ("5_2", True)),
    "TB(3,-2)": (("5_2", False), ("5_2", True)),
    "TB(-3,2)": (("5_2", True), ("5_2", False)),
    "TB(-4,-2)": (("5_2", True), ("5_2", False)),
    "TB(-3,-2)": (("4_1", False), ("4_1", False)),
    "TB(5,2)": (("6_1", False), ("6_1", True)),
    "TB(5,-2)": (("7_2", False), ("7_2", True)),
    "TB(-5,2)": (("7_2", True), ("7_2", False)),
    "TB(6,-2)": (("8_1", False), ("8_1", True)),
    "TB(4,-3)": (("7_3", False), ("7_3", True)),
    "TB(-4,3)": (("7_3", True), ("7_3", False)),
    "TB(4,3)": (("6_2", True), ("6_2", False)),
    "TB(-4,-5)": (("8_4", False), ("8_4", True)),
}
# (name text, code) for every code in RESOLVED
PAIRS = [(f"m({name})" if mirrored else name, code)
         for code, ((name, mirrored), _) in RESOLVED.items()]
PRESENTATIONS = sorted({t for pair in PAIRS for t in pair})
# the presentations of each KNOT name that has any, in the order
# resolve lists them after the name
EQUIVALENT = {
    "0_1": ["P(-1,3,2)"], "3_1": ["T(-2,3)", "Tw(1)"], "4_1": ["Tw(2)"],
    "5_1": ["T(-2,5)"], "5_2": ["Tw(3)"], "6_1": ["Tw(4)", "P(1,3,-3)"],
    "6_2": ["P(-1,-3,-2)", "TB(-3,-4)"], "7_1": ["T(-2,7)"], "7_2": ["Tw(5)"],
    "7_3": ["TB(-3,4)"], "7_4": ["TB(-4,-4)"], "8_1": ["Tw(6)"], "8_2": ["TB(-3,-6)"],
    "8_3": ["TB(-4,4)"], "8_4": ["TB(-5,-4)"], "8_5": ["P(3,3,2)"], "8_19": ["T(3,4)"],
    "8_20": ["P(2,3,-3)"], "10_124": ["T(3,5)"], "K12n242": ["P(-2,3,7)"],
}


def resolved(k):
    """(name, mirrored) of the record that k presents, or None."""
    rec, mirrored, _ = resolve(k, DS)
    return None if rec is None else (rec.name, mirrored)


def _attempt(f):
    try:
        return f()
    except (DimensionError, Inconsistency) as e:
        return type(e)


def answers(k, ds, tabulated):
    """The answers on ds, or on ds.untabulated() unless tabulated."""
    if not tabulated:
        ds = ds.untabulated()
    b = deduce(k, ds)
    return ((b.nu, b.tau, b.r0, b.shape, b.mu0_dim), structural(k, ds),
            sl_upper_bound(k, ds) if tabulated else None)


def test_the_registry_has_every_family():
    registered = [(e.payload["name"], code) for code, e in DS.table("ALIAS").items()]
    kinds = {code.split("(")[0] for _, code in registered}
    assert kinds == {"T", "Tw", "P", "TB"}
    assert ("10_124", "T(3,5)") in registered and ("5_2", "Tw(3)") in registered
    # each row's code is in its knot's chirality, and RESOLVED covers it
    covered = {k for code in RESOLVED for k in (parse_knot(code), mirror(parse_knot(code)))}
    for name, code in registered:
        assert resolved(parse_knot(code)) == (name, False), code
        assert parse_knot(code) in covered, code


@pytest.mark.parametrize("code", RESOLVED)
def test_each_code_and_its_mirror_resolve_to_one_knot(code):
    k = parse_knot(code)
    assert (resolved(k), resolved(mirror(k))) == RESOLVED[code]


def test_each_name_lists_its_presentations_in_order():
    for name in DS.knot_names():
        got = [format_knot(k) for k in resolve(Named(name), DS)[2]]
        assert got == [name, *EQUIVALENT.get(name, [])], name


@pytest.mark.parametrize("tabulated", [True, False])
@pytest.mark.parametrize("name, code", PAIRS)
def test_alias_and_name_give_one_answer(name, code, tabulated):
    a, b = parse_knot(name), parse_knot(code)
    assert answers(a, DS, tabulated) == answers(b, DS, tabulated)
    assert answers(mirror(a), DS, tabulated) == answers(mirror(b), DS, tabulated)
    cover = lambda k: _attempt(lambda: branched_cover_dim(k, DS))
    assert cover(a) == cover(b)


def _twist_group(n):
    """The presentations of Tw(n): its code TB(a,b), the other code of
    its fraction with a twist region of 2 (TB(-2,n) for odd n, TB(2,n+1)
    for even n), each turned over as TB(b,a) too; then those of its mirror."""
    a, b = (2, n + 1) if n % 2 == 1 else (-2, n)
    c, d = (-2, n) if n % 2 == 1 else (2, n + 1)
    return ([f"Tw({n})", f"TB({a},{b})", f"TB({b},{a})", f"TB({c},{d})", f"TB({d},{c})"],
            [f"m(Tw({n}))", f"m(TB({a},{b}))", f"TB({-a},{-b})", f"TB({-b},{-a})",
             f"TB({-c},{-d})", f"TB({-d},{-c})"])


def _pretzel_group(strands):
    """The presentations of P(a,b,c), its strands in every order, then
    those of its mirror, written m(...) and with negated strands."""
    text = "P({},{},{})".format
    orders = sorted(set(itertools.permutations(strands)))
    return ([text(*p) for p in orders],
            [f"m({text(*p)})" for p in orders] + [text(*(-x for x in p)) for p in orders])


family_groups = st.one_of(
    st.integers(1, 40).map(_twist_group),
    st.integers(1, 20).map(lambda n: _pretzel_group((2 * n - 1, 3, 2))),
    st.integers(-20, 20).map(lambda n: _pretzel_group((n, 3, -3))),
    st.tuples(*[st.integers(-7, 7)] * 3).map(_pretzel_group))


@given(family_groups)
@settings(max_examples=200, deadline=None)
def test_every_presentation_of_a_family_knot_gives_one_answer(groups):
    for texts in groups:
        knots = [parse_knot(t) for t in texts]
        for tabulated in (True, False):
            got = [answers(k, DS, tabulated) for k in knots]
            assert all(a == got[0] for a in got), (texts, tabulated, got)
        for data in (DS, DS.untabulated()):
            got = [dimensions(k, data) for k in knots]
            assert all(d == got[0] for d in got), (texts, got)


def test_torus_presentation_pins_tau_of_its_name():
    # the table leaves tau(10_124) open; its registered torus form T(3,5)
    # is quasipositive with slice genus 4
    b = deduce(parse_knot("10_124"), DS)
    assert b.tau.is_exact and b.tau.value() == 4
    assert sl_upper_bound(parse_knot("10_124"), DS) == 7
    assert deduce(parse_knot("m(10_124)"), DS).tau.value() == -4


slopes = st.tuples(st.integers(-60, 60), st.integers(1, 9)).filter(
    lambda pq: math.gcd(pq[0], pq[1]) == 1).map(lambda pq: Slope(*pq))


@given(st.sampled_from(PAIRS), slopes, st.booleans())
@settings(max_examples=300, deadline=None)
def test_alias_and_name_give_one_surgery_dimension(pair, s, mirrored):
    a, b = (parse_knot(t) for t in pair)
    if mirrored:
        a, b = mirror(a), mirror(b)
    dim = lambda k: _attempt(lambda: surgery_dim(k, s, "trivial", DS))
    assert dim(a) == dim(b)


@given(st.lists(st.tuples(st.sampled_from(PRESENTATIONS), st.booleans()),
                min_size=2, max_size=4), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_sum_answers_ignore_the_order_of_summands(parts, rnd):
    texts = [f"m({t})" if mirrored else t for t, mirrored in parts]
    a = parse_knot(" # ".join(texts))
    rnd.shuffle(texts)
    b = parse_knot(" # ".join(texts))
    fresh = datasets.load()
    for tabulated in (True, False):
        assert answers(a, DS, tabulated) == answers(b, fresh, tabulated)


@pytest.mark.parametrize("text", ["T(2,3) # 3_1", "m(Tw(1)) # TB(2,2)", "4_1 # 4_1",
                                  "Tw(2) # TB(-2,-3)", "T(-3,5) # 10_124",
                                  "P(2,-3,-7) # K12n242 # 4_1 # m(Tw(2))"])
def test_mirror_pairs_across_presentations_are_slice(text):
    # each summand pairs with a presentation of its mirror, which may be
    # written differently (an amphichiral knot is its own mirror)
    k = parse_knot(text)
    assert structural(k, DS).slice_genus == Val.exact(0)
    b = deduce(k, DS)
    assert (b.nu.value(), b.tau.value(), b.shape) == (0, 0, "W")


@given(st.lists(st.sampled_from(PRESENTATIONS), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_double_mirror_and_mirror_answers(texts):
    text = " # ".join(texts)
    k = parse_knot(text)
    fresh = datasets.load()
    for tabulated, data in ((True, DS), (False, DS.untabulated())):
        assert answers(parse_knot(f"m(m({text}))"), fresh, tabulated) \
            == answers(k, DS, tabulated)
        b, mb = deduce(k, data), deduce(mirror(k), data)
        assert (mb.nu, mb.tau, mb.r0, mb.shape) == (-b.nu, -b.tau, b.r0, b.shape)


def dimensions(k, ds):
    dim = lambda s, bundle="trivial": _attempt(lambda: surgery_dim(k, s, bundle, ds))
    return ([dim(Slope(p, q)) for p, q in ((1, 1), (-7, 2), (13, 1), (0, 1))],
            dim(Slope(0, 1), "mu"), _attempt(lambda: branched_cover_dim(k, ds)))


UNKNOT_PRESENTATIONS = [
    ("P(-1,3,2) # m(3_1)", "m(3_1)"), ("m(3_1) # U # 0_1", "m(3_1)"),
    ("Cab(3,2;U)", "T(2,3)"), ("Cab(5,2;m(U))", "T(2,5)"),
    ("Cab(3,2;P(-1,3,2))", "T(3,2)"), ("Cab(-3,2;P(-1,3,2))", "T(-3,2)"),
    ("Cab(5,2;m(P(-1,3,2)))", "T(5,2)"), ("Cab(7,3;P(-1,3,2))", "T(7,3)"),
    ("Cab(3,4;P(-1,3,2))", "T(3,4)"), ("Cab(1,2;P(-1,3,2))", "T(1,2)"),
    ("Cab(3,2;P(-1,3,2)) # P(-1,3,2)", "T(2,3)"),
    ("Cab(5,2;Cab(3,2;P(-1,3,2)))", "Cab(5,2;T(2,3))"),
]


@pytest.mark.parametrize("tabulated", [True, False])
@pytest.mark.parametrize("text, knot", UNKNOT_PRESENTATIONS)
def test_unknot_presentations_drop_out(text, knot, tabulated):
    # each text and the knot it presents get one answer, mirrors included
    fresh = datasets.load()
    a, b = parse_knot(text), parse_knot(knot)
    assert canonical(a, DS) == canonical(b, DS)
    for x, y in ((a, b), (mirror(a), mirror(b))):
        assert answers(x, DS, tabulated) == answers(y, fresh, tabulated)
        assert dimensions(x, DS) == dimensions(y, fresh)


def test_two_bridge_codes_with_p_1_are_the_unknot():
    # TB(a,b) is the knot of p/q = a - 1/b, and p = |ab - 1| = 1 is the unknot
    codes = [TwoBridge(a, b) for a, b in itertools.product(range(-20, 21), repeat=2)
             if abs(a * b - 1) == 1 and (a % 2 == 0 or b % 2 == 0)]
    assert len(codes) == 85
    dims = lambda k: [_attempt(lambda: surgery_dim(k, Slope(p, q), "trivial", DS))
                      for p, q in ((1, 1), (-7, 2), (0, 1))]
    u = Unknot()
    for k in codes:
        assert canonical(k, DS) == u, k
        assert answers(k, DS, True) == answers(u, DS, True), k
        assert dims(k) == dims(u), k


def test_a_cable_of_the_unknot_keeps_the_cable_checks():
    for text in ("Cab(3,1;U)", "Cab(4,2;U)", "Cab(3,0;P(-1,3,2))"):
        with pytest.raises(KnotError):
            parse_knot(text)


def test_presentations_of_one_knot_share_one_deduction(monkeypatch):
    ran = []
    original = invariants._deduce

    fresh = datasets.load()

    def counting(k, ds):
        ran.append((format_knot(k), ds is fresh))
        return original(k, ds)

    monkeypatch.setattr(invariants, "_deduce", counting)
    for data in (fresh, fresh.untabulated()):
        first = deduce(parse_knot("T(3,5)"), data)
        assert deduce(parse_knot("10_124"), data) is first
        assert deduce(parse_knot("T(3,5)"), data) is first
    assert ran == [("10_124", True), ("10_124", False)]


knot_texts = st.recursive(
    st.sampled_from(PRESENTATIONS + ["U", "0_1", "P(-1,3,2)", "T(2,9)", "Tw(9)", "P(3,5,7)"]),
    lambda inner: st.one_of(
        inner.map(lambda t: f"m({t})"),
        st.lists(inner, min_size=2, max_size=3).map(" # ".join),
        st.tuples(st.sampled_from([(3, 2), (-3, 2), (5, 2), (7, 3), (1, 2)]), inner).map(
            lambda t: f"Cab({t[0][0]},{t[0][1]};{t[1]})")),
    max_leaves=6)


@given(knot_texts)
@settings(max_examples=300, deadline=None)
def test_canonical_form_is_idempotent_and_parses_back(text):
    c = canonical(parse_knot(text), DS)
    assert canonical(c, DS) is c
    back = parse_knot(format_knot(c))
    assert back == c and canonical(back, DS) == c
