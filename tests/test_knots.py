import copy
import itertools
import math
import operator
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isharp import datasets, knots
from isharp.datasets import alexander_at_minus_one
from isharp.invariants import TraceEntry, deduce
from isharp.knots import (
    Cable,
    MAX_NESTING,
    KnotError,
    Named,
    Pretzel,
    Sum,
    Torus,
    TwoBridge,
    Unknot,
    _atom_key,
    _is_mirror_paired,
    canonical,
    format_knot,
    genus,
    make_cable,
    make_sum,
    make_torus,
    make_twist,
    mirror,
    parse_knot,
    structural,
    twist_form,
)
from isharp.dimension import (
    SPHERE,
    BranchedCover,
    Census,
    DimResult,
    Lens,
    Surgery,
    census_dim,
    parse_manifold,
)
from isharp.slopes import triad
from isharp.values import BLANKS, Inconsistency, Slope, SlopeError, Val, parse_slope, reduce
from isharp.verify import alexander_zero_surgery_floor


@pytest.fixture(scope="module")
def ds():
    return datasets.load()


# --- records ------------------------------------------------------------------

def test_records_compare_by_exact_type_and_fields():
    assert Torus(2, 3) != TwoBridge(2, 3)
    assert Torus(2, 3).__eq__(TwoBridge(2, 3)) is NotImplemented
    assert Named("3_1") != "3_1" and Named("3_1") != Named("3_1", True)
    for a, b in ((Named("3_1"), Named("3_1")), (Unknot(), Unknot()),
                 (Val(1, 5, 1), Val(1, 5, 1)),
                 (parse_knot("Cab(3,2;m(3_1)) # 4_1"), parse_knot("4_1 # Cab(3,2;m(3_1))"))):
        assert a == b and hash(a) == hash(b)
    assert len({Named("3_1"), Named("3_1"), Named("3_1", True), Unknot(), Unknot()}) == 3
    assert repr(Named("3_1")) == "Named(name='3_1', mirrored=False)"
    assert repr(Val.exact(2)) == "Val(lo=2, hi=2, parity=0)"


def test_records_are_immutable(ds):
    for record, field in ((Named("3_1"), "name"), (Torus(2, 3), "q"), (Val.exact(1), "lo"),
                          (Slope(1, 2), "q"), (ds.knot_record("3_1"), "nu"),
                          (TraceEntry("R1", "table"), "detail"), (triad(Slope(5, 2)), "ab"),
                          (DimResult.exact(13, 9), "state"), (SPHERE, "state")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert not hasattr(record, "__dict__")


def test_records_survive_deepcopy_and_pickle(ds):
    for record in (ds.knot_record("8_19"), Val(1, 7, 1),
                   parse_knot("Cab(3,2;m(3_1) # 4_1)"), Unknot(), Named("3_1", True),
                   Torus(-2, 5), Pretzel(-2, 3, 7), TwoBridge(-3, 4),
                   Sum((Named("3_1"), TwoBridge(-3, 4))), TraceEntry("R1", "table"),
                   triad(Slope(5, 2)), DimResult.exact(13, 9), census_dim(7, ds),
                   DimResult.of_interval(3, None, 3), Slope(-7, 2),
                   parse_manifold("surg(6_2; -9/1)"), deduce(parse_knot("8_19"), ds),
                   ds.knot_record("3_1").structural, ds.table("T2")["7"]):
        for copied in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(copied) is type(record) and copied == record


def test_derived_text_is_invisible():
    text = "4_1 # Cab(3,2;m(3_1))"  # canonical: summands in text order
    k = parse_knot(text)
    assert format_knot(k) == text and k._text == text  # filled by the first call
    fresh = parse_knot(text)
    assert getattr(fresh, "_text", None) is None
    assert k == fresh and hash(k) == hash(fresh) and repr(k) == repr(fresh)
    assert "_text" not in repr(k)
    for copied in (copy.deepcopy(k), pickle.loads(pickle.dumps(k)), copy.copy(k),
                   k.replace(summands=k.summands)):
        assert copied == fresh and hash(copied) == hash(fresh) and repr(copied) == repr(fresh)
        assert getattr(copied, "_text", None) is None  # recomputed, never carried
        assert format_knot(copied) == text
    with pytest.raises(TypeError):
        Named("3_1", _text="4_1")
    with pytest.raises(TypeError):
        k.replace(_text="4_1")
    with pytest.raises(AttributeError):
        k._text = "4_1"


def test_derived_mirror_is_invisible():
    k = parse_knot("Cab(3,2;m(3_1)) # 4_1")
    mk = mirror(k)
    assert mirror(k) is mk and mirror(mk) is k  # built once, both ways
    fresh = parse_knot("Cab(3,2;m(3_1)) # 4_1")
    assert k == fresh and hash(k) == hash(fresh) and repr(k) == repr(fresh)
    for copied in (copy.deepcopy(k), pickle.loads(pickle.dumps(k)), copy.copy(k)):
        assert getattr(copied, "_mirror", None) is None  # recomputed, never carried
        assert mirror(copied) == mk
    with pytest.raises(AttributeError):
        k._mirror = k


def test_replace_reruns_the_constructor_checks():
    assert TwoBridge(2, 4).replace(a=-2) == TwoBridge(-2, 4)
    assert Val(1, 3).replace(hi=1) == Val.exact(1)  # parity 1 filled in
    with pytest.raises(KnotError):
        TwoBridge(2, 4).replace(a=3, b=5)  # both entries odd
    with pytest.raises(KnotError):
        Cable(3, 2, Unknot()).replace(p=4)
    with pytest.raises(KnotError):
        Torus(2, 3).replace(p=4)  # gcd(4, 3) = 1 but 4 >= 3
    with pytest.raises(KnotError):
        Sum((Named("3_1"), Named("4_1"))).replace(summands=(Named("3_1"),))
    with pytest.raises(Inconsistency):
        Val(1, 3).replace(lo=5)
    with pytest.raises(TypeError):
        TwoBridge(2, 4).replace(crossings=5)


def test_values_are_not_plain_tuples():
    # Slope, Triad and DimResult store their fields as tuple items, yet a
    # value neither equals, orders, adds nor repeats as a tuple does
    s = Slope(1, 2)
    assert s != (1, 2) and (1, 2) != s and not s == (1, 2)
    assert hash(s) == hash((1, 2)) and len({s, (1, 2), Slope(1, 2)}) == 2
    assert s == Slope(1, 2) and not s != Slope(1, 2) and s != Slope(1, 3)
    for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.add):
        with pytest.raises(TypeError):
            op(s, Slope(1, 3))
    for a, b in ((s, 2), (2, s)):
        with pytest.raises(TypeError):
            a * b
    # from the right too: Python tries the value's reflected method first
    for op in (operator.lt, operator.ge):
        with pytest.raises(TypeError):
            op((1, 2), s)
    with pytest.raises(TypeError):
        (1,) + s
    with pytest.raises(SlopeError):
        Slope(2, 3).replace(q=4)  # 2/4 is not reduced
    for value in (triad(Slope(-31, 6)), DimResult.exact(13, 9), DimResult.of_interval(3, None, 3)):
        for copied in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(copied) is type(value) and copied == value


# --- parsing and normalization ---------------------------------------------

def test_parse_basic_forms():
    assert parse_knot("3_1") == Named("3_1")
    assert parse_knot("m(3_1)") == Named("3_1", mirrored=True)
    assert parse_knot("Cab(3,2;T(2,3))") == Cable(3, 2, Torus(2, 3))
    assert parse_knot("U") == Unknot()
    assert parse_knot("0_1") == Unknot()
    assert parse_knot("K11n118") == Named("K11n118")
    assert parse_knot("k5_1") == Named("k5_1")
    assert parse_knot("Tw(4)") == make_twist(4)
    assert parse_knot("P(2,3,-3)") == Pretzel(2, 3, -3)


def test_parse_rejects_bad_input():
    with pytest.raises(KnotError):
        parse_knot("TB(3,3)")  # both entries odd
    with pytest.raises(KnotError):
        parse_knot("Cab(4,2;U)")  # gcd(4,2) != 1
    with pytest.raises(KnotError):
        parse_knot("Tw(0)")
    with pytest.raises(KnotError):
        parse_knot("3_1 #")
    with pytest.raises(KnotError):
        parse_knot("Q(1,2)")


def test_parse_bounds_nesting_depth():
    half = MAX_NESTING // 2
    assert parse_knot("m(m(" * half + "3_1" + "))" * half) == Named("3_1")
    for text in ("m(" * (MAX_NESTING + 1) + "3_1" + ")" * (MAX_NESTING + 1),
                 "Cab(3,2;" * half + "m(" * (MAX_NESTING - half + 1) + "3_1"
                 + ")" * (MAX_NESTING + 1)):
        with pytest.raises(KnotError, match="nesting deeper than"):
            parse_knot(text)


class _NoSlices(str):
    """Text that refuses to be sliced: a parser that copies the rest of
    its input at every atom does work quadratic in the input's length."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            raise AssertionError(f"the grammar sliced its input at {key}")
        return str.__getitem__(self, key)


def test_parse_reads_its_input_in_place():
    atoms = ["T(2,3)", "Tw(3)", " TB( 2 , 4 )", "P(-2,3,7)", "Cab(3,2;m(3_1))", "U",
             "K11n118", "m(4_1 # T(-3,5))", "0_1"]
    text = " # ".join(atoms * 300)
    assert parse_knot(_NoSlices(text)) == parse_knot(text)
    for desc in (f"surg({text}; -31 / 6)", f"dcover({text})", " lens( 9 , 2 ) "):
        assert parse_manifold(_NoSlices(desc)) == parse_manifold(desc)
    assert parse_slope(_NoSlices(" -31 / 6 ")) == Slope(-31, 6)


def test_mirror_normalization():
    k = parse_knot("m(3_1 # T(2,3))")
    assert k == make_sum([Named("3_1", True), Torus(-2, 3)])
    assert mirror(mirror(k)) == k
    assert parse_knot("m(m(3_1))") == Named("3_1")
    assert mirror(TwoBridge(2, -4)) == TwoBridge(-2, 4)
    assert mirror(Cable(3, 2, Named("3_1", True))) == Cable(-3, 2, Named("3_1"))


def test_torus_normalization():
    assert make_torus(3, 2) == Torus(2, 3)
    assert make_torus(-2, -3) == Torus(2, 3)
    assert make_torus(2, -3) == Torus(-2, 3)
    assert make_torus(1, 5) == Unknot()
    with pytest.raises(KnotError):
        make_torus(2, 4)


def test_sum_flattening_and_sorting():
    k = parse_knot("4_1 # 3_1 # 4_1")
    assert isinstance(k, Sum) and len(k.summands) == 3
    assert k == parse_knot("4_1 # 4_1 # 3_1")
    assert make_sum([Unknot(), Named("3_1")]) == Named("3_1")


knot_exprs = st.deferred(lambda: st.one_of(
    st.just(Unknot()),
    st.sampled_from(["3_1", "4_1", "5_2", "8_19", "K11n118"]).map(Named),
    st.tuples(st.sampled_from([2, 3, -2, -3, 5]), st.sampled_from([2, 3, 5, 7]))
    .filter(lambda pq: abs(pq[0]) != pq[1] and math.gcd(abs(pq[0]), pq[1]) == 1
            and abs(pq[0]) > 1)
    .map(lambda pq: make_torus(*pq)).filter(lambda k: not isinstance(k, Unknot)),
    st.integers(1, 9).map(make_twist),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)).map(
        lambda abc: Pretzel(*abc)),
    st.tuples(st.sampled_from([2, 3, 5]), st.sampled_from([2, 4, -2, -4])).map(
        lambda ab: TwoBridge(*ab) if (ab[0] % 2 == 0 or ab[1] % 2 == 0) else Unknot()),
    st.tuples(st.sampled_from([3, 5, -3]), st.just(2), knot_exprs).map(
        lambda t: make_cable(t[0], t[1], t[2])),
    st.lists(knot_exprs, min_size=2, max_size=3).map(make_sum),
    knot_exprs.map(mirror),
))


@given(knot_exprs)
@settings(max_examples=300)
def test_parse_print_roundtrip(k):
    assert parse_knot(format_knot(k)) == k


@given(knot_exprs, knot_exprs)
@settings(max_examples=300)
def test_canonical_text_is_injective(a, b):
    # parse_knot(format_knot(k)) == k makes the text injective, so it can
    # key the structural and deduce caches; the memoised text of an
    # expression equals a fresh rendering of an equal copy
    for other in (b, mirror(a), pickle.loads(pickle.dumps(a))):
        assert (format_knot(a) == format_knot(other)) == (a == other)
        assert parse_knot(format_knot(other)) == other


@given(knot_exprs)
@settings(max_examples=150)
def test_double_mirror_identity(k):
    assert mirror(mirror(k)) == k


def _mirror_paired_by_list(summands, form):
    """The former quadratic pairing, kept as the reference; form maps a
    summand to the knot it presents."""
    remaining = [form(x) for x in summands]
    while remaining:
        mx = form(mirror(remaining.pop()))
        if mx not in remaining:
            return False
        remaining.remove(mx)
    return True


pairing_atoms = st.one_of(
    st.sampled_from(["3_1", "4_1", "8_19"]).map(Named),
    st.sampled_from([(2, 3), (-2, 3), (3, 5)]).map(lambda pq: Torus(*pq)),
    st.sampled_from([(3, 2, "3_1"), (-3, 2, "3_1"), (5, 2, "4_1")]).map(
        lambda t: Cable(t[0], t[1], Named(t[2]))),
    # amphichiral, so its own mirror: it pairs only with a second copy
    st.just(Named("6_3")),
)


@given(st.lists(pairing_atoms, min_size=1, max_size=6),
       st.lists(st.booleans(), min_size=6, max_size=6), st.randoms())
@settings(max_examples=300)
def test_mirror_pairing_counts_agree_with_list_pairing(ds, atoms, mirrored, rnd):
    # each atom with or without its mirror, plus stray copies, shuffled
    summands = list(atoms)
    summands += [mirror(x) for x, m in zip(atoms, mirrored) if m]
    summands += atoms[:rnd.randrange(3)]
    rnd.shuffle(summands)
    if len(summands) < 2:
        summands.append(mirror(summands[0]))
    k = canonical(Sum(tuple(summands)), ds)
    form = lambda x: canonical(x, ds)
    assert _is_mirror_paired(k, ds) == _mirror_paired_by_list(summands, form)


def test_mirror_pairing_of_a_self_mirror_summand(ds):
    a, b = Named("6_3"), Named("4_1")  # both amphichiral
    assert canonical(mirror(a), ds) == a
    paired = lambda *summands: _is_mirror_paired(canonical(Sum(summands), ds), ds)
    assert not paired(a, b, mirror(b))
    assert paired(a, a, b, mirror(b))
    assert not paired(a, a, a, b, mirror(b))
    assert not paired(b, b, mirror(b))
    assert paired(b, b)


slopes = st.one_of(
    st.just(Slope(1, 0)),
    st.tuples(st.integers(-60, 60), st.integers(1, 9)).map(lambda pq: reduce(*pq)),
)

manifold_descs = st.one_of(
    st.builds(Surgery, knot_exprs, slopes),
    knot_exprs.map(lambda k: Surgery(k, Slope(0, 1), "mu")),
    st.tuples(st.integers(2, 40), st.integers(1, 39))
    .filter(lambda pq: pq[1] < pq[0] and math.gcd(*pq) == 1)
    .map(lambda pq: Lens(*pq)),
    knot_exprs.map(BranchedCover),
    st.integers(0, 19).map(Census),
)


@given(manifold_descs)
@settings(max_examples=300)
def test_manifold_print_parse_roundtrip(m):
    # cable knots carry their own ';' inside surg(K; p/q[; mu])
    assert parse_manifold(str(m)) == m


# the tokens of a printed description: a head with its "(", a table name,
# a word, an integer, or one punctuation mark
_TOKEN = re.compile(r"[A-Za-z]+\(|[0-9]+_[0-9]+|K[0-9]+[an][0-9]+|k[0-9]+_[0-9]+|inf|mu|U"
                    r"|[+-]?[0-9]+|[,;#/)]")


@given(st.one_of(knot_exprs.map(lambda k: (format_knot(k), parse_knot, k)),
                 manifold_descs.map(lambda m: (str(m), parse_manifold, m))),
       st.data())
@settings(max_examples=300)
def test_blanks_may_stand_between_any_two_tokens(case, data):
    text, parse, value = case
    tokens = _TOKEN.findall(text)
    assert "".join(tokens) == text.replace(" ", "")  # every character is in a token
    runs = data.draw(st.lists(st.text(BLANKS, max_size=3), min_size=len(tokens) + 1,
                              max_size=len(tokens) + 1))
    spaced = "".join(run + token for run, token in zip(runs, tokens + [""]))
    assert parse(spaced) == value


@given(st.one_of(knot_exprs.map(lambda k: (format_knot(k), parse_knot, KnotError)),
                 manifold_descs.map(lambda m: (str(m), parse_manifold, KnotError)),
                 slopes.map(lambda s: (str(s), parse_slope, SlopeError))),
       st.sampled_from(["\u00a0", "\x1c", "\u2003", "\x85"]), st.data())
@settings(max_examples=300)
def test_whitespace_that_is_not_ascii_is_refused_everywhere(case, space, data):
    text, parse, error = case
    i = data.draw(st.integers(0, len(text)))
    spaced = text[:i] + space + text[i:]
    with pytest.raises(error, match=f" at position [0-9]+ in {re.escape(repr(spaced))}$"):
        parse(spaced)


def test_twist_and_two_bridge_maps_invert_each_other():
    for n in range(1, 51):
        assert twist_form(make_twist(n)) == (n, False)
        # 4_1 is amphichiral, so TB(2,-2) is Tw(2), not mirrored
        assert twist_form(mirror(make_twist(n))) == (n, n != 2)
    # every code below has p = |ab - 1| <= 401, so it is Tw(n) for n <= 200 or no twist knot
    twist_classes = {_atom_key(make_twist(n))[0] for n in range(1, 201)}
    for a, b in itertools.product(range(-20, 21), repeat=2):
        if a % 2 == 1 and b % 2 == 1:
            continue
        code = TwoBridge(a, b)
        assert (twist_form(code) is not None) == (_atom_key(code)[0] in twist_classes), code
        assert parse_knot(format_knot(code)) == code


def test_a_two_bridge_code_is_amphichiral_iff_its_mirror_has_its_chirality(ds):
    # Schubert: b(p,q) is its own mirror iff q^2 = -1 (mod p), which is
    # when the code and its mirror code name one chirality of the class
    for a, b in itertools.product(range(-20, 21), repeat=2):
        if a % 2 == 1 and b % 2 == 1:
            continue
        code = TwoBridge(a, b)
        assert structural(code, ds).amphichiral is (
            _atom_key(code)[1] == _atom_key(TwoBridge(-a, -b))[1]), code


# --- genus ------------------------------------------------------------------

def test_genus_examples(ds):
    assert genus(Torus(3, 5), ds) == Val.exact(4)
    assert genus(Cable(3, 2, Torus(2, 3)), ds) == Val.exact(3)
    assert genus(make_twist(7), ds) == Val.exact(1)
    assert genus(Unknot(), ds) == Val.exact(0)
    assert genus(parse_knot("8_8"), ds) == Val.exact(2)


def test_genus_mirror_and_sum_invariance(ds):
    for text in ["3_1", "T(3,5)", "Tw(6)", "8_19"]:
        k = parse_knot(text)
        assert genus(k, ds) == genus(mirror(k), ds)
    s = parse_knot("3_1 # T(2,5)")
    assert genus(s, ds) == Val.exact(3)


def test_cable_genus_identity(ds):
    # 2 g(K_{p,q}) - 1 = |p| q + q (2 g(K) - 1 - |p|/q)
    for p, q, companion in [(3, 2, "m(3_1)"), (7, 3, "T(2,5)"), (-5, 2, "4_1")]:
        k = Cable(p, q, parse_knot(companion))
        g_cable, g = genus(k, ds).value(), genus(k.companion, ds).value()
        assert 2 * g_cable - 1 == abs(p) * q + q * (2 * g - 1 - Fraction(abs(p), q))


# --- structural data ---------------------------------------------------------

def test_structural_examples(ds):
    s = structural(parse_knot("8_8"), ds)
    assert s.alexander == (9, -6, 2)
    assert s.slice_genus == Val.exact(0)

    u = structural(Unknot(), ds)
    assert u.genus == Val.exact(0)
    assert u.signature == 0 and u.determinant == 1
    assert u.alexander == (1,)

    t = structural(parse_knot("10_139"), ds)
    assert t.positive is True
    assert t.genus == Val.exact(4)


def test_structural_mirror_negates_signature(ds):
    s = structural(parse_knot("3_1"), ds)
    m = structural(parse_knot("m(3_1)"), ds)
    assert s.signature == 2 and m.signature == -2
    assert s.determinant == m.determinant == 3
    assert m.positive is True  # the right-handed trefoil


def test_structural_data_is_hashable_and_frozen(ds):
    s = structural(parse_knot("8_8"), ds)
    assert hash(s) == hash(s.replace()) and s == s.replace()
    assert hash(ds.knot_record("3_1")) == hash(ds.knot_record("3_1").replace())
    # memoised: every caller shares one result, so nobody may change it
    assert structural(parse_knot("8_8"), ds) is s
    assert structural(Unknot(), ds) is ds.knot_record("0_1").structural
    with pytest.raises(AttributeError):
        s.amphichiral = False
    assert s.slice_genus == Val.exact(0)


def test_cold_deep_cable_builds_each_layer_once(monkeypatch):
    ds = datasets.load()  # empty caches
    text = "T(2,3)"
    for _ in range(32):
        text = f"Cab(3,2;{text})"
    built = []
    original = knots._cable_structural

    def counting(k, ds):
        built.append(format_knot(k))
        return original(k, ds)

    monkeypatch.setattr(knots, "_cable_structural", counting)
    deduce(parse_knot(text), ds)
    # the chain and its mirror each have 32 cable layers
    assert len(built) == len(set(built)) <= 2 * 32


def alexander_convolve(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of the product of two symmetric Laurent polynomials:
    the reference for the polynomial of a connected sum, which structural
    leaves unknown."""
    def full(c):
        return list(reversed(c[1:])) + list(c)
    fx, fy = full(x), full(y)
    prod = [0] * (len(fx) + len(fy) - 1)
    for i, a in enumerate(fx):
        for j, b in enumerate(fy):
            prod[i + j] += a * b
    return tuple(prod[(len(prod) - 1) // 2:])


def test_determinant_multiplies_over_sums(ds):
    s = structural(parse_knot("3_1 # 4_1"), ds)
    assert s.determinant == 15
    assert s.signature == 2
    assert s.alexander is None
    alex = alexander_convolve(ds.knot_record("3_1").structural.alexander,
                              ds.knot_record("4_1").structural.alexander)
    assert alexander_at_minus_one(alex) in (15, -15)


def test_a_sum_of_alternating_knots_is_alternating(ds):
    assert structural(parse_knot("3_1 # 4_1"), ds).alternating is True
    assert structural(parse_knot("3_1 # 3_1 # m(5_2)"), ds).thin_odd_khovanov is True
    assert structural(parse_knot("3_1 # 8_19"), ds).alternating is None  # 8_19 is not


def test_a_pretzel_has_the_goeritz_determinant(ds):
    # det P(a,b,c) = |ab + bc + ca|, stored by each registered pretzel's record
    names = set()
    for code, row in ds.table("ALIAS").items():
        k = parse_knot(code)
        if isinstance(k, Pretzel):
            det = abs(k.a * k.b + k.b * k.c + k.c * k.a)
            assert structural(k, ds).determinant == det, code
            stored = ds.knot_record(row.payload["name"]).structural.determinant
            if stored is not None:
                assert stored == det, code
                names.add(row.payload["name"])
    assert names >= {"6_1", "6_2", "8_5", "8_20"}
    # the pretzel diagram alternates when its strands twist one way
    assert structural(Pretzel(3, 5, 7), ds).alternating is True
    assert structural(Pretzel(-3, -5, -7), ds).thin_odd_khovanov is True
    assert structural(Pretzel(-3, 5, 7), ds).alternating is None


def test_alexander_convolution():
    sq = alexander_convolve((-1, 1), (-1, 1))  # trefoil squared
    assert alexander_at_minus_one(sq) == 9
    assert alexander_convolve((1,), (3, -1)) == (3, -1)


def test_alexander_floor():
    assert alexander_zero_surgery_floor((9, -6, 2)) == 12
    assert alexander_zero_surgery_floor((3, -1)) == 2
    with pytest.raises(KnotError):
        alexander_zero_surgery_floor((1, 0, 0, 5))


def test_all_records_match_alexander_determinant(ds):
    for name in ds.knot_names():
        rec = ds.knot_record(name)
        alex, det = rec.structural.alexander, rec.structural.determinant
        if alex is not None and det is not None:
            assert abs(alexander_at_minus_one(alex)) == det, name


# --- alias resolution ---------------------------------------------------------

def resolve(code, ds):
    """(name, mirrored) of the record that code presents, or None."""
    rec, mirrored, _ = knots.resolve(parse_knot(code), ds)
    return None if rec is None else (rec.name, mirrored)


def test_resolve_alias_examples(ds):
    assert resolve("TB(-3,-4)", ds) == ("6_2", False)
    assert resolve("P(1,3,-3)", ds) == ("6_1", False)
    assert resolve("Tw(2)", ds) == ("4_1", False)


def test_resolve_alias_families_and_mirrors(ds):
    assert resolve("TB(2,2)", ds)[0] == "3_1"
    assert resolve("TB(-2,-2)", ds) == ("3_1", True)
    assert resolve("TB(2,-3)", ds) == ("5_2", True)
    assert resolve("TB(2,4)", ds)[0] == "5_2"  # twist family
    assert resolve("TB(-2,6)", ds)[0] == "8_1"
    assert resolve("T(3,4)", ds) == ("8_19", False)
    assert resolve("T(2,3)", ds) == ("3_1", True)
    assert resolve("P(-2,-3,3)", ds) == ("8_20", True)  # mirror of P(2,3,-3)


def test_resolve_alias_rejects_unknown(ds):
    assert resolve("TB(7,10)", ds) is None
    with pytest.raises(KnotError):
        resolve("99_1", ds)
