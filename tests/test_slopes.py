import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isharp.dimension import parse_manifold
from isharp.slopes import MAX_CF_TERMS, Triad, eval_cf, format_cf, neg_cf, triad
from isharp.values import INFINITY, Slope, SlopeError, parse_slope, reduce


def test_reduce_basic():
    assert reduce(10, 4) == Slope(5, 2)
    assert reduce(3, -1) == Slope(-3, 1)
    assert reduce(0, 7) == Slope(0, 1)
    assert reduce(3, 0) == INFINITY


def test_reduce_rejects_bad_pairs():
    with pytest.raises(SlopeError):
        reduce(0, 0)
    assert reduce(-2, 0) == INFINITY  # -1/0 is the infinite slope, as -inf is
    with pytest.raises(SlopeError):
        Slope(4, 2)  # unreduced pair rejected by the constructor


_PAIR_PARTS = st.integers(-50, 50) | st.integers(-10 ** 40, 10 ** 40)


@settings(max_examples=400)
@given(_PAIR_PARTS, _PAIR_PARTS)
@example(5, 0)
@example(-5, 0)
@example(0, 7)
@example(0, -7)
@example(6, -4)
@example(-10 ** 40, -10 ** 20)
def test_reduce_builds_the_reduced_slope_of_every_pair(p, q):
    # reduce stores its pair unchecked, so rebuild it through the checked
    # constructor, which raises on a pair that is not reduced
    if p == q == 0:
        with pytest.raises(SlopeError, match="^0/0 is not a slope$"):
            reduce(p, q)
        return
    s = reduce(p, q)
    assert type(s) is Slope and s == Slope(s.p, s.q)
    assert s.p * q == s.q * p  # the same rational, or both infinite
    assert s.is_infinite == (q == 0)


def test_slope_parse_print_roundtrip():
    for text in ["5/2", "-3/1", "0/1", "inf", "7/13"]:
        assert str(parse_slope(text)) == text
    assert parse_slope("-7") == Slope(-7, 1)
    assert parse_slope("10/4") == Slope(5, 2)
    with pytest.raises(SlopeError):
        parse_slope("x/y")


# where the scanner stops reading each text, and why
_LEXEME_ERRORS = {
    "1_0/3": "trailing input at position 1", "1/3_0": "trailing input at position 3",
    "1_0": "trailing input at position 1",
    "\u0661/\u0663": "expected an integer at position 0",
    "\u0661": "expected an integer at position 0", "\uff11/3": "expected an integer at position 0",
}


@pytest.mark.parametrize("text", ["1_0/3", "1/3_0", "1_0", "\u0661/\u0663", "\u0661", "\uff11/3"])
def test_parse_slope_reads_integers_as_the_knot_grammar_does(text):
    # int() would read 1_0 as 10 and the Arabic-Indic or fullwidth digits as 1 and 3
    message = f"{_LEXEME_ERRORS[text]} in {text!r}"
    with pytest.raises(SlopeError, match=f"^{re.escape(message)}$"):
        parse_slope(text)


# slope text from the characters slopes are written in, "_", letters,
# ASCII blanks, whitespace that is not ASCII (a no-break space, an em
# space, a file separator, a next-line) and non-ASCII digits (Arabic-Indic
# 1 and 0, fullwidth 1); int() alone reads "_", the digits and every
# whitespace character
_NON_ASCII_SPACES = ["\u00a0", "\u2003", "\x1c", "\x85"]
_SLOPE_TEXT = st.lists(st.sampled_from([*"0123456789+-/_ ", "inf", *"infx", "\t", "\n",
                                        *_NON_ASCII_SPACES, "\u0661", "\u0660", "\uff11"]),
                       max_size=8).map("".join)
_BLANK = "[ \t\n\r\v\f]*"


def _reference_slope(text):
    """The slope text reads as, None when it is no slope: "inf", or an
    optional sign and ASCII digits, optionally "/" and another such
    integer, with runs of ASCII blanks at the ends and around the "/";
    the pair must not be 0/0."""
    m = re.fullmatch(f"{_BLANK}(?:(inf)|([+-]?[0-9]+)(?:{_BLANK}/{_BLANK}([+-]?[0-9]+))?){_BLANK}",
                     text)
    if m is None:
        return None
    if m[1]:
        return INFINITY
    try:
        return reduce(int(m[2]), int(m[3] or "1"))
    except SlopeError:  # 0/0
        return None


def _refusal(text):
    """The one-line refusal of a slope text: where the scanner stopped,
    or, for 0/0, the pair itself."""
    return (r"^((expected an integer|expected 'inf'|trailing input) at position \d+ in "
            f"{re.escape(repr(text))}|0/0 is not a slope)$")


@settings(max_examples=2000)
@given(_SLOPE_TEXT)
@example("1_0/3")
@example(" -12 / +8 ")
@example("0/0")
@example("-3/0")
@example("\u0661\u0660")
@example("3\u00a0/4")
@example("\u00a03/4\u00a0")
@example("\x1c3/4")
def test_parse_slope_reads_the_integer_lexeme(text):
    expected = _reference_slope(text)
    if expected is None:
        with pytest.raises(SlopeError, match=_refusal(text)):
            parse_slope(text)
    else:
        assert parse_slope(text) == expected


def _slope_or_refusal(parse, text):
    try:
        return parse(text)
    except ValueError:
        return None


@settings(max_examples=1000)
@given(_SLOPE_TEXT)
@example(" 1 / 2 ")
@example("1\u00a0/2")
@example("-5/0")
def test_a_slope_reads_alike_alone_and_in_a_surgery(text):
    in_surgery = lambda t: parse_manifold(f"surg(U; {t})").slope
    assert _slope_or_refusal(parse_slope, text) == _slope_or_refusal(in_surgery, text)


def test_neg_cf_known_values():
    assert neg_cf(Slope(1, 3)) == [1, 2, 2]
    assert neg_cf(Slope(-1, 3)) == [0, 3]
    assert neg_cf(Slope(7, 1)) == [7]


def test_neg_cf_of_one_over_n_and_minus_one_over_n():
    # 1/n = [1, 2, ..., 2] of total length n; -1/n = [0, n]
    for n in range(2, 40):
        assert neg_cf(Slope(1, n)) == [1] + [2] * (n - 1)
        assert neg_cf(Slope(-1, n)) == [0, n]


def test_eval_cf_known_values():
    assert eval_cf([18, 2]) == Slope(35, 2)  # 18 - 1/2
    assert eval_cf([3, 2]) == Slope(5, 2)  # 3 - 1/2
    for k in (-4, 0, 9):
        assert eval_cf([k]) == Slope(k, 1)
    with pytest.raises(SlopeError):
        eval_cf([3, 1])  # tail coefficients must be >= 2
    with pytest.raises(SlopeError):
        eval_cf([])


def convergents(coeffs: list[int]) -> list[tuple[int, int]]:
    """Convergent pairs (p_i, q_i) for i = -1, 0, ..., n:
    (p_i, q_i) = (a_i p_{i-1} - p_{i-2}, a_i q_{i-1} - q_{i-2})."""
    pairs = [(1, 0), (coeffs[0], 1)]
    for a in coeffs[1:]:
        (p2, q2), (p1, q1) = pairs[-2], pairs[-1]
        pairs.append((a * p1 - p2, a * q1 - q2))
    return pairs


def test_convergents_known_values():
    assert eval_cf([1, 2, 2]) == Slope(1, 3)
    assert eval_cf([0, 3]) == Slope(-1, 3)
    assert eval_cf([5]) == Slope(5, 1)


def test_cf_format_parse():
    assert format_cf([1, 2, 2]) == "[1,2,2]"
    assert eval_cf([0, 3]) == Slope(-1, 3)
    with pytest.raises(SlopeError):
        eval_cf([3, 1])


def test_triad_known_values():
    t = triad(Slope(5, 2))
    assert (t.ab, t.cd, t.ef) == (Slope(2, 1), Slope(3, 1), INFINITY)
    t = triad(Slope(1, 3))
    assert (t.ab, t.cd, t.ef) == (Slope(0, 1), Slope(1, 2), Slope(1, 1))
    t = triad(Slope(-1, 2))
    assert (t.ab, t.cd, t.ef) == (Slope(-1, 1), Slope(0, 1), INFINITY)


def test_triad_rejects_integers_and_infinity():
    with pytest.raises(SlopeError):
        triad(Slope(4, 1))
    with pytest.raises(SlopeError):
        triad(INFINITY)


def test_slope_checks_keep_their_messages():
    for (p, q), message in (((2, 4), "not a reduced slope: 2/4"),
                            ((1, -1), "not a reduced slope: 1/-1"),
                            ((3, 0), "not a reduced slope: 3/0"),
                            ((-1, 0), "infinite slope must be 1/0, got -1/0")):
        with pytest.raises(SlopeError) as e:
            Slope(p, q)
        assert str(e.value) == message
    for s in (Slope(3, 1), INFINITY):
        with pytest.raises(SlopeError) as e:
            triad(s)
        assert str(e.value) == f"no triad for integer or infinite slope {s}"
    with pytest.raises(SlopeError) as e:
        neg_cf(INFINITY)
    assert str(e.value) == "no continued fraction for the infinite slope"


def check_triad_identities(s: Slope, t: Triad) -> None:
    a, b = t.ab.p, t.ab.q
    c, d = t.cd.p, t.cd.q
    e, f = t.ef.p, t.ef.q
    p, q = s.p, s.q
    assert (p, q) == (a + c, b + d)
    assert b > 0 and d > 0 and f >= 0
    assert f > 0 or e == 1
    assert b * c - a * d == 1
    assert p * b - q * a == 1
    assert q * c - p * d == 1
    if t.sum_case == "ab=cd+ef":
        assert (a, b) == (c + e, d + f)
    else:
        assert t.sum_case == "cd=ab+ef"
        assert (c, d) == (a + e, b + f)
    lo, hi = p // q, -(-p // q)
    assert lo <= Fraction(a, b) < Fraction(p, q) < Fraction(c, d) <= hi
    if not t.ef.is_infinite:
        assert lo <= Fraction(e, f) <= hi
    else:
        assert b == d == 1


slopes_strategy = st.tuples(
    st.integers(min_value=-10**4, max_value=10**4),
    st.integers(min_value=2, max_value=10**4),
).filter(lambda pq: math.gcd(abs(pq[0]), pq[1]) == 1)


@given(slopes_strategy)
@settings(max_examples=400)
def test_triad_identities_random(pq):
    s = Slope(*pq)
    check_triad_identities(s, triad(s))


@given(slopes_strategy)
@settings(max_examples=400)
def test_cf_roundtrip_random(pq):
    s = Slope(*pq)
    cf = neg_cf(s)
    assert all(a >= 2 for a in cf[1:])
    assert eval_cf(cf) == s


@given(st.integers(min_value=-10**4, max_value=10**4))
def test_cf_roundtrip_integers(n):
    s = Slope(n, 1)
    assert neg_cf(s) == [n]
    assert eval_cf([n]) == s


@given(slopes_strategy)
@settings(max_examples=400)
def test_convergent_invariants_random(pq):
    s = Slope(*pq)
    pairs = convergents(neg_cf(s))
    for i in range(1, len(pairs)):
        (p_prev, q_prev), (p_i, q_i) = pairs[i - 1], pairs[i]
        assert q_i * p_prev - p_i * q_prev == 1
        if i >= 2:
            assert q_i > q_prev > 0
    assert reduce(*pairs[-1]) == s


# -- differential checks against the expansion-based kernels ---------------------

def neg_cf_reference(s: Slope) -> list[int]:
    """The ceil-and-multiply loop: a = ceil(p/q), then (p, q) -> (q, a q - p)."""
    coeffs = []
    p, q = s.p, s.q
    while True:
        a = -((-p) // q)
        coeffs.append(a)
        p, q = q, a * q - p
        if q == 0:
            return coeffs


def triad_reference(s: Slope) -> Triad:
    """The triad read off the last two convergents of the full expansion."""
    (c, d), (p, q) = convergents(neg_cf_reference(s))[-2:]
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
    return Triad(Slope(a, b), Slope(c, d), Slope(e, f), case)


@st.composite
def uniform_slopes(draw, digits):
    """A uniformly random reduced p/q with q of d digits and |p| <= 10^(d+1)."""
    d = draw(digits)
    rng = draw(st.randoms(use_true_random=True))
    q = rng.randint(max(2, 10 ** (d - 1)), 10 ** d)
    p = rng.randint(-10 ** (d + 1), 10 ** (d + 1))
    assume(math.gcd(abs(p), q) == 1)
    return Slope(p, q)


@st.composite
def expanded_slopes(draw, digits):
    """p/q built from a drawn negative expansion (runs of twos, huge
    coefficients) and stopped before q passes 10^d."""
    d = draw(digits)
    cap = 10 ** d
    (p1, q1), (p0, q0) = (1, 0), (draw(st.integers(-10 * cap, 10 * cap)), 1)
    for _ in range(draw(st.integers(1, 300))):
        a = draw(st.sampled_from([2, 2, 2, 3]) | st.integers(2, cap))
        if a * q0 - q1 > cap:
            break
        (p1, q1), (p0, q0) = (p0, q0), (a * p0 - p1, a * q0 - q1)
    assume(q0 >= 2)
    return Slope(p0, q0)


def big_slopes(digits=st.integers(1, 40)):
    return uniform_slopes(digits) | expanded_slopes(digits)


def short_expansion(s: Slope, bound=10**4) -> bool:
    """Whether the negative expansion of s has at most `bound` terms.

    With p/q = [k0; k1, k2, ...] the ordinary continued fraction, the
    negative one is [k0 + 1, 2 (k1 - 1 times), k2 + 2, 2 (k3 - 1 times),
    ...], so its length is at most k1 + k3 + ... plus the number of k_i.
    Slopes like 1/10^40 (a run of 10^40 - 1 twos) are left to the identity
    checks."""
    p, q = s.p, s.q
    length, i = 0, 0
    while q:
        k, r = divmod(p, q)
        length += k if i % 2 else 1
        p, q, i = q, r, i + 1
    return length <= bound


def test_kernels_match_the_references_on_a_small_grid():
    for p in range(-60, 61):
        for q in range(2, 40):
            if math.gcd(abs(p), q) == 1:
                s = Slope(p, q)
                assert neg_cf(s) == neg_cf_reference(s), s
                assert triad(s) == triad_reference(s), s


@given(big_slopes())
@settings(max_examples=400)
def test_kernels_match_the_references_on_big_slopes(s):
    t = triad(s)
    check_triad_identities(s, t)
    assume(short_expansion(s))
    assert neg_cf(s) == neg_cf_reference(s)
    assert t == triad_reference(s)


@given(uniform_slopes(st.just(40)))
@settings(max_examples=200)
def test_cf_roundtrip_forty_digit_slopes(s):
    assume(short_expansion(s))
    assert eval_cf(neg_cf(s)) == s


def test_triad_needs_no_expansion():
    # 1/10^40 expands to [1, 2, ..., 2] with 10^40 terms
    q = 10 ** 40
    for s in (Slope(1, q), Slope(-1, q), Slope(q + 1, q), Slope(q - 1, q)):
        check_triad_identities(s, triad(s))


def test_neg_cf_refuses_expansions_past_the_bound():
    assert MAX_CF_TERMS >= 10 ** 4
    # 1/n expands to [1, 2, ..., 2] with n terms
    assert neg_cf(Slope(1, MAX_CF_TERMS)) == [1] + [2] * (MAX_CF_TERMS - 1)
    for s in (Slope(1, MAX_CF_TERMS + 1), Slope(1, 10 ** 20), Slope(10 ** 40 + 1, 10 ** 40)):
        with pytest.raises(SlopeError, match=f"more than {MAX_CF_TERMS} terms"):
            neg_cf(s)


# -- the slopes stored without Slope's checks ----------------------------------

def _unchecked_slopes(s: Slope) -> list[Slope]:
    """Every slope triad and negation build without Slope's checks."""
    t = triad(s)
    return [t.ab, t.cd, t.ef, -s, -t.ab, -t.cd, -t.ef]


# q = 2 is the only denominator with b == d in triad (b = d and
# gcd(d, q) = 1 give d = 1), where ef is 1/0
_HALVES = st.integers(-10 ** 40, 10 ** 40).map(lambda n: Slope(2 * n + 1, 2))


@settings(max_examples=400)
@given(big_slopes() | _HALVES)
@example(Slope(1, 2))
@example(Slope(-1, 2))
@example(Slope(-31, 6))
@example(Slope(-(10 ** 40) - 1, 10 ** 40))
def test_slopes_built_unchecked_pass_the_checks(s):
    for x in _unchecked_slopes(s):
        assert type(x) is Slope and x == Slope(x.p, x.q), (s, x)


@settings(max_examples=400)
@given(big_slopes() | _HALVES)
@example(Slope(1, 2))
@example(Slope(-(10 ** 40) - 1, 10 ** 40))
def test_a_triad_built_unchecked_equals_the_checked_build(s):
    t = triad(s)
    checked = Triad(*(Slope(x.p, x.q) for x in (t.ab, t.cd, t.ef)), t.sum_case)
    assert type(t) is Triad and t == checked and repr(t) == repr(checked)


def test_triad_checks_the_determinant_identity(monkeypatch):
    # a wrong inverse d breaks q c - p d = 1; the check must catch it,
    # since the three slopes are then stored without a gcd
    import isharp.slopes
    monkeypatch.setattr(isharp.slopes, "pow", lambda b, e, m: (pow(b, e, m) + 1) % m,
                        raising=False)
    for s in (Slope(5, 7), Slope(1, 2), Slope(-31, 6), Slope(10 ** 40 + 1, 10 ** 40)):
        with pytest.raises(SlopeError, match=f"^determinant check q c - p d = 1 fails for {s} "):
            triad(s)
