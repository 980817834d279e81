"""Algebraic knot descriptions and their structural invariants.

Expressions are immutable trees built from named atoms, torus /
pretzel / two-bridge family atoms, cables, and connected sums.  Each
family knot has one expression: Tw(n) parses to make_twist's code, which
alone prints as Tw(n); twist_form reads any code by its fraction's class.
Mirrors are normalized down to the atoms: a name's chirality flag, or
the signs of a torus knot's p, a two-bridge code and a pretzel's
strands.  So a normalized expression never contains an explicit mirror
node, and a cable of the unknot is the torus knot it is.  Each
expression keeps its text once format_knot has rendered it; that text
parses back to an equal expression.

The dataset keeps its alias codes ("T(3,5)", "T(-2,3)", ...) as text,
one row per knot class; this module alone parses them, once per
dataset, into an index that resolve reads, where each code of a row's
family that presents its knot, or the mirror, resolves through the
row's class (_atom_key).  So one lookup gives an atom's record, its
chirality and its registered presentations.  canonical writes every
presentation of a registered knot as its name (U for the unknot), and
memo keys the per-dataset caches of structural here and of deduce and
lspace_cable in invariants on the text of that form alone: T(3,5) and
10_124 share one computation, and an alias input gets its registered
knot's trace.

structural returns the StructuralData record that datasets defines and
its knot records hold; it combines those records with the family
formulas of every registered presentation of the knot.  Every function
that reads the tables takes the Dataset as its ds argument.

The grammar, _Parser, extends values.Scanner, and dimension.parse_manifold
reads with it too.  It reads its input in place, by position, so a parse
is linear in its length; its blanks, integers, slopes and error positions
are the scanner's, and its family atoms are one table, _FAMILIES.

Chirality follows the Rolfsen / Knot Atlas tables: 3_1 is the left-handed
trefoil, and the signature of the right-handed trefoil is -2.
"""

import math
import operator
import re
from collections import Counter

from .datasets import FLAG_NAMES, StructuralData
from .values import DatasetError, Inconsistency, IntegrityError, Record, Scanner, Val


class KnotError(ValueError):
    """Malformed knot expression or unresolvable alias."""


# ---------------------------------------------------------------------------
# Expression types
# ---------------------------------------------------------------------------

class KnotExpr(Record):
    """Base of the expression types.  _text, _mirror and _canonical_in
    are derived, not fields: the text format_knot renders, the mirror
    image, and the dataset that canonical last found the expression
    canonical in, so a deep expression is walked once per dataset."""

    __slots__ = ("_text", "_mirror", "_canonical_in")
    _fields = ()

    def __str__(self):
        return format_knot(self)


class Unknot(KnotExpr):
    __slots__ = ()


class Named(KnotExpr):
    __slots__ = ("name", "mirrored")

    def __init__(self, name: str, mirrored: bool = False):
        self._fill(name, mirrored)


class Torus(KnotExpr):
    """T(p, q) with 2 <= p < q coprime; chirality is the sign of p."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if not (2 <= abs(p) < q) or math.gcd(abs(p), q) != 1:
            raise KnotError(f"bad torus parameters ({p},{q})")
        self._fill(p, q)


class Pretzel(KnotExpr):
    """P(a, b, c), its strands in the order written; a mirror negates them."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        self._fill(a, b, c)


class TwoBridge(KnotExpr):
    """Two twist regions with a and b signed crossings; not both odd.
    It presents the knot of the fraction a - 1/b (_atom_key, twist_form)."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if a % 2 == 1 and b % 2 == 1:
            raise KnotError(f"two-bridge code ({a},{b}) has both entries odd")
        self._fill(a, b)


class Cable(KnotExpr):
    """The (p, q)-cable, q >= 2 and gcd(p, q) = 1, of the companion knot."""

    __slots__ = ("p", "q", "companion")

    def __init__(self, p: int, q: int, companion: KnotExpr):
        if q < 2 or math.gcd(abs(p), q) != 1:
            raise KnotError(f"cable needs q >= 2 and gcd(p,q)=1, got ({p},{q})")
        self._fill(p, q, companion)


class Sum(KnotExpr):
    __slots__ = ("summands",)

    def __init__(self, summands: tuple[KnotExpr, ...]):
        if len(summands) < 2:
            raise KnotError("connected sum needs at least two summands")
        self._fill(summands)


def make_torus(p: int, q: int) -> KnotExpr:
    """Normalize T(p, q): unordered parameters, sign = chirality."""
    if p == 0 or q == 0 or math.gcd(abs(p), abs(q)) != 1:
        raise KnotError(f"bad torus parameters ({p},{q})")
    if abs(p) == 1 or abs(q) == 1:
        return Unknot()
    sign = 1 if p * q > 0 else -1
    a, b = sorted((abs(p), abs(q)))
    return Torus(sign * a, b)


def make_twist(n: int) -> TwoBridge:
    """Tw(n), the twist knot with a positive clasp and n >= 1 positive
    half-twists, as its two-bridge code: TB(2, n+1) for odd n, TB(-2, n)
    for even n."""
    if n < 1:
        raise KnotError(f"twist knot needs n >= 1, got {n}")
    return TwoBridge(2, n + 1) if n % 2 == 1 else TwoBridge(-2, n)


def twist_form(k: KnotExpr) -> tuple[int, bool] | None:
    """(n, mirrored) when the two-bridge code k presents Tw(n) or its
    mirror, else None: Tw(n) has p = 2n + 1 >= 3, so k is Tw(n) when its
    class (_atom_key) is that of make_twist(n), mirrored when the
    chiralities differ.  An amphichiral Tw(n) (4_1) is never mirrored."""
    if isinstance(k, TwoBridge):
        cls, mirrored = _atom_key(k)
        twist_cls, twist_mirrored = _atom_key(make_twist(max(cls[1] // 2, 1)))
        if cls == twist_cls:
            return cls[1] // 2, mirrored != twist_mirrored
    return None


def make_cable(p: int, q: int, companion: KnotExpr) -> KnotExpr:
    """Cab(p, q; K) after Cable's checks; of the unknot, the torus knot T(p, q)."""
    cable = Cable(p, q, companion)
    return make_torus(p, q) if isinstance(companion, Unknot) else cable


def mirror(k: KnotExpr) -> KnotExpr:
    """Mirror image, pushed down to the atoms.  It is built on the first
    call and kept on k (and k on it), so a cable chain is mirrored one
    layer at a time, however often its layers are mirrored."""
    mk = getattr(k, "_mirror", None)
    if mk is None:
        mk = _mirror(k)
        object.__setattr__(k, "_mirror", mk)
        if getattr(mk, "_mirror", None) is None:
            object.__setattr__(mk, "_mirror", k)
    return mk


def _mirror(k: KnotExpr) -> KnotExpr:
    if isinstance(k, Unknot):
        return k
    if isinstance(k, Named):
        return k.replace(mirrored=not k.mirrored)
    if isinstance(k, Pretzel):
        return Pretzel(-k.a, -k.b, -k.c)
    if isinstance(k, Torus):
        return Torus(-k.p, k.q)
    if isinstance(k, TwoBridge):
        return TwoBridge(-k.a, -k.b)
    if isinstance(k, Cable):
        return Cable(-k.p, k.q, mirror(k.companion))
    if isinstance(k, Sum):
        return make_sum([mirror(s) for s in k.summands])
    raise KnotError(f"cannot mirror {k!r}")


def make_sum(summands: list[KnotExpr]) -> KnotExpr:
    """Flatten nested sums, drop unknots, sort for a canonical form."""
    flat: list[KnotExpr] = []
    for s in summands:
        if isinstance(s, Sum):
            flat.extend(s.summands)
        elif not isinstance(s, Unknot):
            flat.append(s)
    if not flat:
        return Unknot()
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(sorted(flat, key=format_knot)))


# ---------------------------------------------------------------------------
# Grammar: parse and print
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[0-9]+_[0-9]+|K[0-9]+[an][0-9]+|k[0-9]+_[0-9]+")

# the family atoms: the head, the constructor its integer arguments are
# passed to, and how many it takes
_FAMILIES = (("Tw(", make_twist, 1), ("TB(", TwoBridge, 2), ("T(", make_torus, 2),
             ("P(", Pretzel, 3))

# Deepest accepted nesting of m(...) and Cab(...) together.  The parser,
# mirror() and the deduction engine all recurse once per level, and a
# cable chain 100 deep still answers within the interpreter's default
# recursion limit; deeper input is refused with a KnotError instead of
# ending in a RecursionError.
MAX_NESTING = 100


class _Parser(Scanner):
    Error = KnotError
    depth = 0  # the m(...) and Cab(...) levels open at pos

    def int_args(self, n: int, close: str = ")") -> list[int]:
        """n integers after an opening "(", with "," between them and close
        after them."""
        args = [self.integer()]
        for _ in range(n - 1):
            self.expect(",")
            args.append(self.integer())
        self.expect(close)
        return args

    def nested(self) -> KnotExpr:
        """The expression that m(...) or Cab(...;...) encloses, and its ")"."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING}")
        inner = self.sum_expr()
        self.expect(")")
        self.depth -= 1
        return inner

    def sum_expr(self) -> KnotExpr:
        parts = [self.atom_expr()]
        while self.peek() == "#":
            self.expect("#")
            parts.append(self.atom_expr())
        return make_sum(parts) if len(parts) > 1 else parts[0]

    def atom_expr(self) -> KnotExpr:
        self.skip_ws()
        text, pos = self.text, self.pos
        if text.startswith("m(", pos):
            self.pos += 2
            return mirror(self.nested())
        if text.startswith("Cab(", pos):
            self.pos += 4
            p, q = self.int_args(2, ";")
            return make_cable(p, q, self.nested())
        for head, build, arity in _FAMILIES:
            if text.startswith(head, pos):
                self.pos += len(head)
                return build(*self.int_args(arity))
        if text.startswith("U", pos):  # no table name starts with U
            self.pos += 1
            return Unknot()
        m = _NAME_RE.match(text, pos)
        if m:
            self.pos = m.end()
            name = m.group()
            return Unknot() if name == "0_1" else Named(name)
        self.error("expected a knot expression")


def parse_knot(text: str) -> KnotExpr:
    """Parse the knot grammar: "3_1", "m(...)", "T(p,q)", "Tw(n)",
    "P(a,b,c)", "TB(a,b)", "Cab(p,q;K)", "K1 # K2", "U".  At most
    MAX_NESTING mirrors and cables may enclose one another."""
    return _Parser(text).whole(_Parser.sum_expr)


def format_knot(k: KnotExpr) -> str:
    """The canonical text of k, rendered on the first call and then read
    back from the expression."""
    text = getattr(k, "_text", None)
    if text is None:
        text = _format(k)
        object.__setattr__(k, "_text", text)
    return text


def _format(k: KnotExpr) -> str:
    if isinstance(k, Unknot):
        return "U"
    if isinstance(k, Named):
        return f"m({k.name})" if k.mirrored else k.name
    if isinstance(k, Torus):
        return f"T({k.p},{k.q})"
    if isinstance(k, Pretzel):
        return f"P({k.a},{k.b},{k.c})"
    if isinstance(k, TwoBridge):
        n = max(abs(k.a * k.b - 1) // 2, 1)  # Tw(n) has p = 2n + 1 >= 3
        tw = make_twist(n)  # its b is positive
        if (k.a, k.b) in ((tw.a, tw.b), (-tw.a, -tw.b)):
            return f"m(Tw({n}))" if k.b < 0 else f"Tw({n})"
        return f"TB({k.a},{k.b})"
    if isinstance(k, Cable):
        return f"Cab({k.p},{k.q};{format_knot(k.companion)})"
    if isinstance(k, Sum):
        return " # ".join(format_knot(s) for s in k.summands)
    raise KnotError(f"cannot format {k!r}")


# ---------------------------------------------------------------------------
# The presentation index: alias codes resolved against the loaded dataset
# ---------------------------------------------------------------------------

def _atom_key(k: KnotExpr):
    """(class, mirrored) of a family atom, None for any other expression:
    one class per knot up to mirror image, and the chirality of k in it.
    TB(a,b) is the two-bridge knot of p/q = a - 1/b; by Schubert, two
    codes present one knot iff q' = q^+-1 (mod p), and the mirror has -q.
    Of a pretzel's strands and their negation, and of +-q^+-1 mod p, the
    lesser names the class.  Built without mirror(), so that the index
    mirrors none of its codes."""
    if isinstance(k, Torus):
        return ("T", abs(k.p), k.q), k.p < 0
    if isinstance(k, Pretzel):
        strands = sorted((k.a, k.b, k.c))
        negated = sorted(-x for x in strands)
        return ("P", *min(strands, negated)), negated < strands
    if isinstance(k, TwoBridge):
        n = k.a * k.b - 1  # gcd(b, n) = 1, so q has an inverse mod p
        p, q = abs(n), k.b if n > 0 else -k.b
        qi = pow(q, -1, p)
        ours, theirs = min(q % p, qi), min(-q % p, -qi % p)
        return ("TB", p, min(ours, theirs)), theirs < ours
    return None


def _alias_index(ds) -> tuple[dict, dict]:
    """The ALIAS rows of ds parsed once: knot class -> (the row that
    registers it, the chirality of its code), and name -> its
    presentations in row order.  A code that is not a torus, twist,
    pretzel or two-bridge atom, or whose class an earlier row registers,
    is a DatasetError."""
    if ds.alias_index is None:
        by_class: dict = {}
        by_name: dict = {}
        for code, row in ds.table("ALIAS").items():
            try:
                expr = parse_knot(code)
            except KnotError as e:
                raise DatasetError(f"alias {code!r}: {e}") from None
            key = _atom_key(expr)
            if key is None:
                raise DatasetError(f"alias {code!r} is not a torus, twist, pretzel "
                                   "or two-bridge knot")
            first = by_class.get(key[0])
            if first is not None:
                raise DatasetError(f"ALIAS rows {first[0].key} and {code} register one code")
            by_class[key[0]] = (row, key[1])
            by_name.setdefault(row.payload["name"], []).append(expr)
        ds.alias_index = (by_class, by_name)
    return ds.alias_index


def resolve(k: KnotExpr, ds) -> tuple:
    """(record, mirrored, atoms) for the atom k: the KNOT record of the
    knot that k presents, whether k presents its mirror, and k followed
    by every registered presentation of that knot in k's chirality, each
    once.  A name resolves by its row, a family atom by its class, and
    mirrored when its chirality is not that of the row's code; U and a
    two-bridge code with p = |ab - 1| = 1 resolve to 0_1.  An amphichiral
    knot is never mirrored.  (None, False, [k]) for any other expression;
    an unknown name is a KnotError."""
    if isinstance(k, Named):
        rec, mirrored = ds.knot_record(k.name), k.mirrored
        if rec is None:
            raise KnotError(f"unknown knot name {k.name!r}")
    else:
        key = _atom_key(k)
        if isinstance(k, Unknot) or key is not None and key[0] == ("TB", 1, 0):
            rec, mirrored = ds.knot_record("0_1"), False
        else:
            hit = None if key is None else _alias_index(ds)[0].get(key[0])
            if hit is None:
                return None, False, [k]
            rec, mirrored = ds.knot_record(hit[0].payload["name"]), key[1] != hit[1]
    mirrored = mirrored and not rec.structural.amphichiral
    atoms = [k]
    for expr in _alias_index(ds)[1].get(rec.name, ()):
        expr = mirror(expr) if mirrored else expr
        if expr not in atoms:
            atoms.append(expr)
    return rec, mirrored, atoms


def canonical(k: KnotExpr, ds) -> KnotExpr:
    """The canonical form of k against ds: every atom that resolve
    resolves written as its registered name (U for 0_1), sums rebuilt
    by make_sum, so unknot summands drop out, and cables by make_cable.
    k itself when nothing changes, so its memoised text and mirror stay."""
    if getattr(k, "_canonical_in", None) is ds:
        return k
    if isinstance(k, Sum):
        parts = [canonical(s, ds) for s in k.summands]
        c = k if all(map(operator.is_, parts, k.summands)) else make_sum(parts)
    elif isinstance(k, Cable):
        companion = canonical(k.companion, ds)
        c = k if companion is k.companion else make_cable(k.p, k.q, companion)
        c = c if isinstance(c, Cable) else canonical(c, ds)
    else:
        rec, mirrored, _ = resolve(k, ds)
        c = k if rec is None else Unknot() if rec.name == "0_1" else Named(rec.name, mirrored)
        c = k if c == k else c
    if c is k:
        object.__setattr__(k, "_canonical_in", ds)
    return c


def memo(cache: dict, k: KnotExpr, ds, compute):
    """compute(c, ds) for the canonical form c of k, kept in cache under
    the canonical texts of k and of c, the one key of every cache:
    presentations of one knot share one computation, and a warm call is
    one dict lookup."""
    try:
        return cache[k._text]
    except (AttributeError, KeyError):  # no text rendered yet, or no entry
        pass
    key = format_knot(k)
    c = canonical(k, ds)
    ckey = format_knot(c)
    value = cache[ckey] if ckey in cache else compute(c, ds)
    cache[key] = cache[ckey] = value
    return value


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------

def genus(k: KnotExpr, ds) -> Val:
    """Seifert genus: exact for torus/twist/cable/sum and table atoms."""
    return structural(k, ds).genus


def _mirror_structural(s: StructuralData, rec) -> StructuralData:
    # the record stores its mirror's quasipositivity, positivity and sl_max;
    # instanton L-space surgeries are positive surgeries, not mirror-invariant
    return s.replace(signature=None if s.signature is None else -s.signature,
                     sl_max=rec.mirror_sl_max, quasipositive=rec.mirror_quasipositive,
                     positive=rec.mirror_positive, instanton_lspace=None)


def structural(k: KnotExpr, ds) -> StructuralData:
    """Best-known structural data; fields stay unknown when neither a
    family formula nor a table entry applies.  The result is cached per
    dataset under the canonical form of k, and every caller gets the
    same immutable record."""
    return memo(ds.structural_cache, k, ds, _structural)


def _structural(k: KnotExpr, ds) -> StructuralData:
    if isinstance(k, Unknot):
        return ds.knot_record("0_1").structural
    if isinstance(k, Sum):
        return _sum_structural(k, ds)
    if isinstance(k, Cable):
        return _cable_structural(k, ds)

    # the table record, then the family data of every presentation, so
    # that each presentation of one knot gets the same answer; only a
    # registered knot has more than one, so rec names a contradiction
    rec, mirrored, atoms = resolve(k, ds)
    s = (StructuralData() if rec is None else
         _mirror_structural(rec.structural, rec) if mirrored else rec.structural)
    for expr in atoms:
        try:
            s = _merge_structural(s, _family_structural(expr))
        except Inconsistency as e:
            raise IntegrityError(f"knot record {rec.name}: {e} of {expr}") from None
    return s


def _merge_structural(a: StructuralData, b: StructuralData) -> StructuralData:
    """a's data, completed by b's; a field that b contradicts is an
    Inconsistency naming it."""
    met = {}
    for field in ("genus", "slice_genus"):
        x, y = getattr(a, field), getattr(b, field)
        try:
            met[field] = x.meet(y)
        except Inconsistency:
            raise Inconsistency(f"{field} {x} contradicts the {field} {y}") from None
    for field in ("signature", "determinant", "alexander", "sl_max", *FLAG_NAMES):
        met[field] = _meet_known(field, getattr(a, field), getattr(b, field))
    return StructuralData(**met)


def _meet_known(field: str, x, y):
    """x, or y where x is unknown (None); two known values must be equal."""
    if None not in (x, y) and x != y:
        raise Inconsistency(f"{field} {x} contradicts the {field} {y}")
    return y if x is None else x


def _family_structural(k: KnotExpr) -> StructuralData:
    nonneg = Val(0, None)
    if isinstance(k, Torus):
        g = (abs(k.p) - 1) * (k.q - 1) // 2
        positive = k.p > 0 or None  # T(p,q), p > 0: positive, an instanton L-space knot
        return StructuralData(genus=Val.exact(g), slice_genus=Val.exact(g),
                              determinant=_torus_det(abs(k.p), k.q), positive=positive,
                              quasipositive=positive, instanton_lspace=k.p > 0)
    if isinstance(k, Pretzel):
        # det |ab + bc + ca| (Goeritz); the diagram alternates if all strands twist one way
        known = {"determinant": abs(k.a * k.b + k.b * k.c + k.c * k.a),
                 "alternating": 0 < k.a * k.b and 0 < k.b * k.c or None}
        if _pretzel_n33(k) is not None:
            # the P(n,3,-3) family is smoothly slice (band to the unlink)
            return StructuralData(slice_genus=Val.exact(0), genus=nonneg, **known)
        n = _pretzel_odd32(k)
        if n is not None:
            # signature -2n and slice genus |n| (|n| crossing changes reach the unknot)
            return StructuralData(slice_genus=Val.exact(abs(n)), genus=nonneg,
                                  signature=-2 * n, **known)
        return StructuralData(genus=nonneg, slice_genus=nonneg, **known)
    if isinstance(k, TwoBridge):
        # two-bridge knots are alternating, and their double branched
        # cover is L(p,q), p = |ab - 1|, q = +-b; by Schubert, the knot is
        # its own mirror iff q^2 = -1 (mod p).  Twist knots have Seifert
        # genus 1, and the odd ones a positive mirror, so slice genus exactly 1
        p = abs(k.a * k.b - 1)  # never 0: a code is never both odd
        flags = {"alternating": True, "amphichiral": (k.b * k.b + 1) % p == 0}
        g = gs = nonneg
        tw = twist_form(k)
        if tw is not None:
            n, mirrored = tw
            if n % 2 == 1 and mirrored:
                flags.update({"positive": True, "quasipositive": True})
            # slice genus 1 for odd n, at most 1 for even n
            g, gs = Val.exact(1), Val(n % 2, 1)
        return StructuralData(genus=g, slice_genus=gs, determinant=p, **flags)
    return StructuralData(genus=nonneg, slice_genus=nonneg)


def _torus_det(p: int, q: int) -> int:
    """det T(p,q) = |product over the torus-knot Alexander roots at -1|."""
    if p % 2 == 0 or q % 2 == 0:
        return p if q % 2 == 0 else q
    return 1


def _pretzel_n33(k: Pretzel) -> int | None:
    """Match P(n, 3, -3) up to permutation; returns n."""
    return k.a + k.b + k.c if {3, -3} <= {k.a, k.b, k.c} else None


def _pretzel_odd32(k: Pretzel) -> int | None:
    """Match P(2n-1, 3, 2) with n >= 1 up to permutation, returning n, or
    its mirror P(1-2n, -3, -2), returning -n."""
    for sign in (1, -1):
        strands = {sign * k.a, sign * k.b, sign * k.c}
        x = sign * (k.a + k.b + k.c) - 5
        if {2, 3} <= strands and x % 2 == 1 and x >= 1:
            return sign * ((x + 1) // 2)
    return None


def _sum_structural(k: Sum, ds) -> StructuralData:
    parts = [structural(s, ds) for s in k.summands]
    g = parts[0].genus
    for p in parts[1:]:
        g = g + p.genus
    # each total is unknown (None) when a summand's term is
    his, sigmas, dets = ([p.slice_genus.hi for p in parts], [p.signature for p in parts],
                         [p.determinant for p in parts])
    gs_hi = None if None in his else sum(his)
    sigma = None if None in sigmas else sum(sigmas)
    det = None if None in dets else math.prod(dets)
    is_slice = all(p.slice_genus == Val.exact(0) for p in parts) or _is_mirror_paired(k, ds)
    gs = Val.exact(0) if is_slice else Val(0, gs_hi)
    # a sum of alternating diagrams, joined at an outer edge, alternates
    return StructuralData(genus=g, slice_genus=gs, signature=sigma, determinant=det,
                          alternating=all(p.alternating for p in parts) or None,
                          quasipositive=all(p.quasipositive for p in parts) or None,
                          positive=all(p.positive for p in parts) or None)


def _is_mirror_paired(k: Sum, ds) -> bool:
    """True when the summands of the canonical sum k cancel in mirror
    pairs (a slice pattern): each needs as many copies of its mirror as
    of itself, and one that is its own mirror an even number."""
    counts = Counter(k.summands)
    for x, n in counts.items():
        mx = canonical(mirror(x), ds)
        if (n % 2 == 1) if mx == x else (counts[mx] != n):
            return False
    return True


def _cable_structural(k: Cable, ds) -> StructuralData:
    comp = structural(k.companion, ds)
    g = Val()
    if comp.genus.is_exact:
        # coprime p and q are not both even, so (|p| - 1)(q - 1) is even
        g = Val.exact((abs(k.p) - 1) * (k.q - 1) // 2 + k.q * comp.genus.value())
    return StructuralData(genus=g, slice_genus=Val(0, None))
