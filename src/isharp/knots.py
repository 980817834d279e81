"""Algebraic knot descriptions and their structural invariants.

Expressions are immutable trees built from named atoms, torus / twist /
pretzel / two-bridge family atoms, cables, and connected sums.  Mirrors
are normalized down to the atoms (a chirality flag or a sign), so a
normalized expression never contains an explicit mirror node, and a
cable of the unknot is the torus knot it is.  Each expression keeps its
text once format_knot has rendered it; that text parses back to an
equal expression.

The dataset keeps its alias codes ("T(3,5)", "P(-2,3,7)", ...) as text;
this module alone parses them, once per dataset, into an index that
resolve_atom and equivalent_atoms read.  canonical writes every
presentation of a registered knot as its name (U for the unknot), and
memo keys the per-dataset caches of structural here and of deduce and
lspace_cable in invariants on that form: T(3,5) and 10_124 share one
computation, and an alias input gets its registered knot's trace.

structural returns the StructuralData record that datasets defines and
its knot records hold; it combines those records with the family
formulas of every registered presentation of the knot.  Every function
that reads the tables takes the Dataset as its ds argument.

Chirality follows the Rolfsen / Knot Atlas tables: 3_1 is the left-handed
trefoil, and the signature of the right-handed trefoil is -2.
"""

import math
import operator
import re
from collections import Counter

from .datasets import FLAG_NAMES, NO_FLAGS, StructuralData, make_flags
from .values import DatasetError, Record, Val


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
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "mirrored", mirrored)


class Torus(KnotExpr):
    """T(p, q) with 2 <= p < q coprime; chirality is the sign of p."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if not (2 <= abs(p) < q) or math.gcd(abs(p), q) != 1:
            raise KnotError(f"bad torus parameters ({p},{q})")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


class Twist(KnotExpr):
    """Twist knot with a positive clasp and n >= 1 positive half-twists."""

    __slots__ = ("n", "mirrored")

    def __init__(self, n: int, mirrored: bool = False):
        if n < 1:
            raise KnotError(f"twist knot needs n >= 1, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mirrored", mirrored)


class Pretzel(KnotExpr):
    __slots__ = ("a", "b", "c", "mirrored")

    def __init__(self, a: int, b: int, c: int, mirrored: bool = False):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "mirrored", mirrored)


class TwoBridge(KnotExpr):
    """Two twist regions with a and b signed crossings; not both odd."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if a % 2 == 1 and b % 2 == 1:
            raise KnotError(f"two-bridge code ({a},{b}) has both entries odd")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


class Cable(KnotExpr):
    """The (p, q)-cable, q >= 2 and gcd(p, q) = 1, of the companion knot."""

    __slots__ = ("p", "q", "companion")

    def __init__(self, p: int, q: int, companion: KnotExpr):
        if q < 2 or math.gcd(abs(p), q) != 1:
            raise KnotError(f"cable needs q >= 2 and gcd(p,q)=1, got ({p},{q})")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "companion", companion)


class Sum(KnotExpr):
    __slots__ = ("summands",)

    def __init__(self, summands: tuple[KnotExpr, ...]):
        if len(summands) < 2:
            raise KnotError("connected sum needs at least two summands")
        object.__setattr__(self, "summands", summands)


def make_torus(p: int, q: int) -> KnotExpr:
    """Normalize T(p, q): unordered parameters, sign = chirality."""
    if p == 0 or q == 0 or math.gcd(abs(p), abs(q)) != 1:
        raise KnotError(f"bad torus parameters ({p},{q})")
    if abs(p) == 1 or abs(q) == 1:
        return Unknot()
    sign = 1 if p * q > 0 else -1
    a, b = sorted((abs(p), abs(q)))
    return Torus(sign * a, b)


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
    if isinstance(k, (Named, Twist, Pretzel)):
        return k.replace(mirrored=not k.mirrored)
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

# Deepest accepted nesting of m(...) and Cab(...) together.  The parser,
# mirror() and the deduction engine all recurse once per level, and a
# cable chain 100 deep still answers within the interpreter's default
# recursion limit; deeper input is refused with a KnotError instead of
# ending in a RecursionError.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, msg: str):
        raise KnotError(f"{msg} at position {self.pos} in {self.text!r}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if not self.text.startswith(ch, self.pos):
            self.error(f"expected {ch!r}")
        self.pos += len(ch)

    def integer(self) -> int:
        self.skip_ws()
        m = re.match(r"[+-]?[0-9]+", self.text[self.pos:])
        if not m:
            self.error("expected an integer")
        self.pos += m.end()
        return int(m.group())

    def int_args(self, n: int) -> list[int]:
        self.expect("(")
        args = [self.integer()]
        for _ in range(n - 1):
            self.expect(",")
            args.append(self.integer())
        self.expect(")")
        return args

    def enter(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING}")

    def token(self) -> str:
        """The text up to the next ';' or ')', stripped."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in ";)":
            self.pos += 1
        return self.text[start:self.pos].strip()

    def end(self):
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")

    def parse(self) -> KnotExpr:
        expr = self.sum_expr()
        self.end()
        return expr

    def sum_expr(self) -> KnotExpr:
        parts = [self.atom_expr()]
        while self.peek() == "#":
            self.expect("#")
            parts.append(self.atom_expr())
        return make_sum(parts) if len(parts) > 1 else parts[0]

    def atom_expr(self) -> KnotExpr:
        self.skip_ws()
        rest = self.text[self.pos:]
        if rest.startswith("m("):
            self.pos += 1
            self.expect("(")
            self.enter()
            inner = self.sum_expr()
            self.expect(")")
            self.depth -= 1
            return mirror(inner)
        if rest.startswith("Cab("):
            self.pos += 3
            self.expect("(")
            p = self.integer()
            self.expect(",")
            q = self.integer()
            self.expect(";")
            self.enter()
            companion = self.sum_expr()
            self.expect(")")
            self.depth -= 1
            return make_cable(p, q, companion)
        if rest.startswith("Tw("):
            self.pos += 2
            (n,) = self.int_args(1)
            return Twist(n)
        if rest.startswith("TB("):
            self.pos += 2
            a, b = self.int_args(2)
            return TwoBridge(a, b)
        if rest.startswith("T("):
            self.pos += 1
            p, q = self.int_args(2)
            return make_torus(p, q)
        if rest.startswith("P("):
            self.pos += 1
            a, b, c = self.int_args(3)
            return Pretzel(a, b, c)
        if rest.startswith("U") and not _NAME_RE.match(rest):
            self.pos += 1
            return Unknot()
        m = _NAME_RE.match(rest)
        if m:
            self.pos += m.end()
            name = m.group()
            return Unknot() if name == "0_1" else Named(name)
        self.error("expected a knot expression")


def parse_knot(text: str) -> KnotExpr:
    """Parse the knot grammar: "3_1", "m(...)", "T(p,q)", "Tw(n)",
    "P(a,b,c)", "TB(a,b)", "Cab(p,q;K)", "K1 # K2", "U".  At most
    MAX_NESTING mirrors and cables may enclose one another."""
    return _Parser(text).parse()


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
    if isinstance(k, Twist):
        s = f"Tw({k.n})"
        return f"m({s})" if k.mirrored else s
    if isinstance(k, Pretzel):
        s = f"P({k.a},{k.b},{k.c})"
        return f"m({s})" if k.mirrored else s
    if isinstance(k, TwoBridge):
        return f"TB({k.a},{k.b})"
    if isinstance(k, Cable):
        return f"Cab({k.p},{k.q};{format_knot(k.companion)})"
    if isinstance(k, Sum):
        return " # ".join(format_knot(s) for s in k.summands)
    raise KnotError(f"cannot format {k!r}")


# ---------------------------------------------------------------------------
# The presentation index: alias codes resolved against the loaded dataset
# ---------------------------------------------------------------------------

def _twist_from_two_bridge(k: TwoBridge):
    """K(2, 2n) is the twist knot with 2n-1 half-twists, K(-2, 2n) the one
    with 2n; mirrors for negated codes."""
    for a, b, mirrored in ((k.a, k.b, False), (-k.a, -k.b, True)):
        if a == 2 and b >= 2 and b % 2 == 0:
            return Twist(b - 1, mirrored)
        if a == -2 and b >= 2 and b % 2 == 0:
            return Twist(b, mirrored)
    return None


def _two_bridge_from_twist(tw: Twist) -> TwoBridge:
    """The inverse of _twist_from_two_bridge: 2n-1 half-twists give
    K(2, 2n), 2n give K(-2, 2n); a mirror negates the code."""
    a, b = (2, tw.n + 1) if tw.n % 2 == 1 else (-2, tw.n)
    return TwoBridge(-a, -b) if tw.mirrored else TwoBridge(a, b)


def _atom_key(k: KnotExpr):
    """The index key of a family atom, None for any other expression: the
    atom itself, a two-bridge code in twist form as its twist knot, and a
    pretzel as its sorted strands, negated when it is mirrored."""
    if isinstance(k, TwoBridge):
        return _twist_from_two_bridge(k) or k
    if isinstance(k, Pretzel):
        return Pretzel(*sorted((-k.a, -k.b, -k.c) if k.mirrored else (k.a, k.b, k.c)))
    return k if isinstance(k, (Torus, Twist)) else None


def _alias_index(ds) -> tuple[dict, dict]:
    """The alias registry of ds, parsed once: atom key -> (name, mirrored),
    the first code in registry order winning a key, and name -> its
    presentations [(expression, mirrored)] in registry order.  A code
    that is not a torus, twist, pretzel or two-bridge atom is a
    DatasetError."""
    if ds.alias_index is None:
        by_key: dict = {}
        by_name: dict = {}
        for code, (name, mirrored) in ds.aliases.items():
            try:
                expr = parse_knot(code)
            except KnotError as e:
                raise DatasetError(f"alias {code!r}: {e}") from None
            key = _atom_key(expr)
            if key is None:
                raise DatasetError(f"alias {code!r} is not a torus, twist, pretzel "
                                   "or two-bridge knot")
            by_key.setdefault(key, (name, mirrored))
            by_name.setdefault(name, []).append((expr, mirrored))
        ds.alias_index = (by_key, by_name)
    return ds.alias_index


def resolve_atom(k: KnotExpr, ds) -> tuple[str, bool] | None:
    """Resolve an atomic expression to (canonical name, mirrored), if known:
    a family atom by its index key, or else by its mirror's."""
    if isinstance(k, Unknot):
        return ("0_1", False)
    if isinstance(k, Named):
        name, mirrored = k.name, k.mirrored
        if ds.knot_record(name) is None:
            raise KnotError(f"unknown knot name {name!r}")
    else:
        key = _atom_key(k)
        if key is None:
            return None
        by_key = _alias_index(ds)[0]
        hit = by_key.get(key)
        if hit is not None:
            name, mirrored = hit
        else:
            hit = by_key.get(_atom_key(mirror(k)))
            if hit is None:
                return None
            name, mirrored = hit[0], not hit[1]
    rec = ds.knot_record(name)
    if rec is not None and rec.structural.flag("amphichiral"):
        mirrored = False
    return (name, mirrored)


def equivalent_atoms(k: KnotExpr, ds) -> list[KnotExpr]:
    """k, then every registered presentation of the knot that k presents,
    in its chirality; the presentations equal to k are left out."""
    out = [k]
    hit = resolve_atom(k, ds)
    if hit is not None:
        name, mirrored = hit
        for expr, code_mirrored in _alias_index(ds)[1].get(name, ()):
            if code_mirrored != mirrored:
                expr = mirror(expr)
            if expr != k:
                out.append(expr)
    return out


def canonical(k: KnotExpr, ds) -> KnotExpr:
    """The canonical form of k against ds: every atom that resolve_atom
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
        hit = resolve_atom(k, ds)
        c = k if hit is None else Unknot() if hit[0] == "0_1" else Named(*hit)
        c = k if c == k else c
    if c is k:
        object.__setattr__(k, "_canonical_in", ds)
    return c


def registered_record(k: KnotExpr, ds):
    """(record, mirrored) of the table knot that the canonical atom k
    names, U naming 0_1; (None, False) for any other expression."""
    if isinstance(k, Unknot):
        return ds.knot_record("0_1"), False
    return (ds.knot_record(k.name), k.mirrored) if isinstance(k, Named) else (None, False)


def memo(cache: dict, k: KnotExpr, ds, compute, *args):
    """compute(c, ds, *args) for the canonical form c of k, kept in cache
    under the texts of k and of c, each followed by args: presentations of
    one knot share one computation, and a warm call is one dict lookup."""
    try:
        return cache[(k._text,) + args]
    except (AttributeError, KeyError):  # no text rendered yet, or no entry
        pass
    key = (format_knot(k),) + args
    c = canonical(k, ds)
    ckey = (format_knot(c),) + args
    value = cache[ckey] if ckey in cache else compute(c, ds, *args)
    cache[key] = cache[ckey] = value
    return value


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------

def genus(k: KnotExpr, ds) -> Val:
    """Seifert genus: exact for torus/twist/cable/sum and table atoms."""
    return structural(k, ds).genus


def _mirror_structural(s: StructuralData, rec) -> StructuralData:
    # the record stores its mirror's quasipositivity and positivity;
    # instanton L-space surgeries are positive surgeries, not mirror-invariant
    stored = dict(zip(FLAG_NAMES, rec.mirror_flags))
    flags = dict(zip(FLAG_NAMES, s.flags), quasipositive=stored.get("quasipositive"),
                 positive=stored.get("positive"), instanton_lspace=None)
    return StructuralData(
        genus=s.genus,
        slice_genus=s.slice_genus,
        signature=None if s.signature is None else -s.signature,
        determinant=s.determinant,
        alexander=s.alexander,
        sl_max=rec.mirror_sl_max,
        flags=make_flags(**flags),
    )


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
    # that each presentation of one knot gets the same answer
    rec, mirrored = registered_record(k, ds)
    if rec is not None:
        s = _mirror_structural(rec.structural, rec) if mirrored else rec.structural
    else:
        s = StructuralData()
    for expr in equivalent_atoms(k, ds):
        s = _merge_structural(s, _family_structural(expr))
    return s


def _merge_structural(a: StructuralData, b: StructuralData) -> StructuralData:
    flags = tuple(y if x is None else x for x, y in zip(a.flags, b.flags))
    return StructuralData(
        genus=a.genus.meet(b.genus),
        slice_genus=a.slice_genus.meet(b.slice_genus),
        signature=a.signature if a.signature is not None else b.signature,
        determinant=a.determinant if a.determinant is not None else b.determinant,
        alexander=a.alexander if a.alexander is not None else b.alexander,
        sl_max=a.sl_max if a.sl_max is not None else b.sl_max,
        flags=flags,
    )


def _family_structural(k: KnotExpr) -> StructuralData:
    nonneg = Val(0, None)
    if isinstance(k, Torus):
        g = (abs(k.p) - 1) * (k.q - 1) // 2
        flags = NO_FLAGS
        if k.p > 0:
            flags = make_flags(positive=True, quasipositive=True, homogeneous=True,
                               instanton_lspace=True)
        return StructuralData(genus=Val.exact(g), slice_genus=Val.exact(g),
                              determinant=_torus_det(abs(k.p), k.q), flags=flags)
    if isinstance(k, Twist):
        # twist knots are alternating with Seifert genus 1; the odd ones have
        # a positive mirror, so their slice genus is exactly 1
        flags = {"alternating": True, "homogeneous": True}
        if k.n % 2 == 1:
            if k.mirrored:
                flags.update({"positive": True, "quasipositive": True})
            return StructuralData(genus=Val.exact(1), slice_genus=Val.exact(1),
                                  flags=make_flags(**flags))
        return StructuralData(genus=Val.exact(1), slice_genus=Val(0, 1),
                              flags=make_flags(**flags))
    if isinstance(k, Pretzel):
        if _pretzel_n33(k) is not None:
            # the P(n,3,-3) family is smoothly slice (band to the unlink)
            return StructuralData(slice_genus=Val.exact(0), genus=nonneg,
                                  flags=make_flags(slice=True))
        n = _pretzel_odd32(k)
        if n is not None:
            # alternating diagrams with signature -2n and slice genus n
            # (an n-fold crossing change reaches the unknot)
            sigma = -2 * n if not k.mirrored else 2 * n
            return StructuralData(slice_genus=Val.exact(n), genus=nonneg,
                                  signature=sigma,
                                  flags=make_flags(alternating=True, homogeneous=True))
        return StructuralData(genus=nonneg, slice_genus=nonneg)
    if isinstance(k, TwoBridge):
        # two-bridge knots are alternating
        return StructuralData(genus=nonneg, slice_genus=nonneg,
                              flags=make_flags(alternating=True, homogeneous=True))
    return StructuralData(genus=nonneg, slice_genus=nonneg)


def _torus_det(p: int, q: int) -> int:
    """det T(p,q) = |product over the torus-knot Alexander roots at -1|."""
    if p % 2 == 0 or q % 2 == 0:
        return p if q % 2 == 0 else q
    return 1


def _pretzel_n33(k: Pretzel) -> int | None:
    """Match P(n, 3, -3) up to permutation; returns n."""
    args = [k.a, k.b, k.c]
    for i in range(3):
        rest = args[:i] + args[i + 1:]
        if sorted(rest) == [-3, 3]:
            return args[i]
    return None


def _pretzel_odd32(k: Pretzel) -> int | None:
    """Match P(2n-1, 3, 2) with n >= 1 up to permutation; returns n."""
    args = [k.a, k.b, k.c]
    for i in range(3):
        rest = sorted(args[:i] + args[i + 1:])
        if rest == [2, 3] and args[i] % 2 == 1 and args[i] >= 1:
            return (args[i] + 1) // 2
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
    all_slice = all(p.flag("slice") for p in parts)
    is_slice = True if (all_slice or _is_mirror_paired(k, ds)) else None
    gs = Val.exact(0) if is_slice else Val(0, gs_hi)
    # sums of alternating knots need not be alternating: that flag stays unknown
    flags = make_flags(slice=is_slice,
                       quasipositive=all(p.flag("quasipositive") for p in parts) or None,
                       positive=all(p.flag("positive") for p in parts) or None)
    return StructuralData(genus=g, slice_genus=gs, signature=sigma, determinant=det,
                          flags=flags)


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
