"""Exact values, intervals with parity constraints, and the unknown state;
and Record, the base class of every immutable isharp record.

The deduction engine narrows each invariant through a lattice of states:
completely unknown, a bounded or half-bounded interval (optionally with a
mod-2 parity constraint), or an exact value.  Each state has one form,
which Val's constructor builds: the finite ends of a parity interval
lie on the parity, and an exact value carries its parity, so equal sets
of integers are equal states.  Narrowing two incompatible states raises
Inconsistency.  Every invariant isharp deduces (nu, tau, r0, the
genera, the dimensions) is an integer, so every end is a Python int:
deduction runs on exact int arithmetic, and an end of any other type (a
Fraction, a float, a bool) raises TypeError.

Record, the base of the immutable records, and Value, a record stored
as a tuple, live here, in the lowest layer, since every CLI call imports
it: `dataclasses`, which pulls in `inspect`, `ast` and `dis`, cost about
a quarter of a short call's start-up.

Slope, the reduced surgery coefficient p/q, with reduce and parse_slope,
and the record-file errors DatasetError and IntegrityError live here too,
so a `dim` call skips the continued fractions of `slopes`, and the CLI
maps exit codes without compiling the loader.  So does Scanner, the one
reader of all text isharp takes (knots, manifolds, slopes, `cable P Q`):
BLANKS, the ASCII blanks, may stand between any two tokens, an integer
is an INTEGER (a sign and ASCII digits), and a syntax error reads
"<what> at position <i> in <text>".  knots._Parser adds the knot grammar to it.
"""

import re
from math import gcd
from operator import attrgetter, itemgetter


class Record:
    """Base of the immutable records: equality by exact type and fields,
    a matching hash, the repr Name(field=value, ...), assignment that
    raises, and replace(**changes).

    A record's fields are its class's _fields, in order (by default the
    __slots__ its class declares), and its constructor takes them under
    the same names and in the same order, checking them as plain code;
    replace, pickling and copying rebuild records through it.  Any other
    slot is derived from the fields (a knot expression's canonical text,
    a bundle's (nu, r0) pairs): recomputed on each rebuild, and never seen
    by equality, hashing, repr, replace or pickling.  __init__ stores the
    fields with _fill, since assignment raises, and derived slots with
    object.__setattr__.

    Slope, slopes.Triad and dimension.DimResult, built at every step of
    the slope sweep, are Values, stored as tuples and checked by __new__:
    one C call builds a tuple, where a slotted record pays a setter call
    per field, as __setattr__ blocks the fast slot store.  The sweep's two
    timed builders, slopes.triad and dimension._formula_dim, alone call
    tuple.__new__ itself, skipping the checks their arithmetic proves;
    its timed readers index a slope, cheaper than a property or unpack.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        # equality and hashing read the fields in one C call; a one-field
        # record compares by its value, a field-less one by its class
        cls._key = attrgetter(*cls._fields or ("__class__",))

    def _fill(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}: records are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}: records are immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return (type(self), tuple(getattr(self, name) for name in self._fields))

    def replace(self, **changes):
        """A copy with the given fields changed, checked by the constructor."""
        fields = {name: getattr(self, name) for name in self._fields}
        fields.update(changes)
        return type(self)(**fields)


class Inconsistency(ValueError):
    """Two deduction steps produced incompatible values."""


class Val(Record):
    """A known integer, an interval [lo, hi] of integers, or unknown
    (both ends None).

    Each end is None (unbounded) or an int; __init__ raises TypeError on
    any other end.  parity, when not None, is the int 0 or 1, the residue
    mod 2 of every value the state admits.  Every state has one form:
    __init__ moves each finite end onto the parity (Val(0, 5, 1) is
    Val(1, 5, 1)), and an exact value always carries its parity, so two
    states are equal exactly when they admit the same integers."""

    __slots__ = ("lo", "hi", "parity")

    def __init__(self, lo: int | None = None, hi: int | None = None,
                 parity: int | None = None):
        if (lo is not None and type(lo) is not int) or (hi is not None and type(hi) is not int):
            raise TypeError(f"Val ends must be ints, got [{lo!r}, {hi!r}]")
        if lo is not None and hi is not None and lo > hi:
            raise Inconsistency(f"empty interval [{lo}, {hi}]")
        if parity is None:
            if lo is not None and lo == hi:
                parity = lo % 2
        elif type(parity) is not int or parity not in (0, 1):  # True and 1.0 too
            raise ValueError(f"parity must be 0 or 1, got {parity}")
        elif lo is not None and lo == hi:
            if lo % 2 != parity:
                raise Inconsistency(f"exact value {lo} violates parity {parity}")
        else:
            # lo < hi admits both parities, so the moved ends never cross
            if lo is not None and lo % 2 != parity:
                lo += 1
            if hi is not None and hi % 2 != parity:
                hi -= 1
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_parity(self, parity)

    @staticmethod
    def exact(x: int) -> "Val":
        return Val(x, x)

    @property
    def is_exact(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    @property
    def is_unknown(self) -> bool:
        return self.lo is None and self.hi is None and self.parity is None

    def value(self) -> int:
        if not self.is_exact:
            raise ValueError(f"value of non-exact {self}")
        return self.lo

    def meet(self, other: "Val") -> "Val":
        """Intersection of the two states; raises Inconsistency when empty."""
        lo = max((x for x in (self.lo, other.lo) if x is not None), default=None)
        hi = min((x for x in (self.hi, other.hi) if x is not None), default=None)
        if self.parity is not None and other.parity is not None and self.parity != other.parity:
            raise Inconsistency(f"parity clash: {self} vs {other}")
        parity = self.parity if self.parity is not None else other.parity
        if lo is not None and hi is not None and lo > hi:
            raise Inconsistency(f"disjoint: {self} vs {other}")
        return Val(lo, hi, parity)

    def contains(self, x: int) -> bool:
        if self.lo is not None and x < self.lo:
            return False
        if self.hi is not None and x > self.hi:
            return False
        return self.parity is None or x % 2 == self.parity

    def candidates(self, limit: int) -> list[int] | None:
        """Every integer this state admits, stepping by 2 under a parity
        constraint; None when it is unbounded or admits more than limit."""
        if self.lo is None or self.hi is None:
            return None
        step = 1 if self.parity is None else 2
        # counted before the range is built: len() of a range longer than
        # sys.maxsize raises OverflowError
        if self.hi - self.lo >= limit * step:
            return None
        return list(range(self.lo, self.hi + 1, step))

    def __add__(self, other: "Val") -> "Val":
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        parity = None
        if self.parity is not None and other.parity is not None:
            parity = (self.parity + other.parity) % 2
        return Val(lo, hi, parity)

    def __neg__(self) -> "Val":
        return Val(None if self.hi is None else -self.hi,
                   None if self.lo is None else -self.lo, self.parity)

    def __sub__(self, other: "Val") -> "Val":
        return self + (-other)

    def min_abs(self) -> int:
        """The least |x| over the values this state admits."""
        if self.lo is not None and self.lo >= 0:
            return self.lo
        if self.hi is not None and self.hi <= 0:
            return -self.hi
        return 1 if self.parity == 1 else 0  # straddles zero

    def __str__(self) -> str:
        if self.is_unknown:
            return "?"
        if self.is_exact:
            return str(self.lo)
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        s = f"[{lo},{hi}]"
        if self.parity is not None:
            s += f" ({'even' if self.parity == 0 else 'odd'})"
        return s

    def to_json(self):
        if self.is_unknown:
            return None
        if self.is_exact:
            return self.lo
        out = {"lo": self.lo, "hi": self.hi}
        if self.parity is not None:
            out["parity"] = self.parity
        return out


_set_lo, _set_hi, _set_parity = Val.lo.__set__, Val.hi.__set__, Val.parity.__set__


class DatasetError(ValueError):
    """Parse failure or integrity violation in a record file."""


class IntegrityError(DatasetError):
    """A recomputed value disagrees with stored table data."""


class SlopeError(ValueError):
    """Invalid slope or continued-fraction input."""


class Value(Record, tuple):
    """A record stored as the tuple of its fields, each read by a property;
    a subclass declares _fields and empty __slots__, and checks in __new__.
    It equals only a value of its class with equal items, never a plain
    tuple, and hashes as its tuple.  Ordering, + and * raise TypeError
    with a tuple on either side, as Python tries a subclass's reflected
    method first ((1, 2) < v calls v.__gt__)."""

    __slots__ = ()
    __hash__, __ne__ = tuple.__hash__, object.__ne__  # object's __ne__ negates __eq__

    def _refuse(self, other):
        raise TypeError(f"{type(self).__name__} values are not ordered, added or repeated")

    __lt__ = __le__ = __gt__ = __ge__ = __add__ = __radd__ = __mul__ = __rmul__ = _refuse

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)


class Slope(Value):
    """A reduced rational surgery coefficient p/q; q == 0 encodes infinity."""

    _fields = ("p", "q")
    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if q < 0 or gcd(p, q) != 1:
            raise SlopeError(f"not a reduced slope: {p}/{q}")
        if q == 0 and p != 1:
            raise SlopeError(f"infinite slope must be 1/0, got {p}/0")
        return super().__new__(cls, (p, q))

    @property
    def is_infinite(self) -> bool:
        return self.q == 0

    @property
    def is_integer(self) -> bool:
        return self.q == 1

    def __neg__(self) -> "Slope":
        return self if self.is_infinite else Slope(-self.p, self.q)

    def __str__(self) -> str:
        return "inf" if self.is_infinite else f"{self.p}/{self.q}"


INFINITY = Slope(1, 0)


def reduce(p: int, q: int) -> Slope:
    """Canonical reduced slope for an arbitrary integer pair (p, q) != (0, 0)."""
    if p == 0 and q == 0:
        raise SlopeError("0/0 is not a slope")
    g = gcd(p, q)
    p, q = p // g, q // g
    if q < 0 or q == 0 and p < 0:  # -1/0 is inf, as -inf is
        p, q = -p, -q
    return Slope(p, q)


BLANKS = " \t\n\r\v\f"
INTEGER = re.compile(r"[+-]?[0-9]+")


class Scanner:
    """Reads text in place from pos; each production skips the BLANKS
    before its token, and error raises Error (KnotError in knots)."""

    Error = SlopeError

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise self.Error(f"{msg} at position {self.pos} in {self.text!r}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in BLANKS:
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
        m = INTEGER.match(self.text, self.pos)
        if not m:
            self.error("expected an integer")
        self.pos = m.end()
        return int(m.group())

    def slope(self) -> Slope:
        """"inf", or p or p/q with INTEGER p and q, reduced."""
        if self.peek() == "i":
            self.expect("inf")
            return INFINITY
        p, q = self.integer(), 1
        if self.peek() == "/":
            self.pos += 1
            q = self.integer()
        return reduce(p, q)

    def end(self):
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")

    def whole(self, production):
        """production(self), which must read the text to its end."""
        value = production(self)
        self.end()
        return value


def parse_slope(text: str) -> Slope:
    """A slope alone, as Scanner.slope reads it: "inf", p or p/q."""
    return Scanner(text).whole(Scanner.slope)


def parse_integer(text: str) -> int:
    """An integer alone: the P and Q of `isharp cable P Q K`."""
    return Scanner(text).whole(Scanner.integer)
