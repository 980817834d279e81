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

Record gives a slotted class value semantics: equality by exact type and
field tuple, a matching hash, the usual Name(field=value, ...) repr,
assignment that raises, replace(**changes), and pickling and deep copies
that rebuild through __init__.  A record's fields are its _fields, by
default the __slots__ its class declares.  Any other slot, declared by a
base class or left out of _fields, is derived: a value computed from the
fields (a knot expression's canonical text, a bundle's (nu, r0) pairs)
that equality, hashing, repr, replace and pickling never see, and that
is never a constructor argument.  Each record writes its own __init__, so
its checks read as plain code and its constructor costs no more than the
field stores.  Records live here, in the lowest layer, because every CLI
call imports this module anyway: the class-generating machinery of
`dataclasses` (which pulls in `inspect`, `ast` and `dis`) cost about a
quarter of a short call's start-up.

Slope, the reduced surgery coefficient p/q, with reduce and parse_slope,
and the record-file errors DatasetError and IntegrityError live here
too, so a `dim` call skips the continued fractions of `slopes`, and the
CLI maps exit codes without compiling the loader.
"""

import math
from operator import attrgetter


class Record:
    """Base of the immutable records.

    A record's fields are its class's _fields, in order (by default the
    __slots__ the class itself declares), and its __init__ takes them
    under the same names and in the same order; replace, pickling and
    copying rebuild records through __init__, so they re-run its checks
    and recompute every derived slot.  __init__ stores the fields with
    _fill, since ordinary assignment raises; the records built in bulk
    while deducing or sweeping slopes (Val, Slope, Triad, DimResult,
    StructuralData, the knot expressions and TraceEntry) store them with
    object.__setattr__, which skips _fill's extra call and loop.
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
        """A copy with the given fields changed, checked by __init__."""
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
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "parity", parity)

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
        ints = range(self.lo, self.hi + 1, 1 if self.parity is None else 2)
        return list(ints) if len(ints) <= limit else None

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


class DatasetError(ValueError):
    """Parse failure or integrity violation in a record file."""


class IntegrityError(DatasetError):
    """A recomputed value disagrees with stored table data."""


class SlopeError(ValueError):
    """Invalid slope or continued-fraction input."""


class Slope(Record):
    """A reduced rational surgery coefficient p/q; q == 0 encodes infinity."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if q < 0 or math.gcd(abs(p), q) != 1:
            raise SlopeError(f"not a reduced slope: {p}/{q}")
        if q == 0 and p != 1:
            raise SlopeError(f"infinite slope must be 1/0, got {p}/0")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def is_infinite(self) -> bool:
        return self.q == 0

    @property
    def is_integer(self) -> bool:
        return self.q == 1

    def __neg__(self) -> "Slope":
        if self.is_infinite:
            return self
        return Slope(-self.p, self.q)

    def __str__(self) -> str:
        return "inf" if self.is_infinite else f"{self.p}/{self.q}"


INFINITY = Slope(1, 0)


def reduce(p: int, q: int) -> Slope:
    """Canonical reduced slope for an arbitrary integer pair (p, q) != (0, 0)."""
    if p == 0 and q == 0:
        raise SlopeError("0/0 is not a slope")
    g = math.gcd(abs(p), abs(q))
    p, q = p // g, q // g
    if q < 0:
        p, q = -p, -q
    return Slope(p, q)


def parse_slope(text: str) -> Slope:
    """Parse "p/q", a bare integer, or "inf"."""
    text = text.strip()
    if text in ("inf", "1/0"):
        return INFINITY
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return reduce(int(num), int(den))
        except ValueError as e:
            raise SlopeError(f"bad slope {text!r}: {e}") from None
    try:
        return Slope(int(text), 1)
    except ValueError:
        raise SlopeError(f"bad slope {text!r}") from None
