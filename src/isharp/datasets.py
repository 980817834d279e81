"""Bundled table data: an integrity-checked loader for the line-delimited
record file, the records it builds, lookup by (table, key), and the
writer that saves them.

The record file is UTF-8 JSON lines, one object per line, with fields
{schema_version, table, key, payload, citation}.  Tables T1-T8 mirror the
published computations this library reproduces; KNOT rows hold structural
data per knot, and ALIAS rows hold the registered family identifications.
A malformed row raises DatasetError while the file loads.

The alias registry (Dataset.aliases) maps each code, such as "T(3,5)" or
"P(-2,3,7)", to the knot it presents; here the codes stay opaque text.
knots parses them, once per dataset, into the index that resolves every
family atom.

The knot-level records (StructuralData, its flags and KnotRecord) live
here, below knots, so the loader imports nothing but values: every module
above it, from knots up to cli, takes the loaded Dataset as an argument.
"""

import json
import os

# the errors are defined in values, so the CLI maps exit codes without
# compiling the loader; they are re-exported here
from .values import DatasetError, IntegrityError, Record, Val

SCHEMA_VERSION = 1
KNOWN_TABLES = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "KNOT", "ALIAS")

ENV_DATA_PATH = "ISHARP_DATA"
# read as a plain file: importlib.resources costs a fresh interpreter
# about 30 ms of imports (and, from Python 3.12, `inspect`)
BUNDLED_PATH = os.path.join(os.path.dirname(__file__), "data", "tables.jsonl")


class TableEntry(Record):
    __slots__ = ("table", "key", "payload", "citation")

    def __init__(self, table: str, key: str, payload: dict, citation: str):
        self._fill(table, key, payload, citation)

    def to_json_line(self) -> str:
        obj = {
            "schema_version": SCHEMA_VERSION,
            "table": self.table,
            "key": self.key,
            "payload": self.payload,
            "citation": self.citation,
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


# ---------------------------------------------------------------------------
# Knot records: structural data, tabulated invariants, one KNOT row
# ---------------------------------------------------------------------------

Tri = bool | None  # True / False / unknown

FLAG_NAMES = (
    "alternating",
    "quasipositive",
    "positive",
    "slice",
    "amphichiral",
    "homogeneous",
    "instanton_lspace",
    "thin_odd_khovanov",
)
_FLAG_INDEX = {name: i for i, name in enumerate(FLAG_NAMES)}
NO_FLAGS = (None,) * len(FLAG_NAMES)


def make_flags(**values: Tri) -> tuple[Tri, ...]:
    """The flags tuple: one value per FLAG_NAMES entry, in that order,
    unknown (None) where no value is given.  Names outside FLAG_NAMES
    are not read; the loader rejects them in a record file."""
    return tuple(map(values.get, FLAG_NAMES))


class StructuralData(Record):
    """alexander holds the coefficients (a0, a1, a2, ...) of the symmetric
    polynomial, and stays unknown on a connected sum; flags is the tuple
    make_flags builds, so structural data is hashable and, like every
    record, cannot be changed once built."""

    __slots__ = ("genus", "slice_genus", "signature", "determinant", "alexander",
                 "sl_max", "flags")

    def __init__(self, genus: Val = Val(), slice_genus: Val = Val(),
                 signature: int | None = None, determinant: int | None = None,
                 alexander: tuple[int, ...] | None = None, sl_max: int | None = None,
                 flags: tuple[Tri, ...] = NO_FLAGS):
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "slice_genus", slice_genus)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "determinant", determinant)
        object.__setattr__(self, "alexander", alexander)
        object.__setattr__(self, "sl_max", sl_max)
        object.__setattr__(self, "flags", flags)

    def flag(self, name: str) -> Tri:
        return self.flags[_FLAG_INDEX[name]]


def alexander_at_minus_one(coeffs: tuple[int, ...]) -> int:
    """Delta(-1) = a0 + 2 * sum_i (-1)^i a_i."""
    total = coeffs[0]
    for i, a in enumerate(coeffs[1:], start=1):
        total += 2 * a * (-1) ** i
    return total


class InstantonFields(Record):
    """Tabulated invariants stored on a knot record: nu, tau, r0, the
    shape ("V" / "W" / None) and the pinned zero-surgery dimension of the
    mu bundle."""

    __slots__ = ("nu", "tau", "r0", "shape", "mu0_dim")

    def __init__(self, nu: Val = Val(), tau: Val = Val(), r0: Val = Val(),
                 shape: str | None = None, mu0_dim: int | None = None):
        self._fill(nu, tau, r0, shape, mu0_dim)


class KnotRecord(Record):
    """One KNOT row; sigma2 is the registered double-branched-cover
    description, and mirror_flags the mirror's flags as make_flags
    builds them."""

    __slots__ = ("name", "structural", "instanton", "aliases", "sigma2", "khbar_dim",
                 "mirror_flags", "mirror_sl_max", "citation")

    def __init__(self, name: str, structural: StructuralData, instanton: InstantonFields,
                 aliases: tuple[str, ...], sigma2: str | None = None,
                 khbar_dim: int | None = None, mirror_flags: tuple = (),
                 mirror_sl_max: int | None = None, citation: str = ""):
        self._fill(name, structural, instanton, aliases, sigma2, khbar_dim,
                   mirror_flags, mirror_sl_max, citation)


def _val_from_payload(x) -> Val:
    """Payload encodings: null (unknown), an int, or {lo, hi, parity}
    with int ends and null for an unbounded end.  Every stored value is
    an integer invariant."""
    if x is None:
        return Val()
    try:
        if not isinstance(x, dict):
            return Val.exact(x)
        return Val(x.get("lo"), x.get("hi"), x.get("parity"))
    except TypeError:  # an end that is not an int
        raise DatasetError(f"bad value encoding {x!r}") from None
    except ValueError as e:  # a bad parity, or lo > hi
        raise DatasetError(f"bad value encoding {x!r}: {e}") from None


# the JSON type of each KNOT payload field that is not null
_KNOT_FIELD_TYPES = {"signature": int, "determinant": int, "sl_max": int, "khbar_dim": int,
                     "mirror_sl_max": int, "sigma2": str, "aliases": list, "flags": dict,
                     "mirror_flags": dict, "instanton": dict}
_NULL = type(None)
# the JSON types each instanton field may take; a stored shape is "V" or "W"
_INSTANTON_FIELD_TYPES = {"shape": (str, _NULL), "mu0_dim": (int, _NULL)}
# the JSON types each T-table and ALIAS payload field may take (a field
# left out counts as null); a list of dimensions is a non-empty list of
# ints, and a T8 row lists the two manifolds of its triad
TABLE_FIELD_TYPES = {
    "T1": {"nu": (int,), "r0": (int,)},
    "T2": {"name": (str,), "h1": (int,), "dim": (int, list)},
    "T3": {"nu": (int, _NULL), "tau": (int,)},
    "T4": {"n": (int,), "dim": (int,), "nu": (int,), "r0": (int,), "via": (str,)},
    "T5": {"det": (int,), "khbar_dim": (int,), "sigma2": (str, _NULL),
           "dim": (int, list, _NULL)},
    "T6": {"name": (str,), "knot": (str,), "slope": (str,), "h1": (int,), "dim": (int,)},
    "T7": {"name": (str,), "knot": (str,), "qa": (str,), "h1": (int,), "dim": (int,)},
    "T8": {"name": (str,), "h1": (int,), "components": (list,), "dim": (int, list)},
    "ALIAS": {"name": (str,), "mirrored": (bool, _NULL)},
}
_COMPONENT_FIELD_TYPES = {"desc": (str,), "dim": (int,), "h1": (int,)}


def _check_row(where: str, payload: dict, types: dict) -> None:
    """Raise DatasetError unless every field has one of its JSON types."""
    for field, kinds in types.items():
        v = payload.get(field)
        if type(v) not in kinds:
            names = " or ".join("null" if k is _NULL else k.__name__ for k in kinds)
            raise DatasetError(f"{where}: {field} {v!r} is not of type {names}")
        if field == "components":
            if len(v) != 2 or any(type(c) is not dict for c in v):
                raise DatasetError(f"{where}: components {v!r} are not two JSON objects")
            for c in v:
                _check_row(where, c, _COMPONENT_FIELD_TYPES)
        elif type(v) is list and not (v and all(type(x) is int for x in v)):
            raise DatasetError(f"{where}: {field} {v!r} is not a non-empty list of ints")


def _knot_record_from_entry(entry: TableEntry) -> KnotRecord:
    p = entry.payload
    for field, kind in _KNOT_FIELD_TYPES.items():
        if p.get(field) is not None and type(p[field]) is not kind:
            raise DatasetError(f"knot record {entry.key}: {field} {p[field]!r} "
                               f"is not of type {kind.__name__}")
    flags, mirror_flags = p.get("flags") or {}, p.get("mirror_flags") or {}
    for name, value in (*flags.items(), *mirror_flags.items()):
        if name not in FLAG_NAMES:
            raise DatasetError(f"knot record {entry.key}: unknown flag {name!r}")
        if value is not None and type(value) is not bool:
            raise DatasetError(f"knot record {entry.key}: flag {name} {value!r} "
                               "is not of type bool or null")
    if any(type(code) is not str for code in p.get("aliases") or ()):
        raise DatasetError(f"knot record {entry.key}: aliases {p['aliases']!r} "
                           "is not a list of strings")
    alexander = p.get("alexander")
    if alexander is not None and not (isinstance(alexander, list) and alexander
                                      and all(type(a) is int for a in alexander)):
        raise DatasetError(f"knot record {entry.key}: alexander {alexander!r} "
                           "is not a non-empty list of integers")
    structural = StructuralData(
        genus=_val_from_payload(p.get("genus")),
        slice_genus=_val_from_payload(p.get("slice_genus")),
        signature=p.get("signature"),
        determinant=p.get("determinant"),
        alexander=None if alexander is None else tuple(alexander),
        sl_max=p.get("sl_max"),
        flags=make_flags(**flags),
    )
    inst = p.get("instanton") or {}
    _check_row(f"knot record {entry.key}: instanton", inst, _INSTANTON_FIELD_TYPES)
    if inst.get("shape") not in (None, "V", "W"):
        raise DatasetError(f"knot record {entry.key}: instanton shape {inst['shape']!r} "
                           "is not V or W")
    instanton = InstantonFields(
        nu=_val_from_payload(inst.get("nu")),
        tau=_val_from_payload(inst.get("tau")),
        r0=_val_from_payload(inst.get("r0")),
        shape=inst.get("shape"),
        mu0_dim=inst.get("mu0_dim"),
    )
    return KnotRecord(
        name=entry.key,
        structural=structural,
        instanton=instanton,
        aliases=tuple(p.get("aliases") or ()),
        sigma2=p.get("sigma2"),
        khbar_dim=p.get("khbar_dim"),
        mirror_flags=make_flags(**mirror_flags),
        mirror_sl_max=p.get("mirror_sl_max"),
        citation=entry.citation,
    )


class Dataset:
    """Read-only view of a loaded record file."""

    def __init__(self, entries: list[TableEntry]):
        self.entries = entries
        self._by_table: dict[str, dict[str, TableEntry]] = {}
        for e in entries:
            bucket = self._by_table.setdefault(e.table, {})
            if e.key in bucket:
                raise DatasetError(f"duplicate key {e.key!r} in table {e.table}")
            bucket[e.key] = e
        for table, types in TABLE_FIELD_TYPES.items():
            for key, e in self._by_table.get(table, {}).items():
                _check_row(f"{table} row {key}", e.payload, types)
        self._knots = {
            key: _knot_record_from_entry(e)
            for key, e in self._by_table.get("KNOT", {}).items()
        }
        # the alias registry, code -> (name, mirrored): the ALIAS rows,
        # then the codes the KNOT rows list; the codes stay opaque text
        self.aliases: dict[str, tuple[str, bool]] = {}
        for key, e in self._by_table.get("ALIAS", {}).items():
            self.aliases[key] = (e.payload["name"], e.payload.get("mirrored") is True)
        for rec in self._knots.values():
            for code in rec.aliases:
                self.aliases.setdefault(code, (rec.name, False))
        # deduce, structural and lspace_cable results, keyed by canonical
        # knot forms (knots.memo), and the alias index knots builds on first use
        self.deduce_cache: dict = {}
        self.structural_cache: dict = {}
        self.lspace_cache: dict = {}
        self.alias_index = None

    # -- lookups ------------------------------------------------------------

    def table(self, table: str) -> dict[str, TableEntry]:
        return self._by_table.get(table, {})

    def lookup(self, table: str, key) -> TableEntry:
        entry = self.table(table).get(str(key))
        if entry is None:
            raise KeyError(f"no entry {key!r} in table {table}")
        return entry

    def knot_record(self, name: str) -> KnotRecord | None:
        return self._knots.get(name)

    def knot_names(self) -> list[str]:
        return sorted(self._knots)

    # -- integrity ----------------------------------------------------------

    def check_integrity(self) -> None:
        """Bound checks on every knot record; raises on the first violation."""
        for rec in self._knots.values():
            inst = rec.instanton
            nu, tau, r0 = inst.nu, inst.tau, inst.r0
            where = f"knot record {rec.name}"
            if nu.is_exact and r0.is_exact:
                n, r = nu.value(), r0.value()
                if r < abs(n):
                    raise DatasetError(f"{where}: r0 = {r} < |nu| = {abs(n)}")
                if (r - n) % 2 != 0:
                    raise DatasetError(f"{where}: r0 = {r} and nu = {n} differ in parity")
            if nu.is_exact and tau.is_exact:
                if abs(2 * tau.value() - nu.value()) > 1:
                    raise DatasetError(f"{where}: |2 tau - nu| > 1")
            gs = rec.structural.slice_genus
            if nu.is_exact and gs.is_exact:
                bound = max(2 * gs.value() - 1, 0)
                if abs(nu.value()) > bound:
                    raise DatasetError(f"{where}: |nu| exceeds max(2 g_s - 1, 0) = {bound}")
            if inst.shape == "W" and nu.is_exact and nu.value() != 0:
                raise DatasetError(f"{where}: W-shaped but nu != 0")
            sig = rec.structural.signature
            if sig is not None and sig % 2 != 0:
                raise DatasetError(f"{where}: odd signature {sig}")
            det = rec.structural.determinant
            if det is not None and (det <= 0 or det % 2 == 0):
                raise DatasetError(f"{where}: determinant {det} not odd positive")
            alex = rec.structural.alexander
            if alex is not None and det is not None:
                if abs(alexander_at_minus_one(alex)) != det:
                    raise DatasetError(f"{where}: |Delta(-1)| != determinant")

    def cross_check_census(self) -> None:
        """Recompute every registered census route and compare to the
        stored dimensions (raises DatasetError on mismatch)."""
        from .verify import census_route_failures

        failures = census_route_failures(self)
        if failures:
            raise DatasetError("; ".join(failures))

    # -- serialization ------------------------------------------------------

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for e in self.entries:
                fh.write(e.to_json_line() + "\n")


def parse_record_line(line: str, lineno: int) -> TableEntry:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise DatasetError(f"line {lineno}: invalid JSON ({e})") from None
    if not isinstance(obj, dict):
        raise DatasetError(f"line {lineno}: not a JSON object")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise DatasetError(f"line {lineno}: unsupported schema_version {obj.get('schema_version')!r}")
    for fieldname in ("table", "key", "payload", "citation"):
        if fieldname not in obj:
            raise DatasetError(f"line {lineno}: missing field {fieldname!r}")
    if obj["table"] not in KNOWN_TABLES:
        raise DatasetError(f"line {lineno}: unknown table {obj['table']!r}")
    if not isinstance(obj["payload"], dict):
        raise DatasetError(f"line {lineno}: payload is not a JSON object")
    return TableEntry(obj["table"], str(obj["key"]), obj["payload"], obj["citation"])


def load(path: str | None = None, check: bool = True) -> Dataset:
    """Load a record file (default: the bundled dataset) and run the
    integrity checks.

    The census routes are not re-derived here: census_dim meets every
    route of the row it reads, and `verify` and `export` of the census
    tables run the full cross-check."""
    if path is None:
        path = os.environ.get(ENV_DATA_PATH, BUNDLED_PATH)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise DatasetError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise DatasetError(f"cannot read {path}: {e}") from None
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        entries.append(parse_record_line(line, lineno))
    ds = Dataset(entries)
    if check:
        ds.check_integrity()
    return ds


_default: Dataset | None = None


def default() -> Dataset:
    """The process-wide dataset (bundled unless overridden)."""
    global _default
    if _default is None:
        _default = load()
    return _default
