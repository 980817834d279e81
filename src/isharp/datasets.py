"""Bundled table data: an integrity-checked loader for the line-delimited
record file, the records it builds, and its rows by table and key.

The record file is UTF-8 JSON lines, one object per line.  Tables T1-T8
mirror the published computations this library reproduces; KNOT rows hold
structural data per knot, and ALIAS rows the registered family
identifications.  SCHEMA is the one schema of every level of a line: the
line {schema_version, table, key, payload, citation}, each table's
payload, a KNOT row's flags, mirror_flags and instanton objects and a
T8 row's components.  A line or row that does not fit it, or stores an
|H1| (T5: det) below 1 or a dimension that its |H1| does not admit,
raises DatasetError naming it while the file loads.  A census row (T2,
T6, T7, T8) is keyed by its index, "0" to "19", and a T8 row may cite census(j)
only for j below its own index, so that no route cycles.  T2 holds a row
for every index; T6, T7 and T8 list only the manifolds they have a route
for.  A knot-table row (T1, T3, T4, T5) is keyed by the name of a KNOT
row.  Each fact has one home: T3 holds nu and tau and T1 r0, which a
KnotRecord holds beside the rest of its row, so a KNOT row's instanton
payload repeats no T1 or T3 cell (it holds 0_1's and 10_139's r0, which
no T1 row does), and T5 alone holds a non-thin knot's reduced odd Khovanov
rank and cover route (sigma2); _REPEATS lists the copies that stay, each
equal to its home row.  Dataset.untabulated() holds the rows without T1,
T3, T4 and the instanton payloads.

The ALIAS rows are the alias registry: each maps its code, such as
"T(3,5)" or "T(-2,3)", to the knot it presents, in that knot's own
chirality; here the codes stay opaque text.  knots parses them, once
per dataset, into the index that resolves every family atom.

The knot-level records, StructuralData with its six flags as fields and
KnotRecord, live here, below knots, so the loader imports nothing but
values: every module above it, from knots up to cli, takes the loaded
Dataset as an argument.
"""

import json
import os

# DatasetError is defined in values, so the CLI maps exit codes without
# compiling the loader
from .values import DatasetError, Record, Val

SCHEMA_VERSION = 1
KNOWN_TABLES = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "ALIAS", "KNOT")
# the census tables, whose rows are keyed by census index, 0..19
CENSUS_TABLES = ("T2", "T6", "T7", "T8")
CENSUS_INDICES = range(20)
CENSUS_KEYS = frozenset(map(str, CENSUS_INDICES))
# the knot tables, whose rows are keyed by the name of a KNOT row
KNOT_TABLES = ("T1", "T3", "T4", "T5")

# read as a plain file: importlib.resources costs a fresh interpreter
# about 30 ms of imports (and, from Python 3.12, `inspect`)
BUNDLED_PATH = os.path.join(os.path.dirname(__file__), "data", "tables.jsonl")


class TableEntry(Record):
    __slots__ = ("table", "key", "payload", "citation")

    def __init__(self, table: str, key: str, payload: dict, citation: str):
        self._fill(table, key, payload, citation)


# ---------------------------------------------------------------------------
# Knot records: structural data, tabulated invariants, one KNOT row
# ---------------------------------------------------------------------------

FLAG_NAMES = (
    "alternating",
    "quasipositive",
    "positive",
    "amphichiral",
    "instanton_lspace",
    "thin_odd_khovanov",
)


class StructuralData(Record):
    """alexander holds the coefficients (a0, a1, a2, ...) of the symmetric
    polynomial, and stays unknown on a connected sum; each FLAG_NAMES
    field is True, False or unknown (None).  Like every record, structural
    data is hashable and cannot be changed once built."""

    __slots__ = ("genus", "slice_genus", "signature", "determinant", "alexander",
                 "sl_max", *FLAG_NAMES)

    def __init__(self, genus: Val = Val(), slice_genus: Val = Val(),
                 signature: int | None = None, determinant: int | None = None,
                 alexander: tuple[int, ...] | None = None, sl_max: int | None = None,
                 alternating: bool | None = None, quasipositive: bool | None = None,
                 positive: bool | None = None, amphichiral: bool | None = None,
                 instanton_lspace: bool | None = None, thin_odd_khovanov: bool | None = None):
        # alternating knots are quasi-alternating (Ozsvath-Szabo), so thin in odd
        # Khovanov homology (Ozsvath-Rasmussen-Szabo); check_integrity refuses False
        if alternating and thin_odd_khovanov is None:
            thin_odd_khovanov = True
        self._fill(genus, slice_genus, signature, determinant, alexander, sl_max, alternating,
                   quasipositive, positive, amphichiral, instanton_lspace, thin_odd_khovanov)


def alexander_at_minus_one(coeffs: tuple[int, ...]) -> int:
    """Delta(-1) = a0 + 2 * sum_i (-1)^i a_i."""
    total = coeffs[0]
    for i, a in enumerate(coeffs[1:], start=1):
        total += 2 * a * (-1) ** i
    return total


class KnotRecord(Record):
    """One KNOT row: its structural data; nu and tau from its T3 row, r0
    from its T1 row, and from the row's instanton payload the rest (shape
    "V" / "W" / None, and the pinned mu-bundle zero-surgery dim); and
    the mirror's quasipositivity, positivity and sl_max, the structural
    data a mirror does not share."""

    __slots__ = ("name", "structural", "nu", "tau", "r0", "shape", "mu0_dim",
                 "mirror_quasipositive", "mirror_positive", "mirror_sl_max")

    def __init__(self, name: str, structural: StructuralData, nu: Val = Val(),
                 tau: Val = Val(), r0: Val = Val(), shape: str | None = None,
                 mu0_dim: int | None = None, mirror_quasipositive: bool | None = None,
                 mirror_positive: bool | None = None, mirror_sl_max: int | None = None):
        self._fill(name, structural, nu, tau, r0, shape, mu0_dim, mirror_quasipositive,
                   mirror_positive, mirror_sl_max)


def _val_from_payload(x, where: str) -> Val:
    """Payload encodings: null (unknown), an int, or {lo, hi, parity}
    with int ends and null for an unbounded end.  Every stored value is
    an integer invariant; where names the record and field of x."""
    if x is None:
        return Val()
    try:
        if not isinstance(x, dict):
            return Val.exact(x)
        return Val(**x)
    except TypeError:  # an end that is not an int, or a field other than lo, hi, parity
        raise DatasetError(f"{where}: bad value encoding {x!r}") from None
    except ValueError as e:  # a bad parity, or lo > hi
        raise DatasetError(f"{where}: bad value encoding {x!r}: {e}") from None


_NULL = type(None)
# the table whose row holds each invariant; the payload may hold it only without one
_HOMES = {"nu": "T3", "tau": "T3", "r0": "T1"}
# any JSON value: a value encoding, which _val_from_payload checks as it decodes
_VAL = (int, dict, _NULL, list, str, float, bool)
# The one schema of a record line: the JSON types that each field of the
# line, of each table's payload and of each object nested in a payload
# (keyed by the field that holds it) may take.  A field left out counts
# as null, and a field the schema does not name is refused.  A T8 row
# lists the two components of its triad.  The T1-T8 entries give export
# its columns.
SCHEMA = {
    "line": {"schema_version": (int,), "table": (str,), "key": (str,), "payload": (dict,),
             "citation": (str,)},
    "T1": {"nu": (int,), "r0": (int,)},
    "T2": {"name": (str,), "h1": (int,), "dim": (int, list)},
    "T3": {"nu": (int, _NULL), "tau": (int,)},
    "T4": {"n": (int,), "dim": (int,), "nu": (int,), "r0": (int,), "via": (str,)},
    "T5": {"det": (int,), "khbar_dim": (int,), "sigma2": (str, _NULL),
           "dim": (int, list, _NULL)},
    "T6": {"name": (str,), "knot": (str,), "slope": (str,), "h1": (int,), "dim": (int,)},
    "T7": {"name": (str,), "knot": (str,), "qa": (str,), "h1": (int,), "dim": (int,)},
    "T8": {"name": (str,), "h1": (int,), "components": (list,), "dim": (int, list)},
    "ALIAS": {"name": (str,)},
    "KNOT": {"signature": (int, _NULL), "determinant": (int, _NULL), "sl_max": (int, _NULL),
             "mirror_sl_max": (int, _NULL), "flags": (dict, _NULL), "mirror_flags": (dict, _NULL),
             "instanton": (dict, _NULL), "alexander": (list, _NULL), "genus": _VAL,
             "slice_genus": _VAL},
    "flags": dict.fromkeys(FLAG_NAMES, (bool, _NULL)),
    # the two flags a mirror does not share; knots derives its others
    "mirror_flags": {"quasipositive": (bool, _NULL), "positive": (bool, _NULL)},
    "instanton": {"shape": (str, _NULL), "mu0_dim": (int, _NULL), **dict.fromkeys(_HOMES, _VAL)},
    "components": {"desc": (str,), "dim": (int,), "h1": (int,)},
}
# the rule of each list field: the least number of distinct ints it holds
_LISTS = {"dim": (2, "a list of two or more distinct ints"),
          "alexander": (1, "a non-empty list of ints")}
# the |H1| field that every stored dimension of an object must be admitted by
_EULER_FIELDS = {"T2": "h1", "T5": "det", "T6": "h1", "T7": "h1", "T8": "h1", "components": "h1"}
# the copies that stay, as (table, columns, home table, home columns),
# each list compared as one: each row must have a home row under its key,
# with equal cells there
_REPEATS = (("T1", ("nu",), "T3", ("nu",)), ("T4", ("nu", "r0"), "T1", ("nu", "r0")),
            ("T5", ("det",), "KNOT", ("determinant",)),
            *((table, (column,), "T2", (column,)) for table in ("T6", "T7", "T8")
              for column in ("name", "h1", "dim")))


def _check_row(where: str, obj: dict, name: str) -> None:
    """Raise DatasetError unless obj fits SCHEMA[name]: every field one it
    names, of one of its JSON types, each nested object and list by its
    rule, its |H1| at least 1, and every stored dimension d one that the
    |H1| admits: d >= |H1| and d = |H1| (mod 2), as DimResult requires."""
    fields = SCHEMA[name]
    if not obj.keys() <= fields.keys():
        field = next(field for field in obj if field not in fields)
        raise DatasetError(f"{where}: unknown field {field!r}")
    for field, kinds in fields.items():
        v = obj.get(field)
        kind = type(v)
        if kind not in kinds:
            names = " or ".join("null" if k is _NULL else k.__name__ for k in kinds)
            raise DatasetError(f"{where}: {field} {v!r} is not of type {names}")
        if kind is dict and field in SCHEMA:
            _check_row(f"{where}: {field}", v, field)
        elif kind is list and field == "components":
            if len(v) != 2 or any(type(c) is not dict for c in v):
                raise DatasetError(f"{where}: components {v!r} are not two JSON objects")
            for c in v:
                _check_row(where, c, field)
        elif kind is list and field in _LISTS:
            least, rule = _LISTS[field]
            if not (all(type(x) is int for x in v) and len(set(v)) >= least):
                raise DatasetError(f"{where}: {field} {v!r} is not {rule}")
    euler_field = _EULER_FIELDS.get(name)
    if euler_field is not None:
        dims, euler = obj.get("dim"), obj[euler_field]
        at = f"{where}: component {obj['desc']}" if name == "components" else where
        if euler < 1:
            raise DatasetError(f"{at}: {euler_field} {euler} is not positive")
        for d in [dims] if type(dims) is int else dims or ():
            if d < euler or (d - euler) % 2:
                raise DatasetError(f"{at}: dim {d} incompatible with {euler_field} {euler}")


def _cells(payload: dict, columns: tuple):
    """A row's cells in columns, one cell bare; a left-out cell is null."""
    cells = tuple(map(payload.get, columns))
    return cells[0] if len(cells) == 1 else cells


def _knot_record_from_entry(entry: TableEntry, ds: "Dataset") -> KnotRecord:
    """A KNOT row's record, from a payload that _check_row passed, its
    invariants read from ds's T1 and T3 rows."""
    p, where = entry.payload, f"knot record {entry.key}"
    alexander, inst = p.get("alexander"), p.get("instanton") or {}
    mirror = p.get("mirror_flags") or {}
    structural = StructuralData(
        genus=_val_from_payload(p.get("genus"), f"{where}: genus"),
        slice_genus=_val_from_payload(p.get("slice_genus"), f"{where}: slice_genus"),
        signature=p.get("signature"),
        determinant=p.get("determinant"),
        alexander=None if alexander is None else tuple(alexander),
        sl_max=p.get("sl_max"),
        **(p.get("flags") or {}),
    )
    if inst.get("shape") not in (None, "V", "W"):
        raise DatasetError(f"{where}: instanton shape {inst['shape']!r} is not V or W")
    cells = []
    for field, home in _HOMES.items():
        row = ds.table(home).get(entry.key)
        if row is not None and inst.get(field) is not None:
            raise DatasetError(f"{where}: instanton {field} repeats its {home} row")
        cells.append(inst.get(field) if row is None else row.payload.get(field))
    return KnotRecord(entry.key, structural,
                      *(_val_from_payload(x, f"{where}: instanton: {field}")
                        for field, x in zip(_HOMES, cells)),
                      shape=inst.get("shape"), mu0_dim=inst.get("mu0_dim"),
                      mirror_quasipositive=mirror.get("quasipositive"),
                      mirror_positive=mirror.get("positive"), mirror_sl_max=p.get("mirror_sl_max"))


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
        for table in KNOWN_TABLES:
            for key, e in self._by_table.get(table, {}).items():
                if table in CENSUS_TABLES and key not in CENSUS_KEYS:
                    raise DatasetError(f"{table} row {key}: key is not a census index 0..19")
                where = f"knot record {key}" if table == "KNOT" else f"{table} row {key}"
                _check_row(where, e.payload, table)
        self._knots = {key: _knot_record_from_entry(e, self)
                       for key, e in self._by_table.get("KNOT", {}).items()}
        # deduce, structural and lspace_cable results, keyed by canonical
        # knot texts (knots.memo), and the alias index knots builds on first use
        self.deduce_cache: dict = {}
        self.structural_cache: dict = {}
        self.lspace_cache: dict = {}
        self.alias_index = None
        self._untabulated = None

    # -- lookups ------------------------------------------------------------

    def table(self, table: str) -> dict[str, TableEntry]:
        return self._by_table.get(table, {})

    def knot_record(self, name: str) -> KnotRecord | None:
        return self._knots.get(name)

    def knot_names(self) -> list[str]:
        return list(self._knots)

    def untabulated(self) -> "Dataset":
        """These rows without the tabulated invariants (T1, T3, T4, each KNOT
        row's instanton payload), built on first use, with caches of its own."""
        if self._untabulated is None:
            self._untabulated = Dataset([e.replace(payload={**e.payload, "instanton": None})
                                         if e.table == "KNOT" else e for e in self.entries
                                         if e.table not in ("T1", "T3", "T4")])
        return self._untabulated

    # -- integrity ----------------------------------------------------------

    def check_integrity(self) -> None:
        """Bound checks on every knot record, then a KNOT row for every key
        of a knot table and every ALIAS name, a T2 row for every census
        index, and each copy in _REPEATS equal to its home row; raises
        DatasetError on the first violation."""
        for rec in self._knots.values():
            nu, tau, r0 = rec.nu, rec.tau, rec.r0
            where = f"knot record {rec.name}"
            if nu.is_exact and r0.is_exact:
                n, r = nu.value(), r0.value()
                if r < abs(n):
                    raise DatasetError(f"{where}: r0 = {r} < |nu| = {abs(n)}")
                if (r - n) % 2 != 0:
                    raise DatasetError(f"{where}: r0 = {r} and nu = {n} differ in parity")
            # genus 0 is the unknot, whose surgeries are lens spaces
            if rec.structural.genus == Val.exact(0) and not r0.contains(0):
                raise DatasetError(f"{where}: genus 0, so r0 is 0, not {r0}")
            if nu.is_exact and tau.is_exact:
                if abs(2 * tau.value() - nu.value()) > 1:
                    raise DatasetError(f"{where}: |2 tau - nu| > 1")
            gs = rec.structural.slice_genus
            if nu.is_exact and gs.is_exact:
                bound = max(2 * gs.value() - 1, 0)
                if abs(nu.value()) > bound:
                    raise DatasetError(f"{where}: |nu| exceeds max(2 g_s - 1, 0) = {bound}")
            if rec.shape == "W" and nu.is_exact and nu.value() != 0:
                raise DatasetError(f"{where}: W-shaped but nu != 0")
            if rec.structural.alternating and rec.structural.thin_odd_khovanov is False:
                raise DatasetError(f"{where}: thin_odd_khovanov False contradicts alternating True")
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
        for table in KNOT_TABLES:
            for key in self.table(table):
                if key not in self._knots:
                    raise DatasetError(f"{table} row {key}: no knot record {key}")
        for key, e in self.table("ALIAS").items():
            if e.payload["name"] not in self._knots:
                raise DatasetError(f"ALIAS row {key}: no knot record {e.payload['name']}")
        missing = sorted(CENSUS_KEYS.difference(self.table("T2")), key=int)
        if missing:
            raise DatasetError(f"T2 has no row for census index {', '.join(missing)}")
        for table, fields, home, home_fields in _REPEATS:
            home_rows = self.table(home)
            for key, e in self.table(table).items():
                if key not in home_rows:
                    raise DatasetError(f"{table} row {key}: no {home} row {key}")
                copy, kept = _cells(e.payload, fields), _cells(home_rows[key].payload, home_fields)
                if copy != kept:
                    name = fields[0] if len(fields) == 1 else f"({', '.join(fields)})"
                    of = "" if home_fields == fields else f"{home_fields[0]} "
                    raise DatasetError(f"{table} row {key}: {name} = {copy!r} differs "
                                       f"from {home}'s {of}{kept!r}")

    def cross_check_census(self) -> None:
        """Meet every registered census route with the stored dimensions, as
        verify.check_census does; raises DatasetError naming each route
        that disagrees."""
        from .verify import check_census

        failures = [f"census {c.key} via {c.cell}: expected {c.expected}, computed {c.got}"
                    for c in check_census(self).failed if c.section != "T2"]
        if failures:
            raise DatasetError("; ".join(failures))


def parse_record_line(line: str, lineno: int) -> TableEntry:
    where = f"line {lineno}"
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise DatasetError(f"{where}: invalid JSON ({e})") from None
    if not isinstance(obj, dict):
        raise DatasetError(f"{where}: not a JSON object")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise DatasetError(f"{where}: unsupported schema_version {obj.get('schema_version')!r}")
    _check_row(where, obj, "line")
    if obj["table"] not in KNOWN_TABLES:
        raise DatasetError(f"{where}: unknown table {obj['table']!r}")
    return TableEntry(obj["table"], obj["key"], obj["payload"], obj["citation"])


def load(path: str = BUNDLED_PATH, check: bool = True) -> Dataset:
    """Load a record file (default: the bundled dataset) and run the
    integrity checks.

    The census routes are not re-derived here: dimension.census_dim
    meets every route of the row it reads, and `verify` and `export` of
    the census tables run the full cross-check."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise DatasetError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise DatasetError(f"cannot read {path}: {e}") from None
    # a line ends at "\n" only: str.splitlines also breaks at U+0085,
    # U+2028 and U+2029, which JSON allows raw inside a string
    entries = [parse_record_line(line, lineno)
               for lineno, line in enumerate(text.split("\n"), start=1) if line.strip()]
    ds = Dataset(entries)
    if check:
        ds.check_integrity()
    return ds


_default: Dataset | None = None


def default() -> Dataset:
    """The process-wide bundled dataset, loaded on the first call."""
    global _default
    if _default is None:
        _default = load()
    return _default
