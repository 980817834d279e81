"""isharp export TABLE: a tab-separated dump of one published table."""

import json

from .datasets import CENSUS_TABLES, KNOT_TABLES, SCHEMA
from .values import DatasetError


def run(args, ds, emit):
    if args.table in CENSUS_TABLES:
        ds.cross_check_census()
    print(export_tsv(ds, args.table), end="")


def export_tsv(ds, table: str) -> str:
    """Tab-separated dump of one published table, T1-T8: the key, then
    the payload fields in the order SCHEMA declares them."""
    if table not in CENSUS_TABLES + KNOT_TABLES:
        raise DatasetError(f"no export format for table {table!r}")
    columns = ["key", *SCHEMA[table]]
    lines = ["\t".join(columns)]
    entries = ds.table(table)
    for key in sorted(entries, key=_entry_sort_key):
        e = entries[key]
        row = []
        for col in columns:
            if col == "key":
                row.append(e.key)
            else:
                v = e.payload.get(col)
                row.append("" if v is None else json.dumps(v, separators=(",", ":")))
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def _entry_sort_key(key: str):
    try:
        return (0, int(key), "")
    except ValueError:
        parts = key.split("_")
        try:
            return (1, int(parts[0]), f"{int(parts[1]):04d}" if len(parts) > 1 else key)
        except ValueError:
            return (2, 0, key)
