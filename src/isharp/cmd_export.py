"""isharp export TABLE: a tab-separated dump of one published table,
its rows in the order of the record file."""

import json

from .datasets import CENSUS_TABLES, KNOT_TABLES, SCHEMA
from .values import DatasetError


def run(args, ds, emit):
    if args.table in CENSUS_TABLES:
        ds.cross_check_census()
    print(export_tsv(ds, args.table), end="")


def export_tsv(ds, table: str) -> str:
    """Tab-separated dump of one published table, T1-T8: one line per
    row in record-file order, the key, then the payload fields in the
    order SCHEMA declares them."""
    if table not in CENSUS_TABLES + KNOT_TABLES:
        raise DatasetError(f"no export format for table {table!r}")
    columns = ["key", *SCHEMA[table]]
    lines = ["\t".join(columns)]
    for e in ds.table(table).values():
        row = []
        for col in columns:
            if col == "key":
                row.append(e.key)
            else:
                v = e.payload.get(col)
                row.append("" if v is None else json.dumps(v, separators=(",", ":")))
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
