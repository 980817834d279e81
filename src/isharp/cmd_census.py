"""isharp census INDEX|all: the dimension of census manifold INDEX, or of
all twenty, through census_dim.  INDEX reads as in dim "census(INDEX)"."""

from .datasets import CENSUS_INDICES
from .dimension import census_dim, parse_manifold


def run(args, ds, emit):
    def row(i):
        name = ds.table("T2")[str(i)].payload["name"]
        return {**census_dim(i, ds).to_json(), "index": i, "name": name}

    if args.index == "all":
        emit([row(i) for i in CENSUS_INDICES], args.pretty)
    else:
        emit(row(parse_manifold(f"census({args.index})").index), args.pretty)
