"""isharp census INDEX|all: the dimension of census manifold INDEX, or of
all twenty, through census_dim.  INDEX reads as in dim "census(INDEX)"."""

from .dimension import parse_manifold
from .surgery import census_dim


def run(args, ds, emit):
    def row(i):
        name = ds.lookup("T2", i).payload["name"]
        return {**census_dim(i, ds).to_json(), "index": i, "name": name}

    if args.index == "all":
        emit([row(i) for i in range(20)], args.pretty)
    else:
        emit(row(parse_manifold(f"census({args.index})").index), args.pretty)
