"""isharp dim MANIFOLD: the dimension of a surgery, lens space, branched
double cover or census manifold."""

from .dimension import Census, Surgery, manifold_dim, parse_manifold
from .invariants import deduce


def run(args, ds, emit):
    m = parse_manifold(args.manifold)
    if isinstance(m, Census):
        # the census routes (surgery) are compiled only for census(i)
        from .surgery import census_dim
        result = census_dim(m.index, ds)
    else:
        result = manifold_dim(m, ds)
    out = result.to_json()
    out["manifold"] = str(m)
    if not args.graded:
        out.pop("graded", None)
    if args.trace and isinstance(m, Surgery):
        out["trace"] = [t.to_json() for t in deduce(m.knot, ds).trace]
    emit(out, args.pretty)
