"""isharp dim MANIFOLD: the dimension of a surgery, lens space, branched
double cover or census manifold."""

from .dimension import Surgery, manifold_dim, parse_manifold
from .invariants import deduce


def run(args, ds, emit):
    m = parse_manifold(args.manifold)
    out = manifold_dim(m, ds).to_json()
    out["manifold"] = str(m)
    if not args.graded:
        out.pop("graded", None)
    if args.trace and isinstance(m, Surgery):
        out["trace"] = [t.to_json() for t in deduce(m.knot, ds).trace]
    emit(out, args.pretty)
