"""isharp dcover KNOT: the dimension of the branched double cover of a knot."""

from .dimension import branched_cover_dim
from .knots import format_knot, parse_knot


def run(args, ds, emit):
    k = parse_knot(args.knot)
    out = branched_cover_dim(k, ds).to_json()
    out["manifold"] = f"dcover({format_knot(k)})"
    emit(out, args.pretty)
