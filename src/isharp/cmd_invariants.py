"""isharp invariants KNOT: the deduced nu, tau, r0, shape and delta of a
knot, with the sl bound and, under --trace, the rules that pinned them."""

from .invariants import deduce, sl_upper_bound
from .knots import format_knot, parse_knot


def run(args, ds, emit):
    k = parse_knot(args.knot)
    out = {**deduce(k, ds).to_json(args.trace), "knot": format_knot(k)}
    bound = sl_upper_bound(k, ds)
    if bound is not None:
        out["sl_max_bound"] = bound
    emit(out, args.pretty)
