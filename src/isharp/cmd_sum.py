"""isharp sum KNOT...: the deduced invariants of a connected sum."""

from .invariants import deduce
from .knots import format_knot, make_sum, parse_knot


def run(args, ds, emit):
    k = make_sum([parse_knot(t) for t in args.knots])
    emit({**deduce(k, ds).to_json(args.trace), "knot": format_knot(k)}, args.pretty)
