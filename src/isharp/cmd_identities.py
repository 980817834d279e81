"""isharp identities KNOT SLOPE: the registered surgery re-descriptions."""

from .knots import format_knot, parse_knot
from .surgery import homeo_identities
from .values import parse_slope


def run(args, ds, emit):
    k = parse_knot(args.knot)
    s = parse_slope(args.slope)
    rows = [{"knot": format_knot(rk), "slope": str(rs)}
            for rk, rs in homeo_identities(k, s, ds)]
    emit(rows, args.pretty)
