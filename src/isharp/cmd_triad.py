"""isharp triad SLOPE: the surgery triad of a slope."""

from .slopes import format_cf, neg_cf, triad
from .values import parse_slope


def run(args, emit):
    s = parse_slope(args.slope)
    t = triad(s)
    emit({"slope": str(s), "cf": format_cf(neg_cf(s)), "ab": str(t.ab),
          "cd": str(t.cd), "ef": str(t.ef), "sum_case": t.sum_case}, args.pretty)
