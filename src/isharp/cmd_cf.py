"""isharp cf SLOPE: the negative continued fraction of a slope."""

from .slopes import format_cf, neg_cf
from .values import parse_slope


def run(args, emit):
    s = parse_slope(args.slope)
    emit({"slope": str(s), "cf": format_cf(neg_cf(s))}, args.pretty)
