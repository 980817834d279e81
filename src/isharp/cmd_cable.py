"""isharp cable P Q KNOT: whether the (p,q)-cable is an instanton L-space
knot, its genus, and its nu and r0 when it is."""

from .invariants import deduce, lspace_cable
from .knots import format_knot, genus, make_cable, parse_knot
from .values import parse_integer


def run(args, ds, emit):
    p, q = parse_integer(args.p), parse_integer(args.q)
    k = parse_knot(args.knot)
    cable = make_cable(p, q, k)
    status = lspace_cable(p, q, k, ds)
    out = {"cable": format_knot(cable),
           "lspace": status,
           "genus": genus(cable, ds).to_json()}
    if status:
        # True needs the companion's genus exact, so R9 pins nu = r0 = 2g - 1
        b = deduce(cable, ds)
        out.update({"nu": b.nu.value(), "r0": b.r0.value()})
    emit(out, args.pretty)
