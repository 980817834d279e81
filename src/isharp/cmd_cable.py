"""isharp cable P Q KNOT: whether the (p,q)-cable is an instanton L-space
knot, its genus, and its nu and r0 when it is."""

from .invariants import lspace_cable, lspace_knot_invariants
from .knots import format_knot, genus, make_cable, parse_knot


def run(args, ds, emit):
    k = parse_knot(args.knot)
    cable = make_cable(args.p, args.q, k)
    status = lspace_cable(args.p, args.q, k, ds)
    out = {"cable": format_knot(cable),
           "lspace": status,
           "genus": genus(cable, ds).to_json()}
    if status:
        nu, r0 = lspace_knot_invariants(cable, ds)
        out.update({"nu": nu, "r0": r0})
    emit(out, args.pretty)
