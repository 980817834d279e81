"""Exact dimensions of framed instanton homology for Dehn surgeries,
branched double covers, and small census manifolds.

The public names below are resolved on first access (PEP 562), so
`import isharp` and a CLI call that needs only slopes do not pay for
importing the deduction engine and the dimension code.
"""

from importlib import import_module

_EXPORTS = {
    "deduce": "invariants", "lspace_cable": "invariants",
    "lspace_knot_invariants": "invariants",
    "format_knot": "knots", "genus": "knots", "mirror": "knots",
    "parse_knot": "knots", "structural": "knots",
    "Slope": "slopes", "eval_cf": "slopes", "neg_cf": "slopes",
    "parse_slope": "slopes", "reduce": "slopes", "triad": "slopes",
    "DimResult": "surgery", "branched_cover_dim": "surgery",
    "census_dim": "surgery", "homeo_identities": "surgery",
    "lens_dim": "surgery", "manifold_dim": "surgery",
    "parse_manifold": "surgery", "surgery_dim": "surgery",
    "triad_bounds": "surgery", "verify_identity": "surgery",
    "zero_surgery_dim": "surgery",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
