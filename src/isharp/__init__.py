"""Exact dimensions of framed instanton homology for Dehn surgeries,
branched double covers, and small census manifolds.

The public names below are resolved on first access (PEP 562), so
`import isharp` and a CLI call that needs only slopes do not pay for
importing the deduction engine and the dimension code.
"""

from importlib import import_module

_EXPORTS = {
    "deduce": "invariants", "lspace_cable": "invariants",
    "format_knot": "knots", "genus": "knots", "mirror": "knots",
    "parse_knot": "knots", "structural": "knots",
    "Slope": "values", "parse_slope": "values", "reduce": "values",
    "eval_cf": "slopes", "neg_cf": "slopes", "triad": "slopes",
    "DimResult": "dimension", "branched_cover_dim": "dimension",
    "census_dim": "dimension", "lens_dim": "dimension",
    "manifold_dim": "dimension", "parse_manifold": "dimension",
    "surgery_dim": "dimension", "triad_bounds": "dimension",
    "zero_surgery_dim": "dimension",
    "homeo_identities": "surgery", "verify_identity": "verify",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
