#!/usr/bin/env python3
"""Regenerate the bundled record file src/isharp/data/tables.jsonl.

All table values live here as Python literals; the loader never trusts
them blindly (see Dataset.check_integrity and the verify module, which
re-derive everything derivable).
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from isharp.datasets import Dataset, TableEntry  # noqa: E402

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "isharp", "data", "tables.jsonl")

CITE = {
    "KNOT": "Rolfsen/Knot Atlas structural data with tabulated instanton invariants",
    "T1": "nu/r0 table for prime knots through 8 crossings",
    "T2": "dimension table for the first 20 Hodgson-Weeks census manifolds",
    "T3": "nu/tau table for prime knots through 8 crossings",
    "T4": "integer-surgery dimensions pinning r0",
    "T5": "odd Khovanov vs branched double cover comparison table",
    "T6": "census manifolds realized as knot surgeries",
    "T7": "census manifolds realized as branched double covers of thin knots",
    "T8": "census manifolds computed from surgery triads",
    "ALIAS": "registered family identifications used by the surgery identities",
}

# --- knots through 8 crossings --------------------------------------------
# name: (genus, slice_genus, signature, determinant, nu, tau, r0)
# nu is None where only the interval [-1, 1] is known; r0 is None where the
# table leaves it open.  Chirality and signs follow Rolfsen (sigma of the
# right-handed trefoil is -2).
SMALL = {
    "3_1":  (1, 1, 2, 3, -1, -1, 1),
    "4_1":  (1, 1, 0, 5, 0, 0, 2),
    "5_1":  (2, 2, 4, 5, -3, -2, 3),
    "5_2":  (1, 1, 2, 7, -1, -1, 3),
    "6_1":  (1, 0, 0, 9, 0, 0, 4),
    "6_2":  (2, 1, 2, 11, -1, -1, 5),
    "6_3":  (2, 1, 0, 13, 0, 0, 6),
    "7_1":  (3, 3, 6, 7, -5, -3, 5),
    "7_2":  (1, 1, 2, 11, -1, -1, 5),
    "7_3":  (2, 2, -4, 13, 3, 2, 7),
    "7_4":  (1, 1, -2, 15, 1, 1, 7),
    "7_5":  (2, 2, 4, 17, -3, -2, None),
    "7_6":  (2, 1, 2, 19, -1, -1, None),
    "7_7":  (2, 1, 0, 21, None, 0, None),
    "8_1":  (1, 1, 0, 13, 0, 0, 6),
    "8_2":  (3, 2, 4, 17, -3, -2, 9),
    "8_3":  (1, 1, 0, 17, 0, 0, 8),
    "8_4":  (2, 1, 2, 19, -1, -1, 9),
    "8_5":  (3, 2, -4, 21, 3, 2, 11),
    "8_6":  (2, 1, 2, 23, -1, -1, 11),
    "8_7":  (3, 1, -2, 23, 1, 1, None),
    "8_8":  (2, 0, 0, 25, 0, 0, 12),
    "8_9":  (3, 0, 0, 25, 0, 0, None),
    "8_10": (3, 1, -2, 27, 1, 1, None),
    "8_11": (2, 1, 2, 27, -1, -1, None),
    "8_12": (2, 1, 0, 29, 0, 0, None),
    "8_13": (2, 1, 0, 29, None, 0, None),
    "8_14": (2, 1, 2, 31, -1, -1, None),
    "8_15": (2, 2, 4, 33, -3, -2, None),
    "8_16": (2, 1, 2, 35, -1, -1, None),
    "8_17": (3, 1, 0, 37, 0, 0, None),
    "8_18": (3, 1, 0, 45, 0, 0, None),
    "8_19": (3, 3, -6, 3, 5, 3, 5),
    "8_20": (2, 0, 0, 9, 0, 0, 4),
    "8_21": (2, 1, None, 15, -1, -1, None),
}

AMPHICHIRAL = {"4_1", "6_3", "8_3", "8_12", "8_17", "8_18"}
NON_ALTERNATING = {"8_19", "8_20", "8_21"}
ALEXANDER = {
    "0_1": [1],
    "3_1": [-1, 1],
    "4_1": [3, -1],
    "5_2": [-3, 2],
    "8_8": [9, -6, 2],
}
# knots whose mirror is positive (left-handed torus knots, odd twist knots)
MIRROR_POSITIVE = {"3_1": 1, "5_1": 3, "7_1": 5, "5_2": 1, "7_2": 1}

# the seven low-crossing knots with non-thin reduced odd Khovanov homology:
# name: (determinant, reduced odd Khovanov rank, registered surgery
# description of the branched double cover, its dimension); the KNOT row
# holds the determinant, and T5 the rest with a copy of it
NON_THIN = {
    "10_124": (1, 3, "surg(3_1; -1/1)", 1),
    "10_139": (3, 7, "surg(4_1; -3/1)", 5),
    "10_145": (3, 7, "surg(5_2; -3/1)", 5),
    "10_152": (11, 15, None, None),
    "10_153": (1, 9, "surg(P(7,3,-3); 1/1)", 5),
    "10_154": (13, 17, "surg(10_139; 13/1)", [13, 15]),
    "10_161": (5, 9, "surg(4_1; 5/1)", 7),
}

# the codes presenting a knot in its own chirality, in knot-row order
PRESENTATIONS = {
    "3_1": ["TB(2,2)", "Tw(1)"],
    "4_1": ["Tw(2)", "TB(-2,2)", "TB(-2,-3)"],
    "5_2": ["Tw(3)"],
    "6_1": ["Tw(4)", "P(1,3,-3)"],
    "6_2": ["TB(-3,-4)"],
    "7_2": ["Tw(5)"],
    "7_3": ["TB(-3,4)"],
    "7_4": ["TB(-4,-4)"],
    "8_1": ["Tw(6)"],
    "8_2": ["TB(-3,-6)"],
    "8_3": ["TB(-4,4)"],
    "8_4": ["TB(-5,-4)"],
    "8_5": ["P(3,3,2)"],
    "8_19": ["T(3,4)"],
    "8_20": ["P(2,3,-3)"],
    "10_124": ["T(3,5)"],
    "K12n242": ["P(-2,3,7)"],
}


def small_knot_payload(name):
    g, gs, sigma, det = SMALL[name][:4]
    flags = {
        "alternating": name not in NON_ALTERNATING,
        "amphichiral": name in AMPHICHIRAL,
        "thin_odd_khovanov": True,
    }
    if flags["alternating"]:
        flags["homogeneous"] = True
    payload = {
        "genus": g,
        "slice_genus": gs,
        "signature": sigma,
        "determinant": det,
        "alexander": ALEXANDER.get(name),
        "flags": flags,
    }
    # nu, tau and r0 live in T1 and T3; the payload keeps what no table holds
    if gs == 0:  # a slice knot is W-shaped
        payload["instanton"] = {"shape": "W"}
    if name in MIRROR_POSITIVE:
        payload["mirror_flags"] = {"positive": True, "quasipositive": True}
        payload["mirror_sl_max"] = MIRROR_POSITIVE[name]
    return payload


def build_entries():
    entries = []

    def add(table, key, payload, citation=None):
        entries.append(TableEntry(table, str(key), payload, citation or CITE[table]))

    # ---- KNOT records ----
    add("KNOT", "0_1", {
        "genus": 0, "slice_genus": 0, "signature": 0, "determinant": 1,
        "alexander": [1], "sl_max": -1,
        "flags": {"alternating": True, "amphichiral": True,
                  "thin_odd_khovanov": True, "homogeneous": True},
        # 0_1 has a T3 row but no T1 row, so its r0 is stored here
        "instanton": {"r0": 0, "shape": "W"},
    })
    for name in SMALL:
        payload = small_knot_payload(name)
        if name == "4_1":
            payload["instanton"] = {"mu0_dim": 2}  # zero-surgery is a torus bundle
        if name == "8_19":
            payload["flags"].update({"quasipositive": True, "positive": True,
                                     "homogeneous": True, "instanton_lspace": True})
            payload["sl_max"] = 5
        if name == "8_20":
            payload["flags"]["quasipositive"] = True
            payload["sl_max"] = -1
        if name == "8_21":
            payload["mirror_flags"] = {"quasipositive": True}
            payload["mirror_sl_max"] = 1
        add("KNOT", name, payload)

    # knots appearing only through branched covers or census routes
    thin_only = {"9_47": 27, "9_49": 25, "10_155": 25, "10_156": 35,
                 "10_160": 21, "10_163": 35, "K11n118": 21, "K11n92": 15}
    for name, det in thin_only.items():
        add("KNOT", name, {
            "determinant": det,
            "flags": {"thin_odd_khovanov": True},
        }, "reduced odd Khovanov homology of these knots is thin")

    # the seven low-crossing knots with non-thin reduced odd Khovanov homology
    # the seven low-crossing knots with non-thin reduced odd Khovanov homology
    positive = {"positive": True, "quasipositive": True}
    for name, (det, *_) in NON_THIN.items():
        payload = {"determinant": det, "flags": {"thin_odd_khovanov": False}}
        citation = None
        if name == "10_139":
            payload.update(genus=4, slice_genus=4)
            payload["flags"].update(positive)
            # r0 is pinned to {7, 9} by the surgery triad through the lens
            # space L(9,2) and 5-surgery on the figure eight
            payload["instanton"] = {"r0": {"lo": 7, "hi": 9, "parity": 1}}
            citation = "triad bound through L(9,2) and 5-surgery on 4_1"
        if name == "10_154":
            payload.update(genus=3, slice_genus=3)
            payload["flags"].update(positive)
        add("KNOT", name, payload, citation)

    # census workhorses with positive instanton L-space surgeries
    add("KNOT", "K12n242", {
        "genus": 5, "slice_genus": 5,
        "flags": {"instanton_lspace": True, "positive": True, "quasipositive": True},
    }, "pretzel with lens-space surgeries (18-surgery is cyclic)")
    add("KNOT", "k5_1", {
        "genus": 11, "slice_genus": 11,
        "flags": {"instanton_lspace": True, "positive": True, "quasipositive": True},
    }, "braid-positive twisted torus knot with a cyclic 31-surgery")

    # ---- ALIAS rows: the alias registry, in the order it resolves ----
    torus_mirror = {"T(2,3)": "3_1", "T(2,5)": "5_1", "T(2,7)": "7_1"}
    for code, name in torus_mirror.items():
        add("ALIAS", code, {"name": name, "mirrored": True},
            "left-handed torus knots mirror the positive ones")
    for code, name, mirrored in [
        ("TB(2,-3)", "5_2", True), ("TB(-2,-4)", "5_2", True),
        ("TB(2,-4)", "6_1", True), ("TB(-2,-5)", "6_1", True),
        ("TB(2,-5)", "7_2", True),
        ("P(1,3,2)", "6_2", True), ("P(-1,3,2)", "0_1", False),
    ]:
        add("ALIAS", code, {"name": name, "mirrored": mirrored})
    for name, codes in PRESENTATIONS.items():
        for code in codes:
            add("ALIAS", code, {"name": name, "mirrored": False})

    # ---- T1: nu / r0 ----
    for name, (_, _, _, _, nu, _, r0) in SMALL.items():
        if r0 is not None:
            add("T1", name, {"nu": nu, "r0": r0})

    # ---- T3: nu / tau ----
    add("T3", "0_1", {"nu": 0, "tau": 0})
    for name, (_, _, _, _, nu, tau, _) in SMALL.items():
        add("T3", name, {"nu": nu, "tau": tau})

    # ---- T4: integer surgeries pinning r0 ----
    t4 = [
        ("3_1", -5, 5, "torus"), ("4_1", 1, 3, "twist"), ("5_1", -9, 9, "torus"),
        ("5_2", -1, 3, "twist"), ("6_1", 1, 5, "twist"),
        ("6_2", -9, 13, "two-bridge identity"), ("6_3", -1, 7, "chain"),
        ("7_1", -13, 13, "torus"), ("7_2", -1, 5, "twist"),
        ("7_3", 7, 11, "two-bridge identity"), ("7_4", 1, 7, "two-bridge identity"),
        ("8_1", 1, 7, "twist"), ("8_2", -13, 19, "two-bridge identity"),
        ("8_3", 1, 9, "two-bridge identity"), ("8_4", -7, 15, "two-bridge identity"),
        ("8_5", 7, 15, "pretzel family"), ("8_6", -1, 11, "chain"),
        ("8_8", -1, 13, "chain"), ("8_19", 11, 11, "torus"),
        ("8_20", 1, 5, "pretzel family"),
    ]
    for name, n, dim, via in t4:
        nu, r0 = SMALL[name][4], SMALL[name][6]
        add("T4", name, {"n": n, "dim": dim, "nu": nu, "r0": r0, "via": via})

    # ---- T2: census dimensions ----
    t2 = [
        ("m003(-3,1)", 25, 25), ("m003(-2,3)", 5, 7), ("m007(3,1)", 18, 18),
        ("m003(-4,3)", 25, 25), ("m004(6,1)", 6, 8), ("m004(1,2)", 1, 5),
        ("m009(4,1)", 6, 8), ("m003(-3,4)", 10, [10, 12]), ("m003(-4,1)", 35, 35),
        ("m004(3,2)", 3, 7), ("m004(7,1)", 7, 9), ("m004(5,2)", 5, 9),
        ("m003(-5,3)", 35, 35), ("m007(1,2)", 21, 21), ("m007(4,1)", 21, 21),
        ("m007(3,2)", 27, 27), ("m006(3,1)", 30, 30), ("m003(-5,4)", 30, 30),
        ("m006(-3,2)", 15, 15), ("m015(5,1)", 7, 9),
    ]
    for i, (name, h1, dim) in enumerate(t2):
        add("T2", i, {"name": name, "h1": h1, "dim": dim})

    # ---- T6: census surgery routes ----
    t6 = [
        (1, "m003(-2,3)", "4_1", "5/1", 5, 7),
        (4, "m004(6,1)", "4_1", "6/1", 6, 8),
        (5, "m004(1,2)", "4_1", "1/2", 1, 5),
        (6, "m009(4,1)", "m(5_2)", "6/1", 6, 8),
        (9, "m004(3,2)", "4_1", "3/2", 3, 7),
        (10, "m004(7,1)", "4_1", "7/1", 7, 9),
        (11, "m004(5,2)", "4_1", "5/2", 5, 9),
        (12, "m003(-5,3)", "P(-2,3,7)", "35/2", 35, 35),
        (13, "m007(1,2)", "P(-2,3,7)", "21/1", 21, 21),
        (17, "m003(-5,4)", "k5_1", "30/1", 30, 30),
        (18, "m006(-3,2)", "P(-2,3,7)", "15/1", 15, 15),
        (19, "m015(5,1)", "m(5_2)", "7/1", 7, 9),
    ]
    for i, name, knot, slope, h1, dim in t6:
        add("T6", i, {"name": name, "knot": knot, "slope": slope, "h1": h1, "dim": dim})

    # ---- T7: census branched-cover routes ----
    t7 = [
        (0, "m003(-3,1)", "9_49", "yes", 25, 25),
        (3, "m003(-4,3)", "10_155", "yes", 25, 25),
        (8, "m003(-4,1)", "10_163", "yes", 35, 35),
        (12, "m003(-5,3)", "10_156", "yes", 35, 35),
        (13, "m007(1,2)", "10_160", "yes", 21, 21),
        (14, "m007(4,1)", "K11n118", "unknown", 21, 21),
        (15, "m007(3,2)", "9_47", "yes", 27, 27),
        (18, "m006(-3,2)", "K11n92", "no", 15, 15),
    ]
    for i, name, knot, qa, h1, dim in t7:
        add("T7", i, {"name": name, "knot": knot, "qa": qa, "h1": h1, "dim": dim})

    # ---- T8: census triad routes ----
    t8 = [
        (2, "m007(3,1)", 18,
         [{"desc": "lens(3,1)", "h1": 3, "dim": 3},
          {"desc": "dcover(8_21)", "h1": 15, "dim": 15}], 18),
        (7, "m003(-3,4)", 10,
         [{"desc": "lens(5,1)", "h1": 5, "dim": 5},
          {"desc": "census(1)", "h1": 5, "dim": 7}], [10, 12]),
        (16, "m006(3,1)", 30,
         [{"desc": "lens(5,2)", "h1": 5, "dim": 5},
          {"desc": "census(0)", "h1": 25, "dim": 25}], 30),
    ]
    for i, name, h1, components, dim in t8:
        add("T8", i, {"name": name, "h1": h1, "components": components, "dim": dim})

    # ---- T5: branched double covers of the non-thin knots ----
    for name, (det, khbar, sigma2, dim) in NON_THIN.items():
        add("T5", name, {"det": det, "khbar_dim": khbar, "sigma2": sigma2, "dim": dim})

    return entries


def main():
    # the loader's row and integrity checks run on every generated row
    ds = Dataset(build_entries())
    ds.check_integrity()
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    ds.save(OUT)
    print(f"wrote {len(ds.entries)} records to {os.path.relpath(OUT)}")


if __name__ == "__main__":
    main()
