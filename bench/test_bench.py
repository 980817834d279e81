"""Self-test of the benchmark harness: python3 -m pytest bench -q

It checks the oracle on known values (and that it rejects wrong ones),
that isharp agrees with the oracle on the slope_sweep inputs, that the
golden CLI corpus covers the pool, and, with a smoke run of every
workload at the smallest size, that each run emits exactly the metric
names and units of BENCHMARK.json.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import cli_corpus  # noqa: E402
import oracle as O  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

TABLES = O.load_tables(ROOT / "src" / "isharp" / "data" / "tables.jsonl")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMED = {k.text: k for k in O.dataset_knots(TABLES)}

# the per-layer names the benchmark promises to later changes
LAYER_NAMES = {
    "startup.interpreter_ms", "startup.import_ms", "datasets.parse_ms",
    "datasets.index_ms", "datasets.integrity_ms", "datasets.cross_check_ms",
    "datasets.records", "datasets.knots", "cli.command_ms.p50", "knots.parse_us",
    "knots.structural_ms.sum800", "knots.structural_ms.cable32",
    "knots.format_ms.sum800", "invariants.deduce_ms.sum100",
    "invariants.deduce_ms.sum200", "invariants.deduce_ms.sum400",
    "invariants.deduce_ms.sum800", "invariants.deduce_ms.cable8",
    "invariants.deduce_ms.cable16", "invariants.deduce_ms.cable32",
    "invariants.growth.sum", "invariants.growth.cable", "invariants.deduce_warm_us",
    "invariants.cache_entries", "values.meet_us", "slopes.neg_cf_us.small",
    "slopes.neg_cf_us.huge", "slopes.triad_us.small", "slopes.triad_us.huge",
    "surgery.closed_form_us", "surgery.census_dim_ms", "surgery.dcover_us",
    "surgery.homeo_identities_us", "verify.all_ms", "verify.census_ms",
    "verify.identities_ms", "verify.cells", "verify.identity_instances",
    "verify.failed",
}


def test_oracle_known_values():
    allowed, euler = O.surgery_dims(NAMED["6_2"], -9, 1)
    assert (allowed, euler) == ({13}, 9)
    assert O.dim_ok({"kind": "exact", "dim": 13, "euler": 9, "graded": [11, 2]}, allowed, euler)
    assert not O.dim_ok({"kind": "exact", "dim": 13, "euler": 9, "graded": [12, 1]}, allowed, euler)
    assert not O.dim_ok({"kind": "exact", "dim": 15, "euler": 9}, allowed, euler)
    assert not O.dim_ok({"kind": "candidates", "candidates": [13, 15], "euler": 9}, allowed, euler)
    # T(3,4) is 8_19, P(3,3,2) is 8_5, Tw(3) is 5_2
    assert (O.torus(3, 4).nu, O.torus(3, 4).r0) == (NAMED["8_19"].nu, NAMED["8_19"].r0)
    assert (O.pretzel_odd32(2).nu, O.pretzel_odd32(2).r0) == (NAMED["8_5"].nu, NAMED["8_5"].r0)
    assert (O.twist(3).nu, O.twist(3).r0) == (NAMED["5_2"].nu, NAMED["5_2"].r0)
    cab, g = O.lspace_cable(3, 2, "m(3_1)", 1)
    assert (g, cab.nu, cab.r0) == (3, 5, 5)
    assert O.surgery_dims(cab, 19, 1) == ({19}, 19)
    assert O.surgery_dims(NAMED["8_20"], 0, 1) == ({6}, 0)  # W-shaped: r0 + 2
    assert O.eval_cf([1, 2, 2]) == (1, 3)
    assert O.triad_ok([3, 2], (2, 1), (3, 1), (1, 0), "cd=ab+ef")
    assert not O.triad_ok([3, 2], (3, 1), (2, 1), (1, 0), "cd=ab+ef")


def test_isharp_agrees_with_oracle_on_sweep_inputs():
    from isharp import datasets
    from isharp.knots import parse_knot
    from isharp.slopes import Slope, neg_cf
    from isharp.surgery import surgery_dim

    ds = datasets.default()
    rng = random.Random("self-test")
    for k in W.sweep_knots(TABLES):
        expr = parse_knot(k.text)
        for _ in range(3):
            p, q, coeffs, _ = W.sweep_slope(rng)
            out = surgery_dim(expr, Slope(p, q), "trivial", ds).to_json()
            assert O.dim_ok(out, *O.surgery_dims(k, p, q)), (k.text, p, q, out)
            if q:
                assert neg_cf(Slope(p, q)) == coeffs


def test_golden_corpus_covers_the_pool():
    golden = cli_corpus.load_golden(ROOT / "bench" / cli_corpus.GOLDEN_FILE)
    pool = cli_corpus.queries(TABLES)
    assert len(pool) == 50 and len({q.key for q in pool}) == 50
    assert sum(q.defect is not None for q in pool) == 2
    for q in pool:
        g = golden[q.key]
        verdict = cli_corpus.judge(q, golden, g["exit"], g["stdout"], g["stderr_first_line"])
        assert (verdict is None) == (q.defect is None), (q.argv[:2], verdict)


def test_layer_names_are_declared():
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert LAYER_NAMES <= declared


def _smoke(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0.05",
                     "--trace", str(trace)]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert result["correct"] is True and result["attempted"] >= 1
    return result


@pytest.fixture
def smallest(monkeypatch):
    """The smallest sizes: two short size series and a cli pool of one
    ordinary query plus the two known-defect ones."""
    monkeypatch.setattr(W, "SUM_SIZES", (25,))
    monkeypatch.setattr(W, "CABLE_DEPTHS", (2,))
    full = cli_corpus.queries
    monkeypatch.setattr(cli_corpus, "queries",
                        lambda t: [q for q in full(t) if q.defect] + full(t)[:1])
    monkeypatch.setattr(W.CliMix, "min_units", 3)


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_smoke_end_to_end(smallest, capsys, workload):
    result = _smoke(capsys, workload, 0)
    expected_failures = 2 if workload == "cli_mix" else 0
    assert result["failed"] == expected_failures


def test_smoke_traced(capsys):
    _smoke(capsys, "slope_sweep", 1)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "slope_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
