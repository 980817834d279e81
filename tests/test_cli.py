import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isharp import cli, cli_text
from isharp.dimension import parse_manifold
from isharp.knots import format_knot
from test_knots import knot_exprs

BENCH = Path(__file__).resolve().parent.parent / "bench"


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "isharp.cli", *args],
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def test_dim_structured_output():
    code, out, _ = run_cli("dim", "surg(6_2; -9/1)", "--graded")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "exact"
    assert obj["dim"] == 13
    assert obj["euler"] == 9
    assert obj["graded"] == [11, 2]


def test_invariants_output():
    code, out, _ = run_cli("invariants", "m(5_2)")
    assert code == 0
    obj = json.loads(out)
    assert (obj["nu"], obj["tau"], obj["r0"]) == (1, 1, 3)


def test_invariants_trace_has_statements():
    code, out, _ = run_cli("invariants", "8_19", "--trace")
    assert code == 0
    obj = json.loads(out)
    assert obj["trace"], "trace requested but empty"
    for entry in obj["trace"]:
        assert entry["rule"].startswith("R")
        assert entry["statement"]


def test_verify_all_passes():
    code, out, _ = run_cli("verify", "all")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] == obj["total"] > 0
    assert obj["failed"] == []


def test_census_and_dcover():
    code, out, _ = run_cli("census", "7")
    assert code == 0
    assert json.loads(out)["candidates"] == [10, 12]
    code, out, _ = run_cli("dcover", "9_49")
    assert code == 0
    assert json.loads(out)["dim"] == 25


@pytest.mark.parametrize("index, message", [
    ("20", "census index 20 out of range 0..19"),
    ("-1", "census index -1 out of range 0..19"),
    ("3_0", "expected ')' at position 8 in 'census(3_0)'"),
    ("\u0661", "expected an integer at position 7 in 'census(\u0661)'"),  # Arabic-Indic 1
    ("x", "expected an integer at position 7 in 'census(x)'"),
])
def test_census_reads_its_index_as_dim_does(index, message, capsys):
    assert cli.main(["census", index]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert cli.main(["dim", f"census({index})"]) == 1
    assert capsys.readouterr().err == err


def test_cf_and_triad():
    code, out, _ = run_cli("cf", "1/3")
    assert json.loads(out)["cf"] == "[1,2,2]"
    code, out, _ = run_cli("triad", "5/2")
    obj = json.loads(out)
    assert (obj["ab"], obj["cd"], obj["ef"]) == ("2/1", "3/1", "inf")


def test_cable_and_sum():
    code, out, _ = run_cli("cable", "3", "2", "m(3_1)")
    obj = json.loads(out)
    assert obj["lspace"] is True and (obj["nu"], obj["r0"]) == (5, 5)
    code, out, _ = run_cli("sum", "3_1", "m(3_1)")
    obj = json.loads(out)
    assert obj["nu"] == 0 and obj["shape"] == "W"


def test_cable_answers_for_the_knot_the_cable_is():
    # the cable of the unknot is a torus knot: T(2,3), or the unknot itself
    code, out, _ = run_cli("cable", "3", "2", "U")
    assert code == 0
    assert out == '{"cable":"T(2,3)","genus":1,"lspace":true,"nu":1,"r0":1}\n'
    code, out, _ = run_cli("cable", "1", "2", "U")
    assert code == 0 and json.loads(out) == {"cable": "U", "genus": 0, "lspace": False}
    code, _, err = run_cli("cable", "3", "1", "U")
    assert code == 1 and err.startswith("error: cable needs q >= 2")


def test_exit_codes():
    code, _, err = run_cli("invariants", "99_42")
    assert code == 1 and "error" in err
    code, _, _ = run_cli("nonsense-command")
    assert code == 2
    code, _, _ = run_cli("dim")  # missing argument
    assert code == 2


def test_deterministic_output():
    runs = [run_cli("census", "all")[1] for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [run_cli("verify", "T4")[1] for _ in range(2)]
    assert runs[0] == runs[1]


def test_export_matches_dataset():
    code, out, _ = run_cli("export", "T4")
    assert code == 0
    assert out.startswith("key\tn\tdim\tnu\tr0\tvia")
    assert "8_2\t-13\t19" in out


def test_pretty_mode():
    code, out, _ = run_cli("--pretty", "dim", "surg(3_1; -5/1)")
    assert code == 0
    assert "dim: 5" in out
    code, out, _ = run_cli("--pretty", "verify", "T5")
    assert code == 0
    assert "branched double covers of the non-thin knots:" in out
    assert "(candidate 15 vs 17: possible)" in out
    assert out.endswith("14/14 passed\n")


def test_data_override(tmp_path):
    from isharp import datasets
    ds = datasets.load(check=False)
    alt = tmp_path / "alt.jsonl"
    ds.save(str(alt))
    code, out, _ = run_cli("--data", str(alt), "dim", "surg(3_1; -5/1)")
    assert code == 0 and json.loads(out)["dim"] == 5


def test_missing_data_file_exits_3(tmp_path):
    code, out, err = run_cli("--data", str(tmp_path / "missing.jsonl"), "dim", "lens(9,2)")
    assert code == 3 and out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("integrity error: cannot read")


def _edited_copy(tmp_path, table, key, edit):
    """The bundled record file with edit applied to the JSON object of
    one row."""
    from isharp import datasets
    lines = []
    for e in datasets.load(check=False).entries:
        line = json.loads(e.to_json_line())
        if (e.table, e.key) == (table, key):
            edit(line)
        lines.append(json.dumps(line))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(bad)


def test_malformed_record_exits_3(tmp_path):
    bad = _edited_copy(tmp_path, "KNOT", "3_1", lambda line: line.update(payload=[1, 2]))
    code, out, err = run_cli("--data", bad, "verify", "T4")
    assert code == 3 and out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("integrity error: line ")


@pytest.mark.parametrize("table, key, edit, argv, message", [
    ("T4", "3_1", lambda line: line["payload"].update(n="x"), ("verify", "all"),
     "T4 row 3_1: n 'x' is not of type int"),
    ("T2", "0", lambda line: line["payload"].update(dim="x"), ("dim", "census(0)"),
     "T2 row 0: dim 'x' is not of type int or list"),
    ("KNOT", "3_1", lambda line: line["payload"]["instanton"].update(shape=5),
     ("verify", "all"), "knot record 3_1: instanton: shape 5 is not of type str or null"),
    ("KNOT", "3_1", lambda line: line["payload"].update(aliases=[5]), ("invariants", "3_1"),
     "knot record 3_1: aliases [5] is not a list of strings"),
    ("ALIAS", "T(2,3)", lambda line: line["payload"].update(mirrored="no"),
     ("invariants", "3_1"), "ALIAS row T(2,3): mirrored 'no' is not of type bool or null"),
    ("KNOT", "3_1", lambda line: line["payload"].update(aliases=["X(1)"]),
     ("invariants", "3_1"), "alias 'X(1)': expected a knot expression at position 0 in 'X(1)'"),
    ("KNOT", "3_1", lambda line: line["payload"].update(aliases=["Tw(0)"]),
     ("dim", "surg(T(2,5); 1)"), "alias 'Tw(0)': twist knot needs n >= 1, got 0"),
    ("KNOT", "3_1", lambda line: line["payload"].update(aliases=["Cab(3,2;5_1)"]),
     ("identities", "6_2", "1"),
     "alias 'Cab(3,2;5_1)' is not a torus, twist, pretzel or two-bridge knot"),
    ("ALIAS", "T(2,3)", lambda line: line.update(key="T(1,3)"), ("invariants", "5_2"),
     "alias 'T(1,3)' is not a torus, twist, pretzel or two-bridge knot"),
    # a flag that is not a bool would read as true (7_7 is not slice)
    ("KNOT", "7_7", lambda line: line["payload"]["flags"].update(slice="no"),
     ("invariants", "7_7"), "knot record 7_7: flag slice 'no' is not of type bool or null"),
    # a census manifold's dimension comes from its census routes, a layer
    # above the covers
    ("KNOT", "10_124", lambda line: line["payload"].update(sigma2="census(3)"),
     ("dim", "dcover(10_124)"),
     "knot record 10_124: sigma2 census(3) is not a surgery, lens or cover description"),
])
def test_malformed_table_cell_exits_3(table, key, edit, argv, message, tmp_path):
    code, out, err = run_cli("--data", _edited_copy(tmp_path, table, key, edit), *argv)
    assert (code, out, err) == (3, "", f"integrity error: {message}\n")


def _set_component_desc(line, desc):
    line["payload"]["components"][1]["desc"] = desc


@pytest.mark.parametrize("table, key, edit, argvs, message", [
    ("T6", "1", lambda line: line["payload"].update(knot="X_1"),
     [("dim", "census(1)"), ("verify", "T6"), ("export", "T6"), ("census", "all")],
     "T6 row 1: expected a knot expression at position 0 in 'X_1'"),
    ("T6", "1", lambda line: line["payload"].update(slope="x"),
     [("census", "1"), ("verify", "all")], "T6 row 1: bad slope 'x'"),
    ("T7", "0", lambda line: line["payload"].update(knot="Cab(3,2;3_1"),
     [("dim", "census(0)"), ("verify", "T7")],
     "T7 row 0: expected ')' at position 11 in 'Cab(3,2;3_1'"),
    ("T8", "2", lambda line: _set_component_desc(line, "dcover(X_1)"),
     [("dim", "census(2)"), ("export", "T8")],
     "T8 row 2: expected a knot expression at position 7 in 'dcover(X_1)'"),
    ("KNOT", "10_124", lambda line: line["payload"].update(sigma2="surg(X_1; 1)"),
     [("dim", "dcover(10_124)"), ("verify", "T5")],
     "knot record 10_124: sigma2: expected a knot expression at position 5 "
     "in 'surg(X_1; 1)'"),
])
def test_unparseable_route_cell_exits_3_naming_its_row(table, key, edit, argvs, message,
                                                       tmp_path):
    data = _edited_copy(tmp_path, table, key, edit)
    for argv in argvs:
        assert run_cli("--data", data, *argv) == (3, "", f"integrity error: {message}\n"), argv


def test_non_utf8_data_file_exits_3(tmp_path):
    binary = tmp_path / "binary.jsonl"
    binary.write_bytes(b"\xff\xfe{not text\n")
    code, out, err = run_cli("--data", str(binary), "dim", "lens(9,2)")
    assert code == 3 and out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"integrity error: cannot read {binary}: 'utf-8' codec")


def test_astronomically_long_expansions_exit_1():
    # 10^20 terms; and a partial quotient of 8.3 * 10^22 in the ordinary
    # expansion, which the negative one writes as that many twos
    for args in (("cf", "1/100000000000000000000"),
                 ("triad", "--", "-98765432109876543210987654321098765432101"
                                 "/1234567890123456789012345678901234567891")):
        code, out, err = run_cli(*args)
        assert code == 1 and out == "", args
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, args
        assert err.startswith("error: the negative continued fraction of"), args
        assert "terms" in err, args


def test_identities_listing():
    # "--" keeps the negative slope from being read as a flag
    code, out, _ = run_cli("identities", "TB(-3,-4)", "--", "-9/1")
    assert code == 0
    rows = json.loads(out)
    assert any(r["slope"] == "9/2" for r in rows)


def test_r14_tau_bound_is_an_integer(tmp_path):
    # stored nu = r0 = 2 and |2 tau - nu| <= 1 leave only tau = 1
    from isharp import datasets
    row = datasets.TableEntry("KNOT", "9_99", {"instanton": {"nu": 2, "r0": 2}}, "test")
    data = tmp_path / "extra.jsonl"
    data.write_text(Path(datasets.BUNDLED_PATH).read_text(encoding="utf-8")
                    + row.to_json_line() + "\n", encoding="utf-8")
    code, out, err = run_cli("--data", str(data), "invariants", "9_99")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"delta": 0, "knot": "9_99", "nu": 2, "r0": 2, "shape": "V",
                               "sl_max_bound": 1, "tau": 1}


def test_r14_gives_r0_the_parity_of_an_inexact_nu(tmp_path):
    # r0 - nu is always even, so a stored odd nu in [-1, 1] makes r0 odd
    odd_nu = {"lo": -1, "hi": 1, "parity": 1}
    data = _edited_copy(tmp_path, "KNOT", "7_7",
                        lambda line: line["payload"]["instanton"].update(nu=odd_nu))
    code, out, err = run_cli("--data", data, "invariants", "7_7")
    assert (code, err) == (0, "")
    bundle = json.loads(out)
    assert bundle["nu"] == odd_nu
    assert bundle["r0"] == {"lo": 1, "hi": None, "parity": 1}


def test_identities_of_an_unknown_name_exit_1():
    # like dcover, dim and invariants, not an empty list
    for argv in (("identities", "99_1", "1"), ("invariants", "99_1"),
                 ("dcover", "99_1"), ("dim", "surg(99_1; 1)")):
        code, out, err = run_cli(*argv)
        assert (code, out, err) == (1, "", "error: unknown knot name '99_1'\n"), argv


def test_deep_nesting_is_refused_cleanly():
    for text in ("m(" * 1500 + "3_1" + ")" * 1500,
                 "Cab(3,2;" * 300 + "3_1" + ")" * 300):
        code, out, err = run_cli("invariants", text)
        assert code == 1 and out == ""
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert "nesting deeper than" in err


def _tampered_copy(tmp_path):
    """The bundled records with census row 5 stored as 7 (its routes give 5)."""
    from isharp import datasets
    from isharp.datasets import Dataset, TableEntry
    entries = []
    for e in datasets.load(check=False).entries:
        payload = dict(e.payload)
        if (e.table, e.key) == ("T2", "5"):
            payload["dim"] = 7
        entries.append(TableEntry(e.table, e.key, payload, e.citation))
    path = tmp_path / "tampered.jsonl"
    Dataset(entries).save(str(path))
    return str(path)


def test_tampered_census_row_fails_where_census_rows_are_read(tmp_path):
    data = _tampered_copy(tmp_path)
    for args in (("dim", "census(5)"), ("census", "5"), ("verify", "all"),
                 ("export", "T2")):
        code, _, err = run_cli("--data", data, *args)
        assert code == 3, args
        assert err.startswith("integrity error:"), args
    # commands that read no census row answer from the same file
    code, out, _ = run_cli("--data", data, "dim", "surg(3_1; -5/1)")
    assert code == 0 and json.loads(out)["dim"] == 5


def test_data_free_commands_ignore_the_data_file(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{nope\n", encoding="utf-8")
    code, out, _ = run_cli("--data", str(bad), "cf", "1/3")
    assert code == 0 and json.loads(out)["cf"] == "[1,2,2]"
    code, _, err = run_cli("--data", str(bad), "invariants", "3_1")
    assert code == 3 and err.startswith("integrity error:")


def test_public_names_resolve():
    import isharp
    for name in isharp.__all__:
        module = isharp._EXPORTS[name]
        assert getattr(isharp, name) is getattr(sys.modules[f"isharp.{module}"], name)
    with pytest.raises(AttributeError):
        isharp.no_such_name


def _loaded_modules(code, *flags):
    import isharp
    env = {**os.environ, "PYTHONPATH": str(Path(isharp.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, *flags, "-c",
         code + "\nimport json, sys; print(json.dumps(list(sys.modules)))"],
        capture_output=True, text=True, check=True, env=env)
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def _isharp_modules(code):
    return {m for m in _loaded_modules(code) if m.startswith("isharp")}


def _import_closure(names):
    """isharp.<name> for each name and every isharp module they import at
    module top, transitively (read from the source, not by importing)."""
    import isharp
    src = Path(isharp.__file__).parent
    todo, seen = list(names), set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
            todo.extend(t for function, targets in _imports(tree) if function is None
                        for t in targets)
    return {f"isharp.{name}" for name in seen}


# one well-formed call of each command, with the modules it loads besides
# its command module and that module's top-level imports: the loader
# (main() loads the data), and the function-local imports of a census
# manifold (cmd_dim.run) and of the census cross-check
# (Dataset.cross_check_census)
_CALLS = [
    (["cf", "1/3"], ()),
    (["triad", "5/2"], ()),
    (["dim", "surg(4_1; 1/2)"], ("datasets",)),
    (["dim", "lens(9,2)"], ("datasets",)),
    (["dim", "dcover(10_124)"], ("datasets",)),
    (["dim", "census(7)"], ("datasets", "surgery")),
    (["invariants", "m(5_2)"], ("datasets",)),
    (["sum", "3_1", "m(3_1)"], ("datasets",)),
    (["cable", "3", "2", "m(3_1)"], ("datasets",)),
    (["census", "3"], ("datasets",)),
    (["dcover", "10_124"], ("datasets",)),
    (["identities", "m(3_1)", "7/4"], ("datasets",)),
    (["verify", "T5"], ("datasets",)),
    (["export", "T1"], ("datasets",)),
    (["export", "T2"], ("datasets", "verify")),
]


def test_import_layout():
    # a CLI call compiles only the modules its subcommand runs: the
    # dispatcher itself needs values alone, and loading the dataset
    # imports nothing above the loader
    base = {"isharp", "isharp.cli", "isharp.values"}
    assert _isharp_modules("import isharp.cli") == base
    assert _isharp_modules("import isharp.cli as c; c.datasets.default()") == {
        *base, "isharp.datasets"}
    # each command: its own module and what that module imports, never
    # another command's module nor the argparse/--pretty text (cli_text)
    loaded = {}
    for argv, extra in _CALLS:
        loaded[" ".join(argv)] = _isharp_modules(
            f"import isharp.cli as c; assert c.main({argv!r}) == 0")
        assert loaded[" ".join(argv)] == base | _import_closure((f"cmd_{argv[0]}", *extra)), argv
    # cf and triad add the continued fractions and skip the loader
    assert loaded["cf 1/3"] == {*base, "isharp.cmd_cf", "isharp.slopes"}
    assert loaded["triad 5/2"] == {*base, "isharp.cmd_triad", "isharp.slopes"}
    # dim on a surgery, a lens space or a cover compiles neither the census
    # and identity code (surgery) nor the continued fractions (slopes)
    for call in ("dim surg(4_1; 1/2)", "dim lens(9,2)", "dim dcover(10_124)"):
        assert loaded[call] == {*base, "isharp.cmd_dim", "isharp.datasets", "isharp.knots",
                                "isharp.invariants", "isharp.dimension"}, call
    # the knot commands stop below the dimension code
    for call in ("invariants m(5_2)", "sum 3_1 m(3_1)", "cable 3 2 m(3_1)"):
        assert "isharp.invariants" in loaded[call], call
        assert "isharp.dimension" not in loaded[call], call
    # --pretty renders through cli_text
    assert "isharp.cli_text" in _isharp_modules(
        "import isharp.cli as c; assert c.main(['--pretty', 'cf', '1/3']) == 0")
    # records are plain slotted classes, so no subcommand pays for the
    # dataclasses machinery and the inspect, ast and dis modules it loads
    for code in ("import isharp.cli",
                 "import isharp.cli as c\n"
                 "for argv in (['cf', '1/3'], ['triad', '5/2'], ['dim', 'surg(4_1; 1/2)'],\n"
                 "             ['invariants', 'm(5_2)'], ['verify', 'T5']):\n"
                 "    assert c.main(argv) == 0, argv"):
        loaded = _loaded_modules(code)
        assert "isharp.cli" in loaded
        assert loaded.isdisjoint({"dataclasses", "inspect"}), code
    # a well-formed command line is read from the command table, so it
    # never imports argparse, nor the gettext and locale modules argparse
    # loads; -h goes through argparse
    for code in ("import isharp.cli",
                 "import isharp.cli as c\n"
                 "for argv in (['cf', '1/3'], ['triad', '5/2'], ['dim', 'surg(4_1; 1/2)'],\n"
                 "             ['invariants', 'm(5_2)'], ['sum', '3_1', 'm(3_1)'],\n"
                 "             ['cable', '3', '2', 'm(3_1)'], ['identities', 'm(3_1)', '7/4'],\n"
                 "             ['export', 'T1']):\n"
                 "    assert c.main(argv) == 0, argv"):
        loaded = _loaded_modules(code)
        assert "isharp.cli" in loaded
        assert loaded.isdisjoint({"argparse", "gettext", "locale"}), code
    # every Val end is an int, so no subcommand imports fractions, nor the
    # decimal module fractions loads
    loaded = _loaded_modules("import isharp.cli as c\n"
                             "for argv in (['cf', '1/3'], ['triad', '5/2'], ['dim', 'surg(4_1; 1/2)'],\n"
                             "             ['invariants', 'm(5_2)'], ['verify', 'T5'], ['export', 'T1']):\n"
                             "    assert c.main(argv) == 0, argv")
    assert "isharp.verify" in loaded
    assert loaded.isdisjoint({"fractions", "decimal"})
    loaded = _loaded_modules("import isharp.cli as c\n"
                             "try:\n"
                             "    c.main(['-h'])\n"
                             "except SystemExit:\n"
                             "    pass")
    assert "argparse" in loaded
    # without site (whose .pth files may import anything), the hot calls
    # import neither typing nor __future__: annotations are written
    # X | None, and no module asks for postponed evaluation
    for argv in (['cf', '1/3'], ['triad', '5/2'], ['dim', 'surg(4_1; 1/2)']):
        loaded = _loaded_modules(f"import isharp.cli as c; assert c.main({argv!r}) == 0", "-S")
        assert "isharp.cli" in loaded
        assert loaded.isdisjoint({"typing", "__future__"}), argv


# --- the CLI contract -------------------------------------------------------
# Every input, however malformed, deep or large, ends in exit 0-3 with at
# most one stderr line and never a traceback.  The one exception is
# argparse's usage error (exit 2), which prints the usage text and then
# one "error:" line.  Every surgery answer is sound.

_BIG = st.integers(-10**40, 10**40)
_GRAMMAR = ["m(", ")", "(", ",", ";", " # ", "Cab(", "T(", "Tw(", "P(", "TB(", "U", "3_1",
            "K11n118", "8_19", "2", "-3", "0", "99_42", "_", " ", "\u0661", "x"]
_knot_texts = st.one_of(
    knot_exprs.map(format_knot),
    st.tuples(_BIG, _BIG).map(lambda pq: f"T({pq[0]},{pq[1]})"),
    st.tuples(_BIG, _BIG, knot_exprs).map(lambda t: f"Cab({t[0]},{t[1]};{format_knot(t[2])})"),
    _BIG.map(lambda n: f"Tw({n})"),
    st.tuples(_BIG, _BIG, _BIG).map(lambda abc: "P({},{},{})".format(*abc)),
    st.tuples(_BIG, _BIG).map(lambda ab: f"TB({ab[0]},{ab[1]})"),
    st.lists(st.sampled_from(_GRAMMAR), max_size=8).map("".join),
)
_slope_texts = st.one_of(
    st.tuples(st.integers(-60, 60), st.integers(0, 9)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    _BIG.map(str),
    st.tuples(_BIG, _BIG).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.sampled_from(["1/0", "0", "-0", "inf", "", "1/", "/2", "1//2", "0/0", "3/-2", "x"]),
)


def _command(name, *flags):
    """argv for one command: any of its flags, then "--" and the
    positionals, so that a negative number reaches the command."""
    return lambda *positionals: [name, *flags, "--", *positionals]


_CONTRACT_ARGVS = st.one_of(
    st.builds(lambda k, s, rest: ["dim", "--", f"surg({k}; {s}{rest})"],
              _knot_texts, _slope_texts, st.sampled_from(["", "; mu", "; x", ";"])),
    st.builds(lambda a, b: ["dim", "--", f"lens({a},{b})"], _BIG | st.integers(-9, 9), _BIG),
    st.builds(lambda k: ["dim", "--trace", "--", f"dcover({k})"], _knot_texts),
    st.builds(lambda i: ["dim", "--graded", "--", f"census({i})"],
              st.integers(-2, 22) | _BIG | st.sampled_from(["", "x", "3_0", "1)"])),
    st.builds(_command("invariants", "--trace"), _knot_texts),
    st.builds(_command("dcover"), _knot_texts),
    st.builds(_command("census"), st.integers(-2, 22).map(str) | st.sampled_from(["all", "x"])),
    st.builds(_command("identities"), _knot_texts, _slope_texts),
    st.builds(_command("cable"), (_BIG | st.integers(-9, 9)).map(str),
              (_BIG | st.integers(-9, 9)).map(str), _knot_texts),
    st.lists(_knot_texts, min_size=1, max_size=3).map(lambda ks: _command("sum")(*ks)),
    st.builds(_command("cf"), _slope_texts),
    st.builds(_command("triad"), _slope_texts),
    # malformed command lines: argparse's usage errors and -h
    st.lists(st.sampled_from([*cli.COMMANDS, "--pretty", "--trace", "--graded", "--", "-h",
                              "-9", "all", "T1", "T9", "3_1", "1/2", "x"]), max_size=6),
)


def _call(argv):
    """(exit code, stdout, stderr) of an in-process cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse: 0 after -h, 2 on a usage error
            code = e.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=1000, deadline=timedelta(seconds=5))
@given(_CONTRACT_ARGVS)
def test_every_input_ends_in_a_documented_exit(argv):
    code, _, err = _call(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, argv
    lines = err.splitlines()
    if code == 2:
        assert lines[0].startswith("usage: isharp") and ": error: " in lines[-1], argv
    else:
        assert len(lines) <= 1, (argv, err)


def _admitted(out):
    """The dimensions a dim answer lists: the exact one, each candidate,
    or the ends of an interval."""
    if out["kind"] == "exact":
        return [out["dim"]]
    if out["kind"] == "candidates":
        return out["candidates"]
    return [out["lo"]] + ([] if out["hi"] is None else [out["hi"]])


# a slope and the bundle of its surgery; the mu bundle needs slope 0
_surgery_slopes = st.one_of(
    st.tuples(st.integers(-60, 60) | _BIG, st.integers(1, 9) | _BIG.map(lambda n: abs(n) + 1))
    .map(lambda pq: (f"{pq[0]}/{pq[1]}", "")),
    st.sampled_from([("inf", ""), ("0", ""), ("0", "; mu")]),
)


@settings(max_examples=500, deadline=timedelta(seconds=5))
@given(knot_exprs, _surgery_slopes)
def test_every_surgery_answer_is_sound(k, slope_bundle):
    knot, (slope, bundle) = format_knot(k), slope_bundle
    code, out, err = _call(["dim", "--", f"surg({knot}; {slope}{bundle})"])
    assert code in (0, 1) and len(err.splitlines()) == code, err
    if code:
        return
    answer = json.loads(out)
    m = parse_manifold(answer["manifold"])  # the printed manifold parses back
    assert str(m) == answer["manifold"]
    p = m.slope.p  # reduced
    for d in _admitted(answer):
        assert d >= abs(p) and (d - p) % 2 == 0, (answer, p)
    if answer["kind"] == "interval":
        assert answer["parity"] == p % 2, answer
    # S^3_{-p/q}(m(K)) is S^3_{p/q}(K) with its orientation reversed
    slope = "inf" if m.slope.is_infinite else f"{-p}/{m.slope.q}"
    code, mirrored, _ = _call(["dim", "--", f"surg(m({knot}); {slope}{bundle})"])
    assert code == 0
    mirrored = json.loads(mirrored)
    assert {**mirrored, "manifold": None} == {**answer, "manifold": None}


# --- the argv matcher: cli._match against cli_text.build_parser() --------

_PARSER = cli_text.build_parser(cli.COMMANDS)


def _parsed(argv):
    """vars() of argparse's namespace for argv; None where argparse exits
    (after -h, or on a usage error)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return vars(_PARSER.parse_args(argv))
    except SystemExit:
        return None


_WORDS = ["", "T1", "T9", "all", "3", "x"]
_TOKENS = st.sampled_from([
    *cli.COMMANDS, "--pretty", "--data", "--data=x", "--trace", "--graded", "--gra",
    "-h", "--", "-", "-9", "-3/4", *_WORDS])
# argv drawn at random, and argv that start like a command line and go
# on with flags, "--" and positionals in any order
_ARGV = st.lists(_TOKENS, max_size=7) | st.builds(
    lambda head, command, tail: [*head, command, *tail],
    st.lists(st.sampled_from(["--pretty", "--data", "x"]), max_size=3),
    st.sampled_from(list(cli.COMMANDS)),
    st.lists(st.sampled_from(["--trace", "--graded", "--", "-9", *_WORDS]), max_size=5))


@settings(max_examples=1500, deadline=None)
@given(_ARGV)
@example(["sum", "x", "--trace", "x"])
@example(["sum", "x", "--trace", "--", "x"])
@example(["sum", "x", "--", "x", "--", "x"])
@example(["cable", "--", "-9", "3", "x"])
def test_matcher_returns_what_argparse_returns(argv):
    matched = cli._match(argv)
    if matched is not None:
        assert vars(matched) == _parsed(argv)


def test_corpus_queries_take_the_matcher_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import cli_corpus
    import oracle

    tables = oracle.load_tables(BENCH.parent / "src" / "isharp" / "data" / "tables.jsonl")
    argvs = [list(q.argv) for q in cli_corpus.queries(tables)]
    assert any("--" in argv for argv in argvs)
    for argv in argvs:
        expected = _parsed(argv)
        if argv == ["export", "T9"]:  # the corpus's one usage error
            assert expected is None and cli._match(argv) is None
        else:
            assert vars(cli._match(argv)) == expected, argv


@pytest.mark.parametrize("argv", [["-h"], ["dim", "-h"], ["dim"], ["export", "T9"]])
def test_help_and_usage_errors_print_the_parser_text(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        cli_text.build_parser(cli.COMMANDS).parse_args(argv)
    expected = capsys.readouterr()
    proc = _entry("-m", "isharp.cli", *argv, capture_output=True)
    assert proc.returncode == exit_.value.code == (0 if "-h" in argv else 2)
    assert (proc.stdout, proc.stderr) == (expected.out.encode(), expected.err.encode())


# the modules from the bottom layer up; each imports only those before it
LAYERS = ("values", "slopes", "datasets", "knots", "invariants", "dimension", "surgery",
          "verify", *(f"cmd_{name}" for name in cli.COMMANDS), "cli_text", "cli")


def _isharp_targets(node):
    """The isharp modules one import statement names."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names if a.name.startswith("isharp.")}
    if node.level == 0:
        parts = (node.module or "").split(".")
        return {parts[1]} if parts[0] == "isharp" and len(parts) > 1 else set()
    return {node.module.split(".")[0]} if node.module else {a.name for a in node.names}


def _imports(tree):
    """(qualified name of the enclosing function or None, isharp modules
    named) for every import statement of a module."""
    out = []

    def visit(node, qual, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                out.append((qual if in_function else None, _isharp_targets(child)))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{qual}.{child.name}".lstrip("."),
                      in_function or not isinstance(child, ast.ClassDef))
            else:
                visit(child, qual, in_function)

    visit(tree, "", False)
    return out


def test_layers_import_downward_at_module_top():
    import isharp
    src = Path(isharp.__file__).parent
    # every module is in LAYERS, and each command of the table has its module
    assert {p.stem for p in src.glob("*.py")} - {"__init__"} == set(LAYERS)
    # the two function-local imports: bench/layers.py times
    # Dataset.cross_check_census, which runs the census routes of verify,
    # and dim compiles the census routes only for census(i); cli imports
    # the command modules and cli_text by name (cli._module)
    allowed_local = {("datasets", "Dataset.cross_check_census"), ("cmd_dim", "run")}
    for i, name in enumerate(LAYERS):
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        for function, targets in _imports(tree):
            if (name, function) in allowed_local:
                continue
            assert function is None, f"{name}.{function} imports {targets}"
            assert targets <= set(LAYERS[:i]), f"{name} imports {targets}"
    # the command modules and cli_text import nothing of each other
    for name in LAYERS[LAYERS.index("verify") + 1:-1]:
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        for _, targets in _imports(tree):
            assert targets <= set(LAYERS[:LAYERS.index("verify") + 1]), f"{name} imports {targets}"


@pytest.mark.parametrize("argv", [
    pytest.param(["dim", "surg(4_1; 1/2)"], id="surg(4_1; 1/2)"),
    pytest.param(["dim", "census(7)"], id="census(7)"),
    pytest.param(["cf", "1/3"], id="cf 1/3"),
])
def test_python_m_compiles_each_module_once(argv):
    # under `python -m isharp.cli` the CLI runs as __main__, so an import
    # of isharp.cli by any module would compile it a second time
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "isharp.cli", *argv],
                          capture_output=True, text=True, check=True)
    names = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:") and "|" in line]
    isharp_names = [n for n in names if n.split(".")[0] == "isharp"]
    assert f"isharp.cmd_{argv[0]}" in isharp_names
    assert "isharp.cli" not in isharp_names and "isharp.cli_text" not in isharp_names
    assert "__future__" not in names
    assert len(isharp_names) == len(set(isharp_names)), isharp_names


# --- the process entry: cli.run() -------------------------------------------

def _entry_env():
    # without PYTHONUNBUFFERED, stdout into a pipe is block-buffered, so the
    # answer is still in the buffer when run() flushes and exits
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["COLUMNS"] = "80"  # argparse wraps -h and usage text to this width
    return env


def _entry(*args, **kw):
    return subprocess.run([sys.executable, *args], env=_entry_env(), timeout=300, **kw)


@pytest.mark.parametrize("args, expected", [
    (("cf", "1/3"), 0),
    (("invariants", "99_42"), 1),
    (("nonsense-command",), 2),
    (("--data", "{missing}", "dim", "lens(9,2)"), 3),
    (("-h",), 0),
    (("export", "T9"), 2),
    (("census", "all"), 0),
    (("--pretty", "verify", "T5"), 0),
    (("export", "T4"), 0),
])
def test_process_entry_matches_main(args, expected, tmp_path, capsys, monkeypatch):
    from isharp import cli
    args = [a.format(missing=tmp_path / "missing.jsonl") for a in args]
    proc = _entry("-m", "isharp.cli", *args, capture_output=True)
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(args)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    assert proc.returncode == code == expected
    assert (proc.stdout, proc.stderr) == (out.encode(), err.encode())


@pytest.mark.parametrize("args", [("export", "T1"), ("census", "all"), ("cf", "1/3")])
def test_closed_stdout_ends_without_traceback(args):
    r, w = os.pipe()
    os.close(r)  # the reader is gone before the child writes
    try:
        proc = _entry("-m", "isharp.cli", *args, stdout=w, stderr=subprocess.PIPE)
    finally:
        os.close(w)
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert err.startswith("error:") and "broken pipe" in err


@pytest.mark.parametrize("args", [("export", "T1"), ("cf", "1/3")])
def test_no_stdout_at_all_is_not_an_error(args):
    # fd 1 closed before the interpreter starts: sys.stdout is None
    proc = _entry("-m", "isharp.cli", *args, stderr=subprocess.PIPE,
                  preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_profiler_still_prints_its_stats():
    proc = _entry("-m", "cProfile", "-m", "isharp.cli", "cf", "1/3",
                  capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    first, rest = proc.stdout.split("\n", 1)
    assert json.loads(first)["cf"] == "[1,2,2]"
    assert "function calls" in rest and "Ordered by" in rest


def test_trace_module_still_writes_its_counts(tmp_path):
    proc = _entry("-m", "trace", "--count", "-C", str(tmp_path), "--module",
                  "isharp.cli", "cf", "1/3", capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["cf"] == "[1,2,2]"
    assert "isharp.cli.cover" in os.listdir(tmp_path)


_WATCHED = {
    "unwatched": "",
    "trace function": "sys.settrace(lambda *a: None)",
    "profile function": "sys.setprofile(lambda *a: None)",
    "monitoring tool": "sys.monitoring.use_tool_id(sys.monitoring.PROFILER_ID, 'p')",
}


def _run_with_atexit_handler(argv, watch=""):
    code = ("import atexit, sys\n"
            "from isharp import cli\n"
            "atexit.register(print, 'atexit ran', file=sys.stderr)\n"
            f"sys.argv[1:] = {argv!r}\n"
            f"{watch}\n"
            "cli.run()\n")
    return _entry("-c", code, capture_output=True, text=True)


@pytest.mark.parametrize("watcher", list(_WATCHED))
def test_atexit_handlers_run_only_when_watched(watcher):
    if watcher == "monitoring tool" and not hasattr(sys, "monitoring"):
        pytest.skip("sys.monitoring is new in Python 3.12")
    proc = _run_with_atexit_handler(["cf", "1/3"], _WATCHED[watcher])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["cf"] == "[1,2,2]"
    assert ("atexit ran" in proc.stderr) == (watcher != "unwatched")


@pytest.mark.parametrize("argv, expected", [(["-h"], 0), (["dim"], 2)])
def test_argparse_exits_skip_teardown_too(argv, expected):
    proc = _run_with_atexit_handler(argv)
    assert proc.returncode == expected
    assert proc.stdout.startswith("usage: isharp") or proc.stderr.startswith("usage: isharp")
    assert "atexit ran" not in proc.stderr
