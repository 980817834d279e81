import ast
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isharp import cli, cli_text, datasets
from isharp.dimension import parse_manifold
from isharp.knots import format_knot
from test_knots import knot_exprs

BENCH = Path(__file__).resolve().parent.parent / "bench"
# the bundled record file, one JSON object per line
_DATA_LINES = [line for line in Path(datasets.BUNDLED_PATH).read_text(encoding="utf-8")
               .split("\n") if line.strip()]


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


# sha256 prefixes of the stdout of `verify TARGET` on the bundled data,
# as JSON and under --pretty; T1, T2 and T4 pass 20 of 20 cells alike
_VERIFY_DIGESTS = {
    "T1": ("c4553837a4619d96", "74c9f96fc8bfea6a"),
    "T2": ("c4553837a4619d96", "365b606770a78364"),
    "T3": ("1e11371e835e188a", "b982975c6d41dbb1"),
    "T4": ("c4553837a4619d96", "6a9ecdd99c8c69c9"),
    "T5": ("fe1d44e449ffcd96", "e6c9d09fe8fba684"),
    "T6": ("63f6b0706e0cd202", "ddaee39e77cf15db"),
    "T7": ("dee07cb785fdecc4", "2984c1136088d474"),
    "T8": ("8a17f15e72ca721d", "bc43b391cbd9e1a8"),
    "all": ("6607ba554370ee23", "c53f57657130c617"),
    "identities": ("093c217393f8580d", "0cc7a2d968da5cfd"),
}


@pytest.mark.parametrize("target", _VERIFY_DIGESTS)
def test_verify_reports_keep_their_bytes(target):
    for flags, digest in zip(([], ["--pretty"]), _VERIFY_DIGESTS[target]):
        code, out, err = _call([*flags, "verify", target])
        assert (code, err) == (0, ""), (flags, err)
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, flags


def test_census_and_dcover():
    code, out, _ = run_cli("census", "7")
    assert code == 0
    assert json.loads(out)["candidates"] == [10, 12]
    code, out, _ = run_cli("dim", "dcover(9_49)")
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


@pytest.mark.parametrize("argv, text", [
    (["cf", "1_0/3"], "1_0/3"),
    (["cf", "\u0661/\u0663"], "\u0661/\u0663"),  # Arabic-Indic 1/3
    (["triad", "1_0"], "1_0"),
    (["identities", "3_1", "1_0"], "1_0"),
    (["dim", "surg(4_1; 1_0/3)"], "1_0/3"),
    (["dim", "surg(4_1; \u0661/3)"], "\u0661/3"),
])
def test_slopes_read_integers_as_the_knot_grammar_does(argv, text, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    # the scanner names where the integer lexeme ends in the text it read
    where = {"1_0/3": "trailing input at position 1",
             "\u0661/\u0663": "expected an integer at position 0",
             "1_0": "trailing input at position 1",
             "surg(4_1; 1_0/3)": "expected ')' at position 11",
             "surg(4_1; \u0661/3)": "expected an integer at position 10"}[argv[-1]]
    assert text in argv[-1]
    assert captured.out == "" and captured.err == f"error: {where} in {argv[-1]!r}\n"


@pytest.mark.parametrize("argv, message", [
    (["dim", "lens(\x1c5,2)"], "expected an integer at position 5 in 'lens(\\x1c5,2)'"),
    (["dim", "surg(T(\xa02,3); 1)"],
     "expected an integer at position 7 in 'surg(T(\\xa02,3); 1)'"),
    (["dim", "surg(4_1; 1\xa0/2)"], "expected ')' at position 11 in 'surg(4_1; 1\\xa0/2)'"),
    (["invariants", "T(2,3)\u2003"], "trailing input at position 6 in 'T(2,3)\\u2003'"),
    (["cf", "\xa01/3"], "expected an integer at position 0 in '\\xa01/3'"),
])
def test_only_ascii_blanks_separate_tokens(argv, message, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_blanks_and_the_sign_of_an_infinite_slope_do_not_change_an_answer():
    same = run_cli("dim", "surg(4_1; inf)")
    assert same[0] == 0
    for manifold in ("surg(4_1; -5/0)", "surg(4_1;\t1/0 )", " surg( 4_1 ;inf) "):
        assert run_cli("dim", "--", manifold) == same, manifold
    assert run_cli("dim", "surg(4_1; 1 / 2)") == run_cli("dim", "surg(4_1; 1/2)")


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


@pytest.mark.parametrize("text, message", [
    ("1_0", "trailing input at position 1 in '1_0'"),
    ("\u0661\u0660", "expected an integer at position 0 in '\u0661\u0660'"),  # Arabic-Indic 10
    ("x", "expected an integer at position 0 in 'x'"),
    ("3_", "trailing input at position 1 in '3_'"),
])
def test_cable_reads_p_and_q_as_the_knot_grammar_does(text, message, capsys):
    for argv in (["cable", text, "3", "m(3_1)"], ["cable", "3", text, "m(3_1)"]):
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n", argv


def test_cable_p_and_q_take_a_sign_and_blanks(capsys):
    for argv in (["cable", "+3", "2", "m(3_1)"], ["cable", " 3 ", "2", "m(3_1)"],
                 ["cable", "3", "+2", "m(3_1)"], ["cable", "3", " 2 ", "m(3_1)"]):
        assert cli.main(argv) == 0, argv
        assert json.loads(capsys.readouterr().out)["cable"] == "Cab(3,2;m(3_1))", argv
    assert cli.main(["cable", "--", "-3", "2", "m(3_1)"]) == 0
    assert json.loads(capsys.readouterr().out)["cable"] == "Cab(-3,2;m(3_1))"


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


@pytest.mark.parametrize("manifold, text", [
    ("surg(6_2; -9/1)", "kind: exact\neuler: 9\ndim: 13\ngraded:\n  - 11\n  - 2\n"),
    ("census(7)", "kind: candidates\neuler: 10\ncandidates:\n  - 10\n  - 12\n"),
    ("dcover(10_152)", "kind: interval\neuler: 11\nlo: 11\nhi: None\nparity: 1\n"),
])
def test_pretty_dim_prints_each_kind_in_key_order(manifold, text):
    # --pretty prints the keys of to_json in insertion order
    assert run_cli("--pretty", "dim", manifold, "--graded") == (
        0, f"{text}manifold: {manifold}\n", "")


def test_pretty_marks_each_record_of_a_list():
    # YAML style: "- " opens each record, its other keys indented under it
    code, out, err = run_cli("--pretty", "census", "all")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert sum(line.startswith("- kind:") for line in lines) == 20
    assert lines[:8] == ["- kind: exact", "  euler: 25", "  dim: 25", "  graded:", "    - 25",
                         "    - 0", "  index: 0", "  name: m003(-3,1)"]


def test_pretty_prints_an_empty_list_as_json_does():
    assert run_cli("--pretty", "identities", "5_2", "7") == (0, "[]\n", "")
    assert cli_text.pretty({"failed": [], "passed": 3}) == "failed: []\npassed: 3"


def test_data_override(tmp_path):
    alt = tmp_path / "alt.jsonl"
    shutil.copyfile(datasets.BUNDLED_PATH, alt)
    code, out, _ = run_cli("--data", str(alt), "dim", "surg(3_1; -5/1)")
    assert code == 0 and json.loads(out)["dim"] == 5


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
def test_a_raw_line_separator_in_a_string_ends_no_record_line(char, tmp_path):
    # JSON allows U+2028, U+2029 and U+0085 raw in a string, and a record
    # line ends at "\n" only
    rows = [json.loads(line) for line in _DATA_LINES]
    rows[0]["citation"] += char
    data = tmp_path / "raw.jsonl"
    data.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows),
                    encoding="utf-8")
    assert char in data.read_text(encoding="utf-8")
    for argv in (["invariants", "3_1"], ["verify", "all"]):
        assert _call(["--data", str(data), *argv]) == _call(argv), argv


@pytest.mark.parametrize("flag", [["--data", ""], ["--data="]])
def test_an_empty_data_path_is_read_not_skipped(flag):
    # an empty --data names no file; it is not the default
    expected = (3, "", "integrity error: cannot read : No such file or directory\n")
    assert run_cli(*flag, "invariants", "3_1") == expected
    # --data is the one way to name a record file: the environment names none
    env = {**os.environ, "ISHARP_DATA": ""}
    proc = subprocess.run([sys.executable, "-m", "isharp.cli", "invariants", "3_1"],
                          capture_output=True, text=True, timeout=300, env=env)
    bundled = run_cli("invariants", "3_1")
    assert bundled[0] == 0 and (proc.returncode, proc.stdout, proc.stderr) == bundled


def test_missing_data_file_exits_3(tmp_path):
    code, out, err = run_cli("--data", str(tmp_path / "missing.jsonl"), "dim", "lens(9,2)")
    assert code == 3 and out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("integrity error: cannot read")


def _edited_copy(tmp_path, table, key, edit):
    """The bundled record file with edit applied to the JSON object of
    one row, or of every row when table is None; a row the file lacks is
    appended with an empty payload first.  A row the edit empties is left
    out, and with a KNOT row the ALIAS rows that register its codes go
    too."""
    lines, deleted = [], set()
    rows = list(map(json.loads, _DATA_LINES))
    if table is not None and not any((r["table"], r["key"]) == (table, key) for r in rows):
        rows.append({"schema_version": 1, "table": table, "key": key, "payload": {},
                     "citation": "test"})
    for line in rows:
        row = (line["table"], line["key"])
        if table is None or row == (table, key):
            edit(line)
        if line:
            lines.append(line)
        elif row[0] == "KNOT":
            deleted.add(row[1])
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(line) + "\n" for line in lines
                           if line["table"] != "ALIAS" or line["payload"]["name"] not in deleted),
                   encoding="utf-8")
    return str(bad)


def test_malformed_record_exits_3(tmp_path):
    bad = _edited_copy(tmp_path, "KNOT", "3_1", lambda line: line.update(payload=[1, 2]))
    code, out, err = run_cli("--data", bad, "verify", "T4")
    assert code == 3 and out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("integrity error: line ")


def _set_component_desc(line, desc):
    line["payload"]["components"][1]["desc"] = desc


def _census_12_routes_disagree(line):
    """T2 row 12 and its T6 and T7 copies store 37, and its T6 route reads
    35/4, at which P(-2,3,7) gives 37; its T7 route, the cover of 10_156,
    gives 35."""
    if line["table"] in ("T2", "T6", "T7") and line["key"] == "12":
        line["payload"]["dim"] = 37
    if (line["table"], line["key"]) == ("T6", "12"):
        line["payload"]["slope"] = "35/4"


def _unknot_r0_2(line):
    line["payload"]["instanton"].update(r0=2)


def _6_2_unpresented(line):
    """The ALIAS rows TB(-3,-4) and P(-1,-3,-2), which present 6_2,
    deleted: no rule and no identity reaches 6_2."""
    if line["table"] == "ALIAS" and line["key"] in ("TB(-3,-4)", "P(-1,-3,-2)"):
        line.clear()


def _5_2_unflagged_and_untwisted(line):
    """KNOT 5_2 with no flags, and its one code, the ALIAS row Tw(3),
    deleted: no registered presentation of 5_2 is left."""
    if (line["table"], line["key"]) == ("KNOT", "5_2"):
        line["payload"].update(flags={})
    if line["table"] == "ALIAS" and line["key"] == "Tw(3)":
        line.clear()


def _census_13_h1_negative(line):
    """T2 row 13 and its T6 and T7 copies store h1 -21, which admits
    their dim 21 by its absolute value."""
    if line["table"] in ("T2", "T6", "T7") and line["key"] == "13":
        line["payload"]["h1"] = -21


def _9_47_alternating_and_quasipositive(line):
    """R6 reads tau = 1 from signature -2, R5 tau = 3 from slice genus 3."""
    line["payload"].update(signature=-2, slice_genus=3)
    line["payload"]["flags"].update(alternating=True, quasipositive=True)


def _census_12_routes_met_in_turn(line):
    """T2 row 12 stores [35,37] and its T6 route reads 35/4, at which
    P(-2,3,7) gives 37; its T7 route, the cover of 10_156, gives 35."""
    if (line["table"], line["key"]) == ("T2", "12"):
        line["payload"]["dim"] = [35, 37]
    if (line["table"], line["key"]) == ("T6", "12"):
        line["payload"]["slope"] = "35/4"


@pytest.mark.parametrize("table, key, edit, argv, message", [
    ("T4", "3_1", lambda line: line["payload"].update(n="x"), ("verify", "all"),
     "T4 row 3_1: n 'x' is not of type int"),
    ("T2", "0", lambda line: line["payload"].update(dim="x"), ("dim", "census(0)"),
     "T2 row 0: dim 'x' is not of type int or list"),
    ("KNOT", "6_1", lambda line: line["payload"]["instanton"].update(shape=5),
     ("verify", "all"), "knot record 6_1: instanton: shape 5 is not of type str or null"),
    ("ALIAS", "TB(2,2)", lambda line: line.update(key="5"), ("invariants", "3_1"),
     "alias '5': expected a knot expression at position 0 in '5'"),
    ("ALIAS", "T(-2,3)", lambda line: line["payload"].update(mirrored=False),
     ("invariants", "3_1"), "ALIAS row T(-2,3): unknown field 'mirrored'"),
    ("ALIAS", "TB(2,2)", lambda line: line.update(key="X(1)"),
     ("invariants", "3_1"), "alias 'X(1)': expected a knot expression at position 0 in 'X(1)'"),
    ("ALIAS", "TB(2,2)", lambda line: line.update(key="Tw(0)"),
     ("dim", "surg(T(2,5); 1)"), "alias 'Tw(0)': twist knot needs n >= 1, got 0"),
    ("ALIAS", "TB(2,2)", lambda line: line.update(key="Cab(3,2;5_1)"),
     ("identities", "6_2", "1"),
     "alias 'Cab(3,2;5_1)' is not a torus, twist, pretzel or two-bridge knot"),
    ("ALIAS", "T(-2,3)", lambda line: line.update(key="T(1,3)"), ("invariants", "5_2"),
     "alias 'T(1,3)' is not a torus, twist, pretzel or two-bridge knot"),
    # a flag that is not a bool would read as true (7_7 is not amphichiral)
    ("KNOT", "7_7", lambda line: line["payload"]["flags"].update(amphichiral="no"),
     ("invariants", "7_7"), "knot record 7_7: flags: amphichiral 'no' is not of type bool or null"),
    # a cover route is a surgery description
    ("T5", "10_124", lambda line: line["payload"].update(sigma2="census(3)"),
     ("dim", "dcover(10_124)"),
     "T5 row 10_124: sigma2 census(3) is not a surgery description"),
    # a T8 route may cite only an earlier census manifold, or census_dim
    # would call itself for ever
    *[("T8", "2", lambda line: _set_component_desc(line, "census(2)"), argv,
       "T8 row 2: component census(2) does not come before census(2)")
      for argv in (("dim", "census(2)"), ("census", "2"), ("verify", "T8"), ("export", "T8"))],
    # a census table row is keyed by its census index, written canonically
    *[("T2", "3", lambda line, key=key: line.update(key=key), argv,
       f"T2 row {key}: key is not a census index 0..19")
      for key in ("x", "1_0", "03", "20") for argv in (("verify", "T2"), ("export", "T2"))],
    # T2 holds a row for every census index
    *[("T2", "3", dict.clear, argv, "T2 has no row for census index 3")
      for argv in (("verify", "T2"), ("verify", "all"), ("export", "T2"), ("census", "all"),
                   ("census", "3"), ("dim", "census(3)"))],
    # a census route that disagrees with the stored dimension fails the
    # cross-check that export runs
    (None, None, _census_12_routes_disagree, ("export", "T2"),
     "census 12 via dcover(10_156): expected 37, computed 35"),
    # a knot table row is keyed by the name of a KNOT row
    *[(table, key, lambda line, name=name: line.update(key=name), argv,
       f"{table} row {name}: no knot record {name}")
      for table, key, name in (("T4", "6_2", "9_99"), ("T5", "10_124", "X_1"))
      for argv in (("verify", table), ("export", table))],
    ("KNOT", "8_8", dict.clear, ("verify", "T1"), "T1 row 8_8: no knot record 8_8"),
    # the chain through P(5,5,-3) reads the polynomial of 8_8
    *[("KNOT", "8_8", lambda line: line["payload"].update(alexander=None), argv,
       "T1 route: 8_8 has no genus <= 2 alexander polynomial: None")
      for argv in (("verify", "T1"), ("verify", "all"))],
    # a record of genus 0 is the unknot, whose r0 is 0
    ("KNOT", "0_1", _unknot_r0_2, ("verify", "all"),
     "knot record 0_1: genus 0, so r0 is 0, not 2"),
    # the T1 routes need an exact nu and an exact partner dimension
    ("KNOT", "6_3", lambda line: line["payload"].update(flags={}), ("verify", "T1"),
     "T1 route: nu of 6_3 is not exact: [-1,1]"),
    # a record's determinant is that of each presentation (the pretzel
    # P(-1,-3,-2), which the ALIAS table lists first, and TB(-3,-4) of
    # 6_2): verify T1 deduces the record before it takes any route
    ("KNOT", "6_2", lambda line: line["payload"].update(determinant=13), ("verify", "T1"),
     "knot record 6_2: determinant 13 contradicts the determinant 11 of P(-1,-3,-2)"),
    # a record that contradicts the family data of its aliases names the
    # record, and the field it contradicts
    *[("KNOT", "3_1", lambda line: line["payload"].update(genus=10 ** 30 + 7), argv,
       "knot record 3_1: genus 1000000000000000000000000000007 contradicts the genus 1 "
       "of T(-2,3)")
      for argv in (("invariants", "3_1"), ("verify", "T1"), ("dim", "surg(3_1; 1/2)"))],
    # an alias that calls the record the positive trefoil makes the rules
    # contradict its stored tau, or, re-derived, one another
    *[("ALIAS", "T(-2,3)", lambda line: line.update(key="T(2,3)"), argv,
       f"knot record 3_1 or its aliases: 3_1: rule {rules}: disjoint: {ends}")
      for argv, rules, ends in (
          (("invariants", "3_1"), "R5 gives tau = 1, contradicting R1 (-1)", "-1 vs 1"),
          (("verify", "T1"), "R6 gives tau = -1, contradicting R5 (1)", "1 vs -1"),
          (("dim", "surg(3_1; 1/2)"), "R5 gives tau = 1, contradicting R1 (-1)", "-1 vs 1"))],
    # a census route, a cover description and an alias name a KNOT row
    # too (KNOT 9_47 renamed to 9_99)
    *[("KNOT", "9_47", lambda line: line.update(key="9_99"), argv,
       "T7 row 15: no knot record 9_47")
      for argv in (("verify", "all"), ("verify", "T2"), ("census", "all"))],
    ("T6", "12", lambda line: line["payload"].update(knot="m(9_99)"), ("census", "12"),
     "T6 row 12: no knot record 9_99"),
    ("T8", "2", lambda line: _set_component_desc(line, "dcover(Cab(3,2;8_21 # 9_99))"),
     ("dim", "census(2)"), "T8 row 2: no knot record 9_99"),
    ("T5", "10_124", lambda line: line["payload"].update(sigma2="surg(9_99; -1/1)"),
     ("dim", "dcover(10_124)"), "T5 row 10_124: sigma2: no knot record 9_99"),
    *[("ALIAS", "T(-2,3)", lambda line: line["payload"].update(name="9_99"), argv,
       "ALIAS row T(-2,3): no knot record 9_99")
      for argv in (("invariants", "3_1"), ("verify", "all"))],
    # the identity sweep reads the genus of its cable companions
    ("KNOT", "K12n242", dict.clear, ("verify", "identities"),
     "identity sweep: genus of P(-2,3,7) is not exact: [0,+inf]"),
    # a stored list of dimensions holds two or more distinct ones
    *[("T2", "7", lambda line, dims=dims: line["payload"].update(dim=dims), argv,
       f"T2 row 7: dim {dims} is not a list of two or more distinct ints")
      for dims in ([12, 12], [12]) for argv in (("verify", "all"), ("dim", "census(7)"))],
    # every stored dimension is one that its row's |H1| admits
    *[(table, key, lambda line, field=field, value=value: line["payload"].update({field: value}),
       ("verify", "all"), f"{table} row {key}: dim {dim} incompatible with {field} {value}")
      for table, key, field, value, dim in (
          ("T2", "7", "h1", 10 ** 30 + 7, 10), ("T6", "12", "h1", 36, 35),
          ("T7", "15", "h1", 29, 27), ("T8", "2", "h1", 19, 18), ("T5", "10_139", "det", 7, 5))],
    ("T8", "2", lambda line: line["payload"]["components"][1].update(h1=17),
     ("dim", "census(2)"), "T8 row 2: component dcover(8_21): dim 15 incompatible with h1 17"),
    # T4 repeats T1's (nu, r0)
    *[("T4", "3_1", lambda line: line["payload"].update(nu=1), argv,
       "T4 row 3_1: (nu, r0) = (1, 1) differs from T1's (-1, 1)")
      for argv in (("verify", "all"), ("export", "T4"))],
    ("T1", "3_1", dict.clear, ("export", "T4"), "T4 row 3_1: no T1 row 3_1"),
    # T3 is the home of nu and tau, and T1 of r0: a KNOT row that repeats
    # one is refused, and the copies that stay must equal their home row
    *[("KNOT", "7_7", lambda line: line["payload"].update(instanton={"nu": 0}), argv,
       "knot record 7_7: instanton nu repeats its T3 row")
      for argv in (("invariants", "7_7"), ("dim", "surg(7_7; 3/2)"), ("verify", "all"))],
    ("T1", "3_1", lambda line: line["payload"].update(nu=1), ("verify", "all"),
     "T1 row 3_1: nu = 1 differs from T3's -1"),
    # R1 reads T3, so a tau that R6 contradicts names the record
    ("T3", "3_1", lambda line: line["payload"].update(tau=0), ("invariants", "3_1"),
     "knot record 3_1 or its aliases: 3_1: rule R6 gives tau = -1, contradicting R1 (0): "
     "parity clash: 0 vs -1"),
    *[("T6", "12", lambda line: line["payload"].update(dim=37), argv,
       "T6 row 12: dim = 37 differs from T2's 35")
      for argv in (("census", "12"), ("verify", "all"), ("dim", "surg(3_1; 1)"))],
    ("T7", "0", lambda line: line["payload"].update(h1=23), ("census", "0"),
     "T7 row 0: h1 = 23 differs from T2's 25"),
    # slice genus 0 is the one statement that a knot is slice
    ("KNOT", "6_1", lambda line: line["payload"]["flags"].update(slice=True),
     ("invariants", "6_1"), "knot record 6_1: flags: unknown field 'slice'"),
    # a census route that the data do not determine names its row
    *[("KNOT", "K12n242", dict.clear, argv, "T6 row 12: nu of P(-2,3,7) is not determined: ?")
      for argv in (("verify", "all"), ("verify", "T2"), ("census", "all"))],
    # a T8 component's stored dim must be one its route computes
    *[("T8", "2", lambda line: line["payload"]["components"][1].update(dim=17), argv,
       "T8 row 2: component dcover(8_21): stored dim 17, computed 15")
      for argv in (("dim", "census(2)"), ("verify", "all"))],
    ("KNOT", "0_1", _unknot_r0_2, ("dim", "surg(U; 1/2)"),
     "knot record 0_1: genus 0, so r0 is 0, not 2"),
    # a stored flag, like a genus, must agree with the family data of the
    # record's aliases: two-bridge knots are alternating
    *[("KNOT", "3_1", lambda line: line["payload"]["flags"].update(alternating=False), argv,
       "knot record 3_1: alternating False contradicts the alternating True of Tw(1)")
      for argv in (("verify", "all"), ("invariants", "3_1"), ("dim", "surg(3_1; 1/2)"))],
    # T5 repeats the determinant of its knot's KNOT row
    *[("T5", "10_145", lambda line: line["payload"].update(det=1), argv,
       "T5 row 10_145: det = 1 differs from KNOT's determinant 3")
      for argv in (("verify", "T5"), ("export", "T5"), ("dim", "dcover(10_145)"))],
    # a payload field that its schema does not name is refused, not skipped
    ("T1", "3_1", lambda line: line["payload"].update(tau=5), ("verify", "all"),
     "T1 row 3_1: unknown field 'tau'"),
    ("KNOT", "5_2", lambda line: line["payload"].update(signatur=4), ("invariants", "5_2"),
     "knot record 5_2: unknown field 'signatur'"),
    ("KNOT", "8_8", lambda line: line["payload"].update(khbar_dim=25), ("dim", "dcover(8_8)"),
     "knot record 8_8: unknown field 'khbar_dim'"),
    ("KNOT", "7_7", lambda line: line["payload"].update(instanton={"nu0": 0}),
     ("invariants", "7_7"), "knot record 7_7: instanton: unknown field 'nu0'"),
    ("ALIAS", "TB(2,2)", lambda line: line["payload"].update(mirror=True), ("invariants", "3_1"),
     "ALIAS row TB(2,2): unknown field 'mirror'"),
    ("T8", "2", lambda line: line["payload"]["components"][0].update(dims=3),
     ("dim", "census(2)"), "T8 row 2: unknown field 'dims'"),
    # a T8 component's stored h1 must be the |H1| its route computes
    *[("T8", "2", lambda line: line["payload"]["components"][1].update(h1=13), argv,
       "T8 row 2: component dcover(8_21): stored h1 13, computed 15")
      for argv in (("verify", "all"), ("dim", "census(2)"), ("export", "T8"))],
    # a value that is not a value encoding names its record and field
    ("KNOT", "5_2", lambda line: line["payload"].update(genus="x"), ("invariants", "5_2"),
     "knot record 5_2: genus: bad value encoding 'x'"),
    ("KNOT", "7_7", lambda line: line["payload"].update(instanton={"r0": "x"}),
     ("invariants", "7_7"), "knot record 7_7: instanton: r0: bad value encoding 'x'"),
    # so does a value encoding with a field other than lo, hi and parity
    ("KNOT", "10_139", lambda line: line["payload"]["instanton"].update(
        r0={"high": 9, "lo": 7, "parity": 1}), ("invariants", "10_139"),
     "knot record 10_139: instanton: r0: bad value encoding {'high': 9, 'lo': 7, 'parity': 1}"),
    # the verify targets of cases above that another command reaches first
    ("KNOT", "3_1", lambda line: line["payload"]["flags"].update(alternating=False),
     ("verify", "T1"),
     "knot record 3_1: alternating False contradicts the alternating True of Tw(1)"),
    ("T8", "2", lambda line: line["payload"]["components"][1].update(h1=13), ("verify", "T8"),
     "T8 row 2: component dcover(8_21): stored h1 13, computed 15"),
    ("KNOT", "5_2", lambda line: line["payload"].update(genus="x"), ("verify", "T1"),
     "knot record 5_2: genus: bad value encoding 'x'"),
    # an |H1| (T5: det) is at least 1, so no stored order passes by its
    # absolute value
    *[(None, None, _census_13_h1_negative, argv, "T2 row 13: h1 -21 is not positive")
      for argv in (("verify", "all"), ("dim", "census(13)"))],
    ("T8", "2", lambda line: line["payload"]["components"][1].update(h1=-15),
     ("dim", "census(2)"), "T8 row 2: component dcover(8_21): h1 -15 is not positive"),
    ("T5", "10_145", lambda line: line["payload"].update(det=0), ("verify", "T5"),
     "T5 row 10_145: det 0 is not positive"),
    # Tw(1) is the code TB(2,2), so a second row for it is refused, even
    # one that names the same knot
    *[("ALIAS", "Tw(1)", lambda line: line["payload"].update(name="3_1"), argv,
       "ALIAS rows TB(2,2) and Tw(1) register one code")
      for argv in (("invariants", "Tw(1)"), ("verify", "all"))],
    # a cover route that is a lens space would answer with its own order
    ("T5", "10_161", lambda line: line["payload"].update(sigma2="lens(5,1)"),
     ("dim", "dcover(10_161)"), "T5 row 10_161: sigma2 lens(5,1) is not a surgery description"),
    # verify all deduces every record, also one (9_47) that only a cover
    # route reads, which deduces nothing
    ("KNOT", "9_47", _9_47_alternating_and_quasipositive, ("verify", "all"),
     "knot record 9_47 or its aliases: 9_47: rule R6 gives tau = 1, contradicting R5 (3): "
     "disjoint: 3 vs 1"),
    # TB(-2,-4) is the mirror code of Tw(3), which the row Tw(3) resolves
    # already, so a row for it is refused, even one that names 5_2
    *[("ALIAS", "TB(-2,-4)", lambda line: line["payload"].update(name="5_2"), argv,
       "ALIAS rows Tw(3) and TB(-2,-4) register one code")
      for argv in (("invariants", "m(Tw(3))"), ("verify", "all"))],
    # a cover route that the data leave undetermined names its T5 row:
    # 10_154's runs through 10_139, whose r0 is an axiom cell
    *[("KNOT", "10_139", edit, argv, "T5 row 10_154: sigma2 surg(10_139; 13/1): r0 of "
       "10_139 is not determined: [7,+inf] (odd)")
      for edit in (lambda line: line["payload"].update(instanton=None),
                   lambda line: line["payload"]["instanton"].update(r0=None),
                   lambda line: line["payload"]["instanton"]["r0"].update(hi=None))
      for argv in (("verify", "all"), ("verify", "T5"), ("dim", "dcover(10_154)"))],
    # no rule reads a homogeneous flag, so the record file stores none
    ("KNOT", "3_1", lambda line: line["payload"]["flags"].update(homogeneous=True),
     ("invariants", "3_1"), "knot record 3_1: flags: unknown field 'homogeneous'"),
    # a pretzel's determinant is |ab + bc + ca|, a two-bridge knot's its
    # fraction's p; 6_2 is both, and the message names its first ALIAS
    # row.  It is alternating, so thin in odd Khovanov homology: its row
    # says so, and the load refuses a row that says alternating but not thin
    *[("KNOT", "6_2", lambda line: line["payload"].update(determinant=13), argv,
       "knot record 6_2: determinant 13 contradicts the determinant 11 of P(-1,-3,-2)")
      for argv in (("dim", "dcover(6_2)"), ("verify", "all"))],
    *[("KNOT", "7_4", lambda line: line["payload"]["flags"].update(thin_odd_khovanov=False),
       argv, "knot record 7_4: thin_odd_khovanov False contradicts alternating True")
      for argv in (("dim", "dcover(7_4)"), ("verify", "all"))],
    # by Schubert, a two-bridge knot is amphichiral iff q^2 = -1 (mod p)
    *[("KNOT", "4_1", lambda line: line["payload"]["flags"].update(amphichiral=False), argv,
       f"knot record 4_1: amphichiral False contradicts the amphichiral True of {code}")
      for argv, code in ((("verify", "all"), "Tw(2)"), (("invariants", "m(4_1)"), "m(Tw(2))"))],
    *[("KNOT", "6_1", lambda line: line["payload"]["flags"].update(amphichiral=True), argv,
       "knot record 6_1: amphichiral True contradicts the amphichiral False of Tw(4)")
      for argv in (("verify", "all"), ("invariants", "m(6_1)"))],
    # a mirror's stored positivity and quasipositivity meet its family data
    *[("KNOT", "3_1", lambda line: line["payload"]["mirror_flags"].update(positive=False),
       argv, "knot record 3_1: positive False contradicts the positive True of T(2,3)")
      for argv in (("invariants", "m(3_1)"), ("verify", "all"))],
    *[("KNOT", "5_2", lambda line: line["payload"]["mirror_flags"].update(quasipositive=False),
       argv, "knot record 5_2: quasipositive False contradicts the quasipositive True of "
       "m(Tw(3))")
      for argv in (("invariants", "m(5_2)"), ("verify", "all"))],
    # a stored sl_max, or a mirror's, above the bound 2 tau - 1
    ("KNOT", "8_19", lambda line: line["payload"].update(sl_max=7), ("invariants", "8_19"),
     "knot record 8_19: sl_max 7 exceeds 2 tau - 1 = 5"),
    ("KNOT", "3_1", lambda line: line["payload"].update(mirror_sl_max=3),
     ("invariants", "m(3_1)"), "knot record 3_1: mirror_sl_max 3 exceeds 2 tau - 1 = 1"),
    # verify all bounds every record's sl_max, and its mirror's, as well
    ("KNOT", "8_19", lambda line: line["payload"].update(sl_max=7), ("verify", "all"),
     "knot record 8_19: sl_max 7 exceeds 2 tau - 1 = 5"),
    ("KNOT", "3_1", lambda line: line["payload"].update(mirror_sl_max=3), ("verify", "all"),
     "knot record 3_1: mirror_sl_max 3 exceeds 2 tau - 1 = 1"),
    # alternating knots are quasi-alternating, so thin in odd Khovanov
    # homology, also where no family data said so: a torus knot (5_1), a
    # pretzel (8_5) and knots no code presents (7_5, 8_16); the load
    # refuses the flipped flag, whatever the call reads
    *[("KNOT", key, lambda line: line["payload"]["flags"].update(thin_odd_khovanov=False),
       argv, f"knot record {key}: thin_odd_khovanov False contradicts alternating True")
      for key, argv in (("5_1", ("dim", "dcover(5_1)")), ("5_1", ("verify", "all")),
                        ("8_5", ("dim", "dcover(8_5)")), ("7_5", ("invariants", "7_5")),
                        ("8_16", ("dim", "surg(3_1; 1)")), ("8_16", ("cable", "3", "2", "8_16")))],
    # a pretzel P(a,b,c) has determinant |ab + bc + ca|: 9 for P(2,3,-3)
    ("KNOT", "8_20", lambda line: line["payload"].update(determinant=11), ("dim", "dcover(8_20)"),
     "knot record 8_20: determinant 11 contradicts the determinant 9 of P(2,3,-3)"),
])
def test_malformed_table_cell_exits_3(table, key, edit, argv, message, tmp_path):
    code, out, err = run_cli("--data", _edited_copy(tmp_path, table, key, edit), *argv)
    assert (code, out, err) == (3, "", f"integrity error: {message}\n")


@pytest.mark.parametrize("field, value, message", [
    pytest.param("signature", 3, "odd signature 3", id="odd-signature"),
    pytest.param("determinant", 4, "determinant 4 not odd positive", id="even-determinant"),
    pytest.param("slice_genus", 0, "|nu| exceeds max(2 g_s - 1, 0) = 0",
                 id="nu-beyond-the-slice-genus-bound"),
    pytest.param("instanton", {"shape": "W"}, "W-shaped but nu != 0",
                 id="w-shaped-with-nonzero-nu"),
    # the coefficients (1, 1) give |Delta(-1)| = |1 - 2| = 1, not 3
    pytest.param("alexander", [1, 1], "|Delta(-1)| != determinant",
                 id="alexander-polynomial-off-the-determinant"),
])
def test_a_knot_record_outside_its_own_bounds_exits_3(field, value, message, tmp_path):
    # every load bounds each KNOT record against itself and its T1 and T3
    # cells: 3_1 has nu = -1
    data = _edited_copy(tmp_path, "KNOT", "3_1",
                        lambda line: line["payload"].update({field: value}))
    assert _call(["--data", data, "invariants", "3_1"]) == (
        3, "", f"integrity error: knot record 3_1: {message}\n")


@pytest.mark.parametrize("table, key, edit, argvs, message", [
    # 10_124 has determinant 1, and -3-surgery on 3_1 has |H1| = 3
    pytest.param("T5", "10_124", lambda line: line["payload"].update(sigma2="surg(3_1; -3/1)"),
                 [("dim", "dcover(10_124)"), ("verify", "T5")],
                 "registered cover description surg(3_1; -3/1) has euler 3, "
                 "but det(10_124) = 1", id="cover-euler-differs-from-det"),
    # 8_20 is slice, so R3 makes it W-shaped
    pytest.param("KNOT", "8_20", lambda line: line["payload"].update(instanton={"shape": "V"}),
                 [("invariants", "8_20"), ("verify", "all")],
                 "knot record 8_20 or its aliases: 8_20: rule R3 gives shape W, "
                 "contradicting earlier V", id="stored-shape-contradicts-a-rule"),
])
def test_a_record_a_route_or_a_rule_contradicts_exits_3(table, key, edit, argvs, message,
                                                        tmp_path):
    data = _edited_copy(tmp_path, table, key, edit)
    for argv in argvs:
        assert _call(["--data", data, *argv]) == (3, "", f"integrity error: {message}\n"), argv


def test_an_r0_the_data_leave_open_exits_1_at_slope_0(tmp_path):
    # with nu = 0 the 0-surgery dimension is r0 itself
    data = _copy_with_9_99(tmp_path, {"nu": 0, "r0": {"lo": 2, "hi": 4, "parity": 0}})
    assert _call(["--data", data, "dim", "surg(9_99; 0)"]) == (
        1, "", "error: r0 of 9_99 is not pinned at slope 0: [2,4] (even)\n")


def test_identities_the_data_contradict_exit_3_after_the_report(tmp_path):
    # 7_3's r0 raised by 2, in T1 and in its T4 copy, moves every surgery
    # on TB(-3,4) that an identity re-describes
    def raise_7_3_r0(line):
        if line["table"] in ("T1", "T4") and line["key"] == "7_3":
            line["payload"]["r0"] += 2
    data = _edited_copy(tmp_path, None, None, raise_7_3_r0)
    code, out, err = _call(["--data", data, "verify", "identities"])
    report = json.loads(out)
    first = report["failed"][0]
    assert (first["key"], first["cell"], first["got"]) == (
        "surg(TB(-3,4); 7/1)", "surg(m(5_2); 7/2)", "contradiction")
    assert (len(report["failed"]), report["total"]) == (5, 5)
    assert (code, err) == (3, "integrity error: 5 of 5 cells failed\n")


def test_an_alternating_record_with_a_null_thin_flag_reads_thin(tmp_path):
    # no family code presents 8_16, so only the rule that alternating
    # knots are thin keeps its cover's dimension at its determinant
    data = _edited_copy(tmp_path, "KNOT", "8_16",
                        lambda line: line["payload"]["flags"].update(thin_odd_khovanov=None))
    answer = (0, '{"dim":35,"euler":35,"kind":"exact","manifold":"dcover(8_16)"}\n', "")
    assert run_cli("dim", "dcover(8_16)") == answer
    assert run_cli("--data", data, "dim", "dcover(8_16)") == answer


@pytest.mark.parametrize("table, key, edit, argv, failed", [
    # T7 meets what T2 and the T6 route leave, as census_dim does
    *[(None, None, _census_12_routes_disagree, argv, [("T7", "12", "dcover(10_156)")])
      for argv in (("verify", "T7"), ("verify", "all"))],
    # with no presentation of 6_2 left, neither 6_2 nor the chain that
    # starts at it derives r0
    (None, None, _6_2_unpresented, ("verify", "T1"),
     [("T1", k, "nu,r0") for k in ("6_2", "6_3", "8_6", "8_8")]),
    # with no presentation of 5_2 registered, only 5_2 fails: the route
    # from 6_2 reaches TB(2,-3), which its class makes m(Tw(3))
    (None, None, _5_2_unflagged_and_untwisted, ("verify", "T1"), [("T1", "5_2", "nu,r0")]),
])
def test_a_cell_the_data_fail_exits_3_after_the_report(table, key, edit, argv, failed,
                                                       tmp_path):
    code, out, err = _call(["--data", _edited_copy(tmp_path, table, key, edit), *argv])
    report = json.loads(out)
    assert [(c["section"], c["key"], c["cell"]) for c in report["failed"]] == failed
    assert (code, err) == (3, f"integrity error: {len(failed)} of {report['total']} "
                              "cells failed\n")


def test_t1_asks_only_for_the_knots_its_rows_name(tmp_path):
    # with every 8_20 row deleted, and so its ALIAS row P(2,3,-3), T1
    # re-derives its 19 rows without 8_20
    data = _edited_copy(tmp_path, None, None,
                        lambda line: line.clear() if line["key"] == "8_20" else None)
    assert _call(["--data", data, "verify", "T1"]) == (
        0, '{"failed":[],"passed":19,"total":19}\n', "")


def test_rows_keep_the_record_file_order(tmp_path):
    # with the T1 rows and the T2 rows each reversed in the record file,
    # export T1 and the T2 report list them reversed
    rows = list(map(json.loads, _DATA_LINES))
    t1 = [r["key"] for r in rows if r["table"] == "T1"]
    for table in ("T1", "T2"):
        at = [i for i, r in enumerate(rows) if r["table"] == table]
        for i, r in zip(at, [rows[i] for i in reversed(at)]):
            rows[i] = r
    data = tmp_path / "reversed.jsonl"
    data.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    code, out, err = _call(["--data", str(data), "export", "T1"])
    assert (code, err) == (0, "")
    assert [line.split("\t")[0] for line in out.splitlines()[1:]] == t1[::-1]
    code, out, err = _call(["--data", str(data), "--pretty", "verify", "T2"])
    assert (code, err) == (0, "") and out.startswith("[pass] T2 19 routes:")


def test_each_registration_has_one_home(tmp_path):
    # the ALIAS rows are the one alias registry, in the order it resolves,
    # and T5 the one home of a non-thin knot's Khovanov rank and cover route
    ds = datasets.load()
    for name, e in ds.table("KNOT").items():
        assert not {"aliases", "sigma2", "khbar_dim"} & e.payload.keys(), name
    assert not {"aliases", "sigma2", "khbar_dim"} & set(datasets.KnotRecord.__slots__)
    assert not hasattr(ds, "aliases")
    assert list(ds.table("ALIAS")) == [
        "T(-2,3)", "T(-2,5)", "T(-2,7)", "P(-1,-3,-2)", "P(-1,3,2)", "TB(2,2)", "Tw(2)",
        "Tw(3)", "Tw(4)", "P(1,3,-3)", "TB(-3,-4)", "Tw(5)", "TB(-3,4)", "TB(-4,-4)", "Tw(6)",
        "TB(-3,-6)", "TB(-4,4)", "TB(-5,-4)", "P(3,3,2)", "T(3,4)", "P(2,3,-3)", "T(3,5)",
        "P(-2,3,7)"]
    assert all(e.payload.keys() == {"name"} for e in ds.table("ALIAS").values())
    # a KNOT row that still lists its codes is refused, not merged
    data = _edited_copy(tmp_path, "KNOT", "3_1",
                        lambda line: line["payload"].update(aliases=["TB(2,2)", "Tw(1)"]))
    for argv in (("invariants", "3_1"), ("verify", "T1")):
        assert _call(["--data", data, *argv]) == (
            3, "", "integrity error: knot record 3_1: unknown field 'aliases'\n"), argv


def test_census_routes_are_met_in_turn(tmp_path):
    # T2 row 12 stored as [35,37] differs from its T6 copy, so every load
    # refuses it; without the load check, census_dim and check_census
    # meet the routes in turn: T6 leaves 37, which T7's 35 misses, though
    # each route alone meets [35,37]
    from isharp.dimension import census_dim
    from isharp.values import DatasetError, IntegrityError
    from isharp.verify import check_census
    data = _edited_copy(tmp_path, None, None, _census_12_routes_met_in_turn)
    for argv in (("export", "T2"), ("verify", "T7"), ("verify", "all"), ("census", "12")):
        assert _call(["--data", data, *argv]) == (
            3, "", "integrity error: T6 row 12: dim = 35 differs from T2's [35, 37]\n"), argv
    ds = datasets.load(data, check=False)
    with pytest.raises(IntegrityError, match=r"^census 12: route dcover\(10_156\) disagrees"):
        census_dim(12, ds)
    failed = [(c.section, c.key, c.cell) for c in check_census(ds).failed]
    assert failed == [("T7", "12", "dcover(10_156)")]
    with pytest.raises(DatasetError, match=r"^census 12 via dcover\(10_156\): expected 37, "
                                           "computed 35$"):
        ds.cross_check_census()


@pytest.mark.parametrize("table, key, edit, argvs, message", [
    ("T6", "1", lambda line: line["payload"].update(knot="X_1"),
     [("dim", "census(1)"), ("verify", "T6"), ("export", "T6"), ("census", "all")],
     "T6 row 1: expected a knot expression at position 0 in 'X_1'"),
    ("T6", "1", lambda line: line["payload"].update(slope="x"),
     [("census", "1"), ("verify", "all")],
     "T6 row 1: expected an integer at position 0 in 'x'"),
    ("T7", "0", lambda line: line["payload"].update(knot="Cab(3,2;3_1"),
     [("dim", "census(0)"), ("verify", "T7")],
     "T7 row 0: expected ')' at position 11 in 'Cab(3,2;3_1'"),
    ("T8", "2", lambda line: _set_component_desc(line, "dcover(X_1)"),
     [("dim", "census(2)"), ("export", "T8")],
     "T8 row 2: expected a knot expression at position 7 in 'dcover(X_1)'"),
    ("T5", "10_124", lambda line: line["payload"].update(sigma2="surg(X_1; 1)"),
     [("dim", "dcover(10_124)"), ("verify", "T5")],
     "T5 row 10_124: sigma2: expected a knot expression at position 5 in 'surg(X_1; 1)'"),
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


def test_ten_thousand_summands_are_answered():
    # about 90 KB of argv, under Linux's 128 KB per argument
    code, out, err = run_cli("invariants", " # ".join(["T(2,3)"] * 10_000))
    assert (code, err) == (0, "")
    tau = json.loads(run_cli("invariants", "T(2,3)")[1])["tau"]
    assert json.loads(out)["tau"] == 10_000 * tau


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


def _copy_with_9_99(tmp_path, instanton):
    """The bundled record file and a KNOT row 9_99 that stores only the
    instanton payload given."""
    row = {"schema_version": 1, "table": "KNOT", "key": "9_99",
           "payload": {"instanton": instanton}, "citation": "test"}
    data = tmp_path / "extra.jsonl"
    data.write_text("".join(line + "\n" for line in [*_DATA_LINES, json.dumps(row)]),
                    encoding="utf-8")
    return str(data)


def test_r14_tau_bound_is_an_integer(tmp_path):
    # stored nu = r0 = 2 and |2 tau - nu| <= 1 leave only tau = 1
    data = _copy_with_9_99(tmp_path, {"nu": 2, "r0": 2})
    code, out, err = run_cli("--data", data, "invariants", "9_99")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"delta": 0, "knot": "9_99", "nu": 2, "r0": 2, "shape": "V",
                               "sl_max_bound": 1, "tau": 1}


def test_r14_gives_r0_the_parity_of_an_inexact_nu(tmp_path):
    # r0 - nu is always even, so a stored odd nu in [-1, 1] makes r0 odd;
    # 9_99 has no T1 or T3 row, so its KNOT row may store nu
    odd_nu = {"lo": -1, "hi": 1, "parity": 1}
    data = _copy_with_9_99(tmp_path, {"nu": odd_nu})
    code, out, err = run_cli("--data", data, "invariants", "9_99")
    assert (code, err) == (0, "")
    bundle = json.loads(out)
    assert bundle["nu"] == odd_nu
    assert bundle["r0"] == {"lo": 1, "hi": None, "parity": 1}


def test_a_wide_stored_r0_gives_an_interval_at_a_huge_slope(tmp_path):
    # r0 in [7, 201] takes the interval branch; at q = 10^19 the interval
    # holds more than sys.maxsize dimensions, which once overflowed
    wide_r0 = {"lo": 7, "hi": 201, "parity": 1}
    data = _edited_copy(tmp_path, "KNOT", "10_139",
                        lambda line: line["payload"]["instanton"].update(r0=wide_r0))
    q = 10 ** 19
    code, out, err = run_cli("--data", data, "dim", f"surg(10_139; 1/{q})")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"euler": 1, "kind": "interval", "lo": 7 * q + 7 * q - 1,
                               "hi": 201 * q + 7 * q - 1, "parity": 1,
                               "manifold": f"surg(10_139; 1/{q})"}


def test_identities_of_an_unknown_name_exit_1():
    # like dim and invariants, not an empty list
    for argv in (("identities", "99_1", "1"), ("invariants", "99_1"),
                 ("dim", "dcover(99_1)"), ("dim", "surg(99_1; 1)")):
        code, out, err = run_cli(*argv)
        assert (code, out, err) == (1, "", "error: unknown knot name '99_1'\n"), argv


def test_deep_nesting_is_refused_cleanly():
    for text in ("m(" * 1500 + "3_1" + ")" * 1500,
                 "Cab(3,2;" * 300 + "3_1" + ")" * 300):
        code, out, err = run_cli("invariants", text)
        assert code == 1 and out == ""
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert "nesting deeper than" in err


def _census_5_stored_as_7(line):
    """T2 row 5 and its T6 copy store 7; its routes give 5."""
    if line["table"] in ("T2", "T6") and line["key"] == "5":
        line["payload"]["dim"] = 7


def test_tampered_census_row_fails_where_census_rows_are_read(tmp_path):
    data = _edited_copy(tmp_path, None, None, _census_5_stored_as_7)
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


def test_every_definition_is_named_outside_its_own_body():
    # no helper that only its own unit test calls: each module-level
    # function and class of isharp is named by isharp code outside its
    # own body, or is public through isharp._EXPORTS; Python itself calls
    # the module __getattr__ hooks (PEP 562)
    import isharp
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(Path(isharp.__file__).parent.glob("*.py"))]

    def names(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    named = sum(map(names, trees), Counter())
    definitions = [d for tree in trees for d in tree.body
                   if isinstance(d, (ast.FunctionDef, ast.ClassDef))]
    unnamed = [d.name for d in definitions if named[d.name] == names(d)[d.name]
               and d.name not in isharp._EXPORTS and d.name != "__getattr__"]
    assert len(definitions) > 100 and unnamed == []


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
# (main() loads the data), and the function-local import of the census
# cross-check (Dataset.cross_check_census)
_CALLS = [
    (["cf", "1/3"], ()),
    (["triad", "5/2"], ()),
    (["dim", "surg(4_1; 1/2)"], ("datasets",)),
    (["dim", "lens(9,2)"], ("datasets",)),
    (["dim", "dcover(10_124)"], ("datasets",)),
    (["dim", "census(7)"], ("datasets",)),
    (["invariants", "m(5_2)"], ("datasets",)),
    (["sum", "3_1", "m(3_1)"], ("datasets",)),
    (["cable", "3", "2", "m(3_1)"], ("datasets",)),
    (["census", "3"], ("datasets",)),
    (["dim", "--graded", "dcover(10_124)"], ("datasets",)),
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
    # dim on every kind of manifold compiles neither the identity registry
    # (surgery) nor the continued fractions (slopes), and census does as
    # dim "census(i)" does
    for call in ("dim surg(4_1; 1/2)", "dim lens(9,2)", "dim dcover(10_124)",
                 "dim census(7)"):
        assert loaded[call] == {*base, "isharp.cmd_dim", "isharp.datasets", "isharp.knots",
                                "isharp.invariants", "isharp.dimension"}, call
    assert loaded["census 3"] == {*base, "isharp.cmd_census", "isharp.datasets",
                                  "isharp.knots", "isharp.invariants", "isharp.dimension"}
    # the identity registry stands on the knots: identities compiles
    # neither the deduction engine nor the dimension code
    assert loaded["identities m(3_1) 7/4"] == {*base, "isharp.cmd_identities",
                                               "isharp.datasets", "isharp.knots",
                                               "isharp.surgery"}
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


@pytest.mark.parametrize("stem", sorted(
    p.stem for p in Path(cli.__file__).parent.glob("[a-z]*.py")))
def test_each_module_imports_first_without_fractions(stem):
    # no import cycle hides behind the order of imports, and no module
    # needs fractions, nor the decimal module fractions loads
    loaded = _loaded_modules(f"import isharp.{stem}")
    assert f"isharp.{stem}" in loaded
    assert loaded.isdisjoint({"fractions", "decimal"})


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
    st.builds(lambda k: ["dim", "--graded", "--", f"dcover({k})"], _knot_texts),
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


def test_main_maps_domain_errors_and_lets_programming_errors_through(monkeypatch):
    # a ValueError is a domain error, exit 1; no input reaches a KeyError,
    # so one is a programming error and leaves main() as it is
    import isharp.cmd_cf as cmd_cf

    def raising(error):
        def run(args, emit):
            raise error
        return run

    monkeypatch.setattr(cmd_cf, "run", raising(ValueError("bad slope")))
    assert _call(["cf", "1/3"]) == (1, "", "error: bad slope\n")
    monkeypatch.setattr(cmd_cf, "run", raising(KeyError("x")))
    with pytest.raises(KeyError):
        cli.main(["cf", "1/3"])


# --- the data contract: a record file with one cell changed --------------
# Whatever one cell of the record file holds, or with one row deleted, a
# command that reads the file answers (exit 0) or names the data fault
# (exit 3), with at most one stderr line and never a traceback.

def _cells(node, path=()):
    """The path of every cell in a row's payload: each field, and each
    item of a list or object inside one."""
    items = node.items() if type(node) is dict else enumerate(node) if type(node) is list else ()
    for name, value in items:
        yield (*path, name)
        yield from _cells(value, (*path, name))


_DATA_ROWS = [json.loads(line) for line in _DATA_LINES]
_DATA_CELLS = [(i, cell) for i, row in enumerate(_DATA_ROWS)
               for cell in (("key",), *(("payload", *p) for p in _cells(row["payload"])))]
# what the cell becomes: null, a string, a 31-digit integer, a reversed
# interval, a census or a surgery description; ... deletes the cell's row
_CELL_VALUES = [None, "x", 10 ** 30 + 7, {"lo": 5, "hi": 1}, "census(3)", "surg(4_1; 1/2)", ...]
_DATA_COMMANDS = [("dim", "surg(8_19; 3/2)"), ("dim", "census(7)"), ("dim", "dcover(10_124)"),
                  ("invariants", "m(5_2)"), ("cable", "3", "2", "3_1"), ("sum", "3_1", "m(4_1)"),
                  ("census", "all"), ("identities", "6_2", "1"), ("export", "T2"),
                  ("verify", "T2"), ("verify", "T1"), ("verify", "all")]
_T2_ROW_3 = next(i for i, row in enumerate(_DATA_ROWS) if (row["table"], row["key"]) == ("T2", "3"))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_DATA_CELLS), st.sampled_from(_CELL_VALUES))
@example((_T2_ROW_3, ("key",)), ...)
@example((_T2_ROW_3, ("payload", "dim")), {"lo": 5, "hi": 1})
@example((_T2_ROW_3, ("key",)), 10 ** 30 + 7)
def test_a_record_file_with_one_cell_changed_keeps_the_exit_contract(cell, value):
    i, path = cell
    lines = list(_DATA_LINES)
    if value is ...:
        del lines[i]
    else:
        row = json.loads(lines[i])
        node = row
        for name in path[:-1]:
            node = node[name]
        node[path[-1]] = value
        lines[i] = json.dumps(row)
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "tables.jsonl")
        with open(data, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        for argv in _DATA_COMMANDS:
            code, _, err = _call(["--data", data, *argv])
            assert code in (0, 3), (argv, code, err)
            assert "Traceback" not in err and len(err.splitlines()) <= 1, (argv, err)


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
    # the one function-local import: bench/layers.py times
    # Dataset.cross_check_census, which runs the census routes of verify;
    # cli imports the command modules and cli_text by name (cli._module)
    allowed_local = {("datasets", "Dataset.cross_check_census")}
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


def test_no_module_imports_a_name_it_never_uses():
    import isharp
    src = Path(isharp.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    assert name in used, f"{path.stem} imports {name} and never uses it"


def test_only_the_two_timed_builders_skip_init():
    # tuple.__new__ builds a values.Value without its checked __new__, so
    # its caller's arithmetic must prove the checks: only slopes.triad and
    # dimension.surgery_dim, the builders the slope sweep times, name it
    import isharp
    src = Path(isharp.__file__).parent
    callers = set()

    def visit(node, stem, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif (isinstance(node, ast.Attribute) and node.attr == "__new__"
              and getattr(node.value, "id", None) == "tuple"):
            callers.add((stem, function))
        for child in ast.iter_child_nodes(node):
            visit(child, stem, function)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    assert callers == {("slopes", "triad"), ("dimension", "surgery_dim")}


@pytest.mark.parametrize("argv", [
    pytest.param(["dim", "surg(4_1; 1/2)"], id="surg(4_1; 1/2)"),
    pytest.param(["dim", "census(7)"], id="census(7)"),
    pytest.param(["cf", "1/3"], id="cf 1/3"),
    pytest.param(["triad", "5/2"], id="triad 5/2"),
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
