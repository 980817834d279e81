import json

import pytest

from isharp import datasets
from isharp.cmd_export import export_tsv
from isharp.datasets import Dataset, TableEntry, parse_record_line
from isharp.values import DatasetError, Val


@pytest.fixture(scope="module")
def ds():
    return datasets.load()


def test_bundled_dataset_loads_clean():
    ds = datasets.load()  # integrity checks enabled
    ds.cross_check_census()  # run where census rows are read, not on load
    assert len(ds.entries) > 150
    assert ds.knot_record("8_19") is not None


def test_the_record_file_keeps_its_format():
    # the file is edited by hand: each line is the canonical dump of its
    # object, and the file ends in exactly one newline
    with open(datasets.BUNDLED_PATH, encoding="utf-8", newline="") as fh:
        text = fh.read()
    assert text.endswith("\n") and not text.endswith("\n\n")
    for line in text[:-1].split("\n"):
        assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"),
                                  ensure_ascii=False), line


def _record(name, instanton):
    return TableEntry("KNOT", name, {"instanton": instanton}, "test")


def test_integrity_rejects_r0_below_nu():
    ds = Dataset([_record("bogus", {"nu": 2, "r0": 1})])
    with pytest.raises(DatasetError, match="r0"):
        ds.check_integrity()


def test_integrity_rejects_parity_violation():
    ds = Dataset([_record("bogus", {"nu": 1, "r0": 2})])
    with pytest.raises(DatasetError, match="parity"):
        ds.check_integrity()


def test_integrity_rejects_tau_bound_violation():
    ds = Dataset([_record("bogus", {"nu": 0, "tau": 2})])
    with pytest.raises(DatasetError, match="2 tau"):
        ds.check_integrity()


def test_loader_rejects_unknown_flag_names():
    # mirror_flags names only the flags a mirror does not share
    for field, name in (("flags", "slcie"), ("mirror_flags", "slcie"),
                        ("mirror_flags", "instanton_lspace")):
        entry = TableEntry("KNOT", "bogus", {field: {name: True}}, "test")
        with pytest.raises(DatasetError, match=f"knot record bogus: {field}: "
                                               f"unknown field '{name}'"):
            Dataset([entry])


def test_loader_rejects_bad_schema_and_duplicates():
    with pytest.raises(DatasetError, match="schema_version"):
        parse_record_line(json.dumps({"schema_version": 99, "table": "T1",
                                      "key": "x", "payload": {}, "citation": ""}), 1)
    with pytest.raises(DatasetError, match="unknown table"):
        parse_record_line(json.dumps({"schema_version": 1, "table": "T9",
                                      "key": "x", "payload": {}, "citation": ""}), 1)
    with pytest.raises(DatasetError, match="invalid JSON"):
        parse_record_line("{nope", 3)
    # the line itself is checked against its schema, as payloads are
    line = {"schema_version": 1, "table": "T1", "key": "3_1", "payload": {}, "citation": ""}
    for edit, message in (({"extra": 1}, "line 4: unknown field 'extra'"),
                          ({"key": ["3_1"]}, r"line 4: key \['3_1'\] is not of type str"),
                          ({"key": 5}, "line 4: key 5 is not of type str"),
                          ({"citation": 7}, "line 4: citation 7 is not of type str"),
                          ({"schema_version": True},
                           "line 4: schema_version True is not of type int")):
        with pytest.raises(DatasetError, match=message):
            parse_record_line(json.dumps({**line, **edit}), 4)
    # a field left out counts as null, as in a payload
    with pytest.raises(DatasetError, match="line 4: citation None is not of type str"):
        parse_record_line(json.dumps({k: v for k, v in line.items() if k != "citation"}), 4)
    e = TableEntry("T1", "3_1", {}, "")
    with pytest.raises(DatasetError, match="duplicate"):
        Dataset([e, e])
    # malformed rows end in DatasetError at load, never in a traceback
    with pytest.raises(DatasetError, match="not a JSON object"):
        parse_record_line("[1, 2]", 1)
    for table, payload in (("KNOT", [1, 2]), ("T4", "x")):
        with pytest.raises(DatasetError, match="line 1: payload .* is not of type dict"):
            parse_record_line(json.dumps({"schema_version": 1, "table": table, "key": "x",
                                          "payload": payload, "citation": ""}), 1)
    for payload, message in (
            ({"genus": {"lo": [1, 0]}}, "bad value encoding"),
            ({"genus": [1, 0]}, "bad value encoding"),
            ({"genus": [1, "2"]}, "bad value encoding"),
            ({"genus": 1.5}, "bad value encoding"),
            # every stored value is an integer invariant: no [num, den] cell
            ({"genus": [3, 2]}, "bad value encoding"),
            ({"instanton": {"tau": {"lo": [1, 2]}}}, "bad value encoding"),
            ({"instanton": {"r0": {"lo": 7, "high": 9}}},
             r"instanton: r0: bad value encoding \{'lo': 7, 'high': 9\}"),
            ({"slice_genus": {"lo": 3, "hi": 1}}, "empty interval"),
            ({"instanton": {"r0": {"lo": 1, "parity": "x"}}}, "parity"),
            ({"instanton": {"r0": {"lo": 1, "parity": True}}}, "parity must be 0 or 1"),
            ({"instanton": {"r0": {"lo": 1, "parity": 1.0}}}, "parity must be 0 or 1"),
            ({"alexander": []}, "alexander"),
            ({"alexander": [1, "x"]}, "alexander"),
            ({"alexander": 3}, "alexander"),
            ({"signature": "x"}, "signature"),
            ({"determinant": 1.0}, "determinant"),
            ({"flags": ["slice"]}, "flags"),
            ({"flags": {"amphichiral": "no"}},
             "flags: amphichiral 'no' is not of type bool or null"),
            ({"mirror_flags": {"positive": 1}},
             "mirror_flags: positive 1 is not of type bool or null"),
            ({"instanton": [1]}, "instanton"),
            ({"aliases": 5}, "aliases")):
        with pytest.raises(DatasetError, match=message):
            Dataset([TableEntry("KNOT", "bogus", payload, "test")])
    # null stands for an absent field
    Dataset([TableEntry("KNOT", "bogus", {"flags": None, "instanton": None}, "test")])
    for payload in ({}, {"name": 3}):
        with pytest.raises(DatasetError, match="name"):
            Dataset([TableEntry("ALIAS", "T(2,3)", payload, "test")])


def test_a_left_out_nullable_cell_reads_as_null(ds):
    # T3's nu may be null, and a field left out counts as null: 7_7's T3
    # row without nu builds the record that its stored null builds
    entries = [e.replace(payload={"tau": e.payload["tau"]}) if (e.table, e.key) == ("T3", "7_7")
               else e for e in ds.entries]
    stripped = Dataset(entries)
    stripped.check_integrity()
    assert stripped.knot_record("7_7") == ds.knot_record("7_7")


def test_each_record_reads_its_invariants_from_t1_and_t3(ds):
    # nu and tau live in T3 and r0 in T1; only a knot without the row keeps
    # a payload value (0_1's r0, 10_139's r0 interval), and no KNOT row
    # repeats a table cell or states slice as a flag
    t1, t3 = ds.table("T1"), ds.table("T3")

    def cell(row, field):
        value = None if row is None else row.payload[field]
        return Val() if value is None else Val.exact(value)

    payload_r0 = {"0_1": Val.exact(0), "10_139": Val(7, 9, 1)}
    for name in ds.knot_names():
        rec = ds.knot_record(name)
        r0 = cell(t1[name], "r0") if name in t1 else payload_r0.get(name, Val())
        assert (rec.nu, rec.tau, rec.r0) == (cell(t3.get(name), "nu"),
                                             cell(t3.get(name), "tau"), r0), name
    for name, e in ds.table("KNOT").items():
        stored = e.payload.get("instanton") or {}
        assert not {"nu", "tau"} & stored.keys() or name not in t3, name
        assert "r0" not in stored or name not in t1, name
        assert "slice" not in e.payload.get("flags", {}), name


def test_loader_type_checks_every_table_cell(ds):
    """Each T1-T8 field of the wrong JSON type, or missing where it is
    not nullable, is a DatasetError at load; so is a bad instanton field."""
    nullable = {("T3", "nu"), ("T5", "sigma2"), ("T5", "dim")}
    for table in ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8"):
        entry = next(iter(ds.table(table).values()))
        for field, value in entry.payload.items():
            bad = [1.5, [], ["x"], {}] + (["x"] if type(value) is not str else [5])
            if (table, field) not in nullable:
                bad.append(None)
            for wrong in bad:
                payload = {**entry.payload, field: wrong}
                with pytest.raises(DatasetError, match=f"{table} row {entry.key}: {field} "):
                    Dataset([TableEntry(table, entry.key, payload, "test")])
            Dataset([TableEntry(table, entry.key, dict(entry.payload), "test")])
    t8 = next(iter(ds.table("T8").values()))
    first, second = t8.payload["components"]
    for components in ([first], [first, second, second], [first, 3],
                       [first, {**second, "desc": 7}], [first, {**second, "h1": "x"}]):
        with pytest.raises(DatasetError, match="components|desc|h1"):
            Dataset([TableEntry("T8", t8.key, {**t8.payload, "components": components}, "")])
    for instanton, message in (({"shape": 5}, "shape 5"), ({"shape": "X"}, "not V or W"),
                               ({"mu0_dim": "4"}, "mu0_dim '4'")):
        with pytest.raises(DatasetError, match=message):
            Dataset([_record("bogus", instanton)])
    Dataset([_record("bogus", {"shape": "W", "mu0_dim": 4})])


def test_lookup_examples(ds):
    e = ds.table("T1")["8_5"]
    assert (e.payload["nu"], e.payload["r0"]) == (3, 11)
    e = ds.table("T2")["13"]
    assert e.payload["name"] == "m007(1,2)"
    assert (e.payload["h1"], e.payload["dim"]) == (21, 21)
    e = ds.table("T5")["10_153"]
    assert (e.payload["det"], e.payload["khbar_dim"]) == (1, 9)
    assert e.payload["sigma2"] == "surg(P(7,3,-3); 1/1)"
    assert e.payload["dim"] == 5
    with pytest.raises(KeyError):
        ds.table("T1")["9_1"]


def test_export_tsv(ds):
    tsv = export_tsv(ds, "T1")
    lines = tsv.strip().split("\n")
    assert lines[0] == "key\tnu\tr0"
    assert "3_1\t-1\t1" in lines[1]
    assert len(lines) == 21  # header + 20 knots
    t2 = export_tsv(ds, "T2")
    assert '7\t"m003(-3,4)"\t10\t[10,12]' in t2
    with pytest.raises(DatasetError):
        export_tsv(ds, "KNOT")


def test_env_var_override(tmp_path, monkeypatch, ds):
    # --data is the one way to name a record file: ISHARP_DATA, naming a
    # missing file, leaves load() on the bundled file
    monkeypatch.setenv("ISHARP_DATA", str(tmp_path / "missing.jsonl"))
    alt = datasets.load()
    assert alt.entries == ds.entries


def test_citations_are_informative(ds):
    for e in ds.entries:
        assert e.citation.strip(), f"{e.table}/{e.key} lacks a provenance note"


def test_census_cross_check_catches_tampering(ds):
    import copy

    entries = [TableEntry(e.table, e.key, copy.deepcopy(e.payload), e.citation)
               for e in ds.entries]
    tampered = Dataset(entries)
    tampered.table("T2")["5"].payload["dim"] = 7  # the routes compute 5
    with pytest.raises(DatasetError, match="census 5"):
        tampered.cross_check_census()
