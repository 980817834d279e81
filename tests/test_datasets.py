import json
from importlib import resources

import pytest

from isharp import datasets
from isharp.cmd_export import export_tsv
from isharp.datasets import Dataset, DatasetError, TableEntry, parse_record_line


@pytest.fixture(scope="module")
def ds():
    return datasets.load(check=False)


def test_bundled_dataset_loads_clean():
    ds = datasets.load()  # integrity checks enabled
    ds.cross_check_census()  # run where census rows are read, not on load
    assert len(ds.entries) > 150
    assert ds.knot_record("8_19") is not None


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
    for field in ("flags", "mirror_flags"):
        entry = TableEntry("KNOT", "bogus", {field: {"slcie": True}}, "test")
        with pytest.raises(DatasetError, match="unknown flag 'slcie'"):
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
    e = TableEntry("T1", "3_1", {}, "")
    with pytest.raises(DatasetError, match="duplicate"):
        Dataset([e, e])
    # malformed rows end in DatasetError at load, never in a traceback
    with pytest.raises(DatasetError, match="not a JSON object"):
        parse_record_line("[1, 2]", 1)
    for table, payload in (("KNOT", [1, 2]), ("T4", "x")):
        with pytest.raises(DatasetError, match="payload is not a JSON object"):
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
            ({"flags": {"slice": "no"}}, "flag slice 'no' is not of type bool or null"),
            ({"mirror_flags": {"positive": 1}}, "flag positive 1 is not of type bool or null"),
            ({"instanton": [1]}, "instanton"),
            ({"aliases": 5}, "aliases")):
        with pytest.raises(DatasetError, match=message):
            Dataset([TableEntry("KNOT", "bogus", payload, "test")])
    # null stands for an absent field
    Dataset([TableEntry("KNOT", "bogus", {"flags": None, "instanton": None}, "test")])
    for payload in ({}, {"name": 3}):
        with pytest.raises(DatasetError, match="name"):
            Dataset([TableEntry("ALIAS", "T(2,3)", payload, "test")])


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
    e = ds.lookup("T1", "8_5")
    assert (e.payload["nu"], e.payload["r0"]) == (3, 11)
    e = ds.lookup("T2", 13)
    assert e.payload["name"] == "m007(1,2)"
    assert (e.payload["h1"], e.payload["dim"]) == (21, 21)
    e = ds.lookup("T5", "10_153")
    assert (e.payload["det"], e.payload["khbar_dim"]) == (1, 9)
    assert e.payload["sigma2"] == "surg(P(7,3,-3); 1/1)"
    assert e.payload["dim"] == 5
    with pytest.raises(KeyError):
        ds.lookup("T1", "9_1")


def test_serialization_roundtrip(tmp_path, ds):
    out = tmp_path / "tables.jsonl"
    ds.save(str(out))
    bundled = resources.files("isharp").joinpath("data/tables.jsonl").read_bytes()
    assert out.read_bytes() == bundled
    again = datasets.load(str(out), check=False)
    assert len(again.entries) == len(ds.entries)
    assert [e.to_json_line() for e in again.entries] == \
           [e.to_json_line() for e in ds.entries]


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
    out = tmp_path / "alt.jsonl"
    ds.save(str(out))
    monkeypatch.setenv(datasets.ENV_DATA_PATH, str(out))
    alt = datasets.load(check=False)
    assert len(alt.entries) == len(ds.entries)


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
