"""The growth-curve sweep (tests/scaling.py): one small record, and the
committed BENCH_scaling.json's coverage."""

import json

from scaling import ROOT, SIZES, STAGED_AT, records

FIELDS = {"input", "command", "elements", "phases_ms", "us_per_element", "peak_rss_mb"}
STAGED = [
    "normalize",
    "normalize --format rdfxml",
    "assign",
    "rules on normalize's JSON",
    "rules on normalize's RDF/XML",
]


def test_a_hierarchy_100_record_holds_every_field(tmp_path):
    (record,) = records("hierarchy", 100, tmp_path, runs=1)
    assert set(record) == FIELDS | {"calls"}
    assert (record["input"], record["command"]) == ("hierarchy 100", "rules")
    assert record["elements"] == 6580  # the output model of the seed-1 recipe
    phases = record["phases_ms"]
    assert set(phases) == {"ingest", "normalize", "membership", "rules"}
    assert all(ms > 0 for ms in phases.values()), phases
    assert record["us_per_element"] == round(sum(phases.values()) * 1000 / 6580, 3)
    assert 0 < record["peak_rss_mb"] < 1000
    assert record["calls"]["python"] > 0 and record["calls"]["c"] > 0


def test_the_committed_curve_covers_every_input_and_staged_command():
    document = json.loads((ROOT / "BENCH_scaling.json").read_text(encoding="utf-8"))
    found = [(r["input"], r["command"]) for r in document["records"]]
    expected = []
    for recipe, classes in SIZES:
        name = f"{recipe} {classes}"
        expected.append((name, "rules"))
        if (recipe, classes) in STAGED_AT:
            expected += [(name, command) for command in STAGED]
    assert found == expected
    for record in document["records"]:
        fields = FIELDS | {"calls"} if record["command"] == "rules" else FIELDS
        assert set(record) == fields, record
        assert record["elements"] > 0 and record["peak_rss_mb"] > 0, record
