import gc
import json
import os
import subprocess
import sys

import pytest

from conftest import fixture_path
from fuzzonto import load_json, parse_document
from fuzzonto.cli import run_pipeline
from fuzzonto.emit import dump_json


def run(capsys, *args):
    code = run_pipeline(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rules_text_output(capsys):
    code, out, _ = run(
        capsys, "rules", str(fixture_path("paris_france.owl")), "--format", "text"
    )
    assert code == 0
    assert out == "IF part_of France (mu=1.000000) THEN Paris\n"


def test_normalize_empty_document(capsys):
    code, out, _ = run(capsys, "normalize", str(fixture_path("empty.owl")))
    assert code == 0
    doc = json.loads(out)
    assert doc["classes"] == [] and doc["normalized"] is True


def test_normalize_rdf_output_reparses(capsys):
    code, out, _ = run(
        capsys,
        "normalize",
        str(fixture_path("symmetric_colleagues.owl")),
        "--format",
        "rdfxml",
    )
    assert code == 0
    model = parse_document(out.encode(), "rdfxml")
    assert len(model.relations) == 2


def test_assign_json_input_is_accepted(tmp_path, capsys):
    code, out, _ = run(capsys, "normalize", str(fixture_path("transitive_areas.owl")))
    assert code == 0
    source = tmp_path / "normalized.json"
    source.write_text(out)
    code, out, _ = run(capsys, "assign", str(source))
    assert code == 0
    assert json.loads(out)["membership"]


def test_asserted_only_flag(capsys):
    code, everything, _ = run(capsys, "assign", str(fixture_path("relation_lift.owl")))
    code2, asserted, _ = run(
        capsys, "assign", str(fixture_path("relation_lift.owl")), "--asserted-only"
    )
    assert code == 0 and code2 == 0
    keys = lambda payload: {
        (e["kind"],) + tuple(sorted(e["key"].items()))
        for e in json.loads(payload)["membership"]
    }
    lifted = ("relation", ("class", "City"), ("predicate", "livesIn"))
    assert lifted in keys(everything)
    assert lifted not in keys(asserted)


@pytest.mark.parametrize("fmt", ["rdfxml", "json"])
def test_input_may_start_with_a_utf8_byte_order_mark(tmp_path, capsys, fmt):
    if fmt == "rdfxml":
        plain = fixture_path("transitive_areas.owl").read_bytes()
    else:
        code, out, _ = run(capsys, "normalize", str(fixture_path("transitive_areas.owl")))
        assert code == 0
        plain = out.encode("utf-8")
    source = tmp_path / "plain"
    source.write_bytes(plain)
    marked = tmp_path / "marked"
    marked.write_bytes(b"\xef\xbb\xbf" + plain)
    code, expected, _ = run(capsys, "rules", str(source))
    assert code == 0 and json.loads(expected)["rules"]
    code, out, err = run(capsys, "rules", str(marked))
    assert (code, out, err) == (0, expected, "")


def test_exit_1_on_malformed_input(tmp_path, capsys):
    bad = tmp_path / "broken.owl"
    bad.write_text("<rdf:RDF")
    code, out, err = run(capsys, "rules", str(bad))
    assert code == 1
    assert out == ""
    assert "error[parse]" in err


def test_exit_1_on_deeply_nested_json(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "rules", str(deep))
    assert code == 1
    assert err.startswith("error[parse]")
    assert "Traceback" not in err
    assert out == ""


def test_exit_1_on_missing_file(capsys):
    code, _, err = run(capsys, "rules", "/nonexistent/input.owl")
    assert code == 1
    assert "error[io]" in err


def test_exit_2_on_validation_errors_in_strict_mode(tmp_path, capsys):
    dangling = tmp_path / "dangling.json"
    dangling.write_text(
        '{"schema": "fuzzonto/1",'
        ' "properties": [{"name": "r", "kind": "object"}],'
        ' "relations": [{"predicate": "r", "subject": "A", "object": "B"}]}'
    )
    code, _, err = run(capsys, "normalize", str(dangling), "--strict")
    assert code == 2
    assert "undeclared-class" in err
    code, _, _ = run(capsys, "normalize", str(dangling))
    assert code == 0  # warnings only without --strict


def test_exit_3_on_unsupported_construct_in_strict_mode(tmp_path, capsys):
    doc = tmp_path / "union.owl"
    doc.write_text(
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
        ' xmlns:owl="http://www.w3.org/2002/07/owl#">'
        '<owl:Class rdf:ID="A"><owl:unionOf rdf:parseType="Collection"/></owl:Class>'
        "</rdf:RDF>"
    )
    code, _, err = run(capsys, "rules", str(doc), "--strict")
    assert code == 3
    assert "unsupported" in err
    code, _, _ = run(capsys, "rules", str(doc))
    assert code == 0


def test_exit_4_on_fixpoint_overflow(capsys):
    code, _, err = run(
        capsys,
        "normalize",
        str(fixture_path("subclass_chain.owl")),
        "--max-elements",
        "2",
    )
    assert code == 4
    assert "fixpoint-overflow" in err


def test_negative_element_budget_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_pipeline(["rules", str(fixture_path("paris_france.owl")), "--max-elements=-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --max-elements: must be 0 or more, got -1" in err
    assert "fixpoint-overflow" not in err


def test_zero_element_budget_disables_the_bound(capsys):
    code, out, _ = run(
        capsys, "rules", str(fixture_path("subclass_chain.owl")), "--max-elements", "0"
    )
    assert code == 0
    assert json.loads(out)["rules"]


def test_out_writes_file_and_keeps_stdout_clean(tmp_path, capsys):
    target = tmp_path / "deep" / "rules.json"
    target.parent.mkdir()
    code, out, _ = run(
        capsys,
        "rules",
        str(fixture_path("paris_france.owl")),
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["rules"]
    leftovers = [p for p in target.parent.iterdir() if p != target]
    assert leftovers == []  # temp file was renamed, not left behind


def test_report_contents(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "rules",
        str(fixture_path("transitive_areas.owl")),
        "--report",
        str(report_path),
        "--trace",
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["schema"] == "fuzzonto/1"
    assert report["phases"] == ["ingest", "normalize", "membership", "rules"]
    assert report["counts"]["before"]["relations"] == 2
    assert report["counts"]["after"]["relations"] == 3
    assert report["rewrites"]["transitive-close"] == 1
    assert report["rewrites"]["symmetric-expand"] == 0
    assert len(report["rewrites"]) == 8
    assert report["passes"] >= 1
    assert set(report["timings_ms"]) == {"ingest", "normalize", "membership", "rules"}
    assert report["traces"] == [
        {
            "rule": "transitive-close",
            "produced": "relation subAreaOf(Latgale, EU)",
            "sources": [
                "relation subAreaOf(Latgale, Latvia)",
                "relation subAreaOf(Latvia, EU)",
            ],
        }
    ]


def test_traced_report_bytes_are_dump_json(tmp_path, capsys):
    for name in ("transitive_areas.owl", "symmetric_equivalent_combo.owl", "empty.owl"):
        report_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "rules", str(fixture_path(name)), "--trace", "--report", str(report_path)
        )
        assert code == 0
        data = report_path.read_bytes()
        report = json.loads(data)
        assert "traces" in report, name
        assert dump_json(report) == data, name


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_is_restored_on_every_exit(capsys, enabled):
    runs = [
        (0, ["rules", str(fixture_path("paris_france.owl"))]),
        (1, ["rules", str(fixture_path("no_such_file.owl"))]),
        (4, ["normalize", str(fixture_path("subclass_chain.owl")), "--max-elements", "2"]),
    ]
    was = gc.isenabled()
    try:
        for expected, args in runs:
            gc.enable() if enabled else gc.disable()
            assert run(capsys, *args)[0] == expected
            assert gc.isenabled() is enabled, args
    finally:
        gc.enable() if was else gc.disable()


def test_trace_without_report_goes_to_stderr(capsys):
    code, out, err = run(
        capsys, "normalize", str(fixture_path("subclass_chain.owl")), "--trace"
    )
    assert code == 0
    assert json.loads(err) == [
        {
            "rule": "subclass-closure",
            "produced": "subclass House -> Country",
            "sources": ["subclass House -> City", "subclass City -> Country"],
        }
    ]
    assert json.loads(out)["normalized"] is True


def test_diagnostics_go_to_stderr_not_stdout(tmp_path, capsys):
    doc = tmp_path / "warned.owl"
    doc.write_text(
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
        ' xmlns:owl="http://www.w3.org/2002/07/owl#">'
        '<owl:Restriction rdf:ID="x"/>'
        "</rdf:RDF>"
    )
    code, out, err = run(capsys, "normalize", str(doc))
    assert code == 0
    assert "unsupported-construct" in err
    json.loads(out)  # stdout stays machine-readable


def test_module_entry_point_runs():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "fuzzonto",
            "rules",
            str(fixture_path("paris_france.owl")),
            "--format",
            "text",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "IF part_of France (mu=1.000000) THEN Paris\n"


def test_output_bytes_stable_across_hash_seeds():
    def run_with_seed(seed: str) -> bytes:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "fuzzonto",
                "assign",
                str(fixture_path("symmetric_equivalent_combo.owl")),
            ],
            capture_output=True,
            env=env,
            check=True,
        )
        return proc.stdout

    assert run_with_seed("1") == run_with_seed("2") == run_with_seed("0")


def test_cli_import_leaves_the_network_stack_out():
    # xml.sax.saxutils drags in urllib.request, http.client and ssl; only the
    # RDF/XML writer needs it, so it must not load with the CLI
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, fuzzonto.cli; print('urllib.request' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "False\n"


def test_cli_import_leaves_dataclasses_out():
    # dataclasses pulls in inspect, ast, dis and tokenize, which every run
    # would pay for at start-up
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, fuzzonto.cli; "
            "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "[]\n"


def test_rules_command_goes_from_runs_to_bytes(capsys, monkeypatch):
    """The rules command writes from premise runs: the list entry points,
    which build one FuzzyRule per rule and regroup them, are not called."""
    from fuzzonto import emit, rules

    def refuse(*args, **kwargs):
        raise AssertionError("per-rule path taken")

    expected = {}
    for fmt in ("json", "text"):
        code, expected[fmt], _ = run(
            capsys, "rules", str(fixture_path("transitive_areas.owl")), "--format", fmt
        )
        assert code == 0
    for module, name in (
        (rules, "generate_rules"),
        (rules, "check_consistency"),
        (emit, "rules_to_json"),
        (emit, "rules_to_text"),
    ):
        monkeypatch.setattr(module, name, refuse)
    for fmt in ("json", "text"):
        code, out, _ = run(
            capsys, "rules", str(fixture_path("transitive_areas.owl")), "--format", fmt
        )
        assert (code, out) == (0, expected[fmt])
