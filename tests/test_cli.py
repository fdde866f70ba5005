import gc
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import fixture_path
from fuzzonto import (
    MalformedDocument,
    OntologyModel,
    cli,
    emit_json,
    load_json,
    normalize,
    parse_document,
)
from fuzzonto.cli import run_pipeline
from fuzzonto.emit import dump_json
from fuzzonto.model import SYMMETRIC, RawModifier
from test_digests import recipe_model


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


def test_lone_surrogate_in_a_name_is_a_parse_error(tmp_path, capsys):
    """A \\ud800 escape loads as a string that no UTF-8 writer can carry, so
    the document is malformed under every command, and so is a str given to
    load_json that holds the surrogate itself; an escaped surrogate pair is
    one character and loads."""
    model = (
        '{"schema":"fuzzonto/1","classes":[{"name":"A\\ud800"}],'
        '"properties":[{"name":"p","kind":"datatype"}],'
        '"holdings":[{"property":"p","holder":"A\\ud800"}]}'
    )
    source, out = tmp_path / "lone.json", tmp_path / "out"
    source.write_text(model)
    for command in (["rules"], ["rules", "--format", "text"], ["assign"], ["normalize"]):
        code, stdout, err = run(capsys, *command, str(source), "--out", str(out))
        expected = "error[parse]: lone surrogate '\\ud800' in a string\n"
        assert (code, stdout, err) == (1, "", expected), command
        assert not out.exists(), command
    # a str, not bytes, may hold the surrogate itself, not its escape
    literal = model.replace("\\ud800", "\ud800")
    assert "\\ud800" not in literal
    with pytest.raises(MalformedDocument, match="^lone surrogate '\\\\ud800' in a string$"):
        load_json(literal)
    source.write_text(model.replace("\\ud800", "\\ud83d\\ude00"))
    assert run(capsys, "rules", str(source), "--format", "text", "--out", str(out)) == (0, "", "")
    assert out.read_text(encoding="utf-8") == "IF p (mu=1.000000) THEN A\U0001f600\n"


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


_RDF_OPEN = (
    '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
    ' xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"'
    ' xmlns:owl="http://www.w3.org/2002/07/owl#">'
)
_DATATYPE_P = (
    '<owl:DatatypeProperty rdf:ID="p"><rdfs:domain rdf:resource="#A"/></owl:DatatypeProperty>'
)
_RELATION_P = '<owl:Class rdf:ID="A"><p rdf:resource="#B"/></owl:Class>'


@pytest.mark.parametrize(
    "text, conflicting",
    [
        (_RDF_OPEN + _DATATYPE_P + _RELATION_P + "</rdf:RDF>", "p"),
        (_RDF_OPEN + _RELATION_P + _DATATYPE_P + "</rdf:RDF>", "p"),
        (
            '{"schema": "fuzzonto/1", "classes": [{"name": "A"}, {"name": "B"}],'
            ' "properties": [{"name": "p", "kind": "object"}, {"name": "q", "kind": "datatype"}],'
            ' "holdings": [{"property": "q", "holder": "A"}],'
            ' "relations": [{"predicate": "p", "subject": "A", "object": "B"}],'
            ' "modifiers": [{"kind": "inverse", "target": "p", "counterpart": "q"}]}',
            "q",
        ),
    ],
    ids=["datatype-first", "class-first", "inverse-of-datatype"],
)
def test_strict_refuses_a_property_used_with_both_kinds(tmp_path, capsys, text, conflicting):
    """Such a model would come out of normalize --format rdfxml with the
    property declared as both kinds, which the RDF/XML reader rejects; under
    --strict it is a validation error and nothing is written."""
    source, out = tmp_path / "source", tmp_path / "normalized.owl"
    source.write_text(text)
    code, _, err = run(
        capsys, "normalize", str(source), "--format", "rdfxml", "--strict", "--out", str(out)
    )
    assert code == 2
    assert err == (
        f"error[property-kind-conflict]: property {conflicting} used both as datatype"
        f" and as object ({conflicting})\n"
    )
    assert not out.exists()


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


def test_a_budget_equal_to_the_output_count_fits(tmp_path, capsys):
    """--max-elements counts only what the output can hold: with the total
    from an unbudgeted run's report as the budget the run succeeds with the
    same bytes, and one less ends in exit 4.  The input holds a self-subclass
    axiom and a modifier, which the output never holds."""
    m = OntologyModel()
    for name in ("A", "B", "C"):
        m.touch_class(name)
    for sub, sup in (("A", "A"), ("A", "B"), ("B", "C")):
        m.add_subclass(sub, sup)
    m.declare_property("r", "object")
    m.add_relation("r", "C", "A")
    m.add_modifier(RawModifier(SYMMETRIC, "r"))
    source, report = tmp_path / "model.json", tmp_path / "report.json"
    source.write_bytes(emit_json(m))
    args = ["normalize", str(source), "--max-elements"]
    code, full, _ = run(capsys, *args, "0", "--report", str(report))
    assert code == 0
    total = json.loads(report.read_text())["counts"]["after"]["total"]
    assert run(capsys, *args, str(total))[:2] == (0, full)
    message = f"element count {total} exceeds bound {total - 1}"
    assert run(capsys, *args, str(total - 1)) == (4, "", f"error[fixpoint-overflow]: {message}\n")


def test_a_name_that_xml_cannot_carry_is_refused_by_rdfxml_only(tmp_path, capsys):
    """Model JSON keeps a name that holds a character outside XML 1.0's Char
    production; the RDF/XML writer refuses it with one error line and exit 1,
    and leaves neither the --out file nor a temp file."""
    for name in ("a\x01b", "a\ufffeb", "a\uffffb"):
        m = OntologyModel()
        m.touch_class(name)
        m.touch_class("B")
        m.add_subclass(name, "B")
        source, out = tmp_path / "model.json", tmp_path / "out" / "model.owl"
        source.write_bytes(emit_json(m))
        out.parent.mkdir(exist_ok=True)
        code, stdout, err = run(
            capsys, "normalize", str(source), "--format", "rdfxml", "--out", str(out)
        )
        message = f"{name!r} holds U+{ord(name[1]):04X}, which XML 1.0 cannot carry"
        assert (code, stdout, err) == (1, "", f"error[unwritable-name]: {message}\n"), name
        assert list(out.parent.iterdir()) == [], name
        code, stdout, err = run(capsys, "normalize", str(source))
        assert (code, err) == (0, ""), name
        assert name in load_json(stdout).classes, name


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


def test_module_exit_codes_are_run_pipelines(tmp_path, capsys):
    """`python -m fuzzonto` ends with os._exit after a flush: for every exit
    code, and for a usage error, its code, stdout and stderr are the ones
    run_pipeline gives in process."""
    dangling = tmp_path / "dangling.json"
    dangling.write_text(
        '{"schema": "fuzzonto/1",'
        ' "properties": [{"name": "r", "kind": "object"}],'
        ' "relations": [{"predicate": "r", "subject": "A", "object": "B"}]}'
    )
    union = tmp_path / "union.owl"
    union.write_text(
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
        ' xmlns:owl="http://www.w3.org/2002/07/owl#">'
        '<owl:Class rdf:ID="A"><owl:unionOf rdf:parseType="Collection"/></owl:Class>'
        "</rdf:RDF>"
    )
    cases = [
        (0, ["rules", str(fixture_path("paris_france.owl")), "--format", "text"]),
        (1, ["rules", str(tmp_path / "missing.owl")]),
        (2, ["normalize", str(dangling), "--strict"]),
        (3, ["rules", str(union), "--strict"]),
        (4, ["normalize", str(fixture_path("subclass_chain.owl")), "--max-elements", "2"]),
        (2, ["rules"]),  # argparse: the source is missing
    ]
    for expected, args in cases:
        proc = subprocess.run([sys.executable, "-m", "fuzzonto", *args], capture_output=True)
        try:
            code = run_pipeline(args)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert proc.returncode == code == expected, args
        assert proc.stdout.decode() == captured.out, args
        assert proc.stderr.decode() == captured.err, args


def test_module_stdout_carries_a_multi_megabyte_document(tmp_path):
    source = tmp_path / "model.json"
    source.write_bytes(emit_json(recipe_model(200, 1)))
    args = ["rules", str(source), "--max-elements", "0"]
    proc = subprocess.run([sys.executable, "-m", "fuzzonto", *args], capture_output=True)
    assert run_pipeline([*args, "--out", str(tmp_path / "rules.json")]) == 0
    expected = (tmp_path / "rules.json").read_bytes()
    assert len(expected) > 4 << 20
    assert (proc.returncode, proc.stderr, len(proc.stdout)) == (0, b"", len(expected))
    assert proc.stdout == expected


def test_console_entry_flushes_and_skips_teardown(tmp_path):
    """Text still buffered in sys.stdout comes out; an atexit callback, which
    only a normal interpreter exit runs, does not."""
    out = tmp_path / "rules.txt"
    script = (
        "import atexit; from fuzzonto import cli; "
        "atexit.register(print, 'teardown'); print('buffered', end=''); "
        "cli.console_entry()"
    )
    args = ["rules", str(fixture_path("paris_france.owl")), "--format", "text", "--out", str(out)]
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"buffered", b"")
    assert out.read_text() == "IF part_of France (mu=1.000000) THEN Paris\n"


def test_console_script_is_the_console_entry():
    """The installed `fuzzonto` script and `python -m fuzzonto` end the same
    way."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    assert scripts == 'fuzzonto = "fuzzonto.cli:console_entry"'
    assert callable(cli.console_entry)


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


def test_cli_import_leaves_xml_etree_out():
    # the RDF/XML reader runs expat itself and builds no ElementTree
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fuzzonto.cli; print('xml.etree' in sys.modules)"],
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


def test_cli_leaves_fractions_and_decimal_out():
    # a grade is the integer n of mu = 1/n, rendered with integer arithmetic;
    # fractions imports decimal, which every run would pay for at start-up
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, fuzzonto.cli\n"
            "names = ('fractions', 'decimal')\n"
            "print([m for m in names if m in sys.modules], file=sys.stderr)\n"
            "code = fuzzonto.cli.main(['rules', sys.argv[1], '--format', 'text'])\n"
            "print(code, [m for m in names if m in sys.modules], file=sys.stderr)\n",
            str(fixture_path("transitive_areas.owl")),
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    assert "IF subAreaOf EU (mu=0.500000) THEN Latvia\n" in proc.stdout
    assert proc.stderr == "[]\n0 []\n"


def test_rules_command_goes_from_runs_to_bytes(capsys, monkeypatch):
    """The rules command writes from premise runs: the list entry points,
    which build one tuple per rule and regroup them, are not called."""
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
    ):
        monkeypatch.setattr(module, name, refuse)
    for fmt in ("json", "text"):
        code, out, _ = run(
            capsys, "rules", str(fixture_path("transitive_areas.owl")), "--format", fmt
        )
        assert (code, out) == (0, expected[fmt])


RDF_OPEN = (
    '<?xml version="1.0"?>\n{doctype}'
    '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
    ' xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"'
    ' xmlns:owl="http://www.w3.org/2002/07/owl#">\n'
)


def hostile(tmp_path, body: str, doctype: str = "") -> str:
    path = tmp_path / "hostile.owl"
    path.write_text(RDF_OPEN.format(doctype=doctype) + body + "</rdf:RDF>\n")
    return str(path)


def test_entity_expansion_bomb_is_a_parse_error(tmp_path, capsys):
    entities = '<!ENTITY lol0 "lol">\n' + "".join(
        f'<!ENTITY lol{i} "{f"&lol{i - 1};" * 10}">\n' for i in range(1, 10)
    )
    source = hostile(
        tmp_path,
        '<owl:Class rdf:ID="A"><rdfs:label>&lol9;</rdfs:label></owl:Class>',
        f"<!DOCTYPE rdf:RDF [\n{entities}]>\n",
    )
    assert run(capsys, "rules", source) == (
        1,
        "",
        "error[parse]: XML syntax error: limit on input amplification factor"
        " (from DTD and entities) breached: line 15, column 34\n",
    )


def test_external_entity_is_not_read(tmp_path, capsys):
    secret = tmp_path / "secret.txt"
    secret.write_text("TOPSECRET")
    source = hostile(
        tmp_path,
        '<owl:Class rdf:ID="A"><rdfs:label>&x;</rdfs:label></owl:Class>',
        f'<!DOCTYPE rdf:RDF [<!ENTITY x SYSTEM "{secret.as_uri()}">]>\n',
    )
    code, out, err = run(capsys, "normalize", source, "--format", "rdfxml")
    assert (code, out) == (1, "")
    assert err == "error[parse]: XML syntax error: undefined entity &x;: line 4, column 34\n"
    assert "TOPSECRET" not in err


def test_undeclared_entity_is_a_parse_error(tmp_path, capsys):
    source = hostile(tmp_path, '<owl:Class rdf:ID="A"><rdfs:label>&x;</rdfs:label></owl:Class>')
    assert run(capsys, "rules", source) == (
        1,
        "",
        "error[parse]: XML syntax error: undefined entity: line 3, column 34\n",
    )


def test_internal_entity_expands_in_an_identifier(tmp_path, capsys):
    source = hostile(
        tmp_path, '<owl:Class rdf:ID="&n;"/>', '<!DOCTYPE rdf:RDF [<!ENTITY n "Paris">]>\n'
    )
    code, out, err = run(capsys, "normalize", source)
    assert (code, err) == (0, "")
    assert json.loads(out)["classes"] == [{"name": "Paris"}]


def test_deep_nesting_is_one_skipped_construct(tmp_path, capsys):
    source = hostile(tmp_path, "<a>" * 50_000 + "</a>" * 50_000)
    code, out, err = run(capsys, "normalize", source)
    assert code == 0
    assert err == "warning[unsupported-construct]: top-level element a skipped\n"
    assert json.loads(out)["classes"] == []


def test_output_files_get_the_mode_open_gives(tmp_path, capsys):
    """A new --out or --report file gets 0o666 less the umask, as open()
    gives it; a replaced file keeps its mode."""
    out, report = tmp_path / "rules.json", tmp_path / "report.json"
    args = ["rules", str(fixture_path("paris_france.owl")), "--out", str(out)]
    args += ["--report", str(report)]
    old = os.umask(0o027)
    try:
        assert run(capsys, *args)[0] == 0
        assert [stat.S_IMODE(p.stat().st_mode) for p in (out, report)] == [0o640, 0o640]
        os.umask(0o022)
        out.chmod(0o600)
        report.chmod(0o664)
        assert run(capsys, *args)[0] == 0
        assert [stat.S_IMODE(p.stat().st_mode) for p in (out, report)] == [0o600, 0o664]
    finally:
        os.umask(old)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "rules.json"]


def test_a_writer_failing_midway_leaves_the_target_as_it_was(tmp_path, monkeypatch):
    """Blocks are written to the temp file as the chunks come: a writer that
    fails after some blocks leaves no temp file and the old target intact."""
    target = tmp_path / "rules.json"
    target.write_bytes(b"old")

    def chunks():
        yield b"x" * 100
        raise RuntimeError("writer failed")

    monkeypatch.setattr(cli, "BLOCK_SIZE", 10)
    with pytest.raises(RuntimeError):
        cli.write_atomic(str(target), chunks())
    assert [p.name for p in tmp_path.iterdir()] == ["rules.json"]
    assert target.read_bytes() == b"old"


@pytest.mark.parametrize("option", ["--out", "--report"])
def test_unwritable_output_is_an_io_error(tmp_path, capsys, option):
    """A path in a missing directory, or one that is a directory, ends the
    run with one error[io] line and exit 1, and leaves no temp file."""
    source = str(fixture_path("paris_france.owl"))
    (tmp_path / "dir").mkdir()
    for path, reason in (
        (tmp_path / "missing" / "rules.json", "No such file or directory"),
        (tmp_path / "dir", "Is a directory"),
    ):
        code, out, err = run(capsys, "rules", source, option, str(path))
        assert (code, err) == (1, f"error[io]: cannot write {path}: {reason}\n")
        assert out.startswith("{") == (option == "--report")  # the rules went out first
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert list((tmp_path / "dir").iterdir()) == []


def test_closed_stdout_pipe_ends_quietly(tmp_path):
    """A reader that stops after the first bytes of a six-block document, as
    `| head -c 100` does: exit 0, no traceback, nothing on stderr."""
    source = tmp_path / "model.json"
    source.write_bytes(emit_json(recipe_model(200, 1)))
    with subprocess.Popen(
        [sys.executable, "-m", "fuzzonto", "rules", str(source), "--max-elements", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    assert head.startswith(b'{\n  "rules": [') and err == b""


def test_closed_stderr_pipe_ends_quietly(tmp_path):
    """The same reader on stderr under --trace: the rules file is written,
    then the traces meet the closed pipe, and the run still exits 0."""
    source = tmp_path / "model.json"
    source.write_bytes(emit_json(recipe_model(200, 1)))
    args = ["rules", str(source), "--max-elements", "0", "--out"]
    with subprocess.Popen(
        [sys.executable, "-m", "fuzzonto", *args, str(tmp_path / "traced.json"), "--trace"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        head = proc.stderr.read(100)
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stdout.read() == b""
    assert head.startswith(b'[\n  {\n    "produced": ')
    assert run_pipeline([*args, str(tmp_path / "rules.json")]) == 0
    assert (tmp_path / "traced.json").read_bytes() == (tmp_path / "rules.json").read_bytes()


def test_closed_stderr_pipe_ends_diagnostics_quietly(tmp_path):
    """The same reader on stderr while validation reports 3,000 undeclared
    classes: the rest of the diagnostics is dropped, the rules file is
    written, and the run exits 0."""
    model = OntologyModel()
    model.declare_property("p", "datatype")
    for i in range(3000):
        model.add_holding("p", f"U{i}")
    source = tmp_path / "model.json"
    source.write_bytes(emit_json(model))
    target = tmp_path / "rules.json"
    with subprocess.Popen(
        [sys.executable, "-m", "fuzzonto", "rules", str(source), "--out", str(target)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        head = proc.stderr.read(100)
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stdout.read() == b""
    assert head.startswith(b"error[undeclared-class]: ")
    assert json.loads(target.read_bytes())["rules"]


def test_writers_stream_without_a_whole_document(tmp_path, capsys, monkeypatch):
    """The rules command writes JSON and text, traces and the traced report
    from the chunk writers: the entry points that join a whole document are
    not called, and blocks of 1 or 64 bytes, which end mid-run, give the
    bytes the joins give, on stdout, stderr and in files."""
    from fuzzonto import emit

    source = str(fixture_path("symmetric_equivalent_combo.owl"))
    report, out = str(tmp_path / "report.json"), str(tmp_path / "out")
    cases = [("--format", "json", "--trace"), ("--format", "text", "--trace")]
    cases += [("--trace", "--report", report, "--out", out)]
    cases += [("--format", "text", "--report", report, "--out", out)]

    def outputs():
        for extra in cases:
            code, stdout, stderr = run(capsys, "rules", source, *extra)
            assert code == 0
            files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
            for path in tmp_path.iterdir():
                path.unlink()
            if "report.json" in files:  # its timings differ from run to run
                files["report.json"] = re.sub(rb'"timings_ms": {[^}]*}', b"", files["report.json"])
            yield stdout, stderr, files

    expected = list(outputs())
    assert json.loads(expected[0][0])["rules"] and json.loads(expected[0][1])
    assert expected[1][0].startswith("IF ")
    assert len(json.loads(expected[2][2]["out"])["rules"]) == expected[3][2]["out"].count(b"IF ")

    def refuse(*args, **kwargs):
        raise AssertionError("whole document joined")

    monkeypatch.setattr(emit, "rules_to_json", refuse)
    for size in (1, 64, cli.BLOCK_SIZE):
        monkeypatch.setattr(cli, "BLOCK_SIZE", size)
        assert list(outputs()) == expected, size


_TOP_USAGE = "usage: fuzzonto [-h] {normalize,assign,rules} ...\n"
_NORMALIZE_USAGE = (
    "usage: fuzzonto normalize [-h] [--format {json,rdfxml}] [--strict] [--trace]\n"
    "                          [--report PATH] [--max-elements N] [--out PATH]\n"
    "                          source\n"
)
_ASSIGN_USAGE = (
    "usage: fuzzonto assign [-h] [--format {json}] [--strict] [--trace]\n"
    "                       [--report PATH] [--max-elements N] [--out PATH]\n"
    "                       [--asserted-only]\n"
    "                       source\n"
)
_RULES_USAGE = (
    "usage: fuzzonto rules [-h] [--format {json,text}] [--strict] [--trace]\n"
    "                      [--report PATH] [--max-elements N] [--out PATH]\n"
    "                      [--asserted-only]\n"
    "                      source\n"
)

# (arguments, exit code, stdout, stderr) of a run at 80 columns
USAGE_PINS = [
    (
        ["--help"],
        0,
        _TOP_USAGE
        + "\n"
        "Normalize OWL subset ontologies, assign membership values, and generate\n"
        "identifying fuzzy rules.\n"
        "\n"
        "positional arguments:\n"
        "  {normalize,assign,rules}\n"
        "    normalize           emit the normalized model\n"
        "    assign              emit the membership-annotated model\n"
        "    rules               emit identifying fuzzy rules\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n",
        "",
    ),
    (
        ["normalize", "--help"],
        0,
        _NORMALIZE_USAGE
        + "\n"
        "positional arguments:\n"
        "  source                input document (RDF/XML or model JSON)\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {json,rdfxml}\n"
        "                        output format (default: json)\n"
        "  --strict              fail on unsupported constructs and validation errors\n"
        "  --trace               record rewrite traces\n"
        "  --report PATH         write a run report to PATH\n"
        "  --max-elements N      element budget for normalization, 0 for none (default\n"
        "                        100000)\n"
        "  --out PATH            write output to PATH, not stdout\n",
        "",
    ),
    (
        ["assign", "--help"],
        0,
        _ASSIGN_USAGE
        + "\n"
        "positional arguments:\n"
        "  source            input document (RDF/XML or model JSON)\n"
        "\n"
        "options:\n"
        "  -h, --help        show this help message and exit\n"
        "  --format {json}   output format (default: json)\n"
        "  --strict          fail on unsupported constructs and validation errors\n"
        "  --trace           record rewrite traces\n"
        "  --report PATH     write a run report to PATH\n"
        "  --max-elements N  element budget for normalization, 0 for none (default\n"
        "                    100000)\n"
        "  --out PATH        write output to PATH, not stdout\n"
        "  --asserted-only   count only asserted elements as determiners\n",
        "",
    ),
    (
        ["rules", "--help"],
        0,
        _RULES_USAGE
        + "\n"
        "positional arguments:\n"
        "  source                input document (RDF/XML or model JSON)\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {json,text}  output format (default: json)\n"
        "  --strict              fail on unsupported constructs and validation errors\n"
        "  --trace               record rewrite traces\n"
        "  --report PATH         write a run report to PATH\n"
        "  --max-elements N      element budget for normalization, 0 for none (default\n"
        "                        100000)\n"
        "  --out PATH            write output to PATH, not stdout\n"
        "  --asserted-only       count only asserted elements as determiners\n",
        "",
    ),
    (
        [],
        2,
        "",
        _TOP_USAGE + "fuzzonto: error: the following arguments are required: command\n",
    ),
    (
        ["bogus"],
        2,
        "",
        _TOP_USAGE + "fuzzonto: error: argument command: invalid choice: 'bogus' "
        "(choose from 'normalize', 'assign', 'rules')\n",
    ),
    *(
        (
            [command, "x", "--bogus"],
            2,
            "",
            _TOP_USAGE + "fuzzonto: error: unrecognized arguments: --bogus\n",
        )
        for command in ("normalize", "assign", "rules")
    ),
    (
        ["normalize", "x", "--asserted-only"],
        2,
        "",
        _TOP_USAGE + "fuzzonto: error: unrecognized arguments: --asserted-only\n",
    ),
    (
        ["normalize", "x", "--format", "text"],
        2,
        "",
        _NORMALIZE_USAGE + "fuzzonto normalize: error: argument --format: invalid choice: "
        "'text' (choose from 'json', 'rdfxml')\n",
    ),
    (
        ["assign", "x", "--format", "text"],
        2,
        "",
        _ASSIGN_USAGE + "fuzzonto assign: error: argument --format: invalid choice: "
        "'text' (choose from 'json')\n",
    ),
    (
        ["rules", "x", "--format", "rdfxml"],
        2,
        "",
        _RULES_USAGE + "fuzzonto rules: error: argument --format: invalid choice: "
        "'rdfxml' (choose from 'json', 'text')\n",
    ),
]


@pytest.mark.parametrize(
    "args, code, out, err", USAGE_PINS, ids=[" ".join(pin[0]) or "no-args" for pin in USAGE_PINS]
)
def test_help_and_usage_errors_are_pinned(args, code, out, err, monkeypatch, capsys):
    """Help texts and usage errors, top level and under each command, in
    process: test_module_exit_codes_are_run_pipelines holds `python -m
    fuzzonto` to the same bytes.  Newer argparse releases print the choices
    of an invalid choice without quotes, so quotes are compared away."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run_pipeline(args)
    captured = capsys.readouterr()
    assert exc.value.code == code
    assert captured.out == out
    assert captured.err.replace("'", "") == err.replace("'", "")


def test_a_named_command_builds_only_its_parser():
    def built(args):
        (commands,) = [a.choices for a in cli._build_parser(args)._actions if a.choices]
        return list(commands)

    assert built(["rules", "x"]) == ["rules"]
    assert built(["normalize", "--help"]) == ["normalize"]
    for args in ([], ["--help"], ["bogus"], ["-h", "rules"]):
        assert built(args) == ["normalize", "assign", "rules"], args


def test_input_bytes_are_released_after_the_parse(monkeypatch, capsys):
    """Normalize and everything after it run without the input document:
    _run holds no reference to its bytes by then."""
    held = []

    def spy(model, **options):
        held.append("data" in sys._getframe(1).f_locals)
        return normalize(model, **options)

    monkeypatch.setattr(cli, "normalize", spy)
    code, out, _ = run(capsys, "rules", str(fixture_path("paris_france.owl")), "--format", "text")
    assert (code, out) == (0, "IF part_of France (mu=1.000000) THEN Paris\n")
    assert held == [False]
