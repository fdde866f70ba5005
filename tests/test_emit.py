import json
import random
from decimal import ROUND_HALF_EVEN, Decimal, localcontext

import pytest

from conftest import FIXTURE_NAMES, normalize_fixture, parse_fixture
from fuzzonto import (
    NotNormalized,
    OntologyModel,
    assign_all,
    emit_json,
    emit_normalized_rdf,
    load_json,
    normalize,
    parse_document,
    validate_model,
)
from fuzzonto.emit import (
    annotated_to_json,
    decimal6,
    dump_json,
    report_to_json,
    rules_to_json,
    runs_text_chunks,
    traces_chunks,
)
from fuzzonto.errors import UnwritableName
from fuzzonto.membership import PART_OF, RELATION, ComplexKey
from fuzzonto.normalize import RewriteTrace
from fuzzonto.rules import generate_rules, premise_text, rule_runs
from randmodels import (
    AWKWARD_NAMES,
    UNWRITABLE_NAMES,
    awkward_model,
    element_keys,
    intersection_model,
    model_state,
    random_model,
    traces_to_obj,
)


@pytest.mark.parametrize(
    ("n", "text"),
    [
        (1, "1.000000"),
        (2, "0.500000"),
        (3, "0.333333"),
        (6, "0.166667"),
        (7, "0.142857"),
        # ties round half to even on the sixth digit
        (2000000, "0.000000"),
        (400000, "0.000002"),
    ],
)
def test_decimal6(n, text):
    assert decimal6(n) == text


def decimal6_oracle(n: int) -> str:
    """The Decimal formula for 1/n, in a context wide enough that the
    division is exact to far more places than the rounding reads."""
    with localcontext() as context:
        context.prec = 80
        quantized = (Decimal(1) / Decimal(n)).quantize(
            Decimal("0.000001"), rounding=ROUND_HALF_EVEN
        )
    return str(quantized)


def test_decimal6_matches_the_decimal_formula():
    """1/n for every small n, random n up to 10**7 and the exact ties."""
    rng = random.Random(6)
    values = list(range(1, 3001))
    values += [rng.randint(1, 10**7) for _ in range(1000)]
    values += [2_000_000, 400_000]
    for n in values:
        assert decimal6(n) == decimal6_oracle(n), n


IRI_MODEL = json.dumps(
    {
        "schema": "fuzzonto/1",
        "classes": [
            {"name": "A", "iri": "http://example.org/ns#A"},
            {"name": "B", "iri": ""},
            {"name": "C"},
        ],
        "subclass": [{"sub": "B", "super": "C"}],
        "normalized": True,
    }
)


def test_emit_json_round_trips_normalized_fixture():
    """Every fixture and 200 random models, normalized, and 200 random models
    with and 200 without intersections before normalizing, which covers
    modifiers, intersection member order and the normalized flag: the
    reloaded model has the same elements with the same origins and the same
    class IRIs."""
    models = [normalize_fixture(name).model for name in FIXTURE_NAMES]
    models += [normalize(random_model(seed)).model for seed in range(200)]
    models += [make(seed) for make in (random_model, intersection_model) for seed in range(200)]
    models.append(load_json(IRI_MODEL))
    derived = 0
    for model in models:
        again = load_json(emit_json(model))
        assert model_state(again) == model_state(model)
        assert again.classes == model.classes  # name -> IRI
        assert again.holdings == model.holdings  # key -> origin
        assert again.relations == model.relations
        assert again.subclass_axioms == model.subclass_axioms
        derived += sum(origin != "asserted" for origin in model.relations.values())
    assert derived > 0  # derived origins were compared, not only "asserted"


def test_emit_rdf_about_is_the_class_iri_when_it_has_one():
    text = emit_normalized_rdf(load_json(IRI_MODEL)).decode()
    assert '<owl:Class rdf:about="http://example.org/ns#A"/>' in text
    # an empty-string IRI loaded from JSON is an IRI, emitted as it is
    assert '<owl:Class rdf:about="">' in text
    assert '<owl:Class rdf:about="#C"/>' in text

    parsed = parse_document(
        b'<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
        b' xmlns:owl="http://www.w3.org/2002/07/owl#">'
        b'<owl:Class rdf:about="http://example.org/ns#Town"/></rdf:RDF>',
        "rdfxml",
    )
    text = emit_normalized_rdf(normalize(parsed).model).decode()
    assert '<owl:Class rdf:about="http://example.org/ns#Town"/>' in text


def test_emit_json_is_byte_stable():
    model = normalize_fixture("transitive_areas.owl").model
    assert emit_json(model) == emit_json(model.copy())
    assert emit_json(model).endswith(b"\n")


def test_emit_rdf_requires_normalized_model():
    with pytest.raises(NotNormalized):
        emit_normalized_rdf(parse_fixture("symmetric_colleagues.owl"))


def test_emit_rdf_empty_skeleton():
    text = emit_normalized_rdf(normalize_fixture("empty.owl").model).decode()
    assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert "<rdf:RDF" in text and text.rstrip().endswith("</rdf:RDF>")
    assert "owl:Class" not in text


def test_emit_rdf_one_property_block_per_relation():
    model = normalize_fixture("symmetric_colleagues.owl").model
    text = emit_normalized_rdf(model).decode()
    assert text.count("<owl:ObjectProperty") == 2
    assert '<rdfs:domain rdf:resource="#Programmer"/>' in text
    assert '<rdfs:range rdf:resource="#Programmer"/>' in text
    assert "owl:SymmetricProperty" not in text


@pytest.mark.parametrize("name", FIXTURE_NAMES + ["random_model"])
def test_emit_rdf_round_trips_through_parse_and_normalize(name):
    """Every fixture, and random_model seeds 0-199, normalized."""
    if name == "random_model":
        models = [normalize(random_model(seed)).model for seed in range(200)]
    else:
        models = [normalize_fixture(name).model]
    for i, model in enumerate(models):
        reparsed = parse_document(emit_normalized_rdf(model), "rdfxml")
        again = normalize(reparsed).model
        assert element_keys(again) == element_keys(model), f"{name} {i}"


def test_emit_rdf_round_trips_the_empty_class_name():
    """A relation and a holding whose subject is the class named "" keep
    their domain; a declared property that none names stays a bare block."""
    m = OntologyModel()
    for name in ("", "B"):
        m.touch_class(name)
    m.declare_property("p", "object")
    m.declare_property("d", "datatype")
    m.declare_property("unused", "object")
    m.add_relation("p", "", "B")
    m.add_holding("d", "")
    model = normalize(m).model
    text = emit_normalized_rdf(model).decode()
    assert '<rdfs:domain rdf:resource="#"/>' in text
    assert '<owl:ObjectProperty rdf:about="#unused"/>' in text
    again = normalize(parse_document(text.encode(), "rdfxml")).model
    assert again.relations.keys() == {("p", "", "B")}
    assert again.holdings.keys() == {("d", "")}
    assert element_keys(again) == element_keys(model)


def unwritable_model(seed: int) -> OntologyModel:
    return awkward_model(seed, AWKWARD_NAMES + UNWRITABLE_NAMES)


def test_every_valid_model_survives_every_format():
    """Random, intersection and awkward-name models that validate_model
    finds no error in keep their element key sets through model JSON, raw
    and normalized, and once normalized through RDF/XML; unless a name holds
    a character that XML 1.0 cannot carry, which model JSON keeps and the
    RDF/XML writer refuses."""
    checked = refused = 0
    names, unwritable = set(), set()
    for make in (random_model, intersection_model, awkward_model, unwritable_model):
        for seed in range(200):
            m = make(seed)
            if any(d.severity == "error" for d in validate_model(m)):
                continue
            checked += 1
            normal = normalize(m, bound=0).model
            label = f"{make.__name__}({seed})"
            for model in (m, normal):
                assert element_keys(load_json(emit_json(model))) == element_keys(model), label
            written = {*normal.classes, *normal.properties}  # every name, in a valid model
            if any(bad in name for name in written for bad in "\x01\ufffe\uffff"):
                with pytest.raises(UnwritableName, match="XML 1.0 cannot carry$"):
                    emit_normalized_rdf(normal)
                refused += 1
                unwritable.update(written & set(UNWRITABLE_NAMES))
                continue
            back = parse_document(emit_normalized_rdf(normal), "rdfxml")
            assert element_keys(back) == element_keys(normal), label
            if make is awkward_model:
                names.update(normal.classes)
    assert checked > 600 and refused > 100, (checked, refused)
    assert names >= set(AWKWARD_NAMES)
    assert unwritable == set(UNWRITABLE_NAMES)


def test_annotated_json_shape():
    annotated = assign_all(normalize_fixture("transitive_areas.owl").model)
    doc = json.loads(annotated_to_json(annotated))
    assert doc["schema"] == "fuzzonto/1"
    assert doc["model"]["normalized"] is True
    by_class = {entry["key"]["class"]: entry for entry in doc["membership"]}
    assert by_class["EU"]["mu"] == {"num": 1, "den": 2, "decimal": "0.500000"}
    assert by_class["EU"]["determiners"] == ["Latgale", "Latvia"]
    assert by_class["EU"]["kind"] == "relation"
    assert by_class["EU"]["key"]["predicate"] == "subAreaOf"


def rules_to_text(rules) -> str:
    return "".join(runs_text_chunks(rule_runs(rules)))


def test_rules_text_format():
    annotated = assign_all(normalize_fixture("paris_france.owl").model)
    text = rules_to_text(generate_rules(annotated))
    assert text == "IF part_of France (mu=1.000000) THEN Paris\n"


def test_rules_json_shape():
    annotated = assign_all(normalize_fixture("paris_france.owl").model)
    doc = json.loads(rules_to_json(generate_rules(annotated)))
    assert doc["rules"] == [
        {
            "premise": {"kind": "part_of", "class": "France"},
            "conclusion": "Paris",
            "mu": {"num": 1, "den": 1, "decimal": "1.000000"},
            "category": "identifying",
        }
    ]


def generic_rules_json(rules) -> bytes:
    """The rules document built as plain objects and encoded by dump_json."""

    def premise(p):
        if isinstance(p, str):
            return {"kind": "property", "property": p}
        if p.kind == "part_of":
            return {"kind": "part_of", "class": p.resulting_class}
        return {"kind": p.kind, "predicate": p.predicate, "class": p.resulting_class}

    return dump_json(
        {
            "schema": "fuzzonto/1",
            "rules": [
                {
                    "premise": premise(p),
                    "conclusion": conclusion,
                    "mu": {"num": 1, "den": n, "decimal": decimal6(n)},
                    "category": "identifying",
                }
                for p, conclusion, n in rules
            ],
        }
    )


def test_rules_json_equals_generic_encoding_on_random_models():
    for seed in range(200):
        rules = generate_rules(assign_all(normalize(random_model(seed)).model))
        assert rules_to_json(rules) == generic_rules_json(rules), f"seed {seed}"


def generic_rules_text(rules) -> str:
    return "".join(
        f"IF {premise_text(premise)} (mu={decimal6(n)}) THEN {conclusion}\n"
        for premise, conclusion, n in rules
    )


def test_rules_json_equals_generic_encoding_on_awkward_strings():
    """Single rules and runs of two or more that share premise and mu; a run
    also ends where only the mu changes, and one premise comes back after
    another's run."""
    awkward = ['q"uote', "back\\slash", "\u00c4rger", "line\u2028sep", "tab\tnl\n\x00\x1f"]
    rules = []
    for i, name in enumerate(awkward):
        n = i + 1
        part_of = ComplexKey(PART_OF, None, name)
        rules += [
            (name, name, n),
            (part_of, "C", n),
            (part_of, name, n),
            (part_of, "D", n),
            (part_of, "F", 9),  # mu changes
            (ComplexKey(RELATION, name, name), name, 7),
            (ComplexKey(RELATION, name, name), "C", 7),
            (name, "G", n),  # back after other premises
        ]
    assert rules_to_json(rules) == generic_rules_json(rules)
    assert rules_to_text(rules) == generic_rules_text(rules)
    assert rules_to_json([]) == generic_rules_json([])
    assert rules_to_text([]) == ""


def test_rules_text_equals_generic_rendering_on_random_models():
    for seed in range(200):
        rules = generate_rules(assign_all(normalize(random_model(seed)).model))
        assert rules_to_text(rules) == generic_rules_text(rules), f"seed {seed}"


def test_traces_serialize_to_plain_objects():
    result = normalize_fixture("subclass_chain.owl")
    objs = json.loads(b"".join(traces_chunks(result.traces)))
    assert objs == [
        {
            "rule": "subclass-closure",
            "produced": "subclass House -> Country",
            "sources": ["subclass House -> City", "subclass City -> Country"],
        }
    ]


def test_traces_json_equals_generic_encoding():
    awkward = RewriteTrace('q"uote', "\u00c4rger\\", ("line\u2028sep", "\x00"))
    cases = [
        [],
        [RewriteTrace("r", "x")],  # empty sources print []
        [awkward, RewriteTrace("r", "x", ("one",)), RewriteTrace("r", "y")],
    ]
    cases += [list(normalize_fixture(name).traces) for name in FIXTURE_NAMES]
    cases += [normalize(random_model(seed), trace=True).traces for seed in range(50)]
    for traces in cases:
        assert b"".join(traces_chunks(traces)) == dump_json(traces_to_obj(traces))


def test_report_json_equals_generic_encoding():
    awkward = RewriteTrace('q"uote', "\u00c4rger\\", ("line\u2028sep", "\x00"))
    cases = [[], [awkward, RewriteTrace("r", "x")]]
    cases += [list(normalize_fixture(name).traces) for name in FIXTURE_NAMES]
    cases += [normalize(random_model(seed), trace=True).traces for seed in range(50)]
    for traces in cases:
        report = {
            "command": "rules",
            "counts": {"before": {"total": 1}, "after": {"total": 2}},
            "timings_ms": {"normalize": 1.5},
            "warnings": [{"code": "c", "message": 'a\n  "warnings": [', "location": None}],
        }
        for report in (report, {"schema": "x"}):
            expected = dump_json({**report, "traces": traces_to_obj(traces)})
            assert b"".join(report_to_json(report, traces)) == expected
