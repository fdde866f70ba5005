import json
import random
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest

from conftest import FIXTURE_NAMES, normalize_fixture, parse_fixture
from fuzzonto import (
    NotNormalized,
    assign_all,
    emit_json,
    emit_normalized_rdf,
    load_json,
    normalize,
    parse_document,
)
from fuzzonto.emit import (
    annotated_to_json,
    decimal6,
    dump_json,
    report_to_json,
    rules_to_json,
    runs_text_chunks,
    traces_chunks,
    traces_to_obj,
)
from fuzzonto.membership import ComplexKey
from fuzzonto.normalize import RewriteTrace
from fuzzonto.rules import generate_rules, premise_text, rule_runs
from randmodels import random_model


@pytest.mark.parametrize(
    ("fraction", "text"),
    [
        (Fraction(1), "1.000000"),
        (Fraction(1, 2), "0.500000"),
        (Fraction(1, 3), "0.333333"),
        (Fraction(2, 3), "0.666667"),
        (Fraction(1, 6), "0.166667"),
        (Fraction(1, 7), "0.142857"),
        # ties round half to even on the sixth digit
        (Fraction(1, 2000000), "0.000000"),
        (Fraction(3, 2000000), "0.000002"),
        (Fraction(5, 2000000), "0.000002"),
        (Fraction(2999999, 2000000), "1.500000"),
        # more digits than Decimal's default 28-digit context can quantize
        (Fraction(10**22), "10000000000000000000000.000000"),
        (Fraction(10**30 + 1, 3), "333333333333333333333333333333.666667"),
        # a negative value keeps its sign, also when it rounds to zero
        (Fraction(-1, 2000000), "-0.000000"),
        (Fraction(-3, 2000000), "-0.000002"),
        (Fraction(-7, 3), "-2.333333"),
    ],
)
def test_decimal6(fraction, text):
    assert decimal6(fraction) == text


def decimal6_oracle(value: Fraction) -> str:
    """The Decimal formula, in a context wide enough that the division is
    exact to far more places than the rounding reads."""
    with localcontext() as context:
        context.prec = 80
        quantized = (Decimal(value.numerator) / Decimal(value.denominator)).quantize(
            Decimal("0.000001"), rounding=ROUND_HALF_EVEN
        )
    return str(quantized)


def test_decimal6_matches_the_decimal_formula():
    """1/n, random signed fractions of every size and exact ties."""
    rng = random.Random(6)
    values = [Fraction(1, n) for n in range(1, 3001)]
    for _ in range(3000):
        den = rng.randint(1, 10 ** rng.randint(1, 12))
        values.append(Fraction(rng.randint(-(10 ** rng.randint(1, 30)), 10**30), den))
    values += [Fraction(rng.randint(-(10**9), 10**9), 2 * 10**6) for _ in range(1000)]
    for value in values:
        assert decimal6(value) == decimal6_oracle(value), value


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
    """Every fixture and 200 random models, normalized: the reloaded model has
    the same elements with the same origins and the same class IRIs."""
    models = [normalize_fixture(name).model for name in FIXTURE_NAMES]
    models += [normalize(random_model(seed)).model for seed in range(200)]
    models.append(load_json(IRI_MODEL))
    derived = 0
    for model in models:
        again = load_json(emit_json(model))
        assert again == model
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


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_emit_rdf_round_trips_through_parse_and_normalize(name):
    model = normalize_fixture(name).model
    reparsed = parse_document(emit_normalized_rdf(model), "rdfxml")
    again = normalize(reparsed).model
    assert again.same_elements(model), name


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
                    "mu": {"num": mu.numerator, "den": mu.denominator, "decimal": decimal6(mu)},
                    "category": "identifying",
                }
                for p, conclusion, mu in rules
            ],
        }
    )


def test_rules_json_equals_generic_encoding_on_random_models():
    for seed in range(200):
        rules = generate_rules(assign_all(normalize(random_model(seed)).model))
        assert rules_to_json(rules) == generic_rules_json(rules), f"seed {seed}"


def generic_rules_text(rules) -> str:
    return "".join(
        f"IF {premise_text(premise)} (mu={decimal6(mu)}) THEN {conclusion}\n"
        for premise, conclusion, mu in rules
    )


def test_rules_json_equals_generic_encoding_on_awkward_strings():
    """Single rules and runs of two or more that share premise and mu; a run
    also ends where only the mu changes, and one premise comes back after
    another's run."""
    awkward = ['q"uote', "back\\slash", "\u00c4rger", "line\u2028sep", "tab\tnl\n\x00\x1f"]
    rules = []
    for i, name in enumerate(awkward):
        mu = Fraction(1, i + 1)
        part_of = ComplexKey.part_of(name)
        rules += [
            (name, name, mu),
            (part_of, "C", mu),
            (part_of, name, mu),
            (part_of, "D", Fraction(1, i + 1)),
            (part_of, "F", Fraction(1, 9)),  # mu changes
            (ComplexKey.relation(name, name), name, Fraction(1, 7)),
            (ComplexKey.relation(name, name), "C", Fraction(1, 7)),
            (name, "G", mu),  # back after other premises
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
    objs = traces_to_obj(result.traces)
    assert objs == [
        {
            "rule": "subclass-closure",
            "produced": "subclass House -> Country",
            "sources": ["subclass House -> City", "subclass City -> Country"],
        }
    ]
    dump_json(objs)  # must be JSON-serializable as-is


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
