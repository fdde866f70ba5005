import gc

import pytest

from conftest import FIXTURE_NAMES, fixture_bytes, parse_fixture
from randmodels import (
    model_state,
    random_rdfxml,
    reference_parse_rdfxml,
    reference_validate_model,
    undeclared_model,
)
from fuzzonto import (
    DuplicateIdentifier,
    MalformedDocument,
    OntologyModel,
    UnsupportedConstruct,
    emit_json,
    ingest,
    load_json,
    parse_document,
    validate_model,
)
from fuzzonto.model import INTERSECTION, INVERSE, SYMMETRIC, TRANSITIVE, RawModifier

RDF_OPEN = (
    '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
    ' xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"'
    ' xmlns:owl="http://www.w3.org/2002/07/owl#">'
)


def doc(body: str) -> bytes:
    return f'<?xml version="1.0"?>\n{RDF_OPEN}{body}</rdf:RDF>'.encode()


# -- RDF/XML ---------------------------------------------------------------


def test_symmetric_snippet():
    m = parse_fixture("symmetric_colleagues.owl")
    assert set(m.classes) == {"Programmer", "Engineer"}
    assert m.properties == {"colleagueOf": "object"}
    assert m.modifiers == {RawModifier(SYMMETRIC, "colleagueOf")}
    assert list(m.relations) == [("colleagueOf", "Programmer", "Engineer")]
    assert m.relations[("colleagueOf", "Programmer", "Engineer")] == "asserted"
    assert not m.normalized


def test_transitive_snippet_with_nested_relations():
    m = parse_fixture("transitive_areas.owl")
    assert set(m.classes) == {"Latgale", "Latvia", "EU"}
    assert set(m.relations) == {
        ("subAreaOf", "Latgale", "Latvia"),
        ("subAreaOf", "Latvia", "EU"),
    }
    assert m.modifiers == {RawModifier(TRANSITIVE, "subAreaOf")}


def test_inverse_snippet_declares_counterpart():
    m = parse_fixture("inverse_ownership.owl")
    assert m.properties == {"owns": "object", "is_owed_by": "object"}
    assert m.modifiers == {RawModifier(INVERSE, "owns", counterpart="is_owed_by")}
    assert list(m.relations) == [("owns", "Human", "Plane")]


def test_intersection_collection_preserves_member_order():
    m = parse_fixture("intersection_man.owl")
    assert m.modifiers == {
        RawModifier(INTERSECTION, "Man", members=("Male", "Human"))
    }


def test_empty_document():
    m = parse_fixture("empty.owl")
    assert m.element_count() == 0
    assert not m.normalized


def test_equivalence_is_recorded_once():
    m = parse_fixture("equivalent_property_copy.owl")
    assert m.equivalences == {("Human", "Person")}
    assert list(m.holdings) == [("hasAge", "Person")]


def test_full_iri_reference():
    m = parse_document(
        doc('<owl:Class rdf:about="http://example.org/ns#Town"/>'), "rdfxml"
    )
    assert m.classes["Town"] == "http://example.org/ns#Town"


def test_iri_reference_names_after_the_last_hash():
    m = parse_document(doc('<owl:Class rdf:about="http://x#a#b"/>'), "rdfxml")
    assert m.classes == {"b": "http://x#a#b"}


def test_malformed_xml():
    with pytest.raises(MalformedDocument):
        parse_document(b"<rdf:RDF", "rdfxml")


def test_wrong_root_element():
    with pytest.raises(MalformedDocument):
        parse_document(b'<owl:Class xmlns:owl="http://www.w3.org/2002/07/owl#"/>', "rdfxml")


def test_conflicting_declaration_kinds():
    body = '<owl:Class rdf:ID="x"/><owl:DatatypeProperty rdf:ID="x"/>'
    with pytest.raises(DuplicateIdentifier):
        parse_document(doc(body), "rdfxml")
    body = '<owl:DatatypeProperty rdf:ID="y"/><owl:ObjectProperty rdf:ID="y"/>'
    with pytest.raises(DuplicateIdentifier):
        parse_document(doc(body), "rdfxml")


def test_redeclaration_same_kind_is_fine():
    body = '<owl:Class rdf:ID="x"/><owl:Class rdf:about="#x"/>'
    m = parse_document(doc(body), "rdfxml")
    assert set(m.classes) == {"x"}


def test_unsupported_construct_warns_by_default():
    m = parse_document(doc('<owl:Restriction rdf:ID="r"/>'), "rdfxml")
    assert any(w.code == "unsupported-construct" for w in m.parse_warnings)


def test_unsupported_construct_raises_in_strict_mode():
    with pytest.raises(UnsupportedConstruct):
        parse_document(doc('<owl:Restriction rdf:ID="r"/>'), "rdfxml", strict=True)


def test_unionof_inside_class_is_unsupported():
    body = '<owl:Class rdf:ID="A"><owl:unionOf rdf:parseType="Collection"/></owl:Class>'
    m = parse_document(doc(body), "rdfxml")
    assert any(w.code == "unsupported-construct" for w in m.parse_warnings)
    with pytest.raises(UnsupportedConstruct):
        parse_document(doc(body), "rdfxml", strict=True)


def test_imports_are_ignored_with_warning():
    body = (
        '<owl:Ontology rdf:about=""><owl:imports rdf:resource="http://other"/>'
        "</owl:Ontology>"
    )
    m = parse_document(doc(body), "rdfxml")
    assert [w.code for w in m.parse_warnings] == ["imports-ignored"]
    assert m.element_count() == 0


def test_self_equivalence_dropped_with_warning():
    body = '<owl:Class rdf:ID="A"><owl:equivalentClass rdf:resource="#A"/></owl:Class>'
    m = parse_document(doc(body), "rdfxml")
    assert not m.equivalences
    assert any(w.code == "self-equivalence" for w in m.parse_warnings)


def test_relation_without_resource_is_unsupported():
    body = '<owl:Class rdf:ID="A"><knows>text</knows></owl:Class>'
    m = parse_document(doc(body), "rdfxml")
    assert not m.relations
    assert any(w.code == "unsupported-construct" for w in m.parse_warnings)


EDGE_DOCUMENTS = [
    doc(
        '<owl:Class rdf:ID="A&amp;B"><!-- c --><?pi x?><rdfs:label>a &amp; b &#65;</rdfs:label>'
        "<![CDATA[<x>]]></owl:Class>"
    ),
    doc('<owl:Class rdf:ID="&#65;"><ex:p xmlns:ex="urn:x}y" rdf:resource="#B"/></owl:Class>'),
    doc("<owl:Class>" + "<a>" * 2000 + "</a>" * 2000 + "</owl:Class>"),
    doc("<owl:Class>&" + "e" * 150 + ";</owl:Class>").replace(
        b"?>", b'?><!DOCTYPE r SYSTEM "r.dtd">', 1
    ),
    doc('<owl:Class rdf:ID="A">&x;</owl:Class>').replace(
        b"?>", b'?><!DOCTYPE r [<!ENTITY x SYSTEM "file:///nonexistent">]>', 1
    ),
    doc('<owl:Class/><owl:Class rdf:ID="B"/>').replace(
        b"?>",
        b'?><!DOCTYPE r [<!ATTLIST owl:Class rdf:ID CDATA "Dflt">]>',
        1,
    ),
    f'<?xml version="1.0" encoding="ISO-8859-1"?>{RDF_OPEN}'
    '<owl:Class rdf:ID="\u00c4pfel"/></rdf:RDF>'.encode("latin-1"),
    doc('<owl:Class rdf:ID="A"/>').replace(b"<rdf:RDF", b"<rdf:RDF xmlns:u", 1),
    b"<unbound:RDF/>",
    b"",
    doc('<owl:Restriction rdf:ID="r"/><broken'),
    doc('<owl:Class rdf:ID="x"/><owl:DatatypeProperty rdf:ID="x"/>&undefined;'),
    doc('<owl:Class rdf:ID="x"/><owl:DatatypeProperty rdf:ID="x"/>&y;').replace(
        b"?>", b'?><!DOCTYPE r SYSTEM "r.dtd">', 1
    ),
    b'<x:Other xmlns:x="urn:x"><oops></x:Other>',
]

# an element with children below depth 4, where the root's is 1: the reader
# keeps elements down to depth 4, and must read nothing deeper
_DEEP = (
    '<owl:Class rdf:ID="Deep"><p rdf:resource="#Z"/><rdfs:subClassOf rdf:resource="#Z"/>'
    "</owl:Class>"
)
EDGE_DOCUMENTS += [
    doc(f'<owl:Class rdf:ID="A"><p rdf:resource="#B">{_DEEP}</p><q>{_DEEP}</q></owl:Class>'),
    doc(
        f'<owl:ObjectProperty rdf:ID="p"><rdfs:domain rdf:resource="#A">{_DEEP}</rdfs:domain>'
        f'<rdfs:range rdf:resource="#B">{_DEEP}</rdfs:range><rdfs:range>{_DEEP}</rdfs:range>'
        f'<owl:inverseOf rdf:resource="#q">{_DEEP}</owl:inverseOf></owl:ObjectProperty>'
        f'<owl:DatatypeProperty rdf:ID="d"><rdfs:domain>{_DEEP}</rdfs:domain>'
        f'<rdfs:range rdf:resource="#B">{_DEEP}</rdfs:range></owl:DatatypeProperty>'
    ),
    doc(
        f'<owl:Class rdf:ID="A"><rdfs:subClassOf><owl:Class rdf:ID="B">{_DEEP}</owl:Class>'
        f"</rdfs:subClassOf><owl:equivalentClass><owl:Class>{_DEEP}</owl:Class>"
        f'<owl:Class rdf:about="#C">{_DEEP}</owl:Class></owl:equivalentClass>'
        f'<rdfs:subClassOf><owl:Restriction>{_DEEP}</owl:Restriction>'
        f'<owl:Class rdf:ID="D"/></rdfs:subClassOf></owl:Class>'
    ),
    doc(
        f'<owl:Class rdf:ID="M"><owl:intersectionOf rdf:parseType="Collection">'
        f'<owl:Class rdf:about="#X">{_DEEP}</owl:Class><owl:Class>{_DEEP}</owl:Class>'
        f"<owl:Restriction>{_DEEP}</owl:Restriction></owl:intersectionOf>"
        f'<owl:intersectionOf rdf:parseType="Collection"><owl:Class rdf:about="#Y">'
        f'<owl:intersectionOf rdf:parseType="Collection">{_DEEP}</owl:intersectionOf>'
        f"</owl:Class></owl:intersectionOf></owl:Class>"
    ),
    doc(
        f'<owl:Ontology rdf:about=""><owl:imports rdf:resource="urn:o">{_DEEP}</owl:imports>'
        f"</owl:Ontology><owl:Restriction><owl:onProperty>{_DEEP}</owl:onProperty>"
        f"</owl:Restriction>"
    ),
]


def _reading(read, data: bytes, strict: bool):
    """Everything a reader gives: the model with the order of every dict and
    the warnings, or the exception's type and text."""
    try:
        m = read(data, strict)
    except (MalformedDocument, DuplicateIdentifier, UnsupportedConstruct) as exc:
        return type(exc), str(exc)
    return (
        list(m.classes.items()),
        list(m.properties.items()),
        list(m.holdings.items()),
        list(m.relations.items()),
        list(m.subclass_axioms.items()),
        m.equivalences,
        m.modifiers,
        m.normalized,
        m.parse_warnings,
    )


def test_reader_matches_the_element_tree_reference():
    """The streaming reader gives what the reader that built an ElementTree
    gave, on the fixtures, edge cases and generated documents with every
    recognized construct and each skipped one, strict and not."""
    documents = [fixture_bytes(name) for name in FIXTURE_NAMES] + EDGE_DOCUMENTS
    documents += [random_rdfxml(seed) for seed in range(1500)]
    outcomes, codes = set(), set()
    for strict in (False, True):
        for i, data in enumerate(documents):
            got = _reading(lambda d, s: parse_document(d, "rdfxml", strict=s), data, strict)
            assert got == _reading(reference_parse_rdfxml, data, strict), (i, strict)
            if isinstance(got[0], type):
                outcomes.add((got[0].__name__, got[1].startswith("XML syntax error")))
            else:
                outcomes.add("model")
                codes.update(w.code for w in got[-1])
    assert codes == {"unsupported-construct", "imports-ignored", "self-equivalence"}
    assert {
        "model",
        ("DuplicateIdentifier", False),
        ("UnsupportedConstruct", False),
        ("MalformedDocument", False),  # the root element
        ("MalformedDocument", True),
    } <= outcomes


def test_reader_holds_one_top_level_element_at_a_time(monkeypatch):
    """When a top-level element is read, the root keeps no other one: the
    earlier ones are let go, and the next one has not begun."""
    open_at_read = []
    top_level = ingest._RdfXmlParser._top_level

    def spy(self, *element):
        open_at_read.append(repr(self.path))
        top_level(self, *element)

    monkeypatch.setattr(ingest._RdfXmlParser, "_top_level", spy)
    body = "".join(
        f'<owl:Class rdf:ID="C{i}"><rdfs:subClassOf rdf:resource="#C{i + 1}"/></owl:Class>'
        for i in range(50)
    )
    m = parse_document(doc(body + '<owl:Ontology rdf:about=""/>'), "rdfxml")
    assert len(m.subclass_axioms) == 50
    assert open_at_read == ["[[]]"] * 51


def test_reader_leaves_no_reference_cycles():
    """The CLI runs with the cyclic collector off, so a parse must leave
    nothing only the collector could free."""
    documents = [fixture_bytes(name) for name in FIXTURE_NAMES] + [random_rdfxml(1)]
    gc.collect()
    gc.disable()
    try:
        for data in documents:
            parse_document(data, "rdfxml")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        parse_document(b"", "turtle")


# -- JSON ---------------------------------------------------------------------


def build_everything() -> OntologyModel:
    m = OntologyModel()
    m.touch_class("A", "http://x#A")
    m.touch_class("B")
    m.touch_class("C")
    m.declare_property("age", "datatype")
    m.declare_property("knows", "object")
    m.add_holding("age", "A")
    m.add_holding("age", "B", "equiv-property-copy")
    m.add_relation("knows", "A", "B")
    m.add_subclass("A", "C", "subclass-closure")
    m.add_equivalence("A", "B")
    m.add_modifier(RawModifier(SYMMETRIC, "knows"))
    m.add_modifier(RawModifier(INVERSE, "knows", counterpart="known_by"))
    m.add_modifier(RawModifier(INTERSECTION, "C", members=("A", "B")))
    return m


def test_json_round_trip_preserves_everything():
    m = build_everything()
    again = load_json(emit_json(m))
    assert model_state(again) == model_state(m)  # includes origins and iri


def test_empty_model_round_trip():
    m = load_json(emit_json(OntologyModel()))
    assert m.element_count() == 0


def test_unknown_top_level_key_warns():
    m = load_json(b'{"schema": "fuzzonto/1", "classes": [], "future": 1}')
    assert [w.code for w in m.parse_warnings] == ["unknown-key"]


def test_missing_schema_warns():
    m = load_json(b'{"classes": [{"name": "A"}]}')
    assert [w.code for w in m.parse_warnings] == ["missing-schema"]


def test_wrong_schema_rejected():
    with pytest.raises(MalformedDocument):
        load_json(b'{"schema": "fuzzonto/999"}')


@pytest.mark.parametrize(
    "payload",
    [
        b"not json",
        b"[1, 2]",
        b'{"schema": "fuzzonto/1", "classes": [{"iri": 3}]}',
        b'{"schema": "fuzzonto/1", "classes": "A"}',
        b'{"schema": "fuzzonto/1", "properties": [{"name": "p", "kind": "odd"}]}',
        b'{"schema": "fuzzonto/1", "modifiers": [{"kind": "weird", "target": "p"}]}',
        b'{"schema": "fuzzonto/1", "modifiers": [{"kind": "inverse", "target": "p"}]}',
        b'{"schema": "fuzzonto/1", "normalized": "yes"}',
    ],
)
def test_malformed_json_documents(payload):
    with pytest.raises(MalformedDocument):
        load_json(payload)


def test_normalized_document_must_not_carry_modifiers():
    with pytest.raises(MalformedDocument):
        load_json(
            b'{"schema": "fuzzonto/1", "properties": [{"name": "p", "kind": "object"}],'
            b' "modifiers": [{"kind": "symmetric", "target": "p"}], "normalized": true}'
        )


def test_json_self_equivalence_dropped():
    m = load_json(
        b'{"schema": "fuzzonto/1", "classes": [{"name": "A"}],'
        b' "equivalences": [{"a": "A", "b": "A"}]}'
    )
    assert not m.equivalences
    assert any(w.code == "self-equivalence" for w in m.parse_warnings)


def test_json_name_clash_between_class_and_property():
    with pytest.raises(DuplicateIdentifier):
        load_json(
            b'{"schema": "fuzzonto/1", "classes": [{"name": "x"}],'
            b' "properties": [{"name": "x", "kind": "object"}]}'
        )


# -- validation ------------------------------------------------------------------


def test_validate_clean_fixture_is_empty():
    assert validate_model(parse_fixture("inverse_ownership.owl")) == []


def test_validate_reports_dangling_class():
    m = OntologyModel()
    m.declare_property("knows", "object")
    m.add_relation("knows", "A", "B")
    diagnostics = validate_model(m)
    errors = [d for d in diagnostics if d.severity == "error"]
    assert {d.code for d in errors} == {"undeclared-class"}
    assert len(errors) == 2


def test_validate_reports_undeclared_property():
    m = OntologyModel()
    m.touch_class("A")
    m.add_holding("p", "A")
    assert any(d.code == "undeclared-property" for d in validate_model(m))


def test_validate_reports_unused_property():
    m = OntologyModel()
    m.declare_property("lonely", "datatype")
    assert [d.code for d in validate_model(m)] == ["property-unused"]


def test_validate_reports_undeclared_inverse_counterpart():
    m = OntologyModel()
    m.declare_property("p", "object")
    m.touch_class("A")
    m.touch_class("B")
    m.add_relation("p", "A", "B")
    m.add_modifier(RawModifier(INVERSE, "p", counterpart="ghost"))
    assert any(d.code == "undeclared-inverse" for d in validate_model(m))


def test_validate_flags_modifiers_in_normalized_model():
    m = OntologyModel()
    m.declare_property("p", "object")
    m.touch_class("A")
    m.touch_class("B")
    m.add_relation("p", "A", "B")
    m.add_modifier(RawModifier(SYMMETRIC, "p"))
    m.normalized = True
    assert any(d.code == "modifiers-in-normalized" for d in validate_model(m))


def test_validate_matches_the_sort_everything_oracle():
    """Filtering before sorting keeps every diagnostic and its order, on
    models with undeclared classes and properties in every position."""
    codes = set()
    for seed in range(300):
        m = undeclared_model(seed)
        diagnostics = validate_model(m)
        assert diagnostics == reference_validate_model(m), f"seed {seed}"
        codes.update(d.code for d in diagnostics)
    assert codes == {
        "undeclared-class",
        "undeclared-property",
        "undeclared-inverse",
        "self-equivalence",
        "property-unused",
        "property-kind-conflict",
        "modifiers-in-normalized",
    }
