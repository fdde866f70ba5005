import json
import types
from pathlib import Path

import fuzzonto
from fuzzonto import emit_json, normalize
from fuzzonto.model import SYMMETRIC, OntologyModel, RawModifier
from fuzzonto.staged import load_json
from randmodels import add_holding, add_relation, add_subclass


def build_small():
    m = OntologyModel()
    m.touch_class("A")
    m.touch_class("B")
    m.declare_property("p", "datatype")
    add_holding(m, "p", "A")
    add_subclass(m, "A", "B")
    return m


def test_first_derivation_wins():
    """An element keeps the origin it went in with: the JSON reader keeps a
    repeated element's first origin, and a rule never rewrites the origin of
    an element that is present."""
    doc = json.loads(emit_json(build_small()))
    doc["holdings"].append({**doc["holdings"][0], "origin": "something-derived"})
    assert load_json(json.dumps(doc).encode()).holdings == {("p", "A"): "asserted"}

    m = OntologyModel()
    m.declare_property("r", "object")
    add_relation(m, "r", "A", "B")
    add_relation(m, "r", "B", "A")
    m.add_modifier(RawModifier(SYMMETRIC, "r"))
    result = normalize(m)
    assert set(result.model.relations.values()) == {"asserted"}
    assert result.tally["symmetric-expand"] == 0


def test_equivalence_pairs_are_canonical_and_self_free():
    m = OntologyModel()
    assert m.add_equivalence("B", "A")
    assert ("A", "B") in m.equivalences
    assert not m.add_equivalence("A", "B")  # same pair, other order
    assert not m.add_equivalence("A", "A")


def test_touch_class_upgrades_iri_once():
    m = OntologyModel()
    m.touch_class("X")
    assert m.classes["X"] is None
    m.touch_class("X", "http://a#X")
    assert m.classes["X"] == "http://a#X"
    m.touch_class("X", "http://b#X")
    assert m.classes["X"] == "http://a#X"


def test_copy_is_independent():
    m = build_small()
    clone = m.copy()
    add_holding(clone, "p", "B")
    clone.add_modifier(RawModifier("symmetric", "q"))
    assert ("p", "B") not in m.holdings
    assert not m.modifiers
    assert emit_json(m) == emit_json(build_small())


def test_counts():
    counts = build_small().counts()
    assert counts["classes"] == 2
    assert counts["holdings"] == 1
    assert counts["subclass"] == 1
    assert counts["total"] == 4


def test_every_public_name_resolves():
    assert len(set(fuzzonto.__all__)) == len(fuzzonto.__all__)
    assert [name for name in fuzzonto.__all__ if not hasattr(fuzzonto, name)] == []


def test_the_package_root_holds_only_documented_names():
    """Every public name at the root is in __all__ and in the README; the
    membership helpers, the table and entry types and decimal6 live in
    their modules."""
    public = {
        name
        for name, value in vars(fuzzonto).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(fuzzonto.__all__)
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert [name for name in fuzzonto.__all__ if f"`{name}`" not in readme] == []
