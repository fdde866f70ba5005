import fuzzonto
from fuzzonto import emit_json
from fuzzonto.model import OntologyModel, RawModifier


def build_small():
    m = OntologyModel()
    m.touch_class("A")
    m.touch_class("B")
    m.declare_property("p", "datatype")
    m.add_holding("p", "A")
    m.add_subclass("A", "B")
    return m


def test_first_derivation_wins():
    m = build_small()
    assert not m.add_holding("p", "A", "something-derived")
    assert m.holdings[("p", "A")] == "asserted"
    assert m.add_holding("p", "B", "something-derived")
    assert m.holdings[("p", "B")] == "something-derived"


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
    clone.add_holding("p", "B")
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
