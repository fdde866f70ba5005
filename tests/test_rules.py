from fractions import Fraction

from conftest import normalize_fixture
from fuzzonto import assign_all, check_consistency, generate_rules, normalize
from fuzzonto.membership import ComplexKey
from fuzzonto.model import OntologyModel
from fuzzonto.rules import FuzzyRule
from randmodels import random_model


def annotated_fixture(name):
    return assign_all(normalize_fixture(name).model)


def test_property_premise_yields_one_rule_per_holder():
    m = OntologyModel()
    m.touch_class("Man")
    m.touch_class("Woman")
    m.declare_property("hasAge", "datatype")
    m.add_holding("hasAge", "Man")
    m.add_holding("hasAge", "Woman")
    m.normalized = True
    rules = generate_rules(assign_all(m))
    assert [(r.premise_text, r.conclusion, r.mu) for r in rules] == [
        ("hasAge", "Man", Fraction(1, 2)),
        ("hasAge", "Woman", Fraction(1, 2)),
    ]
    assert all(r.category == "identifying" for r in rules)


def test_sole_subclass_yields_single_full_rule():
    rules = generate_rules(annotated_fixture("paris_france.owl"))
    assert len(rules) == 1
    rule = rules[0]
    assert rule.premise_text == "part_of France"
    assert rule.conclusion == "Paris"
    assert rule.mu == Fraction(1)


def test_empty_model_has_no_rules():
    assert generate_rules(annotated_fixture("empty.owl")) == []


def test_rules_are_sorted_by_premise_then_conclusion():
    rules = generate_rules(annotated_fixture("symmetric_equivalent_combo.owl"))
    keys = [(r.premise_text, r.conclusion) for r in rules]
    assert keys == sorted(keys)


def test_equivalence_widened_conclusions_share_mu():
    rules = generate_rules(annotated_fixture("equivalent_property_copy.owl"))
    by_premise = {}
    for r in rules:
        by_premise.setdefault(r.premise_text, []).append(r)
    assert {r.conclusion for r in by_premise["hasAge"]} == {"Human", "Person"}
    assert {r.mu for r in by_premise["hasAge"]} == {Fraction(1)}


def test_consistency_holds_on_generator_output():
    for name in (
        "paris_france.owl",
        "transitive_areas.owl",
        "symmetric_equivalent_combo.owl",
        "subclass_chain.owl",
    ):
        annotated = annotated_fixture(name)
        assert check_consistency(generate_rules(annotated), annotated) == []


def test_consistency_holds_on_random_models():
    for seed in range(60):
        annotated = assign_all(normalize(random_model(seed)).model)
        assert check_consistency(generate_rules(annotated), annotated) == [], (
            f"seed {seed}"
        )


def test_consistency_flags_wrong_denominator():
    annotated = annotated_fixture("empty.owl")
    rules = [
        FuzzyRule(premise="p", conclusion=c, mu=Fraction(1, 2)) for c in ("A", "B", "C")
    ]
    violations = check_consistency(rules, annotated)
    assert [v.code for v in violations] == ["identity-violation"]


def test_consistency_flags_mixed_mu():
    annotated = annotated_fixture("empty.owl")
    rules = [
        FuzzyRule(premise="p", conclusion="A", mu=Fraction(1, 2)),
        FuzzyRule(premise="p", conclusion="B", mu=Fraction(1, 3)),
    ]
    assert [v.code for v in check_consistency(rules, annotated)] == ["mixed-mu"]


def test_consistency_tells_apart_premises_that_print_alike():
    """A predicate named part_of gives the relation key "part_of X", which
    prints like the subclass key "part_of X"; the two keys carry different mu
    values and neither is mixed."""
    m = OntologyModel()
    for name in ("A", "B", "C", "X"):
        m.touch_class(name)
    m.declare_property("part_of", "object")
    m.add_subclass("A", "X")
    m.add_relation("part_of", "B", "X")
    m.add_relation("part_of", "C", "X")
    annotated = assign_all(normalize(m).model)
    rules = generate_rules(annotated)
    assert [(r.premise_text, r.conclusion, r.mu) for r in rules] == [
        ("part_of X", "A", Fraction(1)),
        ("part_of X", "B", Fraction(1, 2)),
        ("part_of X", "C", Fraction(1, 2)),
    ]
    assert check_consistency(rules, annotated) == []

    # a wrong mu under either key is still caught, and reported by its text
    wrong = [rules[0], rules[1], FuzzyRule(rules[2].premise, "C", Fraction(1, 3))]
    violations = check_consistency(wrong, annotated)
    assert [(v.code, v.location) for v in violations] == [("mixed-mu", "part_of X")]


def test_consistency_collapses_equivalent_conclusions():
    m = OntologyModel()
    for name in ("A", "B", "C"):
        m.touch_class(name)
    m.add_equivalence("A", "B")
    m.normalized = True
    annotated = assign_all(m)
    rules = [
        FuzzyRule(premise=ComplexKey.part_of("X"), conclusion=c, mu=Fraction(1, 2))
        for c in ("A", "B", "C")
    ]
    assert check_consistency(rules, annotated) == []  # representatives are {A, C}


def test_each_premise_is_rendered_once_per_run():
    """Every read of a complex premise's text returns the one string rendered
    for its key, however many rules share the key."""
    for seed in range(50):
        annotated = assign_all(normalize(random_model(seed)).model)
        rules = generate_rules(annotated)
        assert check_consistency(rules, annotated) == []
        complex_rules = [r for r in rules if isinstance(r.premise, ComplexKey)]
        texts = [r.premise_text for r in complex_rules * 2]  # all kept alive
        assert len({id(text) for text in texts}) == len(
            {r.premise for r in complex_rules}
        ), seed
