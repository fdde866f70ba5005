from conftest import normalize_fixture
from fuzzonto import assign_all, normalize
from fuzzonto.membership import PART_OF, RELATION, ComplexKey
from fuzzonto.model import OntologyModel
from fuzzonto.rules import (
    check_consistency,
    check_runs,
    generate_rules,
    premise_runs,
    premise_text,
    rule_runs,
)
from randmodels import add_holding, add_relation, add_subclass, random_model


def annotated_fixture(name):
    return assign_all(normalize_fixture(name).model)


def codes(*results):
    """The diagnostic codes of each check result, as a tuple of lists."""
    return tuple([d.code for d in result] for result in results)


def printed(rules):
    """(premise text, conclusion, n) per (premise, conclusion, n) rule."""
    return [(premise_text(premise), conclusion, n) for premise, conclusion, n in rules]


def test_property_premise_yields_one_rule_per_holder():
    m = OntologyModel()
    m.touch_class("Man")
    m.touch_class("Woman")
    m.declare_property("hasAge", "datatype")
    add_holding(m, "hasAge", "Man")
    add_holding(m, "hasAge", "Woman")
    m.normalized = True
    rules = generate_rules(assign_all(m))
    assert printed(rules) == [
        ("hasAge", "Man", 2),
        ("hasAge", "Woman", 2),
    ]


def test_sole_subclass_yields_single_full_rule():
    rules = generate_rules(annotated_fixture("paris_france.owl"))
    assert printed(rules) == [("part_of France", "Paris", 1)]


def test_empty_model_has_no_rules():
    assert generate_rules(annotated_fixture("empty.owl")) == []


def test_rules_are_sorted_by_premise_then_conclusion():
    rules = generate_rules(annotated_fixture("symmetric_equivalent_combo.owl"))
    keys = [(text, conclusion) for text, conclusion, _ in printed(rules)]
    assert keys == sorted(keys)


def test_equivalence_widened_conclusions_share_mu():
    rules = generate_rules(annotated_fixture("equivalent_property_copy.owl"))
    by_premise = {}
    for text, conclusion, n in printed(rules):
        by_premise.setdefault(text, []).append((conclusion, n))
    assert {conclusion for conclusion, _ in by_premise["hasAge"]} == {"Human", "Person"}
    assert {n for _, n in by_premise["hasAge"]} == {1}


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
    rules = [("p", c, 2) for c in ("A", "B", "C")]
    runs = [(("p", 2), ("A", "B", "C"))]
    # the list entry point and the run entry point, side by side
    assert codes(check_consistency(rules, annotated), check_runs(runs, annotated)) == (
        ["identity-violation"],
        ["identity-violation"],
    )


def test_check_runs_sorts_violations_by_location():
    """Two violations from runs given out of premise order come back sorted
    by location."""
    annotated = annotated_fixture("empty.owl")
    runs = [(("q", 2), ("A",)), (("p", 3), ("A", "B"))]
    violations = check_runs(runs, annotated)
    assert [(v.code, v.location, v.message) for v in violations] == [
        ("identity-violation", "p", "premise 'p': mu=1/3 but 2 representative conclusions"),
        ("identity-violation", "q", "premise 'q': mu=1/2 but 1 representative conclusions"),
    ]


def test_consistency_flags_mixed_mu():
    annotated = annotated_fixture("empty.owl")
    rules = [("p", "A", 2), ("p", "B", 3)]
    # an n change splits the premise's rules into two runs, which the run
    # check merges again
    runs = [
        (("p", 2), ("A",)),
        (("p", 3), ("B",)),
    ]
    assert codes(check_consistency(rules, annotated), check_runs(runs, annotated)) == (
        ["mixed-mu"],
        ["mixed-mu"],
    )
    assert list(rule_runs(rules)) == runs


def test_consistency_tells_apart_premises_that_print_alike():
    """A predicate named part_of gives the relation key "part_of X", which
    prints like the subclass key "part_of X"; the two keys carry different mu
    values and neither is mixed."""
    m = OntologyModel()
    for name in ("A", "B", "C", "X"):
        m.touch_class(name)
    m.declare_property("part_of", "object")
    add_subclass(m, "A", "X")
    add_relation(m, "part_of", "B", "X")
    add_relation(m, "part_of", "C", "X")
    annotated = assign_all(normalize(m).model)
    rules = generate_rules(annotated)
    assert printed(rules) == [
        ("part_of X", "A", 1),
        ("part_of X", "B", 2),
        ("part_of X", "C", 2),
    ]
    assert check_consistency(rules, annotated) == []

    # a wrong n under either key is still caught, and reported by its text
    wrong = [rules[0], rules[1], (rules[2][0], "C", 3)]
    violations = check_consistency(wrong, annotated)
    assert [(v.code, v.location) for v in violations] == [("mixed-mu", "part_of X")]


def test_consistency_collapses_equivalent_conclusions():
    m = OntologyModel()
    for name in ("A", "B", "C"):
        m.touch_class(name)
    m.add_equivalence("A", "B")
    m.normalized = True
    annotated = assign_all(m)
    rules = [(ComplexKey(PART_OF, None, "X"), c, 2) for c in ("A", "B", "C")]
    assert check_consistency(rules, annotated) == []  # two groups: {A, B} and {C}


def sorted_entries_rules(annotated):
    """The plain definition: one (premise, conclusion, n) rule per (key,
    determiner) from entries(), sorted by (premise text, conclusion)."""
    rules = [
        (key, conclusion, entry.n)
        for _, key, entry in annotated.table.entries()
        for conclusion in entry.determiners
    ]
    return sorted(rules, key=lambda rule: (premise_text(rule[0]), rule[1]))


def alike_premises_model() -> OntologyModel:
    """Premises that print alike across and within kinds: the property
    "part_of X", the part_of key of X, the relation key of a predicate named
    part_of, and the relation keys ("a b", "c") and ("a", "b c")."""
    m = OntologyModel()
    for name in ("A", "B", "C", "D", "E", "X", "c", "b c"):
        m.touch_class(name)
    m.declare_property("part_of X", "datatype")
    add_holding(m, "part_of X", "B")
    add_holding(m, "part_of X", "E")
    add_subclass(m, "C", "X")
    add_subclass(m, "A", "X")
    m.declare_property("part_of", "object")
    add_relation(m, "part_of", "D", "X")
    add_relation(m, "part_of", "B", "X")
    m.declare_property("a b", "object")
    m.declare_property("a", "object")
    add_relation(m, "a b", "E", "c")
    add_relation(m, "a b", "A", "c")
    add_relation(m, "a", "A", "b c")
    add_relation(m, "a", "D", "b c")
    m.add_equivalence("D", "E")
    return m


def test_generate_rules_equals_sorted_entries_on_random_models():
    """premise_runs gives the maximal runs of the plain definition's rules,
    and the generate_rules shim those rules."""
    for seed in range(300):
        model = normalize(random_model(seed)).model
        for asserted_only in (False, True):
            annotated = assign_all(model, asserted_only=asserted_only)
            expected = sorted_entries_rules(annotated)
            where = f"seed {seed} asserted_only={asserted_only}"
            assert premise_runs(annotated) == list(rule_runs(expected)), where
            assert generate_rules(annotated) == expected, where


def test_generate_rules_merges_premises_that_print_alike():
    annotated = assign_all(normalize(alike_premises_model()).model)
    rules = sorted_entries_rules(annotated)
    runs = premise_runs(annotated)
    assert runs == list(rule_runs(rules))
    assert generate_rules(annotated) == rules
    assert check_runs(runs, annotated) == []

    def described(rule):
        premise, conclusion, _ = rule
        if isinstance(premise, str):
            return (premise, conclusion, "property")
        return (premise.text, conclusion, premise.kind, premise.predicate)

    # merged by conclusion; a tie keeps the table order: property, part_of,
    # then relations by predicate
    assert [described(r) for r in rules] == [
        ("a b c", "A", "relation", "a"),
        ("a b c", "A", "relation", "a b"),
        ("a b c", "D", "relation", "a"),
        ("a b c", "D", "relation", "a b"),
        ("a b c", "E", "relation", "a"),
        ("a b c", "E", "relation", "a b"),
        ("part_of X", "A", "part_of", None),
        ("part_of X", "B", "property"),
        ("part_of X", "B", "relation", "part_of"),
        ("part_of X", "C", "part_of", None),
        ("part_of X", "D", "property"),
        ("part_of X", "D", "relation", "part_of"),
        ("part_of X", "E", "property"),
        ("part_of X", "E", "relation", "part_of"),
    ]
    assert check_consistency(rules, annotated) == []

    # consecutive conclusions of one key among alike premises share a run
    m = alike_premises_model()
    for name in ("Y1", "Y2"):
        m.touch_class(name)
        add_subclass(m, name, "X")
    annotated = assign_all(normalize(m).model)
    runs = premise_runs(annotated)
    assert runs == list(rule_runs(sorted_entries_rules(annotated)))
    assert runs[-1] == ((ComplexKey(PART_OF, None, "X"), 4), ("Y1", "Y2"))


def test_consistency_merges_a_premise_split_over_non_adjacent_runs():
    annotated = annotated_fixture("empty.owl")
    split = [("p", "A", 2), ("q", "B", 1), ("p", "C", 2)]
    assert check_consistency(split, annotated) == []  # p has two conclusions

    mixed = split[:2] + [("p", "C", 3)]
    violations = check_consistency(mixed, annotated)
    assert [(v.code, v.location) for v in violations] == [("mixed-mu", "p")]


def test_consistency_merges_equal_but_not_identical_keys():
    annotated = annotated_fixture("empty.owl")
    first, second = ComplexKey(PART_OF, None, "X"), ComplexKey(PART_OF, None, "X")
    assert first == second and first is not second
    rules = [(first, "A", 2), (second, "B", 3)]
    violations = check_consistency(rules, annotated)
    assert [(v.code, v.location) for v in violations] == [("mixed-mu", "part_of X")]
    agreeing = [rules[0], (second, "B", 2)]
    assert check_consistency(agreeing, annotated) == []


def test_check_runs_without_groups_recounts_split_premises():
    """With no equivalence groups the check counts distinct conclusions
    itself: a premise split over two runs, adjacent or not, is still merged,
    a repeated conclusion counts once, and two mu values are mixed."""
    annotated = annotated_fixture("empty.owl")
    assert not annotated.groups
    key = ComplexKey(RELATION, "r", "X")
    half, third, one = 2, 3, 1  # n for mu = 1/2, 1/3 and 1
    cases = [
        ([((key, half), ("A",)), (("q", one), ("B",)), ((key, half), ("C",))], []),
        ([((key, half), ("A",)), ((key, half), ("A",))], ["identity-violation"]),
        ([((key, half), ("A", "A"))], ["identity-violation"]),
        ([((key, third), ("A", "B")), ((key, third), ("A",))], ["identity-violation"]),
        ([((key, half), ("A",)), (("q", one), ("B",)), ((key, third), ("C",))], ["mixed-mu"]),
        ([((key, half), ("A",)), ((key, half), ("A",)), ((key, third), ("C",))], ["mixed-mu"]),
    ]
    for runs, expected in cases:
        violations = check_runs(runs, annotated)
        assert [(v.code, v.location) for v in violations] == [(c, "r X") for c in expected], runs
        rules = [(premise, c, n) for (premise, n), conclusions in runs for c in conclusions]
        assert codes(check_consistency(rules, annotated)) == (expected,), runs
