import os
import random
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from conftest import FIXTURE_NAMES, normalize_fixture, parse_fixture
import fuzzonto
from fuzzonto import FixpointOverflow, OntologyModel, closure, emit_json, normalize
from fuzzonto.model import INTERSECTION, INVERSE, SYMMETRIC, TRANSITIVE, RawModifier
from fuzzonto.normalize import (
    DEFAULT_BOUND,
    RULE_EQUIV_PROPERTY,
    RULE_EQUIV_RELATION,
    RULE_INTERSECTION,
    RULE_INVERSE,
    RULE_RELATION_LIFT,
    RULE_SUBCLASS_CLOSURE,
    RULE_SYMMETRIC,
    RULE_TRANSITIVE,
    _close_subclass_hierarchy,
    _lift_relations,
    _propagate_equivalents,
    _rewrite_modifiers,
    _Run,
    _witness,
)
from randmodels import (
    brute_reachable,
    brute_witness,
    closed_pairs,
    intersection_model,
    model_facts,
    random_graph,
    random_model,
    reference_normalize,
    saturate,
)

NORMALIZE = sys.modules["fuzzonto.normalize"]  # fuzzonto.normalize is the function

# -- single rules ---------------------------------------------------------------


def apply(rule, m: OntologyModel, warnings=None) -> OntologyModel:
    """One private rule on a copy of m, from a fresh run with no bound; the
    original is left as it was.  The run's warnings go to warnings."""
    out = m.copy()
    run = _Run(out, True, 0)
    rule(out, run)
    if warnings is not None:
        warnings += run.warnings
    return out


rewrite = partial(apply, _rewrite_modifiers)
close = partial(apply, _close_subclass_hierarchy)
lift = partial(apply, _lift_relations)
propagate = partial(apply, _propagate_equivalents)


def test_rewrite_symmetric_swaps_subject_and_object():
    m = parse_fixture("symmetric_colleagues.owl")
    out = rewrite(m)
    assert set(out.relations) == {
        ("colleagueOf", "Programmer", "Engineer"),
        ("colleagueOf", "Engineer", "Programmer"),
    }
    assert not out.modifiers
    assert out.relations[("colleagueOf", "Engineer", "Programmer")] == RULE_SYMMETRIC


def test_rewrite_symmetric_self_relation_dedupes():
    m = OntologyModel()
    m.touch_class("A")
    m.declare_property("p", "object")
    m.add_relation("p", "A", "A")
    m.add_modifier(RawModifier(SYMMETRIC, "p"))
    out = rewrite(m)
    assert list(out.relations) == [("p", "A", "A")]


def test_rewrite_symmetric_identity_without_modifiers():
    m = parse_fixture("subclass_chain.owl")
    assert emit_json(rewrite(m)) == emit_json(m)


def test_rewrite_inverse_mirrors_assertions():
    m = parse_fixture("inverse_ownership.owl")
    out = rewrite(m)
    assert set(out.relations) == {
        ("owns", "Human", "Plane"),
        ("is_owed_by", "Plane", "Human"),
    }
    assert not out.modifiers


def test_rewrite_inverse_of_itself_acts_symmetric():
    m = OntologyModel()
    m.touch_class("A")
    m.touch_class("B")
    m.declare_property("p", "object")
    m.add_relation("p", "A", "B")
    m.add_modifier(RawModifier(INVERSE, "p", counterpart="p"))
    out = rewrite(m)
    assert set(out.relations) == {("p", "A", "B"), ("p", "B", "A")}


def test_rewrite_inverse_creates_missing_counterpart_with_warning():
    m = OntologyModel()
    m.touch_class("A")
    m.touch_class("B")
    m.declare_property("p", "object")
    m.add_relation("p", "A", "B")
    m.add_modifier(RawModifier(INVERSE, "p", counterpart="q"))
    warnings = []
    out = rewrite(m, warnings=warnings)
    assert out.properties["q"] == "object"
    assert [w.code for w in warnings] == ["undeclared-inverse"]


def test_rewrite_intersection_produces_subclass_axioms():
    m = parse_fixture("intersection_man.owl")
    out = rewrite(m)
    assert set(out.subclass_axioms) == {("Man", "Male"), ("Man", "Human")}
    assert not out.modifiers
    assert out.subclass_axioms[("Man", "Male")] == RULE_INTERSECTION


def test_rewrite_intersection_single_member():
    m = OntologyModel()
    m.touch_class("C")
    m.touch_class("M")
    m.add_modifier(RawModifier(INTERSECTION, "C", members=("M",)))
    out = rewrite(m)
    assert set(out.subclass_axioms) == {("C", "M")}


def test_intersection_listing_its_own_target_gives_no_self_subclass():
    """C = C ∩ D: the member C would be the vacuous C ⊑ C, so only C ⊑ D is
    derived, with one trace and no warning."""
    m = OntologyModel()
    m.touch_class("C")
    m.touch_class("D")
    m.add_modifier(RawModifier(INTERSECTION, "C", members=("C", "D")))
    result = normalize(m, trace=True)
    assert result.model.subclass_axioms == {("C", "D"): RULE_INTERSECTION}
    assert result.warnings == ()
    assert [(t.rule, t.produced) for t in result.traces] == [
        (RULE_INTERSECTION, "subclass C -> D")
    ]
    assert sum(result.tally.values()) == result.tally[RULE_INTERSECTION] == 1


def test_rewrite_intersection_empty_warns_and_drops():
    m = OntologyModel()
    m.touch_class("C")
    m.add_modifier(RawModifier(INTERSECTION, "C"))
    warnings = []
    out = rewrite(m, warnings=warnings)
    assert not out.modifiers
    assert not out.subclass_axioms
    assert [w.code for w in warnings] == ["empty-intersection"]


def test_rewrite_transitive_closes_chain():
    m = parse_fixture("transitive_areas.owl")
    out = rewrite(m)
    assert set(out.relations) == {
        ("subAreaOf", "Latgale", "Latvia"),
        ("subAreaOf", "Latvia", "EU"),
        ("subAreaOf", "Latgale", "EU"),
    }
    assert out.relations[("subAreaOf", "Latgale", "EU")] == RULE_TRANSITIVE
    assert not out.modifiers


def test_rewrite_transitive_four_chain_gives_six_pairs():
    m = OntologyModel()
    for name in "ABCD":
        m.touch_class(name)
    m.declare_property("p", "object")
    for sub, sup in [("A", "B"), ("B", "C"), ("C", "D")]:
        m.add_relation("p", sub, sup)
    m.add_modifier(RawModifier(TRANSITIVE, "p"))
    out = rewrite(m)
    assert len(out.relations) == 6


def test_rewrite_transitive_single_pair_unchanged():
    m = OntologyModel()
    m.touch_class("A")
    m.touch_class("B")
    m.declare_property("p", "object")
    m.add_relation("p", "A", "B")
    m.add_modifier(RawModifier(TRANSITIVE, "p"))
    out = rewrite(m)
    assert list(out.relations) == [("p", "A", "B")]


def test_close_subclass_hierarchy_adds_transitive_axiom():
    m = parse_fixture("subclass_chain.owl")
    out = close(m)
    assert set(out.subclass_axioms) == {
        ("House", "City"),
        ("City", "Country"),
        ("House", "Country"),
    }
    assert out.subclass_axioms[("House", "Country")] == RULE_SUBCLASS_CLOSURE
    assert out.subclass_axioms[("House", "City")] == "asserted"


def test_close_subclass_hierarchy_single_axiom_unchanged():
    m = OntologyModel()
    m.touch_class("A")
    m.touch_class("B")
    m.add_subclass("A", "B")
    assert emit_json(close(m)) == emit_json(m)


def test_close_subclass_hierarchy_cycle_becomes_equivalence():
    m = OntologyModel()
    m.touch_class("A")
    m.touch_class("B")
    m.add_subclass("A", "B")
    m.add_subclass("B", "A")
    warnings = []
    out = close(m, warnings=warnings)
    assert set(out.subclass_axioms) == {("A", "B"), ("B", "A")}  # no self-axioms
    assert out.equivalences == {("A", "B")}
    assert [w.code for w in warnings] == ["cyclic-hierarchy"]


def test_close_subclass_hierarchy_drops_self_axiom():
    m = OntologyModel()
    m.touch_class("A")
    m.add_subclass("A", "A")
    warnings = []
    out = close(m, warnings=warnings)
    assert not out.subclass_axioms
    assert not out.equivalences
    assert [w.code for w in warnings] == ["self-subclass"]


def test_propagate_equivalents_copies_holdings():
    m = parse_fixture("equivalent_property_copy.owl")
    out = propagate(m)
    assert set(out.holdings) == {("hasAge", "Person"), ("hasAge", "Human")}
    assert out.holdings[("hasAge", "Human")] == RULE_EQUIV_PROPERTY
    assert out.holdings[("hasAge", "Person")] == "asserted"


def test_propagate_equivalents_copies_subject_relations_across_group():
    m = OntologyModel()
    for name in ("A", "B", "C", "Plane"):
        m.touch_class(name)
    m.declare_property("owns", "object")
    m.add_relation("owns", "A", "Plane")
    m.add_equivalence("A", "B")
    m.add_equivalence("B", "C")
    out = propagate(m)
    assert set(out.relations) == {
        ("owns", "A", "Plane"),
        ("owns", "B", "Plane"),
        ("owns", "C", "Plane"),
    }
    assert out.relations[("owns", "B", "Plane")] == RULE_EQUIV_RELATION


def test_propagate_equivalents_identity_without_equivalences():
    m = parse_fixture("relation_lift.owl")
    assert emit_json(propagate(m)) == emit_json(m)


def test_lift_relations_walks_object_up_the_hierarchy():
    m = parse_fixture("relation_lift.owl")
    out = lift(m)
    assert set(out.relations) == {
        ("livesIn", "Man", "House"),
        ("livesIn", "Man", "City"),
    }
    assert out.relations[("livesIn", "Man", "City")] == RULE_RELATION_LIFT


def test_lift_relations_uses_closed_hierarchy():
    m = close(parse_fixture("subclass_chain.owl"))
    m.declare_property("livesIn", "object")
    m.touch_class("Man")
    m.add_relation("livesIn", "Man", "House")
    out = lift(m)
    assert ("livesIn", "Man", "City") in out.relations
    assert ("livesIn", "Man", "Country") in out.relations


def test_lift_relations_never_touches_subjects():
    m = OntologyModel()
    for name in ("Sub", "Sup", "X"):
        m.touch_class(name)
    m.declare_property("r", "object")
    m.add_subclass("Sub", "Sup")
    m.add_relation("r", "Sub", "X")
    out = lift(m)
    assert set(out.relations) == {("r", "Sub", "X")}


# -- fixpoint driver -------------------------------------------------------------


def test_normalize_flags_and_strips_modifiers():
    for name in FIXTURE_NAMES:
        result = normalize_fixture(name)
        assert result.model.normalized, name
        assert not result.model.modifiers, name


def test_normalize_crosses_stages():
    result = normalize_fixture("symmetric_equivalent_combo.owl")
    assert set(result.model.relations) == {
        ("colleagueOf", "Programmer", "Engineer"),
        ("colleagueOf", "Coder", "Engineer"),
        ("colleagueOf", "Engineer", "Programmer"),
        ("colleagueOf", "Engineer", "Coder"),
    }
    assert result.passes >= 2  # stage-2 output re-enabled stage 1


def test_normalize_is_idempotent_on_fixtures():
    for name in FIXTURE_NAMES:
        once = normalize_fixture(name).model
        twice = normalize(once).model
        assert emit_json(twice) == emit_json(once), name


def test_normalize_is_idempotent_on_random_models():
    for seed in range(60):
        once = normalize(random_model(seed)).model
        assert emit_json(normalize(once).model) == emit_json(once), f"seed {seed}"


def test_normalize_is_deterministic():
    for seed in range(30):
        a = normalize(random_model(seed)).model
        b = normalize(random_model(seed)).model
        assert emit_json(a) == emit_json(b), f"seed {seed}"


def test_normalize_keeps_asserted_elements():
    for seed in range(60):
        m = random_model(seed)
        out = normalize(m).model
        assert set(m.classes) <= set(out.classes), f"seed {seed}"
        assert set(m.relations) <= set(out.relations), f"seed {seed}"
        assert set(m.holdings) <= set(out.holdings), f"seed {seed}"


def test_normalized_subclass_set_is_closed():
    for seed in range(60):
        out = normalize(random_model(seed)).model
        axioms = set(out.subclass_axioms)
        closed = {(a, c) for (a, b) in axioms for (b2, c) in axioms if b == b2 and a != c}
        assert closed <= axioms, f"seed {seed}"


def test_traces_are_one_per_derived_element():
    for name in FIXTURE_NAMES:
        result = normalize_fixture(name)
        produced = [t.produced for t in result.traces]
        assert len(produced) == len(set(produced)), name
        derived = (
            sum(1 for o in result.model.holdings.values() if o != "asserted")
            + sum(1 for o in result.model.relations.values() if o != "asserted")
            + sum(1 for o in result.model.subclass_axioms.values() if o != "asserted")
        )
        equivalence_traces = sum(
            1 for t in result.traces if t.produced.startswith("equivalence")
        )
        assert len(result.traces) == derived + equivalence_traces, name


def test_trace_tally_counts_every_rule():
    result = normalize_fixture("transitive_areas.owl")
    assert result.tally[RULE_TRANSITIVE] == 1
    assert result.tally[RULE_SYMMETRIC] == 0
    assert result.tally[RULE_INVERSE] == 0
    assert sorted(result.tally) == sorted(
        [
            RULE_EQUIV_PROPERTY,
            RULE_EQUIV_RELATION,
            RULE_SUBCLASS_CLOSURE,
            RULE_RELATION_LIFT,
            RULE_SYMMETRIC,
            RULE_INVERSE,
            RULE_INTERSECTION,
            RULE_TRANSITIVE,
        ]
    )


def test_trace_sources_reference_output_elements():
    result = normalize_fixture("subclass_chain.owl")
    (trace,) = [t for t in result.traces if t.rule == RULE_SUBCLASS_CLOSURE]
    assert trace.produced == "subclass House -> Country"
    assert trace.sources == ("subclass House -> City", "subclass City -> Country")


def test_fixpoint_overflow_on_tiny_budget():
    with pytest.raises(FixpointOverflow):
        normalize(parse_fixture("subclass_chain.owl"), bound=2)


def test_closure_past_the_budget_reports_a_count_past_the_bound():
    """A 500-class chain has 999 elements and its closure 124,750 axioms: the
    kernel stops once the pairs pass the room left in the budget, and the
    count reported is past the bound, not the count before the closure."""
    m = OntologyModel()
    names = [f"C{i:03d}" for i in range(500)]
    for name in names:
        m.touch_class(name)
    for sub, sup in zip(names[1:], names):
        m.add_subclass(sub, sup)
    with pytest.raises(FixpointOverflow) as exc:
        normalize(m)
    assert exc.value.bound == DEFAULT_BOUND
    assert exc.value.count > DEFAULT_BOUND
    # a bound the closed model meets exactly is no overflow
    assert normalize(m, bound=500 + 124_750).model.element_count() == 500 + 124_750
    # nor is one that only the dropped self-pairs of a cycle would pass:
    # 3 classes, 6 axioms and 2 equivalences, from 9 closure pairs
    cycle = OntologyModel()
    for sub, sup in (("A", "B"), ("B", "C"), ("C", "A")):
        cycle.touch_class(sub)
        cycle.add_subclass(sub, sup)
    assert normalize(cycle, bound=11).model.element_count() == 11
    with pytest.raises(FixpointOverflow) as exc:
        normalize(cycle, bound=10)
    assert exc.value.count == 11


def test_budget_refuses_the_batch_that_crosses_it():
    """The equivalence copy adds 5 holdings and crosses the bound; the pass
    would go on to mirror 3 relations, but the overflow comes at the copy
    and reports the count with its batch.  The modifier is no element of
    the output and never counts, so a bound equal to the output's count is
    not crossed."""
    m = OntologyModel()
    for name in ("A", "B", "X", "Y", "Z"):
        m.touch_class(name)
    m.add_equivalence("A", "B")
    for k in range(5):
        m.declare_property(f"p{k}", "datatype")
        m.add_holding(f"p{k}", "A")
    m.declare_property("r", "object")
    for subject, obj in (("X", "Y"), ("Y", "Z"), ("X", "Z")):
        m.add_relation("r", subject, obj)
    m.add_modifier(RawModifier(SYMMETRIC, "r"))
    before = m.element_count()  # the modifier's 1 included
    with pytest.raises(FixpointOverflow) as exc:
        normalize(m, bound=before + 3)
    assert exc.value.count == before + 4
    # the input past the bound is refused before any rule runs
    with pytest.raises(FixpointOverflow) as exc:
        normalize(m, bound=before - 2)
    assert exc.value.count == before - 1
    assert normalize(m, bound=before + 7).model.element_count() == before + 7
    with pytest.raises(FixpointOverflow) as exc:
        normalize(m, bound=before + 6)
    assert exc.value.count == before + 7


def test_a_bound_equal_to_the_output_count_fits():
    """Every count on the way is at most the output's, so a bound equal to
    the output's element count passes and one less overflows, on models with
    modifiers and self-subclass axioms, which the output never holds."""
    for make in (random_model, intersection_model):
        for seed in range(200):
            m = make(seed)
            n = normalize(m, bound=0).model.element_count()
            label = f"{make.__name__}({seed})"
            assert normalize(m, bound=n).model.element_count() == n, label
            with pytest.raises(FixpointOverflow) as exc:
                normalize(m, bound=n - 1)
            assert exc.value.count == n, label


def test_output_is_sound_against_the_rule_table():
    """Every element of the output follows from the input by the rules of
    randmodels.RULES, whose naive evaluator shares no code with normalize.
    The saturation may hold more: completeness is not asserted, since the
    modifiers are applied in pass 1 only."""
    models = [(name, parse_fixture(name)) for name in FIXTURE_NAMES]
    for make in (random_model, intersection_model):
        models += [(f"{make.__name__}({seed})", make(seed)) for seed in range(200)]
    for label, m in models:
        out = normalize(m, bound=0).model
        assert not out.modifiers, label
        assert model_facts(out) <= saturate(model_facts(m)), label


def test_transitive_closure_matches_oracle_through_normalize():
    for seed in range(40):
        m = OntologyModel()
        n, edges = 8, []
        rng = random.Random(10_000 + seed)
        for i in range(n):
            m.touch_class(f"N{i}")
        m.declare_property("p", "object")
        for _ in range(rng.randint(0, 12)):
            a, b = rng.randrange(n), rng.randrange(n)
            edges.append((a, b))
            m.add_relation("p", f"N{a}", f"N{b}")
        m.add_modifier(RawModifier(TRANSITIVE, "p"))
        out = normalize(m).model
        got = {(int(subject[1:]), int(obj[1:])) for _, subject, obj in out.relations}
        assert got == brute_reachable(edges), f"seed {seed}"


def test_witness_matches_scanning_oracle():
    seen = {"none": 0, "self_loop": 0, "cycle": 0, "isolated": 0}
    for seed in range(400):
        n, edges = random_graph(seed, max_nodes=16)
        reach = closure.reachable_pairs(n, edges)
        pairs = closed_pairs(reach)
        pairset = set(pairs)
        rows = reach.rows
        assert {(u, v) for u in range(n) for v in range(n) if rows[u] >> v & 1} == pairset
        for u, v in pairs:
            expected = brute_witness(u, v, pairset)
            assert _witness(rows, u, v) == expected, f"seed {seed}: ({u}, {v})"
            seen["none"] += expected is None
        touched = {x for edge in edges for x in edge}
        seen["self_loop"] += any(u == v for u, v in edges)
        seen["cycle"] += any(u != v and (v, u) in pairset for u, v in pairs)
        seen["isolated"] += len(touched) < n
    assert all(seen.values()), seen


def test_normalize_matches_full_reevaluation_reference(monkeypatch):
    """The delta-driven driver against reference_normalize: same model with
    origins, same traces in the same order, same pass count, tally and
    warnings (the reference repeats a cycle warning on every pass)."""
    lift = NORMALIZE._lift_relations
    late_lifts = []

    def spy(m, run):
        lifted, seen = run.lifted
        late = lifted > 0 and len(m.subclass_axioms) > seen
        changed = lift(m, run)
        late_lifts.append(late and changed)
        return changed

    monkeypatch.setattr(NORMALIZE, "_lift_relations", spy)
    for make in (random_model, intersection_model):
        for seed in range(2000):
            m = make(seed)
            model, traces, warnings, passes, tally = reference_normalize(m)
            got = normalize(m, trace=True)
            label = f"{make.__name__}({seed})"
            assert emit_json(got.model) == emit_json(model), label
            assert got.traces == traces, label
            assert got.passes == passes, label
            assert got.tally == tally, label
            assert list(got.warnings) == list(dict.fromkeys(warnings)), label
    # lifts that met axioms newer than the relations before them, and added
    assert sum(late_lifts) > 100, sum(late_lifts)


def test_trace_off_changes_nothing_but_the_traces():
    for make in (random_model, intersection_model):
        for seed in range(500):
            traced = normalize(make(seed), trace=True)
            plain = normalize(make(seed))
            label = f"{make.__name__}({seed})"
            assert plain.traces == (), label
            assert emit_json(plain.model) == emit_json(traced.model), label
            assert plain.tally == traced.tally, label
            assert plain.passes == traced.passes, label
            assert plain.warnings == traced.warnings, label
            # one trace per counted derivation, rule by rule
            per_rule = Counter(t.rule for t in traced.traces)
            assert {rule: per_rule[rule] for rule in traced.tally} == traced.tally, label


def test_traces_do_not_depend_on_hash_seed():
    script = (
        "from fuzzonto import emit, normalize\n"
        "from randmodels import random_model, traces_to_obj\n"
        "for seed in range(100):\n"
        "    result = normalize(random_model(seed), trace=True)\n"
        "    print(emit.dump_json(traces_to_obj(result.traces)).decode())\n"
        "    print([w.render() for w in result.warnings])\n"
    )
    path = os.pathsep.join(
        [str(Path(__file__).parent), str(Path(fuzzonto.__file__).parents[1])]
    )

    def dump(hash_seed: str) -> str:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        return subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout

    assert dump("1") == dump("2")


def test_untraced_output_does_not_depend_on_hash_seed():
    # without --trace, elements go in in scan order, not sorted: the bytes
    # must still not depend on set iteration order
    script = (
        "from fuzzonto import assign_all, emit, normalize\n"
        "from fuzzonto.rules import generate_rules\n"
        "from randmodels import intersection_model, random_model\n"
        "for make in (random_model, intersection_model):\n"
        "    for seed in range(100):\n"
        "        model = normalize(make(seed)).model\n"
        "        print(emit.emit_json(model).decode())\n"
        "        print(emit.rules_to_json(generate_rules(assign_all(model))).decode())\n"
    )
    path = os.pathsep.join(
        [str(Path(__file__).parent), str(Path(fuzzonto.__file__).parents[1])]
    )

    def dump(hash_seed: str) -> str:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        return subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout

    assert dump("1") == dump("2")


def test_cycle_is_warned_once_per_run():
    m = OntologyModel()
    for name in "ABCD":
        m.touch_class(name)
    m.add_subclass("A", "B")
    m.add_subclass("B", "A")
    result = normalize(m)
    assert [w.code for w in result.warnings] == ["cyclic-hierarchy"]
    assert result.model.equivalences == {("A", "B")}

    # the intersection adds axioms in pass 1, so the closure runs again in
    # pass 2 and meets the same cycle
    m.add_modifier(RawModifier(INTERSECTION, "C", members=("A", "D")))
    result = normalize(m)
    assert result.passes == 3
    assert ("C", "B") in result.model.subclass_axioms
    assert [w.code for w in result.warnings] == ["cyclic-hierarchy"]
