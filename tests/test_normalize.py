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
from fuzzonto import FixpointOverflow, OntologyModel, emit_json, normalize
from fuzzonto.model import (
    INTERSECTION,
    INVERSE,
    SYMMETRIC,
    TRANSITIVE,
    RawModifier,
    el_equivalence,
    el_holding,
    el_modifier,
    el_relation,
    el_subclass,
)
from fuzzonto.normalize import (
    DEFAULT_BOUND,
    RULES,
    _close_subclass_hierarchy,
    _lift_relations,
    _propagate_equivalents,
    _rewrite_modifiers,
    _Run,
)
from fuzzonto.trace import traces
import randmodels
from randmodels import (
    add_holding,
    add_relation,
    add_subclass,
    brute_groups,
    brute_reachable,
    intersection_model,
    model_facts,
    modifier_facts,
    random_model,
    reference_normalize,
    rule_step,
    saturate,
    scan_traces,
)

NORMALIZE = sys.modules["fuzzonto.normalize"]  # fuzzonto.normalize is the function

# -- single rules ---------------------------------------------------------------


def apply(rule, m: OntologyModel, warnings=None) -> OntologyModel:
    """One private rule on a copy of m, from a fresh run with no bound; the
    original is left as it was.  The run's warnings go to warnings."""
    out = m.copy()
    run = _Run(out, 0)
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
    assert out.relations[("colleagueOf", "Engineer", "Programmer")] == "symmetric-expand"


def test_rewrite_symmetric_self_relation_dedupes():
    m = OntologyModel()
    m.touch_class("A")
    m.declare_property("p", "object")
    add_relation(m, "p", "A", "A")
    m.add_modifier(RawModifier(SYMMETRIC, "p"))
    out = rewrite(m)
    assert list(out.relations) == [("p", "A", "A")]


def test_rewrite_symmetric_identity_without_modifiers():
    m = parse_fixture("subclass_chain.owl")
    assert emit_json(rewrite(m)) == emit_json(m)


def test_stage_2_takes_the_modifiers_by_kind_then_by_key():
    """Symmetric, inverse, intersection, then transitive, so that a closure
    sees what the mirrors added; within a kind, in RawModifier.key order."""
    m = OntologyModel()
    mods = []
    for name in "ecadb":
        mods.append(RawModifier(TRANSITIVE, "t" + name))
        mods.append(RawModifier(INTERSECTION, "C" + name, members=("A", "B" + name)))
        mods.append(RawModifier(INVERSE, "i" + name, "j" + name))
        mods.append(RawModifier(SYMMETRIC, "s" + name))
    m.modifiers = set(mods)
    run = _Run(m, 0)
    mods.sort(key=RawModifier.key)
    kinds = (SYMMETRIC, INVERSE, INTERSECTION, TRANSITIVE)
    assert run.modifiers == [mod for kind in kinds for mod in mods if mod.kind == kind]
    assert not m.modifiers


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
    add_relation(m, "p", "A", "B")
    m.add_modifier(RawModifier(INVERSE, "p", counterpart="p"))
    out = rewrite(m)
    assert set(out.relations) == {("p", "A", "B"), ("p", "B", "A")}


def test_rewrite_inverse_creates_missing_counterpart_with_warning():
    m = OntologyModel()
    m.touch_class("A")
    m.touch_class("B")
    m.declare_property("p", "object")
    add_relation(m, "p", "A", "B")
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
    assert out.subclass_axioms[("Man", "Male")] == "intersection-to-subclass"


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
    result = normalize(m)
    assert result.model.subclass_axioms == {("C", "D"): "intersection-to-subclass"}
    assert result.warnings == ()
    assert [(t.rule, t.produced) for t in traces(result)] == [
        ("intersection-to-subclass", "subclass C -> D")
    ]
    assert sum(result.tally.values()) == result.tally["intersection-to-subclass"] == 1


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
    assert out.relations[("subAreaOf", "Latgale", "EU")] == "transitive-close"
    assert not out.modifiers


def test_rewrite_transitive_four_chain_gives_six_pairs():
    m = OntologyModel()
    for name in "ABCD":
        m.touch_class(name)
    m.declare_property("p", "object")
    for sub, sup in [("A", "B"), ("B", "C"), ("C", "D")]:
        add_relation(m, "p", sub, sup)
    m.add_modifier(RawModifier(TRANSITIVE, "p"))
    out = rewrite(m)
    assert len(out.relations) == 6


def test_rewrite_transitive_single_pair_unchanged():
    m = OntologyModel()
    m.touch_class("A")
    m.touch_class("B")
    m.declare_property("p", "object")
    add_relation(m, "p", "A", "B")
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
    assert out.subclass_axioms[("House", "Country")] == "subclass-closure"
    assert out.subclass_axioms[("House", "City")] == "asserted"


def test_close_subclass_hierarchy_single_axiom_unchanged():
    m = OntologyModel()
    m.touch_class("A")
    m.touch_class("B")
    add_subclass(m, "A", "B")
    assert emit_json(close(m)) == emit_json(m)


def test_close_subclass_hierarchy_cycle_becomes_equivalence():
    m = OntologyModel()
    m.touch_class("A")
    m.touch_class("B")
    add_subclass(m, "A", "B")
    add_subclass(m, "B", "A")
    warnings = []
    out = close(m, warnings=warnings)
    assert set(out.subclass_axioms) == {("A", "B"), ("B", "A")}  # no self-axioms
    assert out.equivalences == {("A", "B")}
    assert [w.code for w in warnings] == ["cyclic-hierarchy"]


def test_close_subclass_hierarchy_drops_self_axiom():
    m = OntologyModel()
    m.touch_class("A")
    add_subclass(m, "A", "A")
    warnings = []
    out = close(m, warnings=warnings)
    assert not out.subclass_axioms
    assert not out.equivalences
    assert [w.code for w in warnings] == ["self-subclass"]


def test_propagate_equivalents_copies_holdings():
    m = parse_fixture("equivalent_property_copy.owl")
    out = propagate(m)
    assert set(out.holdings) == {("hasAge", "Person"), ("hasAge", "Human")}
    assert out.holdings[("hasAge", "Human")] == "equiv-property-copy"
    assert out.holdings[("hasAge", "Person")] == "asserted"


def test_propagate_equivalents_copies_subject_relations_across_group():
    m = OntologyModel()
    for name in ("A", "B", "C", "Plane"):
        m.touch_class(name)
    m.declare_property("owns", "object")
    add_relation(m, "owns", "A", "Plane")
    m.add_equivalence("A", "B")
    m.add_equivalence("B", "C")
    out = propagate(m)
    assert set(out.relations) == {
        ("owns", "A", "Plane"),
        ("owns", "B", "Plane"),
        ("owns", "C", "Plane"),
    }
    assert out.relations[("owns", "B", "Plane")] == "equiv-relation-copy"


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
    assert out.relations[("livesIn", "Man", "City")] == "relation-lift"


def test_lift_relations_uses_closed_hierarchy():
    m = close(parse_fixture("subclass_chain.owl"))
    m.declare_property("livesIn", "object")
    m.touch_class("Man")
    add_relation(m, "livesIn", "Man", "House")
    out = lift(m)
    assert ("livesIn", "Man", "City") in out.relations
    assert ("livesIn", "Man", "Country") in out.relations


def test_lift_relations_never_touches_subjects():
    m = OntologyModel()
    for name in ("Sub", "Sup", "X"):
        m.touch_class(name)
    m.declare_property("r", "object")
    add_subclass(m, "Sub", "Sup")
    add_relation(m, "r", "Sub", "X")
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
        found = list(traces(result))
        produced = [t.produced for t in found]
        assert len(produced) == len(set(produced)), name
        derived = (
            sum(1 for o in result.model.holdings.values() if o != "asserted")
            + sum(1 for o in result.model.relations.values() if o != "asserted")
            + sum(1 for o in result.model.subclass_axioms.values() if o != "asserted")
        )
        equivalence_traces = sum(1 for t in found if t.produced.startswith("equivalence"))
        assert len(found) == derived + equivalence_traces, name


def test_trace_tally_counts_every_rule():
    result = normalize_fixture("transitive_areas.owl")
    assert result.tally["transitive-close"] == 1
    assert result.tally["symmetric-expand"] == 0
    assert result.tally["inverse-expand"] == 0
    assert list(result.tally) == list(RULES)


def test_trace_sources_reference_output_elements():
    result = normalize_fixture("subclass_chain.owl")
    (trace,) = [t for t in traces(result) if t.rule == "subclass-closure"]
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
        add_subclass(m, sub, sup)
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
        add_subclass(cycle, sub, sup)
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
        add_holding(m, f"p{k}", "A")
    m.declare_property("r", "object")
    for subject, obj in (("X", "Y"), ("Y", "Z"), ("X", "Z")):
        add_relation(m, "r", subject, obj)
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
            add_relation(m, "p", f"N{a}", f"N{b}")
        m.add_modifier(RawModifier(TRANSITIVE, "p"))
        out = normalize(m).model
        got = {(int(subject[1:]), int(obj[1:])) for _, subject, obj in out.relations}
        assert got == brute_reachable(edges), f"seed {seed}"


def test_traces_match_a_scan_of_the_state_before_each_batch():
    """Every trace, in order, against scan_traces: its sources found by
    plain scans of the collection prefixes before its batch, the closures
    recomputed by brute force.  Every trace has sources: a derived closure
    pair has a path of two or more edges, so an intermediate node."""
    seen = Counter()
    for make in (random_model, intersection_model):
        for seed in range(200):
            result = normalize(make(seed))
            expected = scan_traces(result)
            label = f"{make.__name__}({seed})"
            assert [tuple(t) for t in traces(result)] == expected, label
            assert all(sources for _, _, sources in expected), label
            seen.update(rule for rule, _, _ in expected)
    assert set(seen) == set(RULES), seen  # every rule met


def test_rule_table_claims_each_oracle_row_once():
    """Every OWL 2 RL name in RULES is a row of randmodels.RULES, and every
    row is claimed by exactly one rule, but two that no rule applies:
    equivalence-sym, which the unordered equivalence pairs state, and
    prp-inv2, the reverse inverseOf mirror (the closure defect)."""
    claimed = Counter(owl for owls in RULES.values() for owl in owls)
    rows = [name for name, _, _ in randmodels.RULES]
    assert set(claimed) <= set(rows), claimed
    unclaimed = ("equivalence-sym", "prp-inv2")
    assert {row: claimed[row] for row in rows} == {row: row not in unclaimed for row in rows}


FACT_TEXT = {
    "holding": el_holding,
    "relation": el_relation,
    "subclass": el_subclass,
    "equivalence": el_equivalence,
}


def test_every_trace_is_licensed_by_the_owl_rules_of_its_rule():
    """Each trace's produced element is a conclusion of one of the OWL 2 RL
    rules that RULES lists for its rule, in one randmodels.rule_step over
    the facts of its sources and a background, without the produced fact.
    The background is the input's modifiers and every ordered pair within
    each output equivalence group: a transitive-close trace cites no
    modifier, a copy cites no equivalence, and a copy can cross a chain of
    equivalences in one step.  Element texts map to facts through the output
    model and the input's modifiers, so no string is parsed."""
    checked = 0
    for make in (random_model, intersection_model):
        for seed in range(200):
            m = make(seed)
            result = normalize(m)
            facts_of = {FACT_TEXT[f[0]](*f[1:]): {f} for f in model_facts(result.model)}
            facts_of.update((el_modifier(mod), modifier_facts(mod)) for mod in m.modifiers)
            background = set().union(*map(modifier_facts, m.modifiers))
            for group in brute_groups((), result.model.equivalences).values():
                background |= {("equivalence", a, b) for a in group for b in group if a != b}
            for t in traces(result):
                (produced,) = facts_of[t.produced]
                step = rule_step(background.union(*map(facts_of.get, t.sources)) - {produced})
                licensed = set().union(*(step[owl] for owl in RULES[t.rule]))
                assert produced in licensed, (f"{make.__name__}({seed})", t)
                checked += 1
    assert checked > 5000, checked


def test_normalize_matches_full_reevaluation_reference(monkeypatch):
    """The delta-driven driver against reference_normalize: same model with
    origins, same pass count, tally and warnings (the reference repeats a
    cycle warning on every pass)."""
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
            model, warnings, passes, tally = reference_normalize(m)
            got = normalize(m)
            label = f"{make.__name__}({seed})"
            assert emit_json(got.model) == emit_json(model), label
            assert got.passes == passes, label
            assert got.tally == tally, label
            assert list(got.warnings) == list(dict.fromkeys(warnings)), label
    # lifts that met axioms newer than the relations before them, and added
    assert sum(late_lifts) > 100, sum(late_lifts)


def test_trace_off_changes_nothing_but_the_traces():
    """Reading the traces off a result leaves it as it was, and a second run
    logs the same batches."""
    for make in (random_model, intersection_model):
        for seed in range(500):
            result = normalize(make(seed))
            label = f"{make.__name__}({seed})"
            before = (emit_json(result.model), result.log, dict(result.tally))
            per_rule = Counter(t.rule for t in traces(result))
            assert (emit_json(result.model), result.log, result.tally) == before, label
            assert normalize(make(seed)).log == result.log, label
            # one trace per counted derivation, rule by rule
            assert {rule: per_rule[rule] for rule in result.tally} == result.tally, label


def test_traces_do_not_depend_on_hash_seed():
    script = (
        "from fuzzonto import emit, normalize\n"
        "from fuzzonto.trace import traces\n"
        "from randmodels import random_model, traces_to_obj\n"
        "for seed in range(100):\n"
        "    result = normalize(random_model(seed))\n"
        "    print(emit.dump_json(traces_to_obj(traces(result))).decode())\n"
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
    # elements go in in scan order, not sorted: the bytes must still not
    # depend on set iteration order
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
    add_subclass(m, "A", "B")
    add_subclass(m, "B", "A")
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
