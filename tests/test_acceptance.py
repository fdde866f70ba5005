"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The lines are pushed past pytest's output capture so they always show up in
the run log; run `pytest tests/test_acceptance.py -v` for the full picture.
"""

import sys
import time
from contextlib import contextmanager

import pytest

from conftest import FIXTURE_NAMES, fixture_bytes, fixture_path, normalize_fixture
from fuzzonto import assign_all, closure, emit_json, normalize, parse_document
from fuzzonto.emit import rules_to_json, runs_text_chunks
from fuzzonto.membership import PART_OF, PROPERTY
from fuzzonto.model import TRANSITIVE, OntologyModel, RawModifier
from fuzzonto.rules import check_consistency, generate_rules, premise_runs, premise_text
from fuzzonto.staged import annotated_to_json
from randmodels import (
    add_relation,
    add_subclass,
    brute_groups,
    brute_reachable,
    brute_table,
    closed_pairs,
    random_graph,
    random_model,
)

SEEDS = range(200)

_capman = None


@pytest.fixture(scope="session", autouse=True)
def _grab_capture_manager(request):
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")
    yield
    _capman = None


def _report(line: str) -> None:
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
    else:
        sys.stdout.write(line + "\n")
        sys.stdout.flush()


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        _report(f"acceptance {number} [{label}]: FAIL")
        raise
    _report(f"acceptance {number} [{label}]: PASS")


def test_criterion_1_modifier_rewrite_patterns():
    with criterion(1, "modifier rewrite patterns"):
        started = time.perf_counter()
        symmetric = normalize_fixture("symmetric_colleagues.owl").model
        inverse = normalize_fixture("inverse_ownership.owl").model
        intersection = normalize_fixture("intersection_man.owl").model
        transitive = normalize_fixture("transitive_areas.owl").model
        elapsed = time.perf_counter() - started

        assert set(symmetric.relations) == {
            ("colleagueOf", "Programmer", "Engineer"),
            ("colleagueOf", "Engineer", "Programmer"),
        }
        assert set(inverse.relations) == {
            ("owns", "Human", "Plane"),
            ("is_owed_by", "Plane", "Human"),
        }
        assert set(intersection.subclass_axioms) == {
            ("Man", "Male"),
            ("Man", "Human"),
        }
        assert set(transitive.relations) == {
            ("subAreaOf", "Latgale", "Latvia"),
            ("subAreaOf", "Latvia", "EU"),
            ("subAreaOf", "Latgale", "EU"),
        }
        for model in (symmetric, inverse, intersection, transitive):
            assert not model.modifiers
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_implied_element_additions():
    with criterion(2, "implied element additions"):
        copied_property = normalize_fixture("equivalent_property_copy.owl").model
        assert set(copied_property.holdings) == {
            ("hasAge", "Person"),
            ("hasAge", "Human"),
        }

        copied_relation = normalize_fixture("equivalent_relation_copy.owl").model
        assert set(copied_relation.relations) == {
            ("worksAt", "Programmer", "Company"),
            ("worksAt", "Coder", "Company"),
        }

        chain = normalize_fixture("subclass_chain.owl").model
        assert set(chain.subclass_axioms) == {
            ("House", "City"),
            ("City", "Country"),
            ("House", "Country"),
        }

        lifted = normalize_fixture("relation_lift.owl").model
        assert set(lifted.relations) == {
            ("livesIn", "Man", "House"),
            ("livesIn", "Man", "City"),
        }


def test_criterion_3_mu_formulas_match_brute_force():
    with criterion(3, "mu = 1/n against brute-force enumeration"):
        started = time.perf_counter()
        for seed in SEEDS:
            model = normalize(random_model(seed)).model
            annotated = assign_all(model)
            expected = brute_table(model)
            got = {}
            for kind, key, entry in annotated.table.entries():
                if kind == PROPERTY:
                    got[(PROPERTY, key)] = entry
                elif kind == PART_OF:
                    got[(PART_OF, key.resulting_class)] = entry
                else:
                    got[("relation", key.predicate, key.resulting_class)] = entry
            assert set(got) == set(expected), f"seed {seed}: key sets differ"
            for table_key, (n, _) in expected.items():
                entry = got[table_key]
                assert entry.n == n, f"seed {seed}: {table_key}"
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def _assert_identity(annotated) -> None:
    rules = generate_rules(annotated)
    assert check_consistency(rules, annotated) == []
    by_premise: dict = {}
    for premise, conclusion, n in rules:
        by_premise.setdefault(premise_text(premise), []).append((conclusion, n))
    for premise, bucket in by_premise.items():
        assert len({n for _, n in bucket}) == 1, premise
        # each class in a group of two or more maps to its group; any other is its own
        groups = {annotated.groups.get(c, (c,)) for c, _ in bucket}
        assert bucket[0][1] == len(groups), premise  # mu = 1/n


def test_criterion_4_reciprocity_identity():
    with criterion(4, "mu(premise) x representative conclusions = 1"):
        for name in FIXTURE_NAMES:
            _assert_identity(assign_all(normalize_fixture(name).model))
        for seed in SEEDS:
            _assert_identity(assign_all(normalize(random_model(seed)).model))


def test_criterion_5_idempotence_and_determinism():
    with criterion(5, "idempotence and byte-identical output"):
        for name in FIXTURE_NAMES:
            once = normalize_fixture(name).model
            assert emit_json(normalize(once).model) == emit_json(once), name
        for seed in range(100):
            once = normalize(random_model(seed)).model
            assert emit_json(normalize(once).model) == emit_json(once), f"seed {seed}"

        def pipeline_bytes(name: str) -> bytes:
            model = parse_document(fixture_bytes(name), "rdfxml")
            result = normalize(model)
            annotated = assign_all(result.model)
            text = "".join(runs_text_chunks(premise_runs(annotated)))
            return b"".join(
                (
                    emit_json(result.model),
                    annotated_to_json(annotated),
                    rules_to_json(generate_rules(annotated)),
                    text.encode("utf-8"),
                )
            )

        for name in FIXTURE_NAMES:
            assert pipeline_bytes(name) == pipeline_bytes(name), name


def test_criterion_6_closure_matches_reachability_oracle():
    with criterion(6, "closure operations against reachability oracle"):
        for seed in SEEDS:
            n, edges = random_graph(seed, max_nodes=12)
            reach = brute_reachable(edges)

            got = set(closed_pairs(closure.reachable_pairs(n, edges)))
            assert got == reach, f"seed {seed}: kernel"

            names = [f"N{i}" for i in range(n)]
            hierarchy = OntologyModel()
            for name in names:
                hierarchy.touch_class(name)
            for a, b in edges:
                add_subclass(hierarchy, names[a], names[b])
            closed = normalize(hierarchy).model
            got_axioms = {
                (int(sub[1:]), int(sup[1:])) for sub, sup in closed.subclass_axioms
            }
            assert got_axioms == {(a, b) for a, b in reach if a != b}, f"seed {seed}"
            mutual = {
                (names[min(a, b)], names[max(a, b)])
                for a, b in reach
                if a != b and (b, a) in reach
            }
            assert brute_groups(names, closed.equivalences) == brute_groups(
                names, mutual
            ), f"seed {seed}: cycle partition"

            graph = OntologyModel()
            for name in names:
                graph.touch_class(name)
            graph.declare_property("p", "object")
            for a, b in edges:
                add_relation(graph, "p", names[a], names[b])
            graph.add_modifier(RawModifier(TRANSITIVE, "p"))
            closed_relations = normalize(graph).model
            got_pairs = {
                (int(subject[1:]), int(obj[1:]))
                for _, subject, obj in closed_relations.relations
            }
            assert got_pairs == reach, f"seed {seed}: transitive predicate"


def test_criterion_7_end_to_end_single_rule():
    with criterion(7, "end-to-end single part_of rule"):
        model = parse_document(fixture_bytes("paris_france.owl"), "rdfxml")
        annotated = assign_all(normalize(model).model)
        rules = generate_rules(annotated)
        assert len(rules) == 1
        premise, conclusion, n = rules[0]
        assert premise_text(premise) == "part_of France"
        assert conclusion == "Paris"
        assert n == 1
        text = "".join(runs_text_chunks(premise_runs(annotated)))
        assert text == "IF part_of France (mu=1.000000) THEN Paris\n"
        assert fixture_path("paris_france.owl").exists()
