"""Mutation gate: each mutant in MUTANTS must be killed by the tests it names.

A mutant is one plain text replacement in one module of src/fuzzonto.  The
gate checks that its old text occurs exactly once, applies it to a fresh
copy of src, and runs the named tests against that copy with pytest; the
mutant is killed when they fail.  A mutant that changes no behaviour is
marked equivalent with the reason, and is not run.

The gate fails if an old text does not occur exactly once (in the source
at start and in each mutant's copy), if a module of src/fuzzonto has no
mutant, if a mutant survives, if pytest ends other than pass or fail (say,
a test name that no longer exists), or if the named tests fail on the
unmutated source.  Tests still running after TIMEOUT seconds count as a
kill, since they never pass; such a mutant costs the whole timeout, so
prefer one that ends.

Run it from anywhere, with pytest installed (pytest does not collect this
file); it takes no options and runs JOBS mutants at once:

    python tests/mutation_gate.py

A change that adds a rule or a writer adds its mutants here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fuzzonto"

TIMEOUT = 300  # seconds for one mutant's tests
JOBS = min(os.cpu_count() or 1, 4)  # each is one pytest process

Mutant = namedtuple("Mutant", "name file old new tests equivalent", defaults=(None,))

T_CLI = "tests/test_cli.py::"
T_CLOSURE = "tests/test_closure.py::"
T_DIGESTS = "tests/test_digests.py::"
T_EMIT = "tests/test_emit.py::"
T_INGEST = "tests/test_ingest.py::"
T_MEMBERSHIP = "tests/test_membership.py::"
T_MODEL = "tests/test_model.py::"
T_NORMALIZE = "tests/test_normalize.py::"
T_RULES = "tests/test_rules.py::"

REFERENCE = T_NORMALIZE + "test_normalize_matches_full_reevaluation_reference"
DIGESTS = T_DIGESTS + "test_output_digests_are_pinned"
JSON_ROUND_TRIP = T_EMIT + "test_emit_json_round_trips_normalized_fixture"
EVERY_FORMAT = T_EMIT + "test_every_valid_model_survives_every_format"
EXACT_FIT = T_NORMALIZE + "test_a_bound_equal_to_the_output_count_fits"
SOUND = T_NORMALIZE + "test_output_is_sound_against_the_rule_table"
SCANNED = T_NORMALIZE + "test_traces_match_a_scan_of_the_state_before_each_batch"
CLAIMED = T_NORMALIZE + "test_rule_table_claims_each_oracle_row_once"
LICENSED = T_NORMALIZE + "test_every_trace_is_licensed_by_the_owl_rules_of_its_rule"
FIRST_WINS = T_MODEL + "test_first_derivation_wins"

MUTANTS = [
    # -- normalize.py ----------------------------------------------------------
    Mutant(
        "intersection-keeps-its-own-target",
        "normalize.py",
        "                    if member != mod.target\n                    and (key :=",
        "                    if (key :=",
        [T_NORMALIZE + "test_intersection_listing_its_own_target_gives_no_self_subclass"],
    ),
    Mutant(
        "new-groups-copy-only-new-elements",
        "normalize.py",
        "        run.copied = (0, 0)\n",
        "",
        [REFERENCE],
    ),
    Mutant(
        "closure-keeps-self-axioms",
        "normalize.py",
        "del axioms[key]  # self-axioms are dropped",
        "pass",
        [T_NORMALIZE + "test_close_subclass_hierarchy_drops_self_axiom"],
    ),
    Mutant(
        "lift-skips-older-relations-with-newer-axioms",
        "normalize.py",
        "        scans.append((keys[:lifted], fresh_supers))",
        "        pass",
        [REFERENCE],
    ),
    Mutant(
        "transitive-before-mirroring",
        "normalize.py",
        "(SYMMETRIC, INVERSE, INTERSECTION, TRANSITIVE)",
        "(TRANSITIVE, SYMMETRIC, INVERSE, INTERSECTION)",
        [DIGESTS],
    ),
    Mutant(
        "stage-2-in-key-order-alone",
        "normalize.py",
        "key=lambda mod: (order.index(mod.kind), mod.key())",
        "key=RawModifier.key",
        [T_NORMALIZE + "test_stage_2_takes_the_modifiers_by_kind_then_by_key"],
    ),
    Mutant(
        "budget-refuses-reaching-the-bound",
        "normalize.py",
        "            if count > self.bound:",
        "            if count >= self.bound:",
        [T_NORMALIZE + "test_budget_refuses_the_batch_that_crosses_it"],
    ),
    Mutant(
        "stage-2-output-ends-the-fixpoint",
        "normalize.py",
        "        changed |= passes == 0 and _rewrite_modifiers(work, run)",
        "        passes == 0 and _rewrite_modifiers(work, run)",
        [T_NORMALIZE + "test_normalize_is_idempotent_on_random_models"],
    ),
    Mutant(
        "budget-counts-the-modifiers",
        "normalize.py",
        "return self.m.element_count() - self.self_axioms",
        "return self.m.element_count() - self.self_axioms + sum(map(len, self.modifiers.values()))",
        [EXACT_FIT],
    ),
    Mutant(
        "budget-counts-the-self-axioms",
        "normalize.py",
        "self.self_axioms = sum(sub == sup for sub, sup in m.subclass_axioms)",
        "self.self_axioms = 0",
        [EXACT_FIT],
    ),
    Mutant(
        "closure-limit-one-short",
        "normalize.py",
        "limit = run.bound - run.count() + free if run.bound else 0",
        "limit = run.bound - run.count() + free - 1 if run.bound else 0",
        [EXACT_FIT],
    ),
    Mutant(
        "mirror-keeps-its-ends",
        "normalize.py",
        "(key := (counterpart, obj, subject))",
        "(key := (counterpart, subject, obj))",
        [SOUND],
    ),
    Mutant(
        "lift-to-a-subclass",
        "normalize.py",
        "        supers.setdefault(sub, []).append(sup)",
        "        supers.setdefault(sup, []).append(sub)",
        [SOUND],
    ),
    Mutant(
        "mirror-overwrites-an-element-present",
        "normalize.py",
        "[key for _, subject, obj in found if (key := (counterpart, obj, subject)) not in "
        "relations]",
        "[(counterpart, obj, subject) for _, subject, obj in found]",
        [FIRST_WINS],
    ),
    Mutant(
        "inverse-expand-claims-prp-inv2",
        "normalize.py",
        '"inverse-expand": ("prp-inv1",),',
        '"inverse-expand": ("prp-inv2",),',
        [LICENSED],
    ),
    Mutant(
        "subclass-closure-claims-no-scm-eqc2",
        "normalize.py",
        '"subclass-closure": ("scm-sco", "scm-eqc2"),',
        '"subclass-closure": ("scm-sco",),',
        [CLAIMED],
    ),
    Mutant(
        "lift-claims-scm-sco",
        "normalize.py",
        '"relation-lift": ("relation-lift",),',
        '"relation-lift": ("scm-sco",),',
        [CLAIMED],
    ),
    # -- trace.py --------------------------------------------------------------
    Mutant(
        "traced-lift-unsorted",
        "trace.py",
        "for pred, subject, obj, sup in sorted(found):",
        "for pred, subject, obj, sup in found:",
        [SCANNED, DIGESTS],
    ),
    Mutant(
        "lift-cites-the-greatest-producer",
        "trace.py",
        "for obj in sorted(objects[pred, subject]):",
        "for obj in sorted(objects[pred, subject], reverse=True):",
        [SCANNED, DIGESTS],
    ),
    Mutant(
        "lift-cites-later-axioms",
        "trace.py",
        "axioms[:present]",
        "axioms",
        [SCANNED],
    ),
    Mutant(
        "witness-may-be-the-source",
        "trace.py",
        "if rows[w] & bit and w != u and w != v:",
        "if rows[w] & bit and w != v:",
        [SCANNED],
    ),
    Mutant(
        "closure-cites-later-pairs",
        "trace.py",
        "axioms[:end]",
        "axioms",
        [SCANNED],
    ),
    Mutant(
        "copy-cites-the-greatest-member",
        "trace.py",
        "held = min(name for name in group if name not in given[(first, *rest)])",
        "held = max(name for name in group if name not in given[(first, *rest)])",
        [SCANNED],
    ),
    Mutant(
        "mirror-traces-unsorted",
        "trace.py",
        "for key in sorted(relations[start:end], key=lambda key: (key[2], key[1]))",
        "for key in relations[start:end]",
        [SCANNED, DIGESTS],
    ),
    Mutant(
        "report-traces-lose-their-indent",
        "trace.py",
        "f'{pad}    \"rule\": {_quote(t.rule)},",
        "f'    \"rule\": {_quote(t.rule)},",
        [T_EMIT + "test_report_json_equals_generic_encoding"],
    ),
    # -- closure.py ------------------------------------------------------------
    Mutant(
        "derived-one-popcount-slot-for-every-row",
        "closure.py",
        "            count = counts.get(id(row))\n            if count is None:\n"
        "                count = counts[id(row)] = row.bit_count()",
        "            count = counts.get(0)\n            if count is None:\n"
        "                count = counts[0] = row.bit_count()",
        [T_CLOSURE + "test_many_one_node_components_share_one_row"],
    ),
    Mutant(
        "pair-count-once-per-component",
        "closure.py",
        "total += count * len(component)",
        "total += count",
        [T_CLOSURE + "test_limit_overflow"],
    ),
    Mutant(
        "low-link-not-passed-up",
        "closure.py",
        "if low[u] < low[parent]:",
        "if low[u] > low[parent]:",
        [T_CLOSURE + "test_matches_brute_force_on_random_graphs"],
    ),
    Mutant(
        "groups-keep-search-order",
        "closure.py",
        "tuple(names[i] for i in sorted(c))",
        "tuple(names[i] for i in c)",
        [T_CLOSURE + "test_groups_are_sorted_and_ordered_by_members"],
    ),
    Mutant(
        "bits-descending",
        "closure.py",
        "    found.reverse()\n",
        "",
        [T_CLOSURE + "test_matches_brute_force_on_random_graphs"],
    ),
    # -- membership.py ---------------------------------------------------------
    Mutant(
        "widen-rebuilds-complete-entries",
        "membership.py",
        "        if len(widened) <= len(entry.determiners):\n            return entry\n",
        "",
        [T_MEMBERSHIP + "test_copy_keeps_complete_entries_and_widens_part_of"],
    ),
    Mutant(
        "n-is-len-with-groups",
        "membership.py",
        "n = group_count(groups, determiners)",
        "n = len(determiners)",
        [T_MEMBERSHIP + "test_count_collapses_equivalent_holders"],
    ),
    Mutant(
        "wrong-n-without-groups",
        "membership.py",
        "    n = len(determiners)\n",
        "    n = len(determiners) + 1\n",
        [T_MEMBERSHIP + "test_count_property_holders"],
    ),
    Mutant(
        "relation-index-keeps-no-object",
        "membership.py",
        "by_object = index[predicate]\n",
        "by_object = {}\n",
        [T_MEMBERSHIP + "test_relation_mu_on_expanded_symmetric_fixture"],
    ),
    Mutant(
        "a-relation-key-keeps-only-its-last-subject",
        "membership.py",
        "            found.append(subject)\n",
        "            by_object[obj] = [subject]\n",
        [T_MEMBERSHIP + "test_relation_mu_shared_object"],
    ),
    Mutant(
        "asserted-only-ignored",
        "membership.py",
        "if asserted_only:",
        "if False:",
        [T_MEMBERSHIP + "test_asserted_only_affects_denominator"],
    ),
    Mutant(
        "complex-entries-unsorted",
        "membership.py",
        "for key in sorted(self.complex_mu):",
        "for key in self.complex_mu:",
        [DIGESTS],
    ),
    Mutant(
        "group-count-counts-a-repeated-name-twice",
        "membership.py",
        "    names = set(names)\n",
        "",
        [T_MEMBERSHIP + "test_groups_close_transitively"],
    ),
    Mutant(
        "group-count-counts-each-grouped-name",
        "membership.py",
        "len({group_of[name] for name in shared})",
        "len(shared)",
        [T_MEMBERSHIP + "test_groups_keep_only_shared_classes"],
    ),
    Mutant(
        "asserted-only-view-keeps-derived-subclass-axioms",
        "membership.py",
        "if origin == ASSERTED})",
        'if origin == ASSERTED or attr == "subclass_axioms"})',
        [T_MEMBERSHIP + "test_asserted_only_affects_denominator"],
    ),
    Mutant(
        "asserted-only-returns-the-filtered-model",
        "membership.py",
        "AnnotatedOntology(m, table, groups)",
        "AnnotatedOntology(view, table, groups)",
        [T_MEMBERSHIP + "test_asserted_only_filters_the_keys_not_the_model"],
    ),
    # -- rules.py --------------------------------------------------------------
    Mutant(
        "violations-unsorted",
        "rules.py",
        "out.sort(key=lambda d: d.location)  # stable: premises that print alike",
        "pass",
        [T_RULES + "test_check_runs_sorts_violations_by_location"],
    ),
    Mutant(
        "split-premises-not-merged",
        "rules.py",
        "split.setdefault(premise, [first[premise]]).append(run)",
        "pass",
        [T_RULES + "test_check_runs_without_groups_recounts_split_premises"],
    ),
    Mutant(
        "alike-premises-not-in-table-order",
        "rules.py",
        "alike.sort(key=lambda premise: (not isinstance(premise[1], str), premise[1]))",
        "pass",
        [T_RULES + "test_generate_rules_merges_premises_that_print_alike"],
    ),
    Mutant(
        "no-group-count-is-len-conclusions",
        "rules.py",
        "if groups else len(set(conclusions))",
        "if groups else len(conclusions)",
        [T_RULES + "test_check_runs_without_groups_recounts_split_premises"],
    ),
    Mutant(
        "runs-ignore-the-grade",
        "rules.py",
        "groupby(rules, itemgetter(0, 2))",
        "groupby(rules, itemgetter(0))",
        [T_EMIT + "test_rules_json_equals_generic_encoding_on_awkward_strings"],
    ),
    # -- emit.py ---------------------------------------------------------------
    Mutant(
        "decimal6-rounds-half-up",
        "emit.py",
        "if 2 * rest > n or (2 * rest == n and millionths & 1):",
        "if 2 * rest >= n:",
        [T_EMIT + "test_decimal6_matches_the_decimal_formula"],
    ),
    Mutant(
        "json-loaded-by-every-run",
        "emit.py",
        "from _json import encode_basestring as _quote\n",
        "from json.encoder import encode_basestring as _quote\n",
        [T_CLI + "test_a_rules_run_loads_neither_json_nor_the_staged_module"],
    ),
    Mutant(
        "empty-rules-array-spans-lines",
        "emit.py",
        'yield b"]" if sep == "\\n" else b"\\n  ]"',
        'yield b"\\n  ]"',
        [T_EMIT + "test_rules_json_equals_generic_encoding_on_awkward_strings"],
    ),
    Mutant(
        "model-json-drops-an-empty-iri",
        "emit.py",
        "        if iri is not None:\n            item[\"iri\"] = iri",
        "        if iri:\n            item[\"iri\"] = iri",
        [JSON_ROUND_TRIP],
    ),
    Mutant(
        "model-json-writes-every-origin-as-asserted",
        "emit.py",
        'obj[kind.array] = [{a: x, b: y, "origin": origin} for (x, y), origin in items]',
        'obj[kind.array] = [{a: x, b: y, "origin": "asserted"} for (x, y), _ in items]',
        [JSON_ROUND_TRIP],
    ),
    Mutant(
        "model-json-sorts-intersection-members",
        "emit.py",
        'item["members"] = list(mod.members)',
        'item["members"] = sorted(mod.members)',
        [JSON_ROUND_TRIP],
    ),
    # -- ingest.py -------------------------------------------------------------
    Mutant(
        "reference-name-after-the-first-hash",
        "ingest.py",
        'return value.rsplit("#", 1)[1], value',
        'return value.split("#", 1)[1], value',
        [T_INGEST + "test_iri_reference_names_after_the_last_hash"],
    ),
    Mutant(
        "top-level-element-kept-on-the-root",
        "ingest.py",
        "self._top_level(*path[0].pop())",
        "self._top_level(*path[0][-1])",
        [T_INGEST + "test_reader_holds_one_top_level_element_at_a_time"],
    ),
    Mutant(
        "elements-kept-to-depth-3",
        "ingest.py",
        "if len(path) >= 4:  # below depth 4",
        "if len(path) >= 3:  # below depth 4",
        [T_INGEST + "test_reader_matches_the_element_tree_reference"],
    ),
    Mutant(
        "elements-kept-to-depth-5",
        "ingest.py",
        "if len(path) >= 4:  # below depth 4",
        "if len(path) >= 5:  # below depth 4",
        [],
        "the reader reads nothing below depth 4, so keeping one more level "
        "costs memory and changes no output",
    ),
    Mutant(
        "kind-conflict-not-reported",
        "ingest.py",
        "for name in sorted(used[DATATYPE] & used[OBJECT]):",
        "for name in ():",
        [T_CLI + "test_strict_refuses_a_property_used_with_both_kinds"],
    ),
    Mutant(
        "class-property-conflict-not-reported",
        "ingest.py",
        "for name in sorted(classes.keys() & (used[DATATYPE] | used[OBJECT])):",
        "for name in ():",
        [T_CLI + "test_a_class_that_names_a_property_is_a_validation_error"],
    ),
    Mutant(
        "declared-class-loses-its-iri",
        "ingest.py",
        "self.model.classes.setdefault(name, None)",
        "self.model.classes[name] = None",
        [T_INGEST + "test_reader_matches_the_element_tree_reference"],
    ),
    Mutant(
        "local-resource-not-declared",
        "ingest.py",
        "        model.classes.setdefault(name, None)\n    else:",
        "        pass\n    else:",
        [T_INGEST + "test_reader_matches_the_element_tree_reference"],
    ),
    # -- staged.py -------------------------------------------------------------
    Mutant(
        "empty-domain-is-a-bare-block",
        "staged.py",
        "            if ends:\n",
        "            if ends and ends[0]:\n",
        [EVERY_FORMAT],
    ),
    Mutant(
        "xml-name-check-lets-ufffe-through",
        "staged.py",
        "\\ue000-\\ufffd",
        "\\ue000-\\ufffe",
        [EVERY_FORMAT, T_CLI + "test_a_name_that_xml_cannot_carry_is_refused_by_rdfxml_only"],
    ),
    Mutant(
        "rdfxml-drops-equivalences",
        "staged.py",
        "        equivalents.setdefault(a, []).append(b)",
        "        pass",
        [EVERY_FORMAT],
    ),
    Mutant(
        "str-input-not-checked-for-surrogates",
        "staged.py",
        '            data.encode("utf-8")\n',
        "            pass\n",
        [T_CLI + "test_lone_surrogate_in_a_name_is_a_parse_error"],
    ),
    Mutant(
        "json-origins-read-as-asserted",
        "staged.py",
        "elements.setdefault(key, _origin(item, where))",
        "elements.setdefault(key, ASSERTED)",
        [T_INGEST + "test_json_round_trip_preserves_everything"],
    ),
    Mutant(
        "last-derivation-wins",
        "staged.py",
        "elements.setdefault(key, _origin(item, where))",
        "elements[key] = _origin(item, where)",
        [FIRST_WINS],
    ),
    Mutant(
        "json-class-iris-dropped",
        "staged.py",
        "        model.touch_class(name, iri)\n",
        "        model.touch_class(name)\n",
        [T_INGEST + "test_json_round_trip_preserves_everything"],
    ),
    # -- model.py --------------------------------------------------------------
    Mutant(
        "copy-shares-the-collections",
        "model.py",
        "setattr(new, attr, getattr(self, attr).copy())",
        "setattr(new, attr, getattr(self, attr))",
        [T_MODEL + "test_copy_is_independent"],
    ),
    Mutant(
        "copy-drops-the-normalized-flag",
        "model.py",
        "new.normalized = self.normalized",
        "new.normalized = False",
        [T_EMIT + "test_emit_json_is_byte_stable"],
    ),
    Mutant(
        "equivalence-pair-kept-unordered",
        "model.py",
        "pair = (a, b) if a < b else (b, a)",
        "pair = (a, b)",
        [T_MODEL + "test_equivalence_pairs_are_canonical_and_self_free"],
    ),
    Mutant(
        "declarations-counted-as-elements",
        "model.py",
        "return total - len(self.properties)",
        "return total",
        [T_MODEL + "test_counts"],
    ),
    Mutant(
        "class-iri-overwritten",
        "model.py",
        "if self.classes.get(name) is None:",
        "if iri is not None or name not in self.classes:",
        [T_MODEL + "test_touch_class_upgrades_iri_once"],
    ),
    # -- cli.py ----------------------------------------------------------------
    Mutant(
        "trace-module-loaded-by-every-run",
        "cli.py",
        "from .normalize import DEFAULT_BOUND, normalize\n",
        "from .normalize import DEFAULT_BOUND, normalize\nfrom . import trace as _trace\n",
        [T_CLI + "test_cli_leaves_fractions_and_decimal_out"],
    ),
    Mutant(
        "staged-module-loaded-by-every-run",
        "cli.py",
        "from .normalize import DEFAULT_BOUND, normalize\n",
        "from .normalize import DEFAULT_BOUND, normalize\nfrom . import staged as _staged\n",
        [T_CLI + "test_a_rules_run_loads_neither_json_nor_the_staged_module"],
    ),
    Mutant(
        "input-bytes-kept",
        "cli.py",
        "    del data  #",
        "    pass  #",
        [T_CLI + "test_input_bytes_are_released_after_the_parse"],
    ),
    Mutant(
        "one-command-usage-names-only-it",
        "cli.py",
        '+ "}" if chosen else None',
        '+ "}" if False else None',
        [T_CLI + "test_help_and_usage_errors_are_pinned"],
    ),
    Mutant(
        "every-usage-error-names-the-command-by-its-choices",
        "cli.py",
        '+ "}" if chosen else None',
        '+ "}"',
        [T_CLI + "test_help_and_usage_errors_are_pinned"],
    ),
    Mutant(
        "every-parser-built",
        "cli.py",
        "for command, formats, summary in chosen or _COMMANDS:",
        "for command, formats, summary in _COMMANDS:",
        [T_CLI + "test_a_named_command_builds_only_its_parser"],
    ),
    Mutant(
        "byte-order-mark-kept",
        "cli.py",
        'data = data.removeprefix(b"\\xef\\xbb\\xbf")',
        "pass",
        [T_CLI + "test_input_may_start_with_a_utf8_byte_order_mark"],
    ),
    Mutant(
        "collector-left-off",
        "cli.py",
        "        if enabled:\n            gc.enable()",
        "        if False:\n            gc.enable()",
        [T_CLI + "test_collector_state_is_restored_on_every_exit"],
    ),
    Mutant(
        "output-mode-not-set",
        "cli.py",
        "os.fchmod(handle.fileno(), mode)",
        "pass",
        [T_CLI + "test_output_files_get_the_mode_open_gives"],
    ),
    Mutant(
        "fifo-replaced-by-a-rename",
        "cli.py",
        "    if os.path.exists(path) and not os.path.isfile(path):",
        "    if False:",
        [T_CLI + "test_a_fifo_is_written_in_place"],
    ),
    Mutant(
        "symlink-replaced-by-a-rename",
        "cli.py",
        "    path = os.path.realpath(path)\n",
        "",
        [T_CLI + "test_a_symlink_stays_and_its_target_is_written"],
    ),
    # -- errors.py, __init__.py, __main__.py -------------------------------------
    Mutant(
        "unsupported-construct-exits-1",
        "errors.py",
        'code, exit_status = "unsupported-construct", 3',
        'code, exit_status = "unsupported-construct", 1',
        [T_CLI + "test_exit_3_on_unsupported_construct_in_strict_mode"],
    ),
    Mutant(
        "overflow-count-is-the-bound",
        "errors.py",
        "self.count = count",
        "self.count = bound",
        [T_NORMALIZE + "test_closure_past_the_budget_reports_a_count_past_the_bound"],
    ),
    Mutant(
        "package-misses-a-public-name",
        "__init__.py",
        "from .ingest import parse_document, validate_model",
        "from .ingest import parse_document",
        [T_MODEL + "test_every_public_name_resolves"],
    ),
    Mutant(
        "package-root-imports-a-helper",
        "__init__.py",
        "from .membership import assign_all",
        "from .membership import assign_all, copy_to_equivalents",
        [T_MODEL + "test_the_package_root_holds_only_documented_names"],
    ),
    Mutant(
        "module-entry-returns-without-its-code",
        "__main__.py",
        "from .cli import console_entry\n\nconsole_entry()",
        "from .cli import main\n\nmain()",
        [T_CLI + "test_module_exit_codes_are_run_pipelines"],
    ),
]


def _copy_source(into: Path) -> Path:
    """A copy of src/fuzzonto under into/src, without bytecode caches."""
    shutil.copytree(
        PACKAGE, into / "src" / "fuzzonto", ignore=shutil.ignore_patterns("__pycache__")
    )
    return into / "src"


def _pytest(src: Path, tests) -> int:
    """pytest's exit code for tests run against the package under src; 1,
    failed, when they run past TIMEOUT."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return 1
    return proc.returncode


def _check_table(mutants) -> list[str]:
    """The problems of the table itself: old texts that do not occur exactly
    once, duplicate names, mutants with neither tests nor a reason."""
    problems = []
    names = [m.name for m in mutants]
    problems += [f"{name}: name used twice" for name in sorted(set(names)) if names.count(name) > 1]
    for m in mutants:
        found = (PACKAGE / m.file).read_text(encoding="utf-8").count(m.old)
        if found != 1:
            problems.append(f"{m.name}: old text occurs {found} times in {m.file}")
        if bool(m.tests) == bool(m.equivalent):
            problems.append(f"{m.name}: needs tests to kill it or a reason it is equivalent")
    return problems


def main() -> int:
    problems = _check_table(MUTANTS)
    untested = sorted({path.name for path in PACKAGE.glob("*.py")} - {m.file for m in MUTANTS})
    problems += [f"{name}: no mutant in this module" for name in untested]
    for problem in problems:
        print(f"TABLE    {problem}", flush=True)
    if problems:
        return 1

    started = time.perf_counter()
    runnable = [m for m in MUTANTS if not m.equivalent]
    named = sorted({test for m in runnable for test in m.tests})
    with tempfile.TemporaryDirectory(prefix="fuzzonto-mutants-") as tmp:
        baseline = _pytest(_copy_source(Path(tmp) / "baseline"), named)
        if baseline != 0:
            print(f"BASELINE the named tests end with pytest exit code {baseline} "
                  "on the unmutated source")
            return 1

        def run(m: Mutant) -> tuple[Mutant, int | None, float]:
            src = _copy_source(Path(tmp) / m.name)
            target = src / "fuzzonto" / m.file
            text = target.read_text(encoding="utf-8")
            if text.count(m.old) != 1:  # the source changed after the table was checked
                return m, None, 0.0
            target.write_text(text.replace(m.old, m.new), encoding="utf-8")
            began = time.perf_counter()
            return m, _pytest(src, m.tests), time.perf_counter() - began

        failed = 0
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            for m, code, seconds in pool.map(run, runnable):
                verdict = {0: "SURVIVED", 1: "killed", None: "STALE"}.get(code, f"ERROR {code}")
                failed += code != 1
                print(f"{verdict:<8} {m.name} ({m.file}, {seconds:.1f} s)", flush=True)
    for m in MUTANTS:
        if m.equivalent:
            print(f"{'equiv':<8} {m.name} ({m.file}): {m.equivalent}")
    modules = {m.file for m in MUTANTS}
    print(
        f"{len(runnable) - failed} of {len(runnable)} mutants killed, "
        f"{len(MUTANTS) - len(runnable)} equivalent, {len(modules)} modules, "
        f"{time.perf_counter() - started:.0f} s"
    )
    return 1 if failed else 0

if __name__ == "__main__":
    sys.exit(main())
