"""Output digest gate: rules JSON, rules text, rewrite traces, the normalized
model (JSON and RDF/XML) and the assign JSON stay byte-identical.  The rules
bytes are pinned for both writer entry points: from a rule list and from
premise runs.

The rules and trace values were recorded from the pipeline before its hot
loops were rewritten (witness lookup, determiner index, rules JSON writer);
the model and assign values before the model's element classes gave way to
key -> origin maps.  A change that alters any of these bytes on purpose says
so in CHANGES.md and records the new values here.
"""

import hashlib
import random
import re

from conftest import FIXTURE_NAMES, fixture_path, parse_fixture
from fuzzonto import OntologyModel, RawModifier, assign_all, generate_rules, normalize
from fuzzonto import emit
from fuzzonto.cli import run_pipeline
from fuzzonto.rules import premise_runs, rule_runs

PINNED = {
    "rules_json": "b66121bd7d4d25ad38b387728e2b23a88af5df25260259f26f983d93a89da718",
    "rules_text": "f6ae2ed8ee98bfc2446f4d4dc237f566b79b73a9e5a87224978685980efc39e4",
    "traces": "0da5189821f97583c063509f0addf258135e1b0cb4237b8f8185c8518f7060f4",
    "model_json": "72b0ce1883ba8e521083e8ac3cb02384586cc15888585e4d4cbdbacb7f184558",
    "model_rdfxml": "94e559194de8e8cc2e3715ee9e0d5bd16665eb5b107ff5eefd409b2a3031c0cb",
    "assign_json": "c70aa1113b3ceb1ce165b515e2b7f2e0ee0deddd8405f1553f8e64e8b85e7023",
}

# exit code, stdout, stderr and the report without timings_ms of every
# CLI_MODES run on every fixture and on recipe_model(60, 1) as model JSON;
# recorded before the closure kernel dropped its pair counts
PINNED_CLI = "5cd3914ab3b9262a8d77967121f902738af43e40e74ca55a3801a2833713951b"

CLI_MODES = [
    ("rules",),
    ("rules", "--format", "text"),
    ("rules", "--asserted-only"),
    ("rules", "--trace"),
    ("rules", "--report", "{report}"),
    ("rules", "--trace", "--report", "{report}"),
    ("rules", "--strict"),
    ("assign",),
    ("assign", "--asserted-only"),
    ("normalize",),
    ("normalize", "--format", "rdfxml"),
    ("normalize", "--trace"),
]


def recipe_model(n: int, seed: int) -> OntologyModel:
    """The synthetic hierarchy recipe of the pipeline benchmark, as a model.

    Each C_i (i > 0) is a subclass of a random one of the 20 classes before
    it; 5 datatype properties are each held by n/10 classes; 4 predicates
    carry n/2 random relations each, with r0 symmetric, r1 transitive and
    r2 inverseOf r3; n/50 random equivalences.
    """
    rng = random.Random(f"digest/{n}/{seed}")
    m = OntologyModel()
    classes = [f"C{i}" for i in range(n)]
    for name in classes:
        m.touch_class(name)
    for i in range(1, n):
        m.add_subclass(classes[i], classes[rng.randrange(max(0, i - 20), i)])
    for k in range(5):
        m.declare_property(f"p{k}", "datatype")
        for holder in rng.sample(classes, n // 10):
            m.add_holding(f"p{k}", holder)
    for pred in ("r0", "r1", "r2", "r3"):
        m.declare_property(pred, "object")
        for _ in range(n // 2):
            m.add_relation(pred, rng.choice(classes), rng.choice(classes))
    for _ in range(n // 50):
        m.add_equivalence(*rng.sample(classes, 2))
    m.add_modifier(RawModifier("symmetric", "r0"))
    m.add_modifier(RawModifier("transitive", "r1"))
    m.add_modifier(RawModifier("inverse", "r2", counterpart="r3"))
    return m


def _inputs():
    yield "recipe-60", recipe_model(60, 1)
    for name in FIXTURE_NAMES:
        yield name, parse_fixture(name)


def _digests() -> tuple[dict, dict]:
    """The pinned digests, and the rules digests of the writers that take
    premise runs, which must match the same pins."""
    hashes = {name: hashlib.sha256() for name in PINNED}
    run_hashes = {name: hashlib.sha256() for name in ("rules_json", "rules_text")}
    for label, model in _inputs():
        result = normalize(model, trace=True)
        annotated = assign_all(result.model)
        rules = generate_rules(annotated)
        runs = premise_runs(annotated)
        outputs = {
            "rules_json": emit.rules_to_json(rules),
            "rules_text": "".join(emit.runs_text_chunks(rule_runs(rules))).encode(),
            "traces": b"".join(emit.traces_chunks(result.traces)),
            "model_json": emit.emit_json(result.model),
            "model_rdfxml": emit.emit_normalized_rdf(result.model),
            "assign_json": emit.annotated_to_json(annotated),
        }
        run_outputs = {
            "rules_json": b"".join(emit.runs_json_chunks(runs)),
            "rules_text": "".join(emit.runs_text_chunks(runs)).encode(),
        }
        for digests, produced in ((hashes, outputs), (run_hashes, run_outputs)):
            for name, data in produced.items():
                digests[name].update(f"{label}:{len(data)}:".encode())
                digests[name].update(data)
    return (
        {name: h.hexdigest() for name, h in hashes.items()},
        {name: h.hexdigest() for name, h in run_hashes.items()},
    )


def test_output_digests_are_pinned():
    digests, run_digests = _digests()
    assert digests == PINNED
    assert run_digests == {name: PINNED[name] for name in run_digests}


def test_cli_output_digest_is_pinned(tmp_path, capsys):
    recipe = tmp_path / "recipe-60.json"
    recipe.write_bytes(emit.emit_json(recipe_model(60, 1)))
    sources = [recipe] + [fixture_path(name) for name in FIXTURE_NAMES]
    report = tmp_path / "report.json"
    digest = hashlib.sha256()
    for source in sources:
        for mode in CLI_MODES:
            command, *options = (part.format(report=report) for part in mode)
            code = run_pipeline([command, str(source), *options])
            captured = capsys.readouterr()
            written = report.read_bytes() if report.exists() else b""
            report.unlink(missing_ok=True)
            written = re.sub(rb'"timings_ms": {[^}]*}', b"", written)
            label = " ".join([source.name, *mode])
            digest.update(f"{label}:{code}:".encode())
            for data in (captured.out.encode(), captured.err.encode(), written):
                digest.update(f"{len(data)}:".encode())
                digest.update(data)
    assert digest.hexdigest() == PINNED_CLI
