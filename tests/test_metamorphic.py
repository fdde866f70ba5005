"""Metamorphic relations: how the output must change when the input changes in
a known way.  They need no second implementation, so they can catch a defect
that an oracle copies from the code it checks.
"""

import importlib.util
import random
import re
import sys
from collections import Counter
from pathlib import Path
from xml.parsers import expat

from conftest import FIXTURE_NAMES, fixture_bytes
from fuzzonto import assign_all, emit_json, normalize, parse_document
from fuzzonto.emit import runs_json_chunks
from fuzzonto.rules import premise_runs
from fuzzonto.staged import annotated_to_json
from fuzzonto.trace import traces, traces_chunks
from randmodels import intersection_model, random_model, renamed_model

MAKES = (random_model, intersection_model)


def membership(m) -> dict:
    """(kind, key) -> MembershipEntry of m's normalized output."""
    return {(kind, key): e for kind, key, e in assign_all(normalize(m).model).table.entries()}


def test_an_isolated_new_class_changes_no_other_element():
    """A class that no element names adds itself to the output and nothing
    else: the normalized model without it has the same bytes, origins
    included.  "C" sorts before every class of the random models."""
    for make in MAKES:
        for seed in range(200):
            m = make(seed)
            before = emit_json(normalize(m).model)
            m.touch_class("C")
            after = normalize(m).model
            assert "C" in after.classes
            del after.classes["C"]
            assert emit_json(after) == before, f"{make.__name__}({seed})"


def test_a_fresh_equivalent_class_joins_the_determiners_and_keeps_every_n():
    """Adding a fresh class Z equivalent to a class C keeps every membership
    key and its n, since equivalent classes count once; Z joins the
    determiners of every key that C determines and of no other; a key that
    is new names Z as its class."""
    gained = 0
    for make in MAKES:
        for seed in range(200):
            m = make(seed)
            c = sorted(m.classes)[seed % len(m.classes)]
            before = membership(m)
            m.touch_class("Z")
            m.add_equivalence(c, "Z")
            after = membership(m)
            label = f"{make.__name__}({seed}), Z = {c}"
            for item, entry in before.items():
                assert after[item].n == entry.n, (label, item)
                joins = ["Z"] if c in entry.determiners else []
                assert sorted(after[item].determiners) == sorted([*entry.determiners, *joins]), (
                    label,
                    item,
                )
            new = after.keys() - before.keys()
            assert all(kind != "property" and key.resulting_class == "Z" for kind, key in new), (
                label
            )
            gained += bool(new)
    assert gained > 50, gained  # keys gained through relations mirrored onto Z


def renamed_outputs(m, rename: dict):
    """The normalized model JSON, the rules JSON, the normalize warnings and
    the traces of m, with every class name looked up in rename.  The model
    and the rules are renamed element by element, the warnings and the
    traces as text, word by word: the names here are words."""
    result = normalize(m, bound=0)
    model = renamed_model(result.model, {**{p: p for p in result.model.properties}, **rename})
    model.normalized = True
    runs = [
        (
            (premise if isinstance(premise, str) else
             premise._replace(resulting_class=rename[premise.resulting_class]), n),
            tuple(rename[c] for c in conclusions),
        )
        for (premise, n), conclusions in premise_runs(assign_all(result.model))
    ]

    def text(value: str) -> str:
        return re.sub(r"\w+", lambda word: rename.get(word.group(), word.group()), value)

    return (
        emit_json(model),
        b"".join(runs_json_chunks(runs)),
        [(w.code, text(w.message), text(w.location)) for w in result.warnings],
        [(t.rule, text(t.produced), *map(text, t.sources)) for t in traces(result)],
    )


def test_an_order_preserving_renaming_of_the_classes_renames_the_output():
    """A common prefix on every class name keeps the order of names, so the
    output is the original's with the names mapped, in the same order: the
    model, the rules, the warnings and the traces."""
    models = [(name, parse_document(fixture_bytes(name), "rdfxml")) for name in FIXTURE_NAMES]
    models += [(f"random_model({seed})", random_model(seed)) for seed in range(200)]
    for name, m in models:
        rename = {c: "k" + c for c in m.classes}
        renamed = renamed_model(m, {**{p: p for p in m.properties}, **rename})
        expected = renamed_outputs(m, rename)
        assert renamed_outputs(renamed, {c: c for c in renamed.classes}) == expected, name


def load_gen(monkeypatch):
    """perfbench/gen.py, which writes the benchmark's seeded RDF/XML inputs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def shuffled(document: bytes, seed: int) -> bytes:
    """document with the top-level elements under its root in a seeded order.
    Each element takes along the text up to the next one, so every byte of
    the document is kept."""
    parser = expat.ParserCreate()
    starts, depth, end = [], 0, 0

    def start(tag, attrs):
        nonlocal depth
        depth += 1
        if depth == 2:
            starts.append(parser.CurrentByteIndex)

    def stop(tag):
        nonlocal depth, end
        depth -= 1
        if depth == 0:
            end = parser.CurrentByteIndex  # the root's end tag

    parser.StartElementHandler, parser.EndElementHandler = start, stop
    parser.Parse(document, True)
    if not starts:
        return document
    bounds = starts + [end]
    pieces = [document[a:b] for a, b in zip(bounds, bounds[1:])]
    random.Random(seed).shuffle(pieces)
    return document[: bounds[0]] + b"".join(pieces) + document[end:]


def outputs(document: bytes):
    """Everything a run derives from an RDF/XML document: the normalize,
    assign and rules JSON, the traces, passes and tally as bytes or values,
    and the parse and normalize warnings as multisets."""
    model = parse_document(document, "rdfxml")
    result = normalize(model, bound=0)
    annotated = assign_all(result.model)
    return (
        emit_json(result.model),
        annotated_to_json(annotated),
        b"".join(runs_json_chunks(premise_runs(annotated))),
        b"".join(traces_chunks(traces(result))),
        result.passes,
        result.tally,
        Counter(model.parse_warnings),
        Counter(result.warnings),
    )


def test_shuffling_top_level_elements_changes_no_output(monkeypatch):
    """The reader takes each top-level element on its own, and every output
    is sorted, so the document order of classes and property blocks shows
    nowhere: not in the output bytes, the traces, the pass count or the
    tally, and not in the warnings, counted as multisets."""
    gen = load_gen(monkeypatch)
    documents = [(name, fixture_bytes(name), 5) for name in FIXTURE_NAMES]
    documents += [("hierarchy(120, 1)", gen.hierarchy(120, 1).to_rdfxml(), 1)]
    documents += [("flat(300, 1)", gen.flat(300, 1).to_rdfxml(), 1)]
    moved = 0
    for name, document, shuffles in documents:
        expected = outputs(document)
        for seed in range(shuffles):
            other = shuffled(document, seed)
            assert len(other) == len(document), (name, seed)
            moved += other != document
            assert outputs(other) == expected, (name, seed)
    assert moved > 20, moved
