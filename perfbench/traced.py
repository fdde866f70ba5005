"""In-process traced run of the `rules` pipeline, for the per-layer metrics.

The pipeline is the one `fuzzonto rules INPUT --out FILE` runs, called
through the package's public functions with a span around each call.  Calls
that only happen inside normalize() and assign_all() are reached by wrapping
the module attribute they are looked up through; nothing under src/ changes.
Spans stay in memory and are written out by the caller when the run ends.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

LAYERS = ("ingest", "normalize", "closure", "membership", "rules", "emit")
# membership helpers that assign_all() looks up in its own module
MEMBERSHIP_HELPERS = {
    "build_equivalence_groups": "membership.groups",
    "assign_property_mu": "membership.property",
    "assign_partof_mu": "membership.partof",
    "assign_relation_mu": "membership.relation",
    "copy_to_equivalents": "membership.widen",
}


class Tracer:
    """Spans (name, start, end, parent, request) plus counters, in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.request = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int) -> None:
        key = (self.request, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, module, attr: str, name: str, counter=None) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if counter is not None:
                for counted, amount in counter(args, result).items():
                    self.count(counted, amount)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def unwrap(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)


def _closure_counts(args, result) -> dict:
    return {"closure.calls": 1, "closure.edges": len(args[1]), "closure.pairs": len(result)}


class TracedPipeline:
    """Runs the rules pipeline in this process with every layer traced."""

    def __init__(self, src: str) -> None:
        if src not in sys.path:
            sys.path.insert(0, src)
        import fuzzonto  # noqa: F401  (registers the submodules below)

        self.ingest = sys.modules["fuzzonto.ingest"]
        # fuzzonto.normalize is the function; the module is only in sys.modules
        self.normalize = sys.modules["fuzzonto.normalize"]
        self.membership = sys.modules["fuzzonto.membership"]
        self.rules = sys.modules["fuzzonto.rules"]
        self.emit = sys.modules["fuzzonto.emit"]
        self.tracer = Tracer()
        self.tracer.wrap(
            sys.modules["fuzzonto.closure"], "reachable_pairs", "closure", _closure_counts
        )
        for attr, name in MEMBERSHIP_HELPERS.items():
            self.tracer.wrap(self.membership, attr, name)

    def close(self) -> None:
        self.tracer.unwrap()

    def run(self, source: str, out: str, keep_model: bool = False):
        """One traced pass; returns (metrics, rules bytes, normalized model bytes)."""
        t = self.tracer
        t.request += 1
        started = time.perf_counter()
        with open(source, "rb") as handle:
            data = handle.read()
        with t.span("ingest.parse"):
            model = self.ingest.parse_document(data, "rdfxml")
        with t.span("ingest.validate"):
            self.ingest.validate_model(model)
        with t.span("normalize"):
            result = self.normalize.normalize(model)
        with t.span("membership"):
            annotated = self.membership.assign_all(result.model)
        with t.span("rules.generate"):
            rule_list = self.rules.generate_rules(annotated)
        with t.span("rules.check"):
            violations = self.rules.check_consistency(rule_list, annotated)
        with t.span("emit"):
            output = self.emit.rules_to_json(rule_list)
        with open(out, "wb") as handle:
            handle.write(output)
        wall = time.perf_counter() - started

        model_bytes = self.emit.emit_json(result.model) if keep_model else None
        metrics = self._metrics(wall)
        metrics.update(
            {
                "ingest.elements": model.element_count(),
                "normalize.elements": result.model.element_count(),
                "normalize.passes": result.passes,
                "membership.keys.property": len(annotated.table.property_mu),
                "membership.keys.part_of": sum(
                    1 for k in annotated.table.complex_mu if k.kind == "part_of"
                ),
                "membership.keys.relation": sum(
                    1 for k in annotated.table.complex_mu if k.kind == "relation"
                ),
                "rules.count": len(rule_list),
                "rules.violations": len(violations),
                "emit.bytes": len(output),
            }
        )
        for rule, added in result.tally.items():
            metrics[f"normalize.added.{rule}"] = added
        derived = result.tally.get("subclass-closure", 0) + result.tally.get(
            "transitive-close", 0
        )
        pairs = metrics["closure.pairs"]
        metrics["closure.useful_ratio"] = derived / pairs if pairs else 0.0
        return metrics, output, model_bytes

    def _metrics(self, wall: float) -> dict:
        """Span sums, per-layer self times and counters of the current request."""
        spans = [s for s in self.tracer.spans if s["request"] == self.tracer.request]
        duration = {s["id"]: s["end"] - s["start"] for s in spans}
        child_time: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration[s["id"]]
        total: dict[str, float] = {}
        self_time = {layer: 0.0 for layer in LAYERS}
        for s in spans:
            total[s["name"]] = total.get(s["name"], 0.0) + duration[s["id"]]
            layer = s["name"].split(".")[0]
            self_time[layer] += duration[s["id"]] - child_time.get(s["id"], 0.0)

        metrics = {
            "trace.pass_s": wall,
            "ingest.parse_s": total.get("ingest.parse", 0.0),
            "ingest.validate_s": total.get("ingest.validate", 0.0),
            "normalize.s": total.get("normalize", 0.0),
            "closure.s": total.get("closure", 0.0),
            "membership.s": total.get("membership", 0.0),
            "rules.generate_s": total.get("rules.generate", 0.0),
            "rules.check_s": total.get("rules.check", 0.0),
            "emit.s": total.get("emit", 0.0),
        }
        for name in MEMBERSHIP_HELPERS.values():
            metrics[name + "_s"] = total.get(name, 0.0)
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_time[layer]
        metrics["trace.remainder_s"] = wall - sum(self_time.values())
        for name in ("closure.calls", "closure.edges", "closure.pairs"):
            metrics[name] = self.tracer.counts.get((self.tracer.request, name), 0)
        return metrics
