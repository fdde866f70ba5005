"""Work-count gate: the calls that code in src/fuzzonto makes per output
element must not grow with the ontology.

sys.setprofile counts the Python calls whose caller, and the C calls whose
calling frame, runs code in src/fuzzonto, over normalize, assign_all,
premise_runs and check_runs, on perfbench's hierarchy recipe at 100 and 400
classes (seed 1).  Unlike wall time, these counts do not move with the load
of the host.  Python 3.12 inlines comprehensions (PEP 709), so the counts
differ between Python versions; the bound is a ratio between sizes, not a
count.
"""

import sys
from collections import Counter
from pathlib import Path

import fuzzonto
from fuzzonto import assign_all, check_runs, normalize, parse_document, premise_runs

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = str(Path(fuzzonto.__file__).resolve().parent)

GROWTH_BOUND = 1.25  # calls per output element at 400 classes over those at 100


def _in_package(code) -> bool:
    return code.co_filename.startswith(PACKAGE)


def pipeline_calls(data: bytes) -> tuple[Counter, int]:
    """The Python and C calls made from src/fuzzonto by one untraced run of
    the rules pipeline on an RDF/XML document, and its output's element
    count; parsing is not counted."""
    model = parse_document(data, "rdfxml")
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_back is not None and _in_package(frame.f_back.f_code):
            calls["python"] += 1
        elif event == "c_call" and _in_package(frame.f_code):
            calls["c"] += 1

    sys.setprofile(profile)
    try:
        result = normalize(model, bound=0)
        annotated = assign_all(result.model)
        check_runs(premise_runs(annotated), annotated)
    finally:
        sys.setprofile(None)
    return calls, result.model.element_count()


def test_calls_per_output_element_do_not_grow_with_the_hierarchy(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import gen

    per_element = {}
    for classes in (100, 400):
        calls, elements = pipeline_calls(gen.hierarchy(classes, 1).to_rdfxml())
        assert calls["python"] and calls["c"], calls
        per_element[classes] = (calls["python"] + calls["c"]) / elements
    assert per_element[400] <= GROWTH_BOUND * per_element[100], per_element
