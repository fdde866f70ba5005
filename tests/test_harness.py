"""The traced benchmark harness, perfbench/traced.py, runs the pipeline
through module attributes that it wraps or calls by name.  This checks,
reading the harness only, that those names still resolve, are still called
and give the bytes `fuzzonto rules` writes."""

import importlib.util
import sys
from pathlib import Path

from conftest import FIXTURE_NAMES, fixture_path
from fuzzonto.cli import run_pipeline

ROOT = Path(__file__).resolve().parents[1]


def load_traced():
    spec = importlib.util.spec_from_file_location(
        "perfbench_traced", ROOT / "perfbench" / "traced.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_harness_calls_every_wrapped_name_and_gives_the_cli_bytes(
    tmp_path, monkeypatch
):
    traced = load_traced()
    monkeypatch.setattr(sys, "path", list(sys.path))  # the harness prepends src
    pipeline = traced.TracedPipeline(str(ROOT / "src"))
    outputs = {}
    try:
        for name in FIXTURE_NAMES:
            metrics, outputs[name], _ = pipeline.run(
                str(fixture_path(name)), str(tmp_path / "traced.json")
            )
            assert metrics["rules.violations"] == 0, name
    finally:
        pipeline.close()
    # names, not times, so the check does not depend on the machine
    spans = {span["name"] for span in pipeline.tracer.spans}
    assert {"closure", *traced.MEMBERSHIP_HELPERS.values()} <= spans

    out = tmp_path / "rules.json"
    for name in FIXTURE_NAMES:
        assert run_pipeline(["rules", str(fixture_path(name)), "--out", str(out)]) == 0
        assert outputs[name] == out.read_bytes(), name
