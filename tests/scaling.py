"""Growth curve of the pipeline: run it at several sizes and write BENCH_scaling.json.

    PYTHONPATH=src python tests/scaling.py

The inputs are perfbench's recipes at seed 1: gen.hierarchy at 100, 200, 400,
800 and 1,600 classes and gen.flat at 1,000 and 20,000.  Each input runs
`python -m fuzzonto rules INPUT --max-elements 0 --report REPORT --out OUT`
RUNS (3) times through tests/peak_rss.py, so that the peak RSS is the
child's own.  At hierarchy 800 and flat 20,000 the staged commands run as
well: normalize to JSON and to RDF/XML, assign, and rules on each of the two
normalized documents.  One record per input and command holds:

* elements: the element count after normalize (the report's
  counts.after.total);
* phases_ms: each report phase's ms, the fastest of the runs;
* us_per_element: the sum of phases_ms over elements, in µs;
* peak_rss_mb: the highest peak RSS of the runs;
* calls: the Python and C calls that code in src/fuzzonto makes in one
  in-process run of the rules pipeline, counted as tests/test_work_count.py
  counts them; only on the `rules` records read straight from the recipe.

The children run the fuzzonto package that this process imports.  The
times and the peak RSS depend on the host, which the file names; the
element and call counts do not.  The sweep takes a few minutes on 2 vCPUs
and peaks at about 0.8 GB, in the staged assign at flat 20,000.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import fuzzonto
from test_work_count import pipeline_calls

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "perfbench") not in sys.path:
    sys.path.append(str(ROOT / "perfbench"))
import gen  # noqa: E402  (perfbench's recipes)

SEED = 1
RUNS = 3
SIZES = [("hierarchy", n) for n in (100, 200, 400, 800, 1600)] + [("flat", 1000), ("flat", 20000)]
STAGED_AT = {("hierarchy", 800), ("flat", 20000)}


def run_command(args: list[str], report: Path) -> tuple[dict, float]:
    """One `python -m fuzzonto ARGS --report REPORT` child under
    tests/peak_rss.py: the report and the child's peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(Path(fuzzonto.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "peak_rss.py"), "inf", "--", *args],
        env=env,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        check=True,
    )
    peak = proc.stdout.splitlines()[-1]  # "peak RSS 16.4 MB"
    return json.loads(report.read_text(encoding="utf-8")), float(peak.split()[2])


def measure(name: str, command: str, args: list[str], work: Path, runs: int) -> dict:
    """The record of `fuzzonto ARGS --max-elements 0`, run runs times."""
    report = work / "report.json"
    args = [*args, "--max-elements", "0", "--report", str(report)]
    phases: dict[str, float] = {}
    peak = 0.0
    for _ in range(runs):
        document, rss = run_command(args, report)
        for phase, ms in document["timings_ms"].items():
            phases[phase] = min(ms, phases.get(phase, ms))
        peak = max(peak, rss)
    elements = document["counts"]["after"]["total"]
    return {
        "input": name,
        "command": command,
        "elements": elements,
        "phases_ms": phases,
        "us_per_element": round(sum(phases.values()) * 1000.0 / elements, 3),
        "peak_rss_mb": peak,
    }


def records(recipe: str, classes: int, work: Path, runs: int = RUNS, staged: bool = False):
    """The rules record of one recipe at one size, with its call counts, and
    with staged, the staged commands' records after it."""
    name = f"{recipe} {classes}"
    source = str(work / f"{recipe}-{classes}.owl")
    data = getattr(gen, recipe)(classes, SEED).to_rdfxml()
    Path(source).write_bytes(data)
    out = str(work / "out")
    record = measure(name, "rules", ["rules", source, "--out", out], work, runs)
    calls, _ = pipeline_calls(data)
    record["calls"] = {"python": calls["python"], "c": calls["c"]}
    yield record
    if not staged:
        return
    as_json, as_xml = str(work / "model.json"), str(work / "model.owl")
    for command, args in (
        ("normalize", ["normalize", source, "--out", as_json]),
        ("normalize --format rdfxml", ["normalize", source, "--format", "rdfxml", "--out", as_xml]),
        ("assign", ["assign", source, "--out", out]),
        ("rules on normalize's JSON", ["rules", as_json, "--out", out]),
        ("rules on normalize's RDF/XML", ["rules", as_xml, "--out", out]),
    ):
        yield measure(name, command, args, work, runs)


def main() -> None:
    found = []
    with tempfile.TemporaryDirectory(prefix="fuzzonto-scaling-") as tmp:
        for recipe, classes in SIZES:
            staged = (recipe, classes) in STAGED_AT
            for record in records(recipe, classes, Path(tmp), staged=staged):
                print(json.dumps(record, sort_keys=True), flush=True)
                found.append(record)
    document = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "seed": SEED,
        "runs": RUNS,
        "records": found,
    }
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    (ROOT / "BENCH_scaling.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
