"""A seeded hostile-input gate: mutants of the fixtures and of their
normalized JSON go through the CLI pipeline in process, and every run must
end with a documented exit code (0-4), never an exception."""

import random
import re

from conftest import FIXTURE_NAMES, fixture_path, normalize_fixture
from fuzzonto import emit_json
from fuzzonto.cli import run_pipeline

MUTANTS = 300


def mutate(rng: random.Random, data: bytes) -> bytes:
    """One or two of: byte flips, truncation, a duplicated span, a huge
    name everywhere it occurs, rdf:about="#X" turned into rdf:ID="X"."""
    for _ in range(rng.randint(1, 2)):
        op = rng.randrange(5)
        if op == 0 and data:
            flipped = bytearray(data)
            for _ in range(rng.randint(1, 4)):
                flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
            data = bytes(flipped)
        elif op == 1:
            data = data[: rng.randrange(len(data) + 1)]
        elif op == 2 and data:
            start = rng.randrange(len(data))
            end = rng.randint(start, min(len(data), start + 400))
            data = data[:end] + data[start:end] * rng.randint(1, 5) + data[end:]
        elif op == 3:
            names = re.findall(rb'[#"]([A-Za-z_]\w*)"', data)
            if names:
                name = re.escape(rng.choice(names))
                huge = b"x" * rng.choice((300, 30000))
                data = re.sub(rb'([#"])' + name + b'"', rb"\1" + name + huge + b'"', data)
        else:
            data = data.replace(b'rdf:about="#', b'rdf:ID="', rng.randint(1, 5))
    return data


def test_mutants_end_with_a_documented_exit_code(tmp_path, capsys):
    originals = [fixture_path(name).read_bytes() for name in FIXTURE_NAMES]
    originals += [emit_json(normalize_fixture(name).model) for name in FIXTURE_NAMES]
    rng = random.Random(14)
    source, out, report = (str(tmp_path / name) for name in ("input", "out", "report"))
    codes = set()
    for i in range(MUTANTS):
        with open(source, "wb") as handle:
            handle.write(mutate(rng, rng.choice(originals)))
        args = [rng.choice(("rules", "assign", "normalize")), source, "--out", out]
        args += [option for option in ("--trace", "--strict") if rng.random() < 0.3]
        if rng.random() < 0.3:
            args += ["--report", report]
        code = run_pipeline(args)
        assert code in range(5), (i, args, code)
        assert "Traceback" not in capsys.readouterr().err, (i, args)
        codes.add(code)
    assert {0, 1} <= codes, codes  # the mutants reach the pipeline and the parsers' errors
