"""Command-line pipeline: parse -> validate -> normalize -> assign -> rules.

Subcommands pick how far the pipeline runs and what gets serialized:

* ``normalize``  emits the normalized model (JSON or RDF/XML);
* ``assign``     emits the model annotated with membership values (JSON);
* ``rules``      emits identifying fuzzy rules (JSON or text).

Primary output goes to stdout unless --out is given; diagnostics go to
stderr; --report writes a machine-readable run report.  Output is written in
blocks as the writers yield it.  A file is written atomically (temp file +
rename), but a FIFO or a device in place.  Exit codes: 0 ok, 2 validation
errors under --strict, or the exit status a FuzzontoError states: 1 parse
failure, unreadable input or unwritable output (a name that RDF/XML cannot
carry included), 3 unsupported construct under --strict, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
import time

from . import emit, ingest, membership, rules as rulegen
from .errors import FuzzontoError, IOFailure
from .model import Diagnostic
from .normalize import DEFAULT_BOUND, normalize

EXIT_OK = 0
EXIT_VALIDATION = 2

BLOCK_SIZE = 1 << 18  # bytes per write: a write per chunk costs more, a bigger block holds more


def _element_budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


_COMMANDS = (
    ("normalize", ("json", "rdfxml"), "emit the normalized model"),
    ("assign", ("json",), "emit the membership-annotated model"),
    ("rules", ("json", "text"), "emit identifying fuzzy rules"),
)


def _build_parser(args: list[str]) -> argparse.ArgumentParser:
    """The parser for args: only the named command's, under a metavar that
    keeps all three names in the usage line, or else all three, under the
    metavar that names the command "command" in help and usage errors."""
    parser = argparse.ArgumentParser(
        prog="fuzzonto",
        description="Normalize OWL subset ontologies, assign membership values, "
        "and generate identifying fuzzy rules.",
    )
    chosen = [entry for entry in _COMMANDS if args[:1] == [entry[0]]]
    metavar = "{" + ",".join(entry[0] for entry in _COMMANDS) + "}" if chosen else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for command, formats, summary in chosen or _COMMANDS:
        p = sub.add_parser(command, help=summary)
        p.add_argument("source", help="input document (RDF/XML or model JSON)")
        p.add_argument(
            "--format",
            choices=formats,
            default="json",
            help="output format (default: json)",
        )
        p.add_argument(
            "--strict",
            action="store_true",
            help="fail on unsupported constructs and validation errors",
        )
        p.add_argument("--trace", action="store_true", help="record rewrite traces")
        p.add_argument("--report", metavar="PATH", help="write a run report to PATH")
        p.add_argument(
            "--max-elements",
            type=_element_budget,
            default=DEFAULT_BOUND,
            metavar="N",
            help=f"element budget for normalization, 0 for none (default {DEFAULT_BOUND})",
        )
        p.add_argument("--out", metavar="PATH", help="write output to PATH, not stdout")
        if command != "normalize":
            p.add_argument(
                "--asserted-only",
                action="store_true",
                help="count only asserted elements as determiners",
            )
    return parser


def _sniff_format(data: bytes) -> str:
    data = data.removeprefix(b"\xef\xbb\xbf")  # a UTF-8 byte order mark
    return "rdfxml" if data.lstrip()[:1] == b"<" else "json"


def _print_diagnostics(diagnostics) -> None:
    """One rendered line per diagnostic on stderr, which may be closed."""
    lines = (f"{d.render()}\n".encode("utf-8", "backslashreplace") for d in diagnostics)
    _write_stream(sys.stderr, lines)


def _write_blocks(handle, chunks) -> None:
    """Write an iterable of byte chunks in blocks of about BLOCK_SIZE bytes."""
    block, size = [], 0
    for chunk in chunks:
        block.append(chunk)
        size += len(chunk)
        if size >= BLOCK_SIZE:
            handle.write(b"".join(block))
            block, size = [], 0
    handle.write(b"".join(block))


def write_atomic(path: str, chunks) -> None:
    """Write byte chunks to path: in place if it exists and is not a regular
    file, such as a FIFO, a device or /dev/fd/N, which a rename would replace;
    else, following a symlink, through a temp file and a rename, with the
    mode of the file replaced, or for a new file the mode open() gives."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as handle:
            _write_blocks(handle, chunks)
        return
    path = os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".fuzzonto-")
    try:
        with os.fdopen(fd, "wb") as handle:
            os.fchmod(handle.fileno(), mode)
            _write_blocks(handle, chunks)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _write(path: str | None, chunks) -> None:
    """Write byte chunks to path, or to stdout without one.  A failed write
    is an IOFailure with strerror, since the OSError may name the temp file."""
    if not path:
        _write_stream(sys.stdout, chunks)
        return
    try:
        write_atomic(path, chunks)
    except OSError as exc:
        raise IOFailure(f"cannot write {path}: {exc.strerror}") from None


def _write_stream(stream, chunks) -> None:
    """Write byte chunks to stdout or stderr in blocks.  If the reader has
    gone, as `| head` does, the rest is dropped quietly: the stream's
    descriptor then points at /dev/null, where the exit flush writes."""
    try:
        _write_blocks(stream.buffer, chunks)
        stream.buffer.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def run_pipeline(args: list[str]) -> int:
    """Run one command and return its exit code.  A FuzzontoError ends the
    run with one error line, under its code, and its exit status.

    The cyclic garbage collector is off for the run and back in its previous
    state on every exit: the pipeline builds no reference cycles, and the
    collector's passes over its many element tuples cost 15-25 ms of a
    benchmark run.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(args)
    except FuzzontoError as exc:
        _print_diagnostics([Diagnostic(exc.code, "error", str(exc))])
        return exc.exit_status
    finally:
        if enabled:
            gc.enable()


def _run(args: list[str]) -> int:
    options = _build_parser(args).parse_args(args)
    timings: dict[str, float] = {}

    try:
        with open(options.source, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise IOFailure(f"cannot read {options.source}: {exc}") from None

    started = time.perf_counter()
    model = ingest.parse_document(data, _sniff_format(data), strict=options.strict)
    del data  # a 50 MB document would otherwise stay alive through every phase
    timings["ingest"] = time.perf_counter() - started

    diagnostics = list(model.parse_warnings) + ingest.validate_model(model)
    _print_diagnostics(diagnostics)
    if options.strict and any(d.severity == "error" for d in diagnostics):
        return EXIT_VALIDATION

    started = time.perf_counter()
    result = normalize(model, bound=options.max_elements)
    timings["normalize"] = time.perf_counter() - started
    _print_diagnostics(result.warnings)
    diagnostics += list(result.warnings)

    asserted_only = getattr(options, "asserted_only", False)
    annotated = None
    runs = None
    if options.command in ("assign", "rules"):
        started = time.perf_counter()
        annotated = membership.assign_all(result.model, asserted_only=asserted_only)
        timings["membership"] = time.perf_counter() - started
    if options.command == "rules":
        started = time.perf_counter()
        runs = rulegen.premise_runs(annotated)
        violations = rulegen.check_runs(runs, annotated)
        _print_diagnostics(violations)
        diagnostics += violations
        timings["rules"] = time.perf_counter() - started

    if options.command == "normalize" and options.format == "json":
        output = [emit.emit_json(result.model)]
    elif options.command != "rules":
        from . import staged  # the assign and RDF/XML writers; no other run loads it

        if options.command == "assign":
            output = [staged.annotated_to_json(annotated)]
        else:
            output = [staged.emit_normalized_rdf(result.model)]
    elif options.format == "text":
        output = map(str.encode, emit.runs_text_chunks(runs))
    else:
        output = emit.runs_json_chunks(runs)
    _write(options.out, output)

    if options.trace:
        from .trace import report_to_json, traces, traces_chunks  # only a traced run loads it
    if options.trace and not options.report:
        _write_stream(sys.stderr, traces_chunks(traces(result)))
    if options.report:
        report = _build_report(options, model, result, diagnostics, timings)
        if options.trace:
            document = report_to_json(report, traces(result))
        else:
            document = [emit.dump_json(report)]
        _write(options.report, document)
    return EXIT_OK


def _build_report(options, model, result, diagnostics, timings) -> dict:
    """The run report; with --trace, trace.report_to_json adds the traces."""
    return {
        "schema": ingest.SCHEMA_VERSION,
        "command": options.command,
        "phases": list(timings),
        "warnings": [d._asdict() for d in diagnostics],
        "counts": {"before": model.counts(), "after": result.model.counts()},
        "rewrites": result.tally,
        "passes": result.passes,
        "timings_ms": {k: round(v * 1000.0, 3) for k, v in timings.items()},
    }


def main(argv: list[str] | None = None) -> int:
    return run_pipeline(sys.argv[1:] if argv is None else argv)


def console_entry() -> None:
    """The `fuzzonto` script and `python -m fuzzonto`: main(), a flush, then
    os._exit, which skips tearing down every object of the run.  An exception
    or a SystemExit, as argparse raises, leaves the normal way."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_entry()
