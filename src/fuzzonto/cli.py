"""Command-line pipeline: parse -> validate -> normalize -> assign -> rules.

Subcommands pick how far the pipeline runs and what gets serialized:

* ``normalize``  emits the normalized model (JSON or RDF/XML);
* ``assign``     emits the model annotated with membership values (JSON);
* ``rules``      emits identifying fuzzy rules (JSON or text).

Primary output goes to stdout unless --out is given; diagnostics go to
stderr; --report writes a machine-readable run report.  Output is written in
blocks as the writers yield it.  All file writes are atomic (temp file +
rename).  Exit codes: 0 ok, 1 parse failure, unreadable input or unwritable
output (a name that RDF/XML cannot carry included), 2 validation errors under
--strict, 3 unsupported construct under --strict, 4 element budget exceeded.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
import time

from . import emit, ingest, membership, rules as rulegen
from .errors import (
    DuplicateIdentifier,
    FixpointOverflow,
    MalformedDocument,
    UnsupportedConstruct,
    UnwritableName,
)
from .model import Diagnostic
from .normalize import DEFAULT_BOUND, normalize

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_UNSUPPORTED = 3
EXIT_OVERFLOW = 4

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
    """Write byte chunks to path through a temp file and a rename, with the
    mode of the file replaced, or for a new file the mode open() gives."""
    try:
        mode = os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fuzzonto-")
    try:
        with os.fdopen(fd, "wb") as handle:
            os.fchmod(handle.fileno(), mode)
            _write_blocks(handle, chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_file(path: str, chunks) -> bool:
    """write_atomic, reporting a failure as error[io] and returning False.
    The message takes strerror, since the exception's text names the temp
    file."""
    try:
        write_atomic(path, chunks)
    except OSError as exc:
        _print_diagnostics([Diagnostic("io", "error", f"cannot write {path}: {exc.strerror}")])
        return False
    return True


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


def _emit_output(chunks, out_path: str | None) -> bool:
    if out_path:
        return _write_file(out_path, chunks)
    _write_stream(sys.stdout, chunks)
    return True


def run_pipeline(args: list[str]) -> int:
    """Run one command and return its exit code.

    The cyclic garbage collector is off for the run and back in its previous
    state on every exit: the pipeline builds no reference cycles, and the
    collector's passes over its many element tuples cost 15-25 ms of a
    benchmark run.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(args)
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
        _print_diagnostics([Diagnostic("io", "error", f"cannot read {options.source}: {exc}")])
        return EXIT_PARSE

    started = time.perf_counter()
    try:
        model = ingest.parse_document(data, _sniff_format(data), strict=options.strict)
    except UnsupportedConstruct as exc:
        _print_diagnostics([Diagnostic("unsupported-construct", "error", str(exc))])
        return EXIT_UNSUPPORTED
    except (MalformedDocument, DuplicateIdentifier) as exc:
        _print_diagnostics([Diagnostic("parse", "error", str(exc))])
        return EXIT_PARSE
    del data  # a 50 MB document would otherwise stay alive through every phase
    timings["ingest"] = time.perf_counter() - started

    diagnostics = list(model.parse_warnings) + ingest.validate_model(model)
    _print_diagnostics(diagnostics)
    if options.strict and any(d.severity == "error" for d in diagnostics):
        return EXIT_VALIDATION

    started = time.perf_counter()
    try:
        result = normalize(model, bound=options.max_elements, trace=options.trace)
    except FixpointOverflow as exc:
        _print_diagnostics([Diagnostic("fixpoint-overflow", "error", str(exc))])
        return EXIT_OVERFLOW
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

    if options.command == "normalize":
        if options.format == "rdfxml":
            try:
                output = [emit.emit_normalized_rdf(result.model)]
            except UnwritableName as exc:
                _print_diagnostics([Diagnostic("unwritable-name", "error", str(exc))])
                return EXIT_PARSE
        else:
            output = [emit.emit_json(result.model)]
    elif options.command == "assign":
        output = [emit.annotated_to_json(annotated)]
    elif options.format == "text":
        output = map(str.encode, emit.runs_text_chunks(runs))
    else:
        output = emit.runs_json_chunks(runs)
    if not _emit_output(output, options.out):
        return EXIT_PARSE

    if options.trace and not options.report:
        _write_stream(sys.stderr, emit.traces_chunks(result.traces))
    if options.report:
        report = _build_report(options, model, result, diagnostics, timings)
        if options.trace:
            document = emit.report_to_json(report, result.traces)
        else:
            document = [emit.dump_json(report)]
        if not _write_file(options.report, document):
            return EXIT_PARSE
    return EXIT_OK


def _build_report(options, model, result, diagnostics, timings) -> dict:
    """The run report; with --trace, emit.report_to_json adds the traces."""
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
