"""``repro-opt`` — an ``mlir-opt`` analogue for the reproduction's IR.

Reads textual IR (file or stdin), verifies it, runs either a pass pipeline
spec (``--passes 'builtin.module(cse,func.func(canonicalize))'``, flat
``--passes canonicalize,cse`` also accepted) or one of the paper's full
compiler-model pipelines (``--pipeline sycl-mlir``), verifies the result,
and prints the optimized IR.  The compile report (statistics and remarks
collected by the passes) can be dumped with ``--report``.

Pass-instrumentation backed debugging flags mirror mlir-opt:

* ``--print-ir-before PASS`` / ``--print-ir-after PASS`` /
  ``--print-ir-after-all`` dump the anchored IR around pass executions;
* ``--verify-each`` verifies the IR after every pass (and dumps the broken
  IR when verification fails);
* ``--lint`` runs the static lint rules (:mod:`repro.analysis.lint`) on
  the final IR; ``--lint-each`` lints after every pass, naming the pass
  that introduced each finding;
* ``--verify-diagnostics`` checks emitted diagnostics against
  ``// expected-error {{...}}`` comments in the input (mlir-opt's
  ``-verify-diagnostics``); output IR is suppressed in this mode;
* ``--print-locations`` prints ``loc(...)`` trailers on every operation
  (mlir-opt's ``-mlir-print-debuginfo``);
* ``--dump-pass-pipeline`` prints the canonical spec of the pipeline about
  to run (the ``parse_pass_pipeline`` / ``dump_pass_pipeline`` round trip);
* ``--timing`` prints a per-pass wall-time table keyed by pipeline
  position, so duplicate passes stay distinguishable.

Batch mode: several input paths and/or ``--split-input-file`` (segments
separated by ``// -----`` lines, the mlir-opt convention) compile every
module through *one* pass manager and one fingerprint-keyed
:class:`~repro.transforms.compile_cache.CompileCache` (disable with
``--no-cache``).  With ``--jobs N`` a batch runs on N supervised worker
processes instead, each compiling whole segments; a single module, or a
batch that needs the parent to observe its modules (instrumentation,
``--lint``, ``--verify-diagnostics``, ``--emit=mlir``), compiles
serially in-process.  Optimized modules are printed in input order,
joined by ``// -----``.

This is the workflow MLIR passes are developed against: every transform
gets textual before/after test cases runnable through this driver (see
``docs/textual_ir.md`` and the FileCheck-lite helper in ``tests/``).
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from typing import List, Optional, Tuple

from .. import dialects  # noqa: F401 - registers ops and types
from ..ir import (
    DiagnosticEngine,
    ParseError,
    Printer,
    Severity,
    VerificationError,
    parse_module,
    verify,
    verify_with_diagnostics,
)
from ..transforms.compile_cache import CompileCache, text_fingerprint
from ..transforms.disk_cache import DiskCache, cache_dir_from_env
from ..transforms.pass_manager import (
    CompileReport,
    GcTiming,
    IRPrintingInstrumentation,
    LintInstrumentation,
    VerifierInstrumentation,
)
from ..transforms.pipeline_specs import NAMED_PIPELINE_SPECS
from ..transforms.pipelines import (
    check_pass_pipeline,
    describe_registered_passes,
    build_named_pipeline,
    dump_pass_pipeline,
    parse_pass_pipeline,
    resolve_pass_name,
)
from . import read_input


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-opt",
        description="Parse, optimize and re-print textual IR.")
    parser.add_argument(
        "inputs", nargs="*", default=["-"], metavar="input",
        help="input IR files, or '-' for stdin (default); several files "
             "form a batch compiled through one shared cache")
    parser.add_argument(
        "-o", "--output", default="-",
        help="output file, or '-' for stdout (default)")
    parser.add_argument(
        "--split-input-file", action="store_true",
        help="split each input on '// -----' lines and compile every "
             "segment as its own module (batch mode)")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="compile a batch on N supervised worker processes, each "
             "compiling whole segments (default 1 = serial); a single "
             "module always compiles serially in-process")
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-segment wall-clock deadline on a worker process "
             "before a worker is presumed hung and the pool restarted "
             "(default 60)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the fingerprint-keyed compile cache shared across "
             "batch segments")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="root of a persistent on-disk artifact cache shared across "
             "invocations and with repro-served (default: "
             "$REPRO_CACHE_DIR when set, else memory-only)")
    parser.add_argument(
        "--passes", default=None, metavar="SPEC",
        help="pass pipeline spec, e.g. 'canonicalize,cse' or "
             "'builtin.module(cse,func.func(canonicalize"
             "{max-iterations=10},licm))'")
    parser.add_argument(
        "--pipeline", default=None, choices=sorted(NAMED_PIPELINE_SPECS),
        help="run a full compiler-model pipeline instead of --passes")
    parser.add_argument(
        "--no-verify", action="store_true",
        help="skip IR verification before and after the pipeline")
    parser.add_argument(
        "--verify-each", action="store_true",
        help="verify the IR after every pass "
             "(VerifierInstrumentation)")
    parser.add_argument(
        "--lint", action="store_true",
        help="run the static lint rules on the final IR and fail on "
             "findings (see repro-lint)")
    parser.add_argument(
        "--lint-each", action="store_true",
        help="lint the anchored IR after every pass, naming the pass "
             "that introduced each finding (LintInstrumentation)")
    parser.add_argument(
        "--verify-diagnostics", action="store_true",
        help="check emitted diagnostics against '// expected-error "
             "{{...}}' comments in the input instead of printing IR")
    parser.add_argument(
        "--print-locations", action="store_true",
        help="print loc(...) trailers on every operation "
             "(-mlir-print-debuginfo analogue)")
    parser.add_argument(
        "--emit", default="generic", choices=("generic", "mlir"),
        help="output syntax: 'generic' (the classic printer order, "
             "default) or 'mlir' (upstream-MLIR generic form: regions "
             "and successors before the attribute dictionary, suitable "
             "for mlir-opt -allow-unregistered-dialect)")
    parser.add_argument(
        "--report", action="store_true",
        help="print the compile report (statistics, remarks) to stderr")
    parser.add_argument(
        "--timing", action="store_true",
        help="print a per-pass timing table to stderr "
             "(mlir-opt's -mlir-timing analogue)")
    parser.add_argument(
        "--print-ir-before", action="append", default=[], metavar="PASS",
        help="print the anchored IR to stderr before each run of PASS "
             "(repeatable)")
    parser.add_argument(
        "--print-ir-after", action="append", default=[], metavar="PASS",
        help="print the anchored IR to stderr after each run of PASS "
             "(repeatable)")
    parser.add_argument(
        "--print-ir-after-all", action="store_true",
        help="print the anchored IR to stderr after every pass")
    parser.add_argument(
        "--dump-pass-pipeline", action="store_true",
        help="print the canonical pipeline spec to stderr before running")
    parser.add_argument(
        "--allow-unregistered", action="store_true",
        help="accept operations not present in the operation registry")
    parser.add_argument(
        "--list-passes", action="store_true",
        help="list registered passes with their option schemas and exit")
    return parser


def _format_timing_table(timings) -> str:
    """Per-pass wall-time table in pass-execution order.

    Rows are keyed by pipeline position (``"3: canonicalize"``), so two
    instances of the same pass report separately.  The ``gc:`` row (the
    collector's pauses from parse to print) comes after the total: those
    pauses happened *inside* the rows above and outside every pass, so
    they are neither a summand nor a share of it.
    """
    gc_rows = {name: seconds for name, seconds in timings.items()
               if name.startswith("gc:")}
    timings = {name: seconds for name, seconds in timings.items()
               if name not in gc_rows}
    total = sum(timings.values())
    width = 70
    lines = [
        "===" + "-" * (width - 6) + "===",
        "{:^{width}}".format("... Pass execution timing report ...",
                             width=width),
        "===" + "-" * (width - 6) + "===",
        f"  Total Execution Time: {total:.4f} seconds",
        "",
        "  ----Wall Time----  ----Name----",
    ]
    for name, seconds in timings.items():
        percent = (seconds / total * 100.0) if total > 0 else 0.0
        lines.append(f"  {seconds:9.4f} ({percent:5.1f}%)  {name}")
    lines.append(f"  {total:9.4f} (100.0%)  Total")
    for name, seconds in gc_rows.items():
        lines.append(f"  {seconds:9.4f} {'':8}  {name}")
    return "\n".join(lines)


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


#: Segment separator for ``--split-input-file`` (the mlir-opt convention).
SPLIT_MARKER = "// -----"


def _split_segments(text: str) -> List[str]:
    """Split ``text`` on ``// -----`` separator lines."""
    segments: List[str] = []
    current: List[str] = []
    for line in text.splitlines(keepends=True):
        if line.strip() == SPLIT_MARKER:
            segments.append("".join(current))
            current = []
        else:
            current.append(line)
    segments.append("".join(current))
    return [segment for segment in segments if segment.strip()]


def _collect_segments(args) -> List[tuple]:
    """``(origin label, IR text)`` per module to compile, in input order."""
    segments: List[tuple] = []
    for path in args.inputs:
        text = read_input(path)
        label = "<stdin>" if path == "-" else path
        if args.split_input_file:
            parts = _split_segments(text)
            for index, part in enumerate(parts):
                suffix = f" (segment {index + 1})" if len(parts) > 1 else ""
                segments.append((label + suffix, part))
        else:
            segments.append((label, text))
    return segments


#: ``// expected-error @+1 {{message}}`` — the mlir-opt test convention.
_EXPECTED_RE = re.compile(
    r"//\s*expected-(error|warning|remark)\s*(?:@([+-]\d+))?\s*\{\{(.*?)\}\}")

_SEVERITIES = {"error": Severity.ERROR, "warning": Severity.WARNING,
               "remark": Severity.REMARK}


def _collect_expected(text: str) -> List[Tuple[Severity, int, str]]:
    """``(severity, line, substring)`` per expected-* comment in ``text``.

    ``@+N`` / ``@-N`` anchor the expectation N lines below/above the
    comment; the default is the comment's own line.
    """
    expected: List[Tuple[Severity, int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _EXPECTED_RE.finditer(line):
            offset = int(match.group(2)) if match.group(2) else 0
            expected.append((_SEVERITIES[match.group(1)],
                             lineno + offset, match.group(3)))
    return expected


def _match_expected(expected, captured) -> List[str]:
    """Mismatch descriptions (empty = the segment's diagnostics verify).

    Each expectation consumes one captured diagnostic with the same
    severity, the same line and the expected text as a substring of the
    message; leftovers in either direction are mismatches.
    """
    unmatched = list(captured)
    problems: List[str] = []
    for severity, line, text in expected:
        for diagnostic in unmatched:
            if diagnostic.severity is severity and \
                    diagnostic.location.line == line and \
                    text in diagnostic.message:
                unmatched.remove(diagnostic)
                break
        else:
            problems.append(
                f"expected {severity} on line {line} was not produced: "
                f"{{{{{text}}}}}")
    for diagnostic in unmatched:
        problems.append(f"unexpected diagnostic: {diagnostic.render()}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: :func:`_main` plus graceful Ctrl-C.

    A ``KeyboardInterrupt`` anywhere in the run (including inside a
    worker-pool wait) unwinds through the ``finally`` blocks — the
    process-tier batch terminates its workers there, so an interrupt
    never orphans them — and exits with the conventional 130, no
    traceback.
    """
    try:
        return _main(argv)
    except KeyboardInterrupt:
        print("repro-opt: interrupted", file=sys.stderr)
        return 130


def _main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)

    if args.list_passes:
        print(describe_registered_passes())
        return 0
    if args.passes and args.pipeline:
        print("repro-opt: --passes and --pipeline are mutually exclusive",
              file=sys.stderr)
        return 2

    if args.jobs < 1:
        print("repro-opt: --jobs must be >= 1", file=sys.stderr)
        return 2

    if args.passes:
        # Static spec validation (the pipeline checker): malformed specs
        # are reported with their character offset before any input IR
        # is read or parsed.
        problems = check_pass_pipeline(args.passes)
        if problems:
            for diagnostic in problems:
                print(f"repro-opt: {diagnostic.render()}", file=sys.stderr)
            return 2

    try:
        segments = _collect_segments(args)
    except OSError as exc:
        print(f"repro-opt: cannot read input: {exc}", file=sys.stderr)
        return 1

    engine = DiagnosticEngine() if args.verify_diagnostics else None

    try:
        if args.pipeline:
            manager = build_named_pipeline(args.pipeline)
        elif args.passes:
            manager = parse_pass_pipeline(args.passes)
        else:
            manager = None
    except ValueError as exc:
        print(f"repro-opt: {exc}", file=sys.stderr)
        return 2

    cache = None
    lint_each = None
    if manager is not None:
        if args.verify_each:
            manager.add_instrumentation(VerifierInstrumentation())
        if args.lint_each:
            lint_each = LintInstrumentation(engine=engine)
            manager.add_instrumentation(lint_each)
        try:
            # Selectors match the NAME pass executions carry, so resolve
            # aliases (`licm` -> `sycl-licm`) and reject typos up front.
            print_before = [resolve_pass_name(n)
                            for n in args.print_ir_before]
            print_after = True if args.print_ir_after_all else \
                [resolve_pass_name(n) for n in args.print_ir_after]
        except ValueError as exc:
            print(f"repro-opt: {exc}", file=sys.stderr)
            return 2
        if print_before or print_after:
            manager.add_instrumentation(IRPrintingInstrumentation(
                print_before=print_before,
                print_after=print_after))
        if args.dump_pass_pipeline:
            print(dump_pass_pipeline(manager), file=sys.stderr)
        # Whole segments are shipped to worker processes when the batch
        # can run hands-off: no instrumentation, no diagnostics
        # verification, no parent-side lint — workers parse, verify,
        # compile and print, the parent only stitches text.
        use_batch_process = (
            args.jobs > 1 and len(segments) > 1 and engine is None
            and not args.lint and not manager.instrumentations
            # Workers print the classic form; exported syntax must go
            # through the in-process printer.
            and args.emit == "generic")
        # An in-memory cache can only hit across segments of one
        # invocation, and an instrumented manager never consults any
        # cache (hits would swallow --verify-each / --print-ir output)
        # — create one only when it can actually serve, so --report
        # never shows a dead cache.  A disk tier (--cache-dir /
        # $REPRO_CACHE_DIR) changes the calculus: it hits across
        # *invocations*, so it pays even for a single segment.
        # (The process batch path dedupes identical segments itself.)
        cache_dir = args.cache_dir or cache_dir_from_env()
        if not args.no_cache and not manager.instrumentations \
                and not use_batch_process \
                and (len(segments) > 1 or cache_dir):
            disk = DiskCache(cache_dir) if cache_dir else None
            cache = CompileCache(disk=disk)
            manager.cache = cache
    else:
        use_batch_process = False
    # A plain compile (text in, text out, nothing observing the module)
    # is asked of the cache's front tier first.
    front_spec = manager.to_spec() \
        if cache is not None and not args.lint and engine is None else None

    # One report aggregates the whole batch: every segment runs the same
    # pipeline, so position-keyed timing buckets sum across segments.
    report = CompileReport() if manager is not None else None
    printed: List[str] = []
    #: Worst per-segment exit code (batch isolation: one broken segment
    #: fails the invocation, not the batch).
    exit_code = 0
    lint_findings = 0
    expectation_problems: List[str] = []
    batch = len(segments) > 1

    def compile_one(label: str,
                    text: str) -> Tuple[int, Optional[str]]:
        """Parse, verify, compile and print one segment in-process.

        Returns ``(exit code, printed text or None)``; failures are
        reported to stderr with their location, never raised — the
        caller decides whether a bad segment aborts (single input) or
        is isolated (batch).
        """
        nonlocal lint_findings
        filename = label.split(" (segment")[0]
        front_key = None
        if front_spec is not None:
            # Everything the printed text depends on besides the input
            # and the pipeline (the file name shows only in locations).
            start = time.perf_counter()
            front_key = CompileCache.front_key(
                text, front_spec, "repro-opt", args.emit,
                args.print_locations and filename, args.no_verify,
                args.allow_unregistered)
            recorded = cache.front_lookup(front_key, front_spec)
            if recorded is not None:
                report.add_cache_hit(recorded.statistics, recorded.remarks,
                                     time.perf_counter() - start)
                return 0, recorded.text
        try:
            # Parse under the real file name so every op carries a
            # file:line:col location diagnostics can point at.
            module = parse_module(
                text, allow_unregistered=args.allow_unregistered,
                filename=filename)
        except ParseError as exc:
            print(f"repro-opt: {label}: parse error: {exc}",
                  file=sys.stderr)
            return 1, None
        try:
            if not args.no_verify:
                verify(module)
            if manager is not None:
                manager.run(module, report=report)
            if not args.no_verify:
                verify(module)
        except VerificationError as exc:
            print(f"repro-opt: {label}: verification failed: {exc}",
                  file=sys.stderr)
            return 1, None
        except ValueError as exc:
            print(f"repro-opt: {label}: {exc}", file=sys.stderr)
            return 2, None
        if args.lint:
            from ..analysis.lint import run_lint

            findings = run_lint(module,
                                am=_analysis_manager_of(manager))
            for diagnostic in findings:
                print(f"repro-opt: {label}: {diagnostic.render()}",
                      file=sys.stderr)
            lint_findings += len(findings)
        if args.emit == "mlir":
            from ..target import emit_mlir

            out = emit_mlir(
                module, print_locations=args.print_locations) + "\n"
        else:
            out = Printer(print_locations=args.print_locations
                          ).print_module(module) + "\n"
        if front_key is not None and report.cache_key is not None:
            cache.front_store(front_key, out, report.cache_key)
        return 0, out

    # The collector is only watched when --timing asks (and only in this
    # process: process-tier workers collect on their own).
    gc_timing = GcTiming().start() \
        if args.timing and report is not None else None
    try:
        if use_batch_process:
            from ..transforms.executor import TierError

            try:
                printed, exit_code = _run_batch_process(
                    args, manager, segments, report, compile_one)
            except TierError as exc:
                # The tier itself cannot make progress (pool unbuildable,
                # rebuild budget exhausted): degrade the whole batch to
                # the in-process path below.
                report.remark(
                    f"process-tier: degraded to in-process batch: {exc}")
                report.add_statistic("process-tier", "degraded", 1)
                use_batch_process = False
                printed = []
                exit_code = 0
        if not use_batch_process:
            for label, text in segments:
                if engine is not None:
                    # --verify-diagnostics: capture everything the
                    # segment emits (verifier, lint) and check it
                    # against the expected-* comments; broken IR is the
                    # expected case here, so verification failures do
                    # not abort the batch.
                    try:
                        module = parse_module(
                            text,
                            allow_unregistered=args.allow_unregistered,
                            filename=label.split(" (segment")[0])
                    except ParseError as exc:
                        print(f"repro-opt: {label}: parse error: {exc}",
                              file=sys.stderr)
                        return 1
                    with engine.capture() as captured:
                        broken = False
                        if not args.no_verify:
                            broken = bool(
                                verify_with_diagnostics(module, engine))
                        if manager is not None and not broken:
                            try:
                                manager.run(module, report=report)
                            except ValueError as exc:
                                print(f"repro-opt: {label}: {exc}",
                                      file=sys.stderr)
                                return 2
                            if not args.no_verify:
                                verify_with_diagnostics(module, engine)
                        if args.lint and not broken:
                            from ..analysis.lint import run_lint

                            run_lint(module,
                                     am=_analysis_manager_of(manager),
                                     engine=engine)
                    expectation_problems.extend(
                        f"{label}: {problem}" for problem in
                        _match_expected(_collect_expected(text), captured))
                    continue
                rc, out = compile_one(label, text)
                if rc and not batch:
                    return rc
                if out is None:
                    # Batch isolation: a broken segment reports, leaves
                    # a placeholder so output stays aligned with input
                    # order, and does not abort the rest of the batch.
                    printed.append(f"// {label}: FAILED\n")
                    exit_code = max(exit_code, rc)
                else:
                    printed.append(out)
    finally:
        if gc_timing is not None:
            gc_timing.stop(report)

    if lint_each is not None and engine is None:
        for pass_name, diagnostic in lint_each.findings:
            print(f"repro-opt: after pass '{pass_name}': "
                  f"{diagnostic.render()}", file=sys.stderr)
        lint_findings += len(lint_each.findings)

    if engine is not None:
        for problem in expectation_problems:
            print(f"repro-opt: {problem}", file=sys.stderr)
        return 1 if expectation_problems else 0

    _write_output(args.output, (SPLIT_MARKER + "\n").join(printed))
    if args.report and report is not None:
        print(report.summary(), file=sys.stderr)
        if cache is not None:
            stats = cache.describe()
            print(f"compile cache: {stats['hits']} hits, "
                  f"{stats['misses']} misses, {stats['entries']} entries",
                  file=sys.stderr)
            if front_spec is not None:
                front = stats["front"]
                print(f"front cache: {front['hits']} hits, "
                      f"{front['misses']} misses, "
                      f"{front['entries']} entries", file=sys.stderr)
            disk_stats = stats.get("disk")
            if disk_stats is not None:
                print(f"disk cache: {disk_stats['hits']} hits, "
                      f"{disk_stats['misses']} misses, "
                      f"{disk_stats['evictions']} evictions, "
                      f"{disk_stats['corrupt_recoveries']} corrupt "
                      f"recoveries, {disk_stats['entries']} entries, "
                      f"{disk_stats['bytes_on_disk']} bytes on disk",
                      file=sys.stderr)
        if manager is not None:
            print(f"analysis manager: {manager.analysis_manager.describe()}",
                  file=sys.stderr)
    if args.timing and report is not None:
        print(_format_timing_table(report.timings), file=sys.stderr)
    return max(exit_code, 1 if lint_findings else 0)


def _run_batch_process(args, manager, segments, report,
                       compile_one) -> Tuple[List[str], int]:
    """Compile batch segments as whole-module units on the process tier.

    Workers parse, verify, compile and print; the parent stitches the
    printed text back in input order (no splice, no parent-side parse).
    Identical segment texts are deduplicated — the first occurrence is
    shipped, duplicates reuse its result (the batch cache, moved to the
    dispatch layer).  A segment whose worker fails deterministically
    (parse error, verification failure, pass error) degrades to
    ``compile_one`` in the parent, which reports the error with native
    semantics and yields the batch-isolation placeholder; supervised
    faults (crash/hang/corrupt/transient) are retried per the executor
    policy.  Raises :class:`TierError` only when the tier as a whole
    cannot make progress.
    """
    from ..transforms.executor import (
        ExecutorOptions,
        SupervisedExecutor,
        WorkResult,
        WorkUnit,
        validate_segment_result,
    )

    spec = dump_pass_pipeline(manager)
    units: List[WorkUnit] = []
    first_uid: dict = {}
    alias: dict = {}
    for uid, (label, text) in enumerate(segments):
        fingerprint = text_fingerprint(text)
        if fingerprint in first_uid:
            alias[uid] = first_uid[fingerprint]
            continue
        first_uid[fingerprint] = uid
        units.append(WorkUnit(
            uid=uid, label=label, text=text, spec=spec,
            verify=not args.no_verify,
            print_locations=args.print_locations,
            filename=label.split(" (segment")[0]))

    fallback_rcs: dict = {}

    def serial_fallback(unit: WorkUnit, attempts: int,
                        events: List[str]) -> WorkResult:
        rc, out = compile_one(unit.label, unit.text)
        fallback_rcs[unit.uid] = rc
        return WorkResult(unit=unit, text=out, attempts=max(1, attempts),
                          degraded=True, events=events)

    options = ExecutorOptions(jobs=args.jobs)
    if args.deadline is not None:
        options.deadline = args.deadline
    executor = SupervisedExecutor(options)
    try:
        results = executor.run_units(units, validate_segment_result,
                                     serial_fallback)
    finally:
        executor.close()

    printed: List[str] = []
    exit_code = 0
    for uid, (label, text) in enumerate(segments):
        result = results.get(alias.get(uid, uid))
        if result is None:  # pragma: no cover - run_units returns all
            printed.append(f"// {label}: FAILED\n")
            exit_code = max(exit_code, 1)
            continue
        rc = fallback_rcs.get(result.unit.uid, 0)
        if result.text is None:
            printed.append(f"// {label}: FAILED\n")
            exit_code = max(exit_code, rc if rc else 1)
        else:
            printed.append(result.text)
            exit_code = max(exit_code, rc)

    # Fold the workers' reports and the supervision record into the
    # batch report, in input order, so --report reads like a serial run
    # plus a recovery log.
    report.add_statistic("process-tier", "segments", len(units))
    if alias:
        report.add_statistic("process-tier", "deduped-segments",
                             len(alias))
    for unit in units:
        result = results.get(unit.uid)
        if result is None:
            continue
        for pass_name, name, value in result.statistics:
            report.add_statistic(pass_name, name, value)
        report.remarks.extend(result.remarks)
        for key, seconds in result.timings.items():
            report.timings[key] = report.timings.get(key, 0.0) + seconds
        for event in result.events:
            report.remark(f"process-tier: {event}")
    for event in executor.events:
        report.remark(f"process-tier: {event}")
    for name, value in executor.stats.items():
        report.add_statistic("process-tier", name, value)
    return printed, exit_code


def _analysis_manager_of(manager):
    """The pass manager's analysis manager (None without a pipeline)."""
    return manager.analysis_manager if manager is not None else None


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
