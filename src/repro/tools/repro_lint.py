"""``repro-lint`` — static miscompile-class checks over textual IR.

Parses one or more IR files and runs the lint rule engine
(:mod:`repro.analysis.lint`) over each module *without executing
anything*: the two miscompile classes PR 5's differential interpreter
caught dynamically (non-dominating cached pointers, speculated traps)
are reported here as source-located diagnostics on the unexecuted IR.

A pipeline can optionally be applied first (``--pipeline sycl-mlir`` or
``--passes 'cse,licm'``), so CI can assert that a shipped pipeline's
*output* stays lint-clean — the lint-smoke job runs every listing module
through every shipped pipeline this way.

Exit status: 0 when clean, 1 on any finding (or a parse failure), 2 on
usage errors.  Findings print to stderr as
``file:line:col: severity: message``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .. import dialects  # noqa: F401 - registers ops and types
from ..analysis.lint import describe_lint_rules, run_lint
from ..analysis.manager import AnalysisManager
from ..transforms.compile_cache import CompileCache, CompileSession
from ..transforms.disk_cache import DiskCache, cache_dir_from_env
from ..transforms.pipeline_specs import NAMED_PIPELINE_SPECS
from . import pipeline_usage_error, requested_pipeline
from .repro_opt import _collect_segments


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Statically lint textual IR for miscompile classes.")
    parser.add_argument(
        "inputs", nargs="*", default=["-"], metavar="input",
        help="input IR files, or '-' for stdin (default)")
    parser.add_argument(
        "--split-input-file", action="store_true",
        help="split each input on '// -----' lines and lint every "
             "segment as its own module")
    parser.add_argument(
        "--rules", default=None, metavar="NAME[,NAME...]",
        help="comma-separated subset of lint rules to run (default: all)")
    parser.add_argument(
        "--passes", default=None, metavar="SPEC",
        help="run this pass pipeline spec before linting")
    parser.add_argument(
        "--pipeline", default=None, choices=sorted(NAMED_PIPELINE_SPECS),
        help="run a full compiler-model pipeline before linting")
    parser.add_argument(
        "--no-verify", action="store_true",
        help="skip IR verification before linting")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="root of a persistent on-disk compile cache for the "
             "optional pipeline run, shared with repro-opt and "
             "repro-served (default: $REPRO_CACHE_DIR when set)")
    parser.add_argument(
        "--analysis-stats", action="store_true",
        help="print analysis-manager cache statistics to stderr")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered lint rules and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: :func:`_main` plus graceful Ctrl-C (exit 130,
    no traceback)."""
    try:
        return _main(argv)
    except KeyboardInterrupt:
        print("repro-lint: interrupted", file=sys.stderr)
        return 130


def _main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)

    if args.list_rules:
        print(describe_lint_rules())
        return 0
    if pipeline_usage_error(args, "repro-lint"):
        return 2
    rules = [name.strip() for name in args.rules.split(",") if name.strip()] \
        if args.rules is not None else None

    try:
        segments = _collect_segments(args)
    except OSError as exc:
        print(f"repro-lint: cannot read input: {exc}", file=sys.stderr)
        return 1

    pipeline, cache = requested_pipeline(args), None
    # CI lints the same pipelines over the same listings repeatedly —
    # a disk-backed cache turns those re-runs warm.
    cache_dir = args.cache_dir or cache_dir_from_env()
    if pipeline is not None and cache_dir:
        cache = CompileCache(disk=DiskCache(cache_dir))
    session = CompileSession(pipeline, verify=not args.no_verify,
                             cache=cache, want_module=True)

    # One analysis manager across every module and rule: repeated rules
    # (and repeated modules sharing anchors) hit warm caches.
    am = AnalysisManager()
    findings_total = 0
    for label, filename, text, first_line in segments:
        # Parsed under the real file name and from the segment's first
        # line, so findings carry file:line:col locations into the input.
        outcome = session.compile(text, filename, first_line=first_line)
        if outcome.kind is not None:
            print(f"repro-lint: {label}: {outcome.message}", file=sys.stderr)
            return outcome.exit_code
        try:
            findings = run_lint(outcome.module, rules=rules, am=am)
        except ValueError as exc:
            print(f"repro-lint: {exc}", file=sys.stderr)
            return 2
        for diagnostic in findings:
            print(diagnostic.render(), file=sys.stderr)
        findings_total += len(findings)

    if args.analysis_stats:
        print(f"analysis manager: {am.describe()}", file=sys.stderr)
    if findings_total:
        plural = "s" if findings_total != 1 else ""
        print(f"repro-lint: {findings_total} finding{plural}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
