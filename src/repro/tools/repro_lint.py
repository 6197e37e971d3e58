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
from ..ir import ParseError, VerificationError, parse_module, verify
from ..analysis.lint import describe_lint_rules, run_lint
from ..analysis.manager import AnalysisManager
from ..transforms.compile_cache import CompileCache
from ..transforms.disk_cache import DiskCache, cache_dir_from_env
from ..transforms.pipeline_specs import NAMED_PIPELINE_SPECS
from ..transforms.pipelines import (
    build_named_pipeline,
    check_pass_pipeline,
    parse_pass_pipeline,
)
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
    if args.passes and args.pipeline:
        print("repro-lint: --passes and --pipeline are mutually exclusive",
              file=sys.stderr)
        return 2
    rules = [name.strip() for name in args.rules.split(",") if name.strip()] \
        if args.rules is not None else None

    if args.passes:
        # Static spec check first: a malformed spec is reported with its
        # character offset before any input is read or parsed.
        problems = check_pass_pipeline(args.passes)
        if problems:
            for diagnostic in problems:
                print(f"repro-lint: {diagnostic.render()}", file=sys.stderr)
            return 2

    try:
        segments = _collect_segments(args)
    except OSError as exc:
        print(f"repro-lint: cannot read input: {exc}", file=sys.stderr)
        return 1

    modules = []
    for label, text in segments:
        try:
            # Parse under the real file name so findings carry
            # file:line:col locations pointing into the input.
            filename = label.split(" (segment")[0]
            modules.append(parse_module(text, filename=filename))
        except ParseError as exc:
            print(f"repro-lint: {label}: parse error: {exc}",
                  file=sys.stderr)
            return 1

    manager = None
    if args.pipeline or args.passes:
        try:
            if args.pipeline:
                manager = build_named_pipeline(args.pipeline)
            else:
                manager = parse_pass_pipeline(args.passes)
        except ValueError as exc:
            print(f"repro-lint: {exc}", file=sys.stderr)
            return 2
    # CI lints the same pipelines over the same listings repeatedly —
    # a disk-backed cache turns those re-runs warm.
    cache_dir = args.cache_dir or cache_dir_from_env()
    if manager is not None and cache_dir:
        manager.cache = CompileCache(disk=DiskCache(cache_dir))

    # One analysis manager across every module and rule: repeated rules
    # (and repeated modules sharing anchors) hit warm caches.
    am = AnalysisManager()
    findings_total = 0
    for (label, _), module in zip(segments, modules):
        try:
            if not args.no_verify:
                verify(module)
            if manager is not None:
                manager.run(module)
        except VerificationError as exc:
            print(f"repro-lint: {label}: verification failed:\n"
                  f"{exc.render()}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"repro-lint: {label}: {exc}", file=sys.stderr)
            return 2
        try:
            findings = run_lint(module, rules=rules, am=am)
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
