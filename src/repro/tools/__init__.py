"""Command-line tools for the reproduction (mlir-opt-style drivers).

The driver lives in :mod:`repro.tools.repro_opt`; it is deliberately not
imported here so ``python -m repro.tools.repro_opt`` runs without a
double-import RuntimeWarning.  What the tools share without importing
each other lives here.
"""

import sys

__all__ = ["repro_opt"]


def read_input(path: str) -> str:
    """The text of ``path``, or of stdin for ``"-"``."""
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def requested_pipeline(args):
    """What ``--pipeline`` / ``--passes`` ask for, as a callable building
    the pass manager (a compile session calls it only when the front tier
    does not answer, so no pass is imported before); ``None`` without
    either."""
    if not (args.pipeline or args.passes):
        return None

    def build():
        from ..transforms import pipelines

        if args.pipeline:
            return pipelines.build_named_pipeline(args.pipeline)
        return pipelines.parse_pass_pipeline(args.passes)

    return build


def pipeline_usage_error(args, tool: str) -> int:
    """2 after reporting ``--passes`` with ``--pipeline``, or a malformed
    ``--passes`` spec (with its character offset, before any input is
    read); else 0."""
    if args.passes and args.pipeline:
        print(f"{tool}: --passes and --pipeline are mutually exclusive",
              file=sys.stderr)
        return 2
    if not args.passes:
        return 0
    from ..transforms.pipelines import check_pass_pipeline

    problems = check_pass_pipeline(args.passes)
    for diagnostic in problems:
        print(f"{tool}: {diagnostic.render()}", file=sys.stderr)
    return 2 if problems else 0
