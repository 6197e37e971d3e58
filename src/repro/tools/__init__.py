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
