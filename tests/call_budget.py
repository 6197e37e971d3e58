"""Call budget of the compiler on four small units.

The three paper listings and ``build_gemm_module(8, 4)`` each go through
parse, ``verify``, ``sycl-mlir``, ``lower-to-llvm`` and ``emit_mlir``
under cProfile, as the ``py_calls`` metric of ``benchmarks/e2e`` counts
them.  The script prints the calls per parsed op of every stage and
fails when the total exceeds :data:`BUDGET` by more than
:data:`TOLERANCE`::

    PYTHONPATH=src:. python tests/call_budget.py

The count depends on the Python version (3.12 inlines comprehensions, so
each one stops being a call), which is why CI runs this in a job of its
own on the version :data:`BUDGET` was measured on (CPython 3.11.7)
instead of in the tier-1 matrix.  When a change moves the count on
purpose, set :data:`BUDGET` to the new total it prints.
"""

import cProfile
import pstats
import sys
from collections import Counter

from repro.ir import Printer, parse_module, verify
from repro.target import emit_mlir
from repro.transforms import build_named_pipeline

from tests.helpers import (
    build_gemm_module,
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    wrap_in_module,
)

#: Total calls of one counted round over the four units (CPython 3.11.7).
BUDGET = 25_081
TOLERANCE = 0.05
STAGES = ("parse", "verify", "sycl-mlir", "lower-to-llvm", "emit")


def units():
    """``(label, text)`` of the four units."""
    for label, build in (("listing1", build_listing1_function),
                         ("listing2", build_listing2_function),
                         ("listing3", build_listing3_function)):
        yield label, Printer().print_module(wrap_in_module(build()[0]))
    yield "gemm(8, 4)", Printer().print_module(build_gemm_module(8, 4)[0])


def _counted(calls, stage, work):
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return work()
    finally:
        profiler.disable()
        calls[stage] += pstats.Stats(profiler).total_calls


def compile_unit(text, calls):
    """Compile ``text`` as the compile workloads do, adding each stage's
    calls to ``calls``; returns the number of parsed ops."""
    module = _counted(calls, "parse", lambda: parse_module(text))
    ops = sum(1 for _ in module.walk())
    _counted(calls, "verify", lambda: verify(module))
    for pipeline in ("sycl-mlir", "lower-to-llvm"):
        _counted(calls, pipeline,
                 lambda: build_named_pipeline(pipeline).run(module))
        _counted(calls, "verify", lambda: verify(module))
    _counted(calls, "emit", lambda: emit_mlir(module))
    return ops


def main() -> int:
    texts = list(units())
    for _, text in texts:  # imports, interned spellings, pass pools
        compile_unit(text, Counter())
    calls: Counter = Counter()
    ops = sum(compile_unit(text, calls) for _, text in texts)
    total = sum(calls.values())
    print(f"{len(texts)} units, {ops} parsed ops, Python "
          f"{sys.version.split()[0]}")
    for stage in STAGES:
        print(f"  {stage:14s} {calls[stage]:9d} calls "
              f"{calls[stage] / ops:8.1f} per op")
    limit = BUDGET * (1 + TOLERANCE)
    print(f"  {'total':14s} {total:9d} calls {total / ops:8.1f} per op "
          f"(budget {BUDGET}, limit {limit:.0f})")
    if total > limit:
        print(f"call budget exceeded by {total / BUDGET - 1:+.1%}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
