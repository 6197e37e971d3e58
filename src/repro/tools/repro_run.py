"""``repro-run`` — execute textual IR through the interpreter.

The execution sibling of ``repro-opt``: parses a module, optionally runs
a pass pipeline over it, then *executes* a named entry function through
:mod:`repro.interp` and prints the results.

* Ordinary functions run once with CLI-provided / synthesized scalar and
  memref arguments.
* Kernel functions (taking a ``sycl::item``/``nd_item``) are launched
  over ``--global-size`` (and ``--local-size`` for work-group semantics)
  with accessor arguments bound to deterministically filled buffers.

Useful flags::

    repro-run k.mlir --entry gemm --global-size 8x8 --local-size 4x4 \\
        --buffer A=8x8 --buffer B=8x8 --buffer C=8x8 \\
        --pipeline sycl-mlir --print-buffers --cost-report

``--tier`` selects the execution tier (``auto`` by default: vectorized
NumPy execution when the kernel is divergence-free, the compile-to-Python
JIT otherwise, the scalar interpreter as the last resort); fallback
decisions are reported on stderr and the tier that actually ran is shown
in the output header.  ``--list-tiers`` enumerates the registry.

``--arg name=value`` sets scalar arguments by name (block-argument name
hints; ``argN`` positions work too).  ``--cost-report`` prints a roofline
estimate of the executed operation/byte counts against a
:class:`repro.runtime.DeviceSpec` (``--device`` selects the modelled
GPU), so the analytical device model participates in every run.

See ``docs/interpreter.md`` for the execution model and its caveats.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..transforms.pipeline_specs import NAMED_PIPELINE_SPECS
from . import read_input, requested_pipeline

if TYPE_CHECKING:
    from ..dialects.func import FuncOp
    from ..interp.differential import ExecutionSpec
    from ..runtime.device import DeviceSpec

# Nothing else is imported here: a process pays for what its run reaches
# (``_main`` imports at the point of use), and a run answered by the
# cache's front tier reaches no pass, analysis or lowering.  See
# "Start-up: what a process imports" in docs/performance.md.

#: ``--device`` name -> the :mod:`repro.runtime.device` factory's name.
DEVICES = {
    "max1100": "intel_data_center_gpu_max_1100",
    "small": "small_test_device",
}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-run",
        description="Parse, optionally optimize, then execute textual IR "
                    "through the IR interpreter.")
    parser.add_argument(
        "input", nargs="?", default="-",
        help="input IR file, or '-' for stdin (default)")
    parser.add_argument(
        "--entry", default=None, metavar="NAME",
        help="function to execute (default: the only executable function)")
    parser.add_argument(
        "--list-functions", action="store_true",
        help="list the module's functions with their signatures and exit")
    parser.add_argument(
        "--passes", default=None, metavar="SPEC",
        help="run a pass pipeline spec before executing")
    parser.add_argument(
        "--pipeline", default=None, choices=sorted(NAMED_PIPELINE_SPECS),
        help="run a full compiler-model pipeline before executing")
    parser.add_argument(
        "--arg", action="append", default=[], metavar="NAME=VALUE",
        help="scalar argument value by name (repeatable); unnamed "
             "arguments are addressable as arg0, arg1, ...")
    parser.add_argument(
        "--global-size", default=None, metavar="NxM",
        help="global iteration space for kernel entries (e.g. 8x8)")
    parser.add_argument(
        "--local-size", default=None, metavar="NxM",
        help="work-group size (enables barriers / local memory)")
    parser.add_argument(
        "--buffer", action="append", default=[], metavar="NAME=NxM",
        help="shape of the buffer backing accessor/memref argument NAME "
             "(repeatable)")
    parser.add_argument(
        "--print-buffers", action="store_true",
        help="print the final contents of every buffer/memref argument")
    parser.add_argument(
        "--cost-report", action="store_true",
        help="print a roofline estimate of the execution against the "
             "modelled device (see --device)")
    parser.add_argument(
        "--device", default="max1100", choices=sorted(DEVICES),
        help="device model used by --cost-report (default: max1100)")
    parser.add_argument(
        "--tier", default="auto", metavar="TIER",
        help="execution tier: auto (default), interp, jit, vector, or "
             "any registered executor (see --list-tiers); non-interp "
             "tiers fall back to the interpreter when a kernel is "
             "unsupported")
    parser.add_argument(
        "--list-tiers", action="store_true",
        help="list the registered execution tiers and exit")
    parser.add_argument(
        "--max-steps", type=int, default=10_000_000,
        help="interpreter step budget (default 10M ops)")
    parser.add_argument(
        "--no-verify", action="store_true",
        help="skip IR verification before executing")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="root of a persistent on-disk compile cache shared with "
             "repro-opt and repro-served (default: $REPRO_CACHE_DIR "
             "when set, else no caching)")
    parser.add_argument(
        "--allow-unregistered", action="store_true",
        help="accept operations not present in the operation registry")
    return parser


def _parse_extents(text: str, what: str) -> Tuple[int, ...]:
    try:
        extents = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"malformed {what} {text!r}; expected e.g. 8x8")
    if not extents or any(e <= 0 for e in extents):
        raise ValueError(f"malformed {what} {text!r}; extents must be >= 1")
    return extents


def _parse_scalar(text: str):
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        return float(text)


def _split_assignment(text: str, what: str) -> Tuple[str, str]:
    name, separator, value = text.partition("=")
    if not separator or not name:
        raise ValueError(f"malformed {what} {text!r}; expected NAME=VALUE")
    return name, value


def _build_spec(args) -> ExecutionSpec:
    from ..interp.differential import ExecutionSpec

    spec = ExecutionSpec()
    if args.global_size:
        spec.global_size = _parse_extents(args.global_size, "--global-size")
    if args.local_size:
        spec.local_size = _parse_extents(args.local_size, "--local-size")
    for assignment in args.buffer:
        name, value = _split_assignment(assignment, "--buffer")
        spec.buffers[name] = _parse_extents(value, "--buffer shape")
    for assignment in args.arg:
        name, value = _split_assignment(assignment, "--arg")
        try:
            spec.scalars[name] = _parse_scalar(value)
        except ValueError:
            raise ValueError(f"malformed --arg value {value!r}")
    return spec


def _signature(function: FuncOp) -> str:
    params = ", ".join(
        # Unnamed arguments print as argN — the same names --arg/--buffer
        # accept.
        f"%{arg.name_hint or f'arg{i}'}: {arg.type}"
        for i, arg in enumerate(function.arguments))
    results = ", ".join(str(t) for t in function.function_type.results)
    kernel = "  [kernel]" if function.is_kernel() else ""
    return f"@{function.sym_name}({params}) -> ({results}){kernel}"


def _format_values(values, limit: int = 32) -> str:
    """``values`` (a 1-D array) as ``[v0, v1, ...]``; only the shown
    prefix becomes Python numbers, which keeps ``.6g`` formatting."""
    shown = values[:limit].tolist()
    body = ", ".join(
        f"{v:.6g}" if isinstance(v, float) else str(v) for v in shown)
    suffix = f", ... ({len(values)} values)" if len(values) > limit else ""
    return f"[{body}{suffix}]"


def _cost_report(counters, spec: DeviceSpec, kernel_launches: int) -> str:
    """Roofline estimate: executed work against the device's peaks."""
    ops = counters.ops
    bytes_moved = counters.bytes_read + counters.bytes_written
    compute_s = ops / spec.peak_ops_per_second()
    memory_s = bytes_moved / spec.global_bytes_per_second()
    launch_s = kernel_launches * spec.launch_overhead_us * 1e-6
    estimate_s = max(compute_s, memory_s) + launch_s
    bound = "compute" if compute_s >= memory_s else "memory"
    lines = [
        f"cost report (device: {spec.name})",
        f"  ops executed:        {ops}",
        f"  loads / stores:      {counters.loads} / {counters.stores}",
        f"  bytes moved:         {bytes_moved}",
        f"  barriers:            {counters.barriers}",
        f"  work items:          {counters.work_items}",
        f"  peak ops/s:          {spec.peak_ops_per_second():.3e}",
        f"  peak bytes/s:        {spec.global_bytes_per_second():.3e}",
        f"  compute time:        {compute_s:.3e} s",
        f"  memory time:         {memory_s:.3e} s",
        f"  launch overhead:     {launch_s:.3e} s",
        f"  roofline estimate:   {estimate_s:.3e} s ({bound}-bound)",
    ]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: :func:`_main` plus graceful Ctrl-C.

    Interrupts unwind through ``_main``'s cleanup (worker pools are
    terminated, never waited on) and exit with the conventional 130,
    no traceback.
    """
    try:
        return _main(argv)
    except KeyboardInterrupt:
        print("repro-run: interrupted", file=sys.stderr)
        return 130


def _main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)

    if args.list_tiers:
        from ..interp.engine import registered_executors

        print("auto")
        for name in registered_executors():
            print(name)
        return 0

    if args.passes and args.pipeline:
        print("repro-run: --passes and --pipeline are mutually exclusive",
              file=sys.stderr)
        return 2
    try:
        spec = _build_spec(args)
    except ValueError as exc:
        print(f"repro-run: {exc}", file=sys.stderr)
        return 2

    try:
        text = read_input(args.input)
    except OSError as exc:
        print(f"repro-run: cannot read input: {exc}", file=sys.stderr)
        return 1

    from .. import dialects  # noqa: F401 - registers ops, types
    from ..transforms import compile_cache
    from ..transforms.disk_cache import DiskCache, cache_dir_from_env

    # Optimize-before-execute pays disk-cache dividends: the pipeline
    # cost of a hot kernel is skipped entirely on the second run.  A
    # named pipeline's canonical spec is known without building it, so
    # the front tier is asked before any pass is imported.
    # (Canonicalising a free-form --passes spec needs the pass registry:
    # those runs start at the second level.)
    pipeline = requested_pipeline(args)
    cache_dir = args.cache_dir or cache_dir_from_env()
    session = compile_cache.CompileSession(
        pipeline, spec=NAMED_PIPELINE_SPECS.get(args.pipeline),
        verify=not args.no_verify, allow_unregistered=args.allow_unregistered,
        cache=compile_cache.CompileCache(disk=DiskCache(cache_dir))
        if pipeline and cache_dir else None, want_module=True)
    outcome = session.compile(
        text, "<stdin>" if args.input == "-" else args.input,
        ("repro-run", args.no_verify, args.allow_unregistered))
    if outcome.kind is not None:
        print(f"repro-run: {outcome.message}", file=sys.stderr)
        return outcome.exit_code
    module = outcome.module

    from ..interp.differential import _executable_functions, synthesize_spec
    from ..interp.engine import ExecutionEngine
    from ..interp.memory import InterpreterError, TrapError

    # Functions are resolved after the pipeline ran, so entries the
    # pipeline created are selectable and --list-functions reflects the
    # module that will actually execute.
    functions = _executable_functions(module)
    if args.list_functions:
        for function in functions:
            print(_signature(function))
        return 0

    if args.entry:
        entry = next((f for f in functions if f.sym_name == args.entry),
                     None)
        if entry is None:
            names = ", ".join(f.sym_name for f in functions) or "none"
            print(f"repro-run: no function named '{args.entry}' "
                  f"(available: {names})", file=sys.stderr)
            return 2
    elif len(functions) == 1:
        entry = functions[0]
    else:
        print("repro-run: --entry is required when the module defines "
              f"{len(functions)} functions", file=sys.stderr)
        return 2

    try:
        engine = ExecutionEngine(module, tier=args.tier,
                                 max_steps=args.max_steps)
    except ValueError as exc:
        # Unknown --tier name: usage error.
        print(f"repro-run: {exc}", file=sys.stderr)
        return 2
    try:
        resolved = synthesize_spec(entry, spec)
        execution = engine.execute(entry, resolved)
    except (InterpreterError, TrapError, ValueError) as exc:
        # ValueError covers runtime-object validation (e.g. an NDRange
        # whose local rank mismatches --global-size); the exit-code
        # contract is 1 for any execution failure.
        print(f"repro-run: execution failed: {exc}", file=sys.stderr)
        return 1

    for remark in engine.remarks:
        print(f"repro-run: {remark}", file=sys.stderr)

    header = f"@{execution.name}"
    if execution.kind == "kernel":
        size = "x".join(str(e) for e in resolved.global_size)
        local = ("x".join(str(e) for e in resolved.local_size)
                 if resolved.local_size else "none")
        header += f" launched over {size} (local: {local})"
    header += f" [tier: {execution.tier}]"
    print(header)
    for index, value in enumerate(execution.results):
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"result[{index}] = {shown}")
    if args.print_buffers:
        for name, values in execution.memory.items():
            print(f"{name} = {_format_values(values)}")

    if args.cost_report:
        from ..interp.memory import ExecutionCounters
        from ..runtime import device

        counters = ExecutionCounters(**execution.counters)
        launches = 1 if execution.kind == "kernel" else 0
        device_spec = getattr(device, DEVICES[args.device])()
        print(_cost_report(counters, device_spec, launches),
              file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
