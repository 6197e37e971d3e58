"""Differential execution: prove a pass pipeline preserved semantics.

The harness executes every executable function of a module *before* a
pipeline runs and again *after*, on identically synthesized inputs, and
asserts the outputs match — bit-identical for integers, tolerance-equal
for floats (optimizations such as Detect Reduction legitimately
reassociate float arithmetic).  "Optimized != miscompiled" becomes a
machine-checked property instead of a printed-IR eyeball.

Input synthesis is **deterministic** (seeded by CRC32 of the function /
argument names, never by ``random``), and the launch configuration is
resolved once from the *pre*-pipeline module and reused verbatim for the
post-pipeline run, so both sides observe exactly the same data even when
the pipeline rewrites kernel bodies (e.g. Loop Internalization adding
barriers and local tiles).

Entry points:

* :func:`run_differential` — the pre/post comparison; raises
  :class:`DifferentialError` on any mismatch.  ``tier`` selects the
  execution tier (``"interp"``, ``"jit"``, ``"vector"`` or ``"auto"``)
  both sides run on, so the harness doubles as the jit-vs-interp
  equivalence oracle;
* :func:`synthesize_spec` — the input plan
  :meth:`~repro.interp.engine.ExecutionEngine.execute` runs a function on.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from ..ir import (
    FloatType,
    IndexType,
    IntegerType,
    MemRefType,
    is_float,
)
from ..dialects.builtin import ModuleOp
from ..dialects.func import FuncOp
from ..dialects.sycl import (
    AccessorType,
    ItemType,
    NDItemType,
    work_group_size_of,
)
from ..runtime.accessor import Accessor
from ..runtime.buffer import Buffer
from .interpreter import _item_argument_type
from .memory import (
    InterpreterError,
    MemRefStorage,
    TrapError,
    _numpy_dtype,
)


class DifferentialError(AssertionError):
    """Pre- and post-pipeline executions disagreed (a miscompile)."""


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

@dataclass
class ExecutionSpec:
    """Per-function overrides for input synthesis.

    ``buffers`` maps accessor argument names (their ``name_hint``) to
    buffer shapes, ``scalars`` maps scalar argument names to values.
    """

    global_size: Optional[Tuple[int, ...]] = None
    local_size: Optional[Tuple[int, ...]] = None
    buffers: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    scalars: Dict[str, object] = field(default_factory=dict)


#: Resolved argument plans: ("buffer", shape, element_type, mode, seed),
#: ("local_accessor", shape, element_type),
#: ("storage", shape, element_type, seed) or ("scalar", value).
_ArgPlan = Tuple


@dataclass
class _ResolvedSpec:
    """A fully materializable execution plan for one function."""

    kind: str  # "function" | "kernel"
    arg_plans: List[_ArgPlan] = field(default_factory=list)
    arg_names: List[str] = field(default_factory=list)
    global_size: Optional[Tuple[int, ...]] = None
    local_size: Optional[Tuple[int, ...]] = None
    #: Filled, typed, read-only initial contents per ``"buffer"`` /
    #: ``"storage"`` plan (keyed by the plan tuple's id, which the held
    #: plan keeps stable): synthesized on first materialization, shared
    #: by every later one (a written argument copies it once).
    templates: Dict[int, object] = field(default_factory=dict, repr=False,
                                         compare=False)


@dataclass
class FunctionExecution:
    """Outcome of executing one function on synthesized inputs."""

    name: str
    kind: str
    results: List[object]
    #: Final contents by argument name (``global:<sym>`` for globals): a
    #: read-only 1-D array in the element's dtype.  A written argument's
    #: is a view of storage this execution made; a ``read`` accessor's
    #: is a view of the spec's shared, write-protected template.
    memory: Dict[str, _np.ndarray]
    counters: Dict[str, int]
    #: The execution tier that actually ran (``"interp"``, ``"jit"``,
    #: ``"vector"``, or a custom registered tier).
    tier: str = "interp"


@dataclass
class DifferentialReport:
    """What :func:`run_differential` checked."""

    pipeline: str
    executed: List[str] = field(default_factory=list)
    skipped: Dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Deterministic synthesis
# ---------------------------------------------------------------------------

def _seed(function: str, argument: str) -> int:
    return zlib.crc32(f"{function}:{argument}".encode("utf-8"))


def _scalar_for(type_, seed: int):
    if isinstance(type_, IntegerType) and type_.width == 1:
        return True
    if isinstance(type_, IndexType):
        return seed % 4
    if isinstance(type_, IntegerType):
        return (seed % 5) + 1
    if isinstance(type_, FloatType):
        return ((seed % 7) + 1) * 0.5
    return None


def _fill_array(element_type, seed: int, total: int):
    """Initial contents of a synthesized buffer, element ``index`` of
    ``range(total)``: ``((seed + 29·index) % 23 − 11) · 0.375`` for
    floats, ``(seed + index) % 2`` for ``i1`` and
    ``(seed + 13·index) % 17 − 8`` for other integers and ``index``.

    All intermediates are non-negative, so NumPy's ``%`` agrees with
    Python's and the values equal the scalar formula's.  Each formula
    repeats with its modulus, so one period is computed and tiled.
    """
    if is_float(element_type):
        modulus = 23
        index = _np.arange(modulus, dtype=_np.int64)
        period = (((seed + index * 29) % 23) - 11) * 0.375
    elif isinstance(element_type, IntegerType) and element_type.width == 1:
        modulus = 2
        period = (seed + _np.arange(modulus, dtype=_np.int64)) % 2
    else:
        modulus = 17
        index = _np.arange(modulus, dtype=_np.int64)
        period = ((seed + index * 13) % 17) - 8
    return _np.tile(period, -(-total // modulus))[:total]


# One element-type -> dtype policy for the whole subsystem: buffers the
# harness fills must match what MemRefStorage would allocate.
_dtype_for = _numpy_dtype


def _default_global(dims: int) -> Tuple[int, ...]:
    return {1: (4,), 2: (4, 4)}.get(dims, (2,) * dims)


def synthesize_spec(function: FuncOp,
                    spec: Optional[ExecutionSpec] = None) -> _ResolvedSpec:
    """Resolve a materializable input plan for ``function``.

    Raises :class:`InterpreterError` when an argument type cannot be
    synthesized (callers turn that into a "skipped" entry).
    """
    spec = spec or ExecutionSpec()
    resolved = _ResolvedSpec(kind="function")
    item_dims = 0
    for argument in function.arguments:
        item_type = _item_argument_type(argument.type)
        if item_type is not None:
            resolved.kind = "kernel"
            item_dims = item_type.dimensions
    if resolved.kind == "kernel":
        resolved.global_size = tuple(spec.global_size) if spec.global_size \
            else _default_global(item_dims)
        local = spec.local_size or work_group_size_of(function)
        resolved.local_size = tuple(local) if local else None
        default_extent = max(resolved.global_size)
    else:
        default_extent = 8

    for position, argument in enumerate(function.arguments):
        name = argument.name_hint or f"arg{position}"
        resolved.arg_names.append(name)
        type_ = argument.type
        if _item_argument_type(type_) is not None:
            if name in spec.buffers or name in spec.scalars:
                raise InterpreterError(
                    f"%{name} is the kernel's {type_} argument; it is "
                    "bound by the launcher and takes no override")
            resolved.arg_plans.append(("item",))
            continue
        inner = type_.element_type if isinstance(type_, MemRefType) else type_
        if isinstance(inner, AccessorType):
            if name in spec.scalars:
                raise InterpreterError(
                    f"scalar value given for %{name}, but its type is "
                    f"{type_}; use a buffer shape for memory arguments")
            shape = spec.buffers.get(
                name, (default_extent,) * inner.dimensions)
            if inner.is_local:
                if resolved.local_size is None:
                    raise InterpreterError(
                        f"%{name} is a local accessor, which requires a "
                        "work-group launch (set local_size or a "
                        "sycl.work_group_size attribute)")
                resolved.arg_plans.append(
                    ("local_accessor", tuple(shape), inner.element_type))
                continue
            resolved.arg_plans.append(
                ("buffer", tuple(shape), inner.element_type,
                 inner.access_mode, _seed(function.sym_name, name)))
            continue
        if _scalar_like(type_) and name in spec.buffers:
            raise InterpreterError(
                f"buffer shape given for %{name}, but its type is "
                f"{type_}; use a scalar value for scalar arguments")
        if name in spec.scalars:
            if not _scalar_like(type_):
                raise InterpreterError(
                    f"scalar value given for %{name}, but its type is "
                    f"{type_}; use a buffer shape for memory arguments")
            resolved.arg_plans.append(("scalar", spec.scalars[name]))
            continue
        scalar = _scalar_for(type_, _seed(function.sym_name, name))
        if scalar is not None:
            resolved.arg_plans.append(("scalar", scalar))
            continue
        if isinstance(type_, MemRefType):
            if isinstance(inner, (ItemType, NDItemType, AccessorType)) \
                    or not _scalar_like(inner):
                raise InterpreterError(
                    f"cannot synthesize a value for %{name} : {type_}")
            shape = tuple(default_extent if dim < 0 else dim
                          for dim in type_.shape)
            override = spec.buffers.get(name)
            if override is not None:
                shape = tuple(override)
            resolved.arg_plans.append(
                ("storage", shape, inner, _seed(function.sym_name, name)))
            continue
        raise InterpreterError(
            f"cannot synthesize a value for %{name} : {type_}")

    # A misspelled override must not silently fall back to synthesized
    # defaults — the caller would compare data they never specified.
    known = set(resolved.arg_names)
    unknown = sorted((set(spec.buffers) | set(spec.scalars)) - known)
    if unknown:
        raise InterpreterError(
            f"spec for '{function.sym_name}' names unknown argument(s) "
            f"{', '.join(unknown)}; arguments are: "
            f"{', '.join(resolved.arg_names) or 'none'}")
    return resolved


def _scalar_like(type_) -> bool:
    return isinstance(type_, (IntegerType, IndexType, FloatType))


def _template(plan: _ArgPlan, templates: Dict[int, object]):
    """The typed, shaped initial contents of a ``"buffer"`` or
    ``"storage"`` plan.

    ``templates`` (the :class:`_ResolvedSpec`'s) keeps them so the fill
    formula runs once per spec, not once per execution.  A template is
    write-protected: what writes to it copies it first."""
    cached = templates.get(id(plan))
    if cached is None or cached[0] is not plan:
        shape, element_type, seed = plan[1], plan[2], plan[-1]
        values = _fill_array(element_type, seed, math.prod(shape)).astype(
            _dtype_for(element_type)).reshape(shape)
        values.flags.writeable = False
        cached = templates[id(plan)] = (plan, values)
    return cached[1]


def _materialize(plan: _ArgPlan, templates: Dict[int, object]):
    """Build a fresh argument value (+ its snapshot handle) from a plan."""
    kind = plan[0]
    if kind == "scalar":
        return plan[1], None
    if kind == "storage":
        storage = MemRefStorage(plan[1], plan[2],
                                array=_template(plan, templates).copy())
        return storage, storage
    if kind == "local_accessor":
        from ..runtime.accessor import LocalAccessor

        _, shape, element_type = plan
        dtype = _dtype_for(element_type)
        # Work-group scratch: fresh per group, nothing to snapshot.
        return LocalAccessor(shape, dtype=dtype), None
    if kind == "buffer":
        # The Buffer shares the read-only template and copies it on its
        # first writable access: a ``read`` argument costs no copy.
        buffer = Buffer(_template(plan, templates))
        accessor = Accessor(buffer, plan[3])
        return accessor, buffer
    raise InterpreterError(f"unknown argument plan {plan!r}")


def _snapshot(handle) -> _np.ndarray:
    """Read-only flat view of an argument's final contents.

    No copy, no per-element conversion: the view aliases either storage
    this execution made (nothing else writes it) or, for a ``read``
    argument, the write-protected template."""
    if isinstance(handle, Buffer):
        view = handle.host_array().reshape(-1)
        view.flags.writeable = False
        return view
    if isinstance(handle, MemRefStorage):
        return handle.snapshot()
    raise InterpreterError(f"cannot snapshot {handle!r}")


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _executable_functions(module: ModuleOp) -> List[FuncOp]:
    from ..dialects.llvm import LLVMFuncOp

    functions = [op for op in module.walk()
                 if isinstance(op, (FuncOp, LLVMFuncOp))
                 and not op.is_declaration]
    functions.sort(key=lambda f: f.sym_name)
    return functions


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _values_equal(a, b, rtol: float, atol: float) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return bool(a) == bool(b)
    if isinstance(a, float) or isinstance(b, float):
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            # NaN == NaN for equivalence purposes: a pipeline that
            # preserves a NaN result preserved semantics.
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(
            _values_equal(x, y, rtol, atol) for x, y in zip(a, b))
    return a == b


def _python_values(values: Sequence) -> Sequence:
    return values.tolist() if isinstance(values, _np.ndarray) else values


def _compare_sequences(where: str, before: Sequence, after: Sequence,
                       rtol: float, atol: float) -> None:
    if len(before) != len(after):
        raise DifferentialError(
            f"{where}: element count changed ({len(before)} -> "
            f"{len(after)})")
    # Memory arrives as arrays; the rules are _values_equal's, over the
    # same Python scalars the messages show.
    before, after = _python_values(before), _python_values(after)
    for index, (a, b) in enumerate(zip(before, after)):
        if not _values_equal(a, b, rtol, atol):
            raise DifferentialError(
                f"{where}[{index}]: {a!r} (pre) != {b!r} (post)")


def compare_executions(before: FunctionExecution, after: FunctionExecution,
                       rtol: float = 1e-4, atol: float = 1e-6) -> None:
    """Raise :class:`DifferentialError` unless the two executions match."""
    name = before.name
    _compare_sequences(f"{name}: results", before.results, after.results,
                       rtol, atol)
    if set(before.memory) != set(after.memory):
        raise DifferentialError(
            f"{name}: compared memory changed "
            f"({sorted(before.memory)} -> {sorted(after.memory)})")
    for key in before.memory:
        _compare_sequences(f"{name}: memory '{key}'", before.memory[key],
                           after.memory[key], rtol, atol)


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------

def _resolve_pipeline(pipeline):
    """Accept a PassManager, a named pipeline or a pipeline spec string."""
    from ..transforms.pipeline_specs import NAMED_PIPELINE_SPECS
    from ..transforms.pipelines import (
        build_named_pipeline,
        dump_pass_pipeline,
        parse_pass_pipeline,
    )

    if isinstance(pipeline, str):
        if pipeline in NAMED_PIPELINE_SPECS:
            return build_named_pipeline(pipeline), pipeline
        manager = parse_pass_pipeline(pipeline)
        return manager, dump_pass_pipeline(manager)
    return pipeline, dump_pass_pipeline(pipeline)


def run_differential(module: ModuleOp,
                     pipeline,
                     specs: Optional[Dict[str, ExecutionSpec]] = None,
                     rtol: float = 1e-4,
                     atol: float = 1e-6,
                     max_steps: int = 10_000_000,
                     require_executions: bool = True,
                     manager=None,
                     tier: str = "interp") -> DifferentialReport:
    """Execute ``module`` before and after ``pipeline``; compare.

    ``module`` itself is left untouched: the pipeline runs on a clone.
    ``pipeline`` may be a :class:`~repro.transforms.pass_manager.PassManager`,
    a named pipeline (``"sycl-mlir"``) or a pipeline spec string.  Pass
    ``manager`` to run the (already resolved) pipeline through a specific
    pass manager — e.g. one with a warm
    :class:`~repro.transforms.compile_cache.CompileCache` — while
    ``pipeline`` still provides the display name.

    ``tier`` selects the execution tier both sides run on (each side
    gets its own :class:`~repro.interp.engine.ExecutionEngine` with a
    fresh executable cache), so ``tier="jit"`` / ``tier="vector"`` turn
    the harness into a cross-tier equivalence oracle.

    Returns a :class:`DifferentialReport`; raises
    :class:`DifferentialError` on the first mismatch.
    """
    from .engine import ExecutionEngine

    if manager is not None:
        # The override IS the pipeline to run; `pipeline` only labels it.
        from ..transforms.pipelines import dump_pass_pipeline

        resolved_manager = manager
        label = pipeline if isinstance(pipeline, str) \
            else dump_pass_pipeline(pipeline)
    else:
        resolved_manager, label = _resolve_pipeline(pipeline)

    # Resolve inputs once, from the pre-pipeline module, so both sides
    # execute the exact same launch configuration and data.
    specs = specs or {}
    plans: Dict[str, _ResolvedSpec] = {}
    report = DifferentialReport(pipeline=label)
    pre: Dict[str, FunctionExecution] = {}
    pre_engine = ExecutionEngine(module, tier=tier, max_steps=max_steps)
    for function in _executable_functions(module):
        name = function.sym_name
        try:
            plans[name] = synthesize_spec(function, specs.get(name))
            pre[name] = pre_engine.execute(function, plans[name])
        except (InterpreterError, TrapError, ValueError) as error:
            report.skipped[name] = str(error)

    if require_executions and not pre:
        raise DifferentialError(
            "differential harness could not execute any function of the "
            f"module: {report.skipped}")

    optimized = module.clone({})
    resolved_manager.run(optimized)

    post_engine = ExecutionEngine(optimized, tier=tier,
                                  max_steps=max_steps)
    post_functions = {f.sym_name: f
                      for f in _executable_functions(optimized)}
    for name, before in sorted(pre.items()):
        function = post_functions.get(name)
        if function is None:
            raise DifferentialError(
                f"function '{name}' disappeared after pipeline {label}")
        try:
            after = post_engine.execute(function, plans[name])
        except (InterpreterError, TrapError, ValueError) as error:
            raise DifferentialError(
                f"function '{name}' became non-executable after pipeline "
                f"{label}: {error}") from error
        compare_executions(before, after, rtol=rtol, atol=atol)
        report.executed.append(name)
    return report
