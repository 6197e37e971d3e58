"""IR interpreter & differential-execution subsystem.

Layers:

* :mod:`repro.interp.registry` — the per-dialect evaluator registry
  (``@register_evaluator("arith.addi")``, mirroring ``@register_pass``);
* :mod:`repro.interp.memory` — the memory model (``MemRefStorage``,
  accessor bindings wired to :mod:`repro.runtime`, control signals);
* :mod:`repro.interp.interpreter` — the region-based interpreter with
  barrier-aware ND-range kernel launches;
* :mod:`repro.interp.engine` — the tiered :class:`ExecutionEngine`
  facade and the ``@register_executor`` backend registry;
* :mod:`repro.interp.jit` — the compile-to-Python JIT tier
  (``tier="jit"``);
* :mod:`repro.interp.jit_runtime` — what both code-generating tiers
  share: error types, run-time helpers, block counting and the
  fingerprint-keyed executable cache (importable without either
  emitter);
* :mod:`repro.interp.vectorize` — the NumPy vector tier
  (``tier="vector"``), which compiles a divergence-free kernel into one
  lockstep function over every work-item at once;
* :mod:`repro.interp.differential` — the pre- vs post-pipeline
  differential execution harness (``optimized != miscompiled``).

The heavy modules are imported lazily (PEP 562): dialect modules import
``repro.interp.registry``/``repro.interp.memory`` at definition time to
register their evaluators, and the interpreter (and the tiers built on
it) in turn imports the dialects — laziness here is what keeps that
dependency loop acyclic at import time.  ``repro.interp.ExecutionEngine``
therefore resolves without eagerly importing any dialect module.
"""

from .memory import (
    BARRIER,
    AccessorBinding,
    BlockResult,
    ExecutionCounters,
    GroupContext,
    InterpreterError,
    MemRefStorage,
    MemRefView,
    TrapError,
    WorkItemBinding,
    byte_size_of,
)
from .registry import (
    EvaluatorRegistrationError,
    lookup_evaluator,
    register_evaluator,
    registered_evaluators,
)

#: Lazily resolved attributes -> (module, attribute).
_LAZY = {
    "EvalContext": ("interpreter", "EvalContext"),
    "Interpreter": ("interpreter", "Interpreter"),
    "LaunchResult": ("interpreter", "LaunchResult"),
    "DifferentialError": ("differential", "DifferentialError"),
    "DifferentialReport": ("differential", "DifferentialReport"),
    "ExecutionSpec": ("differential", "ExecutionSpec"),
    "FunctionExecution": ("differential", "FunctionExecution"),
    "run_differential": ("differential", "run_differential"),
    "synthesize_spec": ("differential", "synthesize_spec"),
    "Backend": ("engine", "Backend"),
    "ExecutionEngine": ("engine", "ExecutionEngine"),
    "ExecutorRegistrationError": ("engine", "ExecutorRegistrationError"),
    "TierFallback": ("engine", "TierFallback"),
    "executor_for": ("engine", "executor_for"),
    "register_executor": ("engine", "register_executor"),
    "registered_executors": ("engine", "registered_executors"),
    "CompiledExecutable": ("jit_runtime", "CompiledExecutable"),
    "ExecutableCache": ("jit_runtime", "ExecutableCache"),
    "JITBackend": ("jit", "JITBackend"),
    "JITExecutionError": ("jit_runtime", "JITExecutionError"),
    "JITUnsupportedError": ("jit_runtime", "JITUnsupportedError"),
    "compile_executable": ("jit", "compile_executable"),
    "VectorBackend": ("vectorize", "VectorBackend"),
    "vector_legality": ("vectorize", "vector_legality"),
}


def __getattr__(name):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module 'repro.interp' has no attribute {name!r}")
    module_name, attribute = target
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, attribute)
    globals()[name] = value
    return value


__all__ = [
    "BARRIER", "AccessorBinding", "BlockResult", "ExecutionCounters",
    "GroupContext", "InterpreterError", "MemRefStorage", "MemRefView",
    "TrapError", "WorkItemBinding", "byte_size_of",
    "EvaluatorRegistrationError", "lookup_evaluator", "register_evaluator",
    "registered_evaluators",
    "EvalContext", "Interpreter", "LaunchResult",
    "DifferentialError", "DifferentialReport", "ExecutionSpec",
    "FunctionExecution", "run_differential", "synthesize_spec",
    "Backend", "ExecutionEngine", "ExecutorRegistrationError",
    "TierFallback", "executor_for", "register_executor",
    "registered_executors",
    "CompiledExecutable", "ExecutableCache", "JITBackend",
    "JITExecutionError", "JITUnsupportedError", "compile_executable",
    "VectorBackend", "vector_legality",
]
