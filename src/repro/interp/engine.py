"""The tiered execution engine: one facade over every execution tier.

:class:`ExecutionEngine` is the one way to execute: kernel launches on
prepared arguments (:meth:`~ExecutionEngine.launch`), plain calls, and
functions or whole modules on synthesized inputs
(:meth:`~ExecutionEngine.execute`, :meth:`~ExecutionEngine.execute_module`).
It adds the tier abstraction the compile-to-Python JIT and the
vectorized launcher hang off:

* ``tier="interp"`` — the PR 5 tree-walking interpreter (the semantic
  reference; never declines an execution);
* ``tier="jit"``    — :mod:`repro.interp.jit` compiles the function once
  into generated Python source and runs that;
* ``tier="vector"`` — :mod:`repro.interp.vectorize` compiles the
  kernel once into whole-launch NumPy array operations when
  :mod:`repro.analysis.uniformity` proves it divergence-free;
* ``tier="auto"``   — try ``vector``, then ``jit``, then ``interp``.

Tiers are :class:`Backend` instances in a ``@register_executor``
registry mirroring ``@register_pass`` / ``@register_evaluator``; custom
tiers can be registered the same way.  A backend *declines* work by
raising :class:`TierFallback` — the engine records a remark and tries
the next tier, ending at the interpreter, which executes everything.
Unsupported constructs therefore never fail an execution the
interpreter would pass; they just run slower.

Import-order contract (PEP 562, see ``repro.interp.__init__``): this
module imports only :mod:`repro.interp.memory` eagerly.  The
interpreter and the differential helpers are imported inside methods,
so ``repro.interp.ExecutionEngine`` resolves without pulling in any
dialect module; a tier module is imported when an execution first
reaches its tier (``_BUILTIN_TIER_MODULES``), so building an engine
loads none.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .memory import ExecutionCounters, InterpreterError

#: Tier order tried by ``tier="auto"`` (first registered match wins).
AUTO_TIER_ORDER = ("vector", "jit", "interp")


class ExecutorRegistrationError(Exception):
    """Raised when two executors claim the same tier name."""


class TierFallback(Exception):
    """A backend declined an execution *before running any of it*.

    The engine records the reason as a remark and falls through to the
    next tier of the plan.  Raising this after side effects have been
    performed is a backend bug — use
    :class:`repro.interp.jit_runtime.JITExecutionError` for mid-run failures,
    which only the re-materializing ``execute`` path may retry.
    """


# ---------------------------------------------------------------------------
# The executor registry (mirrors repro.interp.registry for evaluators)
# ---------------------------------------------------------------------------

_EXECUTORS: Dict[str, "Backend"] = {}

#: Built-in tiers -> the module (of this package) that registers them.
#: A tier is imported when an execution first reaches it, not when an
#: engine is built: ``auto`` on a kernel the vector tier accepts never
#: loads the JIT's emitter.  The names are taken from the start.
_BUILTIN_TIER_MODULES = {"jit": "jit", "vector": "vectorize"}


class Backend:
    """One execution tier.

    Subclasses implement :meth:`launch` (kernels) and :meth:`call`
    (plain functions) and raise :class:`TierFallback` for work they do
    not support.  ``values`` are the caller-provided argument values in
    declaration order (item arguments excluded): runtime
    ``Accessor``/``Buffer``/``LocalAccessor`` objects or scalars for
    launches, prepared ``MemRefStorage``/``AccessorBinding`` values for
    calls — exactly what the corresponding ``Interpreter`` entry point
    accepted.
    """

    NAME = ""

    def launch(self, engine: "ExecutionEngine", function, values,
               global_size, local_size=None, interpreter=None):
        """Execute a kernel launch; returns a ``LaunchResult``."""
        raise TierFallback(
            f"tier '{self.NAME}' does not implement kernel launches")

    def call(self, engine: "ExecutionEngine", function, values,
             interpreter=None) -> Tuple[List[object], ExecutionCounters]:
        """Execute a plain function; returns ``(results, counters)``."""
        raise TierFallback(
            f"tier '{self.NAME}' does not implement plain calls")


def register_executor(name: str, backend: Optional[Backend] = None):
    """Register an execution tier under ``name``.

    Decorator-or-call, mirroring ``register_evaluator``::

        @register_executor("jit")
        class JITBackend(Backend): ...

        register_executor("custom", CustomBackend())
    """
    def _install(target):
        instance = target() if isinstance(target, type) else target
        owner = _BUILTIN_TIER_MODULES.get(name)
        if name in _EXECUTORS or (
                owner is not None
                and type(instance).__module__ != f"{__package__}.{owner}"):
            raise ExecutorRegistrationError(
                f"an executor is already registered for tier '{name}'")
        if not instance.NAME:
            instance.NAME = name
        _EXECUTORS[name] = instance
        return target

    if backend is not None:
        return _install(backend)
    return _install


def _is_registered(name: str) -> bool:
    return name in _EXECUTORS or name in _BUILTIN_TIER_MODULES


def registered_executors() -> Tuple[str, ...]:
    """Sorted names of every registered execution tier."""
    return tuple(sorted(_EXECUTORS.keys() | _BUILTIN_TIER_MODULES.keys()))


def executor_for(name: str) -> Backend:
    backend = _EXECUTORS.get(name)
    if backend is None:
        module = _BUILTIN_TIER_MODULES.get(name)
        if module is None:
            raise ValueError(
                f"unknown execution tier '{name}' (registered: "
                f"{', '.join(registered_executors())})")
        import importlib

        # Registration is the last statement of a tier module, so the
        # entry appears only once everything it calls is defined.
        importlib.import_module(f".{module}", __package__)
        backend = _EXECUTORS[name]
    return backend


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class ExecutionEngine:
    """Execute functions and kernels of one module through a tier plan.

    ``tier`` is ``"auto"`` (vector, then jit, then interp) or any
    registered tier name; explicit non-interpreter tiers still degrade
    to the interpreter when they decline, with the reason recorded in
    :attr:`remarks`.  ``executable_cache`` optionally shares one
    :class:`repro.interp.jit_runtime.ExecutableCache` (e.g. the
    daemon's) across engines; both code-generating tiers use it.
    """

    def __init__(self, module, tier: str = "auto",
                 max_steps: int = 10_000_000,
                 executable_cache=None):
        if tier != "auto" and not _is_registered(tier):
            raise ValueError(
                f"unknown execution tier '{tier}' (available: auto, "
                f"{', '.join(registered_executors())})")
        self.module = module
        self.tier = tier
        self.max_steps = max_steps
        self.executable_cache = executable_cache
        #: Tier-selection decisions (fallbacks, degradations): each
        #: distinct remark once, in first-seen order, so a reused engine
        #: does not grow by one identical line per execution.
        self.remarks: List[str] = []

    # -- plan ---------------------------------------------------------------
    def tier_plan(self) -> Tuple[str, ...]:
        """The tiers tried, in order, for this engine's ``tier``."""
        if self.tier == "auto":
            return tuple(t for t in AUTO_TIER_ORDER if _is_registered(t))
        if self.tier == "interp":
            return ("interp",)
        return (self.tier, "interp")

    def _remark(self, text: str) -> None:
        if text not in self.remarks:
            self.remarks.append(text)

    # -- lookup -------------------------------------------------------------
    def lookup_function(self, function):
        from ..dialects.func import FuncOp

        if isinstance(function, FuncOp):
            return function
        from .interpreter import Interpreter

        return Interpreter(self.module).lookup_function(function)

    # -- low-level entry points -------------------------------------------
    def launch(self, kernel, args: Sequence[object],
               global_size, local_size=None):
        """Execute ``kernel`` once per work item (tiered).

        Accepts exactly what ``Interpreter.launch`` accepts.  Only
        *pre-execution* failures fall through to the next tier here —
        a tier that failed mid-run on caller-owned buffers raises
        instead of silently re-running on partially written data (use
        :meth:`execute`/:meth:`run`, which re-materialize, for the full
        degradation ladder).
        """
        function = self.lookup_function(kernel)
        last_error: Optional[Exception] = None
        for name in self.tier_plan():
            backend = executor_for(name)
            try:
                return backend.launch(self, function, list(args),
                                      global_size, local_size)
            except TierFallback as fall:
                self._remark(
                    f"tier '{name}' fell back for '{function.sym_name}': "
                    f"{fall}")
                last_error = fall
        raise InterpreterError(
            f"no execution tier accepted kernel '{function.sym_name}': "
            f"{last_error}")

    def call(self, function, args: Sequence[object] = ()) -> List[object]:
        """Execute a plain function with prepared argument values."""
        function = self.lookup_function(function)
        last_error: Optional[Exception] = None
        for name in self.tier_plan():
            backend = executor_for(name)
            try:
                results, _ = backend.call(self, function, list(args))
                return results
            except TierFallback as fall:
                self._remark(
                    f"tier '{name}' fell back for '{function.sym_name}': "
                    f"{fall}")
                last_error = fall
        raise InterpreterError(
            f"no execution tier accepted function '{function.sym_name}': "
            f"{last_error}")

    # -- spec-driven execution ------------------------------------------
    def run(self, function, spec=None):
        """Synthesize inputs for ``function`` and execute it.

        ``spec`` is an optional
        :class:`~repro.interp.differential.ExecutionSpec`; returns a
        ``FunctionExecution`` whose ``tier`` field names the tier that
        actually ran.
        """
        from .differential import synthesize_spec

        function = self.lookup_function(function)
        resolved = synthesize_spec(function, spec)
        return self.execute(function, resolved)

    def execute(self, function, resolved):
        """Execute ``function`` on a resolved input plan (tiered).

        Inputs are materialized *fresh per tier attempt*, so a tier
        that failed after partial side effects (an injected ``jit.exec``
        fault, a backend bug) degrades safely: the next tier starts
        from pristine data.
        """
        from .differential import (
            FunctionExecution,
            _materialize,
            _snapshot,
        )
        from .interpreter import Interpreter
        from .jit_runtime import JITExecutionError
        from .memory import AccessorBinding
        from ..runtime.accessor import Accessor

        function = self.lookup_function(function)
        last_error: Optional[Exception] = None
        for name in self.tier_plan():
            backend = executor_for(name)
            interpreter = Interpreter(self.module, max_steps=self.max_steps)
            # Materialize every memref.global up front so executions
            # snapshot one key set regardless of which accesses remain.
            interpreter.materialize_globals()
            values: List[object] = []
            handles: List[object] = []
            for plan in resolved.arg_plans:
                if plan[0] == "item":
                    continue
                value, handle = _materialize(plan, resolved.templates)
                if resolved.kind == "function" and isinstance(value, Accessor):
                    # Call paths take prepared values; only the launch
                    # path wraps runtime Accessors itself.
                    value = AccessorBinding(value, plan[2])
                values.append(value)
                handles.append(handle)
            try:
                if resolved.kind == "kernel":
                    launch = backend.launch(
                        self, function, values, resolved.global_size,
                        resolved.local_size, interpreter=interpreter)
                    results: List[object] = []
                    counters = launch.counters
                else:
                    results, counters = backend.call(
                        self, function, values, interpreter=interpreter)
            except TierFallback as fall:
                self._remark(
                    f"tier '{name}' fell back for '{function.sym_name}': "
                    f"{fall}")
                last_error = fall
                continue
            except JITExecutionError as err:
                # The generated executable failed mid-run; inputs are
                # re-materialized, so degrading to the next tier is safe.
                self._remark(
                    f"tier '{name}' degraded for '{function.sym_name}': "
                    f"{err}")
                last_error = err
                continue
            # Read-only views, no copies: the handles are this attempt's.
            memory = {}
            handle_index = 0
            for plan, arg_name in zip(resolved.arg_plans,
                                      resolved.arg_names):
                if plan[0] == "item":
                    continue
                handle = handles[handle_index]
                handle_index += 1
                if handle is not None:
                    memory[arg_name] = _snapshot(handle)
            for global_name, storage in sorted(
                    interpreter.global_snapshots().items()):
                memory[f"global:{global_name}"] = storage.snapshot()
            return FunctionExecution(
                name=function.sym_name, kind=resolved.kind,
                results=list(results), memory=memory,
                counters=counters.as_dict(), tier=name)
        raise InterpreterError(
            f"no execution tier accepted '{function.sym_name}': "
            f"{last_error}")

    def execute_module(self, specs=None, ):
        """Execute every executable function; ``(executions, skipped)``."""
        from .differential import (
            _executable_functions,
            synthesize_spec,
        )
        from .memory import TrapError

        specs = specs or {}
        executions = {}
        skipped: Dict[str, str] = {}
        for function in _executable_functions(self.module):
            name = function.sym_name
            try:
                resolved = synthesize_spec(function, specs.get(name))
                executions[name] = self.execute(function, resolved)
            except (InterpreterError, TrapError, ValueError) as error:
                skipped[name] = str(error)
        return executions, skipped

    def __repr__(self) -> str:
        return f"<ExecutionEngine tier={self.tier!r}>"


# ---------------------------------------------------------------------------
# The interpreter tier: the semantic reference, never declines.
# ---------------------------------------------------------------------------

@register_executor("interp")
class InterpreterBackend(Backend):
    """Tree-walking reference interpreter (always available)."""

    NAME = "interp"

    def launch(self, engine, function, values, global_size,
               local_size=None, interpreter=None):
        from .interpreter import Interpreter

        interp = interpreter or Interpreter(engine.module,
                                            max_steps=engine.max_steps)
        return interp.launch(function, values, global_size, local_size)

    def call(self, engine, function, values, interpreter=None):
        from .interpreter import Interpreter

        interp = interpreter or Interpreter(engine.module,
                                            max_steps=engine.max_steps)
        results = interp.call(function, values)
        return results, interp.counters
