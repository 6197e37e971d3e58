"""A region-based IR interpreter with SYCL kernel-launch semantics.

The interpreter evaluates a module directly on its in-memory IR: every
operation is dispatched to the evaluator its dialect registered
(:mod:`repro.interp.registry`), with
:class:`repro.ir.InterpretableOpInterface` as the fallback.  Two modes:

* :meth:`Interpreter.call` executes an ordinary function with Python
  argument values (scalars, :class:`~repro.interp.memory.MemRefStorage`);
* :meth:`Interpreter.launch` executes a SYCL kernel function once per
  work item of a ``Range`` / ``NDRange``, binding accessor arguments to
  :class:`repro.runtime.buffer.Buffer` data.

**Barrier model.** Work-item execution is compiled into Python
generators: every region evaluator delegates with ``yield from``, so a
``sycl.group_barrier`` anywhere in the call tree suspends the whole work
item.  Within a work-group the launcher round-robins the item generators
between barriers — all unfinished items must reach the barrier before
any proceeds — which gives transformed kernels that communicate through
work-group local memory (Loop Internalization tiles) their real
semantics.  Work-group-local ``memref.alloc``\\ s are shared per group
(keyed by the allocating operation), groups execute sequentially.

**Numeric model.** Integers are Python ints (arbitrary precision — no
wrap-around except ``arith.trunci``); floats are Python floats (IEEE
binary64) but memref/buffer storage rounds through the element type's
NumPy dtype, so ``f32`` data behaves like ``f32`` at every memory
boundary.  See ``docs/interpreter.md`` for the full contract.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import GeneratorType
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..ir import (
    DenseElementsAttr,
    InterpretableOpInterface,
    MemRefType,
    Operation,
    parse_type,
)
from ..dialects.builtin import ModuleOp
from ..dialects.func import FuncOp
from ..dialects.sycl import (
    AccessorType,
    ItemType,
    NDItemType,
    accessor_type_of,
)
from ..runtime.accessor import Accessor, LocalAccessor
from ..runtime.buffer import Buffer
from ..runtime.ndrange import NDRange, Range
from .memory import (
    BARRIER,
    AccessorBinding,
    BlockResult,
    ExecutionCounters,
    GroupContext,
    InterpreterError,
    MemRefStorage,
    TrapError,
    WorkItemBinding,
)
from .registry import lookup_evaluator


def _item_argument_type(type_) -> Optional[object]:
    """The ``ItemType``/``NDItemType`` behind a kernel argument, if any."""
    inner = type_.element_type if isinstance(type_, MemRefType) else type_
    if isinstance(inner, (ItemType, NDItemType)):
        return inner
    return None


def _element_type_for_dtype(dtype):
    """Best-effort IR element type for a NumPy dtype (local accessors)."""
    from ..ir import FloatType, IntegerType, f32

    try:
        import numpy as np

        resolved = np.dtype(dtype)
    except (ImportError, TypeError):
        return f32()
    if resolved.kind == "f":
        return FloatType(resolved.itemsize * 8)
    if resolved.kind in ("i", "u", "b"):
        return IntegerType(max(8, resolved.itemsize * 8))
    return f32()


class EvalContext:
    """Execution state of one function activation (one work item's frame).

    This is the object evaluators receive as ``ctx``: it resolves SSA
    values, executes nested blocks, performs calls and exposes the
    current work item / work group.
    """

    __slots__ = ("interpreter", "env", "work_item", "group")

    def __init__(self, interpreter: "Interpreter",
                 env: Optional[Dict[int, object]] = None,
                 work_item: Optional[WorkItemBinding] = None,
                 group: Optional[GroupContext] = None):
        self.interpreter = interpreter
        self.env = env if env is not None else {}
        self.work_item = work_item
        self.group = group

    # -- SSA environment -----------------------------------------------------
    def value_of(self, value) -> object:
        try:
            return self.env[id(value)]
        except KeyError:
            raise InterpreterError(
                f"use of undefined SSA value {value!r} (verifier should "
                "have rejected this module)") from None

    @property
    def counters(self) -> ExecutionCounters:
        return self.interpreter.counters

    # -- execution -----------------------------------------------------------
    def _dispatch(self, op: Operation):
        """Evaluate one operation; plain call, no generator frame.

        Returns the evaluator's raw result: a sequence of values, a
        :class:`BlockResult`, or a generator (region/barrier evaluators)
        the caller must drive with ``yield from``.
        """
        self.interpreter._step(op)
        args = [self.value_of(operand) for operand in op.operands]
        evaluator = lookup_evaluator(op.name)
        if evaluator is not None:
            return evaluator(self, op, args)
        if isinstance(op, InterpretableOpInterface):
            return op.interpret(args, self)
        raise InterpreterError(
            f"no evaluator registered for '{op.name}' (register one "
            "with repro.interp.register_evaluator or implement "
            "InterpretableOpInterface)")

    def _bind_results(self, op: Operation, results) -> Optional[BlockResult]:
        if isinstance(results, BlockResult):
            return results
        results = tuple(results) if results is not None else ()
        if len(results) != len(op.results):
            raise InterpreterError(
                f"evaluator for '{op.name}' produced {len(results)} "
                f"values for {len(op.results)} results")
        for res, value in zip(op.results, results):
            self.env[id(res)] = value
        return None

    def exec_block(self, block, args: Sequence[object] = ()) -> object:
        """Generator: run ``block`` with ``args`` bound to its arguments.

        Returns the terminating :class:`BlockResult` (``"fallthrough"``
        when the block has no terminator evaluator signalling one).
        Only evaluators that actually return a generator (region ops,
        barriers) cost a ``yield from`` — plain ops are evaluated with
        an ordinary call, keeping the dispatch loop flat.
        """
        if len(args) != len(block.arguments):
            raise InterpreterError(
                f"block expects {len(block.arguments)} arguments, got "
                f"{len(args)}")
        for block_arg, value in zip(block.arguments, args):
            self.env[id(block_arg)] = value
        op = block.first_op
        while op is not None:
            results = self._dispatch(op)
            if isinstance(results, GeneratorType):
                results = yield from results
            outcome = self._bind_results(op, results)
            if outcome is not None:
                return outcome
            op = op.next_op()
        return BlockResult("fallthrough", ())

    def invoke(self, func: FuncOp, args: Sequence[object]) -> object:
        """Generator: execute ``func`` in a fresh frame; returns its
        result values.

        Function bodies may be multi-block CFGs (after
        ``convert-scf-to-cf``): a block ending in a ``"branch"`` outcome
        transfers control to the successor block here, so barriers keep
        suspending the whole work item through arbitrary branch chains.
        """
        interp = self.interpreter
        if func.is_declaration:
            raise InterpreterError(
                f"cannot execute declaration '{func.sym_name}'")
        if len(args) != len(func.arguments):
            raise InterpreterError(
                f"function '{func.sym_name}' expects "
                f"{len(func.arguments)} arguments, got {len(args)}")
        interp._enter_call()
        try:
            frame = EvalContext(interp, None, self.work_item, self.group)
            outcome = yield from frame.exec_block(func.body, list(args))
            while outcome.kind == "branch":
                # A runaway CFG loop is bounded by max_steps: every
                # branch terminator was itself dispatched via _step.
                target, branch_args = outcome.values
                outcome = yield from frame.exec_block(
                    target, list(branch_args))
        finally:
            interp._exit_call()
        if outcome.kind == "return":
            return list(outcome.values)
        if outcome.kind == "fallthrough":
            return []
        raise InterpreterError(
            f"function '{func.sym_name}' ended with unexpected "
            f"'{outcome.kind}' terminator")

    def call(self, callee: str, args: Sequence[object]) -> object:
        """Generator: call function symbol ``callee`` (used by the
        ``func.call`` evaluator)."""
        func = self.interpreter.lookup_function(callee)
        self.counters.calls += 1
        results = yield from self.invoke(func, args)
        return results

    # -- group-local memory ---------------------------------------------------
    def local_storage_for(self, op: Operation,
                          memref_type: MemRefType) -> MemRefStorage:
        """Per-work-group storage for a local ``memref.alloc`` — every
        work item of the group resolves ``op`` to the same tile."""
        if self.group is None:
            return MemRefStorage.for_type(memref_type)
        storage = self.group.local_allocs.get(id(op))
        if storage is None:
            storage = MemRefStorage.for_type(memref_type)
            self.group.local_allocs[id(op)] = storage
        return storage


@dataclass
class LaunchResult:
    """Outcome of a kernel launch."""

    kernel: str
    num_work_items: int
    counters: ExecutionCounters = field(default_factory=ExecutionCounters)


class Interpreter:
    """Evaluates functions and kernels of one module.

    ``max_steps`` bounds the total number of op evaluations (a runaway
    loop raises :class:`TrapError` instead of hanging the process).
    """

    def __init__(self, module: Optional[ModuleOp] = None,
                 max_steps: int = 10_000_000,
                 max_call_depth: int = 200):
        self.module = module
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth
        self.counters = ExecutionCounters()
        self._steps = 0
        self._call_depth = 0
        self._globals: Dict[str, MemRefStorage] = {}

    # -- bookkeeping ---------------------------------------------------------
    def _step(self, op: Operation) -> None:
        self._steps += 1
        self.counters.ops += 1
        if self._steps > self.max_steps:
            raise TrapError(
                f"exceeded the interpreter step budget ({self.max_steps} "
                f"ops) at '{op.name}'")

    def _enter_call(self) -> None:
        self._call_depth += 1
        if self._call_depth > self.max_call_depth:
            raise TrapError(
                f"exceeded maximum call depth ({self.max_call_depth})")

    def _exit_call(self) -> None:
        self._call_depth -= 1

    # -- lookup --------------------------------------------------------------
    def lookup_function(self, name: Union[str, FuncOp]) -> FuncOp:
        from ..dialects.llvm import LLVMFuncOp

        if isinstance(name, (FuncOp, LLVMFuncOp)):
            return name
        if self.module is None:
            raise InterpreterError(
                "interpreter has no module to resolve symbols in")
        func = self.module.lookup_symbol(name)
        if not isinstance(func, (FuncOp, LLVMFuncOp)):
            raise InterpreterError(
                f"no function named '{name}' in the module")
        return func

    def global_storage(self, name: str) -> MemRefStorage:
        """Storage backing ``memref.global @name`` (materialized once)."""
        storage = self._globals.get(name)
        if storage is not None:
            return storage
        if self.module is None:
            raise InterpreterError("no module to resolve globals in")
        global_op = self.module.lookup_symbol(name)
        if global_op is None:
            raise InterpreterError(f"unknown memref.global '{name}'")
        memref_type = getattr(global_op, "memref_type", None)
        initial = global_op.attributes.get("initial_value")
        if memref_type is None and isinstance(initial, DenseElementsAttr):
            memref_type = MemRefType(initial.shape, initial.element_type)
        if memref_type is None:
            type_text = global_op.get_str_attr("type")
            if type_text:
                parsed = parse_type(type_text)
                if isinstance(parsed, MemRefType):
                    memref_type = parsed
        if memref_type is None:
            raise InterpreterError(
                f"cannot determine the type of memref.global '{name}'")
        storage = MemRefStorage.for_type(memref_type)
        if isinstance(initial, DenseElementsAttr):
            storage.fill_from(initial.values)
        self._globals[name] = storage
        return storage

    def materialize_globals(self) -> None:
        """Create storage for every ``memref.global`` up front.

        The differential harness calls this so pre- and post-pipeline
        executions snapshot the same set of globals even when a pass
        removes every access to one (lazy materialization would then
        produce mismatched key sets).  Globals whose type cannot be
        determined are skipped — executing an access to one still
        raises.
        """
        if self.module is None:
            return
        for op in self.module.walk():
            if op.name == "memref.global":
                name = op.get_str_attr("sym_name")
                if not name:
                    continue
                try:
                    self.global_storage(name)
                except InterpreterError:
                    continue

    def global_snapshots(self) -> Dict[str, MemRefStorage]:
        """Materialized global storages by symbol name."""
        return dict(self._globals)

    # -- plain function execution --------------------------------------------
    def call(self, func: Union[str, FuncOp],
             args: Sequence[object] = ()) -> List[object]:
        """Execute a function with already-prepared argument values."""
        function = self.lookup_function(func)
        ctx = EvalContext(self)
        return self._drain(ctx.invoke(function, list(args)))

    @staticmethod
    def _drain(gen) -> List[object]:
        while True:
            try:
                signal = next(gen)
            except StopIteration as stop:
                return stop.value if stop.value is not None else []
            if signal is BARRIER:
                raise TrapError(
                    "sycl.group_barrier outside a work-group launch")
            raise InterpreterError(f"unexpected signal {signal!r}")

    # -- kernel launch --------------------------------------------------------
    def launch(self, kernel: Union[str, FuncOp],
               args: Sequence[object],
               global_size: Union[Range, Sequence[int], int],
               local_size: Union[Range, Sequence[int], int, None] = None,
               ) -> LaunchResult:
        """Execute ``kernel`` once per work item.

        ``args`` supplies, in order, the values for every non-item kernel
        argument: runtime :class:`Accessor`/:class:`Buffer` objects for
        accessor parameters, :class:`LocalAccessor` for local-memory
        parameters, scalars for the rest.  ``local_size`` enables
        work-group semantics (barriers, shared local memory).
        """
        function = self.lookup_function(kernel)
        global_range = global_size if isinstance(global_size, Range) \
            else Range(global_size)
        local_range: Optional[Range] = None
        group_range: Optional[Range] = None
        if local_size is not None:
            nd_range = NDRange(global_range, local_size if isinstance(
                local_size, Range) else Range(local_size))
            local_range = nd_range.local_range
            group_range = nd_range.group_range

        plan = self._bind_arguments(function, args)
        result = LaunchResult(function.sym_name,
                              global_range.size())
        before = self.counters.as_dict()
        if local_range is None:
            self._launch_basic(function, plan, global_range)
        else:
            self._launch_nd(function, plan, global_range, local_range,
                            group_range)
        # A per-launch delta: Interpreter.counters keeps the cumulative
        # totals, the LaunchResult reports only this launch's work.
        after = self.counters.as_dict()
        result.counters = ExecutionCounters(
            **{key: after[key] - before[key] for key in after})
        return result

    # An argument plan entry is either ("item",), ("value", v) or
    # ("local", LocalAccessor).
    def _bind_arguments(self, function: FuncOp,
                        args: Sequence[object]) -> List[Tuple]:
        provided = list(args)
        plan: List[Tuple] = []
        for argument in function.arguments:
            if _item_argument_type(argument.type) is not None:
                plan.append(("item",))
                continue
            if not provided:
                raise InterpreterError(
                    f"kernel '{function.sym_name}' needs a value for "
                    f"argument %{argument.name_hint or argument.arg_index}")
            value = provided.pop(0)
            accessor_type = accessor_type_of(argument)
            if isinstance(value, LocalAccessor):
                plan.append(("local", value))
                continue
            if isinstance(value, Buffer):
                value = Accessor(value)
            if isinstance(value, Accessor):
                element = accessor_type.element_type \
                    if isinstance(accessor_type, AccessorType) else None
                value = AccessorBinding(value, element)
            plan.append(("value", value))
        if provided:
            raise InterpreterError(
                f"kernel '{function.sym_name}' received "
                f"{len(provided)} extra argument(s)")
        return plan

    def _item_args(self, plan: List[Tuple], item: WorkItemBinding,
                   local_storages: Dict[int, MemRefStorage]) -> List[object]:
        values: List[object] = []
        for entry in plan:
            if entry[0] == "item":
                values.append(item)
            elif entry[0] == "local":
                values.append(local_storages[id(entry[1])])
            else:
                values.append(entry[1])
        return values

    def _local_storages(self, plan: List[Tuple]) -> Dict[int, MemRefStorage]:
        storages: Dict[int, MemRefStorage] = {}
        for entry in plan:
            if entry[0] == "local":
                local = entry[1]
                storages[id(local)] = MemRefStorage(
                    local.shape, _element_type_for_dtype(local.dtype),
                    "local")
        return storages

    def _item_generator(self, function: FuncOp, plan: List[Tuple],
                        item: WorkItemBinding,
                        group: Optional[GroupContext],
                        local_storages: Dict[int, MemRefStorage]):
        ctx = EvalContext(self, None, item, group)
        self.counters.work_items += 1
        args = self._item_args(plan, item, local_storages)
        yield from ctx.invoke(function, args)

    def _launch_basic(self, function: FuncOp, plan: List[Tuple],
                      global_range: Range) -> None:
        if any(entry[0] == "local" for entry in plan):
            # SYCL local accessors only exist for nd_range kernels; a
            # shared tile across a plain range launch would leak state
            # between work items.
            raise TrapError(
                "a LocalAccessor argument requires a work-group launch "
                "(pass local_size)")
        local_storages: Dict[int, MemRefStorage] = {}
        for point in itertools.product(*(range(e) for e in global_range)):
            item = WorkItemBinding(global_id=point,
                                   global_range=tuple(global_range))
            self._drain(self._item_generator(function, plan, item, None,
                                             local_storages))

    def _launch_nd(self, function: FuncOp, plan: List[Tuple],
                   global_range: Range, local_range: Range,
                   group_range: Range) -> None:
        for group_id in itertools.product(
                *(range(e) for e in group_range)):
            group = GroupContext(group_id=group_id)
            local_storages = self._local_storages(plan)
            generators = []
            for local_id in itertools.product(
                    *(range(e) for e in local_range)):
                global_id = tuple(g * l + i for g, l, i in
                                  zip(group_id, local_range, local_id))
                item = WorkItemBinding(
                    global_id=global_id,
                    global_range=tuple(global_range),
                    local_id=local_id,
                    local_range=tuple(local_range),
                    group_id=group_id,
                    group_range=tuple(group_range))
                generators.append(self._item_generator(
                    function, plan, item, group, local_storages))
            self._run_group(generators)

    @staticmethod
    def _run_group(generators: Iterable) -> None:
        """Round-robin the work-item generators of one group: advance
        each to its next barrier (or completion); repeat until all are
        done.  A barrier releases once every unfinished item reached it."""
        active = list(generators)
        while active:
            arrived = []
            for gen in active:
                try:
                    signal = next(gen)
                except StopIteration:
                    continue
                if signal is BARRIER:
                    arrived.append(gen)
                else:
                    raise InterpreterError(
                        f"unexpected signal {signal!r} from a work item")
            active = arrived
