"""Vectorized ND-range execution tier (the ``"vector"`` backend).

Where the JIT tier (:mod:`repro.interp.jit`) still loops over work
items in Python, this tier executes the whole launch — basic or
ND-range, every work-group at once — in *lockstep*: every
work-item-varying value becomes one NumPy array of length ``L`` (the
lane count: all work-items, group-major), every launch-uniform value
stays a Python scalar, and each operation of the kernel body executes
exactly once as an array operation.  Work-group-local storage is one
``[groups, size]`` array indexed through a lane -> group vector, so
tiles stay isolated per group; private storage is lanes-last
``[size, L]``.

**Legality.**  Lockstep execution is exact only when the lanes cannot
diverge: :func:`vector_legality` declines kernels containing any
``scf.if`` — reporting *divergent* branches (those whose condition
:mod:`repro.analysis.uniformity` cannot prove uniform) distinctly from
merely-unvectorized uniform control flow — any unsupported operation,
and kernels with no work-item argument.  The backend turns the reason
into a :class:`~repro.interp.engine.TierFallback`, so such kernels
automatically run on the next tier.  Loop bounds and dimension operands
must be one Python int per walk; a three-level uniformity slice
(launch-uniform, group-uniform, per-item — :func:`_walk_verdict`)
decides before execution: launch-uniform takes the one whole-launch
walk, group-uniform (a bound computed from the group id or read from a
local tile) the same walk over one work-group at a time, per-item
declines.

For the kernels that remain, lockstep preserves the interpreter's
observable semantics on race-free programs: a divergence-free kernel
executes the same op sequence in every lane; barriers degenerate to
phase separators lockstep satisfies by construction (no-ops that only
advance the barrier counter); and SYCL leaves cross-item data races
undefined, so the array-at-a-time store order is as valid as the
interpreter's item-at-a-time order.  Gathers from f32 storage widen to
binary64 (``.astype(float64)``) so arithmetic matches the interpreter
bit for bit; stores round through the element dtype exactly like
``MemRefStorage`` does.

**Counters and traps.**  Every op adds ``L`` to ``counters.ops`` (and
loads/stores/bytes scale the same way), so the reported
:class:`ExecutionCounters` match the interpreter's.  Bounds, division
and step traps raise the same :class:`TrapError`\\ s, checked per lane.
Mid-run aborts that are *not* semantic traps (a loop bound the slice
took for uniform that turns out to be an array — the safety net behind
the pre-execution decline) raise
:class:`~repro.interp.jit.JITExecutionError`, which only the engine's
re-materializing ``execute`` path degrades to the next tier.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Tuple

from ..ir import IndexType, IntegerType, Trait, has_trait, is_float
from ..ir.operations import mutation_clock
from .engine import Backend, TierFallback, register_executor
from .jit_runtime import (
    JITExecutionError,
    _jit_divf,
    _jit_fptosi,
    _jit_maxf,
    _jit_minf,
    _jit_remf,
    _merge_counters,
)
from .memory import (
    AccessorBinding,
    InterpreterError,
    MemRefStorage,
    TrapError,
    byte_size_of,
)

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the toolchain ships NumPy
    _np = None


# ---------------------------------------------------------------------------
# Legality
# ---------------------------------------------------------------------------

#: ``math`` op -> the NumPy ufunc computing it lane-wise (``rsqrt`` is
#: ``1 / sqrt``).  Values only: domains stay the scalar functions'.
_V_MATH = {
    "math.sqrt": "sqrt", "math.rsqrt": "sqrt", "math.exp": "exp",
    "math.log": "log", "math.sin": "sin", "math.cos": "cos",
    "math.absf": "absolute", "math.floor": "floor", "math.ceil": "ceil",
    "math.tanh": "tanh", "math.powf": "power",
}

_SUPPORTED_OPS = frozenset(_V_MATH) | frozenset({
    "arith.constant", "arith.addi", "arith.subi", "arith.muli",
    "arith.andi", "arith.ori", "arith.xori", "arith.minsi", "arith.maxsi",
    "arith.divsi", "arith.divui", "arith.remsi", "arith.remui",
    "arith.addf", "arith.subf", "arith.mulf", "arith.divf", "arith.remf",
    "arith.minf", "arith.maxf", "arith.shli", "arith.shrsi",
    "arith.cmpi", "arith.cmpf", "arith.select", "arith.index_cast",
    "arith.extsi", "arith.trunci", "arith.sitofp", "arith.fptosi",
    "arith.extf", "arith.truncf", "arith.negf",
    "math.fma",
    "scf.for", "scf.yield",
    "affine.for", "affine.yield", "affine.apply", "affine.min",
    "affine.load", "affine.store",
    "memref.alloc", "memref.alloca", "memref.dealloc", "memref.cast",
    "memref.dim", "memref.load", "memref.store",
    "func.return",
    "sycl.constructor", "sycl.id.get", "sycl.range.get", "sycl.range.size",
    "sycl.item.get_id", "sycl.item.get_linear_id", "sycl.item.get_range",
    "sycl.nd_item.get_global_id", "sycl.nd_item.get_global_linear_id",
    "sycl.nd_item.get_local_id", "sycl.nd_item.get_local_linear_id",
    "sycl.nd_item.get_group_id", "sycl.nd_item.get_global_range",
    "sycl.nd_item.get_local_range", "sycl.nd_item.get_group_range",
    "sycl.nd_item.get_group", "sycl.global_id", "sycl.local_id",
    "sycl.group.get_group_id", "sycl.group.get_local_range",
    "sycl.group.get_group_range",
    "sycl.accessor.subscript", "sycl.accessor.get_pointer",
    "sycl.accessor.get_range", "sycl.accessor.get_mem_range",
    "sycl.accessor.get_offset", "sycl.accessor.size",
    "sycl.group_barrier",
})

#: Uniformity levels, ordered: the same value in every lane of the
#: launch, in every lane of one work-group, or nothing known.  A
#: :class:`_Store` is tagged with the level its *contents* vary at.
_UNIFORM, _PER_GROUP, _PER_ITEM = range(3)

#: The only group-uniform sources (the dialect's ``UNIFORM_SOURCE``
#: trait means work-group-uniform, so it cannot tell them from ranges).
_GROUP_ID_OPS = ("sycl.nd_item.get_group_id", "sycl.group.get_group_id")
#: Loop op -> how many leading operands are its bounds (and step).
_FOR_BOUNDS = {"scf.for": 3, "affine.for": 2}

#: ``id(function) -> (decline reason, per-group-walk reason)``, valid
#: only for the recorded mutation clock: any IR mutation flushes it, so
#: an in-place pass can never leave a stale verdict (or a recycled id).
_LEGALITY_MEMO: Dict[str, object] = {"clock": -1, "verdicts": {}}


def vector_legality(function) -> Optional[str]:
    """``None`` when ``function`` is lockstep-vectorizable, else the
    human-readable reason it is not (memoized until the IR mutates)."""
    return _legality(function)[0]


def _legality(function) -> Tuple[Optional[str], Optional[str]]:
    """``(decline reason, per-group-walk reason)`` of ``function``: at
    most one is set; both ``None`` selects the one whole-launch walk."""
    clock = mutation_clock()
    if _LEGALITY_MEMO["clock"] != clock:
        _LEGALITY_MEMO["clock"] = clock
        _LEGALITY_MEMO["verdicts"] = {}
    verdict = _LEGALITY_MEMO["verdicts"].get(id(function))
    if verdict is None:
        reason = _compute_legality(function)
        verdict = (reason, None) if reason is not None \
            else _walk_verdict(function)
        _LEGALITY_MEMO["verdicts"][id(function)] = verdict
    return verdict


def _compute_legality(function) -> Optional[str]:
    from .interpreter import _item_argument_type
    from .memory import _numpy_dtype

    if function.is_declaration:
        return "function is a declaration"
    rank = None
    for argument in function.arguments:
        item_type = _item_argument_type(argument.type)
        if item_type is not None:
            item_rank = getattr(item_type, "dimensions", 1)
            if rank is not None and rank != item_rank:
                return "conflicting work-item argument ranks"
            rank = item_rank
    if rank is None:
        return "kernel has no work-item argument"
    branches = [op for op in function.walk(include_self=False)
                if op.name == "scf.if"]
    if branches:
        from ..analysis.uniformity import UniformityAnalysis

        analysis = UniformityAnalysis(function)
        divergent = analysis.divergent_branches()
        if divergent:
            return (f"{len(divergent)} divergent branch(es): lanes would "
                    f"diverge on a non-uniform 'scf.if' condition")
        return "uniform control flow ('scf.if') is not vectorized"
    for op in function.walk(include_self=False):
        name = op.name
        if name not in _SUPPORTED_OPS:
            return f"operation '{name}' is not vectorized"
        if name == "func.return" and op.operands:
            return "kernel returning values"
        if name in ("memref.alloc", "memref.alloca"):
            memref_type = op.results[0].type
            if _numpy_dtype(memref_type.element_type) is None:
                if memref_type.num_elements() not in (1, None) \
                        and memref_type.rank != 0:
                    return "multi-element aggregate alloc is not vectorized"
            elif not memref_type.has_static_shape():
                return "dynamic-shape alloc is not vectorized"
    return None


def _walk_verdict(function) -> Tuple[Optional[str], Optional[str]]:
    """Slice ``function`` by uniformity level and judge the operands the
    walker needs as one Python int (loop bounds and steps, dimension
    operands): all launch-uniform selects the whole-launch walk, a
    group-uniform one the per-group walk, a per-item one declines.

    The levels mirror the walker's representations: a value is an array
    exactly when an operand is, except at the sources (group ids, the
    dialect's ``NON_UNIFORM_SOURCE`` item ids, loads from
    work-group-local or private storage).  Loop-carried values and id
    cells flow backwards, hence the fixpoint (levels only rise).
    """
    from ..dialects.sycl import _QueryOpBase, accessor_type_of
    from .memory import _numpy_dtype

    demands: List[Tuple[object, str]] = []
    for op in function.walk(include_self=False):
        name = op.name
        if name in _FOR_BOUNDS:
            wanted, kind = op.operands[:_FOR_BOUNDS[name]], "loop bound"
        elif name == "memref.dim" or isinstance(op, _QueryOpBase):
            wanted, kind = op.operands[1:2], "dimension operand"
        else:
            continue
        demands.extend(
            (value, kind) for value in wanted
            if getattr(value.defining_op(), "name", "") != "arith.constant")
    if not demands:  # the common case: nothing demanded can vary at all
        return None, None

    level: Dict[int, int] = {}
    changed = True

    def of(values) -> int:
        worst = _UNIFORM
        for value in values:
            worst = max(worst, level.get(id(value), _UNIFORM))
        return worst

    def lift(values, new: int) -> None:
        nonlocal changed
        for value in values:
            if new > level.get(id(value), _UNIFORM):
                level[id(value)] = new
                changed = True

    for argument in function.arguments:
        accessor_type = accessor_type_of(argument)
        if accessor_type is not None and accessor_type.is_local:
            lift((argument,), _PER_GROUP)
    while changed:
        changed = False
        for op in function.walk(include_self=False):
            name = op.name
            if name in _FOR_BOUNDS:
                for carried in zip(op.body.arguments[1:], op.results,
                                   op.operands[_FOR_BOUNDS[name]:],
                                   op.body.last_op.operands):
                    lift(carried[:2], of(carried[2:]))
            elif name in _GROUP_ID_OPS:
                lift(op.results, _PER_GROUP)
            elif has_trait(op, Trait.NON_UNIFORM_SOURCE):
                lift(op.results, _PER_ITEM)
            elif name in ("memref.alloc", "memref.alloca"):
                memref_type = op.results[0].type
                # (An id cell is lifted by its constructors instead.)
                if _numpy_dtype(memref_type.element_type) is not None:
                    lift(op.results, _PER_GROUP if memref_type.memory_space
                         == "local" else _PER_ITEM)
            elif name == "sycl.constructor":
                lift(op.operands[:1], of(op.operands[1:]))
            elif name != "memref.dim":
                lift(op.results, of(op.operands))
    worst, kind = max(((of((value,)), kind) for value, kind in demands),
                      key=lambda demand: demand[0])
    if worst == _PER_ITEM:
        return f"a {kind} varies per work-item", None
    if worst == _PER_GROUP:
        return None, f"{kind} depends on the group id"
    return None, None


# ---------------------------------------------------------------------------
# Lockstep value representations
# ---------------------------------------------------------------------------

#: Sentinel bound to work-item arguments (queries read the lane arrays).
_ITEM = object()


class _Store:
    """One storage of ``size`` elements.  ``varies`` is the level its
    contents vary at and fixes the layout of ``flat``: ``[size]`` shared
    by every lane (``_UNIFORM``), ``[groups, size]`` with one tile per
    work-group of the slab (``_PER_GROUP``), or lanes-last
    ``[size, lanes]`` (``_PER_ITEM``) so that a uniform position is one
    contiguous row."""

    __slots__ = ("flat", "size", "shape", "is_float", "elem_bytes",
                 "varies")

    def __init__(self, flat, size, shape, is_float_, elem_bytes,
                 varies=_UNIFORM):
        self.flat = flat
        self.size = size
        self.shape = shape
        self.is_float = is_float_
        self.elem_bytes = elem_bytes
        self.varies = varies


class _VAcc:
    """A bound accessor argument plus its hoisted layout facts."""

    __slots__ = ("store", "dims", "mem_range", "offset", "access_range",
                 "base", "total")

    def __init__(self, store, dims, mem_range, offset, access_range, base):
        self.store = store
        self.dims = dims
        self.mem_range = mem_range
        self.offset = offset
        self.access_range = access_range
        self.base = base
        total = 1
        for extent in access_range:
            total *= int(extent)
        self.total = total


class _VView:
    """A resolved element position into a store (accessor subscript or
    ``get_pointer`` result)."""

    __slots__ = ("store", "position", "checked")

    def __init__(self, store, position, checked):
        self.store = store
        self.position = position
        self.checked = checked


class _VCell:
    """A one-slot aggregate cell (``!sycl_id_N`` alloca): holds the
    component values the dominating ``sycl.constructor`` wrote."""

    __slots__ = ("comps",)

    def __init__(self):
        self.comps: Optional[List[object]] = None


_BIN_INT = {
    "arith.addi": operator.add, "arith.subi": operator.sub,
    "arith.muli": operator.mul, "arith.andi": operator.and_,
    "arith.ori": operator.or_, "arith.xori": operator.xor,
}
_BIN_FLOAT = {
    "arith.addf": operator.add, "arith.subf": operator.sub,
    "arith.mulf": operator.mul,
}
_CMP_INT = {
    "eq": operator.eq, "ne": operator.ne,
    "slt": operator.lt, "sle": operator.le,
    "sgt": operator.gt, "sge": operator.ge,
    "ult": operator.lt, "ule": operator.le,
    "ugt": operator.gt, "uge": operator.ge,
}


def _is_array(value) -> bool:
    return isinstance(value, _np.ndarray)


def _v_truncdiv(a, b):
    # C-style truncating division, elementwise (mirrors arith._floordiv).
    quotient = a // b
    remainder = a - quotient * b
    return quotient + ((remainder != 0) & ((a < 0) != (b < 0)))


def _check_nonzero(b, op_name) -> None:
    if _is_array(b):
        if (b == 0).any():
            raise TrapError(f"division by zero in '{op_name}'")
    elif b == 0:
        raise TrapError(f"division by zero in '{op_name}'")


def _v_cmpf(predicate, a, b):
    if not _is_array(a) and not _is_array(b):
        from ..dialects.arith import _FLOAT_PREDICATES

        compare = _FLOAT_PREDICATES.get(predicate)
        if compare is None:
            raise JITExecutionError(f"cmpf predicate {predicate!r}")
        return bool(compare(a, b))
    unordered = _np.isnan(a) | _np.isnan(b)
    if predicate == "oeq":
        return (a == b) & ~unordered
    if predicate == "one":
        return (a != b) & ~unordered
    if predicate == "olt":
        return a < b
    if predicate == "ole":
        return a <= b
    if predicate == "ogt":
        return a > b
    if predicate == "oge":
        return a >= b
    if predicate == "ord":
        return ~unordered
    if predicate == "ueq":
        return (a == b) | unordered
    if predicate == "une":
        return (a != b) | unordered
    if predicate == "ult":
        return (a < b) | unordered
    if predicate == "ule":
        return (a <= b) | unordered
    if predicate == "ugt":
        return (a > b) | unordered
    if predicate == "uge":
        return (a >= b) | unordered
    if predicate == "uno":
        return unordered
    raise JITExecutionError(f"cmpf predicate {predicate!r}")


def _scalar_int_type(type_) -> bool:
    return isinstance(type_, (IntegerType, IndexType))


# ---------------------------------------------------------------------------
# The lockstep evaluator
# ---------------------------------------------------------------------------

class _Lockstep:
    """Evaluates one kernel body array-at-a-time: once for the whole
    launch, or once per work-group when ``per_group`` (a loop bound or
    dimension operand is only uniform within a group)."""

    def __init__(self, function, counters, max_steps: int,
                 per_group: bool = False):
        self.fn = function
        self.counters = counters
        self.max_steps = max_steps
        self.per_group = per_group
        self.steps = 0
        self.lanes = 0
        self.groups = 1
        self.mode = "basic"
        self.item_rank: Optional[int] = None
        self.g: List[object] = []
        self.l: List[object] = []
        self.p: List[object] = []
        self.GR: Tuple[int, ...] = ()
        self.LR: Tuple[int, ...] = ()
        self.PR: Tuple[int, ...] = ()
        self.local_args: List[Tuple[int, Tuple[int, ...], object, bool,
                                    int]] = []
        self._lane_ix = None
        self._group_ix = None
        self._group_last = None

    # -- launch driver -------------------------------------------------------
    def launch(self, plan, global_range, local_range, group_range) -> None:
        base = self._bind(plan, local_range is not None)
        rank = self.item_rank
        GR = tuple(int(d) for d in global_range)
        if rank is None or len(GR) != rank:
            raise TierFallback("launch rank mismatch")
        self.GR = GR
        total = 1
        for extent in GR:
            total *= extent
        self.counters.work_items += total
        if total == 0:
            return
        if local_range is None:
            self.mode = "basic"
            self.lanes = total
            self._lane_ix = _np.arange(total)
            self.g = [component.astype(_np.int64) for component in
                      _np.unravel_index(self._lane_ix, GR)]
            self._run_block(self.fn.body, dict(base))
            return
        self.mode = "nd"
        LR = tuple(int(d) for d in local_range)
        PR = tuple(int(d) for d in group_range)
        if len(LR) != rank or len(PR) != rank:
            raise TierFallback("launch rank mismatch")
        self.LR, self.PR = LR, PR
        size = 1
        for extent in LR:
            size *= extent
        if size == 0:
            return
        # A slab is the lanes of one walk, group-major: every work-group
        # of the launch, or (same loop) one group at a time, whose ids
        # then stay Python ints so group-uniform loop bounds are legal.
        self.groups = 1 if self.per_group else total // size
        self.lanes = self.groups * size
        self._lane_ix = _np.arange(self.lanes)
        self._group_ix = self._lane_ix // size
        self._group_last = slice(size - 1, None, size)
        self.l = [component.astype(_np.int64) for component in
                  _np.unravel_index(self._lane_ix % size, LR)]
        if self.groups == 1:
            slabs = ([int(index) for index in group]
                     for group in _np.ndindex(*PR))
        else:
            slabs = [[component.astype(_np.int64) for component in
                      _np.unravel_index(self._group_ix, PR)]]
        for self.p in slabs:
            self.g = [self.l[d] + self.p[d] * LR[d] for d in range(rank)]
            env = dict(base)
            for vid, shape, dtype, floaty, elem_bytes in self.local_args:
                env[vid] = self._local_tile(shape, dtype, floaty,
                                            elem_bytes)
            self._run_block(self.fn.body, env)

    def _local_tile(self, shape, dtype, floaty, elem_bytes) -> _Store:
        """Fresh work-group-local storage: one tile per group of the
        slab (a single group's tile is simply shared by all its lanes)."""
        size = 1
        for extent in shape:
            size *= extent
        if self.groups == 1:
            return _Store(_np.zeros(size, dtype=dtype), size, shape,
                          floaty, elem_bytes)
        return _Store(_np.zeros((self.groups, size), dtype=dtype), size,
                      shape, floaty, elem_bytes, _PER_GROUP)

    # -- argument binding (pre-execution: failures are TierFallback) ---------
    def _bind(self, plan, is_nd: bool) -> Dict[int, object]:
        from ..dialects.sycl import AccessorType, accessor_type_of
        from .interpreter import _element_type_for_dtype, _item_argument_type
        from .memory import _numpy_dtype

        base: Dict[int, object] = {}
        for argument, entry in zip(self.fn.arguments, plan):
            if entry[0] == "item":
                item_type = _item_argument_type(argument.type)
                self.item_rank = getattr(item_type, "dimensions", 1)
                base[id(argument)] = _ITEM
                continue
            if entry[0] == "local":
                if not is_nd:
                    # Matches Interpreter._launch_basic's trap.
                    raise TrapError(
                        "a LocalAccessor argument requires a work-group "
                        "launch (pass local_size)")
                local = entry[1]
                element = _element_type_for_dtype(local.dtype)
                dtype = _numpy_dtype(element)
                if dtype is None:
                    raise TierFallback(
                        "local accessor dtype is not vectorizable")
                shape = tuple(int(d) for d in local.shape)
                self.local_args.append(
                    (id(argument), shape, dtype, is_float(element),
                     byte_size_of(element)))
                continue
            value = entry[1]
            accessor_type = accessor_type_of(argument)
            if isinstance(accessor_type, AccessorType) \
                    and isinstance(value, AccessorBinding):
                base[id(argument)] = self._bind_accessor(
                    value, accessor_type)
                continue
            if isinstance(value, MemRefStorage):
                base[id(argument)] = self._bind_memref(value, argument)
                continue
            if isinstance(value, (bool, int, float)):
                base[id(argument)] = value
                continue
            raise TierFallback(
                f"argument of type {type(value).__name__} is not "
                f"vectorizable")
        return base

    def _bind_accessor(self, binding, accessor_type) -> _VAcc:
        element = accessor_type.element_type
        floaty = is_float(element)
        flat = binding.storage._flat
        if flat is None or (flat.dtype.kind == "f") is not floaty:
            raise TierFallback("accessor storage is not vectorizable")
        dims = accessor_type.dimensions
        if binding.dimensions != dims:
            raise TierFallback("accessor rank mismatch")
        store = _Store(flat, binding.storage._size, None, floaty,
                       byte_size_of(element))
        return _VAcc(store, dims, tuple(binding.mem_range),
                     tuple(binding.offset), tuple(binding.access_range),
                     binding.base_linear_offset())

    def _bind_memref(self, storage, argument) -> _Store:
        from .memory import _numpy_dtype

        element = argument.type.element_type
        if _numpy_dtype(element) is None:
            raise TierFallback(
                "memref argument of aggregate element type is not "
                "vectorizable")
        floaty = is_float(element)
        flat = storage._flat
        if flat is None or (flat.dtype.kind == "f") is not floaty:
            raise TierFallback("memref storage is not vectorizable")
        shape = tuple(int(d) for d in storage.shape)
        if len(shape) != argument.type.rank:
            raise TierFallback("memref rank mismatch")
        return _Store(flat, storage._size, shape, floaty,
                      byte_size_of(element))

    # -- evaluation core -----------------------------------------------------
    def _val(self, env, value):
        try:
            return env[id(value)]
        except KeyError:
            raise JITExecutionError(
                f"use of an unbound value in '{self.fn.sym_name}'") \
                from None

    def _run_block(self, block, env):
        """Run every op of ``block``; returns the final terminator's
        yielded values (a list) or ``None``."""
        lanes = self.lanes
        counters = self.counters
        result = None
        op = block.first_op
        while op is not None:
            self.steps += lanes
            if self.steps > self.max_steps:
                raise TrapError(
                    f"exceeded the interpreter step budget "
                    f"({self.max_steps} ops) at '{op.name}'")
            counters.ops += lanes
            result = self._eval_op(op, env)
            op = op.next_op()
        return result

    def _uniform_int(self, value, what: str) -> int:
        if _is_array(value):
            raise JITExecutionError(
                f"{what} varies per work-item in '{self.fn.sym_name}'")
        return int(value)

    def _dim_of(self, env, op) -> int:
        if len(op.operands) <= 1:
            return 0
        return self._uniform_int(self._val(env, op.operands[1]),
                                 "a dimension operand")

    def _components(self, env, value) -> List[object]:
        rep = self._val(env, value)
        if isinstance(rep, _VCell):
            if rep.comps is None:
                raise TrapError("read of an unconstructed SYCL id")
            return rep.comps
        if _is_array(rep) or isinstance(rep, (bool, int, float)):
            return [rep]
        raise JITExecutionError(
            f"id read of a {type(rep).__name__} value")

    # -- op dispatch ---------------------------------------------------------
    def _eval_op(self, op, env):
        name = op.name
        if name == "arith.constant":
            env[id(op.results[0])] = op.value
            return None
        if name in _BIN_INT:
            a = self._val(env, op.operands[0])
            b = self._val(env, op.operands[1])
            result = _BIN_INT[name](a, b)
            if getattr(op.results[0].type, "width", 64) == 1:
                result = result.astype(bool) if _is_array(result) \
                    else bool(result)
            env[id(op.results[0])] = result
            return None
        if name in _BIN_FLOAT:
            a = self._val(env, op.operands[0])
            b = self._val(env, op.operands[1])
            env[id(op.results[0])] = _BIN_FLOAT[name](a, b)
            return None
        if name in ("arith.minsi", "arith.maxsi"):
            a = self._val(env, op.operands[0])
            b = self._val(env, op.operands[1])
            if _is_array(a) or _is_array(b):
                fn = _np.minimum if name == "arith.minsi" else _np.maximum
            else:
                fn = min if name == "arith.minsi" else max
            env[id(op.results[0])] = fn(a, b)
            return None
        if name in ("arith.divsi", "arith.divui", "arith.remsi",
                    "arith.remui"):
            a = self._val(env, op.operands[0])
            b = self._val(env, op.operands[1])
            _check_nonzero(b, name)
            if not _is_array(a) and not _is_array(b):
                quotient = _v_truncdiv(int(a), int(b))
                if name == "arith.divsi":
                    result = quotient
                elif name == "arith.divui":
                    result = a // b
                elif name == "arith.remsi":
                    result = a - quotient * b
                else:
                    result = a % b
            elif name == "arith.divsi":
                result = _v_truncdiv(a, b)
            elif name == "arith.divui":
                result = a // b
            elif name == "arith.remsi":
                result = a - _v_truncdiv(a, b) * b
            else:
                result = a % b
            env[id(op.results[0])] = result
            return None
        if name in ("arith.divf", "arith.remf", "arith.minf", "arith.maxf"):
            a = self._val(env, op.operands[0])
            b = self._val(env, op.operands[1])
            if not _is_array(a) and not _is_array(b):
                scalar = {"arith.divf": _jit_divf, "arith.remf": _jit_remf,
                          "arith.minf": _jit_minf,
                          "arith.maxf": _jit_maxf}[name]
                env[id(op.results[0])] = scalar(a, b)
                return None
            with _np.errstate(divide="ignore", invalid="ignore"):
                if name == "arith.divf":
                    result = a / b
                elif name == "arith.remf":
                    result = _np.fmod(a, b)
                elif name == "arith.minf":
                    result = _np.minimum(a, b)
                else:
                    result = _np.maximum(a, b)
            env[id(op.results[0])] = result
            return None
        if name in ("arith.shli", "arith.shrsi"):
            width = getattr(op.results[0].type, "width", 64)
            a = self._val(env, op.operands[0])
            b = self._val(env, op.operands[1])
            if _is_array(b):
                bad = (b < 0) | (b >= width)
                if bad.any():
                    raise TrapError(
                        f"shift amount {int(b[bad][0])} out of range for "
                        f"i{width} in '{name}'")
            elif not 0 <= int(b) < width:
                raise TrapError(
                    f"shift amount {int(b)} out of range for i{width} in "
                    f"'{name}'")
            env[id(op.results[0])] = (a << b) if name == "arith.shli" \
                else (a >> b)
            return None
        if name == "arith.cmpi":
            compare = _CMP_INT.get(op.predicate)
            if compare is None:
                raise JITExecutionError(
                    f"cmpi predicate {op.predicate!r}")
            a = self._val(env, op.operands[0])
            b = self._val(env, op.operands[1])
            env[id(op.results[0])] = compare(a, b)
            return None
        if name == "arith.cmpf":
            a = self._val(env, op.operands[0])
            b = self._val(env, op.operands[1])
            env[id(op.results[0])] = _v_cmpf(op.predicate, a, b)
            return None
        if name == "arith.select":
            condition = self._val(env, op.operands[0])
            on_true = self._val(env, op.operands[1])
            on_false = self._val(env, op.operands[2])
            if _is_array(condition) or _is_array(on_true) \
                    or _is_array(on_false):
                env[id(op.results[0])] = _np.where(condition, on_true,
                                                   on_false)
            else:
                env[id(op.results[0])] = on_true if condition else on_false
            return None
        if name in ("arith.index_cast", "arith.extsi"):
            value = self._val(env, op.operands[0])
            if _scalar_int_type(op.operands[0].type) \
                    and getattr(op.operands[0].type, "width", 64) != 1:
                env[id(op.results[0])] = value
            elif _is_array(value):
                env[id(op.results[0])] = value.astype(_np.int64)
            else:
                env[id(op.results[0])] = int(value)
            return None
        if name == "arith.trunci":
            width = op.results[0].type.width
            mask = (1 << width) - 1
            value = self._val(env, op.operands[0])
            if _is_array(value):
                result = value.astype(_np.int64) & mask
                if width == 1:
                    result = result.astype(bool)
            else:
                result = int(value) & mask
                if width == 1:
                    result = bool(result)
            env[id(op.results[0])] = result
            return None
        if name == "arith.sitofp":
            value = self._val(env, op.operands[0])
            env[id(op.results[0])] = value.astype(_np.float64) \
                if _is_array(value) else float(value)
            return None
        if name == "arith.fptosi":
            value = self._val(env, op.operands[0])
            if _is_array(value):
                if not _np.isfinite(value).all():
                    raise TrapError(
                        "'arith.fptosi' cannot convert a non-finite value")
                env[id(op.results[0])] = value.astype(_np.int64)
            else:
                env[id(op.results[0])] = _jit_fptosi(value)
            return None
        if name in ("arith.extf", "arith.truncf"):
            env[id(op.results[0])] = self._val(env, op.operands[0])
            return None
        if name == "arith.negf":
            value = self._val(env, op.operands[0])
            env[id(op.results[0])] = -value if _is_array(value) \
                else -float(value)
            return None
        if name in _V_MATH:
            env[id(op.results[0])] = self._eval_math(
                name, [self._val(env, operand) for operand in op.operands])
            return None
        if name == "math.fma":
            a, b, c = (self._val(env, operand) for operand in op.operands)
            env[id(op.results[0])] = a * b + c
            return None
        if name in ("scf.yield", "affine.yield"):
            return [self._val(env, operand) for operand in op.operands]
        if name == "func.return":
            return None
        if name in ("scf.for", "affine.for"):
            self._eval_for(op, env, affine=(name == "affine.for"))
            return None
        if name == "affine.apply":
            coefficients = op.coefficients
            if len(coefficients) != len(op.operands):
                raise TrapError(
                    "affine.apply coefficient / operand count mismatch")
            result = op.get_int_attr("constant", 0)
            for coefficient, operand in zip(coefficients, op.operands):
                result = result + coefficient * self._val(env, operand)
            env[id(op.results[0])] = result
            return None
        if name == "affine.min":
            if not op.operands:
                raise JITExecutionError("affine.min with no operands")
            values = [self._val(env, operand) for operand in op.operands]
            result = values[0]
            for value in values[1:]:
                if _is_array(result) or _is_array(value):
                    result = _np.minimum(result, value)
                else:
                    result = min(result, value)
            env[id(op.results[0])] = result
            return None
        if name in ("memref.alloc", "memref.alloca"):
            self._eval_alloc(op, env)
            return None
        if name == "memref.dealloc":
            return None
        if name == "memref.cast":
            env[id(op.results[0])] = self._val(env, op.operands[0])
            return None
        if name == "memref.dim":
            self._eval_dim(op, env)
            return None
        if name in ("memref.load", "affine.load"):
            store, position = self._position(env, op.operands[0],
                                             list(op.operands[1:]))
            self.counters.loads += self.lanes
            self.counters.bytes_read += self.lanes * store.elem_bytes
            env[id(op.results[0])] = self._gather(store, position)
            return None
        if name in ("memref.store", "affine.store"):
            store, position = self._position(env, op.operands[1],
                                             list(op.operands[2:]))
            self.counters.stores += self.lanes
            self.counters.bytes_written += self.lanes * store.elem_bytes
            self._scatter(store, position, self._val(env, op.operands[0]))
            return None
        if name == "sycl.constructor":
            self._eval_constructor(op, env)
            return None
        if name in ("sycl.id.get", "sycl.range.get"):
            what = "the id" if name == "sycl.id.get" else "the range"
            comps = self._components(env, op.operands[0])
            dim = self._dim_of(env, op)
            if not 0 <= dim < len(comps):
                raise TrapError(
                    f"dimension {dim} out of range for {what} of rank "
                    f"{len(comps)}")
            env[id(op.results[0])] = comps[dim]
            return None
        if name == "sycl.range.size":
            comps = self._components(env, op.operands[0])
            result = comps[0]
            for comp in comps[1:]:
                result = result * comp
            env[id(op.results[0])] = result
            return None
        if name in ("sycl.item.get_id", "sycl.nd_item.get_global_id",
                    "sycl.global_id"):
            self._position_query(env, op, self.g, "the global id",
                                 require_local=False)
            return None
        if name in ("sycl.item.get_linear_id",
                    "sycl.nd_item.get_global_linear_id"):
            self._linear_query(env, op, self.g, self.GR,
                               require_local=False)
            return None
        if name in ("sycl.nd_item.get_local_id", "sycl.local_id"):
            self._position_query(env, op, self.l, "the local id",
                                 require_local=True)
            return None
        if name == "sycl.nd_item.get_local_linear_id":
            self._linear_query(env, op, self.l, self.LR,
                               require_local=True)
            return None
        if name in _GROUP_ID_OPS:
            self._position_query(env, op, self.p, "the group id",
                                 require_local=True)
            return None
        if name in ("sycl.item.get_range", "sycl.nd_item.get_global_range"):
            self._range_query(env, op, self.GR, "the global range",
                              require_local=False)
            return None
        if name in ("sycl.nd_item.get_local_range",
                    "sycl.group.get_local_range"):
            self._range_query(env, op, self.LR, "the local range",
                              require_local=True)
            return None
        if name in ("sycl.nd_item.get_group_range",
                    "sycl.group.get_group_range"):
            self._range_query(env, op, self.PR, "the group range",
                              require_local=True)
            return None
        if name == "sycl.nd_item.get_group":
            self._item_check(env, op)
            if self.mode == "basic":
                raise TrapError("work-group query on a kernel launched "
                                "without a local range")
            env[id(op.results[0])] = _ITEM
            return None
        if name == "sycl.accessor.subscript":
            self._eval_subscript(op, env)
            return None
        if name == "sycl.accessor.get_pointer":
            acc = self._acc_of(env, op.operands[0])
            env[id(op.results[0])] = _VView(acc.store, acc.base, False)
            return None
        if name in ("sycl.accessor.get_range", "sycl.accessor.get_mem_range",
                    "sycl.accessor.get_offset"):
            acc = self._acc_of(env, op.operands[0])
            source, what = {
                "sycl.accessor.get_range":
                    (acc.access_range, "the accessor range"),
                "sycl.accessor.get_mem_range":
                    (acc.mem_range, "the accessor mem range"),
                "sycl.accessor.get_offset":
                    (acc.offset, "the accessor offset"),
            }[name]
            dim = self._dim_of(env, op)
            if not 0 <= dim < acc.dims:
                raise TrapError(
                    f"dimension {dim} out of range for {what} of rank "
                    f"{acc.dims}")
            env[id(op.results[0])] = int(source[dim])
            return None
        if name == "sycl.accessor.size":
            acc = self._acc_of(env, op.operands[0])
            env[id(op.results[0])] = acc.total
            return None
        if name == "sycl.group_barrier":
            if self.mode == "basic":
                raise TrapError(
                    "sycl.group_barrier outside work-group execution "
                    "(launch the kernel with a local range)")
            # Lockstep already synchronizes the lanes: the barrier is a
            # no-op that only advances the counter.
            self.counters.barriers += self.lanes
            return None
        raise JITExecutionError(
            f"operation '{name}' reached the vector tier unsupported")

    def _eval_math(self, name: str, args):
        """A ``math`` op over lane arrays: the NumPy form for the values,
        the dialect's scalar function for the domain.  Any lane with a
        non-finite operand or result is re-evaluated by the scalar
        function, which traps exactly like the scalar tiers do (and
        accepts what they accept: a NaN operand of ``sqrt``, ``exp`` of
        ``inf``) — NumPy alone would warn and yield ``nan``/``inf``."""
        from ..dialects.math import evaluate

        if not any(_is_array(arg) for arg in args):
            return evaluate(name, *args)
        with _np.errstate(all="ignore"):
            result = getattr(_np, _V_MATH[name])(*args)
            if name == "math.rsqrt":
                result = 1.0 / result
        suspect = ~_np.isfinite(result)
        for arg in args:
            suspect |= ~_np.isfinite(arg)
        if suspect.any():
            lanes = [_np.broadcast_to(arg, result.shape)[suspect]
                     for arg in args]
            for scalars in zip(*lanes):
                evaluate(name, *scalars)
        return result

    # -- structured control flow ---------------------------------------------
    def _eval_for(self, op, env, affine: bool) -> None:
        lower = self._uniform_int(self._val(env, op.operands[0]),
                                  "a loop bound")
        upper = self._uniform_int(self._val(env, op.operands[1]),
                                  "a loop bound")
        if affine:
            step = op.step
            carried_init = list(op.operands[2:])
            if step <= 0:
                raise TrapError(
                    f"affine.for with non-positive step {step}")
        else:
            step = self._uniform_int(self._val(env, op.operands[2]),
                                     "a loop step")
            carried_init = list(op.operands[3:])
            if step <= 0:
                raise TrapError(
                    f"scf.for with non-positive step {step}")
        carried = [self._val(env, value) for value in carried_init]
        body = op.body
        arguments = body.arguments
        for induction in range(lower, upper, step):
            env[id(arguments[0])] = induction
            for argument, value in zip(arguments[1:], carried):
                env[id(argument)] = value
            yielded = self._run_block(body, env)
            if yielded is not None:
                carried = yielded
        for result, value in zip(op.results, carried):
            env[id(result)] = value

    # -- memory --------------------------------------------------------------
    def _eval_alloc(self, op, env) -> None:
        from .memory import _numpy_dtype

        memref_type = op.results[0].type
        dtype = _numpy_dtype(memref_type.element_type)
        if dtype is None:
            env[id(op.results[0])] = _VCell()
            return
        size = memref_type.num_elements()
        floaty = is_float(memref_type.element_type)
        elem_bytes = byte_size_of(memref_type.element_type)
        shape = tuple(memref_type.shape)
        if memref_type.memory_space == "local" and self.mode == "nd":
            env[id(op.results[0])] = self._local_tile(
                shape, dtype, floaty, elem_bytes)
            return
        env[id(op.results[0])] = _Store(
            _np.zeros((size, self.lanes), dtype=dtype), size, shape,
            floaty, elem_bytes, _PER_ITEM)

    def _eval_dim(self, op, env) -> None:
        ref = self._val(env, op.operands[0])
        dim = self._uniform_int(self._val(env, op.operands[1]),
                                "a dimension operand")
        if not isinstance(ref, _Store) or ref.shape is None \
                or not 0 <= dim < len(ref.shape):
            raise TrapError(f"memref.dim {dim} out of range")
        env[id(op.results[0])] = int(ref.shape[dim])

    def _position(self, env, target, indices):
        ref = self._val(env, target)
        if isinstance(ref, _Store):
            if ref.shape is None or len(indices) != len(ref.shape):
                raise JITExecutionError("rank-mismatched memref access")
            if not ref.shape:
                return ref, 0
            idx = [self._val(env, value) for value in indices]
            for index, extent in zip(idx, ref.shape):
                if _is_array(index):
                    if ((index < 0) | (index >= extent)).any():
                        raise TrapError("memref index out of bounds")
                elif not 0 <= index < extent:
                    raise TrapError("memref index out of bounds")
            position = idx[0]
            for index, extent in zip(idx[1:], ref.shape[1:]):
                position = position * int(extent) + index
            return ref, position
        if isinstance(ref, _VView):
            if len(indices) > 1:
                raise JITExecutionError(
                    "multi-index access through a view")
            offset = self._val(env, indices[0]) if indices else 0
            if ref.checked and not _is_array(offset) and offset == 0:
                return ref.store, ref.position
            position = ref.position + offset
            size = ref.store.size
            if _is_array(position):
                if ((position < 0) | (position >= size)).any():
                    raise TrapError("flat index out of bounds")
            elif not 0 <= position < size:
                raise TrapError("flat index out of bounds")
            return ref.store, position
        raise JITExecutionError(
            f"load/store through a {type(ref).__name__} value")

    def _gather(self, store: _Store, position):
        varying = _is_array(position)
        if store.varies == _PER_ITEM:
            value = store.flat[position, self._lane_ix] if varying \
                else store.flat[position]
        elif store.varies == _PER_GROUP:
            value = store.flat[self._group_ix, position]
        elif varying:
            value = store.flat[position]
        else:
            raw = store.flat[int(position)]
            return float(raw) if store.is_float else int(raw)
        # Widen to binary64 / Python-int-equivalent int64 so arithmetic
        # matches the interpreter's load conversion exactly (``astype``
        # copies, so a row of a lanes-last store is never aliased).
        return value.astype(_np.float64) if store.is_float \
            else value.astype(_np.int64)

    def _scatter(self, store: _Store, position, value) -> None:
        # A varying value at one uniform location: the interpreter's
        # item-at-a-time order makes the last lane — of each group for a
        # work-group-local tile, of the launch otherwise — win.
        varying = _is_array(position)
        if store.varies == _PER_ITEM:
            if varying:
                store.flat[position, self._lane_ix] = value
            else:
                store.flat[position] = value
        elif store.varies == _PER_GROUP:
            if varying:
                store.flat[self._group_ix, position] = value
            else:
                store.flat[:, position] = value[self._group_last] \
                    if _is_array(value) else value
        elif varying:
            store.flat[position] = value
        elif _is_array(value):
            store.flat[int(position)] = value[-1]
        else:
            store.flat[int(position)] = value

    # -- SYCL ids, items and accessors ---------------------------------------
    def _eval_constructor(self, op, env) -> None:
        cell = self._val(env, op.operands[0])
        if not isinstance(cell, _VCell):
            raise JITExecutionError(
                "sycl.constructor into a non-cell destination")
        comps: List[object] = []
        for operand in op.operands[1:]:
            value = self._val(env, operand)
            if not _scalar_int_type(operand.type):
                value = value.astype(_np.int64) if _is_array(value) \
                    else int(value)
            comps.append(value)
        cell.comps = comps

    def _item_check(self, env, op) -> None:
        if self._val(env, op.operands[0]) is not _ITEM:
            raise JITExecutionError(
                "work-item query on a non-item value")

    def _position_query(self, env, op, values, what: str,
                        require_local: bool) -> None:
        self._item_check(env, op)
        if require_local and self.mode == "basic":
            raise TrapError("work-group query on a kernel launched "
                            "without a local range")
        dim = self._dim_of(env, op)
        rank = len(values)
        if not 0 <= dim < rank:
            raise TrapError(
                f"dimension {dim} out of range for {what} of rank {rank}")
        env[id(op.results[0])] = values[dim]

    def _linear_query(self, env, op, values, ranges,
                      require_local: bool) -> None:
        self._item_check(env, op)
        if require_local and self.mode == "basic":
            raise TrapError("work-group query on a kernel launched "
                            "without a local range")
        position = values[0] if values else 0
        for d in range(1, len(values)):
            position = position * ranges[d] + values[d]
        env[id(op.results[0])] = position

    def _range_query(self, env, op, ranges, what: str,
                     require_local: bool) -> None:
        self._item_check(env, op)
        if require_local and self.mode == "basic":
            raise TrapError("work-group query on a kernel launched "
                            "without a local range")
        dim = self._dim_of(env, op)
        rank = len(ranges)
        if not 0 <= dim < rank:
            raise TrapError(
                f"dimension {dim} out of range for {what} of rank {rank}")
        env[id(op.results[0])] = int(ranges[dim])

    def _acc_of(self, env, value) -> _VAcc:
        rep = self._val(env, value)
        if not isinstance(rep, _VAcc):
            raise JITExecutionError(
                f"accessor operation on a {type(rep).__name__} value")
        return rep

    def _eval_subscript(self, op, env) -> None:
        acc = self._acc_of(env, op.operands[0])
        comps = self._components(env, op.operands[1])
        if len(comps) != acc.dims:
            raise TrapError(
                f"accessor expects {acc.dims} indices, got {len(comps)}")
        absolute = []
        for k, comp in enumerate(comps):
            index = comp + acc.offset[k]
            extent = acc.mem_range[k]
            if _is_array(index):
                if ((index < 0) | (index >= extent)).any():
                    raise TrapError(
                        "accessor index out of bounds for buffer of "
                        "shape " + repr(tuple(acc.mem_range)))
            elif not 0 <= index < extent:
                raise TrapError(
                    "accessor index out of bounds for buffer of shape "
                    + repr(tuple(acc.mem_range)))
            absolute.append(index)
        position = absolute[0]
        for k in range(1, acc.dims):
            position = position * int(acc.mem_range[k]) + absolute[k]
        env[id(op.results[0])] = _VView(acc.store, position, True)


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------

@register_executor("vector")
class VectorBackend(Backend):
    """Lockstep NumPy tier: a whole launch as array operations."""

    NAME = "vector"

    def launch(self, engine, function, values, global_size,
               local_size=None, interpreter=None):
        from .interpreter import Interpreter, LaunchResult
        from .memory import ExecutionCounters
        from ..runtime.ndrange import NDRange, Range

        if _np is None:
            raise TierFallback("vector tier requires NumPy")
        reason, per_group = _legality(function)
        if reason is not None:
            raise TierFallback(reason)
        interp = interpreter or Interpreter(engine.module,
                                            max_steps=engine.max_steps)
        global_range = global_size if isinstance(global_size, Range) \
            else Range(global_size)
        local_range = group_range = None
        if local_size is not None:
            nd_range = NDRange(global_range, local_size if isinstance(
                local_size, Range) else Range(local_size))
            local_range = nd_range.local_range
            group_range = nd_range.group_range
        plan = interp._bind_arguments(function, values)
        counters = ExecutionCounters()
        runner = _Lockstep(function, counters, engine.max_steps,
                           per_group=per_group is not None)
        try:
            runner.launch(plan, tuple(global_range),
                          tuple(local_range) if local_range else None,
                          tuple(group_range) if group_range else None)
        except (TrapError, TierFallback):
            raise
        except OverflowError as error:
            raise TrapError(
                f"value exceeds the range of the storage element: "
                f"{error}") from None
        except InterpreterError:
            raise
        except Exception as error:  # noqa: BLE001 - degradation boundary
            raise JITExecutionError(
                f"vectorized execution of '{function.sym_name}' failed: "
                f"{error!r}") from error
        _merge_counters(interp.counters, counters)
        if per_group is not None and local_range is not None:
            engine._remark(f"vector: per-group walk for "
                           f"'{function.sym_name}': {per_group}")
        return LaunchResult(function.sym_name, global_range.size(),
                            counters)

    def call(self, engine, function, values, interpreter=None):
        raise TierFallback("vector tier executes kernels only")
