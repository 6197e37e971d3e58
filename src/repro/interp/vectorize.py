"""Vectorized ND-range execution tier (the ``"vector"`` backend).

Where the JIT tier (:mod:`repro.interp.jit`) loops over work items in
Python, this tier executes a whole launch — every work-group at once —
in *lockstep*: a work-item-varying value is one NumPy array over the
``L`` lanes (all work-items, group-major), a uniform value stays a
Python scalar, and each operation runs once per walk as an array
operation.  Work-group-local storage is one ``[groups, size]`` array
indexed through a lane -> group vector; private storage is lanes-last
``[size, L]``.

:class:`_VectorEmitter` compiles a kernel once per (fingerprint, launch
kind ``basic``/``nd``, walk ``launch``/``group``) into one Python
function, cached under the tag ``vector<N>:<kind>:<walk>``.  Each
value's form (scalar, lane array or affine in the lane coordinates) is
fixed at emission; an affine position is a strided view of the storage
behind a check of the box's corners, and an elementwise op writes into
a lane array that dies there.  Counters, the step budget and traps
follow the JIT (a flat index names the first lane out of range).

Lockstep is exact only when lanes cannot diverge:
:func:`vector_legality` declines ``scf.if`` (naming branches
:mod:`repro.analysis.uniformity` cannot prove uniform *divergent*),
unsupported operations and kernels without a work-item argument, and a
uniformity slice (:func:`_walk_verdict`) picks one whole-launch walk, a
walk per work-group (a loop bound depends on the group id), or declines
(a per-item bound).  ``docs/execution_tiers.md`` gives the soundness
argument and the fallback rules.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from typing import Dict, List, Optional, Tuple

from ..ir import MemRefType, Trait, has_trait, is_float
from ..ir.operations import op_memo
from .engine import Backend, TierFallback, register_executor
from .jit_runtime import (
    CompiledExecutable,
    ExecutableCache,
    JITExecutionError,
    _EmitterBase,
    _jit_namespace,
    _merge_counters,
    _py_literal,
    _scalar_int_type,
    compile_cached,
    compile_for_engine,
    launch_ranges,
    run_executable,
)
from .memory import TrapError, byte_size_of

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

#: Elementwise op -> (lane ufunc, its operator): lanes compute ``a op b``
#: (``op a``), or call the ufunc where there is no operator.
_LANE_OPS = {
    "arith.addi": ("add", "+"), "arith.subi": ("subtract", "-"),
    "arith.muli": ("multiply", "*"), "arith.andi": ("bitwise_and", "&"),
    "arith.ori": ("bitwise_or", "|"), "arith.xori": ("bitwise_xor", "^"),
    "arith.addf": ("add", "+"), "arith.subf": ("subtract", "-"),
    "arith.mulf": ("multiply", "*"), "arith.divf": ("true_divide", "/"),
    "arith.remf": ("fmod", ""), "arith.minf": ("minimum", ""),
    "arith.maxf": ("maximum", ""), "arith.minsi": ("minimum", ""),
    "arith.maxsi": ("maximum", ""), "arith.negf": ("negative", "-")}
#: Elementwise op -> its scalar function (the others compute ``a op b``).
_SCALAR_OPS = {
    "arith.divf": "_divf", "arith.remf": "_remf", "arith.minf": "_minf",
    "arith.maxf": "_maxf", "arith.minsi": "min", "arith.maxsi": "max",
    "arith.negf": "-float"}
_CMP_INT = {
    "eq": "==", "ne": "!=", "slt": "<", "sle": "<=", "sgt": ">",
    "sge": ">=", "ult": "<", "ule": "<=", "ugt": ">", "uge": ">=",
}
#: ``arith.cmpf`` predicates that are a plain comparison on either form.
_CMP_FLOAT = {"oeq": "==", "olt": "<", "ole": "<=", "ogt": ">",
              "oge": ">="}
#: Work-item query -> (lane ids, what its dimension names, needs a local
#: range, linearized).
_ID_QUERIES = {
    "sycl.item.get_id": ("g", "the global id", False, False),
    "sycl.nd_item.get_global_id": ("g", "the global id", False, False),
    "sycl.global_id": ("g", "the global id", False, False),
    "sycl.item.get_linear_id": ("g", "", False, True),
    "sycl.nd_item.get_global_linear_id": ("g", "", False, True),
    "sycl.nd_item.get_local_id": ("l", "the local id", True, False),
    "sycl.local_id": ("l", "the local id", True, False),
    "sycl.nd_item.get_local_linear_id": ("l", "", True, True),
    "sycl.nd_item.get_group_id": ("p", "the group id", True, False),
    "sycl.group.get_group_id": ("p", "the group id", True, False),
}
#: Range query -> (launch extents, what they are, needs a local range).
_RANGE_QUERIES = {
    "sycl.item.get_range": ("_GR", "the global range", False),
    "sycl.nd_item.get_global_range": ("_GR", "the global range", False),
    "sycl.nd_item.get_local_range": ("_LR", "the local range", True),
    "sycl.group.get_local_range": ("_LR", "the local range", True),
    "sycl.nd_item.get_group_range": ("_PR", "the group range", True),
    "sycl.group.get_group_range": ("_PR", "the group range", True),
}
#: Accessor query -> (prologue suffix of its extents, what they are).
_ACC_QUERIES = {
    "sycl.accessor.get_range": ("_ar", "the accessor range"),
    "sycl.accessor.get_mem_range": ("_mr", "the accessor mem range"),
    "sycl.accessor.get_offset": ("_off", "the accessor offset"),
}
#: Every op :class:`_VectorEmitter` compiles: the tables above plus the
#: ops it handles by name.
_SUPPORTED_OPS = frozenset(_V_MATH).union(
    _LANE_OPS, _ID_QUERIES, _RANGE_QUERIES, _ACC_QUERIES, {
        "arith.constant", "arith.divsi", "arith.divui", "arith.remsi",
        "arith.remui", "arith.shli", "arith.shrsi", "arith.cmpi",
        "arith.cmpf", "arith.select", "arith.index_cast", "arith.extsi",
        "arith.trunci", "arith.sitofp", "arith.fptosi", "arith.extf",
        "arith.truncf", "math.fma", "scf.for", "scf.yield", "affine.for",
        "affine.yield", "affine.apply", "affine.min", "affine.load",
        "affine.store", "memref.alloc", "memref.alloca", "memref.dealloc",
        "memref.cast", "memref.dim", "memref.load", "memref.store",
        "func.return", "sycl.constructor", "sycl.id.get", "sycl.range.get",
        "sycl.range.size", "sycl.nd_item.get_group",
        "sycl.accessor.subscript", "sycl.accessor.get_pointer",
        "sycl.accessor.size", "sycl.group_barrier"})

#: Uniformity levels, ordered: the same value in every lane of the
#: launch, in every lane of one work-group, or nothing known.  A
#: :class:`_Store` is tagged with the level its *contents* vary at.
_UNIFORM, _PER_GROUP, _PER_ITEM = range(3)

#: The only group-uniform sources (the dialect's ``UNIFORM_SOURCE``
#: trait means work-group-uniform, so it cannot tell them from ranges).
_GROUP_ID_OPS = ("sycl.nd_item.get_group_id", "sycl.group.get_group_id")
#: Loop op -> how many leading operands are its bounds (and step).
_FOR_BOUNDS = {"scf.for": 3, "affine.for": 2}


def vector_legality(function) -> Optional[str]:
    """``None`` when ``function`` is lockstep-vectorizable, else the
    human-readable reason it is not (memoized until the function is
    edited)."""
    return _legality(function)[0]


def _legality(function) -> Tuple[Optional[str], Optional[str]]:
    """``(decline reason, per-group-walk reason)`` of ``function``: at
    most one is set; both ``None`` selects the one whole-launch walk."""
    memo = op_memo(function)
    verdict = memo.get("vector-legality")
    if verdict is None:
        reason = _compute_legality(function)
        verdict = memo["vector-legality"] = (reason, None) \
            if reason is not None else _walk_verdict(function)
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
    """Judge the operands the walk needs as one Python int (loop bounds
    and steps, dimension operands) by :func:`_levels`: all
    launch-uniform selects the whole-launch walk, a group-uniform one
    the per-group walk, a per-item one declines."""
    from ..dialects.sycl import _QueryOpBase

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
    level = _levels(function)
    worst, kind = max(((level.get(id(value), _UNIFORM), kind)
                       for value, kind in demands),
                      key=lambda demand: demand[0])
    if worst == _PER_ITEM:
        return f"a {kind} varies per work-item", None
    if worst == _PER_GROUP:
        return None, f"{kind} depends on the group id"
    return None, None


def _levels(function) -> Dict[int, int]:
    """``id(value) -> uniformity level`` (absent means launch-uniform).

    The levels mirror the walk's representations: a value is an array
    exactly when an operand is, except at the sources (group ids, the
    dialect's ``NON_UNIFORM_SOURCE`` item ids, loads from
    work-group-local or private storage).  Loop-carried values and id
    cells flow backwards, hence the fixpoint (levels only rise).
    """
    from ..dialects.sycl import accessor_type_of
    from .memory import _numpy_dtype

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
    return level


# ---------------------------------------------------------------------------
# Run-time helpers (bound in every executable's namespace)
# ---------------------------------------------------------------------------

def _oob(position, extent):
    """The first lane position outside ``[0, extent)``, or ``None``."""
    position = position.astype(_np.int64, copy=False)
    # One pass: a negative position, viewed unsigned, wraps above extent.
    if position.view(_np.uint64).max() < extent:
        return None
    return int(position[((position < 0) | (position >= extent)).argmax()])


def _v_ids(flat, shape):
    """Per-dimension int64 index arrays of the row-major positions
    ``flat`` into ``shape``."""
    return [component.astype(_np.int64, copy=False)
            for component in _np.unravel_index(flat, shape)]


def _v_positions(offset, coeffs, box, extent=None):
    """The int64 positions ``offset + sum(coeffs[i] * x[i])`` of the
    lanes of ``box`` (lane coordinates ``x``), in lane order; given
    ``extent``, the first of them outside ``[0, extent)``."""
    grid = _np.indices(box, dtype=_np.int64).reshape(len(box), -1)
    positions = offset + _np.array(coeffs, dtype=_np.int64) @ grid
    return positions if extent is None else _oob(positions, extent)


def _v_injective(coeffs, box):
    """Whether no two lanes of ``box`` share the position ``sum(coeffs[i]
    * x[i])``: in order of magnitude, each coefficient exceeds the span
    of the smaller ones (a sufficient test, exact for the row-major
    layouts kernels index)."""
    span = 0
    for coeff, extent in sorted(zip(map(abs, coeffs), box)):
        if extent > 1:
            if coeff <= span:
                return False
            span += coeff * (extent - 1)
    return True


def _v_pick(values, dim, what):
    dim = int(dim)
    if not 0 <= dim < len(values):
        raise TrapError(f"dimension {dim} out of range for {what} of rank "
                        f"{len(values)}")
    return values[dim]


def _v_dim(shape, dim):
    dim = int(dim)
    if shape is None or not 0 <= dim < len(shape):
        raise TrapError(f"memref.dim {dim} out of range")
    return int(shape[dim])


def _v_divrem(name, a, b):
    """``arith.{div,rem}{si,ui}`` over lanes; a zero divisor in any lane
    traps.  The signed ops truncate (integer ``fmod`` is C's ``%``): the
    remainder takes the dividend's sign."""
    if (b == 0).any() if isinstance(b, _np.ndarray) else b == 0:
        raise TrapError(f"division by zero in '{name}'")
    if name[-2:] == "ui":
        return a // b if name == "arith.divui" else a % b
    remainder = _np.fmod(a, b)
    return remainder if name == "arith.remsi" else (a - remainder) // b


def _v_shift(name, a, b, width):
    amounts = _np.asarray(b)
    bad = (amounts < 0) | (amounts >= width)
    if bad.any():
        raise TrapError(f"shift amount {int(amounts[bad][0])} out of range "
                        f"for i{width} in '{name}'")
    return (a << b) if name == "arith.shli" else (a >> b)


def _v_fptosi(value):
    if not _np.isfinite(value).all():
        raise TrapError("'arith.fptosi' cannot convert a non-finite value")
    return value.astype(_np.int64)


def _v_math(name, *args):
    """A ``math`` op over lane arrays: the NumPy form for the values,
    the dialect's scalar function for the domain.  Any lane with a
    non-finite operand or result is re-evaluated by the scalar function,
    which traps exactly like the scalar tiers do (and accepts what they
    accept: a NaN operand of ``sqrt``, ``exp`` of ``inf``) — NumPy alone
    would warn and yield ``nan``/``inf``."""
    from ..dialects.math import evaluate

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


def _vector_namespace() -> Dict[str, object]:
    from ..dialects.math import evaluate

    namespace = _jit_namespace()
    namespace.update({
        "_Degrade": JITExecutionError, "_oob": _oob, "_ids": _v_ids,
        "_positions": _v_positions, "_injective": _v_injective,
        "_pick": _v_pick, "_vdim": _v_dim, "_divrem": _v_divrem,
        "_shift": _v_shift, "_vfptosi": _v_fptosi,
        "_vmath": _v_math, "_m_eval": evaluate,
    })
    return namespace


# ---------------------------------------------------------------------------
# The emitter
# ---------------------------------------------------------------------------

#: How generated code addresses one storage: its flat array and size
#: (expressions) plus static layout facts.  ``varies`` is the level its
#: contents vary at and fixes the layout of ``flat``: ``[size]`` shared
#: by every lane (``_UNIFORM``), ``[groups, size]`` with one tile per
#: work-group of the walk (``_PER_GROUP``), or lanes-last
#: ``[size, lanes]`` (``_PER_ITEM``), so that a uniform position is one
#: contiguous row.
_Store = namedtuple("_Store", "flat size shape is_float elem_bytes varies",
                    defaults=(_UNIFORM,))


#: One token of a walk body: a line's start, with its indentation and
#: the names a plain ``a = ...`` / ``a, b = ...`` binds there, or an
#: identifier the line mentions.
_WALK_TOKEN = re.compile(r"^( *)(?:([A-Za-z_]\w*(?:, [A-Za-z_]\w*)*) = )?"
                         r"|([A-Za-z_]\w*)", re.M)
#: A read of the lane numbers ``_lane``.
_LANE = re.compile(r"\b_lane\b")


def _release_dead(body: str, inplace=None) -> str:
    """``body`` (the ``_walk`` statements, top level at 8 spaces) with a
    ``del`` after the last statement of each block that mentions a name
    the block binds.

    Every operation binds a fresh local: without this the peak is one
    array per operation, not the live set.  The only compound statements
    are ``for`` loops; a loop body deletes a name it binds when every
    mention lies in the body and the body binds it before any read (a
    carried value, bound before the loop too, stays).  A mention is any
    identifier token (string literals included), so a spurious one only
    keeps a name longer.  A handful of calls per block, none per name.
    ``inplace`` maps the name a simple statement binds to ``{operand:
    statement}``: the first operand found dying there picks its statement.
    """
    lines = body.count("\n") + 1
    indents: List[str] = [""] * lines
    binds: List[tuple] = [()] * lines
    first: Dict[str, int] = {}  # name -> the first line mentioning it
    last: Dict[str, int] = {}   # name -> the last line mentioning it
    read_where_bound = set()
    line, bound = -1, ()
    for indent, targets, name in _WALK_TOKEN.findall(body):
        if name:
            if name in bound:
                read_where_bound.add(name)
            elif name not in first:
                first[name] = line
            last[name] = line
            continue
        line += 1
        indents[line] = indent
        bound = ()
        if targets:
            bound = binds[line] = tuple(targets.split(", ")) \
                if ", " in targets else (targets,)
            for target in bound:
                if target not in first:
                    first[target] = line
                last[target] = line
    #: Line -> the last line of the statement holding it, in the block
    #: :func:`release` is looking at.
    owner = [0] * lines
    dels: Dict[Tuple[int, str], str] = {}  # (line, indent) -> "a, b"
    rewrite: Dict[int, str] = {}  # line -> its statement from ``inplace``
    inplace = inplace or {}

    def release(begin: int, stop: int, loop: bool) -> None:
        """The block of lines ``begin`` to ``stop`` (a loop body when
        ``loop``); its statements start at its first line's indent."""
        indent = indents[begin]
        starts = [index for index in range(begin, stop)
                  if indents[index] == indent]
        for start, end in zip(starts, starts[1:] + [stop]):
            if end - start > 1:
                release(start + 1, end, True)
            owner[start:end] = [end - 1] * (end - start)
        for start in starts:
            for name in binds[start]:
                if loop and (first[name] != start or last[name] >= stop
                             or name in read_where_bound):
                    continue
                end = owner[last[name]]
                if end not in rewrite and indents[end] == indent \
                        and binds[end] and binds[end][0] in inplace \
                        and name in inplace[binds[end][0]]:
                    rewrite[end] = inplace[binds[end][0]][name]
                if not loop and end == stop - 1:
                    continue  # returning frees it anyway
                key = (end, indent)
                dels[key] = dels[key] + ", " + name if key in dels \
                    else name

    release(0, lines, False)
    if not dels and not rewrite:
        return body
    texts = body.split("\n")
    for end, statement in rewrite.items():
        texts[end] = indents[end] + statement
    # Deepest first: a loop body's dels come before the loop's own.
    for (end, indent), names in sorted(dels.items(), reverse=True):
        texts[end] += "\n" + indent + "del " + names
    return "\n".join(texts)


#: A factor the emitter knows is never negative: a literal, a launch
#: extent, an accessor's ranges, offsets, base or size, a memref extent.
_NONNEG_FACTOR = (r"(?:\d+|_[GLP]R\d+|x\d+_(?:mr|ar|off|sh)\[\d+\]"
                  r"|x\d+_[mo]\d+|x\d+_[nb])")
_NONNEG = re.compile(rf"{_NONNEG_FACTOR}(?: \* {_NONNEG_FACTOR})*")


def _sign(expr: str) -> int:
    """1 / -1 when ``expr`` is known to be >= 0 / <= 0, else 0."""
    if _NONNEG.fullmatch(expr):
        return 1
    return -1 if expr[:1] == "-" and _NONNEG.fullmatch(expr[1:]) else 0


def _paren(expr: str) -> str:
    return f"({expr})" if " + " in expr or " - " in expr else expr


def _plus(a: str, b: str) -> str:
    return b if a == "0" else a if b == "0" else f"{a} + {b}"


def _minus(a: str, b: str) -> str:
    if a == "0" and b[:1] == "-" and " " not in b:
        return b[1:]
    return a if b == "0" else f"{a} - {_paren(b)}" if a != "0" \
        else f"-{_paren(b)}"


def _times(a: str, b: str) -> str:
    if "0" in (a, b) or "1" in (a, b):
        return "0" if "0" in (a, b) else b if a == "1" else a
    return str(int(a) * int(b)) if a.isdigit() and b.isdigit() \
        else f"{_paren(a)} * {_paren(b)}"


class _VectorEmitter(_EmitterBase):
    """Emits one kernel's executable for one launch ``kind`` (``basic``
    / ``nd``) and ``walk`` (``launch``: one walk over every lane of the
    launch; ``group``: one walk per work-group, group ids as ints).

    The generated ``_run`` guards and unpacks the arguments, sets up the
    lane arrays and calls the nested ``_walk`` once per walk.  A numeric
    value's kind is ``("s", expr)`` — one Python scalar for every lane —,
    ``("a", var)`` — a lane array — or ``("f", (offset, coeffs))`` — an
    *affine* lane value ``offset + sum(coeffs[i] * x[i])`` over the
    lane coordinates ``x`` (the mixed-radix digits of the lane number
    over :attr:`extents`), with uniform offset and coefficient
    expressions.  An affine value's array is only built when something
    needs one (:meth:`_lanes_of`); a memory access at an affine position
    is a strided view of the storage.  Other kinds: ``("item",)``,
    ``("acc", var, dims, store)``, ``("stor", store)``, ``("view",
    store, position, checked)`` and ``("cell", name)`` (an id cell; its
    components are tracked here).
    """

    SCALE = " * _L"
    WHAT = "vectorizable"

    def __init__(self, function, kind: str, walk: str):
        super().__init__(function)
        self.kind = kind
        self.walk = walk
        self.rank = 0
        self.consts: Dict[int, object] = {}
        self.cell_comps: Dict[str, List[Tuple]] = {}
        self.used: set = set()           # lane set-up the body reads
        self.walk_pro: List[str] = []    # per-walk set-up lines
        self.levels: Optional[Dict[int, int]] = None
        self.owned: Dict[str, str] = {}  # unaliased lane array -> dtype
        self.inplace: Dict[str, dict] = {}  # see :func:`_release_dead`

    # -- assembly ------------------------------------------------------------
    def emit(self) -> str:
        self._emit_prologue()
        self._emit_launch_checks()
        self._lane_box()
        self.emit_block(self.fn.body, True,
                        "1" if self.walk == "launch" else "_G")
        self._fill_patches()
        counts = [self.bc(bid) for _, _, bid, _ in self.patches]
        groups = [f"p{d}" for d in range(self.rank)] \
            if self.walk == "group" else []
        # (An empty line is the slot of an affine array never built.)
        walk = _release_dead("\n".join(
            ["        " + text for text in self.walk_pro if text]
            + [text for text in self.out if text]), self.inplace)
        lanes = self._lane_lines()
        if _LANE.search("\n".join(lanes + [walk])):  # else never built
            lanes.insert(0, "    _lane = _np.arange(_L, dtype=_np.int64)")
        lines = ["def _run(_args, _GR, _LR, _PR, _counters, _max_steps):"]
        lines += self.pro + lanes
        lines += self._static_budget_lines()
        lines += [f"    {count} = 0" for count in counts]
        lines.append(f"    def _walk({', '.join(groups)}):")
        if counts:
            lines.append(f"        nonlocal {', '.join(counts)}")
        lines.append(walk)
        lines += ["    try:", "        with _np.errstate(divide='ignore', "
                  "invalid='ignore'):"]
        pad = " " * 12
        for d, group in enumerate(groups):
            lines.append(f"{pad}for {group} in range(_PR{d}):")
            pad += "    "
        lines += [f"{pad}_walk({', '.join(groups)})", "    finally:"]
        lines += self._flush_lines() or ["        pass"]
        return "\n".join(lines + ["    return None"]) + "\n"

    def _emit_launch_checks(self) -> None:
        p, r = self.pro.append, self.rank

        def unpack(extents: str) -> None:
            p(f"    {', '.join(f'{extents}{d}' for d in range(r))}"
              f"{',' if r == 1 else ''} = {extents}")

        p(f"    if len(_GR) != {r}: raise _Fallback('launch rank mismatch')")
        unpack("_GR")
        p(f"    _T = {' * '.join(f'_GR{d}' for d in range(r))}")
        p("    _counters.work_items += _T")
        p("    if not _T: return None")
        if self.kind == "basic":
            p("    _L = _T")
            return
        p(f"    if len(_LR) != {r} or len(_PR) != {r}: "
          f"raise _Fallback('launch rank mismatch')")
        unpack("_LR")
        unpack("_PR")
        p(f"    _S = {' * '.join(f'_LR{d}' for d in range(r))}")
        p("    if not _S: return None")
        p("    _G = _T // _S")
        p(f"    _L = {'_T' if self.walk == 'launch' else '_S'}")

    def _lane_lines(self) -> List[str]:
        """Lane coordinate arrays derived from ``_lane`` (the lane
        numbers, prepended by :meth:`emit` when read), in group-major
        lane order (lane ``n`` of an ND-range walk over every group
        belongs to group ``n // S``)."""
        used, r = self.used, self.rank
        names = ", ".join(f"{{0}}{d}" for d in range(r)) \
            + ("," if r == 1 else "")
        lines: List[str] = []
        launch = self.walk == "launch"
        if self.kind == "basic":
            if "g" in used:
                lines.append(f"    {names.format('g')} = _ids(_lane, _GR)")
            return lines
        if launch and used & {"grp", "p"}:
            lines.append("    _grp = _lane // _S")
        if "last" in used:
            lines.append("    _last = slice(_S - 1, None, _S)")
        if "l" in used:
            lanes = "_lane % _S" if launch else "_lane"
            lines.append(f"    {names.format('l')} = _ids({lanes}, _LR)")
        if launch and "p" in used:
            lines.append(f"    {names.format('p')} = _ids(_grp, _PR)")
        if launch:
            lines.append("    _X = _PR + _LR")
        return lines

    def _lane_box(self) -> None:
        """The lane coordinates: ``g`` over ``_GR`` (basic launch), ``p,
        l`` over ``_PR + _LR`` (ND launch walk) or ``l`` over ``_LR`` (the
        :attr:`box`); the coefficients of the lane (:attr:`unit`) and
        group numbers."""
        r = self.rank
        if self.kind == "basic":
            families = "g"
        else:
            families = "pl" if self.walk == "launch" else "l"
        self.coords = [f"{family}{d}" for family in families
                       for d in range(r)]
        self.extents = [f"_{'G' if family == 'g' else family.upper()}R{d}"
                        for family in families for d in range(r)]
        self.unit = tuple(" * ".join(self.extents[i + 1:]) or "1"
                          for i in range(len(self.extents)))
        self.grp = tuple(" * ".join(self.extents[d + 1:r]) or "1"
                         for d in range(r)) + ("0",) * r
        self.zero = ("0",) * len(self.extents)
        self.box = {"g": "_GR", "pl": "_X", "l": "_LR"}[families]

    def _lane_ids(self, family: str) -> List[Tuple]:
        """The kinds of the ``g``lobal, ``l``ocal or grou``p`` ids: affine
        over the lane coordinates (``g_d = l_d + p_d * LR_d``), except a
        per-group walk's group ids, which are ints."""
        r, launch = self.rank, self.walk == "launch"
        if family == "p" and not launch:
            return [("s", f"p{d}") for d in range(r)]
        kinds, nd_launch = [], launch and self.kind == "nd"
        for d in range(r):
            coeffs = list(self.zero)
            if not nd_launch or family != "l":
                coeffs[d] = f"_LR{d}" if nd_launch and family == "g" else "1"
            if nd_launch and family != "p":
                coeffs[r + d] = "1"
            aff = (f"p{d} * _LR{d}" if family == "g" and not launch
                   else "0", tuple(coeffs))
            # Built (when at all) once per walk.
            self._slot(aff, self.memo_stack[0], self.walk_pro, "")
            kinds.append(("f", aff))
        return kinds

    # -- prologue: unpack and guard the argument vector ----------------------
    def _emit_prologue(self) -> None:
        from ..dialects.sycl import AccessorType, accessor_type_of
        from .interpreter import _item_argument_type
        from .memory import _numpy_dtype

        p = self.pro.append
        for index, argument in enumerate(self.fn.arguments):
            item_type = _item_argument_type(argument.type)
            if item_type is not None:
                self.rank = getattr(item_type, "dimensions", 1)
                self.kinds[id(argument)] = ("item",)
                continue
            var = f"x{index}"
            p(f"    {var} = _args[{index}]")
            accessor_type = accessor_type_of(argument)
            if isinstance(accessor_type, AccessorType):
                element, dims = accessor_type.element_type, \
                    accessor_type.dimensions
                floaty, size = is_float(element), byte_size_of(element)
                if accessor_type.is_local:
                    store = self._bind_local(var, index, dims, floaty, size)
                    self.kinds[id(argument)] = ("stor", store)
                    continue
                self._bind_accessor(var, index, dims, floaty)
                self.kinds[id(argument)] = ("acc", var, dims, _Store(
                    f"{var}_f", f"{var}_n", None, floaty, size))
            elif isinstance(argument.type, MemRefType):
                element, rank = argument.type.element_type, \
                    argument.type.rank
                shape = tuple(f"{var}_sh[{k}]" for k in range(rank))
                self.kinds[id(argument)] = ("stor", _Store(
                    f"{var}_f", f"{var}_n", shape, is_float(element),
                    byte_size_of(element)))
                if _numpy_dtype(element) is None:
                    p("    raise _Fallback('memref argument of aggregate "
                      "element type is not vectorizable')")
                    continue
                p(f"    if {var}.__class__ is not _MemRefStorage: raise "
                  f"_Fallback('argument {index} is not a memref storage')")
                p(f"    {var}_f, {var}_n, {var}_sh = {var}._flat, "
                  f"{var}._size, {var}.shape")
                p(f"    if {var}_f is None or ({var}_f.dtype.kind == 'f') "
                  f"is not {is_float(element)} or len({var}_sh) != {rank}: "
                  f"raise _Fallback('memref storage is not vectorizable')")
            else:
                p(f"    if not isinstance({var}, (bool, int, float)): raise "
                  f"_Fallback('argument of type ' + type({var}).__name__ "
                  f"+ ' is not vectorizable')")
                self.kinds[id(argument)] = ("s", var)

    def _bind_accessor(self, var, index, dims, floaty) -> None:
        p = self.pro.append
        comma = "," if dims == 1 else ""
        p(f"    if {var}.__class__ is not _AccessorBinding: raise "
          f"_Fallback('argument {index} is not an accessor binding')")
        p(f"    {var}_f, {var}_n = {var}.storage._flat, {var}.storage._size")
        p(f"    if {var}_f is None or ({var}_f.dtype.kind == 'f') is not "
          f"{floaty}: raise _Fallback('accessor storage is not "
          f"vectorizable')")
        p(f"    if {var}.dimensions != {dims}: "
          f"raise _Fallback('accessor rank mismatch')")
        p(f"    {var}_mr, {var}_off, {var}_ar = {var}.mem_range, "
          f"{var}.offset, {var}.access_range")
        p(f"    {', '.join(f'{var}_m{k}' for k in range(dims))}{comma} = "
          f"{var}_mr")
        p(f"    {', '.join(f'{var}_o{k}' for k in range(dims))}{comma} = "
          f"{var}_off")
        p(f"    {var}_asz, {var}_b = math.prod({var}_ar), "
          f"{var}.base_linear_offset()")

    def _bind_local(self, var, index, dims, floaty, size) -> _Store:
        """A LocalAccessor argument: a fresh tile per walk."""
        p = self.pro.append
        shape = tuple(f"{var}_sh[{k}]" for k in range(dims))
        if self.kind == "basic":
            # Matches Interpreter._launch_basic's trap.
            p("    raise _TrapError('a LocalAccessor argument requires a "
              "work-group launch (pass local_size)')")
            return _Store("None", 0, shape, floaty, size)
        p(f"    if {var}.__class__ is not _LocalAccessor: raise "
          f"_Fallback('argument {index} is not a LocalAccessor')")
        p(f"    {var}_sh = tuple(int(_d) for _d in {var}.shape)")
        p(f"    if len({var}_sh) != {dims}: "
          f"raise _Fallback('local accessor rank mismatch')")
        p(f"    {var}_n, {var}_dt = math.prod({var}_sh), _local_dtype({var})")
        p(f"    if ({var}_dt.kind == 'f') is not {floaty}: "
          f"raise _Fallback('local accessor dtype mismatch')")
        launch = self.walk == "launch"
        self.walk_pro.append(f"{var}_t = _np.zeros("
                             f"{'(_G, ' if launch else '('}{var}_n), "
                             f"dtype={var}_dt)")
        return _Store(f"{var}_t", f"{var}_n", shape, floaty, size,
                      _PER_GROUP if launch else _UNIFORM)

    # -- values --------------------------------------------------------------
    def val(self, value) -> Tuple:
        """``value``'s numeric kind, an affine one left unbuilt."""
        kind = self.kind_of(value)
        if kind[0] not in ("s", "a", "f"):
            raise self.unsup(f"a {kind[0]} value used as a number")
        return kind

    def num(self, value) -> Tuple:
        """``value``'s kind as a scalar or a lane array."""
        return self._built(self.val(value))

    def _built(self, kind) -> Tuple:
        return ("a", self._lanes_of(kind[1])) if kind[0] == "f" else kind

    def bind(self, result, body: str, array: bool, dtype="") -> Tuple:
        """A fresh local set to ``body``; its kind, also bound to
        ``result`` when given.  ``dtype`` marks a new lane array owned."""
        var = self.fresh()
        self.line(f"{var} = {body}")
        if body in self.owned:  # an alias: now two names hold the array
            del self.owned[body]
        elif dtype and array:
            self.owned[var] = dtype
        kind = ("a", var) if array else ("s", var)
        if result is not None:
            self.kinds[id(result)] = kind
        return kind

    def arr(self, kind) -> str:
        """A lane array of numeric ``kind`` (a scalar is broadcast)."""
        return kind[1] if kind[0] == "a" else f"_np.full(_L, {kind[1]})"

    def _lane_op(self, result, name, a, b, array, width=64) -> Tuple:
        """``result`` bound to the elementwise ``name`` of ``a`` (and
        ``b``).  An owned operand of the result's dtype that dies here
        takes the result (:func:`_release_dead`): ``a op= b`` for the left
        operand of an operator, else the ufunc's ``out=``."""
        ufunc, operator = _LANE_OPS[name]
        operands = f"{a}, {b}" if b else a
        wrap = operator and name[-1] == "i" and width == 1  # an i1 result
        if not array:
            body = f"{_SCALAR_OPS[name]}({operands})" \
                if name in _SCALAR_OPS else f"{a} {operator} {b}"
            return self.bind(result, f"bool({body})" if wrap else body, False)
        body = f"_np.{ufunc}({operands})" if not operator \
            else f"{a} {operator} {b}" if b else operator + a
        dtype = "float64" if name[-1] == "f" else "bool" if wrap else "int64"
        kind = self.bind(result, f"({body}).astype(bool)" if wrap else body,
                         True, dtype)
        owned, var = self.owned, kind[1]
        forms = {out: f"{a} {operator}= {b}; {var} = {a}" if out == a
                 and operator and b else f"{var} = _np.{ufunc}({operands}, "
                 f"out={out})" for out in (a, b)
                 if out in owned and owned[out] == dtype}
        if forms and (not wrap or a in forms and b in forms):  # i1: bools
            self.inplace[var] = forms
        return kind

    def _carry(self, names, arrays, kinds) -> None:
        """``names = kinds``, lane arrays where ``arrays`` says so; an
        array a carried name holds is no longer owned."""
        self.line(f"{', '.join(names)} = " + ", ".join(
            self.arr(kind) if array else kind[1]
            for array, kind in zip(arrays, kinds)))
        for kind in kinds:
            self.owned.pop(kind[1], None)

    # -- affine lane values --------------------------------------------------
    def _slot(self, aff, memo, lines, indent: str) -> None:
        """Reserve a line of ``lines`` for :meth:`_lanes_of` to build
        ``aff``'s array where it is defined, not in a loop using it."""
        for scope in self.memo_stack:
            if ("slot", aff) in scope:
                return
        memo[("slot", aff)] = (lines, len(lines), indent)
        lines.append("")

    def _affine(self, result, aff) -> Tuple:
        """``result`` (when given) bound to the affine ``aff``; its kind."""
        aff = (self._name(aff[0]), aff[1])
        kind = ("f", aff)
        if result is not None:
            self.kinds[id(result)] = kind
        self._slot(aff, self.memo_stack[-1], self.out, "    " * self.ind)
        return kind

    def _affine_of(self, name: str, a, b):
        """The affine form of ``a + b``, ``a - b`` or ``a * b`` (``name``
        is the ``arith`` op), or ``None`` when it has none."""
        kinds = (a[0], b[0])
        if "a" in kinds or "f" not in kinds:
            return None
        if name == "arith.muli":
            if kinds == ("f", "f"):
                return None
            (offset, coeffs), factor = (a[1], b[1]) if kinds[0] == "f" \
                else (b[1], a[1])
            return (_times(offset, factor),
                    tuple([_times(coeff, factor) for coeff in coeffs]))
        combine = _minus if name == "arith.subi" else _plus
        if kinds[1] == "s":  # the coefficients stay
            return (combine(a[1][0], b[1]), a[1][1])
        if combine is _plus and kinds[0] == "s":
            return (_plus(a[1], b[1][0]), b[1][1])
        a = a[1] if kinds[0] == "f" else (a[1], self.zero)
        return (combine(a[0], b[1][0]), tuple(map(combine, a[1], b[1][1])))

    def _lanes_of(self, aff) -> str:
        """The int64 lane array of ``aff``, built once, in the slot of
        its definition when it has one."""
        for scope in self.memo_stack:
            if ("lanes", aff) in scope:
                return scope[("lanes", aff)]
        offset, coeffs = aff
        if coeffs == self.unit:
            body = _plus("_lane", offset)
        else:
            coords = self.coords if len(coeffs) > 1 else ["_lane"]
            terms = [(coeff, coord) for coeff, coord in zip(coeffs, coords)
                     if coeff != "0"]
            self.used.update(coord[0] for _, coord in terms)
            body = _plus(" + ".join(_times(*term) for term in terms), offset) \
                if terms else f"_np.full(_L, {offset})"
        if body.isidentifier():
            return body
        for memo in self.memo_stack:
            if ("slot", aff) in memo:
                lines, index, indent = memo[("slot", aff)]
                var = self.fresh()
                lines[index] = f"{indent}{var} = {body}"
                break
        else:
            var, memo = self.bind(None, body, True)[1], self.memo_stack[-1]
        memo[("lanes", aff)] = var
        return var

    def _name(self, expr: str) -> str:
        """``expr`` itself when a name or literal, else a local bound
        to it (it is about to be read more than once)."""
        if expr.isidentifier() or expr.isdigit():
            return expr
        var = self.fresh("q")
        self.line(f"{var} = {expr}")
        return var

    def _const_int(self, value) -> Optional[int]:
        constant = self.consts.get(id(value))
        return constant if isinstance(constant, int) else None

    def _varies(self, value) -> bool:
        """Whether ``value`` can differ between the lanes of one walk."""
        if self.levels is None:
            self.levels = _levels(self.fn)
        return self.levels.get(id(value), _UNIFORM) > (
            _UNIFORM if self.walk == "launch" else _PER_GROUP)

    def _raise(self, error: str, message: str, results=()) -> None:
        """Raise ``error`` here at run time; ``results`` get dummies."""
        self.line(f"raise {error}({message!r})")
        for result in results:
            self.kinds[id(result)] = ("s", "0")

    # -- blocks and ops ------------------------------------------------------
    def emit_block(self, block, budget: bool, count: Optional[str],
                   carried=None) -> None:
        with self._counted_block(budget, count) as stat:
            start = len(self.out)
            op = block.first_op
            while op is not None:
                stat.ops += 1
                self.emit_op(op, stat, carried)
                op = op.next_op()
            if not any(self.out[start:]):
                self.line("pass")

    def emit_op(self, op, stat, carried) -> None:
        name = op.name
        results = op.results
        result = results[0] if results else None
        if name == "arith.constant":
            text = _py_literal(op.value)
            if text is None:
                raise self.unsup(f"constant of value {op.value!r}")
            self.kinds[id(result)] = ("s", text)
            self.consts[id(result)] = op.value
            return
        if name in ("arith.extf", "arith.truncf", "memref.cast"):
            self.kinds[id(result)] = self.kind_of(op.operands[0])
            return
        if name in ("scf.yield", "affine.yield"):
            if carried:
                self._carry(*zip(*carried),
                            [self.num(value) for value in op.operands])
            return
        if name in ("func.return", "memref.dealloc"):
            return
        if name in ("scf.for", "affine.for"):
            self._emit_for(op, name == "affine.for")
            return
        if name in ("memref.alloc", "memref.alloca"):
            self._emit_alloc(op)
            return
        if name in ("memref.load", "affine.load"):
            store, position = self._locate(op.operands[0], op.operands[1:])
            stat.loads += 1
            stat.bytes_read += store.elem_bytes
            self._gather(result, store, position)
            return
        if name in ("memref.store", "affine.store"):
            store, position = self._locate(op.operands[1], op.operands[2:])
            stat.stores += 1
            stat.bytes_written += store.elem_bytes
            self._scatter(store, position, self.num(op.operands[0]))
            return
        if name.startswith("sycl."):
            self._emit_sycl(op, stat)
            return
        if name == "memref.dim":
            kind, dim = self.kind_of(op.operands[0]), self._dim(op)
            shape = kind[1].shape if kind[0] == "stor" else None
            if not isinstance(dim, int):
                text = "None" if shape is None else \
                    f"({', '.join(map(str, shape))},)"
                self.bind(result, f"_vdim({text}, {dim[1]})", False)
            elif shape is None or not 0 <= dim < len(shape):
                self._raise("_TrapError", f"memref.dim {dim} out of range",
                            results)
            else:
                self.kinds[id(result)] = ("s", str(shape[dim]))
            return
        self._emit_arith(op, name, result)

    def _emit_arith(self, op, name, result) -> None:
        values = [self.val(value) for value in op.operands]
        if name in ("arith.addi", "arith.subi", "arith.muli") \
                and getattr(result.type, "width", 64) != 1:
            aff = self._affine_of(name, *values)
            if aff is not None:
                self._affine(result, aff)
                return
        if name in ("arith.index_cast", "arith.extsi"):
            source = op.operands[0].type
            if _scalar_int_type(source) and getattr(source, "width", 64) != 1:
                self.kinds[id(result)] = values[0]
                return
        args = [self._built(kind) if kind[0] == "f" else kind
                for kind in values]
        array = any(arg[0] == "a" for arg in args)
        a = args[0][1] if args else ""
        b = args[1][1] if len(args) > 1 else ""
        if name in _LANE_OPS:
            self._lane_op(result, name, a, b, array,
                          getattr(result.type, "width", 64))
        elif name in ("arith.divsi", "arith.divui", "arith.remsi",
                      "arith.remui"):
            divisor, (form, aff) = self._const_int(op.operands[1]), values[0]
            if form == "f" and divisor and divisor > 0 \
                    and all(_sign(term) > 0 for term in (aff[0],) + aff[1]):
                # Lanes are >= 0: C's and floor division agree (and NumPy
                # divides by a constant without a divide instruction).
                var = self.bind(result, f"{a} // {divisor}", True,
                                "int64")[1]
                if name[6] == "r":  # a - a // b * b
                    self.line(f"{var} *= {-divisor}")
                    self.line(f"{var} += {a}")
            else:
                self.bind(result, f"_divrem({name!r}, {a}, {b})" if array
                          else f"_{name[6:]}({a}, {b})", array)
        elif name in ("arith.shli", "arith.shrsi"):
            width = getattr(result.type, "width", 64)
            self.bind(result, f"_shift({name!r}, {a}, {b}, {width})", array)
        elif name == "arith.cmpi":
            if op.predicate not in _CMP_INT:
                self._raise("_Degrade", f"cmpi predicate {op.predicate!r}",
                            (result,))
            else:
                self.bind(result, f"{a} {_CMP_INT[op.predicate]} {b}", array,
                          "bool")
        elif name == "arith.cmpf":
            from ..dialects.arith import _FLOAT_PREDICATES

            predicate = op.predicate
            if predicate in _CMP_FLOAT:
                self.bind(result, f"{a} {_CMP_FLOAT[predicate]} {b}", array,
                          "bool")
            elif not array and predicate in _FLOAT_PREDICATES:
                self.bind(result, f"bool(_FCMP[{predicate!r}]({a}, {b}))",
                          False)
            elif predicate in _FLOAT_PREDICATES:  # a NaN lane decides
                nan = f"(_np.isnan({a}) | _np.isnan({b}))"
                compare = _CMP_INT.get(predicate) or _CMP_INT[predicate[1:]]
                self.bind(result, f"({a} != {b}) & ~{nan}" if predicate
                          == "one" else f"({a} {compare} {b}) | {nan}", True,
                          "bool")
            else:
                self._raise("_Degrade", f"cmpf predicate {predicate!r}",
                            (result,))
        elif name == "arith.select":
            c = args[2][1]
            self.bind(result, f"_np.where({a}, {b}, {c})" if array
                      else f"({b} if {a} else {c})", array)
        elif name in ("arith.index_cast", "arith.extsi"):
            self.bind(result, f"{a}.astype(_np.int64)" if array
                      else f"int({a})", array, "int64")
        elif name == "arith.trunci":
            width = result.type.width
            body = f"{a}.astype(_np.int64) & {(1 << width) - 1}" if array \
                else f"int({a}) & {(1 << width) - 1}"
            if width == 1:
                body = f"({body}).astype(bool)" if array else f"bool({body})"
            self.bind(result, body, array)
        elif name == "arith.sitofp":
            self.bind(result, f"{a}.astype(_np.float64)" if array
                      else f"float({a})", array, "float64")
        elif name == "arith.fptosi":
            self.bind(result, f"_vfptosi({a})" if array else f"_fptosi({a})",
                      array)
        elif name in _V_MATH:
            joined = ", ".join(arg[1] for arg in args)
            self.bind(result, f"_vmath({name!r}, {joined})" if array
                      else f"_m_eval({name!r}, {joined})", array, "float64")
        elif name == "math.fma":
            self.bind(result, f"{a} * {b} + {args[2][1]}", array, "float64")
        elif name == "affine.apply":
            coefficients = op.coefficients
            if len(coefficients) != len(args):
                self._raise("_TrapError", "affine.apply coefficient / "
                            "operand count mismatch", (result,))
                return
            self.bind(result, " + ".join(
                [str(op.get_int_attr("constant", 0))] + [
                    f"({coefficient}) * ({arg[1]})"
                    for coefficient, arg in zip(coefficients, args)]), array)
        elif name == "affine.min":
            if not args:
                raise self.unsup("affine.min with no operands")
            body = a
            for arg in args[1:]:
                body = f"_np.minimum({body}, {arg[1]})" if array \
                    else f"min({body}, {arg[1]})"
            self.bind(result, body, array)
        else:
            raise self.unsup(f"operation '{name}'")

    # -- structured control flow ---------------------------------------------
    def _emit_for(self, op, affine: bool) -> None:
        bounds = op.operands[:2 if affine else 3]
        exprs = []
        for value, what in zip(bounds, ("a loop bound", "a loop bound",
                                        "a loop step")):
            kind = self.val(value)
            if kind[0] != "s":
                self._raise("_Degrade", f"{what} varies per work-item in "
                            f"'{self.fn.sym_name}'", op.results)
                return
            exprs.append(kind[1])
        step = op.step if affine else self._const_int(bounds[2])
        if step is None:
            self.line(f"if {exprs[2]} <= 0: raise _TrapError("
                      f"'scf.for with non-positive step ' + str({exprs[2]}))")
        elif step <= 0:
            self._raise("_TrapError", f"{op.name} with non-positive step "
                        f"{step}", op.results)
            return
        step_text = f", {exprs[2]}" if step is None \
            else "" if step == 1 else f", {step}"
        # A loop with constant bounds nested in statically counted blocks
        # is itself statically counted: no per-iteration bookkeeping.
        lower, upper = self._const_int(bounds[0]), self._const_int(bounds[1])
        parent, count = self.count_stack[-1], None
        if parent is not None and lower is not None and upper is not None \
                and step is not None and step > 0:
            count = f"({parent}) * {max(0, -((lower - upper) // step))}"
        body = op.body
        carried = []
        for argument, init in zip(body.arguments[1:],
                                  op.operands[len(bounds):]):
            kind = self.num(init)
            array = kind[0] == "a" or self._varies(argument)
            carried.append((self.fresh("c"), array, kind))
            self.kinds[id(argument)] = ("a", carried[-1][0]) if array \
                else ("s", carried[-1][0])
        if carried:
            self._carry(*zip(*carried))
        induction = self.fresh("i")
        self.kinds[id(body.arguments[0])] = ("s", induction)
        self.line(f"for {induction} in range({exprs[0]}, {exprs[1]}"
                  f"{step_text}):")
        self.ind += 1
        self.emit_block(body, True, count,
                        [(var, array) for var, array, _ in carried])
        self.ind -= 1
        for result, argument in zip(op.results, body.arguments[1:]):
            self.kinds[id(result)] = self.kinds[id(argument)]

    # -- memory --------------------------------------------------------------
    def _emit_alloc(self, op) -> None:
        from .memory import _numpy_dtype

        memref_type = op.results[0].type
        element = memref_type.element_type
        dtype = _numpy_dtype(element)
        if dtype is None:
            # An id cell: its components flow through the emitter.
            self.kinds[id(op.results[0])] = ("cell", self.fresh("cell"))
            return
        size = memref_type.num_elements()
        if memref_type.memory_space == "local" and self.kind == "nd":
            launch = self.walk == "launch"
            layout = f"(_G, {size})" if launch else str(size)
            varies = _PER_GROUP if launch else _UNIFORM
        else:
            layout, varies = f"({size}, _L)", _PER_ITEM
        var = self.fresh("m")
        self.line(f"{var} = _np.zeros({layout}, "
                  f"dtype=_np.{_np.dtype(dtype).name})")
        self.kinds[id(op.results[0])] = ("stor", _Store(
            var, size, tuple(memref_type.shape), is_float(element),
            byte_size_of(element), varies))

    def _memo(self, key, make):
        """``make()``, unless this block or an enclosing one already
        made ``key`` (scoped CSE: that value is still in scope, that
        bounds check still holds)."""
        for memo in self.memo_stack:
            if key in memo:
                return memo[key]
        made = self.memo_stack[-1][key] = make()
        return made

    def _add(self, a, b) -> Tuple:
        """The position ``a + b``."""
        if b[0] != "s" or a == ("s", "0"):
            a, b = b, a
        if b[1] == "0":
            return a
        return self._memo(("+", a, b), lambda: self._sum(a, b))

    def _sum(self, a, b) -> Tuple:
        if a[0] == "a" or b[0] == "a":  # an array the lanes computed
            return self._lane_op(None, "arith.addi", self._built(a)[1],
                                 self._built(b)[1], True)
        if a[0] == "s":
            return ("s", self._name(f"{a[1]} + {b[1]}"))
        return self._affine(None, self._affine_of("arith.addi", a, b))

    def _check(self, position, extent, trap: Optional[str] = None) -> None:
        """Bounds-check ``position`` against ``[0, extent)``; ``trap`` is
        the raised expression, by default the flat-index trap naming the
        first lane out of range."""
        self._memo(("check", position, extent, trap),
                   lambda: self._emit_check(position, extent, trap))

    def _emit_check(self, position, extent, trap) -> None:
        kind, value = position
        if kind == "s":
            self.line(f"if not 0 <= {value} < {extent}: raise "
                      f"{trap or f'_flat_trap({value}, {extent})'}")
        elif kind == "f":
            # The box's extreme corners; only a trap builds the lanes.
            offset, coeffs = value
            low = high = offset
            for coeff, extent_d in zip(coeffs, self.extents):
                if coeff == "0":
                    continue
                span, sign = f"{extent_d} - 1", _sign(coeff)
                if sign >= 0:
                    high = _plus(high, _times(sign and coeff or
                                              f"max({coeff}, 0)", span))
                if sign <= 0:
                    low = _plus(low, _times(sign and coeff or
                                            f"min({coeff}, 0)", span))
            tests = [f"{high} >= {extent}"]
            if _sign(low) <= 0:
                tests.insert(0, f"{low} < 0")
            trap = trap or (f"_flat_trap(_positions({offset}, "
                            f"({', '.join(coeffs)},), {self.box}, "
                            f"{extent}), {extent})")
            self.line(f"if {' or '.join(tests)}: raise {trap}")
        else:
            trap = trap or (f"_flat_trap(_oob({value}, {extent}), "
                            f"{extent})")
            self.line(f"if _oob({value}, {extent}) is not None: raise {trap}")

    def _locate(self, target, indices) -> Tuple[_Store, Tuple]:
        """``(store, position)`` of a load/store, bounds checks emitted."""
        kind = self.kind_of(target)
        if kind[0] == "stor":
            store = kind[1]
            if len(indices) != len(store.shape):
                self._raise("_Degrade", "rank-mismatched memref access")
                return store, ("s", "0")
            if not indices:
                return store, ("s", "0")
            idx = [self.val(value) for value in indices]
            for index, extent in zip(idx, store.shape):
                self._check(index, extent,
                            "_TrapError('memref index out of bounds')")
            if len(idx) == 1:
                return store, idx[0]
            return store, self._memo(("*", tuple(idx), store.shape),
                                     lambda: self._linear(idx, store.shape))
        if kind[0] != "view" or len(indices) > 1:
            raise self.unsup(f"load/store through a {kind[0]} value with "
                             f"{len(indices)} indices")
        _, store, base, checked = kind
        if indices and self.consts.get(id(indices[0])) != 0:
            position = self._add(self.val(indices[0]), base)
        elif checked:  # the subscript's own check covers element 0
            return store, base
        else:
            position = base
        self._check(position, store.size)
        return store, position

    def _view(self, store: _Store, aff) -> Tuple[str, Optional[Tuple]]:
        """``(view, coefficients)`` of ``store`` at ``aff`` (a tile: each
        lane's group's): ``flat[o:o + L]`` (``None``) or a strided view."""
        offset, coeffs = aff
        flat = store.flat
        if store.varies == _PER_GROUP:  # row ``_grp`` of [groups, size]
            coeffs = tuple(_plus(coeff, _times(grp, str(store.size)))
                           for coeff, grp in zip(coeffs, self.grp))
        elif coeffs == self.unit:
            return f"{flat}[{offset}:{offset} + _L]", None
        size = f"{flat}.itemsize"
        strides = ", ".join(_times(coeff, size) for coeff in coeffs)
        return (f"_np.ndarray({self.box}, {flat}.dtype, {flat}, "
                f"{_times(offset, size)}, ({strides},))", coeffs)

    def _gather(self, result, store: _Store, position) -> None:
        flat, kind = store.flat, position[0]
        dtype = "float64" if store.is_float else "int64"
        wide = f"_np.{dtype}"
        if kind == "f" and store.varies != _PER_ITEM:
            view, coeffs = self._view(store, position[1])
            self.bind(result, f"{view}.astype({wide})" if coeffs is None
                      or len(coeffs) == 1 else
                      f"{view}.astype({wide}, 'C').reshape(_L)", True, dtype)
            return
        position = self._built(position)
        if store.varies == _UNIFORM:
            if kind == "s":
                conv = "float" if store.is_float else "int"
                self.bind(result, f"{conv}({flat}[{position[1]}])", False)
                return
            index = position[1]
        elif store.varies == _PER_GROUP:
            self.used.add("grp")
            index = f"_grp, {position[1]}"
        else:
            index = position[1] if kind == "s" else f"{position[1]}, _lane"
        # Widen to binary64 / int64 so arithmetic matches the
        # interpreter's load conversion exactly (``astype`` copies, so a
        # row or slice of a storage is never aliased).
        self.bind(result, f"{flat}[{index}].astype({wide})", True, dtype)

    def _scatter(self, store: _Store, position, value) -> None:
        # A varying value at one uniform location: the interpreter's
        # item-at-a-time order makes the last lane — of each group for a
        # work-group-local tile, of the walk otherwise — win.
        kind, text = position[0], value[1]
        varying = value[0] == "a"
        if kind == "f" and store.varies != _PER_ITEM:
            self._scatter_affine(store, position[1], value)
            return
        position = self._built(position)
        if store.varies == _UNIFORM:
            if kind == "s":
                index, text = position[1], f"{text}[-1]" if varying else text
            else:
                index = position[1]
        elif store.varies == _PER_GROUP:
            if kind == "s":
                index = f":, {position[1]}"
                if varying:
                    self.used.add("last")
                    text = f"{text}[_last]"
            else:
                self.used.add("grp")
                index = f"_grp, {position[1]}"
        else:
            index = position[1] if kind == "s" else f"{position[1]}, _lane"
        self.line(f"{store.flat}[{index}] = {text}")

    def _scatter_affine(self, store: _Store, aff, value) -> None:
        """A view store when no two lanes share an address or all store
        one value; else an index-array store (the last lane wins)."""
        view, coeffs = self._view(store, aff)
        if coeffs is None:
            self.line(f"{view} = {value[1]}")
            return
        box, text = self.box, value[1]
        if value[0] == "a" and len(coeffs) > 1:
            text = f"{text}.reshape({box})"
        if value[0] == "a" and not (len(coeffs) == 1 and coeffs[0].lstrip(
                "-").isdigit() and int(coeffs[0])):
            listed = f"({', '.join(coeffs)},)"
            injective = self._memo(("injective", coeffs), lambda: self._name(
                f"_injective({listed}, {box})"))
            flat = store.flat if store.varies == _UNIFORM \
                else f"{store.flat}.reshape(-1)"
            self.line(f"if not {injective}: {flat}[_positions({aff[0]}, "
                      f"{listed}, {box})] = {value[1]}")
            self.line(f"if {injective}: {view}[...] = {text}")
        else:
            self.line(f"{view}[...] = {text}")

    # -- SYCL ids, items and accessors ---------------------------------------
    def _dim(self, op):
        """A query's dimension operand: an int when constant (0 when
        absent), else its scalar kind."""
        if len(op.operands) <= 1:
            return 0
        constant = self._const_int(op.operands[1])
        if constant is not None:
            return constant
        kind = self.val(op.operands[1])
        if kind[0] != "s":
            self._raise("_Degrade", f"a dimension operand varies per "
                        f"work-item in '{self.fn.sym_name}'")
            return 0
        return kind

    def _select(self, result, values, dim, what: str) -> None:
        """Bind ``result`` to component ``dim`` of the kinds ``values``."""
        if isinstance(dim, int):
            if 0 <= dim < len(values):
                self.kinds[id(result)] = values[dim]
            else:
                self._raise("_TrapError", f"dimension {dim} out of range "
                            f"for {what} of rank {len(values)}", (result,))
            return
        array = any(value[0] != "s" for value in values)
        items = [self.arr(self._built(value)) if array else value[1]
                 for value in values]
        for item in items:  # the pick holds one of them
            self.owned.pop(item, None)
        self.bind(result, f"_pick(({', '.join(items)},), {dim[1]}, "
                  f"{what!r})", array)

    def _components(self, value) -> List[Tuple]:
        kind = self.kind_of(value)
        if kind[0] in ("s", "a", "f"):
            return [kind]
        if kind[0] == "cell" and any(kind[1] in scope
                                     for scope in self.scopes):
            return self.cell_comps[kind[1]]
        # An unconstructed cell traps on the interpreter; one whose
        # constructor does not dominate the read cannot be tracked.
        raise self.unsup("id read without a dominating sycl.constructor"
                         if kind[0] == "cell" else
                         f"id read of a {kind[0]} value")

    def _emit_sycl(self, op, stat) -> None:
        name, result = op.name, op.results[0] if op.results else None
        if name in _ID_QUERIES or name in _RANGE_QUERIES \
                or name == "sycl.nd_item.get_group":
            if self.kind_of(op.operands[0])[0] != "item":
                raise self.unsup("work-item query on a non-item value")
            needs_local = name == "sycl.nd_item.get_group" or (
                _ID_QUERIES.get(name) or _RANGE_QUERIES[name])[2]
            if needs_local and self.kind == "basic":
                self._raise("_TrapError", "work-group query on a kernel "
                            "launched without a local range", op.results)
                return
        if name in _ID_QUERIES:
            family, what, _, linear = _ID_QUERIES[name]
            values = self._lane_ids(family)
            if not linear:
                self._select(result, values, self._dim(op), what)
            elif len(values) == 1:
                self.kinds[id(result)] = values[0]
            else:
                extents = "_GR" if family == "g" else "_LR"
                self.kinds[id(result)] = self._linear(
                    values, [f"{extents}{d}" for d in range(len(values))])
        elif name in _RANGE_QUERIES:
            extents, what, _ = _RANGE_QUERIES[name]
            dim = self._dim(op)
            if isinstance(dim, int):
                self._select(result, [("s", f"{extents}{d}")
                                      for d in range(self.rank)], dim, what)
            else:
                self.bind(result, f"_at({extents}, {dim[1]}, {what!r})",
                          False)
        elif name == "sycl.nd_item.get_group":
            self.kinds[id(result)] = ("item",)
        elif name == "sycl.group_barrier":
            if self.kind == "basic":
                self._raise("_TrapError", "sycl.group_barrier outside "
                            "work-group execution (launch the kernel with a "
                            "local range)")
            else:
                # Lockstep already synchronizes the lanes: the barrier is
                # a no-op that only advances the counter.
                stat.barriers += 1
        elif name == "sycl.constructor":
            cell = self.kind_of(op.operands[0])
            if cell[0] != "cell":
                raise self.unsup("sycl.constructor into a non-cell "
                                 "destination")
            comps = []
            for operand in op.operands[1:]:
                comp = self.val(operand)
                if not _scalar_int_type(operand.type):
                    comp = self._built(comp)
                    comp = self.bind(None, f"{comp[1]}.astype(_np.int64)"
                                     if comp[0] == "a"
                                     else f"int({comp[1]})", comp[0] == "a")
                comps.append(comp)
            self.construct(cell[1], comps)
        elif name in ("sycl.id.get", "sycl.range.get"):
            comps = self._components(op.operands[0])
            self._select(result, comps, self._dim(op), "the id"
                         if name == "sycl.id.get" else "the range")
        elif name == "sycl.range.size":
            comps = [self._built(comp)
                     for comp in self._components(op.operands[0])]
            self.bind(result, " * ".join(_paren(comp[1]) for comp in comps),
                      any(comp[0] == "a" for comp in comps))
        else:
            self._emit_accessor_op(op, name, result)

    def _emit_accessor_op(self, op, name, result) -> None:
        kind = self.kind_of(op.operands[0])
        if kind[0] != "acc":
            raise self.unsup(f"accessor operation on a {kind[0]} value")
        _, var, dims, store = kind
        if name == "sycl.accessor.get_pointer":
            self.kinds[id(result)] = ("view", store, ("s", f"{var}_b"), False)
        elif name == "sycl.accessor.size":
            self.kinds[id(result)] = ("s", f"{var}_asz")
        elif name in _ACC_QUERIES:
            suffix, what = _ACC_QUERIES[name]
            dim = self._dim(op)
            if not isinstance(dim, int):
                self.bind(result, f"_at({var}{suffix}, {dim[1]}, {what!r})",
                          False)
                return
            self._select(result, [("s", f"{var}{suffix}[{d}]")
                                  for d in range(dims)], dim, what)
        elif name == "sycl.accessor.subscript":
            self._emit_subscript(op, var, dims, store, result)
        else:
            raise self.unsup(f"operation '{name}'")

    def _emit_subscript(self, op, var, dims, store, result) -> None:
        comps = self._components(op.operands[1])
        if len(comps) != dims:
            self._raise("_TrapError", f"accessor expects {dims} indices, "
                        f"got {len(comps)}")
            self.kinds[id(result)] = ("view", store, ("s", "0"), False)
            return
        # An identical subscript of the same accessor addresses the
        # same, already checked element.
        self.kinds[id(result)] = self._memo(
            (var, tuple(comps)), lambda: self._subscript(var, comps, store))

    def _subscript(self, var, comps, store) -> Tuple:
        trap = (f"_TrapError('accessor index out of bounds for buffer of "
                f"shape ' + repr({var}_mr))")
        absolute = []
        for k, comp in enumerate(comps):
            absolute.append(self._add(comp, ("s", f"{var}_o{k}")))
            self._check(absolute[-1], f"{var}_m{k}", trap)
        position = absolute[0] if len(comps) == 1 else self._linear(
            absolute, [f"{var}_m{k}" for k in range(len(comps))])
        return ("view", store, position, True)

    def _linear(self, indices, extents) -> Tuple:
        """The row-major flat position of ``indices`` into ``extents``."""
        forms = {index[0] for index in indices}
        if "f" in forms and "a" not in forms:
            affs = [index[1] if index[0] == "f" else (index[1], self.zero)
                    for index in indices]
            offset, coeffs = affs[0]
            for (index, index_coeffs), extent in zip(affs[1:], extents[1:]):
                extent = str(extent)
                offset = _plus(_times(offset, extent), index)
                coeffs = tuple([_plus(_times(coeff, extent), index_coeff)
                                for coeff, index_coeff
                                in zip(coeffs, index_coeffs)])
            return self._affine(None, (offset, coeffs))
        body = self._built(indices[0])[1]
        for index, extent in zip(indices[1:], extents[1:]):
            body = f"({body}) * {extent} + {self._built(index)[1]}"
        return self.bind(None, body, forms != {"s"})


def compile_vector(function, kind: str, walk: str,
                   cache: Optional[ExecutableCache] = None,
                   ) -> CompiledExecutable:
    """``function``'s executable for a ``basic``/``nd`` launch walked
    once per ``launch`` or per ``group``, through ``cache`` when given
    (key tag ``vector<N>:<kind>:<walk>``)."""
    return compile_cached(
        function, f"{kind}:{walk}", cache, "vector",
        lambda: _VectorEmitter(function, kind, walk).emit(),
        _vector_namespace)


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

        if _np is None:
            raise TierFallback("vector tier requires NumPy")
        reason, per_group = _legality(function)
        if reason is not None:
            raise TierFallback(reason)
        interp = interpreter or Interpreter(engine.module,
                                            max_steps=engine.max_steps)
        global_range, local_range, group_range = launch_ranges(
            global_size, local_size)
        kind = "basic" if local_range is None else "nd"
        walk = "group" if per_group is not None and kind == "nd" \
            else "launch"
        executable = compile_for_engine(engine, "vector", compile_vector,
                                        function, kind, walk)
        plan = interp._bind_arguments(function, values)
        counters = ExecutionCounters()
        run_executable(executable, function,
                       [None if entry[0] == "item" else entry[1]
                        for entry in plan], global_range, local_range,
                       group_range, counters, engine.max_steps)
        _merge_counters(interp.counters, counters)
        if walk == "group":
            engine._remark(f"vector: per-group walk for "
                           f"'{function.sym_name}': {per_group}")
        return LaunchResult(function.sym_name, math.prod(global_range),
                            counters)

    def call(self, engine, function, values, interpreter=None):
        raise TierFallback("vector tier executes kernels only")
