"""Compile-to-Python execution tier (the ``"jit"`` backend).

The PR 5 interpreter re-dispatches every operation of every work item
through the evaluator registry — ~350k ops/s.  This tier compiles a
``func.func`` body **once** into the source text of one Python function
and ``compile()``/``exec``\\ s it, so a kernel launch becomes plain
Python loops over flat NumPy arrays with zero per-op dispatch.  The
generated function preserves the interpreter's observable semantics:

* **Numerics** — integers are Python ints, floats binary64, storage
  rounds through the element dtype (loads emit ``float(flat[i])`` /
  ``int(flat[i])`` so an f32 array element becomes the same binary64
  value the interpreter produced); division/remainder/min/max/compare
  helpers are shared with or mirrored from :mod:`repro.dialects.arith`.
* **Traps** — bounds checks, div-by-zero, non-positive steps and cast
  failures raise the same :class:`TrapError` the interpreter raises.
* **Counters** — every structured block gets a compile-time op/load/
  store/byte tally and a run-time execution count (``_bc<n>``); one
  ``finally`` block multiplies them out, so the reported
  :class:`ExecutionCounters` match the interpreter's exactly.  Loop
  bodies also check ``_bc * ops > max_steps``, bounding runaway loops
  like the interpreter's step budget does.
* **CFGs** — a multi-block body (``lower-to-llvm`` output) compiles to
  a ``_bb`` block-dispatch loop (:meth:`_Emitter._emit_cfg`); its
  ``llvm.*`` value ops are renamed to the ``arith.*`` ops they mirror
  (``dialects.llvm.LLVM_TO_ARITH``) and its pointer bridge /
  ``getelementptr`` / ``load`` / ``store`` chain folds into the same
  flat-array access path ``memref`` accesses use.
* **Barriers** — kernels containing ``sycl.group_barrier`` compile to a
  per-item *generator* that yields at barriers; the generated group
  loop round-robins the generators exactly like
  ``Interpreter._run_group``.  Barrier-free kernels compile to plain
  nested loops (the fast path).

Anything outside the supported op set raises
:class:`JITUnsupportedError` at compile time, which the backend turns
into a :class:`~repro.interp.engine.TierFallback` — the engine then
runs the interpreter, so the JIT can never fail an execution the
interpreter would pass.  Runtime guard failures in the generated
prologue (an argument that is not array-backed) fall back the same way
*before* any side effect.

**Caching.**  Compiled executables live in the engine's
:class:`~repro.interp.jit_runtime.ExecutableCache`, keyed per
structural fingerprint as ``(text_fingerprint(printed function),
"jit<EMITTER_VERSIONS['jit']>:<mode>")`` — the same key scheme (and,
optionally, the same :class:`~repro.transforms.disk_cache.DiskCache`)
the compile cache uses, tagged with the emitter generation so an entry
written by an older emitter is a miss, never a stale hit.  Disk entries
store the *generated Python source* as the entry text; rehydration is
``compile()`` + ``exec`` against the static namespace, no emitter run
needed.

**Fault injection** (:mod:`repro.faults`): ``jit.compile`` (``corrupt``
poisons the generated source, ``transient`` fails the compile) and
``jit.exec`` (fails an execution before it starts), both keyed by the
function fingerprint.  Both degrade to the interpreter tier with a
recorded remark.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..faults import TransientFault, fault_point
from ..ir import MemRefType, is_float
from ..ir.operations import op_memo
from .engine import Backend, TierFallback, register_executor
from .jit_runtime import (  # noqa: F401 - the error types are this tier's API
    ExecutableCache,
    JITExecutionError,
    JITUnsupportedError,
    _EmitterBase,
    _jit_namespace,
    _math_symbol,
    _merge_counters,
    _py_literal,
    _scalar_int_type,
    _Stat,
    compile_cached,
    compile_for_engine,
    launch_ranges,
    run_executable,
)
from .memory import byte_size_of

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the toolchain ships NumPy
    _np = None


# ---------------------------------------------------------------------------
# The emitter
# ---------------------------------------------------------------------------

class _Ref:
    """How generated code addresses one storage: a flat array expression
    plus static layout facts."""

    __slots__ = ("flat", "size", "shape", "is_float", "elem_bytes")

    def __init__(self, flat, size, shape, is_float_, elem_bytes):
        self.flat = flat            # expr: the flat ndarray
        self.size = size            # expr or int: element count
        self.shape = shape          # tuple of expr-or-int extents, or None
        self.is_float = is_float_
        self.elem_bytes = elem_bytes


class _Acc:
    """Prologue-hoisted accessor facts (``a<i>_*`` variables)."""

    __slots__ = ("base", "dims", "ref")

    def __init__(self, base: str, dims: int, ref: _Ref):
        self.base = base
        self.dims = dims
        self.ref = ref


class _Emitter(_EmitterBase):
    """Emits one Python function for one ``func.func`` body.

    ``mode`` is ``"function"`` (plain call), ``"basic"`` (range
    launch), ``"nd"`` (nd-range launch, no barriers — nested loops) or
    ``"nd-barrier"`` (nd-range launch with barriers — per-item
    generators round-robined per group).
    """

    # Tables are class attributes so tests can monkeypatch a deliberate
    # miscompile (the differential harness must catch it).
    BIN_INT = {
        "arith.addi": "+", "arith.subi": "-", "arith.muli": "*",
        "arith.andi": "&", "arith.ori": "|", "arith.xori": "^",
    }
    BIN_FLOAT = {
        "arith.addf": "+", "arith.subf": "-", "arith.mulf": "*",
    }
    BIN_HELPER = {
        "arith.divsi": "_divsi", "arith.divui": "_divui",
        "arith.remsi": "_remsi", "arith.remui": "_remui",
        "arith.divf": "_divf", "arith.remf": "_remf",
        "arith.minf": "_minf", "arith.maxf": "_maxf",
    }
    CMP_INT = {
        "eq": "==", "ne": "!=", "slt": "<", "sle": "<=", "sgt": ">",
        "sge": ">=", "ult": "<", "ule": "<=", "ugt": ">", "uge": ">=",
    }
    CMP_FLOAT_ORDERED = {
        "oeq": "==", "olt": "<", "ole": "<=", "ogt": ">", "oge": ">=",
    }
    #: The BIN_HELPER functions that trap (they take the op's name).
    TRAPPING = frozenset({"_divsi", "_divui", "_remsi", "_remui"})

    def __init__(self, function, mode: str):
        from ..dialects.llvm import LLVM_TO_ARITH
        from ..dialects.math import SCALAR_FUNCS

        super().__init__(function)
        self.mode = mode
        #: ``llvm.*`` value op -> the ``arith.*`` op it is compiled as.
        self.alias = LLVM_TO_ARITH
        #: ``math`` ops compiled to a guarded call of their ``PY_FUNC``
        #: (bound in the namespace as ``_m_<op>``).
        self.math_funcs = SCALAR_FUNCS
        #: CFG mode: ``id(block)`` -> its ``_bb`` dispatch label.
        self.labels: Dict[int, int] = {}
        #: Result variables of the enclosing scf.while, written by its
        #: scf.condition terminator.
        self.cond_sink: List[List[str]] = []
        self.cell_comps: Dict[str, List[str]] = {}
        self.hoisted: Dict[int, _Ref] = {}     # id(alloc op) -> group tile
        self.group_lines: List[str] = []       # per-group setup
        self.total_expr = "1"
        self.item_rank: Optional[int] = None
        self.uses_generator = mode == "nd-barrier"
        self.g_vars: List[str] = []
        self.l_vars: List[str] = []
        self.p_vars: List[str] = []

    # -- small utilities -----------------------------------------------------
    def expr(self, value) -> str:
        kind = self.kind_of(value)
        if kind[0] in ("const", "scalar"):
            return kind[1]
        raise self.unsup(f"a {kind[0]} value used where a scalar is needed")

    def bc(self, bid: int) -> str:
        return f"_bc[{bid}]" if self.uses_generator else f"_bc{bid}"

    def const_dim(self, op):
        """The dimension operand of a query op: an int when constant, a
        ``("dyn", expr)`` pair when dynamic, 0 when absent."""
        if len(op.operands) <= 1:
            return 0
        kind = self.kind_of(op.operands[1])
        if kind[0] == "const":
            return int(kind[1].strip("()"))
        if kind[0] == "scalar":
            return ("dyn", kind[1])
        raise self.unsup("a non-scalar dimension operand")

    # -- top-level assembly --------------------------------------------------
    def emit(self) -> str:
        if self.fn.is_declaration:
            raise self.unsup("function is a declaration")
        self._emit_prologue()
        if self.mode == "function":
            self._emit_function_body()
        else:
            self._scan_group_allocs()
            self._emit_kernel_body()
        return self._assemble()

    def _assemble(self) -> str:
        self._fill_patches()
        lines = ["def _run(_args, _GR, _LR, _PR, _counters, _max_steps):"]
        lines += self.pro
        lines += self._static_budget_lines()
        if self.patches:
            if self.uses_generator:
                lines.append(f"    _bc = [0] * {len(self.blocks)}")
            else:
                for _, _, bid, _ in self.patches:
                    lines.append(f"    _bc{bid} = 0")
        lines.append("    try:")
        lines += [text for text in self.out if text is not None]
        lines.append("    finally:")
        flush = self._flush_lines()
        lines += flush if flush else ["        pass"]
        lines.append("    return _ret" if self.mode == "function"
                     else "    return None")
        return "\n".join(lines) + "\n"

    # -- prologue: unpack and guard the argument vector ----------------------
    def _emit_prologue(self) -> None:
        from ..dialects.sycl import AccessorType, accessor_type_of
        from .interpreter import _item_argument_type

        p = self.pro.append
        for index, argument in enumerate(self.fn.arguments):
            item_type = _item_argument_type(argument.type)
            if item_type is not None:
                if self.mode == "function":
                    raise self.unsup("item argument in a plain call")
                rank = getattr(item_type, "dimensions", 1)
                if self.item_rank is not None and self.item_rank != rank:
                    raise self.unsup("conflicting item argument ranks")
                self.item_rank = rank
                self.kinds[id(argument)] = ("item",)
                continue
            accessor_type = accessor_type_of(argument)
            if isinstance(accessor_type, AccessorType):
                self._prologue_accessor(index, argument, accessor_type, p)
                continue
            if isinstance(argument.type, MemRefType):
                self._prologue_memref(index, argument, p)
                continue
            var = f"x{index}"
            p(f"    {var} = _args[{index}]")
            self.kinds[id(argument)] = ("scalar", var)

    def _prologue_accessor(self, index, argument, accessor_type, p) -> None:
        dims = accessor_type.dimensions
        elem = accessor_type.element_type
        floaty = is_float(elem)
        if accessor_type.is_local:
            if self.mode in ("function", "basic"):
                # Matches Interpreter._launch_basic's trap.
                p("    raise _TrapError('a LocalAccessor argument "
                  "requires a work-group launch (pass local_size)')")
                self.kinds[id(argument)] = ("scalar", "None")
                return
            var = f"la{index}"
            p(f"    {var} = _args[{index}]")
            p(f"    if {var}.__class__ is not _LocalAccessor: "
              f"raise _Fallback('argument {index} is not a LocalAccessor')")
            p(f"    {var}_sh = tuple(int(_d) for _d in {var}.shape)")
            p(f"    if len({var}_sh) != {dims}: "
              f"raise _Fallback('local accessor rank mismatch')")
            p(f"    {var}_n = math.prod({var}_sh)")
            tile = f"{var}_t"
            self.group_lines.append(f"{tile} = _local_tile({var})")
            self.group_lines.append(
                f"if ({tile}.dtype.kind == 'f') is not {floaty}: "
                f"raise _Fallback('local accessor dtype mismatch')")
            ref = _Ref(tile, f"{var}_n",
                       tuple(f"{var}_sh[{k}]" for k in range(dims)),
                       floaty, byte_size_of(elem))
            self.kinds[id(argument)] = ("stor", ref)
            return
        var = f"a{index}"
        p(f"    {var} = _args[{index}]")
        p(f"    if {var}.__class__ is not _AccessorBinding: "
          f"raise _Fallback('argument {index} is not an accessor binding')")
        p(f"    {var}_f = {var}.storage._flat")
        p(f"    if {var}_f is None or ({var}_f.dtype.kind == 'f') is not "
          f"{floaty}: raise _Fallback('accessor storage mismatch')")
        p(f"    {var}_n = {var}.storage._size")
        p(f"    if {var}.dimensions != {dims}: "
          f"raise _Fallback('accessor rank mismatch')")
        p(f"    {var}_mr = {var}.mem_range")
        p(f"    {var}_off = {var}.offset")
        for k in range(dims):
            p(f"    {var}_m{k} = {var}_mr[{k}]")
            p(f"    {var}_o{k} = {var}_off[{k}]")
        p(f"    {var}_ar = {var}.access_range")
        p(f"    {var}_asz = math.prod({var}_ar)")
        p(f"    {var}_b = {var}.base_linear_offset()")
        ref = _Ref(f"{var}_f", f"{var}_n", None, floaty,
                   byte_size_of(elem))
        self.kinds[id(argument)] = ("acc", _Acc(f"{var}_b", dims, ref))

    def _prologue_memref(self, index, argument, p) -> None:
        memref_type = argument.type
        elem = memref_type.element_type
        from .memory import _numpy_dtype

        if _numpy_dtype(elem) is None:
            raise self.unsup(
                f"memref argument of aggregate element type {elem}")
        rank = memref_type.rank
        floaty = is_float(elem)
        var = f"s{index}"
        p(f"    {var} = _args[{index}]")
        p(f"    if {var}.__class__ is not _MemRefStorage: "
          f"raise _Fallback('argument {index} is not a memref storage')")
        p(f"    {var}_f = {var}._flat")
        p(f"    if {var}_f is None or ({var}_f.dtype.kind == 'f') is not "
          f"{floaty}: raise _Fallback('memref storage mismatch')")
        p(f"    {var}_n = {var}._size")
        p(f"    {var}_sh = {var}.shape")
        p(f"    if len({var}_sh) != {rank}: "
          f"raise _Fallback('memref rank mismatch')")
        ref = _Ref(f"{var}_f", f"{var}_n",
                   tuple(f"{var}_sh[{k}]" for k in range(rank)),
                   floaty, byte_size_of(elem))
        self.kinds[id(argument)] = ("stor", ref)

    # -- kernel drivers ------------------------------------------------------
    def _scan_group_allocs(self) -> None:
        """Hoist top-level work-group-local allocs to group scope (the
        shared-tile contract of ``EvalContext.local_storage_for``)."""
        if self.mode == "basic":
            return  # group is None there: local allocs are per-item
        from .memory import _numpy_dtype

        op = self.fn.body.first_op
        while op is not None:
            if op.name in ("memref.alloc", "memref.alloca") \
                    and op.results[0].type.memory_space == "local":
                memref_type = op.results[0].type
                if not memref_type.has_static_shape():
                    raise self.unsup("local alloc with dynamic shape")
                dtype = _numpy_dtype(memref_type.element_type)
                if dtype is None:
                    raise self.unsup("local alloc of aggregate elements")
                tile = self.fresh("t")
                size = memref_type.num_elements()
                self.group_lines.append(
                    f"{tile} = _np.zeros({size}, dtype=_np."
                    f"{_np.dtype(dtype).name})")
                self.hoisted[id(op)] = _Ref(
                    tile, size, tuple(memref_type.shape),
                    is_float(memref_type.element_type),
                    byte_size_of(memref_type.element_type))
            op = op.next_op()

    def _emit_kernel_body(self) -> None:
        rank = self.item_rank
        g = [f"g{d}" for d in range(rank)] if rank else []
        lo = [f"l{d}" for d in range(rank)] if rank else []
        pr = [f"p{d}" for d in range(rank)] if rank else []
        self.g_vars, self.l_vars, self.p_vars = g, lo, pr
        p = self.pro.append
        if rank:
            p(f"    if len(_GR) != {rank}: "
              f"raise _Fallback('launch rank mismatch')")
            p(f"    {', '.join(f'_GR{d}' for d in range(rank))}"
              f"{',' if rank == 1 else ''} = _GR")
            if self.mode != "basic":
                p(f"    if _LR is None or len(_LR) != {rank}: "
                  f"raise _Fallback('launch rank mismatch')")
                p(f"    {', '.join(f'_LR{d}' for d in range(rank))}"
                  f"{',' if rank == 1 else ''} = _LR")
                p(f"    {', '.join(f'_PR{d}' for d in range(rank))}"
                  f"{',' if rank == 1 else ''} = _PR")
            total = " * ".join(f"_GR{d}" for d in range(rank))
        else:
            total = "math.prod(_GR)"
        self.total_expr = total
        self.line(f"_counters.work_items += {total}")
        if self.mode == "basic":
            self._emit_basic_driver(rank, g)
        elif self.mode == "nd":
            self._emit_nd_driver(rank, g, lo, pr)
        else:
            self._emit_nd_barrier_driver(rank, g, lo, pr)

    def _emit_basic_driver(self, rank, g) -> None:
        if not rank:
            self.line("for _i0 in range(math.prod(_GR)):")
            self.ind += 1
            self._emit_body(budget=True, count=self.total_expr)
            self.ind -= 1
            return
        for d in range(rank):
            self.line(f"for {g[d]} in range(_GR{d}):")
            self.ind += 1
        self._emit_body(budget=True, count=self.total_expr)
        self.ind -= rank

    def _emit_nd_driver(self, rank, g, lo, pr) -> None:
        if not rank:
            raise self.unsup("nd launch of a kernel with no item argument")
        for d in range(rank):
            self.line(f"for {pr[d]} in range(_PR{d}):")
            self.ind += 1
        for text in self.group_lines:
            self.line(text)
        for d in range(rank):
            self.line(f"for {lo[d]} in range(_LR{d}):")
            self.ind += 1
            self.line(f"{g[d]} = {pr[d]} * _LR{d} + {lo[d]}")
        self._emit_body(budget=True, count=self.total_expr)
        self.ind -= 2 * rank

    def _emit_nd_barrier_driver(self, rank, g, lo, pr) -> None:
        if not rank:
            raise self.unsup("nd launch of a kernel with no item argument")
        for d in range(rank):
            self.line(f"for {pr[d]} in range(_PR{d}):")
            self.ind += 1
        for text in self.group_lines:
            self.line(text)
        self.line("def _item(_g, _l):")
        self.ind += 1
        joined_g = ", ".join(g) + ("," if rank == 1 else "")
        joined_l = ", ".join(lo) + ("," if rank == 1 else "")
        self.line(f"{joined_g} = _g")
        self.line(f"{joined_l} = _l")
        self._emit_body(budget=True, count=self.total_expr)
        self.line("if False: yield None")  # force generator when no barrier
        self.ind -= 1
        self.line("_active = []")
        for d in range(rank):
            self.line(f"for {lo[d]} in range(_LR{d}):")
            self.ind += 1
        gid = ", ".join(f"{pr[d]} * _LR{d} + {lo[d]}" for d in range(rank))
        lid = ", ".join(lo)
        comma = "," if rank == 1 else ""
        self.line(f"_active.append(_item(({gid}{comma}), ({lid}{comma})))")
        self.ind -= rank
        # Round-robin to the next barrier, exactly Interpreter._run_group.
        self.line("while _active:")
        self.ind += 1
        self.line("_arrived = []")
        self.line("for _gen in _active:")
        self.ind += 1
        self.line("try:")
        self.line("    next(_gen)")
        self.line("except StopIteration:")
        self.line("    continue")
        self.line("_arrived.append(_gen)")
        self.ind -= 1
        self.line("_active = _arrived")
        self.ind -= 1
        self.ind -= rank

    def _emit_function_body(self) -> None:
        self.pro.insert(0, "    _ret = []")
        self._emit_body(budget=False, count="1")

    # -- block emission ------------------------------------------------------
    def _emit_ops(self, block, stat: _Stat, yield_vars) -> None:
        op = block.first_op
        while op is not None:
            stat.ops += 1
            self.emit_op(op, stat, yield_vars)
            op = op.next_op()

    def emit_block(self, block, arg_kinds, budget: bool,
                   yield_vars: Optional[List[str]] = None,
                   count: Optional[str] = None) -> None:
        """Emit one region block (see :meth:`_counted_block` for
        ``budget`` / ``count``)."""
        if arg_kinds is not None:
            for block_arg, kind in zip(block.arguments, arg_kinds):
                self.kinds[id(block_arg)] = kind
        with self._counted_block(budget, count) as stat:
            start = len(self.out)
            self._emit_ops(block, stat, yield_vars)
            if len(self.out) == start:
                self.line("pass")

    def _emit_body(self, budget: bool, count: str) -> None:
        """The function body: one block, or a CFG in dispatch-loop form."""
        if len(self.fn.regions[0].blocks) == 1:
            self.emit_block(self.fn.body, None, budget, count=count)
        else:
            self._emit_cfg(budget, count)

    def _emit_cfg(self, budget: bool, count: str) -> None:
        """A multi-block body (``cf.br`` / ``cf.cond_br`` CFG)::

            <entry block>                  # ends in ``_bb = <label>``
            while True:
                if _bb == 1:
                    _bc1 += 1              # + step-budget check
                    <block 1>              # br: ``b.. = <args>; _bb = k``
                elif _bb == 2:             # return: ``break``
                    ...

        Block arguments are Python locals written by one *parallel*
        tuple assignment per edge (a back edge may permute them), values
        of dominating blocks are plain locals still in scope, and every
        block but the entry counts its executions at run time, so the
        ``_Stat`` x count flush stays exact whatever path was taken.
        Blocks are laid out in reverse post-order: each block's
        dominators are emitted (their values bound) before it, a loop's
        body comes before its exit, and unreachable blocks are not
        emitted at all.  Lowered loops are rotated (the body block is
        its own latch), so there is no header to place: an innermost
        loop's back edge is a self-edge.
        """
        entry = self.fn.body
        order: List = []                       # post-order, reversed below
        seen = {id(entry)}
        stack = [(entry, iter(self._successors(entry)))]
        while stack:
            block, pending = stack[-1]
            successor = next(pending, None)
            if successor is None:
                order.append(block)
                stack.pop()
            elif id(successor) not in seen:
                seen.add(id(successor))
                stack.append((successor, iter(self._successors(successor))))
        order.reverse()
        for label, block in enumerate(order):
            self.labels[id(block)] = label
            if label:
                for argument in block.arguments:
                    self.kinds[id(argument)] = ("scalar", self.fresh("b"))
        # The entry block dominates every other: its scopes stay open
        # around the dispatch loop.
        with self._counted_block(budget, count) as stat:
            self._emit_ops(entry, stat, None)
            if len(order) == 1:
                return
            self.line("while True:")
            self.ind += 1
            for label, block in enumerate(order[1:], 1):
                self.line(f"{'if' if label == 1 else 'elif'} _bb == "
                          f"{label}:")
                self.ind += 1
                self.emit_block(block, None, budget=True)
                self.ind -= 1
            self.ind -= 1

    def _successors(self, block):
        """Successor blocks, false edge first: the reverse post-order
        then lists a loop's body before its exit."""
        terminator = block.last_op
        if terminator is None or terminator.name not in (
                "cf.br", "cf.cond_br", "func.return", "llvm.return"):
            raise self.unsup("a CFG block without a branch or return "
                             "terminator")
        return reversed(terminator.successors)

    def _emit_edge(self, dest, values) -> None:
        """Transfer control to ``dest``, passing ``values``."""
        label = self.labels.get(id(dest))
        if not label:
            raise self.unsup("a branch outside a CFG body or to its entry "
                             "block")
        moves = [(self.expr(argument), self.expr(value))
                 for argument, value in zip(dest.arguments, values)]
        moves = [(target, source) for target, source in moves
                 if target != source]
        if moves:
            self.line(f"{', '.join(t for t, _ in moves)} = "
                      f"{', '.join(v for _, v in moves)}")
        self.line(f"_bb = {label}")

    # -- single-op emission --------------------------------------------------
    def emit_op(self, op, stat: _Stat, yield_vars) -> None:
        # An ``llvm.*`` value op is compiled as the ``arith.*`` op it
        # mirrors; ``trap_name`` carries the real name into trap texts.
        name = self.alias.get(op.name, op.name)
        trap_name = "" if name == op.name else f", {op.name!r}"
        if name == "arith.constant":
            text = _py_literal(op.value)
            if text is None:
                raise self.unsup(f"constant of value {op.value!r}")
            self.kinds[id(op.results[0])] = ("const", text)
            return
        if name in self.BIN_INT or name in ("arith.minsi", "arith.maxsi"):
            a, b = self.expr(op.operands[0]), self.expr(op.operands[1])
            if name in self.BIN_INT:
                body = f"{a} {self.BIN_INT[name]} {b}"
            else:
                fun = "min" if name == "arith.minsi" else "max"
                body = f"{fun}({a}, {b})"
            if getattr(op.results[0].type, "width", 64) == 1:
                body = f"bool({body})"
            self._assign(op.results[0], body)
            return
        if name in self.BIN_FLOAT:
            a, b = self.expr(op.operands[0]), self.expr(op.operands[1])
            self._assign(op.results[0],
                         f"{a} {self.BIN_FLOAT[name]} {b}")
            return
        if name in self.BIN_HELPER:
            a, b = self.expr(op.operands[0]), self.expr(op.operands[1])
            helper = self.BIN_HELPER[name]
            self._assign(op.results[0], f"{helper}({a}, {b}"
                         f"{trap_name if helper in self.TRAPPING else ''})")
            return
        if name in ("arith.shli", "arith.shrsi"):
            width = getattr(op.results[0].type, "width", 64)
            a, b = self.expr(op.operands[0]), self.expr(op.operands[1])
            helper = "_shli" if name == "arith.shli" else "_shrsi"
            self._assign(op.results[0],
                         f"{helper}({a}, {b}, {width}{trap_name})")
            return
        if name == "arith.cmpi":
            predicate = op.predicate
            sym = self.CMP_INT.get(predicate)
            if sym is None:
                raise self.unsup(f"cmpi predicate {predicate!r}")
            a, b = self.expr(op.operands[0]), self.expr(op.operands[1])
            self._assign(op.results[0], f"{a} {sym} {b}")
            return
        if name == "arith.cmpf":
            predicate = op.predicate
            a, b = self.expr(op.operands[0]), self.expr(op.operands[1])
            sym = self.CMP_FLOAT_ORDERED.get(predicate)
            if sym is not None:
                self._assign(op.results[0], f"{a} {sym} {b}")
            else:
                from ..dialects.arith import _FLOAT_PREDICATES

                if predicate not in _FLOAT_PREDICATES:
                    raise self.unsup(f"cmpf predicate {predicate!r}")
                self._assign(op.results[0],
                             f"bool(_FCMP[{predicate!r}]({a}, {b}))")
            return
        if name == "arith.select":
            c = self.expr(op.operands[0])
            t = self.expr(op.operands[1])
            f = self.expr(op.operands[2])
            self._assign(op.results[0], f"({t} if {c} else {f})")
            return
        if name in ("arith.index_cast", "arith.extsi"):
            value = op.operands[0]
            if _scalar_int_type(value.type) \
                    and getattr(value.type, "width", 64) != 1:
                # Already a Python int: aliasing skips a no-op copy.
                self.kinds[id(op.results[0])] = self.kind_of(value)
            else:
                self._assign(op.results[0], f"int({self.expr(value)})")
            return
        if name == "arith.trunci":
            width = op.results[0].type.width
            mask = (1 << width) - 1
            body = f"({self.expr(op.operands[0])}) & {mask}"
            if width == 1:
                body = f"bool({body})"
            self._assign(op.results[0], body)
            return
        if name == "arith.sitofp":
            self._assign(op.results[0],
                         f"float({self.expr(op.operands[0])})")
            return
        if name == "arith.fptosi":
            self._assign(op.results[0],
                         f"_fptosi({self.expr(op.operands[0])}{trap_name})")
            return
        if name in ("arith.extf", "arith.truncf"):
            value = op.operands[0]
            kind = self.kind_of(value)
            if kind[0] in ("const", "scalar"):
                self.kinds[id(op.results[0])] = kind
            else:
                raise self.unsup(f"'{name}' of a non-scalar value")
            return
        if name == "arith.negf":
            self._assign(op.results[0],
                         f"-float({self.expr(op.operands[0])})")
            return
        if name in ("scf.yield", "affine.yield"):
            if yield_vars is not None and op.operands:
                exprs = [self.expr(v) for v in op.operands]
                self.line(f"{', '.join(yield_vars)} = {', '.join(exprs)}")
            return
        if name in ("func.return", "llvm.return"):
            if self.mode == "function":
                exprs = [self.expr(v) for v in op.operands]
                self.line(f"_ret = [{', '.join(exprs)}]")
            elif op.operands:
                raise self.unsup("kernel returning values")
            if self.labels.get(id(op.parent)):
                self.line("break")  # leave the CFG dispatch loop
            return
        if name == "cf.br":
            self._emit_edge(op.dest, op.operands)
            return
        if name == "cf.cond_br":
            self.line(f"if {self.expr(op.condition)}:")
            self.ind += 1
            self._emit_edge(op.true_dest, op.true_operands)
            self.ind -= 1
            self.line("else:")
            self.ind += 1
            self._emit_edge(op.false_dest, op.false_operands)
            self.ind -= 1
            return
        if name == "scf.if":
            self._emit_if(op)
            return
        if name in ("scf.for", "affine.for"):
            self._emit_for(op, affine=(name == "affine.for"))
            return
        if name == "scf.while":
            self._emit_while(op)
            return
        if name == "scf.condition":
            if not self.cond_sink:
                raise self.unsup("'scf.condition' outside an scf.while")
            res_vars = self.cond_sink[-1]
            if res_vars:
                exprs = [self.expr(v) for v in op.operands[1:]]
                self.line(f"{', '.join(res_vars)} = {', '.join(exprs)}")
            self.line(f"if not {self.expr(op.operands[0])}: break")
            return
        if name == "affine.apply":
            coefficients = op.coefficients
            if len(coefficients) != len(op.operands):
                self.line("raise _TrapError('affine.apply coefficient / "
                          "operand count mismatch')")
                self._assign(op.results[0], "0")
                return
            terms = [str(op.get_int_attr("constant", 0))]
            for coefficient, operand in zip(coefficients, op.operands):
                terms.append(f"({coefficient}) * ({self.expr(operand)})")
            self._assign(op.results[0], " + ".join(terms))
            return
        if name == "affine.min":
            if not op.operands:
                raise self.unsup("affine.min with no operands")
            exprs = [self.expr(v) for v in op.operands]
            body = exprs[0] if len(exprs) == 1 else \
                f"min({', '.join(exprs)})"
            self._assign(op.results[0], body)
            return
        if name in ("memref.alloc", "memref.alloca"):
            self._emit_alloc(op)
            return
        if name == "memref.dealloc":
            return
        if name in ("memref.cast", "builtin.unrealized_conversion_cast"):
            # The pointer bridge of convert-memref-to-llvm passes the
            # runtime value through: the pointer *is* the storage.
            self.kinds[id(op.results[0])] = self.kind_of(op.operands[0])
            return
        if name == "memref.dim":
            self._emit_dim(op)
            return
        if name in ("memref.load", "affine.load"):
            self._emit_load(op, stat, self._target_position(
                op.operands[0], list(op.operands[1:])))
            return
        if name in ("memref.store", "affine.store"):
            self._emit_store(op, stat, self._target_position(
                op.operands[1], list(op.operands[2:])))
            return
        if name == "llvm.alloca":
            self._emit_llvm_alloca(op)
            return
        if name == "llvm.getelementptr":
            self._emit_gep(op)
            return
        if name == "llvm.load":
            self._emit_load(op, stat, self._flat_position(
                self._pointer_view(op.operands[0]), "0"))
            return
        if name == "llvm.store":
            self._emit_store(op, stat, self._flat_position(
                self._pointer_view(op.operands[1]), "0"))
            return
        if name in self.math_funcs:
            args = ", ".join(self.expr(v) for v in op.operands)
            var = self.fresh()
            self.line(f"try: {var} = float({_math_symbol(name)}({args}))")
            self.line(f"except _MathErrors as _e: raise _domain_error("
                      f"{name!r}, _e) from None")
            self.kinds[id(op.results[0])] = ("scalar", var)
            return
        if name == "math.fma":
            a, b, c = (self.expr(v) for v in op.operands)
            self._assign(op.results[0], f"{a} * {b} + {c}")
            return
        if name == "sycl.constructor":
            self._emit_constructor(op)
            return
        if name in ("sycl.id.get", "sycl.range.get"):
            what = "the id" if name == "sycl.id.get" else "the range"
            self._emit_component_get(op, what)
            return
        if name == "sycl.range.size":
            self._emit_range_size(op)
            return
        if name in ("sycl.item.get_id", "sycl.nd_item.get_global_id",
                    "sycl.global_id"):
            self._emit_position(op, self.g_vars, "the global id",
                                require_local=False)
            return
        if name in ("sycl.item.get_linear_id",
                    "sycl.nd_item.get_global_linear_id"):
            self._emit_linear(op, self.g_vars, "_GR", require_local=False)
            return
        if name in ("sycl.nd_item.get_local_id", "sycl.local_id"):
            self._emit_position(op, self.l_vars, "the local id",
                                require_local=True)
            return
        if name == "sycl.nd_item.get_local_linear_id":
            self._emit_linear(op, self.l_vars, "_LR", require_local=True)
            return
        if name in ("sycl.nd_item.get_group_id", "sycl.group.get_group_id"):
            self._emit_position(op, self.p_vars, "the group id",
                                require_local=True)
            return
        if name in ("sycl.item.get_range", "sycl.nd_item.get_global_range"):
            self._emit_range_component(op, "_GR", "the global range",
                                       require_local=False)
            return
        if name in ("sycl.nd_item.get_local_range",
                    "sycl.group.get_local_range"):
            self._emit_range_component(op, "_LR", "the local range",
                                       require_local=True)
            return
        if name in ("sycl.nd_item.get_group_range",
                    "sycl.group.get_group_range"):
            self._emit_range_component(op, "_PR", "the group range",
                                       require_local=True)
            return
        if name == "sycl.nd_item.get_group":
            self._item_operand(op)
            self._check_local()
            self.kinds[id(op.results[0])] = ("item",)
            return
        if name == "sycl.accessor.subscript":
            self._emit_subscript(op)
            return
        if name == "sycl.accessor.get_pointer":
            acc = self._acc_of(op.operands[0])
            self.kinds[id(op.results[0])] = ("view", acc.ref, acc.base,
                                             False)
            return
        if name in ("sycl.accessor.get_range", "sycl.accessor.get_mem_range",
                    "sycl.accessor.get_offset"):
            self._emit_accessor_component(op)
            return
        if name == "sycl.accessor.size":
            acc = self._acc_of(op.operands[0])
            var = acc.ref.flat[:-2]  # "a<i>_f" -> "a<i>"
            self.kinds[id(op.results[0])] = ("scalar", f"{var}_asz")
            return
        if name == "sycl.group_barrier":
            self._emit_barrier(op, stat)
            return
        if name in ("sycl.host.constructor", "sycl.host.schedule_kernel",
                    "sycl.host.submit"):
            self.line(f"raise _TrapError(\"host-side operation '{name}' "
                      f"is not executable by the device interpreter (drive "
                      f"the host program through the runtime instead)\")")
            for result in op.results:
                self.kinds[id(result)] = ("scalar", "None")
            return
        raise self.unsup(f"operation '{name}'")

    def _assign(self, result, body: str) -> None:
        var = self.fresh()
        self.line(f"{var} = {body}")
        self.kinds[id(result)] = ("scalar", var)

    # -- structured control flow ---------------------------------------------
    def _emit_if(self, op) -> None:
        cond = self.expr(op.operands[0])
        res_vars = [self.fresh() for _ in op.results]
        self.line(f"if {cond}:")
        self.ind += 1
        self.emit_block(op.then_block, None, budget=False,
                        yield_vars=res_vars)
        self.ind -= 1
        else_block = op.else_block
        if else_block is not None:
            self.line("else:")
            self.ind += 1
            self.emit_block(else_block, None, budget=False,
                            yield_vars=res_vars)
            self.ind -= 1
        elif res_vars:
            self.line("else:")
            self.ind += 1
            self.line("raise _TrapError('scf.if with results but no else "
                      "region')")
            self.ind -= 1
        for result, var in zip(op.results, res_vars):
            self.kinds[id(result)] = ("scalar", var)

    def _const_int(self, value) -> Optional[int]:
        kind = self.kind_of(value)
        if kind[0] != "const":
            return None
        try:
            return int(kind[1].strip("()"))
        except ValueError:
            return None

    def _emit_for(self, op, affine: bool) -> None:
        lower = self.expr(op.operands[0])
        upper = self.expr(op.operands[1])
        carried_init = list(op.operands[2 if affine else 3:])
        step_expr = "" if affine else self.expr(op.operands[2])
        step_c: Optional[int] = op.step if affine \
            else self._const_int(op.operands[2])
        # A constant step is judged here; only another is checked per run.
        if step_c is None:
            self.line(f"if {step_expr} <= 0: raise _TrapError("
                      f"'scf.for with non-positive step ' + "
                      f"str({step_expr}))")
            step_text = f", {step_expr}"
        elif step_c <= 0:
            self.line(f"raise _TrapError('{op.name} with non-positive "
                      f"step {step_c}')")
            for result in op.results:
                self.kinds[id(result)] = ("scalar", "None")
            return
        else:
            step_text = "" if step_c == 1 else f", {step_c}"
        lo_c = self._const_int(op.operands[0])
        up_c = self._const_int(op.operands[1])
        # A loop with constant bounds nested in statically counted
        # blocks is itself statically counted: no per-iteration
        # bookkeeping in the generated code.
        parent = self.count_stack[-1]
        count = None
        if parent is not None and lo_c is not None and up_c is not None \
                and step_c is not None and step_c > 0:
            trips = max(0, -((lo_c - up_c) // step_c))
            count = f"({parent}) * {trips}"
        c_vars = [self.fresh("c") for _ in carried_init]
        if c_vars:
            inits = [self.expr(v) for v in carried_init]
            self.line(f"{', '.join(c_vars)} = {', '.join(inits)}")
        iv = self.fresh("i")
        self.line(f"for {iv} in range({lower}, {upper}{step_text}):")
        self.ind += 1
        arg_kinds = [("scalar", iv)] + [("scalar", c) for c in c_vars]
        self.emit_block(op.body, arg_kinds, budget=True, yield_vars=c_vars,
                        count=count)
        self.ind -= 1
        for result, var in zip(op.results, c_vars):
            self.kinds[id(result)] = ("scalar", var)

    def _emit_while(self, op) -> None:
        """``scf.while`` compiles to ``while True`` with the condition
        check in the middle::

            w.. = <inits>
            while True:
                <before block, args = w..>
                r.. = <forwarded>            # from scf.condition
                if not <cond>: break         #
                <after block, args = r..>
                w.. = <yielded>              # from scf.yield

        The before block's trip count is data dependent, so it carries a
        run-time ``_bc`` counter with the step-budget check — that
        bounds runaway loops exactly like the interpreter's budget.
        """
        w_vars = [self.fresh("w") for _ in op.operands]
        if w_vars:
            inits = [self.expr(v) for v in op.operands]
            self.line(f"{', '.join(w_vars)} = {', '.join(inits)}")
        res_vars = [self.fresh() for _ in op.results]
        self.line("while True:")
        self.ind += 1
        self.cond_sink.append(res_vars)
        self.emit_block(op.before_block,
                        [("scalar", w) for w in w_vars], budget=True)
        self.cond_sink.pop()
        self.emit_block(op.after_block,
                        [("scalar", r) for r in res_vars], budget=False,
                        yield_vars=w_vars)
        self.ind -= 1
        for result, var in zip(op.results, res_vars):
            self.kinds[id(result)] = ("scalar", var)

    # -- memory --------------------------------------------------------------
    def _emit_alloc(self, op) -> None:
        from .memory import _numpy_dtype

        hoisted = self.hoisted.get(id(op))
        if hoisted is not None:
            self.kinds[id(op.results[0])] = ("stor", hoisted)
            return
        memref_type = op.results[0].type
        if memref_type.memory_space == "local" and self.mode not in (
                "basic", "function"):
            raise self.unsup("local alloc outside the kernel entry block")
        dtype = _numpy_dtype(memref_type.element_type)
        if dtype is None:
            # Aggregate elements (!sycl_id_N): a one-slot cell written
            # by sycl.constructor.  Virtual — the id components flow
            # through the emitter symbolically, no tuple materializes.
            if memref_type.num_elements() not in (1, None) \
                    and memref_type.rank != 0:
                raise self.unsup("multi-element aggregate alloc")
            cell = self.fresh("cell")
            self.kinds[id(op.results[0])] = ("cell", cell)
            return
        if not memref_type.has_static_shape():
            raise self.unsup("alloc with dynamic shape")
        self._bind_zeros(op.results[0], memref_type.num_elements(),
                         tuple(memref_type.shape), memref_type.element_type)

    def _bind_zeros(self, result, size, shape, element) -> None:
        """Bind ``result`` to a fresh zero-filled array of ``size``
        (an int or an expression) elements of scalar type ``element``."""
        from .memory import _numpy_dtype

        var = self.fresh("m")
        self.line(f"{var} = _np.zeros({size}, dtype=_np."
                  f"{_np.dtype(_numpy_dtype(element)).name})")
        self.kinds[id(result)] = ("stor", _Ref(
            var, size, shape, is_float(element), byte_size_of(element)))

    def _emit_dim(self, op) -> None:
        kind = self.kind_of(op.operands[0])
        dim_kind = self.kind_of(op.operands[1])
        if kind[0] != "stor" or kind[1].shape is None:
            self.line("raise _TrapError('memref.dim out of range')")
            self._assign(op.results[0], "0")
            return
        shape = kind[1].shape
        if dim_kind[0] != "const":
            dim = self.fresh()
            self.line(f"{dim} = int({self.expr(op.operands[1])})")
            self.line(f"if not 0 <= {dim} < {len(shape)}: raise _TrapError("
                      f"'memref.dim ' + str({dim}) + ' out of range')")
            extents = "".join(f"{extent}, " for extent in shape)
            self._assign(op.results[0], f"int(({extents})[{dim}])")
            return
        dim = int(dim_kind[1])
        if not 0 <= dim < len(shape):
            self.line(f"raise _TrapError('memref.dim {dim} out of range')")
            self._assign(op.results[0], "0")
            return
        extent = shape[dim]
        self.kinds[id(op.results[0])] = ("scalar", f"int({extent})"
                                         if isinstance(extent, str)
                                         else str(extent))

    def _target_position(self, target, index_values):
        """(position expr, check lines, ref) for a load/store target."""
        kind = self.kind_of(target)
        if kind[0] == "stor":
            ref = kind[1]
            shape = ref.shape
            if shape is None or len(index_values) != len(shape):
                raise self.unsup("rank-mismatched memref access")
            if not shape:
                return "0", [], ref
            idx = [self.expr(v) for v in index_values]
            checks = " and ".join(
                f"0 <= {i} < {e}" for i, e in zip(idx, shape))
            position = idx[0]
            for i, extent in zip(idx[1:], shape[1:]):
                position = f"({position}) * {extent} + {i}"
            if len(idx) > 1:
                var = self.fresh("q")
                lines = [f"if not ({checks}): raise _TrapError('memref "
                         f"index out of bounds')",
                         f"{var} = {position}"]
                return var, lines, ref
            return position, [f"if not ({checks}): raise _TrapError("
                              f"'memref index out of bounds')"], ref
        if kind[0] == "view":
            if len(index_values) > 1:
                raise self.unsup("multi-index access through a view")
            offset = self.expr(index_values[0]) if index_values else "0"
            return self._flat_position(kind, offset)
        raise self.unsup(f"load/store through a {kind[0]} value")

    def _flat_position(self, view, offset: str):
        """(position expr, check lines, ref) of element ``offset`` of a
        ``("view", ref, base, checked)`` kind."""
        _, ref, base, checked = view
        lines = []
        if offset == "0":
            if checked:
                return base, lines, ref
            position = base
        else:
            position = f"{base} + {offset}"
        if not (position.isidentifier() or position.isdigit()):
            var = self.fresh("q")
            lines.append(f"{var} = {position}")
            position = var
        lines.append(f"if not 0 <= {position} < {ref.size}: raise "
                     f"_flat_trap({position}, {ref.size})")
        return position, lines, ref

    def _pointer_view(self, value):
        """The flat view an ``!llvm.ptr`` value addresses: what
        ``dialects.llvm._pointer_window`` resolves at run time, resolved
        at compile time (no ``MemRefView`` object per access)."""
        kind = self.kind_of(value)
        if kind[0] == "view":
            return kind
        if kind[0] == "stor":
            return ("view", kind[1], "0", False)
        if kind[0] == "acc":
            return ("view", kind[1].ref, kind[1].base, False)
        raise self.unsup(f"pointer access through a {kind[0]} value")

    def _emit_gep(self, op) -> None:
        _, ref, base, _ = self._pointer_view(op.operands[0])
        terms = [] if base == "0" else [base]
        terms += [self.expr(v) for v in op.operands[1:]]
        static = sum(op.static_offsets)
        if static or not terms:
            terms.append(str(static))
        position = " + ".join(terms)
        if len(terms) > 1:
            var = self.fresh("q")
            self.line(f"{var} = {position}")
            position = var
        self.kinds[id(op.results[0])] = ("view", ref, position, False)

    def _emit_llvm_alloca(self, op) -> None:
        from ..dialects.llvm import _pointer_element_type
        from .memory import _numpy_dtype

        element = _pointer_element_type(op.results[0].type)
        if element is None or _numpy_dtype(element) is None:
            raise self.unsup("llvm.alloca of an opaque host object")
        size = self.expr(op.operands[0])
        constant = self._const_int(op.operands[0])
        if constant is None:
            self.line(f"if {size} < 0: raise _TrapError(\"'llvm.alloca' "
                      f"with negative size \" + str({size}))")
        elif constant < 0:
            raise self.unsup("llvm.alloca with a negative constant size")
        self._bind_zeros(op.results[0], size, (size,), element)

    def _emit_load(self, op, stat: _Stat, located) -> None:
        """``located`` is the element's (position, check lines, ref)."""
        position, lines, ref = located
        stat.loads += 1
        stat.bytes_read += ref.elem_bytes
        for text in lines:
            self.line(text)
        conv = "float" if ref.is_float else "int"
        self._assign(op.results[0], f"{conv}({ref.flat}[{position}])")

    def _emit_store(self, op, stat: _Stat, located) -> None:
        position, lines, ref = located
        stat.stores += 1
        stat.bytes_written += ref.elem_bytes
        for text in lines:
            self.line(text)
        self.line(f"{ref.flat}[{position}] = {self.expr(op.operands[0])}")

    # -- SYCL ids and accessors ----------------------------------------------
    def _emit_constructor(self, op) -> None:
        kind = self.kind_of(op.operands[0])
        if kind[0] != "cell":
            raise self.unsup("sycl.constructor into a non-cell destination")
        cell = kind[1]
        comps = []
        for value in op.operands[1:]:
            if _scalar_int_type(value.type):
                comps.append(self.expr(value))
            else:
                comps.append(f"int({self.expr(value)})")
        self.construct(cell, comps)

    def _cell_is_constructed(self, cell: str) -> bool:
        return any(cell in scope for scope in self.scopes)

    def _id_components(self, value) -> List[str]:
        """Component expressions of an evaluated id/range value."""
        kind = self.kind_of(value)
        if kind[0] in ("const", "scalar"):
            return [kind[1]]
        if kind[0] == "cell":
            cell = kind[1]
            if not self._cell_is_constructed(cell):
                # The interpreter would trap ("read of an unconstructed
                # SYCL id") or see a construction this emitter cannot
                # prove dominates the read; both are fallback cases.
                raise self.unsup(
                    "id read without a dominating sycl.constructor")
            return self.cell_comps[cell]
        raise self.unsup(f"id read of a {kind[0]} value")

    def _emit_component_get(self, op, what: str) -> None:
        comps = self._id_components(op.operands[0])
        rank = len(comps)
        dim = self.const_dim(op)
        if isinstance(dim, tuple):  # dynamic dimension operand
            source = f"({', '.join(comps)}{',' if rank == 1 else ''})"
            self._assign(op.results[0], f"_at({source}, {dim[1]}, "
                                        f"{what!r})")
            return
        if not 0 <= dim < rank:
            self.line(f"raise _TrapError('dimension {dim} out of range "
                      f"for {what} of rank {rank}')")
            self._assign(op.results[0], "0")
            return
        self.kinds[id(op.results[0])] = ("scalar", comps[dim])

    def _emit_range_size(self, op) -> None:
        comps = self._id_components(op.operands[0])
        self._assign(op.results[0], " * ".join(f"({c})" for c in comps))

    def _check_local(self) -> bool:
        """Emit the basic-launch trap for work-group queries; returns
        True when local/group positions exist."""
        if self.mode == "basic":
            self.line("raise _TrapError('work-group query on a kernel "
                      "launched without a local range')")
            return False
        return True

    def _item_operand(self, op) -> None:
        if self.kind_of(op.operands[0])[0] != "item":
            raise self.unsup("work-item query on a non-item value")

    def _emit_position(self, op, vars_, what: str,
                       require_local: bool) -> None:
        self._item_operand(op)
        if require_local and not self._check_local():
            self.kinds[id(op.results[0])] = ("scalar", "0")
            return
        dim = self.const_dim(op)
        rank = len(vars_)
        if isinstance(dim, tuple):
            comma = "," if rank == 1 else ""
            self._assign(op.results[0],
                         f"_at(({', '.join(vars_)}{comma}), {dim[1]}, "
                         f"{what!r})")
            return
        if not 0 <= dim < rank:
            self.line(f"raise _TrapError('dimension {dim} out of range for "
                      f"{what} of rank {rank}')")
            self._assign(op.results[0], "0")
            return
        self.kinds[id(op.results[0])] = ("scalar", vars_[dim])

    def _emit_linear(self, op, vars_, range_prefix: str,
                     require_local: bool) -> None:
        self._item_operand(op)
        if require_local and not self._check_local():
            self.kinds[id(op.results[0])] = ("scalar", "0")
            return
        rank = len(vars_)
        position = vars_[0] if rank else "0"
        for d in range(1, rank):
            position = f"({position}) * {range_prefix}{d} + {vars_[d]}"
        self._assign(op.results[0], position)

    def _emit_range_component(self, op, prefix: str, what: str,
                              require_local: bool) -> None:
        self._item_operand(op)
        if require_local and not self._check_local():
            self.kinds[id(op.results[0])] = ("scalar", "0")
            return
        rank = self.item_rank or 0
        dim = self.const_dim(op)
        if isinstance(dim, tuple):
            self._assign(op.results[0],
                         f"_at({prefix}, {dim[1]}, {what!r})")
            return
        if not 0 <= dim < rank:
            self.line(f"raise _TrapError('dimension {dim} out of range for "
                      f"{what} of rank {rank}')")
            self._assign(op.results[0], "0")
            return
        self.kinds[id(op.results[0])] = ("scalar", f"{prefix}{dim}")

    def _acc_of(self, value) -> _Acc:
        kind = self.kind_of(value)
        if kind[0] != "acc":
            raise self.unsup(
                f"accessor operation on a {kind[0]} value")
        return kind[1]

    def _emit_subscript(self, op) -> None:
        acc = self._acc_of(op.operands[0])
        var = acc.ref.flat[:-2]  # "a<i>_f" -> "a<i>"
        comps = self._id_components(op.operands[1])
        if len(comps) != acc.dims:
            self.line(f"raise _TrapError('accessor expects {acc.dims} "
                      f"indices, got {len(comps)}')")
            self.kinds[id(op.results[0])] = ("view", acc.ref, "0", False)
            return
        # Scoped CSE: an identical subscript of the same accessor in the
        # same (or an enclosing) block addresses the same element —
        # ``load C[i,j] ... store C[i,j]`` computes its position once.
        memo_key = (var, tuple(comps))
        for memo in self.memo_stack:
            hit = memo.get(memo_key)
            if hit is not None:
                self.kinds[id(op.results[0])] = hit
                return
        if acc.dims == 1:
            position = f"({comps[0]} + {var}_o0)"
            self.line(f"if not (0 <= {position} < {var}_m0): raise "
                      f"_TrapError('accessor index out of bounds for "
                      f"buffer of shape ' + repr({var}_mr))")
        else:
            abs_vars = []
            for k, comp in enumerate(comps):
                abs_var = self.fresh("q")
                self.line(f"{abs_var} = {comp} + {var}_o{k}")
                abs_vars.append(abs_var)
            checks = " and ".join(
                f"0 <= {a} < {var}_m{k}" for k, a in enumerate(abs_vars))
            self.line(f"if not ({checks}): raise _TrapError('accessor "
                      f"index out of bounds for buffer of shape ' + "
                      f"repr({var}_mr))")
            position = abs_vars[0]
            for k in range(1, acc.dims):
                position = f"({position}) * {var}_m{k} + {abs_vars[k]}"
            pos_var = self.fresh("q")
            self.line(f"{pos_var} = {position}")
            position = pos_var
        view = ("view", acc.ref, position, True)
        self.memo_stack[-1][memo_key] = view
        self.kinds[id(op.results[0])] = view

    def _emit_accessor_component(self, op) -> None:
        acc = self._acc_of(op.operands[0])
        var = acc.ref.flat[:-2]
        source, what = {
            "sycl.accessor.get_range": (f"{var}_ar", "the accessor range"),
            "sycl.accessor.get_mem_range": (f"{var}_mr",
                                            "the accessor mem range"),
            "sycl.accessor.get_offset": (f"{var}_off",
                                         "the accessor offset"),
        }[op.name]
        dim = self.const_dim(op)
        if isinstance(dim, tuple):
            self._assign(op.results[0],
                         f"_at({source}, {dim[1]}, {what!r})")
            return
        if not 0 <= dim < acc.dims:
            self.line(f"raise _TrapError('dimension {dim} out of range for "
                      f"{what} of rank {acc.dims}')")
            self._assign(op.results[0], "0")
            return
        if op.name == "sycl.accessor.get_mem_range":
            self.kinds[id(op.results[0])] = ("scalar", f"{var}_m{dim}")
        elif op.name == "sycl.accessor.get_offset":
            self.kinds[id(op.results[0])] = ("scalar", f"{var}_o{dim}")
        else:
            self._assign(op.results[0], f"{source}[{dim}]")

    def _emit_barrier(self, op, stat: _Stat) -> None:
        if self.mode in ("basic", "function"):
            self.line("raise _TrapError('sycl.group_barrier outside "
                      "work-group execution (launch the kernel with a "
                      "local range)')")
            return
        if not self.uses_generator:
            raise self.unsup(
                "barrier outside the nd-barrier compilation mode")
        stat.barriers += 1
        self.line("yield _BARRIER")


def compile_executable(function, mode: str,
                       cache: Optional[ExecutableCache] = None):
    """Compile ``function`` for ``mode``, through ``cache`` when given
    (see :func:`~repro.interp.jit_runtime.compile_cached`)."""
    return compile_cached(function, mode, cache, "jit",
                          lambda: _Emitter(function, mode).emit(),
                          _jit_namespace)


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------

def _contains_barrier(function) -> bool:
    """Whether ``function``'s body holds a group barrier, memoized on it
    until it is edited (the walk is per-launch overhead otherwise)."""
    memo = op_memo(function)
    cached = memo.get("has-barrier")
    if cached is None:
        cached = memo["has-barrier"] = any(
            op.name == "sycl.group_barrier" for op in function.walk())
    return cached


@register_executor("jit")
class JITBackend(Backend):
    """Compile-to-Python tier: one generated function per kernel."""

    NAME = "jit"

    def _compile(self, engine, function, mode: str):
        if _np is None:
            raise TierFallback("jit tier requires NumPy")
        return compile_for_engine(engine, "jit", compile_executable,
                                  function, mode)

    def _pre_exec_faults(self, function) -> None:
        try:
            injected = fault_point("jit.exec", key=function.sym_name)
        except TransientFault as error:
            raise TierFallback(
                f"injected jit execution fault: {error}") from error
        if injected == "corrupt":
            raise TierFallback("injected corrupt jit execution state")

    def launch(self, engine, function, values, global_size,
               local_size=None, interpreter=None):
        from .interpreter import Interpreter, LaunchResult
        from .memory import ExecutionCounters

        interp = interpreter or Interpreter(engine.module,
                                            max_steps=engine.max_steps)
        global_range, local_range, group_range = launch_ranges(
            global_size, local_size)
        if local_range is None:
            mode = "basic"
        else:
            mode = "nd-barrier" if _contains_barrier(function) else "nd"
        executable = self._compile(engine, function, mode)
        plan = interp._bind_arguments(function, values)
        run_args = [None if entry[0] == "item" else entry[1]
                    for entry in plan]
        self._pre_exec_faults(function)
        counters = ExecutionCounters()
        run_executable(executable, function, run_args, global_range,
                       local_range, group_range, counters, engine.max_steps)
        # Mirror Interpreter.launch: cumulative interpreter counters
        # advance too, the result reports this launch's delta.
        _merge_counters(interp.counters, counters)
        return LaunchResult(function.sym_name, math.prod(global_range),
                            counters)

    def call(self, engine, function, values, interpreter=None):
        from .memory import ExecutionCounters

        executable = self._compile(engine, function, "function")
        self._pre_exec_faults(function)
        counters = ExecutionCounters()
        results = run_executable(executable, function, list(values), None,
                                 None, None, counters, engine.max_steps)
        if interpreter is not None:
            _merge_counters(interpreter.counters, counters)
        return list(results), counters
