"""Lowering of SYCL accessor semantics to raw pointer arithmetic.

LLVM-IR based SYCL compilers (DPC++, AdaptiveCpp's SSCP flow) lower accessor
accesses to raw pointer arithmetic long before the optimization pipeline
runs; the structured, SYCL-level information — which accessor an access
belongs to, the access matrix, accessor non-overlap facts — is lost
(paper, Sections I and II-B).

Where this pass sits is the difference between the compiler models: the
baseline pipelines run it *first* and optimize the same kernels without
SYCL semantics, ``sycl-mlir`` runs it *last*, after the SYCL-aware passes,
so that all of them are counted in the same lowered form (see
``docs/lowering.md``):

* ``sycl.accessor.subscript`` + the ``sycl.constructor`` building its index
  are replaced by explicit row-major address arithmetic on the raw data
  pointer (``sycl.accessor.get_pointer``), using ``sycl.accessor.get_mem_range``
  for the strides;
* loads/stores through the subscript result become plain ``memref.load`` /
  ``memref.store`` on the raw pointer;
* the id object a lowered subscript orphans goes with it.  Nothing else is
  touched: a function without a subscript is left exactly as it was.

The work-item queries remain (they model SPIR-V builtins and are executable
by the simulator); what is lost is exactly what the paper says is lost.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..ir import MemRefType, Operation, Value, index, location_of
from ..dialects import affine as affine_dialect
from ..dialects import arith
from ..dialects import memref as memref_dialect
from ..dialects.func import FuncOp
from ..dialects.sycl import (
    SYCLAccessorGetMemRangeOp,
    SYCLAccessorGetPointerOp,
    SYCLAccessorSubscriptOp,
    accessor_type_of,
    reaching_constructor,
)
from .canonicalize import erase_orphaned_ops
from .pass_manager import CompileReport, FunctionPass, register_pass


@register_pass
class LowerAccessorSubscripts(FunctionPass):
    """Expands accessor subscripts into raw pointer arithmetic."""

    NAME = "lower-sycl-accessors"

    STATISTICS = (
        ("subscripts_lowered", "accessor subscripts expanded to pointers"),
    )

    def run_on_function(self, function: FuncOp, report: CompileReport) -> None:
        subscripts = [op for op in function.walk()
                      if isinstance(op, SYCLAccessorSubscriptOp)]
        if not subscripts:
            return
        #: Raw pointer per accessor value, so repeated subscripts share it.
        pointers: Dict[int, Value] = {}
        #: Definers of what the rewritten ops used: the id objects and the
        #: old accesses' index operands, dead once nothing else uses them.
        orphans: List[Optional[Operation]] = []
        for subscript in subscripts:
            if subscript.parent is None:
                continue
            index_components = subscript_components(subscript)
            if index_components is None:
                where = location_of(subscript).describe()
                report.remark(
                    f"{self.NAME}: no-dominating-constructor: the id of the "
                    f"subscript at {where} in {function.sym_name} is not "
                    f"built by one constructor that reaches it")
                continue
            if self._lower_subscript(subscript, index_components, pointers,
                                     orphans):
                report.add_statistic(self.NAME, "subscripts_lowered")
        erase_orphaned_ops(orphans)

    # ------------------------------------------------------------------
    def _lower_subscript(self, subscript: SYCLAccessorSubscriptOp,
                         index_components: List[Value],
                         pointers: Dict[int, Value],
                         orphans: List[Optional[Operation]]) -> bool:
        accessor = subscript.accessor
        accessor_type = accessor_type_of(accessor)
        if accessor_type is None:
            return False

        block = subscript.parent
        insert_before = subscript

        def emit(op: Operation) -> Operation:
            block.insert_before(insert_before, op)
            return op

        # Row-major linearization: offset = ((i0 * d1 + i1) * d2 + i2) ...
        linear: Optional[Value] = None
        rank = accessor_type.dimensions
        for dim, component in enumerate(index_components):
            if linear is None:
                linear = component
            else:
                extent = emit(SYCLAccessorGetMemRangeOp.build(
                    accessor, emit(arith.ConstantOp.build(dim, index())).result))
                scaled = emit(arith.MulIOp.build(linear, extent.result))
                linear = emit(arith.AddIOp.build(scaled.result, component)).result
        if linear is None:
            linear = emit(arith.ConstantOp.build(0, index())).result

        pointer = pointers.get(id(accessor))
        if pointer is None:
            pointer_op = SYCLAccessorGetPointerOp.build(accessor)
            # The pointer is shared by every subscript of the accessor, so
            # it must dominate all of them: materialize it where the
            # accessor itself is defined (right after its defining op, or
            # at the top of the entry block for function arguments) — not
            # at the first subscript, which may sit inside a branch that
            # does not dominate later subscripts.
            defining = accessor.defining_op()
            if defining is not None and defining.parent is not None:
                defining.parent.insert_after(defining, pointer_op)
            else:
                entry = accessor.owner_block() or block
                if entry.first_op is not None:
                    entry.insert_before(entry.first_op, pointer_op)
                else:
                    entry.append(pointer_op)
            pointer = pointer_op.results[0]
            pointers[id(accessor)] = pointer

        # Rewrite every load/store going through the subscript result,
        # in place.
        for user in subscript.results[0].users():
            if isinstance(user, (affine_dialect.AffineLoadOp,
                                 memref_dialect.LoadOp)):
                fed = [index.defining_op() for index in user.indices]
                user.retype(memref_dialect.LoadOp, (pointer, linear), {})
                orphans.append(user)  # dead if nothing reads it
            elif isinstance(user, (affine_dialect.AffineStoreOp,
                                   memref_dialect.StoreOp)):
                fed = [index.defining_op() for index in user.indices]
                user.retype(memref_dialect.StoreOp,
                            (user.value, pointer, linear), {})
            else:
                return False
            orphans.extend(fed)
        orphans.append(subscript.index.defining_op())
        subscript.erase()
        return True


def subscript_components(
        subscript: SYCLAccessorSubscriptOp) -> Optional[List[Value]]:
    """The components the subscript's index holds where it is read.

    A scalar index is its own component.  An id object may be constructed
    more than once, so its components come from the constructor that
    reaches the subscript; ``None`` when no single one does.
    """
    id_value = subscript.index
    if not isinstance(id_value.type, MemRefType):
        return [id_value]
    constructor = reaching_constructor(subscript, id_value)
    return list(constructor.arguments) if constructor is not None else None



def linearization_ops(varies: Sequence[bool]) -> int:
    """How many of the ops :meth:`LowerAccessorSubscripts._lower_subscript`
    emits vary, given which index components do: each dimension after the
    first adds a ``muli`` of the running offset and an ``addi`` of its
    component."""
    count, linear = 0, False
    for position, component in enumerate(varies):
        if position:
            count += linear + (linear or component)
        linear = linear or component
    return count
