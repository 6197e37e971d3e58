"""``memref`` dialect: memory allocation and access operations."""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..ir import (
    DenseElementsAttr,
    IndexType,
    MemoryEffect,
    MemoryEffectsInterface,
    MemRefType,
    Operation,
    StringAttr,
    Trait,
    Value,
    register_op,
)
from ..ir.interfaces import allocate, free, read, write


@register_op
class AllocaOp(Operation, MemoryEffectsInterface):
    """Stack-like allocation (private memory on the device side)."""

    OPERATION_NAME = "memref.alloca"

    @classmethod
    def build(cls, memref_type: MemRefType) -> "AllocaOp":
        return cls(operands=(), result_types=(memref_type,))

    def memory_effects(self) -> List[MemoryEffect]:
        return [allocate(self.results[0])]


@register_op
class AllocOp(Operation, MemoryEffectsInterface):
    """Heap-like allocation; used for SYCL local-memory tiles."""

    OPERATION_NAME = "memref.alloc"

    @classmethod
    def build(cls, memref_type: MemRefType) -> "AllocOp":
        return cls(operands=(), result_types=(memref_type,))

    def memory_effects(self) -> List[MemoryEffect]:
        return [allocate(self.results[0])]


@register_op
class DeallocOp(Operation, MemoryEffectsInterface):
    OPERATION_NAME = "memref.dealloc"

    @classmethod
    def build(cls, memref: Value) -> "DeallocOp":
        return cls(operands=(memref,))

    def memory_effects(self) -> List[MemoryEffect]:
        return [free(self.operands[0])]


@register_op
class LoadOp(Operation, MemoryEffectsInterface):
    OPERATION_NAME = "memref.load"

    @classmethod
    def build(cls, memref: Value, indices: Sequence[Value] = ()) -> "LoadOp":
        memref_type = memref.type
        if not isinstance(memref_type, MemRefType):
            raise TypeError(f"memref.load expects a memref, got {memref_type}")
        return cls(operands=(memref, *indices),
                   result_types=(memref_type.element_type,))

    @property
    def memref(self) -> Value:
        return self.operands[0]

    @property
    def indices(self) -> Sequence[Value]:
        return self.operands[1:]

    def memory_effects(self) -> List[MemoryEffect]:
        return [read(self.memref)]


@register_op
class StoreOp(Operation, MemoryEffectsInterface):
    OPERATION_NAME = "memref.store"

    @classmethod
    def build(cls, value: Value, memref: Value,
              indices: Sequence[Value] = ()) -> "StoreOp":
        return cls(operands=(value, memref, *indices))

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def memref(self) -> Value:
        return self.operands[1]

    @property
    def indices(self) -> Sequence[Value]:
        return self.operands[2:]

    def memory_effects(self) -> List[MemoryEffect]:
        return [write(self.memref)]


@register_op
class DimOp(Operation):
    """Query the size of a memref dimension."""

    OPERATION_NAME = "memref.dim"
    TRAITS = frozenset({Trait.PURE})

    @classmethod
    def build(cls, memref: Value, dim: Value) -> "DimOp":
        return cls(operands=(memref, dim), result_types=(IndexType(),))


@register_op
class CastOp(Operation):
    OPERATION_NAME = "memref.cast"
    TRAITS = frozenset({Trait.PURE})

    @classmethod
    def build(cls, memref: Value, result_type: MemRefType) -> "CastOp":
        return cls(operands=(memref,), result_types=(result_type,))


@register_op
class GlobalOp(Operation):
    """Module-level constant array (e.g. a convolution filter)."""

    OPERATION_NAME = "memref.global"
    TRAITS = frozenset({Trait.SYMBOL})

    @classmethod
    def build(cls, name: str, memref_type: MemRefType,
              initial_value: Optional[DenseElementsAttr] = None,
              constant: bool = True) -> "GlobalOp":
        attrs = {
            "sym_name": StringAttr(name),
            "type": StringAttr(str(memref_type)),
        }
        if initial_value is not None:
            attrs["initial_value"] = initial_value
        if constant:
            from ..ir import UnitAttr

            attrs["constant"] = UnitAttr()
        op = cls(operands=(), result_types=(), attributes=attrs)
        op.memref_type = memref_type
        return op


@register_op
class GetGlobalOp(Operation, MemoryEffectsInterface):
    OPERATION_NAME = "memref.get_global"

    @classmethod
    def build(cls, name: str, memref_type: MemRefType) -> "GetGlobalOp":
        return cls(operands=(), result_types=(memref_type,),
                   attributes={"name": StringAttr(name)})

    def memory_effects(self) -> List[MemoryEffect]:
        # Getting the address of a global has no effect by itself.
        return []


@register_op
class CopyOp(Operation, MemoryEffectsInterface):
    OPERATION_NAME = "memref.copy"

    @classmethod
    def build(cls, source: Value, target: Value) -> "CopyOp":
        return cls(operands=(source, target))

    def memory_effects(self) -> List[MemoryEffect]:
        return [read(self.operands[0]), write(self.operands[1])]


# ---------------------------------------------------------------------------
# Interpreter evaluators (see repro.interp)
# ---------------------------------------------------------------------------

from ..interp.memory import MemRefStorage, TrapError  # noqa: E402
from ..interp.registry import register_evaluator  # noqa: E402


def _eval_alloc(ctx, op, args):
    memref_type = op.results[0].type
    if memref_type.memory_space == "local":
        # Work-group local tiles are shared by every item of the group
        # (the Loop Internalization contract).
        return [ctx.local_storage_for(op, memref_type)]
    return [MemRefStorage.for_type(memref_type)]


register_evaluator("memref.alloca", _eval_alloc)
register_evaluator("memref.alloc", _eval_alloc)


@register_evaluator("memref.dealloc")
def _eval_dealloc(ctx, op, args):
    return []


@register_evaluator("memref.load")
def _eval_load(ctx, op, args):
    target = args[0]
    ctx.counters.count_load(target.element_bytes)
    return [target.load(args[1:])]


@register_evaluator("memref.store")
def _eval_store(ctx, op, args):
    target = args[1]
    ctx.counters.count_store(target.element_bytes)
    target.store(args[2:], args[0])
    return []


@register_evaluator("memref.dim")
def _eval_dim(ctx, op, args):
    storage = args[0]
    dim = int(args[1])
    shape = getattr(storage, "shape", None)
    if shape is None or not 0 <= dim < len(shape):
        raise TrapError(f"memref.dim {dim} out of range")
    return [int(shape[dim])]


@register_evaluator("memref.cast")
def _eval_cast(ctx, op, args):
    return [args[0]]


@register_evaluator("memref.get_global")
def _eval_get_global(ctx, op, args):
    name = op.get_str_attr("name", "")
    return [ctx.interpreter.global_storage(name)]


@register_evaluator("memref.copy")
def _eval_copy(ctx, op, args):
    source, target = args
    if source.size != target.size:
        raise TrapError("memref.copy between different element counts")
    src_flat = getattr(source, "_flat", None)
    dst_flat = getattr(target, "_flat", None)
    if src_flat is not None and dst_flat is not None:
        dst_flat[:] = src_flat  # bulk NumPy copy on the common path
    else:
        for i in range(source.size):
            target.store_flat(i, source.load_flat(i))
    # Bulk-adjust both counter families so copy-heavy IR reports the
    # same loads/stores-to-bytes ratio as element-wise accesses.
    ctx.counters.loads += source.size
    ctx.counters.stores += target.size
    ctx.counters.bytes_read += source.size * source.element_bytes
    ctx.counters.bytes_written += target.size * target.element_bytes
    return []
