"""Builtin dialect: the top-level module operation."""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..ir import (
    Block,
    Operation,
    StringAttr,
    Trait,
    register_op,
)


@register_op
class ModuleOp(Operation):
    """Top-level container for functions and nested modules.

    Following the paper's compilation flow (Section IV), a combined module
    holds the host functions at the top level and the device kernels inside
    a nested ``builtin.module`` named ``kernels`` (a GPU-module analogue),
    so host and device code can be analyzed side by side.
    """

    OPERATION_NAME = "builtin.module"
    TRAITS = frozenset({Trait.SYMBOL_TABLE, Trait.SINGLE_BLOCK,
                        Trait.ISOLATED_FROM_ABOVE})

    @classmethod
    def build(cls, name: Optional[str] = None) -> "ModuleOp":
        attrs = {}
        if name is not None:
            attrs["sym_name"] = StringAttr(name)
        op = cls(operands=(), result_types=(), attributes=attrs, regions=1)
        op.regions[0].add_block(Block())
        return op

    @property
    def body(self) -> Block:
        return self.regions[0].front

    def append(self, op: Operation) -> Operation:
        return self.body.append(op)

    def submodules(self) -> Iterator["ModuleOp"]:
        for op in self.body.operations:
            if isinstance(op, ModuleOp):
                yield op

    def symbol_ops(self) -> List[Operation]:
        """The ops of this module's body and, recursively, of its nested
        modules' bodies: every function and global, without descending
        into one."""
        ops = self.body.operations
        for op in ops:  # a nested module's ops join the end of the list
            if isinstance(op, ModuleOp):
                ops.extend(op.body.operations)
        return ops

    def lookup_symbol(self, name: str) -> Optional[Operation]:
        """Find a symbol operation by name in this module or submodules."""
        for op in self.body.operations:
            sym = op.get_str_attr("sym_name")
            if sym == name:
                return op
        for sub in self.submodules():
            found = sub.lookup_symbol(name)
            if found is not None:
                return found
        return None


@register_op
class UnrealizedConversionCastOp(Operation):
    """Value-identity cast between types during progressive lowering."""

    OPERATION_NAME = "builtin.unrealized_conversion_cast"
    TRAITS = frozenset({Trait.PURE})

    @classmethod
    def build(cls, value, result_type) -> "UnrealizedConversionCastOp":
        return cls(operands=(value,), result_types=(result_type,))


# ---------------------------------------------------------------------------
# Interpreter evaluators (see repro.interp)
# ---------------------------------------------------------------------------

from ..interp.registry import register_evaluator  # noqa: E402


@register_evaluator("builtin.unrealized_conversion_cast")
def _eval_unrealized_cast(ctx, op, args):
    return [args[0]]
