"""``func`` dialect: functions, calls and returns."""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir import (
    Block,
    CallOpInterface,
    FunctionType,
    Operation,
    StringAttr,
    SymbolRefAttr,
    Trait,
    Type,
    TypeAttr,
    Value,
    register_op,
)


@register_op
class FuncOp(Operation):
    """A function definition with a single-region body.

    Attributes of note used throughout the project:

    * ``sym_name``: the function's symbol name;
    * ``sycl.kernel``: marks SYCL kernel entry points (device side);
    * ``sycl.kernel_name``: the user-facing kernel name.
    """

    OPERATION_NAME = "func.func"
    # No SINGLE_BLOCK: after convert-scf-to-cf a function body is a
    # multi-block CFG (entry block first, branch terminators between
    # blocks); structured bodies simply never grow a second block.
    TRAITS = frozenset({Trait.SYMBOL, Trait.ISOLATED_FROM_ABOVE})

    @classmethod
    def build(cls, name: str, arg_types: Sequence[Type],
              result_types: Sequence[Type] = (),
              arg_names: Optional[Sequence[str]] = None,
              visibility: str = "public") -> "FuncOp":
        func_type = FunctionType(tuple(arg_types), tuple(result_types))
        op = cls(
            operands=(),
            result_types=(),
            attributes={
                "sym_name": StringAttr(name),
                "function_type": TypeAttr(func_type),
                "sym_visibility": StringAttr(visibility),
            },
            regions=1,
        )
        entry = Block(arg_types, arg_names)
        op.regions[0].add_block(entry)
        return op

    # -- accessors -----------------------------------------------------------
    @property
    def sym_name(self) -> str:
        return self.get_str_attr("sym_name", "")

    @property
    def function_type(self) -> FunctionType:
        attr = self.attributes["function_type"]
        assert isinstance(attr, TypeAttr) and isinstance(attr.value, FunctionType)
        return attr.value

    @property
    def body(self) -> Block:
        return self.regions[0].front

    @property
    def arguments(self):
        return self.body.arguments

    @property
    def is_declaration(self) -> bool:
        return self.regions[0].empty or self.body.first_op is None

    def is_kernel(self) -> bool:
        return "sycl.kernel" in self.attributes


@register_op
class ReturnOp(Operation):
    OPERATION_NAME = "func.return"
    TRAITS = frozenset({Trait.TERMINATOR, Trait.PURE})

    @classmethod
    def build(cls, values: Sequence[Value] = ()) -> "ReturnOp":
        return cls(operands=tuple(values))


@register_op
class CallOp(Operation, CallOpInterface):
    """Direct call to a function symbol."""

    OPERATION_NAME = "func.call"

    @classmethod
    def build(cls, callee: str, args: Sequence[Value],
              result_types: Sequence[Type] = ()) -> "CallOp":
        return cls(
            operands=tuple(args),
            result_types=tuple(result_types),
            attributes={"callee": SymbolRefAttr(callee)},
        )

    def callee_name(self) -> Optional[str]:
        attr = self.attributes.get("callee")
        return attr.leaf if isinstance(attr, SymbolRefAttr) else None

    def call_arguments(self) -> Sequence[Value]:
        return self.operands


# ---------------------------------------------------------------------------
# Interpreter evaluators (see repro.interp)
# ---------------------------------------------------------------------------

from ..interp.memory import BlockResult, InterpreterError  # noqa: E402
from ..interp.registry import register_evaluator  # noqa: E402


@register_evaluator("func.return")
def _eval_return(ctx, op, args):
    return BlockResult("return", tuple(args))


@register_evaluator("func.call")
def _eval_call(ctx, op, args):
    callee = op.callee_name()
    if callee is None:
        raise InterpreterError("func.call without a callee symbol")
    results = yield from ctx.call(callee, args)
    if len(results) != len(op.results):
        raise InterpreterError(
            f"call to '{callee}' returned {len(results)} values, "
            f"call site expects {len(op.results)}")
    return results
