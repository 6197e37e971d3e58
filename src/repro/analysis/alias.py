"""Alias analysis.

MLIR provides an alias-analysis framework that can be augmented with
dialect-specific knowledge (paper, Section V-A).  :class:`AliasAnalysis`
implements the generic, conservative rules; ``repro.analysis.sycl_alias``
extends it with SYCL-dialect knowledge exactly as the paper describes.
"""

from __future__ import annotations

import enum
from typing import Optional

from ..ir import MemRefType, PointerType, Value
from ..dialects import memref as memref_dialect
from ..dialects.sycl import SYCLAccessorGetPointerOp, SYCLAccessorSubscriptOp
from ..dialects.func import FuncOp


class AliasResult(enum.Enum):
    """Result of an alias query, mirroring MLIR's ``AliasResult``."""

    NO_ALIAS = "no_alias"
    MAY_ALIAS = "may_alias"
    PARTIAL_ALIAS = "partial_alias"
    MUST_ALIAS = "must_alias"

    def is_no(self) -> bool:
        return self is AliasResult.NO_ALIAS

    def is_must(self) -> bool:
        return self is AliasResult.MUST_ALIAS

    def is_may(self) -> bool:
        return self in (AliasResult.MAY_ALIAS, AliasResult.PARTIAL_ALIAS)


def underlying_object(value: Value) -> Value:
    """Chase view-like operations back to the underlying allocation/argument.

    ``memref.cast`` and subscript-style operations produce views of another
    value; for alias purposes the query is about the underlying object.
    """
    current = value
    for _ in range(64):  # defensive bound against malformed chains
        defining = current.defining_op()
        if defining is None:
            return current
        if isinstance(defining, memref_dialect.CastOp):
            current = defining.operands[0]
            continue
        if isinstance(defining, (SYCLAccessorSubscriptOp, SYCLAccessorGetPointerOp)):
            current = defining.operands[0]
            continue
        return current
    return current


def is_distinct_allocation(value: Value) -> bool:
    """True when ``value`` is produced by an allocation operation."""
    defining = value.defining_op()
    return isinstance(defining, (memref_dialect.AllocaOp, memref_dialect.AllocOp))


def memory_space_of(value: Value) -> Optional[str]:
    type_ = value.type
    if isinstance(type_, MemRefType):
        return type_.memory_space
    if isinstance(type_, PointerType):
        return "host"
    return None


class AliasAnalysis:
    """Conservative, dialect-independent alias analysis."""

    def alias(self, a: Value, b: Value) -> AliasResult:
        if a is b:
            return AliasResult.MUST_ALIAS

        base_a = underlying_object(a)
        base_b = underlying_object(b)
        if base_a is base_b and (base_a is not a or base_b is not b):
            # Views of the same object: they may overlap.
            return AliasResult.PARTIAL_ALIAS

        result = self._alias_underlying(base_a, base_b)
        return result

    # ------------------------------------------------------------------
    def _alias_underlying(self, a: Value, b: Value) -> AliasResult:
        if a is b:
            return AliasResult.MUST_ALIAS

        # Two distinct allocations never alias.
        if is_distinct_allocation(a) and is_distinct_allocation(b):
            return AliasResult.NO_ALIAS
        # An allocation local to a function cannot alias a function argument
        # (the argument existed before the allocation).
        if is_distinct_allocation(a) and self._is_function_argument(b):
            return AliasResult.NO_ALIAS
        if is_distinct_allocation(b) and self._is_function_argument(a):
            return AliasResult.NO_ALIAS

        # Values in different memory spaces (global vs local vs private)
        # never alias.
        space_a = memory_space_of(a)
        space_b = memory_space_of(b)
        if space_a is not None and space_b is not None and space_a != space_b:
            return AliasResult.NO_ALIAS

        return AliasResult.MAY_ALIAS

    @staticmethod
    def _is_function_argument(value: Value) -> bool:
        block = value.owner_block()
        if block is None or value.defining_op() is not None:
            return False
        parent = block.parent_op()
        return isinstance(parent, FuncOp)

    # ------------------------------------------------------------------
    def may_alias(self, a: Value, b: Value) -> bool:
        return not self.alias(a, b).is_no()

    def must_alias(self, a: Value, b: Value) -> bool:
        return self.alias(a, b).is_must()

    def no_alias(self, a: Value, b: Value) -> bool:
        return self.alias(a, b).is_no()
