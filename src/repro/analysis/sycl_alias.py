"""SYCL-specific alias analysis (paper, Section V-A).

The SYCL dialect encodes enough semantics to prove that many values do not
alias:

* SYCL *index-like* objects (``id``, ``range``, ``item``, ``nd_item``,
  ``group``) never alias accessor data — they are separate objects entirely.
* Local accessors live in work-group local memory, which never aliases
  global-memory accessors.
* Two distinct local accessors receive distinct local-memory allocations.
* Accessor subscripts of the *same* accessor with the same index must alias;
  with different constant indices they do not alias.
* Accessor subscripts of *different* accessors do not alias when the host
  analysis has proven the underlying buffers to be distinct (recorded as the
  ``sycl.noalias_args`` attribute on the kernel by the host-device
  optimization pass) — this is the joint host/device refinement discussed in
  Section VII-B.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir import ArrayAttr, BlockArgument, IntegerAttr, MemRefType, Value
from ..dialects.arith import constant_value_of
from ..dialects.func import FuncOp
from ..dialects.sycl import (
    AccessorType,
    GroupType,
    IDType,
    ItemType,
    NDItemType,
    NDRangeType,
    RangeType,
    SYCLAccessorSubscriptOp,
    SYCLConstructorOp,
    accessor_type_of,
    constructors_of,
)
from .alias import AliasAnalysis, AliasResult, underlying_object

_INDEX_LIKE = (IDType, RangeType, ItemType, NDItemType, GroupType, NDRangeType)


def _element_kind(value: Value):
    """The SYCL type carried by a value (directly or behind a memref)."""
    type_ = value.type
    if isinstance(type_, MemRefType):
        return type_.element_type
    return type_


def _is_index_like(value: Value) -> bool:
    return isinstance(_element_kind(value), _INDEX_LIKE)


def _noalias_arg_indices(func: FuncOp) -> Sequence[int]:
    attr = func.attributes.get("sycl.noalias_args")
    if isinstance(attr, ArrayAttr):
        return [a.value for a in attr if isinstance(a, IntegerAttr)]
    return []


def _kernel_argument(value: Value) -> Optional[BlockArgument]:
    if not isinstance(value, BlockArgument):
        return None
    block = value.owner_block()
    if block is None:
        return None
    parent = block.parent_op()
    if isinstance(parent, FuncOp):
        return value
    return None


def sycl_values_definitely_distinct(a: Value, b: Value) -> bool:
    """Type-level distinctness facts contributed by the SYCL dialect."""
    if a is b:
        return False

    kind_a = _element_kind(a)
    kind_b = _element_kind(b)

    # Index-like objects never alias accessors or raw data memrefs.
    if _is_index_like(a) != _is_index_like(b):
        return True

    # Local accessors never alias device (global-memory) accessors.
    if isinstance(kind_a, AccessorType) and isinstance(kind_b, AccessorType):
        if kind_a.is_local != kind_b.is_local:
            return True
        # Distinct local accessors have distinct local allocations.
        if kind_a.is_local and kind_b.is_local and a is not b:
            arg_a = _kernel_argument(a)
            arg_b = _kernel_argument(b)
            if arg_a is not None and arg_b is not None and arg_a is not arg_b:
                return True
    return False


def _constructor_of_id(id_value: Value) -> Optional[SYCLConstructorOp]:
    """The ``sycl.constructor`` initialising ``id_value``, if unique.

    An id constructed more than once holds different values at different
    points, so nothing is concluded from any one of its constructors.
    """
    constructors = constructors_of(id_value)
    return constructors[0] if len(constructors) == 1 else None


def _equivalent_subscript_ids(a: SYCLAccessorSubscriptOp,
                              b: SYCLAccessorSubscriptOp) -> bool:
    """True when both subscripts index with ids built from identical values."""
    ctor_a = _constructor_of_id(a.index)
    ctor_b = _constructor_of_id(b.index)
    if ctor_a is None or ctor_b is None:
        return False
    args_a = list(ctor_a.arguments)
    args_b = list(ctor_b.arguments)
    return len(args_a) == len(args_b) and all(
        x is y for x, y in zip(args_a, args_b))


def _constant_subscript_index(op: SYCLAccessorSubscriptOp) -> Optional[tuple]:
    """If the subscript's id is built from constants only, return them."""
    index_value = op.index
    defining = index_value.defining_op()
    if defining is None:
        return None
    # The id may be constructed into an alloca right before the subscript.
    constructors = constructors_of(index_value)
    if constructors:
        if len(constructors) > 1:
            return None
        components = []
        for arg in constructors[0].arguments:
            const = constant_value_of(arg)
            if const is None:
                return None
            components.append(int(const))
        return tuple(components)
    const = constant_value_of(index_value)
    if const is not None:
        return (int(const),)
    return None


class SYCLAliasAnalysis(AliasAnalysis):
    """Alias analysis augmented with SYCL dialect semantics."""

    def alias(self, a: Value, b: Value) -> AliasResult:
        if a is b:
            return AliasResult.MUST_ALIAS

        if sycl_values_definitely_distinct(a, b):
            return AliasResult.NO_ALIAS

        result = self._alias_subscripts(a, b)
        if result is not None:
            return result

        base_a = underlying_object(a)
        base_b = underlying_object(b)
        if base_a is not base_b and sycl_values_definitely_distinct(base_a, base_b):
            return AliasResult.NO_ALIAS
        if base_a is not base_b and self._distinct_noalias_arguments(base_a, base_b):
            return AliasResult.NO_ALIAS

        return super().alias(a, b)

    # ------------------------------------------------------------------
    def _alias_subscripts(self, a: Value, b: Value) -> Optional[AliasResult]:
        op_a = a.defining_op()
        op_b = b.defining_op()
        if not isinstance(op_a, SYCLAccessorSubscriptOp) or \
                not isinstance(op_b, SYCLAccessorSubscriptOp):
            return None

        acc_a = op_a.accessor
        acc_b = op_b.accessor
        if acc_a is acc_b:
            if op_a.index is op_b.index and \
                    len(constructors_of(op_a.index)) <= 1:
                return AliasResult.MUST_ALIAS
            if _equivalent_subscript_ids(op_a, op_b):
                return AliasResult.MUST_ALIAS
            idx_a = _constant_subscript_index(op_a)
            idx_b = _constant_subscript_index(op_b)
            if idx_a is not None and idx_b is not None:
                return (AliasResult.MUST_ALIAS if idx_a == idx_b
                        else AliasResult.NO_ALIAS)
            return AliasResult.PARTIAL_ALIAS

        # Different accessor values.
        if sycl_values_definitely_distinct(acc_a, acc_b):
            return AliasResult.NO_ALIAS
        if self._distinct_noalias_arguments(acc_a, acc_b):
            return AliasResult.NO_ALIAS

        type_a = accessor_type_of(acc_a)
        type_b = accessor_type_of(acc_b)
        if type_a is not None and type_b is not None:
            # Read-only accessors cannot alias write-only accessors to the
            # same buffer in a well-formed SYCL program only if the host
            # proved distinct buffers; types alone are not enough.
            if type_a.is_local != type_b.is_local:
                return AliasResult.NO_ALIAS
        return AliasResult.MAY_ALIAS

    def _distinct_noalias_arguments(self, a: Value, b: Value) -> bool:
        """Both values are distinct kernel arguments marked no-alias."""
        arg_a = _kernel_argument(a)
        arg_b = _kernel_argument(b)
        if arg_a is None or arg_b is None or arg_a is arg_b:
            return False
        func_a = arg_a.owner_block().parent_op()
        func_b = arg_b.owner_block().parent_op()
        if func_a is not func_b or not isinstance(func_a, FuncOp):
            return False
        noalias = set(_noalias_arg_indices(func_a))
        return arg_a.arg_index in noalias and arg_b.arg_index in noalias
