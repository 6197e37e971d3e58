"""Memory access (access matrix) analysis (paper, Section V-D).

For SYCL memory accesses inside affine loops the analysis derives, per
access, an *access matrix* ``A`` and *offset vector* ``b`` such that the
accessed multi-dimensional index equals ``A x + b`` where ``x`` stacks the
work-item global ids and the enclosing loop induction variables — exactly
the Listing 3 example of the paper:

.. code-block:: text

    [ 1 0 0 ]   [ gid_x ]   [ 1 ]
    [ 0 0 2 ] * [ gid_y ] + [ 0 ]
    [ 0 1 2 ]   [   i   ]   [ 2 ]

The matrix is split into the *inter–work-item* part (columns of work-item
ids) and the *intra–work-item* part (columns of loop induction variables),
following Kaeli et al. [14]; Loop Internalization picks as prefetch
candidates the accesses with temporal reuse (a non-zero intra–work-item
part).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..ir import BlockArgument, Operation, Trait, Value, has_trait
from ..dialects import affine as affine_dialect
from ..dialects import memref as memref_dialect
from ..dialects.arith import constant_value_of
from ..dialects.sycl import (
    NON_UNIFORM_QUERY_OPS,
    SYCLAccessorSubscriptOp,
    reaching_constructor,
)


class BasisKind(enum.Enum):
    """What a column of the access matrix ranges over."""

    WORK_ITEM = "work_item"     # global / local work-item id
    LOOP = "loop"               # affine loop induction variable
    PARAMETER = "parameter"     # uniform runtime parameter (range, scalar arg)


@dataclass(frozen=True)
class BasisVariable:
    """One column of the access matrix."""

    value: Value
    kind: BasisKind
    label: str

    def __repr__(self) -> str:
        return f"<{self.kind.value}:{self.label}>"


class NonAffineAccessError(Exception):
    """Raised when an index expression is not affine in the basis."""


@dataclass
class LinearExpression:
    """``sum(coefficient_i * basis_i) + constant``."""

    coefficients: Dict[int, int] = field(default_factory=dict)  # id(basis value)
    constant: int = 0

    def add(self, other: "LinearExpression", scale: int = 1) -> None:
        for key, coeff in other.coefficients.items():
            self.coefficients[key] = self.coefficients.get(key, 0) + scale * coeff
        self.constant += scale * other.constant

    def scaled(self, scale: int) -> "LinearExpression":
        result = LinearExpression(dict(self.coefficients), self.constant)
        result.coefficients = {k: v * scale for k, v in result.coefficients.items()}
        result.constant *= scale
        return result


class _ExpressionBuilder:
    """Extracts affine expressions from SSA index computations."""

    def __init__(self):
        self.basis: Dict[int, BasisVariable] = {}

    def basis_list(self) -> List[BasisVariable]:
        return list(self.basis.values())

    # ------------------------------------------------------------------
    def expression_of(self, value: Value) -> LinearExpression:
        const = constant_value_of(value)
        if const is not None:
            return LinearExpression(constant=int(const))

        basis_kind = self._basis_kind_of(value)
        if basis_kind is not None:
            self._register_basis(value, basis_kind)
            return LinearExpression(coefficients={id(value): 1})

        defining = value.defining_op()
        if defining is None:
            # Unclassified block argument: treat as a uniform parameter.
            self._register_basis(value, BasisKind.PARAMETER)
            return LinearExpression(coefficients={id(value): 1})

        name = defining.OPERATION_NAME
        operands = defining.operands
        if name in ("arith.addi",):
            result = self.expression_of(operands[0])
            result.add(self.expression_of(operands[1]))
            return result
        if name in ("arith.subi",):
            result = self.expression_of(operands[0])
            result.add(self.expression_of(operands[1]), scale=-1)
            return result
        if name in ("arith.muli",):
            lhs_const = constant_value_of(operands[0])
            rhs_const = constant_value_of(operands[1])
            if rhs_const is not None:
                return self.expression_of(operands[0]).scaled(int(rhs_const))
            if lhs_const is not None:
                return self.expression_of(operands[1]).scaled(int(lhs_const))
            raise NonAffineAccessError(
                "product of two non-constant index expressions")
        if name in ("arith.index_cast", "arith.extsi", "arith.trunci"):
            return self.expression_of(operands[0])
        if name == "affine.apply":
            result = LinearExpression(constant=defining.get_int_attr("constant", 0))
            for coeff, operand in zip(defining.coefficients, operands):
                result.add(self.expression_of(operand), scale=coeff)
            return result

        # Any other operation: if it is a known uniform query treat its
        # result as a parameter, otherwise give up.
        if has_trait(defining, Trait.UNIFORM_SOURCE) or \
                has_trait(defining, Trait.PURE) or \
                defining.OPERATION_NAME.startswith("sycl.accessor.get"):
            self._register_basis(value, BasisKind.PARAMETER)
            return LinearExpression(coefficients={id(value): 1})
        raise NonAffineAccessError(
            f"cannot express {defining.OPERATION_NAME} result as affine")

    # ------------------------------------------------------------------
    def _basis_kind_of(self, value: Value) -> Optional[BasisKind]:
        defining = value.defining_op()
        if defining is not None:
            if defining.OPERATION_NAME in NON_UNIFORM_QUERY_OPS:
                return BasisKind.WORK_ITEM
            return None
        if isinstance(value, BlockArgument):
            block = value.owner_block()
            parent = block.parent_op() if block is not None else None
            if isinstance(parent, affine_dialect.AffineForOp) and \
                    value.arg_index == 0:
                return BasisKind.LOOP
            from ..dialects import scf as scf_dialect

            if isinstance(parent, scf_dialect.ForOp) and value.arg_index == 0:
                return BasisKind.LOOP
        return None

    def _register_basis(self, value: Value, kind: BasisKind) -> None:
        if id(value) in self.basis:
            return
        label = self._label_for(value, kind)
        self.basis[id(value)] = BasisVariable(value, kind, label)

    @staticmethod
    def _label_for(value: Value, kind: BasisKind) -> str:
        defining = value.defining_op()
        if defining is not None and defining.OPERATION_NAME in NON_UNIFORM_QUERY_OPS:
            dim = None
            if defining.dimension is not None:
                dim = constant_value_of(defining.dimension)
            suffix = "xyz"[dim] if isinstance(dim, int) and 0 <= dim < 3 \
                else "?"
            return f"gid_{suffix}"
        if kind is BasisKind.LOOP:
            return "iv"
        return value.name_hint or "param"


@dataclass
class MemoryAccess:
    """Access matrix description of one load/store."""

    access_op: Operation
    memref: Value
    basis: List[BasisVariable]
    matrix: List[List[int]]        # rows: index dimensions, cols: basis
    offsets: List[int]
    is_store: bool

    # -- matrix views --------------------------------------------------------
    def _columns_of_kind(self, kind: BasisKind) -> List[int]:
        return [i for i, b in enumerate(self.basis) if b.kind is kind]

    def submatrix(self, kind: BasisKind) -> List[List[int]]:
        columns = self._columns_of_kind(kind)
        return [[row[c] for c in columns] for row in self.matrix]

    def inter_work_item_matrix(self) -> List[List[int]]:
        """Matrix restricted to work-item id columns (Section VI-C)."""
        return self.submatrix(BasisKind.WORK_ITEM)

    def intra_work_item_matrix(self) -> List[List[int]]:
        """Matrix restricted to loop induction variable columns."""
        return self.submatrix(BasisKind.LOOP)

    # -- classification --------------------------------------------------------
    def has_temporal_reuse(self) -> bool:
        """The intra–work-item matrix is not the zero matrix."""
        return any(any(entry != 0 for entry in row)
                   for row in self.intra_work_item_matrix())

    def __repr__(self) -> str:
        return (f"<MemoryAccess {self.access_op.OPERATION_NAME} matrix={self.matrix} "
                f"offsets={self.offsets} basis={self.basis}>")


class MemoryAccessAnalysis:
    """Derives :class:`MemoryAccess` descriptions for accesses in a kernel."""

    def __init__(self, root: Operation):
        self.root = root
        self.accesses: List[MemoryAccess] = []
        self._by_op: Dict[int, MemoryAccess] = {}
        self._run()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        for op in self.root.walk():
            if isinstance(op, (affine_dialect.AffineLoadOp,
                               affine_dialect.AffineStoreOp,
                               memref_dialect.LoadOp,
                               memref_dialect.StoreOp)):
                access = self._analyze_access(op)
                if access is not None:
                    self.accesses.append(access)
                    self._by_op[id(op)] = access

    def access_for(self, op: Operation) -> Optional[MemoryAccess]:
        return self._by_op.get(id(op))

    # ------------------------------------------------------------------
    def _analyze_access(self, op: Operation) -> Optional[MemoryAccess]:
        is_store = isinstance(op, (affine_dialect.AffineStoreOp,
                                   memref_dialect.StoreOp))
        memref = op.memref
        index_values = self._index_expressions_of(op)
        if index_values is None:
            return None

        builder = _ExpressionBuilder()
        expressions: List[LinearExpression] = []
        try:
            for index_value in index_values:
                expressions.append(builder.expression_of(index_value))
        except NonAffineAccessError:
            return None

        basis = builder.basis_list()
        # Stable column order: work-item ids first, then loop ivs (outer to
        # inner is preserved by first-encounter order), then parameters.
        order = {BasisKind.WORK_ITEM: 0, BasisKind.LOOP: 1, BasisKind.PARAMETER: 2}
        basis.sort(key=lambda b: order[b.kind])
        matrix: List[List[int]] = []
        offsets: List[int] = []
        for expression in expressions:
            row = [expression.coefficients.get(id(b.value), 0) for b in basis]
            matrix.append(row)
            offsets.append(expression.constant)
        return MemoryAccess(op, memref, basis, matrix, offsets, is_store)

    def _index_expressions_of(self, op: Operation) -> Optional[List[Value]]:
        """The index expressions addressed by ``op``, one per dimension.

        For accesses through ``sycl.accessor.subscript`` the per-dimension
        expressions are the arguments of the ``sycl.constructor`` that built
        the subscript id (Listing 3); for plain memref accesses they are the
        access indices themselves.
        """
        memref = op.memref
        subscript = memref.defining_op()
        if isinstance(subscript, SYCLAccessorSubscriptOp):
            constructor = reaching_constructor(subscript, subscript.index)
            if constructor is None:
                direct = constant_value_of(subscript.index)
                if direct is not None:
                    return []
                return [subscript.index]
            return list(constructor.arguments)
        indices = list(op.indices)
        return indices
