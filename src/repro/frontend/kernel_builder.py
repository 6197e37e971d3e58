"""Device kernel frontend: a Python DSL emitting SYCL-dialect device IR.

The paper uses a Polygeist fork to translate SYCL C++ device code into MLIR
(Section IV).  We cannot run a C++ frontend here, so kernels are written in
a small Python DSL that emits exactly the IR shape that frontend produces:
``func.func`` kernels whose arguments are the ``item``/``nd_item`` followed
by the captured accessors and scalars, with ``sycl.*`` operations for
work-item queries and accessor accesses, and ``affine`` loops for the loop
nests.

Example (the matrix-multiply kernel of Listing 6)::

    def gemm_kernel(k: KernelBuilder):
        i = k.global_id(0)
        j = k.global_id(1)
        with k.loop(0, N) as kk:
            value = k.load("C", [i, j]) + k.load("A", [i, kk]) * k.load("B", [kk, j])
            k.store("C", [i, j], value)

    source = KernelSource("gemm", body=gemm_kernel, nd_range_dims=2,
                          accessors=[AccessorParam("A", 2, f32(), "read"), ...])
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..ir import (
    Builder,
    InsertionPoint,
    IntegerType,
    MemRefType,
    Operation,
    Type,
    UnitAttr,
    Value,
    f32,
    i1,
    i32,
    index,
    is_float,
    location_of,
    user_code_location,
)
from ..dialects import affine, arith, math as math_dialect, memref, scf, sycl
from ..dialects.func import FuncOp, ReturnOp

Number = Union[int, float]


@dataclass(frozen=True)
class AccessorParam:
    """A kernel accessor parameter (captured ``sycl::accessor``)."""

    name: str
    dimensions: int
    element_type: Type = field(default_factory=f32)
    access_mode: str = "read_write"
    target: str = "device"

    def accessor_type(self) -> sycl.AccessorType:
        return sycl.AccessorType(self.dimensions, self.element_type,
                                 self.access_mode, self.target)


@dataclass(frozen=True)
class ScalarParam:
    """A captured scalar kernel parameter."""

    name: str
    type: Type = field(default_factory=f32)


@dataclass
class KernelSource:
    """A device kernel before compilation (name + signature + DSL body)."""

    name: str
    body: Callable[["KernelBuilder"], None]
    nd_range_dims: int = 1
    #: True when the kernel takes an ``nd_item`` (work-group aware) rather
    #: than a plain ``item``.
    uses_nd_item: bool = True
    accessors: Sequence[AccessorParam] = field(default_factory=tuple)
    scalars: Sequence[ScalarParam] = field(default_factory=tuple)

    def build(self) -> FuncOp:
        """Emit the kernel as a ``func.func`` carrying SYCL dialect types."""
        builder = KernelBuilder(self)
        self.body(builder)
        return builder.finish()


class Expr:
    """Wrapper around an SSA value providing arithmetic operators."""

    def __init__(self, kernel_builder: "KernelBuilder", value: Value):
        self.kb = kernel_builder
        self.value = value

    # -- helpers -------------------------------------------------------------
    def _wrap(self, value: Value) -> "Expr":
        return Expr(self.kb, value)

    def _coerce(self, other: Union["Expr", Number]) -> "Expr":
        if isinstance(other, Expr):
            return other
        return self.kb.constant(other, self.value.type)

    @property
    def type(self) -> Type:
        return self.value.type

    def _is_float(self) -> bool:
        return is_float(self.value.type)

    def _binary(self, other, float_op, int_op, reverse: bool = False) -> "Expr":
        rhs = self._coerce(other)
        lhs = self
        if reverse:
            lhs, rhs = rhs, lhs
        op_class = float_op if lhs._is_float() or rhs._is_float() else int_op
        op = self.kb._insert(op_class.build(lhs.value, rhs.value))
        return self._wrap(op.result)

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other):
        return self._binary(other, arith.AddFOp, arith.AddIOp)

    def __radd__(self, other):
        return self._binary(other, arith.AddFOp, arith.AddIOp, reverse=True)

    def __sub__(self, other):
        return self._binary(other, arith.SubFOp, arith.SubIOp)

    def __rsub__(self, other):
        return self._binary(other, arith.SubFOp, arith.SubIOp, reverse=True)

    def __mul__(self, other):
        return self._binary(other, arith.MulFOp, arith.MulIOp)

    def __rmul__(self, other):
        return self._binary(other, arith.MulFOp, arith.MulIOp, reverse=True)

    def __truediv__(self, other):
        return self._binary(other, arith.DivFOp, arith.DivSIOp)

    def __rtruediv__(self, other):
        return self._binary(other, arith.DivFOp, arith.DivSIOp, reverse=True)

    def __mod__(self, other):
        return self._binary(other, arith.RemFOp, arith.RemSIOp)

    def __neg__(self):
        if self._is_float():
            op = self.kb._insert(arith.NegFOp.build(self.value))
            return self._wrap(op.result)
        zero = self.kb.constant(0, self.value.type)
        return zero - self

    # -- comparisons (return i1 Expr) ------------------------------------------
    def _compare(self, other, predicate_float: str, predicate_int: str) -> "Expr":
        rhs = self._coerce(other)
        if self._is_float() or rhs._is_float():
            op = self.kb._insert(arith.CmpFOp.build(predicate_float, self.value,
                                                    rhs.value))
        else:
            op = self.kb._insert(arith.CmpIOp.build(predicate_int, self.value,
                                                    rhs.value))
        return self._wrap(op.result)

    def __lt__(self, other):
        return self._compare(other, "olt", "slt")

    def __le__(self, other):
        return self._compare(other, "ole", "sle")

    def __gt__(self, other):
        return self._compare(other, "ogt", "sgt")

    def __ge__(self, other):
        return self._compare(other, "oge", "sge")

    def eq(self, other):
        return self._compare(other, "oeq", "eq")

    def ne(self, other):
        return self._compare(other, "one", "ne")

    # -- boolean combinators and selection (boundary guards) -------------------
    def _boolean(self, other, op_class) -> "Expr":
        rhs = other if isinstance(other, Expr) \
            else self.kb.constant(bool(other), i1())
        op = self.kb._insert(op_class.build(self.value, rhs.value))
        return self._wrap(op.result)

    def __and__(self, other):
        """Combine ``i1`` conditions: ``(i < n) & (j < n)``."""
        return self._boolean(other, arith.AndIOp)

    def __or__(self, other):
        return self._boolean(other, arith.OrIOp)

    def __invert__(self):
        return self._boolean(True, arith.XOrIOp)

    def select(self, if_true: Union["Expr", Number],
               if_false: Union["Expr", Number]) -> "Expr":
        """``arith.select`` on this ``i1`` condition.

        Literal branch values are typed after the other (Expr) branch, so
        integer selects like ``guard.select(value, 0)`` stay
        type-correct.
        """
        if not isinstance(if_true, Expr) and isinstance(if_false, Expr):
            if_true = self.kb.constant(if_true, if_false.type)
        elif not isinstance(if_true, Expr):
            if_true = self.kb.constant(if_true)
        if not isinstance(if_false, Expr):
            if_false = self.kb.constant(if_false, if_true.type)
        op = self.kb._insert(arith.SelectOp.build(self.value, if_true.value,
                                                  if_false.value))
        return self._wrap(op.result)

    # -- conversions -----------------------------------------------------------
    def to_float(self, type_: Optional[Type] = None) -> "Expr":
        target = type_ or f32()
        if self._is_float():
            return self
        op = self.kb._insert(arith.SIToFPOp.build(self.value, target))
        return self._wrap(op.result)

    def to_index(self) -> "Expr":
        if isinstance(self.value.type, (IntegerType,)):
            op = self.kb._insert(arith.IndexCastOp.build(self.value, index()))
            return self._wrap(op.result)
        return self

    def to_int(self, type_: Optional[Type] = None) -> "Expr":
        target = type_ or i32()
        if self._is_float():
            op = self.kb._insert(arith.FPToSIOp.build(self.value, target))
            return self._wrap(op.result)
        op = self.kb._insert(arith.IndexCastOp.build(self.value, target))
        return self._wrap(op.result)


class KernelBuilder:
    """Builds one device kernel function."""

    def __init__(self, source: KernelSource):
        self.source = source
        item_type = (sycl.NDItemType(source.nd_range_dims)
                     if source.uses_nd_item
                     else sycl.ItemType(source.nd_range_dims))
        arg_types: List[Type] = [sycl.memref_of(item_type)]
        arg_names: List[str] = ["item"]
        for accessor in source.accessors:
            arg_types.append(sycl.memref_of(accessor.accessor_type()))
            arg_names.append(accessor.name)
        for scalar in source.scalars:
            arg_types.append(scalar.type)
            arg_names.append(scalar.name)
        self.func = FuncOp.build(f"{source.name}", arg_types,
                                 arg_names=arg_names)
        self.func.location = user_code_location()
        self.func.set_attr("sycl.kernel", UnitAttr())
        self.func.set_attr("sycl.kernel_name", UnitAttr())
        self._builder = Builder(InsertionPoint.at_end(self.func.body))
        self._params: Dict[str, Value] = {
            name: arg for name, arg in zip(arg_names, self.func.arguments)
        }
        self._accessor_params = {a.name: a for a in source.accessors}
        self._finished = False

    # ------------------------------------------------------------------
    # Low-level helpers
    # ------------------------------------------------------------------
    def _insert(self, op: Operation) -> Operation:
        # Ops emitted from the embedded DSL point at the user's Python
        # kernel line, so lint/verifier findings on built kernels carry
        # a real source position.
        if not location_of(op).is_known:
            op.location = user_code_location()
        return self._builder.insert(op)

    @property
    def item(self) -> Value:
        return self._params["item"]

    def parameter(self, name: str) -> Expr:
        if name not in self._params:
            raise KeyError(f"unknown kernel parameter {name!r}")
        return Expr(self, self._params[name])

    def constant(self, value: Number, type_: Optional[Type] = None) -> Expr:
        if type_ is None:
            type_ = f32() if isinstance(value, float) else index()
        op = self._insert(arith.ConstantOp.build(value, type_))
        return Expr(self, op.result)

    def index_constant(self, value: int) -> Expr:
        return self.constant(int(value), index())

    # ------------------------------------------------------------------
    # Work-item queries
    # ------------------------------------------------------------------
    def _dim_constant(self, dim: int) -> Value:
        return self._insert(arith.ConstantOp.build(dim, i32())).result

    def global_id(self, dim: int = 0) -> Expr:
        dim_value = self._dim_constant(dim)
        if self.source.uses_nd_item:
            op = self._insert(sycl.SYCLNDItemGetGlobalIDOp.build(self.item, dim_value))
        else:
            op = self._insert(sycl.SYCLItemGetIDOp.build(self.item, dim_value))
        return Expr(self, op.result)

    def local_id(self, dim: int = 0) -> Expr:
        op = self._insert(sycl.SYCLNDItemGetLocalIDOp.build(
            self.item, self._dim_constant(dim)))
        return Expr(self, op.result)

    def group_id(self, dim: int = 0) -> Expr:
        op = self._insert(sycl.SYCLNDItemGetGroupIDOp.build(
            self.item, self._dim_constant(dim)))
        return Expr(self, op.result)

    def global_range(self, dim: int = 0) -> Expr:
        if self.source.uses_nd_item:
            op = self._insert(sycl.SYCLNDItemGetGlobalRangeOp.build(
                self.item, self._dim_constant(dim)))
        else:
            op = self._insert(sycl.SYCLItemGetRangeOp.build(
                self.item, self._dim_constant(dim)))
        return Expr(self, op.result)

    def local_range(self, dim: int = 0) -> Expr:
        op = self._insert(sycl.SYCLNDItemGetLocalRangeOp.build(
            self.item, self._dim_constant(dim)))
        return Expr(self, op.result)

    def group_range(self, dim: int = 0) -> Expr:
        op = self._insert(sycl.SYCLNDItemGetGroupRangeOp.build(
            self.item, self._dim_constant(dim)))
        return Expr(self, op.result)

    def group_barrier(self) -> None:
        group = self._insert(sycl.SYCLNDItemGetGroupOp.build(
            self.item, self.source.nd_range_dims))
        self._insert(sycl.SYCLGroupBarrierOp.build(group.result))

    # ------------------------------------------------------------------
    # Accessor accesses
    # ------------------------------------------------------------------
    def accessor_range(self, name: str, dim: int = 0) -> Expr:
        accessor = self._params[name]
        op = self._insert(sycl.SYCLAccessorGetRangeOp.build(
            accessor, self._dim_constant(dim)))
        return Expr(self, op.result)

    def _subscript(self, name: str, indices: Sequence[Union[Expr, Number]]) -> Value:
        accessor = self._params[name]
        param = self._accessor_params[name]
        if len(indices) != param.dimensions:
            raise ValueError(
                f"accessor {name!r} is {param.dimensions}-dimensional, got "
                f"{len(indices)} indices")
        index_values = [self._as_index(i) for i in indices]
        id_alloca = self._insert(memref.AllocaOp.build(
            MemRefType((1,), sycl.IDType(param.dimensions))))
        self._insert(sycl.SYCLConstructorOp.build(
            "id", id_alloca.result, index_values))
        subscript = self._insert(sycl.SYCLAccessorSubscriptOp.build(
            accessor, id_alloca.result))
        return subscript.result

    def _as_index(self, value: Union[Expr, Number]) -> Value:
        if isinstance(value, Expr):
            return value.value
        return self.index_constant(int(value)).value

    def load(self, name: str, indices: Sequence[Union[Expr, Number]]) -> Expr:
        view = self._subscript(name, indices)
        zero = self.index_constant(0)
        op = self._insert(affine.AffineLoadOp.build(view, [zero.value]))
        return Expr(self, op.result)

    def store(self, name: str, indices: Sequence[Union[Expr, Number]],
              value: Union[Expr, Number]) -> None:
        view = self._subscript(name, indices)
        zero = self.index_constant(0)
        param = self._accessor_params[name]
        if not isinstance(value, Expr):
            value = self.constant(value, param.element_type)
        self._insert(affine.AffineStoreOp.build(value.value, view, [zero.value]))

    # ------------------------------------------------------------------
    # Private (work-item local) memory
    # ------------------------------------------------------------------
    def private_array(self, size: int, element_type: Optional[Type] = None) -> Value:
        elem = element_type or f32()
        alloca = self._insert(memref.AllocaOp.build(
            MemRefType((size,), elem, "private")))
        return alloca.result

    def private_load(self, array: Value, idx: Union[Expr, Number]) -> Expr:
        op = self._insert(memref.LoadOp.build(array, [self._as_index(idx)]))
        return Expr(self, op.result)

    def private_store(self, array: Value, idx: Union[Expr, Number],
                      value: Union[Expr, Number]) -> None:
        if not isinstance(value, Expr):
            value = self.constant(value)
        self._insert(memref.StoreOp.build(value.value, array,
                                          [self._as_index(idx)]))

    # ------------------------------------------------------------------
    # Math helpers
    # ------------------------------------------------------------------
    def _unary_math(self, op_class, value: Union[Expr, Number]) -> Expr:
        if not isinstance(value, Expr):
            value = self.constant(float(value))
        op = self._insert(op_class.build(value.value))
        return Expr(self, op.result)

    def sqrt(self, value) -> Expr:
        return self._unary_math(math_dialect.SqrtOp, value)

    def exp(self, value) -> Expr:
        return self._unary_math(math_dialect.ExpOp, value)

    def log(self, value) -> Expr:
        return self._unary_math(math_dialect.LogOp, value)

    def sin(self, value) -> Expr:
        return self._unary_math(math_dialect.SinOp, value)

    def cos(self, value) -> Expr:
        return self._unary_math(math_dialect.CosOp, value)

    def fabs(self, value) -> Expr:
        return self._unary_math(math_dialect.AbsFOp, value)

    def floor(self, value) -> Expr:
        return self._unary_math(math_dialect.FloorOp, value)

    def rsqrt(self, value) -> Expr:
        return self._unary_math(math_dialect.RsqrtOp, value)

    def pow(self, base, exponent) -> Expr:
        if not isinstance(base, Expr):
            base = self.constant(float(base))
        if not isinstance(exponent, Expr):
            exponent = self.constant(float(exponent), base.type)
        op = self._insert(math_dialect.PowFOp.build(base.value, exponent.value))
        return Expr(self, op.result)

    def select(self, condition: Expr, if_true: Union[Expr, Number],
               if_false: Union[Expr, Number]) -> Expr:
        return condition.select(if_true, if_false)

    def minimum(self, a: Expr, b: Union[Expr, Number]) -> Expr:
        if not isinstance(b, Expr):
            b = self.constant(b, a.type)
        op_class = arith.MinFOp if a._is_float() else arith.MinSIOp
        op = self._insert(op_class.build(a.value, b.value))
        return Expr(self, op.result)

    def maximum(self, a: Expr, b: Union[Expr, Number]) -> Expr:
        if not isinstance(b, Expr):
            b = self.constant(b, a.type)
        op_class = arith.MaxFOp if a._is_float() else arith.MaxSIOp
        op = self._insert(op_class.build(a.value, b.value))
        return Expr(self, op.result)

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def loop(self, lower: Union[Expr, int], upper: Union[Expr, int],
             step: int = 1):
        """An ``affine.for`` loop; yields the induction variable."""
        lower_value = self._as_index(lower)
        upper_value = self._as_index(upper)
        loop = self._insert(affine.AffineForOp.build(lower_value, upper_value,
                                                     step=step))
        saved = self._builder.insertion_point
        self._builder.set_insertion_point_to_end(loop.body)
        try:
            yield Expr(self, loop.induction_variable())
        finally:
            self._insert(affine.AffineYieldOp.build())
            self._builder.insertion_point = saved

    @contextlib.contextmanager
    def if_then(self, condition: Expr):
        """An ``scf.if`` without an else branch."""
        if_op = self._insert(scf.IfOp.build(condition.value))
        saved = self._builder.insertion_point
        self._builder.set_insertion_point_to_end(if_op.then_block)
        try:
            yield
        finally:
            self._insert(scf.YieldOp.build())
            self._builder.insertion_point = saved

    @contextlib.contextmanager
    def if_then_else(self, condition: Expr):
        """An ``scf.if`` with both branches; yields ("then", "else") markers."""
        if_op = self._insert(scf.IfOp.build(condition.value, with_else=True))
        saved = self._builder.insertion_point

        @contextlib.contextmanager
        def branch(block):
            self._builder.set_insertion_point_to_end(block)
            try:
                yield
            finally:
                self._insert(scf.YieldOp.build())

        try:
            yield branch(if_op.then_block), branch(if_op.else_block)
        finally:
            self._builder.insertion_point = saved

    # ------------------------------------------------------------------
    def finish(self) -> FuncOp:
        if not self._finished:
            self._insert(ReturnOp.build())
            self._finished = True
        return self.func
