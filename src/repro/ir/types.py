"""Type system for the mini-MLIR infrastructure.

Types are immutable value objects: two type instances compare equal when they
describe the same type.  Dialects define their own types by subclassing
:class:`Type` (see ``repro.dialects.sycl`` for the SYCL dialect types).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple


class Type:
    """Base class for all IR types."""

    def __str__(self) -> str:  # pragma: no cover - overridden by subclasses
        return self.__class__.__name__

    def __repr__(self) -> str:
        return f"Type({self})"


@dataclass(frozen=True)
class NoneType(Type):
    """Absence of a value (used for ops with no meaningful result)."""

    def __str__(self) -> str:
        return "none"


@dataclass(frozen=True)
class IndexType(Type):
    """Platform-sized integer used for indexing (MLIR ``index``)."""

    def __str__(self) -> str:
        return "index"


@dataclass(frozen=True)
class IntegerType(Type):
    """Fixed-width integer type (``i1``, ``i8``, ``i32``, ``i64``...)."""

    width: int
    signed: bool = True

    def __str__(self) -> str:
        return f"i{self.width}"


@dataclass(frozen=True)
class FloatType(Type):
    """IEEE floating-point type (``f16``, ``f32``, ``f64``)."""

    width: int

    def __str__(self) -> str:
        return f"f{self.width}"


@dataclass(frozen=True)
class FunctionType(Type):
    """Function signature type: ``(inputs) -> (results)``."""

    inputs: Tuple[Type, ...]
    results: Tuple[Type, ...]

    def __str__(self) -> str:
        ins = ", ".join(str(t) for t in self.inputs)
        outs = ", ".join(str(t) for t in self.results)
        return f"({ins}) -> ({outs})"


#: Sentinel used for dynamic dimensions in shaped types, mirroring MLIR's `?`.
DYNAMIC = -1


@dataclass(frozen=True)
class MemRefType(Type):
    """A reference to a region of memory with a shape and element type.

    ``memory_space`` distinguishes the SYCL memory hierarchy:
    ``"global"``, ``"local"`` or ``"private"``.
    """

    shape: Tuple[int, ...]
    element_type: Type
    memory_space: str = "global"

    def __str__(self) -> str:
        dims = "x".join("?" if d == DYNAMIC else str(d) for d in self.shape)
        prefix = f"{dims}x" if self.shape else ""
        space = f", {self.memory_space}" if self.memory_space != "global" else ""
        return f"memref<{prefix}{self.element_type}{space}>"

    @property
    def rank(self) -> int:
        return len(self.shape)

    def has_static_shape(self) -> bool:
        return all(d != DYNAMIC for d in self.shape)

    def num_elements(self) -> Optional[int]:
        if not self.has_static_shape():
            return None
        total = 1
        for dim in self.shape:
            total *= dim
        return total


@dataclass(frozen=True)
class PointerType(Type):
    """An opaque pointer, mirroring ``!llvm.ptr``.

    Host modules obtained from LLVM IR use opaque pointers; the pointee type
    is optional provenance information used by the host raising pass.
    """

    pointee: Optional[Type] = None
    address_space: int = 0

    def __str__(self) -> str:
        if self.pointee is None:
            return "!llvm.ptr"
        return f"!llvm.ptr<{self.pointee}>"


@dataclass(frozen=True)
class StructType(Type):
    """A named aggregate, mirroring ``!llvm.struct``."""

    name: str
    body: Tuple[Type, ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        return f"!llvm.struct<{self.name!r}>"


@dataclass(frozen=True)
class VectorType(Type):
    """A fixed-size vector of elements."""

    shape: Tuple[int, ...]
    element_type: Type

    def __str__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        return f"vector<{dims}x{self.element_type}>"


# ---------------------------------------------------------------------------
# Convenience constructors for the most common types.
# ---------------------------------------------------------------------------

def i1() -> IntegerType:
    return IntegerType(1)


def i32() -> IntegerType:
    return IntegerType(32)


def i64() -> IntegerType:
    return IntegerType(64)


def f32() -> FloatType:
    return FloatType(32)


def f64() -> FloatType:
    return FloatType(64)


def index() -> IndexType:
    return IndexType()


def memref(shape: Sequence[int], element_type: Type,
           memory_space: str = "global") -> MemRefType:
    return MemRefType(tuple(shape), element_type, memory_space)


def function_type(inputs: Sequence[Type], results: Sequence[Type]) -> FunctionType:
    return FunctionType(tuple(inputs), tuple(results))


def is_integer(type_: Type) -> bool:
    return isinstance(type_, (IntegerType, IndexType))


def is_float(type_: Type) -> bool:
    return isinstance(type_, FloatType)


def is_scalar(type_: Type) -> bool:
    return is_integer(type_) or is_float(type_)
