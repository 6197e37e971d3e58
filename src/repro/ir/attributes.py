"""Attributes: compile-time constant metadata attached to operations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from .types import Type


class Attribute:
    """Base class for all attributes."""

    #: The printed form, kept on the object by
    #: :func:`repro.ir.types.spelling` (not a dataclass field).
    _spelling: Optional[str] = None

    def __repr__(self) -> str:
        return f"Attr({self})"


@dataclass(frozen=True)
class IntegerAttr(Attribute):
    value: int
    type: Type

    def __str__(self) -> str:
        return f"{self.value} : {self.type}"


@dataclass(frozen=True)
class FloatAttr(Attribute):
    value: float
    type: Type

    def __str__(self) -> str:
        return f"{self.value} : {self.type}"


@dataclass(frozen=True)
class BoolAttr(Attribute):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class StringAttr(Attribute):
    value: str

    def __str__(self) -> str:
        escaped = (self.value.replace("\\", "\\\\").replace('"', '\\"')
                   .replace("\n", "\\n").replace("\t", "\\t"))
        return f'"{escaped}"'


@dataclass(frozen=True)
class SymbolRefAttr(Attribute):
    """Reference to a symbol (function / global), possibly nested."""

    root: str
    nested: Tuple[str, ...] = ()

    def __str__(self) -> str:
        parts = [f"@{self.root}"] + [f"@{name}" for name in self.nested]
        return "::".join(parts)

    @property
    def leaf(self) -> str:
        """Name of the innermost referenced symbol."""
        return self.nested[-1] if self.nested else self.root


@dataclass(frozen=True)
class TypeAttr(Attribute):
    value: Type

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class ArrayAttr(Attribute):
    value: Tuple[Attribute, ...]

    def __str__(self) -> str:
        return "[" + ", ".join(str(a) for a in self.value) + "]"

    def __iter__(self):
        return iter(self.value)


@dataclass(frozen=True)
class DenseElementsAttr(Attribute):
    """Constant tensor/array data, e.g. a constant filter for a convolution.

    Prints *all* values plus the shape and element type
    (``dense<[1, 2, 3, 4] : 2x2xi64>``) so the textual form is a lossless
    serialization the parser can reconstruct exactly.
    """

    values: Tuple[Any, ...]
    shape: Tuple[int, ...]
    element_type: Type

    def __str__(self) -> str:
        body = ", ".join(str(v) for v in self.values)
        dims = "x".join(str(d) for d in self.shape)
        type_ = f"{dims}x{self.element_type}" if dims else str(self.element_type)
        return f"dense<[{body}] : {type_}>"


@dataclass(frozen=True)
class UnitAttr(Attribute):
    """Presence-only attribute (e.g. ``sycl.kernel``)."""

    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True)
class DictAttr(Attribute):
    value: Tuple[Tuple[str, Attribute], ...]

    def __str__(self) -> str:
        inner = ", ".join(f"{k} = {v}" for k, v in self.value)
        return "{" + inner + "}"


def int_array_attr(values, type_: Type) -> ArrayAttr:
    """An ``ArrayAttr`` of ``IntegerAttr``\\ s, e.g. for static offsets."""
    return ArrayAttr(tuple(IntegerAttr(int(v), type_) for v in values))


def int_array_values(attr) -> list:
    """Integer payload of an ``ArrayAttr`` of ``IntegerAttr``\\ s.

    Returns ``[]`` for missing/malformed attributes so accessors over
    parsed (possibly hand-written) IR degrade gracefully.
    """
    if not isinstance(attr, ArrayAttr):
        return []
    return [a.value for a in attr if isinstance(a, IntegerAttr)]
