"""The SYCL dialect (the paper's primary contribution, Sections III-IV).

The dialect models key entities of the SYCL programming model:

* **Device-side types**: ``id``, ``range``, ``item``, ``nd_item``, ``group``,
  ``nd_range`` and ``accessor`` / ``local_accessor`` become MLIR types, so
  kernels keep the SYCL class structure instead of lowering to raw pointers.
* **Device-side operations**: queries of the work-item position
  (``sycl.nd_item.get_global_id``, ``sycl.item.get_id``, ...), accessor
  element access (``sycl.accessor.subscript``), SYCL object construction
  (``sycl.constructor``) and work-group barriers (``sycl.group_barrier``).
* **Host-side operations**: construction of SYCL runtime objects
  (``sycl.host.constructor``) and kernel scheduling
  (``sycl.host.schedule_kernel``), produced by the host raising pass.

Traits mark known sources of (non-)uniformity so that the uniformity
analysis (Section V-C) stays dialect agnostic, and memory-effect interfaces
give the reaching-definition analysis and LICM precise semantics for each
operation (Sections V-B, VI-A).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..ir import (
    DYNAMIC,
    IndexType,
    IntegerAttr,
    MemoryEffect,
    MemoryEffectsInterface,
    MemRefType,
    Operation,
    StringAttr,
    SymbolRefAttr,
    Trait,
    Type,
    Value,
    i64,
    register_op,
)
from ..ir.interfaces import read, write


# ---------------------------------------------------------------------------
# SYCL dialect types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IDType(Type):
    """``sycl::id<D>`` — a D-dimensional index."""

    dimensions: int

    def __str__(self) -> str:
        return f"!sycl_id_{self.dimensions}"


@dataclass(frozen=True)
class RangeType(Type):
    """``sycl::range<D>`` — a D-dimensional extent."""

    dimensions: int

    def __str__(self) -> str:
        return f"!sycl_range_{self.dimensions}"


@dataclass(frozen=True)
class ItemType(Type):
    """``sycl::item<D>`` — position of a work-item in a simple range."""

    dimensions: int
    with_offset: bool = True

    def __str__(self) -> str:
        return f"!sycl_item_{self.dimensions}"


@dataclass(frozen=True)
class NDItemType(Type):
    """``sycl::nd_item<D>`` — position within an ND-range."""

    dimensions: int

    def __str__(self) -> str:
        return f"!sycl_nd_item_{self.dimensions}"


@dataclass(frozen=True)
class GroupType(Type):
    """``sycl::group<D>`` — the enclosing work-group."""

    dimensions: int

    def __str__(self) -> str:
        return f"!sycl_group_{self.dimensions}"


@dataclass(frozen=True)
class NDRangeType(Type):
    """``sycl::nd_range<D>`` — global + local iteration space."""

    dimensions: int

    def __str__(self) -> str:
        return f"!sycl_nd_range_{self.dimensions}"


#: Accessor access modes (subset of the SYCL 2020 access modes).
ACCESS_MODES = ("read", "write", "read_write")

#: Accessor targets: device global memory or work-group local memory.
ACCESS_TARGETS = ("device", "local")


@dataclass(frozen=True)
class AccessorType(Type):
    """``sycl::accessor<T, D, mode, target>``.

    The accessor is the heavy SYCL object described in Section II-A: it
    carries the data pointer, the full (memory) range, an access range and
    an offset.  Those members are observable through the
    ``sycl.accessor.get_*`` operations below.
    """

    dimensions: int
    element_type: Type
    access_mode: str = "read_write"
    target: str = "device"

    def __post_init__(self):
        if self.access_mode not in ACCESS_MODES:
            raise ValueError(f"invalid access mode {self.access_mode!r}")
        if self.target not in ACCESS_TARGETS:
            raise ValueError(f"invalid accessor target {self.target!r}")

    def __str__(self) -> str:
        suffix = "_local" if self.target == "local" else ""
        return (f"!sycl_accessor_{self.dimensions}_"
                f"{self.element_type}_{self.access_mode}{suffix}")

    @property
    def is_local(self) -> bool:
        return self.target == "local"

    @property
    def is_read_only(self) -> bool:
        return self.access_mode == "read"


@dataclass(frozen=True)
class BufferType(Type):
    """``sycl::buffer<T, D>`` (host side)."""

    dimensions: int
    element_type: Type

    def __str__(self) -> str:
        return f"!sycl_buffer_{self.dimensions}_{self.element_type}"


@dataclass(frozen=True)
class QueueType(Type):
    def __str__(self) -> str:
        return "!sycl_queue"


@dataclass(frozen=True)
class HandlerType(Type):
    def __str__(self) -> str:
        return "!sycl_handler"


def memref_of(type_: Type, size: int = DYNAMIC) -> MemRefType:
    """Helper: ``memref<?x!sycl_...>`` used to pass SYCL objects by reference."""
    return MemRefType((size,), type_)


# ---------------------------------------------------------------------------
# Device-side operations
# ---------------------------------------------------------------------------

@register_op
class SYCLConstructorOp(Operation, MemoryEffectsInterface):
    """Constructs a SYCL object (id, range, ...) into a memref.

    Mirrors ``sycl.constructor @id (%out, %i, %j, %k)`` in Listing 3.
    """

    OPERATION_NAME = "sycl.constructor"

    @classmethod
    def build(cls, type_name: str, destination: Value,
              args: Sequence[Value]) -> "SYCLConstructorOp":
        return cls(operands=(destination, *args),
                   attributes={"type": SymbolRefAttr(type_name)})

    @property
    def destination(self) -> Value:
        return self.operands[0]

    @property
    def arguments(self) -> Sequence[Value]:
        return self.operands[1:]

    def memory_effects(self) -> List[MemoryEffect]:
        return [write(self.destination)]


def constructors_of(value: Value) -> List[SYCLConstructorOp]:
    """The ``sycl.constructor`` ops writing the object ``value``."""
    return [user for user in value.users()
            if isinstance(user, SYCLConstructorOp)
            and user.destination is value]


def reaching_constructor(user: Operation,
                         value: Value) -> Optional[SYCLConstructorOp]:
    """The ``sycl.constructor`` of ``value`` whose contents ``user`` reads.

    An object may be constructed more than once.  The one that counts is
    the nearest constructor before ``user`` in its block, or in an
    enclosing block before the op holding ``user``.  ``None`` when there
    is none, or when a constructor nested in an op on the way back (a
    branch before ``user``, or the loop or branch around it) may write
    the object instead.
    """
    constructors = constructors_of(value)
    op = user
    while op.parent is not None:
        previous = op.prev_op()
        while previous is not None:
            if previous in constructors:
                return previous
            if previous.regions and any(previous.is_ancestor_of(other)
                                        for other in constructors):
                return None
            previous = previous.prev_op()
        op = op.parent_op()
        if op is None or any(op.is_ancestor_of(other)
                             for other in constructors):
            return None
    return None


class _QueryOpBase(Operation, MemoryEffectsInterface):
    """Base for ``<object>.get_*(obj, dim)`` style query operations.

    The queried SYCL objects (items, nd_items, groups, accessors) are
    immutable inside device code — no SYCL dialect operation writes them —
    so queries are modelled as having no memory effects.  This is what lets
    LICM hoist them and CSE deduplicate them (paper, Section VI-A).
    """

    RESULT_TYPE: Type = IndexType()

    @classmethod
    def build(cls, source: Value, dimension: Optional[Value] = None):
        operands = (source,) if dimension is None else (source, dimension)
        return cls(operands=operands, result_types=(cls.RESULT_TYPE,))

    @property
    def dimension(self) -> Optional[Value]:
        return self.operands[1] if len(self.operands) > 1 else None

    def verify_op(self) -> None:
        # A constant dimension must name one of the queried object's
        # dimensions: the analyses label work-item ids by it, and no
        # launch can give an id a component outside its rank.
        operands = self._operands
        defining = operands[1].defining_op() if operands[1:] else None
        if defining is None or defining.OPERATION_NAME != "arith.constant":
            return
        value = defining.attributes.get("value")
        if not isinstance(value, IntegerAttr):
            return
        source = operands[0].type
        queried = source.element_type if isinstance(source, MemRefType) \
            else source
        rank = getattr(queried, "dimensions", None)
        if value.value < 0 or (rank is not None and value.value >= rank):
            bound = f"[0, {rank})" if rank is not None else "[0, rank)"
            raise ValueError(
                f"constant dimension {value.value} is outside {bound} of "
                f"the queried {queried}")

    def memory_effects(self) -> List[MemoryEffect]:
        return []


def _query_op(name: str, *, uniform: Optional[bool],
              result_type: Type = IndexType()):
    """Factory for query operations.

    ``uniform`` is ``True`` for work-group-uniform results, ``False`` for
    known non-uniform results (per-work-item ids) and ``None`` when
    uniformity follows from operands only.
    """
    traits = set()
    if uniform is True:
        traits.add(Trait.UNIFORM_SOURCE)
    elif uniform is False:
        traits.add(Trait.NON_UNIFORM_SOURCE)

    @register_op
    class _Op(_QueryOpBase):
        OPERATION_NAME = name
        TRAITS = frozenset(traits)
        RESULT_TYPE = result_type

    _Op.__name__ = "SYCL" + "".join(
        part.capitalize() for part in name.replace("sycl.", "").split("_" ) if part
    ).replace(".", "") + "Op"
    return _Op


# id / range element access -------------------------------------------------
SYCLIDGetOp = _query_op("sycl.id.get", uniform=None)
SYCLRangeGetOp = _query_op("sycl.range.get", uniform=None)
SYCLRangeSizeOp = _query_op("sycl.range.size", uniform=None)

# item queries ----------------------------------------------------------------
SYCLItemGetIDOp = _query_op("sycl.item.get_id", uniform=False)
SYCLItemGetLinearIDOp = _query_op("sycl.item.get_linear_id", uniform=False)
SYCLItemGetRangeOp = _query_op("sycl.item.get_range", uniform=True)

# nd_item queries -------------------------------------------------------------
SYCLNDItemGetGlobalIDOp = _query_op("sycl.nd_item.get_global_id", uniform=False)
SYCLNDItemGetGlobalLinearIDOp = _query_op(
    "sycl.nd_item.get_global_linear_id", uniform=False)
SYCLNDItemGetLocalIDOp = _query_op("sycl.nd_item.get_local_id", uniform=False)
SYCLNDItemGetLocalLinearIDOp = _query_op(
    "sycl.nd_item.get_local_linear_id", uniform=False)
SYCLNDItemGetGroupIDOp = _query_op("sycl.nd_item.get_group_id", uniform=True)
SYCLNDItemGetGlobalRangeOp = _query_op(
    "sycl.nd_item.get_global_range", uniform=True)
SYCLNDItemGetLocalRangeOp = _query_op(
    "sycl.nd_item.get_local_range", uniform=True)
SYCLNDItemGetGroupRangeOp = _query_op(
    "sycl.nd_item.get_group_range", uniform=True)

# group queries ---------------------------------------------------------------
SYCLGroupGetGroupIDOp = _query_op("sycl.group.get_group_id", uniform=True)
SYCLGroupGetLocalRangeOp = _query_op("sycl.group.get_local_range", uniform=True)
SYCLGroupGetGroupRangeOp = _query_op("sycl.group.get_group_range", uniform=True)


@register_op
class SYCLNDItemGetGroupOp(Operation, MemoryEffectsInterface):
    """Returns the ``sycl::group`` of an ``nd_item`` (Listing 7, line 12)."""

    OPERATION_NAME = "sycl.nd_item.get_group"
    TRAITS = frozenset({Trait.UNIFORM_SOURCE})

    @classmethod
    def build(cls, nd_item: Value, dimensions: int = 1) -> "SYCLNDItemGetGroupOp":
        return cls(operands=(nd_item,),
                   result_types=(GroupType(dimensions),),
                   attributes={"dimensions": IntegerAttr(dimensions, i64())})

    def memory_effects(self) -> List[MemoryEffect]:
        return []


# accessor operations ---------------------------------------------------------

@register_op
class SYCLAccessorSubscriptOp(Operation, MemoryEffectsInterface):
    """``accessor[id]`` — yields a memref view of the addressed element.

    The result is a rank-1 dynamically-sized memref whose element 0 is the
    addressed element (matching Listing 3, lines 20-23).  Loads/stores go
    through ``affine.load`` / ``memref.load`` on the result.
    """

    OPERATION_NAME = "sycl.accessor.subscript"

    @classmethod
    def build(cls, accessor: Value, index: Value) -> "SYCLAccessorSubscriptOp":
        accessor_type = _accessor_type_of(accessor)
        space = "local" if accessor_type is not None and accessor_type.is_local \
            else "global"
        element = accessor_type.element_type if accessor_type is not None \
            else IndexType()
        result = MemRefType((DYNAMIC,), element, space)
        return cls(operands=(accessor, index), result_types=(result,))

    @property
    def accessor(self) -> Value:
        return self.operands[0]

    @property
    def index(self) -> Value:
        return self.operands[1]

    def memory_effects(self) -> List[MemoryEffect]:
        # Computing the address reads the id object; the accessor metadata is
        # immutable in device code, and the actual element access is
        # performed by the load/store on the result.
        return [read(self.index)]


@register_op
class SYCLAccessorGetRangeOp(_QueryOpBase):
    """Access range of an accessor in one dimension."""

    OPERATION_NAME = "sycl.accessor.get_range"
    TRAITS = frozenset({Trait.UNIFORM_SOURCE})


@register_op
class SYCLAccessorGetMemRangeOp(_QueryOpBase):
    """Underlying buffer (memory) range of an accessor in one dimension."""

    OPERATION_NAME = "sycl.accessor.get_mem_range"
    TRAITS = frozenset({Trait.UNIFORM_SOURCE})


@register_op
class SYCLAccessorGetOffsetOp(_QueryOpBase):
    """Offset of a (ranged) accessor in one dimension."""

    OPERATION_NAME = "sycl.accessor.get_offset"
    TRAITS = frozenset({Trait.UNIFORM_SOURCE})


@register_op
class SYCLAccessorSizeOp(_QueryOpBase):
    """Total number of elements accessible through the accessor."""

    OPERATION_NAME = "sycl.accessor.size"
    TRAITS = frozenset({Trait.UNIFORM_SOURCE})


@register_op
class SYCLAccessorGetPointerOp(Operation, MemoryEffectsInterface):
    """Raw pointer (as a memref) underlying the accessor."""

    OPERATION_NAME = "sycl.accessor.get_pointer"

    @classmethod
    def build(cls, accessor: Value) -> "SYCLAccessorGetPointerOp":
        accessor_type = _accessor_type_of(accessor)
        element = accessor_type.element_type if accessor_type is not None \
            else IndexType()
        space = "local" if accessor_type is not None and accessor_type.is_local \
            else "global"
        return cls(operands=(accessor,),
                   result_types=(MemRefType((DYNAMIC,), element, space),))

    def memory_effects(self) -> List[MemoryEffect]:
        return []


@register_op
class SYCLGroupBarrierOp(Operation, MemoryEffectsInterface):
    """Work-group barrier (``group_barrier(group)``).

    Injecting this in a divergent region would deadlock, which is why Loop
    Internalization consults the uniformity analysis first (Section VI-C).
    """

    OPERATION_NAME = "sycl.group_barrier"
    TRAITS = frozenset({Trait.BARRIER})

    @classmethod
    def build(cls, group: Value) -> "SYCLGroupBarrierOp":
        return cls(operands=(group,))

    def memory_effects(self) -> List[MemoryEffect]:
        # A barrier orders all memory accesses of the work-group: model it as
        # a read and write of unspecified memory.
        return [read(None), write(None)]


@register_op
class SYCLLocalIDOp(_QueryOpBase):
    """Direct query of the work-item local id (used after lowering)."""

    OPERATION_NAME = "sycl.local_id"
    TRAITS = frozenset({Trait.NON_UNIFORM_SOURCE})


@register_op
class SYCLGlobalIDOp(_QueryOpBase):
    """Direct query of the work-item global id (used after lowering)."""

    OPERATION_NAME = "sycl.global_id"
    TRAITS = frozenset({Trait.NON_UNIFORM_SOURCE})


# ---------------------------------------------------------------------------
# Host-side operations (produced by the host raising pass, Section VII-A)
# ---------------------------------------------------------------------------

@register_op
class SYCLHostConstructorOp(Operation, MemoryEffectsInterface):
    """Construction of a SYCL runtime object in host code.

    ``sycl.host.constructor(%out, %args...) {type = "accessor", ...}``
    mirrors Listing 9.  The ``type`` attribute names the constructed SYCL
    class; additional attributes record statically-known construction
    parameters (dimensions, access mode, whether the accessor is ranged).
    ``host-raising`` turns the runtime call into one in place.
    """

    OPERATION_NAME = "sycl.host.constructor"
    RESULTS = 0

    @property
    def destination(self) -> Value:
        return self.operands[0]

    @property
    def arguments(self) -> Sequence[Value]:
        return self.operands[1:]

    @property
    def constructed_type(self) -> str:
        return self.get_str_attr("type", "")

    def memory_effects(self) -> List[MemoryEffect]:
        effects = [write(self.destination)]
        effects.extend(read(arg) for arg in self.arguments)
        return effects


@register_op
class SYCLHostScheduleKernelOp(Operation, MemoryEffectsInterface):
    """Scheduling of a device kernel from a command group.

    ``sycl.host.schedule_kernel %handler -> @kernels::@K [range %r](%args...)``
    (Listing 9).  Operands are the handler, optionally the ND-range / range
    objects, and the captured kernel arguments.  The ``kernel`` attribute is
    a nested symbol reference into the device module.
    """

    OPERATION_NAME = "sycl.host.schedule_kernel"

    @classmethod
    def build(cls, handler: Value, kernel_symbol: SymbolRefAttr,
              kernel_args: Sequence[Value],
              global_range: Optional[Value] = None,
              local_range: Optional[Value] = None) -> "SYCLHostScheduleKernelOp":
        operands = [handler]
        num_range_operands = 0
        if global_range is not None:
            operands.append(global_range)
            num_range_operands += 1
        if local_range is not None:
            operands.append(local_range)
            num_range_operands += 1
        operands.extend(kernel_args)
        attrs = {
            "kernel": kernel_symbol,
            "num_range_operands": IntegerAttr(num_range_operands, i64()),
            "has_local_range": IntegerAttr(1 if local_range is not None else 0,
                                           i64()),
        }
        return cls(operands=tuple(operands), attributes=attrs)

    @property
    def handler(self) -> Value:
        return self.operands[0]

    @property
    def kernel_symbol(self) -> SymbolRefAttr:
        attr = self.attributes["kernel"]
        assert isinstance(attr, SymbolRefAttr)
        return attr

    @property
    def kernel_name(self) -> str:
        return self.kernel_symbol.leaf

    @property
    def num_range_operands(self) -> int:
        return self.get_int_attr("num_range_operands", 0)

    @property
    def global_range(self) -> Optional[Value]:
        return self.operands[1] if self.num_range_operands >= 1 else None

    @property
    def local_range(self) -> Optional[Value]:
        if self.get_int_attr("has_local_range", 0) and self.num_range_operands >= 2:
            return self.operands[2]
        return None

    @property
    def kernel_arguments(self) -> Sequence[Value]:
        return self.operands[1 + self.num_range_operands:]

    def memory_effects(self) -> List[MemoryEffect]:
        effects = [read(self.handler)]
        effects.extend(read(arg) for arg in self.operands[1:])
        return effects


@register_op
class SYCLHostSubmitOp(Operation, MemoryEffectsInterface):
    """Submission of a command-group function to a queue."""

    OPERATION_NAME = "sycl.host.submit"

    @classmethod
    def build(cls, queue: Value, command_group_symbol: SymbolRefAttr) -> "SYCLHostSubmitOp":
        return cls(operands=(queue,), attributes={"cgf": command_group_symbol})

    def memory_effects(self) -> List[MemoryEffect]:
        return [read(self.operands[0]), write(None)]


# ---------------------------------------------------------------------------
# Helpers shared by analyses / transforms
# ---------------------------------------------------------------------------

def _accessor_type_of(value: Value) -> Optional[AccessorType]:
    """Extract the AccessorType behind a value (direct or via memref)."""
    type_ = value.type
    if isinstance(type_, AccessorType):
        return type_
    if isinstance(type_, MemRefType) and isinstance(type_.element_type, AccessorType):
        return type_.element_type
    return None


def accessor_type_of(value: Value) -> Optional[AccessorType]:
    return _accessor_type_of(value)


def work_group_size_of(function: Operation) -> Optional[Tuple[int, ...]]:
    """The work-group size a kernel requires (``sycl.work_group_size``,
    SYCL's ``reqd_work_group_size``), or ``None``."""
    attr = function.attributes.get("sycl.work_group_size")
    if attr is None:
        return None
    try:
        return tuple(int(a.value) for a in attr)
    except (TypeError, AttributeError):
        return None


#: Maps the printed suffix of simple dimensioned SYCL types to their class.
_DIMENSIONED_TYPES = {
    "id": IDType,
    "range": RangeType,
    "item": ItemType,
    "nd_item": NDItemType,
    "group": GroupType,
    "nd_range": NDRangeType,
}

_ACCESSOR_TYPE_RE = re.compile(
    r"sycl_accessor_(\d+)_(.+?)_(read_write|read|write)(_local)?$")
_BUFFER_TYPE_RE = re.compile(r"sycl_buffer_(\d+)_(.+)$")
_DIMENSIONED_TYPE_RE = re.compile(
    r"sycl_(nd_item|nd_range|id|range|item|group)_(\d+)$")


def parse_sycl_type(text, parse_type):
    """Dialect type-parser hook resolving printed ``!sycl_...`` types.

    ``text`` is the full raw spelling after ``!`` and may embed angle
    brackets from a parameterized element type (e.g.
    ``sycl_buffer_1_memref<4xf32>``).  Registered with
    :func:`repro.dialects.register_type_parser`; returns None for
    unrecognized spellings so the IR parser can report the error.
    """
    if text == "sycl_queue":
        return QueueType()
    if text == "sycl_handler":
        return HandlerType()
    m = _ACCESSOR_TYPE_RE.match(text)
    if m:
        target = "local" if m.group(4) else "device"
        return AccessorType(int(m.group(1)), parse_type(m.group(2)),
                            m.group(3), target)
    m = _BUFFER_TYPE_RE.match(text)
    if m:
        return BufferType(int(m.group(1)), parse_type(m.group(2)))
    m = _DIMENSIONED_TYPE_RE.match(text)
    if m:
        return _DIMENSIONED_TYPES[m.group(1)](int(m.group(2)))
    return None


#: Device operations that yield per-work-item (non-uniform) values.
NON_UNIFORM_QUERY_OPS: Tuple[str, ...] = (
    "sycl.item.get_id",
    "sycl.item.get_linear_id",
    "sycl.nd_item.get_global_id",
    "sycl.nd_item.get_global_linear_id",
    "sycl.nd_item.get_local_id",
    "sycl.nd_item.get_local_linear_id",
    "sycl.local_id",
    "sycl.global_id",
)


# ---------------------------------------------------------------------------
# Interpreter evaluators (see repro.interp)
#
# Work-item queries read the WorkItemBinding the launcher bound to the
# kernel's item argument; accessor operations resolve through the
# AccessorBinding wired to a runtime Buffer.  ``sycl.group_barrier`` is a
# generator yielding the BARRIER signal, which suspends the work item
# until every unfinished item of its group arrives.
# ---------------------------------------------------------------------------

from ..interp.memory import (  # noqa: E402
    BARRIER,
    AccessorBinding,
    MemRefStorage,
    MemRefView,
    TrapError,
    WorkItemBinding,
)
from ..interp.registry import register_evaluator  # noqa: E402


def _dim_of(args) -> int:
    return int(args[1]) if len(args) > 1 else 0


def _at(values, dim: int, what: str) -> int:
    """Bounds-checked component access for dimension queries."""
    if not 0 <= dim < len(values):
        raise TrapError(
            f"dimension {dim} out of range for {what} of rank "
            f"{len(values)}")
    return int(values[dim])


def _work_item(value) -> WorkItemBinding:
    if not isinstance(value, WorkItemBinding):
        raise TrapError(
            "work-item query outside a kernel launch (the item argument "
            f"is bound to {value!r})")
    return value


def _require_local(item: WorkItemBinding) -> WorkItemBinding:
    if item.local_id is None:
        raise TrapError(
            "work-group query on a kernel launched without a local range")
    return item


def _id_tuple(value):
    """The index tuple behind an evaluated SYCL id value."""
    if isinstance(value, tuple):
        return value
    if isinstance(value, (MemRefStorage, MemRefView)):
        loaded = value.load_flat(0) if isinstance(value, MemRefStorage) \
            else value.load((0,))
        if loaded is None:
            raise TrapError("read of an unconstructed SYCL id")
        return loaded if isinstance(loaded, tuple) else (int(loaded),)
    return (int(value),)


def _accessor_binding(value) -> AccessorBinding:
    if not isinstance(value, AccessorBinding):
        raise TrapError(
            f"accessor operation on a non-accessor value {value!r}")
    return value


@register_evaluator("sycl.constructor")
def _eval_constructor(ctx, op, args):
    destination = args[0]
    if not isinstance(destination, (MemRefStorage, MemRefView)):
        raise TrapError("sycl.constructor destination is not memory")
    constructed = tuple(int(v) for v in args[1:])
    if isinstance(destination, MemRefStorage):
        destination.store_flat(0, constructed)
    else:
        destination.store((0,), constructed)
    return []


@register_evaluator("sycl.id.get")
def _eval_id_get(ctx, op, args):
    return [_at(_id_tuple(args[0]), _dim_of(args), "the id")]


@register_evaluator("sycl.range.get")
def _eval_range_get(ctx, op, args):
    return [_at(_id_tuple(args[0]), _dim_of(args), "the range")]


@register_evaluator("sycl.range.size")
def _eval_range_size(ctx, op, args):
    total = 1
    for extent in _id_tuple(args[0]):
        total *= int(extent)
    return [total]


# -- work-item position queries ----------------------------------------------

def _eval_global_id(ctx, op, args):
    item = _work_item(args[0])
    return [_at(item.global_id, _dim_of(args), "the global id")]


register_evaluator("sycl.item.get_id", _eval_global_id)
register_evaluator("sycl.nd_item.get_global_id", _eval_global_id)
register_evaluator("sycl.global_id", _eval_global_id)


def _eval_global_linear_id(ctx, op, args):
    return [_work_item(args[0]).global_linear_id()]


register_evaluator("sycl.item.get_linear_id", _eval_global_linear_id)
register_evaluator("sycl.nd_item.get_global_linear_id",
                   _eval_global_linear_id)


def _eval_local_id(ctx, op, args):
    item = _require_local(_work_item(args[0]))
    return [_at(item.local_id, _dim_of(args), "the local id")]


register_evaluator("sycl.nd_item.get_local_id", _eval_local_id)
register_evaluator("sycl.local_id", _eval_local_id)


@register_evaluator("sycl.nd_item.get_local_linear_id")
def _eval_local_linear_id(ctx, op, args):
    return [_require_local(_work_item(args[0])).local_linear_id()]


def _eval_group_id(ctx, op, args):
    item = _require_local(_work_item(args[0]))
    return [_at(item.group_id, _dim_of(args), "the group id")]


register_evaluator("sycl.nd_item.get_group_id", _eval_group_id)
register_evaluator("sycl.group.get_group_id", _eval_group_id)


def _eval_global_range(ctx, op, args):
    item = _work_item(args[0])
    return [_at(item.global_range, _dim_of(args), "the global range")]


register_evaluator("sycl.item.get_range", _eval_global_range)
register_evaluator("sycl.nd_item.get_global_range", _eval_global_range)


def _eval_local_range(ctx, op, args):
    item = _require_local(_work_item(args[0]))
    return [_at(item.local_range, _dim_of(args), "the local range")]


register_evaluator("sycl.nd_item.get_local_range", _eval_local_range)
register_evaluator("sycl.group.get_local_range", _eval_local_range)


def _eval_group_range(ctx, op, args):
    item = _require_local(_work_item(args[0]))
    return [_at(item.group_range, _dim_of(args), "the group range")]


register_evaluator("sycl.nd_item.get_group_range", _eval_group_range)
register_evaluator("sycl.group.get_group_range", _eval_group_range)


@register_evaluator("sycl.nd_item.get_group")
def _eval_get_group(ctx, op, args):
    # The work-item binding doubles as the group handle: group queries
    # read the same position fields.
    return [_require_local(_work_item(args[0]))]


# -- accessor operations ------------------------------------------------------

@register_evaluator("sycl.accessor.subscript")
def _eval_subscript(ctx, op, args):
    binding = _accessor_binding(args[0])
    indices = _id_tuple(args[1])
    return [MemRefView(binding.storage, binding.linear_offset(indices))]


@register_evaluator("sycl.accessor.get_pointer")
def _eval_get_pointer(ctx, op, args):
    # Based at the accessor's (linearized) offset so lowered IR —
    # get_pointer + row-major index arithmetic — addresses the same
    # elements subscript does, ranged accessors included.
    binding = _accessor_binding(args[0])
    return [MemRefView(binding.storage, binding.base_linear_offset())]


@register_evaluator("sycl.accessor.get_range")
def _eval_accessor_range(ctx, op, args):
    return [_at(_accessor_binding(args[0]).access_range, _dim_of(args),
                "the accessor range")]


@register_evaluator("sycl.accessor.get_mem_range")
def _eval_accessor_mem_range(ctx, op, args):
    return [_at(_accessor_binding(args[0]).mem_range, _dim_of(args),
                "the accessor mem range")]


@register_evaluator("sycl.accessor.get_offset")
def _eval_accessor_offset(ctx, op, args):
    return [_at(_accessor_binding(args[0]).offset, _dim_of(args),
                "the accessor offset")]


@register_evaluator("sycl.accessor.size")
def _eval_accessor_size(ctx, op, args):
    total = 1
    for extent in _accessor_binding(args[0]).access_range:
        total *= extent
    return [total]


@register_evaluator("sycl.group_barrier")
def _eval_group_barrier(ctx, op, args):
    if ctx.group is None:
        raise TrapError(
            "sycl.group_barrier outside work-group execution (launch the "
            "kernel with a local range)")
    ctx.counters.barriers += 1
    yield BARRIER
    return []


def _eval_host_op(ctx, op, args):
    raise TrapError(
        f"host-side operation '{op.name}' is not executable by the device "
        "interpreter (drive the host program through the runtime instead)")


register_evaluator("sycl.host.constructor", _eval_host_op)
register_evaluator("sycl.host.schedule_kernel", _eval_host_op)
register_evaluator("sycl.host.submit", _eval_host_op)
