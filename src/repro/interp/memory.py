"""Memory model and runtime bindings of the IR interpreter.

The interpreter's memory objects bridge the gap between IR-level types
and the host runtime (:mod:`repro.runtime`):

* a :class:`MemRefStorage` backs every ``memref`` value — NumPy arrays
  for scalar element types, Python lists for aggregate elements such as
  ``!sycl_id_3`` tuples (lists also serve as the scalar fallback when
  NumPy is absent, though the runtime ``Buffer`` layer — and therefore
  kernel launches over accessors — requires NumPy);
* a :class:`MemRefView` is a rank-1 window into a storage, produced by
  ``sycl.accessor.subscript`` / ``sycl.accessor.get_pointer`` (element 0
  of the view is the addressed element, matching the dialect contract);
* an :class:`AccessorBinding` wires a kernel accessor argument to a
  :class:`repro.runtime.buffer.Buffer` through a
  :class:`repro.runtime.accessor.Accessor`, so interpreted kernels move
  data through the same host<->device transfer accounting the runtime
  models;
* a :class:`WorkItemBinding` carries the ND-range position of the work
  item currently executing (``sycl.nd_item.get_global_id`` et al. read
  it).

Control-flow signalling types (:class:`BlockResult`, :data:`BARRIER`)
live here too so dialect evaluators need only this module and
:mod:`repro.interp.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..ir import FloatType, IndexType, IntegerType, MemRefType, Type, is_float


_linearize_impl = None


def linearize(indices, extents) -> int:
    """Row-major linearization — the runtime's single implementation.

    Resolved lazily (then cached): ``repro.runtime``'s package init
    pulls in NumPy, which this module must not require at import time
    (dialect modules import it to register evaluators), and this sits on
    the per-work-item query hot path.
    """
    global _linearize_impl
    if _linearize_impl is None:
        from ..runtime.ndrange import linearize as _impl

        _linearize_impl = _impl
    return _linearize_impl(indices, extents)


#: NumPy, bound by the first :func:`_numpy_dtype` call — every array this
#: module builds goes through it.  Dialect modules import this module to
#: register evaluators, so importing NumPy here would charge its ~80 ms
#: to every compile-only process.  ``False`` once the import has failed
#: (lists are the fallback).
_np = None


def _import_numpy():
    global _np
    try:
        import numpy as _np
    except ImportError:  # pragma: no cover - numpy ships with the project
        _np = False
    return _np


class InterpreterError(Exception):
    """Raised when a module cannot be (further) interpreted."""


class TrapError(InterpreterError):
    """A well-formed program performed an invalid operation at runtime
    (out-of-bounds access, division by zero, exceeded step budget)."""


#: What a store through a ``read`` accessor traps with, on every tier:
#: the accessor's storage is a read-only array, so NumPy refuses it.
READ_ONLY_STORE = "store through read-only accessor"


# ---------------------------------------------------------------------------
# Control-flow signals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockResult:
    """Outcome of executing a block.

    ``kind`` is ``"return"`` (``func.return``), ``"yield"`` (``scf.yield``
    / ``affine.yield``), ``"condition"`` (``scf.condition``; ``values[0]``
    is the flag), ``"branch"`` (``cf.br``/``cf.cond_br``; ``values`` is
    ``(target_block, arg_values)`` and the function-level dispatch loop
    follows it) or ``"fallthrough"`` for blocks without a terminator.
    """

    kind: str
    values: Tuple = ()


class _BarrierSignal:
    """Yielded by ``sycl.group_barrier`` to suspend the work item."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<work-group barrier>"


#: The singleton barrier signal work-item generators yield.
BARRIER = _BarrierSignal()


# ---------------------------------------------------------------------------
# Element sizes
# ---------------------------------------------------------------------------

def byte_size_of(type_: Type) -> int:
    """Modelled byte size of a scalar element (index counts as 64-bit)."""
    if isinstance(type_, IntegerType):
        return max(1, type_.width // 8)
    if isinstance(type_, FloatType):
        return type_.width // 8
    if isinstance(type_, IndexType):
        return 8
    return 8


def _numpy_dtype(element_type: Type):
    numpy = _np if _np is not None else _import_numpy()
    if not numpy:
        return None
    if isinstance(element_type, FloatType):
        return numpy.float64 if element_type.width == 64 else numpy.float32
    if isinstance(element_type, (IntegerType, IndexType)):
        return numpy.int64
    return None


# ---------------------------------------------------------------------------
# Storage
# ---------------------------------------------------------------------------

class MemRefStorage:
    """Backing store for one ``memref`` value.

    Scalar element types are held in a NumPy array (or a flat Python list
    when NumPy is absent); aggregate elements (SYCL ids built by
    ``sycl.constructor``) always use a flat Python list.
    """

    def __init__(self, shape: Sequence[int], element_type: Type,
                 memory_space: str = "global",
                 array=None):
        self.shape = tuple(int(d) for d in shape)
        if any(d < 0 for d in self.shape):
            raise InterpreterError(
                "cannot allocate a memref with dynamic shape "
                f"{self.shape}; provide a static shape")
        self.element_type = element_type
        self.memory_space = memory_space
        self.element_bytes = byte_size_of(element_type)
        total = 1
        for dim in self.shape:
            total *= dim
        self._size = total
        if array is not None:
            self._array = array
            self._list = None
        else:
            dtype = _numpy_dtype(element_type)
            if dtype is not None:
                self._array = _np.zeros(self.shape, dtype=dtype)
                self._list = None
            else:
                self._array = None
                self._list = [None] * total
        # Flat *view* cached once: element accesses are the interpreter's
        # hottest path, and reshape(-1) per access allocates a fresh view
        # object.  Backing arrays are freshly allocated (or Buffer device
        # arrays, or read-only views of them), hence contiguous, so this is
        # a view, never a copy.
        self._flat = self._array.reshape(-1) if self._array is not None \
            else None

    # -- indexing -----------------------------------------------------------
    @property
    def size(self) -> int:
        return self._size

    def _linear(self, indices: Sequence[int]) -> int:
        if len(indices) != len(self.shape):
            raise TrapError(
                f"rank mismatch: {len(indices)} indices into a "
                f"{len(self.shape)}-d memref")
        linear = 0
        for idx, extent in zip(indices, self.shape):
            idx = int(idx)
            if not 0 <= idx < extent:
                raise TrapError(
                    f"index {tuple(int(i) for i in indices)} out of bounds "
                    f"for memref of shape {self.shape}")
            linear = linear * extent + idx
        return linear

    def load(self, indices: Sequence[int]):
        return self.load_flat(self._linear(indices))

    def store(self, indices: Sequence[int], value) -> None:
        self.store_flat(self._linear(indices), value)

    def load_flat(self, linear: int):
        linear = int(linear)
        if not 0 <= linear < self._size:
            raise TrapError(
                f"flat index {linear} out of bounds for memref of "
                f"{self._size} elements")
        if self._flat is not None:
            raw = self._flat[linear]
            return float(raw) if is_float(self.element_type) else int(raw)
        return self._list[linear]

    def store_flat(self, linear: int, value) -> None:
        linear = int(linear)
        if not 0 <= linear < self._size:
            raise TrapError(
                f"flat index {linear} out of bounds for memref of "
                f"{self._size} elements")
        if self._flat is not None:
            try:
                self._flat[linear] = value
            except OverflowError:
                raise TrapError(
                    f"value {value!r} exceeds the range of the "
                    f"{self.element_type} storage element") from None
            except ValueError:
                if self._flat.flags.writeable:
                    raise
                raise TrapError(READ_ONLY_STORE) from None
        else:
            self._list[linear] = value

    # -- snapshots ----------------------------------------------------------
    def snapshot(self):
        """Read-only flat contents, in the storage's dtype.

        Numeric storage comes back as a live view, not a copy: it shows
        later stores, so take it once the storage is final (the engine
        does, after an execution). Aggregate elements are copied into a
        fresh ``object`` array of tuples, which later stores do not
        reach."""
        if self._flat is not None:
            view = self._flat.view()
        else:
            view = _np.empty(self._size, dtype=object)
            for index, value in enumerate(self._list):
                view[index] = value
        view.flags.writeable = False
        return view

    def fill_from(self, values: Sequence) -> None:
        for i, value in enumerate(values):
            self.store_flat(i, value)

    @classmethod
    def for_type(cls, memref_type: MemRefType) -> "MemRefStorage":
        return cls(memref_type.shape, memref_type.element_type,
                   memref_type.memory_space)

    def __repr__(self) -> str:
        return (f"<MemRefStorage {self.shape} x {self.element_type} "
                f"({self.memory_space})>")


class MemRefView:
    """A rank-1 flat window into a :class:`MemRefStorage`.

    ``view.load([i])`` reads ``storage.flat[base + i]`` — the shape the
    ``sycl.accessor.subscript`` / ``sycl.accessor.get_pointer`` results
    take (their element 0 is the addressed element).
    """

    def __init__(self, storage: MemRefStorage, base: int = 0):
        self.storage = storage
        self.base = int(base)
        self.element_type = storage.element_type
        self.element_bytes = storage.element_bytes
        self.memory_space = storage.memory_space

    @property
    def size(self) -> int:
        """Elements reachable through the view (to the storage's end)."""
        return self.storage.size - self.base

    def load(self, indices: Sequence[int]):
        offset = int(indices[0]) if indices else 0
        return self.storage.load_flat(self.base + offset)

    def store(self, indices: Sequence[int], value) -> None:
        offset = int(indices[0]) if indices else 0
        self.storage.store_flat(self.base + offset, value)

    def load_flat(self, linear: int):
        return self.storage.load_flat(self.base + int(linear))

    def store_flat(self, linear: int, value) -> None:
        self.storage.store_flat(self.base + int(linear), value)

    def __repr__(self) -> str:
        return f"<MemRefView base={self.base} of {self.storage!r}>"


# ---------------------------------------------------------------------------
# Kernel argument bindings
# ---------------------------------------------------------------------------

class AccessorBinding:
    """An accessor kernel argument, backed by a runtime ``Accessor``.

    The storage is the buffer's *device* array (obtained through
    ``Buffer.device_array``), so interpreted kernel launches feed the
    same host<->device transfer accounting the runtime models.  A
    ``read`` accessor binds a read-only view of it: a store through one
    traps with :data:`READ_ONLY_STORE` instead of writing.
    """

    def __init__(self, accessor, element_type: Optional[Type] = None):
        from ..runtime.accessor import Accessor  # local: keep import light

        if not isinstance(accessor, Accessor):
            raise InterpreterError(
                f"AccessorBinding expects a runtime Accessor, got "
                f"{accessor!r}")
        self.accessor = accessor
        array = accessor.buffer.device_array(writable=accessor.writes)
        if not accessor.writes and array.flags.writeable:
            array = array.view()
            array.flags.writeable = False
        elem = element_type or FloatType(32)
        self.storage = MemRefStorage(array.shape, elem, "global", array=array)
        self.mem_range = tuple(int(d) for d in accessor.buffer.shape)
        self.offset = tuple(accessor.effective_offset())
        self.access_range = tuple(accessor.effective_range())

    @property
    def dimensions(self) -> int:
        return len(self.mem_range)

    def linear_offset(self, indices: Sequence[int]) -> int:
        """Row-major flat offset of ``indices`` (accessor-relative; the
        accessor offset is applied here)."""
        if len(indices) != self.dimensions:
            raise TrapError(
                f"accessor expects {self.dimensions} indices, got "
                f"{len(indices)}")
        linear = 0
        for idx, off, extent in zip(indices, self.offset, self.mem_range):
            absolute = int(idx) + off
            if not 0 <= absolute < extent:
                raise TrapError(
                    f"accessor index {tuple(int(i) for i in indices)} out "
                    f"of bounds for buffer of shape {self.mem_range}")
            linear = linear * extent + absolute
        return linear

    def base_linear_offset(self) -> int:
        """Flat offset of the accessor's zero index.

        Row-major linearization is linear in the indices, so a raw
        pointer based here plus ``linearize(id, mem_range)`` addresses
        exactly what ``subscript(id)`` does — which is what makes the
        accessor-lowering rewrite (``lower-sycl-accessors``) semantics
        preserving for ranged accessors.
        """
        return linearize(self.offset, self.mem_range)

    def __repr__(self) -> str:
        return f"<AccessorBinding {self.accessor!r}>"


@dataclass
class WorkItemBinding:
    """ND-range position of the executing work item.

    For a plain ``range`` launch (``sycl::item`` kernels) the local /
    group fields are ``None`` and the corresponding queries trap.
    """

    global_id: Tuple[int, ...]
    global_range: Tuple[int, ...]
    local_id: Optional[Tuple[int, ...]] = None
    local_range: Optional[Tuple[int, ...]] = None
    group_id: Optional[Tuple[int, ...]] = None
    group_range: Optional[Tuple[int, ...]] = None

    def global_linear_id(self) -> int:
        return linearize(self.global_id, self.global_range)

    def local_linear_id(self) -> int:
        if self.local_id is None:
            raise TrapError("kernel was launched without a local range")
        return linearize(self.local_id, self.local_range)


@dataclass
class GroupContext:
    """Shared state of one work-group during a kernel launch.

    ``local_allocs`` maps ``id(alloc op) -> storage`` so a
    work-group-local ``memref.alloc`` executed by every work item
    resolves to one shared tile per group (the Loop Internalization
    contract).
    """

    group_id: Tuple[int, ...]
    local_allocs: Dict[int, MemRefStorage] = field(default_factory=dict)


@dataclass
class ExecutionCounters:
    """What an interpretation executed (feeds ``repro-run --cost-report``
    and the interpreter benchmark scenarios)."""

    ops: int = 0
    loads: int = 0
    stores: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    barriers: int = 0
    work_items: int = 0
    calls: int = 0

    def count_load(self, element_bytes: int) -> None:
        self.loads += 1
        self.bytes_read += element_bytes

    def count_store(self, element_bytes: int) -> None:
        self.stores += 1
        self.bytes_written += element_bytes

    def as_dict(self) -> Dict[str, int]:
        return {
            "ops": self.ops,
            "loads": self.loads,
            "stores": self.stores,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "barriers": self.barriers,
            "work_items": self.work_items,
            "calls": self.calls,
        }
