"""SYCL buffers and USM allocations (host side).

A :class:`Buffer` holds a multi-dimensional array and tracks where the valid
copy lives (host or device) so the scheduler can insert data movement, just
like the buffer/accessor model described in Section II-A of the paper.

The host and the device are modelled, not separate memories: a buffer has
one array, and the transfers are counted (``bytes_to_device``,
``bytes_to_host``) where a real runtime would copy.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .ndrange import Range

_buffer_ids = itertools.count()


class Buffer:
    """A multi-dimensional data container managed by the SYCL runtime.

    A writable ndarray is copied; a read-only one is shared until the
    first write (a writable device access or :meth:`write_host`), which
    copies it once.  Read-only data therefore costs no copy at all."""

    def __init__(self, data: Union[np.ndarray, Sequence[int], Range],
                 dtype=np.float32, name: Optional[str] = None):
        if isinstance(data, np.ndarray):
            self._data = data if not data.flags.writeable \
                else np.array(data, copy=True)
        else:
            shape = tuple(data) if not isinstance(data, Range) else data.sizes
            self._data = np.zeros(shape, dtype=dtype)
        self.buffer_id = next(_buffer_ids)
        self.name = name or f"buffer{self.buffer_id}"
        #: Whether the device allocation exists (made by the first
        #: device access, which counts as a transfer).
        self._on_device = False
        #: Which copy is up to date: "host", "device" or "both".
        self._valid_on = "host"
        #: Bytes moved host<->device, tracked for the transfer model.
        self.bytes_to_device = 0
        self.bytes_to_host = 0
        #: True when the data is known constant (e.g. a filter); used by the
        #: host-device constant propagation modelling.
        self.is_constant = False

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self._data.shape)

    @property
    def dtype(self):
        return self._data.dtype

    @property
    def range(self) -> Range:
        return Range(self.shape)

    def size(self) -> int:
        return int(self._data.size)

    def size_bytes(self) -> int:
        return int(self._data.nbytes)

    def mark_constant(self) -> "Buffer":
        """Declare the buffer contents immutable (e.g. ``const`` filter data)."""
        self.is_constant = True
        return self

    def _writable(self) -> np.ndarray:
        """The array, copied first if it is still a shared read-only one."""
        if not self._data.flags.writeable:
            self._data = self._data.copy()
        return self._data

    # ------------------------------------------------------------------
    # Host access
    # ------------------------------------------------------------------
    def host_array(self) -> np.ndarray:
        """Host view of the data, synchronizing from the device if needed."""
        self.sync_to_host()
        return self._data

    def write_host(self, values: np.ndarray) -> None:
        array = np.asarray(values, dtype=self._data.dtype)
        self._writable()[...] = array.reshape(self._data.shape)
        self._valid_on = "host"

    # ------------------------------------------------------------------
    # Device access (used by the scheduler / simulator)
    # ------------------------------------------------------------------
    def device_array(self, writable: bool) -> np.ndarray:
        """Device view of the data, transferring from the host if needed.

        It is the host array itself; a writable access gets it writable."""
        if not self._on_device or self._valid_on == "host":
            self._on_device = True
            self.bytes_to_device += self.size_bytes()
        self._valid_on = "device" if writable else "both"
        return self._writable() if writable else self._data

    def sync_to_host(self) -> None:
        if self._valid_on == "device":
            self.bytes_to_host += self.size_bytes()
            self._valid_on = "both"

    def __repr__(self) -> str:
        return f"<Buffer {self.name} shape={self.shape} dtype={self.dtype}>"


class USMAllocation:
    """A unified-shared-memory allocation (``malloc_shared``-style).

    USM pointers are manipulated directly by the user; the runtime does not
    track dependencies for them (Section II-A), which is modelled by the
    queue treating USM kernel arguments as always-available device memory.
    """

    def __init__(self, shape: Union[int, Sequence[int]], dtype=np.float32,
                 kind: str = "shared", name: Optional[str] = None):
        if isinstance(shape, int):
            shape = (shape,)
        if kind not in ("shared", "device", "host"):
            raise ValueError(f"invalid USM kind {kind!r}")
        self.kind = kind
        self.data = np.zeros(tuple(shape), dtype=dtype)
        self.name = name or f"usm{next(_buffer_ids)}"
        self.freed = False

    def __repr__(self) -> str:
        return f"<USMAllocation {self.name} kind={self.kind} shape={self.data.shape}>"


class USMAllocator:
    """Factory for USM allocations bound to a queue/device."""

    def __init__(self):
        self.allocations = []

    def malloc_shared(self, shape, dtype=np.float32) -> USMAllocation:
        allocation = USMAllocation(shape, dtype, "shared")
        self.allocations.append(allocation)
        return allocation

    def malloc_device(self, shape, dtype=np.float32) -> USMAllocation:
        allocation = USMAllocation(shape, dtype, "device")
        self.allocations.append(allocation)
        return allocation

    def malloc_host(self, shape, dtype=np.float32) -> USMAllocation:
        allocation = USMAllocation(shape, dtype, "host")
        self.allocations.append(allocation)
        return allocation

    def free(self, allocation: USMAllocation) -> None:
        allocation.freed = True

    def live_allocations(self):
        return [a for a in self.allocations if not a.freed]
