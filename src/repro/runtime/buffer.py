"""SYCL buffers and USM allocations (host side).

A :class:`Buffer` owns a multi-dimensional array and tracks where the valid
copy lives (host or device) so the scheduler can insert data movement, just
like the buffer/accessor model described in Section II-A of the paper.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .ndrange import Range

_buffer_ids = itertools.count()


class Buffer:
    """A multi-dimensional data container managed by the SYCL runtime."""

    def __init__(self, data: Union[np.ndarray, Sequence[int], Range],
                 dtype=np.float32, name: Optional[str] = None):
        if isinstance(data, np.ndarray):
            self._host_data = np.array(data, copy=True)
        else:
            shape = tuple(data) if not isinstance(data, Range) else data.sizes
            self._host_data = np.zeros(shape, dtype=dtype)
        self.buffer_id = next(_buffer_ids)
        self.name = name or f"buffer{self.buffer_id}"
        #: Device-side copy (lazily created by the scheduler).
        self._device_data: Optional[np.ndarray] = None
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
        return tuple(self._host_data.shape)

    @property
    def dtype(self):
        return self._host_data.dtype

    @property
    def range(self) -> Range:
        return Range(self.shape)

    def size(self) -> int:
        return int(self._host_data.size)

    def size_bytes(self) -> int:
        return int(self._host_data.nbytes)

    def mark_constant(self) -> "Buffer":
        """Declare the buffer contents immutable (e.g. ``const`` filter data)."""
        self.is_constant = True
        return self

    # ------------------------------------------------------------------
    # Host access
    # ------------------------------------------------------------------
    def host_array(self) -> np.ndarray:
        """Host view of the data, synchronizing from the device if needed."""
        self.sync_to_host()
        return self._host_data

    def write_host(self, values: np.ndarray) -> None:
        array = np.asarray(values, dtype=self._host_data.dtype)
        self._host_data[...] = array.reshape(self._host_data.shape)
        self._valid_on = "host"

    # ------------------------------------------------------------------
    # Device access (used by the scheduler / simulator)
    # ------------------------------------------------------------------
    def device_array(self, writable: bool) -> np.ndarray:
        """Device view of the data, transferring from the host if needed."""
        if self._device_data is None:
            self._device_data = np.array(self._host_data, copy=True)
            self.bytes_to_device += self.size_bytes()
        elif self._valid_on == "host":
            self._device_data[...] = self._host_data
            self.bytes_to_device += self.size_bytes()
        self._valid_on = "device" if writable else "both"
        return self._device_data

    def sync_to_host(self) -> None:
        if self._valid_on == "device" and self._device_data is not None:
            self._host_data[...] = self._device_data
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
