"""Host-side accessor objects.

An accessor requests access to a buffer from within a command group; it
carries the dynamic information described in Section II-A of the paper: the
data pointer, the full (memory) range, an access range and an offset — plus
static information (access mode, target).  Ranged accessors view only part
of a buffer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from .buffer import Buffer, USMAllocation
from .ndrange import ID, Range

#: Valid accessor modes (subset of SYCL 2020).
ACCESS_MODES = ("read", "write", "read_write")

_accessor_ids = itertools.count()


@dataclass
class Accessor:
    """Device accessor created inside a command group."""

    buffer: Buffer
    mode: str = "read_write"
    access_range: Optional[Range] = None
    offset: Optional[ID] = None
    name: Optional[str] = None
    accessor_id: int = field(default_factory=lambda: next(_accessor_ids))

    def __post_init__(self):
        if self.mode not in ACCESS_MODES:
            raise ValueError(f"invalid access mode {self.mode!r}")
        if self.access_range is not None and not isinstance(self.access_range, Range):
            self.access_range = Range(self.access_range)
        if self.offset is not None and not isinstance(self.offset, ID):
            self.offset = ID(self.offset)
        if self.name is None:
            self.name = f"acc_{self.buffer.name}"

    # ------------------------------------------------------------------
    @property
    def is_ranged(self) -> bool:
        return self.access_range is not None or self.offset is not None

    @property
    def dimensions(self) -> int:
        return len(self.buffer.shape)

    @property
    def mem_range(self) -> Range:
        return Range(self.buffer.shape)

    def effective_range(self) -> Range:
        return self.access_range or self.mem_range

    def effective_offset(self) -> Tuple[int, ...]:
        if self.offset is None:
            return tuple(0 for _ in self.buffer.shape)
        return self.offset.indices

    @property
    def is_read_only(self) -> bool:
        return self.mode == "read"

    @property
    def writes(self) -> bool:
        return self.mode in ("write", "read_write")

    def element_size(self) -> int:
        return int(self.buffer.dtype.itemsize)

    def __repr__(self) -> str:
        return (f"<Accessor {self.name} mode={self.mode} "
                f"range={self.effective_range()}>")


@dataclass
class LocalAccessor:
    """Work-group local memory allocation request (``local_accessor``)."""

    shape: Tuple[int, ...]
    dtype: type = np.float32
    name: Optional[str] = None
    accessor_id: int = field(default_factory=lambda: next(_accessor_ids))

    def __post_init__(self):
        if isinstance(self.shape, (int, np.integer)):
            self.shape = (int(self.shape),)
        else:
            self.shape = tuple(int(s) for s in self.shape)
        if self.name is None:
            self.name = f"local{self.accessor_id}"

    @property
    def dimensions(self) -> int:
        return len(self.shape)

    def size_bytes(self) -> int:
        total = 1
        for s in self.shape:
            total *= s
        return total * np.dtype(self.dtype).itemsize

    def __repr__(self) -> str:
        return f"<LocalAccessor {self.name} shape={self.shape}>"


#: Kernel arguments may be accessors, local accessors, USM allocations or
#: plain scalars.
KernelArgument = Union[Accessor, LocalAccessor, USMAllocation, int, float, bool]
