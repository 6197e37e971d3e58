"""SYCL runtime substrate: buffers, accessors, index spaces and devices.

These objects are no longer purely descriptive: the IR interpreter
(:mod:`repro.interp`) binds kernel accessor arguments to
:class:`Buffer`/:class:`Accessor` pairs (moving data through the same
host<->device transfer accounting), launches over :class:`Range` /
:class:`NDRange` iteration spaces, and ``repro-run --cost-report`` turns
executed-op counts into a roofline estimate against a :class:`DeviceSpec`.
"""

from .accessor import (
    ACCESS_MODES,
    Accessor,
    KernelArgument,
    LocalAccessor,
)
from .buffer import Buffer, USMAllocation, USMAllocator
from .device import (
    DeviceSpec,
    intel_data_center_gpu_max_1100,
    small_test_device,
)
from .ndrange import ID, NDRange, Range, delinearize, linearize

__all__ = [
    "ACCESS_MODES", "Accessor", "KernelArgument", "LocalAccessor",
    "Buffer", "USMAllocation", "USMAllocator",
    "DeviceSpec", "intel_data_center_gpu_max_1100",
    "small_test_device",
    "ID", "NDRange", "Range", "delinearize", "linearize",
]
