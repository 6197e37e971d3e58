"""Simulated device descriptions.

The paper evaluates on an Intel Data Center GPU Max 1100.  We cannot run on
that hardware, so the device here is a parameterized analytical model whose
parameters are set to publicly-known characteristics of that GPU class; the
GPU cost model in :mod:`repro.execution.gpu_model` turns per-work-item event
counts into modelled kernel times using these parameters.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DeviceSpec:
    """Parameters of the simulated accelerator."""

    name: str = "Simulated GPU"
    #: Number of compute units (Xe cores / EU groups) executing in parallel.
    compute_units: int = 56
    #: SIMD width of one hardware thread (sub-group size).
    simd_width: int = 16
    #: Clock frequency in GHz.
    clock_ghz: float = 1.55
    #: Arithmetic operations per compute unit per clock (per SIMD lane set).
    ops_per_clock_per_cu: float = 128.0
    #: Sustainable global-memory bandwidth in GiB/s.
    global_bandwidth_gib: float = 1100.0
    #: Global memory transaction granularity in bytes (cache-line).
    transaction_bytes: int = 64
    #: Additional latency per uncoalesced transaction, cycles.
    global_latency_cycles: float = 400.0
    #: Work-group local (shared) memory bandwidth in GiB/s (aggregate).
    local_bandwidth_gib: float = 8000.0
    #: Local memory size per work-group in KiB.
    local_memory_kib: int = 128
    #: Barrier cost in cycles per work-group.
    barrier_cycles: float = 40.0
    #: Constant-memory / replicated scalar access cost factor relative to a
    #: register access (used for host-propagated constant buffers).
    constant_access_factor: float = 0.05
    #: Host-side overhead per kernel launch, microseconds.
    launch_overhead_us: float = 8.0
    #: Additional launch overhead per kernel argument, microseconds.
    per_argument_overhead_us: float = 0.15
    #: Device global memory size in GiB (for completeness / validation).
    global_memory_gib: int = 48

    def peak_ops_per_second(self) -> float:
        return self.compute_units * self.ops_per_clock_per_cu * self.clock_ghz * 1e9

    def global_bytes_per_second(self) -> float:
        return self.global_bandwidth_gib * (1 << 30)

    def local_bytes_per_second(self) -> float:
        return self.local_bandwidth_gib * (1 << 30)


def intel_data_center_gpu_max_1100() -> DeviceSpec:
    """Device model approximating the paper's evaluation GPU."""
    return DeviceSpec(
        name="Intel Data Center GPU Max 1100 (modelled)",
        compute_units=56,
        simd_width=16,
        clock_ghz=1.55,
        ops_per_clock_per_cu=128.0,
        global_bandwidth_gib=1100.0,
        transaction_bytes=64,
        global_latency_cycles=400.0,
        local_bandwidth_gib=9000.0,
        local_memory_kib=128,
        barrier_cycles=40.0,
        launch_overhead_us=8.0,
        per_argument_overhead_us=0.15,
        global_memory_gib=48,
    )


def small_test_device() -> DeviceSpec:
    """A tiny device used in unit tests (keeps modelled times readable)."""
    return DeviceSpec(
        name="Unit-test GPU",
        compute_units=4,
        simd_width=4,
        clock_ghz=1.0,
        ops_per_clock_per_cu=4.0,
        global_bandwidth_gib=16.0,
        local_bandwidth_gib=128.0,
        launch_overhead_us=1.0,
    )
