"""Direct tests for the runtime package (buffers, accessors, index
spaces, devices) — previously only exercised indirectly."""

import numpy as np
import pytest

from repro.runtime import (
    ID,
    Accessor,
    Buffer,
    LocalAccessor,
    NDRange,
    Range,
    USMAllocator,
    delinearize,
    intel_data_center_gpu_max_1100,
    linearize,
    small_test_device,
)


class TestRange:
    def test_construction_forms(self):
        assert Range(4).sizes == (4,)
        assert Range(2, 3).sizes == (2, 3)
        assert Range((2, 3, 4)).sizes == (2, 3, 4)

    def test_size_and_indexing(self):
        r = Range(2, 3, 4)
        assert r.size() == 24
        assert r.dimensions == 3
        assert r[1] == 3 and r.get(2) == 4
        assert list(r) == [2, 3, 4]

    def test_validation(self):
        with pytest.raises(ValueError):
            Range(1, 2, 3, 4)
        with pytest.raises(ValueError):
            Range(-1)

    def test_id(self):
        i = ID(1, 2)
        assert i.indices == (1, 2)
        assert i.get(0) == 1 and i[1] == 2


class TestNDRange:
    def test_group_range_and_counts(self):
        nd = NDRange((8, 8), (4, 4))
        assert nd.group_range.sizes == (2, 2)
        assert nd.num_work_items() == 64
        assert nd.num_work_groups() == 4
        assert nd.work_group_size() == 16

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NDRange((8, 8), (4,))

    def test_indivisible_local_rejected(self):
        with pytest.raises(ValueError):
            NDRange((8,), (3,))
        with pytest.raises(ValueError):
            NDRange((8,), (0,))

    def test_linearize_roundtrip(self):
        extents = (3, 4, 5)
        for linear in range(3 * 4 * 5):
            indices = delinearize(linear, extents)
            assert linearize(indices, extents) == linear


class TestBuffer:
    def test_from_ndarray_copies(self):
        source = np.arange(6, dtype=np.float32).reshape(2, 3)
        buffer = Buffer(source)
        source[0, 0] = 99.0
        assert buffer.host_array()[0, 0] == 0.0
        assert buffer.shape == (2, 3)
        assert buffer.range.sizes == (2, 3)

    def test_a_read_only_array_is_shared_until_the_first_write(self):
        source = np.arange(4, dtype=np.float32)
        source.flags.writeable = False
        buffer = Buffer(source)
        assert np.shares_memory(buffer.host_array(), source)
        assert np.shares_memory(buffer.device_array(writable=False), source)
        device = buffer.device_array(writable=True)
        assert not np.shares_memory(device, source)
        device[0] = 7.0
        assert source[0] == 0.0 and buffer.host_array()[0] == 7.0
        # One transfer: the copy on write moves nothing host<->device.
        assert buffer.bytes_to_device == buffer.size_bytes()

    def test_write_host_copies_a_shared_array_first(self):
        source = np.zeros(2, dtype=np.float32)
        source.flags.writeable = False
        buffer = Buffer(source)
        buffer.write_host(np.array([1.0, 2.0], dtype=np.float32))
        assert list(buffer.host_array()) == [1.0, 2.0]
        assert not source.any()

    def test_device_and_host_are_one_array(self):
        buffer = Buffer(np.ones(4, dtype=np.float32))
        device = buffer.device_array(writable=True)
        assert device is buffer.host_array()
        assert buffer.device_array(writable=False) is device

    def test_from_shape_zero_filled(self):
        buffer = Buffer((4,), dtype=np.int64, name="z")
        assert buffer.name == "z"
        assert buffer.size() == 4
        assert buffer.size_bytes() == 32
        assert not buffer.host_array().any()

    def test_device_transfer_accounting(self):
        buffer = Buffer(np.ones(4, dtype=np.float32))
        device = buffer.device_array(writable=True)
        assert buffer.bytes_to_device == buffer.size_bytes()
        device[0] = 7.0
        assert buffer.host_array()[0] == 7.0
        assert buffer.bytes_to_host == buffer.size_bytes()

    def test_write_host_invalidates_device(self):
        buffer = Buffer((2,))
        buffer.device_array(writable=True)
        buffer.write_host(np.array([1.0, 2.0], dtype=np.float32))
        assert list(buffer.device_array(writable=False)) == [1.0, 2.0]

    def test_mark_constant(self):
        assert Buffer((1,)).mark_constant().is_constant


class TestAccessor:
    def test_defaults_from_buffer(self):
        buffer = Buffer((4, 6), name="data")
        accessor = Accessor(buffer)
        assert accessor.dimensions == 2
        assert accessor.mem_range.sizes == (4, 6)
        assert accessor.effective_range().sizes == (4, 6)
        assert accessor.effective_offset() == (0, 0)
        assert accessor.name == "acc_data"
        assert accessor.writes and not accessor.is_read_only

    def test_ranged_accessor(self):
        buffer = Buffer((8, 8))
        accessor = Accessor(buffer, "read", access_range=(2, 2),
                            offset=(1, 3))
        assert accessor.is_ranged
        assert accessor.effective_range().sizes == (2, 2)
        assert accessor.effective_offset() == (1, 3)
        assert accessor.is_read_only

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            Accessor(Buffer((1,)), "append")

    def test_element_size(self):
        assert Accessor(Buffer((1,), dtype=np.float64)).element_size() == 8

    def test_local_accessor_shapes(self):
        assert LocalAccessor(4).shape == (4,)
        tile = LocalAccessor((4, 4), dtype=np.float32)
        assert tile.dimensions == 2
        assert tile.size_bytes() == 64


class TestUSM:
    def test_allocator_tracks_live_allocations(self):
        allocator = USMAllocator()
        shared = allocator.malloc_shared(4)
        device = allocator.malloc_device((2, 2))
        host = allocator.malloc_host(1)
        assert {a.kind for a in (shared, device, host)} == \
            {"shared", "device", "host"}
        allocator.free(device)
        live = allocator.live_allocations()
        assert shared in live and host in live and device not in live


class TestDeviceSpecs:
    def test_small_test_device_peaks(self):
        spec = small_test_device()
        assert spec.peak_ops_per_second() == 4 * 4.0 * 1.0 * 1e9
        assert spec.global_bytes_per_second() == 16.0 * (1 << 30)

    def test_modelled_gpu_parameters(self):
        spec = intel_data_center_gpu_max_1100()
        assert spec.compute_units == 56
        assert spec.peak_ops_per_second() > 1e13
        assert spec.local_bytes_per_second() > \
            spec.global_bytes_per_second()
