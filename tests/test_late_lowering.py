"""Late lowering: ``sycl-mlir`` ends with ``lower-sycl-accessors``.

The paper's ordering is *optimise with SYCL semantics, lower them
afterwards*.  These tests pin both halves: the SYCL passes still see
accessor subscripts (their statistics are what they were before the
pipeline lowered at all), and what leaves the pipeline is the same
raw-pointer form the ``dpcpp`` baseline produces — so the dynamic
counts of the two are comparable, and ours are no worse on any
structured program.
"""

import gc
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.dialects import arith, builtin, func, llvm, scf
from repro.dialects.sycl import (
    AccessorType,
    BufferType,
    IDType,
    NDRangeType,
    RangeType,
    SYCLHostScheduleKernelOp,
)
from repro.frontend.kernel_builder import AccessorParam, KernelSource
from repro.interp import ExecutionEngine, ExecutionSpec, run_differential
from repro.ir import (
    EffectKind,
    MemRefType,
    PointerType,
    Printer,
    f32,
    get_memory_effects,
    i64,
    int_array_attr,
    parse_module,
    verify,
)
from repro.ir.operations import version_stamp
from repro.analysis.sycl_alias import (
    SYCLAliasAnalysis,
    _constant_subscript_index,
)
from repro.runtime import ID, Accessor, Buffer, Range
from repro.transforms import (
    CompileReport,
    HostDeviceOptimizationPass,
    HostRaisingPass,
    KernelLaunchInfo,
    OpPassManager,
    PassManager,
    build_named_pipeline,
)
from repro.transforms import loop_internalization
from repro.transforms.licm import ALIAS_CHOICES, LoopInvariantCodeMotion
from repro.transforms.loop_internalization import LoopInternalization
from repro.transforms.lower_sycl import LowerAccessorSubscripts
from repro.transforms.pipeline_specs import NAMED_PIPELINE_SPECS
from repro.transforms.pipelines import parse_pass_pipeline

from .helpers import (
    ABLATIONS,
    ablated,
    build_gemm_module,
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    e2e_programs,
    listing_execution_specs,
    wrap_in_module,
)

TIERS = ("interp", "jit", "vector")


# ---------------------------------------------------------------------------
# Inputs: the listings, GEMM, a host+device module and the eight e2e shapes
# ---------------------------------------------------------------------------

def _acc(name, dims, mode):
    return AccessorParam(name, dims, f32(), mode)


def _kernel(name, body, dims, accessors, nd_item=False, work_group=None):
    function = KernelSource(name, body=body, nd_range_dims=dims,
                            uses_nd_item=nd_item,
                            accessors=accessors).build()
    if work_group:
        function.set_attr("sycl.work_group_size",
                          int_array_attr(list(work_group), i64()))
    return function


def _vec_add(n=16):
    def body(k):
        i = k.global_id(0)
        k.store("c", [i], k.load("a", [i]) + k.load("b", [i]) * 1.5)

    return (_kernel("vec_add", body, 1,
                    [_acc("a", 1, "read"), _acc("b", 1, "read"),
                     _acc("c", 1, "write")]),
            ExecutionSpec(global_size=(n,),
                          buffers={"a": (n,), "b": (n,), "c": (n,)}))


def _gemm(n=8, depth=8, wg=4, name="gemm"):
    def body(k):
        i = k.global_id(0)
        j = k.global_id(1)
        with k.loop(0, depth) as kk:
            value = k.load("C", [i, j]) \
                + k.load("A", [i, kk]) * k.load("B", [kk, j])
            k.store("C", [i, j], value)

    return (_kernel(name, body, 2,
                    [_acc("A", 2, "read"), _acc("B", 2, "read"),
                     _acc("C", 2, "read_write")],
                    nd_item=True, work_group=(wg, wg)),
            ExecutionSpec(global_size=(n, n), local_size=(wg, wg),
                          buffers={"A": (n, depth), "B": (depth, n),
                                   "C": (n, n)}))


def _syrk(n=8, depth=16, wg=4, name="syrk"):
    def body(k):
        i = k.global_id(0)
        j = k.global_id(1)
        with k.loop(0, depth) as kk:
            value = k.load("C", [i, j]) \
                + k.load("A", [i, kk]) * k.load("A", [j, kk]) * 0.75
            k.store("C", [i, j], value)

    return (_kernel(name, body, 2,
                    [_acc("A", 2, "read"), _acc("C", 2, "read_write")],
                    nd_item=True, work_group=(wg, wg)),
            ExecutionSpec(global_size=(n, n), local_size=(wg, wg),
                          buffers={"A": (n, depth), "C": (n, n)}))


def _gemm3(n=8, depth=16, wg=4):
    """``C += A @ B * D``: three candidate loads, one reduction."""
    def body(k):
        i = k.global_id(0)
        j = k.global_id(1)
        with k.loop(0, depth) as kk:
            value = k.load("C", [i, j]) + k.load("A", [i, kk]) \
                * k.load("B", [kk, j]) * k.load("D", [i, kk])
            k.store("C", [i, j], value)

    return (_kernel("gemm3", body, 2,
                    [_acc("A", 2, "read"), _acc("B", 2, "read"),
                     _acc("D", 2, "read"), _acc("C", 2, "read_write")],
                    nd_item=True, work_group=(wg, wg)),
            ExecutionSpec(global_size=(n, n), local_size=(wg, wg),
                          buffers={"A": (n, depth), "B": (depth, n),
                                   "D": (n, depth), "C": (n, n)}))


def _product(n=8, depth=16, wg=4):
    """``O[i, j] = A[i, k] * B[k, j]`` on every trip: no reduction."""
    def body(k):
        i = k.global_id(0)
        j = k.global_id(1)
        with k.loop(0, depth) as kk:
            k.store("O", [i, j], k.load("A", [i, kk]) * k.load("B", [kk, j]))

    return (_kernel("product", body, 2,
                    [_acc("A", 2, "read"), _acc("B", 2, "read"),
                     _acc("O", 2, "write")],
                    nd_item=True, work_group=(wg, wg)),
            ExecutionSpec(global_size=(n, n), local_size=(wg, wg),
                          buffers={"A": (n, depth), "B": (depth, n),
                                   "O": (n, n)}))

def _mvt(n=8, depth=8):
    def body(k):
        i = k.global_id(0)
        with k.loop(0, depth) as j:
            value = k.load("x", [i]) + k.load("A", [i, j]) * k.load("y", [j])
            k.store("x", [i], value)

    return (_kernel("mvt", body, 1,
                    [_acc("A", 2, "read"), _acc("y", 1, "read"),
                     _acc("x", 1, "read_write")]),
            ExecutionSpec(global_size=(n,),
                          buffers={"A": (n, depth), "y": (depth,),
                                   "x": (n,)}))


def _nbody(n=8, bodies=8):
    def body(k):
        i = k.global_id(0)
        with k.loop(0, bodies) as j:
            delta = k.load("pos", [j]) - k.load("pos", [i])
            inverse = k.rsqrt(delta * delta + 0.5)
            force = k.load("acc", [i]) \
                + delta * k.load("mass", [j]) * inverse * inverse * inverse
            k.store("acc", [i], force)

    return (_kernel("nbody", body, 1,
                    [_acc("pos", 1, "read"), _acc("mass", 1, "read"),
                     _acc("acc", 1, "read_write")]),
            ExecutionSpec(global_size=(n,),
                          buffers={"pos": (max(n, bodies),),
                                   "mass": (max(n, bodies),),
                                   "acc": (n,)}))


def _kmeans(n=16, clusters=4):
    def body(k):
        i = k.global_id(0)
        px = k.load("px", [i])
        py = k.load("py", [i])
        with k.loop(0, clusters) as c:
            dx = px - k.load("cx", [c])
            dy = py - k.load("cy", [c])
            distance = dx * dx + dy * dy
            best = k.load("best", [i])
            closer = distance < best
            k.store("best", [i], closer.select(distance, best))
            k.store("label", [i],
                    closer.select(c.to_int().to_float(),
                                  k.load("label", [i])))

    return (_kernel("kmeans", body, 1,
                    [_acc("px", 1, "read"), _acc("py", 1, "read"),
                     _acc("cx", 1, "read"), _acc("cy", 1, "read"),
                     _acc("best", 1, "read_write"),
                     _acc("label", 1, "read_write")]),
            ExecutionSpec(global_size=(n,),
                          buffers={"px": (n,), "py": (n,),
                                   "cx": (clusters,), "cy": (clusters,),
                                   "best": (n,), "label": (n,)}))


_MEDIAN9 = ((1, 2), (4, 5), (7, 8), (0, 1), (3, 4), (6, 7), (1, 2), (4, 5),
            (7, 8), (0, 3), (5, 8), (4, 7), (3, 6), (1, 4), (2, 5), (4, 7),
            (4, 2), (6, 4), (4, 2))


def _median(n=4):
    def body(k):
        i = k.global_id(0)
        j = k.global_id(1)
        window = k.private_array(9)
        slot = 0
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                row = (i + (n + di)) % n
                column = (j + (n + dj)) % n
                k.private_store(window, slot, k.load("src", [row, column]))
                slot += 1
        for low, high in _MEDIAN9:
            a = k.private_load(window, low)
            b = k.private_load(window, high)
            k.private_store(window, low, k.minimum(a, b))
            k.private_store(window, high, k.maximum(a, b))
        k.store("dst", [i, j], k.private_load(window, 4) * 1.25)

    return (_kernel("median", body, 2,
                    [_acc("src", 2, "read"), _acc("dst", 2, "write")]),
            ExecutionSpec(global_size=(n, n),
                          buffers={"src": (n, n), "dst": (n, n)}))


def _sobel(n=6):
    """The divergent one: every subscript sits inside an ``scf.if``."""
    gx = ((-1, 0, 1), (-2, 0, 2), (-1, 0, 1))

    def body(k):
        i = k.global_id(0)
        j = k.global_id(1)
        inside = (i > 0) & (i < n - 1) & (j > 0) & (j < n - 1)
        with k.if_then(inside):
            horizontal = vertical = None
            for di in range(3):
                for dj in range(3):
                    pixel = None
                    for weight, which in ((gx[di][dj], "h"),
                                          (gx[dj][di], "v")):
                        if weight == 0:
                            continue
                        if pixel is None:
                            pixel = k.load("src", [i + (di - 1),
                                                   j + (dj - 1)])
                        term = pixel * float(weight)
                        if which == "h":
                            horizontal = term if horizontal is None \
                                else horizontal + term
                        else:
                            vertical = term if vertical is None \
                                else vertical + term
            magnitude = k.sqrt(horizontal * horizontal
                               + vertical * vertical)
            k.store("dst", [i, j], magnitude * 0.5)

    return (_kernel("sobel", body, 2,
                    [_acc("src", 2, "read"), _acc("dst", 2, "read_write")]),
            ExecutionSpec(global_size=(n, n),
                          buffers={"src": (n, n), "dst": (n, n)}))


SHAPES = {
    "vec_add": _vec_add, "gemm": _gemm, "syrk": _syrk, "mvt": _mvt,
    "nbody": _nbody, "kmeans": _kmeans, "median": _median, "sobel": _sobel,
    # Work-groups of 8: the shapes ``sycl-mlir`` tiles through local
    # memory (a tile of 4 keeps ``C`` in a register untiled instead).
    "gemm_tiled": lambda: _gemm(wg=8, name="gemm_tiled"),
    "syrk_tiled": lambda: _syrk(wg=8, name="syrk_tiled"),
}


def _shape_module(name):
    function, spec = SHAPES[name]()
    return wrap_in_module(function), {name: spec}


def _listings_module():
    return wrap_in_module(*[build()[0] for build in (
        build_listing1_function, build_listing2_function,
        build_listing3_function)]), listing_execution_specs()


def _host_device_module():
    """A GEMM launched from LLVM-dialect host code: the work-group size
    and the disjoint accessors reach the kernel only through host raising
    and host->device propagation (the kernel carries no attribute)."""
    n, wg = 8, 4
    kernel, spec = _gemm(n, n, wg, name="gemm_k")
    del kernel.attributes["sycl.work_group_size"]
    device = builtin.ModuleOp.build("kernels")
    device.append(kernel)
    host = llvm.LLVMFuncOp.build("main", [PointerType()],
                                 arg_names=["handler"])
    handler = host.arguments[0]

    def emit(op):
        host.body.append(op)
        return op

    def constant(value):
        return emit(llvm.LLVMConstantOp.build(value, i64())).result

    one = constant(1)

    def construct(callee, label, type_, args):
        destination = emit(llvm.LLVMAllocaOp.build(one, label, type_)).result
        emit(llvm.LLVMCallOp.build(callee, [destination, *args]))
        return destination

    def make_range(label, extents):
        return construct("_ZN4sycl3_V15rangeILi2EEC2Emm", label,
                         RangeType(2), [constant(e) for e in extents])

    nd_range = construct(
        "_ZN4sycl3_V18nd_rangeILi2EEC2ENS0_5rangeILi2EEES4_", "ndrange",
        NDRangeType(2),
        [make_range("global", (n, n)), make_range("local", (wg, wg))])
    accessors = []
    for name, mode in (("A", "read"), ("B", "read"), ("C", "read_write")):
        buffer = construct(
            "_ZN4sycl3_V16bufferIfLi2EEC2ERKNS0_5rangeILi2EEE",
            f"{name}_buf", BufferType(2, f32()),
            [make_range(f"{name}_range", (n, n))])
        accessors.append(construct(
            "_ZN4sycl3_V18accessorIfLi2EEC2ERNS0_6bufferIfLi2EEE"
            "RNS0_7handlerE",
            f"{name}_acc", AccessorType(2, f32(), mode), [buffer, handler]))
    call = emit(llvm.LLVMCallOp.build(
        "_ZN4sycl3_V17handler12parallel_forIgemm_kEvT_",
        [handler, nd_range, *accessors]))
    call.set_attr("num_range_operands", arith.IntegerAttr(1, i64()))
    emit(llvm.LLVMReturnOp.build())
    module = builtin.ModuleOp.build("host_device")
    module.append(device)
    module.append(host)
    verify(module)
    return module, {"gemm_k": spec}


def _all_inputs():
    """``label -> (module, specs)``, freshly built."""
    inputs = {"listings": _listings_module(),
              "gemm_helper": build_gemm_module(),
              "host_device": _host_device_module()}
    for name in SHAPES:
        inputs[name] = _shape_module(name)
    return inputs


INPUT_LABELS = sorted(_all_inputs())


def _kernels(module):
    return [op for op in module.walk() if op.name == "func.func"]


def _op_names(module):
    return [op.name for op in module.walk()]


def _optimized(module, pipeline="sycl-mlir", manager=None):
    clone = module.clone({})
    report = CompileReport()
    if manager is None:
        manager = build_named_pipeline(pipeline)
    manager.run(clone, report=report)
    verify(clone)
    return clone, report


def _is_id_memref(type_):
    return isinstance(type_, MemRefType) \
        and isinstance(type_.element_type, IDType)


def _assert_lowered(module):
    for op in module.walk():
        assert op.name != "sycl.accessor.subscript", op
        if op.name == "sycl.constructor":
            assert not _is_id_memref(op.operands[0].type), op
        if op.name == "memref.alloca":
            assert not _is_id_memref(op.results[0].type), op


# ---------------------------------------------------------------------------
# (a) what leaves the pipeline is lowered
# ---------------------------------------------------------------------------

class TestPipelineEndsLowered:
    def test_spec_ends_with_lowering_and_a_second_licm_round(self):
        assert NAMED_PIPELINE_SPECS["sycl-mlir"].endswith(
            "sycl-licm,detect-reduction,lower-sycl-accessors,"
            "canonicalize,cse,sycl-licm,dce))")
        # The third device pipeline is counted in the same form.
        assert NAMED_PIPELINE_SPECS["adaptivecpp-jit"].endswith(
            "detect-reduction{alias=runtime-checked},lower-sycl-accessors,"
            "canonicalize,cse,sycl-licm{alias=runtime-checked},dce))")

    @pytest.mark.parametrize("label", INPUT_LABELS)
    def test_no_sycl_bookkeeping_survives(self, label):
        module, _ = _all_inputs()[label]
        assert any(op.name == "sycl.accessor.subscript"
                   for op in module.walk()), "input must exercise lowering"
        optimized, report = _optimized(module)
        # Listing 3's only load is dead: canonicalize takes it, and its
        # subscript with it, before the lowering runs.
        assert report.get_statistic(
            "lower-sycl-accessors", "subscripts_lowered") \
            >= (label != "listings")
        _assert_lowered(optimized)

        # ... so the instance lower-to-llvm keeps for hand-written input
        # finds nothing left to do.
        again = CompileReport()
        before = Printer().print_module(optimized)
        parse_pass_pipeline("func.func(lower-sycl-accessors)").run(
            optimized, report=again)
        assert again.get_statistic("lower-sycl-accessors",
                                   "subscripts_lowered") == 0
        assert Printer().print_module(optimized) == before

    def test_adaptivecpp_jit_equals_dpcpp_op_for_op(self):
        for name in SHAPES:
            module, specs = _shape_module(name)
            counts = []
            for pipeline in ("adaptivecpp-jit", "dpcpp"):
                optimized, _ = _optimized(module, pipeline)
                _assert_lowered(optimized)
                counts.append(ExecutionEngine(optimized, tier="jit").run(
                    name, specs[name]).counters)
            assert counts[0] == counts[1], name


# ---------------------------------------------------------------------------
# (b) the paper passes still run on SYCL-dialect IR, before the lowering
# ---------------------------------------------------------------------------

#: The pipeline up to (not including) ``lower-sycl-accessors``.
SYCL_STAGE = ("builtin.module(func.func(canonicalize,cse,mem2reg),"
              "host-raising,host-device-propagation,func.func(canonicalize,"
              "loop-internalization,sycl-licm,detect-reduction))")

#: ``(loops_internalized, ops_hoisted by the first LICM,
#: reductions_detected, reductions_kept by Loop Internalization)`` — the
#: values of the pipeline that never lowered, except ``ops_hoisted`` of
#: the internalized kernels: 14 -> 10 (GEMM) and 16 -> 14 (SYRK) are the
#: ``group_id * tile + local_id`` pairs Loop Internalization no longer
#: emits for a row's own dimension.  The kernels tiled by 8 keep
#: ``C[i, j]`` in a register across the tile loop, so Detect Reduction
#: finds nothing left.  Those with work-groups of 4 are not internalized:
#: Detect Reduction keeps ``C[i, j]`` in a register without the tile
#: (the work-group shares the reads of ``A`` and ``B``, so they cannot
#: alias it; for ``host_device`` the host proves them disjoint), and a
#: tile of 4 would only add ops and bytes.
SYCL_STAGE_STATISTICS = {
    "listings": (0, 0, 0, 0), "gemm_helper": (0, 8, 1, 0),
    "host_device": (0, 8, 1, 0), "vec_add": (0, 0, 0, 0),
    "gemm": (0, 8, 1, 0), "syrk": (0, 9, 1, 0), "mvt": (0, 8, 0, 0),
    "nbody": (0, 12, 0, 0), "kmeans": (0, 14, 0, 0), "median": (0, 0, 0, 0),
    "sobel": (0, 0, 0, 0), "gemm_tiled": (1, 10, 0, 1),
    "syrk_tiled": (1, 14, 0, 1),
}


class TestPaperPassesFireBeforeLowering:
    def test_sycl_stage_is_a_prefix_of_the_pipeline(self):
        prefix = SYCL_STAGE[:-2]
        assert NAMED_PIPELINE_SPECS["sycl-mlir"].startswith(
            prefix + ",lower-sycl-accessors")

    @pytest.mark.parametrize("label", INPUT_LABELS)
    def test_statistics_of_the_sycl_stage(self, label):
        module, _ = _all_inputs()[label]
        report = CompileReport()
        parse_pass_pipeline(SYCL_STAGE).run(module, report=report)
        assert (report.get_statistic("loop-internalization",
                                     "loops_internalized"),
                report.get_statistic("sycl-licm", "ops_hoisted"),
                report.get_statistic("detect-reduction",
                                     "reductions_detected"),
                report.get_statistic("loop-internalization",
                                     "reductions_kept")) \
            == SYCL_STAGE_STATISTICS[label]
        # The stage ran on accessor semantics: nothing is lowered yet
        # (Listing 3's only subscript was dead and is gone).
        assert label == "listings" or any(
            op.name == "sycl.accessor.subscript" for op in module.walk())
        assert not any(op.name == "sycl.accessor.get_pointer"
                       for op in module.walk())

    def test_second_licm_round_hoists_the_address_arithmetic(self):
        module, _ = _shape_module("mvt")
        _, report = _optimized(module)
        assert report.get_statistic("sycl-licm", "ops_hoisted") \
            > SYCL_STAGE_STATISTICS["mvt"][1]


# ---------------------------------------------------------------------------
# (c) exact dynamic counts, equal on all tiers, no worse than dpcpp
# ---------------------------------------------------------------------------

#: ``kernel -> {pipeline: (ops, bytes moved)}`` at the sizes above.
EXPECTED_COUNTS = {
    "vec_add": {"sycl-mlir": (192, 192), "dpcpp": (192, 192)},
    "gemm": {"sycl-mlir": (5376, 4608), "dpcpp": (6272, 8192)},
    "syrk": {"sycl-mlir": (9472, 8704), "dpcpp": (11392, 16384)},
    "mvt": {"sycl-mlir": (608, 1024), "dpcpp": (608, 1024)},
    "nbody": {"sycl-mlir": (1040, 1280), "dpcpp": (1040, 1280)},
    "kmeans": {"sycl-mlir": (1312, 1664), "dpcpp": (1312, 1664)},
    # mem2reg: the 9-slot window is SSA values in both pipelines.
    "median": {"sycl-mlir": (1296, 640), "dpcpp": (1296, 640)},
    "sobel": {"sycl-mlir": (1524, 576), "dpcpp": (1524, 576)},
    # A tile of 8 executes fewer ops than none and moves more bytes.
    "gemm_tiled": {"sycl-mlir": (4992, 5632), "dpcpp": (6272, 8192)},
    "syrk_tiled": {"sycl-mlir": (9408, 10752), "dpcpp": (11392, 16384)},
}


class TestDynamicCounts:
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_counts_per_tier_and_against_dpcpp(self, name):
        module, specs = _shape_module(name)
        measured = {}
        for pipeline in ("sycl-mlir", "dpcpp"):
            optimized, _ = _optimized(module, pipeline)
            runs = [ExecutionEngine(optimized, tier=tier).run(
                name, specs[name]) for tier in TIERS]
            # sobel is divergent: the vector tier declines it.
            assert [run.tier for run in runs] == [
                "interp", "jit", "interp" if name == "sobel" else "vector"]
            assert runs[0].counters == runs[1].counters == runs[2].counters
            counters = runs[0].counters
            measured[pipeline] = (
                counters["ops"],
                counters["bytes_read"] + counters["bytes_written"])
        assert measured == EXPECTED_COUNTS[name]
        ours, baseline = measured["sycl-mlir"], measured["dpcpp"]
        assert ours[0] <= baseline[0] and ours[1] <= baseline[1]


# ---------------------------------------------------------------------------
# (d) differential: pre vs post pipeline, structured vs lower-to-llvm
# ---------------------------------------------------------------------------

def _guarded_module():
    """``a`` is subscripted first inside a divergent branch and then
    after it: the raw pointer both accesses share must be materialized
    where it dominates them, not at the first subscript."""
    def body(k):
        i = k.global_id(0)
        with k.if_then((i >= 1) & (i < 6)):
            k.store("out", [i], k.load("a", [i]) * 2.0)
        k.store("flags", [i], k.load("a", [i]) + 1.0)

    function = _kernel("guarded", body, 1,
                       [_acc("a", 1, "read"), _acc("out", 1, "write"),
                        _acc("flags", 1, "write")])
    spec = ExecutionSpec(global_size=(8,),
                         buffers={"a": (8,), "out": (8,), "flags": (8,)})
    return wrap_in_module(function), {"guarded": spec}


class TestDifferential:
    @pytest.mark.parametrize("label", INPUT_LABELS)
    def test_pipeline_then_lowering_preserve_semantics(self, label):
        module, specs = _all_inputs()[label]
        executed = sorted(specs) if label != "listings" \
            else ["foo", "mem_acc", "non_uniform"]
        report = run_differential(module, "sycl-mlir", specs=specs)
        assert sorted(report.executed) == executed
        optimized, _ = _optimized(module)
        report = run_differential(optimized, "lower-to-llvm", specs=specs)
        assert sorted(report.executed) == executed

    @pytest.mark.parametrize("tier", ("jit", "vector"))
    @pytest.mark.parametrize("name", ("gemm", "syrk", "mvt", "sobel"))
    def test_pipeline_on_the_fast_tiers(self, name, tier):
        module, specs = _shape_module(name)
        report = run_differential(module, "sycl-mlir", specs=specs,
                                  tier=tier)
        assert report.executed == [name]

    def test_shared_pointer_dominates_a_divergent_first_use(self):
        module, specs = _guarded_module()
        optimized, _ = _optimized(module)  # verified: dominance holds
        _assert_lowered(optimized)
        pointers = [op for op in optimized.walk()
                    if op.name == "sycl.accessor.get_pointer"]
        assert all(op.parent_op().name == "func.func" for op in pointers)
        for target in (module, optimized):
            run_differential(target, "sycl-mlir" if target is module
                             else "lower-to-llvm", specs=specs)

    @pytest.mark.parametrize("tier", TIERS)
    def test_ranged_accessors(self, tier):
        """``get_pointer`` is based at the accessor's offset and strides
        come from the *memory* range, so a ranged view addresses the same
        elements after late lowering."""
        n, depth = 4, 6
        function, _ = _mvt(n, depth)
        module = wrap_in_module(function)
        optimized, _ = _optimized(module)

        def run(target):
            backing = Buffer(np.arange((n + 2) * (depth + 3),
                                       dtype=np.float32)
                             .reshape(n + 2, depth + 3))
            y = Buffer(np.arange(depth + 4, dtype=np.float32))
            x = Buffer(np.ones(n, dtype=np.float32))
            ExecutionEngine(target, tier=tier).launch("mvt", [
                Accessor(backing, "read", access_range=Range(n, depth),
                         offset=ID(1, 2)),
                Accessor(y, "read", access_range=Range(depth),
                         offset=ID(3)),
                Accessor(x, "read_write")], (n,))
            return x.host_array().copy()

        expected = 1.0 + (np.arange((n + 2) * (depth + 3), dtype=np.float64)
                          .reshape(n + 2, depth + 3)[1:1 + n, 2:2 + depth]
                          @ np.arange(3, 3 + depth, dtype=np.float64))
        np.testing.assert_allclose(run(module), expected)
        np.testing.assert_allclose(run(optimized), expected)


# ---------------------------------------------------------------------------
# (e) ablations are counted in the same lowered form
# ---------------------------------------------------------------------------

class TestAblationsEndLowered:
    @pytest.mark.parametrize("ablation", sorted(ABLATIONS))
    @pytest.mark.parametrize("label", ("gemm", "host_device", "mvt",
                                       "sobel"))
    def test_ablated_pipeline(self, label, ablation):
        drop = ABLATIONS[ablation]
        module, specs = _all_inputs()[label]
        optimized, _ = _optimized(module,
                                  manager=ablated("sycl-mlir", drop))
        _assert_lowered(optimized)
        manager = ablated("sycl-mlir", drop)
        report = run_differential(module, "sycl-mlir", specs=specs,
                                  manager=manager)
        assert sorted(report.executed) == sorted(specs)


# ---------------------------------------------------------------------------
# (f) LICM's per-loop effect summaries
# ---------------------------------------------------------------------------

class _SummaryFreeLICM(LoopInvariantCodeMotion):
    """The reference: every query re-walks the loop body and asks the
    alias analysis afresh, as before the per-loop summaries."""

    def _can_hoist_effectful(self, op, summary):
        alias = self.alias_analysis
        effects = get_memory_effects(op)
        if effects is None:
            return False
        read_targets, write_targets = [], []
        for effect in effects:
            if effect.kind in (EffectKind.READ, EffectKind.WRITE):
                if effect.value is None:
                    return False
                (read_targets if effect.kind == EffectKind.READ
                 else write_targets).append(effect.value)
            elif effect.kind != EffectKind.ALLOCATE:
                return False

        def conflicts(value, targets):
            if not targets:
                return False
            return value is None or any(alias.may_alias(value, target)
                                        for target in targets)

        for other in summary.body.ops_without_terminator():
            if other is op:
                continue
            other_effects = []
            for nested in other.walk():
                nested_effects = get_memory_effects(nested)
                if nested_effects is None:
                    return False
                other_effects.extend(nested_effects)
            for effect in other_effects:
                if effect.kind == EffectKind.WRITE:
                    if conflicts(effect.value, read_targets) or \
                            conflicts(effect.value, write_targets):
                        return False
                elif effect.kind == EffectKind.READ:
                    if conflicts(effect.value, write_targets) and \
                            not op.is_before_in_block(other):
                        return False
        return True


def _run_licm(module, licm):
    manager = PassManager()
    manager.nest("func.func").add(licm)
    report = CompileReport()
    manager.run(module, report=report)
    return report.get_statistic("sycl-licm", "ops_hoisted")


#: What each LICM instance of ``sycl-mlir`` receives: the structured
#: IR before the paper passes' round and the lowered IR before the
#: second round.
_LICM_INPUTS = {
    "structured": SYCL_STAGE.replace(",sycl-licm,detect-reduction", ""),
    "lowered": NAMED_PIPELINE_SPECS["sycl-mlir"].replace(
        ",sycl-licm,dce))", "))"),
}


def _licm_input(label):
    """An input module by label: the late-lowering inputs, and the two
    modules of one id object constructed twice (section (i)), whose
    constructor after a read in the loop must stay in it."""
    if label == "id_reconstructed":
        return _id_module(RECONSTRUCTED)
    if label == "id_constructed_after_use":
        return _id_module(CONSTRUCTED_AFTER_USE)
    return _all_inputs()[label][0]


class TestLICMEffectSummaries:
    @pytest.mark.parametrize("label", INPUT_LABELS + [
        "id_reconstructed", "id_constructed_after_use"])
    def test_same_hoists_in_the_same_order(self, label):
        for stage, prefix in _LICM_INPUTS.items():
            for alias in ALIAS_CHOICES:
                texts, hoisted = [], []
                for licm_class in (LoopInvariantCodeMotion, _SummaryFreeLICM):
                    module = _licm_input(label)
                    parse_pass_pipeline(prefix).run(module)
                    options = LoopInvariantCodeMotion.Options(alias=alias)
                    hoisted.append(_run_licm(module, licm_class(options)))
                    texts.append(Printer().print_module(module))
                where = (stage, alias)
                assert texts[0] == texts[1], where
                assert hoisted[0] == hoisted[1], where
                if where == ("structured", "sycl") and \
                        label in SYCL_STAGE_STATISTICS:
                    assert hoisted[0] == SYCL_STAGE_STATISTICS[label][1]

    def test_a_reused_instance_keeps_no_module_alive(self):
        # Pass instances are pooled and shared across workers: the
        # summaries must die with the call that built them.
        licm = LoopInvariantCodeMotion()
        first, _ = _shape_module("mvt")
        assert _run_licm(first, licm) > 0
        probe = weakref.ref(_kernels(first)[0])
        second, _ = _shape_module("nbody")
        assert _run_licm(second, licm) > 0
        del first
        gc.collect()
        assert probe() is None


#: One loop holding an op of every effect kind the dialects declare:
#: allocations, LLVM pointer accesses, a copy, a free, a global's
#: address and the host-side SYCL runtime calls.
_EFFECTS = '''
"builtin.module"() ({
  "func.func"() {function_type = (memref<4xf32>, memref<4xf32>, memref<4xf32>, !llvm.ptr, i64) -> (), sym_name = "effects"} : () -> () ({
   ^bb0(%src: memref<4xf32>, %dst: memref<4xf32>, %out: memref<4xf32>, %handler: !llvm.ptr, %n: i64):
    %c0 = "arith.constant"() {value = 0 : index} : () -> (index)
    %c1 = "arith.constant"() {value = 1 : index} : () -> (index)
    %c4 = "arith.constant"() {value = 4 : index} : () -> (index)
    %one = "llvm.mlir.constant"() {value = 1 : i64} : () -> (i64)
    "scf.for"(%c0, %c4, %c1) ({
     ^bb0(%i: index):
      %cell = "llvm.alloca"(%one) : (i64) -> (!llvm.ptr<f32>)
      %x = "memref.load"(%src, %i) : (memref<4xf32>, index) -> (f32)
      "llvm.store"(%x, %cell) : (f32, !llvm.ptr<f32>) -> ()
      %y = "llvm.load"(%cell) : (!llvm.ptr<f32>) -> (f32)
      "memref.store"(%y, %out, %i) : (f32, memref<4xf32>, index) -> ()
      "memref.copy"(%src, %dst) : (memref<4xf32>, memref<4xf32>) -> ()
      %tmp = "memref.alloc"() : () -> (memref<4xf32>)
      "memref.dealloc"(%tmp) : (memref<4xf32>) -> ()
      %g = "memref.get_global"() {name = "state"} : () -> (memref<2xindex>)
      %r = "llvm.alloca"(%one) : (i64) -> (!llvm.ptr<!sycl_range_1>)
      "sycl.host.constructor"(%r, %n) {type = "range"} : (!llvm.ptr<!sycl_range_1>, i64) -> ()
      "sycl.host.schedule_kernel"(%handler, %r) {kernel = @k, num_range_operands = 1 : i64} : (!llvm.ptr, !llvm.ptr<!sycl_range_1>) -> ()
      "sycl.host.submit"(%handler) {cgf = @cgf} : (!llvm.ptr) -> ()
      "scf.yield"() : () -> ()
    }) : (index, index, index) -> ()
    "func.return"() : () -> ()
  })
}) : () -> ()
'''


class TestLICMMemoryEffects:
    def test_each_effect_kind_decides_what_leaves_the_loop(self):
        """Allocations and the global's address are invariant; every
        access stays behind a write it may alias (``sycl.host.submit``
        writes anywhere); an allocation the loop frees stays with its
        ``memref.dealloc``."""
        module = parse_module(_EFFECTS)
        report = CompileReport()
        parse_pass_pipeline("func.func(sycl-licm)").run(module, report=report)
        verify(module)
        assert report.get_statistic("sycl-licm", "ops_hoisted") == 3
        loop = next(op for op in module.walk() if op.name == "scf.for")
        hoisted = [op.name for op in loop.parent.operations
                   if op.is_before_in_block(loop)]
        assert hoisted[-3:] == ["llvm.alloca", "memref.get_global",
                                "llvm.alloca"]
        assert [op.name for op in loop.body.operations] == [
            "memref.load", "llvm.store", "llvm.load", "memref.store",
            "memref.copy", "memref.alloc", "memref.dealloc",
            "sycl.host.constructor", "sycl.host.schedule_kernel",
            "sycl.host.submit", "scf.yield"]


# ---------------------------------------------------------------------------
# (g) lower-sycl-accessors does work per subscript, none without one
# ---------------------------------------------------------------------------

class TestLoweringTouchesOnlySubscripts:
    def test_function_without_subscript_is_left_untouched(self):
        # Listing 1 has no accessor — and a dead load, which is not this
        # pass's to remove (convert-memref-to-llvm drops it, see below).
        module = wrap_in_module(build_listing1_function()[0])
        before = Printer().print_module(module)
        stamp = version_stamp(module)
        report = CompileReport()
        manager = PassManager()
        manager.nest("func.func").add(LowerAccessorSubscripts())
        manager.run(module, report=report)
        assert version_stamp(module) == stamp
        assert Printer().print_module(module) == before
        assert report.get_statistic("lower-sycl-accessors",
                                    "subscripts_lowered") == 0

    def test_lower_to_llvm_still_drops_a_dead_load(self):
        # The sweep this pass no longer does used to delete Listing 1's
        # unused load; the pipeline's output must not grow for it.
        module = wrap_in_module(build_listing1_function()[0])
        build_named_pipeline("lower-to-llvm").run(module)
        names = [op.name for op in module.walk()]
        assert "llvm.load" not in names and "memref.load" not in names
        assert names.count("llvm.store") == 2

    def test_orphaned_id_objects_go_with_their_subscript(self):
        module, _ = _shape_module("mvt")
        manager = PassManager()
        manager.nest("func.func").add(LowerAccessorSubscripts())
        manager.run(module)
        _assert_lowered(module)

    def test_id_object_with_another_reader_stays(self):
        # Only the id objects a lowered subscript orphans go; this one is
        # also read by sycl.id.get.
        text = """
"builtin.module"() ({
  "func.func"() ({
   ^bb0(%item: memref<?x!sycl_item_1>, %a: memref<?x!sycl_accessor_1_f32_read>, %b: memref<?x!sycl_accessor_1_f32_write>):
    %d = "arith.constant"() {value = 0 : i32} : () -> (i32)
    %i = "sycl.item.get_id"(%item, %d) : (memref<?x!sycl_item_1>, i32) -> (index)
    %id = "memref.alloca"() : () -> (memref<1x!sycl_id_1>)
    "sycl.constructor"(%id, %i) {type = @id} : (memref<1x!sycl_id_1>, index) -> ()
    %pa = "sycl.accessor.subscript"(%a, %id) : (memref<?x!sycl_accessor_1_f32_read>, memref<1x!sycl_id_1>) -> (memref<?xf32>)
    %k = "sycl.id.get"(%id, %d) : (memref<1x!sycl_id_1>, i32) -> (index)
    %pb = "sycl.accessor.subscript"(%b, %k) : (memref<?x!sycl_accessor_1_f32_write>, index) -> (memref<?xf32>)
    %z = "arith.constant"() {value = 0 : index} : () -> (index)
    %v = "memref.load"(%pa, %z) : (memref<?xf32>, index) -> (f32)
    "memref.store"(%v, %pb, %z) : (f32, memref<?xf32>, index) -> ()
    "func.return"() : () -> ()
  }) {function_type = (memref<?x!sycl_item_1>, memref<?x!sycl_accessor_1_f32_read>, memref<?x!sycl_accessor_1_f32_write>) -> (), sycl.kernel = unit, sym_name = "copy", sym_visibility = "public"} : () -> ()
}) {sym_name = "m"} : () -> ()
"""
        module = parse_module(text)
        verify(module)
        specs = {"copy": ExecutionSpec(global_size=(4,),
                                       buffers={"a": (4,), "b": (4,)})}
        run_differential(module, "func.func(lower-sycl-accessors)",
                         specs=specs)
        report = CompileReport()
        parse_pass_pipeline("func.func(lower-sycl-accessors)").run(
            module, report=report)
        verify(module)
        assert report.get_statistic("lower-sycl-accessors",
                                    "subscripts_lowered") == 2
        names = _op_names(module)
        assert "sycl.accessor.subscript" not in names
        assert names.count("sycl.constructor") == 1
        assert names.count("memref.alloca") == 1


# ---------------------------------------------------------------------------
# (h) Loop Internalization prefetches at the global id
# ---------------------------------------------------------------------------

class TestPrefetchAddress:
    def test_gemm_needs_no_group_id(self):
        module, specs = _shape_module("gemm_tiled")
        optimized, report = _optimized(module)
        assert report.get_statistic("loop-internalization",
                                    "loops_internalized") == 1
        names = _op_names(optimized)
        assert "sycl.nd_item.get_group_id" not in names
        # One query per dimension: CSE merged the prefetch's with the
        # kernel's own.
        assert names.count("sycl.nd_item.get_global_id") == 2
        run_differential(module, "sycl-mlir", specs=specs, tier="vector")

    def test_transposed_tile_keeps_the_explicit_form(self):
        # SYRK's second reference A[j, kk] addresses row 0 with the
        # work-item's dimension 1: group_id(1) * tile + local_id(0) is
        # no global id.
        module, specs = _shape_module("syrk_tiled")
        optimized, report = _optimized(module)
        assert report.get_statistic("loop-internalization",
                                    "references_prefetched") == 2
        assert "sycl.nd_item.get_group_id" in _op_names(optimized)
        run_differential(module, "sycl-mlir", specs=specs, tier="vector")


# ---------------------------------------------------------------------------
# (i) an id object constructed more than once
# ---------------------------------------------------------------------------

def _id_module(body):
    """A one-work-item kernel over ``A`` with an id object ``%id`` and
    the constants ``%c0``, ``%c1``, ``%c4`` and ``%one``."""
    accessor = "memref<?x!sycl_accessor_1_f32_read_write>"
    return parse_module(f'''
"builtin.module"() ({{
  "func.func"() ({{
   ^bb0(%A: {accessor}, %item: memref<?x!sycl_item_1>):
    %c0 = "arith.constant"() {{value = 0 : index}} : () -> (index)
    %c1 = "arith.constant"() {{value = 1 : index}} : () -> (index)
    %c4 = "arith.constant"() {{value = 4 : index}} : () -> (index)
    %one = "arith.constant"() {{value = 1.0 : f32}} : () -> (f32)
    %id = "memref.alloca"() : () -> (memref<1x!sycl_id_1>)
{body.replace("ACC", accessor)}
    "func.return"() : () -> ()
  }}) {{function_type = ({accessor}, memref<?x!sycl_item_1>) -> (), \
sycl.kernel = unit, sym_name = "multi", sym_visibility = "public"}} \
: () -> ()
}}) {{sym_name = "ids"}} : () -> ()
''')


def _construct(component):
    return (f'    "sycl.constructor"(%id, {component}) {{type = @id}} : '
            f'(memref<1x!sycl_id_1>, index) -> ()\n')


def _subscript(name):
    return (f'    {name} = "sycl.accessor.subscript"(%A, %id) : '
            f'(ACC, memref<1x!sycl_id_1>) -> (memref<?xf32>)\n')


#: ``A[1] = A[0] + 1``, four times, through two subscripts of one id.
RECONSTRUCTED = (_construct("%c0") + _subscript("%s0") + _construct("%c1")
                 + _subscript("%s1") + '''\
    "affine.for"(%c0, %c4) ({
     ^bb0(%iv: index):
      %x = "affine.load"(%s0, %c0) : (memref<?xf32>, index) -> (f32)
      %y = "arith.addf"(%x, %one) : (f32, f32) -> (f32)
      "affine.store"(%y, %s1, %c0) : (f32, memref<?xf32>, index) -> ()
      "affine.yield"() : () -> ()
    }) {step = 1 : i64} : (index, index) -> ()''')

#: The loop's first trip reads ``A[0]``, the others ``A[1]``.
CONSTRUCTED_AFTER_USE = (_construct("%c0") + '''\
    "affine.for"(%c0, %c4) ({
     ^bb0(%iv: index):
''' + _subscript("%s") + '''\
      %x = "affine.load"(%s, %c0) : (memref<?xf32>, index) -> (f32)
      %y = "arith.addf"(%x, %one) : (f32, f32) -> (f32)
      "affine.store"(%y, %s, %c0) : (f32, memref<?xf32>, index) -> ()
''' + _construct("%c1") + '''\
      "affine.yield"() : () -> ()
    }) {step = 1 : i64} : (index, index) -> ()''')


def _subscripts(module):
    return [op for op in module.walk()
            if op.name == "sycl.accessor.subscript"]


class TestIdConstructedTwice:
    @pytest.mark.parametrize("tier", ("interp", "jit"))
    @pytest.mark.parametrize("pipeline", ("sycl-mlir", "dpcpp",
                                          "lower-to-llvm"))
    def test_each_subscript_reads_its_own_constructor(self, pipeline, tier):
        module = _id_module(RECONSTRUCTED)
        run_differential(module, pipeline, tier=tier)

    def test_the_reference_result(self):
        run = ExecutionEngine(_id_module(RECONSTRUCTED), tier="interp").run(
            "multi", ExecutionSpec(buffers={"A": (2,)},
                                   global_size=(1,)))
        first, second = run.memory["A"].tolist()
        assert second == first + 1.0

    def test_lowering_uses_the_nearest_preceding_constructor(self):
        module = _id_module(RECONSTRUCTED)
        parse_pass_pipeline("func.func(lower-sycl-accessors)").run(module)
        assert _subscripts(module) == []
        (load,) = [op for op in module.walk() if op.name == "memref.load"]
        (store,) = [op for op in module.walk() if op.name == "memref.store"]
        assert arith.constant_value_of(load.operands[1]) == 0
        assert arith.constant_value_of(store.operands[2]) == 1

    @pytest.mark.parametrize("pipeline", ("sycl-mlir", "dpcpp",
                                          "lower-to-llvm"))
    def test_no_reaching_constructor_declines_with_a_remark(self, pipeline):
        module = _id_module(CONSTRUCTED_AFTER_USE)
        optimized, report = _optimized(module, pipeline)
        assert len(_subscripts(optimized)) == 1
        assert report.get_statistic("lower-sycl-accessors",
                                    "subscripts_lowered") == 0
        (remark,) = [r for r in report.remarks
                     if "lower-sycl-accessors" in r]
        assert remark.startswith(
            "lower-sycl-accessors: no-dominating-constructor: ")
        assert remark.endswith("in multi is not built by one constructor "
                               "that reaches it")
        for tier in ("interp", "jit"):
            run_differential(module, pipeline, tier=tier)

    @pytest.mark.parametrize("tier", ("jit", "vector"))
    def test_compiled_tiers_decline_a_construction_in_a_nested_block(
            self, tier):
        # They bind an id's components where its constructor is emitted,
        # which the loop's next trip does not see.
        spec = ExecutionSpec(buffers={"A": (2,)}, global_size=(1,))
        module = _id_module(CONSTRUCTED_AFTER_USE)
        reference = ExecutionEngine(module, tier="interp").run("multi", spec)
        engine = ExecutionEngine(module, tier=tier)
        run = engine.run("multi", spec)
        assert run.tier == "interp"
        assert engine.remarks[0].endswith(
            "id constructed again in a nested block")
        assert run.memory["A"].tolist() == reference.memory["A"].tolist()
        first, second = reference.memory["A"].tolist()
        # One trip through A[0], three through A[1].
        assert (first, second) == (-0.5, 3.75)

    def test_alias_analysis_trusts_only_a_single_constructor(self):
        analysis = SYCLAliasAnalysis()
        module = _id_module(RECONSTRUCTED)
        first, second = _subscripts(module)
        assert not analysis.alias(first.result, second.result).is_must()
        assert not analysis.no_alias(first.result, second.result)
        assert _constant_subscript_index(first) is None
        single = _id_module(_construct("%c1") + _subscript("%s0")
                            + _subscript("%s1"))
        first, second = _subscripts(single)
        assert analysis.must_alias(first.result, second.result)
        assert _constant_subscript_index(first) == (1,)


# ---------------------------------------------------------------------------
# (j) Loop Internalization tiles a loop only where the tile pays
# ---------------------------------------------------------------------------

#: ``(depth, work-group size)`` of the compile workloads' GEMM and SYRK
#: variants (``COMPILE_SHAPES`` of ``benchmarks/e2e/programs.py``).
COMPILE_SHAPES = ((16, 4), (8, 2), (8, 4), (16, 2),
                  (16, 8), (24, 2), (24, 4), (32, 8))

DECISION_BUILDERS = {"gemm": _gemm, "syrk": _syrk, "gemm3": _gemm3,
                     "product": _product}

#: ``(kernel, launch extent, depth, tile)``: the compile shapes at the
#: workloads' launch extent, ``exec_heavy``'s ``gemm_cfg`` and its
#: GEMM/SYRK sizes, then three loads per trip and no reduction at all.
DECISIONS = (
    [(kernel, max(4, tile), depth, tile) for kernel in ("gemm", "syrk")
     for depth, tile in COMPILE_SHAPES]
    + [("gemm", 16, 16, 4), ("gemm", 48, 48, 8), ("syrk", 48, 48, 8)]
    + [(kernel, max(4, tile), 16, tile) for kernel in ("gemm3", "product")
       for tile in (2, 4, 8)])

_ESTIMATES = re.compile(r"ops with/without (\d+)/(\d+), "
                        r"bytes with/without (\d+)/(\d+) per work-item$")


class _AlwaysTile(LoopInternalization):
    """Loop Internalization without its decision: it tiles every loop it
    legally can, as the pass did before it priced the tile."""

    def _estimate(self, loop, candidates, tile, shared):
        tiled, untiled = super()._estimate(loop, candidates, tile, shared)
        return tiled, replace(untiled, bytes=tiled.bytes + 1)


def _sycl_mlir_with(replacement):
    """``sycl-mlir`` with ``replacement`` for its Loop Internalization."""
    manager = build_named_pipeline("sycl-mlir")
    nests = [manager]
    while nests:
        nest = nests.pop()
        for index, element in enumerate(nest.elements):
            if isinstance(element, OpPassManager):
                nests.append(element)
            elif element.NAME == LoopInternalization.NAME:
                nest.elements[index] = replacement
    return manager


class TestInternalizationDecision:
    """The pass tiles iff the tiled code, run structured, executes fewer
    ops or moves fewer bytes than the same pipeline without the pass."""

    @pytest.mark.parametrize("kernel,extent,depth,tile", DECISIONS)
    def test_tiles_iff_the_tile_lowers_ops_or_bytes(self, kernel, extent,
                                                   depth, tile):
        function, spec = DECISION_BUILDERS[kernel](extent, depth, tile)
        self._check(wrap_in_module(function), kernel, spec)

    def test_host_facts_keep_the_reduction_without_the_tile(self):
        # The host proves C disjoint from A and B, so Detect Reduction
        # keeps C[i, j] in a register untiled: a tile of 4 only adds.
        module, specs = _host_device_module()
        assert not self._check(module, "gemm_k", specs["gemm_k"])

    @staticmethod
    def _check(module, entry, spec):
        counts = {}
        for label, manager in (
                ("tiled", _sycl_mlir_with(_AlwaysTile())),
                ("untiled", ablated("sycl-mlir", {"loop-internalization"})),
                ("decided", None)):
            optimized, report = _optimized(module, manager=manager)
            counters = ExecutionEngine(optimized, tier="vector").run(
                entry, spec).counters
            counts[label] = (counters["ops"], counters["bytes_read"]
                             + counters["bytes_written"])
        tiled, untiled = counts["tiled"], counts["untiled"]
        pays = tiled[0] < untiled[0] or tiled[1] < untiled[1]
        assert report.get_statistic("loop-internalization",
                                    "loops_internalized") == pays, counts
        assert counts["decided"] == (tiled if pays else untiled)
        (remark,) = [r for r in report.remarks
                     if r.startswith("loop-internalization: ")]
        assert ("prefetched" in remark) == pays, remark
        # The bytes estimate is exact: all of these kernels' accesses
        # are in the loop.
        work_items = spec.global_size[0] * spec.global_size[1]
        _, _, bytes_with, bytes_without = map(
            int, _ESTIMATES.search(remark).groups())
        assert (bytes_with * work_items, bytes_without * work_items) == \
            (tiled[1], untiled[1])
        return pays


# ---------------------------------------------------------------------------
# (f) the reduction pair Loop Internalization carries across its tile loop
# ---------------------------------------------------------------------------

def _gemm_aliased(n=8, depth=16, wg=4):
    """A GEMM that also writes ``D[i, j]`` on every trip: ``D`` is a
    second ``read_write`` accessor, so it may alias ``C``."""
    def body(k):
        i = k.global_id(0)
        j = k.global_id(1)
        with k.loop(0, depth) as kk:
            value = k.load("C", [i, j]) \
                + k.load("A", [i, kk]) * k.load("B", [kk, j])
            k.store("C", [i, j], value)
            k.store("D", [i, j], value * 0.5)

    return (_kernel("gemm_aliased", body, 2,
                    [_acc("A", 2, "read"), _acc("B", 2, "read"),
                     _acc("C", 2, "read_write"), _acc("D", 2, "read_write")],
                    nd_item=True, work_group=(wg, wg)),
            ExecutionSpec(global_size=(n, n), local_size=(wg, wg),
                          buffers={"A": (n, depth), "B": (depth, n),
                                   "C": (n, n), "D": (n, n)}))


def _accesses_through(module, accessor):
    """The loads and stores of ``module`` through ``accessor``'s pointer."""
    (pointer,) = [op.result for op in module.walk()
                  if op.name == "sycl.accessor.get_pointer"
                  and op.operands[0].name_hint == accessor]
    return [op for op in module.walk()
            if op.name in ("memref.load", "memref.store")
            and op.memref is pointer]


class TestReductionAcrossTheTileLoop:
    """Loop Internalization keeps a load/store pair in a register across
    its tile loop only where nothing but reads other work-items share
    may alias it."""

    def test_gemm_reads_and_writes_c_once_around_the_tile_loop(self):
        function, _ = _gemm(8, 16, 8)
        optimized, report = _optimized(wrap_in_module(function))
        assert report.get_statistic("loop-internalization",
                                    "reductions_kept") == 1
        assert any("kept C in a register in gemm" in remark
                   for remark in report.remarks)
        accesses = _accesses_through(optimized, "C")
        assert sorted(op.name for op in accesses) == \
            ["memref.load", "memref.store"]
        assert all(op.parent_op().name == "func.func" for op in accesses)
        (tile_loop,) = [op for op in optimized.walk()
                        if op.name == "affine.for"
                        and op.parent_op().name == "func.func"]
        assert [result.type for result in tile_loop.results] == [f32()]

        # Every tile is read unit-stride: once the addresses are built, no
        # multiply reads the inner loop's induction variable.
        parse_pass_pipeline("builtin.module(func.func(lower-affine,"
                            "convert-memref-to-llvm))").run(optimized)
        (inner,) = [op for op in optimized.walk() if op.name == "scf.for"
                    and op.parent_op().name == "scf.for"]
        iv = inner.induction_variable()
        assert not [op.name for op in optimized.walk()
                    if op.name in ("arith.muli", "llvm.mul")
                    and iv in op.operands]

    def test_a_write_that_may_alias_c_keeps_it_in_memory(self):
        function, spec = _gemm_aliased()
        module, specs = wrap_in_module(function), {"gemm_aliased": spec}
        tiled, report = _optimized(
            module, manager=_sycl_mlir_with(_AlwaysTile()))
        assert report.get_statistic("loop-internalization",
                                    "loops_internalized") == 1
        assert report.get_statistic("loop-internalization",
                                    "reductions_kept") == 0
        # C's load and store stay on every trip of the inner tiled loop.
        accesses = _accesses_through(tiled, "C")
        assert sorted(op.name for op in accesses) == \
            ["memref.load", "memref.store"]
        assert all(op.parent_op().parent_op().name == "affine.for"
                   for op in accesses)

        TestInternalizationDecision._check(module, "gemm_aliased", spec)
        for tier in TIERS:
            for pipeline in ("sycl-mlir", _sycl_mlir_with(_AlwaysTile())):
                run_differential(module, pipeline, specs=specs, tier=tier)


# ---------------------------------------------------------------------------
# (k) a read other work-items share cannot alias a reduction
# ---------------------------------------------------------------------------

def _mvt_nd(n=8, depth=8):
    """``x[i] += A[i, j] * y[j]`` over a 1-D ND-range with work-groups
    of 4: ``A[i, j]`` is read by its own work-item only."""
    def body(k):
        i = k.global_id(0)
        with k.loop(0, depth) as j:
            value = k.load("x", [i]) + k.load("A", [i, j]) * k.load("y", [j])
            k.store("x", [i], value)

    return (_kernel("mvt_nd", body, 1,
                    [_acc("A", 2, "read"), _acc("y", 1, "read"),
                     _acc("x", 1, "read_write")],
                    nd_item=True, work_group=(4,)),
            ExecutionSpec(global_size=(n,), local_size=(4,),
                          buffers={"A": (n, depth), "y": (depth,),
                                   "x": (n,)}))


def _gemm_variant(name, work_group=(4, 4), row=None, guarded=False,
                  repeated=False):
    """The (8, 16) GEMM, its ``A`` row ``row(i, j)`` (default ``i``),
    its k-loop under ``if (i >= 1)`` when ``guarded`` and run ``i + 1``
    times by an enclosing loop when ``repeated``."""
    n, depth = 8, 16

    def body(k):
        i = k.global_id(0)
        j = k.global_id(1)

        def loop():
            with k.loop(0, depth) as kk:
                a = k.load("A", [row(i, j) if row else i, kk])
                k.store("C", [i, j],
                        k.load("C", [i, j]) + a * k.load("B", [kk, j]))

        if guarded:
            with k.if_then(i >= 1):
                loop()
        elif repeated:
            with k.loop(0, i + 1):
                loop()
        else:
            loop()

    return (_kernel(name, body, 2,
                    [_acc("A", 2, "read"), _acc("B", 2, "read"),
                     _acc("C", 2, "read_write")],
                    nd_item=True, work_group=work_group),
            ExecutionSpec(global_size=(n, n), local_size=work_group,
                          buffers={"A": (n, depth), "B": (depth, n),
                                   "C": (n, n)}))


_ACC_R = "memref<?x!sycl_accessor_2_f32_read>"
_ACC_RW = "memref<?x!sycl_accessor_2_f32_read_write>"
_ID = "memref<1x!sycl_id_2>"

#: The (8, 16) GEMM reading ``A[r, kk]``, where ``r`` is carried by the
#: k-loop: 0 on the first trip, ``i + j`` after it.  The Uniformity
#: Analysis gives an ``iter_args`` argument its bounds' uniformity, so
#: only the rule's own check keeps ``r`` from passing as shared.
_CARRIED_ROW = f'''
"builtin.module"() ({{
  "func.func"() ({{
   ^bb0(%item: memref<?x!sycl_nd_item_2>, %A: {_ACC_R}, %B: {_ACC_R}, %C: {_ACC_RW}):
    %d0 = "arith.constant"() {{value = 0 : i32}} : () -> (i32)
    %i = "sycl.nd_item.get_global_id"(%item, %d0) : (memref<?x!sycl_nd_item_2>, i32) -> (index)
    %d1 = "arith.constant"() {{value = 1 : i32}} : () -> (i32)
    %j = "sycl.nd_item.get_global_id"(%item, %d1) : (memref<?x!sycl_nd_item_2>, i32) -> (index)
    %c0 = "arith.constant"() {{value = 0 : index}} : () -> (index)
    %c16 = "arith.constant"() {{value = 16 : index}} : () -> (index)
    %last = "affine.for"(%c0, %c16, %c0) {{step = 1 : i64}} : (index, index, index) -> (index) ({{
     ^bb0(%kk: index, %r: index):
      %cid = "memref.alloca"() : () -> ({_ID})
      "sycl.constructor"(%cid, %i, %j) {{type = @id}} : ({_ID}, index, index) -> ()
      %cview = "sycl.accessor.subscript"(%C, %cid) : ({_ACC_RW}, {_ID}) -> (memref<?xf32>)
      %c = "affine.load"(%cview, %c0) : (memref<?xf32>, index) -> (f32)
      %aid = "memref.alloca"() : () -> ({_ID})
      "sycl.constructor"(%aid, %r, %kk) {{type = @id}} : ({_ID}, index, index) -> ()
      %aview = "sycl.accessor.subscript"(%A, %aid) : ({_ACC_R}, {_ID}) -> (memref<?xf32>)
      %a = "affine.load"(%aview, %c0) : (memref<?xf32>, index) -> (f32)
      %bid = "memref.alloca"() : () -> ({_ID})
      "sycl.constructor"(%bid, %kk, %j) {{type = @id}} : ({_ID}, index, index) -> ()
      %bview = "sycl.accessor.subscript"(%B, %bid) : ({_ACC_R}, {_ID}) -> (memref<?xf32>)
      %b = "affine.load"(%bview, %c0) : (memref<?xf32>, index) -> (f32)
      %ab = "arith.mulf"(%a, %b) : (f32, f32) -> (f32)
      %sum = "arith.addf"(%c, %ab) : (f32, f32) -> (f32)
      "affine.store"(%sum, %cview, %c0) : (f32, memref<?xf32>, index) -> ()
      %next = "arith.addi"(%i, %j) : (index, index) -> (index)
      "affine.yield"(%next) : (index) -> ()
    }})
    "func.return"() : () -> ()
  }}) {{function_type = (memref<?x!sycl_nd_item_2>, {_ACC_R}, {_ACC_R}, {_ACC_RW}) -> (), sycl.kernel = unit, sycl.work_group_size = [4 : i64, 4 : i64], sym_name = "carried_row", sym_visibility = "public"}} : () -> ()
}}) : () -> ()
'''


def _carried_row():
    (function,) = _kernels(parse_module(_CARRIED_ROW))
    return function, ExecutionSpec(
        global_size=(8, 8), local_size=(4, 4),
        buffers={"A": (16, 16), "B": (16, 8), "C": (8, 8)})


def _private_window(n=8, depth=8):
    """``p[0] += p[7 - kk]`` over a private array ``p`` filled from
    ``A``'s row: the read's address depends on no work-item, but every
    work-item reads its own ``p``, so the read aliases ``p[0]``."""
    def body(k):
        i = k.global_id(0)
        j = k.global_id(1)
        p = k.private_array(depth)
        for slot in range(depth):
            k.private_store(p, slot, k.load("A", [i, slot]))
        with k.loop(0, depth) as kk:
            k.private_store(p, 0, k.private_load(p, 0)
                            + k.private_load(p, (depth - 1) - kk))
        k.store("C", [i, j], k.private_load(p, 0) + k.load("C", [i, j]))

    return (_kernel("private_window", body, 2,
                    [_acc("A", 2, "read"), _acc("C", 2, "read_write")],
                    nd_item=True, work_group=(4, 4)),
            ExecutionSpec(global_size=(n, n), local_size=(4, 4),
                          buffers={"A": (n, depth), "C": (n, n)}))


def _private_slot_0(module):
    """The loads and stores of a private array's slot 0 inside a loop."""
    arrays = {id(op.result) for op in module.walk()
              if op.name == "memref.alloca"
              and op.result.type.memory_space == "private"}
    return [op for op in module.walk()
            if op.name in ("memref.load", "memref.store")
            and id(op.memref) in arrays
            and arith.constant_value_of(op.indices[0]) == 0
            and op.parent_op().name == "affine.for"]


#: Kernels whose reduction must stay in memory, and the accessor of it
#: (``None``: slot 0 of the kernel's private array).
SHARED_READ_NEGATIVES = {
    # A[i, j] depends on the only work-group dimension.
    "own_row": (_mvt_nd, "x"),
    # A[i, kk] is shared only along a dimension of extent 1.
    "extent_one": (lambda: _gemm_variant("extent_one", (4, 1)), "C"),
    "divergent": (lambda: _gemm_variant("divergent", guarded=True), "C"),
    # The work-items along dimension 0 run the k-loop a different
    # number of times.
    "non_uniform_enclosing_loop": (lambda: _gemm_variant(
        "non_uniform_enclosing_loop", repeated=True), "C"),
    # (i + j) % 8 is no parameter the group shares.
    "modulo": (lambda: _gemm_variant(
        "modulo", row=lambda i, j: (i + j) % 8), "C"),
    "no_work_group_size": (lambda: _gemm_variant("no_wg_size", None), "C"),
    # D may alias C and is written in the loop.
    "aliased_write": (_gemm_aliased, "C"),
    "loop_carried_row": (_carried_row, "C"),
    "private_array": (_private_window, None),
}


class TestSharedReadsCannotAliasAReduction:
    """Detect Reduction keeps ``C[i, j]`` in a register without a tile
    when every access that may alias it is a read the work-group shares
    (``detect_reduction.SharedReads``)."""

    @pytest.mark.parametrize("build", (_gemm, _syrk), ids=("gemm", "syrk"))
    def test_tile_4_keeps_c_in_a_register_untiled(self, build):
        function, spec = build(4, 16, 4)
        name = function.sym_name
        module = wrap_in_module(function)
        optimized, report = _optimized(module)
        accesses = _accesses_through(optimized, "C")
        assert sorted(op.name for op in accesses) == \
            ["memref.load", "memref.store"]
        assert all(op.parent_op().name == "func.func" for op in accesses)
        assert "sycl.group_barrier" not in _op_names(optimized)
        assert f"detect-reduction: converted 1 array reduction(s) " \
            f"in {name}" in report.remarks
        for tier in TIERS:
            run_differential(module, "sycl-mlir", specs={name: spec},
                             tier=tier)

    @pytest.mark.parametrize("build,ours,theirs",
                             ((_gemm, 2976, 3456), (_syrk, 2960, 3440)),
                             ids=("gemm", "syrk"))
    def test_lowered_counts_at_tile_4(self, build, ours, theirs):
        # The compile workloads' (16, 4) variant, lowered: dpcpp's count
        # is what it was; ours fell from 3 888 (GEMM) and 4 048 (SYRK).
        function, spec = build(4, 16, 4)
        module = wrap_in_module(function)
        for pipeline, expected in (("sycl-mlir", ours), ("dpcpp", theirs)):
            optimized, _ = _optimized(module, pipeline)
            lowered, _ = _optimized(optimized, "lower-to-llvm")
            counts = {ExecutionEngine(lowered, tier=tier).run(
                function.sym_name, spec).counters["ops"] for tier in TIERS}
            assert counts == {expected}, pipeline

    @pytest.mark.parametrize("label", sorted(SHARED_READ_NEGATIVES))
    def test_the_reduction_stays_in_memory(self, label):
        build, accessor = SHARED_READ_NEGATIVES[label]
        function, spec = build()
        name = function.sym_name
        module = wrap_in_module(function)
        optimized, report = _optimized(module)
        assert report.get_statistic("detect-reduction",
                                    "reductions_detected") == 0
        accesses = _accesses_through(optimized, accessor) if accessor \
            else _private_slot_0(optimized)
        assert sorted(op.name for op in accesses) == \
            ["memref.load", "memref.store"]
        assert all(op.parent_op().name == "affine.for" for op in accesses)
        for tier in TIERS:
            run_differential(module, "sycl-mlir", specs={name: spec},
                             tier=tier)

    def test_a_tile_needing_a_missing_dimension_declines(self):
        # A[i, j]'s tile would query local id 1 of a 1-D work-group: the
        # candidate is rejected, y's tile alone does not pay.
        function, _ = _mvt_nd()
        optimized, report = _optimized(wrap_in_module(function))
        assert "loop-internalization: a tile of A needs work-item " \
            "dimension 1, which a work-group of rank 1 lacks, in mvt_nd" \
            in report.remarks
        assert not report.get_statistic("loop-internalization",
                                        "loops_internalized")
        assert "sycl.nd_item.get_local_id" not in _op_names(optimized)


# ---------------------------------------------------------------------------
# (g) host raising, host->device propagation and Loop Internalization
#     search only where what they look for can be
# ---------------------------------------------------------------------------

def _raise_every_walked_function(self, module, report):
    for function in list(module.walk()):
        if isinstance(function, llvm.LLVMFuncOp) \
                and not function.is_declaration:
            self._raise_function(function, report)


def _collect_walked_launches(self, module):
    launches = []
    for op in module.walk():
        if isinstance(op, SYCLHostScheduleKernelOp):
            kernel = module.lookup_symbol(op.kernel_name)
            if isinstance(kernel, func.FuncOp):
                launches.append(KernelLaunchInfo(op, kernel))
    return launches


def _search_corpus():
    """``(label, text)`` of the benchmark's seed-101 compile and
    execution programs, its host program, and a GEMM whose loop sits in
    a divergent branch."""
    programs = e2e_programs()
    units = [(p.name, programs.module_text([p]))
             for p in programs.compile_variants(101)
             + programs.exec_programs(101)]
    host_kernel = programs.gemm("gemm_host_k", 8, 16, 4)
    units.append(("host", programs.host_program(host_kernel,
                                                "main_host")[0]))
    guarded, _ = _gemm_variant("guarded_gemm", guarded=True)
    units.append(("guarded", Printer().print_module(
        wrap_in_module(guarded))))
    return units


def _compiled(text):
    module = parse_module(text)
    report = build_named_pipeline("sycl-mlir").run(module)
    return (Printer().print_module(module),
            [(s.pass_name, s.name, s.value) for s in report.statistics],
            report.remarks)


class TestPassesSearchOnlyWhereTheirOpsLive:
    """``host-raising`` visits the module's symbols, not every kernel's
    ops; ``host-device-propagation`` searches only host functions for
    launches; Loop Internalization builds the Uniformity Analysis only
    for a loop under an ``scf.if``.  Each compiles the corpus exactly as
    the exhaustive search does: same text, statistics and remarks."""

    def test_the_corpus_compiles_as_with_the_full_search(self, monkeypatch):
        # ``sycl-mlir`` is the one pipeline running the three passes.
        units = _search_corpus()
        searched = [_compiled(text) for _, text in units]
        monkeypatch.setattr(HostRaisingPass, "run_on_module",
                            _raise_every_walked_function)
        monkeypatch.setattr(HostDeviceOptimizationPass, "_collect_launches",
                            _collect_walked_launches)
        monkeypatch.setattr(loop_internalization, "_under_branch",
                            lambda op: True)
        for (label, text), result in zip(units, searched):
            assert _compiled(text) == result, label
        # The corpus reaches every search: a raised launch, a propagated
        # host fact and a loop in a divergent branch.
        fired = {name for _, statistics, _ in searched
                 for _, name, value in statistics if value}
        assert {"kernels_raised", "noalias_accessors",
                "divergent_loops_skipped"} <= fired
