"""Differential-execution tests: every shipped pipeline must preserve
the observable semantics of every listing module, and of generated
kernels that trigger the heavyweight transforms (Loop Internalization
with barriers + local tiles, Detect Reduction) — including through an
explicit pass manager and a warm CompileCache."""

import pytest

from repro.dialects import builtin
from repro.frontend.kernel_builder import (
    AccessorParam,
    KernelSource,
    ScalarParam,
)
from repro.interp import (
    DifferentialError,
    ExecutionEngine,
    ExecutionSpec,
    run_differential,
)
from repro.ir import Printer, f32, index
from repro.transforms import (
    CompileCache,
    CompileReport,
    FunctionPass,
    build_named_pipeline,
    shipped_pipeline_names,
)

from .helpers import (
    build_gemm_module,
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    listing_execution_specs,
    wrap_in_module,
)

SHIPPED_PIPELINES = shipped_pipeline_names()

LISTING_SPECS = listing_execution_specs()

def _gemm_module():
    """A GEMM ``sycl-mlir`` tiles by 8 (a tile of 4 declines)."""
    return build_gemm_module(size=8, work_group=8)


def _listing_module():
    return wrap_in_module(*[build()[0] for build in (
        build_listing1_function,
        build_listing2_function,
        build_listing3_function,
    )])


class TestListingModules:
    @pytest.mark.parametrize("pipeline", SHIPPED_PIPELINES)
    def test_all_listings_equivalent_under_pipeline(self, pipeline):
        report = run_differential(_listing_module(), pipeline,
                                  specs=LISTING_SPECS)
        assert report.executed == ["foo", "mem_acc", "non_uniform"]
        assert report.skipped == {}

    def test_module_left_untouched(self):
        module = _listing_module()
        before = Printer().print_module(module)
        run_differential(module, "sycl-mlir", specs=LISTING_SPECS)
        assert Printer().print_module(module) == before


class TestGeneratedKernels:
    @pytest.mark.parametrize("pipeline", SHIPPED_PIPELINES)
    def test_gemm_equivalent_under_pipeline(self, pipeline):
        module, specs = _gemm_module()
        report = run_differential(module, pipeline, specs=specs)
        assert report.executed == ["gemm"]

    def test_sycl_mlir_actually_internalizes_the_gemm(self):
        # Guard against the flagship case silently degenerating: the
        # sycl-mlir pipeline must produce barriers + local tiles here,
        # so the equivalence above really covers the tiled execution.
        module, _ = _gemm_module()
        optimized = module.clone({})
        build_named_pipeline("sycl-mlir").run(optimized)
        text = Printer().print_module(optimized)
        assert "sycl.group_barrier" in text
        assert "memref.alloc" in text

    @pytest.mark.parametrize("pipeline", SHIPPED_PIPELINES)
    def test_boundary_guarded_kernel(self, pipeline):
        def body(k):
            i = k.global_id(0)
            n = k.parameter("n")
            guard = (i < n) & (i >= 1)
            with k.if_then(guard):
                k.store("out", [i], k.load("a", [i]) * 2.0)
            flagged = guard.select(k.load("a", [i]), 0.0)
            k.store("flags", [i], flagged)

        source = KernelSource(
            "guarded", body=body, nd_range_dims=1,
            accessors=[AccessorParam("a", 1, f32(), "read"),
                       AccessorParam("out", 1, f32(), "write"),
                       AccessorParam("flags", 1, f32(), "write")],
            scalars=[ScalarParam("n", index())])
        module = wrap_in_module(source.build())
        spec = ExecutionSpec(global_size=(8,), scalars={"n": 6})
        report = run_differential(module, pipeline,
                                  specs={"guarded": spec})
        assert report.executed == ["guarded"]


class TestExplicitManager:
    def test_explicit_manager_preserves_semantics(self):
        module, specs = _gemm_module()
        report = run_differential(module, "sycl-mlir", specs=specs,
                                  manager=build_named_pipeline("sycl-mlir"))
        assert report.executed == ["gemm"]

    def test_warm_compile_cache_preserves_semantics(self):
        # A cache hit splices a clone of the cached optimized module;
        # the differential harness proves the splice executes like the
        # cold compile did.
        module, specs = _gemm_module()
        cache = CompileCache()
        primer = build_named_pipeline("sycl-mlir")
        primer.cache = cache
        primer.run(module.clone({}), report=CompileReport())
        assert cache.describe()["entries"] >= 1

        warm = build_named_pipeline("sycl-mlir")
        warm.cache = cache
        report = run_differential(module, "sycl-mlir", specs=specs,
                                  manager=warm)
        assert report.executed == ["gemm"]
        assert cache.describe()["hits"] >= 1

    def test_warm_cache_on_listings(self):
        cache = CompileCache()
        primer = build_named_pipeline("sycl-mlir")
        primer.cache = cache
        primer.run(_listing_module(), report=CompileReport())
        warm = build_named_pipeline("sycl-mlir")
        warm.cache = cache
        report = run_differential(_listing_module(), "sycl-mlir",
                                  specs=LISTING_SPECS, manager=warm)
        assert report.executed == ["foo", "mem_acc", "non_uniform"]
        assert cache.describe()["hits"] >= 1


class _MiscompilingPass(FunctionPass):
    """Deliberately breaks semantics: rewrites addf into subf."""

    NAME = "test-miscompile"

    def run_on_function(self, function, report: CompileReport) -> None:
        from repro.dialects import arith

        for op in list(function.walk()):
            if op.name == "arith.addf":
                replacement = arith.SubFOp.build(op.operands[0],
                                                 op.operands[1])
                op.parent.insert_before(op, replacement)
                op.replace_all_uses_with([replacement.result])
                op.erase()


class TestHarnessSensitivity:
    def test_miscompile_is_detected(self):
        # The harness must actually be able to fail: a pipeline that
        # changes arithmetic must raise DifferentialError.
        from repro.transforms import PassManager

        module, specs = _gemm_module()
        manager = PassManager()
        manager.nest("func.func").add(_MiscompilingPass())
        with pytest.raises(DifferentialError):
            run_differential(module, manager, specs=specs)

    def test_unexecutable_module_raises_when_required(self):
        module = builtin.ModuleOp.build("empty")
        with pytest.raises(DifferentialError, match="could not execute"):
            run_differential(module, "sycl-mlir")

    @pytest.mark.parametrize("pipeline", SHIPPED_PIPELINES)
    def test_local_accessor_kernel_is_synthesized(self, pipeline):
        # Kernels taking a sycl local_accessor must execute under the
        # harness (shared per-group scratch), not crash synthesis.
        def body(k):
            tile = k.parameter("tile")
            li = k.local_id(0)
            k.private_store(tile.value, li, k.load("a", [k.global_id(0)]))
            k.group_barrier()
            other = k.private_load(tile.value, (li + 1) % 2)
            k.store("out", [k.global_id(0)], other)

        source = KernelSource(
            "swap", body=body, nd_range_dims=1,
            accessors=[AccessorParam("a", 1, f32(), "read"),
                       AccessorParam("tile", 1, f32(), "read_write",
                                     target="local"),
                       AccessorParam("out", 1, f32(), "write")])
        module = wrap_in_module(source.build())
        spec = ExecutionSpec(global_size=(4,), local_size=(2,),
                             buffers={"a": (4,), "tile": (2,),
                                      "out": (4,)})
        report = run_differential(module, pipeline, specs={"swap": spec})
        assert report.executed == ["swap"]

    def test_indivisible_work_group_size_is_a_skip_not_a_crash(self):
        # NDRange validation errors must surface as skip reasons, not
        # escape the harness as raw ValueErrors.
        module, _ = build_gemm_module(size=8, work_group=3)
        executions, skipped = ExecutionEngine(
            module, tier="interp").execute_module()
        assert executions == {}
        assert "divisible" in skipped["gemm"]
        report = run_differential(module, "sycl-mlir",
                                  require_executions=False)
        assert "divisible" in report.skipped["gemm"]

    def test_trapping_division_is_not_speculated_out_of_zero_trip_loop(
            self):
        # LICM must not hoist a possibly-trapping divsi above a loop
        # that may execute zero times: with n=0 and d=0 the original
        # program never divides, so the optimized one must not either.
        from repro.dialects import arith, func as func_dialect, scf
        from repro.ir import Builder, InsertionPoint, index

        f = func_dialect.FuncOp.build("maybe_div", [index(), index()],
                                      [index()], arg_names=["n", "d"])
        n, d = f.arguments
        b = Builder(InsertionPoint.at_end(f.body))
        c0 = b.insert(arith.ConstantOp.build(0, index()))
        c1 = b.insert(arith.ConstantOp.build(1, index()))
        c10 = b.insert(arith.ConstantOp.build(10, index()))
        loop = b.insert(scf.ForOp.build(c0.result, n, c1.result,
                                        [c0.result]))
        lb = Builder(InsertionPoint.at_end(loop.body))
        quotient = lb.insert(arith.DivSIOp.build(c10.result, d))
        acc = lb.insert(arith.AddIOp.build(loop.region_iter_args[0],
                                           quotient.result))
        lb.insert(scf.YieldOp.build([acc.result]))
        b.insert(func_dialect.ReturnOp.build([loop.results[0]]))
        module = wrap_in_module(f)
        spec = ExecutionSpec(scalars={"n": 0, "d": 0})
        for pipeline in SHIPPED_PIPELINES:
            report = run_differential(module, pipeline,
                                      specs={"maybe_div": spec})
            assert report.executed == ["maybe_div"]

    def test_non_kernel_function_with_accessor_argument(self):
        # Accessor arguments are not kernel-only: a plain function
        # querying one must execute (binding wrapped on the call path).
        from repro.dialects import func as func_dialect, sycl
        from repro.ir import Builder, InsertionPoint, f32 as f32_type, index

        f = func_dialect.FuncOp.build(
            "accsize", [sycl.memref_of(sycl.AccessorType(1, f32_type()))],
            [index()], arg_names=["acc"])
        b = Builder(InsertionPoint.at_end(f.body))
        size = b.insert(sycl.SYCLAccessorSizeOp.build(f.arguments[0]))
        b.insert(func_dialect.ReturnOp.build([size.result]))
        module = wrap_in_module(f)
        executions, skipped = ExecutionEngine(
            module, tier="interp").execute_module({"accsize": ExecutionSpec(
                buffers={"acc": (6,)})})
        assert skipped == {}
        assert executions["accsize"].results == [6]

    def test_global_state_is_part_of_the_comparison(self):
        # A function whose only observable effect is a store into a
        # memref.global: the harness must snapshot that state, so a pass
        # corrupting it is caught.
        from repro.dialects import arith, func as func_dialect, memref
        from repro.ir import Builder, InsertionPoint, MemRefType, index
        from repro.transforms import PassManager

        def build_module():
            module = builtin.ModuleOp.build("g")
            module.append(memref.GlobalOp.build(
                "state", MemRefType((2,), index()), constant=False))
            f = func_dialect.FuncOp.build("bump", [index()])
            b = Builder(InsertionPoint.at_end(f.body))
            get = b.insert(memref.GetGlobalOp.build(
                "state", MemRefType((2,), index())))
            c0 = b.insert(arith.ConstantOp.build(0, index()))
            b.insert(memref.StoreOp.build(f.arguments[0], get.result,
                                          [c0.result]))
            b.insert(func_dialect.ReturnOp.build())
            module.append(f)
            return module

        module = build_module()
        executions, skipped = ExecutionEngine(
            module, tier="interp").execute_module()
        assert skipped == {}
        assert executions["bump"].memory["global:state"][0] != 0

        class _DropStores(FunctionPass):
            NAME = "test-drop-stores"

            def run_on_function(self, function, report):
                for op in list(function.walk()):
                    if op.name == "memref.store":
                        op.erase()

        manager = PassManager()
        manager.nest("func.func").add(_DropStores())
        with pytest.raises(DifferentialError, match="global:state"):
            run_differential(build_module(), manager)

    def test_execute_module_reports_skips(self):
        from repro.dialects import func as func_dialect
        from repro.ir import PointerType

        module = _listing_module()
        opaque = func_dialect.FuncOp.build("opaque", [PointerType()])
        body_builder = opaque.body
        body_builder.append(func_dialect.ReturnOp.build())
        module.append(opaque)
        executions, skipped = ExecutionEngine(
            module, tier="interp").execute_module(LISTING_SPECS)
        assert set(executions) == {"foo", "mem_acc", "non_uniform"}
        assert "opaque" in skipped


# ---------------------------------------------------------------------------
# The synthesized fill
# ---------------------------------------------------------------------------

class TestSynthesizedFill:
    def test_memref_argument_contents_are_pinned(self):
        """Memref (``"storage"``) arguments fill through the same cached
        template path as accessor buffers; values pinned for one seed."""
        from repro.dialects import func as func_dialect
        from repro.interp.differential import _materialize, synthesize_spec
        from repro.ir import MemRefType, f64, i1

        function = func_dialect.FuncOp.build(
            "fill", [MemRefType((2, 3), f32()), MemRefType((5,), index()),
                     MemRefType((4,), i1()), MemRefType((), f64())],
            arg_names=["x", "n", "flags", "s"])
        resolved = synthesize_spec(function)
        expected = {
            "x": ("float32", [0.0, 2.25, -4.125, -1.875, 0.375, 2.625]),
            "n": ("int64", [6, 2, -2, -6, 7]),
            "flags": ("int64", [1, 0, 1, 0]),
            "s": ("float64", [-2.25]),
        }
        for name, plan in zip(resolved.arg_names, resolved.arg_plans):
            assert plan[0] == "storage"
            for _ in range(2):  # first fill, then the cached template
                storage, handle = _materialize(plan, resolved.templates)
                assert handle is storage
                snapshot = storage.snapshot()
                assert (str(snapshot.dtype), snapshot.tolist()) == \
                    expected[name]
                storage.store_flat(0, 1)  # must not reach the template
        assert len(resolved.templates) == 4
