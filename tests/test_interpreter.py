"""Tests for the IR interpreter (repro.interp).

Covers the evaluator registry, scalar/control-flow/memory semantics,
kernel launches over ranges and ND-ranges (including barrier-phased
work-group execution and shared local tiles), and the runtime wiring
(Buffer transfer accounting)."""

import numpy as np
import pytest

from repro.dialects import affine, arith, builtin, func, memref, scf, sycl
from repro.frontend.kernel_builder import (
    AccessorParam,
    KernelSource,
    ScalarParam,
)
from repro.interp import (
    ExecutionEngine,
    Interpreter,
    InterpreterError,
    MemRefStorage,
    TrapError,
    lookup_evaluator,
    register_evaluator,
    registered_evaluators,
)
from repro.interp.registry import EvaluatorRegistrationError
from repro.ir import (
    Builder,
    DenseElementsAttr,
    InsertionPoint,
    MemRefType,
    Operation,
    f32,
    i32,
    index,
    SymbolRefAttr,
    register_op,
    verify,
)
from repro.runtime import Accessor, Buffer, LocalAccessor

from .helpers import build_vecadd_source, wrap_in_module

_vecadd_source = build_vecadd_source


def _engine(module):
    """The scalar tier behind the one execution entry point."""
    return ExecutionEngine(module, tier="interp")


def _function(name, arg_types, result_types=(), arg_names=None):
    f = func.FuncOp.build(name, arg_types, result_types,
                          arg_names=arg_names)
    return f, Builder(InsertionPoint.at_end(f.body))


class TestRegistry:
    def test_core_dialects_registered(self):
        evaluators = registered_evaluators()
        for name in ("arith.addi", "arith.constant", "scf.for", "scf.if",
                     "affine.for", "memref.load", "memref.store",
                     "func.call", "func.return", "sycl.accessor.subscript",
                     "sycl.group_barrier"):
            assert name in evaluators

    def test_duplicate_registration_rejected(self):
        assert lookup_evaluator("arith.addi") is not None
        with pytest.raises(EvaluatorRegistrationError):
            register_evaluator("arith.addi", lambda ctx, op, args: [0])

    def test_unregistered_op_reports_name(self):
        @register_op
        class _OpaqueOp(Operation):
            OPERATION_NAME = "test.opaque_interp"

        f, b = _function("opaque", [])
        b.insert(_OpaqueOp(operands=(), result_types=()))
        b.insert(func.ReturnOp.build())
        interp = Interpreter(wrap_in_module(f))
        with pytest.raises(InterpreterError, match="test.opaque_interp"):
            interp.call("opaque", [])

    def test_interface_fallback_evaluates_math(self):
        # math unary ops have no registry entry; they run through
        # InterpretableOpInterface.interpret (PY_FUNC is the semantics).
        from repro.dialects import math as math_dialect

        assert lookup_evaluator("math.sqrt") is None
        f, b = _function("root", [f32()], [f32()])
        op = b.insert(math_dialect.SqrtOp.build(f.arguments[0]))
        b.insert(func.ReturnOp.build([op.result]))
        interp = Interpreter(wrap_in_module(f))
        assert interp.call("root", [9.0]) == [3.0]


class TestScalarSemantics:
    def test_arithmetic_and_compare(self):
        f, b = _function("f", [index(), index()], [index(), i32()])
        a, c = f.arguments
        mul = b.insert(arith.MulIOp.build(a, c))
        cmp = b.insert(arith.CmpIOp.build("slt", a, c))
        sel = b.insert(arith.SelectOp.build(
            cmp.result,
            b.insert(arith.ConstantOp.build(1, i32())).result,
            b.insert(arith.ConstantOp.build(0, i32())).result))
        b.insert(func.ReturnOp.build([mul.result, sel.result]))
        module = wrap_in_module(f)
        assert Interpreter(module).call("f", [3, 7]) == [21, 1]
        assert Interpreter(module).call("f", [7, 3]) == [21, 0]

    def test_division_by_zero_traps(self):
        f, b = _function("f", [index(), index()], [index()])
        div = b.insert(arith.DivSIOp.build(*f.arguments))
        b.insert(func.ReturnOp.build([div.result]))
        with pytest.raises(TrapError, match="division by zero"):
            Interpreter(wrap_in_module(f)).call("f", [1, 0])

    def test_casts(self):
        f, b = _function("f", [f32()], [i32(), f32()])
        to_int = b.insert(arith.FPToSIOp.build(f.arguments[0], i32()))
        back = b.insert(arith.SIToFPOp.build(to_int.result, f32()))
        b.insert(func.ReturnOp.build([to_int.result, back.result]))
        assert Interpreter(wrap_in_module(f)).call("f", [2.75]) == [2, 2.0]

    def test_cast_of_nan_or_inf_traps(self):
        import math

        f, b = _function("f", [f32()], [i32()])
        to_int = b.insert(arith.FPToSIOp.build(f.arguments[0], i32()))
        b.insert(func.ReturnOp.build([to_int.result]))
        module = wrap_in_module(f)
        with pytest.raises(TrapError, match="cannot convert"):
            Interpreter(module).call("f", [math.nan])
        with pytest.raises(TrapError, match="cannot convert"):
            Interpreter(module).call("f", [math.inf])


class TestControlFlow:
    def test_scf_for_with_iter_args(self):
        f, b = _function("sum_to", [index()], [index()])
        c0 = b.insert(arith.ConstantOp.build(0, index()))
        c1 = b.insert(arith.ConstantOp.build(1, index()))
        loop = b.insert(scf.ForOp.build(c0.result, f.arguments[0],
                                        c1.result, [c0.result]))
        lb = Builder(InsertionPoint.at_end(loop.body))
        add = lb.insert(arith.AddIOp.build(loop.region_iter_args[0],
                                           loop.induction_variable()))
        lb.insert(scf.YieldOp.build([add.result]))
        b.insert(func.ReturnOp.build([loop.results[0]]))
        assert Interpreter(wrap_in_module(f)).call("sum_to", [10]) == [45]

    def test_scf_if_returns_branch_value(self):
        f, b = _function("pick", [index(), index(), index()], [index()])
        cond_arg, x, y = f.arguments
        c0 = b.insert(arith.ConstantOp.build(0, index()))
        cond = b.insert(arith.CmpIOp.build("sgt", cond_arg, c0.result))
        if_op = b.insert(scf.IfOp.build(cond.result, [index()],
                                        with_else=True))
        if_op.then_block.append(scf.YieldOp.build([x]))
        if_op.else_block.append(scf.YieldOp.build([y]))
        b.insert(func.ReturnOp.build([if_op.results[0]]))
        module = wrap_in_module(f)
        assert Interpreter(module).call("pick", [1, 10, 20]) == [10]
        assert Interpreter(module).call("pick", [-1, 10, 20]) == [20]

    def test_scf_while_counts_down(self):
        f, b = _function("countdown", [index()], [index()])
        op = b.insert(scf.WhileOp.build([f.arguments[0]], [index()]))
        before = Builder(InsertionPoint.at_end(op.before_block))
        c0 = before.insert(arith.ConstantOp.build(0, index()))
        cond = before.insert(arith.CmpIOp.build(
            "sgt", op.before_block.arguments[0], c0.result))
        before.insert(scf.ConditionOp.build(
            cond.result, [op.before_block.arguments[0]]))
        after = Builder(InsertionPoint.at_end(op.after_block))
        c1 = after.insert(arith.ConstantOp.build(1, index()))
        sub = after.insert(arith.SubIOp.build(
            op.after_block.arguments[0], c1.result))
        after.insert(scf.YieldOp.build([sub.result]))
        b.insert(func.ReturnOp.build([op.results[0]]))
        assert Interpreter(wrap_in_module(f)).call("countdown", [5]) == [0]

    def test_affine_for_and_apply(self):
        f, b = _function("poly", [], [index()])
        c0 = b.insert(arith.ConstantOp.build(0, index()))
        c4 = b.insert(arith.ConstantOp.build(4, index()))
        loop = b.insert(affine.AffineForOp.build(c0.result, c4.result,
                                                 step=1,
                                                 iter_args=[c0.result]))
        lb = Builder(InsertionPoint.at_end(loop.body))
        # 3*iv + 1, accumulated.
        apply = lb.insert(affine.AffineApplyOp.build(
            [3], [loop.induction_variable()], constant=1))
        add = lb.insert(arith.AddIOp.build(loop.region_iter_args[0],
                                           apply.result))
        lb.insert(affine.AffineYieldOp.build([add.result]))
        b.insert(func.ReturnOp.build([loop.results[0]]))
        # sum over iv in 0..3 of 3*iv+1 = 1+4+7+10 = 22
        assert Interpreter(wrap_in_module(f)).call("poly", []) == [22]

    def test_call_between_functions(self):
        callee, cb = _function("double", [index()], [index()])
        add = cb.insert(arith.AddIOp.build(callee.arguments[0],
                                           callee.arguments[0]))
        cb.insert(func.ReturnOp.build([add.result]))
        caller, b = _function("main", [index()], [index()])
        call = b.insert(func.CallOp.build("double", [caller.arguments[0]],
                                          [index()]))
        b.insert(func.ReturnOp.build([call.results[0]]))
        module = wrap_in_module(callee, caller)
        interp = Interpreter(module)
        assert interp.call("main", [21]) == [42]
        assert interp.counters.calls == 1

    def test_step_budget_traps(self):
        f, b = _function("spin", [], [])
        c0 = b.insert(arith.ConstantOp.build(0, index()))
        c1 = b.insert(arith.ConstantOp.build(1, index()))
        big = b.insert(arith.ConstantOp.build(10_000_000, index()))
        loop = b.insert(scf.ForOp.build(c0.result, big.result, c1.result))
        lb = Builder(InsertionPoint.at_end(loop.body))
        lb.insert(scf.YieldOp.build())
        b.insert(func.ReturnOp.build())
        interp = Interpreter(wrap_in_module(f), max_steps=1000)
        with pytest.raises(TrapError, match="step budget"):
            interp.call("spin", [])


class TestMemory:
    def test_alloca_store_load(self):
        f, b = _function("mem", [index()], [index()])
        alloca = b.insert(memref.AllocaOp.build(MemRefType((4,), index())))
        c2 = b.insert(arith.ConstantOp.build(2, index()))
        b.insert(memref.StoreOp.build(f.arguments[0], alloca.result,
                                      [c2.result]))
        load = b.insert(memref.LoadOp.build(alloca.result, [c2.result]))
        b.insert(func.ReturnOp.build([load.result]))
        interp = Interpreter(wrap_in_module(f))
        assert interp.call("mem", [99]) == [99]
        assert interp.counters.loads == 1
        assert interp.counters.stores == 1

    def test_out_of_bounds_traps(self):
        f, b = _function("oob", [index()], [index()])
        alloca = b.insert(memref.AllocaOp.build(MemRefType((4,), index())))
        load = b.insert(memref.LoadOp.build(alloca.result, [f.arguments[0]]))
        b.insert(func.ReturnOp.build([load.result]))
        with pytest.raises(TrapError, match="out of bounds"):
            Interpreter(wrap_in_module(f)).call("oob", [7])

    def test_memref_global_initial_value(self):
        module = builtin.ModuleOp.build("m")
        module.append(memref.GlobalOp.build(
            "weights", MemRefType((3,), index()),
            DenseElementsAttr((5, 6, 7), (3,), index())))
        f, b = _function("read", [index()], [index()])
        get = b.insert(memref.GetGlobalOp.build(
            "weights", MemRefType((3,), index())))
        load = b.insert(memref.LoadOp.build(get.result, [f.arguments[0]]))
        b.insert(func.ReturnOp.build([load.result]))
        module.append(f)
        assert Interpreter(module).call("read", [1]) == [6]

    def test_copy_through_accessor_views(self):
        # memref.copy must accept subscript-produced views, not just
        # whole storages.
        from repro.interp import MemRefView

        f, b = _function("cp", [MemRefType((4,), index()),
                                MemRefType((4,), index())])
        b.insert(memref.CopyOp.build(f.arguments[0], f.arguments[1]))
        b.insert(func.ReturnOp.build())
        src = MemRefStorage((6,), index())
        for i in range(6):
            src.store_flat(i, i * 10)
        dst = MemRefStorage((4,), index())
        Interpreter(wrap_in_module(f)).call(
            "cp", [MemRefView(src, 2), dst])
        assert dst.snapshot().tolist() == [20, 30, 40, 50]

    def test_shift_out_of_range_traps(self):
        f, b = _function("sh", [i32(), i32()], [i32()])
        op = b.insert(arith.ShLIOp.build(*f.arguments))
        b.insert(func.ReturnOp.build([op.result]))
        module = wrap_in_module(f)
        assert Interpreter(module).call("sh", [1, 4]) == [16]
        with pytest.raises(TrapError, match="shift amount"):
            Interpreter(module).call("sh", [1, 64])
        with pytest.raises(TrapError, match="shift amount"):
            Interpreter(module).call("sh", [1, -2])

    def test_float_division_by_zero_is_ieee(self):
        import math

        f, b = _function("d", [f32(), f32()], [f32()])
        op = b.insert(arith.DivFOp.build(*f.arguments))
        b.insert(func.ReturnOp.build([op.result]))
        interp = Interpreter(wrap_in_module(f))
        assert interp.call("d", [1.0, 0.0]) == [math.inf]
        assert interp.call("d", [-2.0, 0.0]) == [-math.inf]
        assert math.isnan(interp.call("d", [0.0, 0.0])[0])

    def test_storage_argument_roundtrip(self):
        f, b = _function("fill", [MemRefType((3,), index())])
        c0 = b.insert(arith.ConstantOp.build(0, index()))
        c7 = b.insert(arith.ConstantOp.build(7, index()))
        b.insert(memref.StoreOp.build(c7.result, f.arguments[0],
                                      [c0.result]))
        b.insert(func.ReturnOp.build())
        storage = MemRefStorage((3,), index())
        Interpreter(wrap_in_module(f)).call("fill", [storage])
        assert storage.snapshot().tolist() == [7, 0, 0]


class TestKernelLaunch:
    def test_vecadd_over_range(self):
        module = wrap_in_module(_vecadd_source().build())
        verify(module)
        a = Buffer(np.arange(8, dtype=np.float32))
        b = Buffer(np.full(8, 10.0, dtype=np.float32))
        c = Buffer((8,))
        result = _engine(module).launch("vecadd", [Accessor(a, "read"),
                                                   Accessor(b, "read"),
                                                   Accessor(c, "write")],
                                        (8,))
        assert result.num_work_items == 8
        assert result.counters.work_items == 8
        np.testing.assert_allclose(
            c.host_array(), np.arange(8, dtype=np.float32) + 10.0)

    def test_launch_moves_data_through_runtime_buffers(self):
        module = wrap_in_module(_vecadd_source().build())
        a = Buffer(np.ones(4, dtype=np.float32))
        b = Buffer(np.ones(4, dtype=np.float32))
        c = Buffer((4,))
        _engine(module).launch(
            "vecadd", [Accessor(a, "read"), Accessor(b, "read"),
                       Accessor(c, "write")], (4,))
        # device_array() transfers were accounted on the buffers.
        assert a.bytes_to_device == a.size_bytes()
        assert c.host_array()[0] == 2.0
        assert c.bytes_to_host == c.size_bytes()

    def test_barrier_outside_nd_launch_traps(self):
        def body(k):
            k.group_barrier()

        source = KernelSource("bar", body=body, nd_range_dims=1)
        module = wrap_in_module(source.build())
        with pytest.raises(TrapError, match="local range"):
            _engine(module).launch("bar", [], (4,))

    def test_barrier_phases_within_group(self):
        # Work item 0 of each group sums the slots its whole group wrote
        # before the barrier — only correct under barrier-phased
        # execution, not under sequential whole-item execution.
        def body(k):
            i = k.global_id(0)
            k.store("c", [i], k.load("a", [i]))
            k.group_barrier()
            with k.if_then(k.local_id(0).eq(0)):
                base = k.group_id(0) * 4
                total = k.load("c", [base]) + k.load("c", [base + 1]) \
                    + k.load("c", [base + 2]) + k.load("c", [base + 3])
                k.store("c", [base], total)

        source = KernelSource(
            "groupsum", body=body, nd_range_dims=1,
            accessors=[AccessorParam("a", 1, f32(), "read"),
                       AccessorParam("c", 1, f32(), "read_write")])
        module = wrap_in_module(source.build())
        a = Buffer(np.arange(8, dtype=np.float32))
        c = Buffer((8,))
        result = _engine(module).launch(
            "groupsum", [Accessor(a, "read"), Accessor(c, "read_write")],
            (8,), (4,))
        assert result.counters.barriers == 8
        result = c.host_array()
        assert result[0] == 0 + 1 + 2 + 3
        assert result[4] == 4 + 5 + 6 + 7

    def test_local_accessor_shared_within_group(self):
        # Each item writes its value into the local tile; after the
        # barrier item 0 stores the tile's sum — exercising per-group
        # local-accessor storage.
        def body(k):
            local = k.parameter("tile")
            li = k.local_id(0)
            k.private_store(local.value, li, k.load("a", [k.global_id(0)]))
            k.group_barrier()
            with k.if_then(li.eq(0)):
                total = k.private_load(local.value, 0) \
                    + k.private_load(local.value, 1)
                k.store("c", [k.group_id(0)], total)

        source = KernelSource(
            "tilesum", body=body, nd_range_dims=1,
            accessors=[AccessorParam("a", 1, f32(), "read"),
                       AccessorParam(
                           "tile", 1, f32(), "read_write", target="local"),
                       AccessorParam("c", 1, f32(), "write")])
        module = wrap_in_module(source.build())
        a = Buffer(np.arange(4, dtype=np.float32) + 1.0)
        c = Buffer((2,))
        _engine(module).launch(
            "tilesum",
            [Accessor(a, "read"), LocalAccessor(2), Accessor(c, "write")],
            (4,), (2,))
        np.testing.assert_allclose(c.host_array(), [1.0 + 2.0, 3.0 + 4.0])

    def test_ranged_accessor_offset_applied(self):
        module = wrap_in_module(_vecadd_source().build())
        backing = Buffer(np.arange(8, dtype=np.float32))
        ones = Buffer(np.zeros(4, dtype=np.float32))
        out = Buffer((8,))
        # A ranged view of elements [2..6): reads must start at 2.
        from repro.runtime import ID, Range

        ranged = Accessor(backing, "read", access_range=Range(4),
                          offset=ID(2))
        _engine(module).launch(
            "vecadd", [ranged, Accessor(ones, "read"),
                       Accessor(out, "write")], (4,))
        np.testing.assert_allclose(out.host_array()[:4], [2, 3, 4, 5])

    def test_ranged_accessor_survives_accessor_lowering(self):
        # get_pointer must be based at the accessor offset, or IR
        # lowered by lower-sycl-accessors addresses the wrong elements.
        from repro.transforms import build_named_pipeline

        module = wrap_in_module(_vecadd_source().build())
        lowered = module.clone({})
        build_named_pipeline("adaptivecpp-aot").run(lowered)

        def run(target):
            backing = Buffer(np.arange(8, dtype=np.float32))
            zeros = Buffer(np.zeros(4, dtype=np.float32))
            out = Buffer((8,))
            from repro.runtime import ID, Range

            _engine(target).launch(
                "vecadd",
                [Accessor(backing, "read", access_range=Range(4),
                          offset=ID(2)),
                 Accessor(zeros, "read"), Accessor(out, "write")], (4,))
            return list(out.host_array())

        assert run(module) == run(lowered)

    def test_launch_counters_are_per_launch(self):
        module = wrap_in_module(_vecadd_source().build())

        def buffers():
            return [Accessor(Buffer(np.ones(4, dtype=np.float32)), "read"),
                    Accessor(Buffer(np.ones(4, dtype=np.float32)), "read"),
                    Accessor(Buffer((4,)), "write")]

        interp = Interpreter(module)
        first = interp.launch("vecadd", buffers(), (4,))
        first_ops = first.counters.ops
        second = interp.launch("vecadd", buffers(), (4,))
        # Each LaunchResult reports only its own work; the interpreter
        # keeps the cumulative totals.
        assert first.counters.ops == first_ops
        assert second.counters.ops == first_ops
        assert interp.counters.ops == 2 * first_ops

    def test_scalar_kernel_arguments(self):
        def body(k):
            i = k.global_id(0)
            k.store("c", [i], k.load("c", [i]) * k.parameter("factor"))

        source = KernelSource(
            "scale", body=body, nd_range_dims=1,
            accessors=[AccessorParam("c", 1, f32(), "read_write")],
            scalars=[ScalarParam("factor", f32())])
        module = wrap_in_module(source.build())
        c = Buffer(np.ones(4, dtype=np.float32))
        _engine(module).launch("scale", [Accessor(c), 2.5], (4,))
        np.testing.assert_allclose(c.host_array(), np.full(4, 2.5))

    def test_powf_negative_base_traps(self):
        from repro.dialects import math as math_dialect

        f, b = _function("p", [f32(), f32()], [f32()])
        op = b.insert(math_dialect.PowFOp.build(*f.arguments))
        b.insert(func.ReturnOp.build([op.result]))
        interp = Interpreter(wrap_in_module(f))
        assert interp.call("p", [4.0, 0.5]) == [2.0]
        with pytest.raises(TrapError, match="powf"):
            interp.call("p", [-4.0, 0.5])

    def test_local_accessor_without_workgroup_traps(self):
        def body(k):
            k.parameter("tile")

        source = KernelSource(
            "needslocal", body=body, nd_range_dims=1,
            accessors=[AccessorParam("tile", 1, f32(), "read_write",
                                     target="local")])
        module = wrap_in_module(source.build())
        with pytest.raises(TrapError, match="local_size"):
            _engine(module).launch("needslocal", [LocalAccessor(2)], (4,))

    def test_dimension_query_out_of_rank_traps(self):
        # Launching a 2-D kernel over a 1-D range: get_global_id(1) must
        # trap, not escape with a raw IndexError.
        from .helpers import build_gemm_module

        module, _ = build_gemm_module(size=4, work_group=2)
        from repro.runtime import Accessor as Acc

        buffers = [Acc(Buffer((4, 4))) for _ in range(3)]
        with pytest.raises(TrapError, match="dimension 1 out of range"):
            _engine(module).launch("gemm", buffers, (4,))

    def test_item_kernel_local_queries_trap(self):
        def body(k):
            k.local_id(0)

        source = KernelSource("itemk", body=body, nd_range_dims=1)
        module = wrap_in_module(source.build())
        with pytest.raises(TrapError, match="local range"):
            _engine(module).launch("itemk", [], (2,))

    def test_host_ops_are_rejected_with_reason(self):
        f, b = _function("host", [sycl.memref_of(sycl.QueueType())])
        b.insert(sycl.SYCLHostSubmitOp.build(f.arguments[0],
                                             SymbolRefAttr("cgf")))
        b.insert(func.ReturnOp.build())
        interp = Interpreter(wrap_in_module(f))
        with pytest.raises(TrapError, match="host-side"):
            interp.call("host", [MemRefStorage((1,), index())])
