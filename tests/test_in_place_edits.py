"""Edits in place: :meth:`Operation.retype` and the use lists behind it.

A 1:1 conversion turns an op into another op class where it stands
instead of building a copy, rewiring the uses and erasing the original;
erasing, RAUW and ``set_operand`` edit the ``_uses`` dicts directly.
The use-list invariant (:func:`helpers.use_list_errors`) is checked
after every pass of every device pipeline and of ``lower-to-llvm``.
"""

import pytest

from repro.dialects import arith, func, llvm, memref
from repro.ir import (
    IRError,
    Location,
    MemRefType,
    Operation,
    Printer,
    StringAttr,
    f32,
    index,
    parse_module,
    verify,
)
from repro.ir.operations import op_memo, version_stamp
from repro.transforms import build_named_pipeline

from .helpers import (
    UseListCheck,
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    e2e_programs,
    use_list_errors,
    wrap_in_module,
)

DEVICE_PIPELINES = ("sycl-mlir", "dpcpp", "adaptivecpp-aot",
                    "adaptivecpp-jit")


def _units():
    """``(label, text)``: the three paper listings and one variant of
    each program family of the compile workloads."""
    for label, build in (("listing1", build_listing1_function),
                         ("listing2", build_listing2_function),
                         ("listing3", build_listing3_function)):
        yield label, Printer().print_module(wrap_in_module(build()[0]))
    programs = e2e_programs()
    for program in programs.compile_variants(101, 1):
        yield program.name, programs.module_text([program])


UNITS = list(_units())


class TestUseListsAfterEveryPass:
    @pytest.mark.parametrize("pipeline", DEVICE_PIPELINES)
    @pytest.mark.parametrize("label, text", UNITS,
                             ids=[label for label, _ in UNITS])
    def test_pipeline_then_lowering(self, pipeline, label, text):
        module = parse_module(text)
        for name in (pipeline, "lower-to-llvm"):
            check = UseListCheck()
            manager = build_named_pipeline(name)
            manager.add_instrumentation(check)
            manager.run(module)
            assert check.passes > 0
        verify(module)
        assert not use_list_errors(module)

    def test_the_check_sees_a_broken_use_list(self):
        module = parse_module(UNITS[0][1])
        op = next(op for op in module.walk() if op._operands)
        del op._operands[0]._uses[(op, 0)]
        assert use_list_errors(module) == [
            f"{op.name} operand 0 is not a use of {op._operands[0]!r}"]
        op._operands[0]._uses[(op, 0)] = None
        other = next(value for value in (r for o in module.walk()
                                         for r in o.results)
                     if value is not op._operands[0])
        other._uses[(op, 0)] = None
        assert use_list_errors(module) == [
            f"{other!r} lists operand 0 of {op.name}, which is another "
            f"value"]


def _function_with_load():
    """``f(%buffer: memref<4xf32>, %i: index)`` loading ``%buffer[%i]``
    into a result named ``x`` and adding it to itself."""
    memref_type = MemRefType((4,), f32())
    function = func.FuncOp.build("f", [memref_type, index()],
                                 arg_names=["buffer", "i"])
    buffer, i = function.arguments
    load = memref.LoadOp.build(buffer, [i])
    load.results[0]._name_hint = "x"
    load.location = Location("k.cpp", 7, 3)
    twice = arith.AddFOp.build(load.results[0], load.results[0])
    for op in (load, twice, func.ReturnOp.build()):
        function.body.append(op)
    wrap_in_module(function)
    return function, load, twice


class TestRetype:
    def test_keeps_identity_results_name_hints_and_location(self):
        function, load, twice = _function_with_load()
        result = load.results[0]
        pointer = function.arguments[0]
        assert load.retype(llvm.LLVMLoadOp, (pointer,), {}) is load
        assert type(load) is llvm.LLVMLoadOp
        assert load.results[0] is result and result._name_hint == "x"
        assert load.location == Location("k.cpp", 7, 3)
        assert twice._operands == [result, result]
        assert load.parent is function.body and twice.prev_op() is load
        assert not use_list_errors(function)
        assert "%x = \"llvm.load\"(%buffer)" in Printer().print_op_to_string(
            function)

    def test_replaces_operands_and_attributes(self):
        function, load, _ = _function_with_load()
        buffer, i = function.arguments
        load.retype(llvm.LLVMLoadOp, (buffer,), {"tag": StringAttr("t")})
        assert load._operands == [buffer]
        assert (load, 1) not in i._uses and not i._uses
        assert list(buffer._uses) == [(load, 0)]
        assert load.attributes == {"tag": StringAttr("t")}
        load.retype(memref.LoadOp, (buffer, i))
        assert load.attributes == {"tag": StringAttr("t")}
        assert not use_list_errors(function)

    def test_moves_the_stamp_and_empties_op_memo(self):
        function, load, _ = _function_with_load()
        stamp = version_stamp(function)
        op_memo(function)["fact"] = 1
        op_memo(load)["fact"] = 2
        load.retype(llvm.LLVMLoadOp, (function.arguments[0],))
        assert version_stamp(function) != stamp
        assert op_memo(function) == {} and op_memo(load) == {}

    def test_rejects_another_layout(self):
        function, load, _ = _function_with_load()
        store = memref.StoreOp.build(load.results[0], function.arguments[0],
                                     [function.arguments[1]])
        with pytest.raises(IRError, match="cannot retype memref.store to "
                                          "func.func in place"):
            store.retype(func.FuncOp)
        with pytest.raises(IRError, match="in place"):
            function.retype(llvm.LLVMFuncOp)

        class Slotted(Operation):
            __slots__ = ("extra",)
            OPERATION_NAME = "test.slotted"

        assert not Slotted._PLAIN and memref.StoreOp._PLAIN
        with pytest.raises(IRError):
            store.retype(Slotted)
        assert type(store) is memref.StoreOp

    def test_rejects_another_result_count(self):
        function, load, _ = _function_with_load()
        buffer, i = function.arguments
        with pytest.raises(IRError, match="cannot retype memref.load to "
                                          "llvm.store"):
            load.retype(llvm.LLVMStoreOp, (load.results[0], buffer))
        with pytest.raises(IRError):
            function.body.last_op.retype(memref.LoadOp, (buffer, i))
        # nothing moved
        assert type(load) is memref.LoadOp
        assert load._operands == [buffer, i]
        assert not use_list_errors(function)


class TestUseListEdits:
    def test_erase_refuses_an_op_with_uses(self):
        _, load, twice = _function_with_load()
        with pytest.raises(IRError, match="results still have uses"):
            load.erase()
        twice.erase()
        assert twice.parent is None and not twice._operands
        assert not load.results[0]._uses
        load.erase()
        assert load.parent is None

    def test_erase_unlinks_and_moves_the_stamp(self):
        function, load, twice = _function_with_load()
        ret = function.body.last_op
        stamp = version_stamp(function)
        twice.erase()
        assert version_stamp(function) != stamp
        assert load.next_op() is ret and ret.prev_op() is load
        assert len(function.body) == 2
        assert function.body.operations == [load, ret]
        assert not use_list_errors(function)

    def test_replace_all_uses_with_keeps_use_order(self):
        function, load, twice = _function_with_load()
        buffer, i = function.arguments
        other = memref.LoadOp.build(buffer, [i])
        function.body.insert_before(load, other)
        stamp = version_stamp(function)
        load.results[0].replace_all_uses_with(other.results[0])
        assert version_stamp(function) != stamp
        assert twice._operands == [other.results[0], other.results[0]]
        assert list(other.results[0]._uses) == [(twice, 0), (twice, 1)]
        assert not load.results[0]._uses
        assert not use_list_errors(function)

    def test_set_operand(self):
        function, load, twice = _function_with_load()
        buffer, i = function.arguments
        twice.set_operand(1, i)
        assert list(load.results[0]._uses) == [(twice, 0)]
        assert list(i._uses) == [(load, 1), (twice, 1)]
        assert not use_list_errors(function)
