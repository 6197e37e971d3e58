"""Shared helpers for building test IR mirroring the paper's listings."""

from __future__ import annotations

import re

from repro.dialects import affine, arith, builtin, func, memref, scf, sycl
from repro.frontend.kernel_builder import AccessorParam, KernelSource
from repro.ir import (
    Builder,
    InsertionPoint,
    MemRefType,
    StringAttr,
    UnitAttr,
    f32,
    i1,
    i32,
    i64,
    index,
    int_array_attr,
    memref as memref_type,
    verify,
)
from repro.transforms import PassInstrumentation


def build_listing1_function():
    """Listing 1: a function with potentially aliasing memref arguments.

    .. code-block:: text

        func.func @foo(%cond: i1, %v1: i32, %v2: i32,
                       %ptr1: memref<i32>, %ptr2: memref<i32>) {
          scf.if %cond {
            memref.store %v1, %ptr1[] {tag = "a"}
          } else {
            memref.store %v2, %ptr2[] {tag = "b"}
          }
          ... = memref.load %ptr1[]
        }
    """
    scalar_memref = MemRefType((), i32())
    f = func.FuncOp.build(
        "foo", [i1(), i32(), i32(), scalar_memref, scalar_memref],
        arg_names=["cond", "v1", "v2", "ptr1", "ptr2"])
    cond, v1, v2, ptr1, ptr2 = f.arguments
    b = Builder(InsertionPoint.at_end(f.body))
    if_op = b.insert(scf.IfOp.build(cond, with_else=True))
    store_a = scf.IfOp and memref.StoreOp.build(v1, ptr1)
    store_a.set_attr("tag", StringAttr("a"))
    if_op.then_block.append(store_a)
    if_op.then_block.append(scf.YieldOp.build())
    store_b = memref.StoreOp.build(v2, ptr2)
    store_b.set_attr("tag", StringAttr("b"))
    if_op.else_block.append(store_b)
    if_op.else_block.append(scf.YieldOp.build())
    load = b.insert(memref.LoadOp.build(ptr1))
    b.insert(func.ReturnOp.build())
    return f, {"store_a": store_a, "store_b": store_b, "load": load,
               "ptr1": ptr1, "ptr2": ptr2}


def build_listing2_function():
    """Listing 2: a function with a divergent branch.

    The global id of an nd_item feeds a branch condition; both branch arms
    store different values to the same alloca, and a load of that alloca
    feeds a second branch, which is therefore divergent as well.
    """
    nd_item_memref = sycl.memref_of(sycl.NDItemType(2))
    f = func.FuncOp.build("non_uniform", [nd_item_memref, index()],
                          arg_names=["nd_item", "idx"])
    f.set_attr("sycl.kernel", UnitAttr())
    nd_item, idx = f.arguments
    b = Builder(InsertionPoint.at_end(f.body))
    c0_i32 = b.insert(arith.ConstantOp.build(0, i32()))
    c0 = b.insert(arith.ConstantOp.build(0, i64()))
    c1 = b.insert(arith.ConstantOp.build(1, i64()))
    c2 = b.insert(arith.ConstantOp.build(2, i64()))
    alloca = b.insert(memref.AllocaOp.build(memref_type([10], i64())))
    gid_x = b.insert(sycl.SYCLNDItemGetGlobalIDOp.build(nd_item, c0_i32.result))
    cond = b.insert(arith.CmpIOp.build("sgt", gid_x.result, c0.result))
    if_op = b.insert(scf.IfOp.build(cond.result, with_else=True))
    store_then = memref.StoreOp.build(c1.result, alloca.result, [idx])
    if_op.then_block.append(store_then)
    if_op.then_block.append(scf.YieldOp.build())
    store_else = memref.StoreOp.build(c2.result, alloca.result, [idx])
    if_op.else_block.append(store_else)
    if_op.else_block.append(scf.YieldOp.build())
    load = b.insert(memref.LoadOp.build(alloca.result, [idx]))
    cond1 = b.insert(arith.CmpIOp.build("sgt", load.result, c0.result))
    if_op2 = b.insert(scf.IfOp.build(cond1.result))
    if_op2.then_block.append(scf.YieldOp.build())
    b.insert(func.ReturnOp.build())
    return f, {"gid_x": gid_x, "cond": cond, "cond1": cond1, "load": load,
               "if_op": if_op, "if_op2": if_op2}


def build_listing3_function():
    """Listing 3: kernel loop with the paper's access-matrix example.

    The access index is ``[gid_x + 1, 2*i, 2*i + 2 + gid_y]`` where ``i`` is
    the loop induction variable.
    """
    acc_type = sycl.AccessorType(3, f32())
    item_type = sycl.ItemType(2)
    f = func.FuncOp.build(
        "mem_acc", [sycl.memref_of(acc_type), sycl.memref_of(item_type)],
        arg_names=["acc", "item"])
    f.set_attr("sycl.kernel", UnitAttr())
    acc, item = f.arguments
    b = Builder(InsertionPoint.at_end(f.body))
    c0_i32 = b.insert(arith.ConstantOp.build(0, i32()))
    c1_i32 = b.insert(arith.ConstantOp.build(1, i32()))
    c0 = b.insert(arith.ConstantOp.build(0, index()))
    c1 = b.insert(arith.ConstantOp.build(1, index()))
    c2 = b.insert(arith.ConstantOp.build(2, index()))
    c64 = b.insert(arith.ConstantOp.build(64, index()))
    id_alloca = b.insert(memref.AllocaOp.build(
        memref_type([1], sycl.IDType(3))))
    gid_x = b.insert(sycl.SYCLItemGetIDOp.build(item, c0_i32.result))
    gid_y = b.insert(sycl.SYCLItemGetIDOp.build(item, c1_i32.result))
    loop = b.insert(affine.AffineForOp.build(c0.result, c64.result, 1))
    lb = Builder(InsertionPoint.at_end(loop.body))
    iv = loop.induction_variable()
    add1 = lb.insert(arith.AddIOp.build(gid_x.result, c1.result))
    mul1 = lb.insert(arith.MulIOp.build(iv, c2.result))
    add1a = lb.insert(arith.AddIOp.build(mul1.result, c2.result))
    add1b = lb.insert(arith.AddIOp.build(add1a.result, gid_y.result))
    lb.insert(sycl.SYCLConstructorOp.build(
        "id", id_alloca.result, [add1.result, mul1.result, add1b.result]))
    subscript = lb.insert(sycl.SYCLAccessorSubscriptOp.build(acc, id_alloca.result))
    load = lb.insert(affine.AffineLoadOp.build(subscript.result, [c0.result]))
    lb.insert(affine.AffineYieldOp.build())
    b.insert(func.ReturnOp.build())
    return f, {"load": load, "loop": loop, "gid_x": gid_x, "gid_y": gid_y}


def wrap_in_module(*functions):
    module = builtin.ModuleOp.build("test")
    for function in functions:
        module.append(function)
    return module


def memory_differences(left, right):
    """How two ``FunctionExecution.memory`` dicts differ; ``[]`` when they
    hold the same buffers with equal dtypes and element-wise equal values.

    ``assert not memory_differences(a, b)`` prints what differs;
    ``assert memory_differences(a, b)`` checks that something does.
    """
    import numpy as np

    if left.keys() != right.keys():
        return [f"buffers {sorted(left)} != {sorted(right)}"]
    differences = []
    for name, values in left.items():
        other = right[name]
        if (values.dtype, values.shape) != (other.dtype, other.shape):
            differences.append(f"{name}: {values.dtype}{values.shape} != "
                               f"{other.dtype}{other.shape}")
        elif not np.array_equal(values, other):
            where = int(np.flatnonzero(values != other)[0])
            differences.append(f"{name}[{where}]: {values[where]!r} != "
                               f"{other[where]!r}")
    return differences


# ---------------------------------------------------------------------------
# Shared interpreter test kernels: the tests and the CI execution-smoke
# jobs all execute these same kernels.
# ---------------------------------------------------------------------------

def build_vecadd_source():
    """``c[i] = a[i] + b[i]`` over a 1-D range (KernelSource)."""

    def body(k):
        i = k.global_id(0)
        k.store("c", [i], k.load("a", [i]) + k.load("b", [i]))

    return KernelSource(
        "vecadd", body=body, nd_range_dims=1,
        accessors=[AccessorParam("a", 1, f32(), "read"),
                   AccessorParam("b", 1, f32(), "read"),
                   AccessorParam("c", 1, f32(), "write")])


def build_gemm_module(size=8, work_group=4):
    """An nd_item GEMM carrying its ``sycl.work_group_size`` attribute;
    returns ``(module, {"gemm": spec})``.

    ``sycl-mlir`` tiles its k-loop through local memory (with barriers)
    when the tile pays: with work-groups of 8, not with work-groups of 2
    or 4, where Loop Internalization declines and Detect Reduction keeps
    ``C[i, j]`` in a register untiled.
    """
    from repro.interp import ExecutionSpec

    def body(k):
        i = k.global_id(0)
        j = k.global_id(1)
        with k.loop(0, size) as kk:
            value = k.load("C", [i, j]) \
                + k.load("A", [i, kk]) * k.load("B", [kk, j])
            k.store("C", [i, j], value)

    source = KernelSource(
        "gemm", body=body, nd_range_dims=2,
        accessors=[AccessorParam("A", 2, f32(), "read"),
                   AccessorParam("B", 2, f32(), "read"),
                   AccessorParam("C", 2, f32(), "read_write")])
    function = source.build()
    function.set_attr("sycl.work_group_size",
                      int_array_attr([work_group, work_group], i64()))
    module = builtin.ModuleOp.build("kernels")
    module.append(function)
    verify(module)
    spec = ExecutionSpec(global_size=(size, size),
                         local_size=(work_group, work_group),
                         buffers={name: (size, size) for name in "ABC"})
    return module, {"gemm": spec}


def listing_execution_specs():
    """Launch configurations for the paper listing kernels.

    Listing 3's access index reaches ``[gid+1, 2i, 2i+2+gid]`` with
    ``i < 64``, so its buffer must extend past 128 in the loop
    dimensions.
    """
    from repro.interp import ExecutionSpec

    return {
        "non_uniform": ExecutionSpec(global_size=(4, 4),
                                     scalars={"idx": 3}),
        "mem_acc": ExecutionSpec(global_size=(2, 2),
                                 buffers={"acc": (3, 128, 130)}),
    }


# ---------------------------------------------------------------------------
# Ablations: a named pipeline with some passes left out
# ---------------------------------------------------------------------------

#: Ablation id -> the pass ``NAME``\ s it drops from ``sycl-mlir``
#: (``all_disabled``: the paper's five SYCL passes).
ABLATIONS = {
    "licm": frozenset({"sycl-licm"}),
    "detect_reduction": frozenset({"detect-reduction"}),
    "loop_internalization": frozenset({"loop-internalization"}),
    "host_device_propagation": frozenset({"host-device-propagation"}),
    "host_raising": frozenset({"host-raising"}),
    "canonicalize": frozenset({"canonicalize", "cse", "dce"}),
    "all_disabled": frozenset({
        "host-raising", "host-device-propagation", "loop-internalization",
        "sycl-licm", "detect-reduction"}),
}


def ablated(name, drop):
    """``build_named_pipeline(name)`` without the passes named in
    ``drop``; a ``func.func`` nest left empty goes too."""
    from repro.transforms import OpPassManager, build_named_pipeline

    def prune(pipeline):
        kept = []
        for element in pipeline.elements:
            if isinstance(element, OpPassManager):
                prune(element)
                if element.elements:
                    kept.append(element)
            elif element.NAME not in drop:
                kept.append(element)
        pipeline.elements = kept

    manager = build_named_pipeline(name)
    prune(manager)
    return manager


#: An op line's head and its successor list, in the printed order.
_SUCCESSORS_RE = re.compile(
    r'^(\s*(?:%[^"]* = )?"[^"]+"\([^)]*\))\[([^\]]*)\](.*)$')


def classic_order(text):
    """``text`` as the printer prints it (without locations), re-spelled
    in the classic clause order the parser still reads: each op's
    attribute dictionary and signature before its regions, and its
    successors after the signature."""
    lines = text.split("\n")
    opened = []  # lines whose op opens a region list, innermost last
    for index, line in enumerate(lines):
        body = line.lstrip()
        if body.startswith("})"):
            head = opened.pop()
            lines[head] = lines[head][:-len(" ({")] + body[2:] + " ({"
            lines[index] = line[:len(line) - len(body)] + "})"
        elif line.endswith(" ({"):
            opened.append(index)
        else:
            lines[index] = _SUCCESSORS_RE.sub(r"\1\3 [\2]", line)
    return "\n".join(lines)


def e2e_programs():
    """``benchmarks/e2e/programs.py`` (the benchmark's seeded program
    sets) as a module, loaded once per process."""
    import importlib.util
    import pathlib
    import sys

    programs = sys.modules.get("e2e_programs")
    if programs is None:
        path = (pathlib.Path(__file__).parent.parent / "benchmarks" / "e2e"
                / "programs.py")
        spec = importlib.util.spec_from_file_location("e2e_programs", path)
        programs = sys.modules["e2e_programs"] = \
            importlib.util.module_from_spec(spec)
        spec.loader.exec_module(programs)
    return programs


def use_list_errors(root):
    """How the use lists under ``root`` disagree with the operands, as
    messages (empty when they agree): operand ``i`` of every op must be
    the key ``(op, i)`` of its value's ``_uses``, and every key of the
    ``_uses`` of a value defined or used under ``root`` must name an op
    still in the tree whose operand ``i`` is that value."""
    live = set()
    values = {}
    errors = []
    for op in root.walk():
        live.add(id(op))
        for region in op.regions:
            for block in region.blocks:
                for argument in block.arguments:
                    values[id(argument)] = argument
        for result in op.results:
            values[id(result)] = result
        for index, operand in enumerate(op._operands):
            values[id(operand)] = operand
            if (op, index) not in operand._uses:
                errors.append(f"{op.name} operand {index} is not a use of "
                              f"{operand!r}")
    for value in values.values():
        for owner, index in value._uses:
            operands = owner._operands
            if id(owner) not in live:
                errors.append(f"{value!r} is used by {owner.name}, which is "
                              f"no longer in the IR")
            elif index >= len(operands) or operands[index] is not value:
                errors.append(f"{value!r} lists operand {index} of "
                              f"{owner.name}, which is another value")
    return errors


class UseListCheck(PassInstrumentation):
    """Asserts :func:`use_list_errors` is empty before a pipeline and
    after every pass; ``passes`` counts the passes it checked."""

    passes = 0

    def run_before_pipeline(self, op):
        errors = use_list_errors(op)
        assert not errors, f"before the pipeline: {errors}"

    def run_after_pass(self, pass_, op):
        errors = use_list_errors(op)
        assert not errors, f"after {pass_.NAME}: {errors}"
        self.passes += 1
