"""Version stamps: the one invalidation idiom for derived facts.

Every isolated-from-above op (function, module, nested kernel module)
carries a stamp that any edit inside it moves; facts memoized on an op
(:func:`repro.ir.operations.op_memo`) and cached analyses hold until
that stamp moves.  The properties pinned here: an edit moves exactly the
stamps around it, so facts about *other* functions and modules survive
it (a warm execute after an unrelated compile neither re-prints nor
re-analyses its kernel); an edit in place is never answered from an old
fact, on any tier; and printed IR does not depend on the hash seed.
"""

import gc
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from repro.analysis import AnalysisManager
from repro.analysis.uniformity import UniformityAnalysis
from repro.dialects import builtin
from repro.frontend.kernel_builder import AccessorParam, KernelSource
from repro.interp import ExecutionEngine, ExecutionSpec
from repro.interp.differential import compare_executions, synthesize_spec
from repro.interp.jit_runtime import ExecutableCache
from repro.ir import DominanceInfo, FloatAttr, Printer, UnitAttr, f32, \
    parse_module
from repro.ir.operations import op_memo, version_stamp
from repro.ir.parser import CONTENT_TOKEN
from repro.testing.generate import GeneratorConfig, generate_module
from repro.transforms import build_named_pipeline

from .helpers import (
    build_gemm_module,
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    listing_execution_specs,
    wrap_in_module,
)

TIERS = ("interp", "jit", "vector")


def _listings():
    return wrap_in_module(build_listing1_function()[0],
                          build_listing2_function()[0],
                          build_listing3_function()[0])


def _edit(function):
    """One attribute write on the first op of ``function``'s body."""
    next(function.walk(include_self=False)).set_attr("note", UnitAttr())


class TestStamps:
    def test_an_edit_moves_the_stamps_around_it_and_no_other(self):
        module = _listings()
        edited, other = (module.lookup_symbol("mem_acc"),
                         module.lookup_symbol("non_uniform"))
        before = {op: version_stamp(op) for op in (module, edited, other)}
        for op in before:
            op_memo(op)["fact"] = op.name
        _edit(edited)
        assert version_stamp(other) == before[other]
        assert op_memo(other) == {"fact": "func.func"}
        for op in (edited, module):
            assert version_stamp(op) != before[op]
            assert op_memo(op) == {}

    def test_a_nested_kernel_module_moves_with_its_kernels(self):
        outer = builtin.ModuleOp.build("host")
        kernels, _ = build_gemm_module(size=4, work_group=2)
        outer.append(kernels)
        before = (version_stamp(outer), version_stamp(kernels))
        _edit(kernels.lookup_symbol("gemm"))
        assert version_stamp(outer) != before[0]
        assert version_stamp(kernels) != before[1]
        assert version_stamp(outer) == version_stamp(kernels)

    def test_nothing_vouches_for_a_detached_op_outside_a_function(self):
        function = build_listing1_function()[0]
        op = next(function.walk(include_self=False))
        op.detach()
        assert version_stamp(op) is None
        op_memo(op)["fact"] = 1
        assert op_memo(op) == {}

    def test_memoized_facts_die_with_their_op(self):
        module, _ = build_gemm_module(size=4, work_group=2)
        ExecutableCache().key_for(module.lookup_symbol("gemm"), "nd")
        op_memo(module)["fact"] = 1
        alive = weakref.ref(module)
        del module
        gc.collect()
        assert alive() is None

    def test_editing_one_function_keeps_the_others_facts(self):
        text = Printer().print_module(_listings())
        module = parse_module(text)
        assert op_memo(module)[CONTENT_TOKEN]
        cache = ExecutableCache()
        other = module.lookup_symbol("non_uniform")
        key = cache.key_for(other, "nd")
        manager = AnalysisManager()
        dominance = manager.get(DominanceInfo, other)
        _edit(module.lookup_symbol("mem_acc"))
        assert cache.key_for(other, "nd") is key
        assert manager.get(DominanceInfo, other) is dominance
        assert manager.hits == 1
        # ... while the module's content is no longer what it parsed as.
        assert CONTENT_TOKEN not in op_memo(module)


class TestWarmExecuteAfterAnUnrelatedCompile:
    """A different module parsed and compiled between two executes of
    an untouched kernel leaves the kernel's executable key and vector
    verdict standing."""

    @pytest.mark.parametrize("name, tier", [
        ("mem_acc", "vector"),
        # Listing 2 branches on the global id (the ``sobel`` shape): the
        # vector tier's verdict needs a uniformity analysis.
        ("non_uniform", "jit"),
    ])
    def test_no_reprint_and_no_reanalysis(self, monkeypatch, name, tier):
        module = _listings()
        function = module.lookup_symbol(name)
        resolved = synthesize_spec(function,
                                   listing_execution_specs().get(name))
        engine = ExecutionEngine(module, tier="auto")
        first = engine.execute(function, resolved)
        assert first.tier == tier
        gemm, _ = build_gemm_module(size=8, work_group=4)
        build_named_pipeline("sycl-mlir").run(
            parse_module(Printer().print_module(gemm)))
        prints, analyses = [], []
        print_op = Printer.print_op_to_string
        monkeypatch.setattr(
            Printer, "print_op_to_string",
            lambda self, op: prints.append(op) or print_op(self, op))
        analyse = UniformityAnalysis.__init__
        monkeypatch.setattr(
            UniformityAnalysis, "__init__",
            lambda self, *args, **kwargs: analyses.append(args)
            or analyse(self, *args, **kwargs))
        second = engine.execute(function, resolved)
        assert second.tier == tier
        assert prints == [] and analyses == []
        compare_executions(first, second)


@pytest.mark.parametrize("tier", TIERS)
def test_a_constant_edited_in_place_reaches_the_next_execute(tier):
    def body(k):
        i = k.global_id(0)
        k.store("out", [i], k.load("a", [i]) * 2.0)

    module = wrap_in_module(KernelSource(
        "scale", body=body, nd_range_dims=1, uses_nd_item=False,
        accessors=[AccessorParam("a", 1, f32(), "read"),
                   AccessorParam("out", 1, f32(), "write")]).build())
    function = module.lookup_symbol("scale")
    resolved = synthesize_spec(function, ExecutionSpec(
        global_size=(16,), buffers={"a": (16,), "out": (16,)}))
    engine = ExecutionEngine(module, tier=tier)
    first = engine.execute(function, resolved)
    (constant,) = [op for op in function.walk()
                   if op.name == "arith.constant" and op.value == 2.0]
    constant.set_attr("value", FloatAttr(3.0, f32()))
    second = engine.execute(function, resolved)
    assert first.tier == second.tier == tier
    a = first.memory["a"].astype(np.float64)
    assert np.array_equal(first.memory["out"], (a * 2).astype(np.float32))
    assert np.array_equal(second.memory["out"], (a * 3).astype(np.float32))


#: Compiles each module read from stdin through ``sycl-mlir`` and then
#: ``lower-to-llvm`` and prints the result.
_COMPILE_AND_PRINT = """
import json, sys
from repro.ir import Printer, parse_module
from repro.transforms import build_named_pipeline

for text in json.load(sys.stdin):
    module = parse_module(text)
    for pipeline in ("sycl-mlir", "lower-to-llvm"):
        build_named_pipeline(pipeline).run(module)
    print(Printer().print_module(module))
"""


def test_printed_ir_does_not_depend_on_the_hash_seed():
    gemm, _ = build_gemm_module()
    generated = generate_module(GeneratorConfig(
        num_ops=300, dead_chain_depth=4, num_kernels=2, seed=3))
    texts = json.dumps([Printer().print_module(module)
                        for module in (gemm, generated)])
    source = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source,
                   PYTHONDONTWRITEBYTECODE="1")
        run = subprocess.run([sys.executable, "-c", _COMPILE_AND_PRINT],
                             input=texts, capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count('"llvm.func"') >= 2
