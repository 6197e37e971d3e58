"""``mem2reg``: constant-indexed private arrays become SSA values.

LLVM's ``-O3`` promotes such arrays for *both* compilers the paper
compares, so the pass sits in every device pipeline alike.  These tests
pin what it forwards, that each reason to decline leaves the IR exactly
as it was and names itself, and that ``median`` — the one benchmark
program with a private array — computes the same bits on every
pipeline, lowering and tier with the array gone.
"""

import pytest

from repro.analysis import run_lint
from repro.dialects import memref
from repro.interp import (
    ExecutionEngine,
    ExecutionSpec,
    TrapError,
    run_differential,
)
from repro.ir import MemRefType, Printer, i32, index, parse_module, verify
from repro.ir.operations import version_stamp
from repro.transforms import CompileReport, build_named_pipeline
from repro.transforms.pipeline_specs import NAMED_PIPELINE_SPECS
from repro.transforms.pipelines import parse_pass_pipeline

from .helpers import (
    ABLATIONS,
    ablated,
    memory_differences,
    wrap_in_module,
)
from .test_late_lowering import (
    SYCL_STAGE,
    TIERS,
    _acc,
    _kernel,
    _shape_module,
)

DEVICE_PIPELINES = ("sycl-mlir", "dpcpp", "adaptivecpp-aot",
                    "adaptivecpp-jit")
MEM2REG = "func.func(mem2reg)"


def _text(module):
    return Printer().print_module(module)


def _run(module, spec=MEM2REG):
    report = CompileReport()
    parse_pass_pipeline(spec).run(module, report=report)
    verify(module)
    return report


def _statistics(report):
    return {stat.name: stat.value for stat in report.statistics
            if stat.pass_name == "mem2reg"}


def _is_private_array(type_):
    return isinstance(type_, MemRefType) and type_.memory_space == "private"


def _private_ops(module):
    """The allocations of private arrays and every access to one."""
    return [op for op in module.walk()
            if any(_is_private_array(value.type)
                   for value in (*op.operands, *op.results))]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _typed_kernel(element):
    """A three-slot array of ``element``: a stored input, a value
    computed from a forwarded load, and a slot overwritten before its
    only load (so one store is dead even in memory)."""
    def body(k):
        i = k.global_id(0)
        window = k.private_array(3, None if element == "f32"
                                 else i32() if element == "i32" else index())
        first = k.load("a", [i]) if element == "f32" \
            else i.to_int() if element == "i32" else i
        k.private_store(window, 0, first)
        k.private_store(window, 2, first)
        k.private_store(window, 1, k.private_load(window, 0) + first)
        k.private_store(window, 2, k.private_load(window, 1)
                        + k.private_load(window, 0))
        result = k.private_load(window, 2)
        if element == "index":
            result = result.to_int()
        k.store("out", [i], result.to_float())

    function = _kernel(f"typed_{element}", body, 1,
                       [_acc("a", 1, "read"), _acc("out", 1, "write")])
    return function, ExecutionSpec(global_size=(8,),
                                   buffers={"a": (8,), "out": (8,)})


def _typed_module():
    functions, specs = [], {}
    for element in ("f32", "i32", "index"):
        function, spec = _typed_kernel(element)
        functions.append(function)
        specs[function.sym_name] = spec
    return wrap_in_module(*functions), specs


def _function_text(body, arguments="%out: memref<4xf32>, %n: index",
                   types="(memref<4xf32>, index)"):
    return f"""
"builtin.module"() ({{
  "func.func"() ({{
   ^bb0({arguments}):
    %c0 = "arith.constant"() {{value = 0 : index}} : () -> (index)
    %c1 = "arith.constant"() {{value = 1 : index}} : () -> (index)
    %x = "arith.constant"() {{value = 2.5 : f32}} : () -> (f32)
{body}
    "func.return"() : () -> ()
  }}) {{function_type = {types} -> (), sym_name = "f", sym_visibility = "public"}} : () -> ()
}}) {{sym_name = "m"}} : () -> ()
"""


#: ``reason code -> (body, line:col of the op the remark points at)``;
#: the body starts on line 8 of the module text.
DECLINES = {
    "uninitialised-slot": ("""
    %w = "memref.alloca"() : () -> (memref<2xf32, private>)
    "memref.store"(%x, %w, %c0) : (f32, memref<2xf32, private>, index) -> ()
    %v = "memref.load"(%w, %c1) : (memref<2xf32, private>, index) -> (f32)
    "memref.store"(%v, %out, %c0) : (f32, memref<4xf32>, index) -> ()
""", "11:5"),
    "dynamic-index": ("""
    %w = "memref.alloca"() : () -> (memref<2xf32, private>)
    "memref.store"(%x, %w, %c0) : (f32, memref<2xf32, private>, index) -> ()
    "memref.store"(%x, %w, %n) : (f32, memref<2xf32, private>, index) -> ()
    %v = "memref.load"(%w, %c0) : (memref<2xf32, private>, index) -> (f32)
    "memref.store"(%v, %out, %c0) : (f32, memref<4xf32>, index) -> ()
""", "11:5"),
    "out-of-bounds": ("""
    %c2 = "arith.constant"() {value = 2 : index} : () -> (index)
    %w = "memref.alloca"() : () -> (memref<2xf32, private>)
    "memref.store"(%x, %w, %c0) : (f32, memref<2xf32, private>, index) -> ()
    "memref.store"(%x, %w, %c2) : (f32, memref<2xf32, private>, index) -> ()
    %v = "memref.load"(%w, %c0) : (memref<2xf32, private>, index) -> (f32)
    "memref.store"(%v, %out, %c0) : (f32, memref<4xf32>, index) -> ()
""", "12:5"),
    "escapes": ("""
    %w = "memref.alloca"() : () -> (memref<2xf32, private>)
    "memref.store"(%x, %w, %c0) : (f32, memref<2xf32, private>, index) -> ()
    %alias = "memref.cast"(%w) : (memref<2xf32, private>) -> (memref<?xf32, private>)
    %v = "memref.load"(%alias, %c0) : (memref<?xf32, private>, index) -> (f32)
    "memref.store"(%v, %out, %c0) : (f32, memref<4xf32>, index) -> ()
""", "11:5"),
    "shared-space": ("""
    %w = "memref.alloca"() : () -> (memref<2xf32, local>)
    "memref.store"(%x, %w, %c0) : (f32, memref<2xf32, local>, index) -> ()
    %v = "memref.load"(%w, %c0) : (memref<2xf32, local>, index) -> (f32)
    "memref.store"(%v, %out, %c0) : (f32, memref<4xf32>, index) -> ()
""", "9:5"),
}

#: An ``!sycl_id`` object next to a promotable array: the array goes,
#: the object is lower-sycl-accessors' to remove.
AGGREGATE_BODY = """
    %w = "memref.alloca"() : () -> (memref<1xf32, private>)
    "memref.store"(%x, %w, %c0) : (f32, memref<1xf32, private>, index) -> ()
    %v = "memref.load"(%w, %c0) : (memref<1xf32, private>, index) -> (f32)
    %id = "memref.alloca"() : () -> (memref<1x!sycl_id_1>)
    "sycl.constructor"(%id, %n) {type = @id} : (memref<1x!sycl_id_1>, index) -> ()
    %p = "sycl.accessor.subscript"(%acc, %id) : (memref<?x!sycl_accessor_1_f32_write>, memref<1x!sycl_id_1>) -> (memref<?xf32>)
    "memref.store"(%v, %p, %c0) : (f32, memref<?xf32>, index) -> ()
"""


# ---------------------------------------------------------------------------
# (a) forwarding and dead-store erasure
# ---------------------------------------------------------------------------

class TestForwarding:
    @pytest.mark.parametrize("element", ("f32", "i32", "index"))
    def test_array_becomes_ssa_values(self, element):
        function, spec = _typed_kernel(element)
        module = wrap_in_module(function)
        specs = {function.sym_name: spec}
        constants = sum(op.name == "arith.constant" for op in module.walk())
        assert len(_private_ops(module)) == 9  # alloca, 4 stores, 4 loads
        for tier in TIERS:
            run_differential(module, MEM2REG, specs=specs, tier=tier)
        report = _run(module)
        assert _private_ops(module) == []
        # The accessor subscripts' id objects stay, and are counted.
        assert _statistics(report) == {
            "allocas_promoted": 1, "loads_forwarded": 4,
            "allocas_declined": sum(op.name == "sycl.accessor.subscript"
                                    for op in module.walk())}
        # The slot constants that fed only the erased accesses went too.
        assert sum(op.name == "arith.constant"
                   for op in module.walk()) == constants - 8

    def test_affine_accesses_and_rank_two(self):
        module = parse_module(_function_text("""
    %w = "memref.alloca"() : () -> (memref<2x2xf32>)
    "affine.store"(%x, %w, %c1, %c0) : (f32, memref<2x2xf32>, index, index) -> ()
    %v = "affine.load"(%w, %c1, %c0) : (memref<2x2xf32>, index, index) -> (f32)
    "memref.store"(%v, %out, %c0) : (f32, memref<4xf32>, index) -> ()
"""))
        run_differential(module, MEM2REG)
        assert _statistics(_run(module)) == {
            "allocas_promoted": 1, "loads_forwarded": 1}
        assert "memref.alloca" not in _text(module)

    def test_store_then_load_inside_one_nested_block(self):
        def body(k):
            window = k.private_array(1)
            with k.loop(0, 3) as j:
                k.private_store(window, 0, j.to_int().to_float())
                k.store("out", [k.global_id(0)],
                        k.load("out", [k.global_id(0)])
                        + k.private_load(window, 0))

        function = _kernel("nested", body, 1, [_acc("out", 1, "read_write")])
        module = wrap_in_module(function)
        run_differential(module, MEM2REG)
        assert _statistics(_run(module))["allocas_promoted"] == 1
        assert _private_ops(module) == []

    def test_forwarded_value_that_is_itself_a_forwarded_load(self):
        # The branch's block is walked before the block whose load it
        # stores: its answer must be followed to the value behind it.
        module = parse_module(_function_text("""
    %w = "memref.alloca"() : () -> (memref<2xf32, private>)
    %cond = "arith.cmpi"(%n, %c1) {predicate = "sgt"} : (index, index) -> (i1)
    "scf.if"(%cond) : (i1) -> () ({
      "scf.yield"() : () -> ()
    })
"""))
        function = module.lookup_symbol("f")
        alloca, branch = [op for op in function.body
                          if op.name in ("memref.alloca", "scf.if")]
        c0, c1, x = (op.results[0] for op in list(function.body)[:3])
        out = function.arguments[0]
        inner = branch.regions[0].front
        load1 = memref.LoadOp.build(alloca.result, [c1])
        load0 = memref.LoadOp.build(alloca.result, [c0])
        store1 = memref.StoreOp.build(load0.result, alloca.result, [c1])
        for op in (store1, load1,
                   memref.StoreOp.build(load1.result, out, [c0])):
            inner.insert_before(inner.terminator, op)
        for op in (memref.StoreOp.build(x, alloca.result, [c0]), load0):
            function.body.insert_before(branch, op)
        verify(module)
        assert alloca.result.uses[0].owner is load1
        run_differential(module, MEM2REG,
                         specs={"f": ExecutionSpec(scalars={"n": 3})})
        assert _statistics(_run(module)) == {
            "allocas_promoted": 1, "loads_forwarded": 2}
        stored = [op for op in module.walk() if op.name == "memref.store"]
        assert len(stored) == 1 and stored[0].operands[0] is x

    def test_function_without_a_scalar_alloca_pays_one_scan(self):
        for module in (_shape_module("gemm")[0], _shape_module("sobel")[0]):
            before, stamp = _text(module), version_stamp(module)
            report = _run(module)
            assert version_stamp(module) == stamp
            assert _text(module) == before
            assert report.statistics == [] and report.remarks == []


# ---------------------------------------------------------------------------
# (b) every decline leaves the IR as it was and says why
# ---------------------------------------------------------------------------

class TestDeclines:
    @pytest.mark.parametrize("reason", sorted(DECLINES))
    def test_ir_untouched_and_reason_reported(self, reason):
        body, where = DECLINES[reason]
        module = parse_module(_function_text(body), filename="k.mlir")
        before, stamp = _text(module), version_stamp(module)
        report = _run(module)
        assert version_stamp(module) == stamp
        assert _text(module) == before
        assert _statistics(report) == {"allocas_declined": 1}
        assert len(report.remarks) == 1
        assert report.remarks[0].startswith(f"mem2reg: {reason}: ")
        assert f" at k.mlir:{where} " in report.remarks[0]
        assert report.remarks[0].endswith(" in f")

    @pytest.mark.parametrize("user", (
        '"memref.copy"(%w, %out) : (memref<4xf32, private>, memref<4xf32>) -> ()',
        '"func.call"(%w) {callee = @g} : (memref<4xf32, private>) -> ()',
    ))
    def test_other_escapes(self, user):
        module = parse_module(_function_text(f"""
    %w = "memref.alloca"() : () -> (memref<4xf32, private>)
    "memref.store"(%x, %w, %c0) : (f32, memref<4xf32, private>, index) -> ()
    {user}
"""))
        before = _text(module)
        report = CompileReport()
        parse_pass_pipeline(MEM2REG).run(module, report=report)
        assert _text(module) == before
        assert report.remarks[0].startswith("mem2reg: escapes: ")

    def test_aggregate_element_stays_beside_a_promoted_array(self):
        module = parse_module(_function_text(
            AGGREGATE_BODY,
            "%acc: memref<?x!sycl_accessor_1_f32_write>, %n: index",
            "(memref<?x!sycl_accessor_1_f32_write>, index)"),
            filename="k.mlir")
        report = _run(module)
        assert _statistics(report) == {
            "allocas_promoted": 1, "loads_forwarded": 1,
            "allocas_declined": 1}
        assert report.remarks == [
            "mem2reg: aggregate-element: 'memref<1x!sycl_id_1>' at "
            "k.mlir:12:5 stays in memory in f"]
        names = [op.name for op in module.walk()]
        assert names.count("memref.alloca") == 1
        assert names.count("sycl.constructor") == 1

    def test_a_loop_carried_slot_is_declined_but_is_not_a_lint_finding(self):
        def body(k):
            total = k.private_array(1)
            k.private_store(total, 0, 0.0)
            with k.loop(0, 4) as j:
                k.private_store(total, 0, k.private_load(total, 0)
                                + j.to_int().to_float())
            k.store("out", [k.global_id(0)], k.private_load(total, 0))

        module = wrap_in_module(
            _kernel("carried", body, 1, [_acc("out", 1, "write")]))
        before = _text(module)
        report = _run(module)
        assert _text(module) == before
        assert [remark.split(": ")[1] for remark in report.remarks] \
            == ["uninitialised-slot", "aggregate-element"]
        assert run_lint(module, rules=["uninitialised-private-load"]) == []

    def test_reports_show_in_repro_opt(self, tmp_path, capsys):
        from repro.tools.repro_opt import main as repro_opt

        body, _ = DECLINES["uninitialised-slot"]
        path = tmp_path / "k.mlir"
        path.write_text(_function_text(body))
        assert repro_opt([str(path), "--passes", MEM2REG, "--report",
                          "--lint-each", "-o", str(tmp_path / "o.mlir")]) == 1
        captured = capsys.readouterr().err
        assert "mem2reg: allocas_declined = 1" in captured
        assert "remark: mem2reg: uninitialised-slot: " in captured
        assert "reads a slot of a private array" in captured


class TestLintRule:
    def test_uninitialised_load_is_a_located_warning(self):
        body, where = DECLINES["uninitialised-slot"]
        module = parse_module(_function_text(body), filename="k.mlir")
        findings = run_lint(module, rules=["uninitialised-private-load"])
        assert len(findings) == 1
        assert findings[0].severity.name == "WARNING"
        assert findings[0].location.describe() == f"k.mlir:{where}"
        assert findings[0].notes[0].location.describe() == "k.mlir:9:5"

    @pytest.mark.parametrize("reason", sorted(set(DECLINES)
                                              - {"uninitialised-slot"}))
    def test_other_declines_are_not_findings(self, reason):
        module = parse_module(_function_text(DECLINES[reason][0]))
        assert run_lint(module, rules=["uninitialised-private-load"]) == []

    @pytest.mark.parametrize("pipeline", DEVICE_PIPELINES)
    def test_private_array_programs_lint_clean(self, pipeline):
        for module in (_shape_module("median")[0], _typed_module()[0]):
            assert run_lint(module) == []
            build_named_pipeline(pipeline).run(module)
            assert run_lint(module) == []


# ---------------------------------------------------------------------------
# (c) what must still happen: traps, shared tiles
# ---------------------------------------------------------------------------

class TestLeftAlone:
    @pytest.mark.parametrize("pipeline", DEVICE_PIPELINES)
    def test_out_of_bounds_constant_store_still_traps(self, pipeline):
        def body(k):
            window = k.private_array(4)
            k.private_store(window, 0, k.load("a", [k.global_id(0)]))
            k.private_store(window, 4, 1.0)
            k.store("out", [k.global_id(0)], k.private_load(window, 0))

        module = wrap_in_module(_kernel(
            "oob", body, 1, [_acc("a", 1, "read"), _acc("out", 1, "write")]))
        report = CompileReport()
        build_named_pipeline(pipeline).run(module, report=report)
        assert any(remark.startswith("mem2reg: out-of-bounds: ")
                   for remark in report.remarks)
        for tier in TIERS:
            with pytest.raises(TrapError, match="out of bounds"):
                ExecutionEngine(module, tier=tier).run("oob")

    def test_local_tiles_of_loop_internalization_are_never_touched(self):
        module, _ = _shape_module("gemm_tiled")
        parse_pass_pipeline(SYCL_STAGE).run(module)
        tiles = [op for op in module.walk() if op.name == "memref.alloc"]
        assert tiles and all(op.results[0].type.memory_space == "local"
                             for op in tiles)
        before, stamp = _text(module), version_stamp(module)
        report = _run(module)
        assert version_stamp(module) == stamp
        assert _text(module) == before
        assert _statistics(report) == {}


# ---------------------------------------------------------------------------
# (d) the pipelines: same pass, same place, same bits
# ---------------------------------------------------------------------------

class TestPipelines:
    def test_every_device_pipeline_promotes_after_its_leading_cleanup(self):
        for name in DEVICE_PIPELINES:
            assert NAMED_PIPELINE_SPECS[name].startswith(
                "builtin.module(func.func(canonicalize,cse,mem2reg"), name
            assert NAMED_PIPELINE_SPECS[name].count("mem2reg") == 1
        assert "mem2reg" not in NAMED_PIPELINE_SPECS["lower-to-llvm"]

    @pytest.mark.parametrize("pipeline", DEVICE_PIPELINES)
    def test_median_is_bit_identical_everywhere(self, pipeline):
        module, specs = _shape_module("median")
        reference = ExecutionEngine(module, tier="interp").run(
            "median", specs["median"]).memory
        optimized = module.clone({})
        build_named_pipeline(pipeline).run(optimized)
        verify(optimized)
        assert _private_ops(optimized) == []
        lowered = optimized.clone({})
        build_named_pipeline("lower-to-llvm").run(lowered)
        verify(lowered)
        assert not any(op.name == "llvm.alloca" for op in lowered.walk())
        for form in (optimized, lowered):
            runs = [ExecutionEngine(form, tier=tier).run(
                "median", specs["median"]) for tier in TIERS]
            for run in runs:
                assert not memory_differences(run.memory, reference)
            assert runs[0].counters == runs[1].counters == runs[2].counters
        for tier in TIERS:
            run_differential(module, pipeline, specs=specs, tier=tier,
                             rtol=0.0, atol=0.0)
            run_differential(optimized, "lower-to-llvm", specs=specs,
                             tier=tier, rtol=0.0, atol=0.0)

    @pytest.mark.parametrize("pipeline", DEVICE_PIPELINES)
    @pytest.mark.parametrize("tier", TIERS)
    def test_typed_arrays_through_the_pipelines(self, pipeline, tier):
        module, specs = _typed_module()
        report = run_differential(module, pipeline, specs=specs, tier=tier)
        assert sorted(report.executed) == sorted(specs)

    @pytest.mark.parametrize("ablation", sorted(ABLATIONS))
    def test_sycl_mlir_ablations_still_end_promoted(self, ablation):
        drop = ABLATIONS[ablation]
        module, specs = _shape_module("median")
        manager = ablated("sycl-mlir", drop)
        run_differential(module, "sycl-mlir", specs=specs, manager=manager,
                         rtol=0.0, atol=0.0)
        report = CompileReport()
        ablated("sycl-mlir", drop).run(module, report=report)
        assert _private_ops(module) == []
        assert _statistics(report)["loads_forwarded"] == 39

    @pytest.mark.parametrize("pipeline", DEVICE_PIPELINES)
    def test_repeated_runs_are_byte_identical(self, pipeline):
        texts, reports = [], []
        manager = build_named_pipeline(pipeline)
        for _ in range(2):
            module, _ = _typed_module()
            module.append(_shape_module("median")[0].lookup_symbol(
                "median").detach())
            report = CompileReport()
            manager.run(module, report=report)
            texts.append(_text(module))
            reports.append((_statistics(report), report.remarks))
        assert texts[0] == texts[1]
        assert reports[0] == reports[1]
        assert reports[0][0]["allocas_promoted"] == 4
