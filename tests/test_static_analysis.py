"""The PR-6 static verification layer, end to end.

Covers the :class:`~repro.analysis.manager.AnalysisManager` contract
(caching, preservation, invalidation, version-stamp safety net, one
entry per function and the compile-cache interplay), the lint rule engine
that statically catches PR 5's miscompile classes, source locations
(parser, printer round-trip, kernel builder call-sites), the
``repro-lint`` / ``repro-opt --lint`` drivers and the
``--verify-diagnostics`` mode.
"""

import warnings

import pytest

from repro.analysis import (
    ALL_ANALYSES,
    AnalysisManager,
    MemoryAccessAnalysis,
    NonConvergenceWarning,
    ReachingDefinitionAnalysis,
    analysis_scope,
    current_analysis_manager,
    describe_lint_rules,
    run_lint,
)
from repro.analysis.lint import LINT_RULES
from repro.dialects import arith, func, memref, scf, sycl
from repro.frontend.kernel_builder import AccessorParam, KernelSource
from repro.ir import (
    Builder,
    StringAttr,
    DominanceInfo,
    InsertionPoint,
    Location,
    Printer,
    UNKNOWN,
    i1,
    i32,
    index,
    location_of,
    parse_module,
    verify,
)
from repro.ir.types import MemRefType
from repro.tools.repro_lint import main as repro_lint_main
from repro.tools.repro_opt import main as repro_opt_main
from repro.transforms import (
    CompileCache,
    FunctionPass,
    PassManager,
    build_named_pipeline,
    check_pass_pipeline,
    shipped_pipeline_names,
)

from .helpers import (
    build_gemm_module,
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    wrap_in_module,
)

# ---------------------------------------------------------------------------
# Test IR
# ---------------------------------------------------------------------------

TRAP_HOIST_IR = """\
"builtin.module"() {sym_name = "demo"} : () -> () ({
  "func.func"() {function_type = (index, index, index, i32, i32) -> (), \
sym_name = "kernel", sym_visibility = "public"} : () -> () ({
   ^bb0(%lb: index, %ub: index, %step: index, %a: i32, %b: i32):
    %q = "arith.divsi"(%a, %b) : (i32, i32) -> (i32)
    "scf.for"(%lb, %ub, %step) : (index, index, index) -> () ({
     ^bb0(%i: index):
      %u = "arith.addi"(%q, %q) : (i32, i32) -> (i32)
      "scf.yield"() : () -> ()
    })
    "func.return"() : () -> ()
  })
})
"""

NON_DOMINATING_IR = """\
"builtin.module"() {sym_name = "demo"} : () -> () ({
  "func.func"() {function_type = (memref<i32>, i32) -> (), \
sym_name = "kernel", sym_visibility = "public"} : () -> () ({
   ^bb0(%ptr: memref<i32>, %v: i32):
    "memref.store"(%v, %p) : (i32, memref<i32>) -> ()
    %p = "sycl.accessor.get_pointer"(%ptr) : (memref<i32>) -> (memref<i32>)
    "func.return"() : () -> ()
  })
})
"""


def _simple_module():
    function, _ = build_listing1_function()
    return wrap_in_module(function)


class RequestingPass(FunctionPass):
    """Requests DominanceInfo per function; optionally preserves it."""

    NAME = "test-requesting"

    def __init__(self, preserve=False):
        super().__init__()
        self._preserve = preserve
        self.seen = []

    def run_on_function(self, function, report):
        self.seen.append(self.get_analysis(DominanceInfo, function))

    def preserves(self):
        return (DominanceInfo,) if self._preserve else ()


class MutatingPass(FunctionPass):
    """Appends a dead constant; declares nothing preserved."""

    NAME = "test-mutating"

    def run_on_function(self, function, report):
        block = function.body
        constant = arith.ConstantOp.build(7, i32())
        block.insert_before(block.operations[-1], constant)


# ---------------------------------------------------------------------------
# AnalysisManager
# ---------------------------------------------------------------------------

class TestAnalysisManager:
    def test_get_caches_per_anchor(self):
        module = _simple_module()
        function = module.regions[0].blocks[0].operations[0]
        am = AnalysisManager()
        first = am.get(DominanceInfo, function)
        second = am.get(DominanceInfo, function)
        assert first is second
        assert am.hits == 1 and am.misses == 1

    def test_an_edit_of_the_anchor_is_a_miss(self):
        module = _simple_module()
        function = module.regions[0].blocks[0].operations[0]
        am = AnalysisManager()
        first = am.get(DominanceInfo, function)
        # Mutate without telling the manager: the version stamp recorded
        # at construction time no longer matches.
        block = function.body
        block.insert_before(block.operations[-1],
                            arith.ConstantOp.build(3, i32()))
        second = am.get(DominanceInfo, function)
        assert first is not second
        assert am.hits == 0 and am.misses == 2

    def test_invalidate_respects_preserved_classes(self):
        module = _simple_module()
        function = module.regions[0].blocks[0].operations[0]
        am = AnalysisManager()
        dom = am.get(DominanceInfo, function)
        am.get(MemoryAccessAnalysis, function)
        evicted = am.invalidate(function, preserved=(DominanceInfo,))
        assert evicted == 1
        assert am.get_cached(DominanceInfo, function) is dom
        assert am.get_cached(MemoryAccessAnalysis, function) is None

    def test_invalidate_all_analyses_sentinel_keeps_everything(self):
        module = _simple_module()
        function = module.regions[0].blocks[0].operations[0]
        am = AnalysisManager()
        am.get(DominanceInfo, function)
        assert am.invalidate(function, preserved=ALL_ANALYSES) == 0
        assert am.describe()["entries"] == 1

    def test_invalidate_covers_ancestors_and_descendants(self):
        module = _simple_module()
        function = module.regions[0].blocks[0].operations[0]
        am = AnalysisManager()
        am.get(DominanceInfo, module)
        am.get(DominanceInfo, function)
        # A pass ran on the function: the module-anchored view includes
        # the mutated subtree, so both entries go.
        assert am.invalidate(function) == 2

    def test_a_one_shot_compile_holds_no_analysis_for_an_erased_op(self):
        """Detect Reduction erases a loop an analysis was anchored at
        (it rebuilds the k-loop with ``C`` as an ``iter_arg``); the
        entry must go with the loop's place in the IR instead of
        pinning the loop (and the module around it)."""
        import gc
        import weakref

        module, _ = build_gemm_module(size=8, work_group=4)
        loops = [weakref.ref(op) for op in module.walk()
                 if op.name == "affine.for"]
        manager = build_named_pipeline("sycl-mlir")
        manager.run(module)
        am = manager.analysis_manager
        assert am.preserved_names() == am.preserved_names_for(module)
        gc.collect()
        kept = {id(op) for op in module.walk()}
        erased = [ref for ref in loops
                  if ref() is None or id(ref()) not in kept]
        assert erased, "the pipeline no longer erases a loop"
        assert all(ref() is None for ref in erased)

    def test_analysis_scope_is_thread_local_and_restored(self):
        am = AnalysisManager()
        assert current_analysis_manager() is None
        with analysis_scope(am):
            assert current_analysis_manager() is am
        assert current_analysis_manager() is None


class TestPassManagerIntegration:
    def test_preserving_pass_keeps_cache_warm_across_passes(self):
        pm = PassManager()
        fpm = pm.nest("func.func")
        first = RequestingPass(preserve=True)
        second = RequestingPass(preserve=True)
        fpm.add(first)
        fpm.add(second)
        pm.run(_simple_module())
        assert first.seen[0] is second.seen[0]
        assert pm.analysis_manager.hits >= 1

    def test_a_failed_run_keeps_no_analysis_of_its_module(self):
        """The caller may drop a module whose compile failed: an entry
        left behind would pin it in a long-lived manager (the daemon
        shares one across requests)."""

        class FailingPass(FunctionPass):
            NAME = "test-failing"

            def run_on_function(self, function, report):
                raise ValueError("pass failed")

        pm = PassManager()
        fpm = pm.nest("func.func")
        fpm.add(RequestingPass(preserve=True))
        fpm.add(FailingPass())
        with pytest.raises(ValueError, match="pass failed"):
            pm.run(_simple_module())
        assert pm.analysis_manager.misses == 1
        assert pm.analysis_manager.describe()["entries"] == 0

    def test_non_preserving_pass_invalidates(self):
        pm = PassManager()
        fpm = pm.nest("func.func")
        first = RequestingPass(preserve=False)
        second = RequestingPass(preserve=False)
        fpm.add(first)
        fpm.add(second)
        pm.run(_simple_module())
        assert first.seen[0] is not second.seen[0]
        assert pm.analysis_manager.invalidations >= 1

    def test_mutating_pass_never_serves_stale_results(self):
        pm = PassManager()
        fpm = pm.nest("func.func")
        first = RequestingPass(preserve=True)
        mutating = MutatingPass()
        second = RequestingPass(preserve=True)
        fpm.add(first)
        fpm.add(mutating)
        fpm.add(second)
        pm.run(_simple_module())
        # MutatingPass preserves nothing, so the dominance info computed
        # before it must not be served after it.
        assert first.seen[0] is not second.seen[0]

    def test_manager_persists_across_runs_for_warm_starts(self):
        pm = PassManager()
        fpm = pm.nest("func.func")
        fpm.add(RequestingPass(preserve=True))
        module = _simple_module()
        pm.run(module)
        cold = pm.analysis_manager.describe()
        pm.run(module)
        warm = pm.analysis_manager.describe()
        assert warm["hits"] > cold["hits"]

    def test_function_pipeline_caches_one_entry_per_function(self):
        functions = [build_listing1_function()[0] for _ in range(4)]
        for i, f in enumerate(functions):
            f.set_attr("sym_name", StringAttr(f"f{i}"))
        module = wrap_in_module(*functions)
        pm = PassManager()
        fpm = pm.nest("func.func")
        requesting = RequestingPass(preserve=True)
        fpm.add(requesting)
        pm.run(module)
        stats = pm.analysis_manager.describe()
        assert len(requesting.seen) == 4
        assert stats["misses"] >= 4
        assert stats["entries"] >= 4
        verify(module)

    def test_compile_cache_hit_carries_preserved_analyses(self):
        pm = PassManager()
        fpm = pm.nest("func.func")
        fpm.add(RequestingPass(preserve=True))
        pm.cache = CompileCache()
        pm.run(_simple_module())
        assert pm.cache.describe()["misses"] >= 1
        pm.run(_simple_module())  # structurally identical -> cache hit
        assert pm.cache.describe()["hits"] >= 1
        assert "DominanceInfo" in pm.analysis_manager.carried


# ---------------------------------------------------------------------------
# Lint rules
# ---------------------------------------------------------------------------

CALLED_BARRIER_IR = '''"builtin.module"() ({{
  "func.func"() {{function_type = (index, memref<?x!sycl_nd_item_1>) -> (), sym_name = "helper", sym_visibility = "private"}} : () -> () ({{
   ^bb0(%x: index, %item: memref<?x!sycl_nd_item_1>):
    %c4 = "arith.constant"() {{value = 4 : index}} : () -> (index)
    %lt = "arith.cmpi"(%x, %c4) {{predicate = "slt"}} : (index, index) -> (i1)
    "scf.if"(%lt) : (i1) -> () ({{
      %grp = "sycl.nd_item.get_group"(%item) {{dimensions = 1 : i64}} : (memref<?x!sycl_nd_item_1>) -> (!sycl_group_1)
      "sycl.group_barrier"(%grp) : (!sycl_group_1) -> ()
      "scf.yield"() : () -> ()
    }})
    "func.return"() : () -> ()
  }})
  "func.func"() {{function_type = (memref<?x!sycl_nd_item_1>) -> (), sycl.kernel = unit, sym_name = "k"}} : () -> () ({{
   ^bb0(%item: memref<?x!sycl_nd_item_1>):
    %d0 = "arith.constant"() {{value = 0 : i32}} : () -> (i32)
    %gid = "sycl.nd_item.get_global_id"(%item, %d0) : (memref<?x!sycl_nd_item_1>, i32) -> (index)
    %c2 = "arith.constant"() {{value = 2 : index}} : () -> (index)
    "{call}"({argument}, %item) {{callee = {callee}}} : (index, memref<?x!sycl_nd_item_1>) -> ()
    "func.return"() : () -> ()
  }})
}}) : () -> ()
'''


class TestLintRules:
    def test_all_shipped_rules_registered(self):
        assert set(LINT_RULES) == {
            "non-dominating-use", "speculated-trap", "barrier-divergence",
            "readonly-accessor-write", "dead-private-function",
            "uninitialised-private-load"}
        listing = describe_lint_rules()
        for name in LINT_RULES:
            assert name in listing

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            run_lint(_simple_module(), rules=["no-such-rule"])

    def test_non_dominating_use_flagged_with_location(self):
        module = parse_module(NON_DOMINATING_IR, filename="bad.mlir")
        findings = run_lint(module, rules=["non-dominating-use"])
        assert len(findings) == 1
        assert findings[0].location.describe() == "bad.mlir:4:5"
        assert findings[0].notes[0].location.describe() == "bad.mlir:5:5"

    def test_speculated_trap_flagged_with_location(self):
        module = parse_module(TRAP_HOIST_IR, filename="trap.mlir")
        findings = run_lint(module, rules=["speculated-trap"])
        assert len(findings) == 1
        assert "may trap but was speculated" in findings[0].message
        assert findings[0].location.describe() == "trap.mlir:4:5"

    def test_trap_above_constant_trip_loop_is_legal(self):
        # Legal LICM output: the loop provably executes, so the hoisted
        # division is guarded by an execution of the body.
        f = func.FuncOp.build("legal", [i32(), i32()], arg_names=["a", "b"])
        a, b = f.arguments
        body = Builder(InsertionPoint.at_end(f.body))
        lb = body.insert(arith.ConstantOp.build(0, index()))
        ub = body.insert(arith.ConstantOp.build(4, index()))
        step = body.insert(arith.ConstantOp.build(1, index()))
        div = body.insert(arith.DivSIOp.build(a, b))
        loop = body.insert(scf.ForOp.build(lb.result, ub.result, step.result))
        loop_body = Builder(InsertionPoint.at_start(loop.body))
        loop_body.insert(arith.AddIOp.build(div.result, div.result))
        body.insert(func.ReturnOp.build())
        assert run_lint(wrap_in_module(f), rules=["speculated-trap"]) == []

    def test_barrier_divergence_flagged(self):
        f, handles = build_listing2_function()
        if_op = handles["if_op"]
        group = sycl.SYCLNDItemGetGroupOp.build(f.arguments[0], 2)
        barrier = sycl.SYCLGroupBarrierOp.build(group.result)
        then = if_op.then_block
        then.insert_before(then.operations[-1], group)
        then.insert_before(then.operations[-1], barrier)
        findings = run_lint(wrap_in_module(f), rules=["barrier-divergence"])
        assert len(findings) == 1
        assert "work-group deadlock" in findings[0].message

    def test_uniform_barrier_is_clean(self):
        nd_item_memref = sycl.memref_of(sycl.NDItemType(1))
        f = func.FuncOp.build("uniform", [nd_item_memref],
                              arg_names=["nd_item"])
        body = Builder(InsertionPoint.at_end(f.body))
        group = body.insert(sycl.SYCLNDItemGetGroupOp.build(
            f.arguments[0], 1))
        body.insert(sycl.SYCLGroupBarrierOp.build(group.result))
        body.insert(func.ReturnOp.build())
        assert run_lint(wrap_in_module(f),
                        rules=["barrier-divergence"]) == []

    @pytest.mark.parametrize("call", ("func.call", "llvm.call"))
    @pytest.mark.parametrize("argument,findings", (("%c2", 0), ("%gid", 1)))
    def test_barrier_divergence_follows_call_arguments(self, call, argument,
                                                       findings):
        """A private helper branching on its argument around a barrier
        diverges exactly when some call site passes a per-work-item
        value."""
        callee = "@helper" if call == "func.call" else '"helper"'
        module = parse_module(CALLED_BARRIER_IR.format(
            call=call, callee=callee, argument=argument))
        verify(module)
        found = run_lint(module, rules=["barrier-divergence"])
        assert len(found) == findings
        if findings:
            assert "work-group deadlock" in found[0].message

    @staticmethod
    def _readonly_accessor_store(index_of):
        """``acc[index_of(i)] = v`` through a ``read`` accessor."""
        acc_type = sycl.AccessorType(1, i32(), access_mode="read")
        f = func.FuncOp.build(
            "k", [sycl.memref_of(acc_type), index(), i32()],
            arg_names=["acc", "i", "v"])
        acc, i, v = f.arguments
        body = Builder(InsertionPoint.at_end(f.body))
        view = body.insert(sycl.SYCLAccessorSubscriptOp.build(
            acc, index_of(body, i)))
        zero = body.insert(arith.ConstantOp.build(0, index()))
        body.insert(memref.StoreOp.build(v, view.result, [zero.result]))
        body.insert(func.ReturnOp.build())
        return run_lint(wrap_in_module(f),
                        rules=["readonly-accessor-write"])

    def test_readonly_accessor_write_flagged(self):
        findings = self._readonly_accessor_store(lambda body, i: i)
        assert len(findings) == 1
        assert "read-only accessor" in findings[0].message

    def test_readonly_accessor_write_at_a_non_affine_index_flagged(self):
        # acc[i * i]: no access matrix, still a store through the view.
        findings = self._readonly_accessor_store(
            lambda body, i: body.insert(arith.MulIOp.build(i, i)).result)
        assert len(findings) == 1
        assert "read-only accessor" in findings[0].message

    def test_dead_private_function_flagged(self):
        dead = func.FuncOp.build("helper", [])
        dead.set_attr("sym_visibility", StringAttr("private"))
        Builder(InsertionPoint.at_end(dead.body)).insert(
            func.ReturnOp.build())
        live, _ = build_listing1_function()
        findings = run_lint(wrap_in_module(live, dead),
                            rules=["dead-private-function"])
        assert len(findings) == 1
        assert "@helper" in findings[0].message

    def test_listing_modules_are_lint_clean(self):
        for builder in (build_listing1_function, build_listing2_function,
                        build_listing3_function):
            module = wrap_in_module(builder()[0])
            assert run_lint(module) == [], builder.__name__


class TestLintSweepAcrossPipelines:
    """The CI gate: every listing module stays clean under every shipped
    pipeline, with linting after every pass (``--lint-each``)."""

    @pytest.mark.parametrize("pipeline", sorted(shipped_pipeline_names()))
    def test_pipelines_keep_listings_clean(self, pipeline, tmp_path):
        functions = [builder()[0] for builder in (
            build_listing1_function, build_listing2_function,
            build_listing3_function)]
        path = tmp_path / "listings.mlir"
        text = (("// -----\n").join(
            Printer().print_module(wrap_in_module(f)) + "\n"
            for f in functions))
        path.write_text(text, encoding="utf-8")
        rc = repro_opt_main([
            str(path), "--split-input-file", "--pipeline", pipeline,
            "--lint-each", "-o", str(tmp_path / "out.mlir")])
        assert rc == 0


# ---------------------------------------------------------------------------
# Locations
# ---------------------------------------------------------------------------

class TestLocations:
    def test_parser_assigns_file_line_col(self):
        module = parse_module(TRAP_HOIST_IR, filename="trap.mlir")
        ops = {op.name: op for op in module.walk()}
        assert location_of(ops["arith.divsi"]).describe() == "trap.mlir:4:5"
        assert location_of(ops["builtin.module"]).describe() == "trap.mlir:1:1"

    def test_default_printing_omits_locations(self):
        module = parse_module(TRAP_HOIST_IR, filename="trap.mlir")
        assert "loc(" not in Printer().print_module(module)

    def test_location_round_trip_with_debuginfo(self):
        module = parse_module(TRAP_HOIST_IR, filename="trap.mlir")
        text = Printer(print_locations=True).print_module(module)
        assert 'loc("trap.mlir":4:5)' in text
        reparsed = parse_module(text, filename="<reprint>")
        ops = {op.name: op for op in reparsed.walk()}
        # The explicit trailer wins over the reparse position.
        assert location_of(ops["arith.divsi"]).describe() == "trap.mlir:4:5"
        assert Printer(print_locations=True).print_module(reparsed) == text

    def test_locations_survive_clone(self):
        module = parse_module(TRAP_HOIST_IR, filename="trap.mlir")
        clone = module.clone()
        ops = {op.name: op for op in clone.walk()}
        assert location_of(ops["arith.divsi"]).describe() == "trap.mlir:4:5"

    def test_locations_are_immutable_hash_keys(self):
        module = parse_module(TRAP_HOIST_IR, filename="trap.mlir")
        divsi = next(op for op in module.walk() if op.name == "arith.divsi")
        findings = {location_of(divsi): "divsi"}
        with pytest.raises(AttributeError, match="immutable"):
            location_of(divsi).line = 1
        assert findings[Location("trap.mlir", 4, 5)] == "divsi"

    def test_unknown_location_prints_as_unknown(self):
        assert str(UNKNOWN) == "loc(unknown)"
        assert UNKNOWN.describe() == "<unknown>"
        assert Location("f.py", 3, 1).describe() == "f.py:3:1"

    def test_kernel_builder_blames_user_lines(self):
        def kernel_body(kb):
            gid = kb.global_id(0)
            kb.store("out", [gid], gid.to_int())

        source = KernelSource(
            "k", body=kernel_body, nd_range_dims=1,
            accessors=[AccessorParam("out", 1, i32(),
                                     access_mode="write")])
        function = source.build()
        locations = [location_of(op) for op in function.walk()
                     if op.name.startswith(("sycl.", "arith."))]
        assert locations, "expected sycl/arith ops in the built kernel"
        assert all(loc.is_known for loc in locations)
        assert all(loc.filename.endswith("test_static_analysis.py")
                   for loc in locations)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

class TestReproLintDriver:
    def test_flags_both_pr5_miscompile_classes(self, tmp_path, capsys):
        trap = tmp_path / "trap.mlir"
        trap.write_text(TRAP_HOIST_IR, encoding="utf-8")
        dom = tmp_path / "dom.mlir"
        dom.write_text(NON_DOMINATING_IR, encoding="utf-8")
        rc = repro_lint_main([str(trap), str(dom), "--no-verify"])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"{trap}:4:5: warning: 'arith.divsi' may trap" in err
        assert f"{dom}:4:5: error: operand of 'memref.store'" in err
        assert "2 findings" in err

    def test_clean_module_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.mlir"
        path.write_text(
            Printer().print_module(_simple_module()) + "\n",
            encoding="utf-8")
        rc = repro_lint_main([str(path), "--analysis-stats"])
        assert rc == 0
        assert "analysis manager:" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert repro_lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "speculated-trap" in out

    def test_rule_subset_selection(self, tmp_path, capsys):
        trap = tmp_path / "trap.mlir"
        trap.write_text(TRAP_HOIST_IR, encoding="utf-8")
        rc = repro_lint_main([str(trap), "--rules", "non-dominating-use"])
        assert rc == 0  # the trap module is clean under the other rule
        capsys.readouterr()

    def test_pipeline_runs_before_linting(self, tmp_path, capsys):
        path = tmp_path / "clean.mlir"
        path.write_text(
            Printer().print_module(_simple_module()) + "\n",
            encoding="utf-8")
        rc = repro_lint_main([str(path), "--pipeline", "sycl-mlir"])
        assert rc == 0
        capsys.readouterr()


class TestVerifyDiagnosticsMode:
    def test_expected_error_matches(self, tmp_path):
        path = tmp_path / "case.mlir"
        path.write_text(NON_DOMINATING_IR.replace(
            '    "memref.store"(%v, %p) : (i32, memref<i32>) -> ()\n',
            '    // expected-error @+1 {{does not dominate its use}}\n'
            '    "memref.store"(%v, %p) : (i32, memref<i32>) -> ()\n'),
            encoding="utf-8")
        assert repro_opt_main([str(path), "--verify-diagnostics"]) == 0

    def test_unexpected_diagnostic_fails(self, tmp_path, capsys):
        path = tmp_path / "case.mlir"
        path.write_text(NON_DOMINATING_IR, encoding="utf-8")
        rc = repro_opt_main([str(path), "--verify-diagnostics"])
        assert rc == 1
        assert "unexpected diagnostic" in capsys.readouterr().err

    def test_missing_expected_diagnostic_fails(self, tmp_path, capsys):
        path = tmp_path / "case.mlir"
        path.write_text(
            "// expected-error {{never happens}}\n" +
            Printer().print_module(_simple_module()) + "\n",
            encoding="utf-8")
        rc = repro_opt_main([str(path), "--verify-diagnostics"])
        assert rc == 1
        assert "was not produced" in capsys.readouterr().err


class TestPipelineChecker:
    def test_valid_specs_produce_no_diagnostics(self):
        assert check_pass_pipeline("canonicalize,cse") == []
        assert check_pass_pipeline(
            "builtin.module(cse,func.func(canonicalize))") == []

    def test_malformed_spec_gets_character_offset(self):
        (diagnostic,) = check_pass_pipeline("cse,,canonicalize")
        assert diagnostic.location.filename == "<pipeline>"
        assert diagnostic.location.column > 1

    def test_unknown_pass_is_reported(self):
        (diagnostic,) = check_pass_pipeline("definitely-not-a-pass")
        assert "definitely-not-a-pass" in diagnostic.message

    def test_driver_reports_spec_errors_statically(self, tmp_path, capsys):
        rc = repro_opt_main(["--passes", "cse,,x", str(tmp_path)])
        assert rc == 2
        assert "<pipeline>:1:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Dataflow fixpoint diagnostics (satellite: the unsound cap fix)
# ---------------------------------------------------------------------------

class TestLoopFixpoint:
    def _loop_function(self):
        f = func.FuncOp.build("loop", [index(), index(), index()],
                              arg_names=["lb", "ub", "step"])
        lb, ub, step = f.arguments
        body = Builder(InsertionPoint.at_end(f.body))
        alloca = body.insert(memref.AllocaOp.build(MemRefType((), i32())))
        c = body.insert(arith.ConstantOp.build(1, i32()))
        loop = body.insert(scf.ForOp.build(lb, ub, step))
        loop_body = Builder(InsertionPoint.at_start(loop.body))
        loop_body.insert(memref.StoreOp.build(c.result, alloca.result))
        body.insert(func.ReturnOp.build())
        return f

    def test_loops_converge_within_the_raised_limit(self):
        f = self._loop_function()
        analysis = ReachingDefinitionAnalysis(f)
        assert analysis.converged

    def test_non_convergence_warns_instead_of_silently_stopping(self,
                                                                monkeypatch):
        import repro.analysis.dataflow as dataflow

        monkeypatch.setattr(dataflow, "LOOP_FIXPOINT_LIMIT", 0)
        f = self._loop_function()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            analysis = ReachingDefinitionAnalysis(f)
        assert not analysis.converged
        assert any(issubclass(w.category, NonConvergenceWarning)
                   for w in caught)


# ---------------------------------------------------------------------------
# Specialization quarantine (satellite)
# ---------------------------------------------------------------------------

class TestSpecializationQuarantine:
    def test_runtime_checked_alias_analysis_still_ships(self):
        from repro.transforms import RuntimeCheckedAliasAnalysis

        assert RuntimeCheckedAliasAnalysis is not None

    def test_dead_specialization_entry_points_removed(self):
        import repro.transforms as transforms
        import repro.transforms.specialization as specialization

        assert not hasattr(specialization, "specialize_kernel")
        assert not hasattr(transforms, "specialize_kernel")
