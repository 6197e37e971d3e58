"""Tests for the ``lower-to-llvm`` pipeline and the ``cf`` dialect.

Covers the lowering subsystem end to end:

* conversion-pass shape tests (``scf.if``/``scf.for``/``scf.while`` →
  ``cf`` CFG, memref accesses → ``llvm.getelementptr``/``load``/
  ``store``, ``func.func`` → ``llvm.func``); rotated loops: no header
  block, a guard only without a constant trip count of at least one,
  carried values swapped over a self-edge on every tier;
* address ingredients built once per function, outside the loops that
  do not need them, with the executed-ops count of the lowered GEMM
  pinned; addresses split into one GEP per loop level (no in-loop GEP
  adds an out-of-loop term, a two-deep nest equal on the interpreter
  and the JIT, ``scf.if``-only code unchanged) and no entry block
  repeating a constant; the CFG fallback of the old pass order;
  one manager's repeated runs;
* differential equivalence of the fully lowered module against the
  source — all listings, GEMM, and the internalizing composition
  (``sycl-mlir`` *then* ``lower-to-llvm``) — across all execution tiers;
* CFG mechanics: ``cf`` print/parse round trips, multi-block dominance
  in the verifier, the interpreter's branch-dispatch loop;
* the JIT tier's ``scf.while`` support (results *and* counters match
  the interpreter);
* lowered modules on the JIT tier's CFG mode: no fallback, buffers and
  the whole counter set equal to the interpreter's (the hand-written
  CFG corner cases live in ``test_execution_tiers.py``).
"""

import pytest

from repro.dialects import arith, cf, func, memref, scf
from repro.dialects.builtin import UnrealizedConversionCastOp
from repro.dialects.llvm import (
    LLVMAddOp,
    LLVMConstantOp,
    LLVMFuncOp,
    LLVMGEPOp,
)
from repro.interp import ExecutionSpec, run_differential
from repro.interp.engine import ExecutionEngine
from repro.ir import (
    Block,
    IndexType,
    MemRefType,
    VerificationError,
    f32,
    i1,
    i32,
    parse_module,
    verify,
)
from repro.ir.builder import Builder, InsertionPoint
from repro.ir.dominance import block_dominates
from repro.ir.printer import print_op
from repro.transforms import build_named_pipeline
from repro.transforms.pipelines import parse_pass_pipeline

from .filecheck import filecheck
from .helpers import (
    build_gemm_module,
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    listing_execution_specs,
    memory_differences,
    wrap_in_module,
)


def index():
    return IndexType()


def _listing_module():
    return wrap_in_module(*[build()[0] for build in (
        build_listing1_function,
        build_listing2_function,
        build_listing3_function,
    )])


def _lower(module):
    build_named_pipeline("lower-to-llvm").run(module)
    return module


def _dialect_histogram(module):
    counts = {}
    for op in module.walk():
        dialect = op.name.split(".")[0]
        counts[dialect] = counts.get(dialect, 0) + 1
    return counts


def _internalized_gemm():
    """The 8x8 GEMM ``sycl-mlir`` tiles by 8 (a tile of 4 declines)."""
    module, specs = build_gemm_module(work_group=8)
    build_named_pipeline("sycl-mlir").run(module)
    return module, specs


def _build_transpose_add_function():
    """``dst[i, j] = (src[i, j] if i < j else 0) + src[j, i]`` over a
    4x4 loop nest: the inner body's addresses use the outer loop's
    induction variable, and ``[i, j]`` is first addressed in one arm of
    a branch and then in the other."""
    shape = MemRefType((4, 4), f32())
    f = func.FuncOp.build("transpose_add", [shape, shape], [],
                          arg_names=["src", "dst"])
    src, dst = f.arguments
    b = Builder(InsertionPoint.at_end(f.body))
    c0, c1, c4 = (b.insert(arith.ConstantOp.build(v, index())).result
                  for v in (0, 1, 4))
    outer = b.insert(scf.ForOp.build(c0, c4, c1))
    ob = Builder(InsertionPoint.at_end(outer.body))
    inner = ob.insert(scf.ForOp.build(c0, c4, c1))
    ob.insert(scf.YieldOp.build())
    i, j = outer.induction_variable(), inner.induction_variable()
    ib = Builder(InsertionPoint.at_end(inner.body))
    t = ib.insert(memref.LoadOp.build(src, [j, i])).result
    below = ib.insert(arith.CmpIOp.build("slt", i, j))
    branch = ib.insert(scf.IfOp.build(below.result, [], with_else=True))
    ib.insert(scf.YieldOp.build())
    then = Builder(InsertionPoint.at_end(branch.then_block))
    a = then.insert(memref.LoadOp.build(src, [i, j]))
    total = then.insert(arith.AddFOp.build(a.result, t))
    then.insert(memref.StoreOp.build(total.result, dst, [i, j]))
    then.insert(scf.YieldOp.build())
    otherwise = Builder(InsertionPoint.at_end(branch.else_block))
    otherwise.insert(memref.StoreOp.build(t, dst, [i, j]))
    otherwise.insert(scf.YieldOp.build())
    b.insert(func.ReturnOp.build())
    return f


def _blocks_on_a_cycle(function):
    """The blocks of ``function``'s CFG that reach themselves: the
    lowered loops' bodies."""
    def successors(block):
        terminator = block.terminator
        return terminator.successors if terminator is not None else ()

    looping = []
    for block in function.regions[0].blocks:
        seen, stack = set(), list(successors(block))
        while stack:
            current = stack.pop()
            if current is block:
                looping.append(block)
                break
            if current not in seen:
                seen.add(current)
                stack.extend(successors(current))
    return looping


def _build_swap_function():
    """``swap(n)``: ``scf.for 0..n`` carrying ``(1, 2)`` and yielding
    its two values the other way round, so they swap every trip.  ``n``
    is a runtime value: the lowered loop keeps its ``lb < ub`` guard."""
    f = func.FuncOp.build("swap", [index()], [index(), index()])
    b = Builder(InsertionPoint.at_end(f.body))
    c0, c1, c2 = (b.insert(arith.ConstantOp.build(v, index())).result
                  for v in (0, 1, 2))
    loop = b.insert(scf.ForOp.build(c0, f.arguments[0], c1, [c1, c2]))
    first, second = loop.region_iter_args
    loop.body.append(scf.YieldOp.build([second, first]))
    b.insert(func.ReturnOp.build(list(loop.results)))
    return f


def _back_edges(function):
    """``(source, target, terminator)`` for every edge of ``function``'s
    CFG whose target dominates its source."""
    edges = []
    for block in function.regions[0].blocks:
        terminator = block.terminator
        for target in terminator.successors if terminator is not None else ():
            if block_dominates(target, block):
                edges.append((block, target, terminator))
    return edges


def _executions(module, specs):
    executions, skipped = ExecutionEngine(
        module, tier="interp").execute_module(specs)
    assert not skipped, skipped
    return executions


class TestConversionShape:
    def test_functions_become_llvm_funcs(self):
        module = _lower(_listing_module())
        kinds = [type(op).__name__ for op in module.body.operations]
        assert all(isinstance(op, LLVMFuncOp)
                   for op in module.body.operations), kinds

    def test_no_structured_control_flow_survives(self):
        module = _lower(_listing_module())
        histogram = _dialect_histogram(module)
        assert "scf" not in histogram
        assert "affine" not in histogram
        assert "func" not in histogram
        assert histogram.get("cf", 0) > 0
        assert histogram.get("llvm", 0) > 0

    def test_if_becomes_diamond(self):
        module = _lower(wrap_in_module(build_listing1_function()[0]))
        filecheck(print_op(module), '''
            CHECK: "cf.cond_br"(%cond)
            CHECK-SAME: [^bb1, ^bb2]
            CHECK: ^bb1
            CHECK: "cf.br"()
            CHECK-SAME: [^bb3]
            CHECK: ^bb2
            CHECK: "cf.br"()
            CHECK-SAME: [^bb3]
            CHECK: ^bb3
            CHECK: "llvm.return"()
        ''')

    def test_memref_accesses_become_gep_load_store(self):
        module = _lower(wrap_in_module(build_listing1_function()[0]))
        text = print_op(module)
        filecheck(text, '''
            CHECK: "builtin.unrealized_conversion_cast"(%ptr1)
            CHECK-SAME: (memref<i32>) -> (!llvm.ptr<i32>)
            CHECK: "llvm.getelementptr"
            CHECK: "llvm.store"
        ''')
        assert '"memref.store"' not in text
        assert '"memref.load"' not in text

    def test_for_loop_becomes_rotated_cfg(self):
        module = wrap_in_module(build_listing3_function()[0])
        _lower(module)
        filecheck(print_op(module), '''
            CHECK: "cf.br"(%0)[^bb1] : (index) -> ()
            CHECK: ^bb1(%iv: index):
            CHECK-NEXT: %3 = "llvm.add"(%iv, %2)
            CHECK-NEXT: %4 = "llvm.icmp"(%3, %1) {predicate = "slt"}
            CHECK-NEXT: "cf.cond_br"(%4, %3)
            CHECK-SAME: [^bb1, ^bb2]
        ''')

    def test_conversion_statistics_are_reported(self):
        from repro.transforms import CompileReport

        report = CompileReport()
        module = _listing_module()
        build_named_pipeline("lower-to-llvm").run(
            module, report=report)
        stats = {(stat.pass_name, stat.name): stat.value
                 for stat in report.statistics}
        assert stats.get(("convert-scf-to-cf", "expanded"), 0) > 0
        assert stats.get(("convert-memref-to-llvm", "accesses"), 0) > 0


#: ``lower-to-llvm`` split around ``convert-scf-to-cf``, so a test can
#: see the ``scf.for`` ops the CFG conversion receives.
BEFORE_SCF_TO_CF = ("builtin.module(func.func(lower-sycl-accessors,"
                    "lower-affine,convert-memref-to-llvm))")
FROM_SCF_TO_CF = ("builtin.module(func.func(convert-scf-to-cf,"
                  "convert-arith-to-llvm),convert-func-to-llvm)")


class TestRotatedLoops:
    """Each ``scf.for`` lowers to a body block that is its own latch:
    no header block, one back edge per loop carried by a ``cf.cond_br``,
    and an ``lb < ub`` guard only where the trip count is not a constant
    of at least one."""

    def _modules(self):
        gemm, _ = _internalized_gemm()
        gemm.append(_build_transpose_add_function())
        yield gemm
        yield _listing_module()
        yield wrap_in_module(_build_swap_function())

    def test_no_header_blocks_and_guards_only_where_needed(self):
        guards = 0
        for module in self._modules():
            parse_pass_pipeline(BEFORE_SCF_TO_CF).run(module)
            # Body blocks are moved, not cloned: they keep their identity.
            loops = {loop.body: (loop.constant_trip_count() or 0) >= 1
                     for loop in module.walk()
                     if isinstance(loop, scf.ForOp)}
            assert loops
            flat = {body for body in loops
                    if not any(op.regions for op in body.operations)}
            parse_pass_pipeline(FROM_SCF_TO_CF).run(module)
            verify(module)
            edges = [edge for function in module.body.operations
                     for edge in _back_edges(function)]
            assert sorted(id(target) for _, target, _ in edges) == \
                sorted(id(body) for body in loops)
            for source, target, terminator in edges:
                assert isinstance(terminator, cf.CondBranchOp)
                assert terminator.successors[0] is target
                if target in flat:
                    assert source is target
            for body, runs in loops.items():
                entries = [op for block in body.parent.blocks
                           if (op := block.terminator) is not None
                           and body in op.successors
                           and not block_dominates(body, block)]
                assert len(entries) == 1
                if runs:
                    assert isinstance(entries[0], cf.BranchOp)
                else:
                    assert isinstance(entries[0], cf.CondBranchOp)
                    assert entries[0].successors[0] is body
                    guards += 1
        assert guards == 1  # the swap function's runtime-bounded loop

    @pytest.mark.parametrize("n,expected", [(0, [1, 2]), (1, [2, 1]),
                                            (7, [2, 1])])
    def test_carried_values_swap_on_every_tier(self, n, expected):
        """``n = 0`` leaves through the guard with the init args; a trip
        swaps the two carried values over the body's self-edge, which
        the JIT compiles to one parallel assignment."""
        spec = ExecutionSpec(scalars={"arg0": n})
        structured = ExecutionEngine(
            wrap_in_module(_build_swap_function()),
            tier="interp").run("swap", spec)
        lowered = _lower(wrap_in_module(_build_swap_function()))
        runs = {tier: ExecutionEngine(lowered, tier=tier).run("swap", spec)
                for tier in ("interp", "jit")}
        assert structured.results == expected
        assert runs["jit"].tier == "jit"  # compiled, no fallback
        for run in runs.values():
            assert run.results == expected
        assert runs["jit"].counters == runs["interp"].counters
        assert dict(runs["interp"].counters, ops=0) == \
            dict(structured.counters, ops=0)
        # Three constants, the guard's compare and branch, the return:
        # then three ops a trip.
        assert runs["interp"].counters["ops"] == 6 + 3 * n


class TestDifferential:
    def test_listings_survive_lowering(self):
        report = run_differential(_listing_module(), "lower-to-llvm",
                                  specs=listing_execution_specs())
        assert report.executed == ["foo", "mem_acc", "non_uniform"]
        assert report.skipped == {}

    def test_gemm_survives_lowering(self):
        module, specs = build_gemm_module()
        report = run_differential(module, "lower-to-llvm", specs=specs)
        assert report.executed == ["gemm"]

    def test_internalized_gemm_survives_lowering(self):
        """The paper pipeline first, then the lowering — the lowered
        module must still compute what the *original* source did."""
        module, specs = build_gemm_module(work_group=8)
        compiled = build_named_pipeline("sycl-mlir").run(module)
        assert compiled.get_statistic("loop-internalization",
                                      "loops_internalized") == 1
        report = run_differential(module, "lower-to-llvm", specs=specs)
        assert report.executed == ["gemm"]
        histogram = _dialect_histogram(module)
        assert "scf" not in histogram

    @pytest.mark.parametrize("tier", ["interp", "jit", "vector", "auto"])
    def test_lowering_verifies_under_every_tier(self, tier):
        report = run_differential(_listing_module(), "lower-to-llvm",
                                  specs=listing_execution_specs(),
                                  tier=tier)
        assert report.executed == ["foo", "mem_acc", "non_uniform"]


class TestLoweredCodeRunsOnTheJIT:
    """``sycl-mlir`` then ``lower-to-llvm``, pinned ``tier="jit"``: the
    CFG compiles (no fallback) and reports the interpreter's buffers and
    its whole counter set, not just matching results."""

    def _cases(self):
        from .helpers import build_vecadd_source

        yield _listing_module(), listing_execution_specs()
        vecadd = wrap_in_module(build_vecadd_source().build())
        yield vecadd, {"vecadd": ExecutionSpec(
            global_size=(16,), buffers={name: (16,) for name in "abc"})}
        yield build_gemm_module(work_group=8)  # tiled: local tiles, barriers

    def test_lowered_modules_match_the_interpreter_exactly(self):
        executed = []
        for module, specs in self._cases():
            build_named_pipeline("sycl-mlir").run(module)
            _lower(module)
            runs = {}
            for tier in ("interp", "jit"):
                engine = ExecutionEngine(module, tier=tier)
                runs[tier], skipped = engine.execute_module(specs)
                assert not skipped, skipped
                assert engine.remarks == []
            for name, before in runs["interp"].items():
                after = runs["jit"][name]
                assert after.tier == "jit", name
                assert after.results == before.results, name
                assert not memory_differences(after.memory,
                                              before.memory), name
                assert after.counters == before.counters, name
                executed.append(name)
        assert sorted(executed) == ["foo", "gemm", "mem_acc", "non_uniform",
                                    "vecadd"]

    def test_internalized_gemm_keeps_its_barriers_in_the_cfg(self):
        module, specs = _internalized_gemm()
        _lower(module)
        engine = ExecutionEngine(module, tier="auto")
        executions, _ = engine.execute_module(specs)
        assert executions["gemm"].tier == "jit"
        assert executions["gemm"].counters["barriers"] > 0
        assert not any("'jit' fell back" in r for r in engine.remarks)


#: ``lower-to-llvm`` with ``convert-scf-to-cf`` ahead of
#: ``convert-memref-to-llvm``: the memory conversion then sees a CFG.
OLD_PASS_ORDER = (
    "builtin.module(func.func(lower-sycl-accessors,lower-affine,"
    "convert-scf-to-cf,convert-arith-to-llvm,convert-memref-to-llvm),"
    "convert-func-to-llvm)")


class TestAddressesAreBuiltOnce:
    """``convert-memref-to-llvm`` runs on structured control flow and
    builds each bridge, extent constant, Horner step and address once,
    right after its operands are defined."""

    def test_one_bridge_per_memref_value(self):
        module, _ = _internalized_gemm()
        _lower(module)
        bridged = [op.operands[0] for op in module.walk()
                   if isinstance(op, UnrealizedConversionCastOp)]
        assert bridged
        assert len(set(bridged)) == len(bridged)

    def test_no_constant_or_bridge_in_a_loop_body(self):
        module, _ = _internalized_gemm()
        module.append(_build_transpose_add_function())
        _lower(module)
        for function in module.body.operations:
            looping = _blocks_on_a_cycle(function)
            assert looping, function.sym_name
            for block in looping:
                for op in block.operations:
                    assert not isinstance(
                        op, (LLVMConstantOp, UnrealizedConversionCastOp)), \
                        (function.sym_name, op.name)

    def test_lowered_gemm_executes_a_pinned_number_of_ops(self):
        """Exact interpreter counts.  At the 8x8 / 4x4 launch, built per
        access, the addresses made the tiled kernel execute 15 936 ops;
        built once but summed inside the loops, 10 944.  Split by loop
        level, with each constant once per function, 9 664; with ``C``
        in a register across the tile loop and every tile read
        unit-stride, 9 152.  A tile of 4 now declines (``C`` stays in a
        register untiled), so the pin is the 8x8 / 8x8 launch, tiled by
        8.  Loads and stores are the structured kernel's, one for one."""
        module, specs = _internalized_gemm()
        structured = _executions(module, specs)["gemm"].counters
        lowered = _executions(_lower(module), specs)["gemm"].counters
        assert structured["ops"] == 4_992
        assert lowered["ops"] == 8_192
        assert dict(lowered, ops=0) == dict(structured, ops=0)


def _build_nest_function():
    """``dst[i, j + 1] = src[off + 4 * i + j]`` over a 4x4 loop nest:
    each address sums a term defined outside both loops (``off``, the
    constant column shift), one of the outer loop (``4 * i``, the Horner
    row of ``dst``) and the inner induction variable."""
    dynamic = MemRefType((-1,), f32())
    f = func.FuncOp.build("nest", [dynamic, MemRefType((4, 8), f32()),
                                   index()], [],
                          arg_names=["src", "dst", "off"])
    src, dst, off = f.arguments
    b = Builder(InsertionPoint.at_end(f.body))
    c0, c1, c4 = (b.insert(arith.ConstantOp.build(v, index())).result
                  for v in (0, 1, 4))
    outer = b.insert(scf.ForOp.build(c0, c4, c1))
    ob = Builder(InsertionPoint.at_end(outer.body))
    i = outer.induction_variable()
    row = ob.insert(arith.AddIOp.build(
        off, ob.insert(arith.MulIOp.build(i, c4)).result)).result
    inner = ob.insert(scf.ForOp.build(c0, c4, c1))
    ob.insert(scf.YieldOp.build())
    j = inner.induction_variable()
    ib = Builder(InsertionPoint.at_end(inner.body))
    at = ib.insert(arith.AddIOp.build(row, j)).result
    value = ib.insert(memref.LoadOp.build(src, [at])).result
    column = ib.insert(arith.AddIOp.build(j, c1)).result
    ib.insert(memref.StoreOp.build(value, dst, [i, column]))
    ib.insert(scf.YieldOp.build())
    b.insert(func.ReturnOp.build())
    return f


def _innermost_loops(function):
    """Each block of a lowered loop -> the blocks of the innermost
    natural loop holding it (a back edge's target and every block that
    reaches its source without passing through the target)."""
    predecessors = {}
    for block in function.regions[0].blocks:
        terminator = block.terminator
        for successor in terminator.successors if terminator else ():
            predecessors.setdefault(successor, []).append(block)
    loops = []
    for source, header, _ in _back_edges(function):
        body = {header, source}
        stack = [source] if source is not header else []
        while stack:
            for predecessor in predecessors.get(stack.pop(), ()):
                if predecessor not in body:
                    body.add(predecessor)
                    stack.append(predecessor)
        loops.append(body)
    innermost = {}
    for body in sorted(loops, key=len, reverse=True):
        for block in body:
            innermost[block] = body
    return innermost


def _mixed_level_geps(module):
    """In-loop ``getelementptr``s whose index is an ``llvm.add`` with an
    operand defined outside the GEP's innermost loop."""
    found = []
    for function in module.body.operations:
        for block, loop in _innermost_loops(function).items():
            for op in block.operations:
                if not isinstance(op, LLVMGEPOp):
                    continue
                for index in op.operands[1:]:
                    add = index.defining_op()
                    if isinstance(add, LLVMAddOp) and any(
                            operand.owner_block() not in loop
                            for operand in add.operands):
                        found.append(op)
    return found


def _duplicate_entry_constants(module):
    """``(function, value)`` for each repeated constant of an entry
    block."""
    duplicates = []
    for function in module.body.operations:
        seen = set()
        for op in function.regions[0].blocks[0].operations:
            if isinstance(op, (LLVMConstantOp, arith.ConstantOp)):
                key = op.attributes["value"]
                if key in seen:
                    duplicates.append((function.sym_name, str(key)))
                seen.add(key)
    return duplicates


class TestAddressesSplitByLoopLevel:
    """``convert-memref-to-llvm`` builds an address as one
    ``getelementptr`` per loop level of its terms, outermost first, and
    reuses an equal entry-block constant instead of building another."""

    def test_no_in_loop_gep_adds_an_out_of_loop_term(self):
        module, _ = _internalized_gemm()
        module.append(_build_transpose_add_function())
        module.append(_build_nest_function())
        report = build_named_pipeline("lower-to-llvm").run(module)
        assert _mixed_level_geps(module) == []
        split = {(stat.pass_name, stat.name): stat.value
                 for stat in report.statistics}
        # gemm: the prefetches of A and B and both reads of the k-loop;
        # transpose_add: all four accesses; nest: its load and its store.
        assert split[("convert-memref-to-llvm", "split")] == 10

    @pytest.mark.parametrize("tier", ("interp", "jit"))
    def test_a_two_deep_nest_computes_the_same(self, tier):
        spec = ExecutionSpec(buffers={"src": (24,), "dst": (4, 8)},
                             scalars={"off": 5})
        structured = ExecutionEngine(
            wrap_in_module(_build_nest_function()),
            tier="interp").run("nest", spec)
        lowered = _lower(wrap_in_module(_build_nest_function()))
        # Three levels each: ``off`` / the column shift, the row, ``j``.
        assert [op.name for op in lowered.walk()].count(
            "llvm.getelementptr") == 6
        run = ExecutionEngine(lowered, tier=tier).run("nest", spec)
        assert run.tier == tier
        assert not memory_differences(run.memory, structured.memory)
        assert dict(run.counters, ops=0) == dict(structured.counters, ops=0)
        # Four constants, two bridges, the two outermost GEPs, the branch
        # into the outer loop and the return; four outer trips of two
        # row muls and GEPs, the branch into the inner loop and the
        # three-op latch; sixteen inner trips of two GEPs, the load, the
        # store and the latch.
        assert run.counters["ops"] == 10 + 4 * (4 + 1 + 3) + 16 * (4 + 3)
        assert run.counters == ExecutionEngine(
            lowered, tier="interp").run("nest", spec).counters

    def test_straight_line_and_branch_code_keeps_one_gep(self):
        """``sobel`` addresses everything under an ``scf.if`` and in no
        loop: nothing to split, and the same count as summed in one
        index (the compile workload's (16, 4) variant, 4x4 launch)."""
        from .test_late_lowering import _sobel

        function, spec = _sobel(4)
        module = wrap_in_module(function)
        build_named_pipeline("sycl-mlir").run(module)
        report = build_named_pipeline("lower-to-llvm").run(module)
        assert "split" not in {stat.name for stat in report.statistics}
        for tier in ("interp", "jit"):
            run = ExecutionEngine(module, tier=tier).run("sobel", spec)
            assert run.tier == tier
            assert run.counters["ops"] == 568

    def test_no_entry_block_repeats_a_constant(self):
        module, _ = _internalized_gemm()
        for build in (build_listing1_function, build_listing2_function,
                      build_listing3_function):
            module.append(build()[0])
        module.append(_build_transpose_add_function())
        module.append(_build_nest_function())
        report = build_named_pipeline("lower-to-llvm").run(module)
        assert _duplicate_entry_constants(module) == []
        reused = {stat.pass_name: stat.value for stat in report.statistics
                  if stat.name == "constants_reused"}
        assert reused["lower-affine"] > 0
        assert reused["convert-memref-to-llvm"] > 0


class TestOldPassOrder:
    def test_cfg_fallback_verifies_and_computes_the_same(self, tmp_path):
        """The old order through ``repro-opt --passes``, as the CI
        pass-smoke job runs passes: an address whose operand is defined
        in a block that does not enclose the access is built right before
        the access and not reused, so the module still verifies and
        computes the same buffers, only with more executed ops."""
        from repro.tools.repro_opt import main as repro_opt

        module, specs = _internalized_gemm()
        module.append(_build_transpose_add_function())
        source = tmp_path / "in.mlir"
        source.write_text(print_op(module) + "\n")
        output = tmp_path / "out.mlir"
        assert repro_opt([str(source), "--passes", OLD_PASS_ORDER,
                          "--verify-each", "-o", str(output)]) == 0
        old_order = parse_module(output.read_text())
        verify(old_order)
        assert '"cf.cond_br"' in print_op(old_order)
        new_order = _lower(parse_module(source.read_text()))
        runs = [_executions(m, specs) for m in (module, old_order, new_order)]
        reference, old, new = runs
        assert sorted(reference) == ["gemm", "transpose_add"]
        for name, expected in reference.items():
            for run in (old, new):
                assert not memory_differences(run[name].memory,
                                              expected.memory), name
                assert dict(run[name].counters, ops=0) == \
                    dict(expected.counters, ops=0), name
        assert old["transpose_add"].counters["ops"] > \
            new["transpose_add"].counters["ops"]
        # Summed in one index inside the loops: what the split avoids.
        assert _mixed_level_geps(old_order)
        assert not _mixed_level_geps(new_order)


class TestRepeatedLowering:
    def test_runs_give_byte_identical_output(self):
        """The ingredient memo is per run of the pass on a function, so
        a pooled manager's pass instances, reused, change nothing."""
        module, _ = _internalized_gemm()
        for build in (build_listing1_function, build_listing2_function,
                      build_listing3_function):
            module.append(build()[0])
        module.append(_build_transpose_add_function())
        text = print_op(module)
        lowered = []
        manager = build_named_pipeline("lower-to-llvm")
        for _ in range(2):
            copy = parse_module(text)
            manager.run(copy)
            lowered.append(print_op(copy))
        assert lowered[0] == lowered[1]
        assert '"builtin.unrealized_conversion_cast"' in lowered[0]


class TestCFMechanics:
    def _diamond(self):
        f = func.FuncOp.build("pick", [i1(), i32(), i32()], [i32()])
        cond, x, y = f.arguments
        entry = f.body
        exit_block = Block([i32()])
        then_block = Block()
        else_block = Block()
        for block in (then_block, else_block, exit_block):
            f.regions[0].add_block(block)
        entry.append(cf.CondBranchOp.build(cond, then_block, (),
                                           else_block, ()))
        then_block.append(cf.BranchOp.build(exit_block, [x]))
        else_block.append(cf.BranchOp.build(exit_block, [y]))
        exit_block.append(func.ReturnOp.build([exit_block.arguments[0]]))
        return f

    def test_cf_round_trips_through_printer_and_parser(self):
        module = wrap_in_module(self._diamond())
        verify(module)
        text = print_op(module)
        back = parse_module(text)
        verify(back)
        assert print_op(back) == text

    def test_interpreter_follows_branches(self):
        engine = ExecutionEngine(wrap_in_module(self._diamond()),
                                 tier="interp")
        assert engine.call("pick", [True, 10, 20]) == [10]
        assert engine.call("pick", [False, 10, 20]) == [20]

    def test_branch_operand_count_is_verified(self):
        f = func.FuncOp.build("bad", [i32()], [])
        target = Block([i32(), i32()])
        f.regions[0].add_block(target)
        f.body.append(
            cf.BranchOp.build(target, [f.arguments[0]]))
        target.append(func.ReturnOp.build())
        with pytest.raises(VerificationError):
            verify(wrap_in_module(f))

    def test_value_from_non_dominating_block_is_rejected(self):
        """A value defined in one arm of a diamond is not visible in the
        join block — classic CFG dominance, not lexical scoping."""
        f = func.FuncOp.build("bad_dom", [i1()], [])
        cond, = f.arguments
        then_block, else_block, join = Block(), Block(), Block()
        for block in (then_block, else_block, join):
            f.regions[0].add_block(block)
        f.body.append(cf.CondBranchOp.build(
            cond, then_block, (), else_block, ()))
        b = Builder(InsertionPoint.at_end(then_block))
        c1 = b.insert(arith.ConstantOp.build(1, i32()))
        then_block.append(cf.BranchOp.build(join))
        else_block.append(cf.BranchOp.build(join))
        # Illegal: uses %c1 which only dominates along the then-edge.
        store_to = memref.AllocaOp.build(MemRefType((), i32()))
        join.append(store_to)
        join.append(memref.StoreOp.build(c1.result, store_to.results[0]))
        join.append(func.ReturnOp.build())
        with pytest.raises(VerificationError):
            verify(wrap_in_module(f))

    def test_dominating_definition_is_accepted(self):
        """The same shape with the constant hoisted to the entry block
        verifies: the entry dominates every block."""
        f = func.FuncOp.build("good_dom", [i1()], [])
        cond, = f.arguments
        b = Builder(InsertionPoint.at_end(f.body))
        c1 = b.insert(arith.ConstantOp.build(1, i32()))
        alloca = b.insert(memref.AllocaOp.build(MemRefType((), i32())))
        then_block, else_block, join = Block(), Block(), Block()
        for block in (then_block, else_block, join):
            f.regions[0].add_block(block)
        f.body.append(cf.CondBranchOp.build(
            cond, then_block, (), else_block, ()))
        then_block.append(cf.BranchOp.build(join))
        else_block.append(cf.BranchOp.build(join))
        join.append(memref.StoreOp.build(c1.result, alloca.results[0]))
        join.append(func.ReturnOp.build())
        verify(wrap_in_module(f))

    def test_block_dominates(self):
        f = self._diamond()
        entry, then_block, else_block, exit_block = f.regions[0].blocks
        assert block_dominates(entry, exit_block)
        assert block_dominates(entry, then_block)
        assert not block_dominates(then_block, exit_block)
        assert not block_dominates(then_block, else_block)
        assert block_dominates(exit_block, exit_block)


def _build_while_function():
    """``collatz_steps(n)``: iteration count of the Collatz map — a loop
    no ``scf.for`` can express (data-dependent trip count)."""
    f = func.FuncOp.build("collatz_steps", [index()], [index()])
    b = Builder(InsertionPoint.at_end(f.body))
    c0 = b.insert(arith.ConstantOp.build(0, index()))
    loop = b.insert(scf.WhileOp.build([f.arguments[0], c0.result],
                                      [index(), index()]))
    before = Builder(InsertionPoint.at_end(loop.before_block))
    n, steps = loop.before_block.arguments
    c1 = before.insert(arith.ConstantOp.build(1, index()))
    more = before.insert(arith.CmpIOp.build("sgt", n, c1.result))
    before.insert(scf.ConditionOp.build(more.result, [n, steps]))
    after = Builder(InsertionPoint.at_end(loop.after_block))
    n, steps = loop.after_block.arguments
    c1a = after.insert(arith.ConstantOp.build(1, index()))
    c2 = after.insert(arith.ConstantOp.build(2, index()))
    c3 = after.insert(arith.ConstantOp.build(3, index()))
    rem = after.insert(arith.RemSIOp.build(n, c2.result))
    c0a = after.insert(arith.ConstantOp.build(0, index()))
    is_even = after.insert(arith.CmpIOp.build("eq", rem.result, c0a.result))
    if_op = after.insert(scf.IfOp.build(is_even.result, [index()],
                                        with_else=True))
    tb = Builder(InsertionPoint.at_end(if_op.then_block))
    halved = tb.insert(arith.DivSIOp.build(n, c2.result))
    tb.insert(scf.YieldOp.build([halved.result]))
    eb = Builder(InsertionPoint.at_end(if_op.else_block))
    tripled = eb.insert(arith.MulIOp.build(n, c3.result))
    bumped = eb.insert(arith.AddIOp.build(tripled.result, c1a.result))
    eb.insert(scf.YieldOp.build([bumped.result]))
    next_steps = after.insert(arith.AddIOp.build(steps, c1a.result))
    after.insert(scf.YieldOp.build([if_op.results[0],
                                    next_steps.result]))
    b.insert(func.ReturnOp.build([loop.results[1]]))
    return f


class TestJITWhile:
    @pytest.mark.parametrize("n,expected", [(1, 0), (6, 8), (27, 111)])
    def test_jit_matches_interpreter(self, n, expected):
        spec = ExecutionSpec(scalars={"arg0": n})
        runs = {}
        for tier in ("interp", "jit"):
            engine = ExecutionEngine(
                wrap_in_module(_build_while_function()), tier=tier)
            runs[tier] = engine.run("collatz_steps", spec)
        assert runs["jit"].tier == "jit"  # compiled, no fallback
        assert runs["interp"].results == [expected]
        assert runs["jit"].results == runs["interp"].results
        assert runs["jit"].counters == runs["interp"].counters

    def test_while_respects_the_step_budget(self):
        from repro.interp.memory import TrapError

        engine = ExecutionEngine(
            wrap_in_module(_build_while_function()), tier="jit",
            max_steps=50)
        with pytest.raises((TrapError, Exception)) as excinfo:
            engine.run("collatz_steps", ExecutionSpec(scalars={"arg0": 27}))
        assert "step budget" in str(excinfo.value)

    def test_generated_source_shape(self):
        from repro.interp.jit import _Emitter

        source = _Emitter(_build_while_function(), "function").emit()
        filecheck(source, '''
            CHECK: while True:
            CHECK: break
        ''')

    def test_while_differential_under_lowering(self):
        """scf.while also lowers to a CFG and survives differentially."""
        module = wrap_in_module(_build_while_function())
        report = run_differential(
            module, "lower-to-llvm",
            specs={"collatz_steps": ExecutionSpec(scalars={"arg0": 27})})
        assert report.executed == ["collatz_steps"]
        _lower(module)  # run_differential compiles a copy
        assert '"scf.while"' not in print_op(module)
        assert '"cf.cond_br"' in print_op(module)


#: ``B[i] += A[min(2*i + t + 1, 7)]`` for ``t`` in 0..2: an
#: ``affine.apply`` with a coefficient equal to an entry-block constant,
#: a unit and a zero coefficient and an offset, clamped by an
#: ``affine.min``.
AFFINE_INDEX_IR = """\
"builtin.module"() ({
  "func.func"() ({
   ^bb0(%A: memref<?x!sycl_accessor_1_f32_read>, \
%B: memref<?x!sycl_accessor_1_f32_read_write>, %item: memref<?x!sycl_item_1>):
    %d0 = "arith.constant"() {value = 0 : i32} : () -> (i32)
    %c0 = "arith.constant"() {value = 0 : index} : () -> (index)
    %c2 = "arith.constant"() {value = 2 : index} : () -> (index)
    %c3 = "arith.constant"() {value = 3 : index} : () -> (index)
    %c7 = "arith.constant"() {value = 7 : index} : () -> (index)
    %i = "sycl.item.get_id"(%item, %d0) : (memref<?x!sycl_item_1>, i32) \
-> (index)
    %out = "sycl.accessor.subscript"(%B, %i) : \
(memref<?x!sycl_accessor_1_f32_read_write>, index) -> (memref<?xf32>)
    "affine.for"(%c0, %c3) ({
     ^bb0(%t: index):
      %j = "affine.apply"(%i, %t, %c7) {coefficients = [2 : i64, 1 : i64, \
0 : i64], constant = 1 : i64} : (index, index, index) -> (index)
      %k = "affine.min"(%j, %c7) : (index, index) -> (index)
      %in = "sycl.accessor.subscript"(%A, %k) : \
(memref<?x!sycl_accessor_1_f32_read>, index) -> (memref<?xf32>)
      %x = "affine.load"(%in, %c0) : (memref<?xf32>, index) -> (f32)
      %y = "affine.load"(%out, %c0) : (memref<?xf32>, index) -> (f32)
      %z = "arith.addf"(%x, %y) : (f32, f32) -> (f32)
      "affine.store"(%z, %out, %c0) : (f32, memref<?xf32>, index) -> ()
      "affine.yield"() : () -> ()
    }) {step = 1 : i64} : (index, index) -> ()
    "func.return"() : () -> ()
  }) {function_type = (memref<?x!sycl_accessor_1_f32_read>, \
memref<?x!sycl_accessor_1_f32_read_write>, memref<?x!sycl_item_1>) -> (), \
sycl.kernel = unit, sym_name = "gather", sym_visibility = "public"} \
: () -> ()
}) {sym_name = "affine_index"} : () -> ()
"""

AFFINE_INDEX_SPECS = {"gather": ExecutionSpec(
    global_size=(4,), buffers={"A": (8,), "B": (4,)})}


class TestAffineApplyAndMin:
    """``lower-affine``'s ``affine.apply`` / ``affine.min`` path, through
    the whole ``lower-to-llvm`` pipeline."""

    def test_structured_and_lowered_compute_the_same(self):
        structured = parse_module(AFFINE_INDEX_IR)
        lowered = parse_module(AFFINE_INDEX_IR)
        report = build_named_pipeline("lower-to-llvm").run(lowered)
        assert report.get_statistic("lower-affine", "lowered") == 3
        names = [op.name for op in lowered.walk()]
        assert "affine.apply" not in names and "affine.min" not in names
        # One multiply: the unit coefficient adds, the zero one drops.
        assert names.count("llvm.mul") == 1
        assert names.count("llvm.intr.smin") == 1
        runs = {}
        for label, module in (("structured", structured),
                              ("lowered", lowered)):
            for tier in ("interp", "jit"):
                engine = ExecutionEngine(module, tier=tier)
                executions, skipped = engine.execute_module(
                    AFFINE_INDEX_SPECS)
                assert not skipped, skipped
                runs[label, tier] = executions["gather"]
                assert runs[label, tier].tier == tier
        for label in ("structured", "lowered"):
            assert runs[label, "jit"].counters == \
                runs[label, "interp"].counters, label
        reference = runs["structured", "interp"].memory
        for key, run in runs.items():
            assert not memory_differences(run.memory, reference), key

    def test_run_differential_on_both_tiers(self):
        for tier in ("interp", "jit"):
            report = run_differential(parse_module(AFFINE_INDEX_IR),
                                      "lower-to-llvm",
                                      specs=AFFINE_INDEX_SPECS, tier=tier)
            assert report.executed == ["gather"]

    def test_constants_are_reused(self):
        # The coefficient 2 is the entry block's %c2, and the offset 1
        # the constant built for the loop step.
        module = parse_module(AFFINE_INDEX_IR)
        report = build_named_pipeline("lower-to-llvm").run(module)
        assert report.get_statistic("lower-affine", "constants_reused") == 2
        assert _duplicate_entry_constants(module) == []
