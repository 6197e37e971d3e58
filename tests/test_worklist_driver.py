"""The worklist driver must reach the restart-sweep driver's fixed point.

``tests/golden/worklist_fixed_point/*.mlir`` hold the printed IR the
pre-worklist restart-sweep drivers (restart a full sweep after every
change; sweep DCE until nothing is erased) produced for canonicalize +
CSE on the paper-listing modules and on seeded synthetic modules.  The
goldens are that reference's own output, so asserting the worklist
driver prints them checks the same fixed point on the same inputs.  The
file also checks the driver's re-enqueue rules directly.
"""

import warnings
from pathlib import Path

import pytest

from repro.dialects import arith, builtin, memref
from repro.dialects.func import FuncOp, ReturnOp
from repro.ir import (
    EffectKind,
    IndexType,
    IntegerAttr,
    IRError,
    MemoryEffectsInterface,
    MemRefType,
    Operation,
    Printer,
    get_memory_effects,
    i64,
    parse_module,
    verify,
)
from repro.ir.builder import Builder, InsertionPoint
from repro.ir.interfaces import write
from repro.testing.generate import GeneratorConfig, generate_module
from repro.transforms import build_named_pipeline, canonicalize, rewrite
from repro.transforms.canonicalize import CanonicalizePass, DCEPass
from repro.transforms.cse import CSEPass
from repro.transforms.pass_manager import CompileReport, PassManager
from repro.transforms.rewrite import RewritePattern, apply_patterns_greedily

from .helpers import (
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    wrap_in_module,
)

GOLDEN_DIR = Path(__file__).parent / "golden" / "worklist_fixed_point"

LISTING_BUILDERS = {
    "listing1": build_listing1_function,
    "listing2": build_listing2_function,
    "listing3": build_listing3_function,
}


def _print(module) -> str:
    return Printer().print_module(module)


def _golden(name: str) -> str:
    return (GOLDEN_DIR / f"{name}.mlir").read_text()


class TestFixedPointEquivalence:
    @pytest.mark.parametrize("name", sorted(LISTING_BUILDERS))
    def test_canonicalize_cse_matches_legacy_on_listing(self, name):
        module = wrap_in_module(LISTING_BUILDERS[name]()[0])
        PassManager([CanonicalizePass(), CSEPass()]).run(module)
        assert _print(module) == _golden(name)
        verify(module)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_canonicalize_cse_matches_legacy_on_synthetic(self, seed):
        config = GeneratorConfig(num_ops=150, nesting_depth=1,
                                 dead_chain_depth=16, num_kernels=1,
                                 seed=seed)
        module = generate_module(config)
        PassManager([CanonicalizePass(), CSEPass()]).run(module)
        assert _print(module) == _golden(f"synthetic_seed{seed}")
        verify(module)

    @pytest.mark.parametrize("name", sorted(LISTING_BUILDERS))
    def test_roundtrip_still_exact_after_canonicalize(self, name):
        module = wrap_in_module(LISTING_BUILDERS[name]()[0])
        PassManager([CanonicalizePass(), CSEPass()]).run(module)
        text = _print(module)
        assert _print(parse_module(text)) == text


class _RecordingPattern(RewritePattern):
    """Counts how often each op (by its 'tag' attribute) is visited."""

    ROOT_OP = "arith.addi"

    def __init__(self):
        self.visits = []

    def match_and_rewrite(self, op, rewriter):
        self.visits.append(op.get_int_attr("tag", -1))
        return False


class _FoldAddPattern(RewritePattern):
    """Folds addi-of-constants through the rewriter (driver-visible)."""

    ROOT_OP = "arith.addi"

    def match_and_rewrite(self, op, rewriter):
        lhs = arith.constant_value_of(op.operands[0])
        rhs = arith.constant_value_of(op.operands[1])
        if lhs is None or rhs is None:
            return False
        constant = rewriter.insert(
            arith.ConstantOp.build(lhs + rhs, op.results[0].type))
        rewriter.replace_op(op, [constant.result])
        return True


class TestReenqueueRules:
    def test_replacement_cascades_to_users_in_one_call(self):
        # c1 + c2 feeds another add with c3: folding the first makes the
        # second foldable only after the driver re-enqueues the user.
        module = builtin.ModuleOp.build()
        c1 = module.append(arith.ConstantOp.build(1, i64()))
        c2 = module.append(arith.ConstantOp.build(2, i64()))
        c3 = module.append(arith.ConstantOp.build(4, i64()))
        first = module.append(arith.AddIOp.build(c1.result, c2.result))
        second = module.append(arith.AddIOp.build(first.result, c3.result))
        changed = apply_patterns_greedily(module, [_FoldAddPattern()])
        assert changed
        values = [op.get_int_attr("value") for op in module.body
                  if isinstance(op, arith.ConstantOp)]
        assert 7 in values  # the chained fold happened in a single call
        assert second.parent is None

    def test_only_pattern_roots_are_visited(self):
        module = builtin.ModuleOp.build()
        c = module.append(arith.ConstantOp.build(1, i64()))
        add = module.append(arith.AddIOp.build(c.result, c.result))
        add.set_attr("tag", IntegerAttr(5, i64()))
        module.append(arith.MulIOp.build(c.result, c.result))
        recorder = _RecordingPattern()
        apply_patterns_greedily(module, [recorder])
        assert recorder.visits == [5]  # muli and constants never dispatched

    def test_prune_dead_erases_chains_during_drain(self):
        module = builtin.ModuleOp.build()
        c = module.append(arith.ConstantOp.build(1, i64()))
        current = c.result
        links = []
        for _ in range(10):
            link = module.append(arith.AddIOp.build(current, c.result))
            links.append(link)
            current = link.result
        from repro.transforms.canonicalize import _is_trivially_dead

        changed = apply_patterns_greedily(
            module, [], prune_dead=_is_trivially_dead)
        assert changed
        assert all(link.parent is None for link in links)
        assert c.parent is None  # the seed constant dies with the chain

    def test_update_operand_reenqueues_dropped_producer(self):
        # Redirecting an operand away from %c1 must get %c1's producer
        # revisited so prune_dead collects it in the same drain.
        from repro.dialects import memref as memref_dialect
        from repro.ir import memref as memref_type
        from repro.transforms.canonicalize import _is_trivially_dead

        module = builtin.ModuleOp.build()
        c1 = module.append(arith.ConstantOp.build(1, i64()))
        c2 = module.append(arith.ConstantOp.build(2, i64()))
        add = module.append(arith.AddIOp.build(c1.result, c1.result))
        mul = module.append(arith.MulIOp.build(add.results[0], c2.result))
        # Anchor the chain so only c1 can die, and only via the
        # update_operand notification.
        cell = module.append(memref_dialect.AllocOp.build(
            memref_type((), i64())))
        module.append(memref_dialect.StoreOp.build(
            mul.results[0], cell.results[0]))

        class _Redirect(RewritePattern):
            ROOT_OP = "arith.addi"

            def match_and_rewrite(self, op, rewriter):
                if op.operands[0] is c1.result:
                    rewriter.update_operand(op, 0, c2.result)
                    rewriter.update_operand(op, 1, c2.result)
                    return True
                return False

        apply_patterns_greedily(module, [_Redirect()],
                                prune_dead=_is_trivially_dead)
        assert not c1.result.has_uses()
        assert c1.parent is None  # dropped producer collected in the drain
        assert add.operands[0] is c2.result

    def test_erasing_region_op_reenqueues_outside_producers(self):
        # %sum is used only inside a loop body; a pattern erasing the loop
        # must get %sum's producer re-enqueued so prune_dead collects it
        # in the same drain.
        from repro.dialects import scf
        from repro.ir import index
        from repro.transforms.canonicalize import _is_trivially_dead

        module = builtin.ModuleOp.build()
        c0 = module.append(arith.ConstantOp.build(0, index()))
        c8 = module.append(arith.ConstantOp.build(8, index()))
        c1 = module.append(arith.ConstantOp.build(1, i64()))
        summed = module.append(arith.AddIOp.build(c1.result, c1.result))
        loop = module.append(scf.ForOp.build(
            c0.result, c8.result,
            module.append(arith.ConstantOp.build(1, index())).result))
        loop.body.append(arith.MulIOp.build(summed.result, summed.result))
        loop.body.append(scf.YieldOp.build())

        class _EraseLoop(RewritePattern):
            ROOT_OP = "scf.for"

            def match_and_rewrite(self, op, rewriter):
                rewriter.erase_op(op)
                return True

        apply_patterns_greedily(module, [_EraseLoop()],
                                prune_dead=_is_trivially_dead)
        assert loop.parent is None
        assert summed.parent is None  # collected in the same drain
        assert c1.parent is None

    def test_insert_after_replacing_root_keeps_position(self):
        # A pattern may replace its root and then insert more ops; the
        # rewriter's insertion point must not dangle on the erased root.
        module = builtin.ModuleOp.build()
        c = module.append(arith.ConstantOp.build(3, i64()))
        module.append(arith.AddIOp.build(c.result, c.result))

        class _ReplaceThenInsert(RewritePattern):
            ROOT_OP = "arith.addi"

            def match_and_rewrite(self, op, rewriter):
                rewriter.replace_op(op, [op.operands[0]])
                rewriter.insert(arith.ConstantOp.build(99, i64()))
                return True

        changed = apply_patterns_greedily(module, [_ReplaceThenInsert()])
        assert changed
        values = [op.get_int_attr("value") for op in module.body]
        assert values == [3, 99]  # inserted at the replaced op's position

    def test_cse_keeps_negative_zero_distinct(self):
        from repro.ir import f32
        from repro.transforms.cse import CSEPass
        from repro.dialects import func as func_dialect

        f = func_dialect.FuncOp.build("z", [])
        pos = f.body.append(arith.ConstantOp.build(0.0, f32()))
        neg = f.body.append(arith.ConstantOp.build(-0.0, f32()))
        dup = f.body.append(arith.ConstantOp.build(-0.0, f32()))
        f.body.append(func_dialect.ReturnOp.build())
        module = builtin.ModuleOp.build()
        module.append(f)
        PassManager([CSEPass()]).run(module)
        # -0.0 must not merge into 0.0 (IEEE-754), but the -0.0 duplicate
        # must still CSE.
        assert pos.parent is not None
        assert neg.parent is not None
        assert dup.parent is None

    def test_matches_restart_sweep_driver_fixed_point(self):
        def build():
            module = builtin.ModuleOp.build()
            c1 = module.append(arith.ConstantOp.build(3, i64()))
            c2 = module.append(arith.ConstantOp.build(4, i64()))
            add = module.append(arith.AddIOp.build(c1.result, c2.result))
            module.append(arith.AddIOp.build(add.results[0], c2.result))
            return module

        # The restart-sweep driver's output on this module.
        expected = (
            '"builtin.module"() ({\n'
            '  %0 = "arith.constant"() {value = 3 : i64} : () -> (i64)\n'
            '  %1 = "arith.constant"() {value = 4 : i64} : () -> (i64)\n'
            '  %2 = "arith.constant"() {value = 7 : i64} : () -> (i64)\n'
            '  %3 = "arith.constant"() {value = 11 : i64} : () -> (i64)\n'
            '}) : () -> ()')
        module = build()
        apply_patterns_greedily(module, [_FoldAddPattern()])
        assert _print(module) == expected


# ---------------------------------------------------------------------------
# Write-only allocations: seed walk + feeders vs. re-walking the function
# ---------------------------------------------------------------------------

def _reference_group(op):
    """``op``'s writers and ``op`` when it is a write-only allocation."""
    if not op.results or not isinstance(op, MemoryEffectsInterface):
        return []
    effects = get_memory_effects(op)
    if not effects or any(e.kind != EffectKind.ALLOCATE for e in effects):
        return []
    allocation = op.results[0]
    writers = allocation.users()
    if not writers:
        return []
    for user in writers:
        effects = get_memory_effects(user)
        if user.has_uses() or effects is None or any(
                (e.kind == EffectKind.READ and e.value is allocation)
                or (e.kind == EffectKind.WRITE and e.value is not allocation)
                for e in effects):
            return []
    return writers + [op]


def _reference_cleanup(root):
    """Sweep the whole function, erasing dead ops and write-only groups,
    until a sweep erases nothing."""
    erased = 0
    while True:
        before = erased
        for op in list(root.walk(include_self=False)):
            if op.parent is None:
                continue
            group = [op] if canonicalize._is_trivially_dead(op) \
                else _reference_group(op)
            for dead in group:
                dead.erase()
            erased += len(group)
        if erased == before:
            return erased


def _walking_canonicalize(self, function, report):
    erased = [0]

    def prune(op):
        if canonicalize._is_trivially_dead(op):
            erased[0] += 1
            return True
        return False

    apply_patterns_greedily(
        function, [canonicalize._CanonicalizePattern(report, self.NAME)],
        max_iterations=self.options.max_iterations,
        prune_dead=prune if self.options.prune_dead else None)
    if self.options.prune_dead:
        total = erased[0] + _reference_cleanup(function)
        if total:
            report.add_statistic(self.NAME, "dead_ops_erased", total)


def _walking_dce(self, function, report):
    erased = _reference_cleanup(function)
    if erased:
        report.add_statistic(self.NAME, "dead_ops_erased", erased)


def _cleanup_inputs():
    from .test_late_lowering import _all_inputs

    inputs = {label: module for label, (module, _) in _all_inputs().items()}
    for seed in range(6):
        inputs[f"generated{seed}"] = generate_module(GeneratorConfig(
            num_ops=200, nesting_depth=2, dead_chain_depth=8, num_kernels=2,
            seed=seed))
    return inputs


class _WriteAndReturn(Operation, MemoryEffectsInterface):
    """Test-only op that writes its operand and returns a value."""

    OPERATION_NAME = "test.write_and_return"

    def memory_effects(self):
        return [write(self.operands[0])]


def _group_behind_a_used_writer():
    """``%a`` is written by an op whose result feeds the only writer of
    ``%b``: ``%b``'s group goes first, and only then is ``%a``'s."""
    function = FuncOp.build("f", [])
    body = Builder(InsertionPoint.at_end(function.body))
    b = body.insert(memref.AllocaOp.build(MemRefType((), IndexType())))
    a = body.insert(memref.AllocaOp.build(MemRefType((), i64())))
    value = body.insert(_WriteAndReturn(operands=(a.result,),
                                        result_types=(IndexType(),)))
    body.insert(memref.StoreOp.build(value.result, b.result, []))
    body.insert(ReturnOp.build())
    return wrap_in_module(function)


class TestCleanupWithoutRewalks:
    @pytest.mark.parametrize("pipeline", ["sycl-mlir", "dpcpp",
                                          "adaptivecpp-jit"])
    def test_same_ir_and_statistics_as_rewalking(self, pipeline,
                                                 monkeypatch):
        inputs = _cleanup_inputs()
        outputs = {}
        for side in ("seeded", "rewalked"):
            if side == "rewalked":
                monkeypatch.setattr(CanonicalizePass, "run_on_function",
                                    _walking_canonicalize)
                monkeypatch.setattr(DCEPass, "run_on_function", _walking_dce)
            for label, module in inputs.items():
                clone = module.clone({})
                report = CompileReport()
                build_named_pipeline(pipeline).run(clone, report=report)
                stats = sorted((s.pass_name, s.name, s.value)
                               for s in report.statistics)
                outputs[side, label] = (_print(clone), stats)
        for label in inputs:
            seeded, rewalked = outputs["seeded", label], outputs["rewalked",
                                                                 label]
            assert seeded[0] == rewalked[0], label
            assert seeded[1] == rewalked[1], label

    @pytest.mark.parametrize("cleanup", ["canonicalize", "dce"])
    def test_a_group_freed_by_another_group(self, cleanup):
        module = _group_behind_a_used_writer()
        report = CompileReport()
        PassManager([CanonicalizePass() if cleanup == "canonicalize"
                     else DCEPass()]).run(module, report=report)
        assert report.get_statistic(cleanup, "dead_ops_erased") == 4
        assert [op.name for op in module.walk()] == [
            "builtin.module", "func.func", "func.return"]


# ---------------------------------------------------------------------------
# The inlined driver loop vs. the loop before it
# ---------------------------------------------------------------------------

class _ReferenceWorklist:
    """The worklist before the driver popped inline: keyed by ``id``."""

    def __init__(self):
        self._stack = []
        self._live = {}

    def push(self, op):
        if id(op) not in self._live:
            self._live[id(op)] = op
            self._stack.append(op)

    def pop(self):
        while self._stack:
            op = self._stack.pop()
            if self._live.pop(id(op), None) is not None:
                return op
        return None

    def remove(self, op):
        self._live.pop(id(op), None)


def _reference_apply_patterns_greedily(
        root, patterns, max_iterations=rewrite.MAX_PATTERN_ITERATIONS,
        on_nonconvergence="warn", prune_dead=None, seed=None):
    """``apply_patterns_greedily`` before the bulk seed, the inline pops,
    the ``prune_dead`` contract and the per-class pattern filter: every
    popped op is offered to ``prune_dead`` and dispatched to the patterns
    its name selects."""
    if on_nonconvergence not in ("warn", "error"):
        raise ValueError(on_nonconvergence)
    pattern_list = list(patterns)
    driver = rewrite._WorklistDriver(pattern_list)
    driver.worklist = _ReferenceWorklist()
    if seed is None:
        seed = list(root.walk(include_self=False))
    for op in reversed(seed):
        driver.worklist.push(op)
    max_rewrites = max(1, len(seed)) * max_iterations
    rewriter = rewrite.PatternRewriter(driver)
    point = None
    changed_any = False
    num_rewrites = 0
    converged = True
    while True:
        op = driver.worklist.pop()
        if op is None:
            break
        if op.parent is None:
            continue
        if prune_dead is not None and prune_dead(op):
            driver.notify_erasing(op)
            op.erase()
            changed_any = True
            continue
        candidates = [pattern for pattern in pattern_list
                      if pattern.ROOT_OP in (None, op.name)]
        if not candidates:
            continue
        if point is None:
            point = InsertionPoint.before(op)
        else:
            point.move_before(op)
        rewriter.insertion_point = point
        for pattern in candidates:
            try:
                applied = pattern.match_and_rewrite(op, rewriter)
            except IRError:
                applied = False
            if applied:
                changed_any = True
                num_rewrites += 1
                if op.parent is not None:
                    driver.push_root_and_users(op)
                break
        if num_rewrites > max_rewrites:
            converged = False
            break
    if not converged:
        names = ", ".join(sorted({type(p).__name__ for p in pattern_list}))
        message = (
            f"greedy pattern application on '{root.name}' did not converge "
            f"within {max_rewrites} rewrites ({max_iterations} per "
            f"initially-seeded op); the IR may not be fully "
            f"normalized (patterns: {names})")
        if on_nonconvergence == "error":
            raise IRError(message)
        warnings.warn(message, rewrite.NonConvergenceWarning, stacklevel=2)
    return changed_any


def _driver_inputs():
    """``label -> module builder``: the worklist_fixed_point inputs, the
    goldens and generated modules with seeds 0-30."""
    inputs = {name: lambda build=build: wrap_in_module(build()[0])
              for name, build in LISTING_BUILDERS.items()}
    for seed in range(3):
        inputs[f"synthetic_seed{seed}"] = lambda seed=seed: generate_module(
            GeneratorConfig(num_ops=150, nesting_depth=1,
                            dead_chain_depth=16, num_kernels=1, seed=seed))
    for path in sorted(GOLDEN_DIR.parent.glob("*.mlir")):
        if not path.name.endswith("_errors.mlir"):
            inputs[path.name] = lambda path=path: parse_module(
                path.read_text())
    for seed in range(31):
        inputs[f"generated{seed}"] = lambda seed=seed: generate_module(
            GeneratorConfig(num_ops=200, nesting_depth=2,
                            dead_chain_depth=8, num_kernels=2, seed=seed))
    return inputs


DRIVER_INPUTS = _driver_inputs()


def _through(driver, monkeypatch, module, manager):
    """``(printed IR, statistics, warnings)`` of ``manager`` on
    ``module`` with canonicalize driven by ``driver``."""
    monkeypatch.setattr(canonicalize, "apply_patterns_greedily", driver)
    report = CompileReport()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        manager.run(module, report=report)
    stats = sorted((s.pass_name, s.name, s.value) for s in report.statistics)
    return (_print(module), stats,
            [(w.category, str(w.message)) for w in caught])


class TestSameFixedPointAsTheReferenceLoop:
    @pytest.mark.parametrize("label", sorted(DRIVER_INPUTS))
    @pytest.mark.parametrize("passes", ["canonicalize", "canonicalize,cse",
                                        "sycl-mlir"])
    def test_same_ir_statistics_and_warnings(self, label, passes,
                                             monkeypatch):
        def manager():
            if passes == "sycl-mlir":
                return build_named_pipeline(passes)
            return PassManager([CanonicalizePass()] + (
                [CSEPass()] if passes.endswith("cse") else []))

        build = DRIVER_INPUTS[label]
        expected = _through(_reference_apply_patterns_greedily, monkeypatch,
                            build(), manager())
        actual = _through(apply_patterns_greedily, monkeypatch, build(),
                          manager())
        assert actual == expected
        if passes == "canonicalize,cse" and \
                (GOLDEN_DIR / f"{label}.mlir").exists():
            assert actual[0] == _golden(label)

    @pytest.mark.parametrize("label", ["synthetic_seed1", "generated4",
                                       "generated15"])
    def test_same_nonconvergence(self, label, monkeypatch):
        # No rewrite budget: both drivers give up after their first
        # rewrite, with the same warning and the same partial IR.
        manager = PassManager([CanonicalizePass(max_iterations=0)])
        build = DRIVER_INPUTS[label]
        expected = _through(_reference_apply_patterns_greedily, monkeypatch,
                            build(), manager)
        actual = _through(apply_patterns_greedily, monkeypatch, build(),
                          manager)
        assert actual == expected
        assert actual[2] and all(category is rewrite.NonConvergenceWarning
                                 for category, _ in actual[2])

    @pytest.mark.parametrize("on_nonconvergence", ["warn", "error"])
    def test_same_nonconvergence_of_ping_pong_patterns(self,
                                                       on_nonconvergence):
        from .test_rewrite_convergence import (
            _ClearFlag,
            _module_with_constant,
            _SetFlag,
        )

        outcomes = []
        for driver in (_reference_apply_patterns_greedily,
                       apply_patterns_greedily):
            module = _module_with_constant()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    result = driver(module, [_SetFlag(), _ClearFlag()],
                                    max_iterations=3,
                                    on_nonconvergence=on_nonconvergence)
                except IRError as error:
                    result = f"IRError: {error}"
            outcomes.append((result, _print(module),
                             [str(w.message) for w in caught]))
        assert outcomes[0] == outcomes[1]
        assert "did not converge" in str(outcomes[1])
