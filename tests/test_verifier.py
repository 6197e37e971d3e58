"""Every verifier diagnostic, exercised with and without locations.

The PR-6 verifier reports findings as source-located
:class:`~repro.ir.Diagnostic` objects while keeping the classic
``verify()`` message strings byte-stable.  Each structural invariant gets
a test: per-op ``verify_op`` failures, terminator position, SINGLE_BLOCK
regions and operand dominance (including the attached defining-op note).
"""

import pathlib
import random
import re
import threading

import pytest

from repro.dialects import arith, func, memref, scf, sycl
from repro.ir import (
    Block,
    BlockArgument,
    Builder,
    Diagnostic,
    DiagnosticEngine,
    InsertionPoint,
    IntegerAttr,
    Operation,
    Printer,
    Severity,
    Trait,
    VerificationError,
    has_trait,
    i1,
    i32,
    location_of,
    parse_module,
    verify,
    verify_with_diagnostics,
)
from repro.ir.dominance import block_dominates
from repro.ir.types import MemRefType
from repro.testing.generate import GeneratorConfig, generate_module
from repro.tools.repro_opt import main as repro_opt_main
from repro.transforms import build_named_pipeline

from .helpers import wrap_in_module


def _empty_func(name="f", arg_types=(), arg_names=None):
    return func.FuncOp.build(name, list(arg_types), arg_names=arg_names)


class BadOp(Operation):
    """Test-only op whose per-op verifier always rejects."""

    OPERATION_NAME = "test.bad"

    def verify_op(self):
        raise ValueError("this op is always invalid")


class TestVerifyOpHook:
    def test_failing_verify_op_becomes_diagnostic(self):
        f = _empty_func()
        body = Builder(InsertionPoint.at_end(f.body))
        body.insert(BadOp(operands=(), result_types=()))
        body.insert(func.ReturnOp.build())
        diagnostics = verify_with_diagnostics(f)
        assert len(diagnostics) == 1
        assert diagnostics[0].severity is Severity.ERROR
        assert diagnostics[0].message == "test.bad: this op is always invalid"

    def test_verify_raises_with_diagnostics_attached(self):
        f = _empty_func()
        body = Builder(InsertionPoint.at_end(f.body))
        body.insert(BadOp(operands=(), result_types=()))
        body.insert(func.ReturnOp.build())
        with pytest.raises(VerificationError) as excinfo:
            verify(f)
        assert "test.bad: this op is always invalid" in str(excinfo.value)
        assert len(excinfo.value.diagnostics) == 1

    def test_verify_without_raise_returns_messages(self):
        f = _empty_func()
        body = Builder(InsertionPoint.at_end(f.body))
        body.insert(BadOp(operands=(), result_types=()))
        body.insert(func.ReturnOp.build())
        messages = verify(f, raise_on_error=False)
        assert messages == ["test.bad: this op is always invalid"]


class TestTerminatorPosition:
    def test_terminator_not_last_is_reported(self):
        f = _empty_func()
        body = Builder(InsertionPoint.at_end(f.body))
        body.insert(func.ReturnOp.build())
        body.insert(arith.ConstantOp.build(1, i32()))
        diagnostics = verify_with_diagnostics(f)
        assert any(
            "func.return: terminator must be the last operation" in d.message
            for d in diagnostics)

    def test_terminator_in_last_position_is_clean(self):
        f = _empty_func()
        body = Builder(InsertionPoint.at_end(f.body))
        body.insert(arith.ConstantOp.build(1, i32()))
        body.insert(func.ReturnOp.build())
        assert verify_with_diagnostics(f) == []


class TestSingleBlockRegions:
    def test_extra_block_in_single_block_region_is_reported(self):
        f = _empty_func("g", [i1()], arg_names=["cond"])
        (cond,) = f.arguments
        body = Builder(InsertionPoint.at_end(f.body))
        if_op = body.insert(scf.IfOp.build(cond))
        if_op.then_block.append(scf.YieldOp.build())
        if_op.regions[0].add_block(Block())
        body.insert(func.ReturnOp.build())
        diagnostics = verify_with_diagnostics(f)
        assert any(
            "scf.if: expected a single block per region" in d.message
            for d in diagnostics)


class TestOperandDominance:
    def test_use_before_def_in_same_block(self):
        f = _empty_func()
        body = Builder(InsertionPoint.at_end(f.body))
        c = body.insert(arith.ConstantOp.build(1, i32()))
        add = body.insert(arith.AddIOp.build(c.result, c.result))
        body.insert(func.ReturnOp.build())
        add.move_before(c)
        diagnostics = verify_with_diagnostics(f)
        assert any("does not dominate its use" in d.message
                   for d in diagnostics)

    def test_sibling_region_escape_reports_error_and_note(self):
        # The PR 5 miscompile shape: a pointer materialized inside one arm
        # of an scf.if, used after the scf.if.
        scalar = MemRefType((), i32())
        f = _empty_func("k", [i1(), scalar, i32()],
                        arg_names=["cond", "ptr", "v"])
        cond, ptr, v = f.arguments
        body = Builder(InsertionPoint.at_end(f.body))
        if_op = body.insert(scf.IfOp.build(cond))
        pointer = sycl.SYCLAccessorGetPointerOp.build(ptr)
        if_op.then_block.append(pointer)
        if_op.then_block.append(scf.YieldOp.build())
        zero = body.insert(arith.ConstantOp.build(0, i32()))
        store = body.insert(memref.StoreOp.build(
            v, pointer.result, [zero.result]))
        body.insert(func.ReturnOp.build())
        del store
        diagnostics = verify_with_diagnostics(f)
        dominance = [d for d in diagnostics
                     if "does not dominate its use" in d.message]
        assert len(dominance) == 1
        notes = dominance[0].notes
        assert len(notes) == 1
        assert "sycl.accessor.get_pointer" in notes[0].message

    def test_textual_dominance_violation_carries_location(self):
        text = (
            '"builtin.module"() : () -> () ({\n'
            '  "func.func"() {function_type = (memref<i32>, i32) -> (), '
            'sym_name = "k", sym_visibility = "public"} : () -> () ({\n'
            '   ^bb0(%ptr: memref<i32>, %v: i32):\n'
            '    "memref.store"(%v, %p) : (i32, memref<i32>) -> ()\n'
            '    %p = "sycl.accessor.get_pointer"(%ptr) : '
            '(memref<i32>) -> (memref<i32>)\n'
            '    "func.return"() : () -> ()\n'
            '  })\n'
            '})\n')
        module = parse_module(text, filename="test.mlir")
        diagnostics = verify_with_diagnostics(module)
        located = [d for d in diagnostics
                   if "does not dominate its use" in d.message]
        assert len(located) == 1
        assert located[0].location.describe() == "test.mlir:4:5"
        assert located[0].notes[0].location.describe() == "test.mlir:5:5"


class TestEngineIntegration:
    def test_diagnostics_emitted_into_engine(self):
        f = _empty_func()
        body = Builder(InsertionPoint.at_end(f.body))
        body.insert(BadOp(operands=(), result_types=()))
        body.insert(func.ReturnOp.build())
        engine = DiagnosticEngine()
        with engine.capture() as captured:
            returned = verify_with_diagnostics(f, engine)
        assert captured == returned
        assert engine.error_count == 1

    def test_clean_module_emits_nothing(self):
        module = wrap_in_module(_empty_func_with_return())
        engine = DiagnosticEngine()
        with engine.capture() as captured:
            verify_with_diagnostics(module, engine)
        assert captured == []


def _empty_func_with_return():
    f = _empty_func()
    Builder(InsertionPoint.at_end(f.body)).insert(func.ReturnOp.build())
    return f


# ---------------------------------------------------------------------------
# The scoped operand check against the per-operand ancestor walk
# ---------------------------------------------------------------------------

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _reference_diagnostics(op):
    """The verifier as it was before scoping: every operand takes the
    ancestor walk of :func:`_reference_visible`."""
    diagnostics = []

    def report(target, message):
        diagnostic = Diagnostic(Severity.ERROR, message, location_of(target))
        diagnostics.append(diagnostic)
        return diagnostic

    def verify_op(target):
        try:
            target.verify_op()
        except Exception as exc:  # noqa: BLE001 - collected
            report(target, f"{target.name}: {exc}")
        if has_trait(target, Trait.SINGLE_BLOCK):
            for region in target.regions:
                if len(region.blocks) > 1:
                    report(target, f"{target.name}: expected a single "
                                   f"block per region")
        for region in target.regions:
            for block in region.blocks:
                ops = block.operations
                for index, nested in enumerate(ops):
                    if has_trait(nested, Trait.TERMINATOR) and \
                            index != len(ops) - 1:
                        report(nested, f"{nested.name}: terminator must be "
                                       f"the last operation in its block")
                    for successor in nested.successors:
                        if successor.parent is not block.parent:
                            report(nested, f"{nested.name}: successor block "
                                           f"does not belong to the "
                                           f"enclosing region")
                    for operand in nested.operands:
                        if _reference_visible(operand, nested):
                            continue
                        diagnostic = report(
                            nested, f"{nested.name}: operand {operand!r} "
                                    f"does not dominate its use")
                        defining = operand.defining_op()
                        if defining is not None:
                            diagnostic.attach_note(
                                f"operand defined here by "
                                f"'{defining.name}'", location_of(defining))
                    verify_op(nested)

    verify_op(op)
    return diagnostics


def _reference_visible(value, user):
    owner_block = value.owner_block()
    if owner_block is None:
        return True
    enclosing = []
    block = user.parent
    while block is not None:
        enclosing.append(block)
        parent_op = block.parent_op()
        block = parent_op.parent if parent_op is not None else None
    if owner_block not in enclosing:
        region = owner_block.parent
        if region is not None:
            for candidate in enclosing:
                if candidate.parent is region:
                    return block_dominates(owner_block, candidate)
        return False
    if isinstance(value, BlockArgument):
        return True
    defining = value.defining_op()
    if defining.parent is user.parent:
        return defining.is_before_in_block(user)
    ancestor = user
    while ancestor.parent is not None and \
            ancestor.parent is not defining.parent:
        ancestor = ancestor.parent_op()
        if ancestor is None:
            return True
    if ancestor.parent is defining.parent:
        return defining.is_before_in_block(ancestor)
    return True


def _payloads(diagnostics):
    return [diagnostic.to_payload() for diagnostic in diagnostics]


def _assert_same_diagnostics(module):
    expected = _payloads(_reference_diagnostics(module))
    assert _payloads(verify_with_diagnostics(module)) == expected
    return expected


def _generated(seed):
    return generate_module(GeneratorConfig(num_ops=120, seed=seed,
                                           num_kernels=2,
                                           dead_chain_depth=4))


def _misplace(module, rng, count=6):
    """Move ``count`` random ops before other random ops of the same
    function: uses before definitions, values escaping their region and
    uses from blocks their definitions do not dominate."""
    functions = [op for op in module.walk() if op.name.endswith(".func")
                 and op.regions and op.regions[0].blocks]
    for _ in range(count):
        function = rng.choice(functions)
        ops = [op for op in function.walk(include_self=False)
               if not has_trait(op, Trait.TERMINATOR)]
        mover, target = rng.choice(ops), rng.choice(ops)
        if mover is target or mover.is_ancestor_of(target):
            continue
        mover.move_before(target)


class TestScopedOperandCheck:
    """The in-scope set must give the same diagnostics — messages,
    locations and notes, in order — as the ancestor walk per operand."""

    @pytest.mark.parametrize("path", sorted(
        GOLDEN_DIR.rglob("*.mlir")), ids=lambda path: path.name)
    def test_goldens(self, path):
        module = parse_module(path.read_text(), filename=str(path))
        found = _assert_same_diagnostics(module)
        assert bool(found) == path.name.endswith("_errors.mlir")

    def test_dominance_errors_through_the_cli(self, capsys):
        path = GOLDEN_DIR / "dominance_errors.mlir"
        assert repro_opt_main([str(path), "--verify-diagnostics"]) == 0
        module = parse_module(path.read_text(), filename=str(path))
        assert [len(d.notes) for d in verify_with_diagnostics(module)] \
            == [1, 1, 1]

    @pytest.mark.parametrize("seed", range(31))
    def test_generated_modules(self, seed):
        module = _generated(seed)
        assert _assert_same_diagnostics(module) == []
        build_named_pipeline("lower-to-llvm").run(module)
        assert any(len(region.blocks) > 1 for op in module.walk()
                   for region in op.regions)
        assert _assert_same_diagnostics(module) == []

    @pytest.mark.parametrize("seed", range(31))
    def test_seeded_violations(self, seed):
        rng = random.Random(seed)
        structured = _generated(seed)
        lowered = _generated(seed)
        build_named_pipeline("lower-to-llvm").run(lowered)
        found = 0
        for module in (structured, lowered):
            _misplace(module, rng)
            found += len(_assert_same_diagnostics(module))
        assert found

    def test_each_seeded_shape(self):
        # use before def in one block
        f = _empty_func()
        body = Builder(InsertionPoint.at_end(f.body))
        c = body.insert(arith.ConstantOp.build(1, i32()))
        add = body.insert(arith.AddIOp.build(c.result, c.result))
        body.insert(func.ReturnOp.build())
        add.move_before(c)
        assert len(_assert_same_diagnostics(f)) == 2
        # a value escaping its region into the enclosing block
        f = _empty_func("k", [i1(), i32()])
        cond, v = f.arguments
        body = Builder(InsertionPoint.at_end(f.body))
        if_op = body.insert(scf.IfOp.build(cond))
        inner = arith.AddIOp.build(v, v)
        if_op.then_block.append(inner)
        if_op.then_block.append(scf.YieldOp.build())
        body.insert(arith.AddIOp.build(inner.result, v))
        body.insert(func.ReturnOp.build())
        (escape,) = _assert_same_diagnostics(f)
        assert escape["notes"][0]["message"] == \
            "operand defined here by 'arith.addi'"
        # a CFG use from a block its definition does not dominate
        module = parse_module((GOLDEN_DIR / "dominance_errors.mlir")
                              .read_text())
        assert len(_assert_same_diagnostics(module)) == 3


class TestQueryDimensions:
    """A constant dimension of a SYCL id or range query must lie in
    ``[0, rank)`` of the queried object.  Out of it, ``sycl-mlir`` used
    to die in the Memory Access Analysis with an ``IndexError`` (or, for
    ``-1``, silently label the id ``gid_z``)."""

    def _with_first_dimension(self, tmp_path, dimension):
        from .helpers import build_gemm_module

        module, _ = build_gemm_module(8, 4)
        query = next(op for op in module.walk()
                     if op.name == "sycl.nd_item.get_global_id")
        constant = query.operands[1].defining_op()
        constant.set_attr("value", IntegerAttr(
            dimension, constant.results[0].type))
        path = tmp_path / "gemm.mlir"
        path.write_text(Printer().print_module(module))
        return path

    @pytest.mark.parametrize("dimension", [-7, -1, 2])
    def test_out_of_rank_is_a_located_verifier_error(self, tmp_path, capsys,
                                                      dimension):
        path = self._with_first_dimension(tmp_path, dimension)
        line = next(number for number, text in enumerate(
            path.read_text().splitlines(), 1)
            if "sycl.nd_item.get_global_id" in text)
        assert repro_opt_main([str(path), "--pipeline", "sycl-mlir"]) == 1
        err = capsys.readouterr().err
        assert re.search(
            f"^{re.escape(str(path))}:{line}:\\d+: error: "
            f"sycl.nd_item.get_global_id: constant dimension {dimension} is "
            f"outside \\[0, 2\\) of the queried !sycl_nd_item_2$",
            err, re.MULTILINE), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("dimension", [0, 1])
    def test_in_rank_dimensions_verify(self, tmp_path, capsys, dimension):
        path = self._with_first_dimension(tmp_path, dimension)
        assert repro_opt_main([str(path), "--pipeline", "sycl-mlir"]) == 0

    def test_the_analysis_labels_an_unchecked_dimension_unknown(self):
        from repro.analysis.memory_access import BasisKind, _ExpressionBuilder
        from .helpers import build_gemm_module

        module, _ = build_gemm_module(8, 4)
        query = next(op for op in module.walk()
                     if op.name == "sycl.nd_item.get_global_id")
        constant = query.operands[1].defining_op()
        for dimension, label in ((-1, "gid_?"), (7, "gid_?"), (1, "gid_y")):
            constant.set_attr("value", IntegerAttr(
                dimension, constant.results[0].type))
            assert _ExpressionBuilder._label_for(
                query.results[0], BasisKind.WORK_ITEM) == label


#: A module whose first ``func.return`` (line 3, column 5) is not the
#: last op of its block.
_MISPLACED_TERMINATOR = (
    '"builtin.module"() ({\n'
    '  "func.func"() {function_type = () -> (), sym_name = "f"} '
    ': () -> () ({\n'
    '    "func.return"() : () -> ()\n'
    '    "func.return"() : () -> ()\n'
    '  })\n'
    '}) : () -> ()\n')
_MISPLACED = ("error: func.return: terminator must be the last operation "
              "in its block")


class TestVerificationErrorsAreLocated:
    """Every front door prints a verification failure one diagnostic a
    line, each with the ``file:line:col`` of its op."""

    @pytest.fixture
    def broken(self, tmp_path):
        path = tmp_path / "broken.mlir"
        path.write_text(_MISPLACED_TERMINATOR)
        return str(path)

    def test_render(self):
        with pytest.raises(VerificationError) as info:
            verify(parse_module(_MISPLACED_TERMINATOR, filename="m.mlir"))
        assert info.value.render() == f"m.mlir:3:5: {_MISPLACED}"
        assert VerificationError("bare").render() == "bare"

    def test_repro_opt(self, broken, capsys):
        assert repro_opt_main([broken, "--passes", "cse"]) == 1
        assert capsys.readouterr().err == (
            f"repro-opt: {broken}: verification failed:\n"
            f"{broken}:3:5: {_MISPLACED}\n")

    def test_repro_run(self, broken, capsys):
        from repro.tools import repro_run

        assert repro_run.main([broken, "--entry", "f"]) == 1
        assert capsys.readouterr().err == (
            f"repro-run: verification failed:\n{broken}:3:5: {_MISPLACED}\n")

    def test_repro_lint(self, broken, capsys):
        from repro.tools import repro_lint

        assert repro_lint.main([broken]) == 1
        assert capsys.readouterr().err == (
            f"repro-lint: {broken}: verification failed:\n"
            f"{broken}:3:5: {_MISPLACED}\n")

    def test_repro_served(self):
        from repro.serve import CompileService, ReproServer, ServeClient, \
            ServeError

        server = ReproServer(("127.0.0.1", 0), CompileService())
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        try:
            with ServeClient(host=server.host, port=server.port,
                             timeout=30.0) as client:
                with pytest.raises(ServeError) as compiled:
                    client.compile(_MISPLACED_TERMINATOR, "cse")
                with pytest.raises(ServeError) as executed:
                    client.request("execute", ir=_MISPLACED_TERMINATOR,
                                   entry="f")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        for info in (compiled, executed):
            assert info.value.kind == "verify-error"
            assert str(info.value).endswith(
                f"verification failed:\n<request>:3:5: {_MISPLACED}")
