"""``canonicalize`` folds the ops whose ``fold`` hooks take constant
operands, and the folded module computes what the original did."""

from repro.interp import ExecutionSpec, run_differential
from repro.ir import Printer, parse_module, verify
from repro.transforms import fold_operation, parse_pass_pipeline

_FOLDS = '''
"builtin.module"() ({
  "func.func"() {function_type = (memref<4xf32>, memref<2xindex>) -> (), sym_name = "folds"} : () -> () ({
   ^bb0(%out: memref<4xf32>, %iout: memref<2xindex>):
    %two = "arith.constant"() {value = 2.0 : f32} : () -> (f32)
    %three = "arith.constant"() {value = 3.0 : f32} : () -> (f32)
    %five = "arith.constant"() {value = 5.0 : f32} : () -> (f32)
    %c0 = "arith.constant"() {value = 0 : index} : () -> (index)
    %c1 = "arith.constant"() {value = 1 : index} : () -> (index)
    %c2 = "arith.constant"() {value = 2 : index} : () -> (index)
    %c3 = "arith.constant"() {value = 3 : index} : () -> (index)
    %c4 = "arith.constant"() {value = 4 : index} : () -> (index)
    %c7 = "arith.constant"() {value = 7 : index} : () -> (index)
    %neg = "arith.negf"(%two) : (f32) -> (f32)
    %pow = "math.powf"(%two, %three) : (f32, f32) -> (f32)
    %fma = "math.fma"(%two, %three, %five) : (f32, f32, f32) -> (f32)
    %min = "affine.min"(%c7, %c4, %c7) : (index, index, index) -> (index)
    %wide = "llvm.mlir.constant"() {value = 6 : index} : () -> (index)
    %sum = "arith.addi"(%min, %wide) : (index, index) -> (index)
    "memref.store"(%neg, %out, %c0) : (f32, memref<4xf32>, index) -> ()
    "memref.store"(%pow, %out, %c1) : (f32, memref<4xf32>, index) -> ()
    "memref.store"(%fma, %out, %c2) : (f32, memref<4xf32>, index) -> ()
    "memref.store"(%min, %iout, %c0) : (index, memref<2xindex>, index) -> ()
    "memref.store"(%sum, %iout, %c1) : (index, memref<2xindex>, index) -> ()
    "func.return"() : () -> ()
  })
}) : () -> ()
'''


def _canonicalized():
    module = parse_module(_FOLDS)
    verify(module)
    parse_pass_pipeline("canonicalize").run(module)
    verify(module)
    return module


def _names(module):
    return [op.name for op in module.walk()]


def test_constant_operands_fold_to_constants():
    module = _canonicalized()
    names = _names(module)
    for folded in ("arith.negf", "math.powf", "math.fma", "affine.min"):
        assert folded not in names, folded
    stored = [op.operands[0].defining_op() for op in module.walk()
              if op.name == "memref.store"]
    assert [op.name for op in stored[:4]] == ["arith.constant"] * 4
    assert [op.value for op in stored[:4]] == [-2.0, 8.0, 11.0, 4]


def test_llvm_constant_is_left_in_place():
    """A constant is already folded: ``llvm.mlir.constant`` stays (no
    ``arith.constant`` takes its place in lowered IR), and an op using
    it does not fold."""
    module = _canonicalized()
    names = _names(module)
    assert names.count("llvm.mlir.constant") == 1
    assert "arith.addi" in names
    assert "llvm.mlir.constant" in Printer().print_module(module)


def test_folded_module_computes_the_same_buffers():
    report = run_differential(parse_module(_FOLDS), "canonicalize", specs={
        "folds": ExecutionSpec(buffers={"out": (4,), "iout": (2,)})})
    assert report.executed == ["folds"]


def test_fold_operation_replaces_an_op_outside_a_pass():
    module = parse_module(_FOLDS)
    fma = next(op for op in module.walk() if op.name == "math.fma")
    store, after = next(iter(fma.results[0].users())), fma.next_op()
    assert fold_operation(fma)
    constant = store.operands[0].defining_op()
    assert constant.name == "arith.constant" and constant.value == 11.0
    assert constant.next_op() is after  # in the folded op's place
    verify(module)
