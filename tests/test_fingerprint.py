"""Structural fingerprint tests: stability, sensitivity, cache keys."""

from repro.dialects import arith
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.ir import (
    Printer,
    fingerprint,
    function_fingerprint,
    i64,
    module_fingerprint,
    parse_module,
)

from .helpers import build_listing1_function, wrap_in_module


def _simple_module(name="f", constant=7, hints=("x", "y")):
    module = ModuleOp.build()
    function = FuncOp.build(name, [i64()], arg_names=[hints[0]])
    module.append(function)
    body = function.body
    const = body.append(arith.ConstantOp.build(constant, i64()))
    const.result.name_hint = hints[1]
    body.append(arith.AddIOp.build(function.arguments[0], const.result))
    body.append(ReturnOp.build())
    return module


class TestFingerprintStability:
    def test_deterministic_across_calls(self):
        module = _simple_module()
        assert module_fingerprint(module) == module_fingerprint(module)

    def test_equal_for_structurally_identical_modules(self):
        assert module_fingerprint(_simple_module()) == \
            module_fingerprint(_simple_module())

    def test_name_hints_do_not_participate_structurally(self):
        # %x vs %a: same structure, different SSA spellings.
        a = _simple_module(hints=("x", "y"))
        b = _simple_module(hints=("a", "b"))
        assert Printer().print_module(a) != Printer().print_module(b)
        assert module_fingerprint(a) == module_fingerprint(b)

    def test_cache_key_is_name_sensitive(self):
        # The cache key must distinguish textually different spellings:
        # a hit splices a *printable* result, so structurally equal but
        # differently named inputs sharing a key would rewrite the later
        # segment's SSA names to the cached segment's.
        from repro.transforms.compile_cache import CompileCache

        a = _simple_module(hints=("x", "y"))
        b = _simple_module(hints=("a", "b"))
        c = _simple_module(hints=("x", "y"))
        spec = "builtin.module(func.func(cse))"
        assert CompileCache.key_for(a, spec) != CompileCache.key_for(b, spec)
        assert CompileCache.key_for(a, spec) == CompileCache.key_for(c, spec)

    def test_opt_in_name_hint_hashing(self):
        a = _simple_module(hints=("x", "y"))
        b = _simple_module(hints=("a", "b"))
        assert fingerprint(a, include_name_hints=True) != \
            fingerprint(b, include_name_hints=True)

    def test_survives_print_parse_round_trip(self):
        module = wrap_in_module(build_listing1_function()[0])
        reparsed = parse_module(Printer().print_module(module))
        assert module_fingerprint(module) == module_fingerprint(reparsed)


class TestFingerprintSensitivity:
    def test_attribute_value_changes_hash(self):
        assert module_fingerprint(_simple_module(constant=7)) != \
            module_fingerprint(_simple_module(constant=8))

    def test_symbol_name_changes_hash(self):
        assert module_fingerprint(_simple_module(name="f")) != \
            module_fingerprint(_simple_module(name="g"))

    def test_operation_order_changes_hash(self):
        a = _simple_module()
        b = _simple_module()
        ops = b.regions[0].blocks[0].operations[0].body.operations
        # Swap the constant and the add (still two ops, same multiset).
        ops[0].move_after(ops[1])
        assert module_fingerprint(a) != module_fingerprint(b)

    def test_use_before_def_wiring_changes_hash(self):
        # Regression: with use-before-def encoding order, swapping which
        # def feeds which operand used to produce identical encodings
        # (operands were numbered at first mention and definitions only
        # emitted their types).
        def build(swapped):
            module = ModuleOp.build()
            function = FuncOp.build("f", [i64()])
            module.append(function)
            body = function.body
            d1 = arith.ConstantOp.build(1, i64())
            d2 = arith.ConstantOp.build(2, i64())
            operands = ((d2.result, d1.result) if swapped
                        else (d1.result, d2.result))
            body.append(arith.AddIOp.build(*operands))
            body.append(d1)
            body.append(d2)
            body.append(ReturnOp.build())
            return module

        assert module_fingerprint(build(False)) == \
            module_fingerprint(build(False))
        assert module_fingerprint(build(False)) != \
            module_fingerprint(build(True))

    def test_operand_wiring_changes_hash(self):
        a = _simple_module()
        b = _simple_module()
        add = b.regions[0].blocks[0].operations[0].body.operations[1]
        # Same operand multiset, different wiring: (arg, const) -> (arg, arg).
        add.set_operand(1, add.operands[0])
        assert module_fingerprint(a) != module_fingerprint(b)


class TestFunctionFingerprint:
    def test_ignores_symbol_name_by_default(self):
        fa = _simple_module(name="f").regions[0].blocks[0].operations[0]
        fb = _simple_module(name="g").regions[0].blocks[0].operations[0]
        assert function_fingerprint(fa) == function_fingerprint(fb)
        assert function_fingerprint(fa, ignore_name=False) != \
            function_fingerprint(fb, ignore_name=False)

    def test_ignore_attrs_widens_equivalence(self):
        fa = _simple_module(name="f").regions[0].blocks[0].operations[0]
        fb = _simple_module(name="g").regions[0].blocks[0].operations[0]
        assert fingerprint(fa) != fingerprint(fb)
        assert fingerprint(fa, ignore_attrs=("sym_name",)) == \
            fingerprint(fb, ignore_attrs=("sym_name",))
