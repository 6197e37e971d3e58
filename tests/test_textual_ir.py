"""Round-trip and driver tests for the textual IR parser and `repro-opt`.

The tentpole property: for every module ``m`` built programmatically,
``print(parse(print(m))) == print(m)`` — the printer/parser pair is a
verified serialization layer, and textual test cases can drive every
registered transform through the ``repro-opt`` pipeline driver.
"""

import pytest

from repro.dialects import arith, builtin, func
from repro.ir import (
    ArrayAttr,
    DictAttr,
    FloatAttr,
    IntegerAttr,
    ParseError,
    Printer,
    StringAttr,
    SymbolRefAttr,
    TypeAttr,
    UnitAttr,
    f32,
    function_type,
    i32,
    i64,
    parse_module,
    parse_type,
    verify,
)
from repro.tools.repro_opt import main as repro_opt_main
from repro.transforms.pipelines import available_passes, parse_pass_pipeline

from .filecheck import FileCheckError, filecheck
from .helpers import (
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    wrap_in_module,
)


def _roundtrip(module):
    text = Printer().print_module(module)
    reparsed = parse_module(text)
    return text, reparsed, Printer().print_module(reparsed)


LISTING_BUILDERS = {
    "listing1": build_listing1_function,
    "listing2": build_listing2_function,
    "listing3": build_listing3_function,
}


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(LISTING_BUILDERS))
    def test_listing_roundtrips_exactly(self, name):
        function, _ = LISTING_BUILDERS[name]()
        text, reparsed, reprinted = _roundtrip(wrap_in_module(function))
        assert reprinted == text
        verify(reparsed)

    def test_combined_module_roundtrips_exactly(self):
        functions = [builder()[0] for builder in LISTING_BUILDERS.values()]
        text, reparsed, reprinted = _roundtrip(wrap_in_module(*functions))
        assert reprinted == text
        verify(reparsed)

    def test_roundtrip_is_idempotent(self):
        function, _ = build_listing3_function()
        text, reparsed, reprinted = _roundtrip(wrap_in_module(function))
        assert Printer().print_module(parse_module(reprinted)) == text

    def test_parsed_ops_have_registered_classes(self):
        function, _ = build_listing1_function()
        text = Printer().print_module(wrap_in_module(function))
        reparsed = parse_module(text)
        assert isinstance(reparsed, builtin.ModuleOp)
        inner = reparsed.lookup_symbol("foo")
        assert isinstance(inner, func.FuncOp)
        assert inner.arguments[0].name_hint == "cond"

    def test_attribute_kinds_roundtrip(self):
        module = builtin.ModuleOp.build("attrs")
        op = arith.ConstantOp.build(7, i64())
        op.set_attr("fval", FloatAttr(2.5, f32()))
        op.set_attr("tag", StringAttr("hello"))
        op.set_attr("sym", SymbolRefAttr("kernels", ("K1",)))
        op.set_attr("marker", UnitAttr())
        op.set_attr("arr", ArrayAttr((IntegerAttr(1, i64()),
                                      IntegerAttr(2, i64()))))
        op.set_attr("cfg", DictAttr((("a", IntegerAttr(3, i64())),
                                     ("b", StringAttr("x")))))
        op.set_attr("ft", TypeAttr(function_type([i32()], [i32()])))
        module.append(op)
        text, _, reprinted = _roundtrip(module)
        assert reprinted == text

    def test_dense_elements_roundtrip_losslessly(self):
        from repro.dialects import memref as memref_dialect
        from repro.ir import DenseElementsAttr, MemRefType, f64

        module = builtin.ModuleOp.build("g")
        init = DenseElementsAttr(tuple(range(16)), (4, 4), i64())
        module.append(memref_dialect.GlobalOp.build(
            "filter", MemRefType((4, 4), i64()), initial_value=init))
        scalarish = DenseElementsAttr((1.5, 2.5, 3.5, 4.5), (2, 2), f64())
        module.append(memref_dialect.GlobalOp.build(
            "weights", MemRefType((2, 2), f64()), initial_value=scalarish))
        text, reparsed, reprinted = _roundtrip(module)
        assert reprinted == text
        parsed_init = reparsed.regions[0].front.operations[0] \
            .attributes["initial_value"]
        assert parsed_init == init  # full data, shape and element type
        parsed_weights = reparsed.regions[0].front.operations[1] \
            .attributes["initial_value"]
        assert parsed_weights == scalarish

    def test_string_attrs_with_special_characters_roundtrip(self):
        module = builtin.ModuleOp.build()
        op = arith.ConstantOp.build(1, i64())
        op.set_attr("note", StringAttr('say "hi"\nback\\slash\ttab'))
        module.append(op)
        text, reparsed, reprinted = _roundtrip(module)
        assert reprinted == text
        parsed = reparsed.regions[0].front.operations[0]
        assert parsed.get_str_attr("note") == 'say "hi"\nback\\slash\ttab'

    def test_non_finite_floats_roundtrip(self):
        import math

        from repro.ir import parse_attribute

        for value in (float("inf"), float("-inf"), float("nan")):
            attr = parse_attribute(str(FloatAttr(value, f32())))
            assert isinstance(attr, FloatAttr)
            if math.isnan(value):
                assert math.isnan(attr.value)
            else:
                assert attr.value == value

    def test_truncated_dense_attr_is_rejected(self):
        with pytest.raises(ParseError, match="truncation marker"):
            parse_module(
                '"builtin.module"() {v = dense<[1, 2, ...] : 3xi64>} '
                ': () -> () ({ })')

    @pytest.mark.parametrize("offsets, surviving", [
        ((0, 8), 2),   # distinct offsets: must NOT merge after parsing
        ((0, 0), 1),   # identical offsets: must still merge
    ])
    def test_gep_offsets_survive_roundtrip_and_cse(self, offsets, surviving):
        from repro.dialects import llvm
        from repro.ir import PointerType
        from repro.transforms import CSEPass
        from repro.transforms.pass_manager import CompileReport

        # Use func.func: CSE (a FunctionPass) only visits FuncOp bodies.
        module = builtin.ModuleOp.build()
        f = func.FuncOp.build("f", [PointerType()], arg_names=["p"])
        base = f.arguments[0]
        geps = [llvm.LLVMGEPOp.build(base, static_offsets=[o])
                for o in offsets]
        for gep in geps:
            f.body.append(gep)
        f.body.append(llvm.LLVMCallOp.build(
            "use", [g.result for g in geps]))
        f.body.append(func.ReturnOp.build())
        module.append(f)
        text, reparsed, reprinted = _roundtrip(module)
        assert reprinted == text
        CSEPass().run(reparsed, CompileReport())
        parsed_geps = [op for op in reparsed.lookup_symbol("f").body
                       if op.name == "llvm.getelementptr"]
        assert len(parsed_geps) == surviving
        assert sorted(g.static_offsets for g in parsed_geps) == \
            sorted([o] for o in set(offsets))

    def test_affine_apply_folds_after_roundtrip(self):
        from repro.dialects import affine
        from repro.ir import index

        module = builtin.ModuleOp.build()
        f = func.FuncOp.build("f", [])
        c3 = arith.ConstantOp.build(3, index())
        f.body.append(c3)
        apply = affine.AffineApplyOp.build([2], [c3.result], constant=1)
        f.body.append(apply)
        f.body.append(func.ReturnOp.build())
        module.append(f)
        text, reparsed, reprinted = _roundtrip(module)
        assert reprinted == text
        parsed_apply = reparsed.lookup_symbol("f").body.operations[1]
        assert parsed_apply.coefficients == [2]
        folded = parsed_apply.fold()
        assert folded is not None and folded[0].value == 7  # 2*3 + 1

    def test_successors_roundtrip(self):
        text = (
            '"test.graph"() ({\n'
            ' ^bb0():\n'
            '  "test.br"()[^bb2] : () -> ()\n'
            ' ^bb1():\n'
            '  "test.br"()[^bb0, ^bb2] : () -> ()\n'
            ' ^bb2():\n'
            '  "test.done"() : () -> ()\n'
            '}) : () -> ()')
        op = parse_module(text, allow_unregistered=True)
        region = op.regions[0]
        branch = region.blocks[0].operations[0]
        assert branch.successors == [region.blocks[2]]
        fanout = region.blocks[1].operations[0]
        assert fanout.successors == [region.blocks[0], region.blocks[2]]
        assert Printer().print_module(op) == text

    def test_comments_and_whitespace_are_ignored(self):
        text = (
            '// a textual test case\n'
            '"builtin.module"() : () -> () ({\n'
            '  %c = "arith.constant"() {value = 4 : i64}\n'
            '       : () -> (i64)  // trailing comment\n'
            '})')
        module = parse_module(text)
        constant = module.regions[0].front.operations[0]
        assert isinstance(constant, arith.ConstantOp)
        assert constant.value == 4


class TestTypeParsing:
    @pytest.mark.parametrize("spelling", [
        "i1", "i32", "f64", "index", "none",
        "memref<i32>", "memref<10xi64>", "memref<2x3xf32>",
        "memref<?xf32, local>", "vector<4xi32>",
        "!llvm.ptr", "!llvm.ptr<i32>",
        "!sycl_id_3", "!sycl_nd_item_2", "!sycl_queue",
        "!sycl_accessor_3_f32_read_write",
        "!sycl_accessor_1_i32_read_write_local",
        "!sycl_buffer_2_f64",
        "!sycl_buffer_1_memref<4xf32>",
        "!sycl_accessor_1_vector<4xf32>_read_write",
        "!sycl_accessor_2_memref<?xi32, local>_read_local",
        "!sycl_accessor_1_!sycl_id_2_read",
        "!sycl_buffer_1_!llvm.ptr",
        "(i1, i32) -> (f32)",
    ])
    def test_type_spelling_roundtrips(self, spelling):
        assert str(parse_type(spelling)) == spelling

    def test_unknown_type_is_an_error(self):
        with pytest.raises(ParseError, match="unknown type"):
            parse_type("i32x")

    def test_unknown_dialect_type_is_an_error(self):
        with pytest.raises(ParseError, match="no type parser registered"):
            parse_type("!spirv_thing")

    def test_unknown_sycl_type_is_an_error(self):
        with pytest.raises(ParseError, match="cannot parse type"):
            parse_type("!sycl_gizmo_3")


class TestParserErrors:
    def test_unknown_operation(self):
        with pytest.raises(ParseError, match="unknown operation 'foo.bar'"):
            parse_module('"foo.bar"() : () -> ()')

    def test_unknown_operation_suggests_close_match(self):
        with pytest.raises(ParseError, match="did you mean 'arith.addi'"):
            parse_module('"arith.addi_"() : () -> ()')

    def test_operand_type_mismatch(self):
        text = (
            '"builtin.module"() : () -> () ({\n'
            '  %0 = "arith.constant"() {value = 1 : i32} : () -> (i32)\n'
            '  "func.return"(%0) : (i64) -> ()\n'
            '})')
        with pytest.raises(ParseError, match="type mismatch for operand %0"):
            parse_module(text)

    def test_operand_count_mismatch(self):
        text = (
            '"builtin.module"() : () -> () ({\n'
            '  %0 = "arith.constant"() {value = 1 : i64} : () -> (i64)\n'
            '  "func.return"(%0) : () -> ()\n'
            '})')
        with pytest.raises(ParseError, match="1 operands .* 0 operand types"):
            parse_module(text)

    def test_result_count_mismatch(self):
        text = ('"builtin.module"() : () -> () ({\n'
                '  %0, %1 = "arith.constant"() {value = 1 : i64} '
                ': () -> (i64)\n'
                '})')
        with pytest.raises(ParseError, match="binds 2 results"):
            parse_module(text)

    def test_unbalanced_region(self):
        text = ('"builtin.module"() : () -> () ({\n'
                '  %0 = "arith.constant"() {value = 1 : i64} : () -> (i64)\n')
        with pytest.raises(ParseError, match="unbalanced region"):
            parse_module(text)

    def test_use_of_undefined_value(self):
        text = ('"builtin.module"() : () -> () ({\n'
                '  "func.return"(%x) : (i32) -> ()\n'
                '})')
        with pytest.raises(ParseError, match="use of undefined value %x"):
            parse_module(text)

    def test_value_redefinition(self):
        text = ('"builtin.module"() : () -> () ({\n'
                '  %0 = "arith.constant"() {value = 1 : i64} : () -> (i64)\n'
                '  %0 = "arith.constant"() {value = 2 : i64} : () -> (i64)\n'
                '})')
        with pytest.raises(ParseError, match="redefinition of value %0"):
            parse_module(text)

    def test_isolated_regions_do_not_leak_names(self):
        # %c is defined inside a func.func (IsolatedFromAbove); a sibling
        # function must not be able to reference it.
        text = (
            '"builtin.module"() : () -> () ({\n'
            '  "func.func"() {sym_name = "a", function_type = () -> ()} '
            ': () -> () ({\n'
            '    %c = "arith.constant"() {value = 1 : i64} : () -> (i64)\n'
            '    "func.return"() : () -> ()\n'
            '  })\n'
            '  "func.func"() {sym_name = "b", function_type = () -> ()} '
            ': () -> () ({\n'
            '    "func.return"(%c) : (i64) -> ()\n'
            '  })\n'
            '})')
        with pytest.raises(ParseError, match="use of undefined value %c"):
            parse_module(text)

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing input"):
            parse_module('"func.return"() : () -> () garbage')

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty input"):
            parse_module("   // only a comment\n")

    def test_error_carries_line_information(self):
        text = ('"builtin.module"() : () -> () ({\n'
                '  "func.return"(%x) : (i32) -> ()\n'
                '})')
        with pytest.raises(ParseError, match="line 2:"):
            parse_module(text)


class TestPassPipelineSpecs:
    def test_parse_simple_spec(self):
        manager = parse_pass_pipeline("canonicalize, cse")
        assert len(manager) == 2
        assert [p.NAME for p in manager.passes] == ["canonicalize", "cse"]

    def test_paper_pass_names_are_registered(self):
        names = available_passes()
        for expected in ("canonicalize", "cse", "dce", "licm",
                         "detect-reduction", "loop-internalization",
                         "host-raising", "lower-sycl-accessors"):
            assert expected in names

    def test_unknown_pass_is_an_error(self):
        with pytest.raises(ValueError, match="available passes"):
            parse_pass_pipeline("canonicalize,frobnicate")

    def test_empty_spec_is_an_error(self):
        with pytest.raises(ValueError, match="empty pass pipeline"):
            parse_pass_pipeline(" , ")

    def test_named_pipeline_rejects_unsupported_options(self):
        from repro.transforms.pipelines import build_named_pipeline

        with pytest.raises(ValueError, match="unknown pipeline"):
            build_named_pipeline("nope")


class TestReproOptDriver:
    def _write_listing(self, tmp_path, builder=build_listing1_function):
        function, _ = builder()
        path = tmp_path / "input.mlir"
        path.write_text(
            Printer().print_module(wrap_in_module(function)) + "\n",
            encoding="utf-8")
        return path

    def test_canonicalize_cse_produces_verified_output(self, tmp_path):
        source = self._write_listing(tmp_path, build_listing2_function)
        out = tmp_path / "out.mlir"
        rc = repro_opt_main(
            [str(source), "--passes", "canonicalize,cse", "-o", str(out)])
        assert rc == 0
        optimized = parse_module(out.read_text(encoding="utf-8"))
        verify(optimized)
        filecheck(out.read_text(encoding="utf-8"), """
            CHECK: "func.func"
            CHECK: "func.return"
            CHECK-NEXT: }) {
            CHECK-SAME: non_uniform
        """)

    def test_cse_deduplicates_constants_textually(self, tmp_path):
        source = tmp_path / "dup.mlir"
        source.write_text(
            '"builtin.module"() : () -> () ({\n'
            '  "func.func"() {sym_name = "f", function_type = () -> ()} '
            ': () -> () ({\n'
            '    %a = "arith.constant"() {value = 41 : i64} : () -> (i64)\n'
            '    %b = "arith.constant"() {value = 41 : i64} : () -> (i64)\n'
            '    %s = "arith.addi"(%a, %b) : (i64, i64) -> (i64)\n'
            '    "func.return"(%s) : (i64) -> ()\n'
            '  })\n'
            '})\n', encoding="utf-8")
        out = tmp_path / "out.mlir"
        rc = repro_opt_main([str(source), "--passes", "canonicalize,cse",
                             "-o", str(out)])
        assert rc == 0
        filecheck(out.read_text(encoding="utf-8"), """
            CHECK: "arith.constant"
            CHECK-NOT: "arith.constant"
            CHECK: "func.return"
        """)

    def test_named_pipeline_runs(self, tmp_path):
        source = self._write_listing(tmp_path, build_listing3_function)
        out = tmp_path / "out.mlir"
        rc = repro_opt_main(
            [str(source), "--pipeline", "sycl-mlir", "-o", str(out)])
        assert rc == 0
        verify(parse_module(out.read_text(encoding="utf-8")))

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.mlir"
        bad.write_text('"no.such.op"() : () -> ()\n', encoding="utf-8")
        assert repro_opt_main([str(bad)]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_unknown_pass_exit_code(self, tmp_path, capsys):
        source = self._write_listing(tmp_path)
        assert repro_opt_main([str(source), "--passes", "nope"]) == 2
        assert "unknown pass" in capsys.readouterr().err

    def test_list_passes(self, capsys):
        assert repro_opt_main(["--list-passes"]) == 0
        listed = capsys.readouterr().out.split()
        assert "canonicalize" in listed and "cse" in listed

    def test_report_goes_to_stderr(self, tmp_path, capsys):
        source = self._write_listing(tmp_path, build_listing3_function)
        rc = repro_opt_main([str(source), "--passes", "canonicalize",
                             "-o", str(tmp_path / "o.mlir"), "--report"])
        assert rc == 0
        assert "Compile report" in capsys.readouterr().err


class TestFileCheckLite:
    def test_out_of_order_check_fails(self):
        with pytest.raises(FileCheckError):
            filecheck("a\nb\n", "CHECK: b\nCHECK: a")

    def test_check_next_enforces_adjacency(self):
        filecheck("a\nb\n", "CHECK: a\nCHECK-NEXT: b")
        with pytest.raises(FileCheckError):
            filecheck("a\nx\nb\n", "CHECK: a\nCHECK-NEXT: b")

    def test_check_not_window(self):
        filecheck("a\nc\n", "CHECK: a\nCHECK-NOT: b\nCHECK: c")
        with pytest.raises(FileCheckError):
            filecheck("a\nb\nc\n", "CHECK: a\nCHECK-NOT: b\nCHECK: c")

    def test_trailing_check_not(self):
        filecheck("a\n", "CHECK: a\nCHECK-NOT: z")
        with pytest.raises(FileCheckError):
            filecheck("a\nz\n", "CHECK: a\nCHECK-NOT: z")

    def test_empty_directive_is_rejected(self):
        with pytest.raises(FileCheckError, match="empty pattern"):
            filecheck("a\n", "CHECK: a\nCHECK:")

    def test_check_not_sees_the_match_line_prefix(self):
        # 'foo' occurs before 'bar' on the very line CHECK matches — the
        # forbidden pattern must still be reported.
        with pytest.raises(FileCheckError):
            filecheck("foo bar\n", "CHECK-NOT: foo\nCHECK: bar")
        filecheck("bar foo\n", "CHECK-NOT: foo\nCHECK: bar\nCHECK-SAME: foo")
