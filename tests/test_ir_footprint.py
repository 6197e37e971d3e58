"""The IR's object budget, and what it must not cost.

The cyclic collector's work is proportional to the GC-tracked objects a
module is made of, so the number per operation is a budget
(``docs/performance.md``, "The IR object budget and the collector"):

* a parsed operation costs at most 6.5 tracked objects, and the count
  grows linearly with the module — measured without a clock, by diffing
  ``gc.get_objects()`` around a parse with the collector off;
* locations worked out on demand equal the ones the parser used to
  attach, and survive ``clone`` and the ``loc(...)`` round trip;
* a dropped module is collectable and pins neither its parser nor its
  source text — cold, after a compile-cache miss and after a hit;
* a cache hit (children spliced in, the old body only unlinked) leaves
  the module a cold compile would have produced;
* no operation carries an instance ``__dict__``: not after a parse, a
  clone or an in-place retype, and not an unregistered one.
"""

import gc
import platform
import weakref

import pytest

from repro.dialects import arith, func
from repro.ir import (
    Location,
    Operation,
    Printer,
    UnregisteredOp,
    i64,
    location_of,
    parse_module,
    verify,
)
from repro.ir import parser as parser_module
from repro.ir.fingerprint import fingerprint
from repro.ir.values import Use
from repro.transforms import CompileCache, build_named_pipeline

from .helpers import (
    build_gemm_module,
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    wrap_in_module,
)

#: Tracked objects per parsed operation (11.25 before the budget).
BUDGET = 6.5


def _module_text(copies):
    """``copies`` copies of the three paper listings in one module."""
    text = Printer().print_module(wrap_in_module(
        build_listing1_function()[0], build_listing2_function()[0],
        build_listing3_function()[0]))
    first, *body, last = text.split("\n")
    return "\n".join([first] + body * copies + [last])


def _tracked_by_parse(text):
    """``(tracked objects the parsed module is made of, operations)``."""
    parse_module(text)  # interned spellings are the process's, not the module's
    gc.collect()
    gc.disable()
    try:
        before = {id(obj) for obj in gc.get_objects()}
        module = parse_module(text)
        made = sum(1 for obj in gc.get_objects() if id(obj) not in before)
    finally:
        gc.enable()
    # `before` itself is the one new object that is not the module's.
    return made - 1, sum(1 for _ in module.walk())


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="counts CPython's GC-tracked objects")
class TestObjectBudget:
    def test_a_parsed_operation_stays_within_the_budget(self):
        tracked, operations = _tracked_by_parse(_module_text(50))
        assert operations >= 2000
        assert tracked / operations <= BUDGET, tracked / operations

    def test_tracked_objects_grow_linearly_with_the_module(self):
        small, small_ops = _tracked_by_parse(_module_text(50))
        large, large_ops = _tracked_by_parse(_module_text(200))
        assert large_ops >= 3.9 * small_ops
        # Per-operation cost does not grow with the module (no table,
        # map or location object that scales with position or size).
        assert large / large_ops <= 1.01 * small / small_ops

    def test_equal_attribute_spellings_share_one_instance(self):
        module = parse_module(_module_text(2))
        constants = [op for op in module.walk()
                     if op.name == "arith.constant"]
        by_spelling = {}
        for op in constants:
            value = op.get_attr("value")
            assert by_spelling.setdefault(str(value), value) is value
        assert len(by_spelling) < len(constants)
        # Shared values, private dictionaries.
        first, second = constants[:2]
        assert first.attributes is not second.attributes

    def test_the_attribute_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(parser_module, "_MAX_INTERNED_TYPES", 16)
        parser_module._INTERNED_ATTRS.clear()
        for value in range(200):
            parser_module.parse_attribute(f"{value} : i64")
            assert len(parser_module._INTERNED_ATTRS) <= 16
        parser_module.parse_attribute("1" * 600 + " : i64")
        assert not any(len(key) > 512
                       for key in parser_module._INTERNED_ATTRS)

    def test_only_an_exactly_consumed_spelling_is_interned(self):
        parser_module._INTERNED_ATTRS.clear()
        # `1 : memref` is only the beginning of this attribute's type.
        wide = parser_module.parse_attribute("1 : memref<4xf32>")
        assert str(wide.type) == "memref<4xf32>"
        with pytest.raises(parser_module.ParseError):
            parser_module.parse_attribute("1 : nonsense")
        assert not parser_module._INTERNED_ATTRS
        assert parser_module.parse_attribute("-0.0 : f32") \
            is parser_module.parse_attribute("-0.0 : f32")
        # Keyed by spelling, not by value: 0.0 == -0.0, 1 == True.
        assert str(parser_module.parse_attribute("0.0 : f32")) != \
            str(parser_module.parse_attribute("-0.0 : f32"))
        assert parser_module.parse_attribute("true") \
            is not parser_module.parse_attribute("1 : i1")


class TestNoInstanceDict:
    def test_no_op_class_makes_a_dict(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        classes = [Operation, *subclasses(Operation)]
        assert len(classes) > 150 and UnregisteredOp in classes
        assert [cls for cls in classes if cls.__dictoffset__] == []

    def test_parsed_cloned_and_retyped_ops_have_no_dict(self):
        module = parse_module(_module_text(1))
        clone = module.clone({})
        # lower-to-llvm retypes each 1:1 conversion in place.
        build_named_pipeline("lower-to-llvm").run(clone)
        names = {op.name for op in clone.walk()}
        assert {"llvm.load", "llvm.store", "llvm.add"} <= names
        unregistered = parse_module(
            '"builtin.module"() ({\n  "test.widget"() : () -> ()\n})'
            " : () -> ()", allow_unregistered=True).clone({})
        ops = [*module.walk(), *clone.walk(), *unregistered.walk()]
        assert [op for op in ops if hasattr(op, "__dict__")] == []
        assert unregistered.body.first_op.name == "test.widget"


class TestLazyLocations:
    TEXT = ('"builtin.module"() : () -> () ({\n'
            '  "func.func"() {sym_name = "f", function_type = () -> ()}'
            ' : () -> () ({\n'
            '    %c = "arith.constant"() {value = 1 : i64} : () -> (i64)\n'
            '\n'
            '      "func.return"() : () -> ()\n'
            '  })\n'
            '})\n')

    def test_first_and_last_operation_of_a_multi_line_module(self):
        module = parse_module(self.TEXT, filename="in.mlir")
        ops = list(module.walk())
        assert ops[0].location == Location("in.mlir", 1, 1)
        assert ops[1].location == Location("in.mlir", 2, 3)
        assert ops[2].location == Location("in.mlir", 3, 5)
        assert ops[-1].location == Location("in.mlir", 5, 7)
        # Equal values each time, and usable as keys.
        assert ops[-1].location == ops[-1].location
        assert hash(ops[-1].location) == hash(Location("in.mlir", 5, 7))
        assert location_of(ops[-1]).describe() == "in.mlir:5:7"

    def test_locations_survive_clone(self):
        module = parse_module(self.TEXT, filename="in.mlir")
        clone = module.clone({})
        assert [op.location for op in clone.walk()] == \
            [op.location for op in module.walk()]

    def test_locations_survive_the_loc_round_trip(self):
        module = parse_module(self.TEXT, filename="in.mlir")
        printed = Printer(print_locations=True).print_module(module)
        assert 'loc("in.mlir":5:7)' in printed
        again = parse_module("\n\n" + printed, filename="other.mlir")
        assert [op.location for op in again.walk()] == \
            [op.location for op in module.walk()]
        assert Printer(print_locations=True).print_module(again) == printed

    def test_assigned_locations_are_kept_as_given(self):
        module = parse_module(self.TEXT, filename="in.mlir")
        op = list(module.walk())[2]
        given = Location("kernel.py", 12, 1)
        op.location = given
        assert op.location is given
        assert op.clone({}).location is given
        op.location = None
        assert op.location is None
        built = arith.ConstantOp.build(1, i64())
        assert built.location is None
        built.location = given
        assert built.location is given

    def test_kernel_builder_locations_point_at_user_code(self):
        module, *_ = build_gemm_module()
        located = [op.location for op in module.walk()
                   if op.location is not None]
        assert located and all(
            type(loc) is Location and loc.filename.endswith(".py")
            for loc in located)


class Text(str):
    """A source text a ``weakref`` can watch."""


def _lowering_free_compile(text, cache):
    """Parse ``text`` and run the shipped pipeline through ``cache``;
    ``(module, weak references to module, parser and text)``."""
    source = Text(text)
    parser = parser_module.Parser(source, filename="in.mlir")
    module = parser.parse_operation()
    manager = build_named_pipeline("sycl-mlir")
    manager.cache = cache
    report = manager.run(module)
    watched = [weakref.ref(module), weakref.ref(parser), weakref.ref(source)]
    return module, report, watched


class TestNothingIsPinned:
    def _text(self):
        return Printer().print_module(build_gemm_module()[0])

    def test_a_dropped_module_is_collectable(self):
        module, _, watched = _lowering_free_compile(self._text(), None)
        # Asking for a location must not tie the module to its text.
        assert module.location.filename == "in.mlir"
        del module
        gc.collect()
        assert [ref() for ref in watched] == [None, None, None]

    def test_neither_a_cache_miss_nor_a_hit_pins_the_source(self):
        cache = CompileCache()
        text = self._text()
        module, report, watched = _lowering_free_compile(text, cache)
        assert report.get_statistic("compile-cache", "misses") == 1
        del module
        gc.collect()
        assert [ref() for ref in watched] == [None, None, None]
        module, report, watched = _lowering_free_compile(text, cache)
        assert report.get_statistic("compile-cache", "hits") == 1
        del module
        gc.collect()
        assert [ref() for ref in watched] == [None, None, None]
        assert len(cache) == 1


class TestCacheHitSplice:
    def test_a_hit_equals_a_cold_compile(self):
        text = Printer().print_module(build_gemm_module()[0])
        cold, _, _ = _lowering_free_compile(text, None)
        cache = CompileCache()
        _lowering_free_compile(text, cache)
        hit, report, _ = _lowering_free_compile(text, cache)
        assert report.get_statistic("compile-cache", "hits") == 1
        verify(hit)
        assert Printer().print_module(hit) == Printer().print_module(cold)
        assert fingerprint(hit) == fingerprint(cold)
        # The use-def chains are whole, and closed over the module: the
        # body the hit replaced was unlinked, not dismantled, and must
        # not be reachable from anything that is still in it.
        inside = {id(op) for op in hit.walk()}
        for op in hit.walk():
            assert op is hit or id(op.parent_op()) in inside
            for index, operand in enumerate(op.operands):
                assert Use(op, index) in operand.uses
            for result in op.results:
                assert all(id(user) in inside for user in result.users())

    def test_a_second_hit_does_not_see_the_first_ones_edits(self):
        text = Printer().print_module(build_gemm_module()[0])
        cache = CompileCache()
        _lowering_free_compile(text, cache)
        first, _, _ = _lowering_free_compile(text, cache)
        expected = Printer().print_module(first)
        for op in list(first.walk_type(func.FuncOp)):
            op.erase()
        second, _, _ = _lowering_free_compile(text, cache)
        assert Printer().print_module(second) == expected
