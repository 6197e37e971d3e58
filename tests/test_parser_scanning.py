"""The parser's scanning layer: cost, positions, interning.

* parsing is linear — measured without a clock, by counting the
  characters a ``str`` subclass hands out through slicing;
* every diagnostic and every operation ``Location`` keeps the exact text
  and ``line:column`` recorded in ``tests/golden/parse_errors.json`` and
  ``tests/golden/parse_locations.json`` (written by the parser this one
  replaced);
* interned type spellings are shared safely: no aliasing between
  operations, nothing left behind by a failed parse, forgotten when a
  type hook is registered, bounded in size; attribute dictionaries the
  same way;
* interning never changes what is parsed: every benchmark program and
  golden file re-prints byte for byte with the tables warm and cold.
"""

import json
import pathlib
import random

import pytest

from repro.dialects import register_type_parser, registered_type_parsers
from repro.ir import (
    IntegerAttr,
    ParseError,
    Printer,
    SymbolRefAttr,
    UnitAttr,
    f32,
    i32,
    i64,
    parse_module,
    parse_op,
    parse_type,
)
from repro.ir import parser as parser_module

from .helpers import (
    build_gemm_module,
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    classic_order,
    e2e_programs,
    wrap_in_module,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _listing_modules():
    return {
        "listing1": wrap_in_module(build_listing1_function()[0]),
        "listing2": wrap_in_module(build_listing2_function()[0]),
        "listing3": wrap_in_module(build_listing3_function()[0]),
        "gemm": build_gemm_module()[0],
    }


def _replicated_module(copies):
    """Module text holding ``copies`` copies of the three listing
    functions (the parser does not check symbol uniqueness)."""
    text = Printer().print_module(wrap_in_module(
        build_listing1_function()[0], build_listing2_function()[0],
        build_listing3_function()[0]))
    first, *body, last = text.split("\n")
    return "\n".join([first] + body * copies + [last])


class CountingStr(str):
    """A string that counts the characters copied out of it by indexing
    and slicing (regex matching and ``startswith`` copy nothing)."""

    copied = 0

    def __getitem__(self, key):
        piece = str.__getitem__(self, key)
        CountingStr.copied += len(piece)
        return piece


class TestLinearCost:
    def test_characters_copied_grow_linearly(self):
        # 66 functions, ~1000 operations.  A parser that slices the
        # consumed prefix once per operation copies ~500x the input; the
        # line table and the anchored patterns copy a small fraction.
        text = _replicated_module(22)
        functions = text.count('"func.func"')
        assert functions >= 64
        CountingStr.copied = 0
        module = parse_module(CountingStr(text))
        assert sum(1 for _ in module.walk()) > 1000
        assert CountingStr.copied <= 2 * len(text)

    def test_copying_does_not_depend_on_where_the_error_is(self):
        text = _replicated_module(22)
        broken = text + " junk"
        CountingStr.copied = 0
        with pytest.raises(ParseError):
            parse_module(CountingStr(broken))
        assert CountingStr.copied <= 2 * len(broken)


class TestPositionGoldens:
    CASES = json.loads((GOLDEN_DIR / "parse_errors.json").read_text())
    LOCATIONS = json.loads((GOLDEN_DIR / "parse_locations.json").read_text())

    @pytest.mark.parametrize("case", CASES, ids=lambda case: case["label"])
    def test_diagnostic_text_and_position(self, case):
        with pytest.raises(ParseError) as info:
            parse_op(case["text"],
                     allow_unregistered=case["allow_unregistered"])
        assert str(info.value) == case["error"]
        line, column = case["error"].split(":")[:2]
        assert (info.value.line, info.value.column) == \
            (int(line[len("line "):]), int(column))

    def test_error_on_the_last_line_of_a_large_module(self):
        text = _replicated_module(70)  # ~4000 operations
        lines = text.split("\n")
        assert len(lines) > 4000
        lines[-2] += " oops"  # where the module's next op would start
        with pytest.raises(ParseError) as info:
            parse_module("\n".join(lines))
        column = lines[-2].index("oops") + 1
        assert str(info.value) == (
            f"line {len(lines) - 1}:{column}: expected operation name in "
            f"double quotes, found 'oops\\n}}) {{sym'")

    def test_error_position_after_crlf_tabs_and_comments(self):
        text = ('"test.r"() : () -> () ({\r\n'
                '\t// %a = "x"() ) }\r\n'
                '\t%a = "test.a"() : () -> (i32) // fine\r\n'
                '\t%a = "test.a"() : () -> (i32)\r\n'
                '})')
        with pytest.raises(ParseError) as info:
            parse_op(text, allow_unregistered=True)
        assert str(info.value) == "line 4:31: redefinition of value %a"

    @pytest.mark.parametrize("key", sorted(LOCATIONS))
    def test_every_op_location(self, key):
        if key.startswith("golden/"):
            text = (GOLDEN_DIR / key[len("golden/"):]).read_text()
        else:
            name, form = key.split(".")
            text = Printer().print_module(_listing_modules()[name])
            if form == "classic":
                text = classic_order(text)
        parsed = parse_module(text, filename="in.mlir")
        assert [[op.location.line, op.location.column]
                for op in parsed.walk()] == self.LOCATIONS[key]
        assert {op.location.filename for op in parsed.walk()} == {"in.mlir"}

    def test_explicit_location_wins_without_a_position_lookup(self):
        text = Printer(print_locations=True).print_module(
            parse_module(Printer().print_module(_listing_modules()["gemm"]),
                         filename="a.mlir"))
        parser = parser_module.Parser("\n\n" + text, filename="b.mlir")
        module = parser.parse_operation()
        assert {op.location.filename for op in module.walk()} == {"a.mlir"}
        assert module.location.line == 1  # not 3, where it was re-parsed
        assert parser._line_starts is None  # the table was never built


class TestRobustness:
    def test_mutated_input_only_ever_raises_parse_error(self):
        # The op-head pattern and the token-by-token diagnosis of a head
        # it rejects must agree on what a well-formed head is.
        rng = random.Random(12)
        text = Printer().print_module(_listing_modules()["listing3"])
        alphabet = '%"(){}[]<>:,=-^!@/ \nxi3'
        for _ in range(400):
            pos = rng.randrange(len(text))
            mutated = rng.choice((
                text[:pos] + text[pos + 1:],
                text[:pos] + rng.choice(alphabet) + text[pos:],
                text[:pos] + rng.choice(alphabet) + text[pos + 1:],
                text[:pos]))
            try:
                parse_module(mutated)
            except ParseError as error:
                assert error.line >= 1 and error.column >= 1

    def test_a_comment_inside_a_value_list_names_no_value(self):
        module = parse_op(
            '"test.r"() : () -> () ({\n'
            '  %a, // %x, %y\n %b = "test.a"() : () -> (i32, i32)\n'
            '  "test.use"(%b, // %a,\n %a) : (i32, i32) -> ()\n'
            '})', allow_unregistered=True)
        define, use = module.regions[0].blocks[0].operations
        assert [r.name_hint for r in define.results] == ["a", "b"]
        assert list(use.operands) == [define.results[1], define.results[0]]

    def test_dialect_type_without_a_namespace_is_a_diagnostic(self):
        # `!_x` starts like an identifier but names no dialect; this used
        # to escape as an AttributeError.
        with pytest.raises(ParseError) as info:
            parse_op('"test.op"() : () -> (!_x)', allow_unregistered=True)
        assert str(info.value) == \
            "line 1:23: expected a dialect type name after '!'"

    def test_failed_matches_backtrack_in_linear_time(self):
        # Each of these makes a nested-quantifier pattern explode; with
        # the deterministic patterns they fail at once.
        for text in (
                '%0 = "unterminated' + "x" * 100_000,
                '"op"(%a' + " " * 50_000 + "// x // y" * 2_000 + "\n;",
                '"op"(' + "%a, " * 20_000 + ";",
                '"op"() : () -> (memref<' + "4x" * 20_000 + ")"):
            with pytest.raises(ParseError):
                parse_op(text, allow_unregistered=True)


def _clear_intern_tables():
    for table in (parser_module._INTERNED_TYPES,
                  parser_module._INTERNED_ATTRS,
                  parser_module._INTERNED_DICTS):
        table.clear()


class TestInterning:
    def setup_method(self):
        _clear_intern_tables()

    def test_equal_attribute_text_gives_distinct_dicts(self):
        module = parse_op(
            '"test.r"() : () -> () ({\n'
            '  %a = "test.c"() {value = 1 : i32} : () -> (memref<4xf32>)\n'
            '  %b = "test.c"() {value = 1 : i32} : () -> (memref<4xf32>)\n'
            '})', allow_unregistered=True)
        first, second = module.regions[0].blocks[0].operations
        assert first.attributes == second.attributes
        assert first.attributes is not second.attributes
        assert first.results[0].type is second.results[0].type  # shared

        first.attributes["value"] = IntegerAttr(2, i64())
        first.attributes["extra"] = IntegerAttr(3, i64())
        first.results[0].type = f32()
        assert second.attributes == {"value": IntegerAttr(1, i32())}
        assert str(second.results[0].type) == "memref<4xf32>"
        assert str(parse_type("memref<4xf32>")) == "memref<4xf32>"

    def test_type_instances_are_immutable(self):
        type_ = parse_type("(memref<?x!sycl_id_2>, i32) -> (index)")
        assert parse_type("(memref<?x!sycl_id_2>, i32) -> (index)") is type_
        with pytest.raises(AttributeError):
            type_.inputs = ()

    @pytest.mark.parametrize("text", [
        "(i32, i33x) -> ()", "memref<4xf32, >", "!sycl_bogus_9",
        "vector<4xq>", "(i32) -> (!nosuch.type)"])
    def test_failed_parse_leaves_no_entry(self, text):
        with pytest.raises(ParseError):
            parse_type(text)
        assert text not in parser_module._INTERNED_TYPES
        # ... and the failure is reported again, not answered from a table.
        with pytest.raises(ParseError):
            parse_type(text)

    def test_only_exactly_delimited_spellings_are_entered(self):
        # `memref <4xf32>` reads past the spelling `memref`; a comment
        # hides the `)` the flat-list pattern stops at.
        assert str(parse_type("memref <4xf32>")) == "memref<4xf32>"
        assert str(parse_type("(i32 // not yet )\n, f32) -> ()")) == \
            "(i32, f32) -> ()"
        assert "memref" not in parser_module._INTERNED_TYPES
        assert not any("//" in key for key in parser_module._INTERNED_TYPES)

    def test_reregistering_a_hook_forgets_interned_spellings(self):
        original = registered_type_parsers()["sycl"]
        before = parse_type("memref<?x!sycl_id_2>")
        assert parser_module._INTERNED_TYPES
        try:
            register_type_parser(
                "sycl", lambda text, parse: i32() if text == "sycl_id_2"
                else original(text, parse))
            assert not parser_module._INTERNED_TYPES
            # No stale entry shadows the new hook, not even inside a
            # composite spelling.
            assert str(parse_type("memref<?x!sycl_id_2>")) == "memref<?xi32>"
        finally:
            register_type_parser("sycl", original)
        assert parse_type("memref<?x!sycl_id_2>") == before

    def test_one_dictionary_spelling_gives_private_dicts(self):
        text = ('"test.r"() : () -> () ({\n'
                '  %a = "test.c"() {value = 1 : i32, to = @f} : () -> (i32)\n'
                '  %b = "test.c"() {value = 1 : i32, to = @f} : () -> (i32)\n'
                '})')
        expected = {"value": IntegerAttr(1, i32()), "to": SymbolRefAttr("f")}
        first, second = parse_op(text, allow_unregistered=True) \
            .regions[0].blocks[0].operations
        assert "{value = 1 : i32, to = @f}" in parser_module._INTERNED_DICTS
        first.set_attr("value", IntegerAttr(2, i64()))
        first.set_attr("extra", UnitAttr())
        assert second.attributes == expected
        again = parse_op(text, allow_unregistered=True) \
            .regions[0].blocks[0].operations
        assert [op.attributes for op in again] == [expected, expected]

    def test_only_flat_exactly_parsed_dictionaries_are_entered(self):
        # Nested, commented, holding a string (a name of one program,
        # seldom seen again), or failing: none is entered.
        parse_op('"test.op"() {d = {x = unit}} : () -> ()',
                 allow_unregistered=True)
        parse_op('"test.op"() {a = unit // c\n} : () -> ()',
                 allow_unregistered=True)
        parse_op('"test.op"() {sym_name = "k", a = unit} : () -> ()',
                 allow_unregistered=True)
        with pytest.raises(ParseError):
            parse_op('"test.op"() {a = 1.5 : i32} : () -> ()',
                     allow_unregistered=True)
        assert not parser_module._INTERNED_DICTS

    def test_registering_a_hook_forgets_interned_dictionaries(self):
        original = registered_type_parsers()["sycl"]
        text = '"test.op"() {t = !sycl_id_2} : () -> ()'
        before = parse_op(text, allow_unregistered=True).attributes
        assert parser_module._INTERNED_DICTS
        try:
            register_type_parser(
                "sycl", lambda text, parse: i32() if text == "sycl_id_2"
                else original(text, parse))
            assert not parser_module._INTERNED_DICTS
            assert str(parse_op(text, allow_unregistered=True)
                       .attributes["t"]) == "i32"
        finally:
            register_type_parser("sycl", original)
        assert parse_op(text, allow_unregistered=True).attributes == before

    def test_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(parser_module, "_MAX_INTERNED_TYPES", 16)
        for width in range(1, 200):
            parse_type(f"i{width}")
            assert len(parser_module._INTERNED_TYPES) <= 16
        assert parse_type("i199") == parse_type("i199")
        # One oversized spelling is parsed, never kept.
        huge = "(" + ", ".join(["i32"] * 400) + ") -> ()"
        assert len(parse_type(huge).inputs) == 400
        assert huge not in parser_module._INTERNED_TYPES
        for value in range(40):
            parse_op(f'"test.op"() {{v = {value} : i32}} : () -> ()',
                     allow_unregistered=True)
            assert len(parser_module._INTERNED_DICTS) <= 16


def _corpus():
    """``(name, text)`` of every program the benchmark compiles, runs and
    serves at seed 101, and of every IR file under ``tests/golden``."""
    programs = e2e_programs()
    for source in (programs.compile_variants, programs.exec_programs,
                   programs.serve_programs):
        for program in source(101):
            yield program.name, programs.module_text([program])
    for path in sorted(GOLDEN_DIR.rglob("*.mlir")):
        yield str(path.relative_to(GOLDEN_DIR)), path.read_text()


class TestCorpusRoundTrip:
    """Interning changes no parse, and the classic clause order is still
    read: every corpus text and its classic-order twin parse to modules
    that print the same text, from cleared tables and from warm ones."""

    def _reprinted(self, text):
        printed = Printer().print_module(parse_module(text))
        classic = classic_order(printed)
        assert classic != printed
        assert Printer().print_module(parse_module(printed)) == printed
        assert Printer().print_module(parse_module(classic)) == printed
        if "//" not in text:  # a commented file is not in printed form
            assert text.rstrip("\n") == printed
        return printed

    def test_cold_and_warm_tables_print_alike(self):
        corpus = list(_corpus())
        assert len(corpus) >= 90
        _clear_intern_tables()
        cold = [self._reprinted(text) for _, text in corpus]
        assert parser_module._INTERNED_DICTS
        warm = [self._reprinted(text) for _, text in corpus]
        for (name, _), first, second in zip(corpus, cold, warm):
            assert first == second, name
