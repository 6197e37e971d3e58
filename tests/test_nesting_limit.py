"""Regions nest at most ``MAX_NESTING_DEPTH`` deep.

Parsing, verifying, printing and the pipelines recurse per level, so a
module nested deeply enough used to end every tool in a
``RecursionError`` traceback.  The parser now rejects one level past the
limit with a located ``ParseError`` at the operation that opens the
region, and the deepest module it accepts goes through the whole stack:
verify, both printers, ``sycl-mlir`` and ``lower-to-llvm``, and every
tool (``repro-opt``, ``repro-run``, ``repro-lint``, a ``repro-served``
compile).
"""

import threading

import pytest

from repro.ir import ParseError, Printer, parse_module, verify
from repro.ir.parser import MAX_NESTING_DEPTH
from repro.serve import CompileService, ReproServer, ServeClient, ServeError
from repro.target import emit_mlir
from repro.tools import repro_lint, repro_opt, repro_run
from repro.transforms import build_named_pipeline, dump_pass_pipeline

FUNCTION = (
    '"func.func"() {function_type = (i32) -> (i32), sym_name = "f", '
    'sym_visibility = "public"} : () -> () ({\n'
    '^bb0(%a: i32):\n'
    '%0 = "arith.addi"(%a, %a) : (i32, i32) -> (i32)\n'
    '"func.return"(%0) : (i32) -> ()\n'
    '})')


def nested(depth):
    """A function whose body sits ``depth`` regions deep: the region of
    each of ``depth - 1`` nested modules (one a line), then its own."""
    module = '"builtin.module"() : () -> () ({\n'
    return module * (depth - 1) + FUNCTION + "\n})" * (depth - 1)


#: What one level too deep reports: the function on line ``depth``
#: opens the region past the limit.
TOO_DEEP = (f"line {MAX_NESTING_DEPTH + 1}:1: 'func.func' opens a region "
            f"nested deeper than {MAX_NESTING_DEPTH} levels")


@pytest.fixture()
def at_limit(tmp_path):
    path = tmp_path / "deepest.mlir"
    path.write_text(nested(MAX_NESTING_DEPTH))
    return str(path)


@pytest.fixture()
def past_limit(tmp_path):
    path = tmp_path / "too_deep.mlir"
    path.write_text(nested(MAX_NESTING_DEPTH + 1))
    return str(path)


class TestParser:
    def test_the_deepest_module_goes_through_the_stack(self):
        module = parse_module(nested(MAX_NESTING_DEPTH))
        verify(module)
        text = Printer().print_module(module)
        assert Printer().print_module(parse_module(emit_mlir(module))) == text
        for pipeline in ("sycl-mlir", "lower-to-llvm"):
            build_named_pipeline(pipeline).run(module)
            verify(module)
        lowered = emit_mlir(module)
        assert emit_mlir(parse_module(lowered)) == lowered
        assert "llvm.add" in lowered

    def test_one_level_deeper_is_a_located_parse_error(self):
        with pytest.raises(ParseError) as info:
            parse_module(nested(MAX_NESTING_DEPTH + 1))
        assert str(info.value) == TOO_DEEP
        # ... however much deeper (this used to be a RecursionError).
        with pytest.raises(ParseError) as info:
            parse_module(nested(2 * MAX_NESTING_DEPTH))
        assert info.value.line == MAX_NESTING_DEPTH + 1

    def test_the_limit_counts_regions_not_operations(self):
        # Side by side, siblings never add up to depth.
        sibling = '"builtin.module"() : () -> () ({\n})\n'
        text = ('"builtin.module"() : () -> () ({\n'
                + sibling * (3 * MAX_NESTING_DEPTH) + "})")
        assert sum(1 for _ in parse_module(text).walk()) == \
            3 * MAX_NESTING_DEPTH + 1


class TestTools:
    def test_repro_opt(self, at_limit, past_limit, capsys):
        for pipeline in ("sycl-mlir", "lower-to-llvm"):
            assert repro_opt.main([at_limit, "--pipeline", pipeline]) == 0
        capsys.readouterr()
        assert repro_opt.main([past_limit, "--pipeline", "sycl-mlir"]) == 1
        err = capsys.readouterr().err
        assert f"parse error: {TOO_DEEP}" in err
        assert "Traceback" not in err

    def test_repro_run(self, at_limit, past_limit, capsys):
        assert repro_run.main([at_limit, "--entry", "f",
                               "--pipeline", "sycl-mlir"]) == 0
        assert "result[0]" in capsys.readouterr().out
        assert repro_run.main([past_limit, "--entry", "f"]) == 1
        err = capsys.readouterr().err
        assert f"parse error: {TOO_DEEP}" in err
        assert "Traceback" not in err

    def test_repro_lint(self, at_limit, past_limit, capsys):
        assert repro_lint.main([at_limit, "--pipeline", "sycl-mlir"]) == 0
        capsys.readouterr()
        assert repro_lint.main([past_limit]) == 1
        err = capsys.readouterr().err
        assert f"parse error: {TOO_DEEP}" in err
        assert "Traceback" not in err

    def test_repro_served_compile(self):
        spec = dump_pass_pipeline(build_named_pipeline("sycl-mlir"))
        server = ReproServer(("127.0.0.1", 0), CompileService())
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        try:
            with ServeClient(host=server.host, port=server.port,
                             timeout=30.0) as client:
                done = client.compile(nested(MAX_NESTING_DEPTH), spec)
                assert done["text"].count('"builtin.module"') == \
                    MAX_NESTING_DEPTH - 1
                with pytest.raises(ServeError) as info:
                    client.compile(nested(MAX_NESTING_DEPTH + 1), spec)
                assert info.value.kind == "parse-error"
                assert TOO_DEEP in str(info.value)
                assert client.ping()["pong"] is True
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
