"""Tests for the one printed form: upstream MLIR's generic clause order.

The contract has three parts:

* **Round trip** — the printed text parses back through our own parser
  and re-prints byte-identically (``emit_mlir(parse(emit_mlir(m))) ==
  emit_mlir(m)``), so the printed form is a lossless serialization; the
  classic clause order is still read, as input only.
* **Golden stability** — the paper listings print exactly as the
  committed golden files; a printer change that alters the syntax must
  update the goldens consciously.
* **Location policy** — with ``print_locations`` the text only ever
  contains the plain ``loc("file":line:col)`` / ``loc(unknown)`` forms,
  never extended (fused/callsite/named) location syntax.
"""

import pathlib
import subprocess
import sys

import pytest

from repro.ir import parse_module
from repro.ir.printer import print_op
from repro.ir.verifier import verify
from repro.target import emit_mlir
from repro.transforms import build_named_pipeline, shipped_pipeline_names

from .filecheck import filecheck
from .helpers import (
    build_gemm_module,
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    classic_order,
    wrap_in_module,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

LISTING_BUILDERS = {
    "listing1": build_listing1_function,
    "listing2": build_listing2_function,
    "listing3": build_listing3_function,
}


def _listing_module(name):
    function = LISTING_BUILDERS[name]()[0]
    return wrap_in_module(function)


def _all_modules():
    modules = {name: _listing_module(name) for name in LISTING_BUILDERS}
    modules["gemm"] = build_gemm_module()[0]
    return modules


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(LISTING_BUILDERS) + ["gemm"])
    def test_export_round_trips_through_parser(self, name):
        module = _all_modules()[name]
        reference = print_op(module)
        text = emit_mlir(module)
        back = parse_module(text)
        verify(back)
        assert print_op(back) == reference
        assert emit_mlir(back) == text

    @pytest.mark.parametrize("name", sorted(LISTING_BUILDERS) + ["gemm"])
    @pytest.mark.parametrize("pipeline", shipped_pipeline_names())
    def test_export_round_trips_after_every_pipeline(self, name, pipeline):
        module = _all_modules()[name]
        build_named_pipeline(pipeline).run(module)
        text = emit_mlir(module)
        back = parse_module(text)
        verify(back)
        assert print_op(back) == print_op(module)
        assert emit_mlir(back) == text

    def test_parser_accepts_both_orders(self):
        """A module spelled in the classic order and its upstream twin
        parse to modules that print the same text."""
        upstream = emit_mlir(_listing_module("listing1"))
        classic = classic_order(upstream)
        assert classic != upstream  # genuinely different syntaxes
        assert emit_mlir(parse_module(classic)) == upstream
        assert emit_mlir(parse_module(upstream)) == upstream


class TestGoldenFiles:
    @pytest.mark.parametrize("name", sorted(LISTING_BUILDERS))
    def test_export_matches_golden(self, name):
        text = emit_mlir(_listing_module(name)) + "\n"
        golden = (GOLDEN_DIR / f"{name}.mlir").read_text()
        assert text == golden, (
            f"export of {name} drifted from tests/golden/{name}.mlir; "
            f"if the change is intentional, regenerate the golden file")

    @pytest.mark.parametrize("name", sorted(LISTING_BUILDERS))
    def test_lowered_export_matches_golden(self, name):
        module = _listing_module(name)
        build_named_pipeline("lower-to-llvm").run(module)
        text = emit_mlir(module) + "\n"
        golden = (GOLDEN_DIR / f"{name}_lowered.mlir").read_text()
        assert text == golden

    def test_goldens_parse_and_verify(self):
        for path in sorted(GOLDEN_DIR.glob("*.mlir")):
            module = parse_module(path.read_text(),
                                  filename=str(path))
            if path.name.endswith("_errors.mlir"):
                # Broken on purpose; what it must report is pinned by
                # test_verifier.py through --verify-diagnostics.
                assert verify(module, raise_on_error=False)
            else:
                verify(module)

    def test_upstream_clause_order(self):
        """Successors/regions precede the attribute dictionary and the
        signature — the upstream generic order, not the classic one."""
        module = _listing_module("listing1")
        build_named_pipeline("lower-to-llvm").run(module)
        filecheck(emit_mlir(module), '''
            CHECK: "builtin.module"() ({
            CHECK: "llvm.func"() ({
            CHECK: "llvm.getelementptr"
            CHECK-SAME: {static_offsets = []} : (!llvm.ptr<i32>, index) -> (!llvm.ptr)
            CHECK: "cf.cond_br"(%cond)[^bb1, ^bb2] {num_true_args = 0 : i64} : (i1) -> ()
            CHECK: "cf.br"()[^bb3] : () -> ()
            CHECK: "llvm.return"() : () -> ()
            CHECK: }) {function_type = (i1, i32, i32, memref<i32>, memref<i32>) -> (), sym_name = "foo"
        ''')


class TestLocationPolicy:
    def _exported_locs(self, module):
        import re

        text = emit_mlir(module, print_locations=True)
        return text, re.findall(r"loc\([^\n]*\)", text)

    @pytest.mark.parametrize("name", sorted(LISTING_BUILDERS) + ["gemm"])
    def test_only_plain_location_forms(self, name):
        import re

        module = _all_modules()[name]
        text, locs = self._exported_locs(module)
        assert locs, "print_locations produced no loc(...) trailers"
        plain = re.compile(r'loc\((unknown|"[^"]*":\d+:\d+)\)$')
        for loc in locs:
            assert plain.match(loc), f"extended location syntax: {loc}"

    def test_parsed_locations_survive_the_round_trip(self):
        text = ('"builtin.module"() ({\n'
                '  "func.func"() ({\n'
                '  }) {function_type = () -> (), sym_name = "f"} '
                ': () -> () loc("a.py":3:7)\n'
                '}) : () -> ()\n')
        module = parse_module(text)
        exported = emit_mlir(module, print_locations=True)
        assert 'loc("a.py":3:7)' in exported

    def test_locations_off_by_default(self):
        module = _listing_module("listing1")
        assert "loc(" not in emit_mlir(module)


class TestCLI:
    def _run(self, args, stdin_text):
        return subprocess.run(
            [sys.executable, "-m", "repro.tools.repro_opt", *args],
            input=stdin_text, capture_output=True, text=True,
            cwd=str(pathlib.Path(__file__).parent.parent))

    def test_output_is_upstream_and_byte_stable(self):
        source = classic_order(print_op(_listing_module("listing1")))
        result = self._run([], source)
        assert result.returncode == 0, result.stderr
        assert result.stdout.rstrip("\n") == \
            print_op(_listing_module("listing1"))
        # Byte-stable under a second pass through the tool.
        again = self._run([], result.stdout)
        assert again.returncode == 0, again.stderr
        assert again.stdout == result.stdout

    def test_lowered_output(self):
        source = print_op(_listing_module("listing2"))
        result = self._run(["--pipeline", "lower-to-llvm"], source)
        assert result.returncode == 0, result.stderr
        filecheck(result.stdout, '''
            CHECK: "llvm.func"
            CHECK: "cf.cond_br"
            CHECK-NOT: "scf.if"
        ''')
