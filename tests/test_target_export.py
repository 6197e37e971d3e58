"""Tests for the upstream-MLIR textual exporter (``--emit=mlir``).

The export contract has three parts:

* **Round trip** — the exported text parses back through our own parser
  and re-prints (classic form) identically to the source module, and
  re-exports byte-identically (``emit_mlir(parse(emit_mlir(m))) ==
  emit_mlir(m)``), so the exported form is a lossless serialization.
* **Golden stability** — exports of the paper listings match committed
  golden files byte for byte; a printer change that alters the exported
  syntax must update the goldens consciously.
* **Location policy** — with ``print_locations`` the exported text only
  ever contains the plain ``loc("file":line:col)`` / ``loc(unknown)``
  forms, never extended (fused/callsite/named) location syntax.
"""

import pathlib
import subprocess
import sys

import pytest

from repro.ir import Printer, parse_module
from repro.ir.printer import print_op
from repro.ir.verifier import verify
from repro.target import MLIRPrinter, emit_mlir
from repro.transforms import build_named_pipeline, shipped_pipeline_names

from .filecheck import filecheck
from .helpers import (
    build_gemm_module,
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
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
        module = _listing_module("listing1")
        classic = print_op(module)
        upstream = emit_mlir(module)
        assert classic != upstream  # genuinely different syntaxes
        assert print_op(parse_module(upstream)) == classic
        assert emit_mlir(parse_module(classic)) == upstream


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

    def test_emit_mlir_flag(self):
        source = print_op(_listing_module("listing1"))
        result = self._run(["--emit=mlir"], source)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith('"builtin.module"() ({')
        # Byte-stable under a second pass through the tool.
        again = self._run(["--emit=mlir"], result.stdout)
        assert again.returncode == 0, again.stderr
        assert again.stdout == result.stdout

    def test_emit_mlir_with_pipeline(self):
        source = print_op(_listing_module("listing2"))
        result = self._run(
            ["--emit=mlir", "--pipeline", "lower-to-llvm"], source)
        assert result.returncode == 0, result.stderr
        filecheck(result.stdout, '''
            CHECK: "llvm.func"
            CHECK: "cf.cond_br"
            CHECK-NOT: "scf.if"
        ''')

    def test_emit_defaults_to_classic_form(self):
        source = print_op(_listing_module("listing1"))
        result = self._run([], source)
        assert result.returncode == 0, result.stderr
        assert result.stdout.rstrip("\n") == source


class TestMLIRPrinterClass:
    def test_value_naming_matches_classic_printer(self):
        """Both printers unique names the same way, so diffs between the
        two forms of one module differ only in clause order."""
        module = _listing_module("listing3")
        classic = Printer().print_module(module)
        upstream = MLIRPrinter().print_op_to_string(module)
        classic_names = set(
            tok for tok in classic.replace(",", " ").split()
            if tok.startswith("%"))
        upstream_names = set(
            tok for tok in upstream.replace(",", " ").split()
            if tok.startswith("%"))
        assert classic_names == upstream_names
